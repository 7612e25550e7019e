//! `gnumap client` — blocking wire client for the loopback server.

use super::{parse_cutoff, parse_float_opt, parse_ploidy, Args};
use std::fs::File;
use std::io::{BufWriter, Write};

pub(super) fn cmd_client(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let addr = args.require("addr")?;
    let do_ping = args.flag("ping");
    let do_stats = args.flag("stats");
    let do_shutdown = args.flag("shutdown");
    let reads_path = args.optional("reads");
    let ploidy_s: String = args.get("ploidy", "monoploid".to_string())?;
    let alpha = parse_float_opt(args, "alpha")?;
    let fdr = parse_float_opt(args, "fdr")?;
    let min_coverage: f64 = args.get("min-coverage", 3.0f64)?;
    let chunk_size: usize = args.get("chunk-size", 256usize)?;
    let deadline_ms: u32 = args.get("deadline-ms", 0u32)?;
    let out_path = args.optional("out");
    let chrom: String = args.get("chrom", "chrSim".to_string())?;
    let sample: String = args.get("sample", "sample".to_string())?;
    args.reject_unknown()?;

    let modes = [do_ping, do_stats, do_shutdown, reads_path.is_some()];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err("pick exactly one of --ping, --stats, --shutdown, or --reads".into());
    }

    let mut client = server::Client::connect(&*addr).map_err(|e| format!("connect {addr}: {e}"))?;
    if do_ping {
        client.ping(0x676e756d).map_err(|e| e.to_string())?;
        return writeln!(out, "pong from {addr}").map_err(|e| e.to_string());
    }
    if do_stats {
        let s = client.stats().map_err(|e| e.to_string())?;
        return writeln!(
            out,
            "sessions {}/{} open/total ({} aborted)\n\
             reads    {} accepted, {} processed, {} mapped\n\
             pairhmm  {} candidate(s) evaluated ({} abandoned), {} survivor(s), {} deposit column(s)\n\
             outcomes {} fallback read(s), {} underflowed read(s), {} without candidates\n\
             batches  {} ({:.2} reads/batch, {:.2} sessions/batch, {} cross-session)\n\
             ingress  {} now, {} peak; {} busy, {} timeout(s)\n\
             latency  p50 {} µs, p99 {} µs\n\
             cpu      {:.3}s total, {:.3}s busiest worker\n\
             evidence {} B live, {} B peak",
            s.sessions_open,
            s.sessions_opened,
            s.sessions_aborted,
            s.reads_accepted,
            s.reads_processed,
            s.reads_mapped,
            s.candidates_evaluated,
            s.abandoned,
            s.survivors,
            s.deposit_columns,
            s.fallbacks,
            s.underflowed,
            s.no_candidates,
            s.batches_dispatched,
            s.mean_batch_occupancy,
            s.mean_sessions_per_batch,
            s.cross_session_batches,
            s.ingress_depth,
            s.max_ingress_depth,
            s.busy_rejections,
            s.timeouts,
            s.p50_service_micros,
            s.p99_service_micros,
            s.worker_cpu_secs,
            s.max_worker_cpu_secs,
            s.evidence_bytes,
            s.evidence_bytes_peak,
        )
        .map_err(|e| e.to_string());
    }
    if do_shutdown {
        client.shutdown_server().map_err(|e| e.to_string())?;
        return writeln!(out, "server at {addr} is shutting down").map_err(|e| e.to_string());
    }

    // Session mode: stream a FASTQ through the server and print calls.
    let reads_path = reads_path.expect("mode check guarantees --reads");
    let ploidy = parse_ploidy(&ploidy_s)?;
    let cutoff = parse_cutoff(alpha, fdr)?;
    let session_config = server::SessionConfig {
        ploidy,
        cutoff,
        min_total: min_coverage,
    };
    let session = client
        .open_session(session_config)
        .map_err(|e| e.to_string())?;

    // Stream the FASTQ incrementally: constant client memory, and chunked
    // submits give the server's batcher cross-request material.
    let mut stream = exec::FastqStream::open(&reads_path).map_err(|e| e.to_string())?;
    let mut submitted = 0u64;
    loop {
        let chunk = exec::ReadStream::next_chunk(&mut stream, chunk_size.max(1))
            .map_err(|e| format!("{reads_path}: {e}"))?;
        if chunk.is_empty() {
            break;
        }
        submitted += u64::from(submit_with_retry(&mut client, session, &chunk)?);
    }
    let result = client
        .finalize(session, deadline_ms)
        .map_err(|e| e.to_string())?;
    let records: Vec<_> = result
        .calls
        .iter()
        .map(|c| c.to_vcf_record(&chrom))
        .collect();
    writeln!(
        out,
        "session {session}: {submitted} read(s) submitted, {} mapped, {} call(s), \
         accumulator digest {:016x}",
        result.reads_mapped,
        result.calls.len(),
        result.digest
    )
    .map_err(|e| e.to_string())?;
    match out_path {
        Some(p) => {
            let w = BufWriter::new(File::create(&p).map_err(|e| format!("{p}: {e}"))?);
            genome::vcf::write_vcf(w, &sample, &records).map_err(|e| e.to_string())?;
            writeln!(out, "wrote {} call(s) to {p}", records.len()).map_err(|e| e.to_string())
        }
        None => genome::vcf::write_vcf(out, &sample, &records).map_err(|e| e.to_string()),
    }
}

fn submit_with_retry(
    client: &mut server::Client,
    session: u64,
    chunk: &[genome::SequencedRead],
) -> Result<u32, String> {
    loop {
        match client.submit_reads(session, chunk) {
            Ok(n) => return Ok(n),
            Err(err) if err.is_kind(server::ErrorKind::Busy) => {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            Err(err) => return Err(err.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cli::run_to_string;

    #[test]
    fn serve_and_client_end_to_end() {
        let dir = std::env::temp_dir().join(format!("gnumap-cli-serve-{}", std::process::id()));
        let dirs = dir.to_str().unwrap().to_string();
        std::fs::create_dir_all(&dir).unwrap();
        run_to_string(&[
            "simulate",
            "--out-dir",
            &dirs,
            "--genome-len",
            "6000",
            "--snps",
            "5",
            "--coverage",
            "10",
            "--seed",
            "31",
        ])
        .unwrap();
        let fa = format!("{dirs}/reference.fa");
        let fq = format!("{dirs}/reads.fq");
        let port_file = format!("{dirs}/port");

        // The server blocks until a Shutdown frame, so it runs on a thread.
        let fa2 = fa.clone();
        let pf2 = port_file.clone();
        let server_thread = std::thread::spawn(move || {
            run_to_string(&[
                "serve",
                "--reference",
                &fa2,
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--port-file",
                &pf2,
            ])
        });

        // Wait for the port file to appear.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                let s = s.trim().to_string();
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(std::time::Instant::now() < deadline, "server never bound");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let pong = run_to_string(&["client", "--addr", &addr, "--ping"]).unwrap();
        assert!(pong.contains("pong"), "{pong}");

        let vcf = format!("{dirs}/served.vcf");
        let msg = run_to_string(&[
            "client",
            "--addr",
            &addr,
            "--reads",
            &fq,
            "--out",
            &vcf,
            "--chunk-size",
            "32",
        ])
        .unwrap();
        assert!(msg.contains("accumulator digest"), "{msg}");

        // The served calls match a local serial run over the same input.
        let vcf_local = format!("{dirs}/local.vcf");
        run_to_string(&[
            "call",
            "--reference",
            &fa,
            "--reads",
            &fq,
            "--out",
            &vcf_local,
            "--driver",
            "stream",
            "--threads",
            "1",
        ])
        .unwrap();
        let strip = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(|l| l.split('\t').take(5).collect::<Vec<_>>().join("\t"))
                .collect()
        };
        let served = std::fs::read_to_string(&vcf).unwrap();
        let local = std::fs::read_to_string(&vcf_local).unwrap();
        assert_eq!(strip(&served), strip(&local), "served calls diverged");

        let stats = run_to_string(&["client", "--addr", &addr, "--stats"]).unwrap();
        assert!(stats.contains("reads"), "{stats}");
        assert!(stats.contains("candidate(s) evaluated"), "{stats}");

        // Exactly one mode must be chosen.
        let err = run_to_string(&["client", "--addr", &addr, "--ping", "--stats"]).unwrap_err();
        assert!(err.contains("exactly one"), "{err}");

        let bye = run_to_string(&["client", "--addr", &addr, "--shutdown"]).unwrap();
        assert!(bye.contains("shutting down"), "{bye}");
        let serve_out = server_thread.join().unwrap().unwrap();
        assert!(serve_out.contains("listening on"), "{serve_out}");
        assert!(serve_out.contains("drained:"), "{serve_out}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
