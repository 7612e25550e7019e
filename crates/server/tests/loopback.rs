//! End-to-end loopback tests: real TCP, concurrent clients, interleaved
//! sessions, bit-identical conformance against the serial driver, and
//! disconnect cleanup.

use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::config::GnumapConfig;
use gnumap_core::driver::encode_calls;
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::Observer;
use gnumap_core::pipeline::run_serial;
use gnumap_core::report::RunReport;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use server::{start, Client, ServerConfig, SessionConfig};
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{
    apply_snps_monoploid, generate_genome, generate_snp_catalog, ErrorProfile, GenomeConfig,
    SnpCatalogConfig,
};
use std::thread;
use std::time::{Duration, Instant};

/// Small end-to-end fixture (mirrors the core pipeline test fixture).
fn fixture(
    genome_len: usize,
    snp_count: usize,
    coverage: f64,
    seed: u64,
) -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = generate_genome(
        &GenomeConfig {
            length: genome_len,
            repeat_families: 1,
            repeat_length: 120,
            repeat_copies: 2,
            repeat_divergence: 0.02,
            ..GenomeConfig::default()
        },
        &mut rng,
    );
    let snps = generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: snp_count,
            ..SnpCatalogConfig::default()
        },
        &mut rng,
    );
    let individual = apply_snps_monoploid(&reference, &snps);
    let sim = simulate_reads(
        &ReadSource::Monoploid(&individual),
        ReadSimConfig {
            coverage,
            ..ReadSimConfig::default()
        }
        .read_count(genome_len),
        &ReadSimConfig {
            coverage,
            profile: ErrorProfile::default(),
            ..ReadSimConfig::default()
        },
        &mut rng,
    );
    let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
    (reference, reads)
}

fn call_bits(report: &RunReport) -> Vec<u64> {
    encode_calls(&report.calls)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

/// N concurrent clients, each with its own session over its own read
/// partition: every session's digest, calls, and mapped count must be
/// bit-identical to the serial driver over the same partition.
#[test]
fn concurrent_sessions_match_serial_driver() {
    let (reference, reads) = fixture(4_000, 5, 10.0, 417);
    let config = GnumapConfig::default();
    let clients = 3usize;
    let handle = start(
        reference.clone(),
        config,
        ServerConfig {
            workers: 2,
            batch_size: 16,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");
    let addr = handle.addr();

    // Partition reads round-robin so every client works concurrently.
    let partitions: Vec<Vec<SequencedRead>> = (0..clients)
        .map(|c| {
            reads
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == c)
                .map(|(_, r)| r.clone())
                .collect()
        })
        .collect();

    let threads: Vec<_> = partitions
        .iter()
        .cloned()
        .map(|part| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let session = client
                    .open_session(SessionConfig::default())
                    .expect("open session");
                // Interleave small chunks to exercise cross-session batching.
                for chunk in part.chunks(7) {
                    let accepted = client.submit_reads(session, chunk).expect("submit");
                    assert_eq!(accepted as usize, chunk.len());
                }
                let result = client.finalize(session, 60_000).expect("finalize");
                (part, result)
            })
        })
        .collect();

    for t in threads {
        let (part, result) = t.join().expect("client thread");
        let serial =
            run_serial::<FixedAccumulator>(&reference, &part, &config, &Observer::disabled());
        assert_eq!(
            Some(result.digest),
            serial.accumulator_digest,
            "accumulator digest must be bit-identical to the serial driver"
        );
        let server_bits: Vec<u64> = encode_calls(&result.calls)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            server_bits,
            call_bits(&serial),
            "call wire must be bit-identical"
        );
        assert_eq!(result.reads_processed as usize, part.len());
        assert_eq!(result.reads_mapped as usize, serial.reads_mapped);
    }

    let stats = handle.stats();
    assert_eq!(stats.sessions_open, 0, "finalized sessions must be removed");
    assert!(
        stats.mean_batch_occupancy > 1.0,
        "batches must coalesce reads: occupancy {}",
        stats.mean_batch_occupancy
    );
    assert!(
        stats.cross_session_batches > 0,
        "concurrent sessions must share batches"
    );
    assert!(
        stats.candidates_evaluated >= stats.reads_mapped,
        "every mapped read scores at least one candidate: {} < {}",
        stats.candidates_evaluated,
        stats.reads_mapped
    );
    assert!(
        stats.deposit_columns > 0,
        "mapped reads must deposit posterior columns"
    );

    handle.shutdown();
    let last = handle.join();
    assert_eq!(last.reads_processed, reads.len() as u64);
}

/// On a repeat-dense reference reads multi-map: the `Stats` frame counts
/// more survivors than mapped reads, and its per-read outcome counters
/// equal the engine's own over the same reads.
#[test]
fn repeat_dense_session_reports_outcome_counters() {
    let mut rng = ChaCha8Rng::seed_from_u64(1313);
    let reference = generate_genome(
        &GenomeConfig {
            length: 8_000,
            repeat_families: 4,
            repeat_length: 300,
            repeat_copies: 6,
            repeat_divergence: 0.0,
            ..GenomeConfig::default()
        },
        &mut rng,
    );
    let sim = ReadSimConfig {
        coverage: 3.0,
        ..ReadSimConfig::default()
    };
    let mut reads: Vec<SequencedRead> = simulate_reads(
        &ReadSource::Monoploid(&reference),
        sim.read_count(reference.len()),
        &sim,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    // An all-N read seeds no candidate.
    reads.push(SequencedRead::with_uniform_quality(
        "all-n",
        "N".repeat(62).parse().unwrap(),
        30,
    ));
    let config = GnumapConfig::default();

    let engine = MappingEngine::new(&reference, config.mapping);
    let mut scratch = AlignScratch::new();
    let mut expect = [0u64; 6];
    for read in &reads {
        engine.map_read_with(read, &mut scratch);
        let counts = [
            scratch.abandoned(),
            scratch.fallbacks(),
            scratch.underflowed(),
            scratch.no_candidates(),
            scratch.len(),
            usize::from(!scratch.is_empty()),
        ];
        for (sum, n) in expect.iter_mut().zip(counts) {
            *sum += n as u64;
        }
    }

    let handle = start(
        reference.clone(),
        config,
        ServerConfig {
            workers: 2,
            batch_size: 16,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("server starts");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let session = client
        .open_session(SessionConfig::default())
        .expect("open session");
    for chunk in reads.chunks(16) {
        client.submit_reads(session, chunk).expect("submit");
    }
    client.finalize(session, 60_000).expect("finalize");
    let stats = client.stats().expect("stats");
    handle.shutdown();
    handle.join();

    assert_eq!(
        [
            stats.abandoned,
            stats.fallbacks,
            stats.underflowed,
            stats.no_candidates,
            stats.survivors,
            stats.reads_mapped,
        ],
        expect,
        "Stats outcome counters [abandoned, fallbacks, underflowed, no candidates, survivors, mapped]"
    );
    assert_eq!(
        stats.reads_mapped + stats.underflowed + stats.no_candidates,
        stats.reads_processed,
        "every read is mapped, underflowed or without candidates"
    );
    assert_eq!(stats.no_candidates, 1, "the all-N read");
    assert!(
        stats.survivors > stats.reads_mapped,
        "repeat-dense reads must multi-map: {} survivors, {} mapped",
        stats.survivors,
        stats.reads_mapped
    );
}

/// One connection may interleave several sessions; each keeps isolated
/// evidence.
#[test]
fn interleaved_sessions_on_one_connection_stay_isolated() {
    let quiet = Observer::disabled();
    let (reference, reads) = fixture(3_000, 4, 8.0, 99);
    let config = GnumapConfig::default();
    let handle = start(
        reference.clone(),
        config,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");

    let (left, right) = reads.split_at(reads.len() / 2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let a = client
        .open_session(SessionConfig::default())
        .expect("open a");
    let b = client
        .open_session(SessionConfig::default())
        .expect("open b");
    // Alternate chunks between the two sessions.
    let mut l = left.chunks(5);
    let mut r = right.chunks(5);
    loop {
        let lc = l.next();
        let rc = r.next();
        if lc.is_none() && rc.is_none() {
            break;
        }
        if let Some(chunk) = lc {
            client.submit_reads(a, chunk).expect("submit a");
        }
        if let Some(chunk) = rc {
            client.submit_reads(b, chunk).expect("submit b");
        }
    }
    let result_a = client.finalize(a, 60_000).expect("finalize a");
    let result_b = client.finalize(b, 60_000).expect("finalize b");

    let serial_a = run_serial::<FixedAccumulator>(&reference, left, &config, &quiet);
    let serial_b = run_serial::<FixedAccumulator>(&reference, right, &config, &quiet);
    assert_eq!(Some(result_a.digest), serial_a.accumulator_digest);
    assert_eq!(Some(result_b.digest), serial_b.accumulator_digest);
    assert_ne!(
        result_a.digest, result_b.digest,
        "different partitions should not collide"
    );

    handle.shutdown();
    handle.join();
}

/// A client that vanishes mid-session must not leak its accumulator: the
/// server aborts the session and stays fully usable.
#[test]
fn disconnect_mid_session_cleans_up() {
    let (reference, reads) = fixture(3_000, 4, 6.0, 7);
    let config = GnumapConfig::default();
    let handle = start(
        reference.clone(),
        config,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");
    let addr = handle.addr();

    {
        let mut doomed = Client::connect(addr).expect("connect");
        let session = doomed.open_session(SessionConfig::default()).expect("open");
        doomed
            .submit_reads(session, &reads[..20.min(reads.len())])
            .expect("submit");
        // Drop without finalize: connection closes, session must be aborted.
    }

    // Poll until the abort lands (connection teardown is asynchronous).
    let mut probe = Client::connect(addr).expect("connect probe");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = probe.stats().expect("stats");
        if stats.sessions_open == 0 && stats.sessions_aborted == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "session not cleaned up: {stats:?}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // The server remains fully functional afterwards.
    let session = probe.open_session(SessionConfig::default()).expect("open");
    probe.submit_reads(session, &reads[..10]).expect("submit");
    let result = probe.finalize(session, 60_000).expect("finalize");
    let serial =
        run_serial::<FixedAccumulator>(&reference, &reads[..10], &config, &Observer::disabled());
    assert_eq!(Some(result.digest), serial.accumulator_digest);

    handle.shutdown();
    handle.join();
}

/// Control frames work and a Shutdown frame drains the server cleanly.
#[test]
fn control_frames_and_wire_shutdown() {
    let (reference, reads) = fixture(2_000, 2, 5.0, 23);
    let handle = start(
        reference,
        GnumapConfig::default(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .expect("server starts");

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping(0xfeed).expect("ping");
    let session = client.open_session(SessionConfig::default()).expect("open");
    client.submit_reads(session, &reads[..8]).expect("submit");
    let result = client.finalize(session, 60_000).expect("finalize");
    assert_eq!(result.reads_processed, 8);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.reads_accepted, 8);
    assert_eq!(stats.reads_processed, 8);

    client.shutdown_server().expect("shutdown frame");
    // join() must return: acceptor, connections, batcher, workers all exit.
    let last = handle.join();
    assert_eq!(last.reads_processed, 8);
    assert_eq!(last.sessions_open, 0);
}
