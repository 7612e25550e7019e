//! `gnumap serve` — the batching loopback SNP-calling daemon.

use super::{read_reference, Args};
use crate::core::GnumapConfig;
use std::io::Write;

pub(super) fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let reference_path = args.require("reference")?;
    let addr: String = args.get("addr", "127.0.0.1:0".to_string())?;
    let workers: usize = args.get("workers", 2usize)?;
    let batch_size: usize = args.get("batch-size", 32usize)?;
    let ingress_capacity: usize = args.get("ingress-capacity", 64usize)?;
    let submit_timeout_ms: u64 = args.get("submit-timeout-ms", 2_000u64)?;
    let deadline_ms: u64 = args.get("deadline-ms", 30_000u64)?;
    let port_file = args.optional("port-file");
    args.reject_unknown()?;

    let (_, reference) = read_reference(&reference_path)?;
    let cfg = server::ServerConfig {
        workers,
        batch_size,
        ingress_capacity,
        submit_timeout: std::time::Duration::from_millis(submit_timeout_ms),
        default_deadline: std::time::Duration::from_millis(deadline_ms),
        ..Default::default()
    };
    let handle = server::start(reference, GnumapConfig::default(), cfg, &addr)
        .map_err(|e| format!("serve on {addr}: {e}"))?;
    let bound = handle.addr();
    if let Some(path) = &port_file {
        // Written atomically (rename) so pollers never read a half file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{bound}\n")).map_err(|e| format!("{tmp}: {e}"))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))?;
    }
    writeln!(out, "listening on {bound} with {workers} worker(s)").map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;

    // Serve until a Shutdown frame arrives, then report the drain.
    let stats = handle.join();
    writeln!(
        out,
        "drained: {} session(s) served, {} read(s) processed, {} batch(es) \
         (occupancy {:.2}, {:.2} session(s)/batch), {} busy, {} timeout(s)",
        stats.sessions_opened,
        stats.reads_processed,
        stats.batches_dispatched,
        stats.mean_batch_occupancy,
        stats.mean_sessions_per_batch,
        stats.busy_rejections,
        stats.timeouts,
    )
    .map_err(|e| e.to_string())
}
