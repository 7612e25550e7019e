//! Per-stage counters surfaced through the `Stats` frame.
//!
//! Everything is lock-free atomics except the service-latency reservoir,
//! which takes a short mutex per processed read. Worker CPU time is
//! published by each worker after every batch so `Stats` can report both
//! aggregate CPU spend and the critical-path (busiest-worker) time that
//! the repo's simulated-parallel throughput convention divides by.

use gnumap_core::evidence::EvidenceGauge;
use gnumap_core::pipeline::BatchCounts;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Capacity of the latency reservoir.
const RESERVOIR_CAP: usize = 4096;

/// Point-in-time copy of every counter, as serialised in `StatsReport`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Sessions currently registered.
    pub sessions_open: u64,
    /// Sessions ever opened.
    pub sessions_opened: u64,
    /// Sessions torn down by client disconnect instead of finalize.
    pub sessions_aborted: u64,
    /// Reads admitted past the ingress queue.
    pub reads_accepted: u64,
    /// Reads fully processed by workers.
    pub reads_processed: u64,
    /// Processed reads that produced at least one alignment.
    pub reads_mapped: u64,
    /// Candidate placements scored by the Pair-HMM forward pass, before the
    /// `min_weight` cut.
    pub candidates_evaluated: u64,
    /// Posterior columns deposited into session accumulators.
    pub deposit_columns: u64,
    /// Of `candidates_evaluated`, those whose forward stopped early because
    /// their likelihood bound proved them negligible.
    pub abandoned: u64,
    /// Reads that rescored their abandoned candidates in full because the
    /// grand total could not be certified.
    pub fallbacks: u64,
    /// Unmapped reads whose every scored candidate's forward total
    /// underflowed to 0.
    pub underflowed: u64,
    /// Unmapped reads that had no candidate placement to score at all.
    pub no_candidates: u64,
    /// Posterior passes run: candidates that survived the `min_weight` cut
    /// and got their columns. Above `reads_mapped` when reads multi-map.
    pub survivors: u64,
    /// Micro-batches handed to the worker pool.
    pub batches_dispatched: u64,
    /// Batches that mixed reads from more than one session.
    pub cross_session_batches: u64,
    /// Submits shed with a typed `Busy` response.
    pub busy_rejections: u64,
    /// Finalizes that expired with a typed `Timeout` response.
    pub timeouts: u64,
    /// Ingress queue depth at snapshot time.
    pub ingress_depth: u64,
    /// Highest ingress depth observed.
    pub max_ingress_depth: u64,
    /// Mean reads per dispatched batch.
    pub mean_batch_occupancy: f64,
    /// Mean distinct sessions per dispatched batch (>1 means
    /// cross-request coalescing is happening).
    pub mean_sessions_per_batch: f64,
    /// Median submit→processed latency, microseconds.
    pub p50_service_micros: u64,
    /// 99th-percentile submit→processed latency, microseconds.
    pub p99_service_micros: u64,
    /// Total CPU seconds across all workers.
    pub worker_cpu_secs: f64,
    /// CPU seconds of the busiest worker (the critical path).
    pub max_worker_cpu_secs: f64,
    /// Heap bytes held by the evidence of every live session.
    pub evidence_bytes: u64,
    /// Highest `evidence_bytes` observed.
    pub evidence_bytes_peak: u64,
}

/// The read counters of one worker, in the order of
/// [`ReadCounters::fields`]: written by that worker alone, and on cache
/// lines of their own, so workers never contend for them.
#[derive(Default)]
#[repr(align(128))]
struct ReadCounters([AtomicU64; 9]);

impl ReadCounters {
    /// `counts` in counter order: reads, mapped, candidates, columns,
    /// abandoned, fallbacks, underflowed, survivors, no candidates.
    fn fields(counts: &BatchCounts) -> [u64; 9] {
        [
            counts.reads,
            counts.mapped,
            counts.candidates,
            counts.columns,
            counts.abandoned,
            counts.fallbacks,
            counts.underflowed,
            counts.survivors,
            counts.no_candidates,
        ]
    }
}

struct Reservoir {
    samples: Vec<u64>,
    seen: u64,
}

/// Live counter block shared by every server thread.
pub struct Metrics {
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_aborted: AtomicU64,
    pub(crate) reads_accepted: AtomicU64,
    /// One block of per-read counters per worker.
    read_counters: Vec<ReadCounters>,
    pub(crate) batches_dispatched: AtomicU64,
    pub(crate) batch_reads: AtomicU64,
    pub(crate) batch_sessions: AtomicU64,
    pub(crate) cross_session_batches: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    pub(crate) max_ingress_depth: AtomicU64,
    worker_cpu_nanos: Vec<AtomicU64>,
    latency: Mutex<Reservoir>,
}

impl Metrics {
    /// Counter block for a pool of `workers` workers.
    pub fn new(workers: usize) -> Metrics {
        Metrics {
            sessions_opened: AtomicU64::new(0),
            sessions_aborted: AtomicU64::new(0),
            reads_accepted: AtomicU64::new(0),
            read_counters: (0..workers).map(|_| ReadCounters::default()).collect(),
            batches_dispatched: AtomicU64::new(0),
            batch_reads: AtomicU64::new(0),
            batch_sessions: AtomicU64::new(0),
            cross_session_batches: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            max_ingress_depth: AtomicU64::new(0),
            worker_cpu_nanos: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            latency: Mutex::new(Reservoir {
                samples: Vec::with_capacity(RESERVOIR_CAP),
                seen: 0,
            }),
        }
    }

    /// Worker `worker` adds one processed batch's counts to its read
    /// counters.
    pub fn record_reads(&self, worker: usize, counts: &BatchCounts) {
        let fields = ReadCounters::fields(counts);
        for (counter, n) in self.read_counters[worker].0.iter().zip(fields) {
            // The worker is the only writer of its block.
            counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
        }
    }

    /// Reads processed so far by each worker, in worker order.
    pub fn worker_reads(&self) -> Vec<u64> {
        (self.read_counters.iter())
            .map(|block| block.0[0].load(Ordering::Relaxed))
            .collect()
    }

    /// Record that the ingress queue reached `depth`.
    pub fn observe_ingress_depth(&self, depth: usize) {
        self.max_ingress_depth
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Record one read's submit→processed latency.
    pub fn observe_latency_micros(&self, micros: u64) {
        let mut r = self.latency.lock().unwrap();
        r.seen += 1;
        if r.samples.len() < RESERVOIR_CAP {
            r.samples.push(micros);
        } else {
            // Deterministic pseudo-random replacement (Knuth hash of the
            // sample counter) — keeps the reservoir representative without
            // an RNG dependency.
            let idx = (r.seen.wrapping_mul(2_654_435_761) % RESERVOIR_CAP as u64) as usize;
            r.samples[idx] = micros;
        }
    }

    /// Worker `i` publishes its cumulative CPU time.
    pub fn publish_worker_cpu(&self, worker: usize, cpu_secs: f64) {
        let nanos = (cpu_secs * 1e9) as u64;
        self.worker_cpu_nanos[worker].store(nanos, Ordering::Relaxed);
    }

    /// Snapshot every counter. `sessions_open`, `ingress_depth` and the
    /// session evidence gauge are owned by other structures, so the
    /// caller passes them in.
    pub fn snapshot(
        &self,
        sessions_open: usize,
        ingress_depth: usize,
        evidence: &EvidenceGauge,
    ) -> StatsSnapshot {
        let batches = self.batches_dispatched.load(Ordering::Relaxed);
        let (p50, p99) = {
            let r = self.latency.lock().unwrap();
            if r.samples.is_empty() {
                (0, 0)
            } else {
                let mut sorted = r.samples.clone();
                sorted.sort_unstable();
                let pick = |q: f64| sorted[((sorted.len() - 1) as f64 * q).ceil() as usize];
                (pick(0.50), pick(0.99))
            }
        };
        let cpu: Vec<f64> = self
            .worker_cpu_nanos
            .iter()
            .map(|n| n.load(Ordering::Relaxed) as f64 / 1e9)
            .collect();
        let mut sums = [0u64; 9];
        for block in &self.read_counters {
            for (sum, counter) in sums.iter_mut().zip(&block.0) {
                *sum += counter.load(Ordering::Relaxed);
            }
        }
        let [reads_processed, reads_mapped, candidates_evaluated, deposit_columns, abandoned, fallbacks, underflowed, survivors, no_candidates] =
            sums;
        StatsSnapshot {
            sessions_open: sessions_open as u64,
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_aborted: self.sessions_aborted.load(Ordering::Relaxed),
            reads_accepted: self.reads_accepted.load(Ordering::Relaxed),
            reads_processed,
            reads_mapped,
            candidates_evaluated,
            deposit_columns,
            abandoned,
            fallbacks,
            underflowed,
            no_candidates,
            survivors,
            batches_dispatched: batches,
            cross_session_batches: self.cross_session_batches.load(Ordering::Relaxed),
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            ingress_depth: ingress_depth as u64,
            max_ingress_depth: self.max_ingress_depth.load(Ordering::Relaxed),
            mean_batch_occupancy: if batches == 0 {
                0.0
            } else {
                self.batch_reads.load(Ordering::Relaxed) as f64 / batches as f64
            },
            mean_sessions_per_batch: if batches == 0 {
                0.0
            } else {
                self.batch_sessions.load(Ordering::Relaxed) as f64 / batches as f64
            },
            p50_service_micros: p50,
            p99_service_micros: p99,
            worker_cpu_secs: cpu.iter().sum(),
            max_worker_cpu_secs: cpu.iter().fold(0.0, |a, &b| a.max(b)),
            evidence_bytes: evidence.live(),
            evidence_bytes_peak: evidence.peak(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_means_and_percentiles() {
        let m = Metrics::new(2);
        m.batches_dispatched.store(2, Ordering::Relaxed);
        m.batch_reads.store(48, Ordering::Relaxed);
        m.batch_sessions.store(5, Ordering::Relaxed);
        for micros in [100, 200, 300, 400, 10_000] {
            m.observe_latency_micros(micros);
        }
        m.publish_worker_cpu(0, 1.5);
        m.publish_worker_cpu(1, 0.5);
        let s = m.snapshot(3, 7, &EvidenceGauge::default());
        assert_eq!(s.sessions_open, 3);
        assert_eq!(s.ingress_depth, 7);
        assert!((s.mean_batch_occupancy - 24.0).abs() < 1e-9);
        assert!((s.mean_sessions_per_batch - 2.5).abs() < 1e-9);
        assert_eq!(s.p50_service_micros, 300);
        assert_eq!(s.p99_service_micros, 10_000);
        assert!((s.worker_cpu_secs - 2.0).abs() < 1e-6);
        assert!((s.max_worker_cpu_secs - 1.5).abs() < 1e-6);
    }

    #[test]
    fn worker_reads_are_kept_per_worker() {
        let m = Metrics::new(3);
        let read = BatchCounts {
            reads: 1,
            ..BatchCounts::default()
        };
        for worker in [0, 2, 2] {
            m.record_reads(worker, &read);
        }
        assert_eq!(m.worker_reads(), [1, 0, 2]);
        let s = m.snapshot(0, 0, &EvidenceGauge::default());
        assert_eq!(s.reads_processed, 3);
    }

    #[test]
    fn reservoir_stays_bounded() {
        let m = Metrics::new(1);
        for i in 0..(RESERVOIR_CAP as u64 * 3) {
            m.observe_latency_micros(i);
        }
        assert_eq!(m.latency.lock().unwrap().samples.len(), RESERVOIR_CAP);
    }
}
