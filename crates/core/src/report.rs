//! Run reports and accuracy scoring (the quantities in paper Tables I/III),
//! plus the cluster communication model used for simulated scaling.

use crate::snpcall::SnpCall;
use genome::alphabet::Base;
use mpisim::TrafficStats;

/// A simple linear communication-cost model (`latency · messages +
/// bytes / bandwidth`), standing in for the cluster interconnect the
/// paper ran on. Defaults approximate gigabit Ethernet with a commodity
/// MPI stack — the class of hardware behind the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Seconds of latency per message.
    pub latency_secs: f64,
    /// Payload bandwidth in bytes/second.
    pub bytes_per_sec: f64,
}

impl Default for CommModel {
    fn default() -> Self {
        CommModel {
            latency_secs: 50e-6,  // ~50 µs per MPI message
            bytes_per_sec: 125e6, // ~1 Gbit/s payload bandwidth
        }
    }
}

impl CommModel {
    /// Modelled seconds to move this traffic.
    pub fn seconds(&self, traffic: &TrafficStats) -> f64 {
        traffic.messages as f64 * self.latency_secs
            + traffic.payload_bytes as f64 / self.bytes_per_sec
    }
}

/// Execution statistics from the streaming driver: how full the batch
/// pipeline ran, how deep its queues got, and where time was lost to
/// waiting rather than work.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Worker threads the scheduler ran.
    pub workers: usize,
    /// Configured reads per micro-batch.
    pub batch_size: usize,
    /// Micro-batches dispatched over the whole run.
    pub batches_dispatched: usize,
    /// Mean fill fraction of dispatched batches (1.0 = every batch full;
    /// the tail batch of each window drags this below 1).
    pub mean_batch_occupancy: f64,
    /// Deepest the source→scheduler channel ever got, in chunks.
    pub max_queue_depth: usize,
    /// Mean source→scheduler channel depth sampled at each chunk arrival.
    pub mean_queue_depth: f64,
    /// Seconds the source thread spent blocked on a full channel
    /// (backpressure engaged).
    pub source_stall_secs: f64,
    /// Total seconds workers spent blocked waiting for a batch, summed
    /// over workers.
    pub worker_stall_secs: f64,
    /// Checkpoints written during the run.
    pub checkpoints_written: usize,
    /// Whether this run started from a checkpoint instead of the stream
    /// head.
    pub resumed_from_checkpoint: bool,
}

impl StreamStats {
    /// Reads mapped per second of summed worker CPU time: the honest
    /// throughput figure on a timeshared host, analogous to
    /// [`RunReport::simulated_seqs_per_sec`] for the MPI drivers.
    pub fn reads_per_cpu_sec(reads: usize, rank_cpu_secs: &[f64]) -> f64 {
        let cpu: f64 = rank_cpu_secs.iter().sum();
        if cpu <= 0.0 {
            return 0.0;
        }
        reads as f64 / cpu
    }
}

/// What one pipeline run produced and cost.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// SNPs called.
    pub calls: Vec<SnpCall>,
    /// Reads processed (all reads, mapped or not).
    pub reads_processed: usize,
    /// Reads that produced at least one alignment.
    pub reads_mapped: usize,
    /// Wall-clock seconds for mapping + accumulation + calling.
    pub elapsed_secs: f64,
    /// Evidence heap bytes (the Table II/III "MEM" column contribution):
    /// the paged store's table and allocated pages for the serial and
    /// stream drivers, the dense accumulators for the MPI drivers.
    pub accumulator_bytes: usize,
    /// Communication statistics when a message-passing driver ran.
    pub traffic: Option<TrafficStats>,
    /// CPU seconds each simulated rank consumed (message-passing drivers
    /// only), in rank order. The streaming driver reports per-worker CPU
    /// seconds here.
    pub rank_cpu_secs: Vec<f64>,
    /// Pipeline statistics when the streaming driver ran.
    pub stream: Option<StreamStats>,
    /// Order-independent fingerprint of the final accumulator state (see
    /// [`crate::accum::GenomeAccumulator::digest`]); `None` when a driver
    /// cannot expose one. Two runs with equal digests ended with
    /// bit-identical decoded accumulators — the conformance harness's
    /// cross-driver equality check.
    pub accumulator_digest: Option<u64>,
}

impl RunReport {
    /// Sequences processed per second by wall clock — the y-axis of paper
    /// Figures 4/5 when each rank has its own processor.
    pub fn seqs_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.reads_processed as f64 / self.elapsed_secs
    }

    /// Idealised parallel seconds: the busiest rank's CPU time plus the
    /// modelled communication cost. This is what the run *would* take
    /// with one processor per rank — the honest scaling number when the
    /// simulated ranks timeshare fewer physical cores.
    pub fn simulated_parallel_secs(&self, model: &CommModel) -> Option<f64> {
        if self.rank_cpu_secs.is_empty() {
            return None;
        }
        let critical = self.rank_cpu_secs.iter().copied().fold(0.0, f64::max);
        let comm = self.traffic.as_ref().map_or(0.0, |t| model.seconds(t));
        Some(critical + comm)
    }

    /// Sequences/second under [`RunReport::simulated_parallel_secs`];
    /// falls back to the wall-clock rate for non-MPI drivers.
    pub fn simulated_seqs_per_sec(&self, model: &CommModel) -> f64 {
        match self.simulated_parallel_secs(model) {
            Some(secs) if secs > 0.0 => self.reads_processed as f64 / secs,
            _ => self.seqs_per_sec(),
        }
    }
}

/// TP/FP/FN accuracy against a planted truth set (paper Table I columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccuracyReport {
    /// Called SNPs present in the truth set (position + allele match).
    pub true_positives: usize,
    /// Called SNPs absent from the truth set.
    pub false_positives: usize,
    /// Truth SNPs that were not called.
    pub false_negatives: usize,
}

impl AccuracyReport {
    /// `TP / (TP + FP)` — Table I's precision column.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }

    /// `TP / (TP + FN)` — sensitivity / recall.
    pub fn sensitivity(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            return 0.0;
        }
        self.true_positives as f64 / denom as f64
    }
}

/// Score called SNPs against a truth set of `(position, alternate allele)`
/// pairs. A call is a true positive when a truth entry exists at its
/// position **and** the truth allele is among the called alleles.
pub fn score_snp_calls(calls: &[SnpCall], truth: &[(usize, Base)]) -> AccuracyReport {
    use std::collections::HashMap;
    let truth_map: HashMap<usize, Base> = truth.iter().copied().collect();
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut hit_positions = std::collections::HashSet::new();
    for call in calls {
        match truth_map.get(&call.pos) {
            Some(&alt) if call.carries(alt) => {
                tp += 1;
                hit_positions.insert(call.pos);
            }
            _ => fp += 1,
        }
    }
    let fn_ = truth
        .iter()
        .filter(|(pos, _)| !hit_positions.contains(pos))
        .count();
    AccuracyReport {
        true_positives: tp,
        false_positives: fp,
        false_negatives: fn_,
    }
}

/// Score positions only (allele-agnostic), for baseline callers that
/// report different call types. Generic over any `(position)` iterator.
pub fn score_positions(
    called: impl IntoIterator<Item = usize>,
    truth_positions: &std::collections::HashSet<usize>,
) -> AccuracyReport {
    let called: std::collections::HashSet<usize> = called.into_iter().collect();
    let tp = called.intersection(truth_positions).count();
    AccuracyReport {
        true_positives: tp,
        false_positives: called.len() - tp,
        false_negatives: truth_positions.len() - tp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(pos: usize, allele: Base) -> SnpCall {
        SnpCall {
            pos,
            reference: Base::A,
            allele,
            second_allele: None,
            statistic: 50.0,
            p_adjusted: 1e-9,
            counts: [0.0; 5],
        }
    }

    #[test]
    fn scoring_matches_position_and_allele() {
        let truth = vec![(5, Base::G), (9, Base::C), (20, Base::T)];
        let calls = vec![
            call(5, Base::G),  // TP
            call(9, Base::T),  // wrong allele → FP
            call(13, Base::G), // no truth → FP
        ];
        let acc = score_snp_calls(&calls, &truth);
        assert_eq!(acc.true_positives, 1);
        assert_eq!(acc.false_positives, 2);
        assert_eq!(acc.false_negatives, 2);
        assert!((acc.precision() - 1.0 / 3.0).abs() < 1e-12);
        assert!((acc.sensitivity() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn het_second_allele_counts() {
        let mut c = call(5, Base::A);
        c.second_allele = Some(Base::G);
        let acc = score_snp_calls(&[c], &[(5, Base::G)]);
        assert_eq!(acc.true_positives, 1);
    }

    #[test]
    fn empty_cases() {
        let acc = score_snp_calls(&[], &[]);
        assert_eq!(acc.precision(), 0.0);
        assert_eq!(acc.sensitivity(), 0.0);
        let acc = score_snp_calls(&[], &[(1, Base::C)]);
        assert_eq!(acc.false_negatives, 1);
    }

    #[test]
    fn position_only_scoring() {
        let truth: std::collections::HashSet<usize> = [3, 7].into();
        let acc = score_positions([3usize, 9], &truth);
        assert_eq!(acc.true_positives, 1);
        assert_eq!(acc.false_positives, 1);
        assert_eq!(acc.false_negatives, 1);
    }

    #[test]
    fn seqs_per_sec() {
        let r = RunReport {
            calls: vec![],
            reads_processed: 500,
            reads_mapped: 480,
            elapsed_secs: 2.0,
            accumulator_bytes: 0,
            traffic: None,
            rank_cpu_secs: Vec::new(),
            stream: None,
            accumulator_digest: None,
        };
        assert_eq!(r.seqs_per_sec(), 250.0);
    }

    #[test]
    fn reads_per_cpu_sec_sums_workers() {
        assert_eq!(StreamStats::reads_per_cpu_sec(1_000, &[1.0, 1.0]), 500.0);
        assert_eq!(StreamStats::reads_per_cpu_sec(1_000, &[]), 0.0);
        assert_eq!(StreamStats::reads_per_cpu_sec(1_000, &[0.0]), 0.0);
    }
}
