//! Read-split MPI decomposition (paper Section VI Step 1, first mode).
//!
//! "If the genome is small enough to fit on a single computer, each machine
//! will process the entire genome, then map a different portion of the
//! reads. At the end of the run, each of the machines will communicate the
//! state of their genome and SNPs will be called accordingly."
//!
//! Every rank builds the full index (duplicated work, like the real
//! system), maps its strided share of the reads into a full-genome
//! accumulator, and rank 0 folds all accumulators in rank order before
//! calling SNPs once. Communication is one genome-sized accumulator per
//! rank — large but happening exactly once, which is why this mode scales
//! almost linearly in Figure 4.

use crate::accum::GenomeAccumulator;
use crate::config::GnumapConfig;
use crate::driver::{decode_calls, encode_calls, CallWireError};
use crate::mapping::MappingEngine;
use crate::observe::{Event, Observer, Stage, StageTimer};
use crate::report::RunReport;
use crate::snpcall::call_snps;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use mpisim::World;
use std::time::Instant;

/// Map one rank's strided read share into `acc`, counting candidates and
/// deposited columns, and emit one [`Event::Batch`] for the rank.
fn map_rank_share<A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    acc: &mut A,
    rank_id: usize,
    rank_count: usize,
    observer: &Observer,
) -> usize {
    let mut mapped = 0u64;
    let (mut share, mut candidates, mut columns) = (0u64, 0u64, 0u64);
    // One scratch arena per rank, reused across its whole read share.
    let mut scratch = crate::mapping::AlignScratch::new();
    for read in reads.iter().skip(rank_id).step_by(rank_count) {
        share += 1;
        engine.map_read_with(read, &mut scratch);
        candidates += scratch.scored() as u64;
        if !scratch.is_empty() {
            mapped += 1;
        }
        for aln in scratch.alignments() {
            columns += aln.columns.len() as u64;
            crate::pipeline::deposit(acc, aln.window_start, aln.score, aln.columns);
        }
    }
    observer.emit(|| Event::Batch {
        worker: rank_id as u64,
        reads: share,
        mapped,
        candidates,
        deposited_columns: columns,
    });
    mapped as usize
}

/// Run the read-split decomposition on `ranks` simulated MPI ranks.
pub fn run_read_split<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
) -> Result<RunReport, CallWireError> {
    run_read_split_observed::<A>(reference, reads, config, ranks, &Observer::disabled())
}

/// [`run_read_split`] with structured observability: one
/// [`Event::Batch`] per rank, with stage timings taken on rank 0 (every
/// rank does the same index/map work, so rank 0 is representative).
pub fn run_read_split_observed<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
    observer: &Observer,
) -> Result<RunReport, CallWireError> {
    assert!(ranks >= 1, "need at least one rank");
    observer.emit(|| Event::RunStart {
        driver: "read-split".into(),
        accumulator: config.accumulator.name().into(),
    });
    let start = Instant::now();
    let world = World::new(ranks);

    let (mut results, world_report) = world.run_with_report(|rank| {
        let root = rank.id() == 0;
        let stage = |s: Stage| root.then(|| StageTimer::start(observer, s));
        let finish = |t: Option<StageTimer>| {
            if let Some(t) = t {
                t.finish(observer);
            }
        };
        // Every rank indexes the whole genome (the duplicated preprocessing
        // of the shared-genome mode).
        let timer = stage(Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        finish(timer);
        let mut acc = A::new(reference.len());

        // Strided read partition: rank r maps reads r, r+n, r+2n, ...
        let timer = stage(Stage::Map);
        let mapped = map_rank_share(&engine, reads, &mut acc, rank.id(), rank.size(), observer);
        finish(timer);
        // "Communicate the state of their genome": gather accumulator
        // wires at rank 0, which folds them in rank order.
        let timer = stage(Stage::Reduce);
        let wires = rank.gather(0, acc.to_wire());
        let mapped_counts = rank.gather(0, mapped as u64);
        if rank.id() == 0 {
            let mut total_acc = A::new(reference.len());
            for wire in wires.expect("root gathers") {
                total_acc.merge_wire(&wire);
            }
            finish(timer);
            let timer = stage(Stage::Call);
            let calls = call_snps(&total_acc, reference, &config.calling);
            finish(timer);
            let mapped_total: u64 = mapped_counts.expect("root gathers").iter().sum();
            Some((
                encode_calls(&calls),
                mapped_total,
                total_acc.heap_bytes(),
                total_acc.digest(),
            ))
        } else {
            finish(timer);
            None
        }
    });

    let (call_wire, mapped_total, acc_bytes, digest) =
        results.swap_remove(0).expect("rank 0 returns the result");
    let calls = decode_calls(&call_wire)?;
    let elapsed_secs = start.elapsed().as_secs_f64();
    observer.emit(|| Event::RunEnd {
        reads_processed: reads.len() as u64,
        reads_mapped: mapped_total,
        calls: calls.len() as u64,
        wall_secs: elapsed_secs,
    });
    Ok(RunReport {
        calls,
        reads_processed: reads.len(),
        reads_mapped: mapped_total as usize,
        elapsed_secs,
        accumulator_bytes: acc_bytes,
        traffic: Some(world_report.traffic),
        rank_cpu_secs: world_report.rank_cpu_secs,
        stream: None,
        accumulator_digest: Some(digest),
    })
}

/// Read-split with a **ring allreduce** for the accumulator reduction
/// (NORM layout only — the ring needs a flat elementwise-summable wire).
///
/// The plain read-split funnels every rank's genome-length accumulator
/// through rank 0, so the root receives `(ranks−1) × 20 B/base`; the ring
/// moves `≈ 2 × 20 B/base` through *every* rank regardless of rank count —
/// the standard bandwidth-optimal alternative, included as an ablation of
/// the reduction strategy.
pub fn run_read_split_ring(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
) -> Result<RunReport, CallWireError> {
    run_read_split_ring_observed(reference, reads, config, ranks, &Observer::disabled())
}

/// [`run_read_split_ring`] with structured observability (same event
/// shape as [`run_read_split_observed`]).
pub fn run_read_split_ring_observed(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
    observer: &Observer,
) -> Result<RunReport, CallWireError> {
    use crate::accum::NormAccumulator;
    assert!(ranks >= 1, "need at least one rank");
    observer.emit(|| Event::RunStart {
        driver: "read-split-ring".into(),
        accumulator: crate::accum::AccumulatorMode::Norm.name().into(),
    });
    let start = Instant::now();
    let world = World::new(ranks);

    let (mut results, world_report) = world.run_with_report(|rank| {
        let root = rank.id() == 0;
        let stage = |s: Stage| root.then(|| StageTimer::start(observer, s));
        let finish = |t: Option<StageTimer>| {
            if let Some(t) = t {
                t.finish(observer);
            }
        };
        let timer = stage(Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        finish(timer);
        let mut acc = NormAccumulator::new(reference.len());
        let timer = stage(Stage::Map);
        let mapped = map_rank_share(&engine, reads, &mut acc, rank.id(), rank.size(), observer);
        finish(timer);
        // Every rank ends up with the fully reduced accumulator.
        let timer = stage(Stage::Reduce);
        let reduced = rank.ring_allreduce(acc.to_wire(), |a, b| a + b);
        let mapped_total = rank.allreduce(mapped as u64, |a, b| a + b);
        finish(timer);
        if rank.id() == 0 {
            let mut total_acc = NormAccumulator::new(reference.len());
            total_acc.merge_wire(&reduced);
            let timer = stage(Stage::Call);
            let calls = call_snps(&total_acc, reference, &config.calling);
            finish(timer);
            Some((
                encode_calls(&calls),
                mapped_total,
                total_acc.heap_bytes(),
                total_acc.digest(),
            ))
        } else {
            None
        }
    });

    let (call_wire, mapped_total, acc_bytes, digest) =
        results.swap_remove(0).expect("rank 0 returns the result");
    let calls = decode_calls(&call_wire)?;
    let elapsed_secs = start.elapsed().as_secs_f64();
    observer.emit(|| Event::RunEnd {
        reads_processed: reads.len() as u64,
        reads_mapped: mapped_total,
        calls: calls.len() as u64,
        wall_secs: elapsed_secs,
    });
    Ok(RunReport {
        calls,
        reads_processed: reads.len(),
        reads_mapped: mapped_total as usize,
        elapsed_secs,
        accumulator_bytes: acc_bytes,
        traffic: Some(world_report.traffic),
        rank_cpu_secs: world_report.rank_cpu_secs,
        stream: None,
        accumulator_digest: Some(digest),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{CharDiscAccumulator, NormAccumulator};
    use crate::pipeline::run_serial_with;

    fn fixture() -> (
        DnaSeq,
        Vec<(usize, genome::alphabet::Base)>,
        Vec<SequencedRead>,
    ) {
        crate::pipeline::tests::fixture(4_000, 5, 12.0, 321)
    }

    #[test]
    fn read_split_matches_serial_for_norm() {
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let serial = run_serial_with::<NormAccumulator>(&reference, &reads, &cfg);
        for ranks in [1usize, 2, 3, 5] {
            let parallel =
                run_read_split::<NormAccumulator>(&reference, &reads, &cfg, ranks).unwrap();
            assert_eq!(
                parallel.calls.len(),
                serial.calls.len(),
                "ranks={ranks}: call count must match serial"
            );
            for (p, s) in parallel.calls.iter().zip(&serial.calls) {
                assert_eq!(p.pos, s.pos);
                assert_eq!(p.allele, s.allele);
                // f32 accumulation order differs; statistics agree closely.
                assert!((p.statistic - s.statistic).abs() < 1e-3);
            }
            assert_eq!(parallel.reads_mapped, serial.reads_mapped);
        }
    }

    #[test]
    fn traffic_is_reported_and_scales_with_ranks() {
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let two = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 2).unwrap();
        let four = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 4).unwrap();
        let t2 = two.traffic.unwrap();
        let t4 = four.traffic.unwrap();
        assert!(t4.payload_bytes > t2.payload_bytes, "{t2} vs {t4}");
        // Each non-root rank ships one genome-sized accumulator (~20 B/base).
        assert!(t2.payload_bytes as usize >= reference.len() * 20);
    }

    #[test]
    fn ring_reduction_matches_star_reduction() {
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        for ranks in [1usize, 2, 4] {
            let star = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, ranks).unwrap();
            let ring = run_read_split_ring(&reference, &reads, &cfg, ranks).unwrap();
            let star_keys: Vec<_> = star.calls.iter().map(|c| (c.pos, c.allele)).collect();
            let ring_keys: Vec<_> = ring.calls.iter().map(|c| (c.pos, c.allele)).collect();
            assert_eq!(ring_keys, star_keys, "ranks={ranks}");
            assert_eq!(ring.reads_mapped, star.reads_mapped);
        }
    }

    #[test]
    fn chardisc_read_split_still_finds_snps() {
        let (reference, truth, reads) = fixture();
        let report =
            run_read_split::<CharDiscAccumulator>(&reference, &reads, &GnumapConfig::default(), 3)
                .unwrap();
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 3, "{acc:?}");
    }
}
