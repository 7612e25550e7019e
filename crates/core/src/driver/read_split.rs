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
use crate::driver::{decode_calls, encode_calls, DriverError};
use crate::mapping::{AlignScratch, MappingEngine};
use crate::observe::{Observer, RunTimer, Stage, StageTimer};
use crate::pipeline::{deposit, BatchCounts};
use crate::report::RunReport;
use crate::snpcall::call_snps;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use mpisim::World;

/// Run the read-split decomposition on `ranks` simulated MPI ranks, with
/// a star gather of the accumulators at rank 0. The observer gets one
/// [`crate::observe::Event::Batch`] per rank, with stage timings taken on
/// rank 0 (every rank does the same index/map work, so rank 0 is
/// representative). Zero `ranks` is [`DriverError::NoRanks`].
pub fn run_read_split<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
    observer: &Observer,
) -> Result<RunReport, DriverError> {
    if ranks == 0 {
        return Err(DriverError::NoRanks);
    }
    let run = RunTimer::start(observer, "read-split", config.accumulator);
    let disabled = Observer::disabled();
    let (mut results, world_report) = World::new(ranks).run_with_report(|rank| {
        // Stage timings come from rank 0 only.
        let stages = if rank.id() == 0 { observer } else { &disabled };
        // Every rank indexes the whole genome (the duplicated
        // preprocessing of the shared-genome mode).
        let timer = StageTimer::start(stages, Stage::Index);
        let engine = MappingEngine::new(reference, config.mapping);
        timer.finish(stages);

        // Strided read partition: rank r maps reads r, r+n, r+2n, ...,
        // in lockstep batches, reusing one scratch arena across its whole
        // share.
        let timer = StageTimer::start(stages, Stage::Map);
        let mut acc = A::new(reference.len());
        let mut counts = BatchCounts::default();
        let mut scratch = AlignScratch::new();
        let share: Vec<&SequencedRead> =
            reads.iter().skip(rank.id()).step_by(rank.size()).collect();
        counts.map_batch(
            &engine,
            &share,
            |read| read,
            &mut scratch,
            |_, start, w, columns| deposit(&mut acc, start, w, columns),
        );
        counts.emit(observer, rank.id());
        timer.finish(stages);

        // "Communicate the state of their genome": gather accumulator
        // wires at rank 0, which folds them in rank order.
        let timer = StageTimer::start(stages, Stage::Reduce);
        let wires = rank.gather(0, acc.to_wire());
        let mapped_counts = rank.gather(0, counts.mapped);
        let reduced = wires.zip(mapped_counts).map(|(wires, mapped_counts)| {
            let mut total = A::new(reference.len());
            for wire in wires {
                total.merge_wire(&wire);
            }
            (total, mapped_counts.iter().sum::<u64>())
        });
        timer.finish(stages);
        let (total, mapped_total) = reduced?;
        let timer = StageTimer::start(stages, Stage::Call);
        let calls = call_snps(&total, reference, &config.calling);
        timer.finish(stages);
        Some((
            encode_calls(&calls),
            mapped_total,
            total.heap_bytes(),
            total.digest(),
        ))
    });

    let (call_wire, mapped_total, acc_bytes, digest) =
        results.swap_remove(0).expect("rank 0 returns the result");
    let report = RunReport {
        calls: decode_calls(&call_wire)?,
        reads_processed: reads.len(),
        reads_mapped: mapped_total as usize,
        accumulator_bytes: acc_bytes,
        traffic: Some(world_report.traffic),
        rank_cpu_secs: world_report.rank_cpu_secs,
        accumulator_digest: Some(digest),
        ..RunReport::default()
    };
    Ok(run.finish(observer, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::{CharDiscAccumulator, NormAccumulator};
    use crate::pipeline::run_serial;

    fn fixture() -> (
        DnaSeq,
        Vec<(usize, genome::alphabet::Base)>,
        Vec<SequencedRead>,
    ) {
        crate::pipeline::tests::fixture(4_000, 5, 12.0, 321)
    }

    #[test]
    fn read_split_matches_serial_for_norm() {
        let quiet = Observer::disabled();
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let serial = run_serial::<NormAccumulator>(&reference, &reads, &cfg, &quiet);
        for ranks in [1usize, 2, 3, 5] {
            let parallel =
                run_read_split::<NormAccumulator>(&reference, &reads, &cfg, ranks, &quiet).unwrap();
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
        let quiet = Observer::disabled();
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let two = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 2, &quiet).unwrap();
        let four = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 4, &quiet).unwrap();
        let t2 = two.traffic.unwrap();
        let t4 = four.traffic.unwrap();
        assert!(t4.payload_bytes > t2.payload_bytes, "{t2} vs {t4}");
        // Each non-root rank ships one genome-sized accumulator (~20 B/base).
        assert!(t2.payload_bytes as usize >= reference.len() * 20);
    }

    #[test]
    fn chardisc_read_split_still_finds_snps() {
        let (reference, truth, reads) = fixture();
        let report = run_read_split::<CharDiscAccumulator>(
            &reference,
            &reads,
            &GnumapConfig::default(),
            3,
            &Observer::disabled(),
        )
        .unwrap();
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 3, "{acc:?}");
    }
}
