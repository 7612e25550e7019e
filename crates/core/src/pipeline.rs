//! The serial end-to-end pipeline: index → map → accumulate → call.
//!
//! This is the reference implementation the parallel drivers must agree
//! with; it is also what the per-rank workers of the read-split driver run
//! internally.

use crate::accum::{
    AccumulatorMode, CentDiscAccumulator, CharDiscAccumulator, FixedAccumulator, GenomeAccumulator,
    NormAccumulator,
};
use crate::config::GnumapConfig;
use crate::mapping::{AlignScratch, MappingEngine};
use crate::observe::{Event, Observer, Stage, StageTimer};
use crate::report::RunReport;
use crate::snpcall::call_snps;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use std::time::Instant;

/// Reads per [`Event::Batch`] when a driver without natural batching (the
/// serial pipeline, the per-rank MPI loops) runs under an enabled
/// observer.
pub const OBSERVED_BATCH_READS: usize = 256;

/// Map `reads` with `engine` and deposit their weighted evidence into
/// `acc`. Returns the number of reads that produced at least one
/// alignment.
pub fn accumulate_reads<A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    acc: &mut A,
) -> usize {
    let mut scratch = AlignScratch::new();
    accumulate_reads_with(engine, reads, acc, &mut scratch)
}

/// [`accumulate_reads`] with a caller-provided [`AlignScratch`], so a
/// worker thread can reuse one arena across many batches. Alignments are
/// deposited straight out of the scratch — no per-read `Vec` of owned
/// alignments is ever materialised.
pub fn accumulate_reads_with<A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    acc: &mut A,
    scratch: &mut AlignScratch,
) -> usize {
    let mut mapped = 0usize;
    for read in reads {
        engine.map_read_with(read, scratch);
        if !scratch.is_empty() {
            mapped += 1;
        }
        for aln in scratch.alignments() {
            deposit(acc, aln.window_start, aln.score, aln.columns);
        }
    }
    mapped
}

/// [`accumulate_reads_with`] plus per-batch [`Event::Batch`] emission.
///
/// When the observer is disabled this *is* the plain hot loop — same code
/// path, no counters, no events — so instrumentation costs nothing unless
/// a sink is attached. When enabled, reads are walked in
/// [`OBSERVED_BATCH_READS`] slices (same read order, so deposit order and
/// digests are unchanged) and each slice emits one event carrying read /
/// mapped / candidate / deposited-column counts for `worker`.
pub fn accumulate_reads_observed<A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    acc: &mut A,
    scratch: &mut AlignScratch,
    observer: &Observer,
    worker: usize,
) -> usize {
    if !observer.is_enabled() {
        return accumulate_reads_with(engine, reads, acc, scratch);
    }
    let mut mapped_total = 0usize;
    for batch in reads.chunks(OBSERVED_BATCH_READS) {
        let (mut mapped, mut candidates, mut columns) = (0u64, 0u64, 0u64);
        for read in batch {
            engine.map_read_with(read, scratch);
            candidates += scratch.scored() as u64;
            if !scratch.is_empty() {
                mapped += 1;
            }
            for aln in scratch.alignments() {
                columns += aln.columns.len() as u64;
                deposit(acc, aln.window_start, aln.score, aln.columns);
            }
        }
        observer.emit(|| Event::Batch {
            worker: worker as u64,
            reads: batch.len() as u64,
            mapped,
            candidates,
            deposited_columns: columns,
        });
        mapped_total += mapped as usize;
    }
    mapped_total
}

/// Deposit one alignment's weighted columns into an accumulator, skipping
/// columns beyond the accumulator's end.
pub fn deposit<A: GenomeAccumulator>(
    acc: &mut A,
    window_start: usize,
    weight: f64,
    columns: &[pairhmm::marginal::ColumnPosterior],
) {
    // Clamp the column range once so the hot loop carries no per-column
    // bounds test.
    let len = acc.len();
    if window_start >= len {
        return;
    }
    let usable = columns.len().min(len - window_start);
    for (j, col) in columns[..usable].iter().enumerate() {
        let mut delta = [0.0; 5];
        for (d, p) in delta.iter_mut().zip(col.probs) {
            *d = p * weight;
        }
        acc.add(window_start + j, &delta);
    }
}

/// Run the whole pipeline serially with a specific accumulator type.
pub fn run_serial_with<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
) -> RunReport {
    run_serial_observed::<A>(reference, reads, config, &Observer::disabled())
}

/// [`run_serial_with`] with structured observability: per-stage wall/CPU
/// timings, per-batch counters, and run start/end events.
pub fn run_serial_observed<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    observer: &Observer,
) -> RunReport {
    observer.emit(|| Event::RunStart {
        driver: "serial".into(),
        accumulator: config.accumulator.name().into(),
    });
    let start = Instant::now();
    let timer = StageTimer::start(observer, Stage::Index);
    let engine = MappingEngine::new(reference, config.mapping);
    timer.finish(observer);

    let mut acc = A::new(reference.len());
    let mut scratch = AlignScratch::new();
    let timer = StageTimer::start(observer, Stage::Map);
    let mapped = accumulate_reads_observed(&engine, reads, &mut acc, &mut scratch, observer, 0);
    timer.finish(observer);

    let timer = StageTimer::start(observer, Stage::Call);
    let calls = call_snps(&acc, reference, &config.calling);
    timer.finish(observer);

    let elapsed_secs = start.elapsed().as_secs_f64();
    observer.emit(|| Event::RunEnd {
        reads_processed: reads.len() as u64,
        reads_mapped: mapped as u64,
        calls: calls.len() as u64,
        wall_secs: elapsed_secs,
    });
    RunReport {
        calls,
        reads_processed: reads.len(),
        reads_mapped: mapped,
        elapsed_secs,
        accumulator_bytes: acc.heap_bytes(),
        traffic: None,
        rank_cpu_secs: Vec::new(),
        stream: None,
        accumulator_digest: Some(acc.digest()),
    }
}

/// Run the whole pipeline serially, dispatching on the configured
/// accumulator mode.
pub fn run_pipeline(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
) -> RunReport {
    run_pipeline_observed(reference, reads, config, &Observer::disabled())
}

/// [`run_pipeline`] with an observer.
pub fn run_pipeline_observed(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    observer: &Observer,
) -> RunReport {
    match config.accumulator {
        AccumulatorMode::Norm => {
            run_serial_observed::<NormAccumulator>(reference, reads, config, observer)
        }
        AccumulatorMode::CharDisc => {
            run_serial_observed::<CharDiscAccumulator>(reference, reads, config, observer)
        }
        AccumulatorMode::CentDisc => {
            run_serial_observed::<CentDiscAccumulator>(reference, reads, config, observer)
        }
        AccumulatorMode::Fixed => {
            run_serial_observed::<FixedAccumulator>(reference, reads, config, observer)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::accum::NormAccumulator;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
    use simulate::{
        apply_snps_monoploid, generate_genome, generate_snp_catalog, ErrorProfile, GenomeConfig,
        SnpCatalogConfig,
    };

    /// Small but realistic end-to-end fixture shared by driver tests.
    pub(crate) fn fixture(
        genome_len: usize,
        snp_count: usize,
        coverage: f64,
        seed: u64,
    ) -> (
        DnaSeq,
        Vec<(usize, genome::alphabet::Base)>,
        Vec<SequencedRead>,
    ) {
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
        let truth: Vec<_> = snps.iter().map(|s| (s.pos, s.alt)).collect();
        let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
        (reference, truth, reads)
    }

    #[test]
    fn end_to_end_finds_planted_snps() {
        let (reference, truth, reads) = fixture(6_000, 8, 14.0, 2024);
        let report = run_pipeline(&reference, &reads, &GnumapConfig::default());
        assert!(report.reads_mapped as f64 > reads.len() as f64 * 0.95);

        let accuracy = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(
            accuracy.true_positives >= 7,
            "expected ≥7/8 planted SNPs, got {accuracy:?}"
        );
        assert!(
            accuracy.false_positives <= 1,
            "too many false positives: {accuracy:?}"
        );
        assert!(report.seqs_per_sec() > 0.0);
        assert_eq!(report.accumulator_bytes, 6_000 * 20);
    }

    #[test]
    fn no_snps_means_no_calls() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let reference = generate_genome(
            &GenomeConfig {
                length: 4_000,
                repeat_families: 0,
                ..GenomeConfig::default()
            },
            &mut rng,
        );
        let sim = simulate_reads(
            &ReadSource::Monoploid(&reference),
            800,
            &ReadSimConfig::default(),
            &mut rng,
        );
        let reads: Vec<_> = sim.into_iter().map(|r| r.read).collect();
        let report = run_pipeline(&reference, &reads, &GnumapConfig::default());
        assert!(
            report.calls.len() <= 2,
            "α=0.05 on a clean genome should produce almost nothing: {}",
            report.calls.len()
        );
    }

    #[test]
    fn observed_run_matches_unobserved_and_emits_events() {
        use crate::observe::MemorySink;
        use std::sync::Arc;
        let (reference, _, reads) = fixture(3_000, 4, 10.0, 42);
        let cfg = GnumapConfig::default();
        let plain = run_serial_with::<FixedAccumulator>(&reference, &reads, &cfg);
        let sink = Arc::new(MemorySink::new());
        let observed = run_serial_observed::<FixedAccumulator>(
            &reference,
            &reads,
            &cfg,
            &Observer::new(sink.clone()),
        );
        assert_eq!(observed.accumulator_digest, plain.accumulator_digest);
        assert_eq!(observed.reads_mapped, plain.reads_mapped);

        let events = sink.take();
        assert!(matches!(events.first(), Some(Event::RunStart { .. })));
        assert!(matches!(events.last(), Some(Event::RunEnd { .. })));
        for stage in [Stage::Index, Stage::Map, Stage::Call] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::StageEnd { stage: s, .. } if *s == stage)),
                "missing StageEnd for {stage:?}"
            );
        }
        let batch_reads: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { reads, .. } => Some(*reads),
                _ => None,
            })
            .sum();
        assert_eq!(batch_reads, reads.len() as u64);
    }

    #[test]
    fn fixed_mode_runs_through_run_pipeline() {
        let (reference, truth, reads) = fixture(3_000, 4, 12.0, 9);
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: AccumulatorMode::Fixed,
                ..GnumapConfig::default()
            },
        );
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 3, "{acc:?}");
        assert_eq!(report.accumulator_bytes, 3_000 * 40);
    }

    #[test]
    fn deposit_clips_at_accumulator_end() {
        let mut acc = NormAccumulator::new(3);
        let cols = vec![
            pairhmm::marginal::ColumnPosterior {
                probs: [1.0, 0.0, 0.0, 0.0, 0.0]
            };
            5
        ];
        deposit(&mut acc, 1, 1.0, &cols);
        assert_eq!(acc.counts(1)[0], 1.0);
        assert_eq!(acc.counts(2)[0], 1.0);
        // Columns 3 and 4 fell off the end without panicking.
    }

    #[test]
    fn chardisc_mode_is_close_to_norm_at_moderate_coverage() {
        let (reference, truth, reads) = fixture(5_000, 6, 12.0, 11);
        let norm = run_pipeline(&reference, &reads, &GnumapConfig::default());
        let chard = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: crate::accum::AccumulatorMode::CharDisc,
                ..GnumapConfig::default()
            },
        );
        let a_norm = crate::report::score_snp_calls(&norm.calls, &truth);
        let a_chard = crate::report::score_snp_calls(&chard.calls, &truth);
        // Paper Table III: CHARDISC keeps precision but may lose some TPs.
        assert!(a_chard.true_positives >= a_norm.true_positives.saturating_sub(2));
        assert!(a_chard.false_positives <= a_norm.false_positives + 1);
        assert!(chard.accumulator_bytes < norm.accumulator_bytes);
    }
}
