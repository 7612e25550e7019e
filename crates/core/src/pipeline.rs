//! The serial end-to-end pipeline: index → map → accumulate → call.
//!
//! This is the reference implementation the parallel drivers must agree
//! with. It also owns the batch step the other drivers share
//! ([`BatchCounts::map_batch`]): map a batch of reads, count them, deposit
//! their evidence. Genome-split, whose weight cut waits for every shard's
//! totals, shares its posterior tail (`BatchCounts::posterior_piece`).

use crate::accum::GenomeAccumulator;
use crate::config::GnumapConfig;
use crate::evidence::PagedEvidence;
use crate::mapping::{AlignScratch, MappingEngine};
use crate::observe::{Event, Observer, RunTimer, Stage, StageTimer};
use crate::report::RunReport;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use pairhmm::marginal::ColumnPosterior;

/// Reads per [`Event::Batch`] when a driver without natural batching (the
/// serial pipeline) runs under an enabled observer.
pub const OBSERVED_BATCH_READS: usize = 256;

/// Reads [`BatchCounts::map_batch`] maps in one lockstep batch, whose
/// survivors share the four posterior lanes: a batch handed to it is
/// mapped in pieces of at most this many reads. It bounds the per-worker
/// scratch that holds a piece's profile rows.
pub const LOCKSTEP_READS: usize = 64;

/// A lockstep piece also ends once its reads have queued this many
/// survivors. That bounds the column arena on multi-mapping reads (up to
/// 128 survivors each) to under 64 + 128 survivors' columns, where 64
/// reads of ten survivors each would hold 640.
pub const LOCKSTEP_SURVIVORS: usize = 64;

/// Tallies of the shared per-read step over one batch; one batch becomes
/// one [`Event::Batch`]. Counting always runs: it is a few integer adds
/// next to the mapping work of each read.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchCounts {
    /// Reads stepped.
    pub reads: u64,
    /// Reads that produced at least one alignment.
    pub mapped: u64,
    /// Candidate placements scored by the forward pass, before the
    /// `min_weight` cut.
    pub candidates: u64,
    /// Posterior columns handed to the deposit callback.
    pub columns: u64,
    /// Of `candidates`, those whose forward stopped early
    /// ([`AlignScratch::abandoned`]).
    pub abandoned: u64,
    /// Reads that rescored their abandoned candidates in full
    /// ([`AlignScratch::fallbacks`]).
    pub fallbacks: u64,
    /// Unmapped reads whose every scored candidate underflowed to a zero
    /// total ([`AlignScratch::underflowed`]).
    pub underflowed: u64,
    /// Unmapped reads that had no candidate placement to score at all
    /// ([`AlignScratch::no_candidates`]).
    pub no_candidates: u64,
    /// Posterior passes run: candidates that survived the `min_weight`
    /// cut and got their columns.
    pub survivors: u64,
    /// Lane slots of the four-lane posterior chunks those passes ran in,
    /// padding included; a survivor run on its own adds none
    /// ([`AlignScratch::posterior_lanes`]).
    pub posterior_lanes: u64,
}

impl BatchCounts {
    /// The shared batch step: map `items` (each holding the read `read`
    /// returns) into `scratch`, count them, and hand each alignment's
    /// `(item index, window_start, weight, columns)` to `deposit` straight
    /// out of the scratch — no owned alignments are materialised.
    ///
    /// The reads are mapped in lockstep batches of up to
    /// [`LOCKSTEP_READS`] reads, cut short once they have queued
    /// [`LOCKSTEP_SURVIVORS`] survivors: each read is scored and pruned on its own
    /// (`MappingEngine::queue_read`), then the posterior runs once for
    /// the batch's survivors, packing survivors of different reads into
    /// the same four lanes (`MappingEngine::posterior_batch`). Deposits
    /// follow in read order, then candidate order — the order of mapping
    /// one read at a time — so order-dependent accumulators get the same
    /// bits.
    pub fn map_batch<T>(
        &mut self,
        engine: &MappingEngine<'_>,
        items: &[T],
        read: impl Fn(&T) -> &SequencedRead,
        scratch: &mut AlignScratch,
        mut deposit: impl FnMut(usize, usize, f64, &[ColumnPosterior]),
    ) {
        // The items of the current piece start at `first`.
        let mut first = 0;
        scratch.begin_batch();
        for (i, item) in items.iter().enumerate() {
            let survivors = engine.queue_read(read(item), scratch) as u64;
            self.reads += 1;
            self.mapped += u64::from(survivors > 0);
            self.candidates += scratch.scored() as u64;
            self.abandoned += scratch.abandoned() as u64;
            self.fallbacks += scratch.fallbacks() as u64;
            self.underflowed += scratch.underflowed() as u64;
            self.no_candidates += scratch.no_candidates() as u64;
            self.survivors += survivors;
            let piece_full = i + 1 - first == LOCKSTEP_READS || scratch.len() >= LOCKSTEP_SURVIVORS;
            if !piece_full && i + 1 < items.len() {
                continue;
            }
            self.posterior_piece(engine, scratch, |slot, start, w, columns| {
                deposit(first + slot, start, w, columns)
            });
            first = i + 1;
            scratch.begin_batch();
        }
    }

    /// The posterior tail of a lockstep piece: give the survivors queued in
    /// `scratch` their columns, packed four to a lane chunk across reads
    /// (`MappingEngine::posterior_batch`), count their lane slots and
    /// columns, and hand each alignment's `(read slot, window_start,
    /// weight, columns)` to `deposit` in read order, then candidate order.
    pub(crate) fn posterior_piece(
        &mut self,
        engine: &MappingEngine<'_>,
        scratch: &mut AlignScratch,
        mut deposit: impl FnMut(usize, usize, f64, &[ColumnPosterior]),
    ) {
        engine.posterior_batch(scratch);
        self.posterior_lanes += scratch.posterior_lanes() as u64;
        for aln in scratch.alignments() {
            self.columns += aln.columns.len() as u64;
            deposit(aln.read, aln.window_start, aln.score, aln.columns);
        }
    }

    /// Emit these counts as one [`Event::Batch`] for `worker` (a no-op
    /// without a sink).
    pub fn emit(&self, observer: &Observer, worker: usize) {
        observer.emit(|| Event::Batch {
            worker: worker as u64,
            reads: self.reads,
            mapped: self.mapped,
            candidates: self.candidates,
            deposited_columns: self.columns,
            abandoned: self.abandoned,
            fallbacks: self.fallbacks,
            underflowed: self.underflowed,
            survivors: self.survivors,
            posterior_lanes: self.posterior_lanes,
            no_candidates: self.no_candidates,
        });
    }
}

/// Map `reads` with `engine` and deposit their weighted evidence into
/// `evidence`, emitting one [`Event::Batch`] per [`OBSERVED_BATCH_READS`]
/// reads. Returns the number of reads that produced at least one
/// alignment.
pub fn accumulate_reads<A: GenomeAccumulator>(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    evidence: &PagedEvidence<A>,
    observer: &Observer,
) -> usize {
    // One scratch arena, reused for every read.
    let mut scratch = AlignScratch::new();
    let mut mapped = 0;
    for batch in reads.chunks(OBSERVED_BATCH_READS) {
        let mut counts = BatchCounts::default();
        counts.map_batch(
            engine,
            batch,
            |read| read,
            &mut scratch,
            |_, start, w, columns| evidence.deposit(start, w, columns),
        );
        counts.emit(observer, 0);
        mapped += counts.mapped as usize;
    }
    mapped
}

/// Deposit one alignment's weighted columns into an accumulator, skipping
/// columns beyond the accumulator's end.
pub fn deposit<A: GenomeAccumulator>(
    acc: &mut A,
    window_start: usize,
    weight: f64,
    columns: &[ColumnPosterior],
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

/// Run the whole pipeline serially with accumulator type `A`, reporting
/// stage timings, per-batch counters and run events to `observer`.
///
/// Evidence goes into a [`PagedEvidence`] of `A` pages, so the run holds
/// the pages its reads touch, not a genome-length accumulator; calls and
/// digest read those pages and equal the dense accumulator's bit for bit.
pub fn run_serial<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    observer: &Observer,
) -> RunReport {
    let run = RunTimer::start(observer, "serial", config.accumulator);
    let timer = StageTimer::start(observer, Stage::Index);
    let engine = MappingEngine::new(reference, config.mapping);
    timer.finish(observer);

    let mut evidence = PagedEvidence::<A>::new(reference.len(), Default::default());
    let timer = StageTimer::start(observer, Stage::Map);
    let mapped = accumulate_reads(&engine, reads, &evidence, observer);
    timer.finish(observer);

    let timer = StageTimer::start(observer, Stage::Call);
    let calls = evidence.call_snps(reference, &config.calling);
    timer.finish(observer);

    let report = RunReport {
        calls,
        reads_processed: reads.len(),
        reads_mapped: mapped,
        accumulator_bytes: evidence.heap_bytes(),
        accumulator_digest: Some(evidence.digest()),
        ..RunReport::default()
    };
    run.finish(observer, report)
}

/// Run the whole pipeline serially, picking the accumulator type from the
/// configured mode.
pub fn run_pipeline(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
) -> RunReport {
    crate::with_accumulator!(config.accumulator, |A| {
        run_serial::<A>(reference, reads, config, &Observer::disabled())
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::accum::{AccumulatorMode, FixedAccumulator, NormAccumulator};
    use crate::evidence::{PAGE, SLOT_BYTES};
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
        // 14× coverage touches every page of the genome.
        assert_eq!(
            report.accumulator_bytes,
            every_page_bytes::<NormAccumulator>(6_000)
        );
    }

    /// Heap of paged evidence holding every page of a `len`-position
    /// genome: one table slot and one boxed `A` page per `PAGE` positions,
    /// the last page short.
    fn every_page_bytes<A: GenomeAccumulator>(len: usize) -> usize {
        (0..len)
            .step_by(PAGE)
            .map(|start| {
                let page = A::new(PAGE.min(len - start)).heap_bytes();
                SLOT_BYTES + std::mem::size_of::<A>() + page
            })
            .sum()
    }

    #[test]
    fn serial_evidence_follows_the_reads_not_the_genome() {
        // A panel: reads from the first 3 kbp of a 64 kbp genome, mapped
        // against that genome and against its first 32 kbp.
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let genome = generate_genome(
            &GenomeConfig {
                length: 64 * PAGE,
                repeat_families: 0,
                ..GenomeConfig::default()
            },
            &mut rng,
        );
        let panel = genome.window(0, 3_000);
        let reads: Vec<_> = simulate_reads(
            &ReadSource::Monoploid(&panel),
            400,
            &ReadSimConfig::default(),
            &mut rng,
        )
        .into_iter()
        .map(|r| r.read)
        .collect();
        let half = genome.window(0, 32 * PAGE);
        for mode in [AccumulatorMode::Norm, AccumulatorMode::Fixed] {
            let config = GnumapConfig {
                accumulator: mode,
                ..GnumapConfig::default()
            };
            let whole = run_pipeline(&genome, &reads, &config);
            let short = run_pipeline(&half, &reads, &config);
            // The panel's three pages, not the genome's 64 or 32.
            let page = crate::with_accumulator!(mode, |A| every_page_bytes::<A>(PAGE));
            let pages = 3 * (page - SLOT_BYTES);
            assert_eq!(whole.accumulator_bytes, 64 * SLOT_BYTES + pages, "{mode}");
            assert_eq!(short.accumulator_bytes, 32 * SLOT_BYTES + pages, "{mode}");
            assert_eq!(whole.calls, short.calls, "{mode}");
        }
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
        let plain = run_serial::<FixedAccumulator>(&reference, &reads, &cfg, &Observer::disabled());
        let sink = Arc::new(MemorySink::new());
        let observed =
            run_serial::<FixedAccumulator>(&reference, &reads, &cfg, &Observer::new(sink.clone()));
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
        assert_eq!(
            report.accumulator_bytes,
            every_page_bytes::<FixedAccumulator>(3_000)
        );
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
