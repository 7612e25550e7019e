//! Batch mapping is one-read-at-a-time mapping: `BatchCounts::map_batch`
//! scores and prunes each read on its own, then runs one posterior for the
//! survivors of the whole batch, packing survivors of different reads (and
//! read lengths) into shared four-lane chunks. Every alignment must keep
//! the bits `map_read_with` gives it — weight and every column — and the
//! deposits must come in read order, then candidate order, so the serial
//! driver's order-dependent Norm digest and its Fixed digest are those of
//! depositing one read at a time.

use genome::alphabet::{Base, BASES};
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::{FixedAccumulator, GenomeAccumulator, NormAccumulator};
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::Observer;
use gnumap_core::pipeline::{deposit, run_serial, BatchCounts};
use gnumap_core::GnumapConfig;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

/// Phred scores the reads draw from: the extremes of FASTQ and beyond it.
const PHREDS: [u8; 5] = [0, 2, 41, 93, 200];

/// Length of each repeat unit.
const UNIT: usize = 100;

/// A random genome holding one unit twice and another five times (exact
/// copies), so reads from them have two and five equal-weight survivors.
/// Returns the genome, the unique background span, and the first copy of
/// each unit.
struct Fixture {
    genome: DnaSeq,
    unique: usize,
    twice: usize,
    five: usize,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(2012);
        let mut random = |len: usize| -> Vec<Base> {
            (0..len)
                .map(|_| BASES[rng.random_range(0..4usize)])
                .collect()
        };
        let unique = 3_000;
        let mut bases = random(unique);
        let (two, five) = (random(UNIT), random(UNIT));
        let twice = bases.len();
        for _ in 0..2 {
            bases.extend(&two);
            bases.extend(random(37));
        }
        let five_at = bases.len();
        for _ in 0..5 {
            bases.extend(&five);
            bases.extend(random(41));
        }
        bases.extend(random(500));
        Fixture {
            genome: DnaSeq::from_bases(bases),
            unique,
            twice,
            five: five_at,
        }
    })
}

/// One read to build: where its bases come from, its length, the Phred of
/// each base (indices into [`PHREDS`]), positions turned into `N`, and
/// its strand.
#[derive(Debug, Clone)]
struct ReadSpec {
    /// 0: all `N` (no candidate); 1: unique background; 2: the unit
    /// copied twice; 3: the unit copied five times.
    source: u8,
    len: usize,
    offset: usize,
    quals: Vec<usize>,
    ns: Vec<usize>,
    reverse: bool,
}

fn build(spec: &ReadSpec, id: usize) -> SequencedRead {
    let f = fixture();
    let len = spec.len;
    let seq: DnaSeq = match spec.source {
        0 => "N".repeat(len).parse().unwrap(),
        source => {
            let (first, span) = match source {
                1 => (0, f.unique),
                2 => (f.twice, UNIT),
                _ => (f.five, UNIT),
            };
            let start = first + spec.offset % (span - len + 1);
            let mut bases: Vec<Option<Base>> = f.genome.window(start, start + len).iter().collect();
            for &n in &spec.ns {
                bases[n % len] = None;
            }
            bases.into_iter().collect()
        }
    };
    let quals = (0..len)
        .map(|i| PHREDS[spec.quals[i % spec.quals.len()]])
        .collect();
    let read = SequencedRead::new(format!("r{id}"), seq, quals).unwrap();
    if spec.reverse {
        read.reverse_complement()
    } else {
        read
    }
}

fn spec_strategy() -> impl Strategy<Value = ReadSpec> {
    (
        0u8..4,
        20usize..=100,
        0usize..10_000,
        proptest::collection::vec(0..PHREDS.len(), 1..8),
        proptest::collection::vec(0usize..100, 0..3),
        0u8..2,
    )
        .prop_map(|(source, len, offset, quals, ns, reverse)| ReadSpec {
            source,
            len,
            offset,
            quals,
            ns,
            reverse: reverse == 1,
        })
}

/// One deposit: read index, window start, weight bits, column bits.
type Deposit = (usize, usize, u64, Vec<[u64; 5]>);

fn bits(columns: &[pairhmm::ColumnPosterior]) -> Vec<[u64; 5]> {
    columns.iter().map(|c| c.probs.map(f64::to_bits)).collect()
}

/// Map `reads` one at a time: the deposits in order, each read's survivor
/// count, and the summed counts.
fn one_at_a_time(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
) -> (Vec<Deposit>, Vec<usize>, BatchCounts) {
    let mut scratch = AlignScratch::new();
    let (mut deposits, mut survivors) = (Vec::new(), Vec::new());
    let mut counts = BatchCounts::default();
    for (r, read) in reads.iter().enumerate() {
        engine.map_read_with(read, &mut scratch);
        survivors.push(scratch.len());
        counts.reads += 1;
        counts.mapped += u64::from(!scratch.is_empty());
        counts.candidates += scratch.scored() as u64;
        counts.abandoned += scratch.abandoned() as u64;
        counts.fallbacks += scratch.fallbacks() as u64;
        counts.underflowed += scratch.underflowed() as u64;
        counts.no_candidates += scratch.no_candidates() as u64;
        counts.survivors += scratch.len() as u64;
        for a in scratch.alignments() {
            counts.columns += a.columns.len() as u64;
            deposits.push((r, a.window_start, a.score.to_bits(), bits(a.columns)));
        }
    }
    (deposits, survivors, counts)
}

/// Map `reads` in batches of `batch` through `BatchCounts::map_batch`.
fn batched(
    engine: &MappingEngine<'_>,
    reads: &[SequencedRead],
    batch: usize,
) -> (Vec<Deposit>, BatchCounts) {
    let mut scratch = AlignScratch::new();
    let mut deposits = Vec::new();
    let mut counts = BatchCounts::default();
    for (b, chunk) in reads.chunks(batch).enumerate() {
        counts.map_batch(
            engine,
            chunk,
            |r| r,
            &mut scratch,
            |i, start, w, cols| {
                deposits.push((b * batch + i, start, w.to_bits(), bits(cols)));
            },
        );
    }
    (deposits, counts)
}

/// The digest of depositing `deposits`, in order, into a fresh `A`.
fn digest<A: GenomeAccumulator>(len: usize, deposits: &[Deposit]) -> u64 {
    let mut acc = A::new(len);
    for (_, start, w, cols) in deposits {
        let cols: Vec<_> = cols
            .iter()
            .map(|c| pairhmm::ColumnPosterior {
                probs: c.map(f64::from_bits),
            })
            .collect();
        deposit(&mut acc, *start, f64::from_bits(*w), &cols);
    }
    acc.digest()
}

/// Check every batch size against one-at-a-time mapping; returns each
/// read's survivor count.
fn check(reads: &[SequencedRead]) -> Vec<usize> {
    let f = fixture();
    let config = GnumapConfig::default();
    let engine = MappingEngine::new(&f.genome, config.mapping);
    let (want, survivors, want_counts) = one_at_a_time(&engine, reads);
    for batch in [1, 3, 4, 5, 32] {
        let (got, mut counts) = batched(&engine, reads, batch);
        assert_eq!(got, want, "batch size {batch}");
        counts.posterior_lanes = 0;
        assert_eq!(counts, want_counts, "batch size {batch}");
        assert_eq!(
            counts.mapped + counts.no_candidates + counts.underflowed,
            counts.reads
        );
    }
    let len = f.genome.len();
    let norm = digest::<NormAccumulator>(len, &want);
    let fixed = digest::<FixedAccumulator>(len, &want);
    let (five, _) = batched(&engine, reads, 5);
    assert_eq!(digest::<NormAccumulator>(len, &five), norm);
    assert_eq!(digest::<FixedAccumulator>(len, &five), fixed);
    let serial_norm =
        run_serial::<NormAccumulator>(&f.genome, reads, &config, &Observer::disabled());
    let serial_fixed =
        run_serial::<FixedAccumulator>(&f.genome, reads, &config, &Observer::disabled());
    assert_eq!(
        serial_norm.accumulator_digest,
        Some(norm),
        "serial Norm digest"
    );
    assert_eq!(
        serial_fixed.accumulator_digest,
        Some(fixed),
        "serial Fixed digest"
    );
    survivors
}

#[test]
fn batches_cover_reads_with_zero_one_two_and_five_survivors() {
    // Every source at every length bound, both strands, each Phred.
    let mut reads = Vec::new();
    for (s, source) in [0u8, 1, 2, 3].into_iter().enumerate() {
        for (l, len) in [20, 62, 100].into_iter().enumerate() {
            for (q, reverse) in [(0, false), (1, true), (2, false), (3, true), (4, false)] {
                let spec = ReadSpec {
                    source,
                    len,
                    offset: 7 * s + 13 * l + q,
                    quals: vec![q, 2],
                    ns: if q == 1 { vec![5] } else { vec![] },
                    reverse,
                };
                reads.push(build(&spec, reads.len()));
            }
        }
    }
    let survivors = check(&reads);
    for want in [0, 1, 2, 5] {
        assert!(
            survivors.contains(&want),
            "no read with {want} survivors: {survivors:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_mapping_equals_one_read_at_a_time(
        specs in proptest::collection::vec(spec_strategy(), 1..48)
    ) {
        let reads: Vec<SequencedRead> =
            specs.iter().enumerate().map(|(i, spec)| build(spec, i)).collect();
        check(&reads);
    }
}
