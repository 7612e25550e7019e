//! Forward-first mapping is exact: `map_read_with` scores every candidate
//! with a forward total, prunes by `min_weight`, and runs the backward pass
//! only for survivors. Its output must equal, bit for bit, what giving
//! every candidate its columns first and then normalising would produce —
//! the reference below, built from `map_read_raw_with` with the weight
//! arithmetic in the engine's order (normalise, prune, renormalise).
//!
//! `map_read_with` also abandons candidates whose likelihood bound is
//! negligible and certifies the grand total (falling back to full scoring
//! when it cannot); `map_read_raw_with` scores every candidate in full. So
//! the same comparison pins early abandoning to be invisible in the
//! output, here on repeat-dense genomes and adversarial reads too.

mod common;

use genome::alphabet::{Base, BASES};
use genome::index::IndexConfig;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::mapping::{AlignScratch, MappingConfig, MappingEngine};
use pairhmm::kernel::LANES;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::iter::repeat_n;

/// One alignment as `(window_start, reverse, score bits, column bits)`.
type Flat = (usize, bool, u64, Vec<[u64; 5]>);

fn flatten(scratch: &AlignScratch) -> Vec<Flat> {
    scratch
        .alignments()
        .map(|a| {
            let cols = a
                .columns
                .iter()
                .map(|c| c.probs.map(f64::to_bits))
                .collect();
            (a.window_start, a.reverse, a.score.to_bits(), cols)
        })
        .collect()
}

/// The all-columns-first reference for one read.
fn reference(raw: &AlignScratch, min_weight: f64) -> Vec<Flat> {
    let grand_total: f64 = raw.alignments().map(|a| a.score).sum();
    if grand_total <= 0.0 {
        return Vec::new();
    }
    let mut kept: Vec<(f64, _)> = raw
        .alignments()
        .filter_map(|a| {
            let weight = a.score / grand_total;
            (weight >= min_weight).then_some((weight, a))
        })
        .collect();
    let kept_sum: f64 = kept.iter().map(|k| k.0).sum();
    if kept_sum > 0.0 {
        for k in &mut kept {
            k.0 /= kept_sum;
        }
    }
    kept.into_iter()
        .map(|(weight, a)| {
            let cols = a
                .columns
                .iter()
                .map(|c| c.probs.map(f64::to_bits))
                .collect();
            (a.window_start, a.reverse, weight.to_bits(), cols)
        })
        .collect()
}

/// What [`check_reads`] saw across a fixture.
#[derive(Debug, Default)]
struct Seen {
    /// Reads that hit the per-strand candidate cap.
    capped: usize,
    /// Reads with survivors on both sides of the `min_weight` cut.
    straddling: usize,
    /// Candidates whose forward stopped early.
    abandoned: usize,
    /// Reads that rescored their abandoned candidates.
    fallbacks: usize,
}

/// Compare both paths on every read of the repeat-rich fixture.
fn check(config: MappingConfig) -> Seen {
    let (genome, copies) = common::repeat_genome(71);
    let reads = common::reads(&genome, &copies, 160, 72);
    check_reads(&genome, &reads, config)
}

/// [`check`] on any genome and reads.
fn check_reads(genome: &DnaSeq, reads: &[SequencedRead], config: MappingConfig) -> Seen {
    let engine = MappingEngine::new(genome, config);
    let (mut scratch, mut raw) = (AlignScratch::new(), AlignScratch::new());
    let mut seen = Seen::default();
    for read in reads {
        engine.map_read_with(read, &mut scratch);
        engine.map_read_raw_with(read, &mut raw);
        assert_eq!(
            flatten(&scratch),
            reference(&raw, config.min_weight),
            "read {} diverged from the all-columns-first reference",
            read.id
        );
        assert_eq!(scratch.scored(), raw.scored(), "read {}", read.id);
        assert!(raw.len() <= raw.scored());
        assert!(scratch.abandoned() <= scratch.scored());
        assert_eq!((raw.abandoned(), raw.fallbacks()), (0, 0));
        let forward = raw.alignments().filter(|a| !a.reverse).count();
        if forward.max(raw.len() - forward) == config.max_candidates {
            seen.capped += 1;
        }
        if scratch.len() >= 2 && scratch.len() < raw.len() {
            seen.straddling += 1;
        }
        seen.abandoned += scratch.abandoned();
        seen.fallbacks += scratch.fallbacks();
    }
    seen
}

#[test]
fn forward_first_matches_all_columns_reference_default_config() {
    let seen = check(MappingConfig::default());
    assert!(
        seen.straddling > 0,
        "the fixture must produce reads whose candidates straddle min_weight"
    );
    assert!(seen.abandoned > 0, "the fixture must abandon candidates");
}

#[test]
fn forward_first_matches_reference_when_candidates_are_capped() {
    let seen = check(MappingConfig {
        max_candidates: 12,
        ..MappingConfig::default()
    });
    assert!(seen.capped > 0, "the fixture must hit max_candidates");
    assert!(seen.straddling > 0);
}

#[test]
fn forward_first_matches_reference_with_padded_unbanded_windows() {
    check(MappingConfig {
        band: None,
        window_pad: 3,
        ..MappingConfig::default()
    });
}

/// Forward and reverse-complement copies of each unit in the few-candidate
/// fixture: every total from 1 to 2·`LANES`+1, with per-strand counts that
/// are not multiples of `LANES`. The unit marked `END` has its last
/// forward copy at the very end of the genome.
const STRAND_COPIES: [(usize, usize); 9] = [
    (1, 0),
    (1, 1),
    (2, 1),
    (3, 1),
    (3, 2),
    (5, 1),
    (2, 5),
    (5, 3),
    (6, 3),
];
const END: usize = 4;

/// A repeat-rich genome in which unit `t` occurs `STRAND_COPIES[t]` times
/// per strand (each copy with 0–2 substitutions); for each unit, the read
/// of its first `READ_LEN` bases and that read's reverse complement; and
/// each read's expected `(forward, reverse)` candidate counts. The
/// genome ends with `END`'s last forward copy, cut right after the read's
/// placement, so a padded window there runs past the genome end.
fn few_candidate_fixture(seed: u64) -> (DnaSeq, Vec<SequencedRead>, Vec<(usize, usize)>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let units: Vec<Vec<Base>> = STRAND_COPIES
        .iter()
        .map(|_| random_bases(&mut rng, 80))
        .collect();
    let mut bases = random_bases(&mut rng, 300);
    for (t, (unit, &(forward, reverse))) in units.iter().zip(&STRAND_COPIES).enumerate() {
        let rc: Vec<Base> = unit.iter().rev().map(|b| b.complement()).collect();
        let at_end = usize::from(t == END);
        for copy in repeat_n(unit, forward - at_end).chain(repeat_n(&rc, reverse)) {
            let mut copy = copy.clone();
            for _ in 0..rng.random_range(0..3usize) {
                let at = rng.random_range(0..copy.len());
                copy[at] = copy[at].transition();
            }
            bases.extend(copy);
            let spacer = rng.random_range(20..40usize);
            bases.extend(random_bases(&mut rng, spacer));
        }
    }
    bases.extend(&units[END][..common::READ_LEN]);

    let (mut reads, mut counts) = (Vec::new(), Vec::new());
    for (t, (unit, &(forward, reverse))) in units.iter().zip(&STRAND_COPIES).enumerate() {
        let seq = DnaSeq::from_bases(unit[..common::READ_LEN].iter().copied());
        let quals: Vec<u8> = (0..common::READ_LEN)
            .map(|_| rng.random_range(12..41u32) as u8)
            .collect();
        let read = SequencedRead::new(format!("u{t}"), seq, quals).expect("equal lengths");
        reads.push(read.reverse_complement());
        counts.push((reverse, forward));
        reads.push(read);
        counts.push((forward, reverse));
    }
    (DnaSeq::from_bases(bases), reads, counts)
}

fn random_bases(rng: &mut ChaCha8Rng, len: usize) -> Vec<Base> {
    (0..len)
        .map(|_| BASES[rng.random_range(0..4usize)])
        .collect()
}

#[test]
fn lockstep_chunks_match_reference_for_few_candidates() {
    // Reads with 1..=2·LANES+1 candidates: chunks that mix both strands,
    // short last chunks padded with a repeated lane, and padded windows
    // that run past the genome end, once between two live lanes of a chunk
    // and once as the only live lane. Seeds of 16 keep chance hits in the
    // random background out of the counts.
    let (genome, reads, expected) = few_candidate_fixture(81);
    let index = IndexConfig {
        k: 16,
        ..IndexConfig::default()
    };
    let configs = [
        MappingConfig {
            index,
            ..MappingConfig::default()
        },
        MappingConfig {
            index,
            band: None,
            window_pad: 3,
            ..MappingConfig::default()
        },
    ];
    for config in configs {
        let seen = check_reads(&genome, &reads, config);
        assert!(seen.straddling > 0, "weights must straddle min_weight");

        let engine = MappingEngine::new(&genome, config);
        let mut raw = AlignScratch::new();
        // Candidates whose window runs past the genome end, and those of
        // them with a live lane on both sides in their chunk.
        let (mut past_end, mut inside) = (0, 0);
        for (read, &(forward, reverse)) in reads.iter().zip(&expected) {
            engine.map_read_raw_with(read, &mut raw);
            assert_eq!(raw.scored(), forward + reverse, "read {}", read.id);
            assert_eq!(raw.len(), raw.scored(), "read {}", read.id);
            let fwd = raw.alignments().filter(|a| !a.reverse).count();
            assert_eq!(
                (fwd, raw.len() - fwd),
                (forward, reverse),
                "read {}",
                read.id
            );
            let window = read.len() + config.window_pad;
            for (slot, a) in raw.alignments().enumerate() {
                if a.window_start + window > genome.len() {
                    past_end += 1;
                    let lane = slot % LANES;
                    inside += usize::from(lane > 0 && lane + 1 < LANES && slot + 1 < raw.len());
                }
            }
        }
        // END's read and its reverse complement both reach the end copy.
        let padded = usize::from(config.window_pad > 0);
        assert_eq!((past_end, inside), (2 * padded, padded));
    }
    let totals: Vec<usize> = expected.iter().map(|(f, r)| f + r).collect();
    assert!((1..=2 * LANES + 1).all(|c| totals.contains(&c)));
    assert!(expected
        .iter()
        .all(|(f, r)| f % LANES != 0 || r % LANES != 0));
}

/// A genome made almost entirely of repeats: three 70-bp units in 40
/// copies each, every copy with 0–2 substitutions, separated by spacers of
/// 0–8 random bases.
fn repeat_dense_genome(seed: u64) -> DnaSeq {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let units: Vec<Vec<Base>> = (0..3).map(|_| random_bases(&mut rng, 70)).collect();
    let mut bases = random_bases(&mut rng, 100);
    for _ in 0..120 {
        let mut copy = units[rng.random_range(0..3usize)].clone();
        for _ in 0..rng.random_range(0..3usize) {
            let at = rng.random_range(0..copy.len());
            copy[at] = copy[at].transition();
        }
        bases.extend(copy);
        let spacer = rng.random_range(0..9usize);
        bases.extend(random_bases(&mut rng, spacer));
    }
    bases.extend(random_bases(&mut rng, 100));
    DnaSeq::from_bases(bases)
}

/// Reads built to stress the certificate and the bound, `count` of each
/// kind, from windows of `genome`: near-ties (a copy's bases at uniform
/// quality, so copies one substitution apart differ by one emission
/// ratio), Phred 0 throughout, a run of `N`s in a high-quality read,
/// mixed Phred 0 and Phred 93 bases, and all-`N`.
fn adversarial_reads(genome: &DnaSeq, count: usize, seed: u64) -> Vec<SequencedRead> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let len = common::READ_LEN;
    let mut reads = Vec::new();
    for r in 0..count {
        let start = rng.random_range(0..genome.len() - len);
        let window = genome.window(start, start + len);
        let run = rng.random_range(0..len - 12);
        let kinds: [(&str, DnaSeq, Vec<u8>); 5] = [
            ("tie", window.clone(), vec![30; len]),
            ("phred0", window.clone(), vec![0; len]),
            (
                "nrun",
                window
                    .iter()
                    .enumerate()
                    .map(|(i, b)| b.filter(|_| !(run..run + 12).contains(&i)))
                    .collect(),
                vec![40; len],
            ),
            (
                "mixed",
                window.clone(),
                (0..len)
                    .map(|_| [0, 93][rng.random_range(0..2usize)])
                    .collect(),
            ),
            ("alln", repeat_n(None, len).collect(), vec![30; len]),
        ];
        for (kind, seq, quals) in kinds {
            let read = SequencedRead::new(format!("{kind}{r}"), seq, quals).expect("equal lengths");
            reads.push(if r % 2 == 1 {
                read.reverse_complement()
            } else {
                read
            });
        }
    }
    reads
}

#[test]
fn abandoning_matches_full_scoring_on_repeat_dense_adversarial_reads() {
    let genome = repeat_dense_genome(101);
    let reads = adversarial_reads(&genome, 40, 102);
    let configs = [
        MappingConfig::default(),
        MappingConfig {
            band: None,
            ..MappingConfig::default()
        },
        MappingConfig {
            index: IndexConfig {
                k: 8,
                ..IndexConfig::default()
            },
            max_candidates: 200,
            ..MappingConfig::default()
        },
    ];
    for config in configs {
        let seen = check_reads(&genome, &reads, config);
        assert!(seen.abandoned > 0, "{config:?} abandoned nothing: {seen:?}");
    }
    // Without a weight cut nothing may be abandoned: every candidate keeps
    // its weight.
    let seen = check_reads(
        &genome,
        &reads,
        MappingConfig {
            min_weight: 0.0,
            ..MappingConfig::default()
        },
    );
    assert_eq!((seen.abandoned, seen.fallbacks), (0, 0));
    assert!(seen.straddling == 0);
}

/// A read whose grand total the certificate cannot pin: the abandoned
/// bounds move the rounding of a partial sum, so `map_read_with` must
/// rescore them. The read and its candidates come from the repeat-dense
/// `repeats-stream2` perfbench workload (seed 1), cut down to 20 stretches
/// of that reference, joined by `N` runs, that still reproduce the
/// fallback: 38 candidates, 18 of them abandoned.
const FALLBACK_READ: &str = "CGATAGTCGGCCTATTAATAGATATGGCATGCTATAACGAAACACAAGATAAATGAAAGATG";
const FALLBACK_QUALS: [u8; 62] = [
    27, 26, 26, 25, 25, 25, 24, 24, 24, 23, 23, 23, 23, 22, 22, 22, 22, 22, 21, 21, 21, 21, 21, 21,
    20, 20, 20, 20, 20, 20, 20, 20, 19, 19, 19, 19, 19, 19, 19, 19, 19, 19, 18, 18, 18, 18, 18, 18,
    18, 18, 18, 18, 18, 18, 17, 17, 17, 17, 17, 17, 17, 17,
];
const FALLBACK_GENOME: &str = "\
    CATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTA\
    CTCCTTTTCAAGAACGACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGT\
    CATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNN\
    CTTCTTTCATTTAGCTTGTGTTTCGTTATAGCATGTCATATTTATTAATAGGCGGACTATCGNNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTATCGAGAT\
    ACCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCTTGTCATATCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCCTTTCAGGAACTGCGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAGCTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCAAGTCATATCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCAAGTCATCTCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTCTCTTGTGTTACGTCATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTATCGCGAT\
    ATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCAATTATCTTGTGTTTCGTTATA\
    GCATGTCATATCTATTAATAGGCGGACTATCGAGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNN\
    NNNNNNCATCTTTCATTTATCTTGTGTTTCGTTATAGCATGTCATATCTATAAATAGGCGGACTATCGNNNN\
    NNNNNNNNNNNNCATCTTTCATTTATCCTGTGTTTCGTTATAGCATGTCATATCTATTAATAGGCGGACTAT\
    CGCGATATCTTACTCCTTTTCAAGAACTACGANNNNNNNNNNNNNNNNCATCTTTCATTTATCTTGTGTTTC\
    GTTATAGCATGCCATATCTATTAATAGGCCGACTATCGCGATATCTTACTCCTTTTCAAGAACTACGA";

#[test]
fn uncertified_total_falls_back_to_full_scoring() {
    let genome: DnaSeq = FALLBACK_GENOME.parse().expect("fixture genome");
    let seq = FALLBACK_READ.parse().expect("fixture read");
    let read = SequencedRead::new("fallback", seq, FALLBACK_QUALS.to_vec()).expect("equal lengths");
    let seen = check_reads(&genome, &[read], MappingConfig::default());
    assert_eq!((seen.abandoned, seen.fallbacks), (18, 1), "{seen:?}");
}
