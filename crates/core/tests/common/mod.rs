//! A repeat-rich mapping fixture shared by the mapping-level tests.
//!
//! The genome is a random background with 48 copies of one 90-bp repeat
//! unit spliced in, each copy carrying 0–3 substitutions. Reads drawn from
//! the copies therefore seed dozens of candidates per strand, and their
//! posterior weights spread from ~1 (exact copies) through the `min_weight`
//! cut (one or two mismatches) to far below it.

#![allow(dead_code)]

use genome::alphabet::{Base, BASES};
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Read length of the fixture (the production read length).
pub const READ_LEN: usize = 62;

fn random_base(rng: &mut ChaCha8Rng) -> Base {
    BASES[rng.random_range(0..4usize)]
}

/// The repeat-rich genome and the start of every repeat copy in it.
pub fn repeat_genome(seed: u64) -> (DnaSeq, Vec<usize>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let unit: Vec<Base> = (0..90).map(|_| random_base(&mut rng)).collect();
    let mut bases: Vec<Base> = (0..2_000).map(|_| random_base(&mut rng)).collect();
    let mut copies = Vec::new();
    for _ in 0..48 {
        let mut copy = unit.clone();
        for _ in 0..rng.random_range(0..4usize) {
            let at = rng.random_range(0..copy.len());
            copy[at] = copy[at].transition();
        }
        copies.push(bases.len());
        bases.extend(copy);
        let spacer = rng.random_range(20..60usize);
        bases.extend((0..spacer).map(|_| random_base(&mut rng)));
    }
    bases.extend((0..2_000).map(|_| random_base(&mut rng)));
    (DnaSeq::from_bases(bases), copies)
}

/// `count` reads sampled from the repeat copies (both strands, varied
/// qualities, an occasional sequencing error) plus a few from the unique
/// background.
pub fn reads(genome: &DnaSeq, copies: &[usize], count: usize, seed: u64) -> Vec<SequencedRead> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|r| {
            let start = if r % 8 == 7 {
                rng.random_range(0..2_000 - READ_LEN)
            } else {
                copies[rng.random_range(0..copies.len())] + rng.random_range(0..90 - READ_LEN)
            };
            let seq: DnaSeq = genome
                .window(start, start + READ_LEN)
                .iter()
                .map(|b| match b {
                    Some(b) if rng.random_range(0..100u32) == 0 => Some(b.transition()),
                    other => other,
                })
                .collect();
            let quals: Vec<u8> = (0..READ_LEN)
                .map(|_| rng.random_range(12..41u32) as u8)
                .collect();
            let read = SequencedRead::new(format!("r{r}"), seq, quals).expect("equal lengths");
            if r % 2 == 1 {
                read.reverse_complement()
            } else {
                read
            }
        })
        .collect()
}
