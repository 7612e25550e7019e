//! Genome-length probability accumulators (paper Section VI-B).
//!
//! Every genome position accumulates a five-component evidence vector
//! `(z_A, z_C, z_G, z_T, z_gap)` summed over all reads. The paper ships
//! three storage layouts trading memory for fidelity:
//!
//! | mode       | per-base storage              | behaviour |
//! |------------|-------------------------------|-----------|
//! | `NORM`     | five `f32` (20 B)             | exact (up to f32) |
//! | `CHARDISC` | one `f32` total + five bytes (9 B) | proportions quantised to 1/255; increments below the quantum vanish once totals grow |
//! | `CENTDISC` | one `f32` total + one codeword byte (5 B) | distribution snapped to the nearest of 256 biologically-weighted centroids after every update; merges via a precomputed codeword-sum table |
//!
//! The trait's `Wire` associated type is the flat representation the
//! message-passing drivers ship between ranks; `merge_wire` implements the
//! paper's MPI reduction phase for each layout (including CENTDISC's
//! table-lookup merge, whose equal-weight approximation is part of why its
//! accuracy collapses in Table III).

mod centdisc;
mod chardisc;
mod fixed;
mod norm;

pub use centdisc::{CentDiscAccumulator, Codebook};
pub use chardisc::CharDiscAccumulator;
pub use fixed::FixedAccumulator;
pub use norm::NormAccumulator;

use mpisim::WireSize;

/// Number of tracked symbols per genome position (A, C, G, T, gap).
pub const NUM_SYMBOLS: usize = 5;

/// A 64-bit avalanche mix (the SplitMix64 finalizer): every input bit
/// flips each output bit with probability ≈ ½, so XOR-combining hashes of
/// distinct positions cannot systematically cancel.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain seed XORed into a position before it is mixed.
const POSITION_SEED: u64 = 0x243F_6A88_85A3_08D3;

/// Hash of one genome position's decoded evidence vector. The f64 *bit
/// patterns* feed the hash, so two equal digests mean bit-identical
/// decoded state, not merely approximately equal state.
#[inline]
pub fn position_hash(pos: u64, counts: &[f64; NUM_SYMBOLS]) -> u64 {
    let mut h = mix64(pos ^ POSITION_SEED);
    for v in counts {
        h = mix64(h ^ v.to_bits());
    }
    h
}

/// Positions hashed per step by [`fold_hashes`], in independent chains.
const CHAINS: usize = 8;

/// The XOR over `i` in `0..len` of `position_hash(offset + i, &counts(i))`,
/// [`CHAINS`] positions per step and the tail one at a time.
#[inline]
fn fold_hashes(offset: usize, len: usize, counts: impl Fn(usize) -> [f64; NUM_SYMBOLS]) -> u64 {
    let body = len - len % CHAINS;
    let mut lanes = [0u64; CHAINS];
    for pos in (0..body).step_by(CHAINS) {
        let counts: [_; CHAINS] = std::array::from_fn(|l| counts(pos + l));
        let mut h: [u64; CHAINS] =
            std::array::from_fn(|l| mix64((offset + pos + l) as u64 ^ POSITION_SEED));
        for i in 0..NUM_SYMBOLS {
            for (h, counts) in h.iter_mut().zip(&counts) {
                *h = mix64(*h ^ counts[i].to_bits());
            }
        }
        for (lane, h) in lanes.iter_mut().zip(h) {
            *lane ^= h;
        }
    }
    let mut h = lanes.iter().fold(0, |a, &b| a ^ b);
    for pos in body..len {
        h ^= position_hash((offset + pos) as u64, &counts(pos));
    }
    h
}

/// Digest of an all-zero accumulator over `positions`: the XOR of
/// [`position_hash`] of the zero vector at every position in the range.
///
/// XOR is its own inverse, so a store that holds evidence for only some
/// positions digests bit for bit as the dense
/// [`GenomeAccumulator::digest`] would: the zero digest of the positions
/// it does not hold XOR the digests of those it does. It costs one hash
/// per position, so a store caches it rather than recomputing it per run.
pub fn zero_digest(positions: std::ops::Range<usize>) -> u64 {
    fold_hashes(positions.start, positions.len(), |_| [0.0; NUM_SYMBOLS])
}

/// A genome-length accumulator of per-position evidence vectors.
pub trait GenomeAccumulator: Send + Sized {
    /// Flat representation shipped between ranks by the MPI drivers.
    type Wire: WireSize + Clone + Send + 'static;

    /// Create an all-zero accumulator over `len` positions.
    fn new(len: usize) -> Self;

    /// Number of genome positions covered.
    fn len(&self) -> usize;

    /// True for a zero-length accumulator.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add an evidence vector at one position. Components must be
    /// non-negative.
    fn add(&mut self, pos: usize, delta: &[f64; NUM_SYMBOLS]);

    /// The accumulated (decoded) counts at a position.
    fn counts(&self, pos: usize) -> [f64; NUM_SYMBOLS];

    /// Total accumulated mass at a position.
    fn total(&self, pos: usize) -> f64 {
        self.counts(pos).iter().sum()
    }

    /// Export to the wire representation.
    fn to_wire(&self) -> Self::Wire;

    /// Fold another accumulator's wire export into this one (the MPI
    /// reduction step). Implementations may be lossy where the paper's are
    /// (CHARDISC re-quantises; CENTDISC uses the codeword-sum table).
    fn merge_wire(&mut self, wire: &Self::Wire);

    /// Heap bytes used by this accumulator (for Table II / III reporting).
    fn heap_bytes(&self) -> usize;

    /// Order-independent fingerprint of the decoded state: the XOR over
    /// every position of [`position_hash`] at global position
    /// `offset + pos`. Equal digests mean bit-identical decoded counts at
    /// every position. Because XOR commutes, digests of disjoint shards
    /// (each passed its global start as `offset`) XOR together into the
    /// digest of the full-genome accumulator — which is how the
    /// genome-split driver reports a digest comparable to the serial one.
    ///
    /// Eight positions are hashed per step in independent chains, so
    /// their mixes overlap in the pipeline; XOR commutes, so the value is
    /// that of the plain per-position fold.
    fn digest_with_offset(&self, offset: usize) -> u64 {
        fold_hashes(offset, self.len(), |pos| self.counts(pos))
    }

    /// [`GenomeAccumulator::digest_with_offset`] at offset 0.
    fn digest(&self) -> u64 {
        self.digest_with_offset(0)
    }

    /// Convenience: merge a sibling accumulator via its wire form.
    fn merge_from(&mut self, other: &Self) {
        self.merge_wire(&other.to_wire());
    }
}

/// Which accumulator layout to run (paper Table II/III row names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AccumulatorMode {
    /// Five `f32` per base — the reference layout.
    #[default]
    Norm,
    /// Nucleotide-byte discretization.
    CharDisc,
    /// Centroid discretization.
    CentDisc,
    /// Fixed-point `u64` quanta — integer adds commute, so every parallel
    /// decomposition is bit-identical to serial (the conformance domain).
    Fixed,
}

impl AccumulatorMode {
    /// Paper row name.
    pub fn name(self) -> &'static str {
        match self {
            AccumulatorMode::Norm => "NORM",
            AccumulatorMode::CharDisc => "CHARDISC",
            AccumulatorMode::CentDisc => "CENTDISC",
            AccumulatorMode::Fixed => "FIXED",
        }
    }

    /// Accumulator bytes per genome base of this layout (the Table II
    /// model; excludes genome and index storage).
    pub fn bytes_per_base(self) -> usize {
        match self {
            AccumulatorMode::Norm => NUM_SYMBOLS * std::mem::size_of::<f32>(),
            AccumulatorMode::CharDisc => std::mem::size_of::<f32>() + NUM_SYMBOLS,
            AccumulatorMode::CentDisc => std::mem::size_of::<f32>() + 1,
            AccumulatorMode::Fixed => NUM_SYMBOLS * std::mem::size_of::<u64>(),
        }
    }
}

/// Evaluate `$body` with the type alias `$A` bound to the accumulator type
/// `$mode` selects: the one place an [`AccumulatorMode`] becomes a type.
///
/// ```
/// use gnumap_core::accum::{AccumulatorMode, GenomeAccumulator};
/// let bytes = gnumap_core::with_accumulator!(AccumulatorMode::Fixed, |A| A::new(10).heap_bytes());
/// assert_eq!(bytes, 10 * AccumulatorMode::Fixed.bytes_per_base());
/// ```
#[macro_export]
macro_rules! with_accumulator {
    ($mode:expr, |$A:ident| $body:expr) => {
        match $mode {
            $crate::accum::AccumulatorMode::Norm => {
                type $A = $crate::accum::NormAccumulator;
                $body
            }
            $crate::accum::AccumulatorMode::CharDisc => {
                type $A = $crate::accum::CharDiscAccumulator;
                $body
            }
            $crate::accum::AccumulatorMode::CentDisc => {
                type $A = $crate::accum::CentDiscAccumulator;
                $body
            }
            $crate::accum::AccumulatorMode::Fixed => {
                type $A = $crate::accum::FixedAccumulator;
                $body
            }
        }
    };
}

impl std::fmt::Display for AccumulatorMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Shared conformance suite run against every accumulator type.
    /// `purity` is the minimum fraction a pure input signal must retain
    /// after decoding (CENTDISC's codebook caps peaks at 0.84 by design).
    pub fn conformance<A: GenomeAccumulator>(tolerance: f64, purity: f64) {
        // Empty accumulator.
        let a = A::new(10);
        assert_eq!(a.len(), 10);
        assert!(!a.is_empty());
        for pos in 0..10 {
            assert_eq!(a.counts(pos), [0.0; 5]);
        }

        // Single add is recovered within tolerance.
        let mut a = A::new(4);
        a.add(2, &[0.9, 0.05, 0.03, 0.02, 0.0]);
        let c = a.counts(2);
        assert!((c.iter().sum::<f64>() - 1.0).abs() <= tolerance);
        assert!(c[0] > 0.8, "dominant component survives: {c:?}");
        assert_eq!(a.counts(1), [0.0; 5], "other positions untouched");

        // Repeated adds accumulate mass.
        let mut a = A::new(2);
        for _ in 0..10 {
            a.add(0, &[1.0, 0.0, 0.0, 0.0, 0.0]);
        }
        let c = a.counts(0);
        assert!((a.total(0) - 10.0).abs() <= 10.0 * tolerance + 1e-6);
        assert!(c[0] / a.total(0) >= purity, "pure signal stays pure: {c:?}");

        // Wire merge ≈ pooled adds for identical inputs.
        let mut x = A::new(3);
        let mut y = A::new(3);
        x.add(1, &[0.5, 0.5, 0.0, 0.0, 0.0]);
        y.add(1, &[0.5, 0.5, 0.0, 0.0, 0.0]);
        let mut merged = A::new(3);
        merged.merge_wire(&x.to_wire());
        merged.merge_wire(&y.to_wire());
        assert!((merged.total(1) - 2.0).abs() <= 2.0 * tolerance + 1e-6);
        let c = merged.counts(1);
        assert!(
            (c[0] - c[1]).abs() <= 2.0 * tolerance + 1e-6,
            "symmetric mix preserved: {c:?}"
        );

        // Heap accounting is non-trivial.
        assert!(A::new(1000).heap_bytes() > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evidence for a shard starting at global position `from`: varied per
    /// global position, added one to three times.
    fn fill<A: GenomeAccumulator>(acc: &mut A, from: usize) {
        for pos in 0..acc.len() {
            let g = (from + pos) as f64;
            for _ in 0..1 + (from + pos) % 3 {
                acc.add(pos, &[0.5 + g, 0.25, g * 0.125, 0.0, 1.0 / (1.0 + g)]);
            }
        }
    }

    fn interleaved_digest_is_the_plain_fold<A: GenomeAccumulator>() {
        for len in 0..18 {
            let mut acc = A::new(len);
            fill(&mut acc, 0);
            for offset in [0, 1, 1_000_003] {
                let plain = (0..len).fold(0, |h, pos| {
                    h ^ position_hash((offset + pos) as u64, &acc.counts(pos))
                });
                assert_eq!(acc.digest_with_offset(offset), plain, "len {len}");
            }
            // Shards of a genome split, each digested at its global start,
            // XOR to the whole accumulator's digest.
            for cut in 0..=len {
                let (mut left, mut right) = (A::new(cut), A::new(len - cut));
                fill(&mut left, 0);
                fill(&mut right, cut);
                assert_eq!(
                    left.digest_with_offset(0) ^ right.digest_with_offset(cut),
                    acc.digest(),
                    "len {len}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn digest_matches_per_position_xor_for_every_layout() {
        interleaved_digest_is_the_plain_fold::<NormAccumulator>();
        interleaved_digest_is_the_plain_fold::<CharDiscAccumulator>();
        interleaved_digest_is_the_plain_fold::<CentDiscAccumulator>();
        interleaved_digest_is_the_plain_fold::<FixedAccumulator>();
    }

    #[test]
    fn zero_digest_is_the_digest_of_an_empty_accumulator() {
        for len in (0..=17).chain([1023, 1024, 1025]) {
            assert_eq!(
                zero_digest(0..len),
                FixedAccumulator::new(len).digest(),
                "len {len}"
            );
            assert_eq!(
                zero_digest(0..len),
                NormAccumulator::new(len).digest(),
                "len {len}"
            );
            for start in [1, 1023, 1_000_003] {
                assert_eq!(
                    zero_digest(start..start + len),
                    NormAccumulator::new(len).digest_with_offset(start),
                    "len {len}, start {start}"
                );
            }
        }
    }

    #[test]
    fn mode_names_and_sizes() {
        assert_eq!(AccumulatorMode::Norm.name(), "NORM");
        assert_eq!(AccumulatorMode::Norm.bytes_per_base(), 20);
        assert_eq!(AccumulatorMode::CharDisc.bytes_per_base(), 9);
        assert_eq!(AccumulatorMode::CentDisc.bytes_per_base(), 5);
        assert_eq!(AccumulatorMode::Fixed.bytes_per_base(), 40);
        assert_eq!(AccumulatorMode::Fixed.name(), "FIXED");
        assert_eq!(AccumulatorMode::CentDisc.to_string(), "CENTDISC");
    }
}
