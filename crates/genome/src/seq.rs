//! Owned, byte-per-base DNA sequences.
//!
//! `DnaSeq` is the ergonomic working representation: one `Option<Base>` per
//! position (`None` = `N`). The memory-lean 2-bit representation used for
//! whole genomes lives in [`crate::packed`]; the two convert losslessly in
//! both directions (up to `N` handling, which `PackedSeq` tracks in a
//! side mask).

use crate::alphabet::Base;
use crate::error::GenomeError;
use std::fmt;

/// An owned DNA sequence with explicit `N` positions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnaSeq {
    bases: Vec<Option<Base>>,
}

impl DnaSeq {
    /// Empty sequence.
    pub fn new() -> Self {
        DnaSeq { bases: Vec::new() }
    }

    /// Pre-allocated empty sequence.
    pub fn with_capacity(cap: usize) -> Self {
        DnaSeq {
            bases: Vec::with_capacity(cap),
        }
    }

    /// Build from concrete bases (no `N`s).
    pub fn from_bases(bases: impl IntoIterator<Item = Base>) -> Self {
        DnaSeq {
            bases: bases.into_iter().map(Some).collect(),
        }
    }

    /// Parse from ASCII, accepting `ACGTNacgtn`.
    pub fn from_ascii(text: &[u8]) -> Result<Self, GenomeError> {
        let mut bases = Vec::with_capacity(text.len());
        for &c in text {
            match Base::try_from_ascii(c) {
                Ok(b) => bases.push(b),
                Err(found) => {
                    return Err(GenomeError::InvalidCharacter {
                        line: 0,
                        found: found as char,
                    })
                }
            }
        }
        Ok(DnaSeq { bases })
    }

    /// Number of positions (including `N`s).
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// True when the sequence has no positions.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The base at `pos`, `None` when the position is an `N`.
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, pos: usize) -> Option<Base> {
        self.bases[pos]
    }

    /// Checked access; `None` when out of bounds, `Some(None)` for `N`.
    pub fn try_get(&self, pos: usize) -> Option<Option<Base>> {
        self.bases.get(pos).copied()
    }

    /// Overwrite a position.
    pub fn set(&mut self, pos: usize, base: Option<Base>) {
        self.bases[pos] = base;
    }

    /// Append one position.
    pub fn push(&mut self, base: Option<Base>) {
        self.bases.push(base);
    }

    /// Iterate positions in order.
    pub fn iter(&self) -> impl Iterator<Item = Option<Base>> + '_ {
        self.bases.iter().copied()
    }

    /// Borrow the underlying slice.
    pub fn as_slice(&self) -> &[Option<Base>] {
        &self.bases
    }

    /// Copy out the subsequence `[start, end)` (clamped to the sequence
    /// length, so a window hanging off the end simply comes back shorter).
    pub fn window(&self, start: usize, end: usize) -> DnaSeq {
        let end = end.min(self.bases.len());
        let start = start.min(end);
        DnaSeq {
            bases: self.bases[start..end].to_vec(),
        }
    }

    /// Reverse complement (N stays N).
    pub fn reverse_complement(&self) -> DnaSeq {
        let mut rc = DnaSeq::with_capacity(self.len());
        self.reverse_complement_into(&mut rc);
        rc
    }

    /// Overwrite `out` with the reverse complement, reusing its buffer.
    pub fn reverse_complement_into(&self, out: &mut DnaSeq) {
        out.bases.clear();
        out.bases
            .extend(self.bases.iter().rev().map(|b| b.map(Base::complement)));
    }

    /// Count of `N` positions.
    pub fn n_count(&self) -> usize {
        self.bases.iter().filter(|b| b.is_none()).count()
    }

    /// Fraction of G/C among concrete bases; 0 when there are none.
    pub fn gc_fraction(&self) -> f64 {
        let mut gc = 0usize;
        let mut total = 0usize;
        for b in self.bases.iter().flatten() {
            total += 1;
            if matches!(b, Base::G | Base::C) {
                gc += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            gc as f64 / total as f64
        }
    }

    /// Render to ASCII (`N` for unknown positions).
    pub fn to_ascii(&self) -> Vec<u8> {
        self.bases
            .iter()
            .map(|b| b.map_or(b'N', Base::to_ascii))
            .collect()
    }

    /// Hamming distance between equal-length sequences, counting any
    /// comparison involving an `N` as a mismatch. Panics on length mismatch.
    pub fn hamming(&self, other: &DnaSeq) -> usize {
        assert_eq!(self.len(), other.len(), "hamming requires equal lengths");
        self.bases
            .iter()
            .zip(&other.bases)
            .filter(|(a, b)| match (a, b) {
                (Some(x), Some(y)) => x != y,
                _ => true,
            })
            .count()
    }
}

impl fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bases {
            write!(f, "{}", b.map_or('N', Base::to_char))?;
        }
        Ok(())
    }
}

impl FromIterator<Option<Base>> for DnaSeq {
    fn from_iter<T: IntoIterator<Item = Option<Base>>>(iter: T) -> Self {
        DnaSeq {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Option<Base>> for DnaSeq {
    fn extend<T: IntoIterator<Item = Option<Base>>>(&mut self, iter: T) {
        self.bases.extend(iter);
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = GenomeError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_round_trip() {
        let s = seq("ACGTNacgtn");
        assert_eq!(s.to_string(), "ACGTNACGTN");
        assert_eq!(s.len(), 10);
        assert_eq!(s.n_count(), 2);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(DnaSeq::from_ascii(b"ACGU").is_err());
    }

    #[test]
    fn reverse_complement_round_trip() {
        let s = seq("AACGTN");
        assert_eq!(s.reverse_complement().to_string(), "NACGTT");
        assert_eq!(s.reverse_complement().reverse_complement(), s);
        let mut reused = seq("GGGGGGGGGG");
        s.reverse_complement_into(&mut reused);
        assert_eq!(reused, s.reverse_complement());
    }

    #[test]
    fn window_clamps() {
        let s = seq("ACGTACGT");
        assert_eq!(s.window(2, 5).to_string(), "GTA");
        assert_eq!(s.window(6, 100).to_string(), "GT");
        assert_eq!(s.window(100, 200).len(), 0);
    }

    #[test]
    fn gc_fraction_ignores_n() {
        let s = seq("GCGCNN");
        assert!((s.gc_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(seq("NNNN").gc_fraction(), 0.0);
        assert!((seq("ACGT").gc_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hamming_counts_n_as_mismatch() {
        assert_eq!(seq("ACGT").hamming(&seq("ACGT")), 0);
        assert_eq!(seq("ACGT").hamming(&seq("ACGA")), 1);
        assert_eq!(seq("ACGN").hamming(&seq("ACGT")), 1);
        assert_eq!(seq("NNNN").hamming(&seq("NNNN")), 4);
    }

    #[test]
    #[should_panic]
    fn hamming_panics_on_length_mismatch() {
        let _ = seq("ACG").hamming(&seq("ACGT"));
    }

    #[test]
    fn set_and_get() {
        let mut s = seq("AAAA");
        s.set(2, Some(Base::G));
        s.set(3, None);
        assert_eq!(s.to_string(), "AAGN");
        assert_eq!(s.get(2), Some(Base::G));
        assert_eq!(s.try_get(10), None);
    }
}
