//! 2-bit packed k-mers and rolling k-mer extraction.
//!
//! GNUMAP seeds candidate mapping locations by indexing every k-mer of the
//! genome (paper default k = 10). A k-mer of length ≤ 32 packs into a `u64`
//! (two bits per base, most-significant = first base), so packed order is
//! lexicographic order and the leading bases are the high bits: the seed
//! index addresses its directory with those high bits and binary-searches
//! the packed words.

use crate::alphabet::Base;
use crate::error::GenomeError;
use crate::seq::DnaSeq;

/// A fixed-length DNA word packed into a `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Pack a slice of concrete bases. Errors when `bases` is empty or
    /// longer than 32.
    pub fn from_bases(bases: &[Base]) -> Result<Kmer, GenomeError> {
        if bases.is_empty() || bases.len() > 32 {
            return Err(GenomeError::BadKmerLength(bases.len()));
        }
        let mut packed = 0u64;
        for &b in bases {
            packed = (packed << 2) | b.code() as u64;
        }
        Ok(Kmer {
            packed,
            k: bases.len() as u8,
        })
    }

    /// The packed word (also the seed index's lookup key).
    #[inline]
    pub fn packed(self) -> u64 {
        self.packed
    }

    /// Word length.
    #[inline]
    pub fn k(self) -> usize {
        self.k as usize
    }

    /// Unpack to bases, first base first.
    pub fn bases(self) -> Vec<Base> {
        (0..self.k)
            .rev()
            .map(|i| Base::from_code((self.packed >> (2 * i)) as u8))
            .collect()
    }

    /// Reverse complement of this k-mer.
    pub fn reverse_complement(self) -> Kmer {
        let mut packed = 0u64;
        for i in 0..self.k {
            let code = (self.packed >> (2 * i)) & 0b11;
            packed = (packed << 2) | (code ^ 0b11); // XOR 0b11 complements a 2-bit base code.
        }
        Kmer { packed, k: self.k }
    }

    /// The lexicographically smaller of this k-mer and its reverse
    /// complement ("canonical" form).
    pub fn canonical(self) -> Kmer {
        let rc = self.reverse_complement();
        if rc.packed < self.packed {
            rc
        } else {
            self
        }
    }
}

impl std::fmt::Display for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.bases() {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

/// Rolling iterator over the k-mers of a sequence, yielding
/// `(start_position, kmer)` and skipping any window containing an `N`.
pub struct KmerIter<'a> {
    seq: &'a DnaSeq,
    k: usize,
    pos: usize,
    /// Current rolling word; valid when `valid == k`.
    word: u64,
    /// Mask keeping the low 2k bits.
    mask: u64,
    /// How many trailing positions of the window are concrete bases.
    valid: usize,
}

impl<'a> KmerIter<'a> {
    /// Create a rolling iterator. Errors when `k` is 0 or above 32.
    pub fn new(seq: &'a DnaSeq, k: usize) -> Result<Self, GenomeError> {
        if k == 0 || k > 32 {
            return Err(GenomeError::BadKmerLength(k));
        }
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        Ok(KmerIter {
            seq,
            k,
            pos: 0,
            word: 0,
            mask,
            valid: 0,
        })
    }
}

impl Iterator for KmerIter<'_> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.seq.len() {
            let pos = self.pos;
            self.pos += 1;
            match self.seq.get(pos) {
                Some(b) => {
                    self.word = ((self.word << 2) | b.code() as u64) & self.mask;
                    self.valid += 1;
                    if self.valid >= self.k {
                        return Some((
                            pos + 1 - self.k,
                            Kmer {
                                packed: self.word,
                                k: self.k as u8,
                            },
                        ));
                    }
                }
                None => {
                    // An N poisons every window containing it.
                    self.valid = 0;
                    self.word = 0;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn kmer(s: &str) -> Kmer {
        let bases: Vec<Base> = s.bytes().map(|c| Base::from_ascii(c).unwrap()).collect();
        Kmer::from_bases(&bases).unwrap()
    }

    #[test]
    fn pack_unpack_round_trip() {
        for s in [
            "A",
            "ACGT",
            "TTTTTTTTTT",
            "ACGTACGTACGTACGTACGTACGTACGTACGT",
        ] {
            assert_eq!(kmer(s).to_string(), s);
        }
    }

    #[test]
    fn bad_lengths_rejected() {
        assert!(Kmer::from_bases(&[]).is_err());
        assert!(Kmer::from_bases(&[Base::A; 33]).is_err());
        assert!(KmerIter::new(&seq("ACGT"), 0).is_err());
        assert!(KmerIter::new(&seq("ACGT"), 33).is_err());
    }

    #[test]
    fn reverse_complement() {
        assert_eq!(kmer("ACGT").reverse_complement(), kmer("ACGT"));
        assert_eq!(kmer("AAAC").reverse_complement(), kmer("GTTT"));
        assert_eq!(
            kmer("AAAC").reverse_complement().reverse_complement(),
            kmer("AAAC")
        );
    }

    #[test]
    fn canonical_picks_smaller() {
        let a = kmer("TTTT");
        assert_eq!(a.canonical(), kmer("AAAA"));
        assert_eq!(kmer("AAAA").canonical(), kmer("AAAA"));
    }

    #[test]
    fn rolling_iteration_matches_naive() {
        let s = seq("ACGTACGGT");
        let k = 3;
        let rolled: Vec<(usize, String)> = KmerIter::new(&s, k)
            .unwrap()
            .map(|(p, km)| (p, km.to_string()))
            .collect();
        let naive: Vec<(usize, String)> = (0..=s.len() - k)
            .map(|p| (p, s.window(p, p + k).to_string()))
            .collect();
        assert_eq!(rolled, naive);
    }

    #[test]
    fn n_windows_are_skipped() {
        let s = seq("ACNGTA");
        let got: Vec<usize> = KmerIter::new(&s, 2).unwrap().map(|(p, _)| p).collect();
        // Windows [0,2)="AC", [3,5)="GT", [4,6)="TA"; anything touching N skipped.
        assert_eq!(got, vec![0, 3, 4]);
    }

    #[test]
    fn sequence_shorter_than_k_yields_nothing() {
        assert_eq!(KmerIter::new(&seq("AC"), 5).unwrap().count(), 0);
    }

    #[test]
    fn k32_masking_works() {
        let s = seq("ACGTACGTACGTACGTACGTACGTACGTACGTA");
        let kmers: Vec<_> = KmerIter::new(&s, 32).unwrap().collect();
        assert_eq!(kmers.len(), 2);
        assert_eq!(kmers[0].1.to_string(), "ACGTACGTACGTACGTACGTACGTACGTACGT");
        assert_eq!(kmers[1].1.to_string(), "CGTACGTACGTACGTACGTACGTACGTACGTA");
    }
}
