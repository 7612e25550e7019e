//! The genomic k-mer seed index (paper Section V, step 1).
//!
//! GNUMAP's first stage indexes every k-mer of the reference by the genome
//! positions where it occurs; read k-mers are then looked up to find
//! candidate mapping regions. Two practical details from real mappers are
//! modelled:
//!
//! * **Repeat masking by occurrence cutoff** — k-mers occurring more than
//!   `max_occurrences` times are dropped from the index (their hit lists
//!   would be enormous and nearly uninformative). This mirrors GNUMAP's
//!   handling of highly repetitive seeds and bounds worst-case query cost.
//! * **Sampling stride** — for memory accounting we optionally index only
//!   every `stride`-th genome position.
//!
//! The index is flat (compressed sparse rows), not hashed: one `positions`
//! array holds every retained hit, grouped by k-mer and ascending within a
//! k-mer, behind a directory addressed by a k-mer's leading `p` bases. The
//! directory has `4^p + 1` entries with `p = min(k, ⌈log₄ n⌉)` for `n`
//! sampled positions, so it grows with the genome rather than with `4^k`.
//!
//! * **`p = k`** (1 Mbp at k = 10): a bucket is one k-mer, so the directory
//!   points straight into `positions` and a lookup is one range check, two
//!   adjacent directory reads and the slice. Absent and masked k-mers get
//!   empty ranges. This costs 4 B per indexed position plus `4·(4^k + 1)` B.
//! * **`k > p`**: a bucket holds several k-mers. The directory brackets the
//!   bucket's run of `keys` (the distinct retained k-mers, ascending); a
//!   lookup binary-searches it, and `starts` maps the found key to its
//!   range of `positions`.
//!
//! Building is a counting sort over the prefixes, with no hashing and no
//! per-k-mer allocation; when `p = k` the positions are scattered straight
//! into place, so the build allocates nothing beyond the index itself.
//!
//! The index is position-addressed (not canonicalised): strand handling is
//! done by the caller, which queries with both the read and its reverse
//! complement, as GNUMAP does.

use crate::error::GenomeError;
use crate::kmer::KmerIter;
use crate::seq::DnaSeq;

/// Configuration for building a [`KmerIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Seed length; the paper's default is 10.
    pub k: usize,
    /// k-mers with more than this many genomic occurrences are dropped.
    pub max_occurrences: usize,
    /// Index every `stride`-th position (1 = every position).
    pub stride: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            k: 10,
            max_occurrences: 1024,
            stride: 1,
        }
    }
}

impl IndexConfig {
    /// Check that an index over a genome of `genome_len` bases can be built
    /// with this configuration: `k` in 1..=32, a nonzero stride and
    /// occurrence cutoff, and positions that fit in `u32`.
    pub fn validate(&self, genome_len: usize) -> Result<(), GenomeError> {
        if self.k == 0 || self.k > 32 {
            return Err(GenomeError::BadKmerLength(self.k));
        }
        if self.stride == 0 {
            return Err(GenomeError::ZeroIndexStride);
        }
        if self.max_occurrences == 0 {
            return Err(GenomeError::ZeroMaxOccurrences);
        }
        if genome_len > u32::MAX as usize {
            return Err(GenomeError::GenomeTooLong(genome_len));
        }
        Ok(())
    }
}

/// Flat index from packed k-mer to the ascending genome positions where it
/// starts.
#[derive(Debug, Clone)]
pub struct KmerIndex {
    config: IndexConfig,
    genome_len: usize,
    /// Bits to shift a packed k-mer right to get its directory bucket
    /// (`2 * (k - p)`).
    shift: u32,
    /// Bucket `b`'s range: `dir[b]..dir[b + 1]`. At `p = k` it is the
    /// k-mer's range of `positions`; when `k > p` it is the bucket's range
    /// of `keys`.
    dir: Vec<u32>,
    /// Distinct retained k-mers, ascending (empty at `p = k`).
    keys: Vec<u64>,
    /// `starts[i]..starts[i + 1]` is the range of `positions` of `keys[i]`
    /// (empty at `p = k`).
    starts: Vec<u32>,
    /// Every retained hit, grouped by k-mer, ascending within a k-mer.
    positions: Vec<u32>,
    /// Number of distinct k-mers retained.
    distinct_kmers: usize,
    /// Number of distinct k-mers dropped by the occurrence cutoff.
    masked_kmers: usize,
}

impl KmerIndex {
    /// Build the index over a reference sequence.
    pub fn build(genome: &DnaSeq, config: IndexConfig) -> Result<KmerIndex, GenomeError> {
        config.validate(genome.len())?;
        let k = config.k;
        let stride = config.stride;
        let sampled = |&(pos, _): &(usize, _)| stride == 1 || pos % stride == 0;
        // Sampled window starts, counting windows with an N: an upper bound
        // on the positions indexed, which sizes the directory.
        let n = match genome.len().checked_sub(k) {
            Some(last) => last / stride + 1,
            None => 0,
        };
        let mut p = 0;
        while p < k && 4usize.pow(p as u32) < n {
            p += 1;
        }
        let shift = 2 * (k - p) as u32;
        let buckets = 1usize << (2 * p);
        let bucket = |kmer: u64| kmer.checked_shr(shift).unwrap_or(0) as usize;

        // Counting sort by prefix: count, prefix-sum, scatter. The sum
        // leaves `dir[b + 1]` at bucket b's first slot and the scatter
        // advances it to the bucket's end, so afterwards `dir[b]..dir[b + 1]`
        // is bucket b's range.
        let mut dir = vec![0u32; buckets + 1];
        for (_, kmer) in KmerIter::new(genome, k)?.filter(sampled) {
            dir[bucket(kmer.packed()) + 1] += 1;
        }
        let mut total = 0;
        for slot in &mut dir[1..] {
            let count = *slot;
            *slot = total;
            total += count;
        }
        let total = total as usize;
        let max_occurrences = config.max_occurrences;

        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let (mut distinct_kmers, mut masked_kmers) = (0, 0);
        let mut positions = if shift == 0 {
            // p = k, so a bucket is one k-mer: scatter the positions straight
            // into place (ascending within a bucket), and `dir` is already
            // every k-mer's range. The occurrence cutoff then drops the
            // masked k-mers' positions in place, moving each run of retained
            // k-mers between two masked ones in one piece. The build holds
            // nothing beyond the index but the masked k-mers' positions: a
            // multi-MiB transient would leave a hole in the allocator's heap
            // and make the peak resident set depend on where later
            // allocations land.
            let mut positions = vec![0u32; total];
            for (pos, kmer) in KmerIter::new(genome, k)?.filter(sampled) {
                let slot = &mut dir[kmer.packed() as usize + 1];
                positions[*slot as usize] = pos as u32;
                *slot += 1;
            }
            // `run` is where the current run of retained positions starts;
            // `dropped` counts the positions masked before it.
            let (mut lo, mut run, mut dropped) = (0, 0, 0);
            for slot in &mut dir[1..] {
                let hi = *slot as usize;
                let n = hi - lo;
                if n > max_occurrences {
                    positions.copy_within(run..lo, run - dropped);
                    masked_kmers += 1;
                    dropped += n;
                    run = hi;
                } else {
                    distinct_kmers += usize::from(n > 0);
                }
                *slot = (hi - dropped) as u32;
                lo = hi;
            }
            if dropped > 0 {
                positions.copy_within(run..total, run - dropped);
                positions.truncate(total - dropped);
            }
            positions
        } else {
            // k > p: scatter (k-mer, position) entries, sort each bucket by
            // k-mer (positions break ties, so the order is the stable one),
            // then compact runs of equal k-mers into keys, applying the
            // occurrence cutoff.
            let mut entries = vec![(0u64, 0u32); total];
            for (pos, kmer) in KmerIter::new(genome, k)?.filter(sampled) {
                let slot = &mut dir[bucket(kmer.packed()) + 1];
                entries[*slot as usize] = (kmer.packed(), pos as u32);
                *slot += 1;
            }
            let mut positions = Vec::with_capacity(total);
            starts.push(0);
            let mut lo = 0;
            for slot in &mut dir[1..] {
                let hi = *slot as usize;
                let bucket_entries = &mut entries[lo..hi];
                bucket_entries.sort_unstable();
                for run in bucket_entries.chunk_by(|a, b| a.0 == b.0) {
                    if run.len() > max_occurrences {
                        masked_kmers += 1;
                        continue;
                    }
                    keys.push(run[0].0);
                    positions.extend(run.iter().map(|&(_, pos)| pos));
                    starts.push(positions.len() as u32);
                }
                *slot = keys.len() as u32;
                lo = hi;
            }
            distinct_kmers = keys.len();
            keys.shrink_to_fit();
            starts.shrink_to_fit();
            positions
        };
        positions.shrink_to_fit();
        Ok(KmerIndex {
            config,
            genome_len: genome.len(),
            shift,
            dir,
            keys,
            starts,
            positions,
            distinct_kmers,
            masked_kmers,
        })
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> IndexConfig {
        self.config
    }

    /// Length of the indexed genome.
    pub fn genome_len(&self) -> usize {
        self.genome_len
    }

    /// Genome start positions of a packed k-mer (empty for unknown or
    /// masked k-mers). Positions are in increasing order.
    #[inline]
    pub fn lookup(&self, packed_kmer: u64) -> &[u32] {
        // The k-mer's bucket brackets its range: of `positions` at p = k,
        // of the bucket's `keys` otherwise. A word past the last bucket
        // misses.
        let b = packed_kmer.checked_shr(self.shift).unwrap_or(0) as usize;
        let Some(&[mut lo, mut hi, ..]) = self.dir.get(b..) else {
            return &[];
        };
        if self.shift > 0 {
            let bucket = &self.keys[lo as usize..hi as usize];
            let Ok(i) = bucket.binary_search(&packed_kmer) else {
                return &[];
            };
            let key = lo as usize + i;
            (lo, hi) = (self.starts[key], self.starts[key + 1]);
        }
        &self.positions[lo as usize..hi as usize]
    }

    /// Number of distinct k-mers retained.
    pub fn distinct_kmers(&self) -> usize {
        self.distinct_kmers
    }

    /// Number of distinct k-mers dropped by the repeat cutoff.
    pub fn masked_kmers(&self) -> usize {
        self.masked_kmers
    }

    /// Total number of stored positions.
    pub fn total_positions(&self) -> usize {
        self.positions.len()
    }

    /// Heap footprint in bytes: the capacities of the directory, key,
    /// offset and position arrays (at `p = k`, `4·(4^k + 1)` B of directory
    /// plus 4 B per position). Feeds the Table II memory model.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.dir.capacity() + self.starts.capacity() + self.positions.capacity())
            * size_of::<u32>()
            + self.keys.capacity() * size_of::<u64>()
    }

    /// For each k-mer of `query`, look up its genomic hit list and emit
    /// `(query_offset, genome_position)` pairs. The caller converts these
    /// into candidate alignment windows by diagonal (genome_position -
    /// query_offset).
    pub fn seed_hits<'a>(&'a self, query: &'a DnaSeq) -> impl Iterator<Item = (usize, u32)> + 'a {
        KmerIter::new(query, self.config.k)
            .into_iter()
            .flatten()
            .flat_map(move |(qoff, kmer)| {
                self.lookup(kmer.packed())
                    .iter()
                    .map(move |&gpos| (qoff, gpos))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Base;
    use crate::kmer::Kmer;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn packed(s: &str) -> u64 {
        let bases: Vec<Base> = s.bytes().map(|c| Base::from_ascii(c).unwrap()).collect();
        Kmer::from_bases(&bases).unwrap().packed()
    }

    fn cfg(k: usize) -> IndexConfig {
        IndexConfig {
            k,
            ..IndexConfig::default()
        }
    }

    #[test]
    fn positions_are_recorded_in_order() {
        let idx = KmerIndex::build(&seq("ACGACGACG"), cfg(3)).unwrap();
        assert_eq!(idx.lookup(packed("ACG")), &[0, 3, 6]);
        assert_eq!(idx.lookup(packed("CGA")), &[1, 4]);
        assert_eq!(idx.lookup(packed("TTT")), &[] as &[u32]);
    }

    #[test]
    fn repeat_cutoff_masks_hot_kmers() {
        let idx = KmerIndex::build(
            &seq("AAAAAAAAAA"),
            IndexConfig {
                k: 3,
                max_occurrences: 4,
                stride: 1,
            },
        )
        .unwrap();
        assert_eq!(idx.lookup(packed("AAA")), &[] as &[u32]);
        assert_eq!(idx.masked_kmers(), 1);
        assert_eq!(idx.distinct_kmers(), 0);
    }

    #[test]
    fn stride_subsamples_positions() {
        let idx = KmerIndex::build(
            &seq("ACGACGACG"),
            IndexConfig {
                k: 3,
                max_occurrences: 100,
                stride: 3,
            },
        )
        .unwrap();
        assert_eq!(idx.lookup(packed("ACG")), &[0, 3, 6]);
        assert_eq!(idx.lookup(packed("CGA")), &[] as &[u32]);
    }

    #[test]
    fn seed_hits_pair_offsets_with_positions() {
        let idx = KmerIndex::build(&seq("ACGTACGT"), cfg(4)).unwrap();
        let hits: Vec<(usize, u32)> = idx.seed_hits(&seq("TACG")).collect();
        assert_eq!(hits, vec![(0, 3)]);
        let hits: Vec<(usize, u32)> = idx.seed_hits(&seq("ACGTA")).collect();
        // ACGT at genome 0 and 4 (query offset 0), CGTA at genome 1 (offset 1).
        assert_eq!(hits, vec![(0, 0), (0, 4), (1, 1)]);
    }

    #[test]
    fn counting_statistics() {
        let idx = KmerIndex::build(&seq("ACGTACGT"), cfg(4)).unwrap();
        assert_eq!(idx.distinct_kmers(), 4); // ACGT, CGTA, GTAC, TACG
        assert_eq!(idx.total_positions(), 5);
        assert!(idx.heap_bytes() > 0);
        assert_eq!(idx.genome_len(), 8);
    }

    #[test]
    fn ns_never_enter_the_index() {
        let idx = KmerIndex::build(&seq("ACNGT"), cfg(2)).unwrap();
        assert_eq!(idx.lookup(packed("AC")), &[0]);
        assert_eq!(idx.lookup(packed("GT")), &[3]);
        assert_eq!(idx.distinct_kmers(), 2);
    }

    #[test]
    fn directory_is_sized_to_the_genome() {
        // 15 kbp has under 4^7 windows, so p = 7 whatever k is.
        let genome: DnaSeq = (0..15_000)
            .map(|i: usize| Some(Base::from_index((i.wrapping_mul(2_654_435_761) >> 7) & 3)))
            .collect();
        for k in [10, 16, 32] {
            let idx = KmerIndex::build(&genome, cfg(k)).unwrap();
            assert!(idx.dir.len() <= 4usize.pow(7) + 1, "k = {k}");
        }
        // Short genomes and small k address the directory by the whole k-mer.
        let idx = KmerIndex::build(&genome, cfg(4)).unwrap();
        assert_eq!(idx.dir.len(), 4usize.pow(4) + 1);
        let idx = KmerIndex::build(&seq("ACG"), cfg(5)).unwrap();
        assert_eq!(idx.dir.len(), 2);
        assert_eq!(idx.lookup(packed("ACGTA")), &[] as &[u32]);
    }

    #[test]
    fn direct_layout_is_a_directory_and_the_positions() {
        // 15 kbp has over 4^6 windows, so p = k for k up to 6: the index is
        // the 4^k + 1 directory and the positions, nothing else.
        let genome: DnaSeq = (0..15_000)
            .map(|i: usize| Some(Base::from_index((i.wrapping_mul(2_654_435_761) >> 7) & 3)))
            .collect();
        for (k, max_occurrences) in [(4, 1024), (6, 1024), (6, 3), (5, 1)] {
            let config = IndexConfig {
                k,
                max_occurrences,
                stride: 1,
            };
            let idx = KmerIndex::build(&genome, config).unwrap();
            let words = 1u64 << (2 * k);
            assert_eq!(
                idx.heap_bytes(),
                4 * (words as usize + 1) + 4 * idx.total_positions(),
                "k = {k}, cutoff {max_occurrences}"
            );
            assert_eq!(idx.lookup(words), &[] as &[u32]);
            assert_eq!(idx.lookup(u64::MAX), &[] as &[u32]);
            let hits: usize = (0..words).map(|w| idx.lookup(w).len()).sum();
            assert_eq!(hits, idx.total_positions());
        }
    }

    #[test]
    fn out_of_range_words_miss() {
        let idx = KmerIndex::build(&seq("ACGTACGT"), cfg(4)).unwrap();
        assert_eq!(idx.lookup(u64::MAX), &[] as &[u32]);
        assert_eq!(idx.lookup(1 << 8), &[] as &[u32]);
    }

    #[test]
    fn bad_configs_are_typed_errors() {
        let g = seq("ACGTACGT");
        let with = |f: fn(&mut IndexConfig)| {
            let mut c = IndexConfig::default();
            f(&mut c);
            KmerIndex::build(&g, c).unwrap_err()
        };
        assert!(matches!(
            with(|c| c.stride = 0),
            GenomeError::ZeroIndexStride
        ));
        assert!(matches!(
            with(|c| c.max_occurrences = 0),
            GenomeError::ZeroMaxOccurrences
        ));
        assert!(matches!(with(|c| c.k = 0), GenomeError::BadKmerLength(0)));
        assert!(matches!(with(|c| c.k = 33), GenomeError::BadKmerLength(33)));
        assert!(matches!(
            IndexConfig::default().validate(u32::MAX as usize + 1),
            Err(GenomeError::GenomeTooLong(_))
        ));
        assert!(IndexConfig::default().validate(u32::MAX as usize).is_ok());
    }
}
