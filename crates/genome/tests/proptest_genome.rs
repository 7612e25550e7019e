//! Property tests for sequence storage, k-mer machinery and I/O.

use genome::alphabet::Base;
use genome::fasta::{read_fasta, write_fasta, FastaRecord};
use genome::fastq::{read_fastq, write_fastq};
use genome::index::{IndexConfig, KmerIndex};
use genome::kmer::KmerIter;
use genome::packed::PackedSeq;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use proptest::prelude::*;
use std::collections::HashMap;

/// Random DNA sequence with occasional Ns.
fn dna(max_len: usize) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..5, 0..max_len).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| (c < 4).then(|| Base::from_index(c as usize)))
            .collect()
    })
}

/// Random DNA with no Ns (for k-mer tests).
fn dna_concrete(min_len: usize, max_len: usize) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec(0u8..4, min_len..max_len).prop_map(|codes| {
        DnaSeq::from_bases(codes.into_iter().map(|c| Base::from_index(c as usize)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_round_trip(seq in dna(300)) {
        let packed = PackedSeq::from_dna(&seq);
        prop_assert_eq!(packed.to_dna(), seq);
    }

    #[test]
    fn reverse_complement_involution(seq in dna(200)) {
        prop_assert_eq!(seq.reverse_complement().reverse_complement(), seq);
    }

    #[test]
    fn ascii_round_trip(seq in dna(200)) {
        let text = seq.to_ascii();
        prop_assert_eq!(DnaSeq::from_ascii(&text).unwrap(), seq);
    }

    #[test]
    fn fasta_round_trip(seq in dna(500), width in 1usize..120) {
        let records = vec![FastaRecord { id: "x".into(), seq }];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &records, width).unwrap();
        let back = read_fasta(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn fastq_round_trip(
        seq in dna_concrete(1, 150),
        q in 0u8..90,
    ) {
        let read = SequencedRead::with_uniform_quality("r/1", seq, q);
        let mut buf = Vec::new();
        write_fastq(&mut buf, std::slice::from_ref(&read)).unwrap();
        let back = read_fastq(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, vec![read]);
    }

    #[test]
    fn rolling_kmers_match_naive_windows(seq in dna(150), k in 1usize..12) {
        let rolled: Vec<(usize, u64)> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(p, km)| (p, km.packed()))
            .collect();
        // Naive: every window of k concrete bases.
        let mut naive = Vec::new();
        if seq.len() >= k {
            'outer: for p in 0..=seq.len() - k {
                let mut packed = 0u64;
                for i in 0..k {
                    match seq.get(p + i) {
                        Some(b) => packed = (packed << 2) | b.code() as u64,
                        None => continue 'outer,
                    }
                }
                naive.push((p, packed));
            }
        }
        prop_assert_eq!(rolled, naive);
    }

    #[test]
    fn index_lookup_positions_are_real_occurrences(
        seq in dna_concrete(20, 200),
        k in 4usize..9,
    ) {
        let index = KmerIndex::build(
            &seq,
            IndexConfig { k, max_occurrences: 1_000, stride: 1 },
        ).unwrap();
        // Every stored position must reproduce its k-mer.
        for (pos, kmer) in KmerIter::new(&seq, k).unwrap() {
            let hits = index.lookup(kmer.packed());
            prop_assert!(hits.contains(&(pos as u32)),
                "position {pos} missing from its own k-mer's hit list");
        }
        // And lookups never point at non-occurrences.
        for (_, kmer) in KmerIter::new(&seq, k).unwrap() {
            for &hit in index.lookup(kmer.packed()) {
                let window = seq.window(hit as usize, hit as usize + k);
                let mut packed = 0u64;
                for b in window.iter() {
                    packed = (packed << 2) | b.unwrap().code() as u64;
                }
                prop_assert_eq!(packed, kmer.packed());
            }
        }
    }

    #[test]
    fn hamming_triangle_inequality(
        a in dna_concrete(10, 40),
    ) {
        // Mutate two copies independently and check d(a,b) <= d(a,c) + d(c,b).
        let b: DnaSeq = a.iter().map(|x| x.map(Base::transition)).collect();
        let c: DnaSeq = a
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { x } else { x.map(Base::transition) })
            .collect();
        let d_ab = a.hamming(&b);
        let d_ac = a.hamming(&c);
        let d_cb = c.hamming(&b);
        prop_assert!(d_ab <= d_ac + d_cb);
    }
}

/// The straightforward seed index, as an oracle for the flat one: a hash
/// map with one `Vec` of positions per k-mer, filled position by position,
/// then the occurrence cutoff.
struct HashIndex {
    map: HashMap<u64, Vec<u32>>,
    masked: usize,
}

impl HashIndex {
    fn build(genome: &DnaSeq, config: IndexConfig) -> HashIndex {
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for (pos, kmer) in KmerIter::new(genome, config.k).unwrap() {
            if pos % config.stride == 0 {
                map.entry(kmer.packed()).or_default().push(pos as u32);
            }
        }
        let before = map.len();
        map.retain(|_, v| v.len() <= config.max_occurrences);
        let masked = before - map.len();
        HashIndex { map, masked }
    }

    fn lookup(&self, kmer: u64) -> &[u32] {
        self.map.get(&kmer).map_or(&[], Vec::as_slice)
    }

    fn seed_hits(&self, query: &DnaSeq, k: usize) -> Vec<(usize, u32)> {
        KmerIter::new(query, k)
            .unwrap()
            .flat_map(|(qoff, kmer)| self.lookup(kmer.packed()).iter().map(move |&g| (qoff, g)))
            .collect()
    }
}

/// Repetitive DNA with N runs: single bases, homopolymer runs, copies of
/// an earlier stretch (so k-mers recur and the cutoff bites) and N runs.
fn repetitive_dna(max_pieces: usize) -> impl Strategy<Value = DnaSeq> {
    proptest::collection::vec((0u8..10, 1usize..12, 0usize..1_000), 0..max_pieces).prop_map(
        |pieces| {
            let mut seq = DnaSeq::new();
            for (code, len, from) in pieces {
                match code {
                    0..=3 => seq.push(Some(Base::from_index(code as usize))),
                    4..=6 => {
                        let base = Base::from_index(usize::from(code - 4));
                        (0..len).for_each(|_| seq.push(Some(base)));
                    }
                    7 | 8 if !seq.is_empty() => {
                        let from = from % seq.len();
                        let copy = seq.window(from, from + 4 * len);
                        copy.iter().for_each(|b| seq.push(b));
                    }
                    _ => (0..len).for_each(|_| seq.push(None)),
                }
            }
            seq
        },
    )
}

// The flat index against the hash-map oracle: every lookup, every seed-hit
// sequence and every count must agree, for the direct directory (p = k)
// and the bucket search (k > p) alike.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_index_matches_hash_map_oracle(
        genome in repetitive_dna(200),
        k in 1usize..=32,
        stride in 1usize..=4,
        occurrences in 1usize..8,
        words in proptest::collection::vec(0u64..u64::MAX, 0..24),
        query in dna(80),
    ) {
        // Small cutoffs that mask often, and the production one.
        let max_occurrences = if occurrences < 6 { occurrences } else { 1024 };
        let config = IndexConfig { k, max_occurrences, stride };
        let index = KmerIndex::build(&genome, config).unwrap();
        let oracle = HashIndex::build(&genome, config);
        prop_assert_eq!(index.distinct_kmers(), oracle.map.len());
        prop_assert_eq!(index.masked_kmers(), oracle.masked);
        prop_assert_eq!(
            index.total_positions(),
            oracle.map.values().map(Vec::len).sum::<usize>()
        );
        for (_, kmer) in KmerIter::new(&genome, k).unwrap() {
            prop_assert_eq!(index.lookup(kmer.packed()), oracle.lookup(kmer.packed()));
        }
        let mask = u64::MAX >> (64 - 2 * k);
        for word in words {
            // Both in-range words (mostly absent) and out-of-range ones.
            prop_assert_eq!(index.lookup(word & mask), oracle.lookup(word & mask));
            prop_assert_eq!(index.lookup(word), oracle.lookup(word));
        }
        // Queries drawn at random and cut from the genome itself.
        let from = genome.len() / 3;
        for q in [query, genome.window(from, from + 70)] {
            let hits: Vec<(usize, u32)> = index.seed_hits(&q).collect();
            prop_assert_eq!(hits, oracle.seed_hits(&q, k));
        }
    }
}

/// Render one four-line FASTQ record for `seq` with an all-`I` quality
/// line of length `qual_len`.
fn fastq_record(seq: &DnaSeq, qual_len: usize) -> String {
    format!("@r0\n{seq}\n+\n{}\n", "I".repeat(qual_len))
}

/// Characters that are neither nucleotides, `N`, nor whitespace — invalid
/// in any sequence line.
const BAD_SEQ_CHARS: &[u8] = b"%1#=Z@;?x";

// Malformed-input properties: every corruption must surface as `Err`,
// never a panic and never a silently parsed read.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fastq_quality_length_mismatch_is_rejected(
        seq in dna_concrete(1, 60),
        delta in 1usize..6,
        shorter in 0u8..2,
    ) {
        let qual_len = if shorter == 0 {
            seq.len() + delta
        } else {
            seq.len().saturating_sub(delta)
        };
        prop_assume!(qual_len != seq.len());
        let text = fastq_record(&seq, qual_len);
        prop_assert!(read_fastq(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn fastq_truncated_record_is_rejected(
        seq in dna_concrete(1, 60),
        keep_lines in 1usize..4,
    ) {
        let full = fastq_record(&seq, seq.len());
        let truncated: String = full
            .lines()
            .take(keep_lines)
            .flat_map(|l| [l, "\n"])
            .collect();
        prop_assert!(read_fastq(std::io::Cursor::new(truncated)).is_err());
    }

    #[test]
    fn fastq_non_acgt_sequence_is_rejected(
        seq in dna_concrete(1, 60),
        at in 0usize..60,
        bad in 0usize..BAD_SEQ_CHARS.len(),
    ) {
        let mut line: Vec<u8> = seq.to_ascii();
        let at = at % line.len();
        line[at] = BAD_SEQ_CHARS[bad];
        let text = format!(
            "@r0\n{}\n+\n{}\n",
            String::from_utf8(line).unwrap(),
            "I".repeat(seq.len()),
        );
        prop_assert!(read_fastq(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn fasta_non_acgt_body_is_rejected(
        seq in dna_concrete(1, 120),
        at in 0usize..120,
        bad in 0usize..BAD_SEQ_CHARS.len(),
    ) {
        let mut body: Vec<u8> = seq.to_ascii();
        let at = at % body.len();
        body[at] = BAD_SEQ_CHARS[bad];
        let text = format!(">contig\n{}\n", String::from_utf8(body).unwrap());
        prop_assert!(read_fasta(std::io::Cursor::new(text)).is_err());
    }

    #[test]
    fn fasta_body_before_header_is_rejected(seq in dna_concrete(1, 120)) {
        let text = format!("{seq}\n>late-header\n");
        prop_assert!(read_fasta(std::io::Cursor::new(text)).is_err());
    }
}
