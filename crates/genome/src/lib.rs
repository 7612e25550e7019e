//! DNA sequence primitives and genome substrates for GNUMAP-SNP.
//!
//! This crate provides the data-layer foundation the paper's mapper is built
//! on: the four-letter DNA alphabet (plus `N`), owned and packed sequence
//! types, FASTA/FASTQ parsing and serialisation, Phred quality handling,
//! 2-bit k-mer encoding, and the genomic k-mer seed index (paper Section V,
//! step 1: "create a genomic hash table of k-mers, default k = 10"), built
//! as a flat prefix-directory index rather than a hash table.
//!
//! Everything here is deliberately free of probability logic — the Pair-HMM
//! lives in the `pairhmm` crate and consumes these types.

pub mod alphabet;
pub mod diploid;
pub mod error;
pub mod fasta;
pub mod fastq;
pub mod index;
pub mod kmer;
pub mod packed;
pub mod quality;
pub mod read;
pub mod region;
pub mod seq;
pub mod vcf;

pub use alphabet::Base;
pub use diploid::DiploidGenome;
pub use error::GenomeError;
pub use index::{IndexConfig, KmerIndex};
pub use kmer::{Kmer, KmerIter};
pub use packed::PackedSeq;
pub use quality::{phred_to_error_prob, phred_to_symbol, symbol_to_phred};
pub use read::SequencedRead;
pub use region::Region;
pub use seq::DnaSeq;
