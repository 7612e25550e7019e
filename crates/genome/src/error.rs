//! Error types for sequence parsing and genome construction.

use std::fmt;
use std::io;

/// Errors produced while parsing or constructing genomic data.
#[derive(Debug)]
pub enum GenomeError {
    /// An I/O failure while reading or writing sequence files.
    Io(io::Error),
    /// A character that is not a nucleotide, `N`, or legal FASTA/FASTQ syntax.
    InvalidCharacter { line: usize, found: char },
    /// A FASTQ record whose quality string length differs from its sequence.
    QualityLengthMismatch {
        record: String,
        seq_len: usize,
        qual_len: usize,
    },
    /// Malformed FASTA/FASTQ structure (missing header, truncated record...).
    Malformed { line: usize, reason: String },
    /// A request addressed a position outside the genome.
    OutOfBounds { pos: usize, len: usize },
    /// A k-mer length that cannot be 2-bit packed into a u64 (k > 32 or 0).
    BadKmerLength(usize),
    /// An index sampling stride of zero.
    ZeroIndexStride,
    /// An index occurrence cutoff of zero (every k-mer would be masked).
    ZeroMaxOccurrences,
    /// A genome too long for the index's `u32` positions.
    GenomeTooLong(usize),
}

impl fmt::Display for GenomeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenomeError::Io(e) => write!(f, "I/O error: {e}"),
            GenomeError::InvalidCharacter { line, found } => {
                write!(f, "invalid sequence character {found:?} on line {line}")
            }
            GenomeError::QualityLengthMismatch {
                record,
                seq_len,
                qual_len,
            } => write!(
                f,
                "record {record:?}: sequence length {seq_len} != quality length {qual_len}"
            ),
            GenomeError::Malformed { line, reason } => {
                write!(f, "malformed record on line {line}: {reason}")
            }
            GenomeError::OutOfBounds { pos, len } => {
                write!(f, "position {pos} out of bounds for genome of length {len}")
            }
            GenomeError::BadKmerLength(k) => {
                write!(f, "k-mer length {k} unsupported (must be in 1..=32)")
            }
            GenomeError::ZeroIndexStride => write!(f, "index stride must be at least 1"),
            GenomeError::ZeroMaxOccurrences => {
                write!(f, "index max_occurrences must be at least 1")
            }
            GenomeError::GenomeTooLong(len) => write!(
                f,
                "genome of {len} bases is too long to index (at most {} bases)",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for GenomeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenomeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for GenomeError {
    fn from(e: io::Error) -> Self {
        GenomeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GenomeError::InvalidCharacter {
            line: 3,
            found: '!',
        };
        assert!(e.to_string().contains("line 3"));
        let e = GenomeError::BadKmerLength(40);
        assert!(e.to_string().contains("40"));
    }

    #[test]
    fn io_source_is_preserved() {
        use std::error::Error;
        let e = GenomeError::from(io::Error::new(io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }
}
