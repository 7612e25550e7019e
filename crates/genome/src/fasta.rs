//! Minimal, strict FASTA reading and writing.
//!
//! The evaluation pipeline writes simulated references to disk and reads
//! them back, mirroring the paper's use of the UCSC chrX FASTA. Parsing is
//! line-based and validates characters, reporting 1-based line numbers on
//! error.

use crate::alphabet::{Base, BASES};
use crate::error::GenomeError;
use crate::seq::DnaSeq;
use std::io::{self, BufRead, Write};

/// Every byte's decoding as a sequence character: `None` for a character
/// FASTA rejects, `Some(None)` for `N`, as [`Base::try_from_ascii`] decides.
const DECODE: [Option<Option<Base>>; 256] = {
    let mut table = [None; 256];
    let mut i = 0;
    while i < 4 {
        let base = BASES[i];
        table[b"ACGT"[i] as usize] = Some(Some(base));
        table[b"acgt"[i] as usize] = Some(Some(base));
        i += 1;
    }
    table[b'N' as usize] = Some(None);
    table[b'n' as usize] = Some(None);
    table
};

/// One FASTA record.
#[derive(Debug, Clone, PartialEq)]
pub struct FastaRecord {
    /// Header text after `>` (whole line, untrimmed of internal spaces).
    pub id: String,
    /// The sequence.
    pub seq: DnaSeq,
}

/// Parse every record from a FASTA stream.
pub fn read_fasta<R: BufRead>(mut reader: R) -> Result<Vec<FastaRecord>, GenomeError> {
    let mut records = Vec::new();
    let mut current: Option<(String, DnaSeq)> = None;
    let mut line = Vec::new();
    let mut lineno = 0;

    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            break;
        }
        lineno += 1;
        let text = std::str::from_utf8(&line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let text = text.trim_end();
        if text.is_empty() {
            continue;
        }
        if let Some(header) = text.strip_prefix('>') {
            if let Some((id, seq)) = current.take() {
                records.push(FastaRecord { id, seq });
            }
            current = Some((header.trim().to_string(), DnaSeq::new()));
        } else {
            let (_, seq) = current.as_mut().ok_or_else(|| GenomeError::Malformed {
                line: lineno,
                reason: "sequence data before any '>' header".into(),
            })?;
            let data = text.as_bytes();
            if let Some(&c) = data.iter().find(|&&c| DECODE[c as usize].is_none()) {
                return Err(GenomeError::InvalidCharacter {
                    line: lineno,
                    found: c as char,
                });
            }
            seq.extend(data.iter().map(|&c| DECODE[c as usize].flatten()));
        }
    }
    if let Some((id, seq)) = current.take() {
        records.push(FastaRecord { id, seq });
    }
    Ok(records)
}

/// Write records in FASTA format with lines wrapped at `width` bases.
pub fn write_fasta<W: Write>(
    mut writer: W,
    records: &[FastaRecord],
    width: usize,
) -> Result<(), GenomeError> {
    let width = width.max(1);
    for rec in records {
        writeln!(writer, ">{}", rec.id)?;
        let ascii = rec.seq.to_ascii();
        for chunk in ascii.chunks(width) {
            writer.write_all(chunk)?;
            writeln!(writer)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_two_records() {
        let text = ">chr1 test\nACGT\nACGT\n>chr2\nNNGT\n";
        let recs = read_fasta(Cursor::new(text)).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].id, "chr1 test");
        assert_eq!(recs[0].seq.to_string(), "ACGTACGT");
        assert_eq!(recs[1].seq.to_string(), "NNGT");
    }

    #[test]
    fn write_then_read_round_trip() {
        let recs = vec![
            FastaRecord {
                id: "a".into(),
                seq: "ACGTNACGTACGTACGT".parse().unwrap(),
            },
            FastaRecord {
                id: "b".into(),
                seq: "GG".parse().unwrap(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &recs, 7).unwrap();
        let back = read_fasta(Cursor::new(buf)).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn rejects_data_before_header() {
        let err = read_fasta(Cursor::new("ACGT\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { line: 1, .. }));
    }

    #[test]
    fn rejects_invalid_character_with_line_number() {
        let err = read_fasta(Cursor::new(">x\nACGT\nAXGT\n")).unwrap_err();
        assert!(matches!(
            err,
            GenomeError::InvalidCharacter {
                line: 3,
                found: 'X'
            }
        ));
    }

    #[test]
    fn blank_lines_are_skipped() {
        let recs = read_fasta(Cursor::new(">x\n\nAC\n\nGT\n")).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn decode_table_matches_try_from_ascii() {
        for c in 0..=255u8 {
            assert_eq!(DECODE[c as usize], Base::try_from_ascii(c).ok(), "byte {c}");
        }
    }

    #[test]
    fn crlf_and_trailing_whitespace_are_trimmed() {
        let recs = read_fasta(Cursor::new(">x y \r\nAC\r\nnT \t\r\n\r\n")).unwrap();
        assert_eq!(recs[0].id, "x y");
        assert_eq!(recs[0].seq.to_string(), "ACNT");
        // Unicode whitespace is trimmed too, as `str::trim_end` does.
        let recs = read_fasta(Cursor::new(">x\nAC\u{a0}\n\u{3000}\nGT")).unwrap();
        assert_eq!(recs[0].seq.to_string(), "ACGT");
    }

    #[test]
    fn errors_keep_their_line_numbers() {
        let err = read_fasta(Cursor::new("\r\n\nAC\n")).unwrap_err();
        assert!(matches!(err, GenomeError::Malformed { line: 3, .. }));
        let err = read_fasta(Cursor::new(">x\r\nAC\r\nA C\r\n")).unwrap_err();
        assert!(matches!(
            err,
            GenomeError::InvalidCharacter {
                line: 3,
                found: ' '
            }
        ));
        // A non-ASCII character is reported by its first byte.
        let err = read_fasta(Cursor::new(">x\nAé\n")).unwrap_err();
        assert!(matches!(
            err,
            GenomeError::InvalidCharacter {
                line: 2,
                found: '\u{c3}'
            }
        ));
        let err = read_fasta(Cursor::new(&b">x\nA\xffC\n"[..])).unwrap_err();
        assert!(
            matches!(&err, GenomeError::Io(e) if e.kind() == io::ErrorKind::InvalidData),
            "{err}"
        );
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(read_fasta(Cursor::new("")).unwrap().is_empty());
    }
}
