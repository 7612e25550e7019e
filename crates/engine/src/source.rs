//! Read sources: a slice already in memory, or a chunked stream.

use crate::error::EngineError;
use exec::stream::ReadStream;
use genome::read::SequencedRead;
use std::borrow::Cow;

/// Where a run's reads come from.
///
/// Slice-based drivers (serial, the MPI decompositions, the
/// loopback server) drain a stream source into memory before running;
/// the streaming driver consumes a slice source through an in-memory
/// adapter. Either way every driver accepts either variant, so the
/// caller picks the source that matches its input, not its driver.
pub enum ReadSource<'a> {
    /// Reads already resident in memory.
    Slice(&'a [SequencedRead]),
    /// A chunked, possibly unbounded source (FASTQ file, simulator).
    Stream(&'a mut dyn ReadStream),
}

/// Chunk size used when a slice-based driver drains a stream source.
const DRAIN_CHUNK: usize = 4096;

impl<'a> ReadSource<'a> {
    /// Materialise the source as a slice: borrowed when it already is
    /// one, drained to an owned vector otherwise.
    pub fn collect(self) -> Result<Cow<'a, [SequencedRead]>, EngineError> {
        match self {
            ReadSource::Slice(reads) => Ok(Cow::Borrowed(reads)),
            ReadSource::Stream(stream) => {
                let mut all = Vec::new();
                loop {
                    let chunk = stream.next_chunk(DRAIN_CHUNK)?;
                    if chunk.is_empty() {
                        break;
                    }
                    all.extend(chunk);
                }
                Ok(Cow::Owned(all))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec::MemoryStream;

    fn reads(n: usize) -> Vec<SequencedRead> {
        (0..n)
            .map(|i| {
                SequencedRead::with_uniform_quality(
                    format!("r{i}"),
                    "ACGTACGT".parse().unwrap(),
                    30,
                )
            })
            .collect()
    }

    #[test]
    fn slice_source_borrows() {
        let r = reads(3);
        let got = ReadSource::Slice(&r).collect().unwrap();
        assert!(matches!(got, Cow::Borrowed(_)));
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn stream_source_drains_in_order() {
        let r = reads(10);
        let mut stream = MemoryStream::new(r.clone());
        let got = ReadSource::Stream(&mut stream).collect().unwrap();
        assert_eq!(got.as_ref(), r.as_slice());
    }
}
