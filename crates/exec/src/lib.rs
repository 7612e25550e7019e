//! Streaming execution engine for the GNUMAP-SNP pipeline.
//!
//! The pipeline drivers in `gnumap-core` all start from a `&[SequencedRead]`
//! slice: the whole input must fit in memory before any work begins, and
//! every driver ends with a global merge of per-worker accumulators. This
//! crate runs the same map → accumulate → call algorithm over an
//! **unbounded read source** instead:
//!
//! * [`stream`] — a chunked [`stream::ReadStream`] trait with FASTQ-file,
//!   simulator-backed and in-memory implementations, feeding a bounded
//!   channel so a slow consumer applies backpressure to the source;
//! * [`pool`] — the worker pool the streaming driver and the server share:
//!   workers block on a bounded batch channel, each with its own scratch
//!   arena, and [`pool::length_sorted_batches`] is the one micro-batch cut;
//! * [`driver`] — a batch scheduler that groups arriving reads into
//!   length-sorted micro-batches and sends them to that pool;
//! * [`checkpoint`] — periodic atomic snapshots of the evidence plus the
//!   stream cursor, giving kill/resume semantics.
//!
//! Workers deposit into `gnumap_core::evidence::PagedEvidence`, the
//! store the serial driver and every server session use too: pages each
//! behind their own lock, digested and called in place with no
//! end-of-run merge.
//!
//! The engine accumulates in fixed point, so the result is
//! **bit-identical** to a serial `FixedAccumulator` run for any worker
//! count, batch size or checkpoint schedule: integer deposits commute,
//! and the scheduler derives batch composition only from stream order,
//! never from timing.

pub mod checkpoint;
pub mod driver;
pub mod error;
pub mod pool;
pub mod stream;

pub use checkpoint::Checkpoint;
pub use driver::{run_stream, CheckpointPolicy, StreamConfig};
pub use error::ExecError;
pub use stream::{FastqStream, MemoryStream, ReadStream, SimReadStream};
