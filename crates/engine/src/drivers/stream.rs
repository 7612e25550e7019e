//! The streaming batch-pipeline driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use exec::{run_stream, MemoryStream, ReadStream};
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::report::RunReport;

/// Micro-batch pipeline over an unbounded source and a blocking worker
/// pool, with backpressure, one shared paged evidence store
/// (`gnumap_core::evidence::PagedEvidence`, the store the serial driver
/// and server sessions use), and
/// checkpoint/resume — the shared-memory driver, so it also answers to
/// `rayon`, `threads` and `shared`. Always accumulates in fixed point —
/// integer deposits commute, so any worker count, batch shape or
/// checkpoint split is bit-identical to serial. `NORM` is accepted as a
/// selection (fixed point quantizes the same normalized posteriors) and
/// runs the identical fixed-point path.
pub struct StreamDriver;

impl Driver for StreamDriver {
    fn name(&self) -> &'static str {
        "stream"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["streaming", "rayon", "threads", "shared"]
    }

    fn description(&self) -> &'static str {
        "micro-batch pipeline on a blocking worker pool, with backpressure and checkpoint/resume"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm, AccumulatorMode::Fixed],
            parallel: true,
            streaming: true,
            checkpointing: true,
        }
    }

    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError> {
        check_preconditions(self, ctx)?;
        let sc = ctx.stream_config();
        let mut memory;
        let stream: &mut dyn ReadStream = match source {
            ReadSource::Stream(stream) => stream,
            ReadSource::Slice(reads) => {
                memory = MemoryStream::new(reads.to_vec());
                &mut memory
            }
        };
        let report = run_stream(ctx.reference, stream, &ctx.config, &sc, &ctx.observer)?;
        deliver(report, sink)
    }
}
