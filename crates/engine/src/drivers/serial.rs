//! The serial reference driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::pipeline::run_serial;
use gnumap_core::report::RunReport;
use gnumap_core::with_accumulator;

/// Single-threaded pipeline: the reference implementation every parallel
/// decomposition is measured against. Its evidence is paged
/// (`gnumap_core::evidence::PagedEvidence`), so it holds the pages its
/// reads touch in any layout.
pub struct SerialDriver;

impl Driver for SerialDriver {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn description(&self) -> &'static str {
        "single-threaded reference pipeline (all accumulator layouts)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[
                AccumulatorMode::Norm,
                AccumulatorMode::CharDisc,
                AccumulatorMode::CentDisc,
                AccumulatorMode::Fixed,
            ],
            parallel: false,
            streaming: false,
            checkpointing: false,
        }
    }

    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError> {
        check_preconditions(self, ctx)?;
        let reads = source.collect()?;
        let report = with_accumulator!(ctx.config.accumulator, |A| {
            run_serial::<A>(ctx.reference, &reads, &ctx.config, &ctx.observer)
        });
        deliver(report, sink)
    }
}
