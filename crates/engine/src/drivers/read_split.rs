//! The read-split MPI driver (star gather at rank 0).

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::read_split::run_read_split;
use gnumap_core::report::RunReport;
use gnumap_core::with_accumulator;

/// The paper's first decomposition: every rank holds the full genome and
/// index, reads are partitioned across ranks, and accumulators gather at
/// rank 0.
pub struct ReadSplitDriver;

impl Driver for ReadSplitDriver {
    fn name(&self) -> &'static str {
        "read-split"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["mpi-read"]
    }

    fn description(&self) -> &'static str {
        "MPI read partitioning, full genome per rank, star gather at rank 0"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // All four layouts: every rank deposits into its own partial
            // accumulator over identical read subsets regardless of mode,
            // and the Figure 5 reproduction sweeps the discretized pair.
            accumulators: &[
                AccumulatorMode::Norm,
                AccumulatorMode::CharDisc,
                AccumulatorMode::CentDisc,
                AccumulatorMode::Fixed,
            ],
            parallel: true,
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
        let report = with_accumulator!(ctx.config.accumulator, |A| run_read_split::<A>(
            ctx.reference,
            &reads,
            &ctx.config,
            ctx.threads,
            &ctx.observer,
        ))?;
        deliver(report, sink)
    }
}
