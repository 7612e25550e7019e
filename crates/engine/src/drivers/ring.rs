//! The read-split ring-allreduce driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::read_split::run_read_split_ring;
use gnumap_core::report::RunReport;

/// Read partitioning with a ring allreduce instead of a star gather.
/// Internally pinned to the float norm accumulator, whose summation
/// order varies with the rank count — this is the one driver whose
/// parallel runs are only semantically (not bit-) identical to serial.
pub struct ReadSplitRingDriver;

impl Driver for ReadSplitRingDriver {
    fn name(&self) -> &'static str {
        "read-split-ring"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["ring"]
    }

    fn description(&self) -> &'static str {
        "MPI read partitioning with ring allreduce (float norm accumulator only)"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm],
            parallel: true,
            streaming: false,
            checkpointing: false,
            bit_exact_parallel: false,
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
        let report = run_read_split_ring(
            ctx.reference,
            &reads,
            &ctx.config,
            ctx.threads,
            &ctx.observer,
        )?;
        deliver(report, sink)
    }
}
