//! The genome-split MPI driver (sharded genome, allreduced normalisers).

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::genome_split::run_genome_split;
use gnumap_core::report::RunReport;
use gnumap_core::with_accumulator;

/// The paper's second decomposition: the genome (index + accumulator) is
/// sharded across ranks, every read is scored on every shard, and
/// per-read normalising constants travel by allreduce. Lower memory per
/// rank, more communication — the Figure 4 trade-off.
pub struct GenomeSplitDriver;

impl Driver for GenomeSplitDriver {
    fn name(&self) -> &'static str {
        "genome-split"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["mpi-genome"]
    }

    fn description(&self) -> &'static str {
        "MPI genome sharding, per-read normalisers by allreduce"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // Genome shards are disjoint, so every layout is safe: no two
            // ranks ever merge counts for the same position.
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
        let report = with_accumulator!(ctx.config.accumulator, |A| run_genome_split::<A>(
            ctx.reference,
            &reads,
            &ctx.config,
            ctx.threads,
            &ctx.observer,
        ))?;
        deliver(report, sink)
    }
}
