//! The run contract every execution mode implements.

use crate::context::RunContext;
use crate::error::EngineError;
use crate::sink::CallSink;
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::report::RunReport;

/// What a driver can and cannot do, declared statically so callers (the
/// CLI, the conformance matrix, the benchmarks) can plan runs without
/// trial and error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Accumulator layouts the driver accepts. Passing any other mode in
    /// the run context yields [`EngineError::UnsupportedAccumulator`].
    pub accumulators: &'static [AccumulatorMode],
    /// Whether the driver exploits parallel hardware at all.
    pub parallel: bool,
    /// Whether the driver consumes its source incrementally (bounded
    /// memory) rather than materialising every read first.
    pub streaming: bool,
    /// Whether the driver can write and resume from checkpoints.
    pub checkpointing: bool,
}

impl Capabilities {
    /// Does the driver accept this accumulator layout?
    pub fn supports(&self, mode: AccumulatorMode) -> bool {
        self.accumulators.contains(&mode)
    }
}

/// One execution mode of the pipeline: the same map → accumulate → call
/// algorithm behind a uniform entry point.
///
/// Implementations are stateless adapters over the underlying run
/// functions; all run state lives in the [`RunContext`] and the source.
/// Every adapter threads `ctx.observer` through, so structured events
/// flow from any driver the same way.
pub trait Driver: Send + Sync {
    /// Canonical registry name (`serial`, `read-split`, `stream`, ...).
    fn name(&self) -> &'static str;

    /// Alternate names the registry also resolves.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description for tables and help text.
    fn description(&self) -> &'static str;

    /// Static capability declaration.
    fn capabilities(&self) -> Capabilities;

    /// Execute the pipeline over `source`, delivering calls to `sink`.
    fn run(
        &self,
        ctx: &RunContext<'_>,
        source: ReadSource<'_>,
        sink: &mut dyn CallSink,
    ) -> Result<RunReport, EngineError>;
}

/// Shared precondition check for driver adapters: a valid context whose
/// accumulator mode the driver supports.
pub(crate) fn check_preconditions(
    driver: &dyn Driver,
    ctx: &RunContext<'_>,
) -> Result<(), EngineError> {
    ctx.validate()?;
    let caps = driver.capabilities();
    if !caps.supports(ctx.config.accumulator) {
        return Err(EngineError::UnsupportedAccumulator {
            driver: driver.name(),
            mode: ctx.config.accumulator,
            supported: caps.accumulators,
        });
    }
    Ok(())
}
