//! The loopback TCP server driver.

use crate::context::RunContext;
use crate::contract::{check_preconditions, Capabilities, Driver};
use crate::error::EngineError;
use crate::sink::{deliver, CallSink};
use crate::source::ReadSource;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::observe::{RunTimer, Stage, StageTimer};
use gnumap_core::report::RunReport;

/// Finalize deadline for a loopback run (generous; the server drains
/// every submitted read before answering).
const FINALIZE_DEADLINE_MS: u32 = 120_000;

/// The batching SNP-calling daemon exercised end to end: each run starts
/// a real TCP server on a loopback port, streams the reads through a
/// session in `chunk_size` submits, finalizes, and tears the server
/// down. Sessions accumulate in fixed point, so the digest and calls are
/// bit-identical to serial regardless of worker count or batch mixing;
/// as with the stream driver, `NORM` selects the same fixed-point path.
pub struct ServerDriver;

impl Driver for ServerDriver {
    fn name(&self) -> &'static str {
        "server"
    }

    fn aliases(&self) -> &'static [&'static str] {
        &["loopback"]
    }

    fn description(&self) -> &'static str {
        "loopback TCP round trip through the batching SNP-calling daemon"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            accumulators: &[AccumulatorMode::Norm, AccumulatorMode::Fixed],
            parallel: true,
            streaming: true,
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
        let observer = &ctx.observer;
        let run = RunTimer::start(observer, self.name(), ctx.config.accumulator);

        // Index stage: server startup builds the k-mer index.
        let timer = StageTimer::start(observer, Stage::Index);
        let cfg = server::ServerConfig {
            workers: ctx.threads.max(1),
            batch_size: ctx.batch_size,
            ..Default::default()
        };
        let handle = server::start(ctx.reference.clone(), ctx.config, cfg, "127.0.0.1:0")
            .map_err(|e| EngineError::Server(format!("start: {e}")))?;
        timer.finish(observer);

        let result = (|| -> Result<server::CallResult, String> {
            let mut client =
                server::Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            let session = client
                .open_session(ctx.config.calling.into())
                .map_err(|e| format!("open session: {e}"))?;

            // Map stage: every read travels through the wire and the
            // worker pool before finalize can answer.
            let timer = StageTimer::start(observer, Stage::Map);
            for chunk in reads.chunks(ctx.chunk_size) {
                submit_with_retry(&mut client, session, chunk)?;
            }
            timer.finish(observer);

            let timer = StageTimer::start(observer, Stage::Call);
            let result = client
                .finalize(session, FINALIZE_DEADLINE_MS)
                .map_err(|e| format!("finalize: {e}"))?;
            timer.finish(observer);
            Ok(result)
        })();
        handle.shutdown();
        handle.join();

        let r = result.map_err(EngineError::Server)?;
        let report = RunReport {
            calls: r.calls,
            reads_processed: r.reads_processed as usize,
            reads_mapped: r.reads_mapped as usize,
            accumulator_digest: Some(r.digest),
            ..RunReport::default()
        };
        deliver(run.finish(observer, report), sink)
    }
}

/// Submit one chunk, backing off briefly on typed `Busy` rejections so a
/// small ingress queue cannot fail the run.
fn submit_with_retry(
    client: &mut server::Client,
    session: u64,
    chunk: &[genome::read::SequencedRead],
) -> Result<(), String> {
    loop {
        match client.submit_reads(session, chunk) {
            Ok(_) => return Ok(()),
            Err(err) if err.is_kind(server::ErrorKind::Busy) => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            Err(err) => return Err(format!("submit: {err}")),
        }
    }
}
