//! Deterministic fault injection.
//!
//! Every injected fault must surface as a *typed* `Err` — never a panic,
//! never a silently wrong result — and every recoverable fault (a kill
//! between scheduling windows) must recover *exactly*: the resumed run
//! reproduces the unfaulted run's accumulator digest and call wire
//! bit-for-bit.
//!
//! All pipeline runs go through [`engine::DriverRegistry`], so the faults
//! exercise the same code path the CLI and benchmarks use; exec-layer
//! faults surface as [`EngineError::Exec`] wrapping the original typed
//! `ExecError`.
//!
//! Faults covered:
//!
//! * a read source that fails mid-stream (`ExecError::Source`);
//! * a read source that stutters (tiny, uneven chunks) — not an error at
//!   all, and the engine must produce identical output;
//! * checkpoint files that are truncated, bit-flipped, foreign, or taken
//!   against a different reference (`ExecError::Checkpoint`);
//! * call wires truncated in MPI transit (`CallWireError`);
//! * a kill at every window barrier `k`, followed by a resume
//!   (`ExecError::Aborted`, then bit-identical recovery).

use crate::workload::{build, Workload, WorkloadSpec};
use crate::Outcome;
use engine::{DriverRegistry, EngineError, NullSink, ReadSource, RunContext};
use exec::driver::CheckpointPolicy;
use exec::stream::{MemoryStream, ReadStream};
use exec::{Checkpoint, ExecError};
use genome::read::SequencedRead;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::{decode_calls, encode_calls};
use gnumap_core::report::RunReport;
use mpisim::World;
use std::path::PathBuf;

/// Run the fault tier.
pub fn run(fast: bool) -> Outcome {
    let mut out = Outcome::default();
    let registry = DriverRegistry::standard();
    let wl = build(&WorkloadSpec {
        seed: 0xfa_17,
        genome_len: 1_600,
        snp_count: 4,
        coverage: 5.0,
        read_length: 62,
        repeat_families: 0,
    });

    failing_source(&mut out, &registry, &wl);
    stuttering_source(&mut out, &registry, &wl);
    corrupt_checkpoints(&mut out, &registry, &wl);
    corrupt_wire(&mut out, &registry, &wl);
    kill_resume_sweep(&mut out, &registry, &wl, fast);
    out
}

/// A scratch directory unique to this process; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("conformance-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// The streaming shape every fault scenario uses.
fn stream_ctx<'r>(wl: &'r Workload) -> RunContext<'r> {
    let mut ctx = RunContext::new(&wl.reference);
    ctx.config = wl.config;
    ctx.config.accumulator = AccumulatorMode::Fixed;
    ctx.threads = 2;
    ctx.batch_size = 16;
    ctx.chunk_size = 32;
    ctx.batches_per_worker = 2;
    ctx
}

/// Run the registry's stream driver over a (possibly faulty) source.
fn run_stream_via(
    registry: &DriverRegistry,
    ctx: &RunContext<'_>,
    stream: &mut dyn ReadStream,
) -> Result<RunReport, EngineError> {
    registry
        .get("stream")
        .expect("stream driver registered")
        .run(ctx, ReadSource::Stream(stream), &mut NullSink)
}

fn call_bits(report: &RunReport) -> Vec<u64> {
    encode_calls(&report.calls)
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

// ---------------------------------------------------------------------------
// Faulty read sources
// ---------------------------------------------------------------------------

/// Delivers reads normally, then fails with a typed source error after
/// `fail_after` reads have been handed out.
struct FailingStream {
    inner: MemoryStream,
    delivered: usize,
    fail_after: usize,
}

impl ReadStream for FailingStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        if self.delivered >= self.fail_after {
            return Err(ExecError::Source(format!(
                "injected fault after {} reads",
                self.delivered
            )));
        }
        let budget = max.min(self.fail_after - self.delivered);
        let chunk = self.inner.next_chunk(budget)?;
        self.delivered += chunk.len();
        Ok(chunk)
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        self.inner.skip(n)
    }
}

/// Delivers reads in tiny uneven chunks (1, 2, 3, 1, 2, 3, …), never an
/// empty chunk before true end of stream. Not a fault per se — the engine
/// must be insensitive to chunk geometry.
struct StutteringStream {
    inner: MemoryStream,
    step: usize,
}

impl ReadStream for StutteringStream {
    fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
        let stutter = 1 + self.step % 3;
        self.step += 1;
        self.inner.next_chunk(max.min(stutter))
    }

    fn skip(&mut self, n: usize) -> Result<(), ExecError> {
        self.inner.skip(n)
    }
}

fn failing_source(out: &mut Outcome, registry: &DriverRegistry, wl: &Workload) {
    let mut stream = FailingStream {
        inner: MemoryStream::new(wl.reads.clone()),
        delivered: 0,
        fail_after: wl.reads.len() / 2,
    };
    match run_stream_via(registry, &stream_ctx(wl), &mut stream) {
        Err(EngineError::Exec(ExecError::Source(msg))) => out
            .check(msg.contains("injected fault"), || {
                format!("source error lost the injected message: {msg}")
            }),
        other => out.fail(format!(
            "mid-stream source failure should be ExecError::Source, got {:?}",
            other.map(|r| r.reads_processed)
        )),
    }
}

fn stuttering_source(out: &mut Outcome, registry: &DriverRegistry, wl: &Workload) {
    let ctx = stream_ctx(wl);
    let mut plain = MemoryStream::new(wl.reads.clone());
    let baseline = run_stream_via(registry, &ctx, &mut plain).expect("baseline stream run");
    let mut stutter = StutteringStream {
        inner: MemoryStream::new(wl.reads.clone()),
        step: 0,
    };
    match run_stream_via(registry, &ctx, &mut stutter) {
        Ok(r) => {
            out.check(
                r.accumulator_digest == baseline.accumulator_digest
                    && call_bits(&r) == call_bits(&baseline)
                    && r.reads_mapped == baseline.reads_mapped,
                || "stuttering source changed the result".to_string(),
            );
        }
        Err(e) => out.fail(format!("stuttering source should not error: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint corruption
// ---------------------------------------------------------------------------

/// Resume `wl` from the checkpoint at `path` and classify the outcome.
fn resume_outcome(
    registry: &DriverRegistry,
    wl: &Workload,
    path: PathBuf,
) -> Result<RunReport, EngineError> {
    let mut stream = MemoryStream::new(wl.reads.clone());
    let mut ctx = stream_ctx(wl);
    ctx.checkpoint = Some(CheckpointPolicy {
        path,
        every_batches: 1,
        resume: true,
    });
    run_stream_via(registry, &ctx, &mut stream)
}

fn expect_checkpoint_error(out: &mut Outcome, what: &str, result: Result<RunReport, EngineError>) {
    match result {
        Err(EngineError::Exec(ExecError::Checkpoint(_))) => out.check(true, String::new),
        other => out.fail(format!(
            "{what} should resume with ExecError::Checkpoint, got {:?}",
            other.map(|r| r.reads_processed)
        )),
    }
}

fn corrupt_checkpoints(out: &mut Outcome, registry: &DriverRegistry, wl: &Workload) {
    let scratch = Scratch::new("ckpt");

    // A genuine checkpoint to mutilate: produced by a killed run.
    let genuine = scratch.file("genuine.ckpt");
    let mut ctx = stream_ctx(wl);
    ctx.checkpoint = Some(CheckpointPolicy {
        path: genuine.clone(),
        every_batches: 1,
        resume: false,
    });
    ctx.abort_after_batches = Some(1);
    let killed = run_stream_via(registry, &ctx, &mut MemoryStream::new(wl.reads.clone()));
    out.check(
        matches!(killed, Err(EngineError::Exec(ExecError::Aborted { .. }))),
        || format!("kill hook should yield ExecError::Aborted, got {killed:?}"),
    );
    let bytes = std::fs::read(&genuine).expect("killed run left a checkpoint");

    // Truncation (a torn copy, not a torn write — those are atomic).
    let truncated = scratch.file("truncated.ckpt");
    std::fs::write(&truncated, &bytes[..bytes.len() - 9]).unwrap();
    expect_checkpoint_error(
        out,
        "truncated checkpoint",
        resume_outcome(registry, wl, truncated),
    );

    // A flipped bit deep in the payload.
    let flipped = scratch.file("flipped.ckpt");
    let mut flipped_bytes = bytes.clone();
    let mid = flipped_bytes.len() / 2;
    flipped_bytes[mid] ^= 0x10;
    std::fs::write(&flipped, &flipped_bytes).unwrap();
    expect_checkpoint_error(
        out,
        "bit-flipped checkpoint",
        resume_outcome(registry, wl, flipped),
    );

    // A file that was never a checkpoint.
    let foreign = scratch.file("foreign.ckpt");
    std::fs::write(&foreign, b"-- lock file, do not edit --").unwrap();
    expect_checkpoint_error(out, "foreign file", resume_outcome(registry, wl, foreign));

    // A valid checkpoint for a different reference length.
    let mismatched = scratch.file("mismatched.ckpt");
    exec::checkpoint::save(
        &mismatched,
        &Checkpoint {
            cursor: 0,
            reads_mapped: 0,
            counts: vec![[0.0; 5]; wl.reference.len() + 7],
        },
    )
    .unwrap();
    expect_checkpoint_error(
        out,
        "wrong-reference checkpoint",
        resume_outcome(registry, wl, mismatched),
    );
}

// ---------------------------------------------------------------------------
// Wire corruption in MPI transit
// ---------------------------------------------------------------------------

fn corrupt_wire(out: &mut Outcome, registry: &DriverRegistry, wl: &Workload) {
    let ctx = stream_ctx(wl);
    let serial = registry
        .get("serial")
        .expect("serial driver registered")
        .run(&ctx, ReadSource::Slice(&wl.reads), &mut NullSink)
        .expect("serial reference run");
    let wire = encode_calls(&serial.calls);

    // Ship a truncated wire rank 0 → rank 1 through the simulated
    // transport; the receiver must reject it, typed.
    let world = World::new(2);
    const TAG: u64 = 77;
    let verdicts = world.run(|rank| {
        if rank.id() == 0 {
            let mut bad = wire.clone();
            bad.push(0.125); // one stray f64: length no longer a call multiple
            rank.send(1, TAG, bad);
            None
        } else {
            let received: Vec<f64> = rank.recv(0, TAG);
            Some(decode_calls(&received))
        }
    });
    match &verdicts[1] {
        Some(Err(e)) => out.check(e.len == wire.len() + 1, || {
            format!(
                "wire error reported length {}, sent {}",
                e.len,
                wire.len() + 1
            )
        }),
        other => out.fail(format!(
            "truncated call wire must fail decode, got {other:?}"
        )),
    }

    // An intact wire round-trips: same transport, same decoder.
    let ok = world.run(|rank| {
        if rank.id() == 0 {
            rank.send(1, TAG, wire.clone());
            true
        } else {
            let received: Vec<f64> = rank.recv(0, TAG);
            decode_calls(&received).is_ok()
        }
    });
    out.check(ok[1], || "intact call wire failed to decode".to_string());
}

// ---------------------------------------------------------------------------
// Kill-at-window-k / resume sweep
// ---------------------------------------------------------------------------

fn kill_resume_sweep(out: &mut Outcome, registry: &DriverRegistry, wl: &Workload, fast: bool) {
    let scratch = Scratch::new("kill");
    let ctx = stream_ctx(wl);
    let mut plain = MemoryStream::new(wl.reads.clone());
    let unfaulted = run_stream_via(registry, &ctx, &mut plain).expect("unfaulted run");

    let total_batches = wl.reads.len().div_ceil(ctx.batch_size);
    let step = if fast { 3 } else { 1 };
    for k in (1..=total_batches).step_by(step) {
        let path = scratch.file(&format!("kill-{k}.ckpt"));
        let mut kill_ctx = stream_ctx(wl);
        kill_ctx.checkpoint = Some(CheckpointPolicy {
            path: path.clone(),
            every_batches: 1,
            resume: false,
        });
        kill_ctx.abort_after_batches = Some(k);
        let killed = run_stream_via(
            registry,
            &kill_ctx,
            &mut MemoryStream::new(wl.reads.clone()),
        );
        match killed {
            Err(EngineError::Exec(ExecError::Aborted { cursor })) => {
                out.check(cursor > 0 && cursor <= wl.reads.len(), || {
                    format!("kill at batch {k}: implausible cursor {cursor}")
                });
            }
            Ok(_) if k >= total_batches => {
                // The kill point can land past the last window when the
                // final window is short; the run just completes.
            }
            other => {
                out.fail(format!(
                    "kill at batch {k} should abort, got {:?}",
                    other.map(|r| r.reads_processed)
                ));
                continue;
            }
        }

        let resumed = resume_outcome(registry, wl, path);
        match resumed {
            Ok(r) => out.check(
                r.accumulator_digest == unfaulted.accumulator_digest
                    && call_bits(&r) == call_bits(&unfaulted)
                    && r.reads_mapped == unfaulted.reads_mapped,
                || {
                    format!(
                        "resume after kill at batch {k} diverged from the unfaulted run \
                         (digest {:?} vs {:?}, mapped {} vs {})",
                        r.accumulator_digest,
                        unfaulted.accumulator_digest,
                        r.reads_mapped,
                        unfaulted.reads_mapped
                    )
                },
            ),
            Err(e) => out.fail(format!("resume after kill at batch {k} failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_tier_passes_fast() {
        let out = run(true);
        assert!(out.checks > 10, "expected a real sweep, got {}", out.checks);
        assert!(out.failures.is_empty(), "failures: {:#?}", out.failures);
    }
}
