//! The streaming batch scheduler over the shared worker pool.
//!
//! Topology:
//!
//! ```text
//! source thread ──bounded channel──▶ scheduler ──bounded batch channel──▶ N workers
//!   (ReadStream)   (backpressure)      │    ▲           (exec::pool)          │
//!                                      │    └──────────batch results──────────┘
//!                                      └─▶ checkpoint at window barriers
//! ```
//!
//! The **source thread** pulls fixed-size chunks from the [`ReadStream`]
//! and sends them down a bounded channel; when workers fall behind, the
//! channel fills and the source blocks — backpressure, measured as
//! `source_stall_secs`.
//!
//! The **scheduler** (caller's thread, the pool's `schedule`) drains
//! chunks into a *window* of `workers × batches_per_worker × batch_size`
//! reads, cuts it into length-sorted micro-batches
//! ([`length_sorted_batches`]), sends them to the pool and advances the
//! stream cursor past the window. It then goes straight on to the next
//! window: the bounded batch channel is what holds it back. Only where a
//! checkpoint or the kill hook is due does it first wait for every
//! dispatched batch to complete — the *window barrier* — so that the
//! snapshot matches the cursor. Window composition depends only on
//! stream order and configuration, never on timing, which is what makes
//! runs reproducible.
//!
//! **Workers** ([`run_pool`]) block until a batch arrives, map each read,
//! and deposit evidence directly into the run's [`PagedEvidence`] — no
//! per-worker replica, no final merge. Fixed-point deposits commute
//! bit-exactly, so whichever worker takes a batch, the evidence is
//! identical. At end of input the digest and the calls read the
//! evidence's pages in place.

use crate::checkpoint::{self, Checkpoint};
use crate::error::ExecError;
use crate::pool::{length_sorted_batches, run_pool, PoolWorker};
use crate::stream::ReadStream;
use crossbeam::channel;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::evidence::PagedEvidence;
use gnumap_core::observe::{Event, Observer, RunTimer, Stage, StageTimer};
use gnumap_core::pipeline::BatchCounts;
use gnumap_core::report::{RunReport, StreamStats};
use gnumap_core::{GnumapConfig, MappingEngine};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// When and where to snapshot engine state.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPolicy {
    /// Checkpoint file path (its parent directory must exist).
    pub path: PathBuf,
    /// Write a checkpoint every `every_batches` dispatched batches
    /// (rounded up to the next window boundary, which then becomes a
    /// barrier).
    pub every_batches: usize,
    /// On startup, load `path` if present and resume from its cursor.
    pub resume: bool,
}

/// Streaming engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamConfig {
    /// Worker threads mapping reads.
    pub workers: usize,
    /// Reads per micro-batch.
    pub batch_size: usize,
    /// Reads per source chunk (one channel message).
    pub chunk_size: usize,
    /// Bounded channel capacity in chunks; the source blocks when the
    /// scheduler falls this far behind.
    pub channel_capacity: usize,
    /// Micro-batches per worker per scheduling window.
    pub batches_per_worker: usize,
    /// Periodic checkpointing; `None` disables it.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Kill hook for tests: abort (as if killed) at the first window
    /// boundary where at least this many batches have been dispatched,
    /// once they have all completed.
    pub abort_after_batches: Option<usize>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            workers: 1,
            batch_size: 64,
            chunk_size: 256,
            channel_capacity: 4,
            batches_per_worker: 2,
            checkpoint: None,
            abort_after_batches: None,
        }
    }
}

impl StreamConfig {
    /// Reject a shape the scheduler cannot run: every size and count must
    /// be at least 1 (a zero window size, for one, would end the run
    /// before its first read).
    pub fn validate(&self) -> Result<(), ExecError> {
        for (value, what) in [
            (self.workers, "workers"),
            (self.batch_size, "batch_size"),
            (self.chunk_size, "chunk_size"),
            (self.batches_per_worker, "batches_per_worker"),
        ] {
            if value == 0 {
                return Err(ExecError::InvalidConfig(format!(
                    "{what} must be at least 1"
                )));
            }
        }
        Ok(())
    }
}

/// Run the streaming engine over `stream`, calling SNPs at end of input.
///
/// The run accumulates in fixed point: the returned calls and digest are
/// bit-identical to `run_serial::<FixedAccumulator>` on the same reads,
/// for any worker count, batch size, chunking or checkpoint/resume split.
/// The observer gets one [`Event::Batch`] per micro-batch (tagged with
/// the index of the worker that mapped it), an [`Event::Checkpoint`] for
/// every checkpoint record written, and stage timings taken on the
/// scheduler thread. A shape [`StreamConfig::validate`] rejects is an
/// [`ExecError::InvalidConfig`].
pub fn run_stream(
    reference: &DnaSeq,
    stream: &mut dyn ReadStream,
    config: &GnumapConfig,
    sc: &StreamConfig,
    observer: &Observer,
) -> Result<RunReport, ExecError> {
    sc.validate()?;
    let run = RunTimer::start(observer, "stream", config.accumulator);

    // ---- resume --------------------------------------------------------
    // A stream's reads cover the genome, so its pages are allocated here
    // rather than by the pool's workers, which are spawned afresh for
    // each run.
    let mut evidence = PagedEvidence::<FixedAccumulator>::new(reference.len(), Default::default());
    evidence.allocate_all();
    let mut cursor = 0usize;
    let mut mapped_total = 0usize;
    let mut resumed = false;
    if let Some(policy) = &sc.checkpoint {
        if policy.resume {
            if let Some(cp) = checkpoint::load(&policy.path)? {
                if cp.counts.len() != reference.len() {
                    return Err(ExecError::Checkpoint(format!(
                        "{}: snapshot covers {} positions, reference has {}",
                        policy.path.display(),
                        cp.counts.len(),
                        reference.len()
                    )));
                }
                evidence.load_counts(&cp.counts);
                cursor = cp.cursor;
                mapped_total = cp.reads_mapped;
                stream.skip(cursor)?;
                resumed = true;
            }
        }
    }

    let timer = StageTimer::start(observer, Stage::Index);
    let engine = MappingEngine::new(reference, config.mapping);
    timer.finish(observer);
    let window_reads = sc.workers * sc.batches_per_worker * sc.batch_size;

    // ---- plumbing ------------------------------------------------------
    let (chunk_tx, chunk_rx) = channel::bounded::<Vec<SequencedRead>>(sc.channel_capacity);
    let (done_tx, done_rx) = channel::unbounded::<BatchCounts>();

    // ---- stats ---------------------------------------------------------
    let mut batches_dispatched = 0usize;
    let mut reads_dispatched = 0usize;
    let mut max_queue_depth = 0usize;
    let mut queue_depth_sum = 0usize;
    let mut queue_samples = 0usize;
    let mut checkpoints_written = 0usize;
    let mut batches_since_checkpoint = 0usize;
    let mut aborted = false;

    let map_timer = StageTimer::start(observer, Stage::Map);
    let (pool, source) = std::thread::scope(|scope| {
        // Source thread: chunk the stream into the bounded channel and
        // return the time it spent blocked on it. It owns the only
        // sender, so the channel disconnects (and the scheduler sees end
        // of stream) the moment this thread returns.
        let source = scope.spawn(move || -> Result<Duration, ExecError> {
            let tx = chunk_tx;
            let mut stall = Duration::ZERO;
            loop {
                let chunk = stream.next_chunk(sc.chunk_size)?;
                if chunk.is_empty() {
                    return Ok(stall); // end of stream
                }
                let blocked = Instant::now();
                if tx.send(chunk).is_err() {
                    return Ok(stall); // scheduler gone (abort): stop producing
                }
                stall += blocked.elapsed();
            }
        });

        // Workers map each batch and deposit straight into the paged
        // evidence; the scheduler below feeds them windows.
        let work = |worker: &mut PoolWorker, batch: Vec<SequencedRead>| {
            let mut counts = BatchCounts::default();
            counts.map_batch(
                &engine,
                &batch,
                |read| read,
                &mut worker.scratch,
                |_, start, weight, columns| evidence.deposit(start, weight, columns),
            );
            counts.emit(observer, worker.index);
            let _ = done_tx.send(counts);
        };

        // Scheduler: windows → sorted micro-batches → (barrier → checkpoint).
        // Returning drops `chunk_rx`, which unblocks a source stuck on a
        // full channel, and the batch sender, which lets the workers exit.
        let pool = run_pool(sc.workers, work, |batches| -> Result<(), ExecError> {
            let chunk_rx = chunk_rx;
            let mut pending: Vec<SequencedRead> = Vec::with_capacity(window_reads);
            let mut source_done = false;
            // Batches sent whose counts have not come back yet.
            let mut in_flight = 0usize;
            while !source_done || !pending.is_empty() {
                // Fill a window (or take what is left at end of stream).
                while pending.len() < window_reads && !source_done {
                    match chunk_rx.recv() {
                        Ok(chunk) => {
                            let depth = chunk_rx.len();
                            max_queue_depth = max_queue_depth.max(depth);
                            queue_depth_sum += depth;
                            queue_samples += 1;
                            pending.extend(chunk);
                        }
                        Err(_) => source_done = true,
                    }
                }
                if pending.is_empty() {
                    break;
                }
                let window: Vec<SequencedRead> = if pending.len() > window_reads {
                    let rest = pending.split_off(window_reads);
                    std::mem::replace(&mut pending, rest)
                } else {
                    std::mem::take(&mut pending)
                };
                cursor += window.len();

                let mut window_batches = 0usize;
                for batch in length_sorted_batches(window, sc.batch_size, SequencedRead::len) {
                    reads_dispatched += batch.len();
                    batches
                        .send(batch)
                        .expect("pool workers outlive the scheduler");
                    window_batches += 1;
                }
                in_flight += window_batches;
                batches_dispatched += window_batches;
                batches_since_checkpoint += window_batches;
                while let Ok(done) = done_rx.try_recv() {
                    mapped_total += done.mapped as usize;
                    in_flight -= 1;
                }

                // The next window goes out while this one is still being
                // mapped, unless a checkpoint or the kill hook is due: then
                // every dispatched batch must report back first (the
                // window barrier), so the snapshot matches the cursor.
                let checkpoint_due = sc
                    .checkpoint
                    .as_ref()
                    .filter(|policy| batches_since_checkpoint >= policy.every_batches);
                let abort_due = sc
                    .abort_after_batches
                    .is_some_and(|limit| batches_dispatched >= limit);
                if checkpoint_due.is_none() && !abort_due {
                    continue;
                }
                for _ in 0..in_flight {
                    let done = done_rx.recv().expect("workers outlive the scheduler");
                    mapped_total += done.mapped as usize;
                }
                in_flight = 0;

                if let Some(policy) = checkpoint_due {
                    checkpoint::save(
                        &policy.path,
                        &Checkpoint {
                            cursor,
                            reads_mapped: mapped_total,
                            counts: evidence.snapshot_counts(),
                        },
                    )?;
                    checkpoints_written += 1;
                    batches_since_checkpoint = 0;
                    observer.emit(|| Event::Checkpoint {
                        cursor: cursor as u64,
                        reads_mapped: mapped_total as u64,
                    });
                }

                // Kill hook: die after the barrier, like a SIGKILL between
                // windows — whatever checkpoint exists on disk is all a
                // restart will see.
                if abort_due {
                    aborted = true;
                    break;
                }
            }
            Ok(())
        });
        let source = source.join();
        (
            pool,
            source.unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
        )
    });
    pool.result?;
    // The pool has drained: the counts of batches sent after the last
    // barrier are all in.
    while let Ok(done) = done_rx.try_recv() {
        mapped_total += done.mapped as usize;
    }
    map_timer.finish(observer);

    let source_stall = source?;
    if aborted {
        return Err(ExecError::Aborted { cursor });
    }

    let stats = StreamStats {
        workers: sc.workers,
        batch_size: sc.batch_size,
        batches_dispatched,
        mean_batch_occupancy: if batches_dispatched == 0 {
            0.0
        } else {
            reads_dispatched as f64 / (batches_dispatched * sc.batch_size) as f64
        },
        max_queue_depth,
        mean_queue_depth: if queue_samples == 0 {
            0.0
        } else {
            queue_depth_sum as f64 / queue_samples as f64
        },
        source_stall_secs: source_stall.as_secs_f64(),
        worker_stall_secs: pool.wait_secs.iter().sum(),
        checkpoints_written,
        resumed_from_checkpoint: resumed,
    };

    let timer = StageTimer::start(observer, Stage::Call);
    let calls = evidence.call_snps(reference, &config.calling);
    timer.finish(observer);
    let report = RunReport {
        calls,
        reads_processed: cursor,
        reads_mapped: mapped_total,
        accumulator_bytes: evidence.heap_bytes(),
        rank_cpu_secs: pool.cpu_secs,
        stream: Some(stats),
        accumulator_digest: Some(evidence.digest()),
        ..RunReport::default()
    };
    Ok(run.finish(observer, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MemoryStream;

    fn tiny_workload() -> (DnaSeq, Vec<SequencedRead>) {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let genome = simulate::generate_genome(
            &simulate::GenomeConfig {
                length: 2_500,
                repeat_families: 0,
                ..Default::default()
            },
            &mut rng,
        );
        let cfg = simulate::reads::ReadSimConfig {
            coverage: 6.0,
            ..Default::default()
        };
        let reads = simulate::reads::simulate_reads(
            &simulate::reads::ReadSource::Monoploid(&genome),
            cfg.read_count(genome.len()),
            &cfg,
            &mut rng,
        )
        .into_iter()
        .map(|r| r.read)
        .collect();
        (genome, reads)
    }

    #[test]
    fn empty_stream_produces_empty_report() {
        let (genome, _) = tiny_workload();
        let mut stream = MemoryStream::new(Vec::new());
        let report = run_stream(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &StreamConfig::default(),
            &Observer::disabled(),
        )
        .unwrap();
        assert_eq!(report.reads_processed, 0);
        assert_eq!(report.reads_mapped, 0);
        assert!(report.calls.is_empty());
        let stats = report.stream.unwrap();
        assert_eq!(stats.batches_dispatched, 0);
        assert!(!stats.resumed_from_checkpoint);
    }

    #[test]
    fn processes_every_read_and_reports_stats() {
        let (genome, reads) = tiny_workload();
        let n = reads.len();
        let mut stream = MemoryStream::new(reads);
        let sc = StreamConfig {
            workers: 2,
            batch_size: 16,
            chunk_size: 32,
            ..Default::default()
        };
        let report = run_stream(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &sc,
            &Observer::disabled(),
        )
        .unwrap();
        assert_eq!(report.reads_processed, n);
        assert!(report.reads_mapped > n * 9 / 10);
        assert_eq!(report.rank_cpu_secs.len(), 2);
        let stats = report.stream.unwrap();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.batch_size, 16);
        assert!(stats.batches_dispatched >= n / 16);
        assert!(stats.mean_batch_occupancy > 0.0 && stats.mean_batch_occupancy <= 1.0);
        assert!(
            StreamStats::reads_per_cpu_sec(n, &report.rank_cpu_secs) > 0.0,
            "CPU-time throughput must be measurable"
        );
    }

    #[test]
    fn batch_size_and_worker_count_do_not_change_results() {
        let quiet = Observer::disabled();
        let (genome, reads) = tiny_workload();
        let cfg = GnumapConfig::default();
        let baseline = {
            let mut s = MemoryStream::new(reads.clone());
            run_stream(&genome, &mut s, &cfg, &StreamConfig::default(), &quiet).unwrap()
        };
        for (workers, batch_size, chunk_size) in [(2, 8, 16), (3, 31, 7), (4, 64, 500)] {
            let mut s = MemoryStream::new(reads.clone());
            let sc = StreamConfig {
                workers,
                batch_size,
                chunk_size,
                ..Default::default()
            };
            let r = run_stream(&genome, &mut s, &cfg, &sc, &quiet).unwrap();
            assert_eq!(
                r.calls, baseline.calls,
                "workers={workers} batch={batch_size} chunk={chunk_size}"
            );
            assert_eq!(r.reads_mapped, baseline.reads_mapped);
        }
    }

    #[test]
    fn observed_stream_emits_batches_and_checkpoints() {
        use gnumap_core::observe::MemorySink;
        use std::sync::Arc;
        let (genome, reads) = tiny_workload();
        let cfg = GnumapConfig::default();
        let plain = {
            let mut s = MemoryStream::new(reads.clone());
            run_stream(
                &genome,
                &mut s,
                &cfg,
                &StreamConfig::default(),
                &Observer::disabled(),
            )
            .unwrap()
        };
        let dir = std::env::temp_dir().join(format!("gnumap-obs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sc = StreamConfig {
            workers: 2,
            batch_size: 16,
            chunk_size: 32,
            checkpoint: Some(CheckpointPolicy {
                path: dir.join("cp.bin"),
                every_batches: 2,
                resume: false,
            }),
            ..Default::default()
        };
        let sink = Arc::new(MemorySink::new());
        let mut s = MemoryStream::new(reads.clone());
        let observed =
            run_stream(&genome, &mut s, &cfg, &sc, &Observer::new(sink.clone())).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(observed.accumulator_digest, plain.accumulator_digest);

        let events = sink.take();
        let batch_reads: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Batch { reads, .. } => Some(*reads),
                _ => None,
            })
            .sum();
        assert_eq!(batch_reads, reads.len() as u64);
        let checkpoints = events
            .iter()
            .filter(|e| matches!(e, Event::Checkpoint { .. }))
            .count();
        assert_eq!(
            checkpoints,
            observed.stream.as_ref().unwrap().checkpoints_written
        );
        assert!(checkpoints > 0, "expected at least one checkpoint event");
        assert!(events.iter().any(|e| matches!(
            e,
            Event::StageEnd {
                stage: Stage::Map,
                ..
            }
        )));
    }

    /// A source that is silent for `delay` before its first chunk.
    struct SlowStartStream {
        delay: Option<Duration>,
        inner: MemoryStream,
    }

    impl ReadStream for SlowStartStream {
        fn next_chunk(&mut self, max: usize) -> Result<Vec<SequencedRead>, ExecError> {
            if let Some(delay) = self.delay.take() {
                std::thread::sleep(delay);
            }
            self.inner.next_chunk(max)
        }

        fn skip(&mut self, n: usize) -> Result<(), ExecError> {
            self.inner.skip(n)
        }
    }

    #[test]
    fn idle_workers_block_instead_of_spinning() {
        let (genome, reads) = tiny_workload();
        let mut stream = SlowStartStream {
            delay: Some(Duration::from_millis(300)),
            inner: MemoryStream::new(reads[..20].to_vec()),
        };
        let sc = StreamConfig {
            workers: 2,
            ..Default::default()
        };
        let report = run_stream(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &sc,
            &Observer::disabled(),
        )
        .unwrap();
        assert_eq!(report.reads_processed, 20);
        let cpu: f64 = report.rank_cpu_secs.iter().sum();
        assert!(
            cpu < 0.1,
            "two workers waiting 300 ms for input burned {cpu:.3} CPU seconds"
        );
        let stall = report.stream.unwrap().worker_stall_secs;
        assert!(
            stall >= 0.5,
            "both workers were blocked ~300 ms: {stall:.3} s"
        );
    }

    #[test]
    fn zero_shape_fields_are_invalid_config() {
        let (genome, reads) = tiny_workload();
        for field in ["workers", "batch_size", "chunk_size", "batches_per_worker"] {
            let mut sc = StreamConfig::default();
            *match field {
                "workers" => &mut sc.workers,
                "batch_size" => &mut sc.batch_size,
                "chunk_size" => &mut sc.chunk_size,
                _ => &mut sc.batches_per_worker,
            } = 0;
            let mut stream = MemoryStream::new(reads[..50].to_vec());
            let err = run_stream(
                &genome,
                &mut stream,
                &GnumapConfig::default(),
                &sc,
                &Observer::disabled(),
            )
            .unwrap_err();
            match err {
                ExecError::InvalidConfig(msg) => assert!(msg.contains(field), "{field}: {msg}"),
                other => panic!("{field}: expected InvalidConfig, got {other}"),
            }
        }
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn abort_hook_reports_cursor_at_a_barrier() {
        let (genome, reads) = tiny_workload();
        let mut stream = MemoryStream::new(reads);
        let sc = StreamConfig {
            workers: 1,
            batch_size: 8,
            chunk_size: 8,
            abort_after_batches: Some(3),
            ..Default::default()
        };
        let err = run_stream(
            &genome,
            &mut stream,
            &GnumapConfig::default(),
            &sc,
            &Observer::disabled(),
        )
        .unwrap_err();
        match err {
            ExecError::Aborted { cursor } => {
                assert!(cursor > 0, "abort fires after at least one window");
            }
            other => panic!("expected Aborted, got {other}"),
        }
    }
}
