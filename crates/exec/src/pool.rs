//! The one worker pool behind the streaming driver and the server.
//!
//! ```text
//! schedule (caller's thread) ──bounded batch channel──▶ N workers
//!                                (4 × N batches)        (AlignScratch,
//!                                                        ThreadCpuTimer each)
//! ```
//!
//! [`run_pool`] spawns the workers, runs `schedule` on the calling thread
//! with the channel's only [`Sender`], and returns once `schedule` has
//! returned and the workers have drained whatever it left queued. Idle
//! workers block in `recv`; they never spin. A full channel blocks
//! `schedule`, which is the pool's backpressure.
//!
//! [`length_sorted_batches`] is the one micro-batch cut both schedulers
//! use: a stable sort by read length (so a batch holds Pair-HMM problems
//! of similar shape) cut into `batch_size` pieces.

use crossbeam::channel;
use gnumap_core::mapping::AlignScratch;
use mpisim::ThreadCpuTimer;
use std::time::{Duration, Instant};

pub use crossbeam::channel::{SendError, Sender};

/// Batches the channel holds per worker before `schedule` blocks.
const QUEUED_BATCHES_PER_WORKER: usize = 4;

/// One pool thread's state, handed to every `work` call.
pub struct PoolWorker {
    /// This worker's index in `0..workers`.
    pub index: usize,
    /// Scratch arena reused for every batch this worker maps.
    pub scratch: AlignScratch,
    cpu: ThreadCpuTimer,
}

impl PoolWorker {
    /// CPU seconds this worker's thread has used since it started.
    pub fn cpu_secs(&self) -> f64 {
        self.cpu.elapsed()
    }
}

/// What [`run_pool`] returns.
#[derive(Debug)]
pub struct PoolReport<R> {
    /// `schedule`'s result.
    pub result: R,
    /// CPU seconds each worker used, in worker order.
    pub cpu_secs: Vec<f64>,
    /// Seconds each worker spent blocked waiting for a batch, in worker
    /// order.
    pub wait_secs: Vec<f64>,
}

/// Run `workers` threads that each call `work` on every batch they take
/// from a bounded channel of `QUEUED_BATCHES_PER_WORKER × workers`
/// batches, while `schedule` fills the channel from the calling thread.
/// When `schedule` returns, its sender drops; the workers drain the
/// batches still queued and exit, and then `run_pool` returns. Each batch
/// is handed to exactly one worker. A panicking worker panics `run_pool`
/// once every thread has been joined.
pub fn run_pool<B, R>(
    workers: usize,
    work: impl Fn(&mut PoolWorker, B) + Sync,
    schedule: impl FnOnce(Sender<B>) -> R,
) -> PoolReport<R>
where
    B: Send,
{
    let (tx, rx) = channel::bounded::<B>(QUEUED_BATCHES_PER_WORKER * workers);
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (0..workers)
            .map(|index| {
                let rx = rx.clone();
                scope.spawn(move || {
                    let mut worker = PoolWorker {
                        index,
                        scratch: AlignScratch::new(),
                        cpu: ThreadCpuTimer::start(),
                    };
                    let mut waited = Duration::ZERO;
                    loop {
                        let blocked = Instant::now();
                        let next = rx.recv();
                        waited += blocked.elapsed();
                        let Ok(batch) = next else { break };
                        work(&mut worker, batch);
                    }
                    (worker.cpu_secs(), waited.as_secs_f64())
                })
            })
            .collect();
        drop(rx);
        let result = schedule(tx);
        let (cpu_secs, wait_secs) = handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .unzip();
        PoolReport {
            result,
            cpu_secs,
            wait_secs,
        }
    })
}

/// Stable-sort `items` by `len` and cut them, shortest first, into
/// micro-batches of `batch_size` (the last one may be shorter). Batch
/// composition depends only on the order of `items`.
pub fn length_sorted_batches<T>(
    mut items: Vec<T>,
    batch_size: usize,
    len: impl FnMut(&T) -> usize,
) -> impl Iterator<Item = Vec<T>> {
    items.sort_by_key(len);
    std::iter::from_fn(move || {
        if items.is_empty() {
            return None;
        }
        let tail = items.split_off(items.len().min(batch_size));
        Some(std::mem::replace(&mut items, tail))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_batch_is_handled_exactly_once() {
        for workers in [1, 2, 4] {
            let seen = Mutex::new(Vec::new());
            let report = run_pool(
                workers,
                |w, batch: usize| seen.lock().unwrap().push((batch, w.index)),
                |tx| {
                    for b in 0..100 {
                        tx.send(b).unwrap();
                    }
                    "scheduled"
                },
            );
            assert_eq!(report.result, "scheduled");
            assert_eq!(report.cpu_secs.len(), workers);
            let seen = seen.into_inner().unwrap();
            assert!(seen.iter().all(|&(_, w)| w < workers));
            let mut batches: Vec<usize> = seen.into_iter().map(|(b, _)| b).collect();
            batches.sort_unstable();
            assert_eq!(batches, (0..100).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn batches_queued_when_schedule_returns_are_drained() {
        // Workers cannot finish a batch while `schedule` holds the gate,
        // and each batch then takes 5 ms: when `schedule` returns, the
        // channel still holds most of them.
        let gate = Mutex::new(());
        let done = AtomicUsize::new(0);
        let queued = 2 * QUEUED_BATCHES_PER_WORKER;
        let report = run_pool(
            2,
            |_, _batch: ()| {
                let _open = gate.lock().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::Relaxed);
            },
            |tx| {
                let _closed = gate.lock().unwrap();
                for _ in 0..queued {
                    tx.send(()).unwrap();
                }
                done.load(Ordering::Relaxed)
            },
        );
        assert_eq!(
            report.result, 0,
            "no batch finished before schedule returned"
        );
        assert_eq!(done.into_inner(), queued);
    }

    #[test]
    fn wait_seconds_are_non_negative_and_count_idle_time() {
        let report = run_pool(
            2,
            |_, _batch: ()| {},
            |tx| {
                std::thread::sleep(Duration::from_millis(50));
                tx.send(()).unwrap();
            },
        );
        assert_eq!(report.wait_secs.len(), 2);
        assert!(
            report.wait_secs.iter().all(|&w| w >= 0.04),
            "both workers sat idle through the first 50 ms: {:?}",
            report.wait_secs
        );
        assert!(report.cpu_secs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn batches_are_length_sorted_stable_and_cut_to_size() {
        let items = vec![(3, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        let batches: Vec<Vec<(usize, char)>> =
            length_sorted_batches(items, 2, |&(len, _)| len).collect();
        assert_eq!(
            batches,
            vec![
                vec![(1, 'b'), (1, 'e')],
                vec![(2, 'd'), (3, 'a')],
                vec![(3, 'c')]
            ]
        );
        assert_eq!(length_sorted_batches(Vec::<u8>::new(), 4, |_| 0).count(), 0);
    }
}
