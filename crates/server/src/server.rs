//! The daemon: acceptor, connection handlers, batcher, and worker pool.
//!
//! ```text
//!  clients ──► connection threads ──► ingress queue (bounded)
//!                                          │
//!                                      batcher: coalesce + length-sort
//!                                          │     (the pool's `schedule`)
//!                              bounded batch channel (4 × workers)
//!                                          │
//!                  exec::pool workers (AlignScratch each, one shared
//!                                          │         MappingEngine)
//!                              per-session PagedEvidence
//! ```
//!
//! Backpressure is a chain of bounded queues: a full batch channel
//! blocks the batcher, the ingress queue then fills, and further submits
//! are shed with a typed `Busy` after the admission timeout — memory use
//! is bounded at every stage and the server stays live under overload.
//!
//! The batcher runs the streaming driver's pool ([`exec::pool::run_pool`])
//! and cuts with the same helper
//! ([`exec::pool::length_sorted_batches`]): a stable sort of buffered
//! reads by length, cut into fixed-size micro-batches, so adjacent
//! Pair-HMM problems have similar dynamic-program shapes. The batcher
//! thread owns the server's one `MappingEngine` (and so its one
//! `KmerIndex`), which every worker borrows. Because every session's
//! `FixedAccumulator` deposit commutes bit-exactly, coalescing reads
//! across sessions changes nothing about each session's final digest.

use crate::metrics::{Metrics, StatsSnapshot};
use crate::protocol::{
    read_request, write_response, CallResult, ErrorKind, Incoming, ProtocolError, Request, Response,
};
use crate::queue::{BoundedQueue, PopOutcome, PushError};
use crate::session::{Registry, SessionState};
use exec::pool::{length_sorted_batches, run_pool, PoolWorker, SendError, Sender};
use genome::index::KmerIndex;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::config::GnumapConfig;
use gnumap_core::evidence::cache_zero_digests;
use gnumap_core::mapping::MappingEngine;
use gnumap_core::pipeline::BatchCounts;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads mapping reads.
    pub workers: usize,
    /// Reads per micro-batch.
    pub batch_size: usize,
    /// Ingress queue capacity, in submitted chunks.
    pub ingress_capacity: usize,
    /// How long a submit may wait for ingress space before `Busy`.
    pub submit_timeout: Duration,
    /// Finalize deadline when the frame says 0.
    pub default_deadline: Duration,
    /// How long a peer may stall mid-frame before the connection drops.
    pub frame_stall: Duration,
    /// Test hook: sleep this long per batch in every worker.
    pub worker_delay: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 2,
            batch_size: 32,
            ingress_capacity: 64,
            submit_timeout: Duration::from_secs(2),
            default_deadline: Duration::from_secs(30),
            frame_stall: Duration::from_secs(10),
            worker_delay: None,
        }
    }
}

impl ServerConfig {
    /// Reject a configuration the daemon cannot run: no workers, empty
    /// micro-batches or a zero-capacity ingress queue, each an
    /// [`io::ErrorKind::InvalidInput`] error naming the field.
    pub fn validate(&self) -> io::Result<()> {
        for (field, value) in [
            ("workers", self.workers),
            ("batch_size", self.batch_size),
            ("ingress_capacity", self.ingress_capacity),
        ] {
            if value == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("server config: {field} must be at least 1"),
                ));
            }
        }
        Ok(())
    }
}

/// One admitted `SubmitReads` chunk.
struct Chunk {
    session: Arc<SessionState>,
    reads: Vec<SequencedRead>,
    enqueued: Instant,
}

/// One read queued for mapping, remembering its session and admit time.
struct WorkItem {
    session: Arc<SessionState>,
    read: SequencedRead,
    enqueued: Instant,
}

/// State shared by every server thread.
struct Shared {
    reference: DnaSeq,
    base: GnumapConfig,
    cfg: ServerConfig,
    registry: Registry,
    metrics: Metrics,
    ingress: BoundedQueue<Chunk>,
    shutting_down: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        self.metrics.snapshot(
            self.registry.len(),
            self.ingress.len(),
            self.registry.evidence_gauge(),
        )
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Current counters, as a `Stats` frame would report them.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Reads processed so far by each worker, in worker order: how evenly
    /// the pool shares the work.
    pub fn worker_reads(&self) -> Vec<u64> {
        self.shared.metrics.worker_reads()
    }

    /// Begin a graceful drain: stop accepting connections and new work.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
    }

    /// Wait for the drain to finish: connections close, the batcher
    /// flushes its buffer, workers finish every queued batch.
    pub fn join(mut self) -> StatsSnapshot {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        loop {
            let handle = self.connections.lock().unwrap().pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        // All producers are gone: close ingress and let the batcher drain
        // it into the pool; the batcher thread returns once the workers
        // have drained the batch channel.
        self.shared.ingress.close();
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        self.shared.snapshot()
    }
}

/// Bind `addr` and start the daemon over `reference` with mapping
/// parameters from `base` (per-session frames choose calling parameters).
/// A `cfg` that fails [`ServerConfig::validate`] is returned as its
/// [`io::ErrorKind::InvalidInput`] error before anything is bound.
pub fn start(
    reference: DnaSeq,
    base: GnumapConfig,
    cfg: ServerConfig,
    addr: &str,
) -> io::Result<ServerHandle> {
    cfg.validate()?;
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let index = KmerIndex::build(&reference, base.mapping.index)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let genome_len = reference.len();
    let shared = Arc::new(Shared {
        reference,
        base,
        registry: Registry::new(genome_len),
        metrics: Metrics::new(cfg.workers),
        ingress: BoundedQueue::new(cfg.ingress_capacity),
        shutting_down: AtomicBool::new(false),
        addr: bound,
        cfg,
    });

    let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let batcher = {
        let shared = Arc::clone(&shared);
        thread::Builder::new()
            .name("gnumap-batcher".into())
            .spawn(move || {
                let engine =
                    MappingEngine::with_index(&shared.reference, index, shared.base.mapping);
                let pool = run_pool(
                    shared.cfg.workers,
                    |worker, batch| map_batch(&shared, &engine, worker, batch),
                    |batches| batcher_loop(&shared, batches),
                );
                for (worker, cpu) in pool.cpu_secs.into_iter().enumerate() {
                    shared.metrics.publish_worker_cpu(worker, cpu);
                }
            })?
    };

    let acceptor = {
        let shared = Arc::clone(&shared);
        let connections = Arc::clone(&connections);
        thread::Builder::new()
            .name("gnumap-acceptor".into())
            .spawn(move || acceptor_loop(listener, &shared, &connections))?
    };

    Ok(ServerHandle {
        shared,
        acceptor: Some(acceptor),
        batcher: Some(batcher),
        connections,
    })
}

fn acceptor_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    connections: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): refuse.
                    let mut s = stream;
                    let _ = write_response(
                        &mut s,
                        &Response::Error {
                            kind: ErrorKind::ShuttingDown,
                            message: "server is draining".into(),
                        },
                    );
                    break;
                }
                let shared = Arc::clone(shared);
                let handle = thread::Builder::new()
                    .name("gnumap-conn".into())
                    .spawn(move || connection_loop(stream, &shared));
                if let Ok(h) = handle {
                    connections.lock().unwrap().push(h);
                }
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// Serve one client connection until EOF, protocol error, or shutdown.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // A read timeout lets the loop poll the shutdown flag between frames
    // and bound mid-frame stalls.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut reader = stream.try_clone().expect("clone connection stream");
    let mut writer = stream;
    // Sessions opened on this connection; aborted if the client vanishes.
    let mut owned: Vec<u64> = Vec::new();

    loop {
        match read_request(&mut reader, Some(shared.cfg.frame_stall)) {
            Ok(Incoming::Idle) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    let _ = write_response(&mut writer, &Response::ShuttingDown);
                    break;
                }
            }
            Ok(Incoming::Eof) => break,
            Ok(Incoming::Frame(request)) => {
                let is_shutdown = matches!(request, Request::Shutdown);
                let response = handle_request(request, shared, &mut owned);
                if write_response(&mut writer, &response).is_err() {
                    break;
                }
                if is_shutdown {
                    break;
                }
            }
            Err(ProtocolError::Io(_)) => break,
            Err(err) => {
                // Typed decode failure: tell the client, then drop the
                // connection (framing is lost).
                let _ = write_response(
                    &mut writer,
                    &Response::Error {
                        kind: ErrorKind::Malformed,
                        message: err.to_string(),
                    },
                );
                break;
            }
        }
    }

    // Abort any session this connection still owns: un-finalized evidence
    // must not outlive its client (no accumulator leak).
    for id in owned {
        if let Some(session) = shared.registry.remove(id) {
            if session.abort() {
                shared
                    .metrics
                    .sessions_aborted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn error(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

fn handle_request(request: Request, shared: &Arc<Shared>, owned: &mut Vec<u64>) -> Response {
    match request {
        Request::OpenSession(cfg) => {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return error(ErrorKind::ShuttingDown, "server is draining");
            }
            let session = shared.registry.open(cfg.to_call_config());
            shared
                .metrics
                .sessions_opened
                .fetch_add(1, Ordering::Relaxed);
            owned.push(session.id);
            Response::SessionOpened {
                session: session.id,
            }
        }
        Request::SubmitReads { session, reads } => {
            let Some(state) = shared.registry.get(session) else {
                return error(ErrorKind::UnknownSession, format!("session {session}"));
            };
            let n = reads.len() as u64;
            if n == 0 {
                return Response::ReadsAccepted {
                    session,
                    accepted: 0,
                };
            }
            if !state.begin_submit(n) {
                return error(
                    ErrorKind::SessionClosed,
                    format!("session {session} is finalizing"),
                );
            }
            let chunk = Chunk {
                session: Arc::clone(&state),
                reads,
                enqueued: Instant::now(),
            };
            match shared
                .ingress
                .push_timeout(chunk, shared.cfg.submit_timeout)
            {
                Ok(()) => {
                    shared
                        .metrics
                        .reads_accepted
                        .fetch_add(n, Ordering::Relaxed);
                    shared.metrics.observe_ingress_depth(shared.ingress.len());
                    Response::ReadsAccepted {
                        session,
                        accepted: n as u32,
                    }
                }
                Err(PushError::Full(chunk)) => {
                    chunk.session.cancel_submit(n);
                    shared
                        .metrics
                        .busy_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    error(
                        ErrorKind::Busy,
                        format!(
                            "ingress queue full ({} chunks); retry later",
                            shared.cfg.ingress_capacity
                        ),
                    )
                }
                Err(PushError::Closed(chunk)) => {
                    chunk.session.cancel_submit(n);
                    error(ErrorKind::ShuttingDown, "server is draining")
                }
            }
        }
        Request::Finalize {
            session,
            deadline_ms,
        } => {
            let Some(state) = shared.registry.get(session) else {
                return error(ErrorKind::UnknownSession, format!("session {session}"));
            };
            state.close();
            let deadline = if deadline_ms == 0 {
                shared.cfg.default_deadline
            } else {
                Duration::from_millis(u64::from(deadline_ms))
            };
            if !state.wait_drained(deadline) {
                // The session stays registered (and closed): once its
                // in-flight reads drain, the client may retry finalize.
                shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
                return error(
                    ErrorKind::Timeout,
                    format!(
                        "session {session}: {} of {} reads still in flight after {deadline:?}",
                        state.reads_submitted() - state.reads_processed(),
                        state.reads_submitted()
                    ),
                );
            }
            let Some(mut evidence) = state.take_accumulator() else {
                return error(
                    ErrorKind::SessionClosed,
                    format!("session {session} already finalized"),
                );
            };
            // Both walk the allocated pages only; the empty pages' part
            // of the digest was cached when the batcher started.
            let digest = evidence.digest();
            let calls = evidence.call_snps(&shared.reference, &state.calling);
            drop(evidence);
            shared.registry.remove(session);
            owned.retain(|&id| id != session);
            Response::SnpCalls(CallResult {
                session,
                digest,
                reads_processed: state.reads_processed(),
                reads_mapped: state.reads_mapped(),
                calls,
            })
        }
        Request::Ping { nonce } => Response::Pong { nonce },
        Request::Stats => Response::StatsReport(shared.snapshot()),
        Request::Shutdown => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            // Wake the acceptor so it observes the flag.
            let _ = TcpStream::connect(shared.addr);
            Response::ShuttingDown
        }
    }
}

/// Coalesce ingress chunks into length-sorted micro-batches and send
/// them to the pool until ingress closes and the buffer is flushed.
fn batcher_loop(shared: &Arc<Shared>, batches: Sender<Vec<WorkItem>>) {
    // Off the start-up path (timed to the first `Pong`) and off the first
    // finalize: every session's digest looks its empty pages up here.
    cache_zero_digests(shared.reference.len());
    let batch_size = shared.cfg.batch_size;
    // Buffer enough to keep the pool busy without hoarding the backlog.
    let max_buffer = batch_size * shared.cfg.workers * 4;
    let mut buffer: Vec<WorkItem> = Vec::new();
    let mut closed = false;

    loop {
        // Fill the buffer: block briefly for the first chunk, then take
        // whatever else is already queued (opportunistic coalescing).
        // Reads left over from the last round are dispatched without
        // waiting: blocking for more input while holding them would idle
        // the workers and stall those reads' sessions for up to the whole
        // timeout.
        if !closed && buffer.len() < max_buffer {
            let wait = if buffer.is_empty() {
                Duration::from_millis(50)
            } else {
                Duration::ZERO
            };
            match shared.ingress.pop_timeout(wait) {
                PopOutcome::Item(chunk) => {
                    absorb(&mut buffer, chunk);
                    while buffer.len() < max_buffer {
                        match shared.ingress.try_pop() {
                            Some(chunk) => absorb(&mut buffer, chunk),
                            None => break,
                        }
                    }
                }
                PopOutcome::Empty => {}
                PopOutcome::Closed => closed = true,
            }
        }

        if buffer.is_empty() {
            if closed {
                break;
            }
            continue;
        }

        // One round: the oldest `workers × batch_size` buffered reads.
        let rest = buffer.split_off(buffer.len().min(batch_size * shared.cfg.workers));
        let round = std::mem::replace(&mut buffer, rest);
        for batch in length_sorted_batches(round, batch_size, |item| item.read.len()) {
            publish_batch_metrics(shared, &batch);
            // Blocking send: a full batch channel is the backpressure
            // that ultimately surfaces as `Busy` at admission. It fails
            // only if every worker has died; complete the reads so no
            // finalize waits on them.
            if let Err(SendError(batch)) = batches.send(batch) {
                for item in batch {
                    item.session.complete_read(false);
                }
                return;
            }
        }
    }
}

fn absorb(buffer: &mut Vec<WorkItem>, chunk: Chunk) {
    let Chunk {
        session,
        reads,
        enqueued,
    } = chunk;
    for read in reads {
        buffer.push(WorkItem {
            session: Arc::clone(&session),
            read,
            enqueued,
        });
    }
}

fn publish_batch_metrics(shared: &Arc<Shared>, batch: &[WorkItem]) {
    let mut session_ids: Vec<u64> = batch.iter().map(|i| i.session.id).collect();
    session_ids.sort_unstable();
    session_ids.dedup();
    shared
        .metrics
        .batches_dispatched
        .fetch_add(1, Ordering::Relaxed);
    shared
        .metrics
        .batch_reads
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    shared
        .metrics
        .batch_sessions
        .fetch_add(session_ids.len() as u64, Ordering::Relaxed);
    if session_ids.len() > 1 {
        shared
            .metrics
            .cross_session_batches
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// Map one batch on a pool worker and deposit evidence into each read's
/// session.
fn map_batch(
    shared: &Shared,
    engine: &MappingEngine<'_>,
    worker: &mut PoolWorker,
    batch: Vec<WorkItem>,
) {
    if let Some(delay) = shared.cfg.worker_delay {
        thread::sleep(delay);
    }
    let mut counts = BatchCounts::default();
    let mut mapped = vec![false; batch.len()];
    counts.map_batch(
        engine,
        &batch,
        |item| &item.read,
        &mut worker.scratch,
        |i, start, weight, cols| {
            mapped[i] = true;
            batch[i].session.deposit(start, weight, cols);
        },
    );
    // Count the reads before completing them: completing a session's last
    // read wakes `finalize`, and a `Stats` request right after it must
    // already see that read.
    shared.metrics.record_reads(worker.index, &counts);
    for (item, mapped) in batch.iter().zip(mapped) {
        shared
            .metrics
            .observe_latency_micros(item.enqueued.elapsed().as_micros() as u64);
        item.session.complete_read(mapped);
    }
    shared
        .metrics
        .publish_worker_cpu(worker.index, worker.cpu_secs());
}
