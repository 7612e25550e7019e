//! Session lifecycle, registry and paged session evidence.
//!
//! A session is the unit of isolation: each one owns a
//! [`SessionEvidence`] over the server's reference genome, so reads from
//! many sessions can share micro-batches and workers while their
//! evidence never mixes. `FixedAccumulator` deposits commute bit-exactly,
//! which is what lets batch composition, worker count, and scheduling
//! order vary without changing a session's final digest.
//!
//! A session's evidence is paged: a page of [`PAGE`] positions is
//! allocated on the first deposit into it, so a session holds what its
//! reads cover, not the genome. Finalize digests and calls over the
//! allocated pages only; both equal the dense accumulator's bit for bit.
//!
//! Lifecycle: `Open` (accepting submits) → `Finalizing` (closed to new
//! reads, waiting for in-flight reads to drain) → removed (calls
//! returned, or aborted on client disconnect). A finalize that times out
//! leaves the session closed but registered, so the client can retry.

use genome::seq::DnaSeq;
use gnumap_core::accum::{
    position_hash, zero_digest, FixedAccumulator, GenomeAccumulator, NUM_SYMBOLS,
};
use gnumap_core::pipeline::deposit;
use gnumap_core::snpcall::{call_snps_over, SnpCall, SnpCallConfig};
use pairhmm::marginal::ColumnPosterior;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Genome positions per evidence page: 1,024 positions of 40 B each is
/// a 40 KiB page. Fixed, not a knob: a 256-read panel session touches a
/// handful of pages.
pub const PAGE: usize = 1024;

/// One page slot of the table: empty until the first deposit into it.
type Slot = Mutex<Option<Box<FixedAccumulator>>>;

/// Table bytes per page slot, allocated or not: the part of a session's
/// evidence that grows with the genome (16 B per 1,024 positions).
pub const SLOT_BYTES: usize = std::mem::size_of::<Slot>();

const POISONED: &str = "a worker panicked while depositing into this page";

const ZERO: [f64; NUM_SYMBOLS] = [0.0; NUM_SYMBOLS];

/// Live and peak heap bytes of all session evidence on a server.
#[derive(Debug, Default)]
pub struct EvidenceGauge {
    live: AtomicU64,
    peak: AtomicU64,
}

impl EvidenceGauge {
    /// Heap bytes of all session evidence alive now.
    pub fn live(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// The most `live` has ever been.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn grow(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(&self, bytes: usize) {
        self.live.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

/// One session's evidence over a genome of `len` positions, paged: a
/// table of `ceil(len / PAGE)` slots, each holding a [`FixedAccumulator`]
/// of its page's positions once something is deposited there. Deposits
/// lock only the one or two pages their window overlaps. The heap it
/// holds is counted in an [`EvidenceGauge`] from creation to drop.
pub struct SessionEvidence {
    len: usize,
    pages: Box<[Slot]>,
    gauge: Arc<EvidenceGauge>,
}

impl SessionEvidence {
    /// Empty evidence over `len` positions, counted in `gauge`.
    pub fn new(len: usize, gauge: Arc<EvidenceGauge>) -> SessionEvidence {
        let pages: Box<[Slot]> = (0..len.div_ceil(PAGE)).map(|_| Mutex::new(None)).collect();
        gauge.grow(pages.len() * SLOT_BYTES);
        SessionEvidence { len, pages, gauge }
    }

    /// Deposit one alignment's weighted columns through
    /// [`gnumap_core::pipeline::deposit`], page by page, allocating a
    /// page on the first deposit into it. Columns past the genome end are
    /// clipped, as the dense accumulator clips them.
    pub fn deposit(&self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        let end = window_start.saturating_add(columns.len()).min(self.len);
        let mut pos = window_start;
        while pos < end {
            let page = pos / PAGE;
            let page_start = page * PAGE;
            let stop = end.min(page_start + PAGE);
            let mut slot = self.pages[page].lock().expect(POISONED);
            let acc = slot.get_or_insert_with(|| {
                let acc = Box::new(FixedAccumulator::new(PAGE.min(self.len - page_start)));
                self.gauge.grow(page_bytes(&acc));
                acc
            });
            deposit(
                &mut **acc,
                pos - page_start,
                weight,
                &columns[pos - window_start..stop - window_start],
            );
            drop(slot);
            pos = stop;
        }
    }

    /// Every position of every allocated page, in ascending order, with
    /// its decoded counts.
    fn held(&mut self) -> impl Iterator<Item = (usize, [f64; NUM_SYMBOLS])> + '_ {
        self.pages
            .iter_mut()
            .enumerate()
            .filter_map(|(page, slot)| {
                Some((page * PAGE, slot.get_mut().expect(POISONED).as_deref()?))
            })
            .flat_map(|(start, acc)| {
                (0..acc.len()).map(move |local| (start + local, acc.counts(local)))
            })
    }

    /// The dense accumulator's [`GenomeAccumulator::digest`], bit for
    /// bit, from the allocated pages alone: `zero` (which must be the
    /// [`zero_digest`] of the genome length) XOR, over each held position
    /// with evidence, `position_hash(pos, counts) ^ position_hash(pos, 0)`.
    pub fn digest(&mut self, zero: u64) -> u64 {
        self.held()
            .filter(|(_, counts)| *counts != ZERO)
            .fold(zero, |h, (pos, counts)| {
                h ^ position_hash(pos as u64, &counts) ^ position_hash(pos as u64, &ZERO)
            })
    }

    /// The dense accumulator's calls, exactly, from the allocated pages
    /// alone (see [`call_snps_over`] for why untouched positions may be
    /// left out).
    pub fn call_snps(&mut self, reference: &DnaSeq, config: &SnpCallConfig) -> Vec<SnpCall> {
        call_snps_over(self.held(), reference, config)
    }

    /// Heap bytes of the allocated pages: what the session's reads cost,
    /// independent of the genome length.
    pub fn page_heap_bytes(&self) -> usize {
        // A page poisoned mid-deposit still holds its allocation, and its
        // size is all that is read here.
        (self.pages.iter())
            .filter_map(|slot| {
                let slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                slot.as_deref().map(page_bytes)
            })
            .sum()
    }

    /// All heap bytes: the pages plus [`SLOT_BYTES`] per slot of the
    /// table.
    pub fn heap_bytes(&self) -> usize {
        self.pages.len() * SLOT_BYTES + self.page_heap_bytes()
    }
}

impl Drop for SessionEvidence {
    fn drop(&mut self) {
        self.gauge.shrink(self.heap_bytes());
    }
}

/// Heap bytes of one allocated page: its cells and its box.
fn page_bytes(acc: &FixedAccumulator) -> usize {
    std::mem::size_of::<FixedAccumulator>() + acc.heap_bytes()
}

struct Pending {
    in_flight: u64,
    closed: bool,
}

/// One live session: its evidence, calling config, and drain state.
pub struct SessionState {
    /// Wire-visible session id.
    pub id: u64,
    /// How this session's evidence will be tested at finalize.
    pub calling: SnpCallConfig,
    // `None` once the evidence has been taken (finalize) or dropped
    // (abort). Deposits through a read lock keep workers concurrent.
    evidence: RwLock<Option<SessionEvidence>>,
    pending: Mutex<Pending>,
    drained: Condvar,
    reads_submitted: AtomicU64,
    reads_processed: AtomicU64,
    reads_mapped: AtomicU64,
}

impl SessionState {
    fn new(id: u64, calling: SnpCallConfig, evidence: SessionEvidence) -> SessionState {
        SessionState {
            id,
            calling,
            evidence: RwLock::new(Some(evidence)),
            pending: Mutex::new(Pending {
                in_flight: 0,
                closed: false,
            }),
            drained: Condvar::new(),
            reads_submitted: AtomicU64::new(0),
            reads_processed: AtomicU64::new(0),
            reads_mapped: AtomicU64::new(0),
        }
    }

    /// Reserve `n` in-flight reads. Returns `false` if the session is
    /// closed (finalizing or aborted) — the caller must not enqueue.
    pub fn begin_submit(&self, n: u64) -> bool {
        let mut p = self.pending.lock().unwrap();
        if p.closed {
            return false;
        }
        p.in_flight += n;
        self.reads_submitted.fetch_add(n, Ordering::Relaxed);
        true
    }

    /// Roll back a reservation whose chunk was shed before enqueueing.
    pub fn cancel_submit(&self, n: u64) {
        let mut p = self.pending.lock().unwrap();
        p.in_flight -= n;
        self.reads_submitted.fetch_sub(n, Ordering::Relaxed);
        if p.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Deposit one alignment's weighted columns. A no-op after abort
    /// (the in-flight read still completes, its evidence just lands
    /// nowhere).
    pub fn deposit(&self, window_start: usize, weight: f64, columns: &[ColumnPosterior]) {
        if let Some(evidence) = self.evidence.read().unwrap().as_ref() {
            evidence.deposit(window_start, weight, columns);
        }
    }

    /// Mark one read fully processed.
    pub fn complete_read(&self, mapped: bool) {
        self.reads_processed.fetch_add(1, Ordering::Relaxed);
        if mapped {
            self.reads_mapped.fetch_add(1, Ordering::Relaxed);
        }
        let mut p = self.pending.lock().unwrap();
        p.in_flight -= 1;
        if p.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Close the session to new submits (idempotent).
    pub fn close(&self) {
        self.pending.lock().unwrap().closed = true;
    }

    /// Wait until every in-flight read has completed, up to `deadline`.
    /// Returns `false` on deadline expiry.
    pub fn wait_drained(&self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        let mut p = self.pending.lock().unwrap();
        while p.in_flight > 0 {
            let now = Instant::now();
            if now >= end {
                return false;
            }
            let (guard, _) = self.drained.wait_timeout(p, end - now).unwrap();
            p = guard;
        }
        true
    }

    /// Take the evidence for calling. `None` if already taken or
    /// aborted.
    pub fn take_accumulator(&self) -> Option<SessionEvidence> {
        self.evidence.write().unwrap().take()
    }

    /// Tear the session down without producing calls: close it and free
    /// the evidence immediately. Returns `true` if the evidence was still
    /// held (i.e. this abort actually reclaimed memory).
    pub fn abort(&self) -> bool {
        self.close();
        self.evidence.write().unwrap().take().is_some()
    }

    /// Reads submitted so far (admitted past ingress).
    pub fn reads_submitted(&self) -> u64 {
        self.reads_submitted.load(Ordering::Relaxed)
    }

    /// Reads fully processed so far.
    pub fn reads_processed(&self) -> u64 {
        self.reads_processed.load(Ordering::Relaxed)
    }

    /// Processed reads that mapped.
    pub fn reads_mapped(&self) -> u64 {
        self.reads_mapped.load(Ordering::Relaxed)
    }
}

/// The table of live sessions.
pub struct Registry {
    sessions: Mutex<HashMap<u64, Arc<SessionState>>>,
    next_id: AtomicU64,
    genome_len: usize,
    gauge: Arc<EvidenceGauge>,
    zero_digest: OnceLock<u64>,
}

impl Registry {
    /// A registry for sessions over a genome of `genome_len` positions.
    pub fn new(genome_len: usize) -> Registry {
        Registry {
            sessions: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            genome_len,
            gauge: Arc::default(),
            zero_digest: OnceLock::new(),
        }
    }

    /// Open a new session.
    pub fn open(&self, calling: SnpCallConfig) -> Arc<SessionState> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let evidence = SessionEvidence::new(self.genome_len, Arc::clone(&self.gauge));
        let session = Arc::new(SessionState::new(id, calling, evidence));
        self.sessions
            .lock()
            .unwrap()
            .insert(id, Arc::clone(&session));
        session
    }

    /// Look up a live session.
    pub fn get(&self, id: u64) -> Option<Arc<SessionState>> {
        self.sessions.lock().unwrap().get(&id).cloned()
    }

    /// Remove a session from the table (its `Arc` may outlive this while
    /// in-flight reads finish).
    pub fn remove(&self, id: u64) -> Option<Arc<SessionState>> {
        self.sessions.lock().unwrap().remove(&id)
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    /// Whether no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap held by the evidence of every live session.
    pub fn evidence_gauge(&self) -> &EvidenceGauge {
        &self.gauge
    }

    /// [`zero_digest`] of the genome, computed on the first call (the
    /// first finalize) rather than at server start.
    pub fn zero_digest(&self) -> u64 {
        *self
            .zero_digest
            .get_or_init(|| zero_digest(self.genome_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn registry() -> Registry {
        Registry::new(100)
    }

    #[test]
    fn lifecycle_open_submit_drain_take() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(3));
        assert!(!s.wait_drained(Duration::from_millis(10)));
        s.complete_read(true);
        s.complete_read(false);
        s.complete_read(true);
        assert!(s.wait_drained(Duration::from_millis(10)));
        assert_eq!(s.reads_processed(), 3);
        assert_eq!(s.reads_mapped(), 2);
        s.close();
        assert!(!s.begin_submit(1), "closed session must refuse submits");
        assert!(s.take_accumulator().is_some());
        assert!(s.take_accumulator().is_none(), "second take must fail");
    }

    fn columns(n: usize) -> Vec<ColumnPosterior> {
        let col = ColumnPosterior {
            probs: [0.7, 0.1, 0.1, 0.05, 0.05],
        };
        vec![col; n]
    }

    #[test]
    fn page_heap_follows_the_reads_not_the_genome() {
        // Windows in page 0, across the page 0/1 boundary, in page 146
        // and in page 68: four pages, in any genome long enough.
        let deposits = [(5, 62), (1020, 62), (150_000, 62), (70_001, 30)];
        let page = std::mem::size_of::<FixedAccumulator>() + PAGE * NUM_SYMBOLS * 8;
        let mut page_heaps = Vec::new();
        for len in [200_000, 20_000_000] {
            let gauge = Arc::new(EvidenceGauge::default());
            let evidence = SessionEvidence::new(len, Arc::clone(&gauge));
            for (start, n) in deposits {
                evidence.deposit(start, 0.5, &columns(n));
            }
            page_heaps.push(evidence.page_heap_bytes());
            assert_eq!(evidence.page_heap_bytes(), 4 * page);
            let table = len.div_ceil(PAGE) * SLOT_BYTES;
            assert_eq!(evidence.heap_bytes(), table + 4 * page, "len {len}");
            assert_eq!(gauge.live(), evidence.heap_bytes() as u64);
            drop(evidence);
            assert_eq!(gauge.live(), 0, "dropped evidence is uncounted");
            assert_eq!(gauge.peak(), (table + 4 * page) as u64);
        }
        assert_eq!(page_heaps[0], page_heaps[1]);
        assert_eq!(SLOT_BYTES, 16, "the documented cost of a slot");
    }

    #[test]
    fn deposit_after_abort_is_a_noop() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(1));
        s.deposit(0, 1.0, &columns(3));
        assert!(reg.evidence_gauge().live() > 0);
        assert!(s.abort());
        assert_eq!(reg.evidence_gauge().live(), 0, "abort frees the evidence");
        // A worker still holding the read finishes harmlessly.
        let col = ColumnPosterior {
            probs: [1.0, 0.0, 0.0, 0.0, 0.0],
        };
        s.deposit(0, 1.0, &[col]);
        s.complete_read(true);
        assert!(s.wait_drained(Duration::from_millis(10)));
        assert!(!s.abort(), "second abort reclaims nothing");
    }

    #[test]
    fn drain_wakes_blocked_waiter() {
        let reg = registry();
        let s = reg.open(SnpCallConfig::default());
        assert!(s.begin_submit(1));
        let s2 = Arc::clone(&s);
        let waiter = thread::spawn(move || s2.wait_drained(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        s.complete_read(true);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn registry_tracks_sessions() {
        let reg = registry();
        let a = reg.open(SnpCallConfig::default());
        let b = reg.open(SnpCallConfig::default());
        assert_ne!(a.id, b.id);
        assert_eq!(reg.len(), 2);
        assert!(reg.get(a.id).is_some());
        assert!(reg.remove(a.id).is_some());
        assert!(reg.get(a.id).is_none());
        assert_eq!(reg.len(), 1);
        assert!(reg.remove(a.id).is_none());
    }
}
