//! Paged evidence: the one store every driver but the MPI pair deposits
//! into.
//!
//! The serial driver holds one [`PagedEvidence`] over the reference for a
//! run, in whichever accumulator layout it runs; the stream driver holds
//! one in fixed point; the server holds one per client session. The
//! genome is cut into pages of [`PAGE`] positions, each behind its own
//! lock and allocated on the first deposit into it (or all at once, by
//! [`PagedEvidence::allocate_all`]), so a deposit locks only the one or
//! two pages its window overlaps, there is no end-of-run merge, and a run
//! holds what its reads cover rather than the genome. Digest and calls
//! read the allocated pages in place and equal the dense accumulator's
//! bit for bit.

use crate::accum::{zero_digest, FixedAccumulator, GenomeAccumulator, NUM_SYMBOLS};
use crate::pipeline::deposit;
use crate::snpcall::{call_snps_over, SnpCall, SnpCallConfig};
use genome::seq::DnaSeq;
use pairhmm::marginal::ColumnPosterior;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Genome positions per evidence page: 40 KiB in fixed point, 20 KiB in
/// NORM. Fixed, not a knob: a 256-read panel session touches a handful
/// of pages, and a whole-genome run fills nearly all of them.
pub const PAGE: usize = 1024;

/// One page slot of the table: empty until the first deposit into it.
type Slot<A> = Mutex<Option<Box<A>>>;

/// Table bytes per page slot, allocated or not, in every layout: the part
/// of the store that grows with the genome (16 B per 1,024 positions).
pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<FixedAccumulator>>();

const POISONED: &str = "a worker panicked while depositing into this page";

const ZERO: [f64; NUM_SYMBOLS] = [0.0; NUM_SYMBOLS];

/// [`zero_digest`] of every whole page, by page index. A zero digest
/// depends on the positions alone, so one table serves every store in
/// the process: it grows to the longest genome digested, at 8 B a page,
/// and an empty page costs a digest one lookup instead of 1,024 hashes.
static ZERO_PAGES: RwLock<Vec<u64>> = RwLock::new(Vec::new());

/// Run `f` on [`ZERO_PAGES`], first grown to at least `pages` entries.
fn with_zero_pages<R>(pages: usize, f: impl FnOnce(&[u64]) -> R) -> R {
    // Every push leaves the table right, so a poisoned lock's table is
    // still usable.
    let table = ZERO_PAGES.read().unwrap_or_else(PoisonError::into_inner);
    if table.len() >= pages {
        return f(&table);
    }
    drop(table);
    let mut table = ZERO_PAGES.write().unwrap_or_else(PoisonError::into_inner);
    for page in table.len()..pages {
        table.push(zero_digest(page * PAGE..(page + 1) * PAGE));
    }
    f(&table)
}

/// Compute the zero digests of the whole pages of a genome of `len`
/// positions now, so that no later [`PagedEvidence::digest`] over it
/// hashes an empty page (a server does this once, after it starts).
pub fn cache_zero_digests(len: usize) {
    with_zero_pages(len / PAGE, |_| ());
}

/// Live and peak heap bytes of every [`PagedEvidence`] counted in it.
#[derive(Debug, Default)]
pub struct EvidenceGauge {
    live: AtomicU64,
    peak: AtomicU64,
}

impl EvidenceGauge {
    /// Heap bytes of all evidence alive now.
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

/// Evidence over a genome of `len` positions, paged: a table of
/// `ceil(len / PAGE)` slots, each holding an accumulator `A` over its
/// page's positions (`A::new(page_len)`) once something is deposited
/// there. Deposits lock only the one or two pages their window overlaps.
/// The heap it holds is counted in an [`EvidenceGauge`] from creation to
/// drop.
pub struct PagedEvidence<A: GenomeAccumulator> {
    len: usize,
    pages: Box<[Slot<A>]>,
    gauge: Arc<EvidenceGauge>,
}

impl<A: GenomeAccumulator> PagedEvidence<A> {
    /// Empty evidence over `len` positions, counted in `gauge`.
    pub fn new(len: usize, gauge: Arc<EvidenceGauge>) -> PagedEvidence<A> {
        let pages: Box<[Slot<A>]> = (0..len.div_ceil(PAGE)).map(|_| Mutex::new(None)).collect();
        gauge.grow(pages.len() * SLOT_BYTES);
        PagedEvidence { len, pages, gauge }
    }

    /// Positions in page `page` (the last page may be short).
    fn page_len(&self, page: usize) -> usize {
        PAGE.min(self.len - page * PAGE)
    }

    /// The accumulator of page `page`, allocated on first use.
    fn page<'s>(&self, slot: &'s mut Option<Box<A>>, page: usize) -> &'s mut A {
        slot.get_or_insert_with(|| {
            let acc = Box::new(A::new(self.page_len(page)));
            self.gauge.grow(page_bytes(&*acc));
            acc
        })
    }

    /// Allocate every page now, on the calling thread. A caller whose
    /// reads cover the genome allocates every page anyway; allocating
    /// them up front keeps them out of short-lived worker threads,
    /// whose malloc arenas keep freed pages where the next run's
    /// workers may not reuse them.
    pub fn allocate_all(&self) {
        for (page, slot) in self.pages.iter().enumerate() {
            self.page(&mut slot.lock().expect(POISONED), page);
        }
    }

    /// Deposit one alignment's weighted columns through
    /// [`crate::pipeline::deposit`], page by page, allocating a
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
            deposit(
                self.page(&mut slot, page),
                pos - page_start,
                weight,
                &columns[pos - window_start..stop - window_start],
            );
            drop(slot);
            pos = stop;
        }
    }

    /// Decoded counts for every position, zeros for pages never
    /// allocated (a checkpoint's snapshot). Callers must ensure no
    /// concurrent deposits if a globally consistent snapshot is required.
    pub fn snapshot_counts(&self) -> Vec<[f64; NUM_SYMBOLS]> {
        let mut out = Vec::with_capacity(self.len);
        for (page, slot) in self.pages.iter().enumerate() {
            let n = self.page_len(page);
            match slot.lock().expect(POISONED).as_deref() {
                Some(acc) => out.extend((0..n).map(|local| acc.counts(local))),
                None => out.resize(out.len() + n, ZERO),
            }
        }
        out
    }

    /// Load a genome-length snapshot back (checkpoint resume), allocating
    /// only the pages that hold non-zero counts. The evidence must be
    /// freshly created (all zero).
    pub fn load_counts(&self, counts: &[[f64; NUM_SYMBOLS]]) {
        assert_eq!(counts.len(), self.len, "snapshot length mismatch");
        for (page, chunk) in counts.chunks(PAGE).enumerate() {
            if chunk.iter().all(|c| *c == ZERO) {
                continue;
            }
            let mut slot = self.pages[page].lock().expect(POISONED);
            let acc = self.page(&mut slot, page);
            for (local, c) in chunk.iter().enumerate() {
                acc.add(local, c);
            }
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
    /// bit: the XOR of each allocated page's digest at its offset, one
    /// hash per position it holds, and of the cached [`zero_digest`] of
    /// each page never allocated. Only a short last page left empty is
    /// hashed here, at most `PAGE - 1` zero positions.
    pub fn digest(&mut self) -> u64 {
        let mut digest = 0;
        let mut empty_pages = false;
        for (page, slot) in self.pages.iter_mut().enumerate() {
            match slot.get_mut().expect(POISONED) {
                Some(acc) => digest ^= acc.digest_with_offset(page * PAGE),
                None => empty_pages = true,
            }
        }
        if !empty_pages {
            return digest;
        }
        let whole = self.len / PAGE;
        with_zero_pages(whole, |zero| {
            for (page, slot) in self.pages.iter_mut().enumerate() {
                if slot.get_mut().expect(POISONED).is_none() {
                    digest ^= if page < whole {
                        zero[page]
                    } else {
                        zero_digest(page * PAGE..self.len)
                    };
                }
            }
        });
        digest
    }

    /// The dense accumulator's calls, exactly, from the allocated pages
    /// alone (see [`call_snps_over`] for why untouched positions may be
    /// left out).
    pub fn call_snps(&mut self, reference: &DnaSeq, config: &SnpCallConfig) -> Vec<SnpCall> {
        call_snps_over(self.held(), reference, config)
    }

    /// Heap bytes of the allocated pages: what the reads cost,
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

impl<A: GenomeAccumulator> Drop for PagedEvidence<A> {
    fn drop(&mut self) {
        self.gauge.shrink(self.heap_bytes());
    }
}

/// Heap bytes of one allocated page: its cells and its box.
fn page_bytes<A: GenomeAccumulator>(acc: &A) -> usize {
    std::mem::size_of::<A>() + acc.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

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
            let evidence = PagedEvidence::<FixedAccumulator>::new(len, Arc::clone(&gauge));
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
    fn concurrent_deposits_equal_serial_deposits() {
        // Five pages; windows of 300 positions that often straddle a page.
        let len = 5 * PAGE - 7;
        let start = |t: usize, rep: usize| (t * 811 + rep * 173) % len;
        let cols = columns(300);
        let mut evidence = PagedEvidence::<FixedAccumulator>::new(len, Arc::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let (evidence, cols) = (&evidence, &cols);
                s.spawn(move || {
                    for rep in 0..50 {
                        evidence.deposit(start(t, rep), 0.5, cols);
                    }
                });
            }
        });
        let mut serial = FixedAccumulator::new(len);
        for t in 0..4 {
            for rep in 0..50 {
                deposit(&mut serial, start(t, rep), 0.5, &cols);
            }
        }
        let dense: Vec<_> = (0..len).map(|pos| serial.counts(pos)).collect();
        assert_eq!(evidence.snapshot_counts(), dense);
        assert_eq!(evidence.digest(), serial.digest());
    }
}
