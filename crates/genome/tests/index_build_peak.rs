//! Peak-memory audit for building the k-mer index when `p = k`.
//!
//! A `#[global_allocator]` wraps the system allocator and tracks the bytes
//! the measuring thread holds live. Building the index over a genome large
//! enough that the directory is addressed by the whole k-mer (`p = k`, as
//! on the 1 Mbp production reference at k = 10) must never hold more than
//! the finished index: no transient `(k-mer, position)` buffer and no
//! growth-by-doubling of the key and offset arrays. Transient buffers of
//! that size leave multi-MiB holes in the allocator's heap, and whether the
//! next allocation reuses a hole or maps fresh pages moves the process's
//! peak resident set from run to run. This lives in its own integration-test
//! binary so the allocator hook cannot interfere with other tests.

use genome::alphabet::Base;
use genome::index::{IndexConfig, KmerIndex};
use genome::seq::DnaSeq;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Only the measuring thread's allocations are tracked: libtest spawns
// helper threads that may allocate mid-window, and a `Cell<bool>` TLS slot
// is const-initialized and destructor-free, so reading it inside the
// allocator cannot recurse.
thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
}

fn grow(bytes: usize) {
    if TRACKING.with(|t| t.get()) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrink(bytes: usize) {
    if TRACKING.with(|t| t.get()) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size <= layout.size() {
            // Shrinking stays in place.
            shrink(layout.size() - new_size);
            return unsafe { System.realloc(ptr, layout, new_size) };
        }
        // Growing may move, holding both blocks at once.
        grow(new_size);
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        shrink(layout.size());
        out
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static TRACKER: PeakAlloc = PeakAlloc;

#[test]
fn building_at_p_equal_k_holds_no_more_than_the_index() {
    // 300 kbp: more than 4^9 window starts, so p = k = 10.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
    let genome = DnaSeq::from_bases((0..300_000).map(|_| Base::from_index(rng.random_range(0..4))));
    // A cutoff low enough to mask some k-mers, so the in-place compaction
    // runs, and the production one.
    for max_occurrences in [1, 1024] {
        let config = IndexConfig {
            max_occurrences,
            ..IndexConfig::default()
        };
        LIVE.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        TRACKING.with(|t| t.set(true));
        let index = KmerIndex::build(&genome, config).unwrap();
        TRACKING.with(|t| t.set(false));
        let peak = PEAK.load(Ordering::Relaxed);
        // Every position is written before the cutoff drops any, so a
        // masking build may hold the sampled hits rather than the retained
        // ones for a moment.
        let dropped = 300_000 - 9 - index.total_positions();
        let bound = index.heap_bytes() + dropped * std::mem::size_of::<u32>();
        assert!(
            peak <= bound,
            "max_occurrences {max_occurrences}: build held {peak} bytes, index needs {bound}"
        );
        if max_occurrences == 1 {
            assert!(index.masked_kmers() > 0);
        }
    }
}
