//! Allocation audit for the mapping hot path. After warm-up,
//! `MappingEngine::map_read_with` and `BatchCounts::map_batch` make no heap
//! allocation per read, however many candidates the read seeds: the PWMs
//! and emission profiles, the reverse complement, the genome-code window,
//! the DP rows and planes, the candidate lists and the column arena all
//! live in a reused `AlignScratch`. A counting
//! `#[global_allocator]` wraps the system allocator; this lives in its own
//! integration-test binary, with one `#[test]`, so the hook and the
//! single-threaded counter cannot interfere with other tests.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// Only the measuring thread's allocations are counted: libtest spawns
// helper threads (output capture, timers) that may allocate mid-window,
// and a `Cell<bool>` TLS slot is const-initialized and destructor-free,
// so reading it inside the allocator cannot recurse.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn on_measuring_thread() -> bool {
    COUNTING.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_measuring_thread() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Read the counter, arming counting for the calling thread — the first
/// call opens the measurement window, the second closes it.
fn allocation_count() -> u64 {
    COUNTING.with(|c| c.set(true));
    ALLOC_CALLS.load(Ordering::Relaxed)
}

#[test]
fn map_read_allocations_do_not_grow_with_candidates() {
    use gnumap_core::mapping::{AlignScratch, MappingConfig, MappingEngine};
    use gnumap_core::pipeline::BatchCounts;

    let (genome, copies) = common::repeat_genome(91);
    let reads = common::reads(&genome, &copies, 64, 92);
    let engine = MappingEngine::new(&genome, MappingConfig::default());
    let mut scratch = AlignScratch::new();
    // Warm-up: grow every scratch buffer to the working-set size.
    for read in &reads {
        engine.map_read_with(read, &mut scratch);
    }

    // Allocations and scored candidates of each read in steady state.
    let mut per_read = Vec::new();
    for read in &reads {
        let before = allocation_count();
        engine.map_read_with(read, &mut scratch);
        let after = allocation_count();
        per_read.push((scratch.scored(), after - before));
    }

    let (fewest, most) = (
        per_read.iter().min_by_key(|r| r.0).unwrap(),
        per_read.iter().max_by_key(|r| r.0).unwrap(),
    );
    assert!(
        most.0 >= 10 * fewest.0.max(1),
        "fixture must span a wide candidate range: {fewest:?} vs {most:?}"
    );
    assert!(
        per_read.iter().all(|r| r.1 == 0),
        "map_read_with must not allocate in steady state \
         (scored candidates, allocations): {per_read:?}"
    );

    // The same reads in lockstep batches, once to warm the batch buffers.
    let mut batches = || {
        let mut columns = 0.0;
        for batch in reads.chunks(16) {
            BatchCounts::default().map_batch(
                &engine,
                batch,
                |read| read,
                &mut scratch,
                |_, _, weight, cols| columns += weight * cols.len() as f64,
            );
        }
        columns
    };
    let warm = batches();
    let before = allocation_count();
    let again = batches();
    let after = allocation_count();
    assert_eq!(warm, again);
    assert_eq!(
        after - before,
        0,
        "map_batch must not allocate in steady state"
    );
}
