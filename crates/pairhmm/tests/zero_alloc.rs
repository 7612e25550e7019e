//! Steady-state allocation audit for the fused scratch kernel.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after one
//! warmup alignment per configuration, repeated `forward_totals` (with
//! and without an early stop that fires) / `posterior_columns_profiled` /
//! `posterior_columns_lanes` (reading every lane's columns back) /
//! `posterior_columns` calls on a reused [`pairhmm::PhmmScratch`] (and
//! refilling a reused emission profile) must perform **zero** heap
//! allocations — the core promise of the scratch-arena design. This lives in its own integration-test binary so
//! the global allocator hook and the single-threaded counter discipline
//! (one `#[test]` only) cannot interfere with other tests.

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

/// Three lane chunks: band 4, the full table, and band 4 under a stop rule
/// that fires at the first check. Returns a value to keep observable.
fn lane_chunks(
    scratch: &mut pairhmm::PhmmScratch,
    profile: &[pairhmm::pwm::ProfileRow],
    suffix: &[f64],
    codes: &[[u8; pairhmm::kernel::LANES]],
    params: &pairhmm::params::PhmmParams,
) -> f64 {
    use pairhmm::bound::{LaneTotals, StopRule};
    use pairhmm::kernel::LANES;
    let stop = StopRule {
        suffix: [suffix; LANES],
        below: f64::INFINITY,
    };
    [(Some(4), None), (None, None), (Some(4), Some(stop))]
        .into_iter()
        .map(|(band, stop)| {
            match scratch.forward_totals([profile; LANES], codes, params, band, stop) {
                LaneTotals::Exact(v) | LaneTotals::Abandoned(v) => v[0],
            }
        })
        .sum()
}

/// One lane posterior chunk at band 4 and one over the full table, each
/// lane's columns read back. Returns a value to keep observable.
fn lane_posteriors(
    scratch: &mut pairhmm::PhmmScratch,
    pwm: &pairhmm::Pwm,
    profile: &[pairhmm::pwm::ProfileRow],
    codes: &[[u8; pairhmm::kernel::LANES]],
    params: &pairhmm::params::PhmmParams,
) -> f64 {
    use pairhmm::kernel::LANES;
    let mut sum = 0.0;
    for band in [Some(4), None] {
        let totals =
            scratch.posterior_columns_lanes([pwm; LANES], [profile; LANES], codes, params, band);
        sum += totals.iter().sum::<f64>();
        for lane in 0..LANES {
            sum += scratch.lane_columns(lane).map(|c| c.probs[0]).sum::<f64>();
        }
    }
    sum
}

#[test]
fn fused_kernel_is_allocation_free_in_steady_state() {
    use genome::alphabet::BASES;
    use pairhmm::bound::fill_suffix_bounds;
    use pairhmm::kernel::LANES;
    use pairhmm::params::PhmmParams;
    use pairhmm::pwm::{base_code, Pwm};
    use pairhmm::PhmmScratch;

    let params = PhmmParams::default();
    // Deterministic 62-bp read/window pair (paper read length), built
    // before any counting so its allocations are irrelevant.
    let n = 62usize;
    let rows: Vec<[f64; 4]> = (0..n)
        .map(|i| {
            let mut row = [0.02f64; 4];
            row[i % 4] = 0.94;
            row
        })
        .collect();
    let pwm = Pwm::from_rows(rows);
    let window: Vec<_> = (0..n).map(|j| Some(BASES[(j * 7 + 3) % 4])).collect();

    let codes: Vec<u8> = window.iter().map(|&y| base_code(y)).collect();
    // The same window in every lane but the last, which reads it reversed.
    let lane_codes: Vec<[u8; LANES]> = codes
        .iter()
        .zip(codes.iter().rev())
        .map(|(&c, &r)| {
            let mut lanes = [c; LANES];
            lanes[LANES - 1] = r;
            lanes
        })
        .collect();

    let mut scratch = PhmmScratch::new();
    let mut profile = Vec::new();
    let mut suffix = Vec::new();
    let mut sink = 0.0f64;

    // Warmup: grow every buffer for each configuration exercised below.
    pwm.fill_profile(&params, &mut profile);
    fill_suffix_bounds(&profile, params.q, &mut suffix);
    sink += lane_chunks(&mut scratch, &profile, &suffix, &lane_codes, &params);
    sink += scratch.posterior_columns_profiled(&pwm, &profile, &codes, &params, Some(4));
    sink += lane_posteriors(&mut scratch, &pwm, &profile, &lane_codes, &params);
    sink += scratch.posterior_columns(&pwm, &window, &params, None);
    sink += scratch.posterior_columns(&pwm, &window, &params, Some(4));

    let before = allocation_count();
    for _ in 0..100 {
        pwm.fill_profile(&params, &mut profile);
        fill_suffix_bounds(&profile, params.q, &mut suffix);
        sink += lane_chunks(&mut scratch, &profile, &suffix, &lane_codes, &params);
        sink += scratch.posterior_columns_profiled(&pwm, &profile, &codes, &params, Some(4));
        sink += lane_posteriors(&mut scratch, &pwm, &profile, &lane_codes, &params);
        sink += scratch.posterior_columns(&pwm, &window, &params, None);
        sink += scratch.posterior_columns(&pwm, &window, &params, Some(4));
        sink += scratch.columns()[0].probs[0];
    }
    let after = allocation_count();

    assert!(sink.is_finite(), "keep the computation observable");
    assert_eq!(
        after - before,
        0,
        "steady-state scratch alignments must not allocate \
         ({} allocations over 300 alignments, 300 lane chunks and 200 lane \
         posteriors)",
        after - before
    );
}
