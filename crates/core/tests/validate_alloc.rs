//! Counting-allocator check of the measure guards: a passing
//! `SwitchMeasures::validate` allocates nothing (every solve runs it),
//! and a failing one still names the quantity and class it rejected.
//!
//! The counting `#[global_allocator]` is process-wide, so this file
//! holds one `#[test]`. Counts are per thread, so the test harness's own
//! thread cannot add to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xbar_core::{solve, Algorithm, Dims, Model};
use xbar_traffic::{TrafficClass, Workload};

/// [`System`] plus a per-thread count of allocations and reallocations.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the count touches only
// a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn passing_guards_allocate_nothing_and_a_failure_names_its_class() {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.3))
        .with(TrafficClass::bpp(0.2, 0.1, 1.0))
        .with(TrafficClass::poisson(0.05).with_bandwidth(2));
    let model = Model::new(Dims::square(16), w).unwrap();
    let measures = solve(&model, Algorithm::Auto).unwrap().measures().clone();

    let mut ok = None;
    assert_eq!(allocations(|| ok = Some(measures.validate())), 0);
    assert_eq!(ok, Some(Ok(())));

    // The first failing guard, in guard order, is the one reported.
    let mut bad = measures.clone();
    bad.classes[1].concurrency = -1.0;
    bad.classes[2].nonblocking = f64::NAN;
    let err = bad.validate().unwrap_err();
    assert_eq!(err.to_string(), "concurrency[1] is below range (-1)");
    bad.classes[1].call_acceptance = 1.5;
    let err = bad.validate().unwrap_err();
    assert_eq!(err.to_string(), "call_acceptance[1] is above range (1.5)");
    bad.revenue = f64::INFINITY;
    bad.classes.truncate(1);
    let err = bad.validate().unwrap_err();
    assert_eq!(err.to_string(), "revenue is not finite (inf)");
}
