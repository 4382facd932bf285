//! Counting-allocator check of the crossbar simulator's allocation
//! contract: building a simulator costs a fixed number of allocations,
//! and once the circuit slab and the calendar have grown to their
//! working size no event allocates, so a run allocates the same whatever
//! its length.
//!
//! The whole file is one `#[test]`: the counting `#[global_allocator]` is
//! process-wide. Counts are per thread, so the test harness's own thread
//! cannot add to them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use xbar_sim::{CrossbarSim, FaultConfig, RunConfig, SimConfig};
use xbar_traffic::TrafficClass;

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
fn building_costs_a_fixed_count_and_events_allocate_nothing() {
    // The replicated-CI benchmark's switch: a 16×16 crossbar with an
    // a = 2 class and ports that fail and get repaired.
    let cfg = SimConfig::new(16, 16)
        .with_exp_class(TrafficClass::poisson(2.0 / 256.0))
        .with_exp_class(TrafficClass::bpp(0.6 / 256.0, 0.4 / 256.0, 1.0))
        .with_exp_class(TrafficClass::poisson(0.8 / 57_600.0).with_bandwidth(2))
        .with_faults(FaultConfig::from_mtbf_mttr(200.0, 10.0));
    let copy = cfg.clone();
    let mut sim = None;
    let build = allocations(|| sim = CrossbarSim::try_new(copy, 7).ok());
    // Port owners, failed-port flags (two each), class counts, tuple
    // counts, resident rates and availabilities.
    assert_eq!(build, 8);
    let mut sim = sim.expect("valid config");

    let run = |duration: f64| RunConfig {
        warmup: 0.0,
        duration,
        batches: 10,
    };
    // Grow the slab and the calendar to their working size.
    sim.run(run(20_000.0));
    let short = allocations(|| {
        sim.run(run(1_000.0));
    });
    let long = allocations(|| {
        sim.run(run(8_000.0));
    });
    assert_eq!(short, long, "allocations grew with the run's length");
}
