//! The wavefront auto-gate must account for per-worker diagonal width.
//!
//! BENCH_6 exposed a regression: at `N = 128` the auto path engaged 4
//! threads whose per-diagonal barrier cost 1.7× the serial sweep. The
//! retuned gate grants one worker per [`xbar_core::alg1::PAR_MIN_DIM`]
//! cells of the longest diagonal, so `N = 128` (width 129) stays
//! serial and `N = 512` (width 513) gets up to 5 workers.

use std::sync::Arc;

use xbar_core::{parallel, solve, Algorithm, Dims, Model};
use xbar_traffic::{TildeClass, Workload};

fn fig2_model(n: u32) -> Model {
    let workload = Workload::from_tilde(&[TildeClass::bpp(0.0024, 1.2e-3, 1.0)], n);
    Model::new(Dims::square(n), workload).expect("valid model")
}

/// Which schedule the automatic resolution picks, observed through the
/// sweep-mode markers.
fn auto_schedule(n: u32, threads: usize) -> (Option<u64>, Option<u64>) {
    let reg = Arc::new(xbar_obs::Registry::new());
    {
        let _g = xbar_obs::scope(&reg);
        parallel::with_threads(threads, || {
            solve(&fig2_model(n), Algorithm::Alg1Scaled).expect("solvable")
        });
    }
    let snap = reg.snapshot();
    (
        snap.counter("alg1.sweep.serial"),
        snap.counter("alg1.sweep.parallel"),
    )
}

#[test]
fn auto_gate_keeps_n128_serial_even_with_threads() {
    // Width 129 < 2 × PAR_MIN_DIM: no second worker can own a full
    // quantum, so the auto path must stay serial regardless of the
    // configured thread count — this is the deterministic core of the
    // BENCH_6 `128/t4` regression fix.
    for threads in [2, 4, 16] {
        let (serial, parallel_marker) = auto_schedule(128, threads);
        assert_eq!(serial, Some(1), "threads={threads}");
        assert_eq!(parallel_marker, None, "threads={threads}");
    }
}

#[test]
fn auto_gate_engages_on_wide_lattices() {
    // Width 257 ≥ 2 × PAR_MIN_DIM: two workers each own ≥ 96 cells.
    let (serial, parallel_marker) = auto_schedule(256, 4);
    assert_eq!(serial, None);
    assert_eq!(parallel_marker, Some(1));
}

#[test]
fn n128_full_solve_no_slower_with_four_threads() {
    // The BENCH_6 regression, checked by the property that makes 4
    // configured threads cost what 1 does at N = 128: the Auto solve
    // runs the identical serial sweep over the identical cells, and the
    // result is bit-identical. (A wall-clock comparison belongs in a
    // benchmark, not in tier-1.)
    let model = fig2_model(128);
    let run = |threads: usize| {
        let reg = Arc::new(xbar_obs::Registry::new());
        let blocking = {
            let _g = xbar_obs::scope(&reg);
            parallel::with_threads(threads, || {
                solve(&model, Algorithm::Auto)
                    .expect("solvable")
                    .blocking(0)
            })
        };
        let snap = reg.snapshot();
        (
            snap.counter("alg1.sweep.serial"),
            snap.counter("alg1.sweep.parallel"),
            snap.counter("alg1.cells"),
            blocking.to_bits(),
        )
    };
    let (serial1, parallel1, cells1, bits1) = run(1);
    let (serial4, parallel4, cells4, bits4) = run(4);
    assert!(serial1.is_some(), "the N = 128 Auto solve sweeps a lattice");
    assert_eq!(serial4, serial1, "alg1.sweep.serial");
    assert_eq!(parallel4, None, "alg1.sweep.parallel at 4 threads");
    assert_eq!(parallel1, None, "alg1.sweep.parallel at 1 thread");
    assert_eq!(cells4, cells1, "alg1.cells");
    assert_eq!(bits4, bits1, "blocking must be bit-identical");
}
