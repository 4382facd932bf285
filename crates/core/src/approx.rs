//! Reduced-load (Erlang fixed-point) approximation — the classical cheap
//! estimate the exact algorithms should be judged against.
//!
//! Before product-form solutions, switch blocking was (and for big
//! networks still is) estimated by pretending each port blocks
//! independently: a class-`r` request needs its `a_r` inputs and `a_r`
//! outputs simultaneously idle, so
//!
//! ```text
//! B_r ≈ (1 − u1)^{a_r} · (1 − u2)^{a_r},
//! u1 = Σ_r a_r·E_r / N1,    u2 = Σ_r a_r·E_r / N2,
//! E_r = P(N1,a_r)·P(N2,a_r)·(α_r + β_r·E_r)·B_r / μ_r,
//! ```
//!
//! iterated (with damping) to a fixed point. The `α + β·E` term carries
//! the BPP state dependence at mean-field level. The approximation is
//! `O(R)` per iteration and size-independent — the price is that it knows
//! nothing about port-occupancy *correlations*, which is precisely what
//! the paper's exact analysis adds. The `approximation` experiment
//! quantifies the resulting error across load and switch size.

use xbar_numeric::permutation;

use crate::model::Model;

/// Result of the fixed-point iteration.
#[derive(Clone, Debug)]
pub struct FixedPoint {
    /// Approximate non-blocking probability per class.
    pub nonblocking: Vec<f64>,
    /// Approximate concurrency per class.
    pub concurrency: Vec<f64>,
    /// Input- and output-side utilisations at the fixed point.
    pub utilisation: (f64, f64),
    /// Iterations used.
    pub iterations: u32,
    /// `true` iff the iteration met the tolerance before the cap.
    pub converged: bool,
}

impl FixedPoint {
    /// Approximate blocking `1 − B_r`.
    pub fn blocking(&self, r: usize) -> f64 {
        1.0 - self.nonblocking[r]
    }

    /// Approximate revenue `Σ w_r E_r`.
    pub fn revenue(&self, model: &Model) -> f64 {
        model
            .workload()
            .classes()
            .iter()
            .zip(&self.concurrency)
            .map(|(c, e)| c.weight * e)
            .sum()
    }
}

/// Run the reduced-load fixed point for `model`.
///
/// Solved by bisection on the total busy-port count `U = Σ_r a_r·E_r`:
/// given `U`, the per-class equations are *linear* in `E_r`
/// (`E_r = P·P·α_r·B_r / (μ_r − P·P·β_r·B_r)`, the closed form of the
/// `α + β·E` feedback), each capped at the physical bound
/// `E_r ≤ min(N1,N2)/a_r`, and the implied `Σ a_r·E_r(U)` is monotone
/// decreasing in `U` — so the crossing is unique and bisection always
/// converges. (A naive damped Picard iteration limit-cycles for strongly
/// peaky classes, where the mean-field feedback `P·P·β_r` exceeds `μ_r`
/// until blocking throttles it.)
pub fn reduced_load(model: &Model) -> FixedPoint {
    let dims = model.dims();
    let classes = model.workload().classes();
    let pp: Vec<f64> = classes
        .iter()
        .map(|c| {
            permutation(dims.n1 as u64, c.bandwidth as u64)
                * permutation(dims.n2 as u64, c.bandwidth as u64)
        })
        .collect();
    let capacity = dims.min_n() as f64;

    // Per-class E at a trial utilisation level.
    let e_at = |u_total: f64, r: usize| -> f64 {
        let class = &classes[r];
        let a = class.bandwidth as i32;
        let u1 = (u_total / dims.n1 as f64).clamp(0.0, 1.0);
        let u2 = (u_total / dims.n2 as f64).clamp(0.0, 1.0);
        let b = (1.0 - u1).powi(a) * (1.0 - u2).powi(a);
        let cap = capacity / class.bandwidth as f64;
        let denom = class.mu - pp[r] * class.beta * b;
        if denom <= class.mu * 1e-12 {
            // Mean-field supercritical at this blocking level: pinned at
            // the physical capacity (bisection will push U up until the
            // thinned blocking restores subcriticality).
            cap
        } else {
            (pp[r] * class.alpha * b / denom).min(cap)
        }
    };
    let implied = |u_total: f64| -> f64 {
        classes
            .iter()
            .enumerate()
            .map(|(r, c)| c.bandwidth as f64 * e_at(u_total, r))
            .sum()
    };

    let mut iterations = 0u32;
    let (mut lo, mut hi) = (0.0f64, capacity);
    let converged = if implied(capacity) >= capacity {
        // Saturated: the fixed point sits at the capacity boundary.
        lo = capacity;
        hi = capacity;
        true
    } else {
        for _ in 0..200 {
            iterations += 1;
            let mid = 0.5 * (lo + hi);
            if implied(mid) > mid {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-13 * (1.0 + capacity) {
                break;
            }
        }
        true
    };

    let u_total = 0.5 * (lo + hi);
    let e: Vec<f64> = (0..classes.len()).map(|r| e_at(u_total, r)).collect();
    let b: Vec<f64> = classes
        .iter()
        .map(|c| {
            let a = c.bandwidth as i32;
            let u1 = (u_total / dims.n1 as f64).clamp(0.0, 1.0);
            let u2 = (u_total / dims.n2 as f64).clamp(0.0, 1.0);
            (1.0 - u1).powi(a) * (1.0 - u2).powi(a)
        })
        .collect();
    let u1 = (u_total / dims.n1 as f64).clamp(0.0, 1.0);
    let u2 = (u_total / dims.n2 as f64).clamp(0.0, 1.0);
    FixedPoint {
        nonblocking: b,
        concurrency: e,
        utilisation: (u1, u2),
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dims;
    use crate::solver::{solve, Algorithm};
    use crate::sweep::SweepSolver;
    use xbar_traffic::{TrafficClass, Workload};

    fn poisson_model(n: u32, rho: f64) -> Model {
        Model::new(
            Dims::square(n),
            Workload::new().with(TrafficClass::poisson(rho)),
        )
        .unwrap()
    }

    #[test]
    fn converges_and_reports_sane_values() {
        let m = poisson_model(16, 0.02);
        let fp = reduced_load(&m);
        assert!(fp.converged);
        assert!((0.0..=1.0).contains(&fp.nonblocking[0]));
        assert!(fp.concurrency[0] > 0.0);
        assert!(fp.utilisation.0 > 0.0 && fp.utilisation.0 < 1.0);
    }

    #[test]
    fn accurate_at_light_load() {
        let m = poisson_model(16, 0.001);
        let fp = reduced_load(&m);
        let exact = solve(&m, Algorithm::Auto).unwrap();
        let rel = (fp.blocking(0) - exact.blocking(0)).abs() / exact.blocking(0);
        assert!(rel < 0.05, "rel err {rel}");
        let rel_e = (fp.concurrency[0] - exact.concurrency(0)).abs() / exact.concurrency(0);
        assert!(rel_e < 0.01, "rel err {rel_e}");
    }

    #[test]
    fn overestimates_blocking_but_stays_close() {
        // Ignoring port-occupancy correlations makes the independent-port
        // estimate pessimistic: busy inputs and busy outputs are positively
        // correlated (they come in pairs), so true availability is higher.
        // Measured: +6.5% relative at light load on an 8×8, decaying as
        // blocking saturates.
        for rho in [0.001, 0.01, 0.1, 0.5] {
            let m = poisson_model(8, rho);
            let fp = reduced_load(&m);
            let exact = solve(&m, Algorithm::Auto).unwrap();
            let rel = (fp.blocking(0) - exact.blocking(0)) / exact.blocking(0);
            assert!(rel >= 0.0, "rho={rho}: {rel}");
            assert!(rel < 0.10, "rho={rho}: {rel}");
        }
    }

    #[test]
    fn handles_bursty_and_multirate_classes() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.02))
            .with(TrafficClass::bpp(0.01, 0.3, 1.0))
            .with(TrafficClass::poisson(0.004).with_bandwidth(2));
        let m = Model::new(Dims::square(12), w).unwrap();
        let fp = reduced_load(&m);
        assert!(fp.converged);
        let exact = solve(&m, Algorithm::Auto).unwrap();
        for r in 0..3 {
            // Mean-field level agreement only — generous bound.
            let rel = (fp.blocking(r) - exact.blocking(r)).abs() / exact.blocking(r).max(1e-9);
            assert!(rel < 0.5, "class {r}: rel err {rel}");
        }
        // Wider class still blocks more under the approximation.
        assert!(fp.blocking(2) > fp.blocking(0));
    }

    #[test]
    fn revenue_approximation_matches_exact_at_light_load() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.001).with_weight(1.0))
            .with(TrafficClass::poisson(0.002).with_weight(0.5));
        let m = Model::new(Dims::square(10), w).unwrap();
        let fp = reduced_load(&m);
        let exact = solve(&m, Algorithm::Auto).unwrap();
        let rel = (fp.revenue(&m) - exact.revenue()).abs() / exact.revenue();
        assert!(rel < 0.01, "{rel}");
    }

    #[test]
    fn independent_port_gap_falls_as_one_over_n() {
        // The reduced-load estimate shares no code with the diagonal
        // rays, and its only error is the port-occupancy correlation,
        // which fades as 1/N under a fixed per-port load. So the relative
        // gap in B_r times N must stay flat as N grows, for the
        // production solve and for the extended-range rays alike: a
        // wrong term in a class install shows up as a gap that does not
        // shrink. Three classes (Poisson, Pascal with tuple-scaled
        // peakedness term 0.4, Poisson at a = 2), each offered
        // `load·N/3` tuple-scaled Erlangs.
        fn model(n: u32, load: f64) -> Model {
            let nn = n as f64;
            let (t1, t2) = (nn * nn, (nn * (nn - 1.0)).powi(2));
            let erlangs = load * nn / 3.0;
            let w = Workload::new()
                .with(TrafficClass::poisson(erlangs / t1))
                .with(TrafficClass::bpp(erlangs / t1, 0.4 / t1, 1.0))
                .with(TrafficClass::poisson(erlangs / t2).with_bandwidth(2));
            Model::new(Dims::square(n), w).unwrap()
        }
        // N·gap against `solve(Auto)` and against the extended-range rays.
        fn n_gaps(n: u32, load: f64) -> [f64; 2] {
            let m = model(n, load);
            let fp = reduced_load(&m);
            let auto = solve(&m, Algorithm::Auto).unwrap();
            let ext = SweepSolver::new(&m, Algorithm::Alg1Ext)
                .unwrap()
                .solve_base()
                .unwrap();
            [auto, ext].map(|exact| {
                let gap = (0..3)
                    .map(|r| (fp.nonblocking[r] / exact.nonblocking(r) - 1.0).abs())
                    .fold(0.0, f64::max);
                n as f64 * gap
            })
        }
        for (load, sizes) in [
            (0.01, &[64u32, 256][..]),
            (1.0, &[64, 256, 2048][..]),
            (4.0, &[64, 256][..]),
        ] {
            let base = n_gaps(sizes[0], load);
            assert!(
                base.iter().all(|&b| b > 0.05 && b < 2.0),
                "load {load}: N·gap {base:?}"
            );
            for &n in &sizes[1..] {
                let at = n_gaps(n, load);
                assert!(
                    base.iter().zip(&at).all(|(b, a)| (a / b - 1.0).abs() < 0.1),
                    "load {load}: N·gap (auto, ext) {base:?} at N = {} but {at:?} at N = {n}",
                    sizes[0]
                );
            }
        }
    }

    #[test]
    fn zero_load_fixed_point_is_trivial() {
        let m = poisson_model(4, 1e-15);
        let fp = reduced_load(&m);
        assert!(fp.converged);
        assert!(fp.blocking(0) < 1e-10);
    }
}
