//! Performance measures (paper §3–§4) evaluated from a solved lattice.
//!
//! Everything is expressed through ratios `Q(num)/Q(den)` (the [`QRatio`]
//! interface), which is why the §6 scaling discussion matters: the ratios
//! are probability-scale even when the `Q` values themselves are not.
//!
//! Formulas implemented (with the typo corrections derived in DESIGN.md):
//!
//! * non-blocking probability `B_r(N) = G(N−a_rI)/G(N)
//!   = Q(N−a_rI)/(P(N1,a_r)·P(N2,a_r)·Q(N))` (paper eq. 4);
//! * concurrency `E_r(N) = [Q(N−a_rI)/Q(N)]·{ρ_r + (β_r/μ_r)·E_r(N−a_rI)}`
//!   — the Poisson case is the `β = 0` specialisation
//!   `E_r = ρ_r·Q(N−a_rI)/Q(N)`;
//! * revenue / weighted throughput `W(N) = Σ_r w_r·E_r(N)` (paper §4);
//! * the closed-form revenue gradient for Poisson classes
//!   `∂W/∂ρ_r = P(N1,a_r)·P(N2,a_r)·B_r·(w_r − [W(N) − W(N−a_rI)])`,
//!   exact when no bursty class is present (`R2 = ∅`); the paper's
//!   `N1·N2·B_r(…)` is its `a_r = 1` case. `ΔW = W(N) − W(N−a_rI)` is the
//!   *shadow cost* of §4;
//! * per-class call-level acceptance ratio (ours, for simulator
//!   validation): accepted rate is `μ_r·E_r` by flow balance and offered
//!   rate is `P(N1,a_r)·P(N2,a_r)·(α_r + β_r·E_r)`, so
//!   `acceptance = μ_r·E_r / [P(N1,a_r)·P(N2,a_r)·(α_r + β_r·E_r)]`;
//!   for Poisson classes this equals `B_r` exactly.

use xbar_numeric::guard::{checked_nonneg, checked_prob, finite_or_err, GuardError};
use xbar_numeric::permutation;

use crate::alg1::QRatio;
use crate::model::{Dims, Model};

/// Measures for one traffic class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClassMeasures {
    /// `B_r` — the paper's non-blocking probability (eq. 4).
    pub nonblocking: f64,
    /// `1 − B_r` — what the paper's figures and Table 2 actually plot.
    pub blocking: f64,
    /// `E_r` — mean number of class-`r` connections in progress.
    pub concurrency: f64,
    /// `μ_r·E_r` — class throughput (completed connections per unit time).
    pub throughput: f64,
    /// Call-level acceptance ratio (accepted/offered requests); equals
    /// `B_r` for Poisson classes. `1.0` (vacuous) if the class offers no
    /// traffic.
    pub call_acceptance: f64,
}

/// Measures for the whole switch.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchMeasures {
    /// The dims these measures were evaluated at (may be a sub-switch of
    /// the solved lattice, as in the shadow-cost terms).
    pub dims: Dims,
    /// Per-class measures, in workload order.
    pub classes: Vec<ClassMeasures>,
    /// Revenue `W = Σ_r w_r·E_r` (paper §4).
    pub revenue: f64,
    /// Unweighted total throughput `Σ_r μ_r·E_r` (the `γ_r = 1` revenue).
    pub total_throughput: f64,
}

impl SwitchMeasures {
    /// Run every measure through the numeric guards: probabilities must be
    /// finite and in `[0, 1]` (up to round-off slack), concurrencies and
    /// throughputs finite and non-negative, revenue finite. A violation
    /// identifies the quantity and value, so a solve can name the failing
    /// backend and the measure it broke.
    pub fn validate(&self) -> Result<(), GuardError> {
        for (r, c) in self.classes.iter().enumerate() {
            checked_prob(&format!("nonblocking[{r}]"), c.nonblocking)?;
            checked_prob(&format!("blocking[{r}]"), c.blocking)?;
            checked_prob(&format!("call_acceptance[{r}]"), c.call_acceptance)?;
            checked_nonneg(&format!("concurrency[{r}]"), c.concurrency)?;
            checked_nonneg(&format!("throughput[{r}]"), c.throughput)?;
        }
        // Weights are user-chosen and may in principle be negative, so
        // revenue is only required to be finite.
        finite_or_err("revenue", self.revenue)?;
        checked_nonneg("total_throughput", self.total_throughput)?;
        Ok(())
    }
}

/// Evaluate all measures at the lattice's own dims.
pub fn measures(model: &Model, lat: &impl QRatio) -> SwitchMeasures {
    measures_at(model, lat, lat.dims())
}

/// Evaluate all measures at a sub-switch `dims ≤ lat.dims()` (same per-set
/// traffic parameters — the convention of the paper's `W(N − a_r·I)`
/// shadow-cost terms).
pub fn measures_at(model: &Model, lat: &impl QRatio, dims: Dims) -> SwitchMeasures {
    let full = lat.dims();
    assert!(
        dims.n1 <= full.n1 && dims.n2 <= full.n2,
        "measures_at {dims} outside solved lattice {full}"
    );
    let classes = model.workload().classes();
    let mut out = Vec::with_capacity(classes.len());
    let mut revenue = 0.0;
    let mut total_throughput = 0.0;
    for class in classes {
        let a = class.bandwidth as i64;
        let target = (dims.n1 as i64, dims.n2 as i64);
        let h = lat.q_ratio((target.0 - a, target.1 - a), target);
        let pp = permutation(dims.n1 as u64, class.bandwidth as u64)
            * permutation(dims.n2 as u64, class.bandwidth as u64);
        let nonblocking = if pp > 0.0 { h / pp } else { 0.0 };

        let concurrency = concurrency_at(lat, target, a, class.rho(), class.beta / class.mu);
        let throughput = class.mu * concurrency;
        let offered = pp * (class.alpha + class.beta * concurrency);
        let call_acceptance = if offered > 0.0 {
            throughput / offered
        } else {
            1.0
        };

        revenue += class.weight * concurrency;
        total_throughput += throughput;
        out.push(ClassMeasures {
            nonblocking,
            blocking: 1.0 - nonblocking,
            concurrency,
            throughput,
            call_acceptance,
        });
    }
    SwitchMeasures {
        dims,
        classes: out,
        revenue,
        total_throughput,
    }
}

/// `E_r` via the diagonal recursion
/// `E_r(m) = [Q(m−aI)/Q(m)]·{ρ + (β/μ)·E_r(m−aI)}`, iterated up the chain
/// `m = target − t·a·I` from the boundary (where `E = 0`) to `target`.
fn concurrency_at(
    lat: &impl QRatio,
    target: (i64, i64),
    a: i64,
    rho: f64,
    beta_over_mu: f64,
) -> f64 {
    let tmax = (target.0.min(target.1)) / a;
    let mut e = 0.0;
    for t in (0..=tmax).rev() {
        let m = (target.0 - t * a, target.1 - t * a);
        let h = lat.q_ratio((m.0 - a, m.1 - a), m);
        e = h * (rho + beta_over_mu * e);
    }
    e
}

/// Closed-form revenue gradient `∂W/∂ρ_r` (paper §4):
/// `P(N1,a_r)·P(N2,a_r)·B_r·(w_r − ΔW)` with shadow cost
/// `ΔW = W(N) − W(N − a_r·I)`.
///
/// Exact when the workload has no bursty classes (`R2 = ∅`); with bursty
/// classes present it is the same first-order expression the paper
/// tabulates (Table 2) but no longer an exact derivative — cross-check with
/// a finite difference via the solver when that matters.
pub fn revenue_gradient_rho_closed(model: &Model, lat: &impl QRatio, r: usize) -> f64 {
    let dims = lat.dims();
    let class = &model.workload().classes()[r];
    let a = class.bandwidth;
    let here = measures(model, lat);
    let w_sub = match dims.shrink(a) {
        Some(sub) => measures_at(model, lat, sub).revenue,
        None => 0.0,
    };
    let b_r = here.classes[r].nonblocking;
    let pp = permutation(dims.n1 as u64, a as u64) * permutation(dims.n2 as u64, a as u64);
    pp * b_r * (class.weight - (here.revenue - w_sub))
}

/// The shadow cost `ΔW(N) = W(N) − W(N − a_r·I)` of accepting one class-`r`
/// connection (paper §4's "economic interpretation").
pub fn shadow_cost(model: &Model, lat: &impl QRatio, r: usize) -> f64 {
    let dims = lat.dims();
    let a = model.workload().classes()[r].bandwidth;
    let here = measures(model, lat).revenue;
    let sub = match dims.shrink(a) {
        Some(s) => measures_at(model, lat, s).revenue,
        None => 0.0,
    };
    here - sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alg1::QLattice;
    use crate::brute::Brute;
    use xbar_traffic::{TrafficClass, Workload};

    fn close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!((a - b).abs() / scale < tol, "{a} vs {b}");
    }

    fn solve_f64(m: &Model) -> QLattice<f64> {
        QLattice::solve(m)
    }

    #[test]
    fn measures_match_brute_force_definitions() {
        // Mixed workload incl. multi-rate and Bernoulli classes.
        let w = Workload::new()
            .with(TrafficClass::poisson(0.4).with_weight(1.0))
            .with(TrafficClass::bpp(0.3, 0.1, 1.0).with_weight(0.2))
            .with(
                TrafficClass::poisson(0.2)
                    .with_bandwidth(2)
                    .with_weight(0.5),
            )
            .with(
                TrafficClass::bpp(0.8, -0.1, 2.0) // S = 8 Bernoulli
                    .with_bandwidth(2)
                    .with_weight(0.7),
            );
        let m = Model::new(Dims::new(7, 6), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat);
        let brute = Brute::new(&m);
        for r in 0..4 {
            close(got.classes[r].nonblocking, brute.nonblocking(r), 1e-10);
            close(got.classes[r].concurrency, brute.concurrency(r), 1e-10);
        }
        close(got.revenue, brute.revenue(), 1e-10);
    }

    #[test]
    fn poisson_concurrency_reduces_to_simple_form() {
        // For β = 0: E = ρ·Q(N−aI)/Q(N) — check against the chain version.
        let w = Workload::new().with(TrafficClass::poisson(0.5).with_bandwidth(2));
        let m = Model::new(Dims::square(9), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat).classes[0].concurrency;
        let direct = 0.5 * lat.q_ratio((7, 7), (9, 9));
        close(got, direct, 1e-13);
    }

    #[test]
    fn call_acceptance_equals_nonblocking_for_poisson() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.4))
            .with(TrafficClass::poisson(0.2).with_bandwidth(2));
        let m = Model::new(Dims::square(8), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat);
        for r in 0..2 {
            close(
                got.classes[r].call_acceptance,
                got.classes[r].nonblocking,
                1e-12,
            );
        }
    }

    #[test]
    fn call_acceptance_differs_for_bursty_classes() {
        // Peaky arrivals cluster in busy states, so the call-level
        // acceptance is *worse* than the time-average B_r.
        let w = Workload::new().with(TrafficClass::bpp(0.3, 0.25, 1.0));
        let m = Model::new(Dims::square(4), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat).classes[0];
        assert!(
            got.call_acceptance < got.nonblocking,
            "{} !< {}",
            got.call_acceptance,
            got.nonblocking
        );
    }

    #[test]
    fn table2_n1_and_n2_anchors() {
        // Paper Table 2, first parameter set, N = 1 and N = 2 rows.
        let n2 = 1u32;
        let w = Workload::new()
            .with(TrafficClass::poisson(0.0012 / n2 as f64).with_weight(1.0))
            .with(
                TrafficClass::bpp(0.0012 / n2 as f64, 0.0012 / n2 as f64, 1.0).with_weight(0.0001),
            );
        let m = Model::new(Dims::square(1), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat);
        close(got.classes[0].blocking, 0.00239425, 1e-5);
        close(got.revenue, 0.00119725, 1e-5);
        // The table prints two truncated decimals: 0.9964… → "0.99".
        let grad = revenue_gradient_rho_closed(&m, &lat, 0);
        assert!((grad - 0.99).abs() < 0.01, "{grad}");

        let n2 = 2u32;
        let w = Workload::new()
            .with(TrafficClass::poisson(0.0012 / n2 as f64).with_weight(1.0))
            .with(
                TrafficClass::bpp(0.0012 / n2 as f64, 0.0012 / n2 as f64, 1.0).with_weight(0.0001),
            );
        let m = Model::new(Dims::square(2), w).unwrap();
        let lat = solve_f64(&m);
        let got = measures(&m, &lat);
        // Exact value of the stated model: 0.00358637. The paper prints
        // 0.00358566, which is the β̃ = 0 value — its Table 2 blocking
        // column shows no β effect at N = 2 (see DESIGN.md §"Table 2
        // blocking column"): we reproduce the model, not the bug.
        close(got.classes[0].blocking, 0.00358637, 1e-5);
        close(got.revenue, 0.00239163, 1e-4);
        let grad = revenue_gradient_rho_closed(&m, &lat, 0);
        assert!((grad - 3.97).abs() < 0.01, "{grad}");
    }

    #[test]
    fn shadow_cost_is_positive_and_bounded_by_weight_at_light_load() {
        let w = Workload::new().with(TrafficClass::poisson(0.01));
        let m = Model::new(Dims::square(8), w).unwrap();
        let lat = solve_f64(&m);
        let dc = shadow_cost(&m, &lat, 0);
        assert!(dc > 0.0 && dc < 1.0, "{dc}");
    }

    #[test]
    fn gradient_positive_when_class_worth_more_than_shadow_cost() {
        // Single light Poisson class, w = 1: increasing its load must
        // increase revenue (ΔW < w).
        let w = Workload::new().with(TrafficClass::poisson(0.01));
        let m = Model::new(Dims::square(6), w).unwrap();
        let lat = solve_f64(&m);
        assert!(revenue_gradient_rho_closed(&m, &lat, 0) > 0.0);
    }

    #[test]
    fn closed_form_gradient_matches_finite_difference_when_r2_empty() {
        // The paper's exactness claim for R2 = ∅.
        let mk = |rho1: f64| {
            let w = Workload::new()
                .with(TrafficClass::poisson(rho1).with_weight(1.0))
                .with(
                    TrafficClass::poisson(0.05)
                        .with_bandwidth(2)
                        .with_weight(0.3),
                );
            Model::new(Dims::square(6), w).unwrap()
        };
        let m = mk(0.08);
        let lat = solve_f64(&m);
        let closed = revenue_gradient_rho_closed(&m, &lat, 0);
        let fd = xbar_numeric::central_diff(
            |x| {
                let m2 = m.with_rho(0, x).unwrap();
                let lat2 = solve_f64(&m2);
                measures(&m2, &lat2).revenue
            },
            0.08,
        );
        close(closed, fd, 1e-6);
    }

    #[test]
    fn measures_at_sub_switch_match_directly_solved_sub_model() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3))
            .with(TrafficClass::bpp(0.2, 0.1, 1.0));
        let m = Model::new(Dims::square(8), w.clone()).unwrap();
        let lat = solve_f64(&m);
        let sub = measures_at(&m, &lat, Dims::square(5));
        let m5 = Model::new(Dims::square(5), w).unwrap();
        let lat5 = solve_f64(&m5);
        let direct = measures(&m5, &lat5);
        close(sub.revenue, direct.revenue, 1e-12);
        for r in 0..2 {
            close(
                sub.classes[r].nonblocking,
                direct.classes[r].nonblocking,
                1e-12,
            );
            close(
                sub.classes[r].concurrency,
                direct.classes[r].concurrency,
                1e-12,
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside solved lattice")]
    fn measures_at_rejects_larger_dims() {
        let w = Workload::new().with(TrafficClass::poisson(0.1));
        let m = Model::new(Dims::square(3), w).unwrap();
        let lat = solve_f64(&m);
        let _ = measures_at(&m, &lat, Dims::square(4));
    }
}
