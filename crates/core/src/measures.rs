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
//!
//! Every measure reads the ratios `h_t = Q(m − a_r·I)/Q(m)` down the
//! diagonal `m = target − t·a_r·I`. [`measures_at`] takes them in one
//! pass: one [`QRatio::diagonal_ratios`] vector per distinct bandwidth
//! (a ray fills it with one slice pass), `B_r` from `h_0`, and the `R`
//! concurrency recursions stepped together so their dependency chains
//! overlap. Each class's arithmetic is the per-point evaluation's, term
//! for term, so the results are bit-for-bit the same.

use xbar_numeric::guard::{checked_nonneg, checked_prob, finite_or_err, GuardError};
use xbar_numeric::permutation;
use xbar_traffic::TrafficClass;

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
        // Each guard runs under the bare name; the indexed name
        // (`"concurrency[1]"`) is built only for a failure.
        let indexed = |r: usize| {
            move |mut e: GuardError| {
                e.what = format!("{}[{r}]", e.what);
                e
            }
        };
        for (r, c) in self.classes.iter().enumerate() {
            checked_prob("nonblocking", c.nonblocking).map_err(indexed(r))?;
            checked_prob("blocking", c.blocking).map_err(indexed(r))?;
            checked_prob("call_acceptance", c.call_acceptance).map_err(indexed(r))?;
            checked_nonneg("concurrency", c.concurrency).map_err(indexed(r))?;
            checked_nonneg("throughput", c.throughput).map_err(indexed(r))?;
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
    let target = (dims.n1 as i64, dims.n2 as i64);
    // One ratio vector per distinct bandwidth, shared by its classes.
    let mut ratios: Vec<(u32, Vec<f64>)> = Vec::new();
    for class in classes {
        if ratios.iter().all(|(a, _)| *a != class.bandwidth) {
            let mut h = Vec::new();
            lat.diagonal_ratios(target, class.bandwidth as i64, &mut h);
            ratios.push((class.bandwidth, h));
        }
    }
    let ratios_of = |a: u32| -> &[f64] {
        let (_, h) = ratios
            .iter()
            .find(|(b, _)| *b == a)
            .expect("ratios of every bandwidth");
        h
    };

    let mut out = Vec::with_capacity(classes.len());
    let mut revenue = 0.0;
    let mut total_throughput = 0.0;
    for chunk in classes.chunks(LANES) {
        let mut h: [&[f64]; LANES] = [&[]; LANES];
        for (h, class) in h.iter_mut().zip(chunk) {
            *h = ratios_of(class.bandwidth);
        }
        let concurrencies = concurrencies(chunk, &h);
        for ((class, h), concurrency) in chunk.iter().zip(h).zip(concurrencies) {
            let pp = permutation(dims.n1 as u64, class.bandwidth as u64)
                * permutation(dims.n2 as u64, class.bandwidth as u64);
            let nonblocking = if pp > 0.0 { h[0] / pp } else { 0.0 };
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
    }
    SwitchMeasures {
        dims,
        classes: out,
        revenue,
        total_throughput,
    }
}

/// Classes whose concurrency recursions [`concurrencies`] steps together.
const LANES: usize = 4;

/// `E_r` of up to [`LANES`] classes via the diagonal recursion
/// `E_r(m) = h_t·{ρ_r + (β_r/μ_r)·E_r(m−a_rI)}`, `h_t = Q(m−a_rI)/Q(m)`
/// at `m = target − t·a_r·I`, each iterated from its boundary `t =
/// h.len() − 1` (where `E = 0`) to `t = 0`. The chains run in one loop,
/// so their latencies overlap; each class's arithmetic is the same as
/// alone.
fn concurrencies(chunk: &[TrafficClass], h: &[&[f64]; LANES]) -> [f64; LANES] {
    let mut rho = [0.0; LANES];
    let mut y = [0.0; LANES];
    for (l, class) in chunk.iter().enumerate() {
        rho[l] = class.rho();
        y[l] = class.beta / class.mu;
    }
    let mut e = [0.0; LANES];
    let steps = h.iter().map(|h| h.len()).max().unwrap_or(0);
    for t in (0..steps).rev() {
        for l in 0..LANES {
            if let Some(&h) = h[l].get(t) {
                e[l] = h * (rho[l] + y[l] * e[l]);
            }
        }
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
    use crate::alg1::{QLattice, ScaledQLattice};
    use crate::alg2::Mva;
    use crate::alg3::Convolution;
    use crate::brute::Brute;
    use crate::solver::Backend;
    use crate::sweep::Ray;
    use crate::{solve, Algorithm, SweepSolver};
    use proptest::prelude::{prop_assert_eq, TestCaseError};
    use xbar_traffic::Workload;

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

    /// The per-point `E_r` oracle: [`concurrencies`]' recursion for one
    /// class, one [`QRatio::q_ratio`] call per step.
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

    /// The per-point evaluation: one [`QRatio::q_ratio`] call per
    /// diagonal step and one recursion per class, in class order. The
    /// one-pass [`measures_at`] must equal it bit for bit.
    fn per_point_oracle(model: &Model, lat: &impl QRatio, dims: Dims) -> SwitchMeasures {
        let target = (dims.n1 as i64, dims.n2 as i64);
        let mut out = Vec::new();
        let (mut revenue, mut total_throughput) = (0.0, 0.0);
        for class in model.workload().classes() {
            let a = class.bandwidth as i64;
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

    /// Every number of `m`, as bits (so `NaN`s and signed zeros count).
    fn bits(m: &SwitchMeasures) -> Vec<u64> {
        let mut out = vec![m.dims.n1 as u64, m.dims.n2 as u64];
        for c in &m.classes {
            out.extend(
                [
                    c.nonblocking,
                    c.blocking,
                    c.concurrency,
                    c.throughput,
                    c.call_acceptance,
                ]
                .map(f64::to_bits),
            );
        }
        out.extend([m.revenue.to_bits(), m.total_throughput.to_bits()]);
        out
    }

    /// A class of kind `0` Poisson, `1` Pascal or `2` Bernoulli (with
    /// `max_n + extra` sources, so the model validates), offering `load`.
    fn class_of(kind: u8, a: u32, load: f64, extra: u32, max_n: u32, w: f64) -> TrafficClass {
        let class = match kind {
            0 => TrafficClass::poisson(load),
            1 => TrafficClass::bpp(load, 0.8 * load.min(1.0), 1.0),
            _ => {
                let sources = (max_n + extra) as f64;
                TrafficClass::bpp(load, -load / sources, 1.0)
            }
        };
        class.with_bandwidth(a).with_weight(w)
    }

    /// `measures_at` against [`per_point_oracle`] on `backend`, at the
    /// full dims and at every diagonal sub-switch (with both sides
    /// shrunk alike, as the ray requires).
    fn check_on_ray(what: &str, model: &Model, backend: &Backend) -> Result<(), String> {
        let dims = model.dims();
        for d in 0..=dims.min_n() {
            let sub = Dims::new(dims.n1 - d, dims.n2 - d);
            let got = measures_at(model, backend, sub);
            let want = per_point_oracle(model, backend, sub);
            if bits(&got) != bits(&want) {
                return Err(format!("{what} at {sub} of {dims}: {got:?} != {want:?}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        #[test]
        fn measures_at_equals_the_per_point_oracle_bit_for_bit(
            n in 1u32..=14,
            wide in 0u32..=4,
            tall in proptest::bool::ANY,
            spec in proptest::collection::vec(
                (0u8..3, 1u32..=3, -7.0f64..0.5, 0u32..4, 0.0f64..2.0),
                1..=4,
            ),
        ) {
            let dims = if tall { Dims::new(n + wide, n) } else { Dims::new(n, n + wide) };
            let classes: Vec<_> = spec
                .iter()
                .map(|&(kind, a, ln_load, extra, w)| {
                    let a = a.min(dims.min_n());
                    class_of(kind, a, ln_load.exp(), extra, dims.max_n(), w)
                })
                .collect();
            let m = Model::new(dims, Workload::from_classes(classes)).unwrap();
            let ln_c = crate::alg1::scale_ln_c(dims);
            let backends = [
                ("alg1-f64", Backend::F64(QLattice::solve(&m))),
                ("alg1-scaled", Backend::Scaled(ScaledQLattice::solve(&m))),
                ("alg1-ext", Backend::Ext(QLattice::solve(&m))),
                ("alg2-mva", Backend::Mva(Mva::solve(&m))),
                ("alg3-convolution", Backend::Conv(Convolution::solve(&m))),
                ("auto ray", Backend::RayScaled(Ray::of(&m, ln_c))),
                ("extfloat auto ray", Backend::RayExt(Ray::of(&m, 0.0))),
            ];
            for (what, backend) in &backends {
                check_on_ray(what, &m, backend).map_err(TestCaseError::fail)?;
            }
            // A lattice also answers off the diagonal.
            for (what, backend) in &backends[..5] {
                for sub in [Dims::new(dims.n1, dims.n2 - 1), Dims::new(dims.n1 - 1, 0)] {
                    let got = measures_at(&m, backend, sub);
                    let want = per_point_oracle(&m, backend, sub);
                    prop_assert_eq!(bits(&got), bits(&want), "{} at {}", what, sub);
                }
            }
            // What a solve and a sweep point hand out.
            let auto = solve(&m, Algorithm::Auto).unwrap();
            let want = per_point_oracle(&m, auto.backend(), dims);
            prop_assert_eq!(bits(auto.measures()), bits(&want));
            let sweep = SweepSolver::new(&m, Algorithm::Auto).unwrap();
            let rho = 1.5 * m.workload().classes()[0].rho();
            let point = sweep.solve_with_rho(0, rho).unwrap();
            let want = per_point_oracle(point.model(), point.backend(), dims);
            prop_assert_eq!(bits(point.measures()), bits(&want));
            check_on_ray("sweep point", point.model(), point.backend())
                .map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn classes_sharing_a_bandwidth_and_more_than_four_classes() {
        // Six classes run as two chunks of stepped recursions; three
        // share a = 1 and two share a = 2.
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3))
            .with(TrafficClass::bpp(0.2, 0.1, 1.0).with_bandwidth(2))
            .with(TrafficClass::bpp(0.4, -0.02, 1.0))
            .with(TrafficClass::poisson(0.05).with_bandwidth(3))
            .with(TrafficClass::poisson(0.1).with_bandwidth(2))
            .with(TrafficClass::bpp(0.1, 0.05, 2.0));
        let m = Model::new(Dims::new(11, 9), w).unwrap();
        let ray = Backend::RayScaled(Ray::of(&m, crate::alg1::scale_ln_c(m.dims())));
        check_on_ray("six classes", &m, &ray).unwrap();
        let lat = Backend::Ext(QLattice::solve(&m));
        check_on_ray("six classes", &m, &lat).unwrap();
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
