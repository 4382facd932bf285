//! Cross-class sensitivity analysis — the full matrix version of §4's
//! single-gradient story.
//!
//! §4 computes `∂W/∂ρ_r`; an operator tuning a real mix also wants to know
//! how pushing one class's load moves *every other class's* blocking and
//! concurrency. This module assembles the Jacobians
//!
//! ```text
//! J_B[r][s] = ∂B_r/∂ρ_s        J_E[r][s] = ∂E_r/∂ρ_s
//! ```
//!
//! **exactly**, by differentiating the product form itself: one
//! [`SweepSolver`] precompute per model — the full ray, the work of one
//! `solve(Auto)` — then each column `s` falls out of that ray alone via
//! [`SweepSolver::gradients`]. §4's `E_r = ρ_r·∂ln G/∂ρ_r` generalises
//! to every BPP class: `∂ln Q/∂ρ_s` and `∂ln Q/∂y_s` are short series in
//! the ray's own ratios `Q(d + k·a_s)/Q(d)`, so pricing builds no
//! leave-one-out ray and no derivative ray — no re-solves, no step-size
//! error.
//!
//! Two oracles check it: the product-rule derivative rays on the
//! leave-one-out partials that computed the gradients before (kept in
//! `sweep.rs`'s tests, to 1e-10), and the previous finite-difference
//! assembly (two full solves per column, central differences on
//! re-solved models), kept as [`sensitivity_fd`] (unit tests here, a
//! proptest battery in `tests/differential.rs`) and a fallback for
//! backends the sweep solver does not model.

use xbar_numeric::{central_diff, finite_or_err};

use crate::model::Model;
use crate::solver::{solve, Algorithm, SolveError};
use crate::sweep::SweepSolver;

/// The assembled sensitivity matrices (rows = affected class, columns =
/// perturbed class).
#[derive(Clone, Debug)]
pub struct Sensitivity {
    /// `∂B_r/∂ρ_s` (non-blocking probability w.r.t. per-set load).
    pub nonblocking_by_rho: Vec<Vec<f64>>,
    /// `∂E_r/∂ρ_s`.
    pub concurrency_by_rho: Vec<Vec<f64>>,
    /// `∂W/∂ρ_s` (one row — revenue is a scalar).
    pub revenue_by_rho: Vec<f64>,
    /// `∂W/∂(β_s/μ_s)` per class (`0` entries are still computed — the
    /// derivative exists for Poisson classes too; it reports how revenue
    /// would move if the class *became* bursty).
    pub revenue_by_beta: Vec<f64>,
}

/// Assemble all sensitivities for `model` exactly from its full ray —
/// one precompute (`R` class installs, as `solve(Auto)` makes) and `R`
/// gradient passes down that ray, each `O(C)` per Poisson class and
/// `O(C·K)` per bursty one, `K` the terms a point's tail bound keeps
/// (see [`SweepSolver::gradients`]); no leave-one-out ray and zero full
/// solves (the old finite-difference assembly paid `2R·(2R + 2)` of
/// them).
///
/// `algorithm` picks the numeric backend of the partials, with the same
/// policy as [`SweepSolver::new`].
pub fn sensitivity(model: &Model, algorithm: Algorithm) -> Result<Sensitivity, SolveError> {
    let sweep = SweepSolver::new(model, algorithm)?;
    sensitivity_from(&sweep)
}

/// Assemble the sensitivity matrices from an already-built
/// [`SweepSolver`], paying only the `R` gradient passes down its full
/// ray. The result is bit-identical to [`sensitivity`] on the solver's
/// model (the precompute is the only work skipped).
///
/// The gradients of the healthy ray a precompute keeps are finite; each
/// entry is still checked, and a non-finite one is a
/// [`SolveError::Guard`], so no caller prices off it.
pub fn sensitivity_from(sweep: &SweepSolver) -> Result<Sensitivity, SolveError> {
    let r_count = sweep.model().num_classes();
    let finite = |what: &str, v: f64| {
        finite_or_err(what, v).map_err(|source| SolveError::Guard {
            algorithm: sweep.algorithm(),
            source,
        })
    };
    let mut nonblocking_by_rho = vec![vec![0.0; r_count]; r_count];
    let mut concurrency_by_rho = vec![vec![0.0; r_count]; r_count];
    let mut revenue_by_rho = vec![0.0; r_count];
    let mut revenue_by_beta = vec![0.0; r_count];
    for s in 0..r_count {
        let g = sweep.gradients(s);
        for r in 0..r_count {
            nonblocking_by_rho[r][s] = finite("dB/drho", g.nonblocking_by_rho[r])?;
            concurrency_by_rho[r][s] = finite("dE/drho", g.concurrency_by_rho[r])?;
        }
        revenue_by_rho[s] = finite("dW/drho", g.revenue_by_rho)?;
        revenue_by_beta[s] = finite("dW/dbeta", g.revenue_by_beta)?;
    }
    Ok(Sensitivity {
        nonblocking_by_rho,
        concurrency_by_rho,
        revenue_by_rho,
        revenue_by_beta,
    })
}

/// The finite-difference oracle: the original central-difference
/// assembly on re-solved models (two solves per column and output).
/// Slower and step-size-limited — kept to cross-check [`sensitivity`].
pub fn sensitivity_fd(model: &Model, algorithm: Algorithm) -> Result<Sensitivity, SolveError> {
    let r_count = model.num_classes();
    let mut nonblocking_by_rho = vec![vec![0.0; r_count]; r_count];
    let mut concurrency_by_rho = vec![vec![0.0; r_count]; r_count];
    let mut revenue_by_rho = vec![0.0; r_count];
    let mut revenue_by_beta = vec![0.0; r_count];

    for s in 0..r_count {
        let rho0 = model.workload().classes()[s].rho();
        // One pass per output quantity keeps the code simple; the solves
        // are memoised implicitly by the closure capturing nothing mutable.
        for r in 0..r_count {
            nonblocking_by_rho[r][s] = diff(model, algorithm, s, rho0, |sol| sol.nonblocking(r))?;
            concurrency_by_rho[r][s] = diff(model, algorithm, s, rho0, |sol| sol.concurrency(r))?;
        }
        revenue_by_rho[s] = diff(model, algorithm, s, rho0, |sol| sol.revenue())?;

        let class = &model.workload().classes()[s];
        let x0 = class.beta / class.mu;
        let mut err = None;
        revenue_by_beta[s] = central_diff(
            |x| match model
                .with_beta_over_mu(s, x)
                .map_err(SolveError::from)
                .and_then(|m| solve(&m, algorithm))
            {
                Ok(sol) => sol.revenue(),
                Err(e) => {
                    err.get_or_insert(e);
                    f64::NAN
                }
            },
            x0,
        );
        if let Some(e) = err {
            return Err(e);
        }
    }

    Ok(Sensitivity {
        nonblocking_by_rho,
        concurrency_by_rho,
        revenue_by_rho,
        revenue_by_beta,
    })
}

fn diff<F: Fn(&crate::solver::Solution) -> f64>(
    model: &Model,
    algorithm: Algorithm,
    s: usize,
    rho0: f64,
    read: F,
) -> Result<f64, SolveError> {
    let mut err = None;
    let d = central_diff(
        |x| match model
            .with_rho(s, x)
            .map_err(SolveError::from)
            .and_then(|m| solve(&m, algorithm))
        {
            Ok(sol) => read(&sol),
            Err(e) => {
                err.get_or_insert(e);
                f64::NAN
            }
        },
        rho0,
    );
    match err {
        Some(e) => Err(e),
        None => Ok(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dims;
    use crate::solver::Algorithm;
    use xbar_traffic::{TrafficClass, Workload};

    fn close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1e-9);
        assert!((a - b).abs() / scale < tol, "{a} vs {b}");
    }

    fn model() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.08).with_weight(1.0))
            .with(
                TrafficClass::poisson(0.03)
                    .with_bandwidth(2)
                    .with_weight(0.4),
            );
        Model::new(Dims::square(8), w).unwrap()
    }

    #[test]
    fn every_load_hurts_every_availability() {
        // All entries of ∂B_r/∂ρ_s are negative: any extra load anywhere
        // reduces everyone's availability.
        let sens = sensitivity(&model(), Algorithm::Alg1F64).unwrap();
        for row in &sens.nonblocking_by_rho {
            for &v in row {
                assert!(v < 0.0, "{row:?}");
            }
        }
    }

    #[test]
    fn own_concurrency_rises_with_own_load() {
        let sens = sensitivity(&model(), Algorithm::Alg1F64).unwrap();
        for r in 0..2 {
            assert!(sens.concurrency_by_rho[r][r] > 0.0);
        }
        // Cross terms are negative: class s's load displaces class r.
        assert!(sens.concurrency_by_rho[0][1] < 0.0);
        assert!(sens.concurrency_by_rho[1][0] < 0.0);
    }

    #[test]
    fn revenue_row_matches_solution_gradient() {
        // For a pure-Poisson workload the closed form (paper §4) is exact,
        // so the exact sweep-based row must match it.
        let m = model();
        let sens = sensitivity(&m, Algorithm::Alg1F64).unwrap();
        let sol = solve(&m, Algorithm::Alg1F64).unwrap();
        for s in 0..2 {
            close(sens.revenue_by_rho[s], sol.revenue_gradient_rho(s), 1e-4);
        }
    }

    #[test]
    fn beta_column_is_negative_for_crowded_switches() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.1).with_weight(1.0))
            .with(TrafficClass::bpp(0.05, 0.2, 1.0).with_weight(0.01));
        let m = Model::new(Dims::square(6), w).unwrap();
        let sens = sensitivity(&m, Algorithm::Alg1F64).unwrap();
        assert!(sens.revenue_by_beta[1] < 0.0, "{:?}", sens.revenue_by_beta);
    }

    #[test]
    fn exact_matrices_match_finite_difference_oracle() {
        let m = mixed();
        let exact = sensitivity(&m, Algorithm::Alg1Ext).unwrap();
        let fd = sensitivity_fd(&m, Algorithm::Alg1Ext).unwrap();
        for s in 0..3 {
            for r in 0..3 {
                close(
                    exact.nonblocking_by_rho[r][s],
                    fd.nonblocking_by_rho[r][s],
                    1e-6,
                );
                close(
                    exact.concurrency_by_rho[r][s],
                    fd.concurrency_by_rho[r][s],
                    1e-6,
                );
            }
            close(exact.revenue_by_rho[s], fd.revenue_by_rho[s], 1e-6);
            close(exact.revenue_by_beta[s], fd.revenue_by_beta[s], 1e-6);
        }
    }

    /// The three-class mix of the oracle tests (Poisson, Pascal and an
    /// `a = 2` Bernoulli class).
    fn mixed() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.12).with_weight(1.0))
            .with(TrafficClass::bpp(0.06, 0.15, 1.0).with_weight(0.3))
            .with(
                TrafficClass::bpp(0.3, -0.03, 0.7)
                    .with_bandwidth(2)
                    .with_weight(0.8),
            );
        Model::new(Dims::square(10), w).unwrap()
    }

    #[test]
    fn exact_matrices_match_the_derivative_ray_oracle() {
        let beta = Model::new(
            Dims::square(6),
            Workload::new()
                .with(TrafficClass::poisson(0.1).with_weight(1.0))
                .with(TrafficClass::bpp(0.05, 0.2, 1.0).with_weight(0.01)),
        )
        .unwrap();
        for m in [model(), mixed(), beta] {
            let want = crate::sweep::tests::oracle(&m);
            for algorithm in [Algorithm::Auto, Algorithm::Alg1Ext] {
                let sens = sensitivity(&m, algorithm).unwrap();
                for (s, o) in want.iter().enumerate() {
                    let g = &o.gradients;
                    for r in 0..m.num_classes() {
                        close(
                            sens.nonblocking_by_rho[r][s],
                            g.nonblocking_by_rho[r],
                            1e-10,
                        );
                        close(
                            sens.concurrency_by_rho[r][s],
                            g.concurrency_by_rho[r],
                            1e-10,
                        );
                    }
                    close(sens.revenue_by_rho[s], g.revenue_by_rho, 1e-10);
                    close(sens.revenue_by_beta[s], g.revenue_by_beta, 1e-10);
                }
            }
        }
    }

    #[test]
    fn sensitivity_from_cached_solver_is_bit_identical_and_precompute_free() {
        let m = model();
        let sweep = SweepSolver::new(&m, Algorithm::Auto).unwrap();
        let fresh = sensitivity(&m, Algorithm::Auto).unwrap();

        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let cached = sensitivity_from(&sweep).unwrap();
        let snap = reg.snapshot();
        assert!(snap.histogram("span.sweep.precompute").is_none());
        assert_eq!(snap.counter("sweep.gradients"), Some(2));
        // The gradient passes read the full ray alone: no leave-one-out
        // ray is built.
        assert_eq!(snap.counter("sweep.loo_build"), None);

        for s in 0..2 {
            for r in 0..2 {
                assert_eq!(
                    cached.nonblocking_by_rho[r][s].to_bits(),
                    fresh.nonblocking_by_rho[r][s].to_bits()
                );
                assert_eq!(
                    cached.concurrency_by_rho[r][s].to_bits(),
                    fresh.concurrency_by_rho[r][s].to_bits()
                );
            }
            assert_eq!(
                cached.revenue_by_rho[s].to_bits(),
                fresh.revenue_by_rho[s].to_bits()
            );
            assert_eq!(
                cached.revenue_by_beta[s].to_bits(),
                fresh.revenue_by_beta[s].to_bits()
            );
        }
    }

    #[test]
    fn exact_path_performs_no_full_solves() {
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        sensitivity(&model(), Algorithm::Auto).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("solver.solve"), None, "exact path re-solved");
        assert_eq!(snap.counter("sweep.gradients"), Some(2));
    }
}
