//! Front-end solver: pick an algorithm/backend, run it, and expose every
//! performance measure (including the §4 revenue gradients) behind one
//! [`Solution`] type — for a full solve and for a
//! [`SweepSolver`](crate::SweepSolver) point alike.
//!
//! To check an `Auto` solve against an independent recursion, see the
//! [`cross_check`] submodule.

pub mod cache;
pub mod cross_check;

pub use cache::SolveCache;

use std::fmt;

use xbar_numeric::{forward_diff, ExtFloat, GuardError};

use self::cross_check::CrossCheckFailure;

use crate::alg1::{QLattice, QRatio, ScaledQLattice};
use crate::alg2::Mva;
use crate::alg3::Convolution;
use crate::measures::{
    measures, measures_at, revenue_gradient_rho_closed, shadow_cost, SwitchMeasures,
};
use crate::model::{Dims, Model, ModelError};
use crate::sweep::Ray;

/// Which algorithm/backend to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// The diagonal ray ([`crate::sweep`]): every measure reads `Q` only
    /// on `(N1 − d, N2 − d)`, so the classes are installed once on the
    /// empty ray in `O(R·C²/a)` instead of sweeping the `O(N1·N2·R)`
    /// lattice. Scaled `f64` at every `N`, extended range where the
    /// scaled ray is unhealthy.
    #[default]
    Auto,
    /// Algorithm 1, plain `f64` — fails with [`SolveError::Underflow`] if
    /// any lattice cell underflows.
    Alg1F64,
    /// Algorithm 1 with the paper's §6 dynamic scaling (geometric
    /// schedule).
    Alg1Scaled,
    /// Algorithm 1 on extended-range floats (robust at any size).
    Alg1Ext,
    /// Algorithm 2 — mean-value analysis on ratios (paper §5.1).
    Mva,
    /// Algorithm 3 (ours) — occupancy-space convolution; also the backend
    /// that exposes occupancy and per-class marginal distributions.
    Convolution,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::Auto => "auto",
            Algorithm::Alg1F64 => "alg1-f64",
            Algorithm::Alg1Scaled => "alg1-scaled",
            Algorithm::Alg1Ext => "alg1-ext",
            Algorithm::Mva => "alg2-mva",
            Algorithm::Convolution => "alg3-convolution",
        };
        write!(f, "{s}")
    }
}

/// Why solving failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Model construction/validation failed (re-wrapped from perturbation
    /// helpers).
    Model(ModelError),
    /// The chosen fixed-precision backend under- or overflowed; re-run with
    /// [`Algorithm::Alg1Ext`] or [`Algorithm::Mva`].
    Underflow(Algorithm),
    /// The backend ran to completion but produced a measure the numeric
    /// guards reject (`NaN`/∞, or a probability outside `[0, 1]`).
    Guard {
        /// The backend that produced the rejected value.
        algorithm: Algorithm,
        /// Which quantity was rejected and why.
        source: GuardError,
    },
    /// The `Auto` solve and the independent cross-check algorithm
    /// disagree beyond tolerance; the payload carries both answers.
    CrossCheckFailed(Box<CrossCheckFailure>),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(e) => write!(f, "model error: {e}"),
            SolveError::Underflow(a) => write!(
                f,
                "backend {a} under/overflowed on this instance; use alg1-ext or alg2-mva"
            ),
            SolveError::Guard { algorithm, source } => {
                write!(
                    f,
                    "backend {algorithm} produced an invalid measure: {source}"
                )
            }
            SolveError::CrossCheckFailed(failure) => write!(f, "{failure}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ModelError> for SolveError {
    fn from(e: ModelError) -> Self {
        SolveError::Model(e)
    }
}

/// What a [`Solution`] reads its measures from: a whole lattice (or
/// Algorithm 2/3's equivalent), or a diagonal ray.
pub(crate) enum Backend {
    F64(QLattice<f64>),
    Scaled(ScaledQLattice),
    Ext(QLattice<ExtFloat>),
    Mva(Mva),
    Conv(Convolution),
    RayScaled(Ray<f64>),
    RayExt(Ray<ExtFloat>),
}

impl Backend {
    /// The algorithm that actually ran (what a guard failure names).
    fn algorithm(&self) -> Algorithm {
        match self {
            Backend::F64(_) => Algorithm::Alg1F64,
            Backend::Scaled(_) | Backend::RayScaled(_) => Algorithm::Alg1Scaled,
            Backend::Ext(_) | Backend::RayExt(_) => Algorithm::Alg1Ext,
            Backend::Mva(_) => Algorithm::Mva,
            Backend::Conv(_) => Algorithm::Convolution,
        }
    }
}

impl QRatio for Backend {
    fn dims(&self) -> Dims {
        match self {
            Backend::F64(l) => l.dims(),
            Backend::Scaled(l) => l.dims(),
            Backend::Ext(l) => l.dims(),
            Backend::Mva(l) => l.dims(),
            Backend::Conv(l) => l.dims(),
            Backend::RayScaled(l) => l.dims(),
            Backend::RayExt(l) => l.dims(),
        }
    }

    fn q_ratio(&self, num: (i64, i64), den: (i64, i64)) -> f64 {
        match self {
            Backend::F64(l) => l.q_ratio(num, den),
            Backend::Scaled(l) => l.q_ratio(num, den),
            Backend::Ext(l) => l.q_ratio(num, den),
            Backend::Mva(l) => l.q_ratio(num, den),
            Backend::Conv(l) => l.q_ratio(num, den),
            Backend::RayScaled(l) => l.q_ratio(num, den),
            Backend::RayExt(l) => l.q_ratio(num, den),
        }
    }
}

/// A solved model: the lattice or ray plus the evaluated measures.
pub struct Solution {
    model: Model,
    algorithm: Algorithm,
    backend: Backend,
    measures: SwitchMeasures,
}

/// Solve `model` with the requested algorithm.
pub fn solve(model: &Model, algorithm: Algorithm) -> Result<Solution, SolveError> {
    xbar_obs::inc("solver.solve");
    if xbar_obs::enabled() {
        xbar_obs::inc(&format!("solver.solve.{algorithm}"));
    }
    let backend = match algorithm {
        Algorithm::Auto => crate::sweep::full_ray(model),
        Algorithm::Alg1F64 => {
            let lat: QLattice<f64> = QLattice::solve(model);
            if !lat.is_healthy() {
                xbar_obs::inc("solver.reject.underflow");
                return Err(SolveError::Underflow(algorithm));
            }
            Backend::F64(lat)
        }
        Algorithm::Alg1Scaled => {
            let lat = ScaledQLattice::solve(model);
            if !lat.is_healthy() {
                xbar_obs::inc("solver.reject.underflow");
                return Err(SolveError::Underflow(algorithm));
            }
            Backend::Scaled(lat)
        }
        Algorithm::Alg1Ext => Backend::Ext(QLattice::solve(model)),
        Algorithm::Mva => Backend::Mva(Mva::solve(model)),
        Algorithm::Convolution => Backend::Conv(Convolution::solve(model)),
    };
    Solution::new(model.clone(), algorithm, backend)
}

impl Solution {
    /// Evaluate and guard the measures of `model` read from `backend`;
    /// `algorithm` is the one requested.
    pub(crate) fn new(
        model: Model,
        algorithm: Algorithm,
        backend: Backend,
    ) -> Result<Self, SolveError> {
        let m = measures(&model, &backend);
        m.validate().map_err(|source| {
            xbar_obs::inc("solver.reject.guard");
            SolveError::Guard {
                algorithm: backend.algorithm(),
                source,
            }
        })?;
        Ok(Solution {
            model,
            algorithm,
            backend,
            measures: m,
        })
    }

    /// The solved model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The algorithm this solution was requested with (as passed to
    /// [`solve`] or [`SweepSolver::new`](crate::SweepSolver::new), so
    /// [`Algorithm::Auto`] stays `Auto`).
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// All measures at the full dims.
    pub fn measures(&self) -> &SwitchMeasures {
        &self.measures
    }

    /// Blocking probability `1 − B_r` for class `r` — what the paper's
    /// figures plot.
    pub fn blocking(&self, r: usize) -> f64 {
        self.measures.classes[r].blocking
    }

    /// The paper's non-blocking probability `B_r` (eq. 4).
    pub fn nonblocking(&self, r: usize) -> f64 {
        self.measures.classes[r].nonblocking
    }

    /// Concurrency `E_r` (mean connections in progress).
    pub fn concurrency(&self, r: usize) -> f64 {
        self.measures.classes[r].concurrency
    }

    /// Class throughput `μ_r·E_r`.
    pub fn throughput(&self, r: usize) -> f64 {
        self.measures.classes[r].throughput
    }

    /// Call-level acceptance ratio for class `r` (equals `B_r` for Poisson
    /// classes).
    pub fn call_acceptance(&self, r: usize) -> f64 {
        self.measures.classes[r].call_acceptance
    }

    /// Revenue `W(N) = Σ_r w_r·E_r` (paper §4).
    pub fn revenue(&self) -> f64 {
        self.measures.revenue
    }

    /// Unweighted throughput `Σ_r μ_r·E_r`.
    pub fn total_throughput(&self) -> f64 {
        self.measures.total_throughput
    }

    /// Measures at a sub-switch (same per-set rates), read from the same
    /// solved lattice. A ray-backed solution ([`Algorithm::Auto`], or any
    /// [`SweepSolver`](crate::SweepSolver) point) answers only on its ray
    /// `(N1 − d, N2 − d)` and panics elsewhere.
    pub fn measures_at(&self, dims: Dims) -> SwitchMeasures {
        measures_at(&self.model, &self.backend, dims)
    }

    /// Shadow cost `ΔW = W(N) − W(N − a_r·I)` (paper §4).
    pub fn shadow_cost(&self, r: usize) -> f64 {
        shadow_cost(&self.model, &self.backend, r)
    }

    /// Closed-form `∂W/∂ρ_r` (paper §4; exact for workloads with no bursty
    /// class, first-order otherwise).
    pub fn revenue_gradient_rho(&self, r: usize) -> f64 {
        revenue_gradient_rho_closed(&self.model, &self.backend, r)
    }

    /// `∂W/∂ρ_r` by forward difference (re-solves the model twice with the
    /// same algorithm) — the cross-check for the closed form.
    pub fn revenue_gradient_rho_fd(&self, r: usize) -> Result<f64, SolveError> {
        let x0 = self.model.workload().classes()[r].rho();
        self.fd(x0, |x| {
            let m = self.model.with_rho(r, x)?;
            Ok(solve(&m, self.algorithm)?.revenue())
        })
    }

    /// `∂W/∂(β_r/μ_r)` by forward difference — the quantity the paper
    /// approximates numerically for bursty classes (§4, Table 2).
    pub fn revenue_gradient_beta_fd(&self, r: usize) -> Result<f64, SolveError> {
        let c = &self.model.workload().classes()[r];
        let x0 = c.beta / c.mu;
        self.fd(x0, |x| {
            let m = self.model.with_beta_over_mu(r, x)?;
            Ok(solve(&m, self.algorithm)?.revenue())
        })
    }

    /// Stationary distribution of the total occupancy `k·A` (how many
    /// ports are busy). Served directly when this solution was computed
    /// with [`Algorithm::Convolution`]; otherwise a convolution is run on
    /// demand (`O(R·C²)`).
    pub fn occupancy_distribution(&self) -> Vec<f64> {
        match &self.backend {
            Backend::Conv(c) => c.occupancy_distribution(),
            _ => Convolution::solve(&self.model).occupancy_distribution(),
        }
    }

    /// Marginal distribution `P(k_r = j)` of class `r` (same on-demand
    /// behaviour as [`Solution::occupancy_distribution`]).
    pub fn class_marginal(&self, r: usize) -> Vec<f64> {
        match &self.backend {
            Backend::Conv(c) => c.class_marginal(r),
            _ => Convolution::solve(&self.model).class_marginal(r),
        }
    }

    fn fd<F>(&self, x0: f64, f: F) -> Result<f64, SolveError>
    where
        F: Fn(f64) -> Result<f64, SolveError>,
    {
        // forward_diff takes an infallible closure; trap the first error.
        let mut err: Option<SolveError> = None;
        let g = forward_diff(
            |x| match f(x) {
                Ok(v) => v,
                Err(e) => {
                    err.get_or_insert(e);
                    f64::NAN
                }
            },
            x0,
        );
        match err {
            Some(e) => Err(e),
            None => Ok(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::Brute;
    use xbar_traffic::{TrafficClass, Workload};

    fn close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!((a - b).abs() / scale < tol, "{a} vs {b}");
    }

    fn mixed_model(n: u32) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3).with_weight(1.0))
            .with(TrafficClass::bpp(0.2, 0.08, 1.0).with_weight(0.5))
            .with(
                TrafficClass::poisson(0.1)
                    .with_bandwidth(2)
                    .with_weight(0.25),
            );
        Model::new(Dims::square(n), w).unwrap()
    }

    #[test]
    fn all_algorithms_agree_small() {
        let m = mixed_model(6);
        let algs = [
            Algorithm::Alg1F64,
            Algorithm::Alg1Scaled,
            Algorithm::Alg1Ext,
            Algorithm::Mva,
            Algorithm::Convolution,
            Algorithm::Auto,
        ];
        let brute = Brute::new(&m);
        for alg in algs {
            let sol = solve(&m, alg).unwrap();
            for r in 0..3 {
                close(sol.nonblocking(r), brute.nonblocking(r), 1e-9);
                close(sol.concurrency(r), brute.concurrency(r), 1e-9);
            }
            close(sol.revenue(), brute.revenue(), 1e-9);
        }
    }

    #[test]
    fn auto_switches_backend_with_size() {
        // Small: the scaled ray.
        let m = mixed_model(8);
        assert!(solve(&m, Algorithm::Auto).is_ok());
        // Large: the plain f64 lattice underflows, Auto must still succeed.
        let w = Workload::new().with(TrafficClass::poisson(1e-5));
        let big = Model::new(Dims::square(200), w).unwrap();
        assert!(matches!(
            solve(&big, Algorithm::Alg1F64),
            Err(SolveError::Underflow(_))
        ));
        let sol = solve(&big, Algorithm::Auto).unwrap();
        assert!(sol.blocking(0).is_finite());
    }

    /// The ray-vs-lattice probe model: a Poisson class, a peaky BPP class
    /// and an `a = 2` Poisson class, each offering a third of `load`
    /// Erlang per port of an `n × n` switch.
    fn probe_model(n: u32, load: f64) -> Model {
        let rho = |a: u32| {
            let pp = xbar_numeric::permutation(n as u64, a as u64);
            load / 3.0 / (pp * pp * a as f64 / n as f64)
        };
        let w = Workload::new()
            .with(TrafficClass::poisson(rho(1)).with_weight(1.0))
            .with(TrafficClass::bpp(rho(1), 0.5 * rho(1), 1.0).with_weight(0.5))
            .with(
                TrafficClass::poisson(rho(2))
                    .with_bandwidth(2)
                    .with_weight(0.25),
            );
        Model::new(Dims::square(n), w).unwrap()
    }

    /// Every measure of `got` within `tol` of `want`, relative to `scale`
    /// (by default the larger magnitude of the two).
    fn assert_same_measures(got: &Solution, want: &Solution, tol: f64) {
        let model = got.model();
        let check = |what: &str, a: f64, b: f64, scale: f64| {
            let gap = (a - b).abs() / scale.max(f64::MIN_POSITIVE);
            assert!(gap <= tol, "{what}: {a} vs {b} ({})", model.dims());
        };
        let rel = |what: &str, a: f64, b: f64| check(what, a, b, a.abs().max(b.abs()));
        for (r, class) in model.workload().classes().iter().enumerate() {
            rel("B_r", got.nonblocking(r), want.nonblocking(r));
            rel("E_r", got.concurrency(r), want.concurrency(r));
            rel("throughput", got.throughput(r), want.throughput(r));
            rel(
                "acceptance",
                got.call_acceptance(r),
                want.call_acceptance(r),
            );
            rel("shadow cost", got.shadow_cost(r), want.shadow_cost(r));
            // ∂W/∂ρ_r = P·B_r·(w_r − ΔW) cancels where ΔW ≈ w_r, so its
            // gap is measured against the terms it subtracts.
            let pp = xbar_numeric::permutation(model.dims().n1 as u64, class.bandwidth as u64)
                * xbar_numeric::permutation(model.dims().n2 as u64, class.bandwidth as u64);
            let terms = class.weight.abs().max(want.shadow_cost(r).abs());
            check(
                "dW/drho",
                got.revenue_gradient_rho(r),
                want.revenue_gradient_rho(r),
                pp * want.nonblocking(r) * terms,
            );
        }
        rel("revenue", got.revenue(), want.revenue());
    }

    #[test]
    fn auto_answers_from_the_ray_and_matches_the_lattice() {
        for n in [16u32, 64, 128, 256, 512] {
            for load in [0.1, 0.6, 4.0] {
                let m = probe_model(n, load);
                let reg = std::sync::Arc::new(xbar_obs::Registry::new());
                let _g = xbar_obs::scope(&reg);
                let auto = solve(&m, Algorithm::Auto).unwrap();
                assert_eq!(reg.snapshot().counter("alg1.cells"), None, "N={n}");
                let ext = solve(&m, Algorithm::Alg1Ext).unwrap();
                let cells = ((n + 1) * (n + 1)) as u64;
                assert_eq!(reg.snapshot().counter("alg1.cells"), Some(cells));
                assert_same_measures(&auto, &ext, 1e-12);
                if n <= 64 {
                    let f64_ = solve(&m, Algorithm::Alg1F64).unwrap();
                    assert_same_measures(&auto, &f64_, 1e-12);
                }
            }
        }
    }

    #[test]
    fn large_switch_backends_agree() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.0012 / 128.0).with_weight(1.0))
            .with(TrafficClass::bpp(0.0012 / 128.0, 0.0012 / 128.0, 1.0).with_weight(0.0001));
        let m = Model::new(Dims::square(128), w).unwrap();
        let ext = solve(&m, Algorithm::Alg1Ext).unwrap();
        let scaled = solve(&m, Algorithm::Alg1Scaled).unwrap();
        let mva = solve(&m, Algorithm::Mva).unwrap();
        let conv = solve(&m, Algorithm::Convolution).unwrap();
        for r in 0..2 {
            close(ext.blocking(r), scaled.blocking(r), 1e-8);
            close(ext.blocking(r), mva.blocking(r), 1e-8);
            close(ext.blocking(r), conv.blocking(r), 1e-8);
            close(ext.concurrency(r), mva.concurrency(r), 1e-8);
            close(ext.concurrency(r), conv.concurrency(r), 1e-8);
        }
        close(ext.revenue(), mva.revenue(), 1e-8);
        close(ext.revenue(), conv.revenue(), 1e-8);
    }

    #[test]
    fn gradients_closed_vs_fd_pure_poisson() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.1).with_weight(1.0))
            .with(
                TrafficClass::poisson(0.05)
                    .with_bandwidth(2)
                    .with_weight(0.3),
            );
        let m = Model::new(Dims::square(8), w).unwrap();
        let sol = solve(&m, Algorithm::Alg1F64).unwrap();
        for r in 0..2 {
            let closed = sol.revenue_gradient_rho(r);
            let fd = sol.revenue_gradient_rho_fd(r).unwrap();
            close(closed, fd, 1e-5);
        }
    }

    #[test]
    fn beta_gradient_sign_matches_paper_table2_story() {
        // Table 2: ∂W/∂(β2/μ2) turns negative once the switch is large
        // enough that bursty traffic displaces the high-revenue class.
        let n = 16u32;
        let w = Workload::new()
            .with(TrafficClass::poisson(0.0012 / n as f64).with_weight(1.0))
            .with(TrafficClass::bpp(0.0012 / n as f64, 0.0012 / n as f64, 1.0).with_weight(0.0001));
        let m = Model::new(Dims::square(n), w).unwrap();
        let sol = solve(&m, Algorithm::Alg1F64).unwrap();
        let g = sol.revenue_gradient_beta_fd(1).unwrap();
        assert!(g < 0.0, "{g}");
    }

    #[test]
    fn solution_accessors_consistent() {
        let m = mixed_model(5);
        let sol = solve(&m, Algorithm::Auto).unwrap();
        for r in 0..3 {
            close(sol.blocking(r), 1.0 - sol.nonblocking(r), 1e-15);
            let c = &sol.measures().classes[r];
            close(
                sol.throughput(r),
                c.concurrency * m.workload().classes()[r].mu,
                1e-15,
            );
        }
        let sub = sol.measures_at(Dims::square(3));
        assert!(sub.revenue < sol.revenue());
        assert!(sol.shadow_cost(0) > 0.0);
        assert_eq!(format!("{}", Algorithm::Mva), "alg2-mva");
    }
}
