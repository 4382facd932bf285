//! Incremental sweep solver: per-class leave-one-out partial convolutions.
//!
//! Every numerical study in the paper (Figures 1–4, Tables 1–2, the
//! hotspot and rectangular sweeps) varies **one class's** BPP parameters
//! (`α_r`, `β_r`) or its rate `a_r` across dozens of points, yet a fresh
//! [`solve`](crate::solve) installs every class again at every point.
//! The product form factors per class,
//!
//! ```text
//! G = Ψ ⊛ Φ_1 ⊛ … ⊛ Φ_R,
//! ```
//!
//! so the normalised lattice obeys the classic *class-deletion* identity
//! of convolution algorithms for product-form loss networks:
//!
//! ```text
//! Q_{S ∪ {r}}(n1, n2) = Σ_{j ≥ 0} Φ_r(j) · Q_S(n1 − j·a_r, n2 − j·a_r),
//! Φ_r(j) = Π_{l=1..j} (ρ_r + y_r·(l−1)) / l,     y_r = β_r / μ_r,
//! ```
//!
//! where `Q_S` is the normalised lattice with only the classes in `S`
//! installed. [`SweepSolver`] keeps the leave-one-out partials `Q_{-r}`
//! of one base model and answers `solve_with_class(r, class)` with a
//! single recombination.
//!
//! The precompute is eager only where every use needs it: the prefix
//! chain `pre[i] = Q_{classes[..i]}` and the full ray, `R` class
//! installs — the work `solve(Auto)` does. `Q_{-r}` is `pre[r]` with
//! the classes after `r` installed; it is built on the first point or
//! gradient that edits class `r` (counted as `sweep.loo_build`), and
//! `Q_{-(R−1)} = pre[R−1]` costs nothing. A sweep of class `r`
//! therefore pays `R + (R−1−r)` installs, not the `R(R+1)/2` of an
//! eager prefix/suffix build.
//!
//! # The diagonal ray
//!
//! Every switch measure in [`crate::measures`] — blocking, the `E_r`
//! concurrency chain, shadow costs, the closed-form revenue gradient —
//! reads `Q` only on the main diagonal ray `(N1 − d, N2 − d)`,
//! `d = 0..=min(N1, N2)` (targets shrink by `a·I` steps from the full
//! dims). The ray is *closed* under the class-deletion convolution, so
//! the solver stores `O(min N)` values per class instead of `O(N1·N2)`
//! and a recombination costs at most `O(C²/a_r)` multiply-adds (the
//! kernel stops where the `Φ_r` terms can no longer change a bit; see
//! [`crate::simd`]) — this is what buys the large per-point speedup
//! over a fresh lattice solve. The same closure makes the full ray alone
//! the production solver: `solve(model, Auto)` installs the `R` classes
//! once on the empty ray (`full_ray`) and reads every measure from it.
//!
//! Two numeric backends mirror Algorithm 1's, over the same
//! [`QScalar`] trait: scaled `f64` (the §6 geometric schedule, same
//! `ln c` as `ScaledQLattice`) and [`ExtFloat`]. Precomputes, point
//! solves and gradients are one generic code path for both.
//! `Algorithm::Auto` tries the scaled rays at every `N` — the largest
//! scaled ray value is about `e^{2N/e}`, in `f64` range up to
//! `N ≈ 960` at light load — and falls back to extended range only where
//! a scaled ray leaves its operating envelope: a full ray, the eager
//! precompute, a lazily built leave-one-out ray, or a single
//! recombination, which is then redone against extended-range rays built
//! once per solver on first need.
//!
//! The same partials yield the §4 sensitivity gradients **exactly**:
//! differentiating `Φ_r` term-by-term gives `∂Q/∂ρ_s` and `∂Q/∂y_s`
//! rays, and the blocking/concurrency/revenue gradients follow from the
//! chain rule through the `E_r` recursion — no finite differences and no
//! extra solves (see [`SweepSolver::gradients`]).

use std::sync::OnceLock;

use xbar_numeric::{permutation, ExtFloat};
use xbar_traffic::{TrafficClass, Workload};

use crate::alg1::{scale_ln_c, QRatio, QScalar};
use crate::model::{Dims, Model};
use crate::simd::phi_ratio;
use crate::solver::{Algorithm, Backend, Solution, SolveError};

/// The normalised lattice restricted to the main diagonal ray
/// `(N1 − d, N2 − d)`, `d = 0..=C`, `C = min(N1, N2)`.
///
/// Stored values carry the same geometric scale as `ScaledQLattice`:
/// `vals[d] = Q(N1−d, N2−d) · c^{(N1−d) + (N2−d)}` with
/// `ln c = max(ln(max N) − 1, 0)` (identically zero scale for the
/// extended-range backend). Ratios between ray points therefore need a
/// `c^{2(d_num − d_den)}` correction, applied in [`QRatio::q_ratio`].
#[derive(Clone, Debug)]
pub(crate) struct Ray<S> {
    dims: Dims,
    ln_c: f64,
    vals: Vec<S>,
    /// `shifts[k] = c^{2k}` for every offset `k ≤ max a_r` of the
    /// model: the measures read ratios `a_r` apart, so the `exp` of
    /// each scale correction is taken once per ray, not once per ratio.
    shifts: Vec<f64>,
}

impl<S: QScalar> Ray<S> {
    /// The ray `vals` of `model` at scale `ln c`.
    fn new(model: &Model, ln_c: f64, vals: Vec<S>) -> Self {
        let max_a = model
            .workload()
            .classes()
            .iter()
            .map(|c| c.bandwidth as usize)
            .max()
            .unwrap_or(0);
        Ray {
            dims: model.dims(),
            ln_c,
            vals,
            shifts: (0..=max_a).map(|k| shift(k as f64, ln_c)).collect(),
        }
    }

    /// The full ray of `model`: its classes installed, in order, on the
    /// empty ray. Bit-for-bit the full ray [`Rays::build`] keeps.
    pub(crate) fn of(model: &Model, ln_c: f64) -> Self {
        let empty = empty_ray(model.dims(), ln_c);
        Ray::new(
            model,
            ln_c,
            install_all(empty, model.workload().classes(), ln_c),
        )
    }

    /// Ray index of the lattice point `p`, panicking (like
    /// `QLattice::q`) if `p` is off the ray or outside the dims.
    fn d_of(&self, p: (i64, i64)) -> usize {
        let d = self.dims.n1 as i64 - p.0;
        let on_ray = d >= 0 && d < self.vals.len() as i64 && self.dims.n2 as i64 - d == p.1;
        assert!(
            on_ray,
            "Q({}, {}) outside the solved diagonal ray of {}",
            p.0, p.1, self.dims
        );
        d as usize
    }

    /// `Q(ray num) / Q(ray den)` with the scale shift undone.
    fn index_ratio(&self, num: usize, den: usize) -> f64 {
        let shift = match num.checked_sub(den).and_then(|k| self.shifts.get(k)) {
            Some(&s) => s,
            None => shift(num as f64 - den as f64, self.ln_c),
        };
        self.vals[num].ratio_to(self.vals[den]) * shift
    }

    fn is_healthy(&self) -> bool {
        healthy(&self.vals)
    }
}

/// The scale correction `c^{2k}` between ray points `k` apart.
fn shift(k: f64, ln_c: f64) -> f64 {
    (2.0 * k * ln_c).exp()
}

fn healthy<S: QScalar>(vals: &[S]) -> bool {
    vals.iter().all(|v| v.healthy())
}

impl<S: QScalar> QRatio for Ray<S> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn q_ratio(&self, num: (i64, i64), den: (i64, i64)) -> f64 {
        if num.0 < 0 || num.1 < 0 {
            return 0.0;
        }
        self.index_ratio(self.d_of(num), self.d_of(den))
    }

    /// One pass down the slice from `target`: each ratio is
    /// [`Ray::index_ratio`]'s expression, with `target` checked once
    /// instead of twice per point.
    fn diagonal_ratios(&self, target: (i64, i64), a: i64, out: &mut Vec<f64>) {
        out.clear();
        if target.0.min(target.1) >= a {
            let vals = &self.vals[self.d_of(target)..];
            let a = a as usize;
            let shift = match self.shifts.get(a) {
                Some(&s) => s,
                None => shift(a as f64, self.ln_c),
            };
            let nums = vals[a..].iter().step_by(a);
            let dens = vals.iter().step_by(a);
            out.extend(nums.zip(dens).map(|(&num, &den)| num.ratio_to(den) * shift));
        }
        // The last step leaves the ray: a negative coordinate, `Q = 0`.
        out.push(0.0);
    }
}

/// Scaled `Φ_r(j)` series for one class: `phi[j] = Φ_r(j) · c^{2·j·a_r}`
/// up to the last multiple of `a_r` that fits on a ray of length `len`,
/// with `factor = c^{2·a_r}`.
///
/// `Φ_r(0) = 1`, `Φ_r(j) = Φ_r(j−1) · (ρ_r + y_r·(j−1)) / j`. The
/// `λ_r(k) = α_r + β_r·k` factors are *not* clamped at zero — Algorithm 1
/// analytically continues Bernoulli classes the same way, and for a valid
/// model `j − 1 < max N ≤ S` keeps every factor non-negative in range.
pub(crate) fn phi_series<S: QScalar>(
    len: usize,
    a: usize,
    rho: f64,
    y: f64,
    factor: f64,
) -> Vec<S> {
    let jmax = (len - 1) / a;
    let mut phi = Vec::with_capacity(jmax + 1);
    let mut cur = S::from_ln(0.0);
    phi.push(cur);
    for j in 1..=jmax {
        cur = cur.scale(phi_ratio(factor, rho, y, j));
        phi.push(cur);
    }
    phi
}

#[cfg(test)]
thread_local! {
    /// Class installs made on this thread (recombinations included).
    static INSTALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Install class `c` on top of the partial ray `base`:
/// `out[d] = Σ_{j ≥ 0} phi[j] · base[d + j·a]` (deeper ray points are
/// *smaller* switches; indices past the ray end are outside the
/// sub-switch and contribute zero — exact truncation, not an
/// approximation).
fn install_class<S: QScalar>(base: &[S], c: &TrafficClass, ln_c: f64) -> Vec<S> {
    #[cfg(test)]
    INSTALLS.with(|n| n.set(n.get() + 1));
    let a = c.bandwidth as usize;
    S::install(base, a, c.rho(), c.beta / c.mu, shift(a as f64, ln_c))
}

fn install_all<S: QScalar>(mut ray: Vec<S>, classes: &[TrafficClass], ln_c: f64) -> Vec<S> {
    for c in classes {
        ray = install_class(&ray, c, ln_c);
    }
    ray
}

/// The empty-workload ray: `Q_∅(n1, n2) = 1/(n1!·n2!)`, at scale
/// `c^{n1+n2}`. On a square switch `n1 = n2` at every point, so each
/// point takes one `ln n!`.
fn empty_ray<S: QScalar>(dims: Dims, ln_c: f64) -> Vec<S> {
    let c = dims.min_n() as usize;
    (0..=c)
        .map(|d| {
            let n1 = (dims.n1 as usize - d) as u64;
            let n2 = (dims.n2 as usize - d) as u64;
            let sum = (n1 + n2) as f64;
            let ln1 = xbar_numeric::ln_factorial(n1);
            let ln2 = if n2 == n1 {
                ln1
            } else {
                xbar_numeric::ln_factorial(n2)
            };
            S::from_ln(sum * ln_c - ln1 - ln2)
        })
        .collect()
}

/// `solve(model, Auto)`'s backend: the full ray in scaled `f64`, or in
/// extended range (counted as `sweep.escalate`) where the scaled ray is
/// unhealthy. `R` class installs; no leave-one-out rays.
pub(crate) fn full_ray(model: &Model) -> Backend {
    let scaled = Ray::of(model, scale_ln_c(model.dims()));
    if scaled.is_healthy() {
        return Backend::RayScaled(scaled);
    }
    xbar_obs::inc("sweep.escalate");
    Backend::RayExt(Ray::of(model, 0.0))
}

/// One backend's precompute of a base model: the full ray and the
/// prefix chain, built eagerly, and the leave-one-out rays
/// `loo[r] = Q_{-r}`, built on first use.
struct Rays<S> {
    full: Ray<S>,
    classes: Vec<TrafficClass>,
    /// `pre[i] = Q_{classes[..i]}` for `i < R`; `pre[R−1]` is `Q_{-(R−1)}`.
    pre: Vec<Vec<S>>,
    /// `Q_{-r}` for `r < R − 1`: `None` once built if it is unhealthy.
    loo: Vec<OnceLock<Option<Vec<S>>>>,
}

impl<S: QScalar> Rays<S> {
    /// Install the classes one by one on the empty ray, keeping each
    /// prefix `pre[i]`: `R` installs, the same as [`Ray::of`].
    fn build(model: &Model, ln_c: f64) -> Self {
        let classes = model.workload().classes();
        let mut pre = Vec::with_capacity(classes.len());
        let mut ray: Vec<S> = empty_ray(model.dims(), ln_c);
        for c in classes {
            let next = install_class(&ray, c, ln_c);
            pre.push(std::mem::replace(&mut ray, next));
        }
        Rays {
            full: Ray::new(model, ln_c, ray),
            classes: classes.to_vec(),
            pre,
            loo: (1..classes.len()).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Whether the eagerly built rays (the full ray and `Q_{-(R−1)}`)
    /// are healthy; each other `Q_{-r}` is checked when it is built.
    fn is_healthy(&self) -> bool {
        self.full.is_healthy() && self.pre.last().is_none_or(|l| healthy(l))
    }

    /// `Q_{-r}`, built on first use as `pre[r]` with the classes after
    /// `r` installed (`R − 1 − r` installs, counted as
    /// `sweep.loo_build`); `Underflow` where that ray is unhealthy.
    fn loo(&self, r: usize) -> Result<&[S], SolveError> {
        let Some(lazy) = self.loo.get(r) else {
            return Ok(&self.pre[r]);
        };
        lazy.get_or_init(|| {
            xbar_obs::inc("sweep.loo_build");
            let ray = xbar_obs::time("sweep.loo_build", || {
                install_all(self.pre[r].clone(), &self.classes[r + 1..], self.full.ln_c)
            });
            healthy(&ray).then_some(ray)
        })
        .as_deref()
        .ok_or(SolveError::Underflow(Algorithm::Alg1Scaled))
    }

    /// The ray of `model`, which differs from the base model at most in
    /// class `r = edit`: the cached full ray when `edit` is `None`, else
    /// `model`'s class `r` installed on `Q_{-r}` by one recombination of
    /// at most `O(C²/a)` multiply-adds. Only a scaled ray can leave its
    /// envelope, at `Q_{-r}` or at the recombination.
    fn point(&self, model: &Model, edit: Option<usize>) -> Result<Ray<S>, SolveError> {
        let Some(r) = edit else {
            xbar_obs::inc("sweep.reuse");
            return Ok(self.full.clone());
        };
        let loo = self.loo(r)?;
        xbar_obs::inc("sweep.recombine");
        let class = &model.workload().classes()[r];
        let ln_c = self.full.ln_c;
        let vals = xbar_obs::time("sweep.recombine", || install_class(loo, class, ln_c));
        let ray = Ray::new(model, ln_c, vals);
        if !ray.is_healthy() {
            return Err(SolveError::Underflow(Algorithm::Alg1Scaled));
        }
        Ok(ray)
    }

    /// [`SweepSolver::gradients`] of `model` (the base model) on these
    /// rays; `Underflow` where `Q_{-s}` is unhealthy.
    fn gradients(&self, model: &Model, s: usize) -> Result<SweepGradients, SolveError> {
        Ok(gradients_impl(model, &self.full, self.loo(s)?, s))
    }
}

enum Repr {
    Scaled(Rays<f64>),
    Ext(Rays<ExtFloat>),
}

/// Per-class partial convolutions for incremental parameter sweeps over
/// one class at a time: the full ray and prefix chain precomputed, each
/// leave-one-out ray built on the first edit of its class.
///
/// ```
/// use xbar_core::{Algorithm, Dims, Model, SweepSolver};
/// use xbar_traffic::{TrafficClass, Workload};
///
/// let w = Workload::new()
///     .with(TrafficClass::poisson(0.2))
///     .with(TrafficClass::bpp(0.1, 0.05, 1.0));
/// let model = Model::new(Dims::square(16), w).unwrap();
/// let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
/// for i in 0..10 {
///     let rho = 0.05 + 0.05 * i as f64;
///     let point = sweep.solve_with_rho(1, rho).unwrap();
///     assert!(point.blocking(1) >= 0.0);
/// }
/// ```
pub struct SweepSolver {
    base: Model,
    /// The requested algorithm; only `Auto` lets scaled rays fall back
    /// to extended range instead of failing.
    algorithm: Algorithm,
    repr: Repr,
    /// `Auto`'s extended-range rays of `base`, built on the first scaled
    /// point or gradient that leaves the envelope and shared by every
    /// later one (their leave-one-out rays, too, on first use).
    fallback: OnceLock<Rays<ExtFloat>>,
}

impl SweepSolver {
    /// Precompute the full ray and prefix chain of `model` (`R` class
    /// installs); each leave-one-out ray `Q_{-r}` is built on the first
    /// point or gradient of class `r`.
    ///
    /// `Alg1F64`, `Alg1Scaled` and `Auto` build scaled-`f64` rays at
    /// every `N`; everything else builds extended range. An explicit
    /// scaled request fails with [`SolveError::Underflow`] where the
    /// scaled rays leave their operating envelope: at precompute, at a
    /// lazily built `Q_{-r}` (for the points of class `r`) or at a
    /// recombination. `Auto` falls back to extended range instead: an
    /// unhealthy precompute is rebuilt in extended range, and a point or
    /// gradient whose `Q_{-r}` or recombination is unhealthy is redone
    /// against extended-range rays of the base model, built once per
    /// solver on first need. Either fallback counts `sweep.escalate`
    /// once.
    pub fn new(model: &Model, algorithm: Algorithm) -> Result<Self, SolveError> {
        Self::with_scale(model, algorithm, scale_ln_c(model.dims()))
    }

    /// [`SweepSolver::new`] with the scaled rays' `ln c` given.
    fn with_scale(model: &Model, algorithm: Algorithm, ln_c: f64) -> Result<Self, SolveError> {
        let auto = algorithm == Algorithm::Auto;
        let scaled_first = auto || matches!(algorithm, Algorithm::Alg1F64 | Algorithm::Alg1Scaled);
        let solver = |repr| Self {
            base: model.clone(),
            algorithm,
            repr,
            fallback: OnceLock::new(),
        };
        xbar_obs::time("sweep.precompute", || {
            if scaled_first {
                let rays = Rays::<f64>::build(model, ln_c);
                if rays.is_healthy() {
                    return Ok(solver(Repr::Scaled(rays)));
                }
                if !auto {
                    return Err(SolveError::Underflow(Algorithm::Alg1Scaled));
                }
                xbar_obs::inc("sweep.escalate");
            }
            Ok(solver(Repr::Ext(Rays::build(model, 0.0))))
        })
    }

    /// Build class `r`'s leave-one-out ray now instead of at its first
    /// point. An unhealthy one is kept as such, and the points of class
    /// `r` then fail or fall back as usual.
    pub(crate) fn build_leave_out(&self, r: usize) {
        let _ = match &self.repr {
            Repr::Scaled(rays) => rays.loo(r).is_ok(),
            Repr::Ext(rays) => rays.loo(r).is_ok(),
        };
    }

    /// `Auto`'s extended-range rays of the base model, built on first
    /// use (counted as `sweep.escalate`).
    fn fallback(&self) -> &Rays<ExtFloat> {
        self.fallback.get_or_init(|| {
            xbar_obs::inc("sweep.escalate");
            Rays::build(&self.base, 0.0)
        })
    }

    /// The base model the partials were computed for.
    pub fn model(&self) -> &Model {
        &self.base
    }

    /// The backend of the precompute (`Alg1Scaled` or `Alg1Ext`). Under
    /// `Auto` a point may still fall back to extended range where its
    /// scaled recombination is unhealthy (counted as `sweep.escalate`).
    pub fn algorithm(&self) -> Algorithm {
        match self.repr {
            Repr::Scaled(_) => Algorithm::Alg1Scaled,
            Repr::Ext(_) => Algorithm::Alg1Ext,
        }
    }

    /// Solve the *base* model (no edit) from the cached full ray.
    pub fn solve_base(&self) -> Result<Solution, SolveError> {
        self.solve_point(self.base.clone(), None)
    }

    /// Replace class `r` with `class` (any `α`, `β`, `μ`, `a_r`, weight)
    /// and solve by one recombination (at most `O(C²/a)`) against the
    /// leave-one-out ray (built on the first edit of class `r`). The
    /// replacement is validated like [`Model::new`].
    pub fn solve_with_class(&self, r: usize, class: TrafficClass) -> Result<Solution, SolveError> {
        let mut classes = self.base.workload().classes().to_vec();
        classes[r] = class;
        let model = Model::new(self.base.dims(), Workload::from_classes(classes))?;
        self.solve_edited(r, model)
    }

    /// Sweep class `r`'s offered load: solve with `ρ_r = rho` (i.e.
    /// `α_r = ρ_r·μ_r`), keeping `β_r`, `μ_r` and `a_r`. Like
    /// [`Model::with_rho`] this skips re-validation, analytically
    /// continuing the class.
    pub fn solve_with_rho(&self, r: usize, rho: f64) -> Result<Solution, SolveError> {
        let model = self
            .base
            .with_rho(r, rho)
            .expect("with_rho never fails for an in-range class");
        self.solve_edited(r, model)
    }

    /// Sweep class `r`'s peakedness: solve with `β_r/μ_r = x`, keeping
    /// `α_r`, `μ_r` and `a_r`. Like [`Model::with_beta_over_mu`] this
    /// skips re-validation (analytic continuation across the Bernoulli/
    /// Poisson/Pascal boundary).
    pub fn solve_with_beta_over_mu(&self, r: usize, x: f64) -> Result<Solution, SolveError> {
        let model = self
            .base
            .with_beta_over_mu(r, x)
            .expect("with_beta_over_mu never fails for an in-range class");
        self.solve_edited(r, model)
    }

    fn solve_edited(&self, r: usize, model: Model) -> Result<Solution, SolveError> {
        let class = &model.workload().classes()[r];
        let base = &self.base.workload().classes()[r];
        // The weight only enters the measures, not the lattice: a
        // weight-only edit reuses the cached full ray outright.
        let same_lattice = class.alpha == base.alpha
            && class.beta == base.beta
            && class.mu == base.mu
            && class.bandwidth == base.bandwidth;
        self.solve_point(model, (!same_lattice).then_some(r))
    }

    /// Measures of `model` from [`Rays::point`] in whichever backend the
    /// precompute settled on; under `Auto` an unhealthy scaled point is
    /// redone on the extended-range fallback rays.
    fn solve_point(&self, model: Model, edit: Option<usize>) -> Result<Solution, SolveError> {
        let backend = match &self.repr {
            Repr::Scaled(rays) => match rays.point(&model, edit) {
                Ok(ray) => Backend::RayScaled(ray),
                Err(_) if self.algorithm == Algorithm::Auto => {
                    Backend::RayExt(self.fallback().point(&model, edit)?)
                }
                Err(e) => return Err(e),
            },
            Repr::Ext(rays) => Backend::RayExt(rays.point(&model, edit)?),
        };
        Solution::new(model, self.algorithm, backend)
    }

    /// Exact §4 sensitivity gradients of the *base* model with respect
    /// to class `s`'s offered load `ρ_s` and peakedness `y_s = β_s/μ_s`,
    /// computed analytically from the cached partials — no finite
    /// differences, no extra solves.
    ///
    /// Differentiating the recombination term-by-term gives the
    /// derivative ray `Q'_θ(d) = Σ_{j≥1} Φ'_θ(j) · Q_{-s}(d + j·a_s)`
    /// (product rule down the `Φ_s` recurrence), and every measure
    /// gradient is a function of the log-derivatives
    /// `L_θ(d) = Q'_θ(d)/Q(d)`:
    ///
    /// * `∂B_r/∂θ = B_r · (L_θ(a_r) − L_θ(0))` — the blocking ratio is
    ///   `Q(shrunk)/Q(full)` scaled by a θ-independent permutation count;
    /// * `∂E_r/∂θ` follows the `E_r` backward recursion with each stage
    ///   ratio `h_t` perturbed by `h_t·(L_θ(d_t + a_r) − L_θ(d_t))` plus
    ///   the direct `∂λ_r/∂θ` drive when `r = s`;
    /// * `∂W/∂θ = Σ_r w_r · ∂E_r/∂θ`.
    ///
    /// Under `Auto`, gradients whose scaled `Q_{-s}` is unhealthy, or
    /// that come out non-finite on scaled rays (a derivative ray
    /// overflowed), are redone on the extended-range fallback rays. An
    /// explicit scaled request returns them non-finite (every entry NaN
    /// where `Q_{-s}` is unhealthy).
    pub fn gradients(&self, s: usize) -> SweepGradients {
        self.try_gradients(s)
            .unwrap_or_else(|_| SweepGradients::nan(self.base.num_classes()))
    }

    /// [`SweepSolver::gradients`], with an explicit scaled request's
    /// unhealthy `Q_{-s}` reported as [`SolveError::Underflow`].
    pub(crate) fn try_gradients(&self, s: usize) -> Result<SweepGradients, SolveError> {
        xbar_obs::inc("sweep.gradients");
        match &self.repr {
            Repr::Scaled(rays) => match rays.gradients(&self.base, s) {
                Ok(g) if g.is_finite() => Ok(g),
                scaled if self.algorithm != Algorithm::Auto => scaled,
                _ => self.fallback().gradients(&self.base, s),
            },
            Repr::Ext(rays) => rays.gradients(&self.base, s),
        }
    }
}

/// Scaled `dΦ_s/dρ` and `dΦ_s/dy` series (same `c^{2ja}` scale as
/// [`phi_series`]), by the product rule down the `Φ` recurrence:
/// `Φ'(j) = Φ'(j−1)·c_j + Φ(j−1)·∂c_j/∂θ` with
/// `c_j = factor·(ρ + y·(j−1))/j`.
fn dphi_series<S: QScalar>(len: usize, a: usize, rho: f64, y: f64, ln_c: f64) -> (Vec<S>, Vec<S>) {
    let jmax = (len - 1) / a;
    let factor = shift(a as f64, ln_c);
    let mut phi = S::from_ln(0.0);
    let mut d_rho = Vec::with_capacity(jmax + 1);
    let mut d_y = Vec::with_capacity(jmax + 1);
    let mut cur_rho = S::zero();
    let mut cur_y = S::zero();
    d_rho.push(cur_rho);
    d_y.push(cur_y);
    for j in 1..=jmax {
        let jf = j as f64;
        let cj = phi_ratio(factor, rho, y, j);
        cur_rho = cur_rho.scale(cj).add(phi.scale(factor / jf));
        cur_y = cur_y.scale(cj).add(phi.scale(factor * (jf - 1.0) / jf));
        d_rho.push(cur_rho);
        d_y.push(cur_y);
        phi = phi.scale(cj);
    }
    (d_rho, d_y)
}

/// `Σ_{j≥1} dphi[j] · base[d + j·a]` for every ray point `d` — the
/// derivative ray, at the same implicit scale as the full ray.
fn derivative_ray<S: QScalar>(base: &[S], dphi: &[S], a: usize) -> Vec<S> {
    S::combine(base, dphi, a, false)
}

fn gradients_impl<S: QScalar>(
    model: &Model,
    full: &Ray<S>,
    loo_s: &[S],
    s: usize,
) -> SweepGradients {
    let classes = model.workload().classes();
    let dims = full.dims;
    let cs = &classes[s];
    let a_s = cs.bandwidth as usize;
    let c_top = full.vals.len() - 1;
    let (dphi_rho, dphi_y) = dphi_series::<S>(c_top + 1, a_s, cs.rho(), cs.beta / cs.mu, full.ln_c);
    let dray_rho = derivative_ray(loo_s, &dphi_rho, a_s);
    let dray_y = derivative_ray(loo_s, &dphi_y, a_s);
    // Log-derivatives L_θ(d) = Q'_θ(d)/Q(d): the shared scale cancels.
    let l_rho: Vec<f64> = (0..=c_top)
        .map(|d| dray_rho[d].ratio_to(full.vals[d]))
        .collect();
    let l_y: Vec<f64> = (0..=c_top)
        .map(|d| dray_y[d].ratio_to(full.vals[d]))
        .collect();

    let r_count = classes.len();
    let mut out = SweepGradients {
        nonblocking_by_rho: vec![0.0; r_count],
        nonblocking_by_beta: vec![0.0; r_count],
        concurrency_by_rho: vec![0.0; r_count],
        concurrency_by_beta: vec![0.0; r_count],
        revenue_by_rho: 0.0,
        revenue_by_beta: 0.0,
    };
    for (r, cr) in classes.iter().enumerate() {
        let a = cr.bandwidth as usize;
        // ∂B_r: B_r = Q(ray a)/Q(ray 0) / P(N1,a)P(N2,a); the
        // permutation factor is θ-independent.
        let pp = permutation(dims.n1 as u64, a as u64) * permutation(dims.n2 as u64, a as u64);
        let b_r = if pp > 0.0 && a <= c_top {
            full.index_ratio(a, 0) / pp
        } else {
            0.0
        };
        if a <= c_top {
            out.nonblocking_by_rho[r] = b_r * (l_rho[a] - l_rho[0]);
            out.nonblocking_by_beta[r] = b_r * (l_y[a] - l_y[0]);
        }
        // ∂E_r: the measures' backward recursion
        //   E ← h_t · (ρ_r + y_r · E),  h_t = Q(d_t + a)/Q(d_t),
        // differentiated with ∂h_t = h_t·(L(d_t+a) − L(d_t)) and the
        // direct ∂λ_r drive when r = s.
        let rho_r = cr.rho();
        let y_r = cr.beta / cr.mu;
        let own = if r == s { 1.0 } else { 0.0 };
        let tmax = c_top / a;
        let (mut e, mut de_rho, mut de_y) = (0.0f64, 0.0f64, 0.0f64);
        for t in (0..=tmax).rev() {
            let dt = t * a;
            let up = dt + a;
            let (h, lh_rho, lh_y) = if up <= c_top {
                (
                    full.index_ratio(up, dt),
                    l_rho[up] - l_rho[dt],
                    l_y[up] - l_y[dt],
                )
            } else {
                (0.0, 0.0, 0.0)
            };
            let e_next = e;
            let drive = rho_r + y_r * e_next;
            de_rho = h * lh_rho * drive + h * (own + y_r * de_rho);
            de_y = h * lh_y * drive + h * (own * e_next + y_r * de_y);
            e = h * drive;
        }
        out.concurrency_by_rho[r] = de_rho;
        out.concurrency_by_beta[r] = de_y;
        out.revenue_by_rho += cr.weight * de_rho;
        out.revenue_by_beta += cr.weight * de_y;
    }
    out
}

/// FNV-1a fingerprint of everything a leave-one-out ray `G_{-r}`
/// depends on: the dims, the backend, the swept slot `r`, and every
/// *other* class's full parameter set (weights included — they feed the
/// measures of later recombinations). Class `r`'s own parameters are
/// deliberately excluded: that is exactly the sharing the grid exploits.
fn loo_fingerprint(model: &Model, r: usize, algorithm: Algorithm) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&model.dims().n1.to_le_bytes());
    eat(&model.dims().n2.to_le_bytes());
    eat(format!("{algorithm:?}").as_bytes());
    eat(&(r as u64).to_le_bytes());
    for (s, c) in model.workload().classes().iter().enumerate() {
        if s == r {
            continue;
        }
        eat(&(s as u64).to_le_bytes());
        eat(&c.alpha.to_bits().to_le_bytes());
        eat(&c.beta.to_bits().to_le_bytes());
        eat(&c.mu.to_bits().to_le_bytes());
        eat(&c.bandwidth.to_le_bytes());
        eat(&c.weight.to_bits().to_le_bytes());
    }
    h
}

/// A multi-dimensional sweep grid: `G_{-r}` cached **per class set**,
/// not per solver.
///
/// A 2-D `(ρ_r, β_r)` sweep of class `r` needs only *one* leave-one-out
/// precompute — every cell recombines against the same `G_{-r}` — and a
/// geometry axis (different `Dims`) adds one precompute per geometry,
/// not one per cell. [`SweepSolver`] alone cannot amortise this across
/// rows whose *base* models differ only in class `r`; the grid keys its
/// cache by `loo_fingerprint` (dims + backend + the classes other
/// than `r`), so such rows share the cached partials.
///
/// Cache hits count as `sweep.grid.reuse`, misses as
/// `sweep.grid.build`; batch warm-up of missing entries is sharded over
/// the persistent worker pool (see [`SweepGrid::warm`]).
///
/// ```
/// use xbar_core::{Algorithm, Dims, Model, SweepGrid};
/// use xbar_traffic::{TrafficClass, Workload};
///
/// let w = Workload::new()
///     .with(TrafficClass::poisson(0.2))
///     .with(TrafficClass::bpp(0.1, 0.05, 1.0));
/// let model = Model::new(Dims::square(12), w).unwrap();
/// let grid = SweepGrid::new(Algorithm::Auto);
/// for i in 0..4 {
///     for j in 0..4 {
///         let class = TrafficClass::bpp(0.05 + 0.05 * i as f64, 0.02 * j as f64, 1.0);
///         // 16 cells, one precompute.
///         grid.solve_cell(&model, 1, class).unwrap();
///     }
/// }
/// assert_eq!(grid.len(), 1);
/// ```
pub struct SweepGrid {
    algorithm: Algorithm,
    entries: std::sync::Mutex<Vec<(u64, std::sync::Arc<SweepSolver>)>>,
}

impl SweepGrid {
    /// An empty grid cache with the given backend policy (per
    /// [`SweepSolver::new`]).
    pub fn new(algorithm: Algorithm) -> Self {
        SweepGrid {
            algorithm,
            entries: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Distinct `G_{-r}` entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Get-or-build the solver whose leave-one-out ray `G_{-r}` matches
    /// `(model, r)`. A hit counts `sweep.grid.reuse`; a miss runs the
    /// precompute and counts `sweep.grid.build` (`G_{-r}` itself is
    /// built by [`SweepGrid::warm`] or by the entry's first cell).
    ///
    /// The accounting is race-free under concurrent callers: when two
    /// threads miss on the same key simultaneously, both build, but only
    /// the thread whose insert *wins* counts `sweep.grid.build` — the
    /// loser adopts the canonical cached entry and counts
    /// `sweep.grid.reuse` instead. The invariant `build == len()` and
    /// `build + reuse == calls` therefore holds at any thread count.
    pub fn solver(
        &self,
        model: &Model,
        r: usize,
    ) -> Result<std::sync::Arc<SweepSolver>, SolveError> {
        let key = loo_fingerprint(model, r, self.algorithm);
        if let Some(found) = self.lookup(key) {
            xbar_obs::inc("sweep.grid.reuse");
            return Ok(found);
        }
        let built = std::sync::Arc::new(SweepSolver::new(model, self.algorithm)?);
        match self.insert(key, built) {
            Inserted::Won(s) => {
                xbar_obs::inc("sweep.grid.build");
                Ok(s)
            }
            Inserted::Lost(s) => {
                xbar_obs::inc("sweep.grid.reuse");
                Ok(s)
            }
        }
    }

    /// Solve one grid cell: `model` with class `r` replaced by `class`,
    /// through the shared `G_{-r}` entry (one recombination of at most
    /// `O(C²/a)` multiply-adds on a hit).
    pub fn solve_cell(
        &self,
        model: &Model,
        r: usize,
        class: TrafficClass,
    ) -> Result<Solution, SolveError> {
        self.solver(model, r)?.solve_with_class(r, class)
    }

    /// Pre-build every *distinct* missing `G_{-r}` entry for the given
    /// `(model, r)` pairs in parallel over the persistent worker pool
    /// (via [`crate::fleet`]'s shards): each entry's precompute and its
    /// leave-one-out ray `G_{-r}`, so the cells only recombine. Returns
    /// how many entries this call actually built (races lost to
    /// concurrent inserters are not counted, matching the
    /// `sweep.grid.build` counter). Build failures
    /// are left out of the cache and resurface as per-cell errors on the
    /// subsequent [`SweepGrid::solve_cell`].
    pub fn warm(&self, pairs: &[(Model, usize)]) -> usize {
        // Collect the distinct missing keys (first occurrence wins).
        let mut missing: Vec<(u64, usize)> = Vec::new();
        for (i, (model, r)) in pairs.iter().enumerate() {
            let key = loo_fingerprint(model, *r, self.algorithm);
            if self.lookup(key).is_none() && missing.iter().all(|&(k, _)| k != key) {
                missing.push((key, i));
            }
        }
        let models: Vec<Model> = missing.iter().map(|&(_, i)| pairs[i].0.clone()).collect();
        let built = crate::fleet::sweep_many(&models, self.algorithm);
        let lazy: Vec<(usize, usize)> = missing
            .iter()
            .enumerate()
            .map(|(k, &(_, i))| (k, pairs[i].1))
            .filter(|&(k, r)| r + 1 < models[k].num_classes())
            .collect();
        crate::fleet::shard_map(lazy.len(), |j| {
            let (k, r) = lazy[j];
            if let Ok(solver) = &built[k] {
                solver.build_leave_out(r);
            }
        });
        let mut won = 0;
        for ((key, _), solver) in missing.iter().zip(built) {
            if let Ok(s) = solver {
                // A concurrent caller may have inserted this key since the
                // lookup above; only the winning insert is a `build`.
                if let Inserted::Won(_) = self.insert(*key, std::sync::Arc::new(s)) {
                    xbar_obs::inc("sweep.grid.build");
                    won += 1;
                }
            }
        }
        won
    }

    fn lookup(&self, key: u64) -> Option<std::sync::Arc<SweepSolver>> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, s)| std::sync::Arc::clone(s))
    }

    /// Insert under the lock, deduping by key. Returns the *canonical*
    /// entry for `key`: the given solver when this call won the insert,
    /// or the previously-cached one when a concurrent caller got there
    /// first (the race loser's build is discarded).
    fn insert(&self, key: u64, solver: std::sync::Arc<SweepSolver>) -> Inserted {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, existing)) = entries.iter().find(|(k, _)| *k == key) {
            return Inserted::Lost(std::sync::Arc::clone(existing));
        }
        entries.push((key, std::sync::Arc::clone(&solver)));
        Inserted::Won(solver)
    }
}

/// Outcome of a [`SweepGrid`] insert race (both arms carry the canonical
/// cached solver for the key).
enum Inserted {
    /// This call inserted the entry — count `sweep.grid.build`.
    Won(std::sync::Arc<SweepSolver>),
    /// A concurrent caller inserted first — count `sweep.grid.reuse`.
    Lost(std::sync::Arc<SweepSolver>),
}

/// Exact gradients of every measure of the base model with respect to
/// *one* perturbed class `s` (see [`SweepSolver::gradients`]).
///
/// Entry `r` of each vector is `∂(measure of class r)/∂θ_s`.
#[derive(Clone, Debug)]
pub struct SweepGradients {
    /// `∂B_r/∂ρ_s` — tuple availability w.r.t. offered load.
    pub nonblocking_by_rho: Vec<f64>,
    /// `∂B_r/∂y_s` with `y_s = β_s/μ_s` — availability w.r.t. peakedness.
    pub nonblocking_by_beta: Vec<f64>,
    /// `∂E_r/∂ρ_s` — expected concurrency w.r.t. offered load.
    pub concurrency_by_rho: Vec<f64>,
    /// `∂E_r/∂y_s` — expected concurrency w.r.t. peakedness.
    pub concurrency_by_beta: Vec<f64>,
    /// `∂W/∂ρ_s` — revenue (weighted concurrency) w.r.t. offered load.
    pub revenue_by_rho: f64,
    /// `∂W/∂y_s` — revenue w.r.t. peakedness.
    pub revenue_by_beta: f64,
}

impl SweepGradients {
    /// Every entry NaN: the gradients of a ray that left its envelope.
    fn nan(classes: usize) -> Self {
        SweepGradients {
            nonblocking_by_rho: vec![f64::NAN; classes],
            nonblocking_by_beta: vec![f64::NAN; classes],
            concurrency_by_rho: vec![f64::NAN; classes],
            concurrency_by_beta: vec![f64::NAN; classes],
            revenue_by_rho: f64::NAN,
            revenue_by_beta: f64::NAN,
        }
    }

    fn is_finite(&self) -> bool {
        [
            &self.nonblocking_by_rho,
            &self.nonblocking_by_beta,
            &self.concurrency_by_rho,
            &self.concurrency_by_beta,
        ]
        .iter()
        .flat_map(|v| v.iter())
        .chain([&self.revenue_by_rho, &self.revenue_by_beta])
        .all(|x| x.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;

    fn close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1e-12);
        assert!(
            (a - b).abs() / scale < tol,
            "{a} vs {b} (tol {tol}, rel {})",
            (a - b).abs() / scale
        );
    }

    fn mixed_model(n1: u32, n2: u32) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.25))
            .with(TrafficClass::bpp(0.1, 0.3, 1.0).with_weight(2.0))
            .with(TrafficClass::bpp(0.4, -0.004, 0.8).with_bandwidth(2))
            .with(
                TrafficClass::poisson(0.05)
                    .with_bandwidth(2)
                    .with_weight(0.5),
            );
        Model::new(Dims::new(n1, n2), w).unwrap()
    }

    fn assert_matches_solution(point: &Solution, model: &Model, alg: Algorithm, tol: f64) {
        let sol = solve(model, alg).unwrap();
        for r in 0..model.num_classes() {
            close(point.nonblocking(r), sol.nonblocking(r), tol);
            close(point.concurrency(r), sol.concurrency(r), tol);
            close(point.throughput(r), sol.throughput(r), tol);
            close(point.call_acceptance(r), sol.call_acceptance(r), tol);
        }
        close(point.revenue(), sol.revenue(), tol);
        close(point.total_throughput(), sol.total_throughput(), tol);
    }

    #[test]
    fn base_solution_matches_full_solve_both_backends() {
        let model = mixed_model(12, 12);
        for alg in [Algorithm::Alg1Scaled, Algorithm::Alg1Ext] {
            let sweep = SweepSolver::new(&model, alg).unwrap();
            let point = sweep.solve_base().unwrap();
            assert_matches_solution(&point, &model, Algorithm::Alg1Ext, 1e-10);
        }
    }

    #[test]
    fn rectangular_dims_match_full_solve() {
        let model = mixed_model(9, 5);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let point = sweep.solve_base().unwrap();
        assert_matches_solution(&point, &model, Algorithm::Alg1Ext, 1e-10);
    }

    #[test]
    fn class_edits_match_fresh_solves() {
        let model = mixed_model(10, 10);
        let sweep = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        // Rho sweep, beta sign flip (Pascal → Poisson → Bernoulli) and a
        // bandwidth change all hit the recombination path.
        let edits: Vec<(usize, TrafficClass)> = vec![
            (0, TrafficClass::poisson(0.6)),
            (1, TrafficClass::bpp(0.1, 0.0, 1.0).with_weight(2.0)),
            (1, TrafficClass::bpp(0.1, -0.01, 1.0).with_weight(2.0)),
            (2, TrafficClass::bpp(0.4, -0.004, 0.8).with_bandwidth(3)),
            (3, TrafficClass::poisson(0.3).with_weight(0.5)),
        ];
        for (r, class) in edits {
            let mut classes = model.workload().classes().to_vec();
            classes[r] = class.clone();
            let edited = Model::new(model.dims(), Workload::from_classes(classes)).unwrap();
            let point = sweep.solve_with_class(r, class).unwrap();
            assert_matches_solution(&point, &edited, Algorithm::Alg1Ext, 1e-10);
        }
    }

    #[test]
    fn rho_and_beta_sweep_helpers_match_model_edits() {
        let model = mixed_model(8, 8);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let by_rho = sweep.solve_with_rho(1, 0.35).unwrap();
        let edited = model.with_rho(1, 0.35).unwrap();
        assert_matches_solution(&by_rho, &edited, Algorithm::Alg1Ext, 1e-10);
        let by_beta = sweep.solve_with_beta_over_mu(1, 0.0).unwrap();
        let edited = model.with_beta_over_mu(1, 0.0).unwrap();
        assert_matches_solution(&by_beta, &edited, Algorithm::Alg1Ext, 1e-10);
    }

    #[test]
    fn weight_only_edit_reuses_cached_ray() {
        let model = mixed_model(8, 8);
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let reweighted = TrafficClass::poisson(0.25).with_weight(9.0);
        let point = sweep.solve_with_class(0, reweighted).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sweep.reuse"), Some(1));
        assert_eq!(snap.counter("sweep.recombine"), None);
        // Measures still reflect the new weight.
        assert!(point.revenue() > sweep.solve_base().unwrap().revenue());
    }

    #[test]
    fn scaled_backend_survives_n256_at_figure_loads_and_matches_ext() {
        // Figure-style per-tuple loads (tilde loads divided by N) keep
        // the scaled φ̂ series in range even at N = 256; heavier loads
        // are exercised by the escalation test below.
        let w = Workload::new()
            .with(TrafficClass::poisson(0.005))
            .with(TrafficClass::bpp(0.003, 0.0005, 1.0));
        let model = Model::new(Dims::square(256), w).unwrap();
        let scaled = SweepSolver::new(&model, Algorithm::Alg1Scaled).unwrap();
        assert_eq!(scaled.algorithm(), Algorithm::Alg1Scaled);
        let ext = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        let ps = scaled.solve_with_rho(0, 0.008).unwrap();
        let pe = ext.solve_with_rho(0, 0.008).unwrap();
        for r in 0..2 {
            close(ps.nonblocking(r), pe.nonblocking(r), 1e-9);
            close(ps.concurrency(r), pe.concurrency(r), 1e-9);
        }
    }

    #[test]
    fn measures_at_walks_the_ray() {
        let model = mixed_model(10, 6);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let point = sweep.solve_base().unwrap();
        let sol = solve(&model, Algorithm::Alg1Ext).unwrap();
        let sub = Dims::new(8, 4); // d = 2 on the ray
        let a = point.measures_at(sub);
        let b = sol.measures_at(sub);
        for r in 0..model.num_classes() {
            close(a.classes[r].nonblocking, b.classes[r].nonblocking, 1e-10);
            close(a.classes[r].concurrency, b.classes[r].concurrency, 1e-10);
        }
    }

    #[test]
    #[should_panic(expected = "outside the solved diagonal ray")]
    fn off_ray_access_panics() {
        let model = mixed_model(6, 6);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let point = sweep.solve_base().unwrap();
        point.measures_at(Dims::new(5, 6));
    }

    #[test]
    fn shadow_cost_and_gradient_match_solution() {
        let model = mixed_model(9, 9);
        let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let point = sweep.solve_base().unwrap();
        let sol = solve(&model, Algorithm::Alg1Ext).unwrap();
        for r in 0..model.num_classes() {
            close(point.shadow_cost(r), sol.shadow_cost(r), 1e-9);
            close(
                point.revenue_gradient_rho(r),
                sol.revenue_gradient_rho(r),
                1e-9,
            );
        }
    }

    #[test]
    fn exact_gradients_match_central_differences() {
        let model = mixed_model(8, 8);
        for alg in [Algorithm::Alg1Scaled, Algorithm::Alg1Ext] {
            let sweep = SweepSolver::new(&model, alg).unwrap();
            for s in 0..model.num_classes() {
                let g = sweep.gradients(s);
                let cs = &model.workload().classes()[s];
                let h_rho = 1e-6 * cs.rho().max(1.0);
                let up = solve(
                    &model.with_rho(s, cs.rho() + h_rho).unwrap(),
                    Algorithm::Alg1Ext,
                )
                .unwrap();
                let dn = solve(
                    &model.with_rho(s, cs.rho() - h_rho).unwrap(),
                    Algorithm::Alg1Ext,
                )
                .unwrap();
                let y = cs.beta / cs.mu;
                let h_y = 1e-6;
                let up_y = solve(
                    &model.with_beta_over_mu(s, y + h_y).unwrap(),
                    Algorithm::Alg1Ext,
                )
                .unwrap();
                let dn_y = solve(
                    &model.with_beta_over_mu(s, y - h_y).unwrap(),
                    Algorithm::Alg1Ext,
                )
                .unwrap();
                for r in 0..model.num_classes() {
                    let fd = (up.nonblocking(r) - dn.nonblocking(r)) / (2.0 * h_rho);
                    close(g.nonblocking_by_rho[r], fd, 1e-5);
                    let fd = (up.concurrency(r) - dn.concurrency(r)) / (2.0 * h_rho);
                    close(g.concurrency_by_rho[r], fd, 1e-5);
                    let fd = (up_y.nonblocking(r) - dn_y.nonblocking(r)) / (2.0 * h_y);
                    close(g.nonblocking_by_beta[r], fd, 1e-5);
                    let fd = (up_y.concurrency(r) - dn_y.concurrency(r)) / (2.0 * h_y);
                    close(g.concurrency_by_beta[r], fd, 1e-5);
                }
                let fd = (up.revenue() - dn.revenue()) / (2.0 * h_rho);
                close(g.revenue_by_rho, fd, 1e-5);
                let fd = (up_y.revenue() - dn_y.revenue()) / (2.0 * h_y);
                close(g.revenue_by_beta, fd, 1e-5);
            }
        }
    }

    #[test]
    fn grid_shares_one_loo_entry_across_rho_beta_cells() {
        let model = mixed_model(8, 8);
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let grid = SweepGrid::new(Algorithm::Auto);
        let fresh = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                let class = TrafficClass::bpp(0.05 + 0.1 * i as f64, 0.02 * j as f64, 1.0);
                let cell = grid.solve_cell(&model, 1, class.clone()).unwrap();
                let want = fresh.solve_with_class(1, class).unwrap();
                for r in 0..model.num_classes() {
                    assert_eq!(cell.nonblocking(r).to_bits(), want.nonblocking(r).to_bits());
                    assert_eq!(cell.concurrency(r).to_bits(), want.concurrency(r).to_bits());
                }
            }
        }
        assert_eq!(grid.len(), 1);
        let snap = reg.snapshot();
        // One build for the first cell plus the uncached `fresh` solver's
        // precompute do not show up as grid counters; 8 of the 9 cells hit.
        assert_eq!(snap.counter("sweep.grid.build"), Some(1));
        assert_eq!(snap.counter("sweep.grid.reuse"), Some(8));
    }

    #[test]
    fn grid_rows_differing_only_in_the_swept_class_share_the_entry() {
        // Two *base* models that differ only in class 0's parameters: a
        // per-solver cache would precompute twice; the per-class-set grid
        // reuses the first entry for the second row.
        let w1 = Workload::new()
            .with(TrafficClass::poisson(0.25))
            .with(TrafficClass::bpp(0.1, 0.3, 1.0).with_weight(2.0));
        let w2 = Workload::new()
            .with(TrafficClass::poisson(0.7).with_weight(3.0))
            .with(TrafficClass::bpp(0.1, 0.3, 1.0).with_weight(2.0));
        let m1 = Model::new(Dims::square(8), w1).unwrap();
        let m2 = Model::new(Dims::square(8), w2).unwrap();
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let grid = SweepGrid::new(Algorithm::Auto);
        let a = grid.solve_cell(&m1, 0, TrafficClass::poisson(0.4)).unwrap();
        let b = grid.solve_cell(&m2, 0, TrafficClass::poisson(0.4)).unwrap();
        assert_eq!(grid.len(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sweep.grid.build"), Some(1));
        assert_eq!(snap.counter("sweep.grid.reuse"), Some(1));
        // Identical cells (both bases collapse to the same edited model).
        for r in 0..2 {
            assert_eq!(a.nonblocking(r).to_bits(), b.nonblocking(r).to_bits());
        }
        // A geometry axis is a separate class set → second entry.
        let m3 = Model::new(Dims::new(10, 6), m1.workload().clone()).unwrap();
        grid.solve_cell(&m3, 0, TrafficClass::poisson(0.4)).unwrap();
        assert_eq!(grid.len(), 2);
    }

    #[test]
    fn grid_batch_warms_distinct_entries_and_matches_serial_cells() {
        let cells: Vec<(Model, usize, TrafficClass)> = (0u32..4)
            .flat_map(|g| {
                let model = mixed_model(6 + g, 6 + g);
                (0..3).map(move |i| {
                    (
                        model.clone(),
                        1,
                        TrafficClass::bpp(0.05 + 0.1 * i as f64, 0.01, 1.0),
                    )
                })
            })
            .collect();
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let grid = SweepGrid::new(Algorithm::Auto);
        let pairs: Vec<(Model, usize)> = cells.iter().map(|(m, r, _)| (m.clone(), *r)).collect();
        assert_eq!(grid.warm(&pairs), 4);
        // The warm builds each entry's G_{-1} too; the cells only recombine.
        assert_eq!(reg.snapshot().counter("sweep.loo_build"), Some(4));
        let batch: Vec<Solution> = cells
            .iter()
            .map(|(model, r, class)| grid.solve_cell(model, *r, class.clone()).unwrap())
            .collect();
        assert_eq!(grid.len(), 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sweep.grid.build"), Some(4));
        assert_eq!(snap.counter("sweep.loo_build"), Some(4));
        let serial = SweepGrid::new(Algorithm::Auto);
        for (got, (model, r, class)) in batch.iter().zip(&cells) {
            let want = serial.solve_cell(model, *r, class.clone()).unwrap();
            for k in 0..model.num_classes() {
                assert_eq!(got.nonblocking(k).to_bits(), want.nonblocking(k).to_bits());
            }
        }
    }

    #[test]
    fn grid_accounting_is_race_free_under_concurrent_misses() {
        // Many threads hammer the same grid with cells spanning a handful
        // of distinct class sets, all arriving at once so cold keys race
        // their check-then-insert window. The fixed accounting credits
        // `build` only to the thread whose insert wins; race losers (and
        // plain hits) count `reuse`. Whatever the interleaving:
        //   build == distinct entries,  build + reuse == total calls.
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let grid = std::sync::Arc::new(SweepGrid::new(Algorithm::Auto));
        let scope_handle = xbar_obs::current_scope();
        const THREADS: usize = 8;
        const CALLS_PER_THREAD: usize = 12;
        const GEOMETRIES: u32 = 3;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(THREADS));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let grid = std::sync::Arc::clone(&grid);
                let barrier = std::sync::Arc::clone(&barrier);
                let scope_handle = scope_handle.clone();
                s.spawn(move || {
                    let _g = scope_handle.enter();
                    barrier.wait();
                    for i in 0..CALLS_PER_THREAD {
                        // Rotate geometries so every thread misses every
                        // key early on; the swept class's own parameters
                        // vary per call but never change the key.
                        let g = ((t + i) as u32) % GEOMETRIES;
                        let model = mixed_model(6 + g, 6 + g);
                        let class = TrafficClass::bpp(0.05 + 0.01 * i as f64, 0.01, 1.0);
                        grid.solve_cell(&model, 1, class).unwrap();
                    }
                });
            }
        });
        assert_eq!(grid.len(), GEOMETRIES as usize);
        let snap = reg.snapshot();
        let build = snap.counter("sweep.grid.build").unwrap_or(0);
        let reuse = snap.counter("sweep.grid.reuse").unwrap_or(0);
        assert_eq!(build, GEOMETRIES as u64, "one build per distinct entry");
        assert_eq!(
            build + reuse,
            (THREADS * CALLS_PER_THREAD) as u64,
            "every solver() call counts exactly one of build/reuse"
        );
    }

    /// The eager reference: every `Q_{-r}` built up front by the
    /// prefix/suffix trick, `loo[r] = fold(pre[r], classes[r+1..])`.
    fn eager_loo<S: QScalar>(model: &Model, ln_c: f64) -> Vec<Vec<S>> {
        let classes = model.workload().classes();
        let mut pre: Vec<S> = empty_ray(model.dims(), ln_c);
        let mut loo = Vec::new();
        for r in 0..classes.len() {
            loo.push(install_all(pre.clone(), &classes[r + 1..], ln_c));
            pre = install_all(pre, &classes[r..r + 1], ln_c);
        }
        loo
    }

    /// The first `r_count` classes of [`mixed_model`].
    fn first_classes(r_count: usize) -> Model {
        let full = mixed_model(10, 10);
        let classes = full.workload().classes()[..r_count].to_vec();
        Model::new(full.dims(), Workload::from_classes(classes)).unwrap()
    }

    fn installs() -> usize {
        INSTALLS.with(|n| n.get())
    }

    #[test]
    fn lazy_loo_rays_are_bit_identical_to_the_eager_build() {
        for r_count in 1..=4 {
            let model = first_classes(r_count);
            let ln_c = scale_ln_c(model.dims());
            let scaled = Rays::<f64>::build(&model, ln_c);
            for (r, want) in eager_loo::<f64>(&model, ln_c).iter().enumerate() {
                let got = scaled.loo(r).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(want), "R = {r_count}, r = {r}");
            }
            let ext = Rays::<ExtFloat>::build(&model, 0.0);
            for (r, want) in eager_loo::<ExtFloat>(&model, 0.0).iter().enumerate() {
                assert_eq!(ext.loo(r).unwrap(), &want[..], "R = {r_count}, r = {r}");
            }
        }
    }

    #[test]
    fn installs_are_r_at_precompute_and_the_suffix_on_first_use() {
        for r_count in 1..=4 {
            let model = first_classes(r_count);
            for r in 0..r_count {
                let before = installs();
                let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
                assert_eq!(installs() - before, r_count, "precompute, R = {r_count}");
                let before = installs();
                sweep.solve_with_rho(r, 0.3).unwrap();
                // R − 1 − r suffix installs, then the recombination.
                let first = r_count - 1 - r + 1;
                assert_eq!(installs() - before, first, "R = {r_count}, r = {r}");
                let before = installs();
                sweep.solve_with_rho(r, 0.4).unwrap();
                assert_eq!(installs() - before, 1, "R = {r_count}, r = {r}");
            }
            let sweep = SweepSolver::new(&model, Algorithm::Auto).unwrap();
            let before = installs();
            for s in 0..r_count {
                sweep.gradients(s);
            }
            assert_eq!(installs() - before, r_count * (r_count - 1) / 2);
        }
    }

    #[test]
    fn unhealthy_lazy_loo_ray_escalates_auto_and_fails_explicit_scaled() {
        // A heavy class 0 and a light class 1 at N = 8: at a scale far
        // below §6's, Q̂_{-0}(8, 8) (the light class alone) lands among the
        // subnormals while the heavy full ray and Q_{-1} = pre[1] stay
        // normal, so only the lazily built Q_{-0} is unhealthy.
        let w = Workload::new()
            .with(TrafficClass::poisson(50.0))
            .with(TrafficClass::poisson(1e-3));
        let model = Model::new(Dims::square(8), w).unwrap();
        let q_top = eager_loo::<f64>(&model, 0.0)[0][0];
        let ln_c = (-720.0 - q_top.ln()) / 16.0;
        let rays = Rays::<f64>::build(&model, ln_c);
        assert!(rays.is_healthy());
        assert!(rays.loo(0).is_err());
        assert!(rays.loo(1).is_ok());

        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let auto = SweepSolver::with_scale(&model, Algorithm::Auto, ln_c).unwrap();
        assert_eq!(auto.algorithm(), Algorithm::Alg1Scaled);
        assert_eq!(reg.snapshot().counter("sweep.escalate"), None);
        let ext = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        let point = auto.solve_with_rho(0, 40.0).unwrap();
        let want = ext.solve_with_rho(0, 40.0).unwrap();
        for r in 0..2 {
            assert_eq!(
                point.nonblocking(r).to_bits(),
                want.nonblocking(r).to_bits()
            );
            assert_eq!(
                point.concurrency(r).to_bits(),
                want.concurrency(r).to_bits()
            );
        }
        let got = auto.gradients(0);
        let want = ext.gradients(0);
        assert_eq!(got.revenue_by_rho.to_bits(), want.revenue_by_rho.to_bits());
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
        // Class 1's points read the healthy eager Q_{-1}.
        auto.solve_with_rho(1, 2e-3).unwrap();
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));

        let scaled = SweepSolver::with_scale(&model, Algorithm::Alg1Scaled, ln_c).unwrap();
        assert!(scaled.solve_with_rho(1, 2e-3).is_ok());
        assert!(matches!(
            scaled.solve_with_rho(0, 40.0),
            Err(SolveError::Underflow(Algorithm::Alg1Scaled))
        ));
        assert!(!scaled.gradients(0).is_finite());
        assert!(matches!(
            crate::sensitivity_from(&scaled),
            Err(SolveError::Underflow(Algorithm::Alg1Scaled))
        ));
    }

    /// The light base of the recombination-fallback tests: scaled rays
    /// stay healthy at precompute, so only heavy edits leave the envelope.
    fn light_n64() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(1e-3))
            .with(TrafficClass::bpp(1e-3, 1e-4, 1.0));
        Model::new(Dims::square(64), w).unwrap()
    }

    #[test]
    fn auto_sweep_redoes_an_overflowing_recombination_in_ext() {
        let model = light_n64();
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let auto = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        assert_eq!(auto.algorithm(), Algorithm::Alg1Scaled);
        // ρ = 1e4 overflows the scaled Φ̂ series of the recombination.
        let point = auto.solve_with_rho(0, 1e4).unwrap();
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
        let ext = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        let want = ext.solve_with_rho(0, 1e4).unwrap();
        for r in 0..model.num_classes() {
            close(point.nonblocking(r), want.nonblocking(r), 1e-10);
            close(point.concurrency(r), want.concurrency(r), 1e-10);
        }
        close(point.revenue(), want.revenue(), 1e-10);
        // An explicit scaled request still fails hard.
        let scaled = SweepSolver::new(&model, Algorithm::Alg1Scaled).unwrap();
        assert!(matches!(
            scaled.solve_with_rho(0, 1e4),
            Err(SolveError::Underflow(Algorithm::Alg1Scaled))
        ));
    }

    #[test]
    fn auto_sweep_builds_the_ext_fallback_once_per_solver() {
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let auto = SweepSolver::new(&light_n64(), Algorithm::Auto).unwrap();
        assert_eq!(reg.snapshot().counter("sweep.escalate"), None);
        for rho in [1e4, 3e4] {
            auto.solve_with_rho(0, rho).unwrap();
            assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
        }
        auto.solve_with_beta_over_mu(1, 1e4).unwrap();
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
    }

    #[test]
    fn auto_sweep_light_points_stay_scaled_after_a_fallback() {
        let model = light_n64();
        let auto = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        let scaled = SweepSolver::new(&model, Algorithm::Alg1Scaled).unwrap();
        auto.solve_with_rho(0, 1e4).unwrap();
        let points = [5e-4, 2e-3, 1e-2].map(|rho| {
            (
                auto.solve_with_rho(0, rho).unwrap(),
                scaled.solve_with_rho(0, rho).unwrap(),
            )
        });
        let base = (auto.solve_base().unwrap(), scaled.solve_base().unwrap());
        for (point, want) in points.iter().chain([&base]) {
            assert_eq!(point.algorithm(), Algorithm::Auto);
            for r in 0..model.num_classes() {
                assert_eq!(
                    point.nonblocking(r).to_bits(),
                    want.nonblocking(r).to_bits()
                );
            }
        }
    }

    #[test]
    fn subnormal_ray_value_is_unhealthy_and_auto_sweep_escalates() {
        assert!(!(f64::MIN_POSITIVE / 2.0).healthy());
        assert!(f64::MIN_POSITIVE.healthy());
        let model = mixed_model(8, 8);
        // A scale far below §6's puts Q̂(8, 8) = Q(8, 8)·c^16 near e^-720,
        // among the subnormals, while the rest of the ray stays normal.
        let q_top = Rays::<f64>::build(&model, 0.0).full.vals[0];
        let ln_c = (-720.0 - q_top.ln()) / 16.0;
        let rays = Rays::<f64>::build(&model, ln_c);
        assert!(rays.full.vals[0].is_subnormal());
        assert!(rays.full.vals[1..].iter().all(|v| v.is_normal()));
        assert!(!rays.is_healthy());
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let auto = SweepSolver::with_scale(&model, Algorithm::Auto, ln_c).unwrap();
        assert_eq!(auto.algorithm(), Algorithm::Alg1Ext);
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
        assert_matches_solution(
            &auto.solve_base().unwrap(),
            &model,
            Algorithm::Alg1Ext,
            1e-10,
        );
        assert!(matches!(
            SweepSolver::with_scale(&model, Algorithm::Alg1Scaled, ln_c),
            Err(SolveError::Underflow(Algorithm::Alg1Scaled))
        ));
    }

    #[test]
    fn auto_sweep_gradients_fall_back_where_scaled_derivatives_overflow() {
        // ρ = 5 at N = 128 keeps the scaled rays healthy (largest value
        // near e^704), but the ρ-derivative ray overflows.
        let w = Workload::new()
            .with(TrafficClass::poisson(5.0))
            .with(TrafficClass::poisson(1e-3));
        let model = Model::new(Dims::square(128), w).unwrap();
        let scaled = SweepSolver::new(&model, Algorithm::Alg1Scaled).unwrap();
        assert!(!scaled.gradients(0).is_finite());
        // Assembled into a sensitivity, the explicit backend refuses.
        assert!(matches!(
            crate::sensitivity_from(&scaled),
            Err(SolveError::Guard {
                algorithm: Algorithm::Alg1Scaled,
                ..
            })
        ));
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let _g = xbar_obs::scope(&reg);
        let auto = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        assert_eq!(auto.algorithm(), Algorithm::Alg1Scaled);
        let got = auto.gradients(0);
        let want = SweepSolver::new(&model, Algorithm::Alg1Ext)
            .unwrap()
            .gradients(0);
        assert_eq!(got.revenue_by_rho.to_bits(), want.revenue_by_rho.to_bits());
        assert_eq!(
            got.revenue_by_beta.to_bits(),
            want.revenue_by_beta.to_bits()
        );
        assert_eq!(reg.snapshot().counter("sweep.escalate"), Some(1));
    }

    #[test]
    fn explicit_scaled_overload_reports_underflow() {
        // A load heavy enough that the scaled φ̂ envelope blows up at
        // N = 512 (ρ·c² ≫ 1 compounds to e^2000-ish terms).
        let w = Workload::new()
            .with(TrafficClass::poisson(300.0))
            .with(TrafficClass::bpp(0.2, 0.1, 1.0));
        let model = Model::new(Dims::square(512), w).unwrap();
        match SweepSolver::new(&model, Algorithm::Alg1Scaled) {
            Err(SolveError::Underflow(Algorithm::Alg1Scaled)) => {}
            Ok(s) => {
                // If the envelope holds, the result must still be sane.
                assert!(s.solve_base().is_ok());
            }
            Err(e) => panic!("unexpected error {e:?}"),
        }
        // Auto escalates instead of failing.
        let auto = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        assert!(auto.solve_base().is_ok());
    }
}
