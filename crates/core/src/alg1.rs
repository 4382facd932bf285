//! **Algorithm 1** of the paper: the `O(N1·N2·R)` lattice recursion on the
//! normalised constant `Q(N) = G(N)/(N1!·N2!)` (paper eq. 8–10), with the
//! auxiliary `V`-recursion (eq. 9) folding the geometric tail of each bursty
//! class into constant work per lattice point.
//!
//! Sweeping the lattice and applying the `i = 1` recurrence (and the
//! `i = 2` recurrence along the `n1 = 0` column):
//!
//! ```text
//! Q(n1, n2) = [ Q(n1−1, n2)
//!             + Σ_{r∈R1} a_r·ρ_r·Q(n1−a_r, n2−a_r)
//!             + Σ_{r∈R2} a_r·ρ_r·V_r(n1, n2) ] / n1
//! V_r(n1, n2) = Q(n1−a_r, n2−a_r) + (β_r/μ_r)·V_r(n1−a_r, n2−a_r)
//! ```
//!
//! with `Q(0,0) = 1` and `Q ≡ 0` at any negative coordinate.
//!
//! The sweep runs row-major: every term on the right-hand side reads a
//! cell with strictly smaller coordinate sum, which row-major order has
//! already computed. It is single-threaded and uses safe slices only.
//!
//! Since `solve(Auto)` answers from the diagonal ray ([`crate::sweep`]),
//! this lattice runs only on an explicit `Alg1*` request: it is the
//! paper's method, kept for figure reproduction and as the independent
//! oracle the ray is tested against.
//!
//! # Numeric backends
//!
//! `Q(n1, n2) ≈ G/(n1!·n2!)` underflows `f64` well before the paper's
//! largest evaluation size even though all the performance measures —
//! ratios of nearby `Q` values — are perfectly tame. Three backends are
//! provided:
//!
//! * [`QLattice<f64>`] — plain doubles; fastest; valid while no cell
//!   underflows (the paper's "Algorithm 1 for `N ≤ 32`" regime).
//! * [`QLattice<ExtFloat>`] — extended-range floats; works at any size the
//!   lattice fits in memory; the reference fast backend.
//! * [`ScaledQLattice`] — the paper's §6 *dynamic scaling*, realised as a
//!   deterministic geometric schedule `Q̂(n) = Q(n)·c^(n1+n2)` with
//!   `ln c = ln(max(N1,N2)) − 1`. A single *reactive* scalar `ω` (scaling
//!   every stored cell when one nears underflow, as §6 literally suggests)
//!   cannot work at `N = 256`: the spread between `Q(0,0) = 1` and
//!   `Q(256,256) ≈ 10^-1014` exceeds the `f64` exponent range on its own.
//!   The geometric schedule keeps the whole lattice in range for every size
//!   the paper evaluates (by Stirling, the residual
//!   `ln Q̂ ≈ −2·n·(ln n − ln N_max)` peaks near `2N/e`, about `e^±190` at
//!   `N = 256`), at the cost of one extra multiply per term — the
//!   "constant factor" §6 mentions. Ratios of `Q̂` cells recover ratios of
//!   `Q` exactly, so the measures are unaffected, which is §6's point.

use xbar_numeric::ExtFloat;

use crate::model::{Dims, Model};

/// Scalar arithmetic shared by the `Q`-recursion and the sweep solver's
/// diagonal rays ([`crate::sweep`]): plain `f64` or extended-range
/// [`ExtFloat`].
pub trait QScalar: Copy {
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// `self + other`.
    fn add(self, other: Self) -> Self;
    /// `self · other`.
    fn mul(self, other: Self) -> Self;
    /// `self · x` for an `f64` coefficient.
    fn scale(self, x: f64) -> Self;
    /// `self / den` as an `f64` (the form every measure takes).
    fn ratio_to(self, den: Self) -> f64;
    /// `e^x` as a scalar.
    fn from_ln(x: f64) -> Self;
    /// `true` iff the value is exactly zero (the lattice health check).
    fn is_zero(self) -> bool;
    /// The ray health check: a scaled `f64` must stay normal and
    /// positive (a subnormal carries fewer than 53 bits); extended range
    /// is always healthy.
    fn healthy(self) -> bool;

    /// The sweep's recombination primitive:
    /// `out[d] = (seed_base ? base[d] : 0) + Σ_{j≥1} coef[j]·base[d+j·a]`,
    /// truncated at the ray end. The default is the reference scalar
    /// loop; `f64` overrides it with the multi-lane kernel in
    /// [`crate::simd`], which is bit-for-bit the same loop.
    fn combine(base: &[Self], coef: &[Self], a: usize, seed_base: bool) -> Vec<Self> {
        let len = base.len();
        let mut out = Vec::with_capacity(len);
        for d in 0..len {
            let mut acc = if seed_base { base[d] } else { Self::zero() };
            let mut j = 1;
            let mut idx = d + a;
            while idx < len {
                acc = acc.add(coef[j].mul(base[idx]));
                j += 1;
                idx += a;
            }
            out.push(acc);
        }
        out
    }

    /// A class install on the partial ray `base`: [`QScalar::combine`]
    /// seeded from `base` over the scaled `Φ` series
    /// ([`crate::sweep`]'s `phi_series`: `Φ(0) = 1`,
    /// `Φ(j) = Φ(j−1)·factor·(ρ + y·(j−1))/j` up to `j = (len−1)/a`).
    /// `f64` overrides it with the fused kernel
    /// [`crate::simd::install_strict`], bit-for-bit this loop.
    fn install(base: &[Self], a: usize, rho: f64, y: f64, factor: f64) -> Vec<Self> {
        let phi = crate::sweep::phi_series::<Self>(base.len(), a, rho, y, factor);
        Self::combine(base, &phi, a, true)
    }
}

impl QScalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
    fn scale(self, x: f64) -> Self {
        self * x
    }
    fn ratio_to(self, den: Self) -> f64 {
        self / den
    }
    fn from_ln(x: f64) -> Self {
        x.exp()
    }
    fn is_zero(self) -> bool {
        self == 0.0
    }
    fn healthy(self) -> bool {
        self.is_normal() && self > 0.0
    }
    fn combine(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
        crate::simd::combine_strict(base, coef, a, seed_base)
    }
    fn install(base: &[f64], a: usize, rho: f64, y: f64, factor: f64) -> Vec<f64> {
        crate::simd::install_strict(base, a, rho, y, factor)
    }
}

impl QScalar for ExtFloat {
    fn zero() -> Self {
        ExtFloat::ZERO
    }
    fn one() -> Self {
        ExtFloat::ONE
    }
    fn add(self, other: Self) -> Self {
        self + other
    }
    fn mul(self, other: Self) -> Self {
        self * other
    }
    fn scale(self, x: f64) -> Self {
        self * x
    }
    fn ratio_to(self, den: Self) -> f64 {
        self.ratio(den)
    }
    fn from_ln(x: f64) -> Self {
        ExtFloat::exp(x)
    }
    fn is_zero(self) -> bool {
        ExtFloat::is_zero(self)
    }
    fn healthy(self) -> bool {
        true
    }
}

/// The §6 per-coordinate scaling exponent `ln c = max(ln(max N) − 1, 0)`
/// shared by [`ScaledQLattice`] and the sweep's scaled rays: it flattens
/// the factorial decay (Stirling), and the clamp at 0 leaves tiny
/// switches unscaled.
pub(crate) fn scale_ln_c(dims: Dims) -> f64 {
    ((dims.max_n() as f64).ln() - 1.0).max(0.0)
}

/// Access to ratios `Q(num)/Q(den)` of normalisation constants — the
/// interface through which every performance measure reads a solved lattice
/// (Algorithm 1 in any backend, or Algorithm 2's ratio form).
pub trait QRatio {
    /// The largest dims this lattice was solved for.
    fn dims(&self) -> Dims;

    /// `Q(num)/Q(den)`. A negative coordinate in `num` means `Q(num) = 0`
    /// so the ratio is 0. `den` must be a valid lattice point.
    fn q_ratio(&self, num: (i64, i64), den: (i64, i64)) -> f64;

    /// The ratios down the diagonal from `target` in steps of `a·I`:
    /// `out[t] = Q(target − (t+1)·a·I)/Q(target − t·a·I)` for
    /// `t = 0..=min(target)/a` (the last one is always 0). The default
    /// makes one [`QRatio::q_ratio`] call per point.
    fn diagonal_ratios(&self, target: (i64, i64), a: i64, out: &mut Vec<f64>) {
        let tmax = target.0.min(target.1) / a;
        out.clear();
        out.extend((0..=tmax).map(|t| {
            let m = (target.0 - t * a, target.1 - t * a);
            self.q_ratio((m.0 - a, m.1 - a), m)
        }));
    }
}

/// One lattice being swept: row-major `(N1+1) × (N2+1)` `Q` cells and,
/// back to back, one lane of as many `V` cells per bursty class.
struct Sweep<S> {
    cols: usize,
    cells: usize,
    q: Vec<S>,
    v: Vec<S>,
}

impl<S: QScalar> Sweep<S> {
    /// Seed `Q(0, 0) = 1`, call `cell` on every point of the `dims`
    /// lattice in row-major order, and return the `Q` cells.
    fn run(dims: Dims, lanes: usize, cell: impl Fn(&mut Self, i64, i64)) -> Vec<S> {
        let cols = dims.n2 as usize + 1;
        let cells = (dims.n1 as usize + 1) * cols;
        let mut sweep = Sweep {
            cols,
            cells,
            q: vec![S::zero(); cells],
            v: vec![S::zero(); cells * lanes],
        };
        sweep.q[0] = S::one();
        xbar_obs::add("alg1.cells", cells as u64);
        for i1 in 0..=dims.n1 as i64 {
            for i2 in 0..=dims.n2 as i64 {
                cell(&mut sweep, i1, i2);
            }
        }
        sweep.q
    }

    /// Flat index of `(i1, i2)` in one lattice, `None` outside the
    /// non-negative quadrant.
    fn index(&self, i1: i64, i2: i64) -> Option<usize> {
        (i1 >= 0 && i2 >= 0).then(|| i1 as usize * self.cols + i2 as usize)
    }

    /// `Q(i1, i2)`; zero outside the non-negative quadrant.
    fn q(&self, i1: i64, i2: i64) -> S {
        self.index(i1, i2).map_or(S::zero(), |i| self.q[i])
    }

    /// `V` of lane `lane` at `(i1, i2)`; zero outside the non-negative
    /// quadrant.
    fn v(&self, lane: usize, i1: i64, i2: i64) -> S {
        self.index(i1, i2)
            .map_or(S::zero(), |i| self.v[lane * self.cells + i])
    }

    fn set_q(&mut self, i1: i64, i2: i64, value: S) {
        let i = i1 as usize * self.cols + i2 as usize;
        self.q[i] = value;
    }

    fn set_v(&mut self, lane: usize, i1: i64, i2: i64, value: S) {
        let i = lane * self.cells + i1 as usize * self.cols + i2 as usize;
        self.v[i] = value;
    }
}

// ---------------------------------------------------------------------------
// Plain backend (f64 / ExtFloat)
// ---------------------------------------------------------------------------

/// Structure-of-arrays coefficient table for the plain recurrence, hoisted
/// out of the sweep: per Poisson class `a_r` and `a_r·ρ_r`, per bursty
/// class additionally `β_r/μ_r`.
struct PlainCoeffs {
    poisson_a: Vec<i64>,
    poisson_a_rho: Vec<f64>,
    bursty_a: Vec<i64>,
    bursty_a_rho: Vec<f64>,
    bursty_beta_over_mu: Vec<f64>,
}

impl PlainCoeffs {
    fn of(model: &Model) -> Self {
        let mut co = PlainCoeffs {
            poisson_a: Vec::new(),
            poisson_a_rho: Vec::new(),
            bursty_a: Vec::new(),
            bursty_a_rho: Vec::new(),
            bursty_beta_over_mu: Vec::new(),
        };
        for c in model.workload().classes() {
            let a = c.bandwidth as i64;
            let a_rho = a as f64 * c.rho();
            if c.is_poisson() {
                co.poisson_a.push(a);
                co.poisson_a_rho.push(a_rho);
            } else {
                co.bursty_a.push(a);
                co.bursty_a_rho.push(a_rho);
                co.bursty_beta_over_mu.push(c.beta / c.mu);
            }
        }
        co
    }
}

impl PlainCoeffs {
    /// The per-cell recurrence: `V_r(i1, i2)` for every bursty class, then
    /// `Q(i1, i2)`.
    fn cell<S: QScalar>(&self, s: &mut Sweep<S>, i1: i64, i2: i64) {
        // V_r(i1, i2) first — it only reads strictly smaller points.
        for (j, (&a, &beta_over_mu)) in self
            .bursty_a
            .iter()
            .zip(&self.bursty_beta_over_mu)
            .enumerate()
        {
            let val = s
                .q(i1 - a, i2 - a)
                .add(s.v(j, i1 - a, i2 - a).scale(beta_over_mu));
            s.set_v(j, i1, i2, val);
        }
        if i1 == 0 && i2 == 0 {
            return; // Q(0,0) = 1 is seeded before the sweep.
        }
        // The i = 1 recurrence when possible, i = 2 on the n1 = 0 column
        // (both derive from paper eq. 8; a consistency test below checks
        // they agree).
        let (prev, divisor) = if i1 >= 1 {
            (s.q(i1 - 1, i2), i1 as f64)
        } else {
            (s.q(i1, i2 - 1), i2 as f64)
        };
        let mut acc = prev;
        for (&a, &a_rho) in self.poisson_a.iter().zip(&self.poisson_a_rho) {
            acc = acc.add(s.q(i1 - a, i2 - a).scale(a_rho));
        }
        for (j, &a_rho) in self.bursty_a_rho.iter().enumerate() {
            acc = acc.add(s.v(j, i1, i2).scale(a_rho));
        }
        s.set_q(i1, i2, acc.scale(1.0 / divisor));
    }
}

/// Solved `Q` lattice over `[0..=N1] × [0..=N2]` in scalar type `S`.
#[derive(Clone, Debug)]
pub struct QLattice<S> {
    dims: Dims,
    /// Row-major `(N1+1) × (N2+1)`.
    q: Vec<S>,
}

impl<S: QScalar> QLattice<S> {
    /// Run Algorithm 1 for `model`.
    pub fn solve(model: &Model) -> Self {
        let co = PlainCoeffs::of(model);
        let q = Sweep::run(model.dims(), co.bursty_a.len(), |s, i1, i2| {
            co.cell(s, i1, i2)
        });
        QLattice {
            dims: model.dims(),
            q,
        }
    }
}

impl<S: QScalar> QLattice<S> {
    /// Raw `Q(i1, i2)` (zero outside the non-negative quadrant).
    pub fn q(&self, i1: i64, i2: i64) -> S {
        if i1 < 0 || i2 < 0 {
            S::zero()
        } else {
            assert!(
                i1 <= self.dims.n1 as i64 && i2 <= self.dims.n2 as i64,
                "Q({i1},{i2}) outside solved lattice {}",
                self.dims
            );
            self.q[i1 as usize * (self.dims.n2 as usize + 1) + i2 as usize]
        }
    }

    /// `true` iff every lattice cell is a usable (nonzero) value — the
    /// plain-`f64` backend loses cells to underflow on large switches, and
    /// the solver uses this to detect that.
    pub fn is_healthy(&self) -> bool {
        !self.q.iter().any(|x| x.is_zero())
    }
}

impl<S: QScalar> QRatio for QLattice<S> {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn q_ratio(&self, num: (i64, i64), den: (i64, i64)) -> f64 {
        if num.0 < 0 || num.1 < 0 {
            return 0.0;
        }
        self.q(num.0, num.1).ratio_to(self.q(den.0, den.1))
    }
}

// ---------------------------------------------------------------------------
// Scaled backend
// ---------------------------------------------------------------------------

/// Structure-of-arrays coefficient table for the scaled recurrence, in
/// original class order (the scaled accumulation interleaves Poisson and
/// bursty terms exactly as the workload lists them). `v_slot[r]` is the
/// bursty class's `V`-lattice index, or `usize::MAX` for Poisson classes.
struct ScaledCoeffs {
    a: Vec<i64>,
    a_rho: Vec<f64>,
    c2a: Vec<f64>,
    beta_over_mu: Vec<f64>,
    v_slot: Vec<usize>,
    n_bursty: usize,
    /// The per-coordinate scale `c` itself.
    c: f64,
}

impl ScaledCoeffs {
    fn of(model: &Model, ln_c: f64) -> Self {
        let mut co = ScaledCoeffs {
            a: Vec::new(),
            a_rho: Vec::new(),
            c2a: Vec::new(),
            beta_over_mu: Vec::new(),
            v_slot: Vec::new(),
            n_bursty: 0,
            c: ln_c.exp(),
        };
        for cl in model.workload().classes() {
            let a = cl.bandwidth as i64;
            co.a.push(a);
            co.a_rho.push(a as f64 * cl.rho());
            co.c2a.push((2.0 * a as f64 * ln_c).exp());
            co.beta_over_mu.push(cl.beta / cl.mu);
            if cl.is_poisson() {
                co.v_slot.push(usize::MAX);
            } else {
                co.v_slot.push(co.n_bursty);
                co.n_bursty += 1;
            }
        }
        co
    }
}

impl ScaledCoeffs {
    /// The scaled per-cell recurrence (see [`ScaledQLattice`]).
    fn cell(&self, s: &mut Sweep<f64>, i1: i64, i2: i64) {
        for (((&slot, &a), &c2a), &beta_over_mu) in self
            .v_slot
            .iter()
            .zip(&self.a)
            .zip(&self.c2a)
            .zip(&self.beta_over_mu)
        {
            if slot == usize::MAX {
                continue;
            }
            let val = c2a * (s.q(i1 - a, i2 - a) + beta_over_mu * s.v(slot, i1 - a, i2 - a));
            s.set_v(slot, i1, i2, val);
        }
        if i1 == 0 && i2 == 0 {
            return;
        }
        let (prev, divisor) = if i1 >= 1 {
            (s.q(i1 - 1, i2) * self.c, i1 as f64)
        } else {
            (s.q(i1, i2 - 1) * self.c, i2 as f64)
        };
        let mut acc = prev;
        for (((&slot, &a), &c2a), &a_rho) in self
            .v_slot
            .iter()
            .zip(&self.a)
            .zip(&self.c2a)
            .zip(&self.a_rho)
        {
            if slot == usize::MAX {
                acc += a_rho * c2a * s.q(i1 - a, i2 - a);
            } else {
                acc += a_rho * s.v(slot, i1, i2);
            }
        }
        s.set_q(i1, i2, acc / divisor);
    }
}

/// Algorithm 1 under the paper's §6 dynamic scaling, realised as the
/// deterministic geometric schedule described in the module docs:
/// each stored cell is `Q̂(n) = Q(n)·c^(n1+n2)`.
///
/// Scaled recurrence (`ĉ2a = c^{2a_r}`):
///
/// ```text
/// V̂_r(n)  = ĉ2a·( Q̂(n−a_rI) + (β_r/μ_r)·V̂_r(n−a_rI) )
/// Q̂(n)    = [ c·Q̂(n−1_1) + Σ_{R1} a_r·ρ_r·ĉ2a·Q̂(n−a_rI)
///                          + Σ_{R2} a_r·ρ_r·V̂_r(n) ] / n1
/// ```
#[derive(Clone, Debug)]
pub struct ScaledQLattice {
    dims: Dims,
    /// `ln c` — the per-coordinate scaling exponent.
    ln_c: f64,
    qhat: Vec<f64>,
}

impl ScaledQLattice {
    /// Run Algorithm 1 with scaling for `model`.
    pub fn solve(model: &Model) -> Self {
        let dims = model.dims();
        let ln_c = scale_ln_c(dims);
        let co = ScaledCoeffs::of(model, ln_c);
        let qhat = Sweep::run(dims, co.n_bursty, |s, i1, i2| co.cell(s, i1, i2));
        ScaledQLattice { dims, ln_c, qhat }
    }

    /// The scaling exponent `ln c` in use (diagnostic).
    pub fn ln_scale(&self) -> f64 {
        self.ln_c
    }

    fn qhat(&self, i1: i64, i2: i64) -> f64 {
        if i1 < 0 || i2 < 0 {
            0.0
        } else {
            assert!(
                i1 <= self.dims.n1 as i64 && i2 <= self.dims.n2 as i64,
                "Q({i1},{i2}) outside solved lattice {}",
                self.dims
            );
            self.qhat[i1 as usize * (self.dims.n2 as usize + 1) + i2 as usize]
        }
    }

    /// `true` iff no cell under- or overflowed.
    pub fn is_healthy(&self) -> bool {
        self.qhat.iter().all(|x| x.is_finite() && *x > 0.0)
    }
}

impl QRatio for ScaledQLattice {
    fn dims(&self) -> Dims {
        self.dims
    }

    fn q_ratio(&self, num: (i64, i64), den: (i64, i64)) -> f64 {
        if num.0 < 0 || num.1 < 0 {
            return 0.0;
        }
        // Q(num)/Q(den) = Q̂(num)/Q̂(den) · c^{(den1+den2) − (num1+num2)}.
        let shift = (den.0 + den.1 - num.0 - num.1) as f64;
        self.qhat(num.0, num.1) / self.qhat(den.0, den.1) * (shift * self.ln_c).exp()
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

    fn mixed_model(n1: u32, n2: u32) -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.3))
            .with(TrafficClass::bpp(0.2, 0.08, 1.0))
            .with(TrafficClass::poisson(0.15).with_bandwidth(2))
            .with(TrafficClass::bpp(0.1, 0.05, 2.0).with_bandwidth(2));
        Model::new(Dims::new(n1, n2), w).unwrap()
    }

    #[test]
    fn lattice_matches_brute_force_q_everywhere() {
        let m = mixed_model(6, 5);
        let lat: QLattice<f64> = QLattice::solve(&m);
        let brute = Brute::new(&m);
        for i1 in 0..=6i64 {
            for i2 in 0..=5i64 {
                let expect = brute.q(Dims::new(i1 as u32, i2 as u32)).to_f64();
                close(lat.q(i1, i2), expect, 1e-11);
            }
        }
    }

    #[test]
    fn extfloat_backend_matches_f64_backend() {
        let m = mixed_model(7, 7);
        let a: QLattice<f64> = QLattice::solve(&m);
        let b: QLattice<ExtFloat> = QLattice::solve(&m);
        for i1 in 0..=7i64 {
            for i2 in 0..=7i64 {
                close(a.q(i1, i2), b.q(i1, i2).to_f64(), 1e-12);
            }
        }
    }

    #[test]
    fn scaled_backend_ratios_match_f64_backend() {
        let m = mixed_model(8, 6);
        let plain: QLattice<f64> = QLattice::solve(&m);
        let scaled = ScaledQLattice::solve(&m);
        assert!(scaled.is_healthy());
        let den = (8i64, 6i64);
        for i1 in 0..=8i64 {
            for i2 in 0..=6i64 {
                close(
                    scaled.q_ratio((i1, i2), den),
                    plain.q_ratio((i1, i2), den),
                    1e-9,
                );
            }
        }
    }

    #[test]
    fn f64_backend_underflows_large_switch_but_ext_survives() {
        let w = Workload::new().with(TrafficClass::poisson(0.0012 / 128.0));
        let m = Model::new(Dims::square(128), w).unwrap();
        let plain: QLattice<f64> = QLattice::solve(&m);
        assert!(!plain.is_healthy(), "expected f64 underflow at N=128");
        let ext: QLattice<ExtFloat> = QLattice::solve(&m);
        assert!(ext.is_healthy());
        // Q(127,127)/Q(128,128) is huge but finite.
        let r = ext.q_ratio((127, 127), (128, 128));
        assert!(r.is_finite() && r > 1.0);
    }

    #[test]
    fn scaled_backend_survives_n256() {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.0012 / 256.0))
            .with(TrafficClass::bpp(0.0012 / 256.0, 0.0012 / 256.0, 1.0));
        let m = Model::new(Dims::square(256), w).unwrap();
        let scaled = ScaledQLattice::solve(&m);
        assert!(scaled.is_healthy(), "scaled backend lost cells at N=256");
        let ext: QLattice<ExtFloat> = QLattice::solve(&m);
        let den = (256i64, 256i64);
        // (Ratios to far-away cells like Q(0,0)/Q(256,256) ≈ e^2335 exceed
        // f64 as plain numbers; the measures only ever need nearby cells.)
        for &p in &[(255i64, 255i64), (250, 250), (200, 256), (240, 240)] {
            close(scaled.q_ratio(p, den), ext.q_ratio(p, den), 1e-6);
        }
    }

    #[test]
    fn q_ratio_zero_for_negative_numerator() {
        let m = mixed_model(4, 4);
        let lat: QLattice<f64> = QLattice::solve(&m);
        assert_eq!(lat.q_ratio((-1, 2), (4, 4)), 0.0);
        assert_eq!(lat.q_ratio((2, -2), (4, 4)), 0.0);
    }

    #[test]
    fn boundary_rows_are_inverse_factorials() {
        // Q(0, n) = Q(n, 0) = 1/n! (only the empty state fits) —
        // exercises the i = 2 branch against the i = 1 branch.
        let m = mixed_model(5, 5);
        let lat: QLattice<f64> = QLattice::solve(&m);
        let mut fact = 1.0;
        for n in 0..=5i64 {
            if n > 0 {
                fact *= n as f64;
            }
            close(lat.q(0, n), 1.0 / fact, 1e-13);
            close(lat.q(n, 0), 1.0 / fact, 1e-13);
        }
    }

    #[test]
    fn transpose_symmetry() {
        // Q is symmetric under swapping (N1, N2) when the workload is held
        // in per-set parameters: G(N1,N2) = G(N2,N1) by symmetry of Ψ.
        let m = mixed_model(6, 4);
        let mt = mixed_model(4, 6);
        let a: QLattice<f64> = QLattice::solve(&m);
        let b: QLattice<f64> = QLattice::solve(&mt);
        for i1 in 0..=6i64 {
            for i2 in 0..=4i64 {
                close(a.q(i1, i2), b.q(i2, i1), 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside solved lattice")]
    fn out_of_range_access_panics() {
        let m = mixed_model(3, 3);
        let lat: QLattice<f64> = QLattice::solve(&m);
        let _ = lat.q(4, 0);
    }
}
