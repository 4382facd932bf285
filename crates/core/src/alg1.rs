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
//! # Wavefront parallelism
//!
//! Every term on the right-hand side reads a cell with strictly smaller
//! coordinate sum: `Q(n1−1, n2)` and `Q(n1, n2−1)` sit on anti-diagonal
//! `d − 1` and the `(n1−a_r, n2−a_r)` terms on `d − 2a_r`, where
//! `d = n1 + n2`. Cells sharing an anti-diagonal are therefore mutually
//! independent, so the recursion admits an exact *wavefront* schedule:
//! sweep `d` from 0 to `N1 + N2`, computing each diagonal's cells in
//! parallel. [`QLattice::solve`] (all backends) runs this schedule on the
//! persistent worker pool ([`crate::parallel::run_scoped`]) with one
//! barrier per diagonal; per-cell arithmetic is shared with the sequential
//! path (one kernel), so the parallel result is **bit-for-bit identical**
//! to the serial one. Short diagonals (below [`PAR_MIN_DIAG_LEN`]) are
//! computed by a single worker, and automatic solves cap the thread count
//! so each worker owns at least [`PAR_MIN_DIM`] cells of the longest
//! diagonal — see [`crate::parallel`] for how the count is chosen.
//!
//! # Numeric backends
//!
//! `Q(n1, n2) ≈ G/(n1!·n2!)` underflows `f64` well before the paper's
//! largest evaluation size even though all the performance measures —
//! ratios of nearby `Q` values — are perfectly tame. Three backends are
//! provided:
//!
//! * [`QLattice<f64>`] — plain doubles; fastest; valid while no cell
//!   underflows. The solver's `Auto` mode uses it in the paper's
//!   "Algorithm 1 for `N ≤ 32`" regime.
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

use std::marker::PhantomData;
use std::sync::Barrier;
use std::time::Instant;

use xbar_numeric::ExtFloat;

use crate::model::{Dims, Model};
use crate::parallel;

/// Minimum cells of the longest anti-diagonal (`min(N1, N2) + 1` cells)
/// each worker must own before the automatic thread-count resolution adds
/// it to the wavefront: `auto threads = min(effective, width / 96)`.
/// Below one quantum per extra worker the per-diagonal barrier costs more
/// than the cells it buys (BENCH_6 measured 4 threads 1.7× slower than
/// serial at `N = 128`). An explicit [`QLattice::solve_with_threads`]
/// call bypasses this gate.
pub const PAR_MIN_DIM: usize = 96;

/// Anti-diagonals shorter than this are computed by one worker inside the
/// parallel sweep (the triangular corners of the lattice), avoiding
/// splitting a handful of cells across threads.
pub const PAR_MIN_DIAG_LEN: usize = 16;

/// Scalar arithmetic shared by the `Q`-recursion and the sweep solver's
/// diagonal rays ([`crate::sweep`]): plain `f64` or extended-range
/// [`ExtFloat`].
pub trait QScalar: Copy + Send + Sync {
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
}

// ---------------------------------------------------------------------------
// Wavefront engine (shared by all three backends)
// ---------------------------------------------------------------------------

/// Raw shared view of one row-major lattice buffer, letting wavefront
/// workers write disjoint cells of the current anti-diagonal while reading
/// completed cells from earlier diagonals.
///
/// All access goes through raw pointers (no `&`/`&mut` aliasing to prove),
/// so soundness rests entirely on the sweep discipline documented on
/// [`CellKernel::cell`].
struct Cells<'a, S> {
    ptr: *mut S,
    cols: usize,
    _buffer: PhantomData<&'a mut [S]>,
}

// Safety: the wavefront schedule guarantees data-race freedom (disjoint
// writes within a diagonal, reads only of cells completed before the last
// barrier), so sharing the view across worker threads is sound.
unsafe impl<S: Send> Send for Cells<'_, S> {}
unsafe impl<S: Send> Sync for Cells<'_, S> {}

impl<'a, S: QScalar> Cells<'a, S> {
    fn new(buffer: &'a mut [S], cols: usize) -> Self {
        Cells {
            ptr: buffer.as_mut_ptr(),
            cols,
            _buffer: PhantomData,
        }
    }

    /// Read `(i1, i2)`; zero outside the non-negative quadrant.
    ///
    /// # Safety
    /// `(i1, i2)` must lie inside the allocated lattice whenever both are
    /// non-negative, and the cell must not be concurrently written.
    #[inline(always)]
    unsafe fn get(&self, i1: i64, i2: i64) -> S {
        if i1 < 0 || i2 < 0 {
            S::zero()
        } else {
            *self.ptr.add(i1 as usize * self.cols + i2 as usize)
        }
    }

    /// Write `(i1, i2)`.
    ///
    /// # Safety
    /// `(i1, i2)` must be in range and owned exclusively by the caller for
    /// the duration of the current diagonal.
    #[inline(always)]
    unsafe fn set(&self, i1: i64, i2: i64, value: S) {
        *self.ptr.add(i1 as usize * self.cols + i2 as usize) = value;
    }
}

/// Raw shared view of the `V`-recursion storage: one flat buffer holding
/// `lanes` row-major lattices back to back (lane `j` is bursty class
/// `j`'s `V` lattice). The same wavefront discipline as [`Cells`] makes
/// the raw pointer sharing sound.
struct VCells<'a, S> {
    ptr: *mut S,
    cols: usize,
    /// Cells per lane (`(N1+1)·(N2+1)`).
    stride: usize,
    _buffer: PhantomData<&'a mut [S]>,
}

// Safety: as for `Cells` — the wavefront schedule guarantees data-race
// freedom across worker threads.
unsafe impl<S: Send> Send for VCells<'_, S> {}
unsafe impl<S: Send> Sync for VCells<'_, S> {}

impl<'a, S: QScalar> VCells<'a, S> {
    fn new(buffer: &'a mut [S], cols: usize, stride: usize) -> Self {
        VCells {
            ptr: buffer.as_mut_ptr(),
            cols,
            stride,
            _buffer: PhantomData,
        }
    }

    /// Read lane `lane` at `(i1, i2)`; zero outside the non-negative
    /// quadrant.
    ///
    /// # Safety
    /// As [`Cells::get`], and `lane` must be within the buffer's lanes.
    #[inline(always)]
    unsafe fn get(&self, lane: usize, i1: i64, i2: i64) -> S {
        if i1 < 0 || i2 < 0 {
            S::zero()
        } else {
            *self
                .ptr
                .add(lane * self.stride + i1 as usize * self.cols + i2 as usize)
        }
    }

    /// Write lane `lane` at `(i1, i2)`.
    ///
    /// # Safety
    /// As [`Cells::set`], and `lane` must be within the buffer's lanes.
    #[inline(always)]
    unsafe fn set(&self, lane: usize, i1: i64, i2: i64, value: S) {
        *self
            .ptr
            .add(lane * self.stride + i1 as usize * self.cols + i2 as usize) = value;
    }
}

/// The per-cell recurrence of one backend: computes `V_r(i1, i2)` for every
/// bursty class and `Q(i1, i2)`, and stores them. Exactly one invocation
/// owns a cell, in both the serial and the parallel schedule, so serial and
/// parallel lattices are bit-for-bit identical.
trait CellKernel<S: QScalar>: Sync {
    /// # Safety
    /// The caller must guarantee exclusive access to cell `(i1, i2)` of `q`
    /// and every `v` lane, and that every cell with smaller coordinate
    /// sum `i1 + i2` is complete and no longer being written.
    unsafe fn cell(&self, q: &Cells<'_, S>, v: &VCells<'_, S>, i1: i64, i2: i64);
}

/// Run a kernel over the whole lattice. `threads <= 1` sweeps row-major
/// (cache-friendly; the dependency structure admits any order that computes
/// smaller coordinate sums first, and row-major does). `threads > 1` runs
/// the anti-diagonal wavefront with one barrier per diagonal.
///
/// `v` is the flat `V`-recursion storage: one lane of `(n1+1)·(n2+1)`
/// cells per bursty class, back to back.
fn sweep<S, K>(n1: usize, n2: usize, q: &mut [S], v: &mut [S], kernel: &K, threads: usize)
where
    S: QScalar,
    K: CellKernel<S>,
{
    let cols = n2 + 1;
    let q_cells = Cells::new(q, cols);
    let v_cells = VCells::new(v, cols, (n1 + 1) * cols);

    let threads = threads.max(1).min(n1.min(n2) + 1);
    let cells = ((n1 + 1) * (n2 + 1)) as u64;
    if threads <= 1 {
        xbar_obs::inc("alg1.sweep.serial");
        xbar_obs::add("alg1.cells", cells);
        for i1 in 0..=n1 as i64 {
            for i2 in 0..=n2 as i64 {
                // Safety: single-threaded; cells with smaller coordinate
                // sums precede (i1, i2) in row-major order.
                unsafe { kernel.cell(&q_cells, &v_cells, i1, i2) };
            }
        }
        return;
    }

    xbar_obs::inc("alg1.sweep.parallel");
    xbar_obs::add("alg1.cells", cells);
    // Workers run on fresh threads, so the spawner's scoped registry (if
    // any) must be re-installed by hand; the same flag gates the
    // per-diagonal clock reads so a disabled run never touches Instant.
    let obs_scope = xbar_obs::current_scope();
    let record_diag = xbar_obs::enabled();
    let barrier = Barrier::new(threads);
    let last_diag = (n1 + n2) as i64;
    parallel::run_scoped(threads, |w| {
        let _obs = obs_scope.enter();
        for d in 0..=last_diag {
            // Worker 0 times each diagonal (the wavefront's unit of
            // work); barrier-to-barrier, so it includes the
            // stragglers this worker waited on.
            let t0 = if record_diag && w == 0 {
                Some(Instant::now())
            } else {
                None
            };
            // The diagonal's i1 range: i2 = d − i1 must fit [0, n2].
            let lo = (d - n2 as i64).max(0);
            let hi = (n1 as i64).min(d);
            let len = (hi - lo + 1) as usize;
            if len < PAR_MIN_DIAG_LEN {
                if w == 0 {
                    for i1 in lo..=hi {
                        // Safety: worker 0 alone owns the whole
                        // diagonal; earlier diagonals completed
                        // before the previous barrier.
                        unsafe { kernel.cell(&q_cells, &v_cells, i1, d - i1) };
                    }
                }
            } else {
                let chunk = len.div_ceil(threads) as i64;
                let start = lo + w as i64 * chunk;
                let end = (start + chunk - 1).min(hi);
                for i1 in start..=end {
                    // Safety: workers own disjoint i1 ranges of the
                    // current diagonal; reads target older
                    // diagonals, sequenced by the barrier below.
                    unsafe { kernel.cell(&q_cells, &v_cells, i1, d - i1) };
                }
            }
            barrier.wait();
            if let Some(t0) = t0 {
                xbar_obs::record_duration("alg1.diag_ns", t0.elapsed());
            }
        }
    });
}

/// Resolve the thread count for an automatic (non-explicit) solve: the
/// configured count, capped so every worker owns at least
/// [`PAR_MIN_DIM`] cells of the longest anti-diagonal (`min(N1,N2)+1`
/// cells). Below one full quantum the sweep stays serial — BENCH_6
/// showed the barrier overhead costing 4 threads 1.7× *more* wall time
/// than 1 thread at `N = 128`; per-worker diagonal width, not lattice
/// size alone, is what must clear the barrier cost.
fn auto_threads(dims: Dims) -> usize {
    let width = dims.min_n() as usize + 1;
    parallel::effective_threads()
        .min(width / PAR_MIN_DIM)
        .max(1)
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

struct PlainKernel<'c> {
    co: &'c PlainCoeffs,
}

impl<S: QScalar> CellKernel<S> for PlainKernel<'_> {
    #[inline(always)]
    unsafe fn cell(&self, q: &Cells<'_, S>, v: &VCells<'_, S>, i1: i64, i2: i64) {
        let co = self.co;
        // V_r(i1, i2) first — it only reads strictly smaller points.
        for (j, (&a, &beta_over_mu)) in co.bursty_a.iter().zip(&co.bursty_beta_over_mu).enumerate()
        {
            let val = q
                .get(i1 - a, i2 - a)
                .add(v.get(j, i1 - a, i2 - a).scale(beta_over_mu));
            v.set(j, i1, i2, val);
        }
        if i1 == 0 && i2 == 0 {
            return; // Q(0,0) = 1 is seeded before the sweep.
        }
        // The i = 1 recurrence when possible, i = 2 on the n1 = 0 column
        // (both derive from paper eq. 8; a consistency test below checks
        // they agree).
        let (prev, divisor) = if i1 >= 1 {
            (q.get(i1 - 1, i2), i1 as f64)
        } else {
            (q.get(i1, i2 - 1), i2 as f64)
        };
        let mut acc = prev;
        for (&a, &a_rho) in co.poisson_a.iter().zip(&co.poisson_a_rho) {
            acc = acc.add(q.get(i1 - a, i2 - a).scale(a_rho));
        }
        for (j, &a_rho) in co.bursty_a_rho.iter().enumerate() {
            acc = acc.add(v.get(j, i1, i2).scale(a_rho));
        }
        q.set(i1, i2, acc.scale(1.0 / divisor));
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
    /// Run Algorithm 1 for `model`, choosing the thread count
    /// automatically (see [`crate::parallel`]; small lattices stay serial).
    pub fn solve(model: &Model) -> Self {
        Self::solve_with_threads(model, auto_threads(model.dims()))
    }

    /// Run Algorithm 1 with an explicit thread count (`<= 1` forces the
    /// sequential sweep; `> 1` forces the wavefront even below the
    /// automatic size gate — the result is bit-for-bit identical).
    pub fn solve_with_threads(model: &Model, threads: usize) -> Self {
        let dims = model.dims();
        let (n1, n2) = (dims.n1 as usize, dims.n2 as usize);
        let co = PlainCoeffs::of(model);
        let cells = (n1 + 1) * (n2 + 1);
        let mut q = vec![S::zero(); cells];
        // One V lane per bursty class, in one flat buffer.
        let mut v = vec![S::zero(); cells * co.bursty_a.len()];
        q[0] = S::one();
        sweep(n1, n2, &mut q, &mut v, &PlainKernel { co: &co }, threads);
        QLattice { dims, q }
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

struct ScaledKernel<'c> {
    co: &'c ScaledCoeffs,
}

impl CellKernel<f64> for ScaledKernel<'_> {
    #[inline(always)]
    unsafe fn cell(&self, q: &Cells<'_, f64>, v: &VCells<'_, f64>, i1: i64, i2: i64) {
        let co = self.co;
        for (((&slot, &a), &c2a), &beta_over_mu) in co
            .v_slot
            .iter()
            .zip(&co.a)
            .zip(&co.c2a)
            .zip(&co.beta_over_mu)
        {
            if slot == usize::MAX {
                continue;
            }
            let val = c2a * (q.get(i1 - a, i2 - a) + beta_over_mu * v.get(slot, i1 - a, i2 - a));
            v.set(slot, i1, i2, val);
        }
        if i1 == 0 && i2 == 0 {
            return;
        }
        let (prev, divisor) = if i1 >= 1 {
            (q.get(i1 - 1, i2) * co.c, i1 as f64)
        } else {
            (q.get(i1, i2 - 1) * co.c, i2 as f64)
        };
        let mut acc = prev;
        for (((&slot, &a), &c2a), &a_rho) in co.v_slot.iter().zip(&co.a).zip(&co.c2a).zip(&co.a_rho)
        {
            if slot == usize::MAX {
                acc += a_rho * c2a * q.get(i1 - a, i2 - a);
            } else {
                acc += a_rho * v.get(slot, i1, i2);
            }
        }
        q.set(i1, i2, acc / divisor);
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
    /// Run Algorithm 1 with scaling for `model` (automatic thread count,
    /// as [`QLattice::solve`]).
    pub fn solve(model: &Model) -> Self {
        Self::solve_with_threads(model, auto_threads(model.dims()))
    }

    /// Run Algorithm 1 with scaling and an explicit thread count.
    pub fn solve_with_threads(model: &Model, threads: usize) -> Self {
        let dims = model.dims();
        let (n1, n2) = (dims.n1 as usize, dims.n2 as usize);
        let ln_c = scale_ln_c(dims);
        let co = ScaledCoeffs::of(model, ln_c);
        let cells = (n1 + 1) * (n2 + 1);
        let mut qhat = vec![0.0f64; cells];
        let mut v = vec![0.0f64; cells * co.n_bursty];
        qhat[0] = 1.0;
        sweep(
            n1,
            n2,
            &mut qhat,
            &mut v,
            &ScaledKernel { co: &co },
            threads,
        );
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
    fn parallel_wavefront_is_bit_identical_to_serial() {
        // The tentpole invariant: forcing the wavefront (any thread count)
        // must reproduce the sequential lattice exactly, including on
        // rectangular switches and below the automatic size gate.
        for (n1, n2) in [(9u32, 6u32), (6, 9), (17, 17)] {
            let m = mixed_model(n1, n2);
            let serial: QLattice<f64> = QLattice::solve_with_threads(&m, 1);
            let ext_serial: QLattice<ExtFloat> = QLattice::solve_with_threads(&m, 1);
            let scaled_serial = ScaledQLattice::solve_with_threads(&m, 1);
            for threads in [2usize, 3, 5] {
                let par: QLattice<f64> = QLattice::solve_with_threads(&m, threads);
                let ext_par: QLattice<ExtFloat> = QLattice::solve_with_threads(&m, threads);
                let scaled_par = ScaledQLattice::solve_with_threads(&m, threads);
                for i1 in 0..=n1 as i64 {
                    for i2 in 0..=n2 as i64 {
                        assert_eq!(
                            serial.q(i1, i2).to_bits(),
                            par.q(i1, i2).to_bits(),
                            "f64 cell ({i1},{i2}) differs at {threads} threads"
                        );
                        assert_eq!(
                            ext_serial.q(i1, i2),
                            ext_par.q(i1, i2),
                            "ExtFloat cell ({i1},{i2}) differs at {threads} threads"
                        );
                        assert_eq!(
                            scaled_serial.qhat(i1, i2).to_bits(),
                            scaled_par.qhat(i1, i2).to_bits(),
                            "scaled cell ({i1},{i2}) differs at {threads} threads"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn thread_count_larger_than_diagonal_is_clamped() {
        let m = mixed_model(3, 3);
        let a: QLattice<f64> = QLattice::solve_with_threads(&m, 64);
        let b: QLattice<f64> = QLattice::solve_with_threads(&m, 1);
        for i1 in 0..=3i64 {
            for i2 in 0..=3i64 {
                assert_eq!(a.q(i1, i2).to_bits(), b.q(i1, i2).to_bits());
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
