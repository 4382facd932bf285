//! Multi-lane recombination kernels for the diagonal-ray sweep.
//!
//! The hot loop of [`crate::SweepSolver`] — installing a class on a
//! leave-one-out ray and building derivative rays — is, per ray point
//! `d`, the strided dot product
//!
//! ```text
//! out[d] = seed(d) + Σ_{j ≥ 1, d + j·a < C+1} coef[j] · base[d + j·a]
//! ```
//!
//! Consecutive `d` share the whole `coef` table and read *contiguous*
//! slices `base[d + j·a ..]`, so blocking the loop over `d` into 8- and
//! 4-wide lanes turns every inner step into one broadcast (`coef[j]`),
//! one contiguous load, and one lane-wise multiply-add — a shape LLVM
//! reliably vectorises without any nightly `std::simd` dependency.
//!
//! Two kernels:
//!
//! * [`combine_strict`] — the one the sweep runs: hand-unrolled 8/4-lane
//!   blocks that keep **one accumulator per lane** and add terms in the
//!   exact scalar `j` order with plain mul-then-add (no FMA, no
//!   reassociation). Each lane performs literally the same arithmetic on
//!   the same values as the scalar loop, so the result is **bit-for-bit
//!   identical** — golden CSVs do not move. A class install enters it
//!   through [`install_strict`], which generates the `Φ` coefficients in
//!   the same pass (derivative rays call `combine_strict` directly).
//! * [`combine_scalar`] — one point at a time over every term, the
//!   reference the strict kernel is tested against.
//!
//! # The cut
//!
//! A class install's `coef` is the `Φ_r(j) ≈ x^j/j!` series, which decays
//! through the subnormal range to exact zeros long before the ray ends,
//! and a subnormal multiply is slow. The strict kernel therefore runs, in
//! each block, only the terms that can still change a bit of that
//! block's output. This holds only for a seeded install (`seed_base`)
//! whose `base` values are all positive and finite and whose `coef`
//! values up to the ray-wide cut are all nonnegative and finite; anything
//! else (derivative rays included) runs every term.
//!
//! * **Ray-wide.** With `m = min base` and `M = max base`, no term past
//!   `J` runs, `J` the last index with `coef[J] ≥ keep`, `keep` the
//!   threshold `m·2⁻⁶⁰/M` rounded down by one ulp (so its own rounding
//!   never keeps fewer terms than the rule); where `m·2⁻⁶⁰` or that
//!   threshold is not a normal `f64`, `keep` is the smallest subnormal
//!   and only the exact-zero tail is cut (`0·base[i]` adds `+0`).
//! * **Per block.** The 8- or 4-lane block at `d0` runs the terms
//!   `j ≤ J_blk ≤ J`, `J_blk` the last index with
//!   `coef[j]·S[d0+j·a] ≥ m_blk·2⁻⁶⁰`, where `S[i] = max base[i..]` and
//!   `m_blk` is the block's smallest seed; where `m_blk·2⁻⁶⁰` is not
//!   normal the block runs to `J`. From the coefficients' mode on, both
//!   factors are nonincreasing in `j`, so `J_blk` is found by walking
//!   from the previous block's. The last `len mod 4` points run to `J`.
//!
//! The cut output is bit-for-bit the full loop's. Every term is
//! nonnegative, so each accumulator is at least its seed: at least `m`,
//! and in a block at least `m_blk`. Lane `l` of the block reads
//! `base[d0+l+j·a] ≤ S[d0+j·a]`, so every product the block skips
//! rounds to at most `m_blk·2⁻⁶⁰` (and past `J` to at most `m·2⁻⁶⁰`),
//! below half an ulp of that accumulator, a normal number: adding it
//! rounds back to the same accumulator, and the next one does the same.
//! [`combine_scalar`] keeps every term, so "strict ≡ scalar, bitwise" is
//! also the proof of the cut.
//!
//! # The Φ stop
//!
//! [`install_strict`] fuses a class install: one backward pass over
//! `base` gives `m`, `M`, the positivity check and `S`; the `Φ` series is
//! generated only until a term falls below `keep/2` and no later ratio
//! `factor·(ρ + y·(j'−1))/j'` can exceed 1 — for `ρ, y ≥ 0` that ratio
//! moves monotonically toward `factor·y`, so its bound past `j` is
//! `max(r_{j+1}, factor·y)`. With that bound at most 1, each later
//! step multiplies a term by at most `1 + 10·2⁻⁵³` (the computed ratio's
//! rounding against the bound's, and the product's own), so on any ray
//! shorter than 2⁴⁸ points every later term stays below twice the
//! stopped one, below `keep`: nonnegative, finite and past `J`, exactly
//! what the full series would have shown the cut. A negative `y`
//! (Bernoulli), `ρ < 0`, a `factor` below 1 or not finite, or a `base`
//! the cut does not apply to generates the full series.

/// A product below `MARGIN · x` is under half an ulp of every
/// accumulator of at least `x` (an ulp is at least `2⁻⁵³` of its value).
const MARGIN: f64 = 1.0 / (1u64 << 60) as f64;

/// Ray point `d` over the terms with `d + j·a < end`.
#[inline]
fn scalar_point(
    base: &[f64],
    coef: &[f64],
    a: usize,
    d: usize,
    seed_base: bool,
    end: usize,
) -> f64 {
    let mut acc = if seed_base { base[d] } else { 0.0 };
    let mut j = 1;
    let mut idx = d + a;
    while idx < end {
        acc += coef[j] * base[idx];
        j += 1;
        idx += a;
    }
    acc
}

/// The reference point-at-a-time kernel over every term (identical
/// arithmetic to the default
/// [`QScalar::combine`](crate::alg1::QScalar::combine) loop).
pub fn combine_scalar(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
    let len = base.len();
    (0..len)
        .map(|d| scalar_point(base, coef, a, d, seed_base, len))
        .collect()
}

/// One `L`-wide block of the strict kernel over the terms `j ≤ last`:
/// lane `l` accumulates ray point `d0 + l` with a single accumulator in
/// exact scalar `j` order, so each lane is bit-for-bit the scalar loop.
/// Returns the multiply-adds made.
#[inline]
fn block_strict<const L: usize>(
    out: &mut [f64],
    base: &[f64],
    coef: &[f64],
    a: usize,
    d0: usize,
    seed_base: bool,
    last: usize,
) -> u64 {
    let len = base.len();
    // Lane 0 reads `idx = d0 + j·a`, so `j ≤ last` is `idx < end`.
    let end = len.min(d0 + last * a + 1);
    let mut acc = [0.0f64; L];
    if seed_base {
        acc.copy_from_slice(&base[d0..d0 + L]);
    }
    let mut done = 0;
    let mut j = 1;
    let mut idx = d0 + a;
    // Full-width steps: every lane's term is in range, one broadcast ×
    // contiguous load × lane-wise mul-add (the vectorised body).
    let wide_end = end.min(len + 1 - L);
    while idx < wide_end {
        let c = coef[j];
        let lanes = &base[idx..idx + L];
        for l in 0..L {
            acc[l] += c * lanes[l];
        }
        j += 1;
        idx += a;
        done += L;
    }
    // Ragged tail: lane `l` is active while `idx + l < len`, matching
    // the scalar loop's exact stopping point per lane.
    while idx < end {
        let c = coef[j];
        for (l, b) in base[idx..].iter().enumerate() {
            acc[l] += c * b;
        }
        j += 1;
        done += len - idx;
        idx += a;
    }
    out.copy_from_slice(&acc);
    done as u64
}

/// One backward pass over a seeded install's `base`: the suffix maxima
/// `S[i] = max base[i..]`, and the ray-wide keep threshold — `m·2⁻⁶⁰/M`
/// rounded down by one ulp, so never above the exact quotient, where it
/// and `m·2⁻⁶⁰` are normal, else the smallest subnormal (only exact
/// zeros are cut). `None` unless `base` is nonempty and every value is
/// positive and finite (NaN fails).
fn scan(base: &[f64]) -> Option<(Vec<f64>, f64)> {
    let mut suffix = vec![0.0; base.len()];
    let (mut lo, mut hi, mut ok) = (f64::INFINITY, 0.0f64, !base.is_empty());
    for (s, &x) in suffix.iter_mut().zip(base).rev() {
        ok &= (x > 0.0) & (x < f64::INFINITY);
        lo = if x < lo { x } else { lo };
        hi = if x > hi { x } else { hi };
        *s = hi;
    }
    if !ok {
        return None;
    }
    let floor = lo * MARGIN;
    let t = floor / hi;
    let keep = if floor.is_normal() && t.is_normal() {
        f64::from_bits(t.to_bits() - 1)
    } else {
        f64::from_bits(1)
    };
    Some((suffix, keep))
}

/// The ray-wide cut of a seeded install, taken in one forward pass over
/// its coefficients `coef[1], coef[2], …` (see [`Terms::see`]).
struct Terms {
    keep: f64,
    /// `J`: the last term not in `[0, keep)`.
    last: usize,
    /// The coefficients do not rise from `mode` to `last`.
    mode: usize,
    /// The last term that rose above the one before it.
    rise: usize,
    prev: f64,
    /// A term up to `last` is negative or not finite: no cut applies.
    bad: bool,
}

impl Terms {
    fn new(keep: f64) -> Self {
        Terms {
            keep,
            last: 0,
            mode: 1,
            rise: 1,
            prev: f64::INFINITY,
            bad: false,
        }
    }

    /// Take in `c = coef[j]`, for `j = 1, 2, …` in order.
    #[inline]
    fn see(&mut self, j: usize, c: f64) {
        if c > self.prev {
            self.rise = j;
        }
        self.prev = c;
        // Every term in `[0, keep)` is finite and nonnegative.
        if !(0.0..self.keep).contains(&c) {
            self.last = j;
            self.mode = self.rise;
            self.bad |= !(0.0..f64::INFINITY).contains(&c);
        }
    }
}

/// The per-block cut of a seeded install (see the module docs).
struct BlockCut<'a> {
    /// `S[i] = max base[i..]`.
    suffix: &'a [f64],
    /// The coefficients do not rise from `mode` to the ray-wide `J`.
    mode: usize,
    /// The previous block's last term, where the next walk starts.
    prev: usize,
}

impl BlockCut<'_> {
    /// The last term the block of seeds `base[d0..d0 + seeds.len()]`
    /// applies: the last `j ≤ last` with `coef[j]·S[d0+j·a] ≥ m_blk·2⁻⁶⁰`,
    /// `m_blk = min seeds`, or `last` itself where `m_blk·2⁻⁶⁰` is not
    /// normal.
    fn block_last(
        &mut self,
        coef: &[f64],
        seeds: &[f64],
        a: usize,
        d0: usize,
        last: usize,
    ) -> usize {
        let floor = seeds.iter().fold(f64::INFINITY, |m, &x| m.min(x)) * MARGIN;
        if !floor.is_normal() {
            return last;
        }
        let hi = last.min((self.suffix.len() - 1 - d0) / a);
        let keeps = |j: usize| coef[j] * self.suffix[d0 + j * a] >= floor;
        // From `mode` on neither factor rises, so `keeps` holds on a
        // prefix of `mode..=hi`: walk up from the previous block's term
        // while the next one keeps, or down to the last one that does
        // (one at a time below `mode`).
        let mut j = self.prev.clamp(self.mode.min(hi), hi);
        if j > 0 && keeps(j) {
            while j < hi && keeps(j + 1) {
                j += 1;
            }
        } else {
            while j > 0 && !keeps(j) {
                j -= 1;
            }
        }
        self.prev = j;
        j
    }
}

/// Multiply-adds of a combine over the terms `j = 1..=last` of a ray of
/// length `len`: term `j` reaches the `len − j·a` points `d < len − j·a`.
fn madds(len: usize, a: usize, last: usize) -> u64 {
    let (len, a, last) = (len as u64, a as u64, last as u64);
    last * len - a * last * (last + 1) / 2
}

/// The blocked kernel over the terms `j ≤ last`, each 8- or 4-lane
/// block cut further by `cut`, counting its multiply-adds in
/// `sweep.madds` and the rest of the `full` terms' in
/// `sweep.madds_skipped`.
fn run(
    base: &[f64],
    coef: &[f64],
    a: usize,
    seed_base: bool,
    (last, full): (usize, usize),
    mut cut: Option<BlockCut>,
) -> Vec<f64> {
    let len = base.len();
    let mut out = vec![0.0; len];
    let mut done = 0;
    let mut d = 0;
    while len - d >= 8 {
        let j = cut
            .as_mut()
            .map_or(last, |c| c.block_last(coef, &base[d..d + 8], a, d, last));
        done += block_strict::<8>(&mut out[d..d + 8], base, coef, a, d, seed_base, j);
        d += 8;
    }
    while len - d >= 4 {
        let j = cut
            .as_mut()
            .map_or(last, |c| c.block_last(coef, &base[d..d + 4], a, d, last));
        done += block_strict::<4>(&mut out[d..d + 4], base, coef, a, d, seed_base, j);
        d += 4;
    }
    while d < len {
        out[d] = scalar_point(base, coef, a, d, seed_base, len.min(d + last * a + 1));
        done += last.min((len - 1 - d) / a) as u64;
        d += 1;
    }
    xbar_obs::add("sweep.madds", done);
    xbar_obs::add("sweep.madds_skipped", madds(len, a, full) - done);
    out
}

/// A seeded install over `coef` once [`Terms`] has seen its terms:
/// every term where one is negative or not finite, else the terms up to
/// `J`, cut per block.
fn run_seeded(
    base: &[f64],
    coef: &[f64],
    a: usize,
    full: usize,
    suffix: &[f64],
    t: Terms,
) -> Vec<f64> {
    if t.bad {
        return run(base, coef, a, true, (full, full), None);
    }
    let cut = BlockCut {
        suffix,
        mode: t.mode,
        prev: t.last,
    };
    run(base, coef, a, true, (t.last, full), Some(cut))
}

/// `out[d] = (seed_base ? base[d] : 0) + Σ_{j≥1} coef[j]·base[d + j·a]`
/// for every `d`, truncated at the ray end, by hand-unrolled 8/4-lane
/// blocks, bit-for-bit equal to [`combine_scalar`]. `coef` must cover
/// `j = 0 ..= (len−1)/a`.
///
/// A seeded install over positive finite `base` and nonnegative finite
/// `coef` runs, in each block, only the terms that can change a bit of
/// that block's output (the cut, with its proof, in the module docs);
/// its output is still bit-for-bit [`combine_scalar`]'s. Each call adds
/// the multiply-adds it makes to `sweep.madds` and those the cut saves
/// to `sweep.madds_skipped`.
pub fn combine_strict(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
    let full = base.len().saturating_sub(1) / a;
    match seed_base.then(|| scan(base)).flatten() {
        Some((suffix, keep)) => {
            let mut t = Terms::new(keep);
            for (j, &c) in coef[1..=full].iter().enumerate() {
                t.see(j + 1, c);
            }
            run_seeded(base, coef, a, full, &suffix, t)
        }
        None => run(base, coef, a, seed_base, (full, full), None),
    }
}

/// The `Φ` recurrence ratio `Φ(j)/Φ(j−1) = factor·(ρ + y·(j−1))/j`:
/// the one expression every `Φ` series and its derivatives use, so the
/// fused install generates the generic series' exact bits.
#[inline]
pub(crate) fn phi_ratio(factor: f64, rho: f64, y: f64, j: usize) -> f64 {
    let jf = j as f64;
    factor * (rho + y * (jf - 1.0)) / jf
}

/// A class install in one pass: `combine_strict(base, Φ, a, true)` with
/// `Φ(0) = 1`, `Φ(j) = Φ(j−1)·factor·(ρ + y·(j−1))/j`
/// ([`phi_ratio`]), bit-for-bit that combine over the full series.
///
/// The series stops at the first term below half the ray-wide keep
/// threshold after which no ratio can exceed 1 (the Φ stop, in the
/// module docs); the terms it does not generate are counted in
/// `sweep.phi_skipped`. That needs a cut (`base` positive and finite),
/// `ρ, y ≥ 0` and a finite `factor ≥ 1`; otherwise the whole series is
/// generated.
pub fn install_strict(base: &[f64], a: usize, rho: f64, y: f64, factor: f64) -> Vec<f64> {
    let full = base.len().saturating_sub(1) / a;
    let scanned = scan(base);
    let nonneg = 0.0..f64::INFINITY;
    let stops =
        nonneg.contains(&rho) && nonneg.contains(&y) && (1.0..f64::INFINITY).contains(&factor);
    let stop_below = scanned.as_ref().filter(|_| stops).map(|s| s.1);
    let limit = factor * y;
    let mut t = Terms::new(scanned.as_ref().map_or(0.0, |s| s.1));
    let mut phi = Vec::with_capacity(full + 1);
    let mut cur = 1.0;
    phi.push(cur);
    let mut ratio = phi_ratio(factor, rho, y, 1);
    for j in 1..=full {
        cur *= ratio;
        phi.push(cur);
        t.see(j, cur);
        ratio = phi_ratio(factor, rho, y, j + 1);
        if stop_below.is_some_and(|keep| 2.0 * cur < keep && ratio.max(limit) <= 1.0) {
            break;
        }
    }
    xbar_obs::add("sweep.phi_skipped", (full + 1 - phi.len()) as u64);
    match scanned {
        Some((suffix, _)) => run_seeded(base, &phi, a, full, &suffix, t),
        None => run(base, &phi, a, true, (full, full), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(len: usize) -> (Vec<f64>, Vec<f64>) {
        // Deterministic pseudo-random positive values with the decaying
        // magnitude profile real rays have.
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let base: Vec<f64> = (0..len)
            .map(|d| (0.5 + next()) * (-(d as f64) / 7.0).exp())
            .collect();
        let coef: Vec<f64> = (0..len)
            .map(|j| next() * (-(j as f64) / 3.0).exp())
            .collect();
        (base, coef)
    }

    #[test]
    fn strict_is_bit_for_bit_scalar() {
        for len in [0usize, 1, 3, 4, 5, 8, 9, 13, 16, 31, 97, 129, 257, 512, 513] {
            for a in [1usize, 2, 3, 5] {
                let (base, coef) = fixture(len.max(1));
                let base = &base[..len];
                for seed in [true, false] {
                    let s = combine_scalar(base, &coef, a, seed);
                    let v = combine_strict(base, &coef, a, seed);
                    for (d, (x, y)) in s.iter().zip(&v).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "len={len} a={a} seed={seed} d={d}: {x} vs {y}"
                        );
                    }
                }
            }
        }
    }
}
