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
//!   identical** — golden CSVs do not move.
//! * [`combine_scalar`] — one point at a time over every term, the
//!   reference the strict kernel is tested against.
//!
//! # The cut
//!
//! A class install's `coef` is the `Φ_r(j) ≈ x^j/j!` series, which decays
//! through the subnormal range to exact zeros long before the ray ends,
//! and a subnormal multiply is slow. The strict kernel therefore stops at
//! the last term that can still change a bit of its output: with
//! `m = min base` and `M = max base`, it applies `j ≤ J`, `J` the last
//! index with `coef[J]·M ≥ m·2⁻⁶⁰`. This holds only for a seeded install
//! (`seed_base`) whose `base` values are all positive and finite and
//! whose `coef` values are all nonnegative and finite; anything else
//! (derivative rays included) runs every term.
//!
//! The cut output is bit-for-bit the full loop's. Every term is
//! nonnegative, so each accumulator is at least its seed `base[d] ≥ m`.
//! Every product past `J` is at most `m·2⁻⁶⁰`, below half an ulp of
//! that accumulator, so adding it rounds back to the same accumulator —
//! and the next one does the same. The threshold `m·2⁻⁶⁰/M` is rounded
//! down, so its own rounding never keeps fewer terms than the rule; where
//! `m·2⁻⁶⁰` or the threshold is not a normal `f64`, only the exact-zero
//! tail is cut (`0·base[i]` adds `+0`). [`combine_scalar`] keeps every
//! term, so "strict ≡ scalar, bitwise" is also the proof of the cut.

/// A product below `MARGIN · min base` is under half an ulp of every
/// accumulator seeded from `base` (an ulp is at least `2⁻⁵³` of its
/// value).
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
#[inline]
fn block_strict<const L: usize>(
    out: &mut [f64],
    base: &[f64],
    coef: &[f64],
    a: usize,
    d0: usize,
    seed_base: bool,
    last: usize,
) {
    let len = base.len();
    // Lane 0 reads `idx = d0 + j·a`, so `j ≤ last` is `idx < end`.
    let end = len.min(d0 + last * a + 1);
    let mut acc = [0.0f64; L];
    if seed_base {
        acc.copy_from_slice(&base[d0..d0 + L]);
    }
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
    }
    // Ragged tail: lane `l` is active while `idx + l < len`, matching
    // the scalar loop's exact stopping point per lane.
    while idx < end {
        let c = coef[j];
        for (l, b) in base[idx..].iter().enumerate() {
            acc[l] += c * b;
        }
        j += 1;
        idx += a;
    }
    out.copy_from_slice(&acc);
}

/// The last term `J` whose product can still change a bit of a
/// [`combine_strict`] output (the cut; see the module docs), and the
/// last term in range, `(len−1)/a`, which it is wherever the cut does
/// not apply.
fn last_terms(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> (usize, usize) {
    let full = base.len().saturating_sub(1) / a;
    if !seed_base {
        return (full, full);
    }
    // One pass: min, max, and every value positive and finite (NaN fails).
    let (mut lo, mut hi, mut ok) = (f64::INFINITY, 0.0f64, true);
    for &x in base {
        ok &= (x > 0.0) & (x < f64::INFINITY);
        lo = if x < lo { x } else { lo };
        hi = if x > hi { x } else { hi };
    }
    if !ok {
        return (full, full);
    }
    // Keep `coef[j] ≥ keep`: `m·2⁻⁶⁰/M` rounded down by one ulp, so it is
    // never above the exact quotient; else every nonzero term.
    let floor = lo * MARGIN;
    let t = floor / hi;
    let keep = if floor.is_normal() && t.is_normal() {
        f64::from_bits(t.to_bits() - 1)
    } else {
        f64::from_bits(1)
    };
    // Walk down the tail below `keep`; every coefficient from there to
    // `j = 1` must be nonnegative and finite.
    let mut last = full;
    while last > 0 && coef[last] >= 0.0 && coef[last] < keep {
        last -= 1;
    }
    let finite_nonneg = 0.0..f64::INFINITY;
    if coef[1..=last]
        .iter()
        .fold(true, |ok, c| ok & finite_nonneg.contains(c))
    {
        (last, full)
    } else {
        (full, full)
    }
}

/// Multiply-adds of a combine over the terms `j = 1..=last` of a ray of
/// length `len`: term `j` reaches the `len − j·a` points `d < len − j·a`.
fn madds(len: usize, a: usize, last: usize) -> u64 {
    let (len, a, last) = (len as u64, a as u64, last as u64);
    last * len - a * last * (last + 1) / 2
}

/// `out[d] = (seed_base ? base[d] : 0) + Σ_{j≥1} coef[j]·base[d + j·a]`
/// for every `d`, truncated at the ray end, by hand-unrolled 8/4-lane
/// blocks, bit-for-bit equal to [`combine_scalar`]. `coef` must cover
/// `j = 0 ..= (len−1)/a`.
///
/// A seeded install over positive finite `base` and nonnegative finite
/// `coef` stops at the last term that can change a bit of the output
/// (the cut, with its proof, in the module docs); its output is still
/// bit-for-bit [`combine_scalar`]'s. Each call adds the multiply-adds it
/// makes to `sweep.madds` and those the cut saves to
/// `sweep.madds_skipped`.
pub fn combine_strict(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
    let len = base.len();
    let (last, full) = last_terms(base, coef, a, seed_base);
    let done = madds(len, a, last);
    xbar_obs::add("sweep.madds", done);
    xbar_obs::add("sweep.madds_skipped", madds(len, a, full) - done);
    let mut out = vec![0.0; len];
    let mut d = 0;
    while len - d >= 8 {
        block_strict::<8>(&mut out[d..d + 8], base, coef, a, d, seed_base, last);
        d += 8;
    }
    while len - d >= 4 {
        block_strict::<4>(&mut out[d..d + 4], base, coef, a, d, seed_base, last);
        d += 4;
    }
    while d < len {
        out[d] = scalar_point(base, coef, a, d, seed_base, len.min(d + last * a + 1));
        d += 1;
    }
    out
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
