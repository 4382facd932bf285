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
//! * [`combine_scalar`] — one point at a time, the reference the strict
//!   kernel is tested against.

#[inline]
fn scalar_point(base: &[f64], coef: &[f64], a: usize, d: usize, seed_base: bool) -> f64 {
    let len = base.len();
    let mut acc = if seed_base { base[d] } else { 0.0 };
    let mut j = 1;
    let mut idx = d + a;
    while idx < len {
        acc += coef[j] * base[idx];
        j += 1;
        idx += a;
    }
    acc
}

/// The reference point-at-a-time kernel (identical arithmetic to the
/// default [`QScalar::combine`](crate::alg1::QScalar::combine) loop).
pub fn combine_scalar(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
    (0..base.len())
        .map(|d| scalar_point(base, coef, a, d, seed_base))
        .collect()
}

/// One `L`-wide block of the strict kernel: lane `l` accumulates ray
/// point `d0 + l` with a single accumulator in exact scalar `j` order,
/// so each lane is bit-for-bit the scalar loop.
#[inline]
fn block_strict<const L: usize>(
    out: &mut [f64],
    base: &[f64],
    coef: &[f64],
    a: usize,
    d0: usize,
    seed_base: bool,
) {
    let len = base.len();
    let mut acc = [0.0f64; L];
    if seed_base {
        acc.copy_from_slice(&base[d0..d0 + L]);
    }
    let mut j = 1;
    let mut idx = d0 + a;
    // Full-width steps: every lane's term is in range, one broadcast ×
    // contiguous load × lane-wise mul-add (the vectorised body).
    while idx + L <= len {
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
    while idx < len {
        let c = coef[j];
        for (l, b) in base[idx..].iter().enumerate() {
            acc[l] += c * b;
        }
        j += 1;
        idx += a;
    }
    out.copy_from_slice(&acc);
}

/// `out[d] = (seed_base ? base[d] : 0) + Σ_{j≥1} coef[j]·base[d + j·a]`
/// for every `d`, truncated at the ray end, by hand-unrolled 8/4-lane
/// blocks, bit-for-bit equal to [`combine_scalar`]. `coef` must cover
/// `j = 0 ..= (len−1)/a`.
pub fn combine_strict(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Vec<f64> {
    let len = base.len();
    let mut out = vec![0.0; len];
    let mut d = 0;
    while len - d >= 8 {
        block_strict::<8>(&mut out[d..d + 8], base, coef, a, d, seed_base);
        d += 8;
    }
    while len - d >= 4 {
        block_strict::<4>(&mut out[d..d + 4], base, coef, a, d, seed_base);
        d += 4;
    }
    while d < len {
        out[d] = scalar_point(base, coef, a, d, seed_base);
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
