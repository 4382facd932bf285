//! Special functions and combinatorics.
//!
//! The crossbar product form is built from factorial ratios
//! `Ψ(k) = N1!/(N1−k·A)! · N2!/(N2−k·A)!` and binomial scalings
//! `ρ_r = ρ̃_r / C(N2, a_r)`. This module provides those pieces in three
//! flavours: exact (`u128`, for the sizes where they fit), floating
//! (`f64`, for direct use in formulas), and log-domain (for the oracle
//! implementations that cross-check the lattice recursions).

/// Natural log of the gamma function, via the Lanczos approximation (g = 7,
/// n = 9), accurate to ~1e-13 relative error for `x > 0`.
///
/// # Panics
/// Panics for `x ≤ 0` (the reproduction never needs the reflection branch,
/// and silently extending it would mask logic errors).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Coefficients for g = 7 from Godfrey / Numerical Recipes.
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    const G: f64 = 7.0;
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The `n` past which [`ln_factorial`] no longer computes `n!` exactly.
const EXACT_FACTORIAL_MAX: u64 = 20;

/// The largest `n` whose `ln n!` [`ln_factorial`] reads from its table.
const LN_FACTORIAL_TABLE_MAX: u64 = 4096;

/// `ln(n!)`.
pub fn ln_factorial(n: u64) -> f64 {
    // Exact accumulation for small n (cheap and exact to f64), ln_gamma above.
    if n < 2 {
        return 0.0;
    }
    if n <= EXACT_FACTORIAL_MAX {
        let mut f = 1u64;
        for i in 2..=n {
            f *= i;
        }
        return (f as f64).ln();
    }
    match ln_factorial_table().get((n - EXACT_FACTORIAL_MAX - 1) as usize) {
        Some(&ln) => ln,
        None => ln_gamma(n as f64 + 1.0),
    }
}

/// `ln n!` for `20 < n ≤ 4096` by [`ln_gamma`], computed once per
/// process: the diagonal ray's empty workload takes one per ray point.
fn ln_factorial_table() -> &'static [f64] {
    static TABLE: std::sync::OnceLock<Vec<f64>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        (EXACT_FACTORIAL_MAX + 1..=LN_FACTORIAL_TABLE_MAX)
            .map(|n| ln_gamma(n as f64 + 1.0))
            .collect()
    })
}

/// `ln C(n, k)`; `-inf` when `k > n`.
pub fn ln_binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln P(n, k) = ln(n!/(n−k)!)`; `-inf` when `k > n`.
pub fn ln_permutation(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(n - k)
}

/// Binomial coefficient `C(n, k)` as `f64` (0 when `k > n`).
///
/// Exact (correctly rounded) whenever the exact value fits `u128`; falls back
/// to `exp(ln C(n,k))` beyond, which is accurate to ~1e-12 relative error.
pub fn binomial(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    match binomial_exact(n, k) {
        Some(v) => v as f64,
        None => ln_binomial(n, k).exp(),
    }
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Exact binomial coefficient, or `None` on `u128` overflow.
///
/// Uses divide-before-multiply: after reducing `num/den` by their gcd, the
/// running prefix `C(n, i)` is always divisible by `den` (the prefix times
/// `num/den` is the next binomial, an integer, with `gcd(num, den) = 1`), so
/// intermediates never exceed the final value times `num`.
pub fn binomial_exact(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        let g = gcd((n - i) as u128, (i + 1) as u128);
        let num = (n - i) as u128 / g;
        let den = (i + 1) as u128 / g;
        debug_assert_eq!(acc % den, 0);
        acc = (acc / den).checked_mul(num)?;
    }
    Some(acc)
}

/// Falling factorial / permutations `P(n, k) = n·(n−1)···(n−k+1)` as `f64`
/// (0 when `k > n`). The paper's eq. 11.
pub fn permutation(n: u64, k: u64) -> f64 {
    if k > n {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for i in 0..k {
        acc *= (n - i) as f64;
    }
    acc
}

/// Exact permutations `P(n, k)`, or `None` on `u128` overflow.
pub fn permutation_exact(n: u64, k: u64) -> Option<u128> {
    if k > n {
        return Some(0);
    }
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.checked_mul((n - i) as u128)?;
    }
    Some(acc)
}

/// Falling factorial for real `x`: `x·(x−1)···(x−k+1)`.
pub fn falling_factorial(x: f64, k: u32) -> f64 {
    let mut acc = 1.0;
    for i in 0..k {
        acc *= x - i as f64;
    }
    acc
}

/// Generalised binomial coefficient `C(x, k)` for real `x` — used for the
/// Pascal term `C(α/β − 1 + k, k)` of the product form.
pub fn binomial_real(x: f64, k: u32) -> f64 {
    let mut acc = 1.0;
    for i in 0..k {
        acc *= (x - i as f64) / (k - i) as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        let scale = a.abs().max(b.abs()).max(1.0);
        assert!((a - b).abs() / scale < tol, "{a} vs {b}");
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for n in 1..=170u64 {
            fact *= n as f64;
            close(ln_gamma(n as f64 + 1.0), fact.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = √π
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(3/2) = √π/2
        close(
            ln_gamma(1.5),
            (std::f64::consts::PI.sqrt() / 2.0).ln(),
            1e-12,
        );
    }

    #[test]
    fn ln_factorial_table_has_the_direct_paths_bits() {
        for n in 0..=LN_FACTORIAL_TABLE_MAX + 2 {
            let direct = if n <= EXACT_FACTORIAL_MAX {
                ((2..=n).product::<u64>() as f64).ln()
            } else {
                ln_gamma(n as f64 + 1.0)
            };
            assert_eq!(ln_factorial(n).to_bits(), direct.to_bits(), "ln {n}!");
        }
    }

    #[test]
    fn ln_factorial_agrees_with_ln_gamma_at_crossover() {
        for n in 15..=30u64 {
            close(ln_factorial(n), ln_gamma(n as f64 + 1.0), 1e-12);
        }
    }

    #[test]
    fn binomial_small_values_exact() {
        assert_eq!(binomial(0, 0), 1.0);
        assert_eq!(binomial(5, 2), 10.0);
        assert_eq!(binomial(10, 5), 252.0);
        assert_eq!(binomial(52, 5), 2_598_960.0);
        assert_eq!(binomial(5, 7), 0.0);
    }

    #[test]
    fn binomial_exact_matches_float() {
        for n in 0..=60u64 {
            for k in 0..=n {
                let e = binomial_exact(n, k).unwrap();
                if e < (1u128 << 53) {
                    assert_eq!(e as f64, binomial(n, k), "C({n},{k})");
                }
            }
        }
    }

    #[test]
    fn binomial_exact_overflow_is_none() {
        assert!(binomial_exact(300, 150).is_none());
        assert!(binomial_exact(128, 64).is_some());
    }

    #[test]
    fn permutation_values() {
        assert_eq!(permutation(5, 0), 1.0);
        assert_eq!(permutation(5, 2), 20.0);
        assert_eq!(permutation(5, 5), 120.0);
        assert_eq!(permutation(3, 4), 0.0);
        assert_eq!(permutation_exact(10, 3), Some(720));
    }

    #[test]
    fn ln_variants_consistent_with_direct() {
        for n in [5u64, 32, 128, 256] {
            for k in [0u64, 1, 2, 5] {
                if k <= n {
                    close(ln_binomial(n, k), binomial(n, k).ln(), 1e-11);
                    close(ln_permutation(n, k), permutation(n, k).ln(), 1e-11);
                }
            }
        }
        assert_eq!(ln_binomial(3, 9), f64::NEG_INFINITY);
        assert_eq!(ln_permutation(3, 9), f64::NEG_INFINITY);
    }

    #[test]
    fn binomial_real_matches_integer_case() {
        for n in 1..=12u32 {
            for k in 0..=n {
                close(
                    binomial_real(n as f64, k),
                    binomial(n as u64, k as u64),
                    1e-12,
                );
            }
        }
    }

    #[test]
    fn binomial_real_negative_upper_index() {
        // C(-1, k) = (-1)^k — the Pascal/geometric boundary case.
        for k in 0..6u32 {
            close(binomial_real(-1.0, k), (-1.0f64).powi(k as i32), 1e-12);
        }
    }

    #[test]
    fn falling_factorial_basics() {
        assert_eq!(falling_factorial(5.0, 0), 1.0);
        assert_eq!(falling_factorial(5.0, 3), 60.0);
        close(falling_factorial(0.5, 2), 0.5 * -0.5, 1e-15);
    }

    #[test]
    fn pascal_binomial_identity() {
        // C(s-1+k, k) with s = 3: the negative-binomial weight.
        let s = 3.0;
        for k in 0..8u32 {
            let direct = binomial_real(s - 1.0 + k as f64, k);
            let exact = binomial_exact(2 + k as u64, k as u64).unwrap() as f64;
            close(direct, exact, 1e-12);
        }
    }
}
