//! Property battery for the multi-lane sweep recombination kernel.
//!
//! The contract under test: the strict kernel the sweep runs is
//! **bit-for-bit** equal to the scalar reference kernel (same
//! multiply/add order per output point, only blocked across independent
//! points) at every ray length up to plan-grid's `N = 512` rays, every
//! stride and every lane remainder — so every input `install_class` and
//! `derivative_ray` hand to it gives the scalar loop's exact bits.
//!
//! The strict kernel stops a seeded install at the last term that can
//! change a bit (the cut); the scalar kernel runs every term, so the
//! same contract over positive bases and decaying `Φ`-shaped series is
//! the check of the cut. The `sweep.madds` counters show where it
//! engaged.

use std::sync::Arc;

use proptest::prelude::*;

use xbar_core::simd::{combine_scalar, combine_strict};

/// xorshift64: deterministic per-case values in `[0, 1)` at every
/// length, including the ragged lane tails.
fn uniform(seed: u64) -> impl FnMut() -> f64 {
    let mut gen = seed;
    move || {
        gen ^= gen << 13;
        gen ^= gen >> 7;
        gen ^= gen << 17;
        (gen >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `None` where strict and scalar agree bit for bit, else the first
/// point where they differ.
fn first_mismatch(base: &[f64], coef: &[f64], a: usize, seed_base: bool) -> Option<String> {
    let strict = combine_strict(base, coef, a, seed_base);
    let scalar = combine_scalar(base, coef, a, seed_base);
    if strict.len() != scalar.len() {
        return Some(format!("lengths {} != {}", strict.len(), scalar.len()));
    }
    strict
        .iter()
        .zip(&scalar)
        .position(|(s, r)| s.to_bits() != r.to_bits())
        .map(|d| format!("strict[{d}] {} != scalar {}", strict[d], scalar[d]))
}

/// The `Φ(j)` series `Φ(0) = 1`, `Φ(j) = Φ(j−1)·(x + y·(j−1))/j`, the
/// shape `phi_series` gives a class install: Poisson (`y = 0`), Pascal
/// (`y > 0`) or Bernoulli (`y < 0`, unclamped past its sign change).
fn phi(len: usize, x: f64, y: f64) -> Vec<f64> {
    let mut cur = 1.0f64;
    let mut out = vec![cur];
    for j in 1..len {
        let jf = j as f64;
        cur *= (x + y * (jf - 1.0)) / jf;
        out.push(cur);
    }
    out
}

/// `(sweep.madds, sweep.madds_skipped)` counted by one strict combine.
fn madds(base: &[f64], coef: &[f64], a: usize) -> (u64, u64) {
    let reg = Arc::new(xbar_obs::Registry::new());
    let _g = xbar_obs::scope(&reg);
    combine_strict(base, coef, a, true);
    let snap = reg.snapshot();
    (
        snap.counter("sweep.madds").unwrap_or(0),
        snap.counter("sweep.madds_skipped").unwrap_or(0),
    )
}

/// The `J` whose terms `1..=J` make `done` multiply-adds on a ray of
/// length `len`: term `j` reaches `len − j·a` points.
fn kept_terms(len: usize, a: usize, done: u64) -> usize {
    let mut sum = 0u64;
    let mut j = 0;
    while sum < done {
        j += 1;
        sum += (len - j * a) as u64;
    }
    assert_eq!(sum, done, "madds {done} is not a whole number of terms");
    j
}

/// The plan-grid `N = 512` empty ray `c^{2n}/(n!)²`, `n = 512 − d`, at
/// the §6 scale `ln c = ln 512 − 1`, and that scale.
fn empty_ray_512() -> (Vec<f64>, f64) {
    let ln_c = 512f64.ln() - 1.0;
    let ray = (0..=512u64)
        .map(|d| {
            let n = 512 - d;
            (2.0 * n as f64 * ln_c - 2.0 * xbar_numeric::ln_factorial(n)).exp()
        })
        .collect();
    (ray, ln_c)
}

#[test]
fn cut_engages_on_plan_grid_n512_series() {
    let (base, ln_c) = empty_ray_512();
    let len = base.len();
    // Plan-grid's Poisson class 0 (ρ = 5·10⁻⁵, a = 1) and its wideband
    // Poisson class 2 (ρ = 5·10⁻¹¹, a = 2), scaled by c^{2a} per term.
    for (rho, a) in [(5e-5, 1usize), (5e-11, 2)] {
        let coef = phi(len, rho * (2.0 * a as f64 * ln_c).exp(), 0.0);
        assert_eq!(first_mismatch(&base, &coef, a, true), None, "a = {a}");
        let full = (len - 1) / a;
        let (done, skipped) = madds(&base, &coef, a);
        let kept = kept_terms(len, a, done) + 1;
        assert!(
            kept < full + 1,
            "a = {a}: kept {kept} of {} coefficients",
            full + 1
        );
        // The kept length is the rule's: the last `J` with
        // `coef[J]·M ≥ m·2⁻⁶⁰`.
        let (m, hi) = base
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(m, hi), &b| (m.min(b), hi.max(b)));
        let rule = (1..=full)
            .rev()
            .find(|&j| coef[j] * hi >= m / (1u64 << 60) as f64)
            .unwrap_or(0);
        assert_eq!(kept, rule + 1, "a = {a}");
        let all: u64 = (1..=full).map(|j| (len - j * a) as u64).sum();
        assert_eq!(done + skipped, all, "a = {a}");
    }
}

#[test]
fn cut_stays_off_for_a_negative_coefficient_or_a_zero_base() {
    let (base, ln_c) = empty_ray_512();
    let coef = phi(base.len(), 5e-5 * (2.0 * ln_c).exp(), 0.0);
    assert!(madds(&base, &coef, 1).1 > 0);

    let mut negative = coef.clone();
    negative[400] = -f64::MIN_POSITIVE;
    assert_eq!(first_mismatch(&base, &negative, 1, true), None);
    assert_eq!(madds(&base, &negative, 1).1, 0, "a negative coefficient");

    let mut zero = base.clone();
    zero[300] = 0.0;
    assert_eq!(first_mismatch(&zero, &coef, 1, true), None);
    assert_eq!(madds(&zero, &coef, 1).1, 0, "a zero base value");

    // A negative term can cancel the seed, leaving the accumulator far
    // below `min base`: the terms after it then count, however small.
    let ones = vec![1.0; 16];
    let mut cancel = vec![0.0; 16];
    cancel[1] = -1.0;
    cancel[2] = 2f64.powi(-70);
    assert_eq!(first_mismatch(&ones, &cancel, 1, true), None);
    assert_eq!(combine_strict(&ones, &cancel, 1, true)[0], 2f64.powi(-70));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strict_kernel_is_bit_for_bit_scalar(
        len in 0usize..=513,
        a in 1usize..6,
        seed_base in prop::bool::ANY,
        seed in 1u64..u64::MAX,
    ) {
        let mut next = uniform(seed);
        let base: Vec<f64> = (0..len).map(|_| next() - 0.5).collect();
        let coef: Vec<f64> = (0..len + 1).map(|_| next() - 0.5).collect();
        let bad = first_mismatch(&base, &coef, a, seed_base);
        prop_assert!(bad.is_none(), "{:?} (len {}, a {})", bad, len, a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded installs where the cut engages: positive bases spanning
    /// from a few bits to past the whole normal range (so `m·2⁻⁶⁰/M` and
    /// `m·2⁻⁶⁰` can be subnormal, and `min base` itself), and Poisson,
    /// Pascal or Bernoulli `Φ` series that decay through the subnormal
    /// range into zeros.
    #[test]
    fn strict_kernel_is_bit_for_bit_scalar_through_the_cut(
        len in 1usize..=2049,
        a in 1usize..6,
        kind in 0u32..3,
        narrow in prop::bool::ANY,
        seed in 1u64..u64::MAX,
    ) {
        let mut next = uniform(seed);
        // log₂ of the smallest base value and the range above it.
        let lo = -1070.0 + 2080.0 * next();
        let span = if narrow { 64.0 * next() } else { 2100.0 * next() };
        let span = span.min(1020.0 - lo);
        let base: Vec<f64> = (0..len).map(|_| (lo + span * next()).exp2()).collect();
        let x = (-20.0 + 28.0 * next()).exp2();
        let y = match kind {
            0 => 0.0,
            1 => (-30.0 + 29.0 * next()).exp2(),
            // Bernoulli: `x + y·(j−1)` reaches zero near `j = S + 1`.
            _ => -x / (0.5 + 600.0 * next()),
        };
        let coef = phi(len + 1, x, y);
        let bad = first_mismatch(&base, &coef, a, true);
        prop_assert!(
            bad.is_none(),
            "{:?} (len {}, a {}, lo 2^{}, span {} bits, x {}, y {})",
            bad, len, a, lo, span, x, y
        );
    }
}
