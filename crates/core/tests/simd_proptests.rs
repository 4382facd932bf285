//! Property battery for the multi-lane sweep recombination kernel.
//!
//! The contract under test: the strict kernel the sweep runs is
//! **bit-for-bit** equal to the scalar reference kernel (same
//! multiply/add order per output point, only blocked across independent
//! points) at every ray length up to plan-grid's `N = 512` rays, every
//! stride and every lane remainder — so every input `install_class` and
//! `derivative_ray` hand to it gives the scalar loop's exact bits.
//!
//! The strict kernel stops each block of a seeded install at the last
//! term that can change a bit of that block (the cut), and the fused
//! install stops generating `Φ` past the cut (the Φ stop); the scalar
//! kernel runs every term of the full series, so the same contract over
//! positive bases and decaying `Φ`-shaped series is the check of both.
//! The `sweep.madds` and `sweep.phi_skipped` counters show where they
//! engaged.

use std::sync::Arc;

use proptest::prelude::*;

use xbar_core::simd::{combine_scalar, combine_strict, install_strict};
use xbar_core::{Algorithm, Dims, Model, SweepSolver};
use xbar_traffic::{TrafficClass, Workload};

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

/// `(sweep.madds, sweep.madds_skipped, sweep.phi_skipped)` counted
/// while `f` runs.
fn counted(f: impl FnOnce()) -> (u64, u64, u64) {
    let reg = Arc::new(xbar_obs::Registry::new());
    let _g = xbar_obs::scope(&reg);
    f();
    let snap = reg.snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    (
        count("sweep.madds"),
        count("sweep.madds_skipped"),
        count("sweep.phi_skipped"),
    )
}

/// `(sweep.madds, sweep.madds_skipped)` counted by one strict combine.
fn madds(base: &[f64], coef: &[f64], a: usize) -> (u64, u64) {
    let (done, skipped, _) = counted(|| {
        combine_strict(base, coef, a, true);
    });
    (done, skipped)
}

/// The ray-wide cut `J` by its rule: the last `j` with
/// `coef[j]·max base ≥ min base·2⁻⁶⁰`, or the last nonzero `coef[j]`
/// where `min base·2⁻⁶⁰` or its quotient by `max base` is not normal.
fn ray_wide_last(base: &[f64], coef: &[f64], a: usize) -> usize {
    let (m, hi) = base
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(m, hi), &b| (m.min(b), hi.max(b)));
    let floor = m / (1u64 << 60) as f64;
    let normal = floor.is_normal() && (floor / hi).is_normal();
    (1..=(base.len() - 1) / a)
        .rev()
        .find(|&j| {
            if normal {
                coef[j] * hi >= floor
            } else {
                coef[j] != 0.0
            }
        })
        .unwrap_or(0)
}

/// Multiply-adds of the terms `1..=last` on a ray of length `len`.
fn terms_madds(len: usize, a: usize, last: usize) -> u64 {
    (1..=last).map(|j| (len - j * a) as u64).sum()
}

/// Multiply-adds of the per-block cut by its rule, term by term: the
/// 8-lane blocks, then the 4-lane ones, keep the `j ≤ J` with
/// `coef[j]·max base[d0+j·a..] ≥ min seeds·2⁻⁶⁰` (all `j ≤ J` where
/// that floor is not normal); the last `len mod 4` points keep `j ≤ J`.
fn block_rule_madds(base: &[f64], coef: &[f64], a: usize) -> u64 {
    let len = base.len();
    let big = ray_wide_last(base, coef, a);
    let lane_terms = |d: usize, last: usize| last.min((len - 1 - d) / a) as u64;
    let (mut done, mut d0) = (0, 0);
    for width in [8, 4] {
        while len - d0 >= width {
            let seeds = &base[d0..d0 + width];
            let floor = seeds.iter().fold(f64::INFINITY, |m, &x| m.min(x)) / (1u64 << 60) as f64;
            let last = if floor.is_normal() {
                (1..=big.min((len - 1 - d0) / a))
                    .filter(|&j| {
                        let s = base[d0 + j * a..].iter().fold(0.0f64, |s, &x| s.max(x));
                        coef[j] * s >= floor
                    })
                    .max()
                    .unwrap_or(0)
            } else {
                big
            };
            done += (d0..d0 + width).map(|d| lane_terms(d, last)).sum::<u64>();
            d0 += width;
        }
    }
    done + (d0..len).map(|d| lane_terms(d, big)).sum::<u64>()
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
    let (ray, ln_c) = empty_ray_512();
    let len = ray.len();
    // The ray as it is, and scaled by a power of two until its minimum
    // is 2⁻¹⁰⁰⁰: there `m·2⁻⁶⁰` is subnormal, so the ray-wide cut keeps
    // every nonzero term, as do the blocks whose smallest seed is below
    // 2⁻⁹⁶², while the blocks above it still cut.
    let low = ray
        .iter()
        .fold(f64::INFINITY, |m, &b| m.min(b))
        .log2()
        .floor();
    for scale in [1.0, (-1000.0 - low).exp2()] {
        let base: Vec<f64> = ray.iter().map(|b| b * scale).collect();
        // Plan-grid's Poisson class 0 (ρ = 5·10⁻⁵, a = 1) and its
        // wideband Poisson class 2 (ρ = 5·10⁻¹¹, a = 2), scaled by
        // c^{2a} per term.
        for (rho, a) in [(5e-5, 1usize), (5e-11, 2)] {
            let coef = phi(len, rho * (2.0 * a as f64 * ln_c).exp(), 0.0);
            let at = format!("scale {scale}, a = {a}");
            assert_eq!(first_mismatch(&base, &coef, a, true), None, "{at}");
            let full = (len - 1) / a;
            let (done, skipped) = madds(&base, &coef, a);
            // Each block keeps exactly the rule's terms, fewer than the
            // ray-wide cut keeps, which itself stops short of the ray end.
            assert_eq!(done, block_rule_madds(&base, &coef, a), "{at}");
            let ray_wide = ray_wide_last(&base, &coef, a);
            assert!(ray_wide < full, "{at}: ray-wide J {ray_wide} of {full}");
            assert!(
                done < terms_madds(len, a, ray_wide),
                "{at}: {done} madds against {} ray-wide",
                terms_madds(len, a, ray_wide)
            );
            assert_eq!(done + skipped, terms_madds(len, a, full), "{at}");
        }
    }
}

/// Plan-grid's model (`xbar_bench::plan_grid_model`) at `N = 512`.
fn plan_grid_512() -> Model {
    let workload = Workload::new()
        .with(TrafficClass::poisson(5e-5))
        .with(TrafficClass::bpp(2e-5, 1e-6, 1.0).with_weight(1.5))
        .with(
            TrafficClass::poisson(5e-11)
                .with_bandwidth(2)
                .with_weight(4.0),
        );
    Model::new(Dims::square(512), workload).expect("valid model")
}

/// A class's full scaled `Φ` series on a ray of length `len`, as the
/// generic backend builds it: `Φ(j) = Φ(j−1)·factor·(ρ + y·(j−1))/j`.
fn phi_full(len: usize, a: usize, rho: f64, y: f64, factor: f64) -> Vec<f64> {
    let mut cur = 1.0f64;
    let mut coef = vec![cur];
    for j in 1..=(len - 1) / a {
        let jf = j as f64;
        cur *= factor * (rho + y * (jf - 1.0)) / jf;
        coef.push(cur);
    }
    coef
}

/// One class install by its definition: the full `Φ` series through the
/// scalar kernel.
fn install_scalar(base: &[f64], a: usize, rho: f64, y: f64, factor: f64) -> Vec<f64> {
    combine_scalar(base, &phi_full(base.len(), a, rho, y, factor), a, true)
}

#[test]
fn plan_grid_recombination_cuts_below_the_ray_wide_count() {
    let model = plan_grid_512();
    let solver = SweepSolver::new(&model, Algorithm::Auto).expect("sweep precompute");
    let rho = 1e-10;
    let (done, _, phi_skipped) = counted(|| {
        solver.solve_with_rho(2, rho).expect("recombination");
    });
    // `Q_{-2}`: classes 0 and 1 on the empty ray, as the solver builds it.
    let ln_c = 512f64.ln() - 1.0;
    let ln_fact = |n: u64| xbar_numeric::ln_factorial(n);
    let mut ray: Vec<f64> = (0..=512u64)
        .map(|d| {
            let n = 512 - d;
            ((2 * n) as f64 * ln_c - ln_fact(n) - ln_fact(n)).exp()
        })
        .collect();
    let classes = model.workload().classes();
    for c in &classes[..2] {
        let a = c.bandwidth as usize;
        let factor = (2.0 * a as f64 * ln_c).exp();
        ray = install_scalar(&ray, a, c.rho(), c.beta / c.mu, factor);
    }
    let a = classes[2].bandwidth as usize;
    let coef = phi_full(ray.len(), a, rho, 0.0, (2.0 * a as f64 * ln_c).exp());
    let ray_wide = terms_madds(ray.len(), a, ray_wide_last(&ray, &coef, a));
    assert_eq!(done, block_rule_madds(&ray, &coef, a));
    assert!(
        done < ray_wide,
        "{done} madds against {ray_wide} under the ray-wide cut"
    );
    assert!(phi_skipped > 0, "the Φ series stopped at the cut");
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

/// A ray-shaped base: `ln base` a concave parabola over the ray whose
/// smallest value is `e^lo` and whose peak, anywhere on the ray, is
/// `span` nats above it — the shape of §6's scaled rays, which rise and
/// fall by hundreds of nats (`e^±190` at `N = 256`).
fn ray_base(len: usize, next: &mut impl FnMut() -> f64) -> Vec<f64> {
    let lo = -600.0 + 800.0 * next();
    let span = 100.0 + 300.0 * next();
    let peak = next();
    let reach = peak.max(1.0 - peak);
    let last = (len.max(2) - 1) as f64;
    (0..len)
        .map(|d| {
            let u = (d as f64 / last - peak) / reach;
            (lo + span * (1.0 - u * u)).exp()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded installs over ray-shaped bases, where blocks sit anywhere
    /// from the ray minimum to hundreds of nats above it, so the
    /// per-block cut keeps a different number of terms in each block.
    #[test]
    fn strict_kernel_is_bit_for_bit_scalar_over_ray_shaped_bases(
        len in 1usize..=2049,
        a in 1usize..6,
        kind in 0u32..3,
        seed in 1u64..u64::MAX,
    ) {
        let mut next = uniform(seed);
        let base = ray_base(len, &mut next);
        let x = (-20.0 + 40.0 * next()).exp2();
        let y = match kind {
            0 => 0.0,
            1 => (-30.0 + 29.0 * next()).exp2(),
            _ => -x / (0.5 + 600.0 * next()),
        };
        let coef = phi(len + 1, x, y);
        let bad = first_mismatch(&base, &coef, a, true);
        prop_assert!(bad.is_none(), "{:?} (len {}, a {}, x {}, y {})", bad, len, a, x, y);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fused install against its definition, the full `Φ` series
    /// through the scalar kernel: Poisson (`y = 0`), Pascal with
    /// `factor·y` at, just around or well off 1 (the Φ stop's ratio
    /// bound), and Bernoulli (`y < 0`), where the stop must stay off.
    #[test]
    fn fused_install_is_bit_for_bit_the_full_series_scalar_install(
        len in 1usize..=2049,
        a in 1usize..6,
        kind in 0u32..4,
        seed in 1u64..u64::MAX,
    ) {
        let mut next = uniform(seed);
        let base = ray_base(len, &mut next);
        let factor = (80.0 * next()).exp2();
        // `factor·ρ`, the first ratio: from deep underflow to well above 1.
        let rho = (-900.0 + 910.0 * next()).exp2() / factor;
        let fy = match kind {
            0 => 0.0,
            // Within a few ulps of 1, on either side.
            1 => 1.0 + ((8.0 * next()) as i32 - 4) as f64 * f64::EPSILON,
            2 => 0.5 + next(),
            _ => -(factor * rho) / (0.5 + 600.0 * next()),
        };
        let y = fy / factor;
        let fused = install_strict(&base, a, rho, y, factor);
        let want = install_scalar(&base, a, rho, y, factor);
        let bad = fused.iter().zip(&want).position(|(f, w)| f.to_bits() != w.to_bits());
        prop_assert!(
            bad.is_none(),
            "point {:?}: {:?} vs {:?} (len {}, a {}, rho {}, y {}, factor {})",
            bad, bad.map(|d| fused[d]), bad.map(|d| want[d]), len, a, rho, y, factor
        );
        if y < 0.0 {
            let (_, _, phi_skipped) = counted(|| {
                install_strict(&base, a, rho, y, factor);
            });
            prop_assert_eq!(phi_skipped, 0, "Bernoulli series are generated in full");
        }
    }
}
