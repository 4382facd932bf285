//! Batched fleet anchor solves: heterogeneous model batches through
//! [`SolveCache::solve_fleet`] across fleet sizes, plus the raw
//! recombination kernels that power [`SweepSolver`] per-point solves.
//! Compare the fleet numbers against `algorithms.rs` single-solve costs
//! to see what sharding across the persistent pool buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use xbar_bench::fleet_member_model;
use xbar_core::simd::{combine_scalar, combine_strict};
use xbar_core::{sweep_many, Algorithm, Model, SolveCache, SweepSolver};

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

/// Whole-batch anchor solves through a fresh cache per iteration, so
/// every member is a real solve: `Algorithm::Auto`, which answers from
/// the diagonal ray (R class installs on the empty ray), not a lattice.
fn bench_fleet_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_solve");
    g.sample_size(10);
    for size in [1usize, 16, 100] {
        let models: Vec<Model> = (0..size).map(fleet_member_model).collect();
        g.throughput(Throughput::Elements(size as u64));
        g.bench_with_input(BenchmarkId::new("models", size), &size, |b, &size| {
            b.iter(|| {
                let cache = SolveCache::new(size.max(2));
                for r in cache.solve_fleet(&models, Algorithm::Auto) {
                    black_box(r.expect("fleet member solves"));
                }
            })
        });
    }
    g.finish();
}

/// Per-point recombinations through solvers built by [`sweep_many`]:
/// the figure drivers' hot path (one `O(N)` kernel pass per point).
fn bench_fleet_sweep_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_sweep_point");
    let models: Vec<Model> = (0..16).map(fleet_member_model).collect();
    let solvers: Vec<SweepSolver> = sweep_many(&models, Algorithm::Auto)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("fleet precompute");
    let class = models[7].workload().classes()[0].clone();
    g.bench_function("solve_with_class", |b| {
        b.iter(|| {
            black_box(
                solvers[7]
                    .solve_with_class(0, class.clone())
                    .expect("point"),
            )
        })
    });
    g.finish();
}

/// The raw recombination kernels: the strict kernel the sweep runs and
/// its scalar reference, on synthetic `1/(i+1)` coefficients at a
/// figure-sized ray (no term underflows, so every multiply-add runs),
/// and on a real `N = 512` install — plan-grid's Poisson class 0
/// (`ρ = 5·10⁻⁵`) on the empty ray `c^{2n}/(n!)²`, at the §6 scale
/// `ln c = ln 512 − 1` — whose `Φ` series decays through the subnormal
/// range to zeros, where the strict kernel stops early.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet_kernels");
    let len = 257usize;
    let base: Vec<f64> = (0..len).map(|i| 1.0 / (i + 1) as f64).collect();
    let coef: Vec<f64> = (0..=len).map(|i| 0.5 / (i + 1) as f64).collect();
    g.throughput(Throughput::Elements(len as u64));
    g.bench_function("scalar", |b| {
        b.iter(|| black_box(combine_scalar(&base, &coef, 1, true)))
    });
    g.bench_function("strict", |b| {
        b.iter(|| black_box(combine_strict(&base, &coef, 1, true)))
    });

    let n = 512usize;
    let ln_c = (n as f64).ln() - 1.0;
    let mut ln_fact = vec![0.0f64; n + 1];
    for k in 1..=n {
        ln_fact[k] = ln_fact[k - 1] + (k as f64).ln();
    }
    let ray: Vec<f64> = (0..=n)
        .map(|d| (2.0 * (n - d) as f64 * ln_c - 2.0 * ln_fact[n - d]).exp())
        .collect();
    let x = 5e-5 * (2.0 * ln_c).exp();
    let mut phi = vec![1.0f64];
    for j in 1..=n {
        phi.push(phi[j - 1] * x / j as f64);
    }
    g.throughput(Throughput::Elements(ray.len() as u64));
    g.bench_function("scalar_phi512", |b| {
        b.iter(|| black_box(combine_scalar(&ray, &phi, 1, true)))
    });
    g.bench_function("strict_phi512", |b| {
        b.iter(|| black_box(combine_strict(&ray, &phi, 1, true)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_fleet_solve, bench_fleet_sweep_point, bench_kernels
}
criterion_main!(benches);
