//! Ablation: the solver algorithms and numeric backends against each
//! other — the trade-off the paper discusses at the end of §5.1
//! (Algorithm 1 for small switches, Algorithm 2's stability for large) and
//! our three numeric backends for Algorithm 1, plus the brute-force
//! oracle's exponential wall for scale, and the measures pass and one
//! sweep recombination on their own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xbar_bench::{mixed_model, plan_grid_model, table2_model};
use xbar_core::brute::Brute;
use xbar_core::sensitivity::sensitivity;
use xbar_core::{solve, Algorithm, SweepSolver};

/// Shared quick profile: the regeneration costs here are seconds-scale,
/// so short measurement windows already give stable estimates and keep
/// `cargo bench --workspace` inside a coffee break.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn bench_algorithms_by_size(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithms");
    for n in [8u32, 32, 128] {
        let model = table2_model(n);
        for alg in [
            Algorithm::Auto,
            Algorithm::Alg1Scaled,
            Algorithm::Alg1Ext,
            Algorithm::Mva,
            Algorithm::Convolution,
        ] {
            g.bench_with_input(BenchmarkId::new(format!("{alg}"), n), &model, |b, model| {
                b.iter(|| black_box(solve(model, alg).unwrap().blocking(0)))
            });
        }
        // Plain f64 only while it stays in range.
        if n <= 64 {
            g.bench_with_input(BenchmarkId::new("alg1-f64", n), &model, |b, model| {
                b.iter(|| black_box(solve(model, Algorithm::Alg1F64).unwrap().blocking(0)))
            });
        }
    }
    g.finish();
}

fn bench_brute_force_wall(c: &mut Criterion) {
    let mut g = c.benchmark_group("brute_force");
    g.sample_size(10);
    for n in [4u32, 6, 8] {
        let model = mixed_model(n);
        g.bench_with_input(BenchmarkId::new("enumerate", n), &model, |b, model| {
            b.iter(|| {
                let brute = Brute::new(model);
                black_box(brute.nonblocking(0))
            })
        });
    }
    g.finish();
}

fn bench_multiclass_scaling(c: &mut Criterion) {
    // O(N1·N2·R): cost should scale ~linearly in the number of classes.
    use xbar_core::{Dims, Model};
    use xbar_traffic::{TildeClass, Workload};
    let mut g = c.benchmark_group("class_scaling");
    for r in [1usize, 4, 16] {
        let tilde: Vec<TildeClass> = (0..r)
            .map(|i| {
                if i % 2 == 0 {
                    TildeClass::poisson(0.01)
                } else {
                    TildeClass::bpp(0.01, 0.005, 1.0)
                }
            })
            .collect();
        let model = Model::new(Dims::square(64), Workload::from_tilde(&tilde, 64)).unwrap();
        g.bench_with_input(BenchmarkId::new("alg1_ext_n64", r), &model, |b, model| {
            b.iter(|| black_box(solve(model, Algorithm::Alg1Ext).unwrap().revenue()))
        });
    }
    g.finish();
}

fn bench_gradients(c: &mut Criterion) {
    let mut g = c.benchmark_group("gradients");
    let model = table2_model(64);
    let sol = solve(&model, Algorithm::Alg1Ext).unwrap();
    g.bench_function("closed_form_rho", |b| {
        b.iter(|| black_box(sol.revenue_gradient_rho(0)))
    });
    g.sample_size(20);
    g.bench_function("forward_difference_beta", |b| {
        b.iter(|| black_box(sol.revenue_gradient_beta_fd(1).unwrap()))
    });
    g.bench_function("exact_sensitivity", |b| {
        b.iter(|| black_box(sensitivity(&model, Algorithm::Auto).unwrap()))
    });
    g.finish();
}

fn bench_measures(c: &mut Criterion) {
    // The measures pass alone: every solve, sweep point and plan cell
    // ends in it, here at plan-grid's largest switch.
    let model = plan_grid_model(512);
    let sol = solve(&model, Algorithm::Auto).unwrap();
    let dims = model.dims();
    let mut g = c.benchmark_group("measures");
    g.bench_function("ray512", |b| b.iter(|| black_box(sol.measures_at(dims))));
    g.finish();
}

fn bench_recombine(c: &mut Criterion) {
    // One sweep point at plan-grid's largest switch: class 2 (the
    // wideband class, a = 2) re-installed on its leave-one-out ray at a
    // new load, then the measures. The install kernel's cut decides its
    // cost.
    let model = plan_grid_model(512);
    let solver = SweepSolver::new(&model, Algorithm::Auto).unwrap();
    let mut g = c.benchmark_group("sweep");
    g.bench_function("recombine512", |b| {
        b.iter(|| black_box(solver.solve_with_rho(2, black_box(1e-10)).unwrap()))
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = quick();
    targets =
    bench_algorithms_by_size,
    bench_brute_force_wall,
    bench_multiclass_scaling,
    bench_gradients,
    bench_measures,
    bench_recombine
);
criterion_main!(benches);
