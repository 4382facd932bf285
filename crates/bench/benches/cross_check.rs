//! Cost of the cross-checked solve: `solve(Auto)` plus one independent
//! checker solve (occupancy convolution up to `N = 64`, MVA above). The
//! unchecked path is `algorithms/auto`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use xbar_bench::table2_model;
use xbar_core::solve_cross_checked;

/// Same quick profile as the other benches: short windows, stable enough.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn bench_cross_check(c: &mut Criterion) {
    let mut g = c.benchmark_group("cross_check");
    for n in [32u32, 128, 512] {
        let model = table2_model(n);
        g.bench_with_input(BenchmarkId::new("checked", n), &model, |b, model| {
            b.iter(|| {
                black_box(
                    solve_cross_checked(model, 1e-9)
                        .expect("solves")
                        .0
                        .blocking(0),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_cross_check
);
criterion_main!(benches);
