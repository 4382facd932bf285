//! Throughput of the online admission engine: raw per-event decision cost
//! (the `O(R)` hot path a call-setup controller would sit on) and
//! end-to-end replay events per wall-second under each policy.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use xbar_admission::{AdmissionEngine, EngineConfig, PolicySpec};
use xbar_core::{Dims, Model};
use xbar_sim::{replay, ReplayConfig};
use xbar_traffic::{TrafficClass, Workload};

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn model(n: u32) -> Model {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.15).with_weight(1.0))
        .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1));
    Model::new(Dims::square(n), w).expect("valid model")
}

/// The engine's pure hot path: one admitted arrival + one departure per
/// iteration pair, no RNG, no replay harness around it.
fn bench_offer_depart_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission_engine");
    g.sample_size(10);
    for n in [16u32, 64] {
        let m = model(n);
        g.throughput(Throughput::Elements(2 * n as u64));
        g.bench_with_input(BenchmarkId::new("offer_depart", n), &n, |b, &n| {
            let mut engine = AdmissionEngine::new(&m, EngineConfig::default()).unwrap();
            b.iter(|| {
                for _ in 0..n {
                    black_box(engine.offer(0).unwrap());
                }
                for _ in 0..n {
                    engine.depart(0).unwrap();
                }
                black_box(engine.occupancy())
            })
        });
    }
    g.finish();
}

/// End-to-end synthetic replay (jump chain + tuple coin + engine) per
/// policy, 100k events each; the throughput reads as events/sec.
fn bench_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("admission_replay");
    g.sample_size(10);
    const EVENTS: u64 = 100_000;
    let m = model(16);
    let policies = [
        ("cs", PolicySpec::CompleteSharing),
        ("trunk", PolicySpec::TrunkReservation(vec![0, 2])),
        ("shadow", PolicySpec::ShadowPrice { reserve: 2 }),
    ];
    for (name, policy) in policies {
        g.throughput(Throughput::Elements(EVENTS));
        g.bench_with_input(
            BenchmarkId::new("replay100k", name),
            &policy,
            |b, policy| {
                b.iter(|| {
                    let rep = replay(
                        &m,
                        &ReplayConfig {
                            events: EVENTS,
                            seed: 7,
                            batches: 20,
                            engine: EngineConfig {
                                policy: policy.clone(),
                                ..EngineConfig::default()
                            },
                        },
                    )
                    .unwrap();
                    black_box(rep.events)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_offer_depart_cycle, bench_replay
);
criterion_main!(benches);
