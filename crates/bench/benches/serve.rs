//! Throughput of the serve daemon's durable ingest path (parse, dedupe,
//! engine decision, WAL append per line, one commit at the end) across
//! fleet sizes. This is
//! the cost of fault tolerance — compare against the bare engine numbers
//! in `admission.rs` to see what the WAL and supervision layers add.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use xbar_core::{Dims, Model};
use xbar_serve::chaos::StreamPlan;
use xbar_serve::{Daemon, DaemonConfig};
use xbar_traffic::{TrafficClass, Workload};

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

fn model() -> Model {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.15).with_weight(1.0))
        .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1));
    Model::new(Dims::square(16), w).expect("valid model")
}

/// End-to-end durable ingest: a seeded multi-tenant stream through a
/// fresh daemon per iteration (fresh data dir, so recovery cost stays out
/// of the loop).
fn bench_ingest(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_ingest");
    g.sample_size(10);
    const LINES: usize = 20_000;
    let m = model();
    for tenants in [4usize, 100] {
        let lines = StreamPlan {
            seed: 6,
            tenants,
            classes: 2,
            lines: LINES,
            malformed_p: 0.0,
            ..StreamPlan::default()
        }
        .generate_lines();
        g.throughput(Throughput::Elements(LINES as u64));
        g.bench_with_input(BenchmarkId::new("tenants", tenants), &tenants, |b, _| {
            let base = std::env::temp_dir()
                .join(format!("xbar_crit_serve_{}_{tenants}", std::process::id()));
            let mut round = 0u32;
            b.iter(|| {
                round += 1;
                let dir = base.join(format!("r{round}"));
                let (mut daemon, _) =
                    Daemon::open(&dir, &m, DaemonConfig::default()).expect("daemon opens");
                for line in &lines {
                    daemon.ingest_line(line).expect("ingest");
                }
                let applied = daemon.drain().expect("drain");
                daemon.commit().expect("commit");
                black_box(applied)
            });
            let _ = std::fs::remove_dir_all(&base);
        });
    }
    g.finish();
}

/// Recovery cost: reopen a daemon whose WAL already holds the full
/// stream — snapshot load + tail replay + dedupe watermark setup.
fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_recovery");
    g.sample_size(10);
    const LINES: usize = 20_000;
    let m = model();
    let lines = StreamPlan {
        seed: 6,
        tenants: 4,
        classes: 2,
        lines: LINES,
        malformed_p: 0.0,
        ..StreamPlan::default()
    }
    .generate_lines();
    let dir = std::env::temp_dir().join(format!("xbar_crit_serve_rec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let (mut daemon, _) = Daemon::open(&dir, &m, DaemonConfig::default()).expect("open");
        for line in &lines {
            daemon.ingest_line(line).expect("ingest");
        }
        daemon.drain().expect("drain");
        daemon.commit().expect("commit");
        // Dropped without shutdown, after the commit point: recovery
        // below replays the WAL tail past whatever snapshots the cadence
        // wrote.
    }
    g.throughput(Throughput::Elements(LINES as u64));
    g.bench_function("reopen_20k_wal", |b| {
        b.iter(|| black_box(Daemon::open(&dir, &m, DaemonConfig::default()).expect("reopen")))
    });
    let _ = std::fs::remove_dir_all(&dir);
    g.finish();
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_ingest, bench_recovery
}
criterion_main!(benches);
