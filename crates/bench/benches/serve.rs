//! Throughput of the serve daemon's durable ingest path (parse, dedupe,
//! engine decision, WAL append per line, one commit at the end) across
//! fleet sizes. This is
//! the cost of fault tolerance — compare against the bare engine numbers
//! in `admission.rs` to see what the WAL and supervision layers add.
//! Two layers of that path are also timed alone: the line parse and the
//! WAL append.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use xbar_core::{Dims, Model};
use xbar_serve::chaos::StreamPlan;
use xbar_serve::daemon::parse_line;
use xbar_serve::{Daemon, DaemonConfig, RecordKind, Wal, WalRecord};
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

/// Durable ingest: a seeded multi-tenant stream through a fresh daemon
/// per iteration. Only ingest, drain and commit are timed: the setup
/// (untimed) empties the data directory, creates each tenant's WAL and
/// opens the daemon over it, so directory creation, first-contact WAL
/// creates and engine builds stay out of the loop.
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
        let mut names: Vec<String> = lines
            .iter()
            .filter_map(|l| parse_line(l).ok().flatten())
            .map(|p| p.tenant)
            .collect();
        names.sort();
        names.dedup();
        g.throughput(Throughput::Elements(LINES as u64));
        g.bench_with_input(BenchmarkId::new("tenants", tenants), &tenants, |b, _| {
            let dir = std::env::temp_dir()
                .join(format!("xbar_crit_serve_{}_{tenants}", std::process::id()));
            b.iter_batched(
                || {
                    let _ = std::fs::remove_dir_all(&dir);
                    std::fs::create_dir_all(&dir).expect("bench dir");
                    for name in &names {
                        Wal::open(&dir.join(format!("{name}.wal")), 0).expect("wal opens");
                    }
                    Daemon::open(&dir, &m, DaemonConfig::default())
                        .expect("daemon opens")
                        .0
                },
                |mut daemon| {
                    for line in &lines {
                        daemon.ingest_line(line).expect("ingest");
                    }
                    let applied = daemon.drain().expect("drain");
                    daemon.commit().expect("commit");
                    black_box(applied);
                    daemon
                },
                BatchSize::PerIteration,
            );
            let _ = std::fs::remove_dir_all(&dir);
        });
    }
    g.finish();
}

/// The parse layer alone: `parse_line` over a seeded stream of stamped
/// lines with malformed ones mixed in.
fn bench_parse(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_parse");
    const LINES: usize = 20_000;
    let lines = StreamPlan {
        seed: 6,
        tenants: 100,
        classes: 2,
        lines: LINES,
        malformed_p: 0.02,
        ..StreamPlan::default()
    }
    .generate_lines();
    g.throughput(Throughput::Elements(LINES as u64));
    g.bench_function("lines_20k", |b| {
        b.iter(|| {
            lines
                .iter()
                .filter(|l| black_box(parse_line(black_box(l))).is_ok())
                .count()
        })
    });
    g.finish();
}

/// The WAL layer alone: 20,000 appends to a fresh file, with the group
/// writes they trigger and one commit at the end.
fn bench_wal(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve_wal");
    g.sample_size(10);
    const RECORDS: u64 = 20_000;
    let recs: Vec<WalRecord> = (0..RECORDS)
        .map(|seq| WalRecord {
            seq,
            kind: if seq.is_multiple_of(3) {
                RecordKind::Departure
            } else {
                RecordKind::Arrival
            },
            class: (seq % 2) as u16,
            skewed: seq.is_multiple_of(50),
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("xbar_crit_serve_wal_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");
    let path = dir.join("t.wal");
    g.throughput(Throughput::Elements(RECORDS));
    g.bench_function("append_20k", |b| {
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let (mut wal, _) = Wal::open(&path, 0).expect("wal opens");
            for r in &recs {
                wal.append(black_box(r)).expect("append");
            }
            wal.commit().expect("commit");
            wal.len()
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
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
    targets = bench_ingest, bench_parse, bench_wal, bench_recovery
}
criterion_main!(benches);
