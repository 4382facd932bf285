//! The chaos battery: deterministic fault plans against the daemon,
//! asserting two invariants after every storm:
//!
//! 1. **Exact accounting** — `offers = admitted + denied(capacity) +
//!    denied(policy) + shed` holds to the event (the exit-6 metrics
//!    invariant), whatever was killed, truncated, corrupted, overloaded,
//!    malformed, or clock-skewed.
//! 2. **Byte-identical recovery** — with durable ordering intact (no
//!    bounded-queue shedding racing the crash), a killed-and-recovered
//!    daemon fed the same stream ends in exactly the state of an
//!    uninterrupted run: same occupancy vectors, same decision counters,
//!    same log-weight *bits*.
//!
//! Every plan is a pure function of its seed (see `xbar_serve::chaos`),
//! so a failure here replays exactly.

use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbar_admission::PolicySpec;
use xbar_core::{Dims, Model};
use xbar_serve::chaos::{fault_schedule, BurstPlan, FaultAction, StreamPlan};
use xbar_serve::tenant::Tenant;
use xbar_serve::{Daemon, DaemonConfig, TenantConfig};
use xbar_traffic::{TrafficClass, Workload};

fn model() -> Model {
    Model::new(
        Dims::square(6),
        Workload::new()
            .with(TrafficClass::poisson(0.8))
            .with(TrafficClass::bpp(0.5, 0.1, 1.0).with_bandwidth(2)),
    )
    .unwrap()
}

fn dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("xbar_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Deterministic config: frequent snapshots so kills land between them,
/// drift checks off (their cadence is process-local, which would make the
/// byte-identical comparison depend on where the kill landed — drift
/// handling has its own tests).
fn tenant_cfg() -> TenantConfig {
    TenantConfig {
        check_interval: 0,
        snapshot_interval: 37,
        ..TenantConfig::default()
    }
}

fn daemon_cfg() -> DaemonConfig {
    DaemonConfig {
        tenant: tenant_cfg(),
        ..DaemonConfig::default()
    }
}

/// Collect the comparable end state: per-tenant engine state plus the
/// durable serve counters (shed/rejected/skewed — process-local counters
/// like snapshots-written are excluded).
fn end_state(daemon: &Daemon) -> Vec<(String, String)> {
    daemon
        .tenants()
        .map(|(name, t)| {
            let s = t.engine().export_state();
            let c = t.counters();
            (
                name.clone(),
                format!(
                    "k={:?} thr={:?} re={} lw={:016x} stats={:?} shed={} rejected={} \
                     skewed={} stale_rp={} q={}",
                    s.k,
                    s.thresholds,
                    s.reprice_events,
                    s.log_weight.to_bits(),
                    s.stats,
                    c.shed,
                    c.rejected,
                    c.skewed,
                    c.stale_reprices,
                    t.quarantined()
                ),
            )
        })
        .collect()
}

fn assert_accounting(daemon: &Daemon) {
    let acc = daemon.accounting();
    assert!(
        acc.holds(),
        "offers accounting violated: {} != {} + {} + {} + {} ({acc:?})",
        acc.offers,
        acc.admitted,
        acc.denied_capacity,
        acc.denied_policy,
        acc.shed
    );
}

/// The baseline storm: malformed lines, invalid departures, clock skew,
/// multi-tenant interleaving — applied synchronously, accounting exact.
#[test]
fn seeded_stream_with_injected_faults_keeps_exact_accounting() {
    let d = dir("stream");
    let plan = StreamPlan {
        lines: 3000,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();
    let (mut daemon, _) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    let c = daemon.serve_counters();
    assert!(c.skewed > 0, "plan injects clock skew");
    assert!(c.rejected > 0, "plan injects invalid departures");
    assert!(
        daemon.counters().malformed > 0,
        "plan injects malformed lines"
    );
    let acc = daemon.accounting();
    assert!(acc.offers > 1000, "most lines were valid offers");
}

/// Kill -9 (drop without shutdown) at seeded points, then recover and
/// re-feed the same stream from the top: the end state must be
/// byte-identical to an uninterrupted run — occupancy, counters, and
/// log-weight bits.
#[test]
fn kill_and_recover_is_byte_identical_to_uninterrupted_run() {
    let plan = StreamPlan {
        lines: 2000,
        malformed_p: 0.02,
        invalid_p: 0.02,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();

    // Golden: one uninterrupted run.
    let golden_dir = dir("kill_golden");
    let (mut golden, _) = Daemon::open(&golden_dir, &model(), daemon_cfg()).unwrap();
    for line in &lines {
        golden.ingest_line(line).unwrap();
    }
    golden.drain().unwrap();
    let want = end_state(&golden);

    // Chaos: kill at 5 seeded points, recovering and resuming from the
    // top each time (a resumed tailer re-reads the whole file; the resume
    // watermark deduplicates the durable prefix).
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    let d = dir("kill_chaos");
    let mut cuts: Vec<usize> = (0..5).map(|_| rng.gen_range(1..lines.len())).collect();
    cuts.sort_unstable();
    let mut killed = 0;
    for &cut in &cuts {
        let (mut daemon, _) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
        for line in &lines[..cut] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        // kill -9: drop with no shutdown, no final snapshot, queues lost.
        drop(daemon);
        killed += 1;
    }
    assert_eq!(killed, 5);
    let (mut daemon, reports) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
    assert!(!reports.is_empty(), "tenants recovered from durable state");
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    assert_eq!(end_state(&daemon), want, "recovery must be byte-identical");
    assert!(
        daemon.counters().duplicates > 0,
        "the durable prefix deduplicated"
    );
}

/// Every `<tenant>.wal` under `dir` with its bytes, in name order.
fn wal_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("wal"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Records in the WAL files under `dir`.
fn wal_records_on_disk(dir: &std::path::Path) -> usize {
    wal_files(dir)
        .iter()
        .map(|(name, _)| {
            xbar_serve::wal::recover(&dir.join(name))
                .unwrap()
                .records
                .len()
        })
        .sum()
}

/// Kill -9 (drop) with WAL frames still in the group-commit buffer: the
/// snapshot cadence (300) is above the 256-frame group, so both the full
/// group and the snapshot commit the buffer, and the kills land between
/// those points. The file loses the buffered frames, stays a prefix of
/// the golden WAL, and re-feeding from the top ends byte-identical to the
/// uninterrupted run: occupancy, counters, log-weight bits and every WAL.
#[test]
fn kill_with_frames_in_the_buffer_refeeds_to_byte_identical_wals() {
    let plan = StreamPlan {
        lines: 4000,
        malformed_p: 0.02,
        invalid_p: 0.02,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();
    let cfg = DaemonConfig {
        tenant: TenantConfig {
            snapshot_interval: 300,
            ..tenant_cfg()
        },
        ..DaemonConfig::default()
    };

    let golden_dir = dir("buffer_golden");
    let (mut golden, _) = Daemon::open(&golden_dir, &model(), cfg.clone()).unwrap();
    for line in &lines {
        golden.ingest_line(line).unwrap();
    }
    golden.drain().unwrap();
    golden.commit().unwrap();
    let want = end_state(&golden);
    let want_wals = wal_files(&golden_dir);

    let mut rng = StdRng::seed_from_u64(0xB0FF);
    let mut cuts: Vec<usize> = Vec::new();
    while cuts.len() < 5 {
        let cut = rng.gen_range(1..lines.len());
        if cut % 256 != 0 {
            cuts.push(cut);
        }
    }
    cuts.sort_unstable();
    let d = dir("buffer_chaos");
    for &cut in &cuts {
        let (mut daemon, _) = Daemon::open(&d, &model(), cfg.clone()).unwrap();
        let before = wal_records_on_disk(&d);
        for line in &lines[..cut] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        let appended = before as u64 + daemon.counters().applied;
        drop(daemon); // kill -9: the group-commit buffers die
        let on_disk = wal_records_on_disk(&d) as u64;
        assert!(
            on_disk < appended,
            "cut {cut}: {on_disk} records on disk, {appended} appended"
        );
        for (name, bytes) in wal_files(&d) {
            let golden_bytes = &want_wals.iter().find(|(n, _)| *n == name).unwrap().1;
            assert!(
                golden_bytes.starts_with(&bytes),
                "cut {cut}: {name} is not a prefix of the golden WAL"
            );
        }
    }
    let (mut daemon, _) = Daemon::open(&d, &model(), cfg).unwrap();
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    daemon.commit().unwrap();
    assert_accounting(&daemon);
    assert_eq!(end_state(&daemon), want, "recovery must be byte-identical");
    assert_eq!(wal_files(&d), want_wals, "every WAL byte-identical");
}

/// Kill -9 **mid-repricing-batch**: with per-batch shadow repricing on
/// (batch length coprime to the snapshot interval, so every seeded kill
/// lands with the batch phase partway through), a recovered daemon fed
/// the same stream must end with byte-identical thresholds, batch phase
/// (`reprice_events`), and `admission.reprice.*` counters — the pricing
/// state round-trips through snapshot V2 and WAL replay like any other
/// engine state.
#[test]
fn kill_mid_repricing_batch_recovers_byte_identical_thresholds_and_counters() {
    let shadow_model = || {
        Model::new(
            Dims::square(4),
            Workload::new()
                .with(TrafficClass::poisson(0.25))
                .with(TrafficClass::poisson(0.5).with_weight(0.01)),
        )
        .unwrap()
    };
    let plan = StreamPlan {
        lines: 2000,
        malformed_p: 0.02,
        invalid_p: 0.02,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();
    let mut cfg = daemon_cfg();
    cfg.tenant.policy = PolicySpec::ShadowPrice { reserve: 1 };
    cfg.tenant.reprice_batch = Some(23); // coprime to snapshot_interval 37

    // Golden: one uninterrupted run, with the repricing path genuinely
    // live (passes ran, and the shadow policy holds a nonzero reserve).
    let golden_dir = dir("reprice_golden");
    let (mut golden, _) = Daemon::open(&golden_dir, &shadow_model(), cfg.clone()).unwrap();
    for line in &lines {
        golden.ingest_line(line).unwrap();
    }
    golden.drain().unwrap();
    let want = end_state(&golden);
    assert!(golden
        .tenants()
        .any(|(_, t)| t.engine().stats().reprice_batches > 0));
    assert!(
        golden
            .tenants()
            .any(|(_, t)| t.engine().thresholds().iter().any(|&x| x > 0)),
        "the shadow policy must actually reserve slots"
    );

    // Chaos: kill -9 at 5 seeded points (each almost surely mid-batch),
    // recover, resume from the top.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let d = dir("reprice_chaos");
    let mut cuts: Vec<usize> = (0..5).map(|_| rng.gen_range(1..lines.len())).collect();
    cuts.sort_unstable();
    for &cut in &cuts {
        let (mut daemon, _) = Daemon::open(&d, &shadow_model(), cfg.clone()).unwrap();
        for line in &lines[..cut] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        drop(daemon); // kill -9: no shutdown, no final snapshot
    }
    let (mut daemon, reports) = Daemon::open(&d, &shadow_model(), cfg).unwrap();
    assert!(!reports.is_empty(), "tenants recovered from durable state");
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    assert_eq!(
        end_state(&daemon),
        want,
        "repriced recovery must be byte-identical (thresholds, phase, counters)"
    );
}

/// Crash with events still in the bounded queues: in-memory events die
/// with the process, but re-feeding the stream heals them exactly — the
/// per-record dedupe set re-applies queued-but-lost events instead of
/// swallowing everything below the resume watermark — and the durable
/// accounting stays exact.
#[test]
fn bounded_queue_crash_loses_at_most_the_queue_contents() {
    const QUEUE_CAP: usize = 16;
    let plan = StreamPlan {
        lines: 1500,
        malformed_p: 0.0,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();
    let d = dir("bounded_loss");
    let cfg = DaemonConfig {
        queue_cap: QUEUE_CAP,
        ..daemon_cfg()
    };
    let queued_at_crash;
    {
        let (mut daemon, _) = Daemon::open(&d, &model(), cfg.clone()).unwrap();
        for line in &lines[..1000] {
            daemon.ingest_line(line).unwrap();
        }
        // Pump only partially: queues still hold events at the "crash".
        daemon.pump(100).unwrap();
        queued_at_crash = daemon.queued();
        assert!(queued_at_crash > 0, "crash must catch events in flight");
        drop(daemon); // kill -9
    }
    let (mut daemon, _) = Daemon::open(&d, &model(), cfg).unwrap();
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    // Every line is a valid event here (malformed_p = 0). Each either
    // landed durably before the crash (and deduplicates on re-feed) or
    // died in a queue — and the re-feed re-applies exactly the dead ones,
    // so the full stream reconciles: nothing lost, nothing doubled.
    let acc = daemon.accounting();
    let absorbed = acc.offers + acc.departures + acc.rejected;
    let total = lines.len() as u64;
    assert!(queued_at_crash as u64 <= total);
    assert_eq!(
        absorbed, total,
        "re-feed must heal the {queued_at_crash} events queued at crash"
    );
}

/// Truncate and corrupt WAL tails between kills: recovery chops to the
/// valid prefix, the re-fed stream heals the difference, and accounting
/// stays exact. The schedule itself comes from the seeded fault plan.
#[test]
fn wal_truncation_and_corruption_between_kills_recovers() {
    let plan = StreamPlan {
        lines: 1200,
        tenants: 3,
        ..StreamPlan::default()
    };
    let lines = plan.generate_lines();
    let schedule = fault_schedule(42, 6, 400);
    let d = dir("wal_faults");
    let mut fed = 0usize;
    for action in &schedule {
        let (mut daemon, _) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
        // Feed a fresh slice of the stream each round (resume dedupes the
        // durable prefix).
        fed = (fed + lines.len() / 8).min(lines.len());
        for line in &lines[..fed] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        assert_accounting(&daemon);
        drop(daemon); // kill
                      // Damage a durable file per the schedule.
        let victim = Tenant::wal_path(&d, "t1");
        match action {
            FaultAction::TruncateWalTail(n) => {
                if let Ok(meta) = std::fs::metadata(&victim) {
                    let keep = meta.len().saturating_sub(*n);
                    let f = std::fs::OpenOptions::new()
                        .write(true)
                        .open(&victim)
                        .unwrap();
                    f.set_len(keep).unwrap();
                }
            }
            FaultAction::CorruptWalByte(off) => {
                if let Ok(mut bytes) = std::fs::read(&victim) {
                    if !bytes.is_empty() {
                        let i = bytes.len() - 1 - (*off as usize % bytes.len());
                        bytes[i] ^= 0xFF;
                        std::fs::write(&victim, &bytes).unwrap();
                    }
                }
            }
            FaultAction::KillAfter(_) => {} // the drop above was the kill
        }
    }
    // Final full feed: everything durable must reconcile exactly.
    let (mut daemon, _) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
    for line in &lines {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    let acc = daemon.accounting();
    assert!(acc.offers > 0 && acc.admitted > 0);
}

/// Port-failure bursts from the simulator's fault layer: failures appear
/// as synchronized departure storms (torn-down circuits), repairs as
/// retry waves. The daemon absorbs both; over-departing is rejected
/// durably, accounting stays exact.
#[test]
fn port_failure_bursts_are_absorbed_with_exact_accounting() {
    let d = dir("bursts");
    let stream = StreamPlan {
        lines: 800,
        tenants: 1,
        malformed_p: 0.0,
        invalid_p: 0.0,
        ..StreamPlan::default()
    };
    let bursts = BurstPlan {
        seed: 11,
        mtbf: 10.0,
        mttr: 2.0,
        n1: 6,
        n2: 6,
        transitions: 30,
        tenant: 0,
        burst: 8,
        classes: 2,
    };
    let (mut daemon, _) = Daemon::open(&d, &model(), daemon_cfg()).unwrap();
    for line in stream
        .generate_lines()
        .iter()
        .chain(bursts.generate_lines().iter())
    {
        daemon.ingest_line(line).unwrap();
    }
    daemon.drain().unwrap();
    assert_accounting(&daemon);
    let c = daemon.serve_counters();
    assert!(
        c.rejected > 0,
        "departure storms over-depart and must be rejected durably"
    );
}

/// A tenant fed garbage until quarantine stops serving but keeps exact
/// accounting — and the rest of the fleet is untouched.
#[test]
fn quarantined_tenant_is_isolated_from_the_fleet() {
    let d = dir("quarantine");
    let mut cfg = daemon_cfg();
    cfg.tenant.max_failures = 4;
    let (mut daemon, _) = Daemon::open(&d, &model(), cfg).unwrap();
    // Healthy traffic on t0, poison on t1 (departures with nothing in
    // flight, back to back).
    for i in 0..40 {
        daemon.ingest_line(&format!("t0 a {} @{i}", i % 2)).unwrap();
        daemon.ingest_line(&format!("t1 d 0 @{i}")).unwrap();
    }
    daemon.drain().unwrap();
    assert_eq!(daemon.quarantined_tenants(), 1);
    assert!(daemon.tenant("t1").unwrap().quarantined());
    assert!(!daemon.tenant("t0").unwrap().quarantined());
    // t0 served everything; t1's garbage is all durably rejected.
    assert_eq!(daemon.tenant("t0").unwrap().engine().stats().offered(), 40);
    assert_eq!(daemon.tenant("t1").unwrap().counters().rejected, 40);
    assert_accounting(&daemon);
    // Quarantine survives a restart.
    drop(daemon);
    let mut cfg = daemon_cfg();
    cfg.tenant.max_failures = 4;
    let (daemon, _) = Daemon::open(&d, &model(), cfg).unwrap();
    assert!(daemon.tenant("t1").unwrap().quarantined());
    assert_accounting(&daemon);
}

/// The whole battery through the runtime's file source, including a clean
/// shutdown — then a crash-recovery pass over the same trace file.
#[test]
fn file_source_end_to_end_with_recovery() {
    let d = dir("file_e2e");
    let trace = d.join("trace.txt");
    let plan = StreamPlan {
        lines: 1000,
        ..StreamPlan::default()
    };
    let mut body = plan.generate_lines().join("\n");
    body.push('\n');
    std::fs::write(&trace, &body).unwrap();

    let data = d.join("data");
    let (mut daemon, _) = Daemon::open(&data, &model(), daemon_cfg()).unwrap();
    let report = xbar_serve::run_source(
        &mut daemon,
        &xbar_serve::Source::File(trace.clone()),
        Duration::ZERO,
    )
    .unwrap();
    assert_eq!(report.lines, 1000);
    assert_accounting(&daemon);
    let want = end_state(&daemon);
    drop(daemon);

    // Run the same trace again against the same durable state: everything
    // deduplicates, the end state is unchanged.
    let (mut daemon, _) = Daemon::open(&data, &model(), daemon_cfg()).unwrap();
    let report = xbar_serve::run_source(
        &mut daemon,
        &xbar_serve::Source::File(trace),
        Duration::ZERO,
    )
    .unwrap();
    assert_eq!(report.applied, 0, "every event deduplicated");
    assert_eq!(end_state(&daemon), want);
    assert_accounting(&daemon);
}
