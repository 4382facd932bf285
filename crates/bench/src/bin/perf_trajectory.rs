//! Machine-readable perf trajectory: times the hot solve path at the
//! paper's benchmark sizes and writes `BENCH_10.json` (median ns per bench,
//! switch size, backend, thread count) so the speedup story is trackable
//! across PRs without parsing Criterion's console output. Since PR 4 it
//! also times the admission-engine replay loop (events/sec is
//! `1e9 * EVENTS / median_ns`); since PR 5 it times the incremental
//! sweep solver against fresh full solves (`sweep/fig2-points-per-sec`,
//! the headline per-point speedup) and the exact analytic sensitivity
//! against its finite-difference oracle (`sensitivity/exact-vs-fd`);
//! since PR 6 it times the serve daemon's sustained ingest throughput
//! over a 100-tenant WAL-durable fleet (`serve/ingest`, events/sec);
//! since PR 7 it times batched fleet anchor solves
//! (`fleet/anchor-solves-per-sec`, heterogeneous model batches sharded
//! across the persistent worker pool) against the single-model baseline;
//! since PR 8 it times the admission engine's per-batch repricing pass
//! (`reprice/*`, thresholds re-derived from the per-anchor cached
//! gradients) against the full re-anchor `sensitivity()` solve it
//! replaces — the online-repricing claim is that the former is ≥10×
//! cheaper at N = 512; since PR 9 it times the capacity planner's
//! exhaustive design-space search (`plan/candidates-per-sec`, every
//! candidate scored through the shared fleet-warmed `SweepGrid`); and it
//! times the zero-rebuild replay hot loop against the legacy
//! rebuild-every-event loop on a 12-class fixture
//! (`sim/events-per-sec-scalar/12classes`). Replicated-simulation
//! throughput is measured by the perfbench `sim-ci` workload instead.
//!
//! `--fleet-only` skips everything but the fleet records — the CI
//! artifact leg uses it to publish `BENCH_10.json` without paying for
//! the full matrix.
//!
//! Timed runs execute with metrics off — the medians must stay comparable
//! with earlier `BENCH_N.json` files, and the obs layer's disabled-mode
//! cost is part of what they verify. A separate instrumented reference
//! solve captures an [`xbar_obs`] snapshot into the report's `"obs"` key
//! (escalation counters, sweep-mode splits, cache traffic).
//!
//! Run from the repo root: `cargo run --release -p xbar-bench --bin
//! perf_trajectory [-- <output-path>] [-- --fleet-only]`.

use std::time::Instant;

use xbar_admission::{AdmissionEngine, EngineConfig, PolicySpec};
use xbar_bench::{
    fig2_sweep_model, fleet_member_model, replay_hot_model, sensitivity_model, table2_model,
    BenchRecord, BenchReport,
};
use xbar_core::alg1::{QLattice, ScaledQLattice};
use xbar_core::parallel;
use xbar_core::sensitivity::{sensitivity, sensitivity_fd};
use xbar_core::{solve, Algorithm, Dims, Model, SolveCache, SweepSolver};
use xbar_numeric::ExtFloat;
use xbar_sim::replay::replay_legacy;
use xbar_sim::{replay, ReplayConfig};
use xbar_traffic::{TrafficClass, Workload};

/// Median wall-clock ns of `runs` invocations of `f`.
fn median_ns<F: FnMut()>(runs: usize, mut f: F) -> u64 {
    let mut samples: Vec<u64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_backend(name: &str, n: u32, threads: usize, model: &Model, runs: usize) -> BenchRecord {
    let median = match name {
        "alg1-ext" => median_ns(runs, || {
            std::hint::black_box(QLattice::<ExtFloat>::solve_with_threads(model, threads));
        }),
        "alg1-scaled" => median_ns(runs, || {
            std::hint::black_box(ScaledQLattice::solve_with_threads(model, threads));
        }),
        "alg1-f64" => median_ns(runs, || {
            std::hint::black_box(QLattice::<f64>::solve_with_threads(model, threads));
        }),
        other => unreachable!("unknown backend {other}"),
    };
    println!("  {name:<12} N={n:<4} threads={threads:<2} median {median} ns");
    BenchRecord {
        name: format!("{name}/solve/{n}/t{threads}"),
        n,
        backend: name.to_string(),
        threads,
        median_ns: median,
    }
}

/// Time the admission-engine replay loop (PR 4's events/sec number):
/// a 100k-event jump chain through the engine under `policy`.
fn time_admission_replay(name: &str, policy: PolicySpec, runs: usize) -> BenchRecord {
    const EVENTS: u64 = 100_000;
    const N: u32 = 16;
    let w = Workload::new()
        .with(TrafficClass::poisson(0.15).with_weight(1.0))
        .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1));
    let model = Model::new(Dims::square(N), w).expect("valid model");
    let cfg = ReplayConfig {
        events: EVENTS,
        seed: 7,
        batches: 20,
        engine: EngineConfig {
            policy,
            ..EngineConfig::default()
        },
    };
    let median = median_ns(runs, || {
        std::hint::black_box(replay(&model, &cfg).expect("replay succeeds").events);
    });
    let events_per_sec = 1e9 * EVENTS as f64 / median as f64;
    println!("  admission-{name:<6} N={N:<4} threads=1  median {median} ns ({events_per_sec:.0} events/s)");
    BenchRecord {
        name: format!("admission-{name}/replay100k/{N}/t1"),
        n: N,
        backend: format!("admission-{name}"),
        threads: 1,
        median_ns: median,
    }
}

/// Time the replay hot loop both ways on the 12-class fixture: the
/// incremental [`xbar_sim::RateTable`] loop against the legacy
/// rebuild-every-event loop it replaced. The table re-sums in the legacy
/// fold order and keeps the legacy selection scan, so the streams are
/// bit-identical (pinned by goldens and the proptest battery) and the win
/// is only the avoided per-event birth-rate rebuilds.
///
/// `events_per_sec = 1e9 * EVENTS / median_ns`.
fn time_sim_hot_loop(runs: usize) -> Vec<BenchRecord> {
    const EVENTS: u64 = 100_000;
    const CLASSES: u32 = 12;
    let model = replay_hot_model(CLASSES);
    let cfg = ReplayConfig {
        events: EVENTS,
        seed: 7,
        batches: 20,
        engine: EngineConfig::default(),
    };
    let incremental = median_ns(runs, || {
        std::hint::black_box(replay(&model, &cfg).expect("replay succeeds").events);
    });
    let legacy = median_ns(runs, || {
        std::hint::black_box(replay_legacy(&model, &cfg).expect("replay succeeds").events);
    });
    let speedup = legacy as f64 / incremental as f64;
    println!(
        "  sim-hot-loop R={CLASSES:<4} threads=1  incremental {incremental} ns vs legacy {legacy} ns \
         ({speedup:.1}x, {:.0} events/s)",
        1e9 * EVENTS as f64 / incremental as f64
    );
    let record = |backend: &str, median_ns: u64| BenchRecord {
        name: format!("sim/events-per-sec-scalar/{CLASSES}classes/t1/{backend}"),
        n: 16,
        backend: backend.to_string(),
        threads: 1,
        median_ns,
    };
    vec![record("incremental", incremental), record("legacy", legacy)]
}

/// Time one fig2-style sweep point on the `R = 4` fixture at size `n`,
/// both ways: through the cached [`SweepSolver`] (one `O(N)`
/// recombination) and as a fresh full solve of the edited model.
/// `points_per_sec = 1e9 / median_ns`. The thread count is applied
/// process-wide so the full solve's wavefront uses it; the recombination
/// itself is serial either way.
fn time_sweep_points(n: u32, threads: usize, runs: usize) -> Vec<BenchRecord> {
    let model = fig2_sweep_model(n);
    parallel::set_threads(threads);
    let sweep = SweepSolver::new(&model, Algorithm::Auto).expect("sweep precompute");
    let base_rho = model.workload().classes()[1].rho();
    let mut step = 0u32;
    let mut next_rho = || {
        step += 1;
        base_rho * (1.0 + 0.1 * (step % 7) as f64)
    };
    let sweep_median = median_ns(runs, || {
        std::hint::black_box(
            sweep
                .solve_with_rho(1, next_rho())
                .expect("sweep point")
                .blocking(1),
        );
    });
    let mut step = 0u32;
    let mut next_rho = || {
        step += 1;
        base_rho * (1.0 + 0.1 * (step % 7) as f64)
    };
    let full_median = median_ns(runs, || {
        let edited = model.with_rho(1, next_rho()).expect("in range");
        std::hint::black_box(
            solve(&edited, Algorithm::Auto)
                .expect("full solve")
                .blocking(1),
        );
    });
    let speedup = full_median as f64 / sweep_median as f64;
    println!(
        "  sweep        N={n:<4} threads={threads:<2} point {sweep_median} ns vs full \
         {full_median} ns ({speedup:.1}x, {:.0} points/s)",
        1e9 / sweep_median as f64
    );
    let record = |backend: &str, median_ns: u64| BenchRecord {
        name: format!("sweep/fig2-points-per-sec/{n}/t{threads}/{backend}"),
        n,
        backend: backend.to_string(),
        threads,
        median_ns,
    };
    vec![
        record("sweep", sweep_median),
        record("full-solve", full_median),
    ]
}

/// Time the full sensitivity assembly at size `n`: the exact
/// sweep-partial path vs the finite-difference oracle. Uses the per-set
/// load fixture — on the tilde fixtures the FD step leaves the valid
/// load range at large `N` (see [`xbar_bench::sensitivity_model`]).
fn time_sensitivity(n: u32, threads: usize, runs: usize) -> Vec<BenchRecord> {
    let model = sensitivity_model(n);
    parallel::set_threads(threads);
    let exact_median = median_ns(runs, || {
        std::hint::black_box(sensitivity(&model, Algorithm::Alg1Ext).expect("exact sensitivity"));
    });
    let fd_median = median_ns(runs, || {
        std::hint::black_box(sensitivity_fd(&model, Algorithm::Alg1Ext).expect("fd sensitivity"));
    });
    let speedup = fd_median as f64 / exact_median as f64;
    println!(
        "  sensitivity  N={n:<4} threads={threads:<2} exact {exact_median} ns vs fd \
         {fd_median} ns ({speedup:.1}x)"
    );
    let record = |backend: &str, median_ns: u64| BenchRecord {
        name: format!("sensitivity/exact-vs-fd/{n}/t{threads}/{backend}"),
        n,
        backend: backend.to_string(),
        threads,
        median_ns,
    };
    vec![record("exact", exact_median), record("fd", fd_median)]
}

/// Time the online repricing pass against pricing from scratch: a
/// shadow-price engine holds the sensitivity it assembled at
/// construction, so a pass is one O(R) threshold
/// derivation — versus a fresh `sensitivity()` sweep plus the same
/// derivation. A repricing pass is sub-microsecond, so each timed
/// sample wraps `INNER` passes and reports the per-pass median.
fn time_reprice(n: u32, threads: usize, full_runs: usize) -> Vec<BenchRecord> {
    const INNER: u64 = 1_000;
    let model = sensitivity_model(n);
    let policy = PolicySpec::ShadowPrice { reserve: 2 };
    parallel::set_threads(threads);
    let mut engine = AdmissionEngine::new(
        &model,
        EngineConfig {
            policy: policy.clone(),
            algorithm: Algorithm::Alg1Ext,
            reprice_batch: Some(u64::MAX), // pricer on; the bench drives passes itself
            ..EngineConfig::default()
        },
    )
    .expect("engine builds");
    let reprice_median = median_ns(15, || {
        for _ in 0..INNER {
            std::hint::black_box(engine.reprice_now().expect("reprice"));
        }
    }) / INNER;
    let r_count = model.num_classes();
    let full_median = median_ns(full_runs, || {
        let sens = sensitivity(&model, Algorithm::Alg1Ext).expect("fresh sensitivity");
        std::hint::black_box(policy.thresholds(r_count, Some(&sens)).expect("thresholds"));
    });
    let speedup = full_median as f64 / reprice_median.max(1) as f64;
    println!(
        "  reprice      N={n:<4} threads={threads:<2} pass {reprice_median} ns vs full \
         re-anchor {full_median} ns ({speedup:.0}x)"
    );
    let record = |backend: &str, median_ns: u64| BenchRecord {
        name: format!("reprice/thresholds/{n}/t{threads}/{backend}"),
        n,
        backend: backend.to_string(),
        threads,
        median_ns,
    };
    vec![
        record("reprice", reprice_median),
        record("full-anchor", full_median),
    ]
}

/// Time the serve daemon's sustained ingest rate over a WAL-durable
/// fleet of `tenants` tenants: parse + dedupe + engine decision + durable
/// append for every line, snapshots on cadence, queues unbounded (the
/// bench measures the absorb path, not shedding). Each run starts from a
/// fresh data directory so recovery cost is not mixed into the medians.
/// `events_per_sec = 1e9 * LINES / median_ns`.
fn time_serve_ingest(tenants: usize, runs: usize) -> BenchRecord {
    const LINES: usize = 50_000;
    let model = Model::new(
        Dims::square(16),
        Workload::new()
            .with(TrafficClass::poisson(0.15).with_weight(1.0))
            .with(TrafficClass::bpp(0.1, 0.05, 1.0).with_weight(0.1)),
    )
    .expect("valid model");
    let lines = xbar_serve::chaos::StreamPlan {
        seed: 6,
        tenants,
        classes: 2,
        lines: LINES,
        malformed_p: 0.0,
        ..xbar_serve::chaos::StreamPlan::default()
    }
    .generate_lines();
    let base = std::env::temp_dir().join(format!("xbar_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut round = 0u32;
    let median = median_ns(runs, || {
        round += 1;
        let dir = base.join(format!("r{round}"));
        let (mut daemon, _) = xbar_serve::Daemon::open(
            &dir,
            &model,
            xbar_serve::DaemonConfig {
                tenant: xbar_serve::TenantConfig {
                    snapshot_interval: 4096,
                    ..xbar_serve::TenantConfig::default()
                },
                ..xbar_serve::DaemonConfig::default()
            },
        )
        .expect("daemon opens");
        for line in &lines {
            daemon.ingest_line(line).expect("ingest");
        }
        std::hint::black_box(daemon.drain().expect("drain"));
        let acc = daemon.accounting();
        assert!(acc.holds(), "bench run broke the accounting invariant");
    });
    let _ = std::fs::remove_dir_all(&base);
    let events_per_sec = 1e9 * LINES as f64 / median as f64;
    println!(
        "  serve        tenants={tenants:<4} threads=1  median {median} ns \
         ({events_per_sec:.0} events/s durable)"
    );
    BenchRecord {
        name: format!("serve/ingest50k/{tenants}tenants/t1"),
        n: 16,
        backend: "serve".to_string(),
        threads: 1,
        median_ns: median,
    }
}

/// Time batched fleet anchor solves (PR 7's headline number): `size`
/// heterogeneous models solved through [`SolveCache::solve_fleet`], a
/// fresh cache per run so every member is a real lattice solve rather
/// than a memo hit. `anchor_solves_per_sec = 1e9 * size / median_ns`.
fn time_fleet(size: usize, threads: usize, runs: usize) -> BenchRecord {
    let models: Vec<Model> = (0..size).map(fleet_member_model).collect();
    let n_max = models.iter().map(|m| m.dims().max_n()).max().unwrap_or(0);
    parallel::set_threads(threads);
    let median = median_ns(runs, || {
        let cache = SolveCache::new(size.max(2));
        for r in cache.solve_fleet(&models, Algorithm::Auto) {
            std::hint::black_box(r.expect("fleet member solves"));
        }
    });
    let solves_per_sec = 1e9 * size as f64 / median as f64;
    println!(
        "  fleet        size={size:<4} threads={threads:<2} median {median} ns \
         ({solves_per_sec:.0} anchor solves/s)"
    );
    BenchRecord {
        name: format!("fleet/anchor-solves-per-sec/{size}models/t{threads}"),
        n: n_max,
        backend: "fleet".to_string(),
        threads,
        median_ns: median,
    }
}

/// The fleet-of-1 acceptance baseline: the same member model the
/// `1models` record batches, solved directly (no cache, no batch) at one
/// thread. `fleet/anchor-solves-per-sec/1models/t1` must land within
/// ~10% of this.
fn time_fleet_baseline(runs: usize) -> BenchRecord {
    let model = fleet_member_model(0);
    parallel::set_threads(1);
    let median = median_ns(runs, || {
        std::hint::black_box(solve(&model, Algorithm::Auto).expect("baseline solves"));
    });
    println!("  fleet        single-model baseline  median {median} ns");
    BenchRecord {
        name: "fleet/anchor-solves-per-sec/single-model/t1".to_string(),
        n: model.dims().max_n(),
        backend: "single-model".to_string(),
        threads: 1,
        median_ns: median,
    }
}

/// One instrumented reference pass: solve the Table 2 fixture resiliently
/// under a scoped registry and return the snapshot JSON. Scoped (not
/// global) so it cannot leak recording into the timed runs.
fn obs_reference_snapshot() -> String {
    let reg = std::sync::Arc::new(xbar_obs::Registry::new());
    {
        let _g = xbar_obs::scope(&reg);
        for &n in &[32u32, 128] {
            let model = table2_model(n);
            xbar_core::solve_resilient(&model, &xbar_core::ResilientConfig::default())
                .expect("reference solve succeeds");
        }
    }
    reg.snapshot().to_json()
}

/// PR 9: the capacity planner's exhaustive search over the demo design
/// space — every candidate scored through the shared fleet-warmed
/// `SweepGrid`, so the per-candidate cost is an `O(C²/a)` recombination,
/// not a fresh solve.
fn time_plan(threads: usize, runs: usize) -> BenchRecord {
    let space = xbar_experiments::plan_frontier::space();
    let candidates = space.num_candidates();
    parallel::set_threads(threads);
    let cfg = xbar_plan::PlanConfig {
        strategy: xbar_plan::Strategy::Exhaustive {
            prune: false,
            batch: true,
        },
        ..Default::default()
    };
    let median = median_ns(runs, || {
        std::hint::black_box(xbar_plan::plan(&space, &cfg).expect("demo space is feasible"));
    });
    let per_sec = 1e9 * candidates as f64 / median as f64;
    println!(
        "  plan         cand={candidates:<4} threads={threads:<2} median {median} ns \
         ({per_sec:.0} candidates/s)"
    );
    BenchRecord {
        name: format!("plan/candidates-per-sec/{candidates}cand/t{threads}"),
        n: 8,
        backend: "plan".to_string(),
        threads,
        median_ns: median,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fleet_only = args.iter().any(|a| a == "--fleet-only");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_10.json".to_string());
    let auto = parallel::effective_threads();
    println!("perf_trajectory: auto thread count = {auto}");

    let mut records = Vec::new();
    if !fleet_only {
        for &(n, runs) in &[(32u32, 40usize), (128, 15), (512, 5)] {
            let model = table2_model(n);
            // Plain f64 underflows past N ~ 64; only time it in range.
            if n <= 64 {
                records.push(time_backend("alg1-f64", n, 1, &model, runs));
            }
            for backend in ["alg1-ext", "alg1-scaled"] {
                records.push(time_backend(backend, n, 1, &model, runs));
                if auto > 1 {
                    records.push(time_backend(backend, n, auto, &model, runs));
                }
            }
        }

        // PR 5: the incremental sweep solver vs fresh solves, and the exact
        // sensitivity vs the FD oracle, at both ends of the thread matrix.
        // (FD at N = 512 pays dozens of full ExtFloat solves — one run.)
        for &(n, runs) in &[(32u32, 40usize), (128, 15), (512, 5)] {
            for &threads in &[1usize, 4] {
                records.extend(time_sweep_points(n, threads, runs));
                records.extend(time_sensitivity(
                    n,
                    threads,
                    if n >= 512 { 1 } else { runs },
                ));
            }
        }
        parallel::set_threads(0);

        records.push(time_admission_replay("cs", PolicySpec::CompleteSharing, 15));
        records.push(time_admission_replay(
            "trunk",
            PolicySpec::TrunkReservation(vec![0, 2]),
            15,
        ));
        records.push(time_admission_replay(
            "shadow",
            PolicySpec::ShadowPrice { reserve: 2 },
            15,
        ));

        // The zero-rebuild replay hot loop vs the legacy loop.
        records.extend(time_sim_hot_loop(9));

        // PR 6: the serve daemon's durable multi-tenant ingest path.
        records.push(time_serve_ingest(100, 5));

        // PR 8: the per-batch repricing pass vs the full re-anchor solve
        // it replaces, at the acceptance size and both thread counts.
        for &threads in &[1usize, 4] {
            records.extend(time_reprice(512, threads, 3));
        }
        parallel::set_threads(0);

        // PR 9: the capacity planner's exhaustive demo search at both
        // ends of the thread matrix.
        for &threads in &[1usize, 4] {
            records.push(time_plan(threads, 10));
        }
        parallel::set_threads(0);
    }

    // PR 7: batched fleet anchor solves across the thread matrix, plus
    // the single-model baseline the fleet-of-1 record is held against.
    for &(size, runs) in &[(1usize, 40usize), (16, 15), (100, 7)] {
        for &threads in &[1usize, 4] {
            records.push(time_fleet(size, threads, runs));
        }
    }
    records.push(time_fleet_baseline(40));
    parallel::set_threads(0);

    let report = BenchReport {
        pr: 10,
        host_threads: auto,
        records,
        obs_snapshot: Some(obs_reference_snapshot()),
    };
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write BENCH_10.json");
    println!("wrote {out_path}");
}
