//! `plan-grid`: repeated exhaustive `xbar_plan::plan` calls, pruning and
//! fleet-warmed batch builds on, over a seeded design space.
//!
//! The reference optimum for the seed is the argmax of full analytic
//! solves (`xbar_core::solve`) over every grid candidate, so each call is
//! checked against an answer computed without the sweep machinery the
//! planner uses.

use std::sync::Arc;
use std::time::Instant;

use xbar_core::{solve, Algorithm, Dims, Model, SweepGrid, SweepSolver};
use xbar_plan::{plan, Candidate, DesignSpace, PlanConfig, PlanReport, RhoAxis, Slo, Strategy};
use xbar_traffic::{TrafficClass, Workload};

use crate::host::thread_cpu_time;
use crate::reference::Reference;
use crate::serve::{counter, set_core_counts, write_trace};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Outcome, Recorder, RunOpts, THREADS};

/// Design-space builds per `setup_s` sample: about a fifth of a millisecond
/// together, so the first, cache-cold builds weigh little.
const BUILDS_PER_SAMPLE: u32 = 400;

/// Ops per window of the windowed 99th percentile (see
/// [`Recorder::windowed`]): a run makes a few hundred ops, so the p99 over
/// every op is its third to sixth slowest, and one host stall of tens of
/// milliseconds in a few ops moved it by a third (sim-ci, set spread 0.26
/// against 0.02 to 0.08 for every other plan and sim time). The p99 of a
/// window of 50 is its slowest op, and the median over the windows passes
/// over stalls that hit fewer than half of them.
const OPS_PER_WINDOW: usize = 50;

/// `plan` calls made under the scoped registry in a traced run.
const TRACED_CALLS: usize = 10;

/// Relative tolerance between the planner's optimum objective and the
/// full-solve reference.
const OBJECTIVE_RTOL: f64 = 1e-9;

/// The planner configuration every call uses.
pub fn config() -> PlanConfig {
    PlanConfig {
        algorithm: Algorithm::Auto,
        strategy: Strategy::Exhaustive {
            prune: true,
            batch: true,
        },
        ..PlanConfig::default()
    }
}

/// The design space for `seed`: five square geometries up to N = 512,
/// two load axes (a Poisson class and a peaky class at `a = 2`), and a
/// blocking SLO on the wideband class that the largest loads violate.
pub fn space(seed: u64) -> DesignSpace {
    let mut rng = Rng::new(seed, 20);
    let mut jitter = |x: f64| x * (0.9 + 0.2 * rng.uniform());
    let base = Model::new(
        Dims::square(64),
        Workload::new()
            .with(TrafficClass::poisson(5e-5))
            .with(TrafficClass::bpp(2e-5, 1e-6, 1.0).with_weight(1.5))
            .with(
                TrafficClass::poisson(5e-11)
                    .with_bandwidth(2)
                    .with_weight(4.0),
            ),
    )
    .expect("plan-grid base model is valid");
    let mut space = DesignSpace::new(base);
    for n in [48, 96, 192, 320, 512] {
        space = space.with_geometry(Dims::square(n));
    }
    space
        .with_axis(RhoAxis {
            class: 0,
            lo: jitter(5e-6),
            hi: jitter(2e-4),
            steps: 6,
        })
        .with_axis(RhoAxis {
            class: 2,
            lo: jitter(1e-11),
            hi: jitter(2e-10),
            steps: 6,
        })
        .with_slo(Slo {
            class: 2,
            max_blocking: 0.3,
        })
}

/// The reference optimum: candidate index and objective of the feasible
/// argmax (first in canonical order on ties) over full solves of every
/// grid candidate.
pub fn reference(space: &DesignSpace, cfg: &PlanConfig) -> Result<(u64, f64), String> {
    let mut best: Option<(u64, f64)> = None;
    for i in 0..space.num_candidates() {
        let c = space.candidate(i);
        let model = space.model_for(&c).map_err(|e| e.to_string())?;
        let sol = solve(&model, cfg.algorithm).map_err(|e| e.to_string())?;
        let feasible = space
            .slos
            .iter()
            .all(|s| 1.0 - sol.call_acceptance(s.class) <= s.max_blocking);
        let objective = sol.revenue();
        if feasible && best.is_none_or(|(_, b)| objective > b) {
            best = Some((i, objective));
        }
    }
    best.ok_or_else(|| "the plan-grid space has no feasible candidate".to_string())
}

/// Whether a plan result matches the reference optimum.
pub fn matches(result: &Result<PlanReport, xbar_plan::PlanError>, want: (u64, f64)) -> bool {
    match result {
        Ok(r) => {
            r.optimum.candidate.index == want.0
                && (r.optimum.objective - want.1).abs() <= OBJECTIVE_RTOL * want.1.abs()
        }
        Err(_) => false,
    }
}

/// One `setup_s` sample: the mean CPU time of `BUILDS_PER_SAMPLE` builds
/// (one build takes about a microsecond), not yet normalised.
fn setup_sample(seed: u64) -> f64 {
    let t = thread_cpu_time();
    for _ in 0..BUILDS_PER_SAMPLE {
        let s = space(seed);
        let ok = s.validate().is_ok();
        std::hint::black_box((s, ok));
    }
    (thread_cpu_time() - t).as_secs_f64() / BUILDS_PER_SAMPLE as f64
}

/// The end-to-end run: `plan` calls until the budget is spent.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = config();
    let space = space(opts.seed);
    let want = reference(&space, &cfg)?;
    let mut out = Outcome::new();
    let mut lat = Recorder::windowed(OPS_PER_WINDOW);
    let mut setups = Vec::new();
    let mut reference = Reference::new();
    let deadline = opts.deadline(Instant::now());
    while Instant::now() < deadline {
        // A set-up sample normalised by the reference pass before it, and
        // an op normalised by the passes before and after it.
        setups.push(setup_sample(opts.seed) * reference.scale());
        let t = Instant::now();
        let result = plan(&space, &cfg);
        let ns = t.elapsed().as_nanos() as f64;
        reference.sample();
        lat.record(ns * reference.scale_between());
        out.attempted += 1;
        if !matches(&result, want) {
            out.failed += 1;
        }
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} plan calls missed the reference optimum {want:?}",
            out.failed, out.attempted
        ));
    }
    let rate = lat.report(&mut out);
    out.set("ops_per_s", rate);
    out.set("setup_s", crate::setup_s(&setups));
    Ok(out)
}

/// The traced run: untraced and traced `plan` calls, then a replay of
/// every sweep build and recombination the calls made.
pub fn trace(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = config();
    let space = space(opts.seed);
    let want = reference(&space, &cfg)?;
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(20_000);

    let mut untraced = Vec::new();
    let mut report = None;
    for _ in 0..TRACED_CALLS {
        let t = Instant::now();
        let r = plan(&space, &cfg);
        untraced.push(t.elapsed().as_secs_f64());
        if !matches(&r, want) {
            out.failed += 1;
        }
        report = r.ok();
    }
    let report = report.ok_or("plan failed")?;

    let reg = Arc::new(xbar_obs::Registry::new());
    let call_name = tracer.name("plan.plan");
    {
        let _scope = xbar_obs::scope(&reg);
        for _ in 0..TRACED_CALLS {
            let r = tracer.call(call_name, None, || plan(&space, &cfg));
            if !matches(&r, want) {
                out.failed += 1;
            }
        }
    }
    out.attempted = 2 * TRACED_CALLS as u64;
    if out.failed > 0 {
        out.problem(format!(
            "{} traced-run plan calls missed the reference",
            out.failed
        ));
    }
    let snap = reg.snapshot();
    let untraced_s = untraced.iter().sum::<f64>() / untraced.len() as f64;
    let traced_s = tracer.mean_ns("plan.plan") * 1e-9;
    out.set("trace.overhead_share", traced_s / untraced_s - 1.0);

    let warm_s = replay(&space, &cfg, &report, &mut tracer)?;
    let builds_s = tracer.total_ns("core.sweep_build") * 1e-9;
    let recombine_s = tracer.total_ns("core.recombine") * 1e-9;
    out.set(
        "core.sweep_build_us",
        tracer.mean_ns("core.sweep_build") / 1e3,
    );
    out.set("core.recombine_us", tracer.mean_ns("core.recombine") / 1e3);
    out.set("plan.pool_busy_share", builds_s / (THREADS as f64 * warm_s));
    out.set("plan.report_us", (untraced_s - warm_s - recombine_s) * 1e6);
    let calls = TRACED_CALLS as f64;
    out.set("plan.evaluated", counter(&snap, "plan.evaluated") / calls);
    out.set("plan.pruned", counter(&snap, "plan.pruned") / calls);
    out.set(
        "plan.prune_ratio",
        counter(&snap, "plan.pruned") / counter(&snap, "plan.candidates").max(1.0),
    );
    set_core_counts(&mut out, &snap);
    for name in [
        "core.sweep_builds",
        "core.recombines",
        "core.escalations",
        "core.lattice_cells",
        "core.anchor_solves",
        "core.cache_hits",
    ] {
        let per_call = out.get(name).unwrap_or(0.0) / calls;
        out.set(name, per_call);
    }
    eprintln!(
        "plan-grid: per call {:.1} ms = warm {:.1} ms (builds {:.1} ms on {THREADS} threads) + \
         recombine {:.2} ms + plan self {:.2} ms",
        untraced_s * 1e3,
        warm_s * 1e3,
        builds_s * 1e3,
        recombine_s * 1e3,
        (untraced_s - warm_s - recombine_s) * 1e3
    );
    write_trace(&tracer, opts, "plan-grid");
    Ok(out)
}

/// Rebuild each `SweepSolver` the call built (one per scanline: the grid
/// shares a leave-one-out precompute along the innermost axis) and
/// recombine each evaluated candidate; then time the same builds through
/// `SweepGrid::warm` on the worker pool. Returns the warm's wall time.
fn replay(
    space: &DesignSpace,
    cfg: &PlanConfig,
    report: &PlanReport,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let root_name = tracer.name("replay.plan");
    let build_name = tracer.name("core.sweep_build");
    let recombine_name = tracer.name("core.recombine");
    let warm_name = tracer.name("core.grid_warm");
    let r = space.sweep_class();
    let scanline = |c: &Candidate| (c.geometry, c.rho[..c.rho.len() - 1].to_vec());
    let root = tracer.begin(root_name, None);
    let parent = Some(root.id());
    let mut current: Option<((Dims, Vec<f64>), SweepSolver)> = None;
    let mut pairs = Vec::new();
    for ev in &report.evaluations {
        let model = space.model_for(&ev.candidate).map_err(|e| e.to_string())?;
        let key = scanline(&ev.candidate);
        if current.as_ref().is_none_or(|(k, _)| *k != key) {
            let solver = tracer
                .call(build_name, parent, || {
                    SweepSolver::new(&model, cfg.algorithm)
                })
                .map_err(|e| e.to_string())?;
            pairs.push((model.clone(), r));
            current = Some((key, solver));
        }
        let (_, solver) = current.as_ref().expect("solver built above");
        let class = model.workload().classes()[r].clone();
        tracer
            .call(recombine_name, parent, || solver.solve_with_class(r, class))
            .map_err(|e| e.to_string())?;
    }
    tracer.end(root);
    let grid = SweepGrid::new(cfg.algorithm);
    let t = tracer.begin(warm_name, None);
    grid.warm(&pairs);
    let warm_ns = tracer.end(t);
    Ok(warm_ns as f64 * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_check_accepts_the_planner_and_rejects_a_wrong_answer() {
        let cfg = config();
        let space = space(1);
        let want = reference(&space, &cfg).unwrap();
        let result = plan(&space, &cfg);
        assert!(matches(&result, want));
        // Another candidate, or the right one with a perturbed objective,
        // is a wrong answer.
        assert!(!matches(&result, (want.0 + 1, want.1)));
        assert!(!matches(&result, (want.0, want.1 * (1.0 + 1e-6))));
    }

    #[test]
    fn the_space_prunes_and_has_an_interior_optimum() {
        let report = plan(&space(2), &config()).unwrap();
        assert!(report.pruned > 0, "some scanline crosses the SLO");
        assert!(report.evaluations.iter().any(|e| !e.feasible));
    }
}
