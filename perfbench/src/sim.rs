//! `sim-ci`: repeated `run_sim_until_ci` on a 16×16 crossbar with port
//! failures, replications run by the harness, until every class's 99%
//! blocking interval is narrower than a fixed half-width.
//!
//! An op fails when it stops at the replication cap without meeting the
//! target, or when any class breaks `offered = accepted + blocked` with
//! `blocked = capacity-blocked + fault-blocked` (fault-blocked at most
//! blocked).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::SplitMix64;
use xbar_core::Dims;
use xbar_sim::service::ServiceDist;
use xbar_sim::{
    run_sim_until_ci, CiTarget, Confidence, CrossbarSim, FaultConfig, RepConfig, RunConfig,
    SimConfig, SimReplications,
};
use xbar_traffic::TrafficClass;

use crate::host::thread_cpu_time;
use crate::reference::Reference;
use crate::serve::{counter, set_core_counts, write_trace};
use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Outcome, Recorder, RunOpts, THREADS};

/// Config builds per `setup_s` sample: about a fifth of a millisecond
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

/// Ops made under the scoped registry in a traced run.
const TRACED_OPS: usize = 24;

/// The fixed 99% half-width target on every class's call blocking.
pub const HALF_WIDTH: f64 = 0.01;

/// The adaptive-stopping schedule: the first round of 24 replications
/// meets the target for most ops (they need about 17 on average), so op
/// cost is steady and the ops that need another round of 4 set the tail.
pub fn target() -> CiTarget {
    CiTarget {
        half_width: HALF_WIDTH,
        initial: 24,
        step: 4,
        max: 64,
    }
}

/// The simulated switch: three classes (Poisson, peaky Pascal, and a
/// Poisson class at `a = 2`) with exponential holding times, and ports
/// that fail and get repaired (MTBF 200, MTTR 10 holding times).
pub fn config() -> SimConfig {
    let dims = Dims::square(16);
    let per_set = |erlangs: f64, a: u32| {
        let perm = |n: u32| (0..a).map(|i| (n - i) as f64).product::<f64>();
        erlangs / (perm(dims.n1) * perm(dims.n2))
    };
    let classes = [
        TrafficClass::poisson(per_set(2.0, 1)),
        TrafficClass::bpp(per_set(0.6, 1), per_set(0.4, 1), 1.0),
        TrafficClass::poisson(per_set(0.8, 2)).with_bandwidth(2),
    ];
    classes
        .into_iter()
        .fold(SimConfig::new(dims.n1, dims.n2), |cfg, c| {
            let mu = c.mu;
            cfg.with_class(c, ServiceDist::exponential(mu))
        })
        .with_faults(FaultConfig::from_mtbf_mttr(200.0, 10.0))
}

/// Run length of one replication.
pub fn run_config() -> RunConfig {
    RunConfig {
        warmup: 50.0,
        duration: 2000.0,
        batches: 10,
    }
}

fn rep(master_seed: u64) -> RepConfig {
    RepConfig {
        replications: 0,
        master_seed,
        confidence: Confidence::P99,
    }
}

/// One op.
pub fn op(cfg: &SimConfig, master_seed: u64) -> Result<SimReplications, String> {
    run_sim_until_ci(cfg, &run_config(), &rep(master_seed), target()).map_err(|e| e.to_string())
}

/// Whether an op's result meets the target and keeps the per-class
/// accounting identity.
pub fn op_ok(result: &SimReplications) -> bool {
    let met = result
        .classes
        .iter()
        .all(|c| c.blocking.half_width <= HALF_WIDTH);
    let identity = result.classes.iter().all(|c| {
        c.fault_blocked <= c.blocked && c.offered == c.accepted + c.blocked && c.offered > 0
    });
    met && identity
}

/// One `setup_s` sample: the mean CPU time of `BUILDS_PER_SAMPLE` builds
/// (one build takes about a microsecond), not yet normalised.
fn setup_sample() -> f64 {
    let t = thread_cpu_time();
    for _ in 0..BUILDS_PER_SAMPLE {
        let sim = CrossbarSim::try_new(config(), 0).is_ok();
        std::hint::black_box(sim);
    }
    (thread_cpu_time() - t).as_secs_f64() / BUILDS_PER_SAMPLE as f64
}

/// The end-to-end run: ops until the budget is spent.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = config();
    let mut seeds = Rng::new(opts.seed, 30);
    let mut out = Outcome::new();
    let mut lat = Recorder::windowed(OPS_PER_WINDOW);
    let mut setups = Vec::new();
    let mut reference = Reference::new();
    let deadline = opts.deadline(Instant::now());
    while Instant::now() < deadline {
        // A set-up sample normalised by the reference pass before it, and
        // an op normalised by the passes before and after it.
        setups.push(setup_sample() * reference.scale());
        let t = Instant::now();
        let result = op(&cfg, seeds.next_u64());
        let ns = t.elapsed().as_nanos() as f64;
        reference.sample();
        lat.record(ns * reference.scale_between());
        out.attempted += 1;
        if !result.as_ref().is_ok_and(op_ok) {
            out.failed += 1;
        }
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} sim ops missed the target or broke the accounting",
            out.failed, out.attempted
        ));
    }
    let rate = lat.report(&mut out);
    out.set("ops_per_s", rate);
    out.set("setup_s", crate::setup_s(&setups));
    Ok(out)
}

/// The traced run: a fixed set of ops untraced and then traced, and a
/// one-thread replay of every replication they ran.
pub fn trace(opts: &RunOpts) -> Result<Outcome, String> {
    let cfg = config();
    let mut seeds = Rng::new(opts.seed, 30);
    let masters: Vec<u64> = (0..TRACED_OPS).map(|_| seeds.next_u64()).collect();
    let mut out = Outcome::new();
    let mut tracer = Tracer::new(20_000);

    let mut untraced_s = 0.0;
    let mut results = Vec::new();
    for &m in &masters {
        let t = Instant::now();
        let r = op(&cfg, m)?;
        untraced_s += t.elapsed().as_secs_f64();
        out.failed += u64::from(!op_ok(&r));
        results.push(r);
    }
    let reg = Arc::new(xbar_obs::Registry::new());
    let op_name = tracer.name("sim.op");
    {
        let _scope = xbar_obs::scope(&reg);
        for &m in &masters {
            let r = tracer.call(op_name, None, || op(&cfg, m))?;
            out.failed += u64::from(!op_ok(&r));
        }
    }
    out.attempted = 2 * TRACED_OPS as u64;
    if out.failed > 0 {
        out.problem(format!("{} traced-run sim ops failed", out.failed));
    }
    let traced_s = tracer.total_ns("sim.op") * 1e-9;
    out.set("trace.overhead_share", traced_s / untraced_s - 1.0);

    // Every replication again, one at a time on this thread.
    let rep_name = tracer.name("sim.replication");
    let root_name = tracer.name("replay.sim");
    let root = tracer.begin(root_name, None);
    let parent = Some(root.id());
    let mut events = 0u64;
    for (&m, r) in masters.iter().zip(&results) {
        for index in 0..r.replications {
            let seed = SplitMix64::stream_seed(m, index);
            let report = tracer.call(rep_name, parent, || {
                CrossbarSim::new(cfg.clone(), seed).run(run_config())
            });
            events += report.events;
        }
    }
    tracer.end(root);
    let reps_s = tracer.total_ns("sim.replication") * 1e-9;
    out.set("sim.event_ns", reps_s * 1e9 / events.max(1) as f64);
    out.set("harness.busy_share", reps_s / (THREADS as f64 * untraced_s));

    let snap = reg.snapshot();
    let ops = TRACED_OPS as f64;
    out.set("sim.events", counter(&snap, "sim.rep.events") / ops);
    out.set(
        "sim.replications",
        counter(&snap, "sim.rep.replications") / ops,
    );
    out.set("sim.rounds", counter(&snap, "sim.rep.rounds") / ops);
    out.set(
        "sim.port_failures",
        counter(&snap, "sim.port_failures") / ops,
    );
    out.set("sim.teardowns", counter(&snap, "sim.teardowns") / ops);
    set_core_counts(&mut out, &snap);
    eprintln!(
        "sim-ci: per op {:.1} ms on {THREADS} threads; replications {:.1} ms on one; \
         {:.1} replications/op",
        untraced_s * 1e3 / ops,
        reps_s * 1e3 / ops,
        counter(&snap, "sim.rep.replications") / ops
    );
    write_trace(&tracer, opts, "sim-ci");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_check_accepts_a_real_op_and_rejects_wrong_answers() {
        let cfg = config();
        let good = op(&cfg, Rng::new(1, 30).next_u64()).unwrap();
        assert!(op_ok(&good));
        assert!(good.replications < target().max);
        let mut wide = good.clone();
        wide.classes[0].blocking.half_width = 2.0 * HALF_WIDTH;
        assert!(!op_ok(&wide), "a missed target is a failure");
        let mut leaky = good;
        leaky.classes[1].accepted += 1;
        assert!(!op_ok(&leaky), "a broken offers identity is a failure");
    }

    #[test]
    fn ports_fail_and_calls_are_torn_down() {
        let report = CrossbarSim::new(config(), 3).run(run_config());
        let faults = report.faults.expect("fault injection is on");
        assert!(faults.failures > 0);
        assert!(faults.torn_down > 0);
    }
}
