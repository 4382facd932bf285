//! Batched, deterministic multi-replication simulation engine.
//!
//! Every statistical claim in this repo bottoms out in one of three
//! simulators (the [`replay`](crate::replay) admission driver, the
//! [`CrossbarSim`] recorder, the [`RetrialSim`] retrial queue). A single
//! long run buys precision slowly — batch means over one autocorrelated
//! path — and serially. This harness instead fans **N independent
//! replications** over the persistent worker pool
//! ([`xbar_core::parallel::run_scoped`]) and merges their statistics with
//! a single-pass reducer.
//!
//! # Determinism
//!
//! Replication `i` runs on the RNG stream derived from
//! `(master_seed, i)` via [`SplitMix64::stream_seed`] — a pure function
//! of the pair, never of thread identity, worker count, or scheduling
//! order. Results land in index-ordered slots and the reducer folds them
//! serially on the calling thread, so the merged report is **bitwise
//! identical for any `XBAR_THREADS`** (pinned by a proptest and a CI
//! smoke that diffs t1 vs t4 CLI output). Inside a pool worker each
//! replication pins its nested parallelism to one thread
//! ([`parallel::with_threads`]) — solver results are bit-identical across
//! thread counts anyway (the wavefront and fleet equivalence batteries),
//! this just avoids oversubscribing the pool.
//!
//! # Adaptive stopping
//!
//! The `*_until_ci` variants ([`run_until_ci`], [`run_sim_until_ci`],
//! [`run_retrial_until_ci`]) grow the replication count in fixed rounds
//! until the merged interval's half-width reaches a target (or a cap),
//! so tests stop spending events past the precision they assert. Round
//! sizes are fixed and replication `i` is the same replication in every
//! schedule, so adaptive runs are exactly as deterministic as fixed ones.
//!
//! All six `run_*` front-ends go through one loop: each simulator
//! implements a private `Replicate` trait (run one seeded replication,
//! merge reports, give the stopping width, count events), and a fixed
//! count is the one-round special case of the adaptive schedule.
//!
//! # Observability
//!
//! Workers re-install the caller's scoped obs registry
//! ([`xbar_obs::current_scope`]), so per-event counters from inside the
//! replications (`sim.events`, `replay.events`, the admission ledger)
//! land in the caller's scope exactly as a serial run's would. The
//! harness itself adds `sim.rep.runs` / `sim.rep.replications` /
//! `sim.rep.rounds` / `sim.rep.events` on the calling thread after the
//! merge.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::SplitMix64;
use xbar_admission::AdmissionError;
use xbar_core::{parallel, Model};

use crate::crossbar::{CrossbarSim, RunConfig, SimConfig, SimError, SimReport};
use crate::replay::{replay, ReplayConfig, ReplayReport};
use crate::retrial::{RetrialConfig, RetrialReport, RetrialSim};
use crate::stats::{BatchMeans, Confidence, Estimate};

/// Harness parameters shared by all three simulator front-ends.
#[derive(Clone, Copy, Debug)]
pub struct RepConfig {
    /// Independent replications to run.
    pub replications: u64,
    /// Master seed the per-replication streams derive from.
    pub master_seed: u64,
    /// Confidence level of the merged across-replication intervals.
    pub confidence: Confidence,
}

impl Default for RepConfig {
    fn default() -> Self {
        RepConfig {
            replications: 8,
            master_seed: 1,
            confidence: Confidence::P99,
        }
    }
}

/// Adaptive-stopping policy for the `*_until_ci` variants.
#[derive(Clone, Copy, Debug)]
pub struct CiTarget {
    /// Stop once the merged interval's half-width is at or below this.
    pub half_width: f64,
    /// Replications in the first round (≥ 2 so an interval exists).
    pub initial: u64,
    /// Replications added per subsequent round.
    pub step: u64,
    /// Hard cap on total replications (the run stops here even if the
    /// target was not reached — callers can check the returned width).
    pub max: u64,
}

impl CiTarget {
    /// Target `half_width` with the default schedule (4 initial, +2 per
    /// round, capped at 64).
    pub fn new(half_width: f64) -> Self {
        CiTarget {
            half_width,
            initial: 4,
            step: 2,
            max: 64,
        }
    }
}

/// Run `job` once per replication in `[start, start + count)`, on the
/// seed `SplitMix64::stream_seed(master_seed, index)`, and return the
/// results in index order. Adaptive rounds extend (never re-run) the
/// previous rounds' replication sequence. See the module docs for the
/// determinism argument.
fn replicate_range<T, F>(start: u64, count: u64, master_seed: u64, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let n = count as usize;
    if n == 0 {
        return Vec::new();
    }
    let run_one = |i: usize| job(SplitMix64::stream_seed(master_seed, start + i as u64));
    let threads = parallel::effective_threads().min(n);
    if threads <= 1 {
        return (0..n).map(run_one).collect();
    }
    // Index-ordered slots: whichever worker runs replication i, its
    // result lands in slot i, and the caller folds the slots serially.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let scope = xbar_obs::current_scope();
    parallel::run_scoped(threads, |_worker| {
        let _obs = scope.enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let out = parallel::with_threads(1, || run_one(i));
            if let Ok(mut slot) = slots[i].lock() {
                *slot = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .ok()
                .flatten()
                .expect("replication slot filled by the pool")
        })
        .collect()
}

/// Across-replication estimate of a per-replication statistic: each
/// replication contributes its point estimate as one "batch", merged with
/// the same Student-t machinery the in-run batch means use.
fn across<R>(per_rep: &[R], confidence: Confidence, stat: impl Fn(&R) -> f64) -> Estimate {
    BatchMeans::from_batches(per_rep.iter().map(stat).collect()).estimate_at(confidence)
}

/// Sum of a per-replication count.
fn total<R>(per_rep: &[R], count: impl Fn(&R) -> u64) -> u64 {
    per_rep.iter().map(count).sum()
}

/// One simulator front-end of the harness: what a replication runs and
/// how replications merge.
trait Replicate: Sync {
    type Report: Send;
    type Merged;
    type Error: Send;
    /// Run one replication on the stream seeded by `seed`.
    fn run(&self, seed: u64) -> Result<Self::Report, Self::Error>;
    /// Fold the reports, in replication order, into the merged outcome.
    fn merge(per_rep: Vec<Self::Report>, rounds: u64, confidence: Confidence) -> Self::Merged;
    /// The merged half-width an adaptive run stops on.
    fn width(per_rep: &[Self::Report], confidence: Confidence) -> f64;
    /// The replication's contribution to `sim.rep.events`.
    fn events(report: &Self::Report) -> u64;
}

/// The one replication loop: `rep.replications` replications in one
/// round, or, with a `target`, rounds of `target.initial` (at least 2,
/// at most `target.max`) then `target.step` replications until the
/// stopping width reaches `target.half_width` or the cap. The first
/// error in replication order ends the run.
fn replicate_job<J: Replicate>(
    job: &J,
    rep: &RepConfig,
    target: Option<CiTarget>,
) -> Result<J::Merged, J::Error> {
    let mut per_rep: Vec<J::Report> = Vec::new();
    let mut rounds = 0u64;
    loop {
        let done = per_rep.len() as u64;
        let want = match target {
            None => rep.replications,
            Some(t) if rounds == 0 => t.initial.max(2).min(t.max),
            Some(t) => t.step.min(t.max - done),
        };
        for report in replicate_range(done, want, rep.master_seed, |seed| job.run(seed)) {
            per_rep.push(report?);
        }
        rounds += 1;
        let stop = match target {
            None => true,
            Some(t) => {
                J::width(&per_rep, rep.confidence) <= t.half_width || per_rep.len() as u64 >= t.max
            }
        };
        if stop {
            if xbar_obs::enabled() {
                xbar_obs::inc("sim.rep.runs");
                xbar_obs::add("sim.rep.replications", per_rep.len() as u64);
                xbar_obs::add("sim.rep.rounds", rounds);
                xbar_obs::add("sim.rep.events", total(&per_rep, J::events));
            }
            return Ok(J::merge(per_rep, rounds, rep.confidence));
        }
    }
}

/// The widest across-replication interval of the per-class statistic
/// `stat(report, class)` over the first report's classes.
fn widest<R>(
    per_rep: &[R],
    confidence: Confidence,
    classes: impl Fn(&R) -> usize,
    stat: impl Fn(&R, usize) -> f64,
) -> f64 {
    (0..per_rep.first().map_or(0, classes))
        .map(|r| across(per_rep, confidence, |rep| stat(rep, r)).half_width)
        .fold(0.0f64, f64::max)
}

// ---------------------------------------------------------------------------
// Replay (admission engine)
// ---------------------------------------------------------------------------

/// Merged per-class replay outcome.
#[derive(Clone, Debug)]
pub struct MergedClassReplay {
    /// Arrivals offered across all replications.
    pub offered: u64,
    /// Arrivals admitted across all replications.
    pub admitted: u64,
    /// Capacity denials across all replications.
    pub denied_capacity: u64,
    /// Policy denials across all replications.
    pub denied_policy: u64,
    /// Across-replication estimate of the admitted fraction.
    pub acceptance: Estimate,
    /// The anchor's analytic call acceptance (identical in every
    /// replication — same model, same anchor).
    pub analytic_acceptance: f64,
}

/// Merged outcome of a replay replication run.
#[derive(Clone, Debug)]
pub struct ReplayReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Events across all replications.
    pub events: u64,
    /// Arrivals across all replications.
    pub arrivals: u64,
    /// Departures across all replications.
    pub departures: u64,
    /// Per-class merged decision splits and acceptance estimates.
    pub classes: Vec<MergedClassReplay>,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<ReplayReport>,
}

/// A front-end's borrowed configuration: what one replication runs.
struct Job<'a, A, B>(&'a A, &'a B);

impl Replicate for Job<'_, Model, ReplayConfig> {
    type Report = ReplayReport;
    type Merged = ReplayReplications;
    type Error = AdmissionError;

    fn run(&self, seed: u64) -> Result<ReplayReport, AdmissionError> {
        replay(
            self.0,
            &ReplayConfig {
                seed,
                ..self.1.clone()
            },
        )
    }

    fn merge(
        per_rep: Vec<ReplayReport>,
        rounds: u64,
        confidence: Confidence,
    ) -> ReplayReplications {
        let r_count = per_rep.first().map_or(0, |rep| rep.classes.len());
        let classes = (0..r_count)
            .map(|r| MergedClassReplay {
                offered: total(&per_rep, |rep| rep.classes[r].offered),
                admitted: total(&per_rep, |rep| rep.classes[r].admitted),
                denied_capacity: total(&per_rep, |rep| rep.classes[r].denied_capacity),
                denied_policy: total(&per_rep, |rep| rep.classes[r].denied_policy),
                acceptance: across(&per_rep, confidence, |rep| rep.classes[r].acceptance.mean),
                analytic_acceptance: per_rep[0].classes[r].analytic_acceptance,
            })
            .collect();
        ReplayReplications {
            replications: per_rep.len() as u64,
            rounds,
            events: total(&per_rep, |rep| rep.events),
            arrivals: total(&per_rep, |rep| rep.arrivals),
            departures: total(&per_rep, |rep| rep.departures),
            classes,
            per_rep,
        }
    }

    fn width(per_rep: &[ReplayReport], confidence: Confidence) -> f64 {
        let classes = |rep: &ReplayReport| rep.classes.len();
        widest(per_rep, confidence, classes, |rep, r| {
            rep.classes[r].acceptance.mean
        })
    }

    fn events(report: &ReplayReport) -> u64 {
        report.events
    }
}

/// Fan `rep.replications` independent [`replay`] runs of `cfg` over the
/// worker pool and merge their statistics. Replication `i` replays
/// `cfg` with its seed replaced by stream `i` of `rep.master_seed`.
pub fn run_replications(
    model: &Model,
    cfg: &ReplayConfig,
    rep: &RepConfig,
) -> Result<ReplayReplications, AdmissionError> {
    replicate_job(&Job(model, cfg), rep, None)
}

/// Adaptive-stopping [`run_replications`]: grow the replication count by
/// `target.step` per round until every class's merged acceptance interval
/// has half-width ≤ `target.half_width` (or `target.max` replications).
pub fn run_until_ci(
    model: &Model,
    cfg: &ReplayConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> Result<ReplayReplications, AdmissionError> {
    replicate_job(&Job(model, cfg), rep, Some(target))
}

// ---------------------------------------------------------------------------
// CrossbarSim
// ---------------------------------------------------------------------------

/// Merged per-class crossbar outcome.
#[derive(Clone, Debug)]
pub struct MergedClassSim {
    /// Requests offered across all replications.
    pub offered: u64,
    /// Requests accepted across all replications.
    pub accepted: u64,
    /// Requests blocked across all replications.
    pub blocked: u64,
    /// Fault-blocked requests across all replications.
    pub fault_blocked: u64,
    /// Across-replication estimate of the call blocking ratio.
    pub blocking: Estimate,
    /// Across-replication estimate of the tuple availability.
    pub availability: Estimate,
    /// Across-replication estimate of the mean concurrency.
    pub concurrency: Estimate,
}

/// Merged outcome of a crossbar replication run.
#[derive(Clone, Debug)]
pub struct SimReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Events across all replications (measurement windows only).
    pub events: u64,
    /// Per-class merged reports.
    pub classes: Vec<MergedClassSim>,
    /// Across-replication estimate of the revenue rate.
    pub revenue: Estimate,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<SimReport>,
}

impl Replicate for Job<'_, SimConfig, RunConfig> {
    type Report = SimReport;
    type Merged = SimReplications;
    type Error = SimError;

    fn run(&self, seed: u64) -> Result<SimReport, SimError> {
        Ok(CrossbarSim::new(self.0.clone(), seed).run(*self.1))
    }

    fn merge(per_rep: Vec<SimReport>, rounds: u64, confidence: Confidence) -> SimReplications {
        let r_count = per_rep.first().map_or(0, |rep| rep.classes.len());
        let classes = (0..r_count)
            .map(|r| MergedClassSim {
                offered: total(&per_rep, |rep| rep.classes[r].offered),
                accepted: total(&per_rep, |rep| rep.classes[r].accepted),
                blocked: total(&per_rep, |rep| rep.classes[r].blocked),
                fault_blocked: total(&per_rep, |rep| rep.classes[r].fault_blocked),
                blocking: across(&per_rep, confidence, |rep| rep.classes[r].blocking.mean),
                availability: across(&per_rep, confidence, |rep| rep.classes[r].availability.mean),
                concurrency: across(&per_rep, confidence, |rep| rep.classes[r].concurrency.mean),
            })
            .collect();
        SimReplications {
            replications: per_rep.len() as u64,
            rounds,
            events: total(&per_rep, |rep| rep.events),
            classes,
            revenue: across(&per_rep, confidence, |rep| rep.revenue),
            per_rep,
        }
    }

    fn width(per_rep: &[SimReport], confidence: Confidence) -> f64 {
        let classes = |rep: &SimReport| rep.classes.len();
        widest(per_rep, confidence, classes, |rep, r| {
            rep.classes[r].blocking.mean
        })
    }

    fn events(report: &SimReport) -> u64 {
        report.events
    }
}

/// Fan `rep.replications` independent [`CrossbarSim`] runs over the
/// worker pool and merge their statistics.
pub fn run_sim_replications(
    cfg: &SimConfig,
    run: &RunConfig,
    rep: &RepConfig,
) -> Result<SimReplications, SimError> {
    // Validate once up front so workers can't trip the panicking path.
    CrossbarSim::try_new(cfg.clone(), 0)?;
    replicate_job(&Job(cfg, run), rep, None)
}

/// Adaptive-stopping [`run_sim_replications`]: rounds grow until every
/// class's merged *blocking* interval has half-width ≤
/// `target.half_width` (or `target.max` replications).
pub fn run_sim_until_ci(
    cfg: &SimConfig,
    run: &RunConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> Result<SimReplications, SimError> {
    CrossbarSim::try_new(cfg.clone(), 0)?;
    replicate_job(&Job(cfg, run), rep, Some(target))
}

// ---------------------------------------------------------------------------
// RetrialSim
// ---------------------------------------------------------------------------

/// Merged outcome of a retrial replication run.
#[derive(Clone, Debug)]
pub struct RetrialReplications {
    /// Replications actually run.
    pub replications: u64,
    /// Adaptive rounds taken (1 for fixed-count runs).
    pub rounds: u64,
    /// Measured calls across all replications.
    pub calls: u64,
    /// Carried calls across all replications.
    pub carried: u64,
    /// Lost calls across all replications.
    pub lost: u64,
    /// Calls still in back-off at their run's end, across replications.
    pub pending: u64,
    /// Attempts across all replications.
    pub attempts: u64,
    /// Blocked attempts across all replications.
    pub blocked_attempts: u64,
    /// Retries scheduled across all replications.
    pub retries: u64,
    /// Across-replication estimate of the final loss probability.
    pub loss: Estimate,
    /// Across-replication estimate of the per-attempt blocking.
    pub attempt_blocking: Estimate,
    /// The individual replication reports, in replication order.
    pub per_rep: Vec<RetrialReport>,
}

impl Replicate for Job<'_, RetrialConfig, RunConfig> {
    type Report = RetrialReport;
    type Merged = RetrialReplications;
    type Error = std::convert::Infallible;

    fn run(&self, seed: u64) -> Result<RetrialReport, Self::Error> {
        let Job(cfg, run) = *self;
        Ok(RetrialSim::new(cfg.clone(), seed).run(run.warmup, run.duration, run.batches))
    }

    fn merge(
        per_rep: Vec<RetrialReport>,
        rounds: u64,
        confidence: Confidence,
    ) -> RetrialReplications {
        RetrialReplications {
            replications: per_rep.len() as u64,
            rounds,
            calls: total(&per_rep, |rep| rep.calls),
            carried: total(&per_rep, |rep| rep.carried),
            lost: total(&per_rep, |rep| rep.lost),
            pending: total(&per_rep, |rep| rep.pending),
            attempts: total(&per_rep, |rep| rep.attempts),
            blocked_attempts: total(&per_rep, |rep| rep.blocked_attempts),
            retries: total(&per_rep, |rep| rep.retries),
            loss: across(&per_rep, confidence, |rep| rep.loss.mean),
            attempt_blocking: across(&per_rep, confidence, |rep| rep.attempt_blocking.mean),
            per_rep,
        }
    }

    fn width(per_rep: &[RetrialReport], confidence: Confidence) -> f64 {
        across(per_rep, confidence, |rep| rep.loss.mean).half_width
    }

    /// Retrial runs count attempts, not events.
    fn events(report: &RetrialReport) -> u64 {
        report.attempts
    }
}

/// Fan `rep.replications` independent [`RetrialSim`] runs over the worker
/// pool and merge their statistics.
pub fn run_retrial_replications(
    cfg: &RetrialConfig,
    run: &RunConfig,
    rep: &RepConfig,
) -> RetrialReplications {
    replicate_job(&Job(cfg, run), rep, None).unwrap_or_else(|e| match e {})
}

/// Adaptive-stopping [`run_retrial_replications`]: rounds grow until the
/// merged *loss* interval has half-width ≤ `target.half_width` (or
/// `target.max` replications).
pub fn run_retrial_until_ci(
    cfg: &RetrialConfig,
    run: &RunConfig,
    rep: &RepConfig,
    target: CiTarget,
) -> RetrialReplications {
    replicate_job(&Job(cfg, run), rep, Some(target)).unwrap_or_else(|e| match e {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.1))
            .with(TrafficClass::bpp(0.08, 0.04, 1.0));
        Model::new(Dims::new(6, 8), w).expect("valid model")
    }

    fn replay_cfg(events: u64) -> ReplayConfig {
        ReplayConfig {
            events,
            ..ReplayConfig::default()
        }
    }

    #[test]
    fn replicate_preserves_index_order_for_any_worker_count() {
        for threads in [1usize, 2, 3, 4] {
            let out = parallel::with_threads(threads, || replicate_range(0, 17, 5, |seed| seed));
            assert_eq!(out.len(), 17);
            for (i, seed) in out.iter().enumerate() {
                assert_eq!(
                    *seed,
                    rand::rngs::SplitMix64::stream_seed(5, i as u64),
                    "seed depends only on (master, index)"
                );
            }
        }
    }

    #[test]
    fn merged_replay_is_bitwise_identical_across_worker_counts() {
        let model = model();
        let cfg = replay_cfg(8_000);
        let rep = RepConfig {
            replications: 6,
            master_seed: 31,
            confidence: Confidence::P99,
        };
        let base = parallel::with_threads(1, || run_replications(&model, &cfg, &rep))
            .expect("replay runs");
        for threads in [2usize, 4] {
            let got = parallel::with_threads(threads, || run_replications(&model, &cfg, &rep))
                .expect("replay runs");
            assert_eq!(got.events, base.events);
            assert_eq!(got.arrivals, base.arrivals);
            for (a, b) in got.classes.iter().zip(&base.classes) {
                assert_eq!(a.offered, b.offered);
                assert_eq!(a.admitted, b.admitted);
                assert_eq!(a.acceptance.mean.to_bits(), b.acceptance.mean.to_bits());
                assert_eq!(
                    a.acceptance.half_width.to_bits(),
                    b.acceptance.half_width.to_bits()
                );
            }
        }
    }

    #[test]
    fn until_ci_extends_rather_than_reruns_replications() {
        let model = model();
        let cfg = replay_cfg(4_000);
        let rep = RepConfig {
            replications: 0, // ignored by the adaptive path
            master_seed: 7,
            confidence: Confidence::P95,
        };
        // Impossible target: the run must stop at the cap, having taken
        // multiple rounds.
        let target = CiTarget {
            half_width: 0.0,
            initial: 2,
            step: 2,
            max: 8,
        };
        let merged = run_until_ci(&model, &cfg, &rep, target).expect("replay runs");
        assert_eq!(merged.replications, 8);
        assert!(merged.rounds > 1);
        // Replication i of the adaptive run is replication i of a fixed
        // 8-replication run: same streams, same results.
        let fixed = run_replications(
            &model,
            &cfg,
            &RepConfig {
                replications: 8,
                master_seed: 7,
                confidence: Confidence::P95,
            },
        )
        .expect("replay runs");
        assert_eq!(merged.events, fixed.events);
        for (a, b) in merged.per_rep.iter().zip(&fixed.per_rep) {
            assert_eq!(a.arrivals, b.arrivals);
            assert_eq!(a.classes[0].offered, b.classes[0].offered);
        }
        // An easy target stops at the first round.
        let easy = run_until_ci(&model, &cfg, &rep, CiTarget::new(1.0)).expect("replay runs");
        assert_eq!(easy.rounds, 1);
        assert_eq!(easy.replications, 4);
    }

    #[test]
    fn harness_obs_counters_flow_to_the_callers_scope() {
        let registry = std::sync::Arc::new(xbar_obs::Registry::new());
        let model = model();
        let cfg = replay_cfg(2_000);
        let rep = RepConfig {
            replications: 3,
            master_seed: 2,
            confidence: Confidence::P95,
        };
        let merged = {
            let _scope = xbar_obs::scope(&registry);
            parallel::with_threads(2, || run_replications(&model, &cfg, &rep)).expect("replay runs")
        };
        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim.rep.runs"), Some(1));
        assert_eq!(snap.counter("sim.rep.replications"), Some(3));
        assert_eq!(snap.counter("sim.rep.rounds"), Some(1));
        assert_eq!(snap.counter("sim.rep.events"), Some(merged.events));
        // Worker-side counters landed in the same scope: each of the 3
        // replications recorded its replay.events.
        assert_eq!(snap.counter("replay.events"), Some(merged.events));
    }

    #[test]
    fn merged_sim_replications_match_single_runs() {
        let cfg = SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.2));
        let run = RunConfig {
            warmup: 50.0,
            duration: 2_000.0,
            batches: 10,
        };
        let rep = RepConfig {
            replications: 4,
            master_seed: 9,
            confidence: Confidence::P95,
        };
        let merged = run_sim_replications(&cfg, &run, &rep).expect("valid sim");
        assert_eq!(merged.replications, 4);
        // Each per-rep report is reproducible from its derived seed alone.
        for (i, got) in merged.per_rep.iter().enumerate() {
            let seed = rand::rngs::SplitMix64::stream_seed(9, i as u64);
            let again = CrossbarSim::new(cfg.clone(), seed).run(run);
            assert_eq!(got.events, again.events);
            assert_eq!(got.classes[0].offered, again.classes[0].offered);
            assert_eq!(
                got.classes[0].blocking.mean.to_bits(),
                again.classes[0].blocking.mean.to_bits()
            );
        }
        // And the merged counts are the per-rep sums.
        let offered: u64 = merged.per_rep.iter().map(|r| r.classes[0].offered).sum();
        assert_eq!(merged.classes[0].offered, offered);
    }

    #[test]
    fn retrial_replications_merge_and_balance() {
        let cfg = RetrialConfig {
            n1: 6,
            n2: 6,
            class: TrafficClass::poisson(0.05),
            max_attempts: 3,
            backoff_mean: 0.3,
        };
        let run = RunConfig {
            warmup: 50.0,
            duration: 3_000.0,
            batches: 5,
        };
        let rep = RepConfig {
            replications: 3,
            master_seed: 17,
            confidence: Confidence::P95,
        };
        let merged = run_retrial_replications(&cfg, &run, &rep);
        assert_eq!(merged.replications, 3);
        assert_eq!(merged.calls, merged.carried + merged.lost + merged.pending);
        assert_eq!(merged.attempts, merged.carried + merged.blocked_attempts);
        assert_eq!(merged.blocked_attempts, merged.retries + merged.lost);
        assert!(merged.loss.half_width >= 0.0);
    }
}
