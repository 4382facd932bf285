//! Retrial behaviour — probing the paper's "blocked requests are cleared"
//! assumption (§2: "recovery is managed by the corresponding end-points at
//! the boundaries of the network").
//!
//! In a real circuit-switched network the end-points *retry*. This
//! simulator gives each blocked request up to `max_attempts − 1` retries
//! after exponentially-distributed back-off, turning the loss system into
//! a retrial queue (which has no product form — hence simulation). The
//! interesting outputs are how much the *final* loss probability drops,
//! and how much extra port pressure the retry traffic creates.

use rand::rngs::StdRng;
use rand::SeedableRng;

use xbar_numeric::permutation;
use xbar_traffic::TrafficClass;

use crate::crossbar::draw_ports;
use crate::events::Calendar;
use crate::service::sample_exp;
use crate::stats::{BatchMeans, Estimate};

/// Configuration of the retrial experiment (single class, `a ≥ 1`).
#[derive(Clone, Debug)]
pub struct RetrialConfig {
    /// Inputs.
    pub n1: u32,
    /// Outputs.
    pub n2: u32,
    /// The traffic class (per-set parameters; `β` supported).
    pub class: TrafficClass,
    /// Total attempts allowed per call (1 = blocked-calls-cleared).
    pub max_attempts: u32,
    /// Mean back-off before a retry, in units of the holding time.
    pub backoff_mean: f64,
}

/// Outcome of a retrial run.
///
/// Accounting invariants (over measured-window calls, checked by tests):
/// `attempts = carried + blocked_attempts`,
/// `blocked_attempts = retries + lost`, and
/// `calls = carried + lost + pending`.
#[derive(Clone, Debug)]
pub struct RetrialReport {
    /// Fresh calls generated in the measurement window.
    pub calls: u64,
    /// Calls eventually carried (exactly one successful attempt each).
    pub carried: u64,
    /// Calls lost after exhausting their attempts.
    pub lost: u64,
    /// Calls still waiting in retry back-off when the run ended —
    /// "retried out" of the measurement window, neither carried nor lost.
    pub pending: u64,
    /// Total attempts made on behalf of measured calls.
    pub attempts: u64,
    /// Attempts that found a drawn port busy.
    pub blocked_attempts: u64,
    /// Retries scheduled for measured calls (fired or still pending).
    pub retries: u64,
    /// Final loss probability (lost/calls) with CI.
    pub loss: Estimate,
    /// Per-attempt blocking probability (across all attempts) with CI.
    pub attempt_blocking: Estimate,
    /// Mean attempts per call.
    pub mean_attempts: f64,
}

/// The retrial simulator.
pub struct RetrialSim {
    cfg: RetrialConfig,
    rng: StdRng,
}

/// What fires in the event loop.
enum Pending {
    /// A fresh call.
    Arrival,
    /// A retry on the call's `attempt`-th try; `batch` is the measurement
    /// batch the call arrived in (`None` during warmup: it retries, but
    /// doesn't count).
    Retry { batch: Option<usize>, attempt: u32 },
    /// A carried call departs, releasing its input and output ports.
    Departure(Vec<u32>, Vec<u32>),
}

impl RetrialSim {
    /// Build from config and seed.
    pub fn new(cfg: RetrialConfig, seed: u64) -> Self {
        assert!(cfg.max_attempts >= 1);
        assert!(cfg.backoff_mean > 0.0);
        assert!(cfg.class.bandwidth <= cfg.n1.min(cfg.n2));
        RetrialSim {
            cfg,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Run for `warmup + duration` with `batches` batch means.
    pub fn run(&mut self, warmup: f64, duration: f64, batches: usize) -> RetrialReport {
        let cfg = self.cfg.clone();
        let a = cfg.class.bandwidth;
        let tuples = permutation(cfg.n1 as u64, a as u64) * permutation(cfg.n2 as u64, a as u64);
        let backoff_mean = cfg.backoff_mean / cfg.class.mu;

        let mut busy_in = vec![false; cfg.n1 as usize];
        let mut busy_out = vec![false; cfg.n2 as usize];
        // The failed-port mask of the shared port draw: no port fails here.
        let no_failures = vec![false; cfg.n1.max(cfg.n2) as usize];
        let (no_failed_in, no_failed_out) = (
            &no_failures[..cfg.n1 as usize],
            &no_failures[..cfg.n2 as usize],
        );
        let mut drawn = Vec::new();
        let mut k_live: u64 = 0;
        let mut cal: Calendar<Pending> = Calendar::new();

        let end = warmup + duration;
        let batch_len = duration / batches as f64;
        #[derive(Clone, Copy, Default)]
        struct Counts {
            calls: u64,
            lost: u64,
            attempts: u64,
            blocked_attempts: u64,
            retries: u64,
        }
        let mut per_batch = vec![Counts::default(); batches];
        let mut carried = 0u64;

        while let Some(fired) = cal.step(
            &mut self.rng,
            end,
            (tuples * cfg.class.lambda(k_live), Pending::Arrival),
            (0.0, Pending::Arrival),
            |_, _| {},
        ) {
            let (batch, n_try) = match fired {
                Pending::Departure(ins, outs) => {
                    for i in ins {
                        busy_in[i as usize] = false;
                    }
                    for o in outs {
                        busy_out[o as usize] = false;
                    }
                    k_live -= 1;
                    continue;
                }
                Pending::Retry { batch, attempt } => (batch, attempt),
                Pending::Arrival => {
                    let now = cal.now();
                    let batch = (now >= warmup)
                        .then(|| (((now - warmup) / batch_len) as usize).min(batches - 1));
                    if let Some(b) = batch {
                        per_batch[b].calls += 1;
                    }
                    (batch, 1)
                }
            };
            // Fresh calls and retries make the same attempt: draw the
            // ports, and on success hold them until a scheduled departure.
            drawn.clear();
            let (in_free, _) =
                draw_ports(&mut self.rng, |i| busy_in[i], no_failed_in, a, &mut drawn);
            let (out_free, _) =
                draw_ports(&mut self.rng, |o| busy_out[o], no_failed_out, a, &mut drawn);
            let ok = in_free && out_free;
            if ok {
                let (ins, outs) = drawn.split_at(a as usize);
                for &i in ins {
                    busy_in[i as usize] = true;
                }
                for &o in outs {
                    busy_out[o as usize] = true;
                }
                k_live += 1;
                let hold = sample_exp(&mut self.rng, 1.0 / cfg.class.mu);
                cal.schedule(hold, Pending::Departure(ins.to_vec(), outs.to_vec()));
            }
            if let Some(b) = batch {
                per_batch[b].attempts += 1;
                if ok {
                    carried += 1;
                } else {
                    per_batch[b].blocked_attempts += 1;
                }
            }
            if ok {
                continue;
            }
            if n_try < cfg.max_attempts {
                if let Some(b) = batch {
                    per_batch[b].retries += 1;
                }
                let backoff = sample_exp(&mut self.rng, backoff_mean);
                let attempt = n_try + 1;
                cal.schedule(backoff, Pending::Retry { batch, attempt });
            } else if let Some(b) = batch {
                per_batch[b].lost += 1;
            }
        }

        let sum = |count: fn(&Counts) -> u64| per_batch.iter().map(count).sum::<u64>();
        let (calls, lost, attempts) = (sum(|c| c.calls), sum(|c| c.lost), sum(|c| c.attempts));
        // Measured calls still in back-off at `end` were "retried out":
        // they resolved neither way.
        let pending = calls - carried - lost;
        let loss = BatchMeans::from_ratios(per_batch.iter().map(|c| (c.lost, c.calls))).estimate();
        let attempt_blocking =
            BatchMeans::from_ratios(per_batch.iter().map(|c| (c.blocked_attempts, c.attempts)))
                .estimate();
        RetrialReport {
            calls,
            carried,
            lost,
            pending,
            attempts,
            blocked_attempts: sum(|c| c.blocked_attempts),
            retries: sum(|c| c.retries),
            loss,
            attempt_blocking,
            mean_attempts: if calls > 0 {
                attempts as f64 / calls as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(max_attempts: u32) -> RetrialConfig {
        RetrialConfig {
            n1: 6,
            n2: 6,
            class: TrafficClass::poisson(0.05),
            max_attempts,
            backoff_mean: 0.3,
        }
    }

    #[test]
    fn single_attempt_matches_cleared_blocking() {
        // max_attempts = 1 is exactly blocked-calls-cleared; the loss rate
        // must match the analytic B of the same model.
        use xbar_core::{solve, Algorithm, Dims, Model};
        use xbar_traffic::Workload;
        let model = Model::new(
            Dims::square(6),
            Workload::new().with(TrafficClass::poisson(0.05)),
        )
        .unwrap();
        let want = solve(&model, Algorithm::Auto).unwrap().blocking(0);
        let rep = RetrialSim::new(cfg(1), 5).run(200.0, 60_000.0, 20);
        assert!(
            rep.loss.covers_with_slack(want, 0.01),
            "loss {:?} vs analytic {want}",
            rep.loss
        );
        assert!((rep.mean_attempts - 1.0).abs() < 1e-12);
    }

    #[test]
    fn retries_cut_final_loss_but_raise_attempt_blocking() {
        let cleared = RetrialSim::new(cfg(1), 9).run(200.0, 40_000.0, 10);
        let retried = RetrialSim::new(cfg(4), 9).run(200.0, 40_000.0, 10);
        assert!(
            retried.loss.mean < 0.5 * cleared.loss.mean,
            "retries {} vs cleared {}",
            retried.loss.mean,
            cleared.loss.mean
        );
        // The retry traffic adds pressure: per-attempt blocking rises.
        assert!(retried.attempt_blocking.mean >= cleared.attempt_blocking.mean - 0.005);
        assert!(retried.mean_attempts > 1.0);
    }

    #[test]
    fn more_attempts_monotonically_less_loss() {
        let l1 = RetrialSim::new(cfg(1), 3)
            .run(100.0, 30_000.0, 10)
            .loss
            .mean;
        let l2 = RetrialSim::new(cfg(2), 3)
            .run(100.0, 30_000.0, 10)
            .loss
            .mean;
        let l5 = RetrialSim::new(cfg(5), 3)
            .run(100.0, 30_000.0, 10)
            .loss
            .mean;
        assert!(l2 < l1 && l5 < l2, "{l1} {l2} {l5}");
    }

    #[test]
    fn conservation() {
        let rep = RetrialSim::new(cfg(3), 1).run(100.0, 20_000.0, 10);
        assert_eq!(rep.calls, rep.carried + rep.lost + rep.pending);
        assert!(rep.calls > 1000);
    }

    #[test]
    fn attempt_accounting_balances_exactly() {
        // offers = admitted + blocked + retried-out, at attempt
        // granularity: every measured attempt either carried its call or
        // was blocked; every blocked attempt either scheduled a retry or
        // finalised a loss; and calls split into carried/lost/pending.
        for (attempts_allowed, seed) in [(1u32, 2u64), (2, 3), (4, 4), (8, 5)] {
            let rep = RetrialSim::new(cfg(attempts_allowed), seed).run(100.0, 15_000.0, 10);
            assert!(rep.calls > 500, "starved run");
            assert_eq!(
                rep.attempts,
                rep.carried + rep.blocked_attempts,
                "max_attempts={attempts_allowed}"
            );
            assert_eq!(
                rep.blocked_attempts,
                rep.retries + rep.lost,
                "max_attempts={attempts_allowed}"
            );
            assert_eq!(rep.calls, rep.carried + rep.lost + rep.pending);
            if attempts_allowed == 1 {
                assert_eq!(rep.retries, 0);
                assert_eq!(rep.pending, 0);
                assert_eq!(rep.blocked_attempts, rep.lost);
            } else {
                assert!(rep.retries > 0, "pressure high enough to retry");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RetrialSim::new(cfg(3), 42).run(50.0, 5_000.0, 5);
        let b = RetrialSim::new(cfg(3), 42).run(50.0, 5_000.0, 5);
        assert_eq!(a.calls, b.calls);
        assert_eq!(a.lost, b.lost);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.blocked_attempts, b.blocked_attempts);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.pending, b.pending);
        assert_eq!(a.loss.mean.to_bits(), b.loss.mean.to_bits());
        assert_eq!(
            a.attempt_blocking.mean.to_bits(),
            b.attempt_blocking.mean.to_bits()
        );
    }
}
