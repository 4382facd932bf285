//! Trace-replay driver for the online admission engine.
//!
//! Generates a synthetic BPP call-event stream with the Gillespie jump
//! chain of the loss network — in state `k`, class-`r` arrivals fire at
//! total rate `P(N1,a_r)·P(N2,a_r)·λ_r(k_r)` and departures at `k_r·μ_r`,
//! exactly the transition structure behind the product form — and feeds
//! every event to an [`AdmissionEngine`]. Port-tuple selection is modelled
//! by a Bernoulli coin with the engine's instantaneous availability, so a
//! complete-sharing replay experiences the *call* blocking of the paper
//! (§3's `B_r` corrected by the arrival theorem), which the per-class
//! admitted fraction is then cross-checked against.
//!
//! The admitted fraction is estimated with batch means ([`BatchMeans`],
//! 99% CI by default): jump chains are autocorrelated, so per-event
//! binomial CIs would be dishonestly narrow.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xbar_admission::{AdmissionEngine, AdmissionError, Decision, EngineConfig};
use xbar_core::{solve, Model, Solution};
use xbar_numeric::permutation;

use crate::rates::RateTable;
use crate::stats::{BatchMeans, Confidence, Estimate};

/// Replay parameters.
#[derive(Clone, Debug)]
pub struct ReplayConfig {
    /// Events to generate (arrivals + departures).
    pub events: u64,
    /// RNG seed for the jump chain and the tuple coin.
    pub seed: u64,
    /// Batches for the acceptance-fraction confidence interval.
    pub batches: usize,
    /// Engine construction parameters (policy, solve backend, drift).
    pub engine: EngineConfig,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            events: 1_000_000,
            seed: 1,
            batches: 20,
            engine: EngineConfig::default(),
        }
    }
}

/// Per-class replay outcome.
#[derive(Clone, Debug)]
pub struct ClassReplay {
    /// Arrivals offered (including tuple-coin blocks).
    pub offered: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Capacity denials (ports don't fit, or the drawn tuple was busy).
    pub denied_capacity: u64,
    /// Policy denials (reservation threshold).
    pub denied_policy: u64,
    /// Batch-means estimate of the admitted fraction (99% CI).
    pub acceptance: Estimate,
    /// The analytic call acceptance `1 − B_r^{call}` that a
    /// complete-sharing replay should reproduce.
    pub analytic_acceptance: f64,
}

/// Outcome of one replay run.
#[derive(Clone, Debug)]
pub struct ReplayReport {
    /// Events actually generated.
    pub events: u64,
    /// Arrival events (the rest are departures).
    pub arrivals: u64,
    /// Departure events.
    pub departures: u64,
    /// Times the engine re-anchored.
    pub re_anchors: u64,
    /// Per-batch repricing passes the engine ran (0 unless
    /// [`EngineConfig::reprice_batch`] is set).
    pub reprice_batches: u64,
    /// Repricing passes that changed the threshold vector.
    pub reprice_updates: u64,
    /// Per-class decision split and acceptance estimate.
    pub classes: Vec<ClassReplay>,
}

/// Jump-chain tuple-scaled arrival factor per class:
/// `P(N1,a_r)·P(N2,a_r)`.
fn tuple_counts(model: &Model) -> Vec<f64> {
    let dims = model.dims();
    model
        .workload()
        .classes()
        .iter()
        .map(|c| {
            permutation(dims.n1 as u64, c.bandwidth as u64)
                * permutation(dims.n2 as u64, c.bandwidth as u64)
        })
        .collect()
}

/// Assemble the [`ReplayReport`] from the engine's decision ledger, the
/// per-batch acceptance counts and the analytic solve.
fn finish(
    engine: &AdmissionEngine,
    analytic: &Solution,
    batch_counts: &[Vec<(u64, u64)>],
    arrivals: u64,
    departures: u64,
) -> ReplayReport {
    let stats = engine.stats();
    let classes_out = (0..stats.per_class.len())
        .map(|r| {
            let fractions = BatchMeans::from_ratios(batch_counts.iter().map(|b| (b[r].1, b[r].0)));
            let cs = &stats.per_class[r];
            ClassReplay {
                offered: cs.offered,
                admitted: cs.admitted,
                denied_capacity: cs.denied_capacity,
                denied_policy: cs.denied_policy,
                acceptance: fractions.estimate_at(Confidence::P99),
                analytic_acceptance: analytic.call_acceptance(r),
            }
        })
        .collect();
    ReplayReport {
        events: arrivals + departures,
        arrivals,
        departures,
        re_anchors: stats.re_anchors,
        reprice_batches: stats.reprice_batches,
        reprice_updates: stats.reprice_updates,
        classes: classes_out,
    }
}

/// Generate `cfg.events` synthetic call events for `model` and replay them
/// through a fresh [`AdmissionEngine`].
///
/// The hot loop keeps the `2R` transition rates resident in a
/// [`RateTable`]: an event only changes class `r`'s two rates (and a
/// blocked arrival changes nothing), so each iteration does O(1) rate
/// maintenance instead of rebuilding and rescanning the whole vector.
/// The golden-stream fingerprints in `tests/golden_streams.rs` pin the
/// decision stream bit for bit (see [`crate::rates`] for the fold order
/// that keeps it), and a test checks each class's replayed acceptance
/// against the exact stationary chain
/// ([`xbar_core::policy::solve_policy`]) under the engine's thresholds.
pub fn replay(model: &Model, cfg: &ReplayConfig) -> Result<ReplayReport, AdmissionError> {
    let analytic = solve(model, cfg.engine.algorithm).map_err(AdmissionError::Solve)?;
    let mut engine = AdmissionEngine::new(model, cfg.engine.clone())?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let classes = model.workload().classes();
    let r_count = classes.len();
    let tuple_count = tuple_counts(model);
    let batches = cfg.batches.max(1);
    // Per-batch, per-class (offered, admitted) for the batch-means CI.
    let mut batch_counts = vec![vec![(0u64, 0u64); r_count]; batches];
    let mut arrivals = 0u64;
    let mut departures = 0u64;

    let mut table = RateTable::new(2 * r_count, true);
    let set_class = |table: &mut RateTable, engine: &AdmissionEngine, r: usize| {
        let kr = engine.state()[r];
        table.set(2 * r, tuple_count[r] * classes[r].lambda(kr as u64));
        table.set(2 * r + 1, kr as f64 * classes[r].mu);
    };
    for r in 0..r_count {
        set_class(&mut table, &engine, r);
    }

    for i in 0..cfg.events {
        let total = table.total();
        // Negated so a NaN total (incomparable) also stops the replay.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(total > 0.0) {
            // Absorbing state (all rates zero) — nothing left to replay.
            break;
        }
        let chosen = table.select(rng.gen::<f64>() * total);
        let (r, is_arrival) = (chosen / 2, chosen.is_multiple_of(2));
        // u128 so `i * batches` cannot wrap for any event budget.
        let batch = ((i as u128 * batches as u128) / cfg.events as u128) as usize;
        // The timer probe re-checks `xbar_obs::enabled()` at each 64th
        // event (not a flag hoisted before the loop), so toggling obs
        // mid-run engages or disengages the probes at the same fixed
        // cadence instead of timing a stale configuration. The probe
        // brackets only the engine call — it touches neither the RNG nor
        // the batch accounting, so decision streams are identical obs-on
        // and obs-off (pinned by a regression test).
        let probe = i.is_multiple_of(64);
        if is_arrival {
            arrivals += 1;
            batch_counts[batch][r].0 += 1;
            // The jump chain fires per *tuple-scaled* rate; whether the
            // drawn ordered tuple is idle is a Bernoulli coin with the
            // engine's instantaneous availability.
            let tuple_idle = rng.gen::<f64>() < engine.availability(r);
            let timer = (probe && xbar_obs::enabled()).then(Instant::now);
            let admitted = if tuple_idle {
                engine.offer(r)? == Decision::Admit
            } else {
                engine.record_blocked(r)?;
                false
            };
            if let Some(t) = timer {
                xbar_obs::record_duration("admission.decision", t.elapsed());
            }
            if admitted {
                batch_counts[batch][r].1 += 1;
                // Admission changed `k[r]`; a block changed nothing, so
                // the cached rates (and total) stay valid.
                set_class(&mut table, &engine, r);
            }
        } else {
            departures += 1;
            let timer = (probe && xbar_obs::enabled()).then(Instant::now);
            engine.depart(r)?;
            if let Some(t) = timer {
                xbar_obs::record_duration("admission.decision", t.elapsed());
            }
            set_class(&mut table, &engine, r);
        }
    }

    engine.flush_obs();
    if xbar_obs::enabled() {
        xbar_obs::add("replay.events", arrivals + departures);
    }
    Ok(finish(
        &engine,
        &analytic,
        &batch_counts,
        arrivals,
        departures,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_admission::PolicySpec;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        let w = Workload::new()
            .with(TrafficClass::poisson(0.1))
            .with(TrafficClass::bpp(0.08, 0.04, 1.0));
        Model::new(Dims::new(6, 8), w).unwrap()
    }

    fn run(events: u64, seed: u64, policy: PolicySpec) -> ReplayReport {
        replay(
            &model(),
            &ReplayConfig {
                events,
                seed,
                batches: 20,
                engine: EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn replay_is_deterministic_for_a_seed() {
        let a = run(20_000, 9, PolicySpec::CompleteSharing);
        let b = run(20_000, 9, PolicySpec::CompleteSharing);
        for (x, y) in a.classes.iter().zip(&b.classes) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.acceptance, y.acceptance);
        }
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    fn complete_sharing_acceptance_brackets_the_analytic_value() {
        let rep = run(400_000, 4001, PolicySpec::CompleteSharing);
        assert_eq!(rep.events, 400_000);
        for (r, c) in rep.classes.iter().enumerate() {
            assert_eq!(c.denied_policy, 0, "CS never denies by policy");
            assert_eq!(c.offered, c.admitted + c.denied_capacity);
            assert!(
                c.acceptance.covers_with_slack(c.analytic_acceptance, 5e-3),
                "class {r}: {:?} vs {}",
                c.acceptance,
                c.analytic_acceptance
            );
        }
    }

    #[test]
    fn trunk_reservation_only_throttles_the_reserved_class() {
        let rep = run(100_000, 77, PolicySpec::TrunkReservation(vec![0, 3]));
        assert_eq!(rep.classes[0].denied_policy, 0);
        assert!(rep.classes[1].denied_policy > 0);
        // The throttled class must accept strictly less than its CS run.
        let cs = run(100_000, 77, PolicySpec::CompleteSharing);
        assert!(rep.classes[1].acceptance.mean < cs.classes[1].acceptance.mean);
    }

    #[test]
    fn repricing_replay_matches_the_plain_run_decision_for_decision() {
        // Per-batch repricing re-derives the same thresholds from the
        // cached gradients, so a repriced replay must be event-identical
        // to the plain run — only the reprice counters differ.
        let plain = run(20_000, 11, PolicySpec::ShadowPrice { reserve: 1 });
        let repriced = replay(
            &model(),
            &ReplayConfig {
                events: 20_000,
                seed: 11,
                batches: 20,
                engine: EngineConfig {
                    policy: PolicySpec::ShadowPrice { reserve: 1 },
                    reprice_batch: Some(64),
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap();
        assert_eq!(repriced.reprice_batches, 20_000 / 64);
        assert_eq!(repriced.reprice_updates, 0, "the model never changed");
        assert_eq!(plain.reprice_batches, 0);
        for (x, y) in plain.classes.iter().zip(&repriced.classes) {
            assert_eq!(x.offered, y.offered);
            assert_eq!(x.admitted, y.admitted);
            assert_eq!(x.denied_capacity, y.denied_capacity);
            assert_eq!(x.denied_policy, y.denied_policy);
        }
    }

    fn fingerprint(rep: &ReplayReport) -> Vec<(u64, u64, u64, u64, u64)> {
        rep.classes
            .iter()
            .map(|c| {
                (
                    c.offered,
                    c.admitted,
                    c.denied_capacity,
                    c.denied_policy,
                    c.acceptance.mean.to_bits(),
                )
            })
            .collect()
    }

    #[test]
    fn replayed_acceptance_matches_the_exact_policy_chain() {
        // The jump chain against the model: under each policy's effective
        // thresholds, every class's batch-means acceptance CI must cover
        // the exact stationary acceptance of the reserved loss network,
        // which `solve_policy` computes by power iteration over the
        // enumerated states and which shares no code with the replay,
        // its rate table or the engine. Fixed models and seeds; the
        // slack absorbs the few 99% intervals out of 45 that may miss by
        // chance. Low weights on the bursty classes make the shadow
        // policy reserve against them.
        let two_class = Model::new(
            Dims::new(6, 8),
            Workload::new()
                .with(TrafficClass::poisson(0.1))
                .with(TrafficClass::bpp(0.08, 0.04, 1.0).with_weight(0.05)),
        )
        .unwrap();
        let three_class = Model::new(
            Dims::new(5, 6),
            Workload::new()
                .with(TrafficClass::poisson(0.06))
                .with(TrafficClass::bpp(0.05, 0.03, 1.0).with_weight(0.5))
                .with(
                    TrafficClass::bpp(0.003, 0.002, 1.0)
                        .with_bandwidth(2)
                        .with_weight(0.02),
                ),
        )
        .unwrap();
        let cases = [
            (two_class, PolicySpec::TrunkReservation(vec![0, 2])),
            (three_class, PolicySpec::TrunkReservation(vec![1, 0, 0])),
        ];
        for (m, policy) in cases.iter().flat_map(|(m, trunk)| {
            [
                (m, PolicySpec::CompleteSharing),
                (m, trunk.clone()),
                (m, PolicySpec::ShadowPrice { reserve: 1 }),
            ]
        }) {
            let engine = EngineConfig {
                policy: policy.clone(),
                ..EngineConfig::default()
            };
            let thresholds = AdmissionEngine::new(m, engine.clone())
                .unwrap()
                .thresholds()
                .to_vec();
            // Every policy but complete sharing reserves something here.
            assert_eq!(
                thresholds.iter().all(|&t| t == 0),
                policy == PolicySpec::CompleteSharing,
                "{policy}: {thresholds:?}"
            );
            let exact = xbar_core::policy::solve_policy(m, &thresholds);
            for seed in [3u64, 17, 2024] {
                let cfg = ReplayConfig {
                    events: 200_000,
                    seed,
                    batches: 20,
                    engine: engine.clone(),
                };
                let rep = replay(m, &cfg).unwrap();
                for (r, c) in rep.classes.iter().enumerate() {
                    assert!(
                        c.acceptance.covers_with_slack(exact.acceptance[r], 2e-3),
                        "{policy} {thresholds:?} seed {seed} class {r}: replay {:?} vs exact {}",
                        c.acceptance,
                        exact.acceptance[r]
                    );
                }
            }
        }
    }

    #[test]
    fn decision_stream_is_identical_obs_on_and_obs_off() {
        // The 64-event timer probe must observe, never perturb: running
        // inside a scoped obs registry (probes live) has to produce the
        // same decisions, batch splits, and acceptance bits as running
        // dark. This pins the satellite fix that re-checks
        // `xbar_obs::enabled()` at probe time instead of hoisting it.
        let dark = run(25_000, 42, PolicySpec::TrunkReservation(vec![0, 2]));
        let registry = std::sync::Arc::new(xbar_obs::Registry::new());
        let lit = {
            let _scope = xbar_obs::scope(&registry);
            assert!(xbar_obs::enabled());
            run(25_000, 42, PolicySpec::TrunkReservation(vec![0, 2]))
        };
        assert_eq!(fingerprint(&dark), fingerprint(&lit));
        assert_eq!(dark.arrivals, lit.arrivals);
        assert_eq!(dark.departures, lit.departures);
        // And the lit run actually exercised the probes.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("replay.events"), Some(25_000));
    }

    #[test]
    fn event_budget_splits_into_arrivals_and_departures() {
        let rep = run(10_000, 5, PolicySpec::CompleteSharing);
        assert_eq!(rep.arrivals + rep.departures, rep.events);
        assert!(rep.arrivals > 0 && rep.departures > 0);
        let offered: u64 = rep.classes.iter().map(|c| c.offered).sum();
        assert_eq!(offered, rep.arrivals);
    }
}
