//! Cross-backend differential battery.
//!
//! Property-generated models (N1, N2 ≤ 12, up to 4 classes mixing smooth
//! Bernoulli, Poisson and peaky Pascal traffic) must produce the *same*
//! answers from every layer of the stack:
//!
//! 1. brute-force enumeration of the product form,
//! 2. Algorithm 1 (all numeric backends) and Algorithm 2 / MVA,
//! 3. the online admission engine's incrementally maintained state after
//!    replaying a random event sequence,
//! 4. (tier 7) the capacity planner's optimum over random small design
//!    spaces against a brute-force argmax that solves every candidate
//!    independently.
//!
//! Tolerances are tiered by the numeric quality of each pair: extended-
//! range and MVA backends agree with enumeration to 1e-9; the plain f64
//! backend is allowed 1e-7 on the largest switches (its recursion loses a
//! couple of digits near underflow); the engine's incremental log-weight
//! is a pure running sum, checked to 1e-8 absolute-relative.
//!
//! The case budget reads `PROPTEST_CASES` (CI pins it for reproducible
//! runtime); default is 48 cases per property.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xbar_admission::{AdmissionEngine, Decision, EngineConfig, PolicySpec};
use xbar_core::brute::Brute;
use xbar_core::policy::solve_policy;
use xbar_core::sensitivity::{sensitivity, sensitivity_fd};
use xbar_core::{solve, Algorithm, Dims, Model, SweepSolver};
use xbar_numeric::permutation;
use xbar_plan::{DesignSpace, PlanConfig, PlanError, RhoAxis, Slo, Strategy as PlanStrategy};
use xbar_sim::{replay, ReplayConfig};
use xbar_traffic::{TrafficClass, Workload};

/// Per-property case budget: `PROPTEST_CASES` env override, else 48.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48)
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-12);
    (a - b).abs() / scale < tol
}

/// A random valid traffic class for a switch with `max_n` ports: smooth
/// (Bernoulli, β < 0), Poisson (β = 0) or peaky (Pascal, β > 0).
fn arb_class(max_n: u32) -> impl Strategy<Value = TrafficClass> {
    let poisson =
        (0.001f64..2.0, 0.2f64..3.0, 1u32..3, 0.01f64..2.0).prop_map(|(rho, mu, a, w)| {
            TrafficClass::bpp(rho * mu, 0.0, mu)
                .with_bandwidth(a)
                .with_weight(w)
        });
    let pascal = (
        0.001f64..1.5,
        0.05f64..0.9,
        0.5f64..2.0,
        1u32..3,
        0.01f64..2.0,
    )
        .prop_map(|(alpha, frac, mu, a, w)| {
            TrafficClass::bpp(alpha, frac * mu, mu)
                .with_bandwidth(a)
                .with_weight(w)
        });
    let bernoulli = (1u64..6, 0.01f64..0.5, 0.5f64..2.0, 0.01f64..2.0).prop_map(
        move |(extra, p_rate, mu, w)| {
            // S = max_n + extra sources ⇒ λ stays positive in-state.
            let s = (max_n as u64 + extra) as f64;
            TrafficClass::bpp(s * p_rate, -p_rate, mu).with_weight(w)
        },
    );
    prop_oneof![poisson, pascal, bernoulli]
}

/// Models up to the issue's differential envelope: N1, N2 ≤ 12, R ≤ 4.
fn arb_model() -> impl Strategy<Value = Model> {
    (2u32..=12, 2u32..=12).prop_flat_map(|(n1, n2)| {
        let max_n = n1.max(n2);
        prop::collection::vec(arb_class(max_n), 1..=4).prop_filter_map(
            "classes must fit switch",
            move |classes| {
                let min_n = n1.min(n2);
                if classes.iter().any(|c| c.bandwidth > min_n) {
                    return None;
                }
                Model::new(Dims::new(n1, n2), Workload::from_classes(classes)).ok()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Tier 1 of the battery: every analytic backend against exact
    /// enumeration, with per-pair tolerances.
    #[test]
    fn backends_agree_with_enumeration_tiered(model in arb_model()) {
        let brute = Brute::new(&model);
        let r_count = model.num_classes();
        // (algorithm, tolerance vs brute): f64 recursions get the loose
        // tier, extended-range/MVA the tight one.
        let tiers = [
            (Algorithm::Alg1F64, 1e-7),
            (Algorithm::Alg1Scaled, 1e-8),
            (Algorithm::Alg1Ext, 1e-9),
            (Algorithm::Mva, 1e-9),
            (Algorithm::Convolution, 1e-7),
        ];
        for (alg, tol) in tiers {
            let sol = solve(&model, alg).unwrap();
            for r in 0..r_count {
                prop_assert!(
                    close(sol.nonblocking(r), brute.nonblocking(r), tol),
                    "alg {alg} B_{r}: {} vs {} (tol {tol})",
                    sol.nonblocking(r), brute.nonblocking(r)
                );
                prop_assert!(
                    close(sol.concurrency(r), brute.concurrency(r), tol),
                    "alg {alg} E_{r}: {} vs {} (tol {tol})",
                    sol.concurrency(r), brute.concurrency(r)
                );
            }
            prop_assert!(close(sol.revenue(), brute.revenue(), tol));
        }
        // The tight backends must also agree with *each other* at 1e-9
        // (a failure here with brute agreement points at the comparison,
        // not the solvers).
        let mva = solve(&model, Algorithm::Mva).unwrap();
        let ext = solve(&model, Algorithm::Alg1Ext).unwrap();
        for r in 0..r_count {
            prop_assert!(close(mva.nonblocking(r), ext.nonblocking(r), 1e-9));
        }
    }

    /// Tier 2: the admission engine's incremental state after a random
    /// event sequence must equal (a) the capacity rule's reference
    /// occupancy, (b) brute-force `ln(π(k)/π(0))`, and (c) the closed-form
    /// tuple availability — all without a single re-anchor being *needed*
    /// (drift checks run but the running sum stays within 1e-8).
    #[test]
    fn engine_replay_matches_enumeration(
        model in arb_model(),
        events in prop::collection::vec((prop::bool::ANY, 0u8..4), 1..200),
    ) {
        let r_count = model.num_classes();
        let dims = model.dims();
        let cap = dims.min_n();
        let bw: Vec<u32> = model.workload().classes().iter().map(|c| c.bandwidth).collect();
        let mut engine = AdmissionEngine::new(&model, EngineConfig::default()).unwrap();
        let mut k_ref = vec![0u32; r_count];
        let mut ka_ref = 0u32;
        for &(arrival, pick) in &events {
            let r = pick as usize % r_count;
            if arrival {
                let fits = ka_ref + bw[r] <= cap;
                let decision = engine.offer(r).unwrap();
                prop_assert_eq!(
                    decision == Decision::Admit,
                    fits,
                    "class {} at k·A = {}: {:?}",
                    r, ka_ref, decision
                );
                if fits {
                    k_ref[r] += 1;
                    ka_ref += bw[r];
                }
            } else if k_ref[r] > 0 {
                engine.depart(r).unwrap();
                k_ref[r] -= 1;
                ka_ref -= bw[r];
            } else {
                prop_assert!(engine.depart(r).is_err());
            }
        }
        prop_assert_eq!(engine.state(), &k_ref[..]);
        prop_assert_eq!(engine.occupancy(), ka_ref);

        let brute = Brute::new(&model);
        let want = (brute.pi(&k_ref) / brute.pi(&vec![0; r_count])).ln();
        let tol = 1e-8 * (1.0 + want.abs());
        prop_assert!(
            (engine.log_weight() - want).abs() < tol,
            "incremental {} vs brute {}",
            engine.log_weight(), want
        );
        prop_assert!((engine.log_weight() - engine.exact_log_weight()).abs() < tol);

        for (r, &b) in bw.iter().enumerate() {
            let a = b as u64;
            let want = permutation((dims.n1 - ka_ref) as u64, a)
                * permutation((dims.n2 - ka_ref) as u64, a)
                / (permutation(dims.n1 as u64, a) * permutation(dims.n2 as u64, a));
            prop_assert!(
                (engine.availability(r) - want).abs() < 1e-12,
                "availability class {r}: {} vs {want}",
                engine.availability(r)
            );
        }
    }

    /// Tier 4: the incremental sweep solver against fresh full solves.
    /// A random base model takes a random sequence of single-class edits
    /// (new `α`, `β`, `μ`, `a_r`, weight — including `a_r` changes and
    /// `β_r → 0` crossings, since the replacement class is drawn from the
    /// same smooth/Poisson/peaky mix as the base); each recombined point
    /// must match a fresh solve of the edited model. ExtFloat rays follow
    /// the exact same recurrence as the full lattice but associate the
    /// convolution differently, so agreement is to rounding (1e-11), not
    /// bit-for-bit; scaled-f64 rays get 1e-9.
    #[test]
    fn sweep_class_edits_match_fresh_full_solves(
        (model, edits) in arb_model().prop_flat_map(|m| {
            let max_n = m.dims().max_n();
            let r_count = m.num_classes();
            (
                Just(m),
                prop::collection::vec(
                    ((0..r_count), arb_class(max_n)),
                    1..6,
                ),
            )
        })
    ) {
        let ext = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        // The scaled backend can refuse (operating envelope); skip it then.
        let scaled = SweepSolver::new(&model, Algorithm::Alg1Scaled).ok();
        let min_n = model.dims().min_n();
        for (r, class) in edits {
            if class.bandwidth > min_n {
                continue; // the edited model would be invalid
            }
            let mut classes = model.workload().classes().to_vec();
            classes[r] = class.clone();
            let edited = Model::new(model.dims(), Workload::from_classes(classes)).unwrap();

            let full = solve(&edited, Algorithm::Alg1Ext).unwrap();
            let point = ext.solve_with_class(r, class.clone()).unwrap();
            for q in 0..edited.num_classes() {
                prop_assert!(
                    close(point.nonblocking(q), full.nonblocking(q), 1e-11),
                    "ext B_{q}: sweep {} vs full {}",
                    point.nonblocking(q), full.nonblocking(q)
                );
                prop_assert!(
                    close(point.concurrency(q), full.concurrency(q), 1e-11),
                    "ext E_{q}: sweep {} vs full {}",
                    point.concurrency(q), full.concurrency(q)
                );
            }
            prop_assert!(close(point.revenue(), full.revenue(), 1e-11));

            if let Some(scaled) = &scaled {
                if let Ok(point) = scaled.solve_with_class(r, class) {
                    for q in 0..edited.num_classes() {
                        prop_assert!(
                            close(point.nonblocking(q), full.nonblocking(q), 1e-9),
                            "scaled B_{q}: sweep {} vs full {}",
                            point.nonblocking(q), full.nonblocking(q)
                        );
                    }
                    prop_assert!(close(point.revenue(), full.revenue(), 1e-9));
                }
            }
        }
    }

    /// Tier 5: the exact analytic sensitivity against the retained
    /// finite-difference oracle, across random BPP mixes. Central
    /// differences carry step-size error, so the tolerance is
    /// `1e-9 + 1e-6·scale` per entry.
    #[test]
    fn sweep_exact_sensitivity_matches_fd_oracle(model in arb_model()) {
        let fd_close = |a: f64, b: f64| (a - b).abs() <= 1e-9 + 1e-6 * a.abs().max(b.abs());
        let exact = sensitivity(&model, Algorithm::Alg1Ext).unwrap();
        let fd = sensitivity_fd(&model, Algorithm::Alg1Ext).unwrap();
        let r_count = model.num_classes();
        for s in 0..r_count {
            for r in 0..r_count {
                prop_assert!(
                    fd_close(exact.nonblocking_by_rho[r][s], fd.nonblocking_by_rho[r][s]),
                    "dB_{r}/drho_{s}: exact {} vs fd {}",
                    exact.nonblocking_by_rho[r][s], fd.nonblocking_by_rho[r][s]
                );
                prop_assert!(
                    fd_close(exact.concurrency_by_rho[r][s], fd.concurrency_by_rho[r][s]),
                    "dE_{r}/drho_{s}: exact {} vs fd {}",
                    exact.concurrency_by_rho[r][s], fd.concurrency_by_rho[r][s]
                );
            }
            prop_assert!(
                fd_close(exact.revenue_by_rho[s], fd.revenue_by_rho[s]),
                "dW/drho_{s}: exact {} vs fd {}",
                exact.revenue_by_rho[s], fd.revenue_by_rho[s]
            );
            prop_assert!(
                fd_close(exact.revenue_by_beta[s], fd.revenue_by_beta[s]),
                "dW/dbeta_{s}: exact {} vs fd {}",
                exact.revenue_by_beta[s], fd.revenue_by_beta[s]
            );
        }
    }

    /// Tier 6: sweep-aware online repricing. A shadow-price engine with
    /// per-batch repricing enabled must (a) make bit-identical admit/deny
    /// decisions to a plain engine priced once at anchor time, across
    /// ≥10k random events, and (b) finish every batch with a threshold
    /// vector identical to one derived from a *fresh* full
    /// [`sensitivity`] solve — the cached per-anchor gradients and the
    /// fresh solve are the same extended-range rays, so the thresholds
    /// are exact, not merely close. The backend tiers frame the margin
    /// that exactness rides on: scaled-f64 gradients agree with the
    /// extended-range ones to 1e-9 (ext is self-identical at 1e-11), so
    /// integer thresholds can only diverge when a revenue gradient sits
    /// inside that band around zero.
    #[test]
    fn repriced_engine_matches_fresh_sensitivity_pricing(
        model in arb_model(),
        seed in 0u64..1 << 48,
        reserve in 1u32..4,
        batch in 1u64..300,
    ) {
        let policy = PolicySpec::ShadowPrice { reserve };
        let cfg = |reprice_batch| EngineConfig {
            policy: policy.clone(),
            algorithm: Algorithm::Alg1Ext,
            reprice_batch,
            ..EngineConfig::default()
        };
        let mut plain = AdmissionEngine::new(&model, cfg(None)).unwrap();
        let mut repriced = AdmissionEngine::new(&model, cfg(Some(batch))).unwrap();
        prop_assert_eq!(plain.thresholds(), repriced.thresholds());

        let r_count = model.num_classes();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..10_000u64 {
            let r = rng.gen::<u64>() as usize % r_count;
            if rng.gen::<f64>() < 0.55 {
                let a = plain.offer(r).unwrap();
                let b = repriced.offer(r).unwrap();
                prop_assert_eq!(a, b, "event {i}: decisions diverged for class {r}");
            } else if plain.state()[r] > 0 {
                plain.depart(r).unwrap();
                repriced.depart(r).unwrap();
            } else {
                prop_assert!(plain.depart(r).is_err());
                prop_assert!(repriced.depart(r).is_err());
            }
            prop_assert_eq!(plain.state(), repriced.state());
        }

        // The model never changed, so every repricing pass re-derived the
        // anchor thresholds: passes ran, none of them moved a threshold.
        let stats = repriced.stats();
        prop_assert!(stats.reprice_batches > 0);
        prop_assert_eq!(stats.reprice_updates, 0);
        prop_assert_eq!(plain.stats().reprice_batches, 0);

        // (b): the repriced thresholds equal a fresh full solve's.
        let fresh = sensitivity(&model, Algorithm::Alg1Ext).unwrap();
        let want = policy.thresholds(r_count, Some(&fresh)).unwrap();
        prop_assert_eq!(repriced.thresholds(), &want[..]);
        prop_assert_eq!(plain.thresholds(), &want[..]);

        // Backend tolerance tiers behind the integer exactness: scaled
        // gradients within 1e-9 of ext, and equal thresholds whenever no
        // revenue gradient sits inside that band around zero.
        if let Ok(scaled) = sensitivity(&model, Algorithm::Alg1Scaled) {
            let mut sign_safe = true;
            for s in 0..r_count {
                prop_assert!(
                    close(scaled.revenue_by_rho[s], fresh.revenue_by_rho[s], 1e-9),
                    "dW/drho_{s}: scaled {} vs ext {}",
                    scaled.revenue_by_rho[s], fresh.revenue_by_rho[s]
                );
                let margin = 1e-9 * fresh.revenue_by_rho[s].abs().max(1e-12);
                sign_safe &= fresh.revenue_by_rho[s].abs() > margin;
            }
            if sign_safe {
                let scaled_t = policy
                    .thresholds(r_count, Some(&scaled))
                    .unwrap();
                prop_assert_eq!(&scaled_t[..], &want[..]);
            }
        }
    }

    /// Tier 7: the capacity planner against brute force. Every candidate
    /// of a random small design space is solved independently with a
    /// fresh full [`solve`]; the brute-force argmax over SLO-feasible
    /// candidates (earliest index on ties — the planner's canonical
    /// tie-break) must agree with the planner's optimum to 1e-9, on the
    /// pruned and unpruned search paths alike. `Infeasible` must mean
    /// brute force found nothing feasible either.
    #[test]
    fn plan_optimum_matches_brute_force_argmax(space in arb_plan_space()) {
        let brute = brute_force_plan(&space);
        for prune in [false, true] {
            let result = xbar_plan::plan(&space, &PlanConfig {
                strategy: PlanStrategy::Exhaustive { prune, batch: false },
                ..PlanConfig::default()
            });
            match (&brute, result) {
                (Some((bi, bw)), Ok(report)) => {
                    let opt = &report.optimum;
                    prop_assert!(
                        close(opt.objective, *bw, 1e-9),
                        "prune={prune}: plan W {} vs brute W {bw}",
                        opt.objective
                    );
                    // Same design unless another candidate sits within
                    // the 1e-9 band of the maximum (then either is a
                    // legitimate argmax).
                    let near_ties = (0..space.num_candidates())
                        .filter(|&i| i != *bi)
                        .filter_map(|i| brute_objective(&space, i))
                        .filter(|&(_, w)| close(w, *bw, 1e-9))
                        .count();
                    if near_ties == 0 {
                        prop_assert_eq!(
                            opt.candidate.index, *bi,
                            "prune={}: unique argmax disagrees", prune
                        );
                    }
                }
                (None, Err(PlanError::Infeasible { evaluated, .. })) => {
                    prop_assert!(evaluated > 0);
                }
                (b, r) => prop_assert!(
                    false,
                    "prune={prune}: brute {b:?} vs plan {:?} disagree on feasibility",
                    r.map(|rep| rep.optimum.candidate.index)
                ),
            }
        }
    }
}

/// A random small design space for the tier-7 brute-force differential:
/// 2-class base on a 3..6-port square, 1–2 geometries, one offered-load
/// axis, one SLO landing anywhere from easily-satisfied to impossible.
fn arb_plan_space() -> impl Strategy<Value = DesignSpace> {
    (
        (
            3u32..7,
            0.002f64..0.05,
            0.002f64..0.04,
            0.0f64..0.5,
            0.1f64..3.0,
        ),
        (prop::bool::ANY, 0usize..2, 2usize..5, 0.02f64..0.9),
    )
        .prop_filter_map(
            "valid space",
            |((n, rho0, alpha1, frac1, w1), (two_geos, axis_class, steps, slo))| {
                let w = Workload::new()
                    .with(TrafficClass::poisson(rho0))
                    .with(TrafficClass::bpp(alpha1, frac1 * 1.0, 1.0).with_weight(w1));
                let base = Model::new(Dims::square(n), w).ok()?;
                let mut space = DesignSpace::new(base).with_geometry(Dims::square(n));
                if two_geos && n > 3 {
                    space = space.with_geometry(Dims::square(n - 1));
                }
                Some(
                    space
                        .with_axis(RhoAxis {
                            class: axis_class,
                            lo: 0.003,
                            hi: 0.024,
                            steps,
                        })
                        .with_slo(Slo {
                            class: 1 - axis_class,
                            max_blocking: slo,
                        }),
                )
            },
        )
}

/// Solve candidate `i` with a fresh full solve; `Some((i, revenue))` iff
/// it satisfies every SLO.
fn brute_objective(space: &DesignSpace, i: u64) -> Option<(u64, f64)> {
    let model = space
        .model_for(&space.candidate(i))
        .expect("valid candidate");
    let sol = solve(&model, Algorithm::Auto).expect("solvable");
    let feasible = space
        .slos
        .iter()
        .all(|s| 1.0 - sol.call_acceptance(s.class) <= s.max_blocking);
    feasible.then(|| (i, sol.revenue()))
}

/// Brute-force argmax over all candidates: strictly-greater keeps the
/// earliest index on exact ties, mirroring the planner's canonical order.
fn brute_force_plan(space: &DesignSpace) -> Option<(u64, f64)> {
    let mut best: Option<(u64, f64)> = None;
    for i in 0..space.num_candidates() {
        if let Some((i, w)) = brute_objective(space, i) {
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((i, w));
            }
        }
    }
    best
}

/// Tier 4b: `Auto` sweeps at plan-grid loads and geometries stay on the
/// scaled-`f64` rays at every `N`, and agree with extended range on the
/// recombined measures and on the exact gradients.
#[test]
fn auto_sweep_stays_scaled_and_matches_ext_at_plan_grid_loads() {
    let check = |what: &str, n: u32, got: f64, want: f64| {
        assert!(
            close(got, want, 1e-10),
            "N = {n} {what}: scaled {got} vs ext {want}"
        );
    };
    for n in [96u32, 192, 320, 512] {
        let w = Workload::new()
            .with(TrafficClass::poisson(5e-5))
            .with(TrafficClass::bpp(2e-5, 1e-6, 1.0).with_weight(1.5))
            .with(
                TrafficClass::poisson(5e-11)
                    .with_bandwidth(2)
                    .with_weight(4.0),
            );
        let model = Model::new(Dims::square(n), w).unwrap();
        let auto = SweepSolver::new(&model, Algorithm::Auto).unwrap();
        assert_eq!(auto.algorithm(), Algorithm::Alg1Scaled, "N = {n}");
        let ext = SweepSolver::new(&model, Algorithm::Alg1Ext).unwrap();
        let edits = [(0, 5e-6), (0, 2e-4), (2, 1e-11), (2, 2e-10)];
        for (r, rho) in edits {
            let got = auto.solve_with_rho(r, rho).unwrap();
            assert_eq!(got.algorithm(), Algorithm::Alg1Scaled, "N = {n}");
            let want = ext.solve_with_rho(r, rho).unwrap();
            for q in 0..model.num_classes() {
                check("B", n, got.nonblocking(q), want.nonblocking(q));
                check("E", n, got.concurrency(q), want.concurrency(q));
            }
            check("W", n, got.revenue(), want.revenue());
        }
        for s in 0..model.num_classes() {
            let (got, want) = (auto.gradients(s), ext.gradients(s));
            for q in 0..model.num_classes() {
                check(
                    "dB/drho",
                    n,
                    got.nonblocking_by_rho[q],
                    want.nonblocking_by_rho[q],
                );
                check(
                    "dB/dy",
                    n,
                    got.nonblocking_by_beta[q],
                    want.nonblocking_by_beta[q],
                );
                check(
                    "dE/drho",
                    n,
                    got.concurrency_by_rho[q],
                    want.concurrency_by_rho[q],
                );
                check(
                    "dE/dy",
                    n,
                    got.concurrency_by_beta[q],
                    want.concurrency_by_beta[q],
                );
            }
            check("dW/drho", n, got.revenue_by_rho, want.revenue_by_rho);
            check("dW/dy", n, got.revenue_by_beta, want.revenue_by_beta);
        }
    }
}

/// Tier 3: a *policy-constrained* replay against the numerically solved
/// reservation chain — the trunk-reservation engine must reproduce the
/// per-class acceptance of [`solve_policy`] within its 99% CI.
#[test]
fn trunk_replay_acceptance_matches_solved_reservation_chain() {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.2))
        .with(TrafficClass::bpp(0.15, 0.05, 1.0));
    let model = Model::new(Dims::square(4), w).unwrap();
    let thresholds = vec![0u32, 1];
    let analytic = solve_policy(&model, &thresholds);
    let rep = replay(
        &model,
        &ReplayConfig {
            events: 400_000,
            seed: 20_260_807,
            batches: 20,
            engine: EngineConfig {
                policy: PolicySpec::TrunkReservation(thresholds),
                ..EngineConfig::default()
            },
        },
    )
    .unwrap();
    for (r, c) in rep.classes.iter().enumerate() {
        assert!(
            c.acceptance.covers_with_slack(analytic.acceptance[r], 2e-3),
            "class {r}: replay {:?} vs solve_policy {}",
            c.acceptance,
            analytic.acceptance[r]
        );
    }
    // The throttled class really was throttled.
    assert!(rep.classes[1].denied_policy > 0);
}
