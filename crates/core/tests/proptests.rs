//! Property-based cross-validation of the solver algorithms.
//!
//! The central invariant of the whole crate: for *any* valid workload,
//! brute-force enumeration of the product form, Algorithm 1 (all three
//! numeric backends) and Algorithm 2 must agree on every performance
//! measure.

use proptest::prelude::*;

use xbar_core::brute::Brute;
use xbar_core::{solve, solve_cross_checked, Algorithm, Dims, Model};
use xbar_traffic::{TrafficClass, Workload};

fn close(a: f64, b: f64, tol: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1e-12);
    (a - b).abs() / scale < tol
}

/// A random valid traffic class for a switch with `max_n` ports.
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
            // β = frac·μ keeps the class stable.
            TrafficClass::bpp(alpha, frac * mu, mu)
                .with_bandwidth(a)
                .with_weight(w)
        });
    let bernoulli = (1u64..6, 0.01f64..0.5, 0.5f64..2.0, 0.01f64..2.0).prop_map(
        move |(extra, p_rate, mu, w)| {
            // S = max_n + extra sources, each with rate p_rate:
            // α = S·p, β = −p  ⇒ integral population ≥ max_n.
            let s = (max_n as u64 + extra) as f64;
            TrafficClass::bpp(s * p_rate, -p_rate, mu).with_weight(w)
        },
    );
    prop_oneof![poisson, pascal, bernoulli]
}

fn arb_model() -> impl Strategy<Value = Model> {
    (2u32..7, 2u32..7).prop_flat_map(|(n1, n2)| {
        let max_n = n1.max(n2);
        prop::collection::vec(arb_class(max_n), 1..4).prop_filter_map(
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
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_match_brute_force(model in arb_model()) {
        let brute = Brute::new(&model);
        let r_count = model.num_classes();
        for alg in [
            Algorithm::Alg1F64,
            Algorithm::Alg1Scaled,
            Algorithm::Alg1Ext,
            Algorithm::Mva,
            Algorithm::Convolution,
        ] {
            let sol = solve(&model, alg).unwrap();
            for r in 0..r_count {
                prop_assert!(
                    close(sol.nonblocking(r), brute.nonblocking(r), 1e-8),
                    "alg {alg} nonblocking class {r}: {} vs {}",
                    sol.nonblocking(r), brute.nonblocking(r)
                );
                prop_assert!(
                    close(sol.concurrency(r), brute.concurrency(r), 1e-8),
                    "alg {alg} concurrency class {r}: {} vs {}",
                    sol.concurrency(r), brute.concurrency(r)
                );
            }
            prop_assert!(close(sol.revenue(), brute.revenue(), 1e-8));
        }
    }

    #[test]
    fn probabilities_are_probabilities(model in arb_model()) {
        let sol = solve(&model, Algorithm::Alg1Ext).unwrap();
        for r in 0..model.num_classes() {
            let b = sol.nonblocking(r);
            prop_assert!((0.0..=1.0).contains(&b), "B_{r} = {b}");
            let acc = sol.call_acceptance(r);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&acc), "acc_{r} = {acc}");
            prop_assert!(sol.concurrency(r) >= 0.0);
        }
    }

    #[test]
    fn occupancy_and_marginals_are_distributions(model in arb_model()) {
        let sol = solve(&model, Algorithm::Convolution).unwrap();
        let occ = sol.occupancy_distribution();
        prop_assert!((occ.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(occ.iter().all(|&p| p >= -1e-15));
        for r in 0..model.num_classes() {
            let marg = sol.class_marginal(r);
            prop_assert!((marg.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Marginal mean must equal the concurrency measure.
            let mean: f64 = marg.iter().enumerate().map(|(j, p)| j as f64 * p).sum();
            let e = sol.concurrency(r);
            prop_assert!((mean - e).abs() < 1e-8 * (1.0 + e), "{mean} vs {e}");
        }
    }

    #[test]
    fn detailed_balance_always_holds(model in arb_model()) {
        let brute = Brute::new(&model);
        prop_assert!(brute.detailed_balance_violation() < 1e-10);
    }

    #[test]
    fn concurrency_bounded_by_capacity(model in arb_model()) {
        // Σ_r a_r·E_r ≤ min(N1,N2): can't hold more connections than ports.
        let sol = solve(&model, Algorithm::Alg1Ext).unwrap();
        let total: f64 = model
            .workload()
            .classes()
            .iter()
            .enumerate()
            .map(|(r, c)| c.bandwidth as f64 * sol.concurrency(r))
            .sum();
        prop_assert!(total <= model.dims().min_n() as f64 + 1e-9, "{total}");
    }

    #[test]
    fn blocking_monotone_in_any_poisson_load(
        n in 3u32..7,
        rho in 0.05f64..1.0,
        bump in 0.05f64..1.0,
    ) {
        // More offered load ⇒ more blocking (single Poisson class).
        let mk = |r: f64| {
            let w = Workload::new().with(TrafficClass::poisson(r));
            Model::new(Dims::square(n), w).unwrap()
        };
        let lo = solve(&mk(rho), Algorithm::Alg1F64).unwrap().blocking(0);
        let hi = solve(&mk(rho + bump), Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(hi >= lo - 1e-12, "{hi} < {lo}");
    }

    #[test]
    fn blocking_increases_with_switch_size_at_fixed_per_input_load(
        n in 2u32..6,
        rho_tilde in 0.01f64..0.8,
    ) {
        // At fixed aggregate per-input load ρ̃, a bigger switch blocks
        // *more*: an arrival needs its one specific input and one specific
        // output simultaneously free, and port utilisation stays ≈ ρ̃ while
        // the single-resource sharing advantage of a small fabric fades.
        // This is the rising-to-asymptote shape of paper Figs 1–2 and the
        // N-trend of Table 2.
        let mk = |n: u32| {
            let w = Workload::new().with(TrafficClass::poisson(rho_tilde / n as f64));
            Model::new(Dims::square(n), w).unwrap()
        };
        let small = solve(&mk(n), Algorithm::Alg1F64).unwrap().blocking(0);
        let large = solve(&mk(2 * n), Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(large >= small - 1e-12, "{large} < {small}");
    }

    #[test]
    fn peakier_traffic_blocks_more(
        n in 2u32..7,
        alpha in 0.01f64..0.5,
        beta in 0.01f64..0.8,
    ) {
        // Pascal (β > 0) blocking ≥ Poisson blocking at the same α, μ —
        // the headline claim of paper Fig 2.
        let poisson = Workload::new().with(TrafficClass::poisson(alpha));
        let pascal = Workload::new().with(TrafficClass::bpp(alpha, beta, 1.0));
        let mp = Model::new(Dims::square(n), poisson).unwrap();
        let mb = Model::new(Dims::square(n), pascal).unwrap();
        let bp = solve(&mp, Algorithm::Alg1F64).unwrap().blocking(0);
        let bb = solve(&mb, Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(bb >= bp - 1e-12, "pascal {bb} < poisson {bp}");
    }

    #[test]
    fn smoother_traffic_blocks_less(
        n in 2u32..7,
        p_rate in 0.01f64..0.3,
        extra in 1u64..8,
    ) {
        // Bernoulli (β < 0) blocking ≤ Poisson blocking at the same α —
        // paper Fig 1's "Poisson is an upper bound for smooth traffic".
        let s = (n as u64 + extra) as f64;
        let alpha = s * p_rate;
        let bern = Workload::new().with(TrafficClass::bpp(alpha, -p_rate, 1.0));
        let pois = Workload::new().with(TrafficClass::poisson(alpha));
        let mb = Model::new(Dims::square(n), bern).unwrap();
        let mp = Model::new(Dims::square(n), pois).unwrap();
        let bb = solve(&mb, Algorithm::Alg1F64).unwrap().blocking(0);
        let bp = solve(&mp, Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(bb <= bp + 1e-12, "bernoulli {bb} > poisson {bp}");
    }

    #[test]
    fn wider_bandwidth_blocks_more_at_equal_connection_load(
        n in 4u32..8,
        load in 0.01f64..0.5,
    ) {
        // Paper Fig 4: a = 2 requests block more than a = 1 at matched
        // offered connection load (per-set ρ chosen so a·ρ is constant).
        let w1 = Workload::new().with(TrafficClass::poisson(load));
        let w2 = Workload::new().with(TrafficClass::poisson(load / 2.0).with_bandwidth(2));
        let m1 = Model::new(Dims::square(n), w1).unwrap();
        let m2 = Model::new(Dims::square(n), w2).unwrap();
        let b1 = solve(&m1, Algorithm::Alg1F64).unwrap().blocking(0);
        let b2 = solve(&m2, Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(b2 >= b1 - 1e-12, "a=2 {b2} < a=1 {b1}");
    }

    #[test]
    fn resilient_pipeline_matches_alg1_ext(model in arb_model()) {
        // The cross-checked solve's answer must agree with the
        // extended-range lattice of Algorithm 1.
        let (sol, _) = solve_cross_checked(&model, 1e-9).unwrap();
        let reference = solve(&model, Algorithm::Alg1Ext).unwrap();
        for r in 0..model.num_classes() {
            prop_assert!(
                close(sol.nonblocking(r), reference.nonblocking(r), 1e-8),
                "nonblocking class {r}: {} vs {}",
                sol.nonblocking(r), reference.nonblocking(r)
            );
            prop_assert!(
                close(sol.concurrency(r), reference.concurrency(r), 1e-8),
                "concurrency class {r}: {} vs {}",
                sol.concurrency(r), reference.concurrency(r)
            );
        }
        prop_assert!(close(sol.revenue(), reference.revenue(), 1e-8));
    }

    #[test]
    fn resilient_pipeline_matches_brute_force_escalating(model in arb_model()) {
        // The cross-checked solve against exact enumeration.
        let (sol, _) = solve_cross_checked(&model, 1e-9).unwrap();
        let brute = Brute::new(&model);
        for r in 0..model.num_classes() {
            prop_assert!(
                close(sol.nonblocking(r), brute.nonblocking(r), 1e-8),
                "class {r}: {} vs {}",
                sol.nonblocking(r), brute.nonblocking(r)
            );
        }
    }

    #[test]
    fn insensitivity_to_mu_at_fixed_rho(
        n in 2u32..6,
        rho in 0.05f64..1.0,
        mu in 0.1f64..10.0,
    ) {
        // Blocking depends on ρ = α/μ only (for Poisson classes): scaling
        // α and μ together changes nothing.
        let w1 = Workload::new().with(TrafficClass::poisson(rho));
        let w2 = Workload::new().with(TrafficClass::bpp(rho * mu, 0.0, mu));
        let m1 = Model::new(Dims::square(n), w1).unwrap();
        let m2 = Model::new(Dims::square(n), w2).unwrap();
        let b1 = solve(&m1, Algorithm::Alg1F64).unwrap().blocking(0);
        let b2 = solve(&m2, Algorithm::Alg1F64).unwrap().blocking(0);
        prop_assert!(close(b1, b2, 1e-10));
    }
}
