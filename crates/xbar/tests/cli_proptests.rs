//! Property tests for the CLI front-end: whatever argument vector or class
//! spec the shell throws at it, the parser must return a value — `Ok` or a
//! typed `Err` — and never panic. This is the contract that makes the
//! binary's exit codes trustworthy (a panic would bypass them).

use proptest::prelude::*;

use xbar::cli::{parse_args, parse_class};

/// Tokens mixing plausible flags, plausible values, and garbage.
fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("solve".to_string()),
        Just("sim".to_string()),
        Just("--n".to_string()),
        Just("--n1".to_string()),
        Just("--n2".to_string()),
        Just("--class".to_string()),
        Just("--algorithm".to_string()),
        Just("--cross-check".to_string()),
        Just("--cross-check-tol".to_string()),
        Just("--duration".to_string()),
        Just("--warmup".to_string()),
        Just("--seed".to_string()),
        Just("--port-mtbf".to_string()),
        Just("--port-mttr".to_string()),
        Just("--fail-inputs".to_string()),
        Just("--fail-outputs".to_string()),
        Just("poisson:rho=0.1".to_string()),
        Just("bpp:alpha=0.1,beta=0.05".to_string()),
        Just("alg2-mva".to_string()),
        Just("auto".to_string()),
        Just("nan".to_string()),
        Just("inf".to_string()),
        Just("-inf".to_string()),
        Just("-7".to_string()),
        Just("1e308".to_string()),
        Just("1e-308".to_string()),
        Just("18446744073709551616".to_string()), // u64::MAX + 1
        Just("0".to_string()),
        Just("".to_string()),
        Just("--bogus".to_string()),
        Just("💥".to_string()),
        (0.0f64..1e6).prop_map(|x| x.to_string()),
        (0u32..5000).prop_map(|x| x.to_string()),
    ]
}

/// Random class-spec-shaped strings: a kind-ish prefix, then noisy
/// key=value fragments.
fn arb_spec() -> impl Strategy<Value = String> {
    let kind = prop_oneof![
        Just("poisson".to_string()),
        Just("bpp".to_string()),
        Just("erlang".to_string()),
        Just("".to_string()),
    ];
    let key = prop_oneof![
        Just("rho".to_string()),
        Just("alpha".to_string()),
        Just("beta".to_string()),
        Just("mu".to_string()),
        Just("a".to_string()),
        Just("w".to_string()),
        Just("tilde".to_string()),
        Just("bogus".to_string()),
        Just("=".to_string()),
        Just("".to_string()),
    ];
    let value = prop_oneof![
        (0.0f64..100.0).prop_map(|x| x.to_string()),
        Just("nan".to_string()),
        Just("inf".to_string()),
        Just("-1".to_string()),
        Just("1.5".to_string()),
        Just("x".to_string()),
        Just("".to_string()),
    ];
    let part = (key, value, prop::bool::ANY).prop_map(
        |(k, v, flag)| {
            if flag {
                k
            } else {
                format!("{k}={v}")
            }
        },
    );
    let sep = prop_oneof![Just(":".to_string()), Just("".to_string())];
    (kind, sep, prop::collection::vec(part, 0..4))
        .prop_map(|(kind, sep, parts)| format!("{kind}{sep}{}", parts.join(",")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parse_args_never_panics(tokens in prop::collection::vec(arb_token(), 0..12)) {
        // The property is total absence of panics; both outcomes are legal.
        let _ = parse_args(&tokens);
    }

    #[test]
    fn parse_class_never_panics(spec in arb_spec()) {
        let result = parse_class(&spec);
        // Structurally impossible specs must actually be rejected.
        if !spec.contains(':') {
            prop_assert!(result.is_err(), "accepted '{spec}'");
        }
    }

    #[test]
    fn accepted_args_are_internally_consistent(
        tokens in prop::collection::vec(arb_token(), 0..12),
    ) {
        if let Ok(args) = parse_args(&tokens) {
            prop_assert!(args.command == "solve" || args.command == "sim");
            prop_assert!(!args.classes.is_empty());
            prop_assert!(args.duration.is_finite() && args.duration > 0.0);
            prop_assert!(args.warmup.is_finite() && args.warmup >= 0.0);
            prop_assert!(!args.port_mtbf.is_nan() && args.port_mtbf >= 0.0);
            prop_assert!(!args.port_mttr.is_nan() && args.port_mttr >= 0.0);
            if let Some(tol) = args.cross_check_tol {
                prop_assert!(tol.is_finite() && tol > 0.0);
            }
        }
    }
}
