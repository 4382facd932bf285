//! Property battery for the parallel replication harness: it merges
//! replay statistics bitwise-identically to a serial fold of the same
//! replications, for any worker count. The replay loop itself is pinned
//! by the golden stream fingerprints (`golden_streams.rs`) and checked
//! against the exact loss-network chain by a unit test in `replay.rs`.

use proptest::prelude::*;
use xbar_admission::{EngineConfig, PolicySpec};
use xbar_core::{parallel, Dims, Model};
use xbar_sim::{run_replications, Confidence, RepConfig, ReplayConfig, ReplayReport};
use xbar_traffic::{TrafficClass, Workload};

fn policy_for(model: &Model, pick: usize) -> PolicySpec {
    match pick {
        0 => PolicySpec::CompleteSharing,
        1 => PolicySpec::TrunkReservation(vec![1; model.workload().classes().len()]),
        _ => PolicySpec::ShadowPrice { reserve: 1 },
    }
}

fn fingerprint(rep: &ReplayReport) -> Vec<(u64, u64, u64, u64, u64, u64)> {
    rep.classes
        .iter()
        .map(|c| {
            (
                c.offered,
                c.admitted,
                c.denied_capacity,
                c.denied_policy,
                c.acceptance.mean.to_bits(),
                c.acceptance.half_width.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn merged_replication_stats_are_bitwise_the_serial_fold(
        threads in 1usize..5,
        replications in 1u64..7,
        master_seed in 0u64..1_000,
        pick in 0usize..3,
    ) {
        let model = Model::new(
            Dims::new(5, 6),
            Workload::new()
                .with(TrafficClass::poisson(0.08))
                .with(TrafficClass::bpp(0.05, 0.02, 1.0)),
        ).expect("valid model");
        let cfg = ReplayConfig {
            events: 3_000,
            seed: 0, // overridden per replication by the harness
            batches: 6,
            engine: EngineConfig {
                policy: policy_for(&model, pick),
                ..EngineConfig::default()
            },
        };
        let rep = RepConfig { replications, master_seed, confidence: Confidence::P95 };
        let serial = parallel::with_threads(1, || run_replications(&model, &cfg, &rep))
            .expect("replay runs");
        let pooled = parallel::with_threads(threads, || run_replications(&model, &cfg, &rep))
            .expect("replay runs");
        prop_assert_eq!(pooled.replications, replications);
        prop_assert_eq!(pooled.events, serial.events);
        prop_assert_eq!(pooled.arrivals, serial.arrivals);
        prop_assert_eq!(pooled.departures, serial.departures);
        for (a, b) in pooled.classes.iter().zip(&serial.classes) {
            prop_assert_eq!(a.offered, b.offered);
            prop_assert_eq!(a.admitted, b.admitted);
            prop_assert_eq!(a.denied_capacity, b.denied_capacity);
            prop_assert_eq!(a.denied_policy, b.denied_policy);
            prop_assert_eq!(a.acceptance.mean.to_bits(), b.acceptance.mean.to_bits());
            prop_assert_eq!(a.acceptance.half_width.to_bits(), b.acceptance.half_width.to_bits());
        }
        // Per-replication reports line up stream-for-stream too: the
        // merged equality above can't come from compensating errors.
        for (a, b) in pooled.per_rep.iter().zip(&serial.per_rep) {
            prop_assert_eq!(a.arrivals, b.arrivals);
            prop_assert_eq!(fingerprint(a), fingerprint(b));
        }
    }
}
