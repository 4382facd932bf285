//! Golden event-stream fingerprints pinning the simulator loops.
//!
//! These counters and f64 bit patterns were captured from the legacy
//! rebuild-every-event loops (pre-PR 10) at fixed seeds. The incremental
//! loops must reproduce them *bit for bit*: the resident rate table
//! re-sums totals in the legacy fold order and keeps the legacy
//! subtractive selection scan, so any divergence here means the
//! bit-compatibility contract in `crates/sim/src/rates.rs` broke.
//!
//! The faulted-crossbar and retrial fingerprints were captured from the
//! hand-written event loops these simulators had before they shared the
//! event core in `crates/sim/src/events.rs`; they pin its order contract
//! and tie rule, the fault clock, and the stale-departure skip.

use xbar_admission::{EngineConfig, PolicySpec};
use xbar_core::{Dims, Model};
use xbar_sim::{
    replay, run_sim_until_ci, CiTarget, Confidence, CrossbarSim, FaultConfig, RepConfig,
    ReplayConfig, RetrialConfig, RetrialSim, RunConfig, SimConfig,
};
use xbar_traffic::{TrafficClass, Workload};

fn run_crossbar(cfg: SimConfig, seed: u64) -> (u64, Vec<(u64, u64, u64)>, u64) {
    let mut sim = CrossbarSim::new(cfg, seed);
    let rep = sim.run(RunConfig {
        warmup: 50.0,
        duration: 5_000.0,
        batches: 10,
    });
    let classes = rep
        .classes
        .iter()
        .map(|c| (c.offered, c.blocked, c.blocking.mean.to_bits()))
        .collect();
    (rep.events, classes, rep.revenue.to_bits())
}

#[test]
fn crossbar_streams_match_the_legacy_loop_bit_for_bit() {
    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(4, 4).with_exp_class(TrafficClass::poisson(0.2)),
        7,
    );
    assert_eq!(events, 23_185);
    assert_eq!(classes, vec![(16_010, 8_834, 0x3fe1_a797_a57e_8c4d)]);
    assert_eq!(revenue, 0x3ff7_4051_f5f4_5a83);

    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(6, 8)
            .with_exp_class(TrafficClass::poisson(0.1))
            .with_exp_class(TrafficClass::bpp(0.08, 0.04, 1.0))
            .with_exp_class(TrafficClass::poisson(0.02).with_bandwidth(2)),
        99,
    );
    assert_eq!(events, 235_176);
    assert_eq!(
        classes,
        vec![
            (24_172, 19_974, 0x3fea_71ab_2959_2aee),
            (27_802, 23_293, 0x3fea_cf10_5876_ff21),
            (168_560, 162_625, 0x3fee_df8e_adf3_cbeb),
        ]
    );
    assert_eq!(revenue, 0x4007_9f08_4888_3e7a);

    let (events, classes, revenue) = run_crossbar(
        SimConfig::new(3, 3).with_exp_class(TrafficClass::bpp(0.64, -0.04, 1.0)),
        13,
    );
    assert_eq!(events, 33_788);
    assert_eq!(classes, vec![(25_909, 18_029, 0x3fe6_441d_cf70_9624)]);
    assert_eq!(revenue, 0x3ff8_fd0d_f824_cdb9);
}

#[test]
fn replay_streams_match_the_legacy_loop_bit_for_bit() {
    let w = Workload::new()
        .with(TrafficClass::poisson(0.1))
        .with(TrafficClass::bpp(0.08, 0.04, 1.0));
    let model = Model::new(Dims::new(6, 8), w).unwrap();
    let run = |policy: PolicySpec, seed: u64| {
        let rep = replay(
            &model,
            &ReplayConfig {
                events: 50_000,
                seed,
                batches: 20,
                engine: EngineConfig {
                    policy,
                    ..EngineConfig::default()
                },
            },
        )
        .unwrap();
        let classes: Vec<(u64, u64, u64, u64, u64)> = rep
            .classes
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
            .collect();
        (rep.arrivals, rep.departures, classes)
    };

    let (arrivals, departures, classes) = run(PolicySpec::CompleteSharing, 9);
    assert_eq!((arrivals, departures), (39_362, 10_638));
    assert_eq!(
        classes,
        vec![
            (15_486, 4_601, 10_885, 0, 0x3fd2_ff3c_e36f_153a),
            (23_876, 6_040, 17_836, 0, 0x3fd0_30ab_e4f2_dff3),
        ]
    );

    let (arrivals, departures, classes) = run(PolicySpec::TrunkReservation(vec![0, 3]), 77);
    assert_eq!((arrivals, departures), (39_572, 10_428));
    assert_eq!(
        classes,
        vec![
            (18_088, 6_674, 11_414, 0, 0x3fd7_9c36_1ae6_ef8e),
            (21_484, 3_758, 13_822, 3_904, 0x3fc6_64bd_4cd0_96dd),
        ]
    );

    let (arrivals, departures, classes) = run(PolicySpec::ShadowPrice { reserve: 1 }, 11);
    assert_eq!((arrivals, departures), (39_396, 10_604));
    assert_eq!(
        classes,
        vec![
            (15_447, 4_559, 10_888, 0, 0x3fd2_e3fa_8c06_922a),
            (23_949, 6_047, 17_902, 0, 0x3fd0_2a02_f802_7f56),
        ]
    );
}

/// The replicated-CI benchmark's switch: 16×16, three classes (2,
/// 0.6 + 0.4k and 0.8 Erlangs spread over the 16², 16², 240² port tuples:
/// Poisson, peaky Pascal, Poisson at a = 2) and ports that fail and get
/// repaired (MTBF 200, MTTR 10).
fn sim_ci_switch() -> SimConfig {
    SimConfig::new(16, 16)
        .with_exp_class(TrafficClass::poisson(2.0 / 256.0))
        .with_exp_class(TrafficClass::bpp(0.6 / 256.0, 0.4 / 256.0, 1.0))
        .with_exp_class(TrafficClass::poisson(0.8 / 57_600.0).with_bandwidth(2))
        .with_faults(FaultConfig::from_mtbf_mttr(200.0, 10.0))
}

#[test]
fn faulted_crossbar_stream_is_pinned_bit_for_bit() {
    // One replication of the benchmark's switch. Pins the fault clock,
    // teardowns and the stale-departure skip with the arrival stream.
    let rep = CrossbarSim::new(sim_ci_switch(), 5).run(RunConfig {
        warmup: 50.0,
        duration: 2_000.0,
        batches: 10,
    });
    let classes: Vec<(u64, u64, u64, u64)> = rep
        .classes
        .iter()
        .map(|c| {
            (
                c.offered,
                c.blocked,
                c.fault_blocked,
                c.blocking.mean.to_bits(),
            )
        })
        .collect();
    assert_eq!(rep.events, 12_168);
    assert_eq!(
        classes,
        vec![
            (3_986, 1_380, 373, 0x3fd6_256d_a64b_ce12),
            (1_638, 623, 130, 0x3fd8_6074_b52f_e583),
            (1_616, 935, 272, 0x3fe2_82bb_e819_46d2),
        ]
    );
    assert_eq!(rep.revenue.to_bits(), 0x4000_fdf3_c42d_7a93);
    let faults = rep.faults.expect("faults enabled");
    assert_eq!(
        (faults.failures, faults.repairs, faults.torn_down),
        (315, 314, 55)
    );
}

#[test]
fn retrial_stream_is_pinned_bit_for_bit() {
    let cfg = RetrialConfig {
        n1: 6,
        n2: 6,
        class: TrafficClass::poisson(0.05),
        max_attempts: 3,
        backoff_mean: 0.3,
    };
    let rep = RetrialSim::new(cfg, 4).run(100.0, 10_000.0, 10);
    assert_eq!(
        (rep.calls, rep.carried, rep.lost, rep.pending),
        (18_118, 15_833, 2_284, 1)
    );
    assert_eq!(
        (rep.attempts, rep.blocked_attempts, rep.retries),
        (29_864, 14_031, 11_747)
    );
    assert_eq!(rep.loss.mean.to_bits(), 0x3fc0_1e9d_338d_0e00);
    assert_eq!(rep.attempt_blocking.mean.to_bits(), 0x3fde_0c57_ec2d_7ab6);
}

#[test]
fn sim_ci_merged_report_is_pinned_bit_for_bit() {
    // The whole replicated-CI run at the benchmark's exact config: its
    // switch, stopped by the harness once every class's 99% half-width
    // reaches 0.01 (24 replications, then +4 up to 64). This master seed
    // needs a second round. Pins the per-replication streams, the serial
    // merge and the stopping rule together.
    let run = RunConfig {
        warmup: 50.0,
        duration: 2_000.0,
        batches: 10,
    };
    let rep = RepConfig {
        replications: 0,
        master_seed: 0x0b63_d165_f892_93ab,
        confidence: Confidence::P99,
    };
    let target = CiTarget {
        half_width: 0.01,
        initial: 24,
        step: 4,
        max: 64,
    };
    let merged = run_sim_until_ci(&sim_ci_switch(), &run, &rep, target).expect("valid config");
    let classes: Vec<(u64, u64, u64, u64, u64)> = merged
        .classes
        .iter()
        .map(|c| {
            (
                c.offered,
                c.blocked,
                c.fault_blocked,
                c.blocking.mean.to_bits(),
                c.blocking.half_width.to_bits(),
            )
        })
        .collect();
    assert_eq!((merged.replications, merged.rounds), (28, 2));
    assert_eq!(merged.events, 338_048);
    assert_eq!(
        classes,
        vec![
            (
                111_690,
                39_445,
                10_279,
                0x3fd6_96f0_faab_4e14,
                0x3f75_97a4_8818_7276
            ),
            (
                44_760,
                16_815,
                4_097,
                0x3fd8_0cd7_6905_57b9,
                0x3f82_4ab8_1a86_a5b3
            ),
            (
                44_765,
                25_576,
                8_021,
                0x3fe2_4719_e19f_eecb,
                0x3f7a_ebe6_0fb0_a240
            ),
        ]
    );
    assert_eq!(merged.revenue.mean.to_bits(), 0x4000_f0e2_1991_ba71);
}
