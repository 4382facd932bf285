//! Bit-level fingerprint of the Omega-network simulator's event stream at
//! a fixed seed: any change to its event order or RNG draws moves these.

use xbar_baselines::{OmegaConfig, OmegaSim};
use xbar_sim::ServiceDist;

#[test]
fn omega_stream_is_pinned_bit_for_bit() {
    let cfg = OmegaConfig {
        stages: 3,
        lambda: 0.02,
        service: ServiceDist::Exponential { mean: 1.0 },
    };
    let rep = OmegaSim::new(cfg, 21).run(100.0, 5_000.0, 10);
    assert_eq!(rep.offered, 6_372);
    assert_eq!(rep.blocking.mean.to_bits(), 0x3fd1_41e0_8ade_639f);
    assert_eq!(rep.crossbar_blocking.mean.to_bits(), 0x3fca_6cdf_e187_bb42);
}
