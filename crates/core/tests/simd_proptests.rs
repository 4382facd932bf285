//! Property battery for the multi-lane sweep recombination kernel.
//!
//! The contract under test: the strict kernel the sweep runs is
//! **bit-for-bit** equal to the scalar reference kernel (same
//! multiply/add order per output point, only blocked across independent
//! points) at every ray length up to plan-grid's `N = 512` rays, every
//! stride and every lane remainder — so every input `install_class` and
//! `derivative_ray` hand to it gives the scalar loop's exact bits.

use proptest::prelude::*;

use xbar_core::simd::{combine_scalar, combine_strict};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn strict_kernel_is_bit_for_bit_scalar(
        len in 0usize..=513,
        a in 1usize..6,
        seed_base in prop::bool::ANY,
        seed in 1u64..u64::MAX,
    ) {
        let mut gen = seed;
        let mut next = move || {
            // xorshift64: deterministic per-case values at every length,
            // including the ragged lane tails.
            gen ^= gen << 13;
            gen ^= gen >> 7;
            gen ^= gen << 17;
            (gen >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let base: Vec<f64> = (0..len).map(|_| next()).collect();
        let coef: Vec<f64> = (0..len + 1).map(|_| next()).collect();
        let strict = combine_strict(&base, &coef, a, seed_base);
        let scalar = combine_scalar(&base, &coef, a, seed_base);
        prop_assert_eq!(strict.len(), scalar.len());
        for (d, (s, r)) in strict.iter().zip(&scalar).enumerate() {
            prop_assert_eq!(
                s.to_bits(), r.to_bits(),
                "strict[{}] {} != scalar {} (len {}, a {})", d, s, r, len, a
            );
        }
    }
}
