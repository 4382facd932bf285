//! The reference loop every timing is normalised by.
//!
//! The benchmark host runs the same single-threaded code up to 1.9×
//! slower in stretches of seconds to minutes, when a neighbour shares the
//! core's caches and execution units. Timed next to the plan and sim ops,
//! a loop that sorts half a mebibyte of keys (resident in the core's L2)
//! slows with them: over 10 s windows the ops' raw medians spread by 0.08
//! to 0.24, their medians divided by the adjacent reference pass by 0.02
//! to 0.04. Loops that chase pointers through memory, stream it, or run
//! one long dependency chain did not slow at all, so they cannot stand in.
//!
//! A normalised time is a measured time multiplied by
//! `REFERENCE_NS / t_ref`, with `t_ref` the duration of the last reference
//! pass before it, or the mean of the passes just before and just after
//! it: the time the work would take on a core where the reference pass
//! takes `REFERENCE_NS`. A change that makes the program
//! faster moves its times and not the reference's, so it still shows.

use std::time::Instant;

use crate::stats::Rng;

/// Keys sorted by one reference pass: 512 KiB of `u64`, plus as much
/// again for the copy that gets sorted.
const KEYS: usize = 1 << 16;

/// The duration one reference pass is normalised to: about what it takes
/// on an undisturbed core of the benchmark host (2-vCPU Xeon VM).
pub const REFERENCE_NS: f64 = 1.2e6;

/// The reference loop and the durations of its last two passes.
pub struct Reference {
    keys: Vec<u64>,
    work: Vec<u64>,
    last_ns: f64,
    prev_ns: f64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// The loop over a fixed key set, with one pass already made so that
    /// the scales are set.
    pub fn new() -> Self {
        let mut rng = Rng::new(0x5eed, 99);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
        let mut r = Reference {
            work: Vec::with_capacity(keys.len()),
            keys,
            last_ns: REFERENCE_NS,
            prev_ns: REFERENCE_NS,
        };
        r.sample();
        r
    }

    /// Make one pass (copy the keys and sort the copy) and return its
    /// duration in ns.
    pub fn sample(&mut self) -> f64 {
        let t = Instant::now();
        self.work.clear();
        self.work.extend_from_slice(&self.keys);
        self.work.sort_unstable();
        std::hint::black_box(&self.work);
        let ns = (t.elapsed().as_nanos() as f64).max(1.0);
        self.prev_ns = self.last_ns;
        self.last_ns = ns;
        ns
    }

    /// The factor that turns a time measured after the last pass into a
    /// normalised one.
    pub fn scale(&self) -> f64 {
        REFERENCE_NS / self.last_ns
    }

    /// The factor for a time measured between the last two passes: by
    /// their mean duration, so a change of the host's state during the
    /// timed work counts in part. Timed next to plan ops, this narrowed
    /// the normalised 99th percentile from 1.47 to 1.28 times the median.
    pub fn scale_between(&self) -> f64 {
        2.0 * REFERENCE_NS / (self.prev_ns + self.last_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_sorts_the_keys_and_sets_the_scales() {
        let mut r = Reference::new();
        let a = r.sample();
        let b = r.sample();
        assert!(r.work.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.work.len(), KEYS);
        assert_eq!(r.scale(), REFERENCE_NS / b);
        assert_eq!(r.scale_between(), 2.0 * REFERENCE_NS / (a + b));
    }
}
