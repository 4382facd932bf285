//! The event core shared by every event-driven simulator in the
//! workspace: a simulation clock plus a calendar of scheduled events,
//! advanced one firing at a time by [`Calendar::step`].
//!
//! The simulators model continuous-time loss processes: memoryless
//! (state-dependent) arrivals and, for the crossbar, a memoryless port
//! fault process compete with scheduled events (holding-time departures,
//! retry back-offs). Exponential clocks are resampled at every step —
//! distributionally exact by memorylessness — so only the scheduled
//! events need a calendar. Each simulator keeps only its handlers; the
//! step owns the clock.
//!
//! # Order contract
//!
//! The calendar is a min-heap on `(time, seq)`, where `seq` counts
//! [`Calendar::schedule`] calls. Times compare with [`f64::total_cmp`],
//! so the order is total, and events at equal times pop in schedule
//! order. Within a step the tie rule is fixed: the second clock fires
//! only when it is strictly earliest, and a calendar event beats an
//! arrival at an equal time. Every RNG stream in the workspace is pinned
//! to this order (`crates/sim/tests/golden_streams.rs`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;

use crate::service::sample_exp;

struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the calendar pops the
        // earliest `(time, seq)`.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Simulation clock plus min-heap calendar of scheduled events `E`.
pub struct Calendar<E> {
    now: f64,
    seq: u64,
    heap: BinaryHeap<Entry<E>>,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar {
            now: 0.0,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> Calendar<E> {
    /// An empty calendar at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: f64, event: E) {
        let time = self.now + delay;
        debug_assert!(time.is_finite());
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Advance the clock to the next firing before `end` and return it.
    ///
    /// `arrival` and `clock` are two competing exponential clocks, given
    /// as `(rate, event)`: the arrival's firing time is drawn from `rng`
    /// first, then the second clock's, each only when its rate is `> 0`.
    /// `elapse(from, to)` then sees the interval the current state holds
    /// for, `to` clipped at `end`. At `end` the clock stops there and the
    /// step returns `None`. Ties follow the module's order contract.
    #[inline]
    pub fn step(
        &mut self,
        rng: &mut StdRng,
        end: f64,
        arrival: (f64, E),
        clock: (f64, E),
        elapse: impl FnOnce(f64, f64),
    ) -> Option<E> {
        let draw = |rng: &mut StdRng, rate: f64| {
            if rate > 0.0 {
                self.now + sample_exp(rng, 1.0 / rate)
            } else {
                f64::INFINITY
            }
        };
        let t_arrival = draw(rng, arrival.0);
        let t_clock = draw(rng, clock.0);
        let t_event = self.heap.peek().map_or(f64::INFINITY, |e| e.time);
        let t_next = t_arrival.min(t_event).min(t_clock).min(end);
        elapse(self.now, t_next);
        if t_next >= end {
            self.now = end;
            return None;
        }
        self.now = t_next;
        Some(if t_clock < t_event && t_clock < t_arrival {
            clock.1
        } else if t_event <= t_arrival {
            self.heap.pop().map(|e| e.event)?
        } else {
            arrival.1
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// One step with both exponential clocks off.
    fn next(cal: &mut Calendar<u32>, end: f64) -> Option<u32> {
        cal.step(
            &mut StdRng::seed_from_u64(0),
            end,
            (0.0, 0),
            (0.0, 0),
            |_, _| {},
        )
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        for (delay, id) in [(3.0, 1), (1.0, 2), (2.0, 3)] {
            cal.schedule(delay, id);
        }
        let order: Vec<_> =
            std::iter::from_fn(|| next(&mut cal, 9.0).map(|e| (cal.now(), e))).collect();
        assert_eq!(order, vec![(1.0, 2), (2.0, 3), (3.0, 1)]);
        // At `end` the clock stops there.
        assert_eq!(cal.now(), 9.0);
    }

    #[test]
    fn equal_times_are_deterministic() {
        // Schedule order, whatever the payload; a NaN time sorts last
        // instead of panicking.
        let mut cal = Calendar::new();
        cal.heap.push(Entry {
            time: f64::NAN,
            seq: 0,
            event: 7,
        });
        for id in [5, 2, 9] {
            cal.schedule(1.0, id);
        }
        let ids: Vec<_> = std::iter::from_fn(|| next(&mut cal, 5.0)).collect();
        assert_eq!(ids, vec![5, 2, 9]);
    }

    #[test]
    fn step_draws_the_clocks_in_order_and_reports_the_elapsed_interval() {
        let (mut rng, mut want) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        let mut cal = Calendar::new();
        let t_arrival = sample_exp(&mut want, 1.0 / 2.0);
        let t_clock = sample_exp(&mut want, 1.0 / 0.5);
        let mut seen = None;
        let fired = cal.step(&mut rng, 10.0, (2.0, 1), (0.5, 2), |a, b| {
            seen = Some((a, b))
        });
        assert_eq!(fired, Some(if t_clock < t_arrival { 2 } else { 1 }));
        assert_eq!(seen, Some((0.0, t_arrival.min(t_clock))));
        // A zero rate draws nothing: the streams stay in step.
        cal.step(&mut rng, 10.0, (1.0, 1), (0.0, 2), |_, _| {});
        sample_exp(&mut want, 1.0);
        assert_eq!(rng.gen::<u64>(), want.gen::<u64>());
    }

    #[test]
    fn calendar_beats_an_arrival_and_the_clock_needs_strict_priority() {
        // Infinite rates fire at `now` exactly, tying with a calendar
        // event at delay 0.
        let mut rng = StdRng::seed_from_u64(4);
        let mut cal = Calendar::new();
        cal.schedule(0.0, 9);
        let (arrival, clock) = ((f64::INFINITY, 1), (f64::INFINITY, 2));
        assert_eq!(cal.step(&mut rng, 1.0, arrival, clock, |_, _| {}), Some(9));
        assert_eq!(cal.step(&mut rng, 1.0, arrival, clock, |_, _| {}), Some(1));
    }
}
