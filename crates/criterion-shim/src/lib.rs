#![warn(missing_docs)]

//! Offline drop-in replacement for the subset of the `criterion` API this
//! workspace's benches use: [`Criterion`], [`BenchmarkGroup`],
//! [`BenchmarkId`], [`Bencher::iter`], [`Bencher::iter_batched`] with
//! [`BatchSize`], [`black_box`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros (both plain and
//! `name/config/targets` forms).
//!
//! Statistics are deliberately simple — warm up for the configured time,
//! then time batches until the measurement window closes and report the
//! mean — because these benches exist to keep *relative* regressions
//! visible, not to produce publication-grade distributions.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// `true` when the bench binary was invoked in smoke mode
/// (`cargo bench -- --smoke`, or `XBAR_BENCH_SMOKE=1`): every benchmark
/// body runs exactly once, so CI can catch panics/regressions in the bench
/// harnesses themselves in seconds instead of minutes.
pub fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
        || std::env::var("XBAR_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

/// Top-level benchmark driver (a configuration holder in this shim).
#[derive(Clone, Debug)]
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            sample_size: 100,
            smoke: smoke_mode(),
        }
    }
}

impl Criterion {
    /// Set the warm-up duration.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Set the measurement duration.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Set the nominal sample count (only scales the measurement window
    /// heuristically in this shim).
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n;
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmark a single function outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(self.warm_up, self.measurement, self.smoke, id, f);
        self
    }
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Reduce/raise the nominal sample count for slow/fast benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Declare per-iteration throughput. The shim records nothing (it
    /// reports plain ns/iter), but keeps the call site source-compatible
    /// with upstream criterion.
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Set the measurement duration for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.criterion.measurement = d;
        self
    }

    fn label(&self, id: &str) -> String {
        format!("{}/{}", self.name, id)
    }

    /// Benchmark a closure.
    pub fn bench_function<F>(&mut self, id: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = self.label(id.as_ref());
        run_one(
            self.criterion.warm_up,
            self.criterion.measurement,
            self.criterion.smoke,
            &label,
            f,
        );
        self
    }

    /// Benchmark a closure against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = self.label(&id.0);
        run_one(
            self.criterion.warm_up,
            self.criterion.measurement,
            self.criterion.smoke,
            &label,
            |b| f(b, input),
        );
        self
    }

    /// Close the group (no-op beyond matching the upstream API).
    pub fn finish(self) {}
}

/// A benchmark identifier `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId(String);

/// Per-iteration work declaration (accepted for source compatibility;
/// the shim's reporting ignores it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Iterations process this many logical elements.
    Elements(u64),
    /// Iterations process this many bytes.
    Bytes(u64),
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// Parameter-only id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

/// How [`Bencher::iter_batched`] batches its setup. The shim runs the
/// setup once per timed call whatever the size; the one variant keeps
/// call sites source-compatible with upstream criterion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// One setup per iteration: for inputs too costly to hold many of.
    PerIteration,
}

/// Passed to benchmark closures; call [`Bencher::iter`] with the code under
/// test.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    smoke: bool,
    /// Filled in by `iter`: (iterations, total elapsed).
    result: Option<(u64, Duration)>,
}

impl Bencher {
    /// Time `f`, repeatedly, for the configured window (once, in smoke
    /// mode).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        if self.smoke {
            let t0 = Instant::now();
            black_box(f());
            self.result = Some((1, t0.elapsed()));
            return;
        }
        // Warm-up, and discover a batch size targeting ~1ms per batch so
        // the Instant overhead stays negligible for fast bodies.
        let warm_end = Instant::now() + self.warm_up;
        let mut warm_iters: u64 = 0;
        while Instant::now() < warm_end {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = self.warm_up.as_secs_f64() / warm_iters.max(1) as f64;
        let batch = ((1.0e-3 / per_iter.max(1e-12)) as u64).clamp(1, 1 << 20);

        let mut iters: u64 = 0;
        let mut elapsed = Duration::ZERO;
        while elapsed < self.measurement {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            elapsed += t0.elapsed();
            iters += batch;
        }
        self.result = Some((iters, elapsed));
    }

    /// Time `routine` on a fresh input from `setup`, repeatedly, for the
    /// configured window (once, in smoke mode). Only `routine` is timed:
    /// `setup` runs before the clock starts and the output is dropped
    /// after it stops.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut timed = || {
            let input = setup();
            let t0 = Instant::now();
            let out = black_box(routine(black_box(input)));
            let dt = t0.elapsed();
            drop(out);
            dt
        };
        if self.smoke {
            self.result = Some((1, timed()));
            return;
        }
        let warm_end = Instant::now() + self.warm_up;
        while Instant::now() < warm_end {
            timed();
        }
        let mut iters: u64 = 0;
        let mut elapsed = Duration::ZERO;
        while elapsed < self.measurement {
            elapsed += timed();
            iters += 1;
        }
        self.result = Some((iters, elapsed));
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    warm_up: Duration,
    measurement: Duration,
    smoke: bool,
    label: &str,
    mut f: F,
) {
    let mut b = Bencher {
        warm_up,
        measurement,
        smoke,
        result: None,
    };
    f(&mut b);
    match b.result {
        Some((iters, elapsed)) if smoke => {
            let mean_ns = elapsed.as_nanos() as f64 / iters.max(1) as f64;
            println!("{label:<60} {:>14} (smoke: ran once)", fmt_ns(mean_ns));
        }
        Some((iters, elapsed)) => {
            let mean_ns = elapsed.as_nanos() as f64 / iters.max(1) as f64;
            println!(
                "{label:<60} {:>14} /iter   ({iters} iters)",
                fmt_ns(mean_ns)
            );
        }
        None => println!("{label:<60} (no iterations run)"),
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Define a benchmark entry function from a config expression and target
/// functions. Both upstream forms are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Define `main` from one or more groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_body_exactly_once() {
        let mut count = 0u32;
        run_one(
            Duration::from_millis(5),
            Duration::from_millis(10),
            true,
            "smoke-test",
            |b| b.iter(|| count += 1),
        );
        assert_eq!(count, 1);
    }

    #[test]
    fn iter_batched_hands_each_call_a_fresh_setup() {
        for smoke in [true, false] {
            let (mut setups, mut runs) = (0u32, 0u32);
            run_one(
                Duration::from_millis(2),
                Duration::from_millis(4),
                smoke,
                "batched",
                |b| {
                    b.iter_batched(
                        || {
                            setups += 1;
                            setups
                        },
                        |input| {
                            runs += 1;
                            assert_eq!(input, runs, "each call gets its own setup");
                            std::thread::sleep(Duration::from_millis(1));
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
            assert_eq!(setups, runs);
            assert!(runs >= 1);
            if smoke {
                assert_eq!(runs, 1, "smoke mode runs once");
            }
        }
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(5))
            .measurement_time(Duration::from_millis(10));
        let mut g = c.benchmark_group("shim");
        g.sample_size(10);
        g.bench_function("add", |b| b.iter(|| black_box(1u64 + 2)));
        g.bench_with_input(BenchmarkId::new("square", 7), &7u64, |b, &x| {
            b.iter(|| black_box(x * x))
        });
        g.finish();
        c.bench_function("top-level", |b| b.iter(|| black_box(3u64.pow(2))));
    }
}
