//! End-to-end and per-layer benchmark of xbar's three serving paths: the
//! admission daemon (`serve-fleet`, `serve-paced`), the capacity planner
//! (`plan-grid`) and the replicated simulator (`sim-ci`).
//!
//! A run with tracing off measures the end-to-end metrics of one
//! workload, its times normalised by an interleaved [`reference`] loop; a
//! run with tracing on replays the same inputs through the lower layers'
//! public functions and reports per-layer metrics, raw. See `README.md`
//! next to this crate for the metric definitions.

pub mod host;
pub mod plan;
pub mod reference;
pub mod serve;
pub mod sim;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each of them with tracing
/// off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: every workload reports each of them with tracing
/// on; a layer the workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("daemon.parse_ns", "ns"),
    ("daemon.self_ns", "ns"),
    ("tenant.self_ns", "ns"),
    ("tenant.open_ms", "ms"),
    ("tenant.opens", "count"),
    ("wal.append_ns", "ns"),
    ("wal.appends", "count"),
    ("wal.bytes_per_op", "B"),
    ("wal.sync_us", "us"),
    ("wal.syncs", "count"),
    ("snapshot.write_us", "us"),
    ("snapshot.writes", "count"),
    ("snapshot.bytes", "B"),
    ("engine.apply_ns", "ns"),
    ("engine.reprice_ns", "ns"),
    ("engine.reprice_passes", "count"),
    ("engine.drift_check_us", "us"),
    ("engine.drift_checks", "count"),
    ("engine.reanchors", "count"),
    ("engine.admit_ratio", "ratio"),
    ("core.anchor_solve_us", "us"),
    ("core.anchor_solves", "count"),
    ("core.cache_hits", "count"),
    ("core.sweep_build_us", "us"),
    ("core.sweep_builds", "count"),
    ("core.recombine_us", "us"),
    ("core.recombines", "count"),
    ("core.escalations", "count"),
    ("core.lattice_cells", "count"),
    ("plan.evaluated", "count"),
    ("plan.pruned", "count"),
    ("plan.prune_ratio", "ratio"),
    ("plan.report_us", "us"),
    ("plan.pool_busy_share", "ratio"),
    ("sim.event_ns", "ns"),
    ("sim.events", "count"),
    ("sim.replications", "count"),
    ("sim.rounds", "count"),
    ("sim.port_failures", "count"),
    ("sim.teardowns", "count"),
    ("harness.busy_share", "ratio"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unaccounted_share", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve-fleet", "serve-paced", "plan-grid", "sim-ci"];

/// Solver and harness threads every workload runs with. The benchmark
/// host has two virtual cores, but the second was free so unevenly that
/// two-thread timings swung by a third between back-to-back runs (two
/// threads ran 1.0–1.4× faster than one), so the benchmark measures one.
pub const THREADS: usize = 1;

/// What one run was asked to do.
#[derive(Clone, Debug)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Scratch directory for durable state (inside the checkout).
    pub work: PathBuf,
}

impl RunOpts {
    /// When the measured phase must stop.
    pub fn deadline(&self, from: Instant) -> Instant {
        from + Duration::from_secs_f64(self.seconds)
    }
}

/// What a run measured and whether its outputs were right.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Why a check failed (empty when `correct`).
    pub problems: Vec<String>,
    values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// An outcome with no ops yet and every check passing.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Metric `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Record a failed check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// The result line: `metrics` holds every metric of `set`, a metric
    /// the workload did not set reading 0.
    pub fn to_json(&self, set: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Per-op latencies, each already normalised by the caller (see
/// [`reference`]). The median is taken over every op of the run (nearest
/// rank, from a [`stats::Histogram`]), and the throughput is the ops over
/// the sum of their latencies. The 99th percentile is taken over every op
/// too, so a stall counts wherever it lands, unless the recorder is
/// [`Recorder::windowed`]. Memory stays flat however many ops a run makes.
#[derive(Default)]
pub struct Recorder {
    all: stats::Histogram,
    sum_ns: f64,
    /// Ops per window of a windowed recorder.
    window: Option<usize>,
    buf: Vec<u64>,
    window_p99s: Vec<f64>,
}

/// What a [`Recorder`] reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over every op, ns.
    pub p50_ns: f64,
    /// 99th percentile over every op, or the median of the windows' 99th
    /// percentiles, ns.
    pub p99_ns: f64,
    /// Ops over the sum of their latencies, ops/s.
    pub rate: f64,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A recorder whose 99th percentile is the median, over consecutive
    /// windows of `len` ops, of each window's own 99th percentile (over
    /// every op when no window is complete). A stall then moves it only
    /// when it hits more than half the windows.
    pub fn windowed(len: usize) -> Self {
        Recorder {
            window: Some(len.max(1)),
            ..Self::default()
        }
    }

    /// Record one op's latency in ns.
    pub fn record(&mut self, ns: f64) {
        let v = ns.max(0.0).round() as u64;
        self.all.record(v);
        self.sum_ns += ns;
        if let Some(len) = self.window {
            self.buf.push(v);
            if self.buf.len() == len {
                self.buf.sort_unstable();
                let rank = (0.99 * len as f64).ceil() as usize;
                self.window_p99s
                    .push(self.buf[rank.clamp(1, len) - 1] as f64);
                self.buf.clear();
            }
        }
    }

    /// Reduce the run.
    pub fn finish(&self) -> Summary {
        let p99_ns = stats::quantile(&self.window_p99s, 0.5)
            .or_else(|| self.all.percentile(99.0))
            .unwrap_or(0.0);
        Summary {
            p50_ns: self.all.percentile(50.0).unwrap_or(0.0),
            p99_ns,
            rate: self.all.len() as f64 / (self.sum_ns.max(1.0) * 1e-9),
        }
    }

    /// Set `latency_p50_us` and `latency_p99_us`; returns the throughput
    /// (ops/s).
    pub fn report(self, out: &mut Outcome) -> f64 {
        let s = self.finish();
        out.set("latency_p50_us", s.p50_ns / 1e3);
        out.set("latency_p99_us", s.p99_ns / 1e3);
        s.rate
    }
}

/// `setup_s` from set-up samples taken across a run: their median.
pub fn setup_s(samples: &[f64]) -> f64 {
    stats::quantile(samples, 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_of_the_set() {
        let mut o = Outcome::new();
        o.attempted = 10;
        o.set("ops_per_s", 12.5);
        let line = o.to_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        o.problem("wrong".into());
        assert!(o.to_json(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn recorder_takes_the_median_p99_and_rate_over_every_op() {
        let mut r = Recorder::new();
        (1..=200).for_each(|i| r.record(f64::from(i) * 1000.0));
        let s = r.finish();
        assert!((s.p50_ns / 100_000.0 - 1.0).abs() < 1.0 / 1024.0, "{s:?}");
        assert!((s.p99_ns / 198_000.0 - 1.0).abs() < 1.0 / 1024.0, "{s:?}");
        assert_eq!(s.rate, 200.0 / (20_100_000.0 * 1e-9));
        let mut r = Recorder::new();
        (1..=200).for_each(|i| r.record(f64::from(i)));
        assert_eq!((r.finish().p50_ns, r.finish().p99_ns), (100.0, 198.0));
    }

    #[test]
    fn a_stall_on_two_percent_of_ops_sets_the_p99_wherever_it_lands() {
        // Stalls at the end of the run, or spread over all of it.
        for spread in [false, true] {
            let mut r = Recorder::new();
            for i in 0..20_000u64 {
                let stalled = if spread { i % 50 == 7 } else { i >= 19_600 };
                r.record(if stalled {
                    5e6
                } else {
                    1_000.0 + (i % 100) as f64
                });
            }
            let s = r.finish();
            assert!(s.p50_ns < 1_100.0, "{s:?}");
            assert!((s.p99_ns / 5e6 - 1.0).abs() < 1.0 / 1024.0, "{s:?}");
        }
    }

    #[test]
    fn a_windowed_p99_passes_over_a_stall_in_a_minority_of_windows() {
        // Ten windows of 1000 ops; a stall on 5% of the ops of some.
        for (stalled_windows, moved) in [(4u64, false), (6, true)] {
            let mut r = Recorder::windowed(1000);
            for i in 0..10_000u64 {
                let stalled = i / 1000 < stalled_windows && i % 1000 < 50;
                r.record(if stalled {
                    5e6
                } else {
                    1_000.0 + (i % 100) as f64
                });
            }
            let s = r.finish();
            assert_eq!(s.p99_ns == 5e6, moved, "{s:?}");
            assert!(s.p50_ns < 1_100.0, "{s:?}");
        }
        // No complete window: the p99 over every op.
        let mut r = Recorder::windowed(1000);
        (1..=200).for_each(|i| r.record(f64::from(i)));
        assert_eq!(r.finish().p99_ns, 198.0);
    }

    #[test]
    fn setup_s_is_the_median_sample() {
        assert_eq!(setup_s(&[]), 0.0);
        assert_eq!(setup_s(&[3.0, 1.0, 2.0, 9.0, 5.0]), 3.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
