#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! Lightweight observability for the crossbar workspace: **counters**,
//! **histograms**, and **hierarchical timed spans** behind named
//! registries, with deterministic snapshots.
//!
//! Like the other `*-shim` crates this has zero dependencies; unlike them
//! it is not standing in for a registry crate — it is the workspace's own
//! metrics substrate, sized for what the solver, cache, and simulator
//! actually need:
//!
//! * **Cheap when disabled.** Every recording call first resolves the
//!   current *sink* ([`sink`]): the innermost scoped [`Registry`] on this
//!   thread, else the process-wide registry when globally enabled, else
//!   `None`. With no scope installed and the global switch off (the
//!   default), a recording call is one thread-local read plus one relaxed
//!   atomic load and returns immediately — no clock reads, no allocation,
//!   no locks. Instrumentation sits at aggregation points (per solve, per
//!   anti-diagonal, per simulation run), never per lattice cell or per
//!   simulated event, so even the enabled cost is amortised away.
//! * **Deterministic when snapshotted.** [`Registry::snapshot`] returns
//!   name-sorted values. Counter values depend only on the work performed
//!   (instrumented code increments them by data-dependent amounts, never
//!   by timing), so two runs of the same workload — serial or wavefront,
//!   one worker or eight — agree on every counter. Timings (span
//!   histograms) are of course machine-dependent; comparisons that want
//!   determinism use [`Snapshot::counters_excluding`] to drop the
//!   documented timing-only names.
//! * **Isolated in tests.** A test installs its own registry with
//!   [`scope`] and sees only its own workload's metrics, immune to the
//!   test harness running other solves concurrently. Worker threads
//!   spawned by instrumented code re-install the spawner's scope via
//!   [`current_scope`]/[`ScopeHandle::enter`].
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! let reg = Arc::new(xbar_obs::Registry::new());
//! {
//!     let _g = xbar_obs::scope(&reg);
//!     xbar_obs::add("cache.hits", 2);
//!     xbar_obs::record("solver.gap", 1.5e-12);
//!     let x = xbar_obs::time("solve", || 21 * 2);
//!     assert_eq!(x, 42);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.hits"), Some(2));
//! assert_eq!(snap.histogram("solver.gap").map(|h| h.count), Some(1));
//! assert!(snap.to_json().contains("\"schema\""));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Version of the snapshot JSON schema (the `"schema"` field).
///
/// Bump when the JSON shape changes incompatibly; consumers (CI artifact
/// checks, `BENCH_N.json` readers) match on it.
///
/// History: 1 = counters + histograms; 2 = adds the `"gauges"` object.
pub const SNAPSHOT_SCHEMA: u32 = 2;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonic `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Fold another counter into this one (used by [`Registry::merge`]).
    pub fn merge(&self, other: &Counter) {
        self.add(other.get());
    }
}

/// A last-writer-wins `u64` level (queue depths, stale-tenant counts):
/// unlike a [`Counter`] it moves both ways, and a snapshot reports the
/// *current* level, not an accumulation.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the current level.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Fold another gauge into this one (used by [`Registry::merge`]): the
    /// merged level is the **max** of the two — merging per-thread or
    /// per-shard registries should report the worst level seen, and max is
    /// associative and commutative so merge order cannot matter.
    pub fn merge(&self, other: &Gauge) {
        self.value.fetch_max(other.get(), Ordering::Relaxed);
    }
}

/// Number of decade buckets: values land in bucket
/// `floor(log10(v)) + 18`, clamped to `[0, 36]`, covering `1e-18 ..= 1e18`.
const DECADES: usize = 37;

/// Offset added to `floor(log10(v))` to index [`Histogram::buckets`].
const DECADE_OFFSET: i32 = 18;

/// A histogram of non-negative `f64` values over fixed powers-of-ten
/// buckets, plus exact count/min/max and an (order-dependent, see below)
/// running sum.
///
/// Buckets are decade-wide — observability resolution, not statistics: the
/// recorded quantities span ~30 orders of magnitude (cross-check gaps
/// around `1e-13`, span durations in nanoseconds up to whole-run seconds)
/// and a fixed log grid keeps **bucket counts order-independent and
/// exactly mergeable** ([`Histogram::merge`] is associative and
/// commutative on counts, min and max). The `f64` sum is the one field
/// that depends on accumulation order (floating-point addition does);
/// deterministic comparisons use counts, not sums.
///
/// Negative values are clamped to zero (recorded quantities — durations,
/// gaps, sizes — are non-negative by construction); zero lands in a
/// dedicated bucket below the smallest decade.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// `f64` bits, CAS-accumulated.
    sum_bits: AtomicU64,
    /// `f64` bits of the minimum; non-negative floats order like their bits.
    min_bits: AtomicU64,
    /// `f64` bits of the maximum.
    max_bits: AtomicU64,
    /// Exact zeros (and clamped negatives).
    zero: AtomicU64,
    /// Values below `1e-18` (but positive).
    underflow: AtomicU64,
    /// Decade buckets for `1e-18 ..= 1e18`.
    buckets: [AtomicU64; DECADES],
    /// Values above the largest decade.
    overflow: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0),
            zero: AtomicU64::new(0),
            underflow: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; DECADES],
            overflow: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one value (negatives clamp to zero, NaN is dropped).
    pub fn record(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let v = value.max(0.0);
        self.count.fetch_add(1, Ordering::Relaxed);
        // CAS-accumulate the f64 sum.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
        self.bucket_for(v).fetch_add(1, Ordering::Relaxed);
    }

    fn bucket_for(&self, v: f64) -> &AtomicU64 {
        if v == 0.0 {
            return &self.zero;
        }
        let e = v.log10().floor() as i32 + DECADE_OFFSET;
        if e < 0 {
            &self.underflow
        } else if e >= DECADES as i32 {
            &self.overflow
        } else {
            &self.buckets[e as usize]
        }
    }

    /// Fold another histogram into this one. Counts, buckets, min and max
    /// merge exactly (associative, commutative); the sum is `f64` addition
    /// and therefore only approximately order-independent.
    pub fn merge(&self, other: &Histogram) {
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        let other_sum = f64::from_bits(other.sum_bits.load(Ordering::Relaxed));
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + other_sum).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        self.min_bits
            .fetch_min(other.min_bits.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_bits
            .fetch_max(other.max_bits.load(Ordering::Relaxed), Ordering::Relaxed);
        self.zero
            .fetch_add(other.zero.load(Ordering::Relaxed), Ordering::Relaxed);
        self.underflow
            .fetch_add(other.underflow.load(Ordering::Relaxed), Ordering::Relaxed);
        self.overflow
            .fetch_add(other.overflow.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Point-in-time copy of this histogram's aggregates.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets = Vec::new();
        let zero = self.zero.load(Ordering::Relaxed);
        if zero > 0 {
            buckets.push((i32::MIN, zero));
        }
        let under = self.underflow.load(Ordering::Relaxed);
        if under > 0 {
            buckets.push((-DECADE_OFFSET - 1, under));
        }
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as i32 - DECADE_OFFSET, n));
            }
        }
        let over = self.overflow.load(Ordering::Relaxed);
        if over > 0 {
            buckets.push((DECADES as i32 - DECADE_OFFSET, over));
        }
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A named collection of [`Counter`]s and [`Histogram`]s.
///
/// Metrics are created on first use ([`Registry::counter`] /
/// [`Registry::histogram`]); names are dot-separated paths by convention
/// (`cache.hits`, `sim.offers`, `span.solve/attempt`).
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created zeroed on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock(&self.counters);
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The gauge named `name`, created zeroed on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock(&self.gauges);
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = lock(&self.histograms);
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Fold every metric of `other` into this registry (creating names as
    /// needed). Counter values and histogram counts merge exactly, so
    /// merging a set of registries yields the same counts in any order and
    /// grouping.
    pub fn merge(&self, other: &Registry) {
        for (name, c) in lock(&other.counters).iter() {
            self.counter(name).merge(c);
        }
        for (name, g) in lock(&other.gauges).iter() {
            self.gauge(name).merge(g);
        }
        for (name, h) in lock(&other.histograms).iter() {
            self.histogram(name).merge(h);
        }
    }

    /// Reset every metric to zero (names are forgotten too).
    pub fn reset(&self) {
        lock(&self.counters).clear();
        lock(&self.gauges).clear();
        lock(&self.histograms).clear();
    }

    /// A deterministic (name-sorted) point-in-time snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------------
// Scoping / global switch
// ---------------------------------------------------------------------------

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-wide registry used when recording is globally enabled and
/// no thread-local scope is installed (the CLI's `--metrics` path).
pub fn global() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Turn process-wide recording into [`global`] on or off (default: off).
pub fn set_global_enabled(on: bool) {
    GLOBAL_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether process-wide recording is on.
pub fn global_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
}

thread_local! {
    /// Innermost-wins stack of scoped registries for this thread.
    static SCOPES: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
    /// Active span-name stack (for hierarchical span paths).
    static SPAN_PATH: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Where a recording made right now on this thread would land: the
/// innermost scoped registry, else [`global`] when globally enabled, else
/// nowhere (`None` — recording is disabled and costs almost nothing).
pub fn sink() -> Option<Arc<Registry>> {
    let scoped = SCOPES.with(|s| s.borrow().last().cloned());
    if scoped.is_some() {
        return scoped;
    }
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        return Some(Arc::clone(global()));
    }
    None
}

/// `true` iff a recording made right now on this thread would be kept.
pub fn enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed) || SCOPES.with(|s| !s.borrow().is_empty())
}

/// RAII guard returned by [`scope`]; pops the registry on drop.
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Install `registry` as this thread's recording sink until the guard
/// drops. Scopes nest; the innermost wins.
pub fn scope(registry: &Arc<Registry>) -> ScopeGuard {
    SCOPES.with(|s| s.borrow_mut().push(Arc::clone(registry)));
    ScopeGuard { _private: () }
}

/// A capture of this thread's current scope (if any), for handing to
/// spawned worker threads — scoped registries are thread-local, so workers
/// must re-install the spawner's scope to contribute to it.
#[derive(Clone)]
pub struct ScopeHandle(Option<Arc<Registry>>);

/// Capture the current innermost scope for propagation into workers.
pub fn current_scope() -> ScopeHandle {
    ScopeHandle(SCOPES.with(|s| s.borrow().last().cloned()))
}

impl ScopeHandle {
    /// Install the captured scope on this thread (no-op handle if the
    /// spawner had none — the worker then falls through to the global
    /// switch like any other thread).
    pub fn enter(&self) -> Option<ScopeGuard> {
        self.0.as_ref().map(scope)
    }
}

// ---------------------------------------------------------------------------
// Recording API
// ---------------------------------------------------------------------------

/// Add `delta` to counter `name` in the current sink (no-op when disabled).
pub fn add(name: &str, delta: u64) {
    if let Some(reg) = sink() {
        reg.counter(name).add(delta);
    }
}

/// Increment counter `name` by one (no-op when disabled).
pub fn inc(name: &str) {
    add(name, 1);
}

/// Set gauge `name` to `value` in the current sink (no-op when disabled).
pub fn set_gauge(name: &str, value: u64) {
    if let Some(reg) = sink() {
        reg.gauge(name).set(value);
    }
}

/// Record `value` into histogram `name` (no-op when disabled).
pub fn record(name: &str, value: f64) {
    if let Some(reg) = sink() {
        reg.histogram(name).record(value);
    }
}

/// Record a duration, in nanoseconds, into histogram `name`.
pub fn record_duration(name: &str, d: Duration) {
    record(name, d.as_nanos() as f64);
}

/// Run `f` inside a named span: its wall time lands in the histogram
/// `span.<path>` where `<path>` is this thread's active span names joined
/// with `/` (so nested `time` calls produce hierarchical names like
/// `span.fig1/solve`). When recording is disabled the closure runs
/// directly — no clock is read.
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let Some(reg) = sink() else {
        return f();
    };
    SPAN_PATH.with(|p| p.borrow_mut().push(name.to_string()));
    let t0 = Instant::now();
    // Pop the span path even if `f` panics, so a caught panic (e.g. in
    // tests) cannot corrupt sibling spans recorded afterwards.
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SPAN_PATH.with(|p| {
                p.borrow_mut().pop();
            });
        }
    }
    let _pop = PopOnDrop;
    let result = f();
    let elapsed = t0.elapsed();
    let path = SPAN_PATH.with(|p| p.borrow().join("/"));
    reg.histogram(&format!("span.{path}"))
        .record(elapsed.as_nanos() as f64);
    result
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Aggregates of one histogram at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (`f64`, order-dependent in the last ulps).
    pub sum: f64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Non-empty buckets as `(decade, count)`: decade `e` holds values in
    /// `[10^e, 10^(e+1))`; `i32::MIN` is the exact-zero bucket; one decade
    /// below/above the covered range collects under-/overflow.
    pub buckets: Vec<(i32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A deterministic, name-sorted capture of one [`Registry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` pairs, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, aggregates)` pairs, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Minimal JSON string escaping (metric names are ASCII identifiers, but
/// be correct anyway).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON-safe rendering of an `f64` (finite values in exponent notation;
/// non-finite values, which valid snapshots never contain, become `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Level of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Aggregates of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The counters whose names start with none of `prefixes` — for
    /// comparing two runs while ignoring names that legitimately differ
    /// (e.g. the `alg1.sweep.serial`/`alg1.sweep.parallel` decision
    /// counters between a forced-serial and a forced-parallel run).
    pub fn counters_excluding(&self, prefixes: &[&str]) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(n, _)| !prefixes.iter().any(|p| n.starts_with(p)))
            .cloned()
            .collect()
    }

    /// Serialise to pretty-printed, schema-versioned JSON. Hand-rolled —
    /// the build environment has no serde — and stable: keys are sorted,
    /// floats are exponent-notation.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {SNAPSHOT_SCHEMA},\n"));
        s.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            s.push_str(&format!("\n    \"{}\": {value}{comma}", json_escape(name)));
        }
        if !self.counters.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        s.push_str("  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            s.push_str(&format!("\n    \"{}\": {value}{comma}", json_escape(name)));
        }
        if !self.gauges.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("},\n");
        s.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() {
                ","
            } else {
                ""
            };
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(e, n)| {
                    let key = if *e == i32::MIN {
                        "zero".to_string()
                    } else {
                        e.to_string()
                    };
                    format!("\"{key}\": {n}")
                })
                .collect();
            s.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"buckets\": {{{}}}}}{comma}",
                json_escape(name),
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max),
                buckets.join(", "),
            ));
        }
        if !self.histograms.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("}\n}\n");
        s
    }

    /// Render as an aligned human-readable table (the CLI's `--metrics -`).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &self.counters {
                s.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges:\n");
            let width = self.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                s.push_str(&format!("  {name:<width$}  {value}\n"));
            }
        }
        if !self.histograms.is_empty() {
            s.push_str("histograms:\n");
            let width = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, h) in &self.histograms {
                s.push_str(&format!(
                    "  {name:<width$}  count {:<8} mean {:<12.4e} min {:<12.4e} max {:.4e}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max,
                ));
            }
        }
        if s.is_empty() {
            s.push_str("(no metrics recorded)\n");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests that flip the process-wide switch or read the
    /// global registry: tests run on parallel threads, and a sibling's
    /// `set_global_enabled(true)` would route a "disabled" recording there.
    fn global_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _global = global_lock();
        // No scope, global off: nothing lands anywhere.
        assert!(!enabled());
        add("nope", 5);
        record("nope.h", 1.0);
        let x = time("nope.span", || 7);
        assert_eq!(x, 7);
        assert_eq!(global().snapshot().counter("nope"), None);
    }

    #[test]
    fn scoped_recording_lands_in_the_scope_only() {
        let _global = global_lock();
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(&reg);
            assert!(enabled());
            inc("a");
            add("a", 2);
            record("h", 0.5);
        }
        assert!(!enabled());
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), Some(3));
        assert_eq!(snap.histogram("h").map(|h| h.count), Some(1));
        assert_eq!(global().snapshot().counter("a"), None);
    }

    #[test]
    fn gauges_are_last_writer_wins_and_merge_by_max() {
        let _global = global_lock();
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(&reg);
            set_gauge("depth", 5);
            set_gauge("depth", 2); // moves down, unlike a counter
        }
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("depth"), Some(2));
        assert_eq!(snap.gauge("missing"), None);
        // Merge takes the worst (max) level, in any order.
        let a = Registry::new();
        let b = Registry::new();
        a.gauge("stale").set(1);
        b.gauge("stale").set(4);
        a.merge(&b);
        assert_eq!(a.snapshot().gauge("stale"), Some(4));
        // Serialisation: gauges appear in JSON and text renderings.
        assert!(snap.to_json().contains("\"gauges\""));
        assert!(snap.to_json().contains("\"depth\": 2"));
        assert!(snap.to_text().contains("gauges:"));
        // Disabled recording is a no-op.
        set_gauge("nowhere", 9);
        assert_eq!(global().snapshot().gauge("nowhere"), None);
    }

    #[test]
    fn inner_scope_wins_over_outer() {
        let outer = Arc::new(Registry::new());
        let inner = Arc::new(Registry::new());
        let _o = scope(&outer);
        inc("x");
        {
            let _i = scope(&inner);
            inc("x");
        }
        inc("x");
        assert_eq!(outer.snapshot().counter("x"), Some(2));
        assert_eq!(inner.snapshot().counter("x"), Some(1));
    }

    #[test]
    fn spans_are_hierarchical_and_timed() {
        let reg = Arc::new(Registry::new());
        {
            let _g = scope(&reg);
            let out = time("outer", || {
                time("inner", || std::thread::sleep(Duration::from_millis(2)));
                1
            });
            assert_eq!(out, 1);
        }
        let snap = reg.snapshot();
        let inner = snap.histogram("span.outer/inner").expect("inner span");
        let outer = snap.histogram("span.outer").expect("outer span");
        assert_eq!(inner.count, 1);
        assert_eq!(outer.count, 1);
        assert!(outer.max >= inner.max, "outer contains inner");
        assert!(inner.min >= 2e6, "slept >= 2ms, recorded ns");
    }

    #[test]
    fn span_path_survives_a_panicking_body() {
        let reg = Arc::new(Registry::new());
        let _g = scope(&reg);
        let result = std::panic::catch_unwind(|| time("boom", || panic!("x")));
        assert!(result.is_err());
        time("after", || ());
        let snap = reg.snapshot();
        // The panicked span recorded nothing, but the path unwound: the
        // next span is top-level, not nested under "boom".
        assert!(snap.histogram("span.after").is_some());
        assert!(snap.histogram("span.boom/after").is_none());
    }

    #[test]
    fn scope_handle_propagates_to_worker_threads() {
        let reg = Arc::new(Registry::new());
        let _g = scope(&reg);
        let handle = current_scope();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let handle = handle.clone();
                s.spawn(move || {
                    let _w = handle.enter();
                    inc("worker.ticks");
                });
            }
        });
        assert_eq!(reg.snapshot().counter("worker.ticks"), Some(4));
    }

    #[test]
    fn histogram_buckets_min_max_mean() {
        let h = Histogram::new();
        for v in [0.0, 1e-13, 3e-13, 0.5, 2.0e9] {
            h.record(v);
        }
        h.record(-1.0); // clamps to zero
        h.record(f64::NAN); // dropped
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 2.0e9);
        // zero bucket: exact zero + clamped negative.
        assert_eq!(
            s.buckets.iter().find(|(e, _)| *e == i32::MIN),
            Some(&(i32::MIN, 2))
        );
        assert_eq!(
            s.buckets.iter().find(|(e, _)| *e == -13),
            Some(&(-13, 2)),
            "{:?}",
            s.buckets
        );
        assert_eq!(s.buckets.iter().find(|(e, _)| *e == -1), Some(&(-1, 1)));
        assert_eq!(s.buckets.iter().find(|(e, _)| *e == 9), Some(&(9, 1)));
        let total: u64 = s.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, s.count);
    }

    #[test]
    fn histogram_extreme_values_land_in_sentinel_buckets() {
        let h = Histogram::new();
        h.record(1e-30);
        h.record(1e30);
        let s = h.snapshot();
        assert_eq!(
            s.buckets.iter().find(|(e, _)| *e == -DECADE_OFFSET - 1),
            Some(&(-19, 1))
        );
        assert_eq!(s.buckets.iter().find(|(e, _)| *e == 19), Some(&(19, 1)));
    }

    #[test]
    fn registry_merge_sums_counts_exactly() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("c").add(3);
        b.counter("c").add(4);
        b.counter("only-b").add(1);
        a.histogram("h").record(1.0);
        b.histogram("h").record(100.0);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c"), Some(7));
        assert_eq!(snap.counter("only-b"), Some(1));
        let h = snap.histogram("h").expect("merged");
        assert_eq!(h.count, 2);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
    }

    #[test]
    fn snapshot_is_sorted_and_json_well_formed() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("m.h").record(2.5e-4);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        let json = snap.to_json();
        assert!(json.contains(&format!("\"schema\": {SNAPSHOT_SCHEMA}")));
        assert!(json.contains("\"a.first\": 2"));
        assert!(json.contains("\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // Text rendering mentions every name.
        let text = snap.to_text();
        assert!(text.contains("a.first") && text.contains("m.h"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Registry::new().snapshot();
        assert!(snap.to_text().contains("no metrics"));
        let json = snap.to_json();
        assert!(json.contains("\"counters\": {}"));
    }

    #[test]
    fn counters_excluding_filters_by_prefix() {
        let reg = Registry::new();
        reg.counter("alg1.sweep.serial").add(1);
        reg.counter("alg1.cells").add(100);
        reg.counter("cache.hits").add(2);
        let snap = reg.snapshot();
        let kept = snap.counters_excluding(&["alg1.sweep."]);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|(n, _)| n == "alg1.cells"));
        assert!(kept.iter().any(|(n, _)| n == "cache.hits"));
    }

    #[test]
    fn global_switch_routes_to_global_registry() {
        let _global = global_lock();
        set_global_enabled(true);
        inc("test.global_switch.unique");
        set_global_enabled(false);
        assert!(global().snapshot().counter("test.global_switch.unique") >= Some(1));
    }
}
