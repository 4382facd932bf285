//! The traced run's span recorder. Spans are recorded from the
//! benchmark's own code around each call into a layer: name, start, end
//! and parent span. The first `cap` spans of each name are kept in memory
//! and written out when the run ends; every span, kept or not, is folded
//! into its name's count and total so per-layer means cover the whole
//! replay.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span name registered with [`Tracer::name`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Name(usize);

/// Identifier of a recorded span (its position in recording order).
pub type SpanId = u64;

/// One recorded span, in nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// This span's identifier.
    pub id: SpanId,
    /// Span name.
    pub name: Name,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// A span that has begun but not ended.
#[must_use]
pub struct Open {
    id: SpanId,
    name: Name,
    parent: Option<SpanId>,
    start: Instant,
}

impl Open {
    /// This span's identifier, for use as a child's parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

#[derive(Clone, Copy, Default)]
struct Total {
    count: u64,
    ns: u64,
    kept: usize,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    names: Vec<&'static str>,
    totals: Vec<Total>,
    kept: Vec<Span>,
    cap: usize,
    next_id: SpanId,
    /// Median duration of an empty span: the clock cost every recorded
    /// duration carries, subtracted from per-name totals.
    clock_ns: f64,
}

impl Tracer {
    /// A tracer that keeps the first `cap` spans of each name for writing
    /// out.
    pub fn new(cap: usize) -> Self {
        let mut t = Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            kept: Vec::new(),
            cap,
            next_id: 0,
            clock_ns: 0.0,
        };
        t.clock_ns = calibrate();
        t
    }

    /// Register (or look up) a span name.
    pub fn name(&mut self, name: &'static str) -> Name {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return Name(i);
        }
        self.names.push(name);
        self.totals.push(Total::default());
        Name(self.names.len() - 1)
    }

    /// Begin a span.
    pub fn begin(&mut self, name: Name, parent: Option<SpanId>) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            name,
            parent,
            start: Instant::now(),
        }
    }

    /// End a span; returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let total = &mut self.totals[open.name.0];
        total.count += 1;
        total.ns += ns;
        if total.kept < self.cap {
            total.kept += 1;
            self.kept.push(Span {
                id: open.id,
                name: open.name,
                parent: open.parent,
                start_ns: open.start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
        ns
    }

    /// Run `f` inside a span.
    pub fn call<T>(&mut self, name: Name, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.lookup(name).map_or(0, |t| t.count)
    }

    /// Total time under `name` in ns, less the clock cost of each span.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.lookup(name).map_or(0.0, |t| {
            (t.ns as f64 - t.count as f64 * self.clock_ns).max(0.0)
        })
    }

    /// Mean span duration under `name` in ns (0 when none were recorded).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) / n as f64,
        }
    }

    fn lookup(&self, name: &str) -> Option<Total> {
        self.names
            .iter()
            .position(|n| *n == name)
            .map(|i| self.totals[i])
    }

    /// Write the kept spans as tab-separated `id parent name start_ns
    /// end_ns` rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns")?;
        for s in &self.kept {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}",
                s.id, self.names[s.name.0], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median duration of an empty span over a few thousand tries.
fn calibrate() -> f64 {
    let mut samples: Vec<u64> = (0..4001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            b.duration_since(a).as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_fold_into_per_name_totals_and_keep_parents() {
        let mut t = Tracer::new(2);
        let outer = t.name("outer");
        let inner = t.name("inner");
        assert_eq!(t.name("outer"), outer);
        let o = t.begin(outer, None);
        let parent = o.id();
        for _ in 0..3 {
            t.call(inner, Some(parent), || std::hint::black_box(1 + 1));
        }
        t.end(o);
        assert_eq!(t.count("inner"), 3);
        assert_eq!(t.count("outer"), 1);
        assert_eq!(t.count("missing"), 0);
        assert_eq!(
            t.kept.len(),
            3,
            "only the first `cap` spans of a name are kept"
        );
        assert_eq!(t.kept[0].parent, Some(parent));
        assert!(t.kept[0].end_ns >= t.kept[0].start_ns);
        assert!(t.total_ns("outer") >= t.total_ns("inner") - 3.0 * t.clock_ns);
    }
}
