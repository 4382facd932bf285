//! The multi-tenant daemon: line-protocol ingest, bounded per-tenant
//! queues with durable load shedding, the apply pump, and the fleet-wide
//! accounting that the exit-6 metrics invariant checks.
//!
//! # Line protocol
//!
//! One event per line:
//!
//! ```text
//! <tenant> a|d <class> [@<t>]
//! ```
//!
//! `a` = arrival, `d` = departure, `<class>` a 0-based class index,
//! `@<t>` an optional monotone batch timestamp — a line whose `t` runs
//! *backwards* within its tenant's stream is flagged clock-skewed (it is
//! still applied; the skew is counted durably so operators see upstream
//! batchers misbehaving). Blank lines and `#` comments are skipped.
//! Every raw line — including blanks, comments, and malformed input —
//! consumes one sequence number, so sequence numbers are stable across
//! re-reads of the same file: a re-fed line whose sequence number already
//! has a durable WAL record deduplicates, and one that was queued but
//! lost at a crash re-applies. That numbering contract assumes the source
//! re-feeds from the top after a restart (file, tail); a socket feeds
//! only *fresh* events, so the socket runtime first seeks the counter
//! past the durable watermark ([`Daemon::seek_past_durable`]) — otherwise
//! the first events after a restart would collide with durable sequence
//! numbers and be swallowed as duplicates.
//!
//! # Degradation
//!
//! Each tenant has a bounded ingest queue. When it is full an arrival is
//! **shed, durably**: a `Shed` WAL record is appended and the arrival is
//! counted as an offer denied for overload — so
//! `offers = admitted + denied(capacity) + denied(policy) + shed` holds
//! exactly even while the daemon is drowning. Departures are never shed
//! (dropping one would wedge the occupancy vector); they keep queueing
//! past the cap up to a hard bound of
//! [`DEPARTURE_QUEUE_SLACK`]` * queue_cap`, past which they are durably
//! *rejected* so a departure flood cannot exhaust memory. Malformed
//! lines cannot be attributed to a tenant reliably, so they are counted
//! (`serve.malformed`) but not durable.
//!
//! # Layout
//!
//! A line costs O(1) in the number of tenants. Each tenant name is
//! interned to a dense id at first contact, and the tenant, its queue and
//! its last batch timestamp live together in one slot at that id. The
//! pump pops ids from a **ready ring** that holds exactly the tenants
//! whose queue is not empty: an id joins when its queue goes from empty
//! to non-empty and rejoins at the back after a pop that leaves events
//! behind, so each ready tenant gets one event per round. A tenant whose
//! drift check defers a re-anchor joins a **pending list** (at most
//! once); the end of each pump completes that list.
//!
//! Tenants are visited in ready order, not name order. Nothing durable
//! depends on that order: a tenant's decisions and WAL depend only on its
//! own event order, which its queue keeps, and the file, tail and socket
//! runtimes pump after every line, so at most one tenant is ready at a
//! time and a `kill_after` point falls on the same event.
//!
//! # Durability point
//!
//! Each tenant's WAL buffers its frames and writes 256 at a time (see
//! [`crate::wal`]). Every event applied before [`Daemon::commit`] (or
//! [`Daemon::shutdown`]) returns has its WAL frame in the OS, so a
//! process crash keeps it; `sync_every` decides what a machine crash
//! keeps. Between commits a process crash loses at most 255 applied
//! frames per tenant, which the file and tail sources re-feed. The
//! runtimes commit whenever their source goes idle. A tenant joins an
//! unwritten list when an append leaves frames in its buffer, and a
//! commit visits that list only, so an idle point costs one `write` per
//! tenant with frames and nothing per idle tenant.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};

use xbar_admission::Event;
use xbar_core::Model;

use crate::tenant::{Outcome, RecoveryReport, ServeCounters, Tenant, TenantConfig};
use crate::ServeError;

/// A parsed event, pre-queue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParsedEvent {
    /// The engine event.
    pub event: Event,
    /// Optional batch timestamp (`@t`).
    pub t: Option<f64>,
}

/// A parsed protocol line.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedLine {
    /// Tenant name.
    pub tenant: String,
    /// The event.
    pub event: ParsedEvent,
}

/// Parse one protocol line. `Ok(None)` = blank or comment;
/// `Err` = malformed, with a reason.
pub fn parse_line(raw: &str) -> Result<Option<ParsedLine>, String> {
    Ok(parse(raw)?.map(|(tenant, event)| ParsedLine {
        tenant: tenant.to_string(),
        event,
    }))
}

/// [`parse_line`] without allocating: the tenant name borrows from `raw`.
///
/// One pass over `raw`'s bytes finds at most five tokens, split and
/// trimmed at `char::is_whitespace` as `str::split_whitespace` does; the
/// tenant, op and class are then checked in place. Every check, its order
/// and its message are those of the `str`-based oracle in the tests.
fn parse(raw: &str) -> Result<Option<(&str, ParsedEvent)>, String> {
    let mut tok = [""; 5];
    let n = tokens(raw, &mut tok);
    let [tenant, op, class_s, stamp, extra] = tok;
    if n == 0 || tenant.starts_with('#') {
        return Ok(None);
    }
    if !tenant
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
    {
        return Err(format!("bad tenant name '{tenant}'"));
    }
    if n < 2 {
        return Err("missing op (a|d)".into());
    }
    if n < 3 {
        return Err("missing class index".into());
    }
    let class = parse_class(class_s).ok_or_else(|| format!("bad class index '{class_s}'"))?;
    if class > u16::MAX as usize {
        return Err(format!("class index {class} out of range"));
    }
    let mut t = None;
    if n > 3 {
        let ts = stamp
            .strip_prefix('@')
            .ok_or_else(|| format!("unexpected token '{stamp}'"))?;
        let v = parse_stamp(ts).ok_or_else(|| format!("bad timestamp '{ts}'"))?;
        if !v.is_finite() {
            return Err(format!("non-finite timestamp '{ts}'"));
        }
        t = Some(v);
    }
    if n > 4 {
        return Err(format!("trailing token '{extra}'"));
    }
    let event = match op {
        "a" => Event::Arrival { class },
        "d" => Event::Departure { class },
        _ => return Err(format!("bad op '{op}' (expected a|d)")),
    };
    Ok(Some((tenant, ParsedEvent { event, t })))
}

/// Fill `out` with the first tokens of `raw`, the maximal runs of chars
/// that are not `char::is_whitespace`, and return how many it found.
/// Printable ASCII and the space are decided inline; any other byte asks
/// [`space_width`].
fn tokens<'a>(raw: &'a str, out: &mut [&'a str; 5]) -> usize {
    let bytes = raw.as_bytes();
    let mut i = 0;
    for (n, slot) in out.iter_mut().enumerate() {
        loop {
            if i == bytes.len() {
                return n;
            }
            match bytes[i] {
                b' ' => i += 1,
                b if b.is_ascii_graphic() => break,
                _ => match space_width(raw, i) {
                    0 => break,
                    w => i += w,
                },
            }
        }
        let start = i;
        while i < bytes.len() {
            match bytes[i] {
                b if b.is_ascii_graphic() => i += 1,
                b' ' => break,
                _ if space_width(raw, i) > 0 => break,
                _ => i += 1,
            }
        }
        *slot = &raw[start..i];
    }
    out.len()
}

/// The byte width of the char at byte `i` of `raw` if that char is
/// `char::is_whitespace`, else 0. A byte in `0x80..0xC0` continues a char,
/// which a token scan steps through byte by byte: it is not whitespace.
/// Only a lead byte (`0xC0..`) has its char decoded. Out of line, so the
/// token loops stay small for the common ASCII line.
#[cold]
#[inline(never)]
fn space_width(raw: &str, i: usize) -> usize {
    match raw.as_bytes()[i] {
        b'\t'..=b'\r' | b' ' => 1,
        0..=0xBF => 0,
        _ => {
            let c = raw[i..].chars().next().expect("a lead byte starts a char");
            if c.is_whitespace() {
                c.len_utf8()
            } else {
                0
            }
        }
    }
}

/// `s.parse::<usize>()` as an `Option`. A run of at most 19 ASCII digits
/// (below 10¹⁹, so the fold cannot overflow) is folded directly; anything
/// else, such as a `+` sign or a longer run, goes to `str::parse`.
fn parse_class(s: &str) -> Option<usize> {
    if s.len() <= 19 && s.bytes().all(|b| b.is_ascii_digit()) {
        let v = s.bytes().fold(0u64, |v, b| v * 10 + u64::from(b - b'0'));
        usize::try_from(v).ok()
    } else {
        s.parse().ok()
    }
}

/// `s.parse::<f64>()` as an `Option`, bit for bit. A plain decimal (ASCII
/// digits and at most one `.`, at least one digit) whose digits read as
/// one integer `m` stay below 2⁵³ with `k` ≤ 22 of them after the point
/// is `m / 10^k`: both operands are exact in `f64`, so the one division is
/// correctly rounded, as `str::parse` is. Any other form (a sign, an
/// exponent, `inf`, a longer mantissa) goes to `str::parse`.
fn parse_stamp(s: &str) -> Option<f64> {
    const EXACT: u64 = 1 << 53;
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];
    let b = s.as_bytes();
    let mut m = 0u64;
    let mut i = 0;
    while i < b.len() && b[i].is_ascii_digit() {
        m = m * 10 + u64::from(b[i] - b'0');
        if m >= EXACT {
            return s.parse().ok();
        }
        i += 1;
    }
    let int_digits = i;
    if i < b.len() && b[i] == b'.' {
        i += 1;
    }
    let point = i;
    while i < b.len() && b[i].is_ascii_digit() {
        m = m * 10 + u64::from(b[i] - b'0');
        if m >= EXACT {
            return s.parse().ok();
        }
        i += 1;
    }
    let k = i - point;
    if i < b.len() || int_digits + k == 0 || k >= POW10.len() {
        return s.parse().ok();
    }
    Some(m as f64 / POW10[k])
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Per-tenant supervision config.
    pub tenant: TenantConfig,
    /// Per-tenant ingest queue bound (0 = unbounded; overflow sheds
    /// durably).
    pub queue_cap: usize,
    /// Events applied per [`Daemon::pump`] call from the file/socket
    /// runtime (`u64::MAX` = keep up with ingest synchronously).
    pub pump_budget: u64,
    /// Chaos hook: `std::process::abort()` after exactly this many events
    /// applied by this process — a deterministic `kill -9`.
    pub kill_after: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            tenant: TenantConfig::default(),
            queue_cap: 0,
            pump_budget: u64::MAX,
            kill_after: None,
        }
    }
}

/// Fleet-level (non-durable) counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonCounters {
    /// Raw lines ingested (including blanks/comments/malformed).
    pub lines: u64,
    /// Malformed lines (counted, not durable — no reliable tenant).
    pub malformed: u64,
    /// Events applied by the pump in this process's lifetime.
    pub applied: u64,
    /// Events skipped as duplicates of durable state (crash resume).
    pub duplicates: u64,
    /// Drift-triggered re-anchors completed at the end of a pump pass
    /// (rather than inline).
    pub batched_reanchors: u64,
    /// Pump passes that completed pending re-anchors. Always
    /// `<= batched_reanchors` (every batch completes at least one).
    pub reanchor_batches: u64,
}

/// The fleet-wide accounting the exit-6 metrics invariant checks:
/// `offers = admitted + denied_capacity + denied_policy + shed`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Accounting {
    /// Arrivals offered (engine offers + durable sheds).
    pub offers: u64,
    /// Arrivals admitted.
    pub admitted: u64,
    /// Arrivals denied for capacity.
    pub denied_capacity: u64,
    /// Arrivals denied by policy.
    pub denied_policy: u64,
    /// Arrivals shed (overload or quarantine), durably recorded.
    pub shed: u64,
    /// Departures applied.
    pub departures: u64,
    /// Invalid events durably rejected (outside the offers identity).
    pub rejected: u64,
}

impl Accounting {
    /// Whether the offers identity holds exactly.
    pub fn holds(&self) -> bool {
        self.offers == self.admitted + self.denied_capacity + self.denied_policy + self.shed
    }
}

/// How far past `queue_cap` departures may stack up before they are
/// durably rejected instead of queued. Departures are never *shed*
/// (dropping one wedges the occupancy vector), but an unbounded pile-up
/// against a stalled pump is a memory-exhaustion vector — this keeps the
/// per-tenant queue hard-bounded at `queue_cap * DEPARTURE_QUEUE_SLACK`.
pub const DEPARTURE_QUEUE_SLACK: usize = 4;

struct Queued {
    seq: u64,
    event: Event,
    skewed: bool,
}

/// One tenant's daemon-side state, stored at its dense id.
struct Slot {
    name: String,
    tenant: Tenant,
    queue: VecDeque<Queued>,
    /// Latest batch timestamp seen (clock-skew detection; only advances).
    last_t: Option<f64>,
    /// Whether the id is on the daemon's pending re-anchor list.
    pending: bool,
    /// Whether the id is on the daemon's unwritten list.
    unwritten: bool,
}

/// The multi-tenant admission daemon.
pub struct Daemon {
    dir: PathBuf,
    model: Model,
    cfg: DaemonConfig,
    /// Tenant name → dense id (index into `slots`).
    ids: HashMap<String, usize>,
    slots: Vec<Slot>,
    /// Every id, in tenant-name order.
    by_name: Vec<usize>,
    /// Ids whose queue is not empty, each once, in visit order.
    ready: VecDeque<usize>,
    /// Ids with a deferred re-anchor to complete, each once.
    pending: Vec<usize>,
    /// Ids whose WAL may hold frames not yet written, each once: a commit
    /// visits these, not every tenant.
    unwritten: Vec<usize>,
    next_line: u64,
    counters: DaemonCounters,
}

impl Daemon {
    /// Open a daemon over `dir`, recovering every tenant that left durable
    /// state there (`<tenant>.wal`). Returns per-tenant recovery reports.
    pub fn open(
        dir: &Path,
        model: &Model,
        cfg: DaemonConfig,
    ) -> Result<(Daemon, Vec<(String, RecoveryReport)>), ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::io(dir, &e))?;
        let mut daemon = Daemon {
            dir: dir.to_path_buf(),
            model: model.clone(),
            cfg,
            ids: HashMap::new(),
            slots: Vec::new(),
            by_name: Vec::new(),
            ready: VecDeque::new(),
            pending: Vec::new(),
            unwritten: Vec::new(),
            next_line: 0,
            counters: DaemonCounters::default(),
        };
        let mut reports = Vec::new();
        let mut names = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| ServeError::io(dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| ServeError::io(dir, &e))?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("wal") {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    names.push(stem.to_string());
                }
            }
        }
        names.sort();
        for name in names {
            let (_, report) = daemon.open_tenant(&name)?;
            reports.push((name, report));
        }
        Ok((daemon, reports))
    }

    /// Open (or recover) tenant `name` and give it the next dense id.
    fn open_tenant(&mut self, name: &str) -> Result<(usize, RecoveryReport), ServeError> {
        // Daemon-owned tenants defer drift re-anchors to the end of the
        // pump pass, so a snapshot written during the pass holds the
        // pre-re-anchor weight.
        let mut tcfg = self.cfg.tenant.clone();
        tcfg.coalesce_reanchors = true;
        let (tenant, report) = Tenant::open(name, &self.dir, &self.model, tcfg)?;
        let id = self.slots.len();
        self.slots.push(Slot {
            name: name.to_string(),
            tenant,
            queue: VecDeque::new(),
            last_t: None,
            pending: false,
            unwritten: false,
        });
        self.ids.insert(name.to_string(), id);
        let slots = &self.slots;
        let at = self
            .by_name
            .partition_point(|&other| slots[other].name.as_str() < name);
        self.by_name.insert(at, id);
        Ok((id, report))
    }

    /// Advance the line counter past every recovered tenant's durable
    /// watermark. Call this before feeding a source that does **not**
    /// re-feed the stream from the top after a restart (the unix socket):
    /// fresh events then take sequence numbers above every resume
    /// watermark, so none can be misread as a duplicate of the durable
    /// prefix. File and tail sources re-read from the top, where per-line
    /// numbering must restart at 1 for dedupe to line up — do not call it
    /// for those.
    pub fn seek_past_durable(&mut self) {
        let max = self
            .slots
            .iter()
            .map(|s| s.tenant.resume_seq())
            .max()
            .unwrap_or(0);
        self.next_line = self.next_line.max(max);
    }

    /// Ingest one raw protocol line. The line consumes a sequence number
    /// whatever it contains; valid events are enqueued (or durably shed on
    /// overflow), malformed lines are counted.
    pub fn ingest_line(&mut self, raw: &str) -> Result<(), ServeError> {
        self.next_line += 1;
        let seq = self.next_line;
        self.counters.lines += 1;
        let (name, parsed) = match parse(raw) {
            Ok(Some(p)) => p,
            Ok(None) => return Ok(()),
            Err(_) => {
                self.counters.malformed += 1;
                xbar_obs::inc("serve.malformed");
                return Ok(());
            }
        };
        let id = match self.ids.get(name) {
            Some(&id) => id,
            None => self.open_tenant(name)?.0,
        };
        let slot = &mut self.slots[id];
        // Clock-skew detection: a timestamp that runs backwards within the
        // tenant's stream flags the event (last_t only advances).
        let mut skewed = false;
        if let Some(t) = parsed.t {
            match slot.last_t {
                Some(last) if t < last => skewed = true,
                _ => slot.last_t = Some(t),
            }
        }
        // Crash-resume dedupe: a durable record from before this process
        // started — skip before it costs queue space. (A seq merely below
        // the resume watermark with no record was queued-but-lost at the
        // crash; it falls through and applies.)
        if slot.tenant.is_durable(seq) {
            self.counters.duplicates += 1;
            return Ok(());
        }
        if self.cfg.queue_cap > 0 && slot.queue.len() >= self.cfg.queue_cap {
            // Bounded queue full: deny-with-reason, durably. Departures
            // are never shed (dropping one would wedge the occupancy
            // vector forever), so they may keep queueing past the cap —
            // but only up to DEPARTURE_QUEUE_SLACK × the cap. Past that
            // hard bound a departure flood against a stalled pump would
            // exhaust memory, so the departure is durably *rejected*
            // (counted outside the offers identity; the occupancy vector
            // may stay overstated — the documented cost of staying alive).
            match parsed.event {
                Event::Arrival { class } => {
                    slot.tenant.shed(seq, class as u16, skewed)?;
                    self.note_unwritten(id);
                    xbar_obs::inc("serve.shed");
                    return Ok(());
                }
                Event::Departure { class } => {
                    let hard_cap = self.cfg.queue_cap.saturating_mul(DEPARTURE_QUEUE_SLACK);
                    if slot.queue.len() >= hard_cap {
                        slot.tenant.reject(seq, class as u16, skewed)?;
                        self.note_unwritten(id);
                        xbar_obs::inc("serve.departure_overflow");
                        return Ok(());
                    }
                }
            }
        }
        if slot.queue.is_empty() {
            self.ready.push_back(id);
        }
        slot.queue.push_back(Queued {
            seq,
            event: parsed.event,
            skewed,
        });
        Ok(())
    }

    /// Apply up to `budget` queued events, one per ready tenant per round.
    /// Returns how many were applied. Honours the chaos `kill_after` hook.
    pub fn pump(&mut self, budget: u64) -> Result<u64, ServeError> {
        let mut applied = 0u64;
        while applied < budget {
            let Some(id) = self.ready.pop_front() else {
                break;
            };
            let slot = &mut self.slots[id];
            let q = slot
                .queue
                .pop_front()
                .expect("a ready tenant has a queued event");
            if !slot.queue.is_empty() {
                self.ready.push_back(id);
            }
            let outcome = slot.tenant.apply(q.seq, q.event, q.skewed)?;
            if !slot.pending && slot.tenant.reanchor_pending() {
                slot.pending = true;
                self.pending.push(id);
            }
            self.note_unwritten(id);
            if outcome == Outcome::Duplicate {
                self.counters.duplicates += 1;
            } else {
                applied += 1;
                self.counters.applied += 1;
                if let Some(kill_after) = self.cfg.kill_after {
                    if self.counters.applied >= kill_after {
                        // Deterministic kill -9: no unwinding, no
                        // drop glue, no flushes.
                        std::process::abort();
                    }
                }
            }
        }
        self.complete_pending_reanchors()?;
        Ok(applied)
    }

    /// Complete every deferred drift re-anchor on the pending list, in
    /// the order the tenants deferred them. Quarantined tenants leave the
    /// list uncompleted.
    fn complete_pending_reanchors(&mut self) -> Result<(), ServeError> {
        let slots = &mut self.slots;
        self.pending.retain(|&id| {
            let due = !slots[id].tenant.quarantined();
            slots[id].pending = due;
            due
        });
        if self.pending.is_empty() {
            return Ok(());
        }
        self.counters.batched_reanchors += self.pending.len() as u64;
        self.counters.reanchor_batches += 1;
        xbar_obs::record("serve.reanchor.batch_size", self.pending.len() as f64);
        for id in self.pending.drain(..) {
            let slot = &mut slots[id];
            slot.pending = false;
            slot.tenant.complete_pending_reanchor()?;
        }
        Ok(())
    }

    /// Apply everything queued.
    pub fn drain(&mut self) -> Result<u64, ServeError> {
        self.pump(u64::MAX)
    }

    /// Hand every tenant's buffered WAL frames to the OS: when it returns,
    /// every event applied so far survives a process crash. Visits only
    /// the tenants that appended since the last commit.
    pub fn commit(&mut self) -> Result<(), ServeError> {
        while let Some(&id) = self.unwritten.last() {
            // A tenant whose write fails stays on the list.
            self.slots[id].tenant.commit()?;
            self.slots[id].unwritten = false;
            self.unwritten.pop();
        }
        Ok(())
    }

    /// Put `id` on the unwritten list if its WAL holds buffered frames.
    fn note_unwritten(&mut self, id: usize) {
        let slot = &mut self.slots[id];
        if !slot.unwritten && slot.tenant.unwritten() {
            slot.unwritten = true;
            self.unwritten.push(id);
        }
    }

    /// Drain, snapshot, and sync every tenant (clean shutdown).
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.drain()?;
        for slot in &mut self.slots {
            slot.tenant.shutdown()?;
        }
        Ok(())
    }

    /// Fleet-wide accounting (sums every tenant).
    pub fn accounting(&self) -> Accounting {
        let mut acc = Accounting::default();
        for (_, t) in self.tenants() {
            let s = t.engine().stats();
            acc.offers += t.offers();
            acc.admitted += s.admitted();
            acc.denied_capacity += s.denied_capacity();
            acc.denied_policy += s.denied_policy();
            acc.shed += t.counters().shed;
            acc.departures += s.departures;
            acc.rejected += t.counters().rejected;
        }
        acc
    }

    /// Sum of serve counters across tenants.
    pub fn serve_counters(&self) -> ServeCounters {
        let mut out = ServeCounters::default();
        for (_, t) in self.tenants() {
            let c = t.counters();
            out.shed += c.shed;
            out.rejected += c.rejected;
            out.skewed += c.skewed;
            out.restarts += c.restarts;
            out.stale_reanchors += c.stale_reanchors;
            out.stale_reprices += c.stale_reprices;
            out.snapshots += c.snapshots;
        }
        out
    }

    /// Number of quarantined tenants.
    pub fn quarantined_tenants(&self) -> usize {
        self.tenants().filter(|(_, t)| t.quarantined()).count()
    }

    /// Flush fleet counters into the active observability sink, including
    /// the `serve.anchor_stale` gauge (tenants currently serving off a
    /// stale anchor).
    pub fn flush_obs(&self) {
        if !xbar_obs::enabled() {
            return;
        }
        let acc = self.accounting();
        let c = self.serve_counters();
        xbar_obs::add("serve.offers", acc.offers);
        xbar_obs::add("serve.admitted", acc.admitted);
        xbar_obs::add("serve.denied.capacity", acc.denied_capacity);
        xbar_obs::add("serve.denied.policy", acc.denied_policy);
        xbar_obs::add("serve.departures", acc.departures);
        xbar_obs::add("serve.shed.total", c.shed);
        xbar_obs::add("serve.rejected", c.rejected);
        xbar_obs::add("serve.skewed", c.skewed);
        xbar_obs::add("serve.restarts.total", c.restarts);
        xbar_obs::add("serve.reanchor.stale.total", c.stale_reanchors);
        xbar_obs::add("serve.reprice.stale.total", c.stale_reprices);
        xbar_obs::add("serve.reanchor.batched", self.counters.batched_reanchors);
        xbar_obs::add("serve.reanchor.batches", self.counters.reanchor_batches);
        xbar_obs::add("serve.snapshots", c.snapshots);
        xbar_obs::add("serve.lines", self.counters.lines);
        xbar_obs::add("serve.malformed.total", self.counters.malformed);
        xbar_obs::add("serve.duplicates", self.counters.duplicates);
        xbar_obs::add("serve.tenants", self.slots.len() as u64);
        xbar_obs::add("serve.quarantined", self.quarantined_tenants() as u64);
        let stale = self.tenants().filter(|(_, t)| t.anchor_stale()).count();
        xbar_obs::set_gauge("serve.anchor_stale", stale as u64);
        for (_, t) in self.tenants() {
            t.engine().flush_obs();
        }
    }

    /// Fleet counters.
    pub fn counters(&self) -> &DaemonCounters {
        &self.counters
    }

    /// The configured per-line pump budget.
    pub fn pump_budget(&self) -> u64 {
        self.cfg.pump_budget
    }

    /// The tenants, by name (read access).
    pub fn tenants(&self) -> impl Iterator<Item = (&String, &Tenant)> {
        self.by_name.iter().map(|&id| {
            let slot = &self.slots[id];
            (&slot.name, &slot.tenant)
        })
    }

    /// Look up one tenant.
    pub fn tenant(&self, name: &str) -> Option<&Tenant> {
        self.ids.get(name).map(|&id| &self.slots[id].tenant)
    }

    /// Queued (not yet applied) events across all tenants.
    pub fn queued(&self) -> usize {
        self.slots.iter().map(|s| s.queue.len()).sum()
    }

    /// The durable-state directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use xbar_admission::PolicySpec;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        Model::new(
            Dims::square(4),
            Workload::new().with(TrafficClass::poisson(0.7)),
        )
        .unwrap()
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xbar_daemon_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn parse_accepts_the_protocol_and_rejects_garbage() {
        let p = parse_line("tenant-1 a 0 @1.5").unwrap().unwrap();
        assert_eq!(p.tenant, "tenant-1");
        assert_eq!(p.event.event, Event::Arrival { class: 0 });
        assert_eq!(p.event.t, Some(1.5));
        assert_eq!(
            parse_line("t d 3").unwrap().unwrap().event.event,
            Event::Departure { class: 3 }
        );
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("  # comment").unwrap(), None);
        for bad in [
            "t x 0",
            "t a",
            "t a notanum",
            "t a 0 extra",
            "t a 0 @nan",
            "t a 0 @inf",
            "t a 99999999",
            "bad/name a 0",
            "t a 0 1.5", // timestamp without @
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be malformed");
        }
    }

    /// The `str`-based parser that [`parse`] replaced: the oracle.
    fn parse_oracle(raw: &str) -> Result<Option<(&str, ParsedEvent)>, String> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut parts = line.split_whitespace();
        let tenant = parts.next().ok_or("missing tenant")?;
        if !tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!("bad tenant name '{tenant}'"));
        }
        let op = parts.next().ok_or("missing op (a|d)")?;
        let class_s = parts.next().ok_or("missing class index")?;
        let class: usize = class_s
            .parse()
            .map_err(|_| format!("bad class index '{class_s}'"))?;
        if class > u16::MAX as usize {
            return Err(format!("class index {class} out of range"));
        }
        let mut t = None;
        if let Some(tok) = parts.next() {
            let ts = tok
                .strip_prefix('@')
                .ok_or_else(|| format!("unexpected token '{tok}'"))?;
            let v: f64 = ts.parse().map_err(|_| format!("bad timestamp '{ts}'"))?;
            if !v.is_finite() {
                return Err(format!("non-finite timestamp '{ts}'"));
            }
            t = Some(v);
        }
        if let Some(extra) = parts.next() {
            return Err(format!("trailing token '{extra}'"));
        }
        let event = match op {
            "a" => Event::Arrival { class },
            "d" => Event::Departure { class },
            _ => return Err(format!("bad op '{op}' (expected a|d)")),
        };
        Ok(Some((tenant, ParsedEvent { event, t })))
    }

    /// `parse_line` and the oracle agree on `line`: the same `Ok` value,
    /// timestamp bits included, or the same `Err` message.
    fn agrees_with_oracle(line: &str) -> Result<(), String> {
        let bits = |r: Result<Option<ParsedLine>, String>| {
            r.map(|p| p.map(|p| (p.tenant, p.event.event, p.event.t.map(f64::to_bits))))
        };
        let got = bits(parse_line(line));
        let want = bits(parse_oracle(line).map(|p| {
            p.map(|(tenant, event)| ParsedLine {
                tenant: tenant.to_string(),
                event,
            })
        }));
        if got == want {
            Ok(())
        } else {
            Err(format!("{line:?}: scanner {got:?}, oracle {want:?}"))
        }
    }

    /// A random protocol-shaped line: tokens and separators drawn so that
    /// every check, the Unicode separators and both timestamp paths are
    /// reached. One line in four is a run of random chars instead.
    fn random_line(rng: &mut StdRng) -> String {
        const CHARS: &[char] = &[
            'a', 'd', 't', 'Z', 'x', '0', '1', '5', '9', '+', '-', '.', 'e', '@', '#', '_', '/',
            ' ', '\t', '\x0B', '\u{A0}', '\u{85}', '\u{2003}', '\u{3000}', 'é',
        ];
        const SEPS: &[&str] = &[
            " ",
            " ",
            "  ",
            "\t",
            "\x0B",
            "\u{A0}",
            "\u{85}",
            "\u{2003}",
            "\u{3000}",
            " \u{3000}\t",
        ];
        fn pick<'a>(rng: &mut StdRng, set: &[&'a str]) -> &'a str {
            set[rng.gen_range(0..set.len())]
        }
        fn chars(rng: &mut StdRng, from: &[char], len: usize) -> String {
            (0..len)
                .map(|_| from[rng.gen_range(0..from.len())])
                .collect()
        }
        let digits = |rng: &mut StdRng, len: usize| {
            chars(
                rng,
                &['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'],
                len,
            )
        };
        if rng.gen_bool(0.25) {
            let len = rng.gen_range(0..24);
            return chars(rng, CHARS, len);
        }
        let mut toks: Vec<String> = Vec::new();
        toks.push(match rng.gen_range(0..8u32) {
            0 => pick(rng, &["#c", "bad/name", "té", "t.0", "-", "_"]).to_string(),
            1 => {
                let len = rng.gen_range(1..6);
                chars(rng, CHARS, len)
            }
            _ => pick(rng, &["t0", "t17", "tenant-1", "a_b", "Z9"]).to_string(),
        });
        toks.push(pick(rng, &["a", "d", "a", "d", "x", "ad", "A", "é"]).to_string());
        toks.push(match rng.gen_range(0..6u32) {
            0 => {
                let len = rng.gen_range(16..=21);
                digits(rng, len)
            }
            1 => pick(
                rng,
                &[
                    "+5",
                    "-1",
                    "65535",
                    "65536",
                    "0x1",
                    "5é",
                    "18446744073709551615",
                    "00007",
                ],
            )
            .to_string(),
            _ => {
                let len = rng.gen_range(1..4);
                digits(rng, len)
            }
        });
        if rng.gen_bool(0.8) {
            let stamp = match rng.gen_range(0..6u32) {
                // Long mantissas, long fractions: around both bounds.
                0 | 1 => {
                    let (int, frac) = (rng.gen_range(0..26), rng.gen_range(0..30));
                    let mut s = digits(rng, int);
                    if rng.gen_bool(0.8) {
                        s.push('.');
                        s.push_str(&digits(rng, frac));
                    }
                    s
                }
                // A small mantissa behind many fraction digits, 20 to 28.
                2 => {
                    let zeros = rng.gen_range(5..14);
                    let len = rng.gen_range(1..16);
                    format!("0.{}{}", "0".repeat(zeros), digits(rng, len))
                }
                3 => pick(
                    rng,
                    &[
                        "inf",
                        "-inf",
                        "nan",
                        "1e5",
                        "-3.5",
                        "+2",
                        "1.5e-3",
                        "",
                        ".",
                        ".5",
                        "5.",
                        "1.2.3",
                        "1e400",
                        "9007199254740993",
                        "9007199254740992",
                        "-0",
                        "0.1",
                    ],
                )
                .to_string(),
                _ => {
                    let (int, frac) = (rng.gen_range(1..6), rng.gen_range(0..9));
                    format!("{}.{}", digits(rng, int), digits(rng, frac))
                }
            };
            toks.push(if rng.gen_bool(0.95) {
                format!("@{stamp}")
            } else {
                stamp
            });
        }
        if rng.gen_bool(0.05) {
            let len = rng.gen_range(1..4);
            toks.push(chars(rng, CHARS, len));
        }
        let mut line = String::new();
        if rng.gen_bool(0.2) {
            line.push_str(pick(rng, SEPS));
        }
        for (i, tok) in toks.iter().enumerate() {
            if i > 0 {
                line.push_str(pick(rng, SEPS));
            }
            line.push_str(tok);
        }
        if rng.gen_bool(0.2) {
            line.push_str(pick(rng, SEPS));
        }
        if rng.gen_bool(0.1) {
            // One stray char anywhere, at a char boundary.
            let at = line.char_indices().map(|(i, _)| i).collect::<Vec<_>>();
            let i = if at.is_empty() {
                0
            } else {
                at[rng.gen_range(0..at.len())]
            };
            line.insert(i, CHARS[rng.gen_range(0..CHARS.len())]);
        }
        line
    }

    /// Lines from [`random_line`], one seed per case.
    fn random_lines() -> impl Strategy<Value = String> {
        (0u64..u64::MAX).prop_map(|seed| random_line(&mut StdRng::seed_from_u64(seed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn parse_matches_the_str_oracle_on_random_lines(line in random_lines()) {
            agrees_with_oracle(&line).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn parse_matches_the_str_oracle_on_edge_cases() {
        for line in [
            "tenant-1 a 0 @1.5",
            "t d 3",
            "",
            "  # comment",
            "#",
            "t x 0",
            "t a",
            "t",
            "t a notanum",
            "t a 0 extra",
            "t a 0 @nan",
            "t a 0 @inf",
            "t a 99999999",
            "bad/name a 0",
            "t a 0 1.5",
            "t x 0 1.5",
            "t x 0 @1 extra",
            "t a +5",
            "t a 65536",
            "t a 18446744073709551615",
            "t a 18446744073709551616",
            "t a 0000000000000000000000005",
            "t a 0 @",
            "t a 0 @.",
            "t a 0 @.5",
            "t a 0 @5.",
            "t a 0 @0.1",
            "t a 0 @-0",
            "t a 0 @9007199254740991",
            "t a 0 @9007199254740992",
            "t a 0 @9007199254740993",
            "t a 0 @0.1234567890123456789012",
            "t a 0 @0.12345678901234567890123",
            "t a 0 @0.00000000000000000000001",
            "t a 0 @1e400",
            "t\u{3000}a\u{A0}0\u{85}@2.25\u{2003}",
            "\u{2003}t a 0\u{3000}",
            "t\x0Ba\x0C0\r",
            "té a 0",
            "t a\u{200B}0",
            "t a 0 @1\u{A0}x y",
        ] {
            agrees_with_oracle(line).unwrap();
        }
    }

    #[test]
    fn accounting_identity_holds_with_shedding() {
        let d = dir("identity");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 4,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        // Burst far past the queue bound without pumping: overflow sheds.
        for i in 0..50 {
            daemon
                .ingest_line(&format!("t1 a 0 @{}", i as f64))
                .unwrap();
        }
        assert!(daemon.queued() <= 4);
        daemon.drain().unwrap();
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 50);
        assert!(acc.shed >= 46, "everything past the bound shed durably");
        assert!(acc.holds(), "offers identity: {acc:?}");
    }

    #[test]
    fn departures_are_never_shed_by_the_bounded_queue() {
        let d = dir("dep_not_shed");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        // Queue is now full; a departure must still be queued, an arrival
        // must shed.
        daemon.ingest_line("t1 d 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        assert_eq!(daemon.queued(), 3);
        daemon.drain().unwrap();
        let acc = daemon.accounting();
        assert_eq!(acc.shed, 1);
        assert_eq!(acc.departures, 1);
        assert!(acc.holds());
    }

    #[test]
    fn malformed_lines_are_counted_and_consume_sequence_numbers() {
        let d = dir("malformed");
        let m = model();
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("this is not the protocol").unwrap();
        daemon.ingest_line("# a comment").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.drain().unwrap();
        daemon.commit().unwrap();
        assert_eq!(daemon.counters().malformed, 1);
        assert_eq!(daemon.counters().lines, 4);
        // Seq numbers 1 and 4 were used for the two valid events.
        assert_eq!(daemon.tenant("t1").unwrap().durable_seq(), 4);
    }

    #[test]
    fn commit_writes_the_tenants_that_appended_and_only_those() {
        let d = dir("commit_unwritten");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 1,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        let on_disk = |name: &str| {
            crate::wal::recover(&Tenant::wal_path(&d, name))
                .unwrap()
                .records
                .len()
        };
        for name in ["a", "b", "c"] {
            daemon.ingest_line(&format!("{name} a 0")).unwrap();
        }
        daemon.drain().unwrap();
        // b's second arrival overflows its queue and is shed at ingest,
        // before any pump: that append, too, puts b on the list.
        daemon.ingest_line("b a 0").unwrap();
        daemon.ingest_line("b a 0").unwrap();
        assert_eq!([on_disk("a"), on_disk("b"), on_disk("c")], [0, 0, 0]);
        assert_eq!(daemon.unwritten.len(), 3);
        daemon.commit().unwrap();
        assert!(daemon.unwritten.is_empty());
        assert_eq!([on_disk("a"), on_disk("b"), on_disk("c")], [1, 2, 1]);
        daemon.drain().unwrap();
        assert_eq!(daemon.unwritten, [daemon.ids["b"]]);
        daemon.commit().unwrap();
        assert_eq!([on_disk("a"), on_disk("b"), on_disk("c")], [1, 3, 1]);
        assert_eq!(daemon.tenant("b").unwrap().durable_seq(), 5);
    }

    #[test]
    fn clock_skew_is_flagged_per_tenant() {
        let d = dir("skew");
        let m = model();
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.ingest_line("t1 a 0 @1.0").unwrap();
        daemon.ingest_line("t1 a 0 @2.0").unwrap();
        daemon.ingest_line("t1 a 0 @1.5").unwrap(); // backwards: skewed
        daemon.ingest_line("t2 a 0 @0.5").unwrap(); // different tenant: fine
        daemon.drain().unwrap();
        assert_eq!(daemon.serve_counters().skewed, 1);
    }

    #[test]
    fn socket_style_resume_numbers_fresh_events_past_the_durable_prefix() {
        let d = dir("socket_resume");
        let m = model();
        {
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for i in 0..10 {
                daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
            }
            daemon.drain().unwrap();
            daemon.commit().unwrap();
            // Crash after the commit point: no shutdown.
        }
        // A socket feeds only fresh events after the restart — nothing
        // re-feeds from the top. Without seeking past the durable prefix,
        // the first 10 fresh events would collide with durable seqs 1..10
        // and be swallowed as duplicates.
        let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        daemon.seek_past_durable();
        for i in 10..15 {
            daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(
            daemon.counters().duplicates,
            0,
            "fresh events are not duplicates"
        );
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 15, "10 recovered + 5 fresh");
        assert!(acc.holds());
    }

    #[test]
    fn crash_lost_queued_events_are_healed_on_refeed() {
        let d = dir("healed");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        {
            let (mut daemon, _) = Daemon::open(&d, &m, cfg.clone()).unwrap();
            // Seqs 1 and 2 queue; 3..6 overflow and shed durably — durable
            // appends jump the queue, so the WAL's max seq (6) exceeds the
            // still-queued seqs 1 and 2.
            for i in 0..6 {
                daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
            }
            assert_eq!(daemon.queued(), 2);
            daemon.commit().unwrap();
            drop(daemon); // kill -9: queued events die, committed sheds survive
        }
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        assert_eq!(daemon.tenant("t1").unwrap().resume_seq(), 6);
        // Re-feed from the top: seqs 3..6 have durable records and
        // deduplicate; seqs 1 and 2 were lost in the queues and must
        // re-apply — a blanket `seq <= resume_seq` watermark would have
        // swallowed them forever.
        for i in 0..6 {
            daemon.ingest_line(&format!("t1 a 0 @{i}")).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().duplicates, 4);
        let acc = daemon.accounting();
        assert_eq!(acc.offers, 6, "every event accounted exactly once");
        assert!(acc.holds());
    }

    #[test]
    fn departure_flood_past_the_hard_bound_is_rejected_durably() {
        let d = dir("dep_flood");
        let m = model();
        let cfg = DaemonConfig {
            queue_cap: 2,
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        // The queue is full: departures may stack only up to the hard
        // bound, the rest are durably rejected (memory stays bounded even
        // with a stalled pump).
        for _ in 0..30 {
            daemon.ingest_line("t1 d 0").unwrap();
        }
        let hard_cap = 2 * DEPARTURE_QUEUE_SLACK;
        assert_eq!(daemon.queued(), hard_cap);
        assert_eq!(
            daemon.serve_counters().rejected,
            30 - (hard_cap - 2) as u64,
            "overflow departures rejected durably at ingest"
        );
        daemon.drain().unwrap();
        assert!(daemon.accounting().holds());
        // The durable rejections survive a restart.
        let total_rejected = daemon.serve_counters().rejected;
        daemon.commit().unwrap();
        drop(daemon);
        let (daemon, _) = Daemon::open(
            &d,
            &m,
            DaemonConfig {
                queue_cap: 2,
                ..DaemonConfig::default()
            },
        )
        .unwrap();
        assert_eq!(daemon.serve_counters().rejected, total_rejected);
    }

    #[test]
    fn reopen_resumes_and_deduplicates_the_same_stream() {
        let d = dir("resume");
        let m = model();
        let lines: Vec<String> = (0..30)
            .map(|i| {
                if i % 3 == 2 {
                    format!("t1 d 0 @{i}")
                } else {
                    format!("t1 a 0 @{i}")
                }
            })
            .collect();
        {
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for line in &lines[..20] {
                daemon.ingest_line(line).unwrap();
            }
            daemon.drain().unwrap();
            daemon.commit().unwrap();
            // Crash after the commit point: no shutdown.
        }
        // Restart and re-feed the whole stream from the top, as a resumed
        // tailer would: the durable prefix deduplicates, the tail applies.
        let (mut daemon, reports) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        assert_eq!(reports.len(), 1);
        for line in &lines {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        assert_eq!(daemon.counters().duplicates, 20);
        let acc = daemon.accounting();
        assert_eq!(acc.offers + acc.departures + acc.rejected, 30);
        assert!(acc.holds());
    }

    #[test]
    fn drift_reanchors_coalesce_into_one_fleet_batch_per_pump() {
        let d = dir("coalesce");
        let m = model();
        // A negative tolerance makes every drift check trip (drift >= 0
        // can never be <= a negative bound), so each applied event
        // requests a re-anchor deterministically.
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let reg = std::sync::Arc::new(xbar_obs::Registry::new());
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        {
            let _g = xbar_obs::scope(&reg);
            for t in ["t1", "t2", "t3"] {
                daemon.ingest_line(&format!("{t} a 0")).unwrap();
            }
            daemon.drain().unwrap();
        }
        // One batch completed all three pending re-anchors, with no
        // solve, and each tenant re-anchored exactly once despite
        // drifting on every event in the pass.
        assert_eq!(daemon.counters().reanchor_batches, 1);
        assert_eq!(daemon.counters().batched_reanchors, 3);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fleet.solves"), None);
        for t in ["t1", "t2", "t3"] {
            let tenant = daemon.tenant(t).unwrap();
            assert!(!tenant.reanchor_pending());
            assert_eq!(tenant.engine().stats().re_anchors, 1, "{t}");
            assert!(!tenant.anchor_stale());
        }
    }

    #[test]
    fn re_anchors_make_no_solve_and_keep_the_thresholds() {
        // A cheap, hungry class next to a valuable one, so the shadow
        // thresholds are non-trivial.
        let m = Model::new(
            Dims::square(4),
            Workload::new()
                .with(TrafficClass::poisson(0.25).with_weight(1.0))
                .with(TrafficClass::poisson(0.5).with_weight(0.01)),
        )
        .unwrap();
        let tenants = ["t0", "t1", "t2"];
        for (name, policy, want, precomputes) in [
            ("cs", PolicySpec::CompleteSharing, [0, 0], 0),
            ("shadow", PolicySpec::ShadowPrice { reserve: 2 }, [0, 2], 3),
        ] {
            // Every applied event trips the drift check (see
            // `drift_reanchors_coalesce_into_one_fleet_batch_per_pump`).
            let cfg = DaemonConfig {
                tenant: TenantConfig {
                    policy,
                    reprice_batch: Some(2),
                    drift_tol: -1.0,
                    check_interval: 1,
                    ..TenantConfig::default()
                },
                ..DaemonConfig::default()
            };
            let reg = std::sync::Arc::new(xbar_obs::Registry::new());
            let (mut daemon, _) = Daemon::open(&dir(&format!("no_solve_{name}")), &m, cfg).unwrap();
            {
                let _g = xbar_obs::scope(&reg);
                for round in 0..4 {
                    for t in tenants {
                        daemon.ingest_line(&format!("{t} a {}", round % 2)).unwrap();
                    }
                    daemon.drain().unwrap();
                    for t in tenants {
                        let engine = daemon.tenant(t).unwrap().engine();
                        assert_eq!(engine.thresholds(), want, "{name} {t} round {round}");
                        assert_eq!(engine.stats().re_anchors, round + 1, "{name} {t}");
                    }
                }
            }
            let snap = reg.snapshot();
            assert_eq!(snap.counter("cache.misses").unwrap_or(0), 0, "{name}");
            assert_eq!(snap.counter("cache.hits").unwrap_or(0), 0, "{name}");
            let built: u64 = snap
                .histograms
                .iter()
                .filter(|(n, _)| n.ends_with("sweep.precompute"))
                .map(|(_, h)| h.count)
                .sum();
            assert_eq!(built, precomputes, "{name}: one precompute per tenant open");
        }
    }

    #[test]
    fn coalesced_completion_still_honours_the_stale_deadline() {
        let d = dir("coalesce_stale");
        let m = model();
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                reanchor_deadline: Some(std::time::Duration::ZERO),
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &m, cfg).unwrap();
        daemon.ingest_line("t1 a 0").unwrap();
        daemon.ingest_line("t2 a 0").unwrap();
        daemon.drain().unwrap();
        // Completion went through the batch, but the per-tenant deadline
        // ladder still forced the stale-anchor path for both.
        assert_eq!(daemon.counters().batched_reanchors, 2);
        assert_eq!(daemon.serve_counters().stale_reanchors, 2);
        for t in ["t1", "t2"] {
            let tenant = daemon.tenant(t).unwrap();
            assert!(tenant.anchor_stale(), "{t}");
            assert_eq!(tenant.engine().stats().re_anchors, 0, "{t}");
        }
        assert!(
            daemon.counters().reanchor_batches <= daemon.counters().batched_reanchors,
            "batches can never exceed batched re-anchors"
        );
    }

    #[test]
    fn pump_takes_one_event_per_ready_tenant_per_round() {
        const M: usize = 5;
        const PER_TENANT: usize = 2;
        for k in [1, 3, M, M + 2] {
            let d = dir(&format!("ready_ring_{k}"));
            let (mut daemon, _) = Daemon::open(&d, &model(), DaemonConfig::default()).unwrap();
            for round in 0..PER_TENANT {
                for t in 0..M {
                    daemon.ingest_line(&format!("t{t} a 0 @{round}")).unwrap();
                }
            }
            assert_eq!(daemon.queued(), M * PER_TENANT);
            assert_eq!(daemon.pump(k as u64).unwrap(), k as u64);
            // The first round gives min(k, M) tenants one event each, in
            // the order they became ready; the rest of the budget starts
            // the next round from the front.
            for t in 0..M {
                let want = k / M + usize::from(t < k % M);
                let got = daemon.tenant(&format!("t{t}")).unwrap().offers();
                assert_eq!(got, want as u64, "k={k} t{t}");
            }
            assert_eq!(daemon.queued(), M * PER_TENANT - k);
            daemon.drain().unwrap();
            assert_eq!(daemon.queued(), 0);
            assert!(daemon.ready.is_empty());
        }
    }

    #[test]
    fn reopened_daemon_keeps_name_order_and_lookups_as_tenants_join() {
        let d = dir("reopen_order");
        let m = model();
        {
            let (mut daemon, _) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
            for line in ["m a 0", "c a 0", "x a 0", "m a 0", "c a 0", "x a 0"] {
                daemon.ingest_line(line).unwrap();
            }
            daemon.drain().unwrap();
            daemon.commit().unwrap();
            // Crash after the commit point: no shutdown.
        }
        let (mut daemon, reports) = Daemon::open(&d, &m, DaemonConfig::default()).unwrap();
        let recovered: Vec<&str> = reports.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(recovered, ["c", "m", "x"]);
        daemon.seek_past_durable();
        for line in ["z a 0", "a a 0", "c a 0", "d a 0"] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        daemon.commit().unwrap();
        let names: Vec<&str> = daemon.tenants().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "c", "d", "m", "x", "z"]);
        for (name, t) in daemon.tenants() {
            assert_eq!(t.name(), name);
            assert!(std::ptr::eq(daemon.tenant(name).unwrap(), t));
        }
        assert!(daemon.tenant("nope").is_none());
        // Fresh events were numbered past the durable prefix (seq 6).
        assert_eq!(daemon.counters().duplicates, 0);
        assert_eq!(daemon.tenant("z").unwrap().durable_seq(), 7);
        assert_eq!(daemon.tenant("a").unwrap().durable_seq(), 8);
        assert_eq!(daemon.tenant("c").unwrap().durable_seq(), 9);
        assert_eq!(daemon.tenant("d").unwrap().durable_seq(), 10);
        // A second seek never moves the counter backwards.
        daemon.seek_past_durable();
        daemon.ingest_line("m a 0").unwrap();
        daemon.drain().unwrap();
        daemon.commit().unwrap();
        assert_eq!(daemon.tenant("m").unwrap().durable_seq(), 11);
        assert!(daemon.accounting().holds());
    }

    #[test]
    fn quarantined_tenant_never_completes_its_pending_reanchor() {
        let d = dir("pending_quarantine");
        let cfg = DaemonConfig {
            tenant: TenantConfig {
                drift_tol: -1.0,
                check_interval: 1,
                max_failures: 2,
                ..TenantConfig::default()
            },
            ..DaemonConfig::default()
        };
        let (mut daemon, _) = Daemon::open(&d, &model(), cfg).unwrap();
        // q's arrival defers a re-anchor; then two impossible departures
        // quarantine it before the pump's batch runs.
        for line in ["h a 0", "q a 0", "q d 0", "q d 0", "q d 0"] {
            daemon.ingest_line(line).unwrap();
        }
        daemon.drain().unwrap();
        let q = daemon.tenant("q").unwrap();
        assert!(q.quarantined());
        assert!(q.reanchor_pending());
        assert_eq!(daemon.counters().batched_reanchors, 1, "h only");
        assert!(daemon.pending.is_empty());
        for round in 1..=3 {
            daemon.ingest_line("q a 0").unwrap();
            daemon.ingest_line("h a 0").unwrap();
            daemon.drain().unwrap();
            assert!(daemon.pending.is_empty(), "round {round}");
            assert_eq!(daemon.counters().batched_reanchors, 1 + round);
        }
        let q = daemon.tenant("q").unwrap();
        assert_eq!(q.engine().stats().re_anchors, 0);
        assert_eq!(q.counters().shed, 3);
        assert_eq!(daemon.tenant("h").unwrap().engine().stats().re_anchors, 4);
    }
}
