//! One supervised tenant: an [`AdmissionEngine`] plus its durable state
//! (WAL + snapshot), failure supervision, and degraded-mode fallbacks.
//!
//! # Durability contract
//!
//! Events are **applied first, then logged**: a WAL record exists only
//! for events the engine (or the shed/reject path) actually absorbed, so
//! replay can never hit an error the original run didn't. The WAL groups
//! its frames (see [`crate::wal`]): a record reaches the OS when the
//! group fills, at a snapshot, or at [`Tenant::commit`], so a process
//! crash loses the in-flight event plus the records appended since that
//! point. A source that re-feeds from the top re-applies them.
//! Recovery = restore the newest usable snapshot (validated by CRC and
//! [model fingerprint](crate::snapshot::model_fingerprint)), then replay
//! the WAL records past the snapshot's sequence number. Because the
//! engine is deterministic and the snapshot restores the log-weight
//! bit-exactly, the recovered tenant's counters are *byte-identical* to
//! an uninterrupted run over the same durable prefix.
//!
//! # Supervision
//!
//! Semantically invalid events (unknown class, departure with nothing in
//! progress) are rejected durably and counted — they are data problems,
//! not engine problems. Each one increments a consecutive-failure count
//! (any success resets it); at `max_failures` the tenant is
//! **quarantined**: arrivals shed durably, departures rejected,
//! everything still accounted, the process and the other tenants
//! unaffected. The engine itself has no failure to supervise: its
//! pricing is computed once when the tenant opens, and a drift re-anchor
//! solves nothing and cannot fail.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use xbar_admission::{
    AdmissionEngine, AdmissionError, Decision, DenyReason, EngineConfig, Event, PolicySpec,
};
use xbar_core::{Algorithm, Model};

use crate::snapshot::{self, model_fingerprint, TenantSnapshot};
use crate::wal::{RecordKind, Wal, WalRecord};
use crate::ServeError;

/// Per-tenant serve configuration.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Admission policy.
    pub policy: PolicySpec,
    /// Backend of the shadow policy's pricing gradients (see
    /// [`EngineConfig::algorithm`]).
    pub algorithm: Algorithm,
    /// Applied events between drift checks of the incremental log-weight
    /// (0 disables; the serve layer drives checks itself so deadlines
    /// stay under supervision, the engine's internal periodic check is
    /// always off).
    pub check_interval: u64,
    /// Relative drift tolerance (same contract as
    /// [`EngineConfig::drift_tol`]).
    pub drift_tol: f64,
    /// Applied events between durable snapshots (0 = only on shutdown).
    pub snapshot_interval: u64,
    /// Consecutive failed applies (rejected events) before the tenant is
    /// quarantined.
    pub max_failures: u32,
    /// Latency budget for a drift-triggered re-anchor. When the budget is
    /// already spent by the time the re-anchor would run (a coalesced one
    /// waits for the end of the pump pass), the tenant only corrects the
    /// weight (an `O(N)` exact recompute) and marks the anchor **stale**:
    /// the pricing gradient keeps its old timestamp, and the
    /// `serve.anchor_stale` gauge reports the degradation. `None` means
    /// no deadline (always re-anchor fully); `Some(ZERO)` deterministically
    /// forces the stale path, which is what the chaos tests pin.
    pub reanchor_deadline: Option<Duration>,
    /// WAL fsync cadence (records per sync; 0 = OS page cache only).
    pub sync_every: u64,
    /// Defer drift-triggered re-anchors instead of completing them
    /// inline: `maintain` records the detection time and returns, and the
    /// owner (the daemon) completes every pending re-anchor at the end of
    /// the pump pass via [`Tenant::complete_pending_reanchor`]. The
    /// `reanchor_deadline` budget still measures from detection. Off by
    /// default so a standalone tenant corrects drift immediately.
    pub coalesce_reanchors: bool,
    /// Applied events per online repricing batch (plumbed to
    /// [`EngineConfig::reprice_batch`]): the engine re-derives the policy
    /// thresholds from its per-anchor pricing state every `n` absorbed
    /// events. The `reanchor_deadline` doubles as the engine's
    /// `price_deadline`, so a gradient older than the deadline refuses to
    /// price and is routed through the (possibly coalesced) re-anchor
    /// path, which restamps it. `None` disables repricing.
    pub reprice_batch: Option<u64>,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            policy: PolicySpec::CompleteSharing,
            algorithm: Algorithm::Auto,
            check_interval: 1024,
            drift_tol: 1e-9,
            snapshot_interval: 4096,
            max_failures: 5,
            reanchor_deadline: None,
            sync_every: 0,
            coalesce_reanchors: false,
            reprice_batch: None,
        }
    }
}

/// Serve-level counters (everything the engine itself doesn't count).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Arrivals load-shed before reaching the engine (queue overflow or
    /// quarantine) — durable, and part of the offers accounting.
    pub shed: u64,
    /// Semantically invalid events rejected durably.
    pub rejected: u64,
    /// Events that arrived in clock-skewed batches (timestamp ran
    /// backwards within the tenant's stream).
    pub skewed: u64,
    /// Engine restarts from durable storage. Kept in the snapshot format
    /// so existing snapshots load; no code path restarts an engine, so
    /// only a restored snapshot sets it.
    pub restarts: u64,
    /// Drift corrections that kept a stale anchor (re-anchor deadline
    /// exceeded).
    pub stale_reanchors: u64,
    /// Repricing passes the engine refused because the pricing gradient
    /// outlived the deadline ([`AdmissionError::StalePrices`]); each one
    /// routes a re-anchor through the drift-correction path.
    pub stale_reprices: u64,
    /// Snapshots written.
    pub snapshots: u64,
}

/// What recovery found when a tenant was opened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A usable snapshot was restored (otherwise: full WAL replay).
    pub snapshot_used: bool,
    /// WAL records replayed on top of the restored state.
    pub replayed: u64,
    /// The WAL had a damaged tail that was truncated away.
    pub wal_damaged: bool,
    /// Highest durable sequence number after recovery.
    pub durable_seq: u64,
}

/// The tenant's answer for one ingested event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Arrival admitted.
    Admitted,
    /// Arrival denied by the engine.
    Denied(DenyReason),
    /// Departure applied.
    Departed,
    /// Arrival load-shed (quarantine or queue overflow), durably recorded.
    Shed,
    /// Durably rejected without touching the engine: a semantically
    /// invalid event, or a departure past the hard queue bound.
    Rejected,
    /// `seq` was already durable (replay after crash) — skipped.
    Duplicate,
    /// This apply tripped the quarantine threshold: the event was
    /// durably rejected as the last of `max_failures` consecutive
    /// failures.
    Quarantined,
}

/// One supervised tenant.
pub struct Tenant {
    name: String,
    cfg: TenantConfig,
    fp: u64,
    engine: AdmissionEngine,
    wal: Wal,
    snap_path: PathBuf,
    counters: ServeCounters,
    /// Highest sequence number whose WAL record reached the OS (snapshot
    /// watermark).
    durable_seq: u64,
    /// Highest sequence number appended to the WAL, buffered or written;
    /// `durable_seq` catches up with it whenever the WAL buffer empties.
    appended_seq: u64,
    /// Crash-resume dedupe watermark, **fixed at open**: the highest
    /// sequence number durable before this process started. It
    /// deliberately does not advance with `durable_seq`: durable appends
    /// are not in sequence order (an overflow shed for a late event lands
    /// before earlier queued events are applied), and a live high-water
    /// mark would wrongly swallow those still-queued events.
    ///
    /// The watermark alone is NOT a durability proof: an event below it
    /// may have been queued-but-lost at the crash (its shed neighbour
    /// jumped the queue into the WAL). Dedupe therefore also consults
    /// [`Tenant::is_durable`]'s per-record set — a re-fed event below the
    /// watermark that has no durable record is *applied*, not swallowed.
    resume_seq: u64,
    /// Sorted sequence numbers with a durable WAL record at or below
    /// `resume_seq` (rebuilt at open; extended when a re-fed gap event
    /// lands durably). Gaps are legitimate — blanks, comments, malformed
    /// lines, and other tenants' lines all consume global sequence
    /// numbers — so only a present record proves durability.
    durable_below_resume: Vec<u64>,
    quarantined: bool,
    consecutive_failures: u32,
    events_since_check: u64,
    events_since_snapshot: u64,
    anchor_stale: bool,
    /// Detection time of a deferred re-anchor (coalescing mode); the
    /// earliest detection wins so the deadline covers the worst case.
    pending_reanchor: Option<Instant>,
}

fn engine_cfg(cfg: &TenantConfig) -> EngineConfig {
    EngineConfig {
        policy: cfg.policy.clone(),
        algorithm: cfg.algorithm,
        // The serve layer drives drift checks under its re-anchor
        // deadline; the engine's own periodic check must never fire
        // mid-apply.
        check_interval: 0,
        drift_tol: cfg.drift_tol,
        reprice_batch: cfg.reprice_batch,
        // The re-anchor latency budget doubles as the pricing freshness
        // deadline: a supervisor that bounds how stale an anchor may get
        // bounds how stale the served prices may get by the same amount.
        price_deadline: cfg.reanchor_deadline,
    }
}

impl Tenant {
    /// WAL path for tenant `name` under `dir`.
    pub fn wal_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.wal"))
    }

    /// Snapshot path for tenant `name` under `dir`.
    pub fn snapshot_path(dir: &Path, name: &str) -> PathBuf {
        dir.join(format!("{name}.snap"))
    }

    /// Open (and recover) tenant `name` with durable state under `dir`.
    pub fn open(
        name: &str,
        dir: &Path,
        model: &Model,
        cfg: TenantConfig,
    ) -> Result<(Tenant, RecoveryReport), ServeError> {
        let fp = model_fingerprint(model, &cfg.policy, cfg.algorithm);
        let (wal, recovery) = Wal::open(&Self::wal_path(dir, name), cfg.sync_every)?;
        let engine = AdmissionEngine::new(model, engine_cfg(&cfg))?;
        let snap_path = Self::snapshot_path(dir, name);
        let mut tenant = Tenant {
            name: name.to_string(),
            cfg,
            fp,
            engine,
            wal,
            snap_path,
            counters: ServeCounters::default(),
            durable_seq: 0,
            appended_seq: 0,
            resume_seq: 0,
            durable_below_resume: Vec::new(),
            quarantined: false,
            consecutive_failures: 0,
            events_since_check: 0,
            events_since_snapshot: 0,
            anchor_stale: false,
            pending_reanchor: None,
        };
        let mut report = RecoveryReport {
            wal_damaged: recovery.damaged,
            ..RecoveryReport::default()
        };
        // A snapshot is used only when its CRC survives (load), its model
        // fingerprint matches, AND the engine accepts its state; anything
        // else degrades to a full WAL replay — never a refusal to start.
        let mut skip = 0usize;
        if let Some(snap) = snapshot::load(&tenant.snap_path)? {
            if snap.model_fp == fp && tenant.engine.restore_state(&snap.engine).is_ok() {
                tenant.counters = snap.counters;
                tenant.quarantined = snap.quarantined;
                tenant.durable_seq = snap.seq;
                // Replay by file position: the snapshot covers the first
                // `wal_records` records, whatever their sequence numbers.
                skip = snap.wal_records.min(recovery.records.len() as u64) as usize;
                report.snapshot_used = true;
            }
        }
        for rec in recovery.records.iter().skip(skip) {
            tenant.replay_record(rec);
            report.replayed += 1;
        }
        // The resume watermark covers *every* durable record, replayed or
        // snapshot-covered — and the per-record set remembers exactly
        // which sequence numbers below it actually landed, so a re-fed
        // event that was queued-but-lost at the crash is re-applied
        // rather than misread as a duplicate.
        let max_rec_seq = recovery.records.iter().map(|r| r.seq).max().unwrap_or(0);
        tenant.durable_seq = tenant.durable_seq.max(max_rec_seq);
        tenant.appended_seq = tenant.durable_seq;
        tenant.resume_seq = tenant.durable_seq;
        let mut seqs: Vec<u64> = recovery.records.iter().map(|r| r.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        tenant.durable_below_resume = seqs;
        report.durable_seq = tenant.durable_seq;
        Ok((tenant, report))
    }

    /// Re-apply one recovered WAL record. Replay is infallible by
    /// construction — the WAL holds only events that were absorbed — so a
    /// failing record means the durable state predates a semantic change
    /// and is counted as rejected rather than wedging recovery.
    fn replay_record(&mut self, rec: &WalRecord) {
        if rec.skewed {
            self.counters.skewed += 1;
        }
        match rec.kind {
            RecordKind::Arrival => match self.engine.offer(rec.class as usize) {
                Ok(_) => {}
                // Repricing refusals absorb the event (the refusal is the
                // tick's last step) — count them exactly as the live run
                // did so recovery stays byte-identical.
                Err(AdmissionError::StalePrices { .. }) => self.counters.stale_reprices += 1,
                Err(_) => self.counters.rejected += 1,
            },
            RecordKind::Departure => match self.engine.depart(rec.class as usize) {
                Ok(()) => {}
                Err(AdmissionError::StalePrices { .. }) => self.counters.stale_reprices += 1,
                Err(_) => self.counters.rejected += 1,
            },
            RecordKind::Shed => self.counters.shed += 1,
            RecordKind::Rejected => self.counters.rejected += 1,
        }
        self.durable_seq = self.durable_seq.max(rec.seq);
    }

    fn append(
        &mut self,
        seq: u64,
        kind: RecordKind,
        class: u16,
        skewed: bool,
    ) -> Result<(), ServeError> {
        self.wal.append(&WalRecord {
            seq,
            kind,
            class,
            skewed,
        })?;
        self.appended_seq = self.appended_seq.max(seq);
        self.note_written();
        if seq <= self.resume_seq {
            // A healed gap event (queued-but-lost at the crash, re-fed
            // now): record it so the dedupe set stays exact.
            if let Err(at) = self.durable_below_resume.binary_search(&seq) {
                self.durable_below_resume.insert(at, seq);
            }
        }
        Ok(())
    }

    /// Advance `durable_seq` once every appended record is in the file.
    fn note_written(&mut self) {
        if self.wal.unwritten() == 0 {
            self.durable_seq = self.appended_seq;
        }
    }

    /// Hand the WAL's buffered records to the OS. When it returns, every
    /// event this tenant absorbed survives a process crash.
    pub fn commit(&mut self) -> Result<(), ServeError> {
        self.wal.commit()?;
        self.note_written();
        Ok(())
    }

    /// Whether the WAL holds records not yet handed to the OS.
    pub(crate) fn unwritten(&self) -> bool {
        self.wal.unwritten() > 0
    }

    /// Whether `seq` already has a durable WAL record from before this
    /// process started (crash-resume dedupe). A sequence number merely
    /// *below* the resume watermark is not enough: it may have been
    /// queued-but-lost at the crash while a later overflow shed jumped
    /// the queue into the WAL — such an event must re-apply on re-feed.
    pub fn is_durable(&self, seq: u64) -> bool {
        seq <= self.resume_seq && self.durable_below_resume.binary_search(&seq).is_ok()
    }

    /// Durably shed an arrival that never reaches the engine (queue
    /// overflow, quarantine). Part of the offers accounting.
    pub fn shed(&mut self, seq: u64, class: u16, skewed: bool) -> Result<Outcome, ServeError> {
        if self.is_durable(seq) {
            return Ok(Outcome::Duplicate);
        }
        self.append(seq, RecordKind::Shed, class, skewed)?;
        self.counters.shed += 1;
        if skewed {
            self.counters.skewed += 1;
        }
        Ok(Outcome::Shed)
    }

    /// Durably reject an event without touching the engine: semantic
    /// failures from the apply path, and departures past the hard queue
    /// bound (see the daemon's degradation docs). Counted outside the
    /// offers identity.
    pub fn reject(&mut self, seq: u64, class: u16, skewed: bool) -> Result<Outcome, ServeError> {
        if self.is_durable(seq) {
            return Ok(Outcome::Duplicate);
        }
        self.append(seq, RecordKind::Rejected, class, skewed)?;
        self.counters.rejected += 1;
        if skewed {
            self.counters.skewed += 1;
        }
        Ok(Outcome::Rejected)
    }

    /// Apply one event under supervision. `seq` must be the stream
    /// sequence number; events with a durable record from before this
    /// process started are deduplicated (crash-replay safety, see
    /// [`Tenant::is_durable`]).
    pub fn apply(&mut self, seq: u64, event: Event, skewed: bool) -> Result<Outcome, ServeError> {
        if self.is_durable(seq) {
            return Ok(Outcome::Duplicate);
        }
        let (kind, class) = match event {
            Event::Arrival { class } => (RecordKind::Arrival, class),
            Event::Departure { class } => (RecordKind::Departure, class),
        };
        let class16 = u16::try_from(class).unwrap_or(u16::MAX);
        if self.quarantined {
            return match kind {
                RecordKind::Arrival => self.shed(seq, class16, skewed),
                _ => self.reject(seq, class16, skewed),
            };
        }
        // Captured so a repricing refusal (which arrives *after* the event
        // was fully applied) can reconstruct the decision from the
        // counter delta.
        let before = self
            .engine
            .stats()
            .per_class
            .get(class)
            .copied()
            .unwrap_or_default();
        match self.engine.apply(event) {
            Ok(decision) => {
                // Apply-then-append: the record is written only for events
                // the engine absorbed.
                self.append(seq, kind, class16, skewed)?;
                if skewed {
                    self.counters.skewed += 1;
                }
                self.consecutive_failures = 0;
                self.after_apply()?;
                Ok(match decision {
                    Some(Decision::Admit) => Outcome::Admitted,
                    Some(Decision::Deny(r)) => Outcome::Denied(r),
                    None => Outcome::Departed,
                })
            }
            Err(AdmissionError::StalePrices { .. }) => {
                // Repricing runs last in the engine's tick, so the event
                // itself was fully applied and accounted before the
                // refusal — record it durably like any absorbed event.
                // The refusal is a *freshness* problem, not a data one:
                // count it and route a re-anchor through the (possibly
                // coalesced) drift-correction path so the pricing gradient
                // gets restamped under the same deadline supervision as
                // any other anchor work.
                self.append(seq, kind, class16, skewed)?;
                if skewed {
                    self.counters.skewed += 1;
                }
                self.consecutive_failures = 0;
                self.counters.stale_reprices += 1;
                xbar_obs::inc("serve.reprice.stale");
                if self.cfg.coalesce_reanchors {
                    self.pending_reanchor.get_or_insert(Instant::now());
                } else {
                    self.finish_reanchor(Instant::now());
                }
                self.after_apply()?;
                Ok(match kind {
                    RecordKind::Arrival => {
                        let after = self.engine.stats().per_class[class];
                        if after.admitted > before.admitted {
                            Outcome::Admitted
                        } else if after.denied_capacity > before.denied_capacity {
                            Outcome::Denied(DenyReason::Capacity)
                        } else {
                            Outcome::Denied(DenyReason::Policy)
                        }
                    }
                    _ => Outcome::Departed,
                })
            }
            Err(e) => self.supervise_apply_error(seq, class16, skewed, e),
        }
    }

    /// An `apply` error is a *data* problem (unknown class, departure with
    /// nothing in progress): reject durably, count a failure, quarantine
    /// at the threshold.
    fn supervise_apply_error(
        &mut self,
        seq: u64,
        class: u16,
        skewed: bool,
        _e: AdmissionError,
    ) -> Result<Outcome, ServeError> {
        self.consecutive_failures += 1;
        let out = self.reject(seq, class, skewed)?;
        if self.consecutive_failures >= self.cfg.max_failures {
            self.enter_quarantine()?;
            return Ok(Outcome::Quarantined);
        }
        Ok(out)
    }

    /// Post-apply bookkeeping: drift checks (with the deadline-bound
    /// stale-anchor fallback) and periodic snapshots.
    fn after_apply(&mut self) -> Result<(), ServeError> {
        self.events_since_check += 1;
        if self.cfg.check_interval > 0 && self.events_since_check >= self.cfg.check_interval {
            self.events_since_check = 0;
            self.maintain();
        }
        self.events_since_snapshot += 1;
        if self.cfg.snapshot_interval > 0
            && self.events_since_snapshot >= self.cfg.snapshot_interval
        {
            self.events_since_snapshot = 0;
            self.write_snapshot()?;
        }
        Ok(())
    }

    /// Exact drift check, with the degraded-mode ladder:
    /// within tolerance → nothing; drifted and inside the deadline →
    /// re-anchor; drifted but the deadline is already spent → correct the
    /// weight, keep the stale anchor and report it. In coalescing mode a
    /// detected drift is deferred to [`Tenant::complete_pending_reanchor`]
    /// instead of corrected inline.
    fn maintain(&mut self) {
        let start = Instant::now();
        let exact = self.engine.exact_log_weight();
        let drift = (self.engine.log_weight() - exact).abs();
        // Negated comparison so NaN drift also triggers correction.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(drift <= self.cfg.drift_tol * exact.abs().max(1.0)) {
            if self.cfg.coalesce_reanchors {
                // Defer: the daemon completes every pending re-anchor
                // after the pump pass. Keep the earliest detection so the
                // deadline covers the worst case.
                self.pending_reanchor.get_or_insert(start);
            } else {
                self.finish_reanchor(start);
            }
        }
    }

    /// Whether a deferred re-anchor is waiting for the owner to complete.
    pub fn reanchor_pending(&self) -> bool {
        self.pending_reanchor.is_some()
    }

    /// Complete a deferred re-anchor (coalescing mode). No-op when
    /// nothing is pending or the tenant is quarantined. It cannot fail;
    /// it returns a `Result` so callers can chain it with
    /// [`Tenant::apply`].
    pub fn complete_pending_reanchor(&mut self) -> Result<(), ServeError> {
        if let Some(detected) = self.pending_reanchor.take() {
            if !self.quarantined {
                self.finish_reanchor(detected);
            }
        }
        Ok(())
    }

    /// The tail of a drift correction, measured from the drift-detection
    /// time: inside the deadline → re-anchor; deadline already spent →
    /// correct the weight, keep the stale anchor and report it.
    fn finish_reanchor(&mut self, detected: Instant) {
        let budget_spent = match self.cfg.reanchor_deadline {
            Some(d) => detected.elapsed() >= d,
            None => false,
        };
        if budget_spent {
            self.engine.reset_weight();
            self.counters.stale_reanchors += 1;
            self.anchor_stale = true;
            xbar_obs::inc("serve.reanchor.stale");
        } else {
            self.engine.re_anchor().unwrap_or_else(|e| match e {});
            self.anchor_stale = false;
        }
    }

    fn enter_quarantine(&mut self) -> Result<(), ServeError> {
        self.quarantined = true;
        xbar_obs::inc("serve.quarantines");
        // Quarantine is durable: a restart must not resurrect the tenant.
        self.write_snapshot()
    }

    /// Write a durable snapshot of the current state.
    pub fn write_snapshot(&mut self) -> Result<(), ServeError> {
        // Snapshot ordering: the WAL must be at least as new as the
        // snapshot claims, so commit and sync it first: `wal_records`
        // then counts records that are in the file.
        self.wal.sync()?;
        self.note_written();
        let snap = TenantSnapshot {
            seq: self.durable_seq,
            wal_records: self.wal.records(),
            model_fp: self.fp,
            engine: self.engine.export_state(),
            counters: self.counters,
            quarantined: self.quarantined,
        };
        snapshot::write(&self.snap_path, &snap)?;
        self.counters.snapshots += 1;
        Ok(())
    }

    /// Flush, snapshot, and sync for clean shutdown.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        self.write_snapshot()
    }

    /// Tenant name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The supervised engine (read access for audits and tests).
    pub fn engine(&self) -> &AdmissionEngine {
        &self.engine
    }

    /// Serve-level counters.
    pub fn counters(&self) -> &ServeCounters {
        &self.counters
    }

    /// Highest sequence number whose WAL record has reached the OS.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// The crash-resume dedupe watermark (fixed at open): the highest
    /// sequence number durable before this process started. Not every
    /// sequence number below it was durable — use [`Tenant::is_durable`]
    /// for the per-record answer.
    pub fn resume_seq(&self) -> u64 {
        self.resume_seq
    }

    /// Whether the tenant is quarantined.
    pub fn quarantined(&self) -> bool {
        self.quarantined
    }

    /// Whether the last drift correction kept a stale anchor.
    pub fn anchor_stale(&self) -> bool {
        self.anchor_stale
    }

    /// Total offers for the accounting invariant:
    /// `offers = admitted + denied(capacity) + denied(policy) + shed`.
    pub fn offers(&self) -> u64 {
        self.engine.stats().offered() + self.counters.shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xbar_core::Dims;
    use xbar_traffic::{TrafficClass, Workload};

    fn model() -> Model {
        Model::new(
            Dims::square(6),
            Workload::new()
                .with(TrafficClass::poisson(0.8))
                .with(TrafficClass::bpp(0.5, 0.1, 1.0).with_bandwidth(2)),
        )
        .unwrap()
    }

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("xbar_tenant_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn cfg() -> TenantConfig {
        TenantConfig {
            check_interval: 7,
            snapshot_interval: 13,
            ..TenantConfig::default()
        }
    }

    /// A deterministic event mix: arrivals with departures of whatever is
    /// in flight, plus some invalid departures. The pattern is a function
    /// of the absolute sequence number, so feeding `[0, 230)` then
    /// `[230, 500)` produces the same stream as `[0, 500)`.
    fn feed(t: &mut Tenant, seq_base: u64, n: u64) {
        for seq in seq_base + 1..=seq_base + n {
            let i = seq - 1;
            let class = (i % 2) as usize;
            let ev = if i % 3 == 2 {
                Event::Departure { class }
            } else {
                Event::Arrival { class }
            };
            t.apply(seq, ev, i % 11 == 10).unwrap();
        }
    }

    #[test]
    fn recovery_is_byte_identical_to_uninterrupted_run() {
        let d = dir("identical");
        let m = model();
        // Uninterrupted run.
        let golden_dir = dir("identical_golden");
        let (mut golden, _) = Tenant::open("t", &golden_dir, &m, cfg()).unwrap();
        feed(&mut golden, 0, 500);
        // Interrupted run: same events, but drop the tenant (kill -9
        // equivalent: no shutdown, no final snapshot) halfway, after a
        // commit point.
        {
            let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
            feed(&mut t, 0, 230);
            t.commit().unwrap();
            // no shutdown: simulated crash
        }
        let (mut t, report) = Tenant::open("t", &d, &m, cfg()).unwrap();
        assert!(report.snapshot_used, "periodic snapshot should be usable");
        assert!(report.replayed > 0, "WAL suffix past the snapshot replays");
        assert_eq!(t.durable_seq(), 230);
        feed(&mut t, 230, 270);
        assert_eq!(t.engine().export_state(), golden.engine().export_state());
        assert_eq!(t.counters().shed, golden.counters().shed);
        assert_eq!(t.counters().rejected, golden.counters().rejected);
        assert_eq!(t.counters().skewed, golden.counters().skewed);
        assert_eq!(
            t.engine().log_weight().to_bits(),
            golden.engine().log_weight().to_bits(),
            "log-weight restores bit-exactly"
        );
    }

    #[test]
    fn a_crash_before_the_commit_loses_the_buffer_and_refeed_heals_it() {
        let m = model();
        let golden_dir = dir("uncommitted_golden");
        let (mut golden, _) = Tenant::open("t", &golden_dir, &m, cfg()).unwrap();
        feed(&mut golden, 0, 500);
        let d = dir("uncommitted");
        let cut = {
            let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
            feed(&mut t, 0, 230);
            // The last periodic snapshot committed the WAL; the records
            // after it are still in the buffer when the tenant dies.
            t.durable_seq()
        };
        assert!(cut > 0 && cut < 230, "cut {cut}");
        let (mut t, report) = Tenant::open("t", &d, &m, cfg()).unwrap();
        assert!(report.snapshot_used);
        assert_eq!(report.replayed, 0, "the snapshot covers the whole file");
        assert_eq!(t.durable_seq(), cut);
        // Re-feeding from the top dedupes the committed prefix and
        // re-applies the rest.
        for seq in 1..=cut {
            assert_eq!(
                t.apply(seq, Event::Arrival { class: 0 }, false).unwrap(),
                Outcome::Duplicate
            );
        }
        feed(&mut t, cut, 500 - cut);
        t.commit().unwrap();
        golden.commit().unwrap();
        assert_eq!(t.engine().export_state(), golden.engine().export_state());
        assert_eq!(t.counters().rejected, golden.counters().rejected);
        assert_eq!(t.counters().skewed, golden.counters().skewed);
        assert_eq!(
            std::fs::read(Tenant::wal_path(&d, "t")).unwrap(),
            std::fs::read(Tenant::wal_path(&golden_dir, "t")).unwrap()
        );
    }

    #[test]
    fn full_wal_replay_when_snapshot_is_corrupt() {
        let d = dir("corrupt_snap");
        let m = model();
        {
            let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
            feed(&mut t, 0, 100);
            t.shutdown().unwrap();
        }
        // Corrupt the snapshot: recovery must fall back to the WAL.
        let snap_path = Tenant::snapshot_path(&d, "t");
        let mut bytes = std::fs::read(&snap_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap_path, &bytes).unwrap();
        let (t, report) = Tenant::open("t", &d, &m, cfg()).unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(report.replayed, 100, "every WAL record replays");
        assert_eq!(t.durable_seq(), 100);
        assert_eq!(t.engine().stats().events, t.engine().stats().events);
        // Accounting invariant still holds.
        let s = t.engine().stats();
        assert_eq!(
            t.offers(),
            s.admitted() + s.denied_capacity() + s.denied_policy() + t.counters().shed
        );
    }

    #[test]
    fn snapshot_from_a_different_model_is_ignored() {
        let d = dir("model_change");
        let m = model();
        {
            let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
            feed(&mut t, 0, 60);
            t.shutdown().unwrap();
        }
        // Same WAL, different model: the snapshot fingerprint mismatches,
        // and the WAL replays into the *new* model's engine.
        let m2 = Model::new(
            Dims::square(6),
            Workload::new()
                .with(TrafficClass::poisson(0.9))
                .with(TrafficClass::bpp(0.5, 0.1, 1.0).with_bandwidth(2)),
        )
        .unwrap();
        let (t, report) = Tenant::open("t", &d, &m2, cfg()).unwrap();
        assert!(!report.snapshot_used);
        assert_eq!(report.replayed, 60);
        assert_eq!(t.durable_seq(), 60);
    }

    #[test]
    fn consecutive_invalid_events_quarantine_and_stay_durable() {
        let d = dir("quarantine");
        let m = model();
        let mut c = cfg();
        c.max_failures = 3;
        let (mut t, _) = Tenant::open("t", &d, &m, c.clone()).unwrap();
        // Departures with nothing in flight: semantic failures.
        assert_eq!(
            t.apply(1, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Rejected
        );
        assert_eq!(
            t.apply(2, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Rejected
        );
        assert_eq!(
            t.apply(3, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Quarantined
        );
        assert!(t.quarantined());
        // Quarantined: arrivals shed durably, departures rejected.
        assert_eq!(
            t.apply(4, Event::Arrival { class: 0 }, false).unwrap(),
            Outcome::Shed
        );
        assert_eq!(
            t.apply(5, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Rejected
        );
        assert_eq!(t.counters().shed, 1);
        assert_eq!(t.counters().rejected, 4);
        // Quarantine survives a restart (it was snapshotted), and the
        // committed records after it replay.
        t.commit().unwrap();
        drop(t);
        let (t, _) = Tenant::open("t", &d, &m, c).unwrap();
        assert!(t.quarantined(), "quarantine is durable");
        assert_eq!(t.counters().shed, 1);
        assert_eq!(t.counters().rejected, 4);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let d = dir("streak");
        let m = model();
        let mut c = cfg();
        c.max_failures = 3;
        let (mut t, _) = Tenant::open("t", &d, &m, c).unwrap();
        for round in 0..5u64 {
            let base = round * 3;
            t.apply(base + 1, Event::Departure { class: 0 }, false)
                .unwrap();
            t.apply(base + 2, Event::Departure { class: 0 }, false)
                .unwrap();
            // A valid arrival resets the streak before it reaches 3.
            assert_eq!(
                t.apply(base + 3, Event::Arrival { class: 0 }, false)
                    .unwrap(),
                Outcome::Admitted
            );
        }
        assert!(!t.quarantined());
    }

    #[test]
    fn zero_deadline_forces_the_stale_anchor_path() {
        let d = dir("stale");
        let m = model();
        let mut c = cfg();
        c.check_interval = 1; // check after every event
        c.reanchor_deadline = Some(Duration::ZERO);
        let (mut t, _) = Tenant::open("t", &d, &m, c).unwrap();
        // Poison the incremental weight so the drift check trips, via the
        // restore path (the supported way to inject state).
        t.apply(1, Event::Arrival { class: 0 }, false).unwrap();
        let mut st = t.engine.export_state();
        st.log_weight += 1.0; // definite drift
        t.engine.restore_state(&st).unwrap();
        t.apply(2, Event::Arrival { class: 0 }, false).unwrap();
        assert!(t.anchor_stale(), "deadline ZERO must take the stale path");
        assert_eq!(t.counters().stale_reanchors, 1);
        // The weight itself was corrected exactly.
        assert_eq!(
            t.engine().log_weight().to_bits(),
            t.engine().exact_log_weight().to_bits()
        );
        // With no deadline, the same drift does a full re-anchor and
        // clears the stale flag.
        let mut st = t.engine.export_state();
        st.log_weight += 1.0;
        t.engine.restore_state(&st).unwrap();
        t.cfg.reanchor_deadline = None;
        t.apply(3, Event::Arrival { class: 0 }, false).unwrap();
        assert!(!t.anchor_stale());
        assert_eq!(t.engine().stats().re_anchors, 1);
    }

    #[test]
    fn stale_reprices_absorb_the_event_and_route_a_coalesced_reanchor() {
        let d = dir("stale_reprice");
        let m = model();
        let mut c = cfg();
        c.policy = PolicySpec::ShadowPrice { reserve: 1 };
        c.reprice_batch = Some(1);
        c.reanchor_deadline = Some(Duration::ZERO); // every reprice refuses
        c.coalesce_reanchors = true;
        let (mut t, _) = Tenant::open("t", &d, &m, c).unwrap();
        // The refusal happens after the event landed: outcome, engine
        // state, and the WAL all reflect the absorbed arrival.
        assert_eq!(
            t.apply(1, Event::Arrival { class: 0 }, false).unwrap(),
            Outcome::Admitted
        );
        assert_eq!(t.counters().stale_reprices, 1);
        assert_eq!(t.counters().rejected, 0, "not an integrity failure");
        assert!(!t.quarantined());
        assert_eq!(t.engine().stats().offered(), 1);
        assert_eq!(t.engine().state(), &[1, 0]);
        assert_eq!(t.durable_seq(), 0, "the record is still buffered");
        t.commit().unwrap();
        assert_eq!(t.durable_seq(), 1);
        // The refusal routed a re-anchor through the coalesced path; the
        // zero budget then takes the stale-anchor ladder.
        assert!(t.reanchor_pending());
        t.complete_pending_reanchor().unwrap();
        assert_eq!(t.counters().stale_reanchors, 1);
        // Departures reconstruct their outcome the same way.
        assert_eq!(
            t.apply(2, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Departed
        );
        assert_eq!(t.counters().stale_reprices, 2);
        assert_eq!(t.engine().stats().departures, 1);
        // Replay counts refusals identically: reopen and compare.
        t.commit().unwrap();
        drop(t);
        let mut c2 = cfg();
        c2.policy = PolicySpec::ShadowPrice { reserve: 1 };
        c2.reprice_batch = Some(1);
        c2.reanchor_deadline = Some(Duration::ZERO);
        c2.coalesce_reanchors = true;
        let (t2, report) = Tenant::open("t", &d, &m, c2).unwrap();
        assert!(!report.snapshot_used, "no snapshot was due yet");
        assert_eq!(t2.counters().stale_reprices, 2);
        assert_eq!(t2.engine().stats().reprice_batches, 2);
    }

    #[test]
    fn resume_deduplicates_the_durable_prefix_after_reopen() {
        let d = dir("dedupe");
        let m = model();
        {
            let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
            for seq in 1..=5 {
                t.apply(seq, Event::Arrival { class: 0 }, false).unwrap();
            }
            t.commit().unwrap();
            // crash: no shutdown
        }
        let (mut t, _) = Tenant::open("t", &d, &m, cfg()).unwrap();
        assert_eq!(t.resume_seq(), 5);
        // A resumed tailer re-feeds from the top: the durable prefix
        // deduplicates, fresh events apply.
        for seq in 1..=5 {
            assert_eq!(
                t.apply(seq, Event::Arrival { class: 0 }, false).unwrap(),
                Outcome::Duplicate
            );
        }
        assert_eq!(
            t.apply(6, Event::Departure { class: 0 }, false).unwrap(),
            Outcome::Departed
        );
        assert_eq!(t.engine().stats().offered(), 5);
    }
}
