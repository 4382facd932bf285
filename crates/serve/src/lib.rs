#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! `xbar-serve`: a fault-tolerant multi-tenant admission daemon.
//!
//! The [`xbar_admission::AdmissionEngine`] answers admit/deny in `O(R)`
//! per event — but a process that *runs* one is a different artifact from
//! the engine itself. This crate wraps one engine per tenant in the four
//! layers a production admission controller needs:
//!
//! 1. **Durability** ([`wal`], [`snapshot`]) — every event that durably
//!    happened to a tenant (applied, shed, or rejected) lands in an
//!    append-only CRC-framed WAL, written 256 frames at a time and at
//!    every commit point (the source going idle, a socket's `!ack`, a
//!    snapshot, shutdown); periodic snapshots capture the engine's
//!    exact runtime state (occupancy vector, bit-exact log-weight,
//!    counters) so a `kill -9` recovers to byte-identical accounting by
//!    restoring the snapshot and replaying the WAL suffix. The WAL is the
//!    source of truth: a corrupt or stale snapshot degrades to a full
//!    replay, never to data loss.
//! 2. **Supervision** ([`tenant`]) — semantically invalid events
//!    (unknown class, departure with nothing in progress) are rejected
//!    durably; after `max_failures` consecutive rejections the tenant is
//!    **quarantined**: arrivals shed durably, departures rejected, the
//!    rest of the fleet unaffected. The engine's pricing is computed once
//!    when a tenant opens and a drift re-anchor cannot fail, so there is
//!    no engine failure to restart from.
//! 3. **Graceful degradation** ([`daemon`]) — per-tenant ingest queues
//!    are bounded; overflow is *load-shed with a durable record* (so the
//!    exit-6 accounting invariant `offers = admitted + denied(capacity) +
//!    denied(policy) + shed` holds exactly across crashes), and drift
//!    re-anchors that blow a configured deadline fall back to correcting
//!    the weight against the **stale anchor** (tracked by the
//!    `serve.anchor_stale` gauge) instead of stalling the event loop.
//! 4. **Deterministic chaos** ([`chaos`]) — seeded fault plans (kill
//!    points, WAL truncation/corruption, malformed lines, clock-skewed
//!    batches, port-failure bursts reusing the simulator's fault layer)
//!    drive the `tests/chaos.rs` battery, which asserts bounded loss and
//!    exact post-recovery accounting.
//!
//! The binary entry point is `xbar serve` (see `crates/xbar`); this crate
//! holds everything testable in-process.

pub mod chaos;
pub mod daemon;
pub mod runtime;
pub mod snapshot;
pub mod tenant;
pub mod wal;

pub use daemon::{Daemon, DaemonConfig, DaemonCounters, ParsedEvent, ParsedLine};
pub use runtime::{run_source, Source};
pub use snapshot::{model_fingerprint, TenantSnapshot};
pub use tenant::{Outcome, RecoveryReport, ServeCounters, Tenant, TenantConfig};
pub use wal::{RecordKind, Wal, WalRecord, WalRecovery};

use std::path::Path;

use xbar_admission::AdmissionError;

/// A typed `xbar-serve` failure.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error, rendered.
        detail: String,
    },
    /// The admission engine failed in a way supervision could not absorb
    /// (construction failure, or quarantine-threshold integrity errors).
    Admission(AdmissionError),
    /// A configuration problem (bad policy spec, bad model, bad option).
    Config(String),
    /// Durable state failed validation beyond what recovery tolerates.
    Corrupt {
        /// The file involved.
        path: String,
        /// What was wrong.
        detail: String,
    },
}

impl ServeError {
    /// Wrap an I/O error with the path it happened on.
    pub fn io(path: &Path, err: &std::io::Error) -> Self {
        ServeError::Io {
            path: path.display().to_string(),
            detail: err.to_string(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io { path, detail } => write!(f, "i/o error on {path}: {detail}"),
            ServeError::Admission(e) => write!(f, "admission engine: {e}"),
            ServeError::Config(msg) => write!(f, "configuration: {msg}"),
            ServeError::Corrupt { path, detail } => write!(f, "corrupt state in {path}: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<AdmissionError> for ServeError {
    fn from(e: AdmissionError) -> Self {
        ServeError::Admission(e)
    }
}
