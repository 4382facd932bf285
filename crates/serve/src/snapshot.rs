//! Durable tenant snapshots.
//!
//! A snapshot captures everything a [`crate::tenant::Tenant`] accumulates
//! at runtime — the engine's [`EngineState`] (occupancy vector, bit-exact
//! log-weight, decision counters), the serve-level counters, the highest
//! durable sequence number, and the quarantine flag — so recovery can
//! restore it and replay only the WAL records past `seq` instead of the
//! whole file.
//!
//! Snapshots are strictly an **optimization**. The loader returns `None`
//! (degrade to full WAL replay) rather than an error whenever anything is
//! off: bad magic, unknown version, short file, CRC mismatch, or a model
//! fingerprint that doesn't match the serving model (the operator changed
//! the model between runs — the old engine state is meaningless for it).
//! Only genuine I/O failures surface as errors.
//!
//! # Format
//!
//! ```text
//! [magic "XSNP"] [version u32 LE] [body_len u32 LE] [crc32 u32 LE] [body]
//! ```
//!
//! The body is a fixed-order little-endian field list (see `encode_body`);
//! floats travel as IEEE-754 bit patterns so the restored log-weight is
//! bit-exact. Writes go through a temp file + atomic rename, so a crash
//! mid-snapshot leaves the previous snapshot intact.

use std::io::Write;
use std::path::Path;

use xbar_admission::{ClassStats, EngineState, EngineStats, PolicySpec};
use xbar_core::{Algorithm, Model};

use crate::tenant::ServeCounters;
use crate::wal::crc32;
use crate::ServeError;

/// File magic.
pub const MAGIC: &[u8; 4] = b"XSNP";
/// Snapshot codec version. Version 2 added the engine's pricing state
/// (threshold vector, repricing batch offset, reprice counters) and the
/// serve-level stale-reprice counter; version-1 snapshots decode to
/// `None` and recovery degrades to a full WAL replay — which rebuilds
/// exactly that pricing state, so an upgrade is lossless, just slower
/// on its first start.
pub const VERSION: u32 = 2;

/// FNV-1a 64-bit hash of everything that determines engine behaviour:
/// switch geometry, every class's parameter bits, the policy, and the
/// anchor algorithm. A snapshot taken under one fingerprint is only
/// restored into an engine with the same fingerprint.
pub fn model_fingerprint(model: &Model, policy: &PolicySpec, algorithm: Algorithm) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let dims = model.dims();
    eat(&dims.n1.to_le_bytes());
    eat(&dims.n2.to_le_bytes());
    let classes = model.workload().classes();
    eat(&(classes.len() as u32).to_le_bytes());
    for c in classes {
        eat(&c.alpha.to_bits().to_le_bytes());
        eat(&c.beta.to_bits().to_le_bytes());
        eat(&c.mu.to_bits().to_le_bytes());
        eat(&c.bandwidth.to_le_bytes());
        eat(&c.weight.to_bits().to_le_bytes());
    }
    // Policies and algorithms are small closed enums; their Debug forms
    // are stable within a build and capture every parameter.
    eat(format!("{policy:?}").as_bytes());
    eat(format!("{algorithm:?}").as_bytes());
    h
}

/// A decoded tenant snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantSnapshot {
    /// Highest sequence number durably absorbed when the snapshot was
    /// taken — the crash-resume dedupe watermark.
    pub seq: u64,
    /// WAL records on disk when the snapshot was taken — recovery
    /// replays by *file position* (records past this count), because
    /// durable appends are not in sequence order: an overflow shed for a
    /// late event is written before earlier queued events are applied.
    pub wal_records: u64,
    /// [`model_fingerprint`] of the model/policy/algorithm that produced
    /// the state.
    pub model_fp: u64,
    /// The engine's runtime state (restored bit-exactly).
    pub engine: EngineState,
    /// Serve-level counters (shed, rejected, skew, restarts, ...).
    pub counters: ServeCounters,
    /// Whether the tenant was quarantined.
    pub quarantined: bool,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.at..self.at + n)?;
        self.at += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn f64_bits(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }
}

fn encode_body(snap: &TenantSnapshot) -> Vec<u8> {
    let mut b = Vec::with_capacity(256);
    b.extend_from_slice(&snap.seq.to_le_bytes());
    b.extend_from_slice(&snap.wal_records.to_le_bytes());
    b.extend_from_slice(&snap.model_fp.to_le_bytes());
    // Engine state: k, log-weight bits, whole-engine stats, per-class stats.
    b.extend_from_slice(&(snap.engine.k.len() as u32).to_le_bytes());
    for &k in &snap.engine.k {
        b.extend_from_slice(&k.to_le_bytes());
    }
    b.extend_from_slice(&(snap.engine.thresholds.len() as u32).to_le_bytes());
    for &t in &snap.engine.thresholds {
        b.extend_from_slice(&t.to_le_bytes());
    }
    b.extend_from_slice(&snap.engine.log_weight.to_bits().to_le_bytes());
    b.extend_from_slice(&snap.engine.reprice_events.to_le_bytes());
    let s = &snap.engine.stats;
    for v in [
        s.events,
        s.departures,
        s.re_anchors,
        s.snap_backs,
        s.re_anchor_failures,
        s.reprice_batches,
        s.reprice_updates,
    ] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b.extend_from_slice(&(s.per_class.len() as u32).to_le_bytes());
    for c in &s.per_class {
        for v in [c.offered, c.admitted, c.denied_capacity, c.denied_policy] {
            b.extend_from_slice(&v.to_le_bytes());
        }
    }
    let c = &snap.counters;
    for v in [
        c.shed,
        c.rejected,
        c.skewed,
        c.restarts,
        c.stale_reanchors,
        c.stale_reprices,
        c.snapshots,
    ] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b.push(u8::from(snap.quarantined));
    b
}

fn decode_body(body: &[u8]) -> Option<TenantSnapshot> {
    let mut c = Cursor { bytes: body, at: 0 };
    let seq = c.u64()?;
    let wal_records = c.u64()?;
    let model_fp = c.u64()?;
    let k_len = c.u32()? as usize;
    // A length field large enough to overrun the body is corruption, not a
    // huge model.
    if k_len > body.len() {
        return None;
    }
    let mut k = Vec::with_capacity(k_len);
    for _ in 0..k_len {
        k.push(c.u32()?);
    }
    let t_len = c.u32()? as usize;
    if t_len > body.len() {
        return None;
    }
    let mut thresholds = Vec::with_capacity(t_len);
    for _ in 0..t_len {
        thresholds.push(c.u32()?);
    }
    let log_weight = c.f64_bits()?;
    let reprice_events = c.u64()?;
    let mut stats = EngineStats {
        events: c.u64()?,
        departures: c.u64()?,
        re_anchors: c.u64()?,
        snap_backs: c.u64()?,
        re_anchor_failures: c.u64()?,
        reprice_batches: c.u64()?,
        reprice_updates: c.u64()?,
        per_class: Vec::new(),
    };
    let pc_len = c.u32()? as usize;
    if pc_len > body.len() {
        return None;
    }
    for _ in 0..pc_len {
        stats.per_class.push(ClassStats {
            offered: c.u64()?,
            admitted: c.u64()?,
            denied_capacity: c.u64()?,
            denied_policy: c.u64()?,
        });
    }
    let counters = ServeCounters {
        shed: c.u64()?,
        rejected: c.u64()?,
        skewed: c.u64()?,
        restarts: c.u64()?,
        stale_reanchors: c.u64()?,
        stale_reprices: c.u64()?,
        snapshots: c.u64()?,
    };
    let quarantined = match c.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    if c.at != body.len() {
        return None; // trailing garbage
    }
    Some(TenantSnapshot {
        seq,
        wal_records,
        model_fp,
        engine: EngineState {
            k,
            log_weight,
            thresholds,
            reprice_events,
            stats,
        },
        counters,
        quarantined,
    })
}

/// Encode a snapshot to its full on-disk byte form (header + body).
pub fn encode(snap: &TenantSnapshot) -> Vec<u8> {
    let body = encode_body(snap);
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode on-disk bytes; `None` means "unusable — fall back to full WAL
/// replay" (any framing, CRC, version, or body-shape violation).
pub fn decode(bytes: &[u8]) -> Option<TenantSnapshot> {
    if bytes.len() < 16 || &bytes[0..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    if version != VERSION {
        return None;
    }
    let body_len = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().ok()?);
    let body = bytes.get(16..16 + body_len)?;
    if bytes.len() != 16 + body_len || crc32(body) != crc {
        return None;
    }
    decode_body(body)
}

/// Write a snapshot atomically: temp file in the same directory, flush,
/// rename over `path`, then sync the directory so the rename itself is
/// on stable storage. A crash at any point leaves either the old
/// snapshot or the new one, never a torn file, and once `write` returns
/// a machine crash cannot bring the old one back.
pub fn write(path: &Path, snap: &TenantSnapshot) -> Result<(), ServeError> {
    let bytes = encode(snap);
    let tmp = path.with_extension("snap.tmp");
    {
        let mut f = std::fs::File::create(&tmp).map_err(|e| ServeError::io(&tmp, &e))?;
        f.write_all(&bytes).map_err(|e| ServeError::io(&tmp, &e))?;
        f.sync_data().map_err(|e| ServeError::io(&tmp, &e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| ServeError::io(path, &e))?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| ServeError::io(dir, &e))
}

/// Load a snapshot; `Ok(None)` when the file is missing or unusable
/// (recovery then replays the full WAL).
pub fn load(path: &Path) -> Result<Option<TenantSnapshot>, ServeError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(ServeError::io(path, &e)),
    };
    Ok(decode(&bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TenantSnapshot {
        TenantSnapshot {
            seq: 12345,
            wal_records: 140,
            model_fp: 0xDEAD_BEEF_CAFE_F00D,
            engine: EngineState {
                k: vec![3, 0, 7],
                log_weight: -12.625_f64,
                thresholds: vec![0, 2, 1],
                reprice_events: 17,
                stats: EngineStats {
                    events: 100,
                    departures: 40,
                    re_anchors: 2,
                    snap_backs: 1,
                    re_anchor_failures: 0,
                    reprice_batches: 12,
                    reprice_updates: 3,
                    per_class: vec![
                        ClassStats {
                            offered: 30,
                            admitted: 20,
                            denied_capacity: 6,
                            denied_policy: 4,
                        },
                        ClassStats::default(),
                        ClassStats {
                            offered: 30,
                            admitted: 30,
                            denied_capacity: 0,
                            denied_policy: 0,
                        },
                    ],
                },
            },
            counters: ServeCounters {
                shed: 5,
                rejected: 2,
                skewed: 1,
                restarts: 1,
                stale_reanchors: 3,
                stale_reprices: 4,
                snapshots: 9,
            },
            quarantined: false,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        assert_eq!(decode(&encode(&snap)), Some(snap));
    }

    #[test]
    fn log_weight_round_trips_bit_exactly_including_specials() {
        for w in [0.0, -0.0, f64::NAN, f64::INFINITY, 1e-300, -1.0 / 3.0] {
            let mut snap = sample();
            snap.engine.log_weight = w;
            let back = decode(&encode(&snap)).unwrap();
            assert_eq!(back.engine.log_weight.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn corruption_degrades_to_none_never_panics() {
        let bytes = encode(&sample());
        // Every single-byte flip must be caught (magic, version, length,
        // CRC, or body hash).
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x5A;
            assert_eq!(decode(&bad), None, "flip at byte {i} went undetected");
        }
        // Every truncation too.
        for n in 0..bytes.len() {
            assert_eq!(decode(&bytes[..n]), None, "truncation to {n} bytes");
        }
        // Trailing garbage as well.
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(decode(&long), None);
    }

    #[test]
    fn older_codec_versions_degrade_to_full_replay() {
        // A pre-repricing (version-1) snapshot must decode to `None`, not
        // mis-read: its body lacks the pricing state, so recovery falls
        // back to the WAL, which rebuilds exactly that state.
        let mut bytes = encode(&sample());
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(decode(&bytes), None);
    }

    #[test]
    fn atomic_write_and_load() {
        let dir = std::env::temp_dir().join(format!("xbar_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.snap");
        assert_eq!(load(&path).unwrap(), None);
        let snap = sample();
        write(&path, &snap).unwrap();
        assert_eq!(load(&path).unwrap(), Some(snap.clone()));
        // Overwrite with a newer snapshot.
        let mut newer = snap;
        newer.seq = 99999;
        write(&path, &newer).unwrap();
        assert_eq!(load(&path).unwrap().unwrap().seq, 99999);
    }

    #[test]
    fn fingerprint_separates_models_policies_and_algorithms() {
        use xbar_core::{Dims, Model};
        use xbar_traffic::{TrafficClass, Workload};
        let m1 = Model::new(
            Dims::square(8),
            Workload::new().with(TrafficClass::poisson(0.5)),
        )
        .unwrap();
        let m2 = Model::new(
            Dims::square(8),
            Workload::new().with(TrafficClass::poisson(0.6)),
        )
        .unwrap();
        let m3 = Model::new(
            Dims::new(8, 9),
            Workload::new().with(TrafficClass::poisson(0.5)),
        )
        .unwrap();
        let cs = PolicySpec::CompleteSharing;
        let tr = PolicySpec::TrunkReservation(vec![1]);
        let a = Algorithm::Mva;
        let fp = model_fingerprint(&m1, &cs, a);
        assert_eq!(fp, model_fingerprint(&m1, &cs, a), "deterministic");
        assert_ne!(fp, model_fingerprint(&m2, &cs, a), "rho differs");
        assert_ne!(fp, model_fingerprint(&m3, &cs, a), "dims differ");
        assert_ne!(fp, model_fingerprint(&m1, &tr, a), "policy differs");
    }
}
