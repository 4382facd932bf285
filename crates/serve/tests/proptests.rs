//! Property battery for the durable codecs: WAL frames and tenant
//! snapshots must round-trip arbitrary states exactly, and *any*
//! truncation or byte corruption must degrade to a clean prefix (WAL) or
//! a clean rejection (snapshot) — never a panic, never a silently wrong
//! record.

use proptest::prelude::*;
use xbar_admission::{ClassStats, EngineState, EngineStats};
use xbar_serve::snapshot::{self, TenantSnapshot};
use xbar_serve::wal::{self, RecordKind, Wal, WalRecord};
use xbar_serve::ServeCounters;

fn tmp_wal(tag: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xbar_prop_wal_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir.join(format!("{tag}.wal"))
}

fn kind_from(i: u8) -> RecordKind {
    match i % 4 {
        0 => RecordKind::Arrival,
        1 => RecordKind::Departure,
        2 => RecordKind::Shed,
        _ => RecordKind::Rejected,
    }
}

fn record_strategy() -> impl Strategy<Value = WalRecord> {
    (0u64..u64::MAX, 0u8..4, 0u16..u16::MAX, proptest::bool::ANY).prop_map(
        |(seq, kind, class, skewed)| WalRecord {
            seq,
            kind: kind_from(kind),
            class,
            skewed,
        },
    )
}

fn engine_state_strategy() -> impl Strategy<Value = EngineState> {
    use proptest::num::f64::{INFINITE, NORMAL, QUIET_NAN, SUBNORMAL, ZERO};
    (
        proptest::collection::vec(0u32..64, 1..6),
        NORMAL | ZERO | SUBNORMAL | INFINITE | QUIET_NAN,
        0u64..1 << 40,
    )
        .prop_map(|(k, log_weight, events)| {
            let per_class = k
                .iter()
                .enumerate()
                .map(|(i, &ki)| ClassStats {
                    offered: events / 2 + i as u64,
                    admitted: ki as u64,
                    denied_capacity: events / 3,
                    denied_policy: i as u64 * 7,
                })
                .collect();
            let thresholds = k.iter().map(|&ki| ki % 5).collect();
            EngineState {
                k,
                log_weight,
                thresholds,
                reprice_events: events % 23,
                stats: EngineStats {
                    events,
                    departures: events / 4,
                    re_anchors: events % 17,
                    snap_backs: events % 3,
                    re_anchor_failures: events % 2,
                    reprice_batches: events % 13,
                    reprice_updates: events % 7,
                    per_class,
                },
            }
        })
}

fn snapshot_strategy() -> impl Strategy<Value = TenantSnapshot> {
    (
        0u64..u64::MAX,
        0u64..1 << 30,
        0u64..u64::MAX,
        engine_state_strategy(),
        proptest::collection::vec(0u64..1 << 40, 7),
        proptest::bool::ANY,
    )
        .prop_map(
            |(seq, wal_records, model_fp, engine, c, quarantined)| TenantSnapshot {
                seq,
                wal_records,
                model_fp,
                engine,
                counters: ServeCounters {
                    shed: c[0],
                    rejected: c[1],
                    skewed: c[2],
                    restarts: c[3],
                    stale_reanchors: c[4],
                    stale_reprices: c[5],
                    snapshots: c[6],
                },
                quarantined,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary record lists round-trip through append + recover, across
    /// a reopen.
    #[test]
    fn wal_round_trips_arbitrary_records(
        recs in proptest::collection::vec(record_strategy(), 0..80),
        tag in 0u64..1 << 32,
    ) {
        let path = tmp_wal(tag);
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, rec0) = Wal::open(&path, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert!(rec0.records.is_empty());
            for r in &recs {
                w.append(r).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            w.commit().map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(w.records(), recs.len() as u64);
        }
        let (_, recovery) = Wal::open(&path, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&recovery.records, &recs);
        prop_assert!(!recovery.damaged);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncating a WAL byte stream anywhere recovers a clean prefix of
    /// the original records: never a panic, never a mangled record, and
    /// `damaged` is set exactly when bytes were left over.
    #[test]
    fn wal_truncation_recovers_a_clean_prefix(
        recs in proptest::collection::vec(record_strategy(), 1..40),
        cut_frac in 0.0f64..1.0,
        tag in 0u64..1 << 32,
    ) {
        let path = tmp_wal(0x1_0000_0000 + tag);
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Wal::open(&path, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
            for r in &recs {
                w.append(r).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            w.commit().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let bytes = std::fs::read(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let recovery = wal::recover(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(recovery.records.len() <= recs.len());
        prop_assert_eq!(&recovery.records[..], &recs[..recovery.records.len()]);
        prop_assert_eq!(recovery.damaged, (recovery.valid_bytes as usize) < cut);
        // And Wal::open repairs in place (its own recovery still reports
        // the pre-repair damage): the scan *after* it is clean.
        let (_, reopened) = Wal::open(&path, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(reopened.damaged, recovery.damaged);
        let rescanned = wal::recover(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(!rescanned.damaged);
        prop_assert_eq!(&rescanned.records[..], &recs[..recovery.records.len()]);
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping any single byte recovers a clean (possibly shorter)
    /// prefix — the CRC catches every single-byte corruption before a
    /// wrong record can be produced.
    #[test]
    fn wal_single_byte_corruption_never_yields_a_wrong_record(
        recs in proptest::collection::vec(record_strategy(), 1..30),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        tag in 0u64..1 << 32,
    ) {
        let path = tmp_wal(0x2_0000_0000 + tag);
        let _ = std::fs::remove_file(&path);
        {
            let (mut w, _) = Wal::open(&path, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
            for r in &recs {
                w.append(r).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            w.commit().map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        let mut bytes = std::fs::read(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let recovery = wal::recover(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(recovery.records.len() <= recs.len());
        prop_assert_eq!(&recovery.records[..], &recs[..recovery.records.len()]);
        // The corrupted frame itself can never survive.
        let frame = pos / (8 + 12);
        prop_assert!(recovery.records.len() <= frame, "corrupt frame {frame} survived");
        let _ = std::fs::remove_file(&path);
    }

    /// Snapshots round-trip arbitrary states exactly (log-weight compared
    /// by bit pattern: NaN and signed zero must survive).
    #[test]
    fn snapshot_round_trips_arbitrary_states(snap in snapshot_strategy()) {
        let bytes = snapshot::encode(&snap);
        let back = snapshot::decode(&bytes);
        prop_assert!(back.is_some());
        let back = match back { Some(b) => b, None => unreachable!() };
        prop_assert_eq!(
            back.engine.log_weight.to_bits(),
            snap.engine.log_weight.to_bits()
        );
        prop_assert_eq!(back.engine.k, snap.engine.k.clone());
        prop_assert_eq!(back.engine.thresholds, snap.engine.thresholds.clone());
        prop_assert_eq!(back.engine.reprice_events, snap.engine.reprice_events);
        prop_assert_eq!(back.engine.stats, snap.engine.stats.clone());
        prop_assert_eq!(back.counters, snap.counters);
        prop_assert_eq!(back.seq, snap.seq);
        prop_assert_eq!(back.wal_records, snap.wal_records);
        prop_assert_eq!(back.quarantined, snap.quarantined);
    }

    /// Any truncation or single-byte flip of an encoded snapshot decodes
    /// to `None` (degrade to full WAL replay) — never a panic, never a
    /// silently different state.
    #[test]
    fn snapshot_corruption_is_always_rejected(
        snap in snapshot_strategy(),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = snapshot::encode(&snap);
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        let mut flipped = bytes.clone();
        flipped[pos] ^= flip;
        prop_assert_eq!(snapshot::decode(&flipped), None);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert_eq!(snapshot::decode(&bytes[..cut]), None);
        }
    }

    /// Arbitrary bytes never panic the WAL scan: the valid prefix is a
    /// whole number of 20-byte frames inside the file, and `damaged` is
    /// set exactly when bytes follow it. The leading frames carry correct
    /// lengths and CRCs over payloads with possibly invalid kind and flag
    /// bytes, so the scan reaches the payload decoder, not only the
    /// header checks.
    #[test]
    fn wal_recover_never_panics_on_arbitrary_bytes(
        frames in proptest::collection::vec((0u64..u64::MAX, 0u8..6, 0u8..3, 0u16..u16::MAX), 0..6),
        tail in proptest::collection::vec(0u8..=255, 0..64),
        tag in 0u64..1 << 32,
    ) {
        let mut bytes = Vec::new();
        for &(seq, kind, flags, class) in &frames {
            let mut payload = seq.to_le_bytes().to_vec();
            payload.extend_from_slice(&[kind, flags]);
            payload.extend_from_slice(&class.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&wal::crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        bytes.extend_from_slice(&tail);
        let path = tmp_wal(0x3_0000_0000 + tag);
        std::fs::write(&path, &bytes).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let recovery = wal::recover(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let len = bytes.len() as u64;
        prop_assert_eq!(recovery.valid_bytes % 20, 0);
        prop_assert!(recovery.valid_bytes <= len);
        prop_assert_eq!(recovery.records.len() as u64 * 20, recovery.valid_bytes);
        prop_assert_eq!(recovery.damaged, recovery.valid_bytes < len);
        let _ = std::fs::remove_file(&path);
    }

    /// Arbitrary bytes never panic the snapshot decoder, with or without
    /// a well-formed header (magic, version, length and CRC over an
    /// arbitrary body). Anything it accepts re-encodes to the same bytes.
    #[test]
    fn snapshot_decode_never_panics_on_arbitrary_bytes(
        body in proptest::collection::vec(0u8..=255, 0..256),
        framed in proptest::bool::ANY,
    ) {
        let bytes = if framed {
            let mut b = snapshot::MAGIC.to_vec();
            b.extend_from_slice(&snapshot::VERSION.to_le_bytes());
            b.extend_from_slice(&(body.len() as u32).to_le_bytes());
            b.extend_from_slice(&wal::crc32(&body).to_le_bytes());
            b.extend_from_slice(&body);
            b
        } else {
            body
        };
        if let Some(snap) = snapshot::decode(&bytes) {
            prop_assert_eq!(snapshot::encode(&snap), bytes);
        }
    }
}
