//! The append-only event WAL.
//!
//! One WAL file per tenant records every event that *durably happened* to
//! that tenant — applied arrivals and departures, load-shed arrivals, and
//! rejected (semantically invalid) events — as CRC-framed fixed-layout
//! records. The WAL, not the snapshot, is the source of truth: a snapshot
//! only accelerates recovery by letting replay start mid-file, and a
//! corrupt or missing snapshot degrades to a full-WAL replay with no data
//! loss.
//!
//! # Frame format
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes]
//! payload = seq: u64 LE | kind: u8 | flags: u8 | class: u16 LE
//! ```
//!
//! `crc32` is IEEE CRC-32 over the payload. A reader accepts frames until
//! the first violation — short header, implausible length, short payload,
//! or CRC mismatch — and reports the byte offset of the last good frame.
//! [`Wal::open`] then **repairs** the file by truncating it there, so a
//! `kill -9` mid-append (or a corrupted tail) costs at most the partially
//! written suffix: every complete frame before it survives.
//!
//! Records are written in *apply order*: the engine applies an event
//! first, then the WAL appends it. A crash between the two loses that one
//! in-flight event (it was never durable), never corrupts state, and can
//! never leave a poison record that re-fails on every recovery replay.
//!
//! # Group commit
//!
//! [`Wal::append`] encodes the frame into a buffer. The buffered frames
//! reach the OS in one `write_all` at three points: when the buffer holds
//! `GROUP_FRAMES` (256) frames, in [`Wal::sync`], and in [`Wal::commit`].
//! Between those points a process crash loses the buffered frames, at
//! most 255 of them, along with the in-flight event. Because the buffer
//! always goes out whole, the file stays a prefix of the appended
//! records, and a source that re-feeds from the top re-applies exactly
//! the lost suffix. There is deliberately no flush on drop: dropping a
//! WAL is how the tests model `kill -9`.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::ServeError;

/// What a WAL record says happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// An arrival was offered to the engine (decision re-derivable by
    /// replay: engine state is deterministic).
    Arrival,
    /// An admitted call completed.
    Departure,
    /// An arrival was load-shed (never reached the engine) — counted as a
    /// denied-for-overload offer so accounting stays exact across crashes.
    Shed,
    /// A semantically invalid event (departure with nothing in progress,
    /// unknown class) was rejected without touching the engine.
    Rejected,
}

impl RecordKind {
    fn to_byte(self) -> u8 {
        match self {
            RecordKind::Arrival => 0,
            RecordKind::Departure => 1,
            RecordKind::Shed => 2,
            RecordKind::Rejected => 3,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => RecordKind::Arrival,
            1 => RecordKind::Departure,
            2 => RecordKind::Shed,
            3 => RecordKind::Rejected,
            _ => return None,
        })
    }
}

/// One durable event record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// Global ingest sequence number (assigned by the daemon; strictly
    /// increasing within a tenant's stream).
    pub seq: u64,
    /// What happened.
    pub kind: RecordKind,
    /// Class index (0 for [`RecordKind::Rejected`] records whose class
    /// could not be parsed).
    pub class: u16,
    /// The event arrived in a clock-skewed batch (its timestamp ran
    /// backwards); recorded durably so the skew counter survives crashes.
    pub skewed: bool,
}

/// Payload bytes per record (fixed layout, see module docs).
const PAYLOAD_LEN: usize = 12;
/// Bytes per frame: the length and CRC header plus the payload.
const FRAME_LEN: usize = 8 + PAYLOAD_LEN;
/// Frames [`Wal::append`] buffers before it hands them to the OS in one
/// `write_all` (5,120 bytes).
const GROUP_FRAMES: usize = 256;
/// Sanity bound on the frame length field: a larger value means the
/// header itself is garbage (torn write), not a future format.
const MAX_FRAME: u32 = 1024;

/// IEEE CRC-32 (reflected, polynomial `0xEDB88320`), sliced by four:
/// each 4-byte word takes four independent table lookups, and the last
/// `len % 4` bytes one lookup each. WAL frames and snapshots are its only
/// callers, and this keeps the crate dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let [t0, t1, t2, t3] = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut words = bytes.chunks_exact(4);
    for w in &mut words {
        let x = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t3[(x & 0xFF) as usize]
            ^ t2[((x >> 8) & 0xFF) as usize]
            ^ t1[((x >> 16) & 0xFF) as usize]
            ^ t0[(x >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][i]` is the CRC register after shifting byte `i` through
/// eight rounds of the bitwise algorithm; `CRC_TABLES[k][i]` is that
/// register after `k` more zero bytes.
const CRC_TABLES: [[u32; 256]; 4] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 4] {
    let mut tables = [crc_table(); 4];
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

fn encode_payload(rec: &WalRecord) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..8].copy_from_slice(&rec.seq.to_le_bytes());
    p[8] = rec.kind.to_byte();
    p[9] = u8::from(rec.skewed);
    p[10..12].copy_from_slice(&rec.class.to_le_bytes());
    p
}

/// The whole frame of `rec`: length, CRC, payload.
fn encode_frame(rec: &WalRecord) -> [u8; FRAME_LEN] {
    let payload = encode_payload(rec);
    let mut f = [0u8; FRAME_LEN];
    f[0..4].copy_from_slice(&(PAYLOAD_LEN as u32).to_le_bytes());
    f[4..8].copy_from_slice(&crc32(&payload).to_le_bytes());
    f[8..].copy_from_slice(&payload);
    f
}

fn decode_payload(p: &[u8]) -> Option<WalRecord> {
    if p.len() != PAYLOAD_LEN {
        return None;
    }
    let seq = u64::from_le_bytes(p[0..8].try_into().ok()?);
    let kind = RecordKind::from_byte(p[8])?;
    let skewed = match p[9] {
        0 => false,
        1 => true,
        _ => return None,
    };
    let class = u16::from_le_bytes(p[10..12].try_into().ok()?);
    Some(WalRecord {
        seq,
        kind,
        class,
        skewed,
    })
}

/// Outcome of scanning a WAL file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Every record up to the first damaged frame, in file order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// `true` iff bytes past `valid_bytes` existed (truncated or corrupt
    /// tail that [`Wal::open`] chops off).
    pub damaged: bool,
}

/// Scan `path`, accepting frames until the first violation. A missing
/// file recovers as empty and undamaged.
pub fn recover(path: &Path) -> Result<WalRecovery, ServeError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalRecovery::default()),
        Err(e) => return Err(ServeError::io(path, &e)),
    };
    let mut out = WalRecovery::default();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        if len > MAX_FRAME || bytes.len() - at - 8 < len as usize {
            break;
        }
        let payload = &bytes[at + 8..at + 8 + len as usize];
        if crc32(payload) != crc {
            break;
        }
        let Some(rec) = decode_payload(payload) else {
            break;
        };
        out.records.push(rec);
        at += 8 + len as usize;
        out.valid_bytes = at as u64;
    }
    out.damaged = (at as u64) < bytes.len() as u64;
    Ok(out)
}

/// An open, append-only WAL.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    /// Encoded frames appended but not yet written to the file.
    buf: Vec<u8>,
    len: u64,
    records: u64,
    appends_since_sync: u64,
    /// `fsync` cadence: sync after every `sync_every` appends (0 = rely on
    /// the OS page cache; process crashes still keep every write, only
    /// whole-machine loss can drop the unsynced tail).
    sync_every: u64,
}

impl Wal {
    /// Recover `path` (truncating any damaged tail in place) and open it
    /// for appending. Returns the WAL plus what survived.
    pub fn open(path: &Path, sync_every: u64) -> Result<(Wal, WalRecovery), ServeError> {
        let recovery = recover(path)?;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)
            .map_err(|e| ServeError::io(path, &e))?;
        if recovery.damaged {
            // Repair: chop the torn tail so future scans are clean.
            file.set_len(recovery.valid_bytes)
                .map_err(|e| ServeError::io(path, &e))?;
        }
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                buf: Vec::with_capacity(GROUP_FRAMES * FRAME_LEN),
                len: recovery.valid_bytes,
                records: recovery.records.len() as u64,
                appends_since_sync: 0,
                sync_every,
            },
            recovery,
        ))
    }

    /// Append one record to the buffer. The buffer goes to the OS when it
    /// holds `GROUP_FRAMES` frames, or through the `sync` that
    /// `sync_every` calls for.
    pub fn append(&mut self, rec: &WalRecord) -> Result<(), ServeError> {
        self.buf.extend_from_slice(&encode_frame(rec));
        self.len += FRAME_LEN as u64;
        self.records += 1;
        self.appends_since_sync += 1;
        if self.sync_every > 0 && self.appends_since_sync >= self.sync_every {
            self.sync()
        } else if self.buf.len() >= GROUP_FRAMES * FRAME_LEN {
            self.commit()
        } else {
            Ok(())
        }
    }

    /// Hand every buffered frame to the OS in one `write_all`. When it
    /// returns, a process crash keeps every appended record.
    pub fn commit(&mut self) -> Result<(), ServeError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| ServeError::io(&self.path, &e))?;
        self.buf.clear();
        Ok(())
    }

    /// Commit the buffer, then force the file to stable storage.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.commit()?;
        self.appends_since_sync = 0;
        self.file
            .sync_data()
            .map_err(|e| ServeError::io(&self.path, &e))
    }

    /// Appended frames still in the buffer, not yet written to the file.
    pub fn unwritten(&self) -> usize {
        self.buf.len() / FRAME_LEN
    }

    /// Bytes of valid WAL appended: the file plus the buffer.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Records appended (recovered + appended, buffered ones included) —
    /// the position snapshots store so recovery replays by file position,
    /// not by sequence number (durable appends need not be in sequence
    /// order: overflow sheds for late events land before earlier queued
    /// events are applied). A snapshot is taken right after [`Wal::sync`],
    /// when every one of them is in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `true` iff no record has ever been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The file path this WAL appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-read the whole file, without the buffered frames (tests and
    /// audits; not on any hot path).
    pub fn read_all(&self) -> Result<Vec<u8>, ServeError> {
        let mut f = File::open(&self.path).map_err(|e| ServeError::io(&self.path, &e))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| ServeError::io(&self.path, &e))?;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xbar_wal_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("t.wal")
    }

    fn rec(seq: u64, kind: RecordKind, class: u16) -> WalRecord {
        WalRecord {
            seq,
            kind,
            class,
            skewed: seq.is_multiple_of(3),
        }
    }

    /// The bitwise algorithm the table is built from: the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn crc32_table_matches_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..300),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
            // Every length from 0 to 64, so every word count and tail.
            for len in 0..=bytes.len().min(64) {
                prop_assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]));
            }
        }
    }

    #[test]
    fn round_trips_records_across_reopen() {
        let path = tmp("roundtrip");
        let recs: Vec<WalRecord> = (0..50)
            .map(|i| {
                rec(
                    i,
                    match i % 4 {
                        0 => RecordKind::Arrival,
                        1 => RecordKind::Departure,
                        2 => RecordKind::Shed,
                        _ => RecordKind::Rejected,
                    },
                    (i % 5) as u16,
                )
            })
            .collect();
        {
            let (mut wal, recovery) = Wal::open(&path, 0).unwrap();
            assert!(recovery.records.is_empty() && !recovery.damaged);
            for r in &recs {
                wal.append(r).unwrap();
            }
            wal.commit().unwrap();
        }
        let (wal, recovery) = Wal::open(&path, 0).unwrap();
        assert_eq!(recovery.records, recs);
        assert!(!recovery.damaged);
        assert_eq!(wal.len(), 50 * FRAME_LEN as u64);
    }

    /// One frame as a write per record lays it out.
    fn frame(r: &WalRecord) -> Vec<u8> {
        let payload = encode_payload(r);
        let mut f = (PAYLOAD_LEN as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&crc32(&payload).to_le_bytes());
        f.extend_from_slice(&payload);
        f
    }

    #[test]
    fn append_writes_exactly_the_frame_bytes() {
        let path = tmp("frame_bytes");
        let recs = [
            rec(0, RecordKind::Arrival, 0),
            rec(1, RecordKind::Departure, 1),
            rec(u64::MAX, RecordKind::Shed, u16::MAX),
            rec(0x0123_4567_89AB_CDEF, RecordKind::Rejected, 0x8001),
        ];
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        let mut want = Vec::new();
        for r in &recs {
            wal.append(r).unwrap();
            wal.commit().unwrap();
            want.extend(frame(r));
            assert_eq!(std::fs::read(&path).unwrap(), want);
        }
    }

    #[test]
    fn frames_reach_the_file_by_the_group_and_on_commit() {
        let path = tmp("group");
        let recs: Vec<WalRecord> = (0..GROUP_FRAMES as u64 + 44)
            .map(|i| rec(i, RecordKind::Arrival, (i % 3) as u16))
            .collect();
        let on_disk = || std::fs::metadata(&path).unwrap().len();
        let (mut wal, _) = Wal::open(&path, 0).unwrap();
        for r in &recs[..GROUP_FRAMES - 1] {
            wal.append(r).unwrap();
        }
        assert_eq!(on_disk(), 0, "fewer than a group stays buffered");
        assert_eq!(wal.unwritten(), GROUP_FRAMES - 1);
        assert_eq!(wal.records(), GROUP_FRAMES as u64 - 1);
        assert_eq!(wal.len(), ((GROUP_FRAMES - 1) * FRAME_LEN) as u64);
        wal.append(&recs[GROUP_FRAMES - 1]).unwrap();
        assert_eq!(on_disk(), (GROUP_FRAMES * FRAME_LEN) as u64);
        assert_eq!(wal.unwritten(), 0);
        for r in &recs[GROUP_FRAMES..] {
            wal.append(r).unwrap();
        }
        assert_eq!(on_disk(), (GROUP_FRAMES * FRAME_LEN) as u64);
        wal.commit().unwrap();
        let one_write_per_frame: Vec<u8> = recs.iter().flat_map(frame).collect();
        assert_eq!(std::fs::read(&path).unwrap(), one_write_per_frame);
        assert_eq!(wal.len(), one_write_per_frame.len() as u64);
        // Dropped without a commit, the buffer dies: the file keeps the
        // committed prefix and nothing else.
        wal.append(&rec(999, RecordKind::Shed, 0)).unwrap();
        drop(wal);
        let (_, recovery) = Wal::open(&path, 0).unwrap();
        assert_eq!(recovery.records, recs);
        assert!(!recovery.damaged);
    }

    #[test]
    fn sync_every_writes_and_syncs_at_its_cadence() {
        let path = tmp("sync_every");
        let (mut wal, _) = Wal::open(&path, 10).unwrap();
        for i in 0..25 {
            wal.append(&rec(i, RecordKind::Departure, 0)).unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap().len(), 20 * FRAME_LEN);
        assert_eq!(wal.unwritten(), 5);
    }

    #[test]
    fn truncated_tail_recovers_the_prefix_and_repairs() {
        let path = tmp("truncate");
        {
            let (mut wal, _) = Wal::open(&path, 0).unwrap();
            for i in 0..10 {
                wal.append(&rec(i, RecordKind::Arrival, 0)).unwrap();
            }
            wal.commit().unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Chop mid-frame: 9 full frames plus half a frame.
        let cut = 9 * FRAME_LEN + 5;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (wal, recovery) = Wal::open(&path, 0).unwrap();
        assert_eq!(recovery.records.len(), 9);
        assert!(recovery.damaged);
        assert_eq!(recovery.valid_bytes, 9 * FRAME_LEN as u64);
        // The file was repaired in place.
        assert_eq!(
            std::fs::metadata(wal.path()).unwrap().len(),
            recovery.valid_bytes
        );
        let again = recover(&path).unwrap();
        assert!(!again.damaged);
    }

    #[test]
    fn corrupt_byte_stops_the_scan_at_the_frame_boundary() {
        let path = tmp("corrupt");
        {
            let (mut wal, _) = Wal::open(&path, 0).unwrap();
            for i in 0..10 {
                wal.append(&rec(i, RecordKind::Departure, 1)).unwrap();
            }
            wal.commit().unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a payload byte inside frame 6 (0-based): CRC must catch it.
        let off = 6 * FRAME_LEN + 8 + 3;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery.records.len(), 6);
        assert!(recovery.damaged);
        for (i, r) in recovery.records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
    }

    #[test]
    fn garbage_length_field_is_rejected_not_trusted() {
        let path = tmp("garbage");
        std::fs::write(&path, u32::MAX.to_le_bytes()).unwrap();
        let recovery = recover(&path).unwrap();
        assert!(recovery.records.is_empty());
        assert!(recovery.damaged);
        assert_eq!(recovery.valid_bytes, 0);
    }

    #[test]
    fn missing_file_recovers_empty() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let recovery = recover(&path).unwrap();
        assert_eq!(recovery, WalRecovery::default());
    }
}
