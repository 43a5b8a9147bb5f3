//! The write-ahead log file and the [`DurabilityManager`] both engines
//! share.
//!
//! ## On-disk layout
//!
//! * `<path>` — the WAL: an 8-byte header (`b"MDWL"` + `u32` version)
//!   followed by frames `[u32 payload_len][u32 crc32][payload]` where
//!   the payload is `[u64 seq][record bytes]`. `seq` is a monotonically
//!   increasing statement sequence number shared with the checkpoint.
//! * `<path>.ckpt` — the latest checkpoint (see [`crate::snapshot`]),
//!   replaced atomically via `<path>.ckpt.tmp` + rename.
//!
//! ## Recovery rules
//!
//! Walking frames from the header: a frame whose header or payload
//! extends past end-of-file is a **torn tail** — the expected residue
//! of a crash mid-append — and is truncated away silently (counted in
//! `wal_torn_tails`). A fully present frame whose CRC does not match is
//! **corruption** and surfaces as a typed [`SqlError::Corruption`]:
//! recovery refuses to guess, and never replays garbage.
//!
//! ## Commit protocol
//!
//! Engines validate and buffer a statement's full effect, append one
//! record here, and only then mutate in-memory state (log-then-apply;
//! the apply stage is infallible after validation). If the append
//! fails, the file is rolled back to its pre-append length and the
//! statement fails cleanly with the in-memory state untouched.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use mduck_obs::metrics::metrics;
use mduck_obs::span::span;
use mduck_sql::{Registry, SqlError, SqlResult};

use crate::codec::{put_u32, put_u64};
use crate::crc32::crc32;
use crate::failpoint::{self, FailAction, FailDecision};
use crate::record::WalRecord;
use crate::snapshot::{decode_checkpoint, encode_checkpoint, Snapshot};

const WAL_MAGIC: &[u8; 4] = b"MDWL";
const WAL_VERSION: u32 = 1;
/// Magic + version.
pub const WAL_HEADER_LEN: u64 = 8;
/// `[u32 len][u32 crc]` preceding every payload.
const FRAME_HEADER_LEN: u64 = 8;
/// Auto-checkpoint once the WAL exceeds this many bytes (0 disables).
pub const DEFAULT_AUTO_CHECKPOINT_BYTES: u64 = 4 * 1024 * 1024;

/// What `DurabilityManager::open` recovered from disk, for the engine
/// to apply: the checkpoint image (if any), then the WAL records in
/// order.
#[derive(Debug, Default)]
pub struct Recovery {
    pub snapshot: Option<Snapshot>,
    pub records: Vec<WalRecord>,
    /// Bytes of torn tail truncated away (0 when the log ended cleanly).
    pub torn_tail_bytes: u64,
}

#[derive(Debug)]
struct Inner {
    file: File,
    /// Valid length of the WAL file (header + complete frames).
    len: u64,
    /// Sequence number the next append will use.
    next_seq: u64,
    /// Set after a simulated crash: every later durability call fails
    /// until the database is reopened from disk.
    poisoned: bool,
}

/// One per database with durability attached. All file access is
/// serialized under an internal mutex; the engines already serialize
/// DML per statement, so this is never contended on the hot path.
#[derive(Debug)]
pub struct DurabilityManager {
    wal_path: PathBuf,
    ckpt_path: PathBuf,
    inner: Mutex<Inner>,
    auto_checkpoint: AtomicU64,
}

fn io_err(ctx: &str, e: std::io::Error) -> SqlError {
    SqlError::io(format!("{ctx}: {e}"))
}

fn wal_header_bytes() -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[0..4].copy_from_slice(WAL_MAGIC);
    h[4..8].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h
}

impl DurabilityManager {
    /// Open (or create) the WAL at `path`, run recovery, and hand back
    /// the recovered image for the engine to apply. `registry` supplies
    /// the ext codecs needed to decode extension values, so durability
    /// must be attached *after* extensions are loaded.
    pub fn open(path: impl Into<PathBuf>, registry: &Registry) -> SqlResult<(Self, Recovery)> {
        let _span = span("wal.recover");
        let t0 = Instant::now();
        let wal_path: PathBuf = path.into();
        let ckpt_path = PathBuf::from(format!("{}.ckpt", wal_path.display()));

        if let FailDecision::Fail { .. } = failpoint::check("wal.open.read") {
            return Err(SqlError::io("injected open failure at failpoint 'wal.open.read'"));
        }

        // 1. Checkpoint image, if one exists.
        let (snapshot, ckpt_seq) = match std::fs::read(&ckpt_path) {
            Ok(bytes) => {
                let (snap, seq) = decode_checkpoint(&bytes, registry)
                    .map_err(|e| match e {
                        SqlError::Corruption(m) => SqlError::Corruption(format!(
                            "checkpoint {}: {m}",
                            ckpt_path.display()
                        )),
                        other => other,
                    })?;
                (Some(snap), seq)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(io_err("reading checkpoint", e)),
        };

        // 2. The log itself.
        let bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("reading wal", e)),
        };

        let mut fresh_header = false;
        if bytes.len() < WAL_HEADER_LEN as usize {
            // Empty or torn-header file: a crash during the very first
            // open. Anything that is not a prefix of our own header is
            // someone else's file — refuse to overwrite it.
            let expect = wal_header_bytes();
            if !expect.starts_with(&bytes) {
                return Err(SqlError::corruption(format!(
                    "{} is not a MobilityDuck WAL (bad magic)",
                    wal_path.display()
                )));
            }
            fresh_header = true;
        } else {
            if &bytes[0..4] != WAL_MAGIC {
                return Err(SqlError::corruption(format!(
                    "{} is not a MobilityDuck WAL (bad magic)",
                    wal_path.display()
                )));
            }
            let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
            if version != WAL_VERSION {
                return Err(SqlError::corruption(format!(
                    "wal version {version} unsupported (expected {WAL_VERSION})"
                )));
            }
        }

        // 3. Walk frames: collect records newer than the checkpoint,
        //    stop at a torn tail, refuse corruption.
        let mut records = Vec::new();
        let mut max_seq = ckpt_seq;
        let mut pos = WAL_HEADER_LEN as usize;
        let mut valid_len = pos as u64;
        let mut torn_tail_bytes = 0u64;
        if !fresh_header {
            while pos < bytes.len() {
                let remaining = bytes.len() - pos;
                if remaining < FRAME_HEADER_LEN as usize {
                    torn_tail_bytes = remaining as u64;
                    break;
                }
                let len = u32::from_le_bytes([
                    bytes[pos],
                    bytes[pos + 1],
                    bytes[pos + 2],
                    bytes[pos + 3],
                ]) as usize;
                let crc = u32::from_le_bytes([
                    bytes[pos + 4],
                    bytes[pos + 5],
                    bytes[pos + 6],
                    bytes[pos + 7],
                ]);
                if len < 8 || len > remaining - FRAME_HEADER_LEN as usize {
                    // Frame extends past EOF (or cannot even hold its
                    // seq): the torn residue of a crashed append.
                    torn_tail_bytes = remaining as u64;
                    break;
                }
                let payload = &bytes[pos + 8..pos + 8 + len];
                if crc32(payload) != crc {
                    return Err(SqlError::corruption(format!(
                        "wal record at offset {pos} failed CRC check"
                    )));
                }
                let seq = u64::from_le_bytes([
                    payload[0], payload[1], payload[2], payload[3], payload[4], payload[5],
                    payload[6], payload[7],
                ]);
                let rec = WalRecord::decode(&payload[8..], registry).map_err(|e| match e {
                    SqlError::Corruption(m) => SqlError::Corruption(format!(
                        "wal record at offset {pos}: {m}"
                    )),
                    other => other,
                })?;
                if seq > ckpt_seq {
                    records.push(rec);
                }
                max_seq = max_seq.max(seq);
                pos += (FRAME_HEADER_LEN as usize) + len;
                valid_len = pos as u64;
            }
        }

        // 4. Materialize the cleaned-up file: write the header if the
        //    file was fresh/torn-at-header, truncate a torn tail.
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| io_err("opening wal", e))?;
        if torn_tail_bytes > 0 {
            if let FailDecision::Fail { .. } = failpoint::check("wal.recover.truncate") {
                return Err(SqlError::io(
                    "injected failure at failpoint 'wal.recover.truncate'",
                ));
            }
            file.set_len(valid_len).map_err(|e| io_err("truncating torn wal tail", e))?;
            file.sync_data().map_err(|e| io_err("syncing wal after truncation", e))?;
            metrics().wal_torn_tails.inc(1);
        }
        if fresh_header {
            file.set_len(0).map_err(|e| io_err("resetting wal header", e))?;
            file.seek(SeekFrom::Start(0)).map_err(|e| io_err("seeking wal", e))?;
            file.write_all(&wal_header_bytes()).map_err(|e| io_err("writing wal header", e))?;
            file.sync_data().map_err(|e| io_err("syncing wal header", e))?;
            valid_len = WAL_HEADER_LEN;
        }
        file.seek(SeekFrom::Start(valid_len)).map_err(|e| io_err("seeking wal", e))?;

        let replayed = records.len() as u64;
        let manager = DurabilityManager {
            wal_path,
            ckpt_path,
            inner: Mutex::new(Inner {
                file,
                len: valid_len,
                next_seq: max_seq + 1,
                poisoned: false,
            }),
            auto_checkpoint: AtomicU64::new(DEFAULT_AUTO_CHECKPOINT_BYTES),
        };
        metrics().wal_recoveries.inc(1);
        metrics().wal_records_replayed.inc(replayed);
        metrics().wal_recovery_ns.observe(t0.elapsed().as_nanos() as u64);
        Ok((manager, Recovery { snapshot, records, torn_tail_bytes }))
    }

    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    pub fn checkpoint_path(&self) -> &Path {
        &self.ckpt_path
    }

    pub fn wal_len(&self) -> u64 {
        self.lock().len
    }

    /// Auto-checkpoint threshold in bytes; 0 disables.
    pub fn set_auto_checkpoint(&self, bytes: u64) {
        self.auto_checkpoint.store(bytes, Ordering::Relaxed);
    }

    pub fn auto_checkpoint(&self) -> u64 {
        self.auto_checkpoint.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The inner state is a plain file handle + counters; a panic
        // mid-operation cannot leave it logically inconsistent beyond
        // what `poisoned` already models.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Force the WAL file to `pre_len` plus `extra` trailing bytes —
    /// used both to roll back a failed append and to fabricate the torn
    /// state a simulated crash leaves behind. A real I/O error here
    /// poisons the manager: the file can no longer be trusted.
    fn force_state(inner: &mut Inner, pre_len: u64, extra: &[u8]) -> SqlResult<()> {
        let res = (|| -> std::io::Result<()> {
            inner.file.set_len(pre_len)?;
            inner.file.seek(SeekFrom::Start(pre_len))?;
            if !extra.is_empty() {
                inner.file.write_all(extra)?;
            }
            Ok(())
        })();
        match res {
            Ok(()) => {
                inner.len = pre_len + extra.len() as u64;
                Ok(())
            }
            Err(e) => {
                inner.poisoned = true;
                Err(io_err("rolling back wal after failed append", e))
            }
        }
    }

    /// Consult the failpoint at `site` while `frame` is in flight.
    /// `lo..lo+span` bounds the torn-prefix length a short write or
    /// simulated crash leaves behind (always a strict prefix of the
    /// frame).
    fn inject(
        inner: &mut Inner,
        site: &str,
        pre_len: u64,
        frame: &[u8],
        lo: u64,
        fail_span: u64,
    ) -> SqlResult<()> {
        let FailDecision::Fail { action, raw } = failpoint::check(site) else {
            return Ok(());
        };
        let partial = (lo + if fail_span == 0 { 0 } else { raw % fail_span })
            .min(frame.len().saturating_sub(1) as u64) as usize;
        match action {
            FailAction::Crash => {
                // Leave a strict prefix of the in-flight frame on disk
                // (the rest "never left the page cache"), then refuse
                // all further work until reopen.
                let _ = Self::force_state(inner, pre_len, &frame[..partial]);
                inner.poisoned = true;
                Err(SqlError::io(format!("simulated crash at failpoint '{site}'")))
            }
            FailAction::ShortWrite => {
                // The short write lands, then the statement's append
                // fails and rolls the file back to the commit boundary.
                Self::force_state(inner, pre_len, &frame[..partial])?;
                Self::force_state(inner, pre_len, &[])?;
                Err(SqlError::io(format!(
                    "injected short write at failpoint '{site}' ({partial} of {} bytes)",
                    frame.len()
                )))
            }
            FailAction::Error => {
                Self::force_state(inner, pre_len, &[])?;
                Err(SqlError::io(format!("injected io error at failpoint '{site}'")))
            }
        }
    }

    /// Durably append one record. Returns `true` when the WAL has grown
    /// past the auto-checkpoint threshold and the engine should run a
    /// checkpoint.
    pub fn append(&self, record: &WalRecord) -> SqlResult<bool> {
        let t0 = Instant::now();
        let mut inner = self.lock();
        if inner.poisoned {
            return Err(SqlError::io(
                "wal is poisoned after a simulated crash; reopen the database to recover",
            ));
        }
        let mut payload = Vec::new();
        put_u64(&mut payload, inner.next_seq);
        payload.extend_from_slice(&record.encode());
        let mut frame = Vec::with_capacity(8 + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let pre_len = inner.len;
        let flen = frame.len() as u64;

        // Failure windows: torn within the frame header, torn within
        // the payload, or an arbitrary lost suffix at sync time.
        Self::inject(&mut inner, "wal.append.header", pre_len, &frame, 0, FRAME_HEADER_LEN)?;
        Self::inject(
            &mut inner,
            "wal.append.payload",
            pre_len,
            &frame,
            FRAME_HEADER_LEN,
            flen - FRAME_HEADER_LEN,
        )?;
        if let Err(e) = inner.file.write_all(&frame) {
            Self::force_state(&mut inner, pre_len, &[])?;
            return Err(io_err("appending wal record", e));
        }
        Self::inject(&mut inner, "wal.append.sync", pre_len, &frame, 0, flen)?;
        if let Err(e) = inner.file.sync_data() {
            Self::force_state(&mut inner, pre_len, &[])?;
            return Err(io_err("syncing wal record", e));
        }

        inner.len = pre_len + flen;
        inner.next_seq += 1;
        let wal_len = inner.len;
        drop(inner);
        metrics().wal_records_appended.inc(1);
        metrics().wal_bytes_written.inc(flen);
        metrics().wal_append_ns.observe(t0.elapsed().as_nanos() as u64);
        let threshold = self.auto_checkpoint();
        Ok(threshold > 0 && wal_len >= threshold)
    }

    /// Write a checkpoint covering everything appended so far, then
    /// truncate the log. Crash-safe at every step: the checkpoint is
    /// built in `<ckpt>.tmp` and renamed into place, and a crash after
    /// the rename but before the truncation is covered by the sequence
    /// numbers stored in both files.
    pub fn checkpoint(&self, snapshot: &Snapshot) -> SqlResult<()> {
        let _span = span("wal.checkpoint");
        let t0 = Instant::now();
        let mut inner = self.lock();
        if inner.poisoned {
            return Err(SqlError::io(
                "wal is poisoned after a simulated crash; reopen the database to recover",
            ));
        }
        let last_seq = inner.next_seq - 1;
        let image = encode_checkpoint(snapshot, last_seq);
        let tmp_path = PathBuf::from(format!("{}.tmp", self.ckpt_path.display()));

        let write_res = (|| -> SqlResult<File> {
            Self::inject_ckpt(&mut inner, "ckpt.write", &tmp_path, &image)?;
            let mut f = File::create(&tmp_path).map_err(|e| io_err("creating checkpoint", e))?;
            f.write_all(&image).map_err(|e| io_err("writing checkpoint", e))?;
            Self::inject_ckpt(&mut inner, "ckpt.sync", &tmp_path, &image)?;
            f.sync_all().map_err(|e| io_err("syncing checkpoint", e))?;
            Ok(f)
        })();
        let _tmp_file = match write_res {
            Ok(f) => f,
            Err(e) => {
                if !inner.poisoned {
                    let _ = std::fs::remove_file(&tmp_path);
                }
                return Err(e);
            }
        };

        if let Err(e) = Self::inject_ckpt(&mut inner, "ckpt.rename", &tmp_path, &image) {
            if !inner.poisoned {
                let _ = std::fs::remove_file(&tmp_path);
            }
            return Err(e);
        }
        if let Err(e) = std::fs::rename(&tmp_path, &self.ckpt_path) {
            let _ = std::fs::remove_file(&tmp_path);
            return Err(io_err("renaming checkpoint into place", e));
        }

        // From here the new checkpoint is authoritative. A failure to
        // truncate leaves a stale-but-skippable WAL prefix (records
        // with seq <= last_seq are ignored on recovery), so the log
        // stays consistent either way.
        Self::inject_ckpt(&mut inner, "ckpt.truncate_wal", &tmp_path, &image)?;
        inner
            .file
            .set_len(WAL_HEADER_LEN)
            .map_err(|e| io_err("truncating wal after checkpoint", e))?;
        inner
            .file
            .seek(SeekFrom::Start(WAL_HEADER_LEN))
            .map_err(|e| io_err("seeking wal after checkpoint", e))?;
        inner
            .file
            .sync_data()
            .map_err(|e| io_err("syncing wal after checkpoint", e))?;
        inner.len = WAL_HEADER_LEN;
        drop(inner);
        metrics().wal_checkpoints.inc(1);
        metrics().wal_checkpoint_ns.observe(t0.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Checkpoint-site failpoint: fabricates partial temp files for
    /// short writes and simulated crashes.
    fn inject_ckpt(
        inner: &mut Inner,
        site: &str,
        tmp_path: &Path,
        image: &[u8],
    ) -> SqlResult<()> {
        let FailDecision::Fail { action, raw } = failpoint::check(site) else {
            return Ok(());
        };
        let partial = (raw % image.len().max(1) as u64) as usize;
        match action {
            FailAction::Crash => {
                // Leave whatever partial temp file the crash would
                // have: recovery ignores `<ckpt>.tmp` entirely.
                let _ = std::fs::write(tmp_path, &image[..partial]);
                inner.poisoned = true;
                Err(SqlError::io(format!("simulated crash at failpoint '{site}'")))
            }
            FailAction::ShortWrite => {
                let _ = std::fs::write(tmp_path, &image[..partial]);
                Err(SqlError::io(format!(
                    "injected short write at failpoint '{site}' ({partial} of {} bytes)",
                    image.len()
                )))
            }
            FailAction::Error => {
                Err(SqlError::io(format!("injected io error at failpoint '{site}'")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mduck_sql::Value;

    fn tmp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mduck_wal_unit_{}_{name}", std::process::id()));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(format!("{}.ckpt", p.display()));
        let _ = std::fs::remove_file(format!("{}.ckpt.tmp", p.display()));
    }

    fn insert(table: &str, n: i64) -> WalRecord {
        WalRecord::Insert {
            table: table.into(),
            rows: vec![vec![Value::Int(n), Value::text(format!("row{n}"))]],
        }
    }

    #[test]
    fn append_and_recover_roundtrip() {
        let registry = Registry::default();
        let path = tmp_path("roundtrip");
        cleanup(&path);
        {
            let (wal, rec) = DurabilityManager::open(&path, &registry).unwrap();
            assert!(rec.snapshot.is_none());
            assert!(rec.records.is_empty());
            wal.append(&WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![
                    ("id".into(), mduck_sql::LogicalType::Int),
                    ("s".into(), mduck_sql::LogicalType::Text),
                ],
            })
            .unwrap();
            wal.append(&insert("t", 1)).unwrap();
            wal.append(&insert("t", 2)).unwrap();
        }
        let (_, rec) = DurabilityManager::open(&path, &registry).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.torn_tail_bytes, 0);
        assert_eq!(rec.records[2], insert("t", 2));
        cleanup(&path);
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let registry = Registry::default();
        let path = tmp_path("torn");
        cleanup(&path);
        {
            let (wal, _) = DurabilityManager::open(&path, &registry).unwrap();
            wal.append(&insert("t", 1)).unwrap();
            wal.append(&insert("t", 2)).unwrap();
        }
        // Chop bytes off the last frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (_, rec) = DurabilityManager::open(&path, &registry).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert!(rec.torn_tail_bytes > 0);
        assert_eq!(rec.records[0], insert("t", 1));
        // The truncation is durable: a second open sees a clean log.
        let (_, rec2) = DurabilityManager::open(&path, &registry).unwrap();
        assert_eq!(rec2.records.len(), 1);
        assert_eq!(rec2.torn_tail_bytes, 0);
        cleanup(&path);
    }

    #[test]
    fn crc_flip_mid_log_is_corruption() {
        let registry = Registry::default();
        let path = tmp_path("crcflip");
        cleanup(&path);
        {
            let (wal, _) = DurabilityManager::open(&path, &registry).unwrap();
            wal.append(&insert("t", 1)).unwrap();
            wal.append(&insert("t", 2)).unwrap();
        }
        // Flip a byte inside the FIRST record's payload (offset header
        // + frame header + a bit) so the damage is mid-log, not a tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(WAL_HEADER_LEN + FRAME_HEADER_LEN) as usize + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = DurabilityManager::open(&path, &registry).unwrap_err();
        assert!(matches!(err, SqlError::Corruption(_)), "{err}");
        cleanup(&path);
    }

    #[test]
    fn checkpoint_truncates_and_seq_skips_replayed_prefix() {
        let registry = Registry::default();
        let path = tmp_path("ckpt");
        cleanup(&path);
        {
            let (wal, _) = DurabilityManager::open(&path, &registry).unwrap();
            wal.append(&insert("t", 1)).unwrap();
            let snap = Snapshot::default();
            wal.checkpoint(&snap).unwrap();
            assert_eq!(wal.wal_len(), WAL_HEADER_LEN);
            wal.append(&insert("t", 2)).unwrap();
        }
        let (_, rec) = DurabilityManager::open(&path, &registry).unwrap();
        assert!(rec.snapshot.is_some());
        // Only the post-checkpoint record replays.
        assert_eq!(rec.records, vec![insert("t", 2)]);
        cleanup(&path);
    }

    #[test]
    fn checkpoint_present_but_wal_missing_recovers_from_checkpoint() {
        let registry = Registry::default();
        let path = tmp_path("nowal");
        cleanup(&path);
        {
            let (wal, _) = DurabilityManager::open(&path, &registry).unwrap();
            wal.append(&insert("t", 1)).unwrap();
            wal.checkpoint(&Snapshot::default()).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
        let (_, rec) = DurabilityManager::open(&path, &registry).unwrap();
        assert!(rec.snapshot.is_some());
        assert!(rec.records.is_empty());
        cleanup(&path);
    }

    #[test]
    fn foreign_file_is_rejected_not_overwritten() {
        let registry = Registry::default();
        let path = tmp_path("foreign");
        cleanup(&path);
        std::fs::write(&path, b"PK\x03\x04 definitely not a wal").unwrap();
        let err = DurabilityManager::open(&path, &registry).unwrap_err();
        assert!(matches!(err, SqlError::Corruption(_)), "{err}");
        // Contents untouched.
        assert!(std::fs::read(&path).unwrap().starts_with(b"PK"));
        cleanup(&path);
    }
}
