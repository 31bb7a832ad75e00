//! Crash-safe write-ahead journal for document deltas.
//!
//! Between synopsis checkpoints, every applied [`Delta`] is appended to a
//! journal file before it is considered durable. Recovery then replays
//! the journal over the last checkpoint, so a kill at *any* point yields
//! either the pre-delta or the post-delta state — never a torn one:
//!
//! * The journal starts with a fixed header (`"XWAL"` magic + version).
//!   Header creation and [`WalWriter::reset`] go through
//!   [`write_bytes_atomic`], the same tmp+rename+fsync discipline as
//!   snapshots.
//! * Each record is framed `len u32 | crc u64 | payload`, with the CRC
//!   (CRC-64/ECMA, shared with snapshots via [`snapshot_checksum`])
//!   computed over the payload. Appends are a single `write_all`
//!   followed by `sync_all`.
//! * Replay ([`read_wal`]) stops at the first frame that is incomplete
//!   or fails its CRC — a torn tail from a mid-append crash — and
//!   reports it as data ([`WalReplay::torn`]), not as an error: the
//!   records before the tear are exactly the durable prefix.
//!   [`WalWriter::open_append`] truncates such a tail before appending,
//!   so a recovered process never writes after garbage.
//!
//! The payload codec for deltas ([`encode_delta`]/[`decode_delta`])
//! serializes subtree inserts as XML (via [`write_xml`]) so journal
//! records are self-contained and debuggable.

use crate::io::vfs::{StdVfs, Vfs, VfsFile};
use crate::io::{snapshot_checksum, write_bytes_atomic_in, SnapshotError};
use crate::sync::Arc;
use std::path::{Path, PathBuf};
use xtwig_xml::{parse, write_xml, Delta, DeltaOp, NodeId};

/// Magic bytes opening every journal file.
pub const WAL_MAGIC: &[u8; 4] = b"XWAL";
/// Journal format version.
pub const WAL_VERSION: u32 = 1;
/// Header length: magic (4) + version (4).
pub const WAL_HEADER_LEN: usize = 8;
/// Frame overhead per record: length (4) + CRC (8).
pub const WAL_FRAME_LEN: usize = 12;
/// Upper bound on a single record payload (defense against a corrupt
/// length field allocating unbounded memory during replay).
pub const WAL_MAX_RECORD: usize = 1 << 28;

/// A torn tail found during replay: everything before `offset` is the
/// durable prefix; the bytes at and after it are a partial append.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// Why the frame was rejected (incomplete, CRC mismatch, oversized).
    pub reason: String,
}

/// The result of reading a journal: the decoded record payloads plus the
/// torn tail, if the file ends mid-append.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Record payloads in append order.
    pub records: Vec<Vec<u8>>,
    /// Present when the file ends in a partial frame.
    pub torn: Option<TornTail>,
}

fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        cause: e.to_string(),
    }
}

/// Reads and frames a journal file. Torn tails are data, not errors —
/// only a missing/unreadable file, a wrong magic, or an unsupported
/// version fail. A zero-length or header-only-truncated file reports
/// [`SnapshotError::Truncated`] with exact lengths.
pub fn read_wal(path: &Path) -> Result<WalReplay, SnapshotError> {
    read_wal_in(&StdVfs, path)
}

/// [`read_wal`] through an explicit [`Vfs`].
pub fn read_wal_in(fs: &dyn Vfs, path: &Path) -> Result<WalReplay, SnapshotError> {
    let bytes = fs.read(path).map_err(|e| io_err(path, e))?;
    parse_wal(&bytes)
}

/// Frames an in-memory journal image (see [`read_wal`]).
pub fn parse_wal(bytes: &[u8]) -> Result<WalReplay, SnapshotError> {
    if bytes.len() < WAL_HEADER_LEN {
        let n = bytes.len().min(4);
        return if bytes[..n] == WAL_MAGIC[..n] {
            Err(SnapshotError::Truncated {
                expected: WAL_HEADER_LEN,
                actual: bytes.len(),
            })
        } else {
            Err(SnapshotError::NotASnapshot)
        };
    }
    if &bytes[..4] != WAL_MAGIC {
        return Err(SnapshotError::NotASnapshot);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != WAL_VERSION {
        return Err(SnapshotError::UnsupportedVersion { version });
    }
    let mut replay = WalReplay::default();
    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        let frame_start = pos as u64;
        if pos + WAL_FRAME_LEN > bytes.len() {
            replay.torn = Some(TornTail {
                offset: frame_start,
                reason: format!(
                    "partial frame header ({} of {WAL_FRAME_LEN} bytes)",
                    bytes.len() - pos
                ),
            });
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        if len > WAL_MAX_RECORD {
            replay.torn = Some(TornTail {
                offset: frame_start,
                reason: format!("record length {len} exceeds cap {WAL_MAX_RECORD}"),
            });
            break;
        }
        let stored = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap_or([0u8; 8]));
        let body_start = pos + WAL_FRAME_LEN;
        if body_start + len > bytes.len() {
            replay.torn = Some(TornTail {
                offset: frame_start,
                reason: format!(
                    "partial record body ({} of {len} bytes)",
                    bytes.len() - body_start
                ),
            });
            break;
        }
        let payload = &bytes[body_start..body_start + len];
        let computed = snapshot_checksum(payload);
        if computed != stored {
            replay.torn = Some(TornTail {
                offset: frame_start,
                reason: format!(
                    "record CRC mismatch (stored {stored:#018x}, computed {computed:#018x})"
                ),
            });
            break;
        }
        replay.records.push(payload.to_vec());
        pos = body_start + len;
    }
    Ok(replay)
}

/// Append handle to a journal file. Every append is fsynced before it
/// returns, so an acknowledged record survives a crash.
///
/// A failed write or fsync **poisons** the handle: durability of the
/// bytes already handed to the OS is unknown (a torn frame may or may
/// not have reached disk), so acknowledging — or silently retrying —
/// later appends would reorder them after potential garbage. Every
/// append after a failure returns a typed error carrying the original
/// cause until the journal is re-validated via [`WalWriter::reset`] or
/// a fresh [`WalWriter::open_append`] (both of which re-establish a
/// clean durable prefix on disk).
#[derive(Debug)]
pub struct WalWriter {
    vfs: Arc<dyn Vfs>,
    file: Box<dyn VfsFile>,
    path: PathBuf,
    records: u64,
    poisoned: Option<String>,
}

impl WalWriter {
    /// Creates a fresh (empty) journal at `path`, atomically replacing
    /// any existing file, and opens it for appending.
    pub fn create(path: &Path) -> Result<WalWriter, SnapshotError> {
        WalWriter::create_in(Arc::new(StdVfs), path)
    }

    /// [`WalWriter::create`] through an explicit [`Vfs`].
    pub fn create_in(vfs: Arc<dyn Vfs>, path: &Path) -> Result<WalWriter, SnapshotError> {
        let mut header = Vec::with_capacity(WAL_HEADER_LEN);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&WAL_VERSION.to_le_bytes());
        write_bytes_atomic_in(&*vfs, path, &header)?;
        let file = vfs.open_append(path).map_err(|e| io_err(path, e))?;
        Ok(WalWriter {
            vfs,
            file,
            path: path.to_path_buf(),
            records: 0,
            poisoned: None,
        })
    }

    /// Opens an existing journal for appending, creating it when absent.
    /// A torn tail from a previous crash is truncated away first, so new
    /// records always follow the durable prefix.
    pub fn open_append(path: &Path) -> Result<WalWriter, SnapshotError> {
        WalWriter::open_append_in(Arc::new(StdVfs), path)
    }

    /// [`WalWriter::open_append`] through an explicit [`Vfs`]. The
    /// journal is stat'ed once: only `NotFound` means "no journal"; any
    /// other stat failure is a typed I/O error and leaves the file as it
    /// is, never a licence to create a fresh journal over it.
    pub fn open_append_in(vfs: Arc<dyn Vfs>, path: &Path) -> Result<WalWriter, SnapshotError> {
        match vfs.metadata(path) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return WalWriter::create_in(vfs, path);
            }
            Err(e) => return Err(io_err(path, e)),
        }
        let replay = read_wal_in(&*vfs, path)?;
        // Append-mode open of a validated journal; creation goes
        // through write_bytes_atomic in `create`.
        let mut file = vfs.open_append(path).map_err(|e| io_err(path, e))?;
        if let Some(torn) = &replay.torn {
            file.set_len(torn.offset).map_err(|e| io_err(path, e))?;
            file.sync_all().map_err(|e| io_err(path, e))?;
        }
        Ok(WalWriter {
            vfs,
            file,
            path: path.to_path_buf(),
            records: replay.records.len() as u64,
            poisoned: None,
        })
    }

    /// Appends one record and fsyncs. Returns the record's byte offset.
    ///
    /// After any failed append the handle is poisoned (see the type
    /// docs) and every further call fails without touching the file.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, SnapshotError> {
        if let Some(cause) = &self.poisoned {
            return Err(SnapshotError::Io {
                path: self.path.display().to_string(),
                cause: format!("wal poisoned by earlier append failure: {cause}"),
            });
        }
        let offset = self.file.size().map_err(|e| io_err(&self.path, e))?;
        let mut frame = Vec::with_capacity(WAL_FRAME_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&snapshot_checksum(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        // A failed write may have persisted a torn prefix; a failed
        // fsync leaves even a complete write of unknown durability.
        // Either way the in-memory view and the disk no longer provably
        // agree, so poison before surfacing the error.
        if let Err(e) = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_all())
        {
            self.poisoned = Some(e.to_string());
            return Err(io_err(&self.path, e));
        }
        self.records += 1;
        Ok(offset)
    }

    /// Number of records acknowledged through this handle (including any
    /// found on open).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The poisoning cause, when an earlier append failed.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Atomically resets the journal to empty (after a checkpoint has
    /// absorbed its records into the snapshot). This also clears a
    /// poisoned state: the atomic rewrite replaces whatever torn bytes
    /// the failed append may have left behind.
    pub fn reset(&mut self) -> Result<(), SnapshotError> {
        *self = WalWriter::create_in(Arc::clone(&self.vfs), &self.path)?;
        Ok(())
    }

    /// The journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

// ---------------------------------------------------------------------
// Delta payload codec.
// ---------------------------------------------------------------------

const OP_INSERT: u8 = 1;
const OP_DELETE: u8 = 2;
const OP_MODIFY: u8 = 3;

/// Serializes a delta into a journal record payload. Subtrees travel as
/// XML so records are self-contained.
pub fn encode_delta(delta: &Delta) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(delta.ops.len() as u32).to_le_bytes());
    for op in &delta.ops {
        match op {
            DeltaOp::InsertSubtree { parent, subtree } => {
                out.push(OP_INSERT);
                out.extend_from_slice(&parent.0.to_le_bytes());
                let xml = write_xml(subtree);
                out.extend_from_slice(&(xml.len() as u32).to_le_bytes());
                out.extend_from_slice(xml.as_bytes());
            }
            DeltaOp::DeleteSubtree { target } => {
                out.push(OP_DELETE);
                out.extend_from_slice(&target.0.to_le_bytes());
            }
            DeltaOp::ModifyValue { target, value } => {
                out.push(OP_MODIFY);
                out.extend_from_slice(&target.0.to_le_bytes());
                match value {
                    Some(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
        }
    }
    out
}

/// Decodes a journal record payload back into a delta. Corrupt payloads
/// surface as [`SnapshotError::Decode`] with the failing offset.
pub fn decode_delta(bytes: &[u8]) -> Result<Delta, SnapshotError> {
    struct Cur<'a> {
        bytes: &'a [u8],
        pos: usize,
    }
    impl<'a> Cur<'a> {
        fn err<T>(&self, message: impl Into<String>) -> Result<T, SnapshotError> {
            Err(SnapshotError::Decode {
                offset: self.pos,
                message: message.into(),
            })
        }
        fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
            if self.pos + n > self.bytes.len() {
                return self.err("unexpected end of delta record");
            }
            let out = &self.bytes[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        }
        fn u8(&mut self) -> Result<u8, SnapshotError> {
            Ok(self.take(1)?[0])
        }
        fn u32(&mut self) -> Result<u32, SnapshotError> {
            let b = self.take(4)?;
            Ok(u32::from_le_bytes(b.try_into().unwrap_or([0; 4])))
        }
        fn i64(&mut self) -> Result<i64, SnapshotError> {
            let b = self.take(8)?;
            Ok(i64::from_le_bytes(b.try_into().unwrap_or([0; 8])))
        }
    }
    let mut c = Cur { bytes, pos: 0 };
    let count = c.u32()? as usize;
    let mut delta = Delta::new();
    for _ in 0..count {
        match c.u8()? {
            OP_INSERT => {
                let parent = NodeId(c.u32()?);
                let len = c.u32()? as usize;
                let xml = c.take(len)?;
                let text = std::str::from_utf8(xml).map_err(|_| SnapshotError::Decode {
                    offset: c.pos,
                    message: "insert subtree is not UTF-8".into(),
                })?;
                let subtree = parse(text).map_err(|e| SnapshotError::Decode {
                    offset: c.pos,
                    message: format!("insert subtree does not parse: {e}"),
                })?;
                delta.insert(parent, subtree);
            }
            OP_DELETE => {
                let target = NodeId(c.u32()?);
                delta.delete(target);
            }
            OP_MODIFY => {
                let target = NodeId(c.u32()?);
                let value = if c.u8()? == 1 { Some(c.i64()?) } else { None };
                delta.modify(target, value);
            }
            other => return c.err(format!("unknown delta op tag {other}")),
        }
    }
    if c.pos != bytes.len() {
        return c.err("trailing bytes after delta record");
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn temp_wal(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("xtwig-wal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = temp_wal("roundtrip.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"one").unwrap();
        w.append(b"two").unwrap();
        w.append(b"").unwrap();
        assert_eq!(w.records(), 3);
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(
            replay.records,
            vec![b"one".to_vec(), b"two".to_vec(), vec![]]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_at_every_truncation_point() {
        let path = temp_wal("torn.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"beta-record").unwrap();
        let full = std::fs::read(&path).unwrap();
        let first_end = WAL_HEADER_LEN + WAL_FRAME_LEN + 5;
        // Every cut inside the second record must yield exactly the first.
        for cut in first_end..full.len() {
            let replay = parse_wal(&full[..cut]).unwrap();
            assert_eq!(replay.records.len(), 1, "cut at {cut}");
            assert_eq!(replay.records[0], b"alpha");
            if cut == first_end {
                assert!(replay.torn.is_none(), "clean end at {cut}");
            } else {
                let torn = replay.torn.expect("torn tail");
                assert_eq!(torn.offset, first_end as u64, "cut at {cut}");
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay_before_the_bad_record() {
        let path = temp_wal("crc.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"good").unwrap();
        let off = w.append(b"flipped").unwrap() as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[off + WAL_FRAME_LEN] ^= 0x01; // flip a payload bit
        let replay = parse_wal(&bytes).unwrap();
        assert_eq!(replay.records, vec![b"good".to_vec()]);
        let torn = replay.torn.unwrap();
        assert!(torn.reason.contains("CRC"), "{}", torn.reason);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_append_truncates_the_torn_tail() {
        let path = temp_wal("truncate.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"keep").unwrap();
        drop(w);
        // Simulate a crash mid-append: garbage half-frame at the end.
        {
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            f.write_all(&[9, 0, 0, 0, 1, 2, 3]).unwrap();
        }
        let mut w = WalWriter::open_append(&path).unwrap();
        assert_eq!(w.records(), 1);
        w.append(b"after-recovery").unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(
            replay.records,
            vec![b"keep".to_vec(), b"after-recovery".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn garbage_after_torn_tail_is_never_replayed() {
        // A crash can tear a frame and a later (buggy or malicious)
        // writer could land valid-looking frames after the tear. Replay
        // must stop at the tear: the records beyond it were never part
        // of the durable prefix and acknowledging them would resurrect
        // unacknowledged state.
        let path = temp_wal("garbage-after-tear.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"durable").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Torn frame: claims 64 payload bytes, delivers 3.
        bytes.extend_from_slice(&64u32.to_le_bytes());
        bytes.extend_from_slice(&snapshot_checksum(b"whatever").to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        // Followed by a frame that would verify in isolation.
        let ghost = b"ghost-record";
        bytes.extend_from_slice(&(ghost.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&snapshot_checksum(ghost).to_le_bytes());
        bytes.extend_from_slice(ghost);
        let replay = parse_wal(&bytes).unwrap();
        assert_eq!(replay.records, vec![b"durable".to_vec()]);
        let torn = replay.torn.expect("tear must be reported");
        assert_eq!(torn.offset, (WAL_HEADER_LEN + WAL_FRAME_LEN + 7) as u64);
        // Same contract through the recovery path: open_append truncates
        // at the tear, dropping the ghost frame with the garbage.
        std::fs::write(&path, &bytes).unwrap();
        let mut w = WalWriter::open_append(&path).unwrap();
        assert_eq!(w.records(), 1);
        w.append(b"fresh").unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records, vec![b"durable".to_vec(), b"fresh".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_the_writer_until_reset() {
        use crate::io::vfs::{FaultVfs, VfsFaultPlan};
        let path = temp_wal("poison.wal");
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            fsync_error: 1000,
            ..VfsFaultPlan::default()
        }));
        vfs.arm(false);
        let mut w = WalWriter::create_in(Arc::clone(&vfs) as Arc<dyn Vfs>, &path).unwrap();
        w.append(b"before").unwrap();
        vfs.arm(true);
        let err = w.append(b"doomed").unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        assert!(w.poisoned().is_some());
        vfs.arm(false);
        // The injector is gone, but the writer must not pretend the
        // failed append never happened: durability of the torn frame is
        // unknown, so later appends keep failing with the original cause.
        let err = w.append(b"after").unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(w.records(), 1);
        // Reset rewrites the journal atomically and clears the poison.
        w.reset().unwrap();
        assert!(w.poisoned().is_none());
        w.append(b"recovered").unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.records, vec![b"recovered".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn failed_write_poisons_and_recovery_sees_only_the_durable_prefix() {
        use crate::io::vfs::{FaultVfs, VfsFaultPlan};
        let path = temp_wal("short-write-poison.wal");
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            short_write: 1000,
            ..VfsFaultPlan::default()
        }));
        vfs.arm(false);
        let mut w = WalWriter::create_in(Arc::clone(&vfs) as Arc<dyn Vfs>, &path).unwrap();
        w.append(b"durable-one").unwrap();
        vfs.arm(true);
        assert!(w.append(b"torn-two").is_err());
        assert!(w.poisoned().is_some());
        vfs.arm(false);
        drop(w);
        // Recovery truncates the torn prefix the short write left.
        let mut w = WalWriter::open_append(&path).unwrap();
        assert_eq!(w.records(), 1);
        w.append(b"three").unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(
            replay.records,
            vec![b"durable-one".to_vec(), b"three".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_leaves_an_empty_journal() {
        let path = temp_wal("reset.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"absorbed-by-checkpoint").unwrap();
        w.reset().unwrap();
        assert_eq!(w.records(), 0);
        let replay = read_wal(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(replay.torn.is_none());
        w.append(b"fresh").unwrap();
        assert_eq!(read_wal(&path).unwrap().records.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_headers_report_exact_lengths() {
        assert!(matches!(
            parse_wal(&[]),
            Err(SnapshotError::Truncated {
                expected: WAL_HEADER_LEN,
                actual: 0
            })
        ));
        assert!(matches!(
            parse_wal(b"XWA"),
            Err(SnapshotError::Truncated {
                expected: WAL_HEADER_LEN,
                actual: 3
            })
        ));
        assert!(matches!(
            parse_wal(b"nope-not-a-wal"),
            Err(SnapshotError::NotASnapshot)
        ));
        let mut bad_version = WAL_MAGIC.to_vec();
        bad_version.extend_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            parse_wal(&bad_version),
            Err(SnapshotError::UnsupportedVersion { version: 9 })
        ));
    }

    #[test]
    fn delta_codec_roundtrips() {
        let sub = parse("<paper><title/><year>2024</year></paper>").unwrap();
        let mut delta = Delta::new();
        delta
            .insert(NodeId(3), sub)
            .delete(NodeId(7))
            .modify(NodeId(9), Some(-42))
            .modify(NodeId(11), None);
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back.ops.len(), 4);
        match &back.ops[0] {
            DeltaOp::InsertSubtree { parent, subtree } => {
                assert_eq!(*parent, NodeId(3));
                assert_eq!(
                    write_xml(subtree),
                    "<paper><title/><year>2024</year></paper>"
                );
            }
            other => panic!("unexpected op {other:?}"),
        }
        assert!(matches!(
            back.ops[1],
            DeltaOp::DeleteSubtree { target: NodeId(7) }
        ));
        assert!(matches!(
            back.ops[2],
            DeltaOp::ModifyValue {
                target: NodeId(9),
                value: Some(-42)
            }
        ));
        assert!(matches!(
            back.ops[3],
            DeltaOp::ModifyValue {
                target: NodeId(11),
                value: None
            }
        ));
        // Corruption surfaces as typed decode errors, never panics.
        for cut in 0..bytes.len() {
            assert!(decode_delta(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[4] = 99; // unknown op tag
        assert!(matches!(
            decode_delta(&bad),
            Err(SnapshotError::Decode { .. })
        ));
    }

    #[test]
    fn a_failed_stat_never_recreates_the_journal() {
        use crate::io::vfs::{FaultVfs, VfsFaultPlan};
        let path = temp_wal("stat-fault.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"one").unwrap();
        w.append(b"two").unwrap();
        drop(w);
        let before = std::fs::read(&path).unwrap();
        let vfs = Arc::new(FaultVfs::over_std(VfsFaultPlan {
            seed: 3,
            metadata_error: 1000,
            ..VfsFaultPlan::default()
        }));
        // Every stat fails: a typed I/O error, and the journal is left
        // byte for byte as it was.
        let err = WalWriter::open_append_in(vfs, &path).err();
        assert!(matches!(err, Some(SnapshotError::Io { .. })), "{err:?}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        // A clean reopen still appends after both records.
        assert_eq!(WalWriter::open_append(&path).unwrap().records(), 2);
        std::fs::remove_file(&path).unwrap();
    }
}
