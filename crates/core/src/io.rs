//! Synopsis serialization.
//!
//! A built Twig XSKETCH is exactly the artifact an optimizer ships: this
//! module writes one to a compact, versioned binary snapshot and reads it
//! back. Snapshots are **estimation-only** — the element extents (which
//! the paper's space budget never charges, §5) are construction-time
//! state and are not stored, so a loaded synopsis can be compiled and
//! answer estimates but cannot be refined further (see
//! [`Synopsis::has_extents`]).
//!
//! Format v2 (little-endian):
//!
//! ```text
//! magic "XTWG" | version u32 = 2 | payload_len u64 | checksum u64
//! payload (the v1 body, unchanged):
//!   label table | root u32 | max_depth u32
//!   nodes: count u32, then per node: label u16, extent count u64
//!   edges: count u32, then per edge: u u32, v u32, child u64, parent u64
//!   per node: edge histogram (scope dims, buckets, value bucketizations,
//!             budget, distinct), then optional value summary
//! ```
//!
//! The checksum is CRC-64/ECMA over the payload; CRC detects **every**
//! single-bit flip, so corruption surfaces as a typed
//! [`SnapshotError::ChecksumMismatch`] instead of a silently wrong
//! estimate. Version-1 snapshots (no length/checksum header) remain
//! readable. [`write_snapshot_atomic`] persists via a temporary sibling
//! file plus `rename`, so a crash mid-write never leaves a torn snapshot
//! at the destination path.
//!
//! Format v3 (the serving-tier arena layout — one flat section per
//! [`CompiledSynopsis`](crate::CompiledSynopsis) histogram column, so a
//! load is a `META` walk plus one bulk decode per column, in a fixed
//! number of allocations) lives in [`v3`]; [`pod`] holds the byte
//! buffer a snapshot file is read into.

pub mod pod;
pub mod v3;
pub mod vfs;
pub mod wal;

use crate::synopsis::{
    DimKind, EdgeHistogram, ScopeDim, SynId, Synopsis, SynopsisEdge, SynopsisNode, ValueBuckets,
    ValueSummary,
};
use std::collections::BTreeMap;
use std::path::Path;
use xtwig_histogram::{Bucket, MdHistogram, ValueHistogram};
use xtwig_xml::{LabelId, LabelTable};

pub(crate) const MAGIC: &[u8; 4] = b"XTWG";
const VERSION: u32 = 2;
const LEGACY_VERSION: u32 = 1;
pub(crate) const V3_VERSION: u32 = 3;
/// Bytes before the payload: magic (4) + version (4) + payload_len (8) +
/// checksum (8).
pub const HEADER_LEN: usize = 24;

/// Error produced by snapshot reading and writing — every corruption
/// mode maps to a distinct variant so callers (fsck, the CLI recovery
/// path, the fault harness) can react precisely without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io {
        /// Path involved.
        path: String,
        /// The OS error, stringified.
        cause: String,
    },
    /// The snapshot path names a directory.
    IsDirectory {
        /// Path involved.
        path: String,
    },
    /// The snapshot is zero bytes long.
    ///
    /// Legacy variant: since the incremental-maintenance work, zero-length
    /// and header-only inputs surface as [`SnapshotError::Truncated`] with
    /// exact expected/actual lengths (a zero-length file at a snapshot
    /// path is a torn write, not a distinct corruption mode). Kept so
    /// existing matches keep compiling.
    Empty {
        /// Path involved, when reading from disk.
        path: Option<String>,
    },
    /// The magic bytes are wrong — this is not an XTWG snapshot at all.
    NotASnapshot,
    /// The version field names a format this reader does not know.
    UnsupportedVersion {
        /// The version found.
        version: u32,
    },
    /// The file is shorter than its header promises.
    Truncated {
        /// Bytes the header promises (header + payload).
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// Extra bytes follow the payload.
    TrailingBytes {
        /// How many extra bytes.
        extra: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The payload itself is malformed at a specific byte offset.
    Decode {
        /// Absolute byte offset where decoding failed.
        offset: usize,
        /// What went wrong.
        message: String,
    },
}

impl SnapshotError {
    /// The absolute byte offset of a payload decode failure, if this is
    /// one.
    pub fn offset(&self) -> Option<usize> {
        match self {
            SnapshotError::Decode { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, cause } => {
                write!(f, "snapshot I/O error on {path}: {cause}")
            }
            SnapshotError::IsDirectory { path } => {
                write!(f, "snapshot path {path} is a directory")
            }
            SnapshotError::Empty { path: Some(p) } => write!(f, "empty snapshot at {p}"),
            SnapshotError::Empty { path: None } => write!(f, "empty snapshot"),
            SnapshotError::NotASnapshot => write!(f, "not an XTWG snapshot"),
            SnapshotError::UnsupportedVersion { version } => {
                write!(f, "unsupported snapshot version {version}")
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: header promises {expected} bytes, found {actual}"
                )
            }
            SnapshotError::TrailingBytes { extra } => {
                write!(f, "trailing bytes after snapshot payload ({extra})")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
                )
            }
            SnapshotError::Decode { offset, message } => {
                write!(f, "snapshot error at byte {offset}: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------
// Checksum.
// ---------------------------------------------------------------------

const CRC_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slice-by-8 lookup tables for [`snapshot_checksum`], built at compile
/// time. `CRC_TABLES[0]` is the classic byte-at-a-time table; table `j`
/// advances a byte that is `j` positions deeper into the current
/// 8-byte word, so one table lookup per byte (eight in parallel per
/// word) replaces the 8-iteration bit loop.
static CRC_TABLES: [[u64; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u64;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC_POLY & mask);
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1usize;
    while j < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

/// CRC-64/ECMA (reflected, poly `0xC96C_5795_D787_0F42`, init/xorout
/// all-ones) over `bytes`. A CRC detects every single-bit error, which
/// the corruption-corpus tests rely on.
///
/// Implemented slice-by-8: the payload is consumed a 64-bit word at a
/// time with one table lookup per byte, which is what keeps checksum
/// verification a negligible slice of both the v2 load and the v3
/// `verify` pass. Bit-identical to the textbook bit-at-a-time loop
/// (property-tested in this module).
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut crc = u64::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let word = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        let v = crc ^ word;
        crc = CRC_TABLES[7][(v & 0xff) as usize]
            ^ CRC_TABLES[6][((v >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((v >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][((v >> 24) & 0xff) as usize]
            ^ CRC_TABLES[3][((v >> 32) & 0xff) as usize]
            ^ CRC_TABLES[2][((v >> 40) & 0xff) as usize]
            ^ CRC_TABLES[1][((v >> 48) & 0xff) as usize]
            ^ CRC_TABLES[0][((v >> 56) & 0xff) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u64::from(b)) & 0xff) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

struct W {
    buf: Vec<u8>,
}

impl W {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Serializes `s` to a version-2 binary snapshot (checksummed header +
/// payload).
pub fn save_synopsis(s: &Synopsis) -> Vec<u8> {
    let payload = save_payload(s);
    let mut w = W {
        buf: Vec::with_capacity(HEADER_LEN + payload.len()),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u64(payload.len() as u64);
    w.u64(snapshot_checksum(&payload));
    w.buf.extend_from_slice(&payload);
    w.buf
}

/// Serializes the body shared by format versions 1 and 2.
fn save_payload(s: &Synopsis) -> Vec<u8> {
    let mut w = W {
        buf: Vec::with_capacity(4096),
    };
    // Label table.
    w.u32(s.labels().len() as u32);
    for (_, name) in s.labels().iter() {
        w.bytes(name.as_bytes());
    }
    w.u32(s.root().0);
    w.u32(s.max_depth() as u32);
    // Nodes.
    w.u32(s.node_count() as u32);
    for n in s.node_ids() {
        w.u16(s.label(n).0);
        w.u64(s.extent_size(n));
    }
    // Edges.
    w.u32(s.edge_count() as u32);
    for (u, v, rec) in s.edge_iter() {
        w.u32(u.0);
        w.u32(v.0);
        w.u64(rec.child_count);
        w.u64(rec.parent_count);
    }
    // Per-node summaries.
    for n in s.node_ids() {
        write_edge_hist(&mut w, s.edge_hist(n));
        match s.value_summary(n) {
            None => w.u8(0),
            Some(vs) => {
                w.u8(1);
                let (buckets, total) = vs.hist.to_parts();
                w.u32(vs.budget_bytes as u32);
                w.u64(total);
                w.u32(buckets.len() as u32);
                for (lo, hi, count, distinct) in buckets {
                    w.i64(lo);
                    w.i64(hi);
                    w.u64(count);
                    w.u64(distinct);
                }
            }
        }
    }
    w.buf
}

fn write_edge_hist(w: &mut W, h: &EdgeHistogram) {
    w.u16(h.scope.len() as u16);
    for d in &h.scope {
        w.u32(d.parent.0);
        w.u32(d.child.0);
        w.u8(match d.kind {
            DimKind::Forward => 0,
            DimKind::Backward => 1,
            DimKind::Value => 2,
        });
    }
    w.u32(h.budget_bytes as u32);
    w.u32(h.distinct_points as u32);
    // The compressed distribution.
    let buckets = h.hist.buckets();
    w.u32(buckets.len() as u32);
    for b in buckets {
        w.f64(b.fraction);
        for d in 0..h.scope.len() {
            w.u32(b.lo[d]);
            w.u32(b.hi[d]);
            w.f64(b.mean[d]);
        }
    }
    // Value bucketizations.
    for vb in &h.value_buckets {
        match vb {
            None => w.u8(0),
            Some(vb) => {
                w.u8(1);
                w.u32(vb.len() as u32);
                for i in 0..vb.len() {
                    w.i64(vb.lo[i]);
                    w.i64(vb.hi[i]);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Added to reported offsets so payload errors cite absolute file
    /// positions even though the payload is decoded as a sub-slice.
    base: usize,
}

impl<'a> R<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, SnapshotError> {
        Err(SnapshotError::Decode {
            offset: self.base + self.pos,
            message: message.into(),
        })
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return self.err("unexpected end of snapshot");
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        match self.take(N)?.try_into() {
            Ok(a) => Ok(a),
            Err(_) => self.err("internal length mismatch"),
        }
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.array()?))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.array()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Decode {
            offset: self.base + self.pos,
            message: "invalid UTF-8 in label".into(),
        })
    }
}

/// Deserializes a snapshot produced by [`save_synopsis`] (either format
/// version). The returned synopsis is estimation-only (no extents).
pub fn load_synopsis(bytes: &[u8]) -> Result<Synopsis, SnapshotError> {
    if bytes.len() < 8 {
        // Too short to even carry magic + version. A prefix of the magic
        // (including zero bytes) is a torn write of our own format —
        // report exact lengths; anything else is foreign data.
        let n = bytes.len().min(4);
        return if bytes[..n] == MAGIC[..n] {
            Err(SnapshotError::Truncated {
                expected: HEADER_LEN,
                actual: bytes.len(),
            })
        } else {
            Err(SnapshotError::NotASnapshot)
        };
    }
    if &bytes[..4] != MAGIC {
        return Err(SnapshotError::NotASnapshot);
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    match version {
        VERSION => {
            if bytes.len() < HEADER_LEN {
                return Err(SnapshotError::Truncated {
                    expected: HEADER_LEN,
                    actual: bytes.len(),
                });
            }
            let mut hdr = R {
                buf: bytes,
                pos: 8,
                base: 0,
            };
            let payload_len = hdr.u64()? as usize;
            let stored = hdr.u64()?;
            let expected = HEADER_LEN.saturating_add(payload_len);
            if bytes.len() < expected {
                return Err(SnapshotError::Truncated {
                    expected,
                    actual: bytes.len(),
                });
            }
            if bytes.len() > expected {
                return Err(SnapshotError::TrailingBytes {
                    extra: bytes.len() - expected,
                });
            }
            let payload = &bytes[HEADER_LEN..];
            let computed = snapshot_checksum(payload);
            if computed != stored {
                return Err(SnapshotError::ChecksumMismatch { stored, computed });
            }
            decode_payload(payload, HEADER_LEN)
        }
        LEGACY_VERSION => {
            if bytes.len() == 8 {
                // Header-only v1 file: a torn write stopped before the
                // first payload byte (the 4-byte label count).
                return Err(SnapshotError::Truncated {
                    expected: 12,
                    actual: 8,
                });
            }
            decode_payload(&bytes[8..], 8)
        }
        V3_VERSION => v3::load_synopsis_v3(bytes),
        other => Err(SnapshotError::UnsupportedVersion { version: other }),
    }
}

/// Decodes the body shared by format versions 1 and 2; `base` is the
/// payload's offset within the full snapshot, for error reporting.
fn decode_payload(bytes: &[u8], base: usize) -> Result<Synopsis, SnapshotError> {
    let mut r = R {
        buf: bytes,
        pos: 0,
        base,
    };
    let label_count = r.u32()? as usize;
    let mut labels = LabelTable::new();
    for _ in 0..label_count {
        let name = r.string()?;
        labels.intern(&name);
    }
    let root = SynId(r.u32()?);
    let max_depth = r.u32()? as usize;
    let node_count = r.u32()? as usize;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let label = LabelId(r.u16()?);
        if label.index() >= labels.len() {
            return r.err("node label out of range");
        }
        let count = r.u64()?;
        nodes.push(SynopsisNode {
            label,
            extent: Vec::new(),
            count,
        });
    }
    let edge_count = r.u32()? as usize;
    let mut edges = BTreeMap::new();
    for _ in 0..edge_count {
        let u = SynId(r.u32()?);
        let v = SynId(r.u32()?);
        if u.index() >= node_count || v.index() >= node_count {
            return r.err("edge endpoint out of range");
        }
        let child_count = r.u64()?;
        let parent_count = r.u64()?;
        edges.insert(
            (u, v),
            SynopsisEdge {
                child_count,
                parent_count,
            },
        );
    }
    let mut edge_hists = Vec::with_capacity(node_count);
    let mut value_summaries = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        edge_hists.push(read_edge_hist(&mut r, node_count)?);
        let present = r.u8()?;
        if present == 0 {
            value_summaries.push(None);
        } else {
            let budget_bytes = r.u32()? as usize;
            let total = r.u64()?;
            let bcount = r.u32()? as usize;
            let mut parts = Vec::with_capacity(bcount);
            for _ in 0..bcount {
                let lo = r.i64()?;
                let hi = r.i64()?;
                let count = r.u64()?;
                let distinct = r.u64()?;
                parts.push((lo, hi, count, distinct));
            }
            value_summaries.push(Some(ValueSummary {
                hist: ValueHistogram::from_parts(parts, total),
                budget_bytes,
            }));
        }
    }
    if r.pos != bytes.len() {
        return r.err("trailing bytes after snapshot");
    }
    if root.index() >= node_count {
        return r.err("root out of range");
    }
    Ok(Synopsis::from_raw_parts(
        labels,
        nodes,
        edges,
        root,
        max_depth,
        edge_hists,
        value_summaries,
    ))
}

fn read_edge_hist(r: &mut R<'_>, node_count: usize) -> Result<EdgeHistogram, SnapshotError> {
    let dims = r.u16()? as usize;
    let mut scope = Vec::with_capacity(dims);
    for _ in 0..dims {
        let parent = SynId(r.u32()?);
        let child = SynId(r.u32()?);
        if parent.index() >= node_count || child.index() >= node_count {
            return r.err("scope dim endpoint out of range");
        }
        let kind = match r.u8()? {
            0 => DimKind::Forward,
            1 => DimKind::Backward,
            2 => DimKind::Value,
            k => return r.err(format!("unknown dim kind {k}")),
        };
        scope.push(ScopeDim {
            parent,
            child,
            kind,
        });
    }
    let budget_bytes = r.u32()? as usize;
    let distinct_points = r.u32()? as usize;
    let bcount = r.u32()? as usize;
    let mut buckets = Vec::with_capacity(bcount);
    for _ in 0..bcount {
        let fraction = r.f64()?;
        let mut lo = Vec::with_capacity(dims);
        let mut hi = Vec::with_capacity(dims);
        let mut mean = Vec::with_capacity(dims);
        for _ in 0..dims {
            lo.push(r.u32()?);
            hi.push(r.u32()?);
            mean.push(r.f64()?);
        }
        if !fraction.is_finite() || fraction < 0.0 {
            return r.err("invalid bucket fraction");
        }
        buckets.push(Bucket {
            fraction,
            lo,
            hi,
            mean,
        });
    }
    let mut value_buckets = Vec::with_capacity(dims);
    for _ in 0..dims {
        if r.u8()? == 0 {
            value_buckets.push(None);
        } else {
            let n = r.u32()? as usize;
            let mut lo = Vec::with_capacity(n);
            let mut hi = Vec::with_capacity(n);
            for _ in 0..n {
                lo.push(r.i64()?);
                hi.push(r.i64()?);
            }
            value_buckets.push(Some(ValueBuckets { lo, hi }));
        }
    }
    Ok(EdgeHistogram {
        scope,
        hist: MdHistogram::from_parts(dims, buckets),
        value_buckets,
        budget_bytes,
        distinct_points,
    })
}

// ---------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------

/// Reads and decodes a snapshot file, mapping every filesystem failure
/// mode (missing, directory, empty, unreadable) to a precise typed
/// error.
pub fn read_snapshot(path: &Path) -> Result<Synopsis, SnapshotError> {
    read_snapshot_in(&vfs::StdVfs, path)
}

/// [`read_snapshot`] through an explicit [`vfs::Vfs`].
pub fn read_snapshot_in(fs: &dyn vfs::Vfs, path: &Path) -> Result<Synopsis, SnapshotError> {
    let shown = path.display().to_string();
    let meta = fs.metadata(path).map_err(|e| SnapshotError::Io {
        path: shown.clone(),
        cause: e.to_string(),
    })?;
    if meta.is_dir {
        return Err(SnapshotError::IsDirectory { path: shown });
    }
    let bytes = fs.read(path).map_err(|e| SnapshotError::Io {
        path: shown.clone(),
        cause: e.to_string(),
    })?;
    // Zero-length and header-only files surface as `Truncated` with the
    // exact expected/actual byte counts (see `load_synopsis`).
    load_synopsis(&bytes)
}

/// Serializes `s` and writes it to `path` crash-safely: the bytes go to
/// a temporary sibling file which is fsynced and then renamed over the
/// destination, so a crash at any point leaves either the old snapshot
/// or the new one — never a torn file. Returns the snapshot size in
/// bytes.
pub fn write_snapshot_atomic(path: &Path, s: &Synopsis) -> Result<usize, SnapshotError> {
    write_snapshot_atomic_in(&vfs::StdVfs, path, s)
}

/// [`write_snapshot_atomic`] through an explicit [`vfs::Vfs`].
pub fn write_snapshot_atomic_in(
    fs: &dyn vfs::Vfs,
    path: &Path,
    s: &Synopsis,
) -> Result<usize, SnapshotError> {
    let bytes = save_synopsis(s);
    write_bytes_atomic_in(fs, path, &bytes)?;
    Ok(bytes.len())
}

/// Writes `bytes` to `path` with the tmp+rename+fsync discipline shared
/// by every durable artifact (snapshots, WAL resets, journaled
/// documents): the payload goes to a temporary sibling which is fsynced
/// and renamed over the destination, then the parent directory is
/// fsynced so the rename itself persists. A crash at any point leaves
/// either the old file or the new one — never a torn mix.
pub fn write_bytes_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    write_bytes_atomic_in(&vfs::StdVfs, path, bytes)
}

/// [`write_bytes_atomic`] through an explicit [`vfs::Vfs`]. Every step
/// that can fail — including the directory fsync that persists the
/// rename — surfaces as [`SnapshotError::Io`]; a swallowed directory
/// fsync would let "durable" publishes vanish on powercut.
pub fn write_bytes_atomic_in(
    fs: &dyn vfs::Vfs,
    path: &Path,
    bytes: &[u8],
) -> Result<(), SnapshotError> {
    let shown = path.display().to_string();
    let io_err = |e: std::io::Error| SnapshotError::Io {
        path: shown.clone(),
        cause: e.to_string(),
    };
    if fs.metadata(path).is_ok_and(|m| m.is_dir) {
        return Err(SnapshotError::IsDirectory { path: shown });
    }
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        // This IS the atomic helper — the tmp file is fsynced and
        // renamed over the destination below.
        let mut f = fs.create(&tmp).map_err(io_err)?;
        if let Err(e) = f.write_all(bytes).and_then(|()| f.sync_all()) {
            drop(f);
            let _ = fs.remove_file(&tmp);
            return Err(io_err(e));
        }
    }
    if let Err(e) = fs.rename(&tmp, path) {
        let _ = fs.remove_file(&tmp);
        return Err(io_err(e));
    }
    // Persist the rename itself. A failure here means the publish may
    // not survive a crash — callers must hear about it, not discover
    // it after the powercut.
    if let Some(dir) = path.parent() {
        fs.fsync_dir(dir).map_err(io_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledSynopsis;
    use crate::construct::{xbuild, BuildOptions, TruthSource};
    use crate::estimate::EstimateOptions;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn built_synopsis() -> (xtwig_xml::Document, Synopsis) {
        let doc = parse(concat!(
            "<bib>",
            "<author><name/><paper><title/><year>1999</year><keyword/><keyword/></paper></author>",
            "<author><name/><paper><title/><year>2002</year><keyword/></paper><book><title/></book></author>",
            "<author><name/><paper><title/><year>2001</year><keyword/></paper></author>",
            "</bib>"
        ))
        .unwrap();
        let opts = BuildOptions {
            budget_bytes: 2048,
            max_rounds: 40,
            refinements_per_round: 2,
            workload_with_values: true,
            ..Default::default()
        };
        let (s, _) = xbuild(&doc, TruthSource::Exact, &opts);
        (doc, s)
    }

    #[test]
    fn snapshot_roundtrip_preserves_estimates() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis(&s);
        let loaded = load_synopsis(&bytes).unwrap();
        assert!(!loaded.has_extents());
        assert!(s.has_extents());
        assert_eq!(loaded.node_count(), s.node_count());
        assert_eq!(loaded.edge_count(), s.edge_count());
        assert_eq!(loaded.size_bytes(), s.size_bytes());
        let opts = EstimateOptions::default();
        for text in [
            "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/keyword",
            "for $t0 in //author[book], $t1 in $t0/name",
            "for $t0 in //paper[year > 2000], $t1 in $t0/title",
            "for $t0 in //keyword",
        ] {
            let q = parse_twig(text).unwrap();
            let a = CompiledSynopsis::compile(&s)
                .estimate_report(&q, &opts)
                .estimate;
            let b = CompiledSynopsis::compile(&loaded)
                .estimate_report(&q, &opts)
                .estimate;
            assert!((a - b).abs() < 1e-12, "{text}: {a} vs {b}");
        }
    }

    #[test]
    fn snapshot_roundtrip_is_stable() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis(&s);
        let loaded = load_synopsis(&bytes).unwrap();
        let bytes2 = save_synopsis(&loaded);
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis(&s);
        // Truncations at every eighth position must error, never panic.
        for cut in (0..bytes.len()).step_by(8) {
            assert!(load_synopsis(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'Y';
        assert!(matches!(
            load_synopsis(&bad),
            Err(SnapshotError::NotASnapshot)
        ));
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            load_synopsis(&bad),
            Err(SnapshotError::UnsupportedVersion { version: 99 })
        ));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            load_synopsis(&bad),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
        // Empty input: a zero-length snapshot is a torn write with exact
        // expected/actual lengths.
        assert!(matches!(
            load_synopsis(&[]),
            Err(SnapshotError::Truncated {
                expected: HEADER_LEN,
                actual: 0
            })
        ));
        // Magic-prefix fragments are truncations of our own format;
        // foreign bytes are not.
        assert!(matches!(
            load_synopsis(b"XTW"),
            Err(SnapshotError::Truncated {
                expected: HEADER_LEN,
                actual: 3
            })
        ));
        assert!(matches!(
            load_synopsis(b"nope"),
            Err(SnapshotError::NotASnapshot)
        ));
        // Header-only v1 file.
        let mut v1_hdr = MAGIC.to_vec();
        v1_hdr.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            load_synopsis(&v1_hdr),
            Err(SnapshotError::Truncated {
                expected: 12,
                actual: 8
            })
        ));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis(&s);
        // CRC-64 catches any single-bit payload flip; header flips hit
        // the magic/version/length/checksum checks instead. Either way a
        // corrupted snapshot must never load cleanly as a different
        // synopsis without at least a typed error.
        for pos in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    load_synopsis(&bad).is_err(),
                    "bit {bit} at byte {pos} went undetected"
                );
            }
        }
    }

    #[test]
    fn sliced_checksum_matches_bitwise_reference() {
        fn reference(bytes: &[u8]) -> u64 {
            let mut crc = u64::MAX;
            for &b in bytes {
                crc ^= u64::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (CRC_POLY & mask);
                }
            }
            !crc
        }
        // Known CRC-64/XZ check value ("123456789" -> 0x995DC9BBDF1939FA).
        assert_eq!(snapshot_checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis(&s);
        // Every prefix length exercises both the word loop and the
        // remainder tail at each phase.
        for n in (0..bytes.len().min(64)).chain([bytes.len()]) {
            assert_eq!(
                snapshot_checksum(&bytes[..n]),
                reference(&bytes[..n]),
                "prefix {n}"
            );
        }
    }

    #[test]
    fn legacy_v1_snapshots_still_load() {
        let (_doc, s) = built_synopsis();
        let v2 = save_synopsis(&s);
        // Reconstruct the v1 layout: magic | version=1 | payload.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[HEADER_LEN..]);
        let loaded = load_synopsis(&v1).unwrap();
        assert_eq!(loaded.node_count(), s.node_count());
        let q = parse_twig("for $t0 in //author, $t1 in $t0/paper").unwrap();
        let opts = EstimateOptions::default();
        let a = CompiledSynopsis::compile(&s)
            .estimate_report(&q, &opts)
            .estimate;
        let b = CompiledSynopsis::compile(&loaded)
            .estimate_report(&q, &opts)
            .estimate;
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn checksum_detects_payload_swaps() {
        // Swapping two differing payload bytes keeps the length but must
        // break the checksum.
        let (_doc, s) = built_synopsis();
        let mut bytes = save_synopsis(&s);
        let (i, j) = (HEADER_LEN + 3, HEADER_LEN + 11);
        if bytes[i] != bytes[j] {
            bytes.swap(i, j);
            assert!(matches!(
                load_synopsis(&bytes),
                Err(SnapshotError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let (_doc, s) = built_synopsis();
        let dir = std::env::temp_dir().join("xtwig-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.xtwg");
        let n = write_snapshot_atomic(&path, &s).unwrap();
        assert_eq!(n as u64, std::fs::metadata(&path).unwrap().len());
        let loaded = read_snapshot(&path).unwrap();
        assert_eq!(loaded.node_count(), s.node_count());
        // No temporary residue.
        assert!(!dir.join("atomic.xtwg.tmp").exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_snapshot_maps_filesystem_failures() {
        let dir = std::env::temp_dir().join("xtwig-io-test-fs");
        std::fs::create_dir_all(&dir).unwrap();
        // Directory path.
        assert!(matches!(
            read_snapshot(&dir),
            Err(SnapshotError::IsDirectory { .. })
        ));
        // Zero-length file: typed truncation with exact lengths.
        let empty = dir.join("empty.xtwg");
        std::fs::write(&empty, b"").unwrap();
        assert!(matches!(
            read_snapshot(&empty),
            Err(SnapshotError::Truncated {
                expected: HEADER_LEN,
                actual: 0
            })
        ));
        // Missing file.
        assert!(matches!(
            read_snapshot(&dir.join("nope.xtwg")),
            Err(SnapshotError::Io { .. })
        ));
        std::fs::remove_file(&empty).unwrap();
    }
}
