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
//! There is one snapshot format, v3 ([`v3`]): a flat little-endian arena
//! with one 8-byte-aligned section per
//! [`CompiledSynopsis`](crate::CompiledSynopsis) column, each section
//! under its own CRC-64/ECMA, so a load is a `META` walk plus one bulk
//! decode per column, in a fixed number of allocations. Every writer
//! ([`write_snapshot_atomic`], the catalog's publish, the ingest store's
//! checkpoints) emits it, and every reader ([`load_synopsis`],
//! [`read_snapshot`], the catalog fault-in) runs the full per-section
//! CRC sweep before it decodes, so corruption surfaces as a typed
//! [`SnapshotError`] instead of a silently wrong estimate. The retired
//! formats v1 and v2 fail with [`SnapshotError::UnsupportedVersion`].
//! [`write_snapshot_atomic`] persists via a temporary sibling file plus
//! `rename`, so a crash mid-write never leaves a torn snapshot at the
//! destination path; [`pod`] holds the byte buffer a snapshot file is
//! read into.
//!
//! [`save_synopsis`] still encodes the retired v2 layout (a CRC-framed
//! serialization of the pointer-rich [`Synopsis`]) as a size yardstick
//! for v3; no reader accepts its output.

pub mod pod;
pub mod v3;
pub mod vfs;
pub mod wal;

use crate::synopsis::{DimKind, EdgeHistogram, Synopsis};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 4] = b"XTWG";
/// The retired format [`save_synopsis`] still writes.
const V2_VERSION: u32 = 2;
pub(crate) const V3_VERSION: u32 = 3;
/// Bytes of a v2 image before its payload: magic (4) + version (4) +
/// payload_len (8) + checksum (8).
const V2_HEADER_LEN: usize = 24;

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

/// Bytes per lane of the three-lane sweep: a block of `3 * CRC_LANE`
/// bytes is folded as three independent lanes, then joined.
const CRC_LANE: usize = 512;

/// `CRC_SHIFT[j][b]`: the register `b << 8j` advanced over `CRC_LANE`
/// zero bytes, built at compile time. The CRC register update is linear,
/// so advancing any register is the XOR of one lookup per byte.
static CRC_SHIFT: [[u64; 256]; 8] = build_crc_shift();

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

const fn build_crc_shift() -> [[u64; 256]; 8] {
    let t = build_crc_tables();
    // The 64 basis registers advanced over one lane of zero words ...
    let mut basis = [0u64; 64];
    let mut i = 0usize;
    while i < 64 {
        let mut crc = 1u64 << i;
        let mut w = 0usize;
        while w < CRC_LANE / 8 {
            crc = fold_word(&t, crc);
            w += 1;
        }
        basis[i] = crc;
        i += 1;
    }
    // ... and every byte value at every position as the XOR of its bits.
    let mut s = [[0u64; 256]; 8];
    let mut j = 0usize;
    while j < 8 {
        let mut b = 0usize;
        while b < 256 {
            let mut acc = 0u64;
            let mut bit = 0usize;
            while bit < 8 {
                if (b >> bit) & 1 == 1 {
                    acc ^= basis[8 * j + bit];
                }
                bit += 1;
            }
            s[j][b] = acc;
            b += 1;
        }
        j += 1;
    }
    s
}

/// One slice-by-8 step: the register `v` (register XOR the next
/// little-endian word) advanced over that word.
#[inline(always)]
const fn fold_word(t: &[[u64; 256]; 8], v: u64) -> u64 {
    t[7][(v & 0xff) as usize]
        ^ t[6][((v >> 8) & 0xff) as usize]
        ^ t[5][((v >> 16) & 0xff) as usize]
        ^ t[4][((v >> 24) & 0xff) as usize]
        ^ t[3][((v >> 32) & 0xff) as usize]
        ^ t[2][((v >> 40) & 0xff) as usize]
        ^ t[1][((v >> 48) & 0xff) as usize]
        ^ t[0][((v >> 56) & 0xff) as usize]
}

/// The register `crc` advanced over `CRC_LANE` zero bytes.
#[inline(always)]
fn shift_lane(crc: u64) -> u64 {
    CRC_SHIFT
        .iter()
        .enumerate()
        .fold(0, |acc, (j, t)| acc ^ t[((crc >> (8 * j)) & 0xff) as usize])
}

/// An 8-byte chunk as a little-endian word.
#[inline(always)]
fn le_word(c: &[u8]) -> u64 {
    <[u8; 8]>::try_from(c).map_or(0, u64::from_le_bytes)
}

/// CRC-64/ECMA (reflected, poly `0xC96C_5795_D787_0F42`, init/xorout
/// all-ones) over `bytes`. A CRC detects every single-bit error, which
/// the corruption-corpus tests rely on.
///
/// Blocks of `3 * CRC_LANE` bytes are folded as three interleaved
/// slice-by-8 lanes: the first lane continues the running register, the
/// other two start from zero, and because the register update is linear
/// the block's register is `shift(shift(a) ^ b) ^ c`, where `shift`
/// advances a register over one lane of zeros through `CRC_SHIFT`.
/// The three lanes are independent dependency chains, so the table
/// lookups of one overlap the others'. The tail goes through the plain
/// slice-by-8 word loop and then byte at a time. Bit-identical to the
/// textbook bit-at-a-time loop (tested in this module).
pub fn snapshot_checksum(bytes: &[u8]) -> u64 {
    let mut crc = u64::MAX;
    let mut blocks = bytes.chunks_exact(3 * CRC_LANE);
    for block in &mut blocks {
        let (a, rest) = block.split_at(CRC_LANE);
        let (b, c) = rest.split_at(CRC_LANE);
        let (mut ca, mut cb, mut cc) = (crc, 0u64, 0u64);
        for ((wa, wb), wc) in a
            .chunks_exact(8)
            .zip(b.chunks_exact(8))
            .zip(c.chunks_exact(8))
        {
            ca = fold_word(&CRC_TABLES, ca ^ le_word(wa));
            cb = fold_word(&CRC_TABLES, cb ^ le_word(wb));
            cc = fold_word(&CRC_TABLES, cc ^ le_word(wc));
        }
        crc = shift_lane(shift_lane(ca) ^ cb) ^ cc;
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        crc = fold_word(&CRC_TABLES, crc ^ le_word(w));
    }
    for &b in words.remainder() {
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

/// Serializes `s` in the retired v2 layout (checksummed header +
/// payload): a size yardstick for [`v3::save_synopsis_v3`]. No reader
/// accepts the output; [`load_synopsis`] refuses it with
/// [`SnapshotError::UnsupportedVersion`].
pub fn save_synopsis(s: &Synopsis) -> Vec<u8> {
    let payload = save_payload(s);
    let mut w = W {
        buf: Vec::with_capacity(V2_HEADER_LEN + payload.len()),
    };
    w.buf.extend_from_slice(MAGIC);
    w.u32(V2_VERSION);
    w.u64(payload.len() as u64);
    w.u64(snapshot_checksum(&payload));
    w.buf.extend_from_slice(&payload);
    w.buf
}

/// Serializes the v2 payload (the body v1 stored without a header).
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
    /// Added to reported offsets so section errors cite absolute file
    /// positions even though a section is decoded as a sub-slice.
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
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.array()?))
    }
}

/// Deserializes a v3 snapshot into an estimation-only synopsis (no
/// extents): the full per-section CRC sweep, the carve, and a rebuild
/// from the columns. Any other version fails with
/// [`SnapshotError::UnsupportedVersion`].
pub fn load_synopsis(bytes: &[u8]) -> Result<Synopsis, SnapshotError> {
    Ok(v3::load_verified(bytes)?.to_synopsis())
}

// ---------------------------------------------------------------------
// Files.
// ---------------------------------------------------------------------

/// Reads and decodes a snapshot file through the verified load (see
/// [`load_synopsis`]), mapping every filesystem failure mode (missing,
/// directory, unreadable) to a precise typed error; a zero-length or
/// header-only file is a typed [`SnapshotError::Truncated`].
pub fn read_snapshot(path: &Path) -> Result<Synopsis, SnapshotError> {
    Ok(v3::read_compiled_snapshot_in(&vfs::StdVfs, path)?.to_synopsis())
}

/// Serializes `s` as a v3 snapshot and writes it to `path`
/// crash-safely: the bytes go to a temporary sibling file which is
/// fsynced and then renamed over the destination, so a crash at any
/// point leaves either the old snapshot or the new one — never a torn
/// file. Returns the snapshot size in bytes.
pub fn write_snapshot_atomic(path: &Path, s: &Synopsis) -> Result<usize, SnapshotError> {
    write_snapshot_atomic_in(&vfs::StdVfs, path, s)
}

/// [`write_snapshot_atomic`] through an explicit [`vfs::Vfs`].
pub fn write_snapshot_atomic_in(
    fs: &dyn vfs::Vfs,
    path: &Path,
    s: &Synopsis,
) -> Result<usize, SnapshotError> {
    let bytes = v3::save_synopsis_v3(s);
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
    use v3::{save_synopsis_v3, V3_HEADER_LEN};
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

    /// The retired images of `s`: v1 (magic, version 1, then the v2
    /// payload without its length and checksum) and v2.
    fn retired_images(s: &Synopsis) -> [(u32, Vec<u8>); 2] {
        let v2 = save_synopsis(s);
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&v2[V2_HEADER_LEN..]);
        [(1, v1), (2, v2)]
    }

    #[test]
    fn snapshot_roundtrip_preserves_estimates() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis_v3(&s);
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
            assert_eq!(a.to_bits(), b.to_bits(), "{text}: {a} vs {b}");
        }
    }

    #[test]
    fn snapshot_roundtrip_is_stable() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        let loaded = load_synopsis(&bytes).unwrap();
        let bytes2 = save_synopsis_v3(&loaded);
        assert_eq!(bytes, bytes2);
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis_v3(&s);
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
                expected: V3_HEADER_LEN,
                actual: 0
            })
        ));
        // Magic-prefix fragments are truncations of our own format;
        // foreign bytes are not.
        assert!(matches!(
            load_synopsis(b"XTW"),
            Err(SnapshotError::Truncated {
                expected: V3_HEADER_LEN,
                actual: 3
            })
        ));
        assert!(matches!(
            load_synopsis(b"nope"),
            Err(SnapshotError::NotASnapshot)
        ));
    }

    #[test]
    fn retired_versions_fail_typed() {
        let (_doc, s) = built_synopsis();
        let dir = std::env::temp_dir().join(format!("xtwig-io-retired-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (version, image) in retired_images(&s) {
            // Whole images, and header-only ones (a torn write stopped
            // right after the version word).
            for bytes in [&image[..], &image[..8]] {
                assert_eq!(
                    load_synopsis(bytes).err(),
                    Some(SnapshotError::UnsupportedVersion { version })
                );
            }
            let path = dir.join(format!("v{version}.xtwg"));
            std::fs::write(&path, &image).unwrap();
            let err = read_snapshot(&path).unwrap_err();
            assert_eq!(err, SnapshotError::UnsupportedVersion { version });
            assert_eq!(
                err.to_string(),
                format!("unsupported snapshot version {version}")
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v2_encoding_is_unchanged() {
        // The v2 writer stays only as a size yardstick; its layout must
        // not drift: magic, version 2, payload length, payload CRC.
        let (_doc, s) = built_synopsis();
        let v2 = save_synopsis(&s);
        assert_eq!(&v2[..4], MAGIC);
        assert_eq!(v2[4..8], 2u32.to_le_bytes());
        let payload = &v2[V2_HEADER_LEN..];
        assert_eq!(v2[8..16], (payload.len() as u64).to_le_bytes());
        assert_eq!(v2[16..24], snapshot_checksum(payload).to_le_bytes());
        assert_eq!(payload, save_payload(&s));
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        // Every section has its own CRC-64, which catches any single-bit
        // flip; the fixed header is checked field by field and the
        // padding must be zero. Either way a corrupted snapshot must
        // never load cleanly as a different synopsis.
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
        /// The bit-at-a-time register after `bytes`, from `crc`.
        fn bitwise(mut crc: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                crc ^= u64::from(b);
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (CRC_POLY & mask);
                }
            }
            crc
        }
        fn reference(bytes: &[u8]) -> u64 {
            !bitwise(u64::MAX, bytes)
        }
        // Known CRC-64/XZ check value ("123456789" -> 0x995DC9BBDF1939FA).
        assert_eq!(snapshot_checksum(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(reference(b"123456789"), 0x995D_C9BB_DF19_39FA);
        let (_doc, s) = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        // Every prefix length exercises both the word loop and the
        // remainder tail at each phase.
        for n in (0..bytes.len().min(64)).chain([bytes.len()]) {
            assert_eq!(
                snapshot_checksum(&bytes[..n]),
                reference(&bytes[..n]),
                "prefix {n}"
            );
        }
        // A seeded 40 KB buffer: every length up to three blocks and a
        // tail, then block multiples and their neighbours, each against
        // the bit-at-a-time register carried along the prefix.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..40 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        let block = 3 * CRC_LANE;
        let mut lengths: Vec<usize> = (0..=4700).collect();
        for k in 1..=buf.len() / block + 1 {
            for d in [0isize, 1, -1, 7, -7, 8, -8, 9, -9] {
                let n = (k * block).checked_add_signed(d).unwrap_or(0);
                if n <= buf.len() {
                    lengths.push(n);
                }
            }
        }
        lengths.sort_unstable();
        lengths.dedup();
        let (mut at, mut reg) = (0usize, u64::MAX);
        for n in lengths {
            reg = bitwise(reg, &buf[at..n]);
            at = n;
            assert_eq!(snapshot_checksum(&buf[..n]), !reg, "seeded prefix {n}");
        }
    }

    #[test]
    fn checksum_detects_payload_swaps() {
        // Swapping two differing bytes of a section keeps every length
        // but must break that section's checksum.
        let (_doc, s) = built_synopsis();
        let mut bytes = save_synopsis_v3(&s);
        let meta = v3::parse_arena(&bytes).unwrap().get(v3::section::META);
        let i = meta.off;
        let j = (i + 1..i + meta.len)
            .find(|&j| bytes[j] != bytes[i])
            .unwrap();
        bytes.swap(i, j);
        assert!(matches!(
            load_synopsis(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn atomic_write_then_read_roundtrips() {
        let (_doc, s) = built_synopsis();
        let dir = std::env::temp_dir().join("xtwig-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.xtwg");
        let n = write_snapshot_atomic(&path, &s).unwrap();
        assert_eq!(n as u64, std::fs::metadata(&path).unwrap().len());
        // The one format: magic and version 3.
        assert_eq!(std::fs::read(&path).unwrap(), save_synopsis_v3(&s));
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
                expected: V3_HEADER_LEN,
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
