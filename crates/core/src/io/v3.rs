//! Snapshot format v3: a flat little-endian arena a compiled synopsis
//! loads from **zero-copy**, standing alone.
//!
//! Formats v1/v2 serialize the pointer-rich [`Synopsis`] and force every
//! load to decode bucket-by-bucket and then recompile into
//! [`CompiledSynopsis`] form. At catalog scale (thousands of cold
//! tenants paging synopses in and out) that per-bucket work dominates
//! cold-start latency. v3 instead serializes the *compiled* layout: the
//! struct-of-arrays bucket columns are written verbatim as aligned
//! sections, so loading is header + CRC validation plus an
//! O(nodes + edges + dims + value buckets) metadata walk — the edge
//! histogram bucket payloads are never deserialized, only referenced in
//! place through [`Lane`] views.
//!
//! ```text
//! offset  0: magic "XTWG" | version u32 = 3
//! offset  8: total_len u64            (whole-file byte length)
//! offset 16: section_count u32 | reserved u32 = 0
//! offset 24: table_crc u64            (CRC-64/ECMA of the section table)
//! offset 32: section table — section_count × 32-byte entries:
//!              id u32 | pad u32 = 0 | offset u64 | len u64 | crc u64
//! then the sections, each 8-byte aligned (zero padding between),
//! offsets relative to the file start:
//!   1 META      structure, labels, value summaries, histogram shapes
//!   2 FRAC      f64 × Σ buckets          bucket masses
//!   3 LO        u32 × Σ buckets·dims     bucket-major lower bounds
//!   4 HI        u32 × Σ buckets·dims     bucket-major upper bounds
//!   5 MEAN      f64 × Σ buckets·dims     bucket-major means
//!   6 LO_T      f64 × Σ buckets·dims     dimension-major lower bounds
//!   7 HI_T      f64 × Σ buckets·dims     dimension-major upper bounds
//!   8 VB_LO     i64 × Σ value buckets    flattened value-bucket lows
//!   9 VB_HI     i64 × Σ value buckets    flattened value-bucket highs
//!
//! META:
//!   nodes u32 | edges u32 | root u32 | max_depth u32
//!   counts u64 × nodes | edge_off u64 × (nodes + 1)
//!   edge_child u32 × edges | edge_avg f64 × edges
//!   edge child_count u64 × edges | edge parent_count u64 × edges
//!   node label u16 × nodes
//!   labels u32 | label name end u32 × labels | label names (UTF-8)
//!   per node, its edge histogram:
//!     dims u16 | buckets u32 | budget u32 | distinct points u32
//!     per dim: parent u32 | child u32 | kind u8 | has value buckets u8
//!              | value buckets u32
//!     expectation f64 × dims | total mass f64
//!   per node, its value summary: present u8
//!     [budget u32 | total u64 | buckets u32]
//!   value-summary buckets: lo i64 | hi i64 | count u64 | distinct u64
//! ```
//!
//! `META` is the only section the loader decodes. It holds every fact
//! of a v2 snapshot that is not a bucket column: the CSR adjacency with
//! per-edge counts and precomputed Forward Uniformity averages, per-node
//! labels and the label-name table, per histogram its dimension table,
//! bucket count, value-bucket spans, budget, precomputed marginal
//! expectations and total mass, and the per-node 1-D value summaries.
//! Each histogram's share of the big columns is recovered by
//! accumulating counts in `META` order, so no per-bucket parsing ever
//! happens. The carve validates every id serving indexes with — root,
//! edge endpoints, dimension endpoints, node labels, value-summary
//! spans — so a CRC-valid but inconsistent file fails typed instead of
//! panicking mid-estimate. [`load_synopsis`](super::load_synopsis)
//! rebuilds an estimation-only [`Synopsis`] from the same columns.
//!
//! **Validation split.** A load verifies the header, the section-table
//! CRC, and the `META` section CRC — everything it actually decodes.
//! The bucket columns carry CRCs in the table but are *not* checked on
//! load (checksumming them would fault in and scan every page,
//! forfeiting the zero-copy win; this is the same trade an mmap-backed
//! reader makes). [`verify_snapshot_v3`] performs the full check for
//! fsck-style callers and the catalog fault-in, and the corruption
//! tests drive it over every section.

use std::path::Path;
use std::sync::Arc;

use super::pod::{AlignedBytes, Lane};
use super::{snapshot_checksum, SnapshotError, HEADER_LEN, MAGIC, V3_VERSION, W};
use crate::compiled::{
    Columns, CompiledHistogram, CompiledSynopsis, LabelNames, ValueColumns, ValueSpan,
};
use crate::synopsis::{DimKind, SynId, Synopsis};

/// Bytes before the section table: magic (4) + version (4) +
/// total_len (8) + section_count (4) + reserved (4) + table_crc (8).
pub const V3_HEADER_LEN: usize = 32;

/// One section-table entry: id (4) + pad (4) + offset (8) + len (8) +
/// crc (8).
const TABLE_ENTRY_LEN: usize = 32;

/// Bytes per flattened value-summary bucket: lo, hi, count, distinct.
const VALUE_BUCKET_LEN: usize = 32;

/// Section ids, in file order.
pub(crate) mod section {
    pub const META: u32 = 1;
    pub const FRAC: u32 = 2;
    pub const LO: u32 = 3;
    pub const HI: u32 = 4;
    pub const MEAN: u32 = 5;
    pub const LO_T: u32 = 6;
    pub const HI_T: u32 = 7;
    pub const VB_LO: u32 = 8;
    pub const VB_HI: u32 = 9;
    pub const ALL: [u32; 9] = [META, FRAC, LO, HI, MEAN, LO_T, HI_T, VB_LO, VB_HI];
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Serializes `s` to a version-3 arena snapshot.
///
/// The synopsis is compiled first (the same lowering a server performs)
/// and the compiled columns are written verbatim, so a zero-copy load
/// of the result reconstructs bit-identical state — including the
/// precomputed `edge_avg`, `dim_expectation`, and transpose lanes,
/// which are stored rather than recomputed.
pub fn save_synopsis_v3(s: &Synopsis) -> Vec<u8> {
    assemble(&sections(&CompiledSynopsis::compile(s)))
}

/// The section bodies of `cs`, in file order.
fn sections(cs: &CompiledSynopsis<'_>) -> Vec<(u32, Vec<u8>)> {
    let mut meta = W { buf: Vec::new() };
    let n = cs.cols.counts.len();
    meta.u32(n as u32);
    meta.u32(cs.cols.edge_child.len() as u32);
    meta.u32(cs.cols.root.0);
    meta.u32(cs.cols.max_depth as u32);
    for &c in &cs.cols.counts {
        meta.u64(c);
    }
    for &off in &cs.cols.edge_off {
        meta.u64(off as u64);
    }
    for &c in &cs.cols.edge_child {
        meta.u32(c.0);
    }
    for &avg in &cs.cols.edge_avg {
        meta.f64(avg);
    }
    for &c in &cs.cols.edge_child_count {
        meta.u64(c);
    }
    for &c in &cs.cols.edge_parent_count {
        meta.u64(c);
    }
    for &l in &cs.cols.node_label {
        meta.u16(l);
    }
    meta.u32(cs.cols.labels.len() as u32);
    for &end in &cs.cols.labels.ends {
        meta.u32(end as u32);
    }
    meta.buf.extend_from_slice(cs.cols.labels.text.as_bytes());
    let mut frac = W { buf: Vec::new() };
    let mut lo = W { buf: Vec::new() };
    let mut hi = W { buf: Vec::new() };
    let mut mean = W { buf: Vec::new() };
    let mut lo_t = W { buf: Vec::new() };
    let mut hi_t = W { buf: Vec::new() };
    let mut vb_lo = W { buf: Vec::new() };
    let mut vb_hi = W { buf: Vec::new() };
    for h in &cs.hists {
        meta.u16(h.dims as u16);
        meta.u32(h.frac.len() as u32);
        meta.u32(h.budget_bytes);
        meta.u32(h.distinct_points);
        for d in 0..h.dims {
            meta.u32(h.dim_parent[d].0);
            meta.u32(h.dim_child[d].0);
            meta.u8(match h.dim_kind[d] {
                DimKind::Forward => 0,
                DimKind::Backward => 1,
                DimKind::Value => 2,
            });
            match h.vb_span.get(d).copied().flatten() {
                Some((_, len)) => {
                    meta.u8(1);
                    meta.u32(len as u32);
                }
                None => {
                    meta.u8(0);
                    meta.u32(0);
                }
            }
        }
        for d in 0..h.dims {
            meta.f64(h.dim_expectation.get(d).copied().unwrap_or(0.0));
        }
        meta.f64(h.total_mass);
        for &f in h.frac.iter() {
            frac.f64(f);
        }
        for &v in h.lo.iter() {
            lo.u32(v);
        }
        for &v in h.hi.iter() {
            hi.u32(v);
        }
        for &v in h.mean.iter() {
            mean.f64(v);
        }
        for &v in h.lo_t.iter() {
            lo_t.f64(v);
        }
        for &v in h.hi_t.iter() {
            hi_t.f64(v);
        }
        for &v in h.vb_lo.iter() {
            vb_lo.i64(v);
        }
        for &v in h.vb_hi.iter() {
            vb_hi.i64(v);
        }
    }
    let vs = &cs.cols.values;
    for span in &vs.spans {
        match span {
            Some(v) => {
                meta.u8(1);
                meta.u32(v.budget);
                meta.u64(v.total);
                meta.u32(v.end.saturating_sub(v.start) as u32);
            }
            None => meta.u8(0),
        }
    }
    for &(lo, hi, count, distinct) in &vs.buckets {
        meta.i64(lo);
        meta.i64(hi);
        meta.u64(count);
        meta.u64(distinct);
    }
    vec![
        (section::META, meta.buf),
        (section::FRAC, frac.buf),
        (section::LO, lo.buf),
        (section::HI, hi.buf),
        (section::MEAN, mean.buf),
        (section::LO_T, lo_t.buf),
        (section::HI_T, hi_t.buf),
        (section::VB_LO, vb_lo.buf),
        (section::VB_HI, vb_hi.buf),
    ]
}

/// Lays out `bodies` behind the header and a CRC'd section table.
fn assemble(bodies: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_len = bodies.len() * TABLE_ENTRY_LEN;
    let mut pos = V3_HEADER_LEN + table_len;
    let mut table = W { buf: Vec::new() };
    let mut payload = Vec::new();
    for (id, body) in bodies {
        let aligned = pos.next_multiple_of(8);
        payload.resize(payload.len() + (aligned - pos), 0);
        table.u32(*id);
        table.u32(0);
        table.u64(aligned as u64);
        table.u64(body.len() as u64);
        table.u64(snapshot_checksum(body));
        payload.extend_from_slice(body);
        pos = aligned + body.len();
    }
    let mut out = W {
        buf: Vec::with_capacity(pos),
    };
    out.buf.extend_from_slice(MAGIC);
    out.u32(V3_VERSION);
    out.u64(pos as u64);
    out.u32(bodies.len() as u32);
    out.u32(0);
    out.u64(snapshot_checksum(&table.buf));
    out.buf.extend_from_slice(&table.buf);
    out.buf.extend_from_slice(&payload);
    out.buf
}

/// Serializes `s` as v3 and writes it crash-safely (tmp + fsync +
/// rename, like [`write_snapshot_atomic`](super::write_snapshot_atomic)).
/// Returns the snapshot size in bytes.
pub fn write_snapshot_v3(path: &Path, s: &Synopsis) -> Result<usize, SnapshotError> {
    write_snapshot_v3_in(&super::vfs::StdVfs, path, s)
}

/// [`write_snapshot_v3`] through an explicit [`Vfs`](super::vfs::Vfs).
pub fn write_snapshot_v3_in(
    fs: &dyn super::vfs::Vfs,
    path: &Path,
    s: &Synopsis,
) -> Result<usize, SnapshotError> {
    let bytes = save_synopsis_v3(s);
    super::write_bytes_atomic_in(fs, path, &bytes)?;
    Ok(bytes.len())
}

// ---------------------------------------------------------------------
// Loader.
// ---------------------------------------------------------------------

/// One parsed section-table entry.
#[derive(Clone, Copy)]
pub(crate) struct Section {
    pub(crate) off: usize,
    pub(crate) len: usize,
    crc: u64,
}

/// The parsed header + section table of a v3 arena, with the header,
/// table CRC, and bounds/alignment of every section already validated.
pub(crate) struct ArenaIndex {
    sections: [Section; SECTIONS],
}

/// Number of sections in a v3 arena.
const SECTIONS: usize = section::ALL.len();

impl ArenaIndex {
    pub(crate) fn get(&self, id: u32) -> Section {
        // Ids are 1-based and dense; `parse` guarantees presence.
        self.sections[(id as usize).saturating_sub(1).min(SECTIONS - 1)]
    }
}

fn decode_err(offset: usize, message: impl Into<String>) -> SnapshotError {
    SnapshotError::Decode {
        offset,
        message: message.into(),
    }
}

/// Validates the fixed header and section table of `bytes` (exact
/// truncation/trailing accounting, table CRC, per-section bounds and
/// 8-byte alignment, all nine sections present exactly once).
pub(crate) fn parse_arena(bytes: &[u8]) -> Result<ArenaIndex, SnapshotError> {
    if bytes.len() < 8 {
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
    if version != V3_VERSION {
        return Err(SnapshotError::UnsupportedVersion { version });
    }
    if bytes.len() < V3_HEADER_LEN {
        return Err(SnapshotError::Truncated {
            expected: V3_HEADER_LEN,
            actual: bytes.len(),
        });
    }
    let mut r = super::R {
        buf: bytes,
        pos: 8,
        base: 0,
    };
    let total_len = r.u64()? as usize;
    let section_count = r.u32()? as usize;
    let _reserved = r.u32()?;
    let table_crc = r.u64()?;
    if bytes.len() < total_len {
        return Err(SnapshotError::Truncated {
            expected: total_len,
            actual: bytes.len(),
        });
    }
    if bytes.len() > total_len {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - total_len,
        });
    }
    if section_count != section::ALL.len() {
        return Err(decode_err(
            16,
            format!(
                "expected {} sections, header names {section_count}",
                section::ALL.len()
            ),
        ));
    }
    let table_end = match V3_HEADER_LEN.checked_add(section_count * TABLE_ENTRY_LEN) {
        Some(e) if e <= total_len => e,
        _ => return Err(decode_err(16, "section table exceeds file")),
    };
    let computed = snapshot_checksum(&bytes[V3_HEADER_LEN..table_end]);
    if computed != table_crc {
        return Err(SnapshotError::ChecksumMismatch {
            stored: table_crc,
            computed,
        });
    }
    let placeholder = Section {
        off: 0,
        len: 0,
        crc: 0,
    };
    let mut sections = [None::<Section>; SECTIONS];
    for i in 0..section_count {
        let entry_at = V3_HEADER_LEN + i * TABLE_ENTRY_LEN;
        let mut e = super::R {
            buf: bytes,
            pos: entry_at,
            base: 0,
        };
        let id = e.u32()?;
        let _pad = e.u32()?;
        let off = e.u64()? as usize;
        let len = e.u64()? as usize;
        let crc = e.u64()?;
        let slot = match section::ALL.iter().position(|&s| s == id) {
            Some(p) => p,
            None => return Err(decode_err(entry_at, format!("unknown section id {id}"))),
        };
        if sections[slot].is_some() {
            return Err(decode_err(entry_at, format!("duplicate section id {id}")));
        }
        let window_ok = off.is_multiple_of(8)
            && off >= table_end
            && off.checked_add(len).is_some_and(|end| end <= total_len);
        if !window_ok {
            return Err(decode_err(
                entry_at,
                format!("section {id} window [{off}, {off}+{len}) invalid"),
            ));
        }
        sections[slot] = Some(Section { off, len, crc });
    }
    let mut out = [placeholder; SECTIONS];
    for (i, s) in sections.iter().enumerate() {
        match s {
            Some(s) => out[i] = *s,
            None => {
                return Err(decode_err(
                    V3_HEADER_LEN,
                    format!("missing section id {}", section::ALL[i]),
                ))
            }
        }
    }
    Ok(ArenaIndex { sections: out })
}

/// Verifies a section's stored CRC against its bytes.
fn check_section(bytes: &[u8], id: u32, s: Section) -> Result<(), SnapshotError> {
    let window = bytes
        .get(s.off..s.off + s.len)
        .ok_or_else(|| decode_err(s.off, format!("section {id} out of bounds")))?;
    let computed = snapshot_checksum(window);
    if computed != s.crc {
        return Err(SnapshotError::ChecksumMismatch {
            stored: s.crc,
            computed,
        });
    }
    Ok(())
}

/// Full-file integrity check: header, table CRC, the stored CRC of
/// **every** section (including the bucket columns a zero-copy load
/// deliberately skips), and the zero alignment padding between
/// sections. This is the fsck-path complement to
/// [`load_compiled_snapshot`]; any single-bit flip anywhere in the file
/// fails here with a typed error.
pub fn verify_snapshot_v3(bytes: &[u8]) -> Result<(), SnapshotError> {
    verified_index(bytes).map(|_| ())
}

/// [`verify_snapshot_v3`], handing back the checked section index.
fn verified_index(bytes: &[u8]) -> Result<ArenaIndex, SnapshotError> {
    let idx = parse_arena(bytes)?;
    for (i, &id) in section::ALL.iter().enumerate() {
        check_section(bytes, id, idx.sections[i])?;
    }
    // Padding lies outside every CRC, and the writer only emits zeros.
    let mut windows = idx.sections.map(|s| (s.off, s.off + s.len));
    windows.sort_unstable();
    let mut pos = V3_HEADER_LEN + SECTIONS * TABLE_ENTRY_LEN;
    for (start, end) in windows.into_iter().chain([(bytes.len(), bytes.len())]) {
        if let Some(gap) = bytes.get(pos..start) {
            if let Some(i) = gap.iter().position(|&b| b != 0) {
                return Err(decode_err(pos + i, "nonzero section padding"));
            }
        }
        pos = pos.max(end);
    }
    Ok(idx)
}

/// Decodes a v3 snapshot into an estimation-only [`Synopsis`] — the v3
/// arm of [`load_synopsis`](super::load_synopsis): a full CRC sweep, a
/// carve, and a rebuild from the columns.
pub(crate) fn load_synopsis_v3(bytes: &[u8]) -> Result<Synopsis, SnapshotError> {
    let arena = Arc::new(AlignedBytes::from_bytes(bytes));
    Ok(load_compiled_arena_verified(arena)?.to_synopsis())
}

/// Decodes `count` little-endian `N`-byte elements off the cursor: one
/// bounds check, then straight-line `from_le_bytes` over `chunks_exact`
/// (which the compiler vectorizes), instead of a checked reader call per
/// element. The bounds check precedes the allocation, so a corrupt count
/// cannot force an absurd one.
fn bulk<T, const N: usize>(
    r: &mut super::R<'_>,
    count: usize,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, SnapshotError> {
    let at = r.base + r.pos;
    let len = count
        .checked_mul(N)
        .ok_or_else(|| decode_err(at, "array length overflows"))?;
    Ok(r.take(len)?
        .chunks_exact(N)
        .map(|c| {
            let mut b = [0u8; N];
            b.copy_from_slice(c);
            decode(b)
        })
        .collect())
}

/// Loads a v3 snapshot zero-copy from an aligned arena.
///
/// Work performed: header + section-table + `META` CRC validation, then
/// an O(nodes + edges + dims + value buckets) walk of `META` that
/// rebuilds the structural columns, validates every id serving indexes
/// with, and carves [`Lane`] views into the bucket columns. No edge
/// histogram bucket is deserialized. The returned synopsis holds an
/// `Arc` to the arena, so it is self-contained (`'static`).
pub fn load_compiled_arena(
    arena: Arc<AlignedBytes>,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let idx = parse_arena(arena.bytes())?;
    check_section(arena.bytes(), section::META, idx.get(section::META))?;
    carve(arena, &idx)
}

/// The `META` walk of [`load_compiled_arena`] over an arena whose header,
/// table and `META` CRC `idx` already vouches for.
fn carve(
    arena: Arc<AlignedBytes>,
    idx: &ArenaIndex,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let bytes = arena.bytes();
    let bytes_len = arena.len();
    let meta_s = idx.get(section::META);
    let meta = bytes
        .get(meta_s.off..meta_s.off + meta_s.len)
        .ok_or_else(|| decode_err(meta_s.off, "meta section out of bounds"))?;
    let mut r = super::R {
        buf: meta,
        pos: 0,
        base: meta_s.off,
    };
    let n = r.u32()? as usize;
    let e = r.u32()? as usize;
    let root = SynId(r.u32()?);
    let max_depth = r.u32()? as usize;
    let counts = bulk(&mut r, n, u64::from_le_bytes)?;
    let edge_off = bulk(&mut r, n + 1, |c| u64::from_le_bytes(c) as usize)?;
    let edge_child = bulk(&mut r, e, |c| SynId(u32::from_le_bytes(c)))?;
    let edge_avg = bulk(&mut r, e, f64::from_le_bytes)?;
    let edge_child_count = bulk(&mut r, e, u64::from_le_bytes)?;
    let edge_parent_count = bulk(&mut r, e, u64::from_le_bytes)?;
    let node_label = bulk(&mut r, n, u16::from_le_bytes)?;
    let label_count = r.u32()? as usize;
    let label_ends = bulk(&mut r, label_count, |c| u32::from_le_bytes(c) as usize)?;
    let text_at = r.base + r.pos;
    let text_len = label_ends.last().copied().unwrap_or(0);
    let text = std::str::from_utf8(r.take(text_len)?)
        .map_err(|_| decode_err(text_at, "invalid UTF-8 in label names"))?;
    let at = meta_s.off;
    if edge_off.first() != Some(&0)
        || edge_off.last() != Some(&e)
        || edge_off.windows(2).any(|w| w[0] > w[1])
    {
        return Err(decode_err(at, "corrupt CSR offsets"));
    }
    if root.index() >= n {
        return Err(decode_err(at, "root out of range"));
    }
    if edge_child.iter().any(|c| c.index() >= n) {
        return Err(decode_err(at, "edge endpoint out of range"));
    }
    // Rows must be strictly ascending: expansion walks them as
    // `children_of` and `avg_children` binary-searches them.
    if edge_off
        .windows(2)
        .any(|w| edge_child[w[0]..w[1]].windows(2).any(|p| p[0] >= p[1]))
    {
        return Err(decode_err(at, "CSR row not strictly ascending"));
    }
    if label_ends.windows(2).any(|w| w[0] > w[1])
        || !label_ends.iter().all(|&o| text.is_char_boundary(o))
    {
        return Err(decode_err(text_at, "corrupt label offsets"));
    }
    if node_label.iter().any(|&l| usize::from(l) >= label_count) {
        return Err(decode_err(at, "node label out of range"));
    }

    let lane = |id: u32, elem_off: usize, len: usize, elem_size: usize| -> Option<(usize, usize)> {
        let s = idx.get(id);
        let byte_off = s.off.checked_add(elem_off.checked_mul(elem_size)?)?;
        let end = byte_off.checked_add(len.checked_mul(elem_size)?)?;
        if end > s.off + s.len || end > bytes_len {
            return None;
        }
        Some((byte_off, len))
    };
    let mapped_f64 = |id: u32, elem_off: usize, len: usize| -> Option<Lane<f64>> {
        let (off, len) = lane(id, elem_off, len, 8)?;
        Lane::mapped(&arena, off, len)
    };
    let mapped_u32 = |id: u32, elem_off: usize, len: usize| -> Option<Lane<u32>> {
        let (off, len) = lane(id, elem_off, len, 4)?;
        Lane::mapped(&arena, off, len)
    };
    let mapped_i64 = |id: u32, elem_off: usize, len: usize| -> Option<Lane<i64>> {
        let (off, len) = lane(id, elem_off, len, 8)?;
        Lane::mapped(&arena, off, len)
    };

    let mut hists = Vec::with_capacity(n);
    let mut frac_pos = 0usize; // elements into FRAC
    let mut row_pos = 0usize; // elements into LO/HI/MEAN/LO_T/HI_T
    let mut vb_pos = 0usize; // elements into VB_LO/VB_HI
    for _ in 0..n {
        let dims = r.u16()? as usize;
        let nb = r.u32()? as usize;
        let budget_bytes = r.u32()?;
        let distinct_points = r.u32()?;
        let mut dim_parent = Vec::with_capacity(dims);
        let mut dim_child = Vec::with_capacity(dims);
        let mut dim_kind = Vec::with_capacity(dims);
        let mut vb_span = Vec::with_capacity(dims);
        let mut vb_local = 0usize;
        for _ in 0..dims {
            let (parent, child) = (SynId(r.u32()?), SynId(r.u32()?));
            if parent.index() >= n || child.index() >= n {
                return Err(decode_err(
                    r.base + r.pos,
                    "scope dim endpoint out of range",
                ));
            }
            dim_parent.push(parent);
            dim_child.push(child);
            dim_kind.push(match r.u8()? {
                0 => DimKind::Forward,
                1 => DimKind::Backward,
                2 => DimKind::Value,
                k => return Err(decode_err(r.base + r.pos, format!("unknown dim kind {k}"))),
            });
            let present = r.u8()?;
            let vb_len = r.u32()? as usize;
            if present == 0 {
                vb_span.push(None);
            } else {
                vb_span.push(Some((vb_local, vb_len)));
                vb_local += vb_len;
            }
        }
        let dim_expectation = bulk(&mut r, dims, f64::from_le_bytes)?;
        let total_mass = r.f64()?;
        let cells = nb
            .checked_mul(dims)
            .ok_or_else(|| decode_err(r.base + r.pos, "bucket grid overflows"))?;
        let oob = || decode_err(r.base + r.pos, "histogram lane exceeds its section");
        hists.push(CompiledHistogram {
            dims,
            dim_parent,
            dim_child,
            dim_kind,
            frac: mapped_f64(section::FRAC, frac_pos, nb).ok_or_else(oob)?,
            lo: mapped_u32(section::LO, row_pos, cells).ok_or_else(oob)?,
            hi: mapped_u32(section::HI, row_pos, cells).ok_or_else(oob)?,
            mean: mapped_f64(section::MEAN, row_pos, cells).ok_or_else(oob)?,
            vb_span,
            vb_lo: mapped_i64(section::VB_LO, vb_pos, vb_local).ok_or_else(oob)?,
            vb_hi: mapped_i64(section::VB_HI, vb_pos, vb_local).ok_or_else(oob)?,
            lo_t: mapped_f64(section::LO_T, row_pos, cells).ok_or_else(oob)?,
            hi_t: mapped_f64(section::HI_T, row_pos, cells).ok_or_else(oob)?,
            dim_expectation,
            total_mass,
            budget_bytes,
            distinct_points,
        });
        frac_pos += nb;
        row_pos += cells;
        vb_pos += vb_local;
    }

    // Value summaries: per-node heads, then one bulk bucket block whose
    // row count the heads' spans must add up to exactly.
    let mut spans = Vec::with_capacity(n);
    let mut rows = 0usize;
    for _ in 0..n {
        if r.u8()? == 0 {
            spans.push(None);
        } else {
            let budget = r.u32()?;
            let total = r.u64()?;
            let start = rows;
            rows = rows.saturating_add(r.u32()? as usize);
            spans.push(Some(ValueSpan {
                start,
                end: rows,
                total,
                budget,
            }));
        }
    }
    let buckets = bulk(&mut r, rows, |c: [u8; VALUE_BUCKET_LEN]| {
        let field = |k: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&c[8 * k..8 * k + 8]);
            b
        };
        (
            i64::from_le_bytes(field(0)),
            i64::from_le_bytes(field(1)),
            u64::from_le_bytes(field(2)),
            u64::from_le_bytes(field(3)),
        )
    })?;
    let values = ValueColumns { spans, buckets };
    if r.pos != meta.len() {
        return Err(decode_err(r.base + r.pos, "trailing bytes in meta section"));
    }

    let cols = Columns {
        root,
        max_depth,
        counts,
        node_label,
        labels: LabelNames {
            text: text.to_owned(),
            ends: label_ends,
        },
        edge_off,
        edge_child,
        edge_avg,
        edge_child_count,
        edge_parent_count,
        values,
    };
    Ok(CompiledSynopsis::from_columns(cols, hists))
}

/// Loads a v3 snapshot from raw bytes: one aligned copy into a private
/// arena, then [`load_compiled_arena`]. (The copy stands in for the
/// page cache; an mmap-backed caller would hand the mapping to
/// [`load_compiled_arena`] directly.)
pub fn load_compiled_snapshot(bytes: &[u8]) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    load_compiled_arena(Arc::new(AlignedBytes::from_bytes(bytes)))
}

/// [`load_compiled_arena`] preceded by a full per-section CRC sweep.
///
/// The zero-copy load deliberately validates only header + table +
/// `META`; the bucket columns it maps are never checksummed on the fast
/// path. Serving surfaces that fault in snapshots from disk they do not
/// trust (the multi-tenant catalog) use this variant instead, so a
/// flipped bit in *any* section — including the mapped bucket payload —
/// surfaces as a typed [`SnapshotError`] before a single estimate is
/// computed from it. The sweep covers `META`, so the carve does not
/// checksum it a second time.
pub fn load_compiled_arena_verified(
    arena: Arc<AlignedBytes>,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let idx = verified_index(arena.bytes())?;
    carve(arena, &idx)
}

/// Reads and zero-copy-loads a v3 snapshot file, mapping filesystem
/// failures exactly like [`read_snapshot`](super::read_snapshot).
pub fn read_compiled_snapshot(path: &Path) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    read_compiled_snapshot_in(&super::vfs::StdVfs, path, false)
}

/// [`read_compiled_snapshot`] through an explicit [`Vfs`](super::vfs::Vfs),
/// optionally running the full per-section CRC sweep (`verified`)
/// before handing out mapped bucket columns.
pub fn read_compiled_snapshot_in(
    fs: &dyn super::vfs::Vfs,
    path: &Path,
    verified: bool,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let shown = path.display().to_string();
    let meta = fs.metadata(path).map_err(|e| SnapshotError::Io {
        path: shown.clone(),
        cause: e.to_string(),
    })?;
    if meta.is_dir {
        return Err(SnapshotError::IsDirectory { path: shown });
    }
    let arena = fs.read_aligned(path).map_err(|e| SnapshotError::Io {
        path: shown,
        cause: e.to_string(),
    })?;
    if verified {
        load_compiled_arena_verified(Arc::new(arena))
    } else {
        load_compiled_arena(Arc::new(arena))
    }
}

/// v3 images of a built synopsis, each with exactly one id that serving
/// indexes with pushed out of range and every CRC recomputed, named by
/// the corrupted field. Every one must fail the carve typed.
#[cfg(test)]
pub(crate) fn out_of_range_images() -> Vec<(&'static str, Vec<u8>)> {
    let s = tests::built_synopsis();
    let n = s.node_count() as u32;
    let image = |mutate: &dyn Fn(&mut CompiledSynopsis<'_>)| {
        let mut cs = CompiledSynopsis::compile(&s);
        mutate(&mut cs);
        assemble(&sections(&cs))
    };
    let with_dims = |cs: &CompiledSynopsis<'_>| cs.hists.iter().position(|h| h.dims > 0);
    let valued = |cs: &CompiledSynopsis<'_>| cs.cols.values.spans.iter().position(Option::is_some);
    let probe = CompiledSynopsis::compile(&s);
    assert!(!probe.cols.edge_child.is_empty() && with_dims(&probe).is_some());
    assert!(valued(&probe).is_some(), "the corpus needs a value summary");
    vec![
        ("root", image(&|cs| cs.cols.root = SynId(n))),
        ("edge_child", image(&|cs| cs.cols.edge_child[0] = SynId(n))),
        (
            "dim_parent",
            image(&|cs| {
                if let Some(k) = with_dims(cs) {
                    cs.hists[k].dim_parent[0] = SynId(n);
                }
            }),
        ),
        (
            "dim_child",
            image(&|cs| {
                if let Some(k) = with_dims(cs) {
                    cs.hists[k].dim_child[0] = SynId(n);
                }
            }),
        ),
        (
            "node_label",
            image(&|cs| cs.cols.node_label[0] = cs.cols.labels.len() as u16),
        ),
        (
            // One more bucket row than the value-summary block holds.
            "value_span",
            image(&|cs| {
                if let Some(span) = valued(cs).and_then(|k| cs.cols.values.spans[k].as_mut()) {
                    span.end += 1;
                }
            }),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{xbuild, BuildOptions, TruthSource};
    use crate::estimate::EstimateOptions;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    pub(super) fn built_synopsis() -> Synopsis {
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
        s
    }

    const QUERIES: [&str; 4] = [
        "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/keyword",
        "for $t0 in //author[book], $t1 in $t0/name",
        "for $t0 in //paper[year > 2000], $t1 in $t0/title",
        "for $t0 in //keyword",
    ];

    #[test]
    fn v3_roundtrip_is_bit_identical_to_compiled() {
        let s = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        let owned = CompiledSynopsis::compile(&s);
        let mapped = load_compiled_snapshot(&bytes).unwrap();
        let opts = EstimateOptions::default();
        for text in QUERIES {
            let q = parse_twig(text).unwrap();
            let a = owned.estimate_report(&q, &opts);
            let b = mapped.estimate_report(&q, &opts);
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{text}: owned {} vs mapped {}",
                a.estimate,
                b.estimate
            );
        }
        // The mapped load is a new generation.
        assert!(mapped.epoch() > owned.epoch());
    }

    #[test]
    fn v3_loads_as_a_synopsis() {
        let s = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        let loaded = super::super::load_synopsis(&bytes).unwrap();
        assert_eq!(loaded.node_count(), s.node_count());
        assert_eq!(loaded.size_bytes(), s.size_bytes());
    }

    #[test]
    fn v3_writer_is_deterministic_and_aligned() {
        let s = built_synopsis();
        let a = save_synopsis_v3(&s);
        let b = save_synopsis_v3(&s);
        assert_eq!(a, b);
        let idx = parse_arena(&a).unwrap();
        for sec in idx.sections {
            assert_eq!(sec.off % 8, 0);
        }
        verify_snapshot_v3(&a).unwrap();
    }

    #[test]
    fn v3_truncations_and_corruption_are_typed() {
        let s = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        for cut in (0..bytes.len()).step_by(7) {
            assert!(load_compiled_snapshot(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            load_compiled_snapshot(&bad),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        ));
        // A flip in the section table breaks the table CRC.
        let mut bad = bytes.clone();
        bad[V3_HEADER_LEN + 1] ^= 0x40;
        assert!(matches!(
            load_compiled_snapshot(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // verify() catches a flip anywhere, including the lanes a load
        // deliberately does not scan.
        for pos in (0..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(verify_snapshot_v3(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn every_flipped_bit_in_every_section_is_rejected_by_verified_load() {
        // Corruption corpus for the catalog fault-in path: the plain
        // zero-copy load validates header + table + META only, so a
        // flipped bit in a mapped bucket column would silently skew
        // estimates. The *verified* load must reject every single-bit
        // flip in every section with a typed error — never serve it.
        let s = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        let idx = parse_arena(&bytes).unwrap();
        let mut exercised = 0usize;
        for (slot, &id) in section::ALL.iter().enumerate() {
            let sec = idx.sections[slot];
            if sec.len == 0 {
                // Value-bucket boundary lanes may legitimately be empty
                // for this corpus document; the non-empty majority below
                // keeps the test from going vacuous.
                continue;
            }
            exercised += 1;
            let mut rejected = 0usize;
            for pos in sec.off..sec.off + sec.len {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[pos] ^= 1 << bit;
                    let arena = Arc::new(AlignedBytes::from_bytes(&bad));
                    match load_compiled_arena_verified(arena) {
                        Err(_) => rejected += 1,
                        Ok(_) => panic!("section {id}: flip at byte {pos} bit {bit} served"),
                    }
                }
            }
            assert_eq!(rejected, sec.len * 8, "section {id}");
        }
        // Every section but the two value-bucket lanes.
        assert!(
            exercised >= section::ALL.len() - 2,
            "only {exercised} non-empty sections"
        );
    }

    #[test]
    fn verified_read_rejects_bucket_rot_the_fast_load_accepts() {
        let s = built_synopsis();
        let bytes = save_synopsis_v3(&s);
        let idx = parse_arena(&bytes).unwrap();
        // Flip one bit inside the fraction lane (a section the fast
        // load never checksums) and show the split: fast load serves
        // it, verified load refuses with a typed checksum error.
        let sec = idx.get(section::FRAC);
        let mut bad = bytes.clone();
        bad[sec.off] ^= 0x10;
        assert!(load_compiled_snapshot(&bad).is_ok());
        let dir = std::env::temp_dir().join(format!("xtwig-v3-verified-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rot.xtwg");
        std::fs::write(&path, &bad).unwrap();
        let fs = super::super::vfs::StdVfs;
        assert!(read_compiled_snapshot_in(&fs, &path, false).is_ok());
        assert!(matches!(
            read_compiled_snapshot_in(&fs, &path, true),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The pristine file passes the verified read.
        std::fs::write(&path, &bytes).unwrap();
        read_compiled_snapshot_in(&fs, &path, true).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_range_ids_fail_the_carve_typed() {
        for (field, bytes) in out_of_range_images() {
            // Every CRC is valid, so the full sweep passes and only the
            // carve can catch the bad id.
            verify_snapshot_v3(&bytes).unwrap();
            let expected = match field {
                "root" => "root out of range",
                "edge_child" => "edge endpoint out of range",
                "dim_parent" | "dim_child" => "scope dim endpoint out of range",
                "node_label" => "node label out of range",
                _ => "unexpected end of snapshot",
            };
            match load_compiled_snapshot(&bytes) {
                Err(SnapshotError::Decode { message, .. }) => {
                    assert_eq!(message, expected, "{field}");
                }
                other => panic!("{field}: expected a typed decode error, got {other:?}"),
            }
            assert!(super::super::load_synopsis(&bytes).is_err(), "{field}");
        }
    }

    #[test]
    fn retired_synopsis_section_is_rejected() {
        // Earlier v3 writers appended the v2 payload as section id 10.
        let s = built_synopsis();
        let mut bodies = sections(&CompiledSynopsis::compile(&s));
        let payload = super::super::save_payload(&s);
        let mut extra = bodies.clone();
        extra.push((10, payload.clone()));
        let mut swapped = bodies.clone();
        if let Some(last) = swapped.last_mut() {
            *last = (10, payload);
        }
        for (what, image) in [("appended", extra), ("in place of VB_HI", swapped)] {
            match load_compiled_snapshot(&assemble(&image)) {
                Err(SnapshotError::Decode { .. }) => {}
                other => panic!("SYNOPSIS section {what}: got {other:?}"),
            }
        }
        bodies.truncate(section::ALL.len());
        load_compiled_snapshot(&assemble(&bodies)).unwrap();
    }

    #[test]
    fn v2_bytes_are_not_a_v3_snapshot() {
        let s = built_synopsis();
        let v2 = super::super::save_synopsis(&s);
        assert!(matches!(
            load_compiled_snapshot(&v2),
            Err(SnapshotError::UnsupportedVersion { version: 2 })
        ));
    }
}
