//! Snapshot format v3, the one snapshot format: a flat little-endian
//! arena a compiled synopsis is **bulk-decoded** from, standing alone.
//!
//! v3 serializes the *compiled* layout rather than the pointer-rich
//! [`Synopsis`]: each flat histogram column is one 8-byte-aligned
//! section, so a load is header + CRC validation, one O(nodes + edges +
//! dims + value buckets) walk of `META`, and one bulk decode per column
//! — a fixed number of allocations, however many nodes the synopsis
//! has, and no per-bucket decode or recompile on a cold fault-in.
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
//!   1 META      structure, labels, value summaries, histogram heads
//!   2 FRAC      f64 × Σ buckets          bucket masses
//!   3 LO        u32 × Σ buckets·dims     bucket-major lower bounds
//!   4 HI        u32 × Σ buckets·dims     bucket-major upper bounds
//!   5 MEAN      f64 × Σ buckets·dims     bucket-major means
//!   6 VB_LO     i64 × Σ value buckets    flattened value-bucket lows
//!   7 VB_HI     i64 × Σ value buckets    flattened value-bucket highs
//!
//! META:
//!   nodes u32 | edges u32 | root u32 | max_depth u32
//!   counts u64 × nodes | edge_off u64 × (nodes + 1)
//!   edge_child u32 × edges | edge_avg f64 × edges
//!   edge child_count u64 × edges | edge parent_count u64 × edges
//!   node label u16 × nodes
//!   labels u32 | label name end u32 × labels | label names (UTF-8)
//!   per node, its edge histogram head:
//!     dims u16 | buckets u32 | budget u32 | distinct points u32
//!     per dim: parent u32 | child u32 | kind u8 | has value buckets u8
//!              | value buckets u32
//!     expectation f64 × dims | total mass f64
//!   per node, its value summary: present u8
//!     [budget u32 | total u64 | buckets u32]
//!   value-summary buckets: lo i64 | hi i64 | count u64 | distinct u64
//! ```
//!
//! `META` holds every fact of a synopsis that is not a bucket column:
//! the CSR adjacency with per-edge counts and precomputed Forward
//! Uniformity averages, per-node labels and the label-name table, per
//! histogram its dimension table, bucket count, value-bucket spans,
//! budget, precomputed marginal expectations and total mass, and the
//! per-node 1-D value summaries. The carve walks it once, filling the
//! structural columns and the histogram heads and tallying how many rows
//! the heads claim of each column; each tally is checked against its
//! section's length once, and then each column section is decoded in
//! bulk into its owned column. The dimension-major `f64` bound
//! transposes the vectorized kernels stream are not stored: `LO`/`HI`
//! determine them, and the carve rebuilds them in one pass. The carve
//! validates every id serving indexes with — root, edge endpoints,
//! strictly ascending CSR rows, dimension endpoints, node labels,
//! value-summary spans — so a CRC-valid but inconsistent file fails
//! typed instead of panicking mid-estimate.
//! [`load_synopsis`](super::load_synopsis) rebuilds an estimation-only
//! [`Synopsis`] from the same columns.
//!
//! **Validation split.** [`load_compiled_snapshot`] (and
//! [`load_compiled_arena`]) verify the header, the section-table CRC and
//! the `META` CRC, then carve; they decode the column sections without
//! checksumming them. [`verify_snapshot_v3`] checks every section's CRC
//! and the zero padding between sections, and
//! [`read_compiled_snapshot_in`] — behind the catalog fault-in — runs
//! that full sweep before the carve, as do [`load_synopsis`](super::load_synopsis),
//! [`read_snapshot`](super::read_snapshot) and the catalog's hot reload,
//! so a flipped bit anywhere in the file fails typed before a single
//! estimate is computed from it. A prefix too short to hold the header
//! reports [`Truncated`](SnapshotError::Truncated) against
//! [`V3_HEADER_LEN`], and any version but 3 (the retired v1 and v2
//! included) [`UnsupportedVersion`](SnapshotError::UnsupportedVersion).

use std::path::Path;
use std::sync::Arc;

use super::pod::AlignedBytes;
use super::vfs::{Vfs, VfsMetadata};
use super::{snapshot_checksum, SnapshotError, MAGIC, V3_VERSION, W};
use crate::compiled::{
    Columns, CompiledSynopsis, HistColumns, HistHead, LabelNames, ValueColumns, ValueSpan,
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

/// `META` bytes per histogram head besides its dimensions: dims (2) +
/// buckets (4) + budget (4) + distinct points (4) + total mass (8).
const HEAD_META_LEN: usize = 22;

/// `META` bytes per scope dimension: parent (4) + child (4) + kind (1) +
/// has value buckets (1) + value buckets (4) + expectation (8).
const DIM_META_LEN: usize = 22;

/// Section ids, dense and in file order.
pub(crate) mod section {
    pub const META: u32 = 1;
    pub const FRAC: u32 = 2;
    pub const LO: u32 = 3;
    pub const HI: u32 = 4;
    pub const MEAN: u32 = 5;
    pub const VB_LO: u32 = 6;
    pub const VB_HI: u32 = 7;
    pub const ALL: [u32; 7] = [META, FRAC, LO, HI, MEAN, VB_LO, VB_HI];
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

/// Serializes `s` to a version-3 arena snapshot.
///
/// The synopsis is compiled first (the same lowering a server performs)
/// and the compiled columns are written verbatim, so a load of the
/// result reconstructs bit-identical state — including the precomputed
/// `edge_avg` and `dim_expectation`, which are stored rather than
/// recomputed. The bound transposes are rebuilt at load, exactly.
pub fn save_synopsis_v3(s: &Synopsis) -> Vec<u8> {
    assemble(&sections(&CompiledSynopsis::compile(s)))
}

/// `col` as little-endian bytes.
fn le_column<T: Copy, const N: usize>(col: &[T], encode: impl Fn(T) -> [u8; N]) -> Vec<u8> {
    let mut out = Vec::with_capacity(col.len() * N);
    for &v in col {
        out.extend_from_slice(&encode(v));
    }
    out
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
    let h = &cs.hists;
    for head in &h.heads {
        meta.u16(head.dims as u16);
        meta.u32(head.buckets as u32);
        meta.u32(head.budget_bytes);
        meta.u32(head.distinct_points);
        let dims = head.dim..head.dim + head.dims;
        for d in dims.clone() {
            meta.u32(h.dim_parent[d].0);
            meta.u32(h.dim_child[d].0);
            meta.u8(match h.dim_kind[d] {
                DimKind::Forward => 0,
                DimKind::Backward => 1,
                DimKind::Value => 2,
            });
            match h.vb_span[d] {
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
        for &e in &h.dim_expectation[dims] {
            meta.f64(e);
        }
        meta.f64(head.total_mass);
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
        (section::FRAC, le_column(&h.frac, f64::to_le_bytes)),
        (section::LO, le_column(&h.lo, u32::to_le_bytes)),
        (section::HI, le_column(&h.hi, u32::to_le_bytes)),
        (section::MEAN, le_column(&h.mean, f64::to_le_bytes)),
        (section::VB_LO, le_column(&h.vb_lo, i64::to_le_bytes)),
        (section::VB_HI, le_column(&h.vb_hi, i64::to_le_bytes)),
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
/// truncation/trailing accounting, a zero reserved word, table CRC,
/// per-section bounds and 8-byte alignment, all seven sections present
/// exactly once).
pub(crate) fn parse_arena(bytes: &[u8]) -> Result<ArenaIndex, SnapshotError> {
    if bytes.len() < 8 {
        // Too short to carry magic + version. A prefix of the magic
        // (including zero bytes) is a torn write of our own format and
        // promises the v3 header; anything else is foreign data.
        let n = bytes.len().min(4);
        return if bytes[..n] == MAGIC[..n] {
            Err(SnapshotError::Truncated {
                expected: V3_HEADER_LEN,
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
    let reserved = r.u32()?;
    let table_crc = r.u64()?;
    // No CRC covers the fixed header: every field must be checked.
    if reserved != 0 {
        return Err(decode_err(
            20,
            format!("reserved header word {reserved:#x}"),
        ));
    }
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
/// **every** section (including the columns the fast load decodes
/// unchecked), and the zero alignment padding between sections. This
/// is the fsck-path complement to [`load_compiled_snapshot`]; any
/// single-bit flip anywhere in the file fails here with a typed error.
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

/// Decodes column section `id`, of which the histogram heads claim
/// `count` elements: the claim must fill the section exactly, and then
/// the whole section is decoded in one [`bulk`] pass.
fn column<T, const N: usize>(
    bytes: &[u8],
    idx: &ArenaIndex,
    id: u32,
    count: usize,
    decode: impl Fn([u8; N]) -> T,
) -> Result<Vec<T>, SnapshotError> {
    let s = idx.get(id);
    if count.checked_mul(N) != Some(s.len) {
        return Err(decode_err(
            s.off,
            format!(
                "histogram heads claim {count} rows of section {id}, which holds {}",
                s.len / N
            ),
        ));
    }
    let window = bytes
        .get(s.off..s.off + s.len)
        .ok_or_else(|| decode_err(s.off, format!("section {id} out of bounds")))?;
    let mut r = super::R {
        buf: window,
        pos: 0,
        base: s.off,
    };
    bulk(&mut r, count, decode)
}

/// Loads a v3 snapshot from an arena: [`load_compiled_snapshot`] over
/// its bytes. The synopsis owns its columns and keeps no reference to
/// `arena`.
pub fn load_compiled_arena(
    arena: Arc<AlignedBytes>,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    load_compiled_snapshot(arena.bytes())
}

/// The `META` walk and column decode over `bytes`, whose header, table
/// and `META` CRC `idx` already vouches for.
fn carve(bytes: &[u8], idx: &ArenaIndex) -> Result<CompiledSynopsis<'static>, SnapshotError> {
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

    // Histogram heads. A skip over their dimension counts sizes the
    // per-dimension columns exactly, so the walk that fills them never
    // reallocates; the walk also tallies the rows the heads claim of
    // each column section.
    let heads_at = r.pos;
    let mut dims_total = 0usize;
    for _ in 0..n {
        let dims = usize::from(r.u16()?);
        r.take(HEAD_META_LEN - 2 + dims * DIM_META_LEN)?;
        dims_total += dims;
    }
    r.pos = heads_at;
    let mut h = HistColumns {
        heads: Vec::with_capacity(n),
        dim_parent: Vec::with_capacity(dims_total),
        dim_child: Vec::with_capacity(dims_total),
        dim_kind: Vec::with_capacity(dims_total),
        vb_span: Vec::with_capacity(dims_total),
        dim_expectation: Vec::with_capacity(dims_total),
        ..HistColumns::default()
    };
    let (mut buckets, mut cells, mut vbs) = (0usize, 0usize, 0usize);
    for _ in 0..n {
        let dims = r.u16()? as usize;
        let nb = r.u32()? as usize;
        let budget_bytes = r.u32()?;
        let distinct_points = r.u32()?;
        let dim = h.dim_kind.len();
        let mut local = 0usize;
        for _ in 0..dims {
            let (parent, child) = (SynId(r.u32()?), SynId(r.u32()?));
            if parent.index() >= n || child.index() >= n {
                return Err(decode_err(
                    r.base + r.pos,
                    "scope dim endpoint out of range",
                ));
            }
            h.dim_parent.push(parent);
            h.dim_child.push(child);
            h.dim_kind.push(match r.u8()? {
                0 => DimKind::Forward,
                1 => DimKind::Backward,
                2 => DimKind::Value,
                k => return Err(decode_err(r.base + r.pos, format!("unknown dim kind {k}"))),
            });
            let present = r.u8()? != 0;
            let len = r.u32()? as usize;
            h.vb_span.push(present.then_some((local, len)));
            if present {
                local = local.saturating_add(len);
            }
        }
        for _ in 0..dims {
            h.dim_expectation.push(r.f64()?);
        }
        h.heads.push(HistHead {
            dims,
            buckets: nb,
            value_buckets: local,
            dim,
            bucket: buckets,
            cell: cells,
            vb: vbs,
            total_mass: r.f64()?,
            budget_bytes,
            distinct_points,
        });
        buckets = buckets.saturating_add(nb);
        cells = cells.saturating_add(nb.saturating_mul(dims));
        vbs = vbs.saturating_add(local);
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
    let buckets_block = bulk(&mut r, rows, |c: [u8; VALUE_BUCKET_LEN]| {
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
    let values = ValueColumns {
        spans,
        buckets: buckets_block,
    };
    if r.pos != meta.len() {
        return Err(decode_err(r.base + r.pos, "trailing bytes in meta section"));
    }

    // The columns: each tally checked against its section once, each
    // section decoded in bulk, and the transposes rebuilt from LO/HI.
    h.frac = column(bytes, idx, section::FRAC, buckets, f64::from_le_bytes)?;
    h.lo = column(bytes, idx, section::LO, cells, u32::from_le_bytes)?;
    h.hi = column(bytes, idx, section::HI, cells, u32::from_le_bytes)?;
    h.mean = column(bytes, idx, section::MEAN, cells, f64::from_le_bytes)?;
    h.vb_lo = column(bytes, idx, section::VB_LO, vbs, i64::from_le_bytes)?;
    h.vb_hi = column(bytes, idx, section::VB_HI, vbs, i64::from_le_bytes)?;
    h.build_transposes();

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
    Ok(CompiledSynopsis::from_columns(cols, h))
}

/// Loads a v3 snapshot from raw bytes.
///
/// Work performed: header + section-table + `META` CRC validation, one
/// O(nodes + edges + dims + value buckets) walk of `META` that rebuilds
/// the structural columns and validates every id serving indexes with,
/// then one bulk decode per histogram column and one pass rebuilding
/// the bound transposes. The column sections are decoded but not
/// checksummed; [`read_compiled_snapshot_in`] adds the full sweep.
pub fn load_compiled_snapshot(bytes: &[u8]) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let idx = parse_arena(bytes)?;
    check_section(bytes, section::META, idx.get(section::META))?;
    carve(bytes, &idx)
}

/// The full CRC sweep, then the carve: what every shipped reader runs
/// ([`load_synopsis`](super::load_synopsis), the file reads, the
/// catalog's fault-in and hot reload). The sweep covers `META`, so the
/// carve does not checksum it a second time.
pub(crate) fn load_verified(bytes: &[u8]) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let idx = verified_index(bytes)?;
    carve(bytes, &idx)
}

/// Reads and loads a v3 snapshot file through `fs`, mapping every
/// filesystem failure (missing, directory, unreadable) to a typed
/// error, and running the full per-section CRC sweep before the carve,
/// so a flipped bit anywhere in the file fails typed.
pub fn read_compiled_snapshot_in(
    fs: &dyn Vfs,
    path: &Path,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let meta = fs.metadata(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        cause: e.to_string(),
    })?;
    read_after_stat(fs, path, meta)
}

/// [`read_compiled_snapshot_in`] for a caller that already stat'ed
/// `path` (the catalog fault-in, which tells a missing file apart from
/// a failed stat).
pub(crate) fn read_after_stat(
    fs: &dyn Vfs,
    path: &Path,
    meta: VfsMetadata,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    if meta.is_dir {
        return Err(SnapshotError::IsDirectory {
            path: path.display().to_string(),
        });
    }
    let arena = fs.read_aligned(path).map_err(|e| SnapshotError::Io {
        path: path.display().to_string(),
        cause: e.to_string(),
    })?;
    load_verified(arena.bytes())
}

/// v3 images of a built synopsis, each with exactly one id or row
/// count that serving indexes with pushed out of range and every CRC
/// recomputed, named by the corrupted field. Every one must fail the
/// carve typed.
#[cfg(test)]
pub(crate) fn out_of_range_images() -> Vec<(&'static str, Vec<u8>)> {
    let s = tests::built_synopsis();
    let n = s.node_count() as u32;
    let image = |mutate: &dyn Fn(&mut CompiledSynopsis<'_>)| {
        let mut cs = CompiledSynopsis::compile(&s);
        mutate(&mut cs);
        assemble(&sections(&cs))
    };
    // The first head with a scope dimension and a bucket.
    let with_dims = |cs: &CompiledSynopsis<'_>| {
        (cs.hists.heads.iter()).position(|h| h.dims > 0 && h.buckets > 0)
    };
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
                    let d = cs.hists.heads[k].dim;
                    cs.hists.dim_parent[d] = SynId(n);
                }
            }),
        ),
        (
            "dim_child",
            image(&|cs| {
                if let Some(k) = with_dims(cs) {
                    let d = cs.hists.heads[k].dim;
                    cs.hists.dim_child[d] = SynId(n);
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
        (
            // A head claims one more bucket than FRAC holds.
            "bucket",
            image(&|cs| {
                if let Some(k) = with_dims(cs) {
                    cs.hists.heads[k].buckets += 1;
                }
            }),
        ),
        (
            // The heads claim one more cell than LO holds.
            "cell",
            image(&|cs| {
                cs.hists.lo.pop();
            }),
        ),
        (
            // A head claims one more value-bucket row than VB_LO holds.
            "value_bucket",
            image(&|cs| {
                if let Some(k) = with_dims(cs) {
                    let span = &mut cs.hists.vb_span[cs.hists.heads[k].dim];
                    *span = Some(span.map_or((0, 1), |(start, len)| (start, len + 1)));
                }
            }),
        ),
    ]
}

/// A v3 image of a built synopsis in the previous nine-section layout:
/// the `f64` transposes stored as sections 6 and 7, and the value-bucket
/// columns as 8 and 9. Every loader must refuse it typed.
#[cfg(test)]
pub(crate) fn previous_layout_image() -> Vec<u8> {
    let s = tests::built_synopsis();
    let cs = CompiledSynopsis::compile(&s);
    let mut bodies = sections(&cs);
    let (vb_lo, vb_hi) = (bodies.remove(5).1, bodies.remove(5).1);
    bodies.extend([
        (6, le_column(&cs.hists.lo_t, f64::to_le_bytes)),
        (7, le_column(&cs.hists.hi_t, f64::to_le_bytes)),
        (8, vb_lo),
        (9, vb_hi),
    ]);
    assemble(&bodies)
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
        let loaded = load_compiled_snapshot(&bytes).unwrap();
        let opts = EstimateOptions::default();
        for text in QUERIES {
            let q = parse_twig(text).unwrap();
            let a = owned.estimate_report(&q, &opts);
            let b = loaded.estimate_report(&q, &opts);
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{text}: owned {} vs loaded {}",
                a.estimate,
                b.estimate
            );
        }
        // The load is a new generation.
        assert!(loaded.epoch() > owned.epoch());
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
        // verify() catches a flip anywhere, including the columns a load
        // decodes without checksumming.
        for pos in (0..bytes.len()).step_by(13) {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(verify_snapshot_v3(&bad).is_err(), "flip at {pos}");
        }
        // No CRC covers the fixed header, so each of its fields is
        // checked on its own, the reserved word included, and both loads
        // reject every bit flipped there.
        for pos in 0..V3_HEADER_LEN {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[pos] ^= 1 << bit;
                assert!(
                    load_compiled_snapshot(&bad).is_err(),
                    "byte {pos} bit {bit}"
                );
                assert!(verify_snapshot_v3(&bad).is_err(), "byte {pos} bit {bit}");
            }
        }
        let mut bad = bytes.clone();
        bad[23] ^= 0x80;
        assert!(matches!(
            verify_snapshot_v3(&bad),
            Err(SnapshotError::Decode { offset: 20, .. })
        ));
    }

    #[test]
    fn every_flipped_bit_in_every_section_is_rejected_by_verified_load() {
        // Corruption corpus for the catalog fault-in path: the fast
        // load checksums header + table + META only, so a flipped bit
        // in a bucket column it decodes would silently skew estimates. The *verified* load must reject every single-bit
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
                    match load_verified(&bad) {
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
        // Flip one bit inside the fraction column (a section the fast
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
        assert!(matches!(
            read_compiled_snapshot_in(&fs, &path),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // The pristine file passes the verified read.
        std::fs::write(&path, &bytes).unwrap();
        read_compiled_snapshot_in(&fs, &path).unwrap();
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
                "value_span" => "unexpected end of snapshot",
                // A row-count overrun names the column it overruns.
                "bucket" => "of section 2,",
                "cell" => "of section 3,",
                "value_bucket" => "of section 6,",
                other => panic!("no expectation for {other}"),
            };
            match load_compiled_snapshot(&bytes) {
                Err(SnapshotError::Decode { message, .. }) => {
                    let overrun =
                        message.starts_with("histogram heads claim") && message.contains(expected);
                    assert!(message == expected || overrun, "{field}: {message}");
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
    fn retired_transpose_sections_are_rejected() {
        let image = previous_layout_image();
        let results = [
            load_compiled_snapshot(&image).map(|_| ()),
            verify_snapshot_v3(&image),
            super::super::load_synopsis(&image).map(|_| ()),
        ];
        for result in results {
            match result {
                Err(SnapshotError::Decode { message, .. }) => {
                    assert_eq!(message, "expected 7 sections, header names 9");
                }
                other => panic!("previous layout: got {other:?}"),
            }
        }
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
