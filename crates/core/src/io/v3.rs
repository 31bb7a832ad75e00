//! Snapshot format v3: a flat little-endian arena a compiled synopsis
//! loads from **zero-copy**.
//!
//! Formats v1/v2 serialize the pointer-rich [`Synopsis`] and force every
//! load to decode bucket-by-bucket and then recompile into
//! [`CompiledSynopsis`] form. At catalog scale (thousands of cold
//! tenants paging synopses in and out) that per-bucket work dominates
//! cold-start latency. v3 instead serializes the *compiled* layout: the
//! struct-of-arrays bucket columns are written verbatim as aligned
//! sections, so loading is header + CRC validation plus an
//! O(nodes + edges + dims) metadata walk — the bucket payloads are
//! never deserialized, only referenced in place through
//! [`Lane`](super::pod::Lane) views.
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
//!   1 META      structure + per-histogram shapes (see below)
//!   2 FRAC      f64 × Σ buckets          bucket masses
//!   3 LO        u32 × Σ buckets·dims     bucket-major lower bounds
//!   4 HI        u32 × Σ buckets·dims     bucket-major upper bounds
//!   5 MEAN      f64 × Σ buckets·dims     bucket-major means
//!   6 LO_T      f64 × Σ buckets·dims     dimension-major lower bounds
//!   7 HI_T      f64 × Σ buckets·dims     dimension-major upper bounds
//!   8 VB_LO     i64 × Σ value buckets    flattened value-bucket lows
//!   9 VB_HI     i64 × Σ value buckets    flattened value-bucket highs
//!  10 SYNOPSIS  the v1/v2 payload, verbatim (lazy cold-path source)
//! ```
//!
//! `META` is the only section the loader decodes: node/edge counts, the
//! CSR adjacency with precomputed Forward Uniformity averages, and per
//! histogram its dimension table, bucket count, value-bucket spans,
//! precomputed marginal expectations, and total mass. Each histogram's
//! share of the big columns is recovered by accumulating counts in
//! `META` order, so no per-bucket parsing ever happens.
//!
//! **Validation split.** A load verifies the header, the section-table
//! CRC, and the `META` section CRC — everything it actually decodes.
//! The bucket columns and the embedded `SYNOPSIS` payload carry CRCs in
//! the table but are *not* checked on load (checksumming them would
//! fault in and scan every page, forfeiting the zero-copy win; this is
//! the same trade an mmap-backed reader makes). [`verify_snapshot_v3`]
//! performs the full check for fsck-style callers, and the corruption
//! tests drive it over every section.

use std::path::Path;
use std::sync::Arc;

use super::pod::{AlignedBytes, Lane};
use super::{save_payload, snapshot_checksum, SnapshotError, HEADER_LEN, MAGIC, V3_VERSION, W};
use crate::compiled::{CompiledHistogram, CompiledSynopsis};
use crate::synopsis::{DimKind, SynId, Synopsis};

/// Bytes before the section table: magic (4) + version (4) +
/// total_len (8) + section_count (4) + reserved (4) + table_crc (8).
pub const V3_HEADER_LEN: usize = 32;

/// One section-table entry: id (4) + pad (4) + offset (8) + len (8) +
/// crc (8).
const TABLE_ENTRY_LEN: usize = 32;

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
    pub const SYNOPSIS: u32 = 10;
    pub const ALL: [u32; 10] = [META, FRAC, LO, HI, MEAN, LO_T, HI_T, VB_LO, VB_HI, SYNOPSIS];
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
    let cs = CompiledSynopsis::compile(s);
    save_compiled_v3(&cs, s)
}

fn save_compiled_v3(cs: &CompiledSynopsis<'_>, s: &Synopsis) -> Vec<u8> {
    // --- Section bodies -----------------------------------------------
    let mut meta = W { buf: Vec::new() };
    let n = cs.counts.len();
    meta.u32(n as u32);
    meta.u32(cs.edge_child.len() as u32);
    meta.u32(s.root().0);
    meta.u32(s.max_depth() as u32);
    for &c in &cs.counts {
        meta.u64(c);
    }
    for &off in &cs.edge_off {
        meta.u64(off as u64);
    }
    for &c in &cs.edge_child {
        meta.u32(c.0);
    }
    let mut frac = W { buf: Vec::new() };
    let mut lo = W { buf: Vec::new() };
    let mut hi = W { buf: Vec::new() };
    let mut mean = W { buf: Vec::new() };
    let mut lo_t = W { buf: Vec::new() };
    let mut hi_t = W { buf: Vec::new() };
    let mut vb_lo = W { buf: Vec::new() };
    let mut vb_hi = W { buf: Vec::new() };
    for &avg in &cs.edge_avg {
        meta.f64(avg);
    }
    for h in &cs.hists {
        meta.u16(h.dims as u16);
        meta.u32(h.frac.len() as u32);
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
    let synopsis = save_payload(s);

    // --- Assembly ------------------------------------------------------
    let bodies: [(u32, Vec<u8>); 10] = [
        (section::META, meta.buf),
        (section::FRAC, frac.buf),
        (section::LO, lo.buf),
        (section::HI, hi.buf),
        (section::MEAN, mean.buf),
        (section::LO_T, lo_t.buf),
        (section::HI_T, hi_t.buf),
        (section::VB_LO, vb_lo.buf),
        (section::VB_HI, vb_hi.buf),
        (section::SYNOPSIS, synopsis),
    ];
    let table_len = bodies.len() * TABLE_ENTRY_LEN;
    let mut pos = V3_HEADER_LEN + table_len;
    let mut table = W { buf: Vec::new() };
    let mut payload = Vec::new();
    for (id, body) in &bodies {
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
    sections: [Section; 10],
}

impl ArenaIndex {
    pub(crate) fn get(&self, id: u32) -> Section {
        // Ids are 1-based and dense; `parse` guarantees presence.
        self.sections[(id as usize).saturating_sub(1).min(9)]
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
/// 8-byte alignment, all ten sections present exactly once).
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
    let mut sections = [None::<Section>; 10];
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
    let mut out = [placeholder; 10];
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

/// Copies an exactly-8-byte chunk (from `chunks_exact(8)`) into an
/// array for `from_le_bytes`.
#[inline]
fn le8(c: &[u8]) -> [u8; 8] {
    let mut b = [0u8; 8];
    b.copy_from_slice(c);
    b
}

/// Copies an exactly-4-byte chunk (from `chunks_exact(4)`) into an
/// array for `from_le_bytes`.
#[inline]
fn le4(c: &[u8]) -> [u8; 4] {
    let mut b = [0u8; 4];
    b.copy_from_slice(c);
    b
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

/// Full-file integrity check: header, table CRC, and the stored CRC of
/// **every** section (including the bucket columns a zero-copy load
/// deliberately skips). This is the fsck-path complement to
/// [`load_compiled_snapshot`]; any single-bit flip anywhere in the file
/// fails here with a typed error.
pub fn verify_snapshot_v3(bytes: &[u8]) -> Result<(), SnapshotError> {
    let idx = parse_arena(bytes)?;
    for (i, &id) in section::ALL.iter().enumerate() {
        check_section(bytes, id, idx.sections[i])?;
    }
    Ok(())
}

/// Decodes only the embedded `SYNOPSIS` section into a
/// [`Synopsis`] — the v3 arm of [`load_synopsis`](super::load_synopsis),
/// for callers that want the graph rather than the compiled form.
pub(crate) fn load_synopsis_section(bytes: &[u8]) -> Result<Synopsis, SnapshotError> {
    let idx = parse_arena(bytes)?;
    let s = idx.get(section::SYNOPSIS);
    check_section(bytes, section::SYNOPSIS, s)?;
    super::decode_payload(&bytes[s.off..s.off + s.len], s.off)
}

/// Loads a v3 snapshot zero-copy from an aligned arena.
///
/// Work performed: header + section-table + `META` CRC validation, then
/// an O(nodes + edges + dims) walk of `META` to rebuild the CSR
/// adjacency and carve [`Lane`] views into the bucket columns. No
/// bucket payload is deserialized; the source synopsis (cold paths
/// only) decodes lazily on first use. The returned synopsis holds an
/// `Arc` to the arena, so it is self-contained (`'static`).
pub fn load_compiled_arena(
    arena: Arc<AlignedBytes>,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    let bytes_len = arena.len();
    let idx = parse_arena(arena.bytes())?;
    let meta_s = idx.get(section::META);
    check_section(arena.bytes(), section::META, meta_s)?;

    let mut r = super::R {
        buf: arena.bytes(),
        pos: meta_s.off,
        base: 0,
    };
    let meta_end = meta_s.off + meta_s.len;
    let n = r.u32()? as usize;
    let e = r.u32()? as usize;
    let _root = r.u32()?;
    let _max_depth = r.u32()?;
    // Structure bounds before the O(n)/O(e) loops, so a corrupt count
    // cannot force absurd allocations.
    if meta_s.len < 16 || n.saturating_mul(8) > meta_s.len || e.saturating_mul(4) > meta_s.len {
        return Err(decode_err(meta_s.off, "meta counts exceed section"));
    }
    // Bulk-decode the four CSR arrays: one bounds check per array, then
    // straight-line `from_le_bytes` over `chunks_exact` (which the
    // compiler vectorizes), instead of a checked reader call per element.
    let arrays_len = 8 * n + 8 * (n + 1) + 4 * e + 8 * e;
    let arrays_end = r
        .pos
        .checked_add(arrays_len)
        .filter(|&end| end <= meta_end)
        .ok_or_else(|| decode_err(r.pos, "meta arrays exceed section"))?;
    let arrays = &arena.bytes()[r.pos..arrays_end];
    let (counts_b, rest) = arrays.split_at(8 * n);
    let (off_b, rest) = rest.split_at(8 * (n + 1));
    let (child_b, avg_b) = rest.split_at(4 * e);
    let counts: Vec<u64> = counts_b
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(le8(c)))
        .collect();
    let edge_off: Vec<usize> = off_b
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(le8(c)) as usize)
        .collect();
    let edge_child: Vec<SynId> = child_b
        .chunks_exact(4)
        .map(|c| SynId(u32::from_le_bytes(le4(c))))
        .collect();
    let edge_avg: Vec<f64> = avg_b
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(le8(c)))
        .collect();
    r.pos = arrays_end;
    if edge_off.first() != Some(&0)
        || edge_off.last() != Some(&e)
        || edge_off.windows(2).any(|w| w[0] > w[1])
    {
        return Err(decode_err(meta_s.off, "corrupt CSR offsets"));
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
        let mut dim_parent = Vec::with_capacity(dims);
        let mut dim_child = Vec::with_capacity(dims);
        let mut dim_kind = Vec::with_capacity(dims);
        let mut vb_span = Vec::with_capacity(dims);
        let mut vb_local = 0usize;
        for _ in 0..dims {
            dim_parent.push(SynId(r.u32()?));
            dim_child.push(SynId(r.u32()?));
            dim_kind.push(match r.u8()? {
                0 => DimKind::Forward,
                1 => DimKind::Backward,
                2 => DimKind::Value,
                k => return Err(decode_err(r.pos, format!("unknown dim kind {k}"))),
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
        let mut dim_expectation = Vec::with_capacity(dims);
        for _ in 0..dims {
            dim_expectation.push(r.f64()?);
        }
        let total_mass = r.f64()?;
        let cells = nb
            .checked_mul(dims)
            .ok_or_else(|| decode_err(r.pos, "bucket grid overflows"))?;
        let oob = || decode_err(r.pos, "histogram lane exceeds its section");
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
        });
        frac_pos += nb;
        row_pos += cells;
        vb_pos += vb_local;
    }
    if r.pos != meta_end {
        return Err(decode_err(r.pos, "trailing bytes in meta section"));
    }

    let syn = idx.get(section::SYNOPSIS);
    Ok(CompiledSynopsis::from_loaded_parts(
        arena, syn.off, syn.len, counts, edge_off, edge_child, edge_avg, hists,
    ))
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
/// computed from it.
pub fn load_compiled_arena_verified(
    arena: Arc<AlignedBytes>,
) -> Result<CompiledSynopsis<'static>, SnapshotError> {
    verify_snapshot_v3(arena.bytes())?;
    load_compiled_arena(arena)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construct::{xbuild, BuildOptions, TruthSource};
    use crate::estimate::EstimateOptions;
    use xtwig_query::parse_twig;
    use xtwig_xml::parse;

    fn built_synopsis() -> Synopsis {
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
    fn v3_synopsis_section_loads_as_a_synopsis() {
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
        assert!(exercised >= 8, "only {exercised} non-empty sections");
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
    fn v2_bytes_are_not_a_v3_snapshot() {
        let s = built_synopsis();
        let v2 = super::super::save_synopsis(&s);
        assert!(matches!(
            load_compiled_snapshot(&v2),
            Err(SnapshotError::UnsupportedVersion { version: 2 })
        ));
    }
}
