//! Virtual filesystem boundary for every durable artifact.
//!
//! All disk touches made by the snapshot readers/writers (v1/v2/v3),
//! the delta WAL, the ingest store's manifest commit and the snapshot
//! catalog's fault-in go through the [`Vfs`] trait instead of `std::fs`
//! (enforced by the `vfs-direct` rule in `xtask lint`). Two
//! implementations exist:
//!
//! * [`StdVfs`] — the production implementation, a thin delegation to
//!   `std::fs`. This module is the *only* place in the durable-I/O
//!   paths allowed to name `std::fs`.
//! * [`FaultVfs`] — a deterministic fault injector wrapping any inner
//!   `Vfs`. A SplitMix64-seeded [`VfsFaultPlan`] decides, per
//!   operation, whether to inject an EIO, an ENOSPC, a short write
//!   (torn bytes really hit the inner file before the error), a failed
//!   rename (the tmp sibling survives, the destination is untouched),
//!   a failed fsync (the write may or may not be durable — exactly the
//!   ambiguity real disks present), a read-path bit-flip (models
//!   bit-rot in paged-in arena bytes), or a latency stall. Given the
//!   same seed and the same operation sequence the same faults fire,
//!   so every chaos-soak failure reproduces from its seed.
//!
//! The trait is deliberately operation-shaped rather than
//! handle-shaped where possible: callers say what they mean (`read`,
//! `rename`, `fsync_dir`) and only the two streaming cases — tmp-file
//! creation inside the atomic-write helper and append-only WAL writes
//! — go through a [`VfsFile`] handle.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use super::pod::AlignedBytes;
use crate::serve::breaker::splitmix64;

/// A writable file handle dispensed by a [`Vfs`].
pub trait VfsFile: std::fmt::Debug + Send {
    /// Writes the whole buffer (append-mode handles write at the end).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file contents and metadata to the device.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Current size of the file in bytes. (Named `size` rather than
    /// `len`: the handle is not a container, and the call can fail.)
    fn size(&self) -> io::Result<u64>;
}

/// The subset of `std::fs::Metadata` the durable paths consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsMetadata {
    /// File size in bytes (0 for directories).
    pub len: u64,
    /// Whether the path names a directory.
    pub is_dir: bool,
    /// Whether the path names a regular file.
    pub is_file: bool,
}

/// Filesystem operations used by the durable paths. Implementations
/// must be safe to share across the serving threads.
pub trait Vfs: std::fmt::Debug + Send + Sync {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads the whole file into an [`AlignedBytes`] buffer (the v3
    /// snapshot load). The default wraps [`Vfs::read`]'s vector without
    /// copying it.
    fn read_aligned(&self, path: &Path) -> io::Result<AlignedBytes> {
        self.read(path).map(AlignedBytes::from)
    }
    /// Stats the path.
    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata>;
    /// Creates (truncating) a file for writing. Only the atomic-write
    /// helper's tmp sibling should ever be created this way.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens a file for appending (the WAL journal).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Lists a directory's entries as full paths, sorted.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Fsyncs a directory so a rename within it persists.
    fn fsync_dir(&self, path: &Path) -> io::Result<()>;
    /// Whether the path exists at all.
    fn exists(&self, path: &Path) -> bool {
        self.metadata(path).is_ok()
    }
}

// ---------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------

/// The production [`Vfs`]: a thin delegation to `std::fs`. The one
/// module where raw filesystem calls are sanctioned.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

#[derive(Debug)]
struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.0, buf)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn size(&self) -> io::Result<u64> {
        self.0.metadata().map(|m| m.len())
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        let m = std::fs::metadata(path)?;
        Ok(VfsMetadata {
            len: m.len(),
            is_dir: m.is_dir(),
            is_file: m.is_file(),
        })
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // The durable-write discipline (tmp+fsync+rename) is built on
        // top of this primitive by `write_bytes_atomic`.
        // lint:allow(wal-fsync): the VFS primitive beneath the atomic helper
        std::fs::File::create(path).map(|f| Box::new(StdFile(f)) as Box<dyn VfsFile>)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Append-only journal opens never truncate existing bytes.
        // lint:allow(wal-fsync): append-mode open primitive for the WAL
        std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map(|f| Box::new(StdFile(f)) as Box<dyn VfsFile>)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(path)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        // An empty parent means "the current directory".
        let dir = if path.as_os_str().is_empty() {
            Path::new(".")
        } else {
            path
        };
        std::fs::File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------

/// Per-operation fault probabilities in permille (0..=1000), plus the
/// jitter seed that makes a plan reproducible. A plan with all rates
/// zero injects nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VfsFaultPlan {
    /// SplitMix64 seed; the same seed over the same operation sequence
    /// injects the same faults.
    pub seed: u64,
    /// Reads fail with an injected EIO.
    pub read_error: u16,
    /// Reads succeed but one deterministic bit of the returned buffer
    /// is flipped (bit-rot on the page-in path).
    pub read_flip: u16,
    /// Handle writes fail outright (EIO, or ENOSPC under `enospc`).
    pub write_error: u16,
    /// Handle writes persist only a prefix before failing — torn bytes
    /// really reach the inner file.
    pub short_write: u16,
    /// `sync_all` / `fsync_dir` fail; earlier writes may or may not be
    /// durable.
    pub fsync_error: u16,
    /// Renames fail without moving anything (the tmp sibling survives).
    pub rename_error: u16,
    /// Metadata lookups fail with an injected EIO.
    pub metadata_error: u16,
    /// The operation stalls for `stall_micros` before proceeding.
    pub stall: u16,
    /// Stall duration in microseconds.
    pub stall_micros: u32,
    /// Report injected write failures as ENOSPC instead of EIO.
    pub enospc: bool,
}

impl Default for VfsFaultPlan {
    fn default() -> VfsFaultPlan {
        VfsFaultPlan {
            seed: 0,
            read_error: 0,
            read_flip: 0,
            write_error: 0,
            short_write: 0,
            fsync_error: 0,
            rename_error: 0,
            metadata_error: 0,
            stall: 0,
            stall_micros: 50,
            enospc: false,
        }
    }
}

/// Prefix every injected error message carries, so harnesses (and
/// humans reading logs) can tell injected faults from real ones.
pub const INJECTED_PREFIX: &str = "injected:";

/// Decision state shared between a [`FaultVfs`] and the file handles it
/// dispenses, so faults stay deterministic across interleaved handle
/// and path operations.
#[derive(Debug)]
struct FaultState {
    plan: VfsFaultPlan,
    ops: AtomicU64,
    injected: AtomicU64,
    armed: AtomicBool,
}

impl FaultState {
    /// Draws the next deterministic 64-bit value from the seeded
    /// sequence and reports whether a fault with probability
    /// `permille` fires; the drawn value parameterizes the fault
    /// (flip position, torn prefix length).
    fn roll(&self, permille: u16) -> Option<u64> {
        if permille == 0 || !self.armed.load(Ordering::SeqCst) {
            return None;
        }
        let n = self.ops.fetch_add(1, Ordering::SeqCst);
        let mix = splitmix64(self.plan.seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if mix % 1000 < u64::from(permille) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            Some(mix)
        } else {
            None
        }
    }

    fn maybe_stall(&self) {
        if self.roll(self.plan.stall).is_some() {
            std::thread::sleep(Duration::from_micros(u64::from(self.plan.stall_micros)));
        }
    }

    fn eio(&self, what: &str) -> io::Error {
        io::Error::other(format!("{INJECTED_PREFIX} EIO during {what}"))
    }

    fn write_err(&self) -> io::Error {
        if self.plan.enospc {
            io::Error::other(format!("{INJECTED_PREFIX} ENOSPC (device full)"))
        } else {
            self.eio("write")
        }
    }
}

/// A deterministic fault-injecting [`Vfs`] decorator.
///
/// Wrap it in an `Arc` and hand clones to the store/catalog under
/// test; the shared operation counter keeps the fault sequence
/// deterministic for a given seed and call order. [`FaultVfs::arm`]
/// gates injection so setup (publishing a healthy snapshot, seeding a
/// store) can run clean before the chaos starts.
#[derive(Debug)]
pub struct FaultVfs {
    inner: Box<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// Wraps `inner` with the given plan, armed from the start.
    pub fn new(inner: Box<dyn Vfs>, plan: VfsFaultPlan) -> FaultVfs {
        FaultVfs {
            inner,
            state: Arc::new(FaultState {
                plan,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
                armed: AtomicBool::new(true),
            }),
        }
    }

    /// Wraps the production [`StdVfs`].
    pub fn over_std(plan: VfsFaultPlan) -> FaultVfs {
        FaultVfs::new(Box::new(StdVfs), plan)
    }

    /// Enables or disables injection (the operation counter only
    /// advances while armed, so disarmed phases don't perturb the
    /// deterministic fault sequence).
    pub fn arm(&self, on: bool) {
        self.state.armed.store(on, Ordering::SeqCst);
    }

    /// How many faults have been injected so far.
    pub fn injected(&self) -> u64 {
        self.state.injected.load(Ordering::SeqCst)
    }

    /// The plan in force.
    pub fn plan(&self) -> VfsFaultPlan {
        self.state.plan
    }

    fn dispense(&self, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner,
            state: Arc::clone(&self.state),
        })
    }
}

/// A handle whose writes/fsyncs consult the shared fault state.
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.state.maybe_stall();
        if let Some(mix) = self.state.roll(self.state.plan.short_write) {
            if buf.len() > 1 {
                // Persist a deterministic strict prefix, then fail —
                // exactly what a powercut mid-write leaves behind.
                let keep = (splitmix64(mix) as usize % (buf.len() - 1)).max(1);
                let _ = self.inner.write_all(&buf[..keep]);
                return Err(io::Error::other(format!(
                    "{INJECTED_PREFIX} short write ({keep} of {} bytes)",
                    buf.len()
                )));
            }
        }
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.write_err());
        }
        self.inner.write_all(buf)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.state.maybe_stall();
        if self.state.roll(self.state.plan.fsync_error).is_some() {
            return Err(self.state.eio("fsync"));
        }
        self.inner.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.eio("truncate"));
        }
        self.inner.set_len(len)
    }

    fn size(&self) -> io::Result<u64> {
        self.inner.size()
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.state.maybe_stall();
        if self.state.roll(self.state.plan.read_error).is_some() {
            return Err(self.state.eio("read"));
        }
        let mut bytes = self.inner.read(path)?;
        if let Some(mix) = self.state.roll(self.state.plan.read_flip) {
            if !bytes.is_empty() {
                let byte = mix as usize % bytes.len();
                let bit = (mix >> 32) % 8;
                bytes[byte] ^= 1u8 << bit;
            }
        }
        Ok(bytes)
    }

    // `read_aligned` deliberately uses the default impl (routes through
    // `read`) so bit-flips apply to the arena page-in path too.

    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        if self.state.roll(self.state.plan.metadata_error).is_some() {
            return Err(self.state.eio("stat"));
        }
        self.inner.metadata(path)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.state.maybe_stall();
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.write_err());
        }
        self.inner.create(path).map(|f| self.dispense(f))
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.write_err());
        }
        self.inner.open_append(path).map(|f| self.dispense(f))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state.maybe_stall();
        if self.state.roll(self.state.plan.rename_error).is_some() {
            return Err(io::Error::other(format!(
                "{INJECTED_PREFIX} rename failed ({} -> {})",
                from.display(),
                to.display()
            )));
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.write_err());
        }
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        if self.state.roll(self.state.plan.write_error).is_some() {
            return Err(self.state.write_err());
        }
        self.inner.create_dir_all(path)
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        if self.state.roll(self.state.plan.read_error).is_some() {
            return Err(self.state.eio("readdir"));
        }
        self.inner.read_dir(path)
    }

    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        if self.state.roll(self.state.plan.fsync_error).is_some() {
            return Err(self.state.eio("directory fsync"));
        }
        self.inner.fsync_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("xtwig-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn std_vfs_round_trips_and_stats() {
        let path = temp("roundtrip.bin");
        let vfs = StdVfs;
        let mut f = vfs.create(&path).expect("create");
        f.write_all(b"hello vfs").expect("write");
        f.sync_all().expect("sync");
        drop(f);
        assert_eq!(vfs.read(&path).expect("read"), b"hello vfs");
        let meta = vfs.metadata(&path).expect("stat");
        assert!(meta.is_file && !meta.is_dir);
        assert_eq!(meta.len, 9);
        let aligned = vfs.read_aligned(&path).expect("aligned");
        assert_eq!(aligned.bytes(), b"hello vfs");
        vfs.remove_file(&path).expect("remove");
        assert!(!vfs.exists(&path));
    }

    #[test]
    fn fault_plans_are_deterministic_per_seed() {
        let path = temp("deterministic.bin");
        std::fs::write(&path, vec![0u8; 256]).expect("seed file");
        let plan = VfsFaultPlan {
            seed: 42,
            read_error: 300,
            read_flip: 300,
            ..VfsFaultPlan::default()
        };
        let run = || {
            let vfs = FaultVfs::over_std(plan);
            let mut outcomes = Vec::new();
            for _ in 0..64 {
                outcomes.push(match vfs.read(&path) {
                    Ok(b) => format!("ok:{:016x}", crate::io::snapshot_checksum(&b)),
                    Err(e) => format!("err:{e}"),
                });
            }
            (outcomes, vfs.injected())
        };
        let (a, fa) = run();
        let (b, fb) = run();
        assert_eq!(a, b, "same seed must replay the same fault sequence");
        assert_eq!(fa, fb);
        assert!(fa > 0, "a 30% plan over 64 reads must inject something");
        assert!(
            a.iter().any(|o| o.starts_with("ok:")),
            "not every operation may fail"
        );
    }

    #[test]
    fn injected_errors_are_marked_and_flips_change_one_byte() {
        let path = temp("flips.bin");
        std::fs::write(&path, vec![0xAAu8; 64]).expect("seed file");
        let vfs = FaultVfs::over_std(VfsFaultPlan {
            seed: 7,
            read_flip: 1000,
            ..VfsFaultPlan::default()
        });
        let flipped = vfs.read(&path).expect("read survives a flip");
        assert_eq!(
            flipped.iter().filter(|&&b| b != 0xAA).count(),
            1,
            "exactly one byte must differ"
        );

        let vfs = FaultVfs::over_std(VfsFaultPlan {
            seed: 7,
            read_error: 1000,
            ..VfsFaultPlan::default()
        });
        let err = vfs.read(&path).expect_err("read must fail");
        assert!(err.to_string().contains(INJECTED_PREFIX), "{err}");
    }

    #[test]
    fn disarmed_injector_is_transparent() {
        let path = temp("disarmed.bin");
        std::fs::write(&path, b"payload").expect("seed file");
        let vfs = FaultVfs::over_std(VfsFaultPlan {
            seed: 1,
            read_error: 1000,
            write_error: 1000,
            fsync_error: 1000,
            rename_error: 1000,
            ..VfsFaultPlan::default()
        });
        vfs.arm(false);
        assert_eq!(vfs.read(&path).expect("clean read"), b"payload");
        assert_eq!(vfs.injected(), 0);
    }

    #[test]
    fn short_writes_leave_torn_prefixes() {
        let path = temp("torn.bin");
        let vfs = FaultVfs::over_std(VfsFaultPlan {
            seed: 3,
            short_write: 1000,
            ..VfsFaultPlan::default()
        });
        let mut f = vfs
            .create(&path)
            .expect("create (write_error rate is zero)");
        let err = f.write_all(&[1u8; 100]).expect_err("write must tear");
        assert!(err.to_string().contains("short write"), "{err}");
        drop(f);
        let on_disk = std::fs::read(&path).expect("torn file exists");
        assert!(
            !on_disk.is_empty() && on_disk.len() < 100,
            "a strict prefix must have reached the file, got {} bytes",
            on_disk.len()
        );
    }
}
