//! Measurement plumbing: fixed-size latency reservoirs, quantiles, and
//! the in-memory span recorder of the traced run.
//!
//! Spans are taken from this package around calls into each layer's
//! public functions; the program under test carries no benchmark
//! instrumentation. The one hook inside a layer boundary is
//! [`TracingVfs`], a pass-through [`Vfs`] that times every aligned read
//! the catalog makes during fault-in.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use xtwig_core::{AlignedBytes, StdVfs, Vfs, VfsFile, VfsMetadata};

/// Latency samples kept per client. The buffer is allocated and
/// touched up front, so resident memory does not grow with throughput;
/// past it, reservoir sampling keeps a uniform subset.
pub const RESERVOIR: usize = 1 << 20;

/// Nanosecond samples, each tagged with the one-second window it
/// started in, under uniform reservoir sampling: every sample is kept
/// until the buffer fills, after which each new sample replaces a
/// random slot with the classic `k/n` probability.
pub struct Reservoir {
    /// `window << 32 | ns`.
    buf: Vec<u64>,
    len: usize,
    seen: u64,
    rng: StdRng,
}

impl Reservoir {
    /// A pre-touched reservoir of `cap` slots.
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            // Non-zero fill: the pages are written now, not on first use.
            buf: vec![u64::MAX; cap.max(1)],
            len: 0,
            seen: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Records one sample of window `window` (saturating at about 4.3 s).
    pub fn push(&mut self, window: u32, ns: u64) {
        let ns = u64::from(window) << 32 | u64::from(u32::try_from(ns).unwrap_or(u32::MAX));
        self.seen += 1;
        if self.len < self.buf.len() {
            self.buf[self.len] = ns;
            self.len += 1;
        } else {
            let slot = self.rng.random_range(0..self.seen);
            if let Some(s) = self.buf.get_mut(slot as usize) {
                *s = ns;
            }
        }
    }

    /// The kept samples as `(window, ns)`.
    pub fn samples(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.buf[..self.len]
            .iter()
            .map(|&x| ((x >> 32) as u32, x & u64::from(u32::MAX)))
    }
}

/// Sorted nanosecond samples with quantile lookups.
#[derive(Debug, Default, Clone)]
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    /// Builds from any sample iterator.
    pub fn from_iter<I: IntoIterator<Item = u64>>(it: I) -> Dist {
        let mut sorted: Vec<u64> = it.into_iter().collect();
        sorted.sort_unstable();
        Dist { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q` quantile in microseconds (nearest rank); 0 when empty.
    pub fn us(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = ((self.sorted.len() - 1) as f64 * q).round() as usize;
        self.sorted[idx.min(self.sorted.len() - 1)] as f64 / 1e3
    }

    /// The highest of p99.9/p99/p95/p90/p50 with at least ten samples
    /// beyond it, as `(quantile, value_us)`.
    pub fn tail(&self) -> (f64, f64) {
        let n = self.sorted.len() as f64;
        for q in [0.999, 0.99, 0.95, 0.9] {
            if n * (1.0 - q) >= 10.0 {
                return (q, self.us(q));
            }
        }
        (0.5, self.us(0.5))
    }
}

/// Per-name nanosecond samples recorded by the traced run. Each
/// client thread owns one; they merge after the window.
#[derive(Debug, Default)]
pub struct Spans {
    by_name: BTreeMap<&'static str, Vec<u64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl Spans {
    /// Records a span of `ns` under `name`.
    pub fn span(&mut self, name: &'static str, ns: u64) {
        self.by_name.entry(name).or_default().push(ns);
    }

    /// Records the span from `start` to now; returns its length.
    pub fn since(&mut self, name: &'static str, start: Instant) -> u64 {
        let ns = start.elapsed().as_nanos() as u64;
        self.span(name, ns);
        ns
    }

    /// Adds `v` to the counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    /// Folds another recorder into this one.
    pub fn merge(&mut self, other: Spans) {
        for (k, v) in other.by_name {
            self.by_name.entry(k).or_default().extend(v);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }

    /// The distribution of span `name` (empty when never recorded).
    pub fn dist(&self, name: &str) -> Dist {
        Dist::from_iter(self.by_name.get(name).into_iter().flatten().copied())
    }

    /// Sum of span `name`, in nanoseconds.
    pub fn total(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |v| v.iter().map(|&x| x as f64).sum())
    }

    /// Counter `name` (0 when never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

thread_local! {
    /// `(reads, nanoseconds, bytes)` of aligned reads on this thread
    /// since the last [`take_reads`].
    static READS: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
}

/// Returns and clears this thread's aligned-read tally.
pub fn take_reads() -> (u64, u64, u64) {
    READS.with(|c| c.replace((0, 0, 0)))
}

/// A pass-through [`StdVfs`] that times `read_aligned` — the catalog's
/// fault-in read — into a thread-local tally. The catalog loads on the
/// requesting thread, so a span around a catalog call can attribute
/// the reads it caused. Every other operation delegates untouched.
#[derive(Debug, Default)]
pub struct TracingVfs;

impl Vfs for TracingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn read_aligned(&self, path: &Path) -> io::Result<AlignedBytes> {
        let t = Instant::now();
        let out = StdVfs.read_aligned(path);
        let ns = t.elapsed().as_nanos() as u64;
        let bytes = out.as_ref().map_or(0, |b| b.len() as u64);
        READS.with(|c| {
            let (n, t, b) = c.get();
            c.set((n + 1, t + ns, b + bytes));
        });
        out
    }
    fn metadata(&self, path: &Path) -> io::Result<VfsMetadata> {
        StdVfs.metadata(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.create(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        StdVfs.open_append(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(path)
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.read_dir(path)
    }
    fn fsync_dir(&self, path: &Path) -> io::Result<()> {
        StdVfs.fsync_dir(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

/// `/proc/stat` clock ticks per second (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Hypervisor steal time of the host so far, summed over CPUs, in clock
/// ticks (the `steal` column of `/proc/stat`); 0 where it is unreadable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// `wall` seconds less the time the hypervisor took from them: `stolen`
/// steal ticks spread evenly over the host's `cpus` vCPUs.
pub fn unstolen(wall: f64, stolen: u64, cpus: usize) -> f64 {
    (wall - stolen as f64 / TICKS_PER_S / cpus.max(1) as f64).max(wall * 0.1)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
