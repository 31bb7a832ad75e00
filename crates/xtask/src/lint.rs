//! `xtask lint` — a source-level static-analysis gate for the workspace.
//!
//! The north star is an estimator that serves production traffic, so
//! library code must not be able to panic on malformed input. This pass
//! walks every library `.rs` file in the workspace, strips comments,
//! string literals and `#[cfg(test)]` regions, and reports denied
//! patterns:
//!
//! | rule          | pattern                                   | scope |
//! |---------------|-------------------------------------------|-------|
//! | `unwrap`      | `.unwrap()`                               | library code |
//! | `expect`      | `.expect(`                                | library code |
//! | `panic`       | `panic!` / `todo!` / `unimplemented!`     | library code |
//! | `unreachable` | `unreachable!`                            | library code |
//! | `lossy-cast`  | numeric `as` casts                        | estimation + histogram crates |
//! | `indexing`    | `expr[...]` inside `for`/`while`/`loop`   | estimation + histogram crates |
//! | `hot-alloc`   | `Vec::new` / `vec!` / `.collect(` on the expansion and plan path | expansion + embedding modules |
//! | `bare-spawn`  | `thread::spawn(`                          | core serve + workload serving paths |
//! | `atomic-ordering` | `Ordering::Relaxed` without a justification | sync-façade modules minus telemetry |
//! | `lock-order`  | nested lock acquisition not in `LOCK_ORDER` | sync-façade modules |
//! | `sync-direct` | `std::sync` instead of the `xtwig-core::sync` façade | sync-façade modules |
//! | `wal-fsync`   | bare `File::create` / `OpenOptions` instead of the atomic write helpers | durable-I/O modules |
//! | `vfs-direct`  | raw `std::fs` instead of the `Vfs` abstraction | durable-I/O + catalog + ingest modules, minus `io/vfs.rs` |
//! | `metric-producer` | a `Telemetry` metric nothing outside `telemetry.rs` writes | the registry, against all shipped code (libraries and binaries) |
//!
//! "Library code" excludes `tests/`, `benches/`, `examples/`, `src/bin/`,
//! binary roots (`main.rs`), the vendored dependency stand-ins under
//! `vendor/`, this xtask crate itself, and any directory whose
//! `Cargo.toml` declares its own `[workspace]` (a separate workspace,
//! such as the `perfbench/` benchmark package, is not part of this one).
//!
//! Escape hatches, in preference order:
//!
//! 1. Fix the code (return a `Result`, use a checked conversion helper).
//! 2. `// lint:allow(<rule>)` on the offending line or the line above,
//!    with a justification — for sites a human has reviewed.
//! 3. The checked-in baseline (`lint.baseline` at the workspace root):
//!    grandfathered counts per `(rule, file)` so the gate can be
//!    ratcheted down instead of big-banged. Counts above baseline fail
//!    the build; counts below print a reminder to re-run with
//!    `--update-baseline` so the ratchet only ever tightens.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default location of the committed baseline, relative to the workspace
/// root.
const BASELINE_PATH: &str = "lint.baseline";

/// Location of the lock-order manifest, relative to the workspace root:
/// one `outer -> inner` pair per line (comments with `#`), naming the
/// receiver expressions of `.lock()`/`.read()`/`.write()` calls that
/// are sanctioned to nest in that order. Any nesting not listed is a
/// `lock-order` finding.
const LOCK_ORDER_PATH: &str = "LOCK_ORDER";

/// One reported violation.
#[derive(Debug, Clone)]
struct Finding {
    rule: &'static str,
    file: String,
    line: usize,
    snippet: String,
}

/// Entry point for `cargo run -p xtask -- lint`.
pub fn run(args: &[String]) -> ExitCode {
    let mut update = false;
    let mut baseline_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--update-baseline" => update = true,
            "--baseline" => {
                i += 1;
                match args.get(i) {
                    Some(p) => baseline_path = Some(p.clone()),
                    None => {
                        eprintln!("--baseline needs a file argument");
                        return ExitCode::FAILURE;
                    }
                }
            }
            other => {
                eprintln!("unknown lint flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!("lint: cannot locate the workspace root (no Cargo.toml upward of cwd)");
            return ExitCode::FAILURE;
        }
    };
    let baseline_file = match &baseline_path {
        Some(p) => PathBuf::from(p),
        None => root.join(BASELINE_PATH),
    };

    let mut files = Vec::new();
    collect_rs_files(&root, &root, &mut files);
    files.sort();
    let shipped: Vec<String> = files
        .iter()
        .filter(|f| is_shipped_code(f))
        .cloned()
        .collect();
    files.retain(|f| is_library_code(f));

    let lock_order = read_lock_order(&root.join(LOCK_ORDER_PATH));

    let mut findings = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let source = match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("lint: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        scan_file(rel, &source, &lock_order, &mut findings);
    }
    match read_shipped(&root, &shipped) {
        Ok((telemetry, producers)) => {
            scan_metric_producers(&telemetry, &producers, &mut findings);
        }
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    }

    // Tally per (rule, file) and compare against the baseline.
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &findings {
        *counts
            .entry((f.rule.to_string(), f.file.clone()))
            .or_insert(0) += 1;
    }

    if update {
        let mut out = String::from(
            "# xtask lint baseline: grandfathered findings per `rule path count`.\n\
             # Regenerate with `cargo run -p xtask -- lint --update-baseline`.\n\
             # The gate fails when any count grows; shrink entries by fixing code.\n",
        );
        for ((rule, file), n) in &counts {
            let _ = writeln!(out, "{rule} {file} {n}");
        }
        if let Err(e) = std::fs::write(&baseline_file, out) {
            eprintln!("lint: writing {}: {e}", baseline_file.display());
            return ExitCode::FAILURE;
        }
        println!(
            "lint: baseline updated ({} entries, {} findings) -> {}",
            counts.len(),
            findings.len(),
            baseline_file.display()
        );
        return ExitCode::SUCCESS;
    }

    let baseline = match read_baseline(&baseline_file) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lint: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut over = 0usize;
    let mut stale = 0usize;
    for ((rule, file), &n) in &counts {
        let allowed = baseline
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if n > allowed {
            over += n - allowed;
            eprintln!("lint[{rule}] {file}: {n} finding(s), baseline allows {allowed}:");
            for f in findings
                .iter()
                .filter(|f| f.rule == rule && f.file == *file)
            {
                eprintln!("  {}:{}: {}", f.file, f.line, f.snippet);
            }
        }
    }
    for ((rule, file), &allowed) in &baseline {
        let n = counts
            .get(&(rule.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if n < allowed {
            stale += 1;
            println!(
                "lint[{rule}] {file}: improved to {n} (baseline {allowed}) — \
                 run `cargo run -p xtask -- lint --update-baseline` to ratchet"
            );
        }
    }

    println!(
        "lint: {} file(s) scanned, {} finding(s), {} over baseline, {} stale baseline entr(ies)",
        files.len(),
        findings.len(),
        over,
        stale
    );
    if over > 0 {
        eprintln!(
            "lint: FAILED — fix the findings, annotate them with \
             `// lint:allow(<rule>)` and a justification, or (for legacy \
             code only) refresh the baseline"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walks up from the current directory to the workspace root (the
/// `Cargo.toml` containing `[workspace]`).
fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if declares_own_workspace(&dir) {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Whether the `Cargo.toml` in `dir` (if any) has a `[workspace]` table.
fn declares_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml"))
        .is_ok_and(|text| text.lines().any(|l| l.trim() == "[workspace]"))
}

/// Recursively collects workspace `.rs` files as root-relative paths with
/// `/` separators, skipping VCS, build output, the vendored stand-ins,
/// and nested directories that are roots of a separate Cargo workspace.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), ".git" | "target" | "vendor" | ".claude")
                || declares_own_workspace(&path)
            {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
}

/// Whether findings in this file gate the build (shipping library code)
/// as opposed to tests, benches, binaries, and tooling.
fn is_library_code(rel: &str) -> bool {
    let excluded_dirs = ["/tests/", "/benches/", "/examples/", "/src/bin/"];
    if excluded_dirs.iter().any(|d| rel.contains(d)) {
        return false;
    }
    if rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.starts_with("benches/")
        || rel.starts_with("src/bin/")
    {
        return false;
    }
    // The lint tool itself is a dev-only binary crate.
    if rel.starts_with("crates/xtask/") {
        return false;
    }
    // Whole-component match only: `xbuild.rs` is library code, `build.rs`
    // is a build script.
    if rel.ends_with("/main.rs") || rel.ends_with("/build.rs") || rel == "build.rs" {
        return false;
    }
    true
}

/// Whether a file ships: library code plus the binaries built from it
/// (`src/bin/`, `main.rs`) — everything but tests, benches, examples,
/// build scripts and this xtask crate.
fn is_shipped_code(rel: &str) -> bool {
    let binary =
        rel.starts_with("src/bin/") || rel.contains("/src/bin/") || rel.ends_with("/main.rs");
    is_library_code(rel) || (binary && !rel.starts_with("crates/xtask/"))
}

/// The one metrics registry, checked by the `metric-producer` rule.
const TELEMETRY_PATH: &str = "crates/core/src/telemetry.rs";

/// The registry methods that write a metric.
const METRIC_WRITES: [&str; 6] = ["incr", "add", "inc", "dec", "set", "record_ns"];

/// Reads the registry source and every other shipped file, masked
/// (comments, strings and `#[cfg(test)]` regions blanked).
fn read_shipped(root: &Path, shipped: &[String]) -> Result<(String, Vec<String>), String> {
    let read = |rel: &str| {
        std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))
    };
    let telemetry = read(TELEMETRY_PATH)?;
    let mut producers = Vec::new();
    for rel in shipped.iter().filter(|f| f.as_str() != TELEMETRY_PATH) {
        let mut masked = mask_comments_and_strings(&read(rel)?);
        mask_cfg_test_regions(&mut masked);
        producers.push(masked);
    }
    Ok((telemetry, producers))
}

/// The metric fields of `pub struct Telemetry` with their 1-based lines.
fn telemetry_fields(source: &str) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut inside = false;
    for (i, line) in source.lines().enumerate() {
        let t = line.trim();
        if t.starts_with("pub struct Telemetry") {
            inside = true;
        } else if inside && t.starts_with('}') {
            break;
        } else if let Some((name, ty)) = t.strip_prefix("pub ").and_then(|r| r.split_once(':')) {
            let ty = ty.trim().trim_end_matches(',');
            if inside && matches!(ty, "Counter" | "Gauge" | "LatencyHistogram") {
                out.push((name.trim().to_string(), i + 1));
            }
        }
    }
    out
}

/// Whether `masked` writes metric `field`: `.field`, then any
/// whitespace (line breaks included), then `.` and a write method call.
fn writes_metric(masked: &str, field: &str) -> bool {
    let pat = format!(".{field}");
    let mut at = 0;
    while let Some(i) = masked[at..].find(&pat) {
        let end = at + i + pat.len();
        at = end;
        let rest = &masked[end..];
        if rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') {
            continue; // a longer identifier
        }
        let Some(call) = rest.trim_start().strip_prefix('.') else {
            continue;
        };
        let call = call.trim_start();
        if METRIC_WRITES.iter().any(|m| {
            call.strip_prefix(m)
                .is_some_and(|r| r.trim_start().starts_with('('))
        }) {
            return true;
        }
    }
    false
}

/// Flags every registry metric no shipped code outside `telemetry.rs`
/// writes: the export would print a zero forever, and a dashboard or a
/// CI grep on its name would pass on a metric nothing produces.
fn scan_metric_producers(telemetry: &str, producers: &[String], findings: &mut Vec<Finding>) {
    let fields = telemetry_fields(telemetry);
    if fields.is_empty() {
        // The parser no longer recognizes the registry: fail loudly
        // rather than pass on an empty field list.
        findings.push(Finding {
            rule: "metric-producer",
            file: TELEMETRY_PATH.to_string(),
            line: 1,
            snippet: "no `pub struct Telemetry` metric fields found".to_string(),
        });
    }
    for (field, line) in fields {
        if !producers.iter().any(|src| writes_metric(src, &field)) {
            findings.push(Finding {
                rule: "metric-producer",
                file: TELEMETRY_PATH.to_string(),
                line,
                snippet: format!("`{field}` has no producer outside telemetry.rs"),
            });
        }
    }
}

/// Whether the stricter numeric rules (`lossy-cast`, `indexing`) apply:
/// the estimation path and the histogram substrate.
fn numeric_rules_apply(rel: &str) -> bool {
    rel.starts_with("crates/core/src/estimate") || rel.starts_with("crates/histogram/src")
}

/// Whether the `hot-alloc` rule applies: chain expansion, embedding
/// enumeration and the flat plan. A memo hit allocates nothing and a
/// cold miss a fixed handful of blocks — the copied-out plan (proven by
/// `tests/alloc_zero.rs`, enforced by the CI `alloc-audit` job) — so
/// expansion scratch lives in the arena's lanes. Only the hand-built
/// `Embedding` builder, which serving never calls, carries
/// `// lint:allow(hot-alloc): <reason>` survivors.
fn hot_alloc_applies(rel: &str) -> bool {
    matches!(
        rel,
        "crates/core/src/estimate/embedding.rs" | "crates/core/src/estimate/expand.rs"
    )
}

/// Flags allocation idioms on the TREEPARSE hot path: `Vec::new(`,
/// `vec!`, and `.collect(` all acquire from the global allocator per
/// call, which the arena rework exists to eliminate. `Vec::with_capacity`
/// is deliberately included via neither pattern — it does not appear on
/// the hot path today, and a capacity hint does not make a per-query
/// allocation acceptable, so new code should route through the arena
/// either way.
fn scan_hot_alloc(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        for pat in ["Vec::new(", "vec!", ".collect("] {
            let mut at = 0;
            while let Some(i) = line[at..].find(pat) {
                let abs = at + i;
                at = abs + pat.len();
                // `vec!` must not be glued to a longer identifier
                // (`my_vec!`); the other patterns carry their own
                // boundary (`::` / `.`).
                let prev = line[..abs].chars().next_back();
                let glued = pat.starts_with(|c: char| c.is_alphanumeric())
                    && prev.is_some_and(|c| c.is_alphanumeric() || c == '_');
                if !glued {
                    emit("hot-alloc", line_no + 1);
                }
            }
        }
    }
}

/// Whether the `bare-spawn` rule applies: the serving paths, where
/// every thread must live inside `std::thread::scope` so worker panics
/// are joined, borrows stay sound, and no detached thread outlives the
/// batch it serves. `crates/core/src/serve` covers both `serve.rs` and
/// the `serve/` module tree (catalog, breaker, backoff).
fn bare_spawn_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/serve") || rel.starts_with("crates/workload/src/")
}

/// Flags bare `thread::spawn` (detached threads) in the serving paths.
/// A detached worker escapes the catalog's panic containment and can
/// outlive the document it borrowed; scoped spawns (`scope.spawn`)
/// do not match the pattern and remain the sanctioned form.
fn scan_bare_spawn(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        if line.contains("thread::spawn(") {
            emit("bare-spawn", line_no + 1);
        }
    }
}

/// Whether the concurrency rules (`sync-direct`, `lock-order`) apply:
/// the modules migrated onto the `xtwig-core::sync` façade so loom can
/// substitute its primitives under `--cfg loom`. A `std::sync` type
/// smuggled into one of these files would silently escape the model
/// checker. The façade module itself (`crates/core/src/sync.rs`) is the
/// one place allowed to name `std::sync`, and is out of scope.
fn sync_facade_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/serve")
        || rel == "crates/core/src/telemetry.rs"
        || rel == "crates/workload/src/guarded.rs"
}

/// Whether the `atomic-ordering` rule applies: the façade scope minus
/// the telemetry module, whose whole purpose is monotonic `Relaxed`
/// counters with no cross-thread ordering obligations.
fn atomic_ordering_applies(rel: &str) -> bool {
    sync_facade_applies(rel) && rel != "crates/core/src/telemetry.rs"
}

/// Flags `Ordering::Relaxed` on shared state in protocol code. Relaxed
/// is correct only when the atomic carries no happens-before edge
/// (pure stats counters, ticket draws); each such site must carry a
/// `// lint:allow(atomic-ordering): <invariant>` stating why no
/// ordering is needed. Everything else should be Acquire/Release.
fn scan_atomic_ordering(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        if line.contains("Ordering::Relaxed") {
            emit("atomic-ordering", line_no + 1);
        }
    }
}

/// Flags `std::sync` in façade-scoped modules: sync primitives there
/// must come through `crate::sync` / `xtwig_core::sync` so the loom
/// build swaps in model-checked versions.
fn scan_sync_direct(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        if line.contains("std::sync") {
            emit("sync-direct", line_no + 1);
        }
    }
}

/// Whether the `wal-fsync` rule applies: the durable-artifact modules
/// (snapshot and WAL I/O under `crates/core/src/io`), where every file
/// creation must go through the tmp+fsync+rename helpers so a crash at
/// any point leaves either the old file or the new one — never a torn
/// snapshot or journal.
fn wal_fsync_applies(rel: &str) -> bool {
    rel.starts_with("crates/core/src/io")
}

/// Flags direct file-creation APIs (`File::create`, `OpenOptions::new`)
/// in the durable-I/O modules: writes to snapshot/`.wal` paths must use
/// `write_bytes_atomic` (or a helper built on it). The reviewed
/// exceptions — the atomic helper's own tmp-file write and append-mode
/// journal opens that never truncate — carry
/// `// lint:allow(wal-fsync): <reason>`.
fn scan_wal_fsync(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        if line.contains("File::create(") || line.contains("OpenOptions::new()") {
            emit("wal-fsync", line_no + 1);
        }
    }
}

/// Whether the `vfs-direct` rule applies: every module whose disk
/// touches must route through the `Vfs` abstraction so the
/// fault-injection harness can reach them — snapshot/WAL I/O under
/// `crates/core/src/io`, the multi-tenant catalog, and the ingest
/// store. The `StdVfs` implementation itself (`io/vfs.rs`) is the one
/// sanctioned home for raw `std::fs`.
fn vfs_direct_applies(rel: &str) -> bool {
    if rel == "crates/core/src/io/vfs.rs" {
        return false;
    }
    rel.starts_with("crates/core/src/io")
        || rel == "crates/core/src/serve/catalog.rs"
        || rel == "crates/workload/src/ingest.rs"
}

/// Flags raw `std::fs` in VFS-scoped modules: a disk touch that
/// bypasses the `Vfs` trait is invisible to `FaultVfs`, so the chaos
/// soak cannot prove that path survives EIO / ENOSPC / torn renames /
/// fsync loss. Catching the `use std::fs` import is enough — without
/// it every call spells `std::fs::` inline, which is also caught. The
/// reviewed exceptions carry `// lint:allow(vfs-direct): <reason>`.
fn scan_vfs_direct(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        if line.contains("std::fs") {
            emit("vfs-direct", line_no + 1);
        }
    }
}

/// Reads the `LOCK_ORDER` manifest: `outer -> inner` pairs naming
/// receiver expressions sanctioned to nest. A missing manifest means no
/// nesting is sanctioned anywhere.
fn read_lock_order(path: &Path) -> Vec<(String, String)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut pairs = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some((outer, inner)) = line.split_once("->") {
            pairs.push((outer.trim().to_string(), inner.trim().to_string()));
        }
    }
    pairs
}

/// Flags lock acquisitions made while another guard is live, unless the
/// `(outer, inner)` pair is declared in the `LOCK_ORDER` manifest. Two
/// threads nesting the same pair in opposite orders is the classic
/// ABBA deadlock; forcing every nesting through a declared partial
/// order makes the cycle impossible to introduce silently.
///
/// The detector is lexical: an acquisition is `.lock()` / `.read()` /
/// `.write()` on a receiver expression. A guard bound with `let` stays
/// live until its enclosing block closes or an explicit `drop(name)`;
/// an unbound acquisition (a statement temporary like
/// `self.slot.lock()…` used and dropped in one expression) never holds
/// across another acquisition and is not tracked.
fn scan_lock_order(
    masked: &str,
    order: &[(String, String)],
    emit: &mut impl FnMut(&'static str, usize),
) {
    enum Event {
        Acquire {
            at: usize,
            line: usize,
            lock: String,
            binds: Option<String>,
        },
        Release {
            at: usize,
            name: String,
        },
    }
    let mut events: Vec<Event> = Vec::new();
    for pat in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(i) = masked[from..].find(pat) {
            let at = from + i;
            from = at + pat.len();
            let Some(lock) = receiver_before(masked, at) else {
                continue;
            };
            let line = masked[..at].bytes().filter(|&b| b == b'\n').count() + 1;
            // A `let` binds the guard only when the rest of the chain
            // preserves it (`let n = m.lock().map(|g| *g)` binds the
            // mapped value; the guard dies with the statement).
            let binds = let_binding_before(masked, at)
                .filter(|_| chain_preserves_guard(masked, at + pat.len()));
            events.push(Event::Acquire {
                at,
                line,
                lock,
                binds,
            });
        }
    }
    // `drop(name)` releases the named guard before its block closes.
    let mut from = 0;
    while let Some(i) = masked[from..].find("drop(") {
        let at = from + i;
        from = at + "drop(".len();
        let prev = masked[..at].chars().next_back();
        if prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            continue; // part of a longer identifier
        }
        let rest = &masked[at + "drop(".len()..];
        let Some(end) = rest.find(')') else { continue };
        let name = rest[..end].trim();
        if !name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            events.push(Event::Release {
                at,
                name: name.to_string(),
            });
        }
    }
    events.sort_by_key(|e| match e {
        Event::Acquire { at, .. } | Event::Release { at, .. } => *at,
    });

    // Replay the file byte-by-byte, tracking brace depth so bound guards
    // die when their block closes. Unbound acquisitions are statement
    // temporaries: live only until the next `;`, which still catches
    // two locks taken inside one expression.
    struct LiveGuard {
        lock: String,
        name: Option<String>,
        depth: usize,
    }
    let mut stack: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut ev = events.into_iter().peekable();
    for (pos, b) in masked.bytes().enumerate() {
        while let Some(e) = ev.peek() {
            let at = match e {
                Event::Acquire { at, .. } | Event::Release { at, .. } => *at,
            };
            if at != pos {
                break;
            }
            match ev.next() {
                Some(Event::Acquire {
                    line, lock, binds, ..
                }) => {
                    for g in &stack {
                        let sanctioned = order.iter().any(|(o, i)| *o == g.lock && *i == lock);
                        if !sanctioned {
                            emit("lock-order", line);
                        }
                    }
                    stack.push(LiveGuard {
                        lock,
                        name: binds,
                        depth,
                    });
                }
                Some(Event::Release { name, .. }) => {
                    if let Some(i) = stack.iter().rposition(|g| g.name.as_deref() == Some(&name)) {
                        stack.remove(i);
                    }
                }
                None => break,
            }
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                while stack.last().is_some_and(|g| g.depth > depth) {
                    stack.pop();
                }
            }
            b';' => stack.retain(|g| g.name.is_some() || g.depth < depth),
            _ => {}
        }
    }
}

/// Whether the method chain following a lock acquisition hands the
/// guard through to the end of the statement: only `?` and the
/// `Result`-unwrapping adapters qualify. Anything else (`.map(…)`,
/// `.len()`, a comparison) consumes the guard inside the expression.
fn chain_preserves_guard(masked: &str, after: usize) -> bool {
    let rest = &masked.as_bytes()[after..];
    let mut i = 0usize;
    loop {
        while rest.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        match rest.get(i) {
            None | Some(b';') => return true,
            Some(b'?') => i += 1,
            Some(b'.') => {
                i += 1;
                while rest.get(i).is_some_and(u8::is_ascii_whitespace) {
                    i += 1;
                }
                let start = i;
                while rest
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
                {
                    i += 1;
                }
                if !matches!(
                    &masked[after + start..after + i],
                    "unwrap" | "expect" | "unwrap_or_else"
                ) {
                    return false;
                }
                while rest.get(i).is_some_and(u8::is_ascii_whitespace) {
                    i += 1;
                }
                if rest.get(i) != Some(&b'(') {
                    return false;
                }
                let mut nest = 1usize;
                i += 1;
                while i < rest.len() && nest > 0 {
                    match rest[i] {
                        b'(' => nest += 1,
                        b')' => nest -= 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            _ => return false,
        }
    }
}

/// Walks backward from the `.` of an acquisition call to recover the
/// receiver expression: identifier/path characters, dots (including
/// across the whitespace of a multi-line method chain), and index
/// expressions normalized to `[]` so `self.shards[i]` and
/// `self.shards[j]` name the same lock.
fn receiver_before(masked: &str, dot: usize) -> Option<String> {
    let bytes = masked.as_bytes();
    let mut i = dot;
    let mut out: Vec<u8> = Vec::new();
    // Whitespace between receiver and `.` (chain broken across lines).
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    while i > 0 {
        let c = bytes[i - 1];
        if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':' {
            out.push(c);
            i -= 1;
        } else if c == b']' {
            // Skip the index expression; normalize to `[]`.
            let mut nest = 1usize;
            i -= 1;
            while i > 0 && nest > 0 {
                match bytes[i - 1] {
                    b']' => nest += 1,
                    b'[' => nest -= 1,
                    _ => {}
                }
                i -= 1;
            }
            out.extend(b"][");
        } else if c.is_ascii_whitespace() {
            // Whitespace inside the receiver is only part of the chain
            // when it sits against a `.` (e.g. `self\n    .inner.lock()`).
            let mut j = i;
            while j > 0 && bytes[j - 1].is_ascii_whitespace() {
                j -= 1;
            }
            let against_dot = out.last() == Some(&b'.') || (j > 0 && bytes[j - 1] == b'.');
            if against_dot {
                i = j;
            } else {
                break;
            }
        } else {
            break;
        }
    }
    out.reverse();
    let s = String::from_utf8(out).ok()?;
    let s = s.trim_matches(|c| c == '.' || c == ':');
    if s.is_empty() || s.starts_with(|c: char| c.is_ascii_digit()) {
        None
    } else {
        Some(s.to_string())
    }
}

/// If the acquisition at `at` sits in a `let` statement, returns the
/// bound name (the guard stays live past the expression); `None` means
/// a statement temporary, dropped at the end of its expression.
fn let_binding_before(masked: &str, at: usize) -> Option<String> {
    let start = masked[..at].rfind([';', '{', '}']).map_or(0, |i| i + 1);
    let seg = &masked[start..at];
    let li = seg.rfind("let ")?;
    if seg[..li].ends_with(|c: char| c.is_alphanumeric() || c == '_') {
        return None; // part of a longer identifier
    }
    let rest = seg[li + "let ".len()..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Scans one file, appending findings.
fn scan_file(
    rel: &str,
    source: &str,
    lock_order: &[(String, String)],
    findings: &mut Vec<Finding>,
) {
    let mut masked = mask_comments_and_strings(source);
    mask_cfg_test_regions(&mut masked);
    let allows = collect_allows(source);
    let masked_lines: Vec<&str> = masked.split('\n').collect();
    let raw_lines: Vec<&str> = source.split('\n').collect();

    let allowed =
        |rule: &str, line: usize| -> bool { allows.iter().any(|(l, r)| *l == line && r == rule) };
    let mut emit = |rule: &'static str, line: usize| {
        if allowed(rule, line) {
            return;
        }
        let snippet = raw_lines.get(line - 1).map_or("", |s| s.trim()).to_string();
        findings.push(Finding {
            rule,
            file: rel.to_string(),
            line,
            snippet,
        });
    };

    const PATTERNS: [(&str, &str); 6] = [
        (".unwrap()", "unwrap"),
        (".expect(", "expect"),
        ("panic!", "panic"),
        ("todo!", "panic"),
        ("unimplemented!", "panic"),
        ("unreachable!", "unreachable"),
    ];
    if is_library_code(rel) {
        for (line_no, line) in masked_lines.iter().enumerate() {
            for (pat, rule) in PATTERNS {
                let mut at = 0;
                while let Some(i) = line[at..].find(pat) {
                    let abs = at + i;
                    // Patterns starting with an identifier char (`panic!`)
                    // must not be glued to a longer identifier (`my_panic!`);
                    // method patterns (`.unwrap()`) carry their own boundary.
                    let prev = line[..abs].chars().next_back();
                    let glued = pat.starts_with(|c: char| c.is_alphanumeric())
                        && prev.is_some_and(|c| c.is_alphanumeric() || c == '_');
                    if !glued {
                        let rule_static: &'static str = match rule {
                            "unwrap" => "unwrap",
                            "expect" => "expect",
                            "unreachable" => "unreachable",
                            _ => "panic",
                        };
                        emit(rule_static, line_no + 1);
                    }
                    at = abs + pat.len();
                }
            }
        }
    }

    if numeric_rules_apply(rel) {
        scan_lossy_casts(&masked_lines, &mut emit);
        scan_loop_indexing(&masked, &mut emit);
    }

    if hot_alloc_applies(rel) {
        scan_hot_alloc(&masked_lines, &mut emit);
    }

    if bare_spawn_applies(rel) {
        scan_bare_spawn(&masked_lines, &mut emit);
    }

    if sync_facade_applies(rel) {
        scan_sync_direct(&masked_lines, &mut emit);
        scan_lock_order(&masked, lock_order, &mut emit);
    }

    if wal_fsync_applies(rel) {
        scan_wal_fsync(&masked_lines, &mut emit);
    }

    if vfs_direct_applies(rel) {
        scan_vfs_direct(&masked_lines, &mut emit);
    }

    if atomic_ordering_applies(rel) {
        scan_atomic_ordering(&masked_lines, &mut emit);
    }
}

/// Numeric types an `as` cast to which can silently truncate, wrap, or
/// round.
const NUMERIC_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "usize", "i8", "i16", "i32", "i64", "isize", "f32", "f64",
];

fn scan_lossy_casts(masked_lines: &[&str], emit: &mut impl FnMut(&'static str, usize)) {
    for (line_no, line) in masked_lines.iter().enumerate() {
        let bytes = line.as_bytes();
        let mut at = 0;
        while let Some(i) = line[at..].find(" as ") {
            let abs = at + i;
            at = abs + 4;
            let rest = line[abs + 4..].trim_start();
            let ty: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if NUMERIC_TYPES.contains(&ty.as_str()) {
                emit("lossy-cast", line_no + 1);
            }
            let _ = bytes;
        }
    }
}

/// Flags `expr[...]` index expressions lexically inside `for`/`while`/
/// `loop` bodies. The heuristic is conservative about what counts as an
/// index: the `[` must directly follow an identifier character, `)`, or
/// `]` (so attributes `#[..]`, slice types `&[..]` and array literals
/// are not flagged).
fn scan_loop_indexing(masked: &str, emit: &mut impl FnMut(&'static str, usize)) {
    let bytes = masked.as_bytes();
    let mut line = 1usize;
    let mut loop_stack: Vec<usize> = Vec::new(); // brace depths opening loop bodies
    let mut brace_depth = 0usize;
    let mut pending_loop_head = false;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => line += 1,
            b'{' => {
                brace_depth += 1;
                if pending_loop_head {
                    loop_stack.push(brace_depth);
                    pending_loop_head = false;
                }
            }
            b'}' => {
                if loop_stack.last() == Some(&brace_depth) {
                    loop_stack.pop();
                }
                brace_depth = brace_depth.saturating_sub(1);
            }
            b'f' | b'w' | b'l' => {
                let rest = &masked[i..];
                let prev = masked[..i].chars().next_back();
                let boundary = !prev.is_some_and(|p| p.is_alphanumeric() || p == '_');
                for kw in ["for ", "while ", "loop ", "loop{"] {
                    if boundary && rest.starts_with(kw) {
                        pending_loop_head = true;
                        break;
                    }
                }
            }
            b'[' if !loop_stack.is_empty() => {
                let prev = masked[..i].chars().next_back();
                if prev.is_some_and(|p| p.is_alphanumeric() || p == '_' || p == ')' || p == ']') {
                    emit("indexing", line);
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Extracts `// lint:allow(rule, rule2)` markers from the raw
/// (unmasked) source as `(covered_line, rule)` pairs. A marker trailing
/// code covers its own line; a marker on a comment-only line covers the
/// line below it.
fn collect_allows(source: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (line_no, line) in source.split('\n').enumerate() {
        let Some(slashes) = line.find("//") else {
            continue;
        };
        let comment = &line[slashes..];
        let Some(start) = comment.find("lint:allow(") else {
            continue;
        };
        let args = &comment[start + "lint:allow(".len()..];
        let Some(end) = args.find(')') else { continue };
        let standalone = line[..slashes].trim().is_empty();
        let covered = if standalone { line_no + 2 } else { line_no + 1 };
        for rule in args[..end].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                out.push((covered, rule.to_string()));
            }
        }
    }
    out
}

/// Replaces the contents of comments and string/char literals with
/// spaces, preserving offsets and newlines, so pattern scans only see
/// code.
fn mask_comments_and_strings(source: &str) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out[i] = b' ';
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 0usize;
                while i < bytes.len() {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out[i] = b' ';
                        out[i + 1] = b' ';
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        if bytes[i] != b'\n' {
                            out[i] = b' ';
                        }
                        i += 1;
                    }
                }
            }
            b'r' | b'b' if is_raw_string_start(bytes, i) => {
                // r"..." / r#"..."# / br#"..."# — find the matching close.
                let mut j = i + 1;
                if bytes.get(j) == Some(&b'r') {
                    j += 1;
                }
                let mut hashes = 0;
                while bytes.get(j) == Some(&b'#') {
                    hashes += 1;
                    j += 1;
                }
                j += 1; // opening quote
                loop {
                    match bytes.get(j) {
                        None => break,
                        Some(&b'"') => {
                            let mut k = j + 1;
                            let mut seen = 0;
                            while seen < hashes && bytes.get(k) == Some(&b'#') {
                                seen += 1;
                                k += 1;
                            }
                            if seen == hashes {
                                j = k;
                                break;
                            }
                            j += 1;
                        }
                        Some(&c) => {
                            if c != b'\n' {
                                out[j] = b' ';
                            }
                            j += 1;
                        }
                    }
                }
                i = j;
            }
            b'"' => {
                i += 1;
                while i < bytes.len() {
                    match bytes[i] {
                        b'\\' => {
                            out[i] = b' ';
                            if i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                                out[i + 1] = b' ';
                            }
                            i += 2;
                        }
                        b'"' => {
                            i += 1;
                            break;
                        }
                        c => {
                            if c != b'\n' {
                                out[i] = b' ';
                            }
                            i += 1;
                        }
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes within a few
                // bytes; a lifetime has no closing quote.
                if bytes.get(i + 1) == Some(&b'\\') {
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != b'\'' && j - i < 12 {
                        j += 1;
                    }
                    for slot in out.iter_mut().take(j.min(bytes.len())).skip(i + 1) {
                        if *slot != b'\n' {
                            *slot = b' ';
                        }
                    }
                    i = (j + 1).min(bytes.len());
                } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                    out[i + 1] = b' ';
                    i += 3;
                } else {
                    i += 1; // lifetime
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // Not part of an identifier (`for`, `str`, …).
    if i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return false;
    }
    j += 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

/// Masks `#[cfg(test)] mod … { … }` regions (and single-item forms
/// terminated by `;`) so test-only code is exempt from the gate.
fn mask_cfg_test_regions(masked: &mut String) {
    let needle = "#[cfg(test)]";
    let mut search_from = 0;
    while let Some(found) = masked[search_from..].find(needle) {
        let start = search_from + found;
        let bytes = masked.as_bytes();
        // Find the end of the guarded item: the matching `}` of its first
        // block, or a `;` before any block opens.
        let mut i = start + needle.len();
        let mut end = masked.len();
        while i < bytes.len() {
            match bytes[i] {
                b';' => {
                    end = i + 1;
                    break;
                }
                b'{' => {
                    let mut depth = 0usize;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'{' => depth += 1,
                            b'}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                    end = (i + 1).min(masked.len());
                    break;
                }
                _ => i += 1,
            }
        }
        // Blank the region, preserving line structure.
        let region: String = masked[start..end]
            .chars()
            .map(|c| if c == '\n' { '\n' } else { ' ' })
            .collect();
        masked.replace_range(start..end, &region);
        search_from = end;
    }
}

/// Reads the baseline file into `(rule, file) -> allowed count`.
fn read_baseline(path: &Path) -> Result<BTreeMap<(String, String), usize>, String> {
    let mut out = BTreeMap::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    for (line_no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(rule), Some(file), Some(count)) = (parts.next(), parts.next(), parts.next())
        else {
            return Err(format!(
                "{}:{}: expected `rule path count`",
                path.display(),
                line_no + 1
            ));
        };
        let count: usize = count
            .parse()
            .map_err(|_| format!("{}:{}: bad count `{count}`", path.display(), line_no + 1))?;
        out.insert((rule.to_string(), file.to_string()), count);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_in(rel: &str, src: &str) -> Vec<(String, usize)> {
        findings_with_order(rel, src, &[])
    }

    fn findings_with_order(rel: &str, src: &str, order: &[(&str, &str)]) -> Vec<(String, usize)> {
        let order: Vec<(String, String)> = order
            .iter()
            .map(|(o, i)| (o.to_string(), i.to_string()))
            .collect();
        let mut out = Vec::new();
        scan_file(rel, src, &order, &mut out);
        out.into_iter()
            .map(|f| (f.rule.to_string(), f.line))
            .collect()
    }

    #[test]
    fn finds_unwrap_in_library_code() {
        let got = findings_in("crates/foo/src/lib.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(got, vec![("unwrap".to_string(), 1)]);
    }

    #[test]
    fn strings_and_comments_are_ignored() {
        let src = "fn f() { let s = \".unwrap()\"; } // .unwrap() panic!\n/* panic! */\n";
        assert!(findings_in("crates/foo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_ignored() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn g() { x.unwrap(); panic!(); }\n}\n";
        assert!(findings_in("crates/foo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn lint_allow_suppresses_same_and_next_line() {
        let src = "// lint:allow(unwrap) seed data is static\nfn f() { x.unwrap(); }\n\
                   fn g() { y.unwrap(); } // lint:allow(unwrap)\nfn h() { z.unwrap(); }\n";
        let got = findings_in("crates/foo/src/lib.rs", src);
        assert_eq!(got, vec![("unwrap".to_string(), 4)]);
    }

    #[test]
    fn lossy_casts_only_in_numeric_scope() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert!(findings_in("crates/foo/src/lib.rs", src).is_empty());
        let got = findings_in("crates/histogram/src/mdhist.rs", src);
        assert_eq!(got, vec![("lossy-cast".to_string(), 1)]);
    }

    #[test]
    fn indexing_flagged_only_inside_loops() {
        let src = "fn f(v: &[u32]) -> u32 { let a = v[0];\nlet mut s = 0;\nfor i in 0..v.len() { s += v[i]; }\ns + a }\n";
        let got = findings_in("crates/core/src/estimate/kernel.rs", src);
        assert_eq!(got, vec![("indexing".to_string(), 3)]);
    }

    #[test]
    fn raw_strings_and_chars_are_masked() {
        let src =
            "fn f() { let r = r#\".unwrap()\"#; let c = '\"'; let l: &'static str = \"x\"; }\n";
        assert!(findings_in("crates/foo/src/lib.rs", src).is_empty());
    }

    #[test]
    fn panic_family_is_one_rule() {
        let src = "fn f() { todo!(); }\nfn g() { unimplemented!(); }\nfn h() { panic!(\"x\"); }\n";
        let got = findings_in("crates/foo/src/lib.rs", src);
        assert_eq!(
            got,
            vec![
                ("panic".to_string(), 1),
                ("panic".to_string(), 2),
                ("panic".to_string(), 3)
            ]
        );
    }

    #[test]
    fn library_scope_excludes_tests_benches_bins() {
        assert!(is_library_code("crates/core/src/lib.rs"));
        assert!(is_library_code("src/lib.rs"));
        assert!(!is_library_code("crates/core/tests/fuzz.rs"));
        assert!(!is_library_code("crates/bench/benches/estimation.rs"));
        assert!(!is_library_code("src/bin/xtwig-cli.rs"));
        assert!(!is_library_code("tests/exactness.rs"));
        assert!(!is_library_code("crates/xtask/src/lint.rs"));
        assert!(!is_library_code("examples/demo.rs"));
        // Build scripts are excluded by whole path component — a library
        // file that merely ends in "build.rs" is NOT a build script.
        assert!(!is_library_code("crates/core/build.rs"));
        assert!(!is_library_code("build.rs"));
        assert!(is_library_code("crates/core/src/construct/xbuild.rs"));
    }

    #[test]
    fn nested_workspaces_are_not_walked() {
        let root = std::env::temp_dir().join(format!("xtask-lint-walk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        write("crates/a/Cargo.toml", "[package]\nname = \"a\"\n");
        write("crates/a/src/lib.rs", "pub fn f() {}\n");
        // A separate workspace (its own `[workspace]` table) is skipped
        // whole; `[workspace.package]`-style tables alone do not count.
        write(
            "bench/Cargo.toml",
            "[package]\nname = \"b\"\n\n[workspace]\n",
        );
        write("bench/src/lib.rs", "pub fn g() { x.unwrap(); }\n");
        write("other/Cargo.toml", "[workspace.package]\nversion = \"1\"\n");
        write("other/src/lib.rs", "pub fn h() {}\n");
        let mut files = Vec::new();
        collect_rs_files(&root, &root, &mut files);
        files.sort();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(files, vec!["crates/a/src/lib.rs", "other/src/lib.rs"]);
    }

    #[test]
    fn hot_alloc_denied_on_the_plan_path_only() {
        let src = "fn f() { let v: Vec<u32> = Vec::new();\n\
                   let w = vec![1, 2];\n\
                   let c: Vec<u32> = w.iter().copied().collect(); }\n";
        let all_three = vec![
            ("hot-alloc".to_string(), 1),
            ("hot-alloc".to_string(), 2),
            ("hot-alloc".to_string(), 3),
        ];
        // Expansion, enumeration and the plan.
        assert_eq!(
            findings_in("crates/core/src/estimate/embedding.rs", src),
            all_three
        );
        assert_eq!(
            findings_in("crates/core/src/estimate/expand.rs", src),
            all_three
        );
        // Out of scope: cold modules allocate freely.
        assert!(findings_in("crates/core/src/compiled.rs", src).is_empty());
        assert!(findings_in("crates/core/src/single_path.rs", src).is_empty());
        // A reviewed cold-path site passes with a justification.
        let justified = "// lint:allow(hot-alloc): memo-stored plan, built once per cold miss\n\
                         fn f() -> Vec<u32> { (0..3).collect() }\n";
        assert!(findings_in("crates/core/src/estimate/embedding.rs", justified).is_empty());
        // `vec!` glued to a longer identifier is not ours.
        assert!(findings_in(
            "crates/core/src/estimate/embedding.rs",
            "fn f() { my_vec!(1); }\n"
        )
        .is_empty());
        // Test modules inside the scope are masked like everywhere else.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let v = vec![1]; }\n}\n";
        assert!(findings_in("crates/core/src/estimate/embedding.rs", in_test).is_empty());
    }

    #[test]
    fn metric_producer_requires_a_write_outside_the_registry() {
        let registry = "pub struct Telemetry {\n    /// Hits.\n    pub hits: Counter,\n    \
                        pub depth: Gauge,\n    pub lat: LatencyHistogram,\n}\n";
        assert_eq!(
            telemetry_fields(registry),
            vec![
                ("hits".to_string(), 3),
                ("depth".to_string(), 4),
                ("lat".to_string(), 5)
            ]
        );
        let one_line = "fn f() { tg.hits.incr(); }".to_string();
        let split =
            "fn f() {\n    telemetry::global()\n        .depth\n        .set(3);\n}".to_string();
        let mut findings = Vec::new();
        scan_metric_producers(registry, &[one_line, split], &mut findings);
        let dead: Vec<&str> = findings.iter().map(|f| f.snippet.as_str()).collect();
        assert_eq!(dead, vec!["`lat` has no producer outside telemetry.rs"]);
        assert_eq!(findings[0].line, 5);
        // A read, or a longer identifier, is not a write.
        assert!(!writes_metric("let n = tg.hits.get();", "hits"));
        assert!(!writes_metric("tg.hits_total.incr();", "hits"));
        assert!(writes_metric("tg.lat.record_ns(5);", "lat"));
    }

    #[test]
    fn bare_spawn_denied_in_serving_paths_only() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", src),
            vec![("bare-spawn".to_string(), 1)]
        );
        assert_eq!(
            findings_in("crates/core/src/serve/breaker.rs", src),
            vec![("bare-spawn".to_string(), 1)]
        );
        // A `use`-imported spawn is caught too.
        assert_eq!(
            findings_in(
                "crates/core/src/serve/mod.rs",
                "use std::thread;\nfn f() { thread::spawn(|| {}); }\n"
            ),
            vec![("bare-spawn".to_string(), 2)]
        );
        // Outside the serving paths the rule does not apply.
        assert!(findings_in("crates/datagen/src/lib.rs", src).is_empty());
        // Scoped spawns are the sanctioned form and never match.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        assert!(findings_in("crates/workload/src/guarded.rs", scoped).is_empty());
    }

    #[test]
    fn atomic_ordering_scope_and_allow() {
        let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        // In scope: flagged.
        assert_eq!(
            findings_in("crates/core/src/serve/breaker.rs", src),
            vec![("atomic-ordering".to_string(), 1)]
        );
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", src),
            vec![("atomic-ordering".to_string(), 1)]
        );
        // Telemetry counters are the sanctioned Relaxed home.
        assert!(findings_in("crates/core/src/telemetry.rs", src).is_empty());
        // Out of scope entirely.
        assert!(findings_in("crates/core/src/estimate/kernel.rs", src).is_empty());
        // A justified site passes.
        let justified = "// lint:allow(atomic-ordering): monotonic stats counter\n\
                         fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(findings_in("crates/core/src/serve/breaker.rs", justified).is_empty());
        // Acquire/Release are always fine.
        let ordered = "fn f(e: &AtomicU64) { e.store(1, Ordering::Release); }\n";
        assert!(findings_in("crates/core/src/serve/breaker.rs", ordered).is_empty());
    }

    #[test]
    fn sync_direct_denied_in_facade_scope() {
        let src = "use std::sync::Mutex;\nfn f() {}\n";
        assert_eq!(
            findings_in("crates/core/src/serve/mod.rs", src),
            vec![("sync-direct".to_string(), 1)]
        );
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", src),
            vec![("sync-direct".to_string(), 1)]
        );
        // The façade itself defines the re-exports and is out of scope,
        // as is everything not yet migrated.
        assert!(findings_in("crates/core/src/sync.rs", src).is_empty());
        assert!(findings_in("crates/core/src/snapshot.rs", src).is_empty());
        // The sanctioned import paths do not match.
        let ok = "use crate::sync::{Mutex, PoisonError};\nuse xtwig_core::sync::Arc;\n";
        assert!(findings_in("crates/core/src/serve/breaker.rs", ok).is_empty());
    }

    #[test]
    fn wal_fsync_denied_in_durable_io_scope() {
        let create = "fn f() { let f = std::fs::File::create(path)?; }\n";
        let open = "fn f() { let f = std::fs::OpenOptions::new().append(true).open(p)?; }\n";
        // In scope: both the snapshot module and the WAL module. A raw
        // `std::fs` call there also bypasses the VFS, so both rules fire.
        assert_eq!(
            findings_in("crates/core/src/io.rs", create),
            vec![("wal-fsync".to_string(), 1), ("vfs-direct".to_string(), 1)]
        );
        assert_eq!(
            findings_in("crates/core/src/io/wal.rs", open),
            vec![("wal-fsync".to_string(), 1), ("vfs-direct".to_string(), 1)]
        );
        // Out of wal-fsync scope: file creation elsewhere is not a
        // durability bug (the ingest store stays vfs-direct scoped).
        assert_eq!(
            findings_in("crates/workload/src/ingest.rs", create),
            vec![("vfs-direct".to_string(), 1)]
        );
        assert!(findings_in("crates/datagen/src/lib.rs", open).is_empty());
        // The sanctioned path never matches.
        let atomic = "fn f() { write_bytes_atomic(path, &bytes)?; }\n";
        assert!(findings_in("crates/core/src/io.rs", atomic).is_empty());
        // A justified site passes.
        let justified =
            "// lint:allow(wal-fsync, vfs-direct): tmp file of the atomic helper itself\n\
             fn f() { let f = std::fs::File::create(tmp)?; }\n";
        assert!(findings_in("crates/core/src/io.rs", justified).is_empty());
        // Test modules inside the scope are masked like everywhere else.
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { std::fs::File::create(p); }\n}\n";
        assert!(findings_in("crates/core/src/io/wal.rs", in_test).is_empty());
    }

    #[test]
    fn vfs_direct_denied_in_storage_scope() {
        let import = "use std::fs;\nfn f() { fs::read(p) }\n";
        let inline = "fn f() { std::fs::remove_file(p); }\n";
        // Every module the fault-injection harness must be able to
        // reach: snapshot/WAL I/O, the catalog, and the ingest store.
        for rel in [
            "crates/core/src/io.rs",
            "crates/core/src/io/wal.rs",
            "crates/core/src/io/v3.rs",
            "crates/core/src/serve/catalog.rs",
            "crates/workload/src/ingest.rs",
        ] {
            assert_eq!(
                findings_in(rel, import),
                vec![("vfs-direct".to_string(), 1)],
                "{rel}"
            );
            assert_eq!(
                findings_in(rel, inline),
                vec![("vfs-direct".to_string(), 1)],
                "{rel}"
            );
        }
        // The StdVfs implementation is the one sanctioned home for raw
        // filesystem calls.
        assert!(findings_in("crates/core/src/io/vfs.rs", inline).is_empty());
        // Out of scope: modules that never touch durable storage.
        assert!(findings_in("crates/datagen/src/lib.rs", import).is_empty());
        // Routed through the abstraction: nothing to flag.
        let routed = "fn f(vfs: &dyn Vfs) { vfs.remove_file(p); }\n";
        assert!(findings_in("crates/workload/src/ingest.rs", routed).is_empty());
        // A justified site passes.
        let justified = "// lint:allow(vfs-direct): soak-harness scratch-dir wipe\n\
                         fn f() { let _ = std::fs::remove_dir_all(dir); }\n";
        assert!(findings_in("crates/workload/src/ingest.rs", justified).is_empty());
        // Test modules inside the scope are masked like everywhere else.
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::fs;\n}\n";
        assert!(findings_in("crates/core/src/serve/catalog.rs", in_test).is_empty());
    }

    #[test]
    fn lock_order_flags_undeclared_nesting() {
        let src = "fn f(&self) {\n\
                   let a = self.alpha.lock();\n\
                   let b = self.beta.lock();\n\
                   }\n";
        // Undeclared nesting is flagged at the inner acquisition…
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", src),
            vec![("lock-order".to_string(), 3)]
        );
        // …and sanctioned once the manifest declares the pair.
        assert!(findings_with_order(
            "crates/workload/src/guarded.rs",
            src,
            &[("self.alpha", "self.beta")]
        )
        .is_empty());
        // The declared order is directional: B-then-A is still ABBA.
        let flipped = "fn f(&self) {\n\
                       let b = self.beta.lock();\n\
                       let a = self.alpha.lock();\n\
                       }\n";
        assert_eq!(
            findings_with_order(
                "crates/workload/src/guarded.rs",
                flipped,
                &[("self.alpha", "self.beta")]
            ),
            vec![("lock-order".to_string(), 3)]
        );
    }

    #[test]
    fn lock_order_guard_lifetimes() {
        // A statement temporary is not live at the next acquisition.
        let temp = "fn f(&self) {\n\
                    let n = self.alpha.lock().map(|g| *g);\n\
                    let b = self.beta.lock();\n\
                    }\n";
        assert!(findings_in("crates/workload/src/guarded.rs", temp).is_empty());
        // An explicit drop releases a bound guard early.
        let dropped = "fn f(&self) {\n\
                       let a = self.alpha.lock();\n\
                       drop(a);\n\
                       let b = self.beta.lock();\n\
                       }\n";
        assert!(findings_in("crates/workload/src/guarded.rs", dropped).is_empty());
        // A guard dies with its block.
        let scoped = "fn f(&self) {\n\
                      { let a = self.alpha.lock(); }\n\
                      let b = self.beta.lock();\n\
                      }\n";
        assert!(findings_in("crates/workload/src/guarded.rs", scoped).is_empty());
        // RwLock read/write and sharded receivers participate too:
        // distinct shard indices normalize to one lock name.
        let sharded = "fn f(&self) {\n\
                       let g = self.generation.write();\n\
                       let s = self.shards[self.shard_of(key)].lock();\n\
                       }\n";
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", sharded),
            vec![("lock-order".to_string(), 3)]
        );
        assert!(findings_with_order(
            "crates/workload/src/guarded.rs",
            sharded,
            &[("self.generation", "self.shards[]")]
        )
        .is_empty());
    }

    #[test]
    fn lock_order_receiver_across_chain_breaks() {
        // Multi-line method chains still recover the full receiver.
        let src = "fn f(&self) {\n\
                   let a = self\n\
                       .alpha\n\
                       .lock();\n\
                   let b = self.beta.lock();\n\
                   }\n";
        assert!(findings_with_order(
            "crates/workload/src/guarded.rs",
            src,
            &[("self.alpha", "self.beta")]
        )
        .is_empty());
        assert_eq!(
            findings_in("crates/workload/src/guarded.rs", src),
            vec![("lock-order".to_string(), 5)]
        );
    }

    #[test]
    fn lock_order_manifest_parsing() {
        let dir = std::env::temp_dir().join("xtask-lock-order-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("LOCK_ORDER");
        std::fs::write(
            &path,
            "# comment line\n\
             self.generation -> self.fault_bursts  # trailing comment\n\
             \n\
             self.shards[] -> self.stats\n",
        )
        .unwrap();
        assert_eq!(
            read_lock_order(&path),
            vec![
                (
                    "self.generation".to_string(),
                    "self.fault_bursts".to_string()
                ),
                ("self.shards[]".to_string(), "self.stats".to_string()),
            ]
        );
        assert!(read_lock_order(&dir.join("missing")).is_empty());
    }

    #[test]
    fn baseline_round_trip() {
        let dir = std::env::temp_dir().join("xtask-lint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lint.baseline");
        std::fs::write(&path, "# comment\nunwrap crates/foo/src/lib.rs 3\n").unwrap();
        let b = read_baseline(&path).unwrap();
        assert_eq!(
            b.get(&("unwrap".to_string(), "crates/foo/src/lib.rs".to_string())),
            Some(&3)
        );
        assert!(read_baseline(&dir.join("missing")).unwrap().is_empty());
    }
}
