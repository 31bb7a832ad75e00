//! Integration: the CLI exit-code contract under faults. Exit codes are
//! part of the operational interface: 0 = full fidelity, 1 = failure
//! (including a hostile document refused by the parser), 2 = usage,
//! 3 = degraded service (fallback tier, tripped budget, snapshot
//! recovery, or requests shed by admission control), 4 = corrupt
//! snapshot (inspect/check, a rolled-back `serve --reload-on`, or a soak
//! run's rollback phase). Snapshots in the retired v1/v2 formats take
//! the corrupt-snapshot paths at every entry point.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xtwig-cli"))
}

fn run(args: &[&str]) -> Output {
    cli().args(args).output().expect("spawning xtwig-cli")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xtwig-faults-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating temp dir");
    dir
}

fn write_small_doc(dir: &Path) -> PathBuf {
    let path = dir.join("doc.xml");
    std::fs::write(
        &path,
        concat!(
            "<bib>",
            "<author><name/><paper><kw/><kw/></paper><paper><kw/></paper></author>",
            "<author><name/><paper><kw/></paper><book/></author>",
            "</bib>"
        ),
    )
    .expect("writing doc");
    path
}

/// A deep single-tag chain whose `//a//a//a` expansion is combinatorial:
/// enough metered work that a 1 ms deadline reliably trips.
fn write_deep_doc(dir: &Path) -> PathBuf {
    let path = dir.join("deep.xml");
    let mut xml = String::from("<a>");
    for _ in 0..150 {
        xml.push_str("<a><a/>");
    }
    for _ in 0..150 {
        xml.push_str("</a>");
    }
    xml.push_str("</a>");
    std::fs::write(&path, xml).expect("writing deep doc");
    path
}

const QUERY: &str = "for $t0 in //author, $t1 in $t0/paper, $t2 in $t1/kw";

#[test]
fn healthy_build_then_estimate_exits_zero() {
    let dir = temp_dir("healthy");
    let doc = write_small_doc(&dir);
    let snap = dir.join("bib.xtwg");

    let out = run(&[
        "build",
        doc.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--budget",
        "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "build: {}", stderr(&out));
    assert!(snap.exists());
    assert!(
        !dir.join("bib.xtwg.tmp").exists(),
        "atomic write left a tmp file behind"
    );

    let out = run(&[
        "estimate",
        doc.to_str().unwrap(),
        QUERY,
        "--synopsis",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "estimate: {}", stderr(&out));
    assert!(stdout(&out).contains("estimate:"), "{}", stdout(&out));
    assert!(
        !stderr(&out).contains("served by tier"),
        "healthy run must not report degradation: {}",
        stderr(&out)
    );
}

#[test]
fn corrupt_snapshot_recovers_and_exits_degraded() {
    let dir = temp_dir("recover");
    let doc = write_small_doc(&dir);
    let snap = dir.join("bib.xtwg");
    let out = run(&[
        "build",
        doc.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--budget",
        "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // Flip one payload bit: the checksum must catch it and the CLI must
    // rebuild from the document rather than fail the query.
    let mut bytes = std::fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    std::fs::write(&snap, &bytes).unwrap();

    let out = run(&[
        "estimate",
        doc.to_str().unwrap(),
        QUERY,
        "--synopsis",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3), "expected degraded exit");
    assert!(
        stderr(&out).contains("rebuilding synopsis from"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("estimate:"), "{}", stdout(&out));
}

#[test]
fn check_on_corrupt_snapshot_exits_four() {
    let dir = temp_dir("check");
    let doc = write_small_doc(&dir);
    let snap = dir.join("bib.xtwg");
    let out = run(&[
        "build",
        doc.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--budget",
        "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();

    for cmd in ["check", "inspect"] {
        let out = run(&[cmd, snap.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(4), "{cmd}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("corrupt snapshot"),
            "{cmd}: {}",
            stderr(&out)
        );
    }

    // A missing file is an I/O failure (1), not corruption (4).
    let out = run(&["check", dir.join("no-such.xtwg").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

/// Writes `doc`'s coarse synopsis in the retired v1 and v2 formats:
/// v1 is the magic, version 1, then the v2 payload (no length or
/// checksum); v2 is `save_synopsis`'s output.
fn write_retired_snapshots(dir: &Path, doc: &Path) -> [(u32, PathBuf); 2] {
    let doc = xtwig::xml::parse(&std::fs::read_to_string(doc).unwrap()).unwrap();
    let v2 = xtwig::core::save_synopsis(&xtwig::core::coarse_synopsis(&doc));
    let mut v1 = b"XTWG".to_vec();
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&v2[24..]);
    [(1, v1), (2, v2)].map(|(version, bytes)| {
        let path = dir.join(format!("bib.v{version}.xtwg"));
        std::fs::write(&path, bytes).expect("writing retired snapshot");
        (version, path)
    })
}

#[test]
fn retired_snapshot_versions_fail_typed_at_every_cli_entry_point() {
    let dir = temp_dir("retired");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let doc = doc.to_str().unwrap();
    for (version, snap) in write_retired_snapshots(&dir, Path::new(doc)) {
        let snap = snap.to_str().unwrap();
        let named = format!("unsupported snapshot version {version}");
        for cmd in ["inspect", "check"] {
            let out = run(&[cmd, snap]);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(4), "{cmd} v{version}: {err}");
            assert!(
                err.contains("corrupt snapshot") && err.contains(&named),
                "{err}"
            );
        }

        // estimate warns, rebuilds from the document and exits 3.
        let out = run(&["estimate", doc, QUERY, "--synopsis", snap]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "estimate v{version}: {err}");
        assert!(err.contains(&named), "{err}");
        assert!(err.contains("rebuilding synopsis from"), "{err}");
        assert!(stdout(&out).contains("estimate:"), "{}", stdout(&out));

        // A hot reload of it rolls back, and every query still answers.
        let out = run(&["serve", doc, queries.to_str().unwrap(), "--reload-on", snap]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(4), "serve v{version}: {err}");
        assert!(err.contains("rolled back") && err.contains(&named), "{err}");
        let answers = stdout(&out)
            .lines()
            .filter(|l| l.contains("for $t0"))
            .count();
        assert_eq!(answers, 2, "{}", stdout(&out));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_two() {
    let dir = temp_dir("usage");
    let doc = write_small_doc(&dir);
    let doc = doc.to_str().unwrap();
    let queries = write_queries(&dir);
    let queries = queries.to_str().unwrap();
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let snap = dir.join("x.xtwg");
    let snap = snap.to_str().unwrap();

    let cases: Vec<Vec<&str>> = vec![
        vec!["estimate"],
        vec!["estimate", doc],
        vec!["estimate", doc, QUERY, "--deadline-ms", "soon"],
        vec!["frobnicate"],
        vec!["build", doc],
    ];
    for args in cases {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("usage error"),
            "{args:?}: {}",
            stderr(&out)
        );
    }

    // A flag the subcommand's USAGE lines do not list is refused by
    // name before any work: one misspelling per subcommand, and the
    // retired aliases of --threads and --tenant-quota.
    let unknown: Vec<(Vec<&str>, &str)> = vec![
        (vec!["generate", "xmark", "--scael", "0.01"], "--scael"),
        (vec!["stats", doc, "--metrcs", "m.prom"], "--metrcs"),
        (vec!["eval", doc, QUERY, "--explain"], "--explain"),
        (
            vec!["estimate", doc, QUERY, "--deadlne-ms", "1"],
            "--deadlne-ms",
        ),
        (
            vec!["serve", doc, queries, "--tenant-qouta", "2"],
            "--tenant-qouta",
        ),
        (
            vec!["build", doc, "--out", snap, "--budgte", "9"],
            "--budgte",
        ),
        (vec!["ingest", store, "--mutat", "3"], "--mutat"),
        (vec!["inspect", snap, "--verbose"], "--verbose"),
        (vec!["check", doc, "--catalgo", "cat"], "--catalgo"),
        (
            vec!["serve", doc, queries, "--max-inflight", "2"],
            "--max-inflight",
        ),
        (
            vec!["serve", doc, queries, "--queue-depth", "2"],
            "--queue-depth",
        ),
    ];
    for (args, flag) in unknown {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(err.contains("usage error"), "{args:?}: {err}");
        assert!(
            err.contains(&format!("unknown flag `{flag}`")),
            "{args:?}: {err}"
        );
    }
    assert!(
        !dir.join("x.xtwg").exists(),
        "a refused build wrote nothing"
    );
    assert!(
        !dir.join("store").exists(),
        "a refused ingest wrote nothing"
    );
}

#[test]
fn work_limit_degrades_to_fallback_tier() {
    let dir = temp_dir("worklimit");
    let doc = write_small_doc(&dir);
    // work limit 1: tier 1 exhausts immediately, the Markov tier serves.
    let out = run(&[
        "estimate",
        doc.to_str().unwrap(),
        QUERY,
        "--work-limit",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("work limit exhausted"), "{err}");
    assert!(err.contains("served by tier"), "{err}");
    assert!(stdout(&out).contains("estimate:"), "{}", stdout(&out));
}

fn write_queries(dir: &Path) -> PathBuf {
    let path = dir.join("queries.txt");
    std::fs::write(
        &path,
        concat!(
            "# twig batch\n",
            "for $t0 in //author, $t1 in $t0/paper\n",
            "for $t0 in //paper, $t1 in $t0/kw\n",
        ),
    )
    .expect("writing queries");
    path
}

#[test]
fn runtime_serve_with_healthy_reload_exits_zero() {
    let dir = temp_dir("runtime-reload");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let snap = dir.join("bib.xtwg");
    let out = run(&[
        "build",
        doc.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--budget",
        "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--reload-on",
        snap.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("hot reload installed epoch"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn runtime_serve_reload_rollback_exits_four() {
    let dir = temp_dir("runtime-rollback");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let snap = dir.join("bib.xtwg");
    let out = run(&[
        "build",
        doc.to_str().unwrap(),
        "--out",
        snap.to_str().unwrap(),
        "--budget",
        "4096",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));

    // One flipped payload byte: the reload's CRC check must reject it,
    // roll back, keep serving on the old generation — and exit 4.
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();

    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--reload-on",
        snap.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("rolled back"), "{err}");
    // Every query was still answered despite the failed reload.
    let answers = stdout(&out)
        .lines()
        .filter(|l| l.contains("for $t0"))
        .count();
    assert_eq!(answers, 2, "{}", stdout(&out));

    // A *missing* reload file is an I/O failure (1), not corruption (4).
    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--reload-on",
        dir.join("no-such.xtwg").to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn saturation_soak_sheds_and_exits_three() {
    let dir = temp_dir("soak-saturation");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--soak-profile",
        "saturation",
        "--tenant-quota",
        "2",
        "--threads",
        "1",
        "--soak-seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    assert!(stdout(&out).contains("soak:"), "{}", stdout(&out));
    assert!(
        stdout(&out).contains("0 rollbacks"),
        "saturation never reloads: {}",
        stdout(&out)
    );
}

#[test]
fn full_soak_rollback_phase_exits_four() {
    let dir = temp_dir("soak-full");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--soak",
        "--soak-seed",
        "42",
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("1 rollbacks"), "{report}");
    assert!(report.contains("0 escaped panics"), "{report}");
    assert!(report.contains("bit-identical=true"), "{report}");
    assert!(
        stderr(&out).contains("corrupt snapshot"),
        "{}",
        stderr(&out)
    );

    // An unknown profile is a usage error (2).
    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--soak-profile",
        "chaos-monkey",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
}

/// Publishes a two-tenant catalog through the CLI front door and
/// returns `(plan, catalog-dir)`.
fn publish_catalog(dir: &Path) -> (PathBuf, PathBuf) {
    let doc = write_small_doc(dir);
    let plan = dir.join("plan.txt");
    std::fs::write(
        &plan,
        concat!(
            "alpha/main for $t0 in //author, $t1 in $t0/paper\n",
            "beta/main for $t0 in //paper, $t1 in $t0/kw\n",
        ),
    )
    .expect("writing plan");
    let cat = dir.join("cat");
    let out = run(&[
        "serve",
        plan.to_str().unwrap(),
        "--catalog",
        cat.to_str().unwrap(),
        "--publish",
        doc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "publish: {}", stderr(&out));
    (plan, cat)
}

#[test]
fn catalog_deep_fsck_reports_every_key_and_exits_four_on_bit_rot() {
    let dir = temp_dir("catalog-fsck");
    let (_plan, cat) = publish_catalog(&dir);

    let out = run(&["check", "--catalog", cat.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("alpha/main: ok"), "{report}");
    assert!(report.contains("beta/main: ok"), "{report}");
    assert!(report.contains("all section CRCs verified"), "{report}");

    // One flipped bit in one tenant's snapshot: the sweep must still
    // finish (the healthy tenant reports ok) and exit 4.
    let snap = cat.join("alpha").join("main.xtwg");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&snap, &bytes).unwrap();
    let out = run(&["check", "--catalog", cat.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    let report = stdout(&out);
    assert!(report.contains("alpha/main: CORRUPT"), "{report}");
    assert!(report.contains("beta/main: ok"), "{report}");
    assert!(
        stderr(&out).contains("corrupt snapshot"),
        "{}",
        stderr(&out)
    );

    // A missing catalog directory is an I/O failure (1), not corruption.
    let out = run(&["check", "--catalog", dir.join("no-such").to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn quarantined_tenant_exits_four_and_republish_lifts_it() {
    let dir = temp_dir("catalog-quarantine");
    let (plan, cat) = publish_catalog(&dir);

    // Rot one tenant's snapshot on disk: the verified fault-in must
    // reject it, quarantine the tenant, and exit 4 — never serve it.
    let snap = cat.join("alpha").join("main.xtwg");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).unwrap();
    let out = run(&[
        "serve",
        plan.to_str().unwrap(),
        "--catalog",
        cat.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(4), "{}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"), "{}", stderr(&out));

    // Republishing rewrites the snapshot and lifts the quarantine.
    let doc = dir.join("doc.xml");
    let out = run(&[
        "serve",
        plan.to_str().unwrap(),
        "--catalog",
        cat.to_str().unwrap(),
        "--publish",
        doc.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
}

#[test]
fn storage_chaos_soak_profile_exits_zero() {
    let dir = temp_dir("soak-storage");
    let doc = write_small_doc(&dir);
    let queries = write_queries(&dir);
    let out = run(&[
        "serve",
        doc.to_str().unwrap(),
        queries.to_str().unwrap(),
        "--soak-profile",
        "storage",
        "--soak-seed",
        "11",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}\n{}",
        stdout(&out),
        stderr(&out)
    );
    let report = stdout(&out);
    assert!(report.contains("soak: 61 phases over 1 keys"), "{report}");
    assert!(report.contains("0 escaped panics"), "{report}");
    assert!(report.contains("0 bad estimates"), "{report}");
    assert!(report.contains("0 unexpected errors"), "{report}");
    assert!(report.contains("(0 failures"), "{report}");
    assert!(report.contains("bit-identical=true"), "{report}");
}

#[test]
fn help_documents_the_exit_code_contract() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = stdout(&out);
    for needle in [
        "shed by admission control",
        "--reload-on",
        "--soak-profile",
        "EXIT CODES",
        "rollback phase",
    ] {
        assert!(help.contains(needle), "--help missing `{needle}`:\n{help}");
    }
}

#[test]
fn a_closed_stdout_exits_one_without_a_panic() {
    let dir = temp_dir("closed-stdout");
    let doc = write_small_doc(&dir);
    let doc = doc.to_str().expect("utf-8 temp path");
    for args in [
        vec!["stats", doc],
        vec!["generate", "xmark", "--scale", "0.05"],
    ] {
        // The read end is closed before the CLI starts, so its first write
        // to stdout fails with a broken pipe.
        let (reader, writer) = std::io::pipe().expect("creating a pipe");
        drop(reader);
        let out = cli()
            .args(&args)
            .stdout(writer)
            .output()
            .expect("spawning xtwig-cli");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.starts_with("error: writing to stdout:"),
            "{args:?}: {err}"
        );
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_ms_deadline_on_deep_twig_degrades() {
    let dir = temp_dir("deadline");
    let doc_path = write_deep_doc(&dir);
    // Prebuild a coarse snapshot through the library: XBUILD refinement is
    // an unbudgeted offline step and would dominate the run; the deadline
    // contract under test lives in the serving path behind --synopsis.
    let doc = xtwig::xml::parse(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
    let snap = dir.join("deep.xtwg");
    xtwig::core::write_snapshot_atomic(&snap, &xtwig::core::coarse_synopsis(&doc)).unwrap();

    let out = run(&[
        "estimate",
        doc_path.to_str().unwrap(),
        "for $t0 in //a, $t1 in $t0//a, $t2 in $t1//a",
        "--synopsis",
        snap.to_str().unwrap(),
        "--deadline-ms",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(3), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("deadline exceeded"), "{err}");
    assert!(err.contains("served by tier"), "{err}");
}

/// A single-label chain `depth` elements deep, written to `dir/<name>`.
fn write_chain(dir: &Path, name: &str, depth: usize) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, "<a>".repeat(depth) + &"</a>".repeat(depth)).expect("writing chain");
    path
}

/// Every command that reads a document, pointed at `doc`. The query and
/// plan files they need are written to `out`; their outputs (a snapshot,
/// a catalog, a store) would go there too.
fn document_commands(doc: &Path, out: &Path) -> Vec<Vec<String>> {
    let queries = out.join("queries.txt");
    let plan = out.join("plan.txt");
    std::fs::write(&queries, "for $t0 in //a\n").expect("writing queries");
    std::fs::write(&plan, "t0/main for $t0 in //a\n").expect("writing plan");
    let doc = doc.to_str().unwrap();
    let path = |name: &str| out.join(name).to_str().unwrap().to_string();
    let q = "for $t0 in //a";
    [
        vec!["stats", doc],
        vec!["eval", doc, q],
        vec!["estimate", doc, q],
        vec!["build", doc, "--out", &path("built.xtwg")],
        vec!["check", doc],
        vec![
            "serve",
            doc,
            queries.to_str().unwrap(),
            "--catalog",
            &path("serve-cat"),
        ],
        vec![
            "serve",
            plan.to_str().unwrap(),
            "--catalog",
            &path("publish-cat"),
            "--publish",
            doc,
        ],
        vec!["ingest", &path("store"), "--init", doc],
    ]
    .into_iter()
    .map(|args| args.into_iter().map(String::from).collect())
    .collect()
}

#[test]
fn hostile_documents_exit_one_from_every_document_command() {
    let dir = temp_dir("hostile");
    // An entity flood one reference over the default budget of 2^20,
    // spread over many elements so no single text run nears its own limit.
    let mut flood = String::from("<r>");
    for _ in 0..1025 {
        flood.push_str("<v>");
        flood.push_str(&"&amp;".repeat(1024));
        flood.push_str("</v>");
    }
    flood.push_str("</r>");
    let flood_path = dir.join("flood.xml");
    std::fs::write(&flood_path, flood).expect("writing flood");
    let dtd_path = dir.join("dtd.xml");
    std::fs::write(
        &dtd_path,
        concat!(
            "<!DOCTYPE lolz [<!ENTITY lol \"lol\">",
            "<!ENTITY lol2 \"&lol;&lol;&lol;&lol;&lol;&lol;&lol;&lol;\">]>",
            "<lolz>&lol2;</lolz>"
        ),
    )
    .expect("writing dtd");
    // The 257th start tag trips the limit: 256 `<a>` are 768 bytes, and
    // the error points just past the next `<`.
    let cases = [
        (
            write_chain(&dir, "deep257.xml", 257),
            "at byte 769: element nesting exceeds the depth limit of 256",
        ),
        (
            write_chain(&dir, "deep50000.xml", 50_000),
            "at byte 769: element nesting exceeds the depth limit of 256",
        ),
        (dtd_path, "at byte 0: DTDs are not supported"),
        (
            flood_path,
            "document exceeds the entity-reference limit of 1048576",
        ),
    ];
    for (doc, expected) in &cases {
        let out_dir = dir.join(format!(
            "out-{}",
            doc.file_stem().unwrap().to_string_lossy()
        ));
        std::fs::create_dir_all(&out_dir).unwrap();
        for args in document_commands(doc, &out_dir) {
            let out = cli().args(&args).output().expect("spawning xtwig-cli");
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(err.contains("XML stream error at byte "), "{args:?}: {err}");
            assert!(err.contains(expected), "{args:?}: {err}");
        }
        let mut left: Vec<_> = std::fs::read_dir(&out_dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, ["plan.txt", "queries.txt"], "{}", doc.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_chain_at_the_depth_limit_passes_stats_eval_and_ingest() {
    let dir = temp_dir("limit-chain");
    let doc = write_chain(&dir, "deep256.xml", 256);
    let doc = doc.to_str().unwrap();
    let out = run(&["stats", doc]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("max depth:         255"),
        "{}",
        stdout(&out)
    );
    let out = run(&["eval", doc, "for $t0 in //a"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("selectivity: 256 "),
        "{}",
        stdout(&out)
    );
    let store = dir.join("store");
    let out = run(&["ingest", store.to_str().unwrap(), "--init", doc]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(store.join("CURRENT").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
