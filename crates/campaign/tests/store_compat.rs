//! The store's one write format and its read compatibility, driven through
//! the `campaign` binary:
//!
//! * a schema-v2 store (the committed fixture under `tests/fixtures/`)
//!   reads back — rows, query output, reports, diffs and renders — exactly
//!   like a fresh v3 run of the same grid; resuming it fails and names
//!   `campaign compact`, and compact-then-resume renders the same bytes;
//! * the retired `--store-schema` and `--strategy` flags are unknown
//!   options;
//! * `campaign report` shows a lease ledger only when the lease log
//!   belongs to the store's campaign.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use apc_campaign::colstore::rows_bit_identical;
use apc_campaign::prelude::*;

const BIN: &str = env!("CARGO_BIN_EXE_campaign");
const DIFF_BIN: &str = env!("CARGO_BIN_EXE_campaign-diff");

/// The grid the v2 fixture was written with (see its README).
const FIXTURE_GRID: &[&str] = &[
    "--threads",
    "2",
    "--seeds",
    "2",
    "--racks",
    "1",
    "--intervals",
    "medianjob",
    "--policies",
    "shut,mix",
    "--caps",
    "60",
    "--faults",
    "none,3x600@7",
    "--load",
    "0.8",
    "--backlog",
    "0.3",
    "--no-sync",
    "--quiet",
];

const RENDERS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v2-store")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apc-compat-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            fs::copy(entry.path(), to).unwrap();
        }
    }
}

fn campaign(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .output()
        .expect("cannot run campaign binary")
}

fn campaign_ok(args: &[&str]) -> Output {
    let out = campaign(args);
    assert!(
        out.status.success(),
        "campaign {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn with_grid<'a>(head: &[&'a str]) -> Vec<&'a str> {
    head.iter().chain(FIXTURE_GRID).copied().collect()
}

fn renders(dir: &Path) -> [Vec<u8>; 4] {
    RENDERS.map(|name| {
        fs::read(dir.join(name))
            .unwrap_or_else(|e| panic!("missing {name} in {}: {e}", dir.display()))
    })
}

fn assert_same_renders(dir: &Path, reference: &[Vec<u8>; 4], label: &str) {
    for (name, (got, want)) in RENDERS.iter().zip(renders(dir).iter().zip(reference)) {
        assert!(got == want, "{name} differs: {label}");
    }
}

#[test]
fn v2_fixture_reads_like_a_fresh_v3_run_and_resumes_only_after_compact() {
    let v2 = temp_dir("v2");
    let fresh = temp_dir("fresh");
    copy_dir(&fixture_dir(), &v2);
    let (v2_s, fresh_s) = (v2.to_str().unwrap(), fresh.to_str().unwrap());
    campaign_ok(&with_grid(&["--out", fresh_s]));
    let reference = renders(&fresh);
    assert!(fresh.join("cells/part-0000.apc").exists());

    // The renders the v2 writer produced match today's v3 run.
    assert_same_renders(&v2, &reference, "v2 writer's renders vs fresh v3 run");

    // Rows read back bit-identically.
    let old = ResultStore::open(&v2).unwrap();
    assert_eq!(old.schema(), STORE_SCHEMA_V2);
    let (old_rows, new_rows) = (old.rows(), ResultStore::open(&fresh).unwrap().rows());
    assert_eq!(old_rows.len(), 12);
    assert_eq!(old_rows.len(), new_rows.len());
    for (a, b) in old_rows.iter().zip(&new_rows) {
        assert!(rows_bit_identical(a, b), "cell {} differs", a.index);
    }

    // Query, report and diff outputs agree.
    for query in [
        &["query"][..],
        &[
            "query",
            "--faults",
            "3x600@7",
            "--columns",
            "index,energy_joules",
        ],
        &["query", "--group-by", "policy", "--agg", "max"],
    ] {
        let q = |dir: &str| {
            let args: Vec<&str> = [query[0], dir]
                .into_iter()
                .chain(query[1..].iter().copied())
                .collect();
            campaign_ok(&args).stdout
        };
        assert_eq!(q(v2_s), q(fresh_s), "campaign {query:?}");
    }
    let report = |dir: &str| {
        let out = String::from_utf8(campaign_ok(&["report", dir]).stdout).unwrap();
        out.split_once('\n').unwrap().1.to_string()
    };
    assert_eq!(report(v2_s), report(fresh_s));
    let diff = Command::new(DIFF_BIN)
        .args([v2_s, fresh_s])
        .output()
        .unwrap();
    assert!(diff.status.success(), "campaign-diff v2 vs v3 found deltas");

    // Renders from the v2 store itself are byte-identical too.
    CsvSink::new(&v2).write_store(&old).unwrap();
    JsonSink::new(&v2).write_store(&old).unwrap();
    assert_same_renders(&v2, &reference, "renders of the v2 store");
    drop(old);

    // Resume refuses to append to a v2 store and names the migration.
    let out = campaign(&with_grid(&["--resume", v2_s]));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("campaign compact {v2_s}")),
        "got: {stderr}"
    );
    assert!(!v2.join("cells/part-0000.apc").exists(), "nothing written");

    // Compact migrates in place; the resumed store renders the same bytes.
    campaign_ok(&["compact", v2_s, "--quiet"]);
    assert!(!v2.join("cells/part-0000.csv").exists());
    assert_eq!(
        ResultStore::open(&v2).unwrap().schema(),
        STORE_SCHEMA_VERSION
    );
    for name in RENDERS {
        fs::remove_file(v2.join(name)).unwrap();
    }
    campaign_ok(&with_grid(&["--resume", v2_s]));
    assert_same_renders(&v2, &reference, "compact + resume vs fresh v3 run");

    fs::remove_dir_all(&v2).unwrap();
    fs::remove_dir_all(&fresh).unwrap();
}

#[test]
fn retired_flags_are_unknown_options() {
    for args in [["--strategy", "static"], ["--store-schema", "2"]] {
        let out = campaign(&args);
        assert_eq!(out.status.code(), Some(2), "campaign {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option: {}", args[0])),
            "campaign {args:?}: {stderr}"
        );
    }
}

#[test]
fn report_shows_only_the_lease_ledger_of_its_own_campaign() {
    let dir = temp_dir("stale-ledger");
    let d = dir.to_str().unwrap();
    let grid = |seeds: &'static str| {
        [
            "--seeds",
            seeds,
            "--racks",
            "1",
            "--intervals",
            "medianjob",
            "--policies",
            "shut",
            "--caps",
            "60",
            "--load",
            "0.5",
            "--backlog",
            "0.2",
            "--no-sync",
            "--quiet",
        ]
    };
    let mut args = vec!["--distributed", d, "--workers", "1"];
    args.extend(grid("1"));
    campaign_ok(&args);
    let spec_of = |dir: &Path| StoreScanner::open(dir).unwrap().spec_hash();
    let distributed_spec = spec_of(&dir);
    let out = String::from_utf8(campaign_ok(&["report", d]).stdout).unwrap();
    assert!(out.contains("leases: 1 batch(es)"), "got: {out}");
    assert!(
        out.contains(&format!("spec {distributed_spec:016x}")),
        "got: {out}"
    );

    // A fresh local run of another grid into the same directory leaves
    // the old leases.log behind; report must not present it as this run's.
    let mut args = vec!["--out", d];
    args.extend(grid("2"));
    campaign_ok(&args);
    assert!(dir.join(LEASES_NAME).exists());
    let local_spec = spec_of(&dir);
    assert_ne!(local_spec, distributed_spec);
    let out = String::from_utf8(campaign_ok(&["report", d]).stdout).unwrap();
    assert!(
        out.contains(&format!("spec {local_spec:016x}")),
        "got: {out}"
    );
    assert!(
        out.contains(&format!(
            "belongs to another campaign (fingerprint {distributed_spec:016x}"
        )),
        "got: {out}"
    );
    assert!(!out.contains("leases: "), "stale ledger printed: {out}");
    fs::remove_dir_all(&dir).unwrap();
}
