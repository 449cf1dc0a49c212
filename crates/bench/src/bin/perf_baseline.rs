//! `perf-baseline`: measure the simulator's hot paths and append the
//! numbers to the repo-root perf trajectory (`BENCH_replay.json`).
//!
//! The criterion targets keep relative costs visible locally; this tool
//! records an *absolute* trajectory across PRs so a hot-path regression is
//! diffable in review. Each run appends (or replaces, when the label
//! already exists) one entry with three families of numbers:
//!
//! * **replay** — one full scheduler replay of the reduced bench workload
//!   per policy (the `scheduler_replay` criterion target), median-of-rounds
//!   wall time plus the controller's events/second over the capped replays;
//! * **schedule_pass** — a pending-heavy microbench (thousands of queued
//!   jobs competing for a saturated cluster under a cap) isolating the cost
//!   of one scheduling pass;
//! * **campaign** — the paper grid (policies × caps × intervals × seeds)
//!   through the single-threaded campaign executor, in cells/second;
//! * **store** — full scans of a ~100k-row synthetic result store in both
//!   on-disk formats (v2 CSV and the same store compacted to the v3 binary
//!   columnar format), interleaved like the replay numbers, plus the
//!   zone-map partition-skip count of a filtered v3 query. The v3/v2 scan
//!   cost joins the gated ratios, and `--check` additionally enforces the
//!   absolute [`gate::STORE_SPEEDUP_FLOOR`] (the columnar scan must stay
//!   ≥10× faster than CSV row parsing).
//!
//! The replay and schedule-pass numbers feed the gate's ratios, so they are
//! measured as *medians over interleaved rounds* (every round times each of
//! them once, back to back): background-load drift then shifts all of them
//! together instead of inflating whichever one happened to own the slow
//! window, and typical per-round overhead cancels out of each ratio.
//!
//! ```text
//! cargo run --release -p apc-bench --bin perf-baseline -- \
//!     [--label NAME] [--out FILE] [--quick] \
//!     [--check] [--against FILE] [--threshold PCT] [--self-test]
//! ```
//!
//! With `--check`, after recording the fresh entry the tool gates it against
//! the last committed entry of `--against` (default: the `--out` file as it
//! was *before* this run) using host-independent policy-to-baseline ratios —
//! see [`apc_bench::gate`] — and exits nonzero on a regression beyond the
//! threshold (default 15 %). `--self-test` skips measurement entirely and
//! verifies the gate trips on a fabricated regression of the committed
//! entry, so CI can prove the gate is live.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use std::path::{Path, PathBuf};

use apc_bench::gate;
use apc_bench::helpers::{bench_platform, bench_trace};
use apc_campaign::agg::CellRow;
use apc_campaign::compact::compact_store;
use apc_campaign::prelude::{CampaignRunner, CampaignSpec};
use apc_campaign::query::{Projection, RowFilter, ScanFlow, StoreScanner};
use apc_campaign::sink::cells_csv_header;
use apc_campaign::store::{DEFAULT_CELLS_PER_PART, MANIFEST_NAME, PARTS_DIR, STORE_SCHEMA_V2};
use apc_core::{PowercapConfig, PowercapHook, PowercapPolicy};
use apc_replay::{ReplayHarness, Scenario};
use apc_rjms::config::ControllerConfig;
use apc_rjms::controller::Controller;
use apc_rjms::job::JobSubmission;
use apc_rjms::time::{SimTime, HOUR};

const USAGE: &str = "usage: perf-baseline [--label NAME] [--out FILE] [--quick] \
                     [--check] [--against FILE] [--threshold PCT] [--self-test]";

/// Fingerprint of the recording host: CPU model (from `/proc/cpuinfo`, with
/// the architecture as fallback) plus the available core count. Recorded
/// next to each entry so `--check` can warn when a comparison crosses
/// hosts — the gated ratios are host-independent, absolute times are not.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_string()))
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    format!("{} x{cores}", model.replace('"', "'"))
}

/// Best-of-N wall time of `f`, warmed once, bounded by `budget`.
fn best_of(budget: Duration, mut f: impl FnMut()) -> Duration {
    f(); // warm-up
    let mut best = Duration::MAX;
    let started = Instant::now();
    let mut iters = 0u32;
    while started.elapsed() < budget || iters < 3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed());
        iters += 1;
        if iters >= 1000 {
            break;
        }
    }
    best
}

/// Per-closure *median* wall times over interleaved rounds: every round
/// times each closure once, back to back. The gate divides these numbers by
/// each other, so they must all see the same machine state — timing each
/// scenario in its own sequential window lets background-load drift inflate
/// one side of a ratio and fail (or mask) a check without any code change.
/// The median (not the minimum) is used because on a shared vCPU the
/// minimum occasionally catches a steal-free window for one quantity but
/// not another, skewing the ratio; typical per-round overhead cancels.
fn median_of_interleaved<const N: usize>(
    budget: Duration,
    mut fs: [&mut dyn FnMut(); N],
) -> [Duration; N] {
    for f in fs.iter_mut() {
        f(); // warm-up
    }
    let mut samples: [Vec<Duration>; N] = std::array::from_fn(|_| Vec::new());
    let started = Instant::now();
    let mut rounds = 0u32;
    while started.elapsed() < budget || rounds < 3 {
        for (f, samples) in fs.iter_mut().zip(samples.iter_mut()) {
            let t = Instant::now();
            f();
            samples.push(t.elapsed());
        }
        rounds += 1;
        if rounds >= 1000 {
            break;
        }
    }
    samples.map(|mut s| {
        s.sort_unstable();
        s[s.len() / 2]
    })
}

struct ReplayNumbers {
    baseline_ns: u128,
    shut_ns: u128,
    dvfs_ns: u128,
    mix_ns: u128,
    events_per_sec: f64,
}

/// All five gated quantities — the four per-policy replays and the
/// schedule-pass microbench — timed over interleaved rounds so every ratio's
/// numerator and denominator sample the same machine state, plus the
/// controller's events/second (not gated, measured separately after).
fn measure_gated(budget: Duration) -> (ReplayNumbers, u64, f64) {
    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;

    let scenarios = [
        Scenario::baseline(),
        Scenario::paper(PowercapPolicy::Shut, 0.6, duration),
        Scenario::paper(PowercapPolicy::Dvfs, 0.6, duration),
        Scenario::paper(PowercapPolicy::Mix, 0.6, duration),
    ];
    // `replay` captures only shared borrows, so the four per-scenario
    // closures can all hold it at once.
    let replay = |i: usize| {
        std::hint::black_box(harness.run(&scenarios[i]).report.launched_jobs);
    };
    let (mut r0, mut r1, mut r2, mut r3) = (|| replay(0), || replay(1), || replay(2), || replay(3));
    let pass_platform = bench_platform();
    let mut passes = 0u64;
    let mut pass_bench = || passes = run_pass_bench(&pass_platform);
    let [baseline, shut, dvfs, mix, pass_wall] = median_of_interleaved(
        budget,
        [&mut r0, &mut r1, &mut r2, &mut r3, &mut pass_bench],
    );

    // Events/second through the raw controller (the harness hides it), on
    // the same workload under the MIX policy at the 60 % cap.
    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let scenario = Scenario::paper(PowercapPolicy::Mix, 0.6, trace.duration);
    let mut events = 0u64;
    let wall = best_of(budget, || {
        let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), &platform);
        let mut controller = Controller::with_hook(
            platform.clone(),
            ControllerConfig::default(),
            Box::new(hook),
        );
        if let Some(cap) = scenario.cap(&platform) {
            for window in scenario.windows() {
                controller.add_powercap_reservation(window, cap);
            }
        }
        controller.submit_all(trace.to_submissions());
        controller.set_horizon(trace.duration);
        std::hint::black_box(controller.run().launched_jobs);
        events = controller.events_processed();
    });
    let events_per_sec = events as f64 / wall.as_secs_f64();
    let numbers = ReplayNumbers {
        baseline_ns: baseline.as_nanos(),
        shut_ns: shut.as_nanos(),
        dvfs_ns: dvfs.as_nanos(),
        mix_ns: mix.as_nanos(),
        events_per_sec,
    };
    let ns_per_pass = pass_wall.as_nanos() as f64 / passes.max(1) as f64;
    (numbers, passes, ns_per_pass)
}

/// One run of the pending-heavy microbench: a deep queue on a saturated,
/// capped cluster so every scheduling pass walks the full backfill depth.
/// Returns the number of scheduling passes the run took.
fn run_pass_bench(platform: &apc_rjms::cluster::Platform) -> u64 {
    let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), platform);
    let mut controller = Controller::with_hook(
        platform.clone(),
        ControllerConfig::default(),
        Box::new(hook),
    );
    let cap = platform.power_fraction(0.6);
    controller.add_powercap_reservation(apc_rjms::time::TimeWindow::new(0, 4 * HOUR), cap);
    // 2 000 pending 10-node jobs on a 180-node machine: ~18 can run at
    // once, so the queue stays thousands deep for the whole interval.
    for i in 0..2_000u64 {
        controller.submit(JobSubmission::new(
            (i % 7) as usize,
            0,
            160,
            2 * HOUR,
            900 + (i % 13) as SimTime * 60,
        ));
    }
    controller.set_horizon(2 * HOUR);
    std::hint::black_box(controller.run().launched_jobs);
    controller.schedule_passes()
}

/// The paper grid through the single-threaded executor.
fn measure_campaign(runs: u32) -> (usize, f64, f64) {
    let spec = CampaignSpec::paper(2012, 3);
    let runner = CampaignRunner::new(spec).with_threads(1);
    let mut cells = 0usize;
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t = Instant::now();
        let outcome = runner.run().expect("paper grid runs");
        best = best.min(t.elapsed());
        cells = outcome.rows.len();
    }
    let wall_s = best.as_secs_f64();
    (cells, wall_s, cells as f64 / wall_s)
}

struct StoreNumbers {
    rows: usize,
    v2_scan_ns: u128,
    v3_scan_ns: u128,
    v3_narrow_scan_ns: u128,
    zone_skipped_parts: usize,
}

/// One synthetic store row. The workload label flips halfway through the
/// grid so the contiguous first-half partitions are zone-map skippable by a
/// second-half workload filter; everything else is cheap deterministic
/// filler with full-precision floats (so the v2 side pays the same hex
/// round-trip cost a real campaign store does).
fn synthetic_row(i: usize, total: usize) -> CellRow {
    let x = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    CellRow {
        index: i,
        racks: 1 + (i % 4),
        workload: if i < total / 2 {
            "smalljob"
        } else {
            "medianjob"
        }
        .to_string(),
        seed: Some(x % 32),
        load_factor: 0.6 + (i % 5) as f64 * 0.3,
        scenario: ["100%/None", "80%/SHUT", "60%/DVFS", "40%/MIX"][i % 4].to_string(),
        window: "7200+3600".to_string(),
        policy: ["none", "shut", "dvfs", "mix"][i % 4].to_string(),
        cap_percent: [100.0, 80.0, 60.0, 40.0][i % 4],
        grouping: "grouped".to_string(),
        decision_rule: "paper-rho".to_string(),
        // Label-free rows keep the store paper-shaped: 22-field v2 lines
        // and APC3 blocks, so the v2/v3 speedup stays comparable across
        // entries recorded before and after the scenario-engine refactor.
        schedule: "-".to_string(),
        faults: "-".to_string(),
        launched_jobs: (x % 10_000) as usize,
        completed_jobs: (x % 9_000) as usize,
        killed_jobs: (x % 50) as usize,
        pending_jobs: (x % 200) as usize,
        work_core_seconds: x as f64 * 1e-3,
        energy_joules: x as f64 * 7e-4,
        energy_normalized: (x % 1000) as f64 / 997.0,
        launched_jobs_normalized: (x % 100) as f64 / 101.0,
        work_normalized: (x % 500) as f64 / 499.0,
        mean_wait_seconds: (x % 7200) as f64 + 0.125,
        peak_power_watts: 900.0 + (x % 300) as f64,
    }
}

/// Write `rows` (cells `0..rows`) as a schema-v2 store — text CSV
/// partitions of [`DEFAULT_CELLS_PER_PART`] cells plus a manifest with one
/// `done` line per cell, the layout the v2 writer produced — as the
/// reference format of the store-scan floor. The store itself writes v3
/// only; this fixture keeps the floor's baseline unchanged.
fn write_v2_store(dir: &Path, spec_hash: u64, rows: usize) -> std::io::Result<()> {
    let parts = dir.join(PARTS_DIR);
    std::fs::create_dir_all(&parts)?;
    let mut manifest = format!(
        "apc-campaign-store {STORE_SCHEMA_V2}\nspec {spec_hash:016x}\ncells {rows}\n\
         per-part {DEFAULT_CELLS_PER_PART}\n"
    );
    for (part, first) in (0..rows).step_by(DEFAULT_CELLS_PER_PART).enumerate() {
        let mut text = cells_csv_header(false) + "\n";
        for i in first..(first + DEFAULT_CELLS_PER_PART).min(rows) {
            text.push_str(&synthetic_row(i, rows).to_store_line());
            text.push('\n');
            manifest.push_str(&format!("done {i}\n"));
        }
        std::fs::write(parts.join(format!("part-{part:04}.csv")), text)?;
    }
    std::fs::write(dir.join(MANIFEST_NAME), manifest)
}

/// Duplicate a store directory (manifest + partition files) so the v2
/// original can be compacted into a v3 twin without rebuilding it.
fn copy_store(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst.join("cells"))?;
    std::fs::copy(src.join("manifest.txt"), dst.join("manifest.txt"))?;
    for entry in std::fs::read_dir(src.join("cells"))? {
        let entry = entry?;
        std::fs::copy(entry.path(), dst.join("cells").join(entry.file_name()))?;
    }
    Ok(())
}

/// Build the synthetic store in both formats and time full scans of each,
/// interleaved with a narrow two-column projected v3 scan (the decoder
/// materialises only the requested columns); also run one zone-map-filtered
/// v3 query and record how many partitions its zone maps let it skip.
fn measure_store(budget: Duration, rows: usize) -> StoreNumbers {
    let base: PathBuf = std::env::temp_dir().join(format!("apc-perf-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let v2_dir = base.join("v2");
    let v3_dir = base.join("v3");
    write_v2_store(&v2_dir, 0xbe9c, rows).expect("write v2 store");
    copy_store(&v2_dir, &v3_dir).expect("copy store");
    compact_store(&v3_dir, None).expect("compact to v3");

    let full_scan = |dir: &Path| {
        let scanner = StoreScanner::open(dir).expect("open store");
        let mut seen = 0usize;
        scanner
            .scan(&RowFilter::default(), |row| {
                std::hint::black_box(row.launched_jobs);
                seen += 1;
                Ok(ScanFlow::Continue)
            })
            .expect("scan store");
        assert_eq!(seen, rows, "scan must visit every row");
    };
    let narrow = Projection::of(&["index".to_string(), "launched_jobs".to_string()])
        .expect("projection columns");
    let narrow_scan = |dir: &Path| {
        let scanner = StoreScanner::open(dir).expect("open store");
        let mut seen = 0usize;
        scanner
            .scan_projected(&RowFilter::default(), narrow, |row| {
                std::hint::black_box(row.launched_jobs);
                seen += 1;
                Ok(ScanFlow::Continue)
            })
            .expect("projected scan");
        assert_eq!(seen, rows, "projected scan must visit every row");
    };
    let (mut scan_v2, mut scan_v3, mut scan_v3_narrow) = (
        || full_scan(&v2_dir),
        || full_scan(&v3_dir),
        || narrow_scan(&v3_dir),
    );
    let [v2_wall, v3_wall, v3_narrow_wall] =
        median_of_interleaved(budget, [&mut scan_v2, &mut scan_v3, &mut scan_v3_narrow]);

    // A filtered query: the first-half partitions hold only "smalljob"
    // rows, so their zone maps prove them row-free for this filter.
    let filter = RowFilter {
        workload: Some("medianjob".to_string()),
        ..RowFilter::default()
    };
    let scanner = StoreScanner::open(&v3_dir).expect("open v3 store");
    let stats = scanner
        .scan(&filter, |_| Ok(ScanFlow::Continue))
        .expect("filtered scan");
    assert!(
        stats.partitions_skipped > 0,
        "the synthetic layout must exercise zone-map skipping"
    );
    let _ = std::fs::remove_dir_all(&base);
    StoreNumbers {
        rows,
        v2_scan_ns: v2_wall.as_nanos(),
        v3_scan_ns: v3_wall.as_nanos(),
        v3_narrow_scan_ns: v3_narrow_wall.as_nanos(),
        zone_skipped_parts: stats.partitions_skipped,
    }
}

fn json_entry(label: &str) -> String {
    let quick = std::env::args().any(|a| a == "--quick");
    let budget = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    eprintln!("measuring replay per policy + schedule-pass microbench (interleaved) …");
    let (replay, passes, ns_per_pass) = measure_gated(budget);
    eprintln!("measuring paper-grid campaign …");
    let (cells, wall_s, cells_per_sec) = measure_campaign(if quick { 1 } else { 2 });
    eprintln!("measuring result-store scans (v2 CSV vs v3 columnar) …");
    let store = measure_store(budget, if quick { 20_000 } else { 120_000 });
    let speedup = store.v2_scan_ns as f64 / store.v3_scan_ns.max(1) as f64;
    let projection_speedup = store.v3_scan_ns as f64 / store.v3_narrow_scan_ns.max(1) as f64;
    eprintln!(
        "  projection pushdown: narrow 2-column scan {projection_speedup:.2}x \
         faster than the full v3 decode"
    );
    let recorded = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let host = host_fingerprint();
    format!(
        "  {{\"label\": \"{label}\", \"recorded_unix\": {recorded}, \"host\": \"{host}\", \
         \"replay\": {{\"baseline_none_ns\": {}, \"cap60_shut_ns\": {}, \
         \"cap60_dvfs_ns\": {}, \"cap60_mix_ns\": {}, \"events_per_sec\": {:.0}}}, \
         \"schedule_pass\": {{\"passes\": {passes}, \"ns_per_pass\": {:.1}}}, \
         \"store\": {{\"rows\": {}, \"v2_scan_ns\": {}, \"v3_scan_ns\": {}, \
         \"speedup\": {speedup:.1}, \"v3_narrow_scan_ns\": {}, \
         \"projection_speedup\": {projection_speedup:.1}, \"zone_skipped_parts\": {}}}, \
         \"campaign\": {{\"cells\": {cells}, \"wall_s\": {:.3}, \"cells_per_sec\": {:.1}}}}}",
        replay.baseline_ns,
        replay.shut_ns,
        replay.dvfs_ns,
        replay.mix_ns,
        replay.events_per_sec,
        ns_per_pass,
        store.rows,
        store.v2_scan_ns,
        store.v3_scan_ns,
        store.v3_narrow_scan_ns,
        store.zone_skipped_parts,
        wall_s,
        cells_per_sec,
    )
}

/// Rewrite `path` keeping previously recorded entries (identified by their
/// one-entry-per-line layout), replacing any entry with the same label.
fn write_trajectory(path: &str, label: &str, entry: String) -> Result<(), String> {
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        let needle = format!("\"label\": \"{label}\"");
        for line in existing.lines() {
            let trimmed = line.trim_start();
            if trimmed.starts_with("{\"label\":") && !trimmed.contains(&needle) {
                entries.push(format!("  {}", trimmed.trim_end_matches(',')));
            }
        }
    }
    entries.push(entry);
    let body = entries.join(",\n");
    let text = format!(
        "{{\n\"schema\": 1,\n\
         \"description\": \"Perf trajectory of the replay/campaign hot paths; \
         one entry per PR, appended by `cargo run --release -p apc-bench --bin \
         perf-baseline -- --label NAME`. Times are best-of-N on the recording \
         host; compare entries recorded on the same host only.\",\n\
         \"entries\": [\n{body}\n]\n}}\n"
    );
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The committed reference for a gate run: the last entry of `text` that is
/// neither the fresh label nor a CI-appended (`ci-*`) entry from an earlier
/// run of this tool.
fn committed_reference(text: &str, fresh_label: &str) -> Option<gate::PerfEntry> {
    let entries = gate::parse_trajectory(text);
    gate::reference_entry(&entries, |label| {
        label == fresh_label || label.starts_with("ci-")
    })
    .cloned()
}

/// `--self-test`: prove the gate is live without measuring anything. The
/// committed reference must pass against itself and must *fail* against a
/// fabricated 1.5× DVFS-replay regression.
fn run_self_test(against: &str) -> ExitCode {
    let text = match std::fs::read_to_string(against) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("self-test: cannot read {against}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(committed) = committed_reference(&text, "") else {
        eprintln!("self-test: no committed entry in {against}");
        return ExitCode::FAILURE;
    };
    let clean = gate::check(&committed, &committed, gate::DEFAULT_THRESHOLD);
    let regressed = committed.with_synthetic_regression(1.5);
    let tripped = gate::check(&committed, &regressed, gate::DEFAULT_THRESHOLD);
    eprintln!("{clean}");
    eprintln!("{tripped}");
    if clean.passed() && !tripped.passed() {
        eprintln!("self-test: gate passes a clean entry and trips on a synthetic regression");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "self-test: gate is NOT live (clean={}, tripped={})",
            clean.passed(),
            !tripped.passed()
        );
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut label = "dev".to_string();
    let mut out = "BENCH_replay.json".to_string();
    let mut against: Option<String> = None;
    let mut check = false;
    let mut self_test = false;
    let mut threshold = gate::DEFAULT_THRESHOLD;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--label" => match iter.next() {
                Some(v) => label = v.clone(),
                None => {
                    eprintln!("--label needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match iter.next() {
                Some(v) => out = v.clone(),
                None => {
                    eprintln!("--out needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--against" => match iter.next() {
                Some(v) => against = Some(v.clone()),
                None => {
                    eprintln!("--against needs a value\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--threshold" => match iter.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => threshold = v / 100.0,
                _ => {
                    eprintln!("--threshold needs a positive percentage\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--check" => check = true,
            "--self-test" => self_test = true,
            "--quick" => {}
            other => {
                eprintln!("unknown option: {other}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let against = against.unwrap_or_else(|| out.clone());
    if self_test {
        return run_self_test(&against);
    }
    // Snapshot the committed trajectory before the write below replaces it,
    // so `--check` against the default path still compares pre-run state.
    let committed = if check {
        match std::fs::read_to_string(&against) {
            Ok(text) => committed_reference(&text, &label),
            Err(e) => {
                eprintln!("error: --check: cannot read {against}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    if check && committed.is_none() {
        eprintln!("error: --check: no committed entry to gate against in {against}");
        return ExitCode::FAILURE;
    }
    let entry = json_entry(&label);
    println!("{}", entry.trim_start());
    if let Err(e) = write_trajectory(&out, &label, entry.clone()) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if let Some(committed) = committed {
        let Some(fresh) = gate::parse_trajectory(&entry).pop() else {
            eprintln!("error: --check: fresh entry did not round-trip the parser");
            return ExitCode::FAILURE;
        };
        match (&committed.host, &fresh.host) {
            (Some(c), Some(f)) if c != f => eprintln!(
                "warning: cross-host comparison — '{}' was recorded on \"{c}\", this run on \
                 \"{f}\"; the gated ratios are host-independent, but treat close calls with care",
                committed.label
            ),
            (None, _) => eprintln!(
                "note: '{}' predates host fingerprints; cannot tell whether this comparison \
                 crosses hosts",
                committed.label
            ),
            _ => {}
        }
        let report = gate::check(&committed, &fresh, threshold);
        eprintln!("{report}");
        if !report.passed() {
            eprintln!(
                "perf gate failed: a tracked ratio grew more than {:.0} % over '{}'; \
                 if intentional, re-record the baseline (see README 'Performance')",
                threshold * 100.0,
                committed.label
            );
            return ExitCode::FAILURE;
        }
        // Absolute floor, independent of the committed baseline: the v3
        // columnar scan must stay an order of magnitude ahead of CSV row
        // parsing, measured side by side in this very run.
        if let Some(speedup) = fresh.store_speedup() {
            eprintln!(
                "store scan: v3 is {speedup:.1}x faster than v2 CSV (floor {:.0}x)",
                gate::STORE_SPEEDUP_FLOOR
            );
            if speedup < gate::STORE_SPEEDUP_FLOOR {
                eprintln!(
                    "perf gate failed: v3 store scan speedup {speedup:.1}x is below the \
                     {:.0}x floor",
                    gate::STORE_SPEEDUP_FLOOR
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
