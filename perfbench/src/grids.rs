//! The two campaign workloads, `paper-grid` and `fault-sweep`: their
//! grids, one end-to-end run of each the way a user makes it, and the timed
//! loop that reports the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use apc_campaign::prelude::*;
use apc_core::PowercapPolicy;
use apc_replay::{CapSchedule, FaultPlan};
use apc_workload::IntervalKind;

use crate::check::{check_grid, GridVerdict};
use crate::stats::{median, peak_rss_mb, quantile, Metrics};
use crate::Outcome;

/// Generator seeds per `paper-grid` campaign: 4 intervals × 10 scenarios
/// each, so 320 cells.
pub const PAPER_SEEDS: usize = 8;
/// Generator seeds per `fault-sweep` campaign: 39 cells each, so 2 184
/// cells — about 10 s of compute. The idle lease worker naps in whole
/// seconds, so each campaign's wall ends on its next wake-up; at this size
/// that step is a tenth of the wall or less.
pub const FAULT_SEEDS: usize = 56;
/// Threads (local executor) or worker threads (lease path) per run.
pub const THREADS: usize = 2;
/// Set-ups timed per run, counting those of the measured campaigns.
const MIN_SETUPS: usize = 15;
/// Rendered files `campaign --out` writes.
const RENDERS: [&str; 4] = ["cells.csv", "summary.csv", "cells.json", "summary.json"];

/// A campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grid {
    /// The paper's grid through the local work-stealing executor.
    Paper,
    /// Schedules × fault plans through the lease-log worker path.
    FaultSweep,
}

impl Grid {
    /// The grid of campaign number `campaign` of a run, derived from
    /// `--seed` alone. Successive campaigns of one run replay fresh
    /// generator seeds, so a run averages over many workloads.
    pub fn spec(self, seed: u64, campaign: usize) -> CampaignSpec {
        match self {
            Grid::Paper => CampaignSpec::paper(
                2012 + seed * 100_000 + (campaign * PAPER_SEEDS) as u64,
                PAPER_SEEDS,
            ),
            Grid::FaultSweep => {
                let base = 1 + seed * 100_000 + (campaign * FAULT_SEEDS) as u64;
                CampaignSpec {
                    racks: vec![4],
                    intervals: vec![IntervalKind::MedianJob],
                    seeds: (base..base + FAULT_SEEDS as u64).collect(),
                    cap_schedules: vec![CapSchedule::parse(
                        "0 6000 0.8\n6000 6000 0.4\n12000 6000 0.6\n",
                    )
                    .expect("valid schedule")],
                    faults: vec![
                        None,
                        Some(FaultPlan::parse("3x600@7").expect("valid plan")),
                        Some(FaultPlan::parse("6x1800@11:chassis").expect("valid plan")),
                    ],
                    policies: vec![
                        PowercapPolicy::Shut,
                        PowercapPolicy::Dvfs,
                        PowercapPolicy::Mix,
                    ],
                    ..CampaignSpec::default()
                }
            }
        }
    }
}

/// What one end-to-end run did and how long it took.
#[derive(Debug)]
pub struct RunRecord {
    /// Spec expansion plus store (and lease-log) creation, in seconds.
    pub setup_s: f64,
    /// From the first library call until the renders are written, seconds.
    pub wall_s: f64,
    /// Cells in the grid.
    pub cells: usize,
    /// Executor statistics (`paper-grid`).
    pub stats: Option<RunStats>,
    /// Executor wall time inside `run_with_store` (`paper-grid`), seconds.
    pub exec_s: f64,
    /// Each lease worker's outcome and call duration in seconds
    /// (`fault-sweep`).
    pub workers: Vec<(WorkerOutcome, f64)>,
    /// Time spent writing the renders, seconds.
    pub render_s: f64,
}

fn write_renders(dir: &Path, rows: &[CellRow], summaries: &[SummaryRow]) -> Result<(), String> {
    CsvSink::new(dir)
        .write(rows, summaries)
        .and_then(|_| JsonSink::new(dir).write(rows, summaries))
        .map(|_| ())
        .map_err(|e| format!("cannot write renders to {}: {e}", dir.display()))
}

/// Create the store (and, on the lease path, the lease log) for `spec` in
/// `dir`: the set-up a user's run pays before the first cell.
fn set_up(grid: Grid, runner: &CampaignRunner, dir: &Path) -> Result<ResultStore, String> {
    let cells = runner.cells()?.len();
    let store =
        ResultStore::create_with_schema(dir, runner.fingerprint(), cells, STORE_SCHEMA_VERSION)
            .map_err(|e| format!("cannot create store in {}: {e}", dir.display()))?;
    if grid == Grid::FaultSweep {
        LeaseLog::create(
            dir,
            runner.fingerprint(),
            cells,
            DEFAULT_LEASE_CELLS,
            DEFAULT_LEASE_TTL_MS,
        )?;
    }
    Ok(store)
}

/// Time one set-up alone.
pub fn setup_once(grid: Grid, spec: &CampaignSpec, dir: &Path) -> Result<f64, String> {
    let started = Instant::now();
    let runner = CampaignRunner::new(spec.clone());
    drop(set_up(grid, &runner, dir)?);
    Ok(started.elapsed().as_secs_f64())
}

/// One end-to-end run into the fresh directory `dir`. `obs` holds one
/// attachment per runner: one for `paper-grid`, one per lease worker for
/// `fault-sweep`.
pub fn run_once(
    grid: Grid,
    spec: &CampaignSpec,
    dir: &Path,
    obs: &[CampaignObs],
) -> Result<RunRecord, String> {
    let started = Instant::now();
    match grid {
        Grid::Paper => {
            let runner = CampaignRunner::new(spec.clone())
                .with_threads(THREADS)
                .with_obs(obs[0].clone());
            let mut store = set_up(grid, &runner, dir)?;
            let setup_s = started.elapsed().as_secs_f64();
            let outcome = runner.run_with_store(&mut store)?;
            let render_start = Instant::now();
            write_renders(dir, &outcome.rows, &outcome.summaries)?;
            Ok(RunRecord {
                setup_s,
                wall_s: started.elapsed().as_secs_f64(),
                cells: outcome.rows.len(),
                exec_s: outcome.wall.as_secs_f64(),
                stats: Some(outcome.stats),
                workers: Vec::new(),
                render_s: render_start.elapsed().as_secs_f64(),
            })
        }
        Grid::FaultSweep => {
            let runners: Vec<CampaignRunner> = obs
                .iter()
                .map(|o| {
                    CampaignRunner::new(spec.clone())
                        .with_threads(1)
                        .with_obs(o.clone())
                })
                .collect();
            drop(set_up(grid, &runners[0], dir)?);
            let setup_s = started.elapsed().as_secs_f64();
            let workers = std::thread::scope(|scope| {
                let handles: Vec<_> = runners
                    .iter()
                    .enumerate()
                    .map(|(w, runner)| {
                        scope.spawn(move || {
                            let t = Instant::now();
                            runner
                                .run_worker(dir, w, true)
                                .map(|o| (o, t.elapsed().as_secs_f64()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("lease worker panicked"))
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let store = ResultStore::open(dir)?;
            if !store.is_complete() {
                return Err(format!(
                    "lease workers left the store incomplete: {}/{} cells",
                    store.completed_count(),
                    store.total_cells()
                ));
            }
            let rows = store.rows();
            let summaries = summarize(&rows);
            let render_start = Instant::now();
            write_renders(dir, &rows, &summaries)?;
            Ok(RunRecord {
                setup_s,
                wall_s: started.elapsed().as_secs_f64(),
                cells: rows.len(),
                stats: None,
                exec_s: 0.0,
                workers,
                render_s: render_start.elapsed().as_secs_f64(),
            })
        }
    }
}

/// Total size of the four renders of the run in `dir`, in bytes.
pub fn render_bytes(dir: &Path) -> Result<u64, String> {
    RENDERS.iter().try_fold(0, |sum, name| {
        let path = dir.join(name);
        std::fs::metadata(&path)
            .map(|m| sum + m.len())
            .map_err(|e| format!("cannot stat {}: {e}", path.display()))
    })
}

/// Every row of the store in `dir`, by cell index.
pub fn stored_rows(dir: &Path) -> Result<BTreeMap<usize, CellRow>, String> {
    Ok(ResultStore::open(dir)?
        .rows()
        .into_iter()
        .map(|r| (r.index, r))
        .collect())
}

/// Observability attachments for one run: all disabled, or all live.
pub fn attachments(grid: Grid, traced: bool) -> Vec<CampaignObs> {
    let runners = if grid == Grid::Paper { 1 } else { THREADS };
    (0..runners)
        .map(|_| {
            if traced {
                CampaignObs::full()
            } else {
                CampaignObs::disabled()
            }
        })
        .collect()
}

/// The stderr line reporting the checks of one grid.
pub fn report_verdict(v: &GridVerdict) -> String {
    format!(
        "check: {} cell(s) replayed independently; cells_failed {} ({} missing, {} differing); \
         {} cell(s) above cap for cap_overshoot_s {:.0} s in total, worst excess {:.1} W{}",
        v.cells,
        v.failed(),
        v.missing,
        v.mismatched,
        v.over_cap,
        v.overshoot_s,
        v.worst_watts,
        v.first_over_cap
            .map_or(String::new(), |i| format!(" (first: cell {i})")),
    )
}

/// The timed runs: end-to-end campaigns over fresh seeds, back to back,
/// for about `seconds`; then the last campaign's rows are checked against
/// independent replays, and its replays against their caps.
pub fn timed(grid: Grid, seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut cells_run = 0usize;
    let mut incomplete = 0usize;
    let mut last: Option<(CampaignSpec, PathBuf)> = None;
    let started = Instant::now();
    // Start another campaign while that ends nearer `seconds` than stopping.
    while walls.is_empty()
        || started.elapsed().as_secs_f64() + walls[walls.len() - 1] / 2.0 < seconds
    {
        let spec = grid.spec(seed, walls.len());
        let dir = work.join(format!("run-{}", walls.len()));
        let record = run_once(grid, &spec, &dir, &attachments(grid, false))?;
        setups.push(record.setup_s);
        walls.push(record.wall_s);
        cells_run += record.cells;
        // Every campaign must render one CSV line per cell.
        let csv = std::fs::read_to_string(dir.join(RENDERS[0])).unwrap_or_default();
        let expected = spec.cell_count()?;
        if record.cells != expected || csv.lines().count() != expected + 1 {
            incomplete += expected;
        }
        if let Some((_, prev)) = last.replace((spec, dir)) {
            let _ = std::fs::remove_dir_all(prev);
        }
    }
    let (spec, last_dir) = last.expect("at least one campaign");
    while setups.len() < MIN_SETUPS {
        let dir = work.join("setup");
        setups.push(setup_once(grid, &spec, &dir)?);
        let _ = std::fs::remove_dir_all(dir);
    }
    let cells = spec.expand(&TraceSource::Synthetic)?;
    let verdict = check_grid(&spec, &cells, &stored_rows(&last_dir)?, THREADS);
    eprintln!("{}", report_verdict(&verdict));
    if incomplete > 0 {
        eprintln!("check: {incomplete} cell(s) of earlier campaigns missing from their renders");
    }

    let mut metrics = Metrics::default();
    metrics.put(
        "ops_per_s",
        cells_run as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    metrics.put("op_p50_ms", median(&walls) * 1e3, "ms");
    metrics.put("op_p90_ms", quantile(&walls, 0.9) * 1e3, "ms");
    metrics.put("setup_s", median(&setups), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{} campaign(s) of {} cells, walls {:?} s",
        walls.len(),
        cells.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let failed = verdict.failed() + incomplete;
    Ok(Outcome {
        correct: failed == 0 && verdict.cells == cells.len(),
        attempted: cells_run as u64,
        failed: failed as u64,
        metrics,
    })
}
