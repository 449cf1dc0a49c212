//! The traced run of the campaign workloads and its layer split.
//!
//! Two parts, both separate from the timed runs:
//!
//! 1. The end-to-end run again, alternating untraced and traced
//!    (`CampaignObs::full()`) repetitions. The difference of their median
//!    walls is `trace.overhead_share`; the traced repetitions give the
//!    executor's (`exec.*`), lease (`lease.*`), store-size and render
//!    metrics.
//! 2. A layer-split pass in this file's own code: it walks the expanded
//!    cells in order and times each call into a layer's public functions —
//!    trace generation, harness build, replay with a live `ControllerObs`,
//!    row reduction, the cap check, a durable store append, `summarize` and
//!    the renders — recording one span per call (name, start, end, parent,
//!    cell id) through `apc_obs::SpanRecorder`. Spans stay in memory and
//!    are written as a Chrome trace at the end. The same pass checks every
//!    row against the traced run's store and every replay against its caps.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use apc_campaign::prelude::*;
use apc_obs::{write_chrome_trace, ArgValue, Registry, SpanRecorder, SpanStart, TraceEvent};
use apc_replay::{IntervalKind, ReplayHarness};
use apc_rjms::log::SimEventKind;
use apc_rjms::obs::ControllerObs;

use crate::check::{cap_spans, cell_overshoot, generator_for, GridVerdict};
use crate::grids::{
    attachments, render_bytes, report_verdict, run_once, stored_rows, Grid, RunRecord, THREADS,
};
use crate::stats::{dir_bytes, median, quantile, Metrics};
use crate::Outcome;

/// Untraced/traced repetition pairs of the end-to-end run.
const PAIRS: usize = 2;

/// Cap classes of `replay.cell_ms.<interval>-cap<N>`.
const CAP_CLASSES: [&str; 5] = ["40", "60", "80", "100", "sched"];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("workload.traces_generated", "count"),
        ("workload.trace_gen_ms", "ms"),
        ("replay.harness_build_ms", "ms"),
        ("replay.cell_ms.p50", "ms"),
        ("replay.cell_ms.p99", "ms"),
        ("replay.cell_ms.max", "ms"),
        ("replay.busy_share", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for interval in IntervalKind::ALL {
        for cap in CAP_CLASSES {
            names.push((format!("replay.cell_ms.{}-cap{cap}", interval.name()), "ms"));
        }
    }
    names.extend(
        [
            ("rjms.schedule_passes", "count"),
            ("rjms.pass_ns.mean", "ns"),
            ("rjms.pass_ns.p99", "ns"),
            ("rjms.queue_depth.mean", "count"),
            ("rjms.blocked_cache.hit_ratio", "ratio"),
            ("rjms.blocked_cache.hits", "count"),
            ("rjms.blocked_cache.misses", "count"),
            ("power.probe.fast", "count"),
            ("power.probe.slow", "count"),
            ("core.nodes_powered_off", "count"),
            ("core.nodes_powered_on", "count"),
            ("core.jobs_killed", "count"),
            ("exec.cells_stolen", "count"),
            ("exec.worker_idle_s", "s"),
            ("exec.trace_cache.hits", "count"),
            ("exec.trace_cache.misses", "count"),
            ("store.append_us.p50", "us"),
            ("store.append_us.p99", "us"),
            ("store.append_share", "ratio"),
            ("store.bytes_per_row", "B"),
            ("lease.batches", "count"),
            ("lease.claims", "count"),
            ("lease.renews", "count"),
            ("lease.conflicts", "count"),
            ("lease.steals", "count"),
            ("lease.workers_used", "count"),
            ("lease.wait_s", "s"),
            ("agg.summarize_ms", "ms"),
            ("sink.render_ms", "ms"),
            ("sink.bytes", "B"),
            ("query.scan_skip_ms.p50", "ms"),
            ("query.scan_full_ms.p50", "ms"),
            ("query.projected_ms.p50", "ms"),
            ("query.group_by_ms.p50", "ms"),
            ("query.pareto_ms.p50", "ms"),
            ("query.partitions_skipped_ratio", "ratio"),
            ("query.rows_matched_ratio", "ratio"),
            ("trace.overhead_share", "ratio"),
            ("trace.unaccounted_share", "ratio"),
            ("trace.spans", "count"),
            ("check.cells_over_cap", "count"),
            ("check.cap_overshoot_s", "s"),
            ("check.worst_overshoot_w", "W"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    names
}

/// Every per-layer metric in report order: the measured value, or 0 for a
/// layer this workload does not exercise.
pub fn complete(measured: Metrics) -> Metrics {
    let names = per_layer_names();
    for m in &measured.0 {
        assert!(
            names.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "per-layer metric {} [{}] is not listed",
            m.name,
            m.unit
        );
    }
    let mut out = Metrics::default();
    for (name, unit) in names {
        let value = measured.get(&name).unwrap_or(0.0);
        out.put(name, value, unit);
    }
    out
}

/// Duration of a recorded span in seconds.
fn span_s(e: &TraceEvent) -> f64 {
    e.dur_us as f64 / 1e6
}

/// Records the layer-split pass: spans plus per-layer time totals.
struct Split {
    spans: SpanRecorder,
    /// Seconds of spans with no parent inside the pass.
    top_level_s: f64,
}

impl Split {
    /// Time `f` as a span named `name` under `parent` for `cell`.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        cell: usize,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.spans.start();
        let t = Instant::now();
        let value = f();
        let s = t.elapsed().as_secs_f64();
        self.finish(span, name, parent, cell);
        if parent == "pass" {
            self.top_level_s += s;
        }
        (value, s)
    }

    fn finish(&self, span: SpanStart, name: &'static str, parent: &'static str, cell: usize) {
        self.spans.complete(
            span,
            name,
            name.split('.').next().unwrap_or(name),
            0,
            vec![
                ("parent", ArgValue::Str(parent.into())),
                ("cell", cell.into()),
            ],
        );
    }
}

/// The class of a cell for `replay.cell_ms.<interval>-cap<N>`.
fn cell_class(cell: &CampaignCell) -> String {
    let cap = if cell.scenario.cap_schedule.is_some() {
        "sched".to_string()
    } else {
        cell.scenario
            .cap_fraction
            .map_or("100".to_string(), |f| format!("{:.0}", f * 100.0))
    };
    format!("replay.cell_ms.{}-cap{cap}", cell.workload.label())
}

/// Metrics of the traced end-to-end repetitions.
fn end_to_end_split(
    grid: Grid,
    record: &RunRecord,
    obs: &[CampaignObs],
    dir: &Path,
    m: &mut Metrics,
) -> Result<Vec<TraceEvent>, String> {
    let mut dump = Vec::new();
    let mut cell_s = 0.0;
    let mut per_runner_cell_s = Vec::new();
    for (r, o) in obs.iter().enumerate() {
        let events = o.spans.take_events();
        let s: f64 = events.iter().filter(|e| e.name == "cell").map(span_s).sum();
        per_runner_cell_s.push(s);
        cell_s += s;
        // Each runner's lanes sit apart from the layer pass's lane 0 (the
        // recorders have separate epochs, so only durations compare).
        dump.extend(events.into_iter().map(|mut e| {
            e.tid += 10 * (r as u64 + 1);
            e
        }));
    }
    m.put(
        "replay.busy_share",
        cell_s / (THREADS as f64 * record.wall_s),
        "ratio",
    );
    match grid {
        Grid::Paper => {
            let stats = record
                .stats
                .as_ref()
                .expect("paper runs report executor stats");
            m.put("exec.cells_stolen", stats.total_steals() as f64, "count");
            m.put(
                "exec.trace_cache.hits",
                stats.trace_cache_hits as f64,
                "count",
            );
            m.put(
                "exec.trace_cache.misses",
                stats.trace_cache_misses as f64,
                "count",
            );
            m.put(
                "exec.worker_idle_s",
                stats.threads as f64 * record.exec_s - cell_s,
                "s",
            );
        }
        Grid::FaultSweep => {
            let counter = |name: &str| -> f64 {
                obs.iter()
                    .map(|o| o.registry.snapshot().counter(name).unwrap_or(0) as f64)
                    .sum()
            };
            m.put(
                "exec.cells_stolen",
                counter("campaign.cells.stolen"),
                "count",
            );
            m.put(
                "exec.trace_cache.hits",
                counter("campaign.trace_cache.hits"),
                "count",
            );
            m.put(
                "exec.trace_cache.misses",
                counter("campaign.trace_cache.misses"),
                "count",
            );
            let idle: f64 = record
                .workers
                .iter()
                .zip(&per_runner_cell_s)
                .map(|((_, call_s), cells_s)| call_s - cells_s)
                .sum();
            m.put("exec.worker_idle_s", idle, "s");
            let sum = |f: fn(&WorkerOutcome) -> usize| -> f64 {
                record.workers.iter().map(|(o, _)| f(o) as f64).sum()
            };
            m.put("lease.batches", sum(|o| o.batches), "count");
            m.put("lease.claims", sum(|o| o.claims), "count");
            m.put("lease.renews", sum(|o| o.renews), "count");
            m.put("lease.conflicts", sum(|o| o.conflicts), "count");
            m.put("lease.steals", sum(|o| o.steals), "count");
            m.put(
                "lease.workers_used",
                sum(|o| usize::from(o.cells > 0)),
                "count",
            );
            let waiting: f64 = record
                .workers
                .iter()
                .filter(|(o, _)| o.cells == 0)
                .map(|(_, call_s)| call_s)
                .sum();
            m.put("lease.wait_s", waiting, "s");
        }
    }
    m.put(
        "store.bytes_per_row",
        dir_bytes(&dir.join("cells")) as f64 / record.cells as f64,
        "B",
    );
    m.put("sink.render_ms", record.render_s * 1e3, "ms");
    m.put("sink.bytes", render_bytes(dir)? as f64, "B");
    Ok(dump)
}

/// The traced run of a campaign workload.
pub fn traced_grid(grid: Grid, seed: u64, work: &Path, out: &Path) -> Result<Outcome, String> {
    let spec = grid.spec(seed, 0);
    let cells = spec.expand(&TraceSource::Synthetic)?;
    let mut m = Metrics::default();

    // Part 1: alternate untraced and traced end-to-end repetitions.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last_traced = None;
    for pair in 0..PAIRS {
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            let dir = work.join(format!("e2e-{pair}-{}", u8::from(traced_turn)));
            let obs = attachments(grid, traced_turn);
            let record = run_once(grid, &spec, &dir, &obs)?;
            if traced_turn {
                traced.push(record.wall_s);
                if let Some((_, _, old)) = last_traced.replace((record, obs, dir)) {
                    let _ = std::fs::remove_dir_all(old);
                }
            } else {
                plain.push(record.wall_s);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    m.put(
        "trace.overhead_share",
        median(&traced) / median(&plain) - 1.0,
        "ratio",
    );
    let (record, obs, e2e_dir) = last_traced.expect("at least one traced repetition");
    let mut dump = end_to_end_split(grid, &record, &obs, &e2e_dir, &mut m)?;
    let stored = stored_rows(&e2e_dir)?;

    // Part 2: the layer-split pass.
    let mut split = Split {
        spans: SpanRecorder::new(),
        top_level_s: 0.0,
    };
    let registry = Registry::new();
    let layer_dir = work.join("layers");
    let mut store = ResultStore::create_with_schema(
        &layer_dir,
        spec.fingerprint(&TraceSource::Synthetic),
        cells.len(),
        STORE_SCHEMA_VERSION,
    )
    .map_err(|e| format!("cannot create store in {}: {e}", layer_dir.display()))?;
    let mut verdict = GridVerdict::default();
    let (mut trace_gen_s, mut harness_s, mut append_s) = (0.0, 0.0, 0.0);
    let mut traces = 0usize;
    let mut cell_ms = Vec::new();
    let mut class_ms: BTreeMap<String, f64> = BTreeMap::new();
    let mut append_us = Vec::new();
    let mut pass_ns = Vec::new();
    let (mut powered_off, mut powered_on, mut killed) = (0usize, 0usize, 0usize);
    let mut rows = Vec::with_capacity(cells.len());
    let mut harness: Option<((usize, CellWorkload), ReplayHarness)> = None;
    let pass_started = Instant::now();
    for cell in &cells {
        let key = (cell.racks, cell.workload);
        if harness.as_ref().is_none_or(|(k, _)| *k != key) {
            let platform = platform_for(cell.racks);
            let generator = generator_for(&spec, cell);
            let (trace, s) = split.time("workload.trace_gen", "pass", cell.index, || {
                generator.generate_for(&platform)
            });
            trace_gen_s += s;
            traces += 1;
            let (h, s) = split.time("replay.harness_build", "pass", cell.index, || {
                ReplayHarness::from_shared(platform, Arc::new(trace))
                    .with_initial_fairshare(spec.initial_fairshare_core_hours)
            });
            harness_s += s;
            harness = Some((key, h));
        }
        let (_, h) = harness.as_ref().expect("harness just built");
        let cell_span = split.spans.start();
        let cell_started = Instant::now();
        let passes = SpanRecorder::new();
        let obs = ControllerObs::new(&registry, passes.clone());
        let (outcome, s) = split.time("replay.run", "cell", cell.index, || {
            h.run_with_obs(&cell.scenario, obs)
        });
        cell_ms.push(s * 1e3);
        *class_ms.entry(cell_class(cell)).or_default() += s * 1e3;
        pass_ns.extend(passes.take_events().iter().map(|e| e.dur_us as f64 * 1e3));
        let (row, _) = split.time("agg.row", "cell", cell.index, || {
            CellRow::from_outcome(cell, &outcome)
        });
        let (over, _) = split.time("check.cap", "cell", cell.index, || {
            cell_overshoot(&outcome.power, &cap_spans(&cell.scenario, h.platform()))
        });
        let ok = stored
            .get(&cell.index)
            .map(|r| r.to_store_line() == row.to_store_line());
        verdict.add(cell.index, ok, over);
        for e in outcome.log.events() {
            match &e.kind {
                SimEventKind::NodesPoweredOff { nodes } => powered_off += nodes.len(),
                SimEventKind::NodesPoweredOn { nodes } => powered_on += nodes.len(),
                SimEventKind::JobKilled { .. } => killed += 1,
                _ => {}
            }
        }
        let (appended, s) = split.time("store.append", "cell", cell.index, || store.append(&row));
        appended.map_err(|e| format!("cannot append cell {}: {e}", cell.index))?;
        append_s += s;
        append_us.push(s * 1e6);
        rows.push(row);
        split.finish(cell_span, "cell", "pass", cell.index);
        split.top_level_s += cell_started.elapsed().as_secs_f64();
    }
    let (summaries, summarize_s) = split.time("agg.summarize", "pass", 0, || summarize(&rows));
    let (rendered, _) = split.time("sink.render", "pass", 0, || {
        CsvSink::new(&layer_dir)
            .write(&rows, &summaries)
            .and_then(|_| JsonSink::new(&layer_dir).write(&rows, &summaries))
    });
    rendered.map_err(|e| format!("cannot render to {}: {e}", layer_dir.display()))?;
    let pass_s = pass_started.elapsed().as_secs_f64();

    m.put("workload.traces_generated", traces as f64, "count");
    m.put("workload.trace_gen_ms", trace_gen_s * 1e3, "ms");
    m.put("replay.harness_build_ms", harness_s * 1e3, "ms");
    m.put("replay.cell_ms.p50", median(&cell_ms), "ms");
    m.put("replay.cell_ms.p99", quantile(&cell_ms, 0.99), "ms");
    m.put("replay.cell_ms.max", quantile(&cell_ms, 1.0), "ms");
    for (name, ms) in class_ms {
        m.put(name, ms, "ms");
    }
    let snap = registry.snapshot();
    let passes = snap
        .histogram("rjms.schedule_pass.duration_ns")
        .cloned()
        .unwrap_or_default();
    m.put("rjms.schedule_passes", passes.count as f64, "count");
    m.put("rjms.pass_ns.mean", passes.mean(), "ns");
    m.put("rjms.pass_ns.p99", quantile(&pass_ns, 0.99), "ns");
    m.put(
        "rjms.queue_depth.mean",
        snap.histogram("rjms.schedule_pass.queue_depth")
            .map_or(0.0, |h| h.mean()),
        "count",
    );
    let hits = snap.counter("rjms.blocked_cache.hits").unwrap_or(0) as f64;
    let misses = snap.counter("rjms.blocked_cache.misses").unwrap_or(0) as f64;
    m.put(
        "rjms.blocked_cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.put("rjms.blocked_cache.hits", hits, "count");
    m.put("rjms.blocked_cache.misses", misses, "count");
    m.put(
        "power.probe.fast",
        snap.counter("rjms.probe.fast").unwrap_or(0) as f64,
        "count",
    );
    m.put(
        "power.probe.slow",
        snap.counter("rjms.probe.slow").unwrap_or(0) as f64,
        "count",
    );
    m.put("core.nodes_powered_off", powered_off as f64, "count");
    m.put("core.nodes_powered_on", powered_on as f64, "count");
    m.put("core.jobs_killed", killed as f64, "count");
    m.put("store.append_us.p50", median(&append_us), "us");
    m.put("store.append_us.p99", quantile(&append_us, 0.99), "us");
    m.put("store.append_share", append_s / pass_s, "ratio");
    m.put("agg.summarize_ms", summarize_s * 1e3, "ms");
    m.put(
        "trace.unaccounted_share",
        1.0 - split.top_level_s / pass_s,
        "ratio",
    );
    m.put("check.cells_over_cap", verdict.over_cap as f64, "count");
    m.put("check.cap_overshoot_s", verdict.overshoot_s, "s");
    m.put("check.worst_overshoot_w", verdict.worst_watts, "W");

    let events = split.spans.take_events();
    m.put("trace.spans", (events.len() + dump.len()) as f64, "count");
    dump.extend(events);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let name = if grid == Grid::Paper {
        "paper-grid"
    } else {
        "fault-sweep"
    };
    let path = out.join(format!("{name}-seed{seed}.trace.json"));
    std::fs::write(
        &path,
        write_chrome_trace(&dump, &format!("perfbench {name}")),
    )
    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} span(s) to {}", dump.len(), path.display());
    eprintln!("{}", report_verdict(&verdict));
    eprintln!(
        "layer pass {pass_s:.3} s; end-to-end untraced {:?} s, traced {:?} s",
        plain, traced
    );

    Ok(Outcome {
        correct: verdict.failed() == 0 && verdict.cells == cells.len(),
        attempted: cells.len() as u64,
        failed: verdict.failed() as u64,
        metrics: complete(m),
    })
}
