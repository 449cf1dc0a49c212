//! The `store-query` workload: the result store's read path alone.
//!
//! Set-up appends synthetic rows to a v3 store through
//! `ResultStore::append`, one single-row block each as a live campaign
//! writes them. About half the rows carry schedule or fault labels, so
//! both `APC3` and `APC4` blocks appear. One client then issues a seeded
//! mix of the queries `campaign query` and `campaign pareto` run, in a
//! closed loop: the next query starts when the previous answer is in.
//! Every answer is compared with the plain reference of
//! [`reference_answer`].

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use apc_campaign::prelude::*;
use apc_obs::{write_chrome_trace, ArgValue, SpanRecorder};

use crate::check::{digest_lines, digest_row, reference_answer, Answer, Digest, Query, QueryKind};
use crate::stats::{dir_bytes, median, peak_rss_mb, quantile, Metrics, SplitMix};
use crate::Outcome;

/// Rows in the store: a full scan decodes tens of milliseconds of blocks.
pub const ROWS: usize = 30_000;
/// Rows per generator seed; a whole number of 64-row partitions, so a
/// seed filter lets the zone maps skip every other seed's partitions.
const ROWS_PER_SEED: usize = 512;
/// Times the store is built during set-up.
const BUILDS: usize = 5;
/// Distinct queries per kind in the mix.
const VARIANTS: usize = 8;

const WORKLOADS: [&str; 4] = ["smalljob", "medianjob", "bigjob", "24h"];
const POLICIES: [&str; 3] = ["shut", "dvfs", "mix"];
const FAULTS: [&str; 2] = ["-", "3x600@7"];
const SCHEDULE: &str = "0+6000@80|6000+6000@40|12000+6000@60";

/// Row `index` of the synthetic store built from `seed`.
pub fn synthetic_row(seed: u64, index: usize, rng: &mut SplitMix) -> CellRow {
    let j = index % ROWS_PER_SEED;
    let k = j % 13;
    let (policy, cap, scenario, window, schedule) = match k {
        0 => ("none", f64::NAN, "100%/None".to_string(), "-", "-"),
        1..=9 => {
            let cap = [80.0, 60.0, 40.0][(k - 1) / 3];
            let policy = POLICIES[(k - 1) % 3];
            let scenario = format!("{cap:.0}%/{}", policy.to_uppercase());
            (policy, cap, scenario, "7200+3600", "-")
        }
        _ => {
            let policy = POLICIES[k - 10];
            let window = "0+6000|6000+6000|12000+6000";
            (
                policy,
                f64::NAN,
                format!("SCHED/{}", policy.to_uppercase()),
                window,
                SCHEDULE,
            )
        }
    };
    let energy = 0.4 + 0.6 * rng.unit();
    let work = 0.3 + 0.7 * rng.unit();
    let launched = 200 + rng.below(800);
    CellRow {
        index,
        racks: 2,
        workload: WORKLOADS[(j / 128) % WORKLOADS.len()].to_string(),
        seed: Some(seed * 10_000 + (index / ROWS_PER_SEED) as u64),
        load_factor: 1.8,
        scenario,
        window: window.to_string(),
        policy: policy.to_string(),
        cap_percent: cap,
        grouping: "grouped".to_string(),
        decision_rule: "paper-rho".to_string(),
        schedule: schedule.to_string(),
        faults: FAULTS[(j / 13) % FAULTS.len()].to_string(),
        launched_jobs: launched,
        completed_jobs: launched - rng.below(100),
        killed_jobs: rng.below(5),
        pending_jobs: rng.below(300),
        work_core_seconds: 1e6 * work,
        energy_joules: 1e9 * energy,
        energy_normalized: energy,
        launched_jobs_normalized: 0.5 + 0.5 * rng.unit(),
        work_normalized: work,
        mean_wait_seconds: 3600.0 * rng.unit(),
        peak_power_watts: 40_000.0 + 20_000.0 * rng.unit(),
    }
}

/// Build the store in `dir`; returns each append's duration in seconds.
pub fn build_store(seed: u64, dir: &Path) -> Result<Vec<f64>, String> {
    let mut store = ResultStore::create_with_schema(dir, seed, ROWS, STORE_SCHEMA_VERSION)
        .map_err(|e| format!("cannot create store in {}: {e}", dir.display()))?;
    store.set_sync(false);
    let mut rng = SplitMix::new(seed);
    let mut appends = Vec::with_capacity(ROWS);
    for index in 0..ROWS {
        let row = synthetic_row(seed, index, &mut rng);
        let t = Instant::now();
        store
            .append(&row)
            .map_err(|e| format!("cannot append row {index}: {e}"))?;
        appends.push(t.elapsed().as_secs_f64());
    }
    Ok(appends)
}

/// The distinct queries of the mix for `seed`.
pub fn query_set(seed: u64) -> Vec<Query> {
    let mut rng = SplitMix::new(seed ^ 0x51);
    let seeds = ROWS / ROWS_PER_SEED;
    let mut queries = Vec::new();
    for _ in 0..VARIANTS {
        let workload = Some(WORKLOADS[rng.below(WORKLOADS.len())].to_string());
        queries.push(Query {
            kind: QueryKind::ScanSkip,
            filter: RowFilter {
                seed: Some(seed * 10_000 + rng.below(seeds) as u64),
                ..RowFilter::default()
            },
            columns: Vec::new(),
            group_by: Vec::new(),
        });
        queries.push(Query {
            kind: QueryKind::ScanFull,
            filter: RowFilter {
                policy: Some(POLICIES[rng.below(POLICIES.len())].to_string()),
                faults: Some(FAULTS[rng.below(FAULTS.len())].to_string()),
                ..RowFilter::default()
            },
            columns: Vec::new(),
            group_by: Vec::new(),
        });
        queries.push(Query {
            kind: QueryKind::Projected,
            filter: RowFilter {
                workload: workload.clone(),
                ..RowFilter::default()
            },
            columns: ["index", "scenario", "energy_normalized", "work_normalized"]
                .iter()
                .map(|c| c.to_string())
                .collect(),
            group_by: Vec::new(),
        });
        queries.push(Query {
            kind: QueryKind::GroupBy,
            filter: RowFilter {
                faults: (rng.below(2) == 0).then(|| FAULTS[rng.below(FAULTS.len())].to_string()),
                ..RowFilter::default()
            },
            columns: DEFAULT_AGG_COLUMNS.iter().map(|c| c.to_string()).collect(),
            group_by: vec!["workload".into(), "scenario".into()],
        });
        queries.push(Query {
            kind: QueryKind::Pareto,
            filter: RowFilter {
                workload,
                ..RowFilter::default()
            },
            columns: Vec::new(),
            group_by: Vec::new(),
        });
    }
    queries
}

/// Where one query's time went (seconds), for the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryTimes {
    /// `StoreScanner::open`.
    pub open_s: f64,
    /// The scan with its per-row fold.
    pub scan_s: f64,
    /// `summarize` (Pareto queries).
    pub summarize_s: f64,
    /// `pareto_front` and its render, or the group-by render.
    pub finish_s: f64,
}

/// Run one query through the library, as `campaign query`/`pareto` do.
pub fn execute(dir: &Path, query: &Query) -> Result<(Answer, ScanStats, QueryTimes), String> {
    let mut times = QueryTimes::default();
    let t = Instant::now();
    let scanner = StoreScanner::open(dir)?;
    times.open_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut digest = Digest::default();
    let (stats, digest) = match query.kind {
        QueryKind::ScanSkip | QueryKind::ScanFull => {
            let stats = scanner.scan(&query.filter, |row| {
                digest_row(query, row, &mut digest)?;
                Ok(ScanFlow::Continue)
            })?;
            times.scan_s = t.elapsed().as_secs_f64();
            (stats, digest.value())
        }
        QueryKind::Projected => {
            let projection = Projection::of(&query.columns)?;
            let stats = scanner.scan_projected(&query.filter, projection, |row| {
                digest_row(query, row, &mut digest)?;
                Ok(ScanFlow::Continue)
            })?;
            times.scan_s = t.elapsed().as_secs_f64();
            (stats, digest.value())
        }
        QueryKind::GroupBy => {
            let mut agg = GroupAggregator::new(&query.group_by, &query.columns, AggKind::Mean)?;
            let mut projected = query.group_by.clone();
            projected.extend(query.columns.iter().cloned());
            let stats =
                scanner.scan_projected(&query.filter, Projection::of(&projected)?, |row| {
                    agg.fold(row)?;
                    Ok(ScanFlow::Continue)
                })?;
            times.scan_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let d = digest_lines(agg.rows(None));
            times.finish_s = t.elapsed().as_secs_f64();
            (stats, d)
        }
        QueryKind::Pareto => {
            let mut rows = Vec::new();
            let stats = scanner.scan(&query.filter, |row| {
                rows.push(row.clone());
                Ok(ScanFlow::Continue)
            })?;
            times.scan_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let summaries = summarize(&rows);
            times.summarize_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            digest.put(&render_pareto_csv(&pareto_front(&summaries)));
            times.finish_s = t.elapsed().as_secs_f64();
            (stats, digest.value())
        }
    };
    Ok((
        Answer {
            matched: stats.matched,
            digest,
        },
        stats,
        times,
    ))
}

/// The built store, its query set and the reference answers.
struct Prepared {
    dir: std::path::PathBuf,
    setups: Vec<f64>,
    appends: Vec<f64>,
    queries: Vec<Query>,
    expected: Vec<Answer>,
}

fn prepare(seed: u64, work: &Path) -> Result<Prepared, String> {
    let mut setups = Vec::new();
    let mut appends = Vec::new();
    let dir = work.join("store");
    for _ in 0..BUILDS {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        appends = build_store(seed, &dir)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    let rows = ResultStore::open(&dir)?.rows();
    if rows.len() != ROWS {
        return Err(format!("store holds {} rows, expected {ROWS}", rows.len()));
    }
    let queries = query_set(seed);
    let expected = queries
        .iter()
        .map(|q| reference_answer(&rows, q))
        .collect::<Result<Vec<_>, _>>()?;
    eprintln!(
        "store-query: {ROWS} rows, {} bytes on disk ({:.1} MiB against a 105 MiB L3), \
         {} distinct queries",
        dir_bytes(&dir),
        dir_bytes(&dir) as f64 / (1 << 20) as f64,
        queries.len()
    );
    Ok(Prepared {
        dir,
        setups,
        appends,
        queries,
        expected,
    })
}

/// One query the client issued.
struct Issued {
    kind: QueryKind,
    /// Seconds from issue to answer.
    latency_s: f64,
    stats: ScanStats,
    times: QueryTimes,
}

/// One closed-loop client: issue seeded queries for `seconds`, checking
/// each answer. Returns the issued queries and the number whose answer
/// differs from the reference; with `spans` live, each query is recorded.
fn client(
    p: &Prepared,
    seed: u64,
    seconds: f64,
    spans: &SpanRecorder,
) -> Result<(Vec<Issued>, u64), String> {
    let mut rng = SplitMix::new(seed ^ 0xc1);
    let mut log = Vec::new();
    let mut failed = 0;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let q = rng.below(p.queries.len());
        let query = &p.queries[q];
        let span = spans.start();
        let t = Instant::now();
        let (answer, stats, times) = execute(&p.dir, query)?;
        let latency = t.elapsed().as_secs_f64();
        spans.complete(
            span,
            "query",
            "query",
            0,
            vec![
                ("kind", ArgValue::Str(query.kind.name().into())),
                ("query", q.into()),
                ("parent", "client".into()),
                ("open_us", (times.open_s * 1e6).into()),
                ("scan_us", (times.scan_s * 1e6).into()),
                ("summarize_us", (times.summarize_s * 1e6).into()),
                ("finish_us", (times.finish_s * 1e6).into()),
            ],
        );
        if answer != p.expected[q] {
            failed += 1;
        }
        log.push(Issued {
            kind: query.kind,
            latency_s: latency,
            stats,
            times,
        });
    }
    Ok((log, failed))
}

/// The timed run: set-up, then one client for `seconds`.
pub fn timed(seed: u64, seconds: f64, work: &Path) -> Result<Outcome, String> {
    let p = prepare(seed, work)?;
    let started = Instant::now();
    let (log, failed) = client(&p, seed, seconds, &SpanRecorder::disabled())?;
    let elapsed = started.elapsed().as_secs_f64();
    let latencies: Vec<f64> = log.iter().map(|e| e.latency_s).collect();
    let mut metrics = Metrics::default();
    metrics.put("ops_per_s", log.len() as f64 / elapsed, "1/s");
    metrics.put("op_p50_ms", median(&latencies) * 1e3, "ms");
    metrics.put("op_p90_ms", quantile(&latencies, 0.9) * 1e3, "ms");
    metrics.put("setup_s", median(&p.setups), "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    eprintln!(
        "{} queries, {} beyond p90; {failed} answer(s) differ from the reference",
        log.len(),
        latencies.len() / 10
    );
    Ok(Outcome {
        correct: failed == 0 && !log.is_empty(),
        attempted: log.len() as u64,
        failed,
        metrics,
    })
}

/// The traced run: the same client untraced and then with a span per
/// query, giving the query layer's split and the tracing overhead.
pub fn traced(seed: u64, seconds: f64, work: &Path, out: &Path) -> Result<Outcome, String> {
    let p = prepare(seed, work)?;
    let half = (seconds / 2.0).max(1.0);
    let (plain, failed_plain) = client(&p, seed, half, &SpanRecorder::disabled())?;
    let spans = SpanRecorder::new();
    let started = Instant::now();
    let (traced, failed_traced) = client(&p, seed, half, &spans)?;
    let traced_wall = started.elapsed().as_secs_f64();
    let events = spans.take_events();

    let mean =
        |log: &[Issued]| log.iter().map(|e| e.latency_s).sum::<f64>() / log.len().max(1) as f64;
    let mut m = Metrics::default();
    let mut by_kind: BTreeMap<QueryKind, Vec<f64>> = BTreeMap::new();
    for e in &plain {
        by_kind.entry(e.kind).or_default().push(e.latency_s);
    }
    for kind in QueryKind::ALL {
        let v = by_kind.get(&kind).map_or(0.0, |v| median(v) * 1e3);
        m.put(format!("query.{}_ms.p50", kind.name()), v, "ms");
    }
    let (skipped, scanned, matched) = plain.iter().fold((0, 0, 0), |a, e| {
        (
            a.0 + e.stats.partitions_skipped,
            a.1 + e.stats.partitions_scanned,
            a.2 + e.stats.matched,
        )
    });
    m.put(
        "query.partitions_skipped_ratio",
        skipped as f64 / (skipped + scanned).max(1) as f64,
        "ratio",
    );
    m.put(
        "query.rows_matched_ratio",
        matched as f64 / (plain.len() * ROWS).max(1) as f64,
        "ratio",
    );
    let summarize: Vec<f64> = plain
        .iter()
        .filter(|e| e.kind == QueryKind::Pareto)
        .map(|e| e.times.summarize_s * 1e3)
        .collect();
    m.put(
        "agg.summarize_ms",
        summarize.iter().sum::<f64>() / summarize.len().max(1) as f64,
        "ms",
    );
    let appends_us: Vec<f64> = p.appends.iter().map(|s| s * 1e6).collect();
    m.put("store.append_us.p50", median(&appends_us), "us");
    m.put("store.append_us.p99", quantile(&appends_us, 0.99), "us");
    m.put(
        "store.append_share",
        p.appends.iter().sum::<f64>() / p.setups[p.setups.len() - 1],
        "ratio",
    );
    m.put(
        "store.bytes_per_row",
        dir_bytes(&p.dir.join("cells")) as f64 / ROWS as f64,
        "B",
    );
    m.put(
        "trace.overhead_share",
        mean(&traced) / mean(&plain) - 1.0,
        "ratio",
    );
    // The library calls of each query (open, scan, summarize, front or
    // render); the rest of the wall is the client's own work.
    let covered: f64 = traced
        .iter()
        .map(|e| e.times.open_s + e.times.scan_s + e.times.summarize_s + e.times.finish_s)
        .sum();
    m.put(
        "trace.unaccounted_share",
        1.0 - covered / traced_wall,
        "ratio",
    );
    m.put("trace.spans", events.len() as f64, "count");

    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = out.join(format!("store-query-seed{seed}.trace.json"));
    std::fs::write(&path, write_chrome_trace(&events, "perfbench store-query"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} span(s) to {}", events.len(), path.display());

    let failed = failed_plain + failed_traced;
    let attempted = (plain.len() + traced.len()) as u64;
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics: crate::layers::complete(m),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On a tiny store written through `ResultStore::append`, every kind of
    /// query answers through the library exactly as the plain reference
    /// folds it, and the seed filter lets the zone maps skip partitions.
    #[test]
    fn library_answers_match_the_reference_on_a_tiny_store() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("tiny-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let rows = 2 * ROWS_PER_SEED;
        let mut store =
            ResultStore::create_with_schema(&dir, 7, rows, STORE_SCHEMA_VERSION).unwrap();
        store.set_sync(false);
        let mut rng = SplitMix::new(7);
        for index in 0..rows {
            store.append(&synthetic_row(7, index, &mut rng)).unwrap();
        }
        let reference = ResultStore::open(&dir).unwrap().rows();
        assert_eq!(reference.len(), rows);
        let mut kinds = std::collections::BTreeSet::new();
        for mut query in query_set(7) {
            if query.kind == QueryKind::ScanSkip {
                // The tiny store holds only the first two generator seeds.
                query.filter.seed = Some(70_001);
            }
            let (answer, stats, _) = execute(&dir, &query).unwrap();
            assert_eq!(
                answer,
                reference_answer(&reference, &query).unwrap(),
                "{query:?}"
            );
            assert!(answer.matched > 0, "{query:?} matches nothing");
            if query.kind == QueryKind::ScanSkip {
                assert_eq!(stats.partitions_skipped, rows / 64 / 2, "{query:?}");
            }
            kinds.insert(query.kind);
        }
        assert_eq!(kinds.len(), QueryKind::ALL.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
