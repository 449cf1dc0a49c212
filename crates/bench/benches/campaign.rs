//! Campaign-throughput benchmarks: the work-stealing executor at 1, 2 and
//! 4 worker threads over the same small grid, the append throughput of the
//! partitioned result store, plus the grid-expansion and sink-rendering hot
//! paths. On multi-core hardware the multi-threaded variants should
//! approach a linear speedup over one thread; on a single core they
//! document the scheduling overhead instead. The store target appends 256
//! rows per iteration — manifest and partition writes included — bounding
//! the per-cell persistence cost the executor pays while streaming.

use apc_campaign::prelude::*;
use apc_core::PowercapPolicy;
use apc_workload::IntervalKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A light grid: 2 seeds × (baseline + SHUT/MIX at 60 %) on one rack.
fn bench_spec() -> CampaignSpec {
    CampaignSpec {
        racks: vec![1],
        intervals: vec![IntervalKind::MedianJob],
        seeds: vec![1, 2],
        policies: vec![PowercapPolicy::Shut, PowercapPolicy::Mix],
        cap_fractions: vec![0.6],
        load_factors: vec![0.5],
        backlog_factor: 0.2,
        ..CampaignSpec::default()
    }
}

fn bench_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_executor");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(5));
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("steal_threads_{threads}"), |b| {
            b.iter(|| {
                let outcome = CampaignRunner::new(bench_spec())
                    .with_threads(threads)
                    .run()
                    .unwrap();
                black_box(outcome.rows.len())
            })
        });
    }
    group.finish();
}

/// A synthetic row for the store-append target (no replay involved — this
/// measures pure persistence throughput).
fn store_row(index: usize) -> CellRow {
    CellRow {
        index,
        racks: 2,
        workload: "medianjob".into(),
        seed: Some(index as u64),
        load_factor: 1.8,
        scenario: "60%/SHUT".into(),
        window: "7200+3600".into(),
        policy: "shut".into(),
        cap_percent: 60.0,
        grouping: "grouped".into(),
        decision_rule: "paper-rho".into(),
        schedule: "-".into(),
        faults: "-".into(),
        launched_jobs: index,
        completed_jobs: index / 2,
        killed_jobs: 0,
        pending_jobs: index / 3,
        work_core_seconds: index as f64 * 1234.5678,
        energy_joules: index as f64 * 9.876e6,
        energy_normalized: 0.5,
        launched_jobs_normalized: 0.25,
        work_normalized: 0.125,
        mean_wait_seconds: 42.0,
        peak_power_watts: 1.0e6,
    }
}

fn bench_store_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_store");
    group.sample_size(20);
    let dir = std::env::temp_dir().join(format!("apc-store-bench-{}", std::process::id()));
    let rows: Vec<CellRow> = (0..256).map(store_row).collect();
    group.bench_function("append_256_rows", |b| {
        b.iter(|| {
            // create() wipes the previous iteration's partitions.
            let mut store = ResultStore::create(&dir, 1, rows.len()).unwrap();
            store.set_sync(false); // appends per second, not fsyncs per second
            for row in &rows {
                store.append(row).unwrap();
            }
            black_box(store.completed_count())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A window+load sweep spec expanding to ~10k cells: 4 intervals × 10 seeds
/// × 5 loads × (1 baseline + 3 window sets × 3 caps × 3 policies) = 5600,
/// doubled by two rack scales to 11 200.
fn sweep_10k_spec() -> CampaignSpec {
    CampaignSpec {
        racks: vec![1, 2],
        seeds: (0..10).collect(),
        load_factors: vec![1.0, 1.2, 1.4, 1.6, 1.8],
        cap_windows: vec![
            vec![SINGLE_PAPER_WINDOW],
            vec![(0.0, 1800)],
            vec![(0.0, 1800), (1.0, 1800)],
        ],
        ..CampaignSpec::default()
    }
}

/// Synthetic summary rows shaped like a big sweep's summary.csv (one per
/// scenario group), for the Pareto-extraction target.
fn sweep_summaries(count: usize) -> Vec<SummaryRow> {
    let metric = |mean: f64| MetricSummary {
        mean,
        min: mean,
        max: mean,
        stddev: 0.0,
    };
    (0..count)
        .map(|i| SummaryRow {
            racks: 1 + i % 2,
            workload: ["smalljob", "medianjob", "bigjob", "24h"][i % 4].to_string(),
            load_factor: 1.0 + (i % 5) as f64 * 0.2,
            scenario: format!("s{i}"),
            window: format!("{}+3600", i % 7),
            cap_percent: 40.0 + (i % 3) as f64 * 20.0,
            grouping: "grouped".to_string(),
            decision_rule: "paper-rho".to_string(),
            schedule: "-".to_string(),
            faults: "-".to_string(),
            replications: 3,
            launched_jobs: metric(100.0),
            energy_normalized: metric(((i * 37) % 101) as f64 / 100.0),
            work_normalized: metric(((i * 53) % 101) as f64 / 100.0),
            mean_wait_seconds: metric(((i * 71) % 997) as f64),
            peak_power_watts: metric(1.0e6),
        })
        .collect()
}

fn bench_expansion_and_sinks(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_pipeline");
    group.sample_size(20);
    let spec = CampaignSpec::paper(2012, 10);
    group.bench_function("expand_paper_grid_10_seeds", |b| {
        b.iter(|| black_box(spec.expand(&TraceSource::Synthetic).unwrap().len()))
    });
    let sweep = sweep_10k_spec();
    assert!(sweep.cell_count().unwrap() > 10_000);
    group.bench_function("expand_sweep_grid_11k_cells", |b| {
        b.iter(|| black_box(sweep.expand(&TraceSource::Synthetic).unwrap().len()))
    });
    let summaries = sweep_summaries(10_000);
    group.bench_function("pareto_front_10k_summary_rows", |b| {
        b.iter(|| black_box(pareto_front(&summaries).len()))
    });
    let outcome = CampaignRunner::new(bench_spec())
        .with_threads(1)
        .run()
        .unwrap();
    group.bench_function("render_csv", |b| {
        b.iter(|| {
            black_box(render_cells_csv(&outcome.rows).len())
                + black_box(render_summary_csv(&outcome.summaries).len())
        })
    });
    group.bench_function("render_json", |b| {
        b.iter(|| {
            black_box(render_cells_json(&outcome.rows).len())
                + black_box(render_summary_json(&outcome.summaries).len())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_executor,
    bench_store_append,
    bench_expansion_and_sinks
);
criterion_main!(benches);
