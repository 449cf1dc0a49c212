//! RJMS scheduling throughput with and without the powercap hook.
//!
//! Measures the cost of one full replay of a reduced workload per policy —
//! i.e. how much the powercap logic (the grey boxes of the paper's Fig. 1)
//! adds to the plain scheduler.

use apc_bench::helpers::{bench_platform, bench_trace};
use apc_core::PowercapPolicy;
use apc_replay::{ReplayHarness, Scenario};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_replay_per_policy(c: &mut Criterion) {
    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let harness = ReplayHarness::new(platform, trace);
    let duration = harness.trace().duration;

    let mut group = c.benchmark_group("scheduler_replay");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_function("baseline_none", |b| {
        b.iter(|| black_box(harness.run(&Scenario::baseline()).report.launched_jobs))
    });
    for policy in [
        PowercapPolicy::Shut,
        PowercapPolicy::Dvfs,
        PowercapPolicy::Mix,
    ] {
        let scenario = Scenario::paper(policy, 0.6, duration);
        group.bench_function(format!("cap60_{}", policy.name()), |b| {
            b.iter(|| black_box(harness.run(&scenario).report.launched_jobs))
        });
    }
    group.finish();
}

fn bench_backfill_depth(c: &mut Criterion) {
    use apc_rjms::backfill::BackfillConfig;
    use apc_rjms::config::{ControllerConfig, SchedulerParameters};
    use apc_rjms::controller::Controller;

    let platform = bench_platform();
    let trace = bench_trace(&platform);
    let mut group = c.benchmark_group("backfill_depth");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    for depth in [10usize, 100, 400] {
        group.bench_function(format!("depth_{depth}"), |b| {
            b.iter(|| {
                let params = SchedulerParameters {
                    backfill: BackfillConfig {
                        enabled: true,
                        depth,
                    },
                    ..Default::default()
                };
                let mut controller = Controller::new(
                    platform.clone(),
                    ControllerConfig::default().with_params(params),
                );
                controller.submit_all(trace.to_submissions());
                controller.set_horizon(trace.duration);
                black_box(controller.run().launched_jobs)
            })
        });
    }
    group.finish();
}

/// Pending-heavy scheduling: thousands of queued jobs competing for a
/// saturated, capped cluster — the schedule-pass cost dominates, which is
/// exactly what the NodeMask/scratch-buffer hot path optimises. Prints one
/// run's wall time; divide by the pass count reported in
/// `BENCH_replay.json` for ns/pass.
fn bench_pending_heavy(c: &mut Criterion) {
    use apc_core::{PowercapConfig, PowercapHook};
    use apc_rjms::config::ControllerConfig;
    use apc_rjms::controller::Controller;
    use apc_rjms::job::JobSubmission;
    use apc_rjms::time::{SimTime, TimeWindow, HOUR};

    let platform = bench_platform();
    let mut group = c.benchmark_group("schedule_pass");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_function("pending_2000_cap60_mix", |b| {
        b.iter(|| {
            let hook =
                PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), &platform);
            let mut controller = Controller::with_hook(
                platform.clone(),
                ControllerConfig::default(),
                Box::new(hook),
            );
            let cap = platform.power_fraction(0.6);
            controller.add_powercap_reservation(TimeWindow::new(0, 4 * HOUR), cap);
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
            black_box(controller.run().launched_jobs)
        })
    });
    group.finish();
}

/// The pending-heavy MIX / 60 % pass across machine sizes: 90 nodes,
/// Curie's 5 040 and 100 800. Jobs take 1/18 of the machine, so ~18 run at
/// once and the 2 000-job queue stays ~2 000 deep at every scale. ns/iter
/// is one whole run (set-up and event handling included); before timing,
/// one instrumented run prints the mean wall time of a schedule pass alone
/// (`rjms.schedule_pass.duration_ns`).
fn bench_pass_scale(c: &mut Criterion) {
    use apc_core::{PowercapConfig, PowercapHook};
    use apc_obs::{Registry, SpanRecorder};
    use apc_rjms::cluster::Platform;
    use apc_rjms::config::ControllerConfig;
    use apc_rjms::controller::Controller;
    use apc_rjms::job::JobSubmission;
    use apc_rjms::obs::ControllerObs;
    use apc_rjms::time::{SimTime, TimeWindow, HOUR};

    let run = |platform: &Platform, obs: ControllerObs| {
        let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Mix), platform);
        let mut controller = Controller::with_hook(
            platform.clone(),
            ControllerConfig::default(),
            Box::new(hook),
        );
        controller.set_obs(obs);
        let cap = platform.power_fraction(0.6);
        controller.add_powercap_reservation(TimeWindow::new(0, 4 * HOUR), cap);
        let cores = (platform.total_nodes() / 18) as u32 * platform.cores_per_node;
        for i in 0..2_000u64 {
            controller.submit(JobSubmission::new(
                (i % 7) as usize,
                0,
                cores,
                2 * HOUR,
                900 + (i % 13) as SimTime * 60,
            ));
        }
        controller.set_horizon(2 * HOUR);
        black_box(controller.run().launched_jobs)
    };

    let mut group = c.benchmark_group("schedule_pass_scale");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(100));
    group.measurement_time(std::time::Duration::from_millis(500));
    for (name, platform) in [
        ("nodes_90", Platform::curie_scaled(1)),
        ("nodes_5040", Platform::curie()),
        ("nodes_100800", Platform::curie_scaled(1120)),
    ] {
        let registry = Registry::new();
        run(
            &platform,
            ControllerObs::new(&registry, SpanRecorder::disabled()),
        );
        let passes = registry.snapshot();
        let passes = passes
            .histogram("rjms.schedule_pass.duration_ns")
            .expect("pass histogram");
        println!(
            "  schedule_pass_scale/{name}: {:.0} ns per pass ({} passes)",
            passes.mean(),
            passes.count
        );
        group.bench_function(name, |b| {
            b.iter(|| run(&platform, ControllerObs::disabled()))
        });
    }
    group.finish();
}

/// Jobs arriving one at a time into a saturated 2-rack machine under a
/// 40 % DVFS cap: most event batches hold a single submission that cannot
/// start, the case the submit-only pass skip targets (the `schedule_pass*`
/// cases submit everything at t = 0 and never reach it). ns/iter is one
/// whole run; before timing, one run prints its event-batch count, so
/// ns/iter divided by it is the cost of one batch.
fn bench_submit_stream(c: &mut Criterion) {
    use apc_core::{PowercapConfig, PowercapHook};
    use apc_rjms::cluster::Platform;
    use apc_rjms::config::ControllerConfig;
    use apc_rjms::controller::Controller;
    use apc_rjms::job::JobSubmission;
    use apc_rjms::time::{SimTime, TimeWindow, HOUR};

    let platform = Platform::curie_scaled(2);
    let run = || {
        let hook = PowercapHook::new(PowercapConfig::for_policy(PowercapPolicy::Dvfs), &platform);
        let mut controller = Controller::with_hook(
            platform.clone(),
            ControllerConfig::default(),
            Box::new(hook),
        );
        let cap = platform.power_fraction(0.4);
        controller.add_powercap_reservation(TimeWindow::new(3 * HOUR, 5 * HOUR), cap);
        for i in 0..960u64 {
            controller.submit(JobSubmission::new(
                (i % 7) as usize,
                i * 30,
                (16 + (i % 5) * 16) as u32 * 10,
                2 * HOUR,
                1800 + (i % 13) as SimTime * 120,
            ));
        }
        controller.set_horizon(8 * HOUR);
        controller.run();
        controller
    };
    let sample = run();
    println!(
        "  schedule_pass/submit_stream_cap40_dvfs: {} event batches ({} passes skipped), \
         {} jobs started",
        sample.schedule_passes(),
        sample.skipped_passes(),
        sample.report().launched_jobs
    );
    let mut group = c.benchmark_group("schedule_pass");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.measurement_time(std::time::Duration::from_secs(4));
    group.bench_function("submit_stream_cap40_dvfs", |b| {
        b.iter(|| black_box(run().schedule_passes()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_replay_per_policy,
    bench_backfill_depth,
    bench_pending_heavy,
    bench_pass_scale,
    bench_submit_stream
);
criterion_main!(benches);
