//! Correctness checks that run beside every measurement.
//!
//! * Cap compliance: the time a replay's power spends above each cap
//!   window or schedule segment, weighted by how long each power level
//!   lasts. A change point that is overwritten at the same timestamp lasts
//!   0 s and so counts for nothing — unlike `PowerSeries::peak_within`,
//!   which reports such intermediate samples at segment boundaries as
//!   peaks.
//! * Row checks: every stored campaign row must equal the row an
//!   independent replay of its cell produces (fresh trace, fresh harness,
//!   `ReplayHarness::run_summary` → `CellRow::from_summary`).
//! * The plain query reference: `ResultStore::rows()` filtered with
//!   `RowFilter::matches`, folded in index order, against which every
//!   query answer of the `store-query` workload is compared.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use apc_campaign::prelude::*;
use apc_campaign::query::project;
use apc_replay::{CurieTraceGenerator, Platform, PowerSeries, ReplayHarness, Scenario};
use apc_rjms::time::SimTime;

/// One cap interval `[start, end)` and its budget in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapSpan {
    /// Start of the interval (s).
    pub start: SimTime,
    /// End of the interval (s, exclusive).
    pub end: SimTime,
    /// The power budget (W).
    pub cap: f64,
}

/// The cap intervals a scenario imposes on `platform`: one per schedule
/// segment at the segment's own level, else one per cap window at the
/// scenario's cap; none for the baseline.
pub fn cap_spans(scenario: &Scenario, platform: &Platform) -> Vec<CapSpan> {
    if let Some(schedule) = &scenario.cap_schedule {
        return schedule
            .segments()
            .iter()
            .map(|s| CapSpan {
                start: s.start,
                end: s.end(),
                cap: platform.power_fraction(s.fraction).0,
            })
            .collect();
    }
    let Some(cap) = scenario.cap(platform) else {
        return Vec::new();
    };
    scenario
        .cap_windows
        .iter()
        .map(|w| CapSpan {
            start: w.start,
            end: w.end(),
            cap: cap.0,
        })
        .collect()
}

/// How far one power series strays above one cap interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overshoot {
    /// Seconds during which power was above the cap.
    pub seconds: f64,
    /// Largest excess over the cap among levels that lasted more than 0 s (W).
    pub worst_watts: f64,
}

/// Power above `cap` by less than this share of it is rounding, not excess.
const CAP_TOLERANCE: f64 = 1e-9;

/// Time-weighted overshoot of the step function `samples` (change points
/// `(time, watts)` in nondecreasing time order; the last sample at or
/// before `t` holds at `t`) over `span`.
pub fn overshoot(samples: &[(SimTime, f64)], span: CapSpan) -> Overshoot {
    let limit = span.cap * (1.0 + CAP_TOLERANCE);
    let first_inside = samples.partition_point(|s| s.0 <= span.start);
    let mut level = first_inside.checked_sub(1).map_or(0.0, |i| samples[i].1);
    let mut since = span.start;
    let mut out = Overshoot::default();
    let close = |level: f64, from: SimTime, to: SimTime, out: &mut Overshoot| {
        if to > from && level > limit {
            out.seconds += (to - from) as f64;
            out.worst_watts = out.worst_watts.max(level - span.cap);
        }
    };
    for &(t, watts) in &samples[first_inside..] {
        if t >= span.end {
            break;
        }
        close(level, since, t, &mut out);
        since = t;
        level = watts;
    }
    close(level, since, span.end, &mut out);
    out
}

/// Overshoot of a replay's power series summed over every cap interval of
/// its scenario: `(seconds over cap, worst excess in W)`.
pub fn cell_overshoot(power: &PowerSeries, spans: &[CapSpan]) -> Overshoot {
    let samples: Vec<(SimTime, f64)> = power.samples.iter().map(|&(t, w)| (t, w.0)).collect();
    spans.iter().fold(Overshoot::default(), |acc, &span| {
        let o = overshoot(&samples, span);
        Overshoot {
            seconds: acc.seconds + o.seconds,
            worst_watts: acc.worst_watts.max(o.worst_watts),
        }
    })
}

/// The verdict over a whole grid.
#[derive(Debug, Clone, Default)]
pub struct GridVerdict {
    /// Cells checked.
    pub cells: usize,
    /// Cells without a stored row.
    pub missing: usize,
    /// Cells whose stored row differs from the independent replay's.
    pub mismatched: usize,
    /// Cells whose replay spends more than 0 s above a cap.
    pub over_cap: usize,
    /// Seconds above cap, summed over cells.
    pub overshoot_s: f64,
    /// Largest excess over a cap in any cell (W).
    pub worst_watts: f64,
    /// Index of the first cell above its cap, for the report.
    pub first_over_cap: Option<usize>,
}

impl GridVerdict {
    /// Cells whose row is missing or wrong — operations that failed.
    pub fn failed(&self) -> usize {
        self.missing + self.mismatched
    }

    /// Fold one cell's result in.
    pub fn add(&mut self, index: usize, stored_ok: Option<bool>, over: Overshoot) {
        self.cells += 1;
        match stored_ok {
            None => self.missing += 1,
            Some(false) => self.mismatched += 1,
            Some(true) => {}
        }
        if over.seconds > 0.0 {
            self.over_cap += 1;
            self.first_over_cap = Some(self.first_over_cap.map_or(index, |i| i.min(index)));
        }
        self.overshoot_s += over.seconds;
        self.worst_watts = self.worst_watts.max(over.worst_watts);
    }

    /// Merge a verdict computed on another thread.
    pub fn merge(&mut self, other: GridVerdict) {
        self.cells += other.cells;
        self.missing += other.missing;
        self.mismatched += other.mismatched;
        self.over_cap += other.over_cap;
        self.overshoot_s += other.overshoot_s;
        self.worst_watts = self.worst_watts.max(other.worst_watts);
        self.first_over_cap = match (self.first_over_cap, other.first_over_cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }
}

/// The trace generator of a cell's workload, configured as the campaign
/// executor configures it.
pub fn generator_for(spec: &CampaignSpec, cell: &CampaignCell) -> CurieTraceGenerator {
    let CellWorkload::Synthetic {
        interval,
        seed,
        load_bits,
    } = cell.workload
    else {
        panic!("the benchmark grids are synthetic");
    };
    CurieTraceGenerator::new(seed)
        .interval(interval)
        .load_factor(f64::from_bits(load_bits))
        .backlog_factor(spec.backlog_factor)
}

/// A fresh harness for one (racks, workload) group, built without the
/// executor's trace cache or harness reuse.
pub fn fresh_harness(spec: &CampaignSpec, cell: &CampaignCell) -> ReplayHarness {
    let platform = platform_for(cell.racks);
    let trace = generator_for(spec, cell).generate_for(&platform);
    ReplayHarness::new(platform, trace).with_initial_fairshare(spec.initial_fairshare_core_hours)
}

/// Replay every cell independently on `threads` threads and check its
/// stored row and its cap compliance.
pub fn check_grid(
    spec: &CampaignSpec,
    cells: &[CampaignCell],
    stored: &BTreeMap<usize, CellRow>,
    threads: usize,
) -> GridVerdict {
    // Cells sharing a workload are consecutive in expansion order and share
    // one independently generated trace.
    let mut groups: Vec<Vec<&CampaignCell>> = Vec::new();
    for cell in cells {
        match groups.last_mut() {
            Some(g) if g[0].racks == cell.racks && g[0].workload == cell.workload => g.push(cell),
            _ => groups.push(vec![cell]),
        }
    }
    let next = AtomicUsize::new(0);
    let verdict = Mutex::new(GridVerdict::default());
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| {
                let mut local = GridVerdict::default();
                loop {
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    let Some(group) = groups.get(g) else { break };
                    let harness = fresh_harness(spec, group[0]);
                    for cell in group {
                        let summary = harness.run_summary(&cell.scenario);
                        let expected = CellRow::from_summary(cell, &summary);
                        let ok = stored
                            .get(&cell.index)
                            .map(|row| row.to_store_line() == expected.to_store_line());
                        let spans = cap_spans(&cell.scenario, harness.platform());
                        local.add(cell.index, ok, cell_overshoot(&summary.power, &spans));
                    }
                }
                verdict.lock().expect("verdict lock poisoned").merge(local);
            });
        }
    });
    verdict.into_inner().expect("verdict lock poisoned")
}

/// The kinds of query the `store-query` mix issues — what `campaign query`
/// and `campaign pareto` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryKind {
    /// Filtered full-row scan whose filter the zone maps can prove absent
    /// from most partitions.
    ScanSkip,
    /// Filtered full-row scan that matches rows in every partition.
    ScanFull,
    /// Narrow projected scan (`query --columns`).
    Projected,
    /// `query --group-by` with the default mean aggregation.
    GroupBy,
    /// `pareto`: scan, summarize, non-dominated front.
    Pareto,
}

impl QueryKind {
    /// Every kind, in report order.
    pub const ALL: [QueryKind; 5] = [
        QueryKind::ScanSkip,
        QueryKind::ScanFull,
        QueryKind::Projected,
        QueryKind::GroupBy,
        QueryKind::Pareto,
    ];

    /// The name used in metric names (`query.<name>_ms.p50`).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::ScanSkip => "scan_skip",
            QueryKind::ScanFull => "scan_full",
            QueryKind::Projected => "projected",
            QueryKind::GroupBy => "group_by",
            QueryKind::Pareto => "pareto",
        }
    }
}

/// One query of the mix.
#[derive(Debug, Clone)]
pub struct Query {
    /// What kind of query it is.
    pub kind: QueryKind,
    /// The row filter.
    pub filter: RowFilter,
    /// Projected columns ([`QueryKind::Projected`]) or aggregated columns
    /// ([`QueryKind::GroupBy`]).
    pub columns: Vec<String>,
    /// Group-by columns ([`QueryKind::GroupBy`]).
    pub group_by: Vec<String>,
}

/// A query's answer, reduced to what two evaluations must agree on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Rows the filter matched.
    pub matched: usize,
    /// FNV-1a digest of the rendered result.
    pub digest: u64,
}

/// Running FNV-1a digest.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes plus a terminator, so field boundaries count.
    pub fn put(&mut self, bytes: &str) {
        for &b in bytes.as_bytes().iter().chain(b"\x1e") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Fold one matched row into the digest the way `query` prints it: the
/// projected columns of a projected scan, the full store line otherwise.
pub fn digest_row(query: &Query, row: &CellRow, digest: &mut Digest) -> Result<(), String> {
    if query.kind == QueryKind::Projected {
        for c in &query.columns {
            digest.put(&project(row, c)?);
        }
    } else {
        digest.put(&row.to_store_line());
    }
    Ok(())
}

/// Digest of a group-by result: its lines, sorted.
pub fn digest_lines(mut lines: Vec<String>) -> u64 {
    lines.sort();
    let mut d = Digest::default();
    for l in &lines {
        d.put(l);
    }
    d.value()
}

/// The plain reference answer: filter the fully loaded rows with
/// [`RowFilter::matches`] and fold them in index order, with no zone maps,
/// projection or streaming involved. Group-by means are folded here by
/// hand; the Pareto front goes through `summarize` + `pareto_front` on the
/// reference rows.
pub fn reference_answer(rows: &[CellRow], query: &Query) -> Result<Answer, String> {
    let matched: Vec<&CellRow> = rows.iter().filter(|r| query.filter.matches(r)).collect();
    let digest = match query.kind {
        QueryKind::ScanSkip | QueryKind::ScanFull | QueryKind::Projected => {
            let mut d = Digest::default();
            for row in &matched {
                digest_row(query, row, &mut d)?;
            }
            d.value()
        }
        QueryKind::GroupBy => {
            let columns: Vec<&String> = query
                .columns
                .iter()
                .filter(|c| !query.group_by.contains(c))
                .collect();
            // Group key → (rows, per folded column (values present, sum)).
            type Groups = BTreeMap<Vec<String>, (u64, Vec<(u64, f64)>)>;
            let mut groups = Groups::new();
            for row in &matched {
                let key = query
                    .group_by
                    .iter()
                    .map(|c| project(row, c))
                    .collect::<Result<Vec<_>, _>>()?;
                let (n, accs) = groups
                    .entry(key)
                    .or_insert_with(|| (0, vec![(0, 0.0); columns.len()]));
                *n += 1;
                for (acc, c) in accs.iter_mut().zip(&columns) {
                    if let Some(v) = numeric(row, c)? {
                        acc.0 += 1;
                        acc.1 += v;
                    }
                }
            }
            let lines = groups
                .into_iter()
                .map(|(key, (n, accs))| {
                    let mut fields = key;
                    fields.push(n.to_string());
                    for (count, sum) in accs {
                        fields.push(if count == 0 {
                            String::new()
                        } else {
                            format!("{}", sum / count as f64)
                        });
                    }
                    fields.join(",")
                })
                .collect();
            digest_lines(lines)
        }
        QueryKind::Pareto => {
            let owned: Vec<CellRow> = matched.iter().map(|r| (*r).clone()).collect();
            let mut d = Digest::default();
            d.put(&render_pareto_csv(&pareto_front(&summarize(&owned))));
            d.value()
        }
    };
    Ok(Answer {
        matched: matched.len(),
        digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_core::PowercapPolicy;
    use apc_replay::{CapSchedule, FaultPlan};
    use apc_workload::IntervalKind;

    fn span(start: SimTime, end: SimTime, cap: f64) -> CapSpan {
        CapSpan { start, end, cap }
    }

    #[test]
    fn same_timestamp_boundary_samples_last_zero_seconds() {
        // At t=100 the level passes through 150 W before settling at 90 W:
        // the 150 W sample lasts 0 s and must not count.
        let samples = [(0, 80.0), (100, 150.0), (100, 90.0), (200, 80.0)];
        let o = overshoot(&samples, span(100, 300, 100.0));
        assert_eq!(o, Overshoot::default());
        // The same spike lasting 1 s does count, for exactly 1 s.
        let samples = [(0, 80.0), (100, 150.0), (101, 90.0)];
        let o = overshoot(&samples, span(100, 300, 100.0));
        assert_eq!(o.seconds, 1.0);
        assert_eq!(o.worst_watts, 50.0);
    }

    #[test]
    fn window_edges_clip_the_excess() {
        // 120 W from t=50 to t=250; the window [100, 200) sees 100 s of it.
        let samples = [(0, 90.0), (50, 120.0), (250, 90.0)];
        let o = overshoot(&samples, span(100, 200, 100.0));
        assert_eq!(o.seconds, 100.0);
        assert_eq!(o.worst_watts, 20.0);
        // A level carried in from before the window counts from its start,
        // and a change at the window's end belongs to the next interval.
        let samples = [(0, 130.0), (200, 150.0)];
        assert_eq!(overshoot(&samples, span(100, 200, 100.0)).seconds, 100.0);
        assert_eq!(overshoot(&samples, span(100, 200, 100.0)).worst_watts, 30.0);
        // Before the first sample power is 0 W; at exactly the cap is fine.
        let samples = [(150, 100.0)];
        assert_eq!(overshoot(&samples, span(100, 200, 100.0)).seconds, 0.0);
    }

    #[test]
    fn schedule_segments_are_judged_at_their_own_levels() {
        // A 3-segment 80/40/60 % schedule on a 1 000 W machine, with power
        // held at 500 W: only the 40 % segment is breached, for its length.
        let samples = [(0, 500.0)];
        let segments = [
            span(0, 100, 800.0),
            span(100, 250, 400.0),
            span(250, 300, 600.0),
        ];
        let total: f64 = segments
            .iter()
            .map(|&s| overshoot(&samples, s).seconds)
            .sum();
        assert_eq!(total, 150.0);
        // cap_spans maps a real schedule to per-segment budgets.
        let platform = Platform::curie_scaled(1);
        let schedule = CapSchedule::parse("0 100 0.8\n100 150 0.4\n250 50 0.6\n").unwrap();
        let spans = cap_spans(
            &Scenario::scheduled(PowercapPolicy::Shut, schedule),
            &platform,
        );
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].start, 100);
        assert_eq!(spans[1].end, 250);
        assert_eq!(spans[1].cap, platform.power_fraction(0.4).0);
        assert!(cap_spans(&Scenario::baseline(), &platform).is_empty());
    }

    /// The checker is live: on a known `fault-sweep` cell (4 racks,
    /// medianjob, seed 2, 40 %/DVFS, `6x1800@11:chassis`), whose recovered
    /// nodes power on regardless of the cap, it reports 2 449 s over cap,
    /// while the same cell without faults passes.
    #[test]
    fn checker_flags_a_known_over_cap_fault_sweep_cell() {
        let spec = CampaignSpec {
            racks: vec![4],
            intervals: vec![IntervalKind::MedianJob],
            seeds: vec![2],
            policies: vec![PowercapPolicy::Dvfs],
            cap_fractions: vec![0.4],
            include_baseline: false,
            faults: vec![None, Some(FaultPlan::parse("6x1800@11:chassis").unwrap())],
            ..CampaignSpec::default()
        };
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        assert_eq!(cells.len(), 2);
        let harness = fresh_harness(&spec, &cells[0]);
        let mut over = Vec::new();
        for cell in &cells {
            let summary = harness.run_summary(&cell.scenario);
            let spans = cap_spans(&cell.scenario, harness.platform());
            over.push(cell_overshoot(&summary.power, &spans));
        }
        assert_eq!(over[0].seconds, 0.0, "fault-free cell stays under its cap");
        assert_eq!(over[1].seconds, 2449.0, "faulted cell is over cap");
        assert!(over[1].worst_watts > 0.0);
        // The grid checker reports it too, and its rows still match.
        let rows = CampaignRunner::new(spec.clone()).run().unwrap().rows;
        let stored: BTreeMap<usize, CellRow> = rows.into_iter().map(|r| (r.index, r)).collect();
        let verdict = check_grid(&spec, &cells, &stored, 2);
        assert_eq!(verdict.failed(), 0);
        assert_eq!(verdict.over_cap, 1);
        assert_eq!(verdict.first_over_cap, Some(1));
        // A missing or altered row is a failure.
        let mut broken = stored.clone();
        broken.remove(&0);
        broken.get_mut(&1).unwrap().launched_jobs += 1;
        let verdict = check_grid(&spec, &cells, &broken, 1);
        assert_eq!((verdict.missing, verdict.mismatched), (1, 1));
    }

    fn row(index: usize, workload: &str, policy: &str, energy: f64) -> CellRow {
        CellRow {
            index,
            racks: 1,
            workload: workload.into(),
            seed: Some(index as u64 % 2),
            load_factor: 1.0,
            scenario: format!("60%/{}", policy.to_uppercase()),
            window: "0+3600".into(),
            policy: policy.into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            launched_jobs: 10 + index,
            completed_jobs: 9,
            killed_jobs: 0,
            pending_jobs: 1,
            work_core_seconds: 100.0,
            energy_joules: 1e6 * energy,
            energy_normalized: energy,
            launched_jobs_normalized: 0.9,
            work_normalized: 0.8 + 0.01 * index as f64,
            mean_wait_seconds: 30.0,
            peak_power_watts: 5000.0,
        }
    }

    #[test]
    fn query_reference_folds_the_filtered_rows() {
        let rows = vec![
            row(0, "medianjob", "shut", 0.5),
            row(1, "medianjob", "dvfs", 0.7),
            row(2, "24h", "shut", 0.6),
        ];
        let shut = RowFilter {
            policy: Some("shut".into()),
            ..RowFilter::default()
        };
        let scan = Query {
            kind: QueryKind::ScanFull,
            filter: shut.clone(),
            columns: Vec::new(),
            group_by: Vec::new(),
        };
        let a = reference_answer(&rows, &scan).unwrap();
        assert_eq!(a.matched, 2);
        let mut d = Digest::default();
        d.put(&rows[0].to_store_line());
        d.put(&rows[2].to_store_line());
        assert_eq!(a.digest, d.value());

        // Group-by means, folded by hand, match GroupAggregator's output.
        let group = Query {
            kind: QueryKind::GroupBy,
            filter: RowFilter::default(),
            columns: vec!["energy_normalized".into(), "launched_jobs".into()],
            group_by: vec!["workload".into()],
        };
        let a = reference_answer(&rows, &group).unwrap();
        assert_eq!(a.matched, 3);
        let mut agg = GroupAggregator::new(&group.group_by, &group.columns, AggKind::Mean).unwrap();
        for r in &rows {
            agg.fold(r).unwrap();
        }
        assert_eq!(a.digest, digest_lines(agg.rows(None)));
        assert_eq!(
            digest_lines(vec!["24h,1,0.6,12".into(), "medianjob,2,0.6,10.5".into()]),
            a.digest
        );

        // A different filter gives a different answer.
        let dvfs = Query {
            filter: RowFilter {
                policy: Some("dvfs".into()),
                ..RowFilter::default()
            },
            ..scan
        };
        assert_ne!(reference_answer(&rows, &dvfs).unwrap(), a);
    }
}
