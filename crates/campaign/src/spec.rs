//! Declarative campaign specifications and their grid expansion.
//!
//! A [`CampaignSpec`] describes a whole experiment campaign the way the
//! paper's evaluation is laid out: a grid of powercap policies × cap
//! fractions × ablation knobs (grouping strategy, decision rule) × workload
//! intervals × seed replications × rack scales. [`CampaignSpec::expand`]
//! turns the description into concrete [`CampaignCell`]s with **stable,
//! dense indices** — the executor shards cells across threads by index, and
//! every aggregation step orders by index, so the expansion order *is* the
//! determinism contract of the whole subsystem.

use apc_core::PowercapPolicy;
use apc_power::bonus::GroupingStrategy;
use apc_power::tradeoff::DecisionRule;
use apc_replay::scenario::{CapSchedule, CapWindow, FaultPlan};
use apc_replay::Scenario;
use apc_rjms::time::HOUR;
use apc_workload::IntervalKind;

/// One cap-window placement of a window-sweep axis: a start fraction in
/// `[0, 1]` (0 = the window starts at the interval begin, 1 = it ends at the
/// interval end, 0.5 = centred — the paper's placement) plus a duration in
/// seconds. The duration is clamped to the interval before placement, so a
/// sweep written for 5-hour intervals stays valid on shorter ones.
pub type WindowPlacement = (f64, u64);

/// One value of the cap-window axis: the set of windows a single scenario
/// replays. The paper's evaluation uses one centred 1-hour window
/// ([`SINGLE_PAPER_WINDOW`]); multi-window values cap two or more disjoint
/// slots of the same interval.
pub type WindowSet = Vec<WindowPlacement>;

/// The paper's window placement: one 1-hour window centred in the interval.
pub const SINGLE_PAPER_WINDOW: WindowPlacement = (0.5, HOUR);

/// Place one window set inside an interval of `duration` seconds: clamp
/// each window's duration to the interval, position its start by the start
/// fraction, and reject overlapping placements (two caps on the same slot
/// would silently resolve to one, making the sweep lie about its grid).
pub fn place_windows(set: &[WindowPlacement], duration: u64) -> Result<Vec<CapWindow>, String> {
    let mut placed = Vec::with_capacity(set.len());
    for &(fraction, window_duration) in set {
        if !(0.0..=1.0).contains(&fraction) || !fraction.is_finite() {
            return Err(format!(
                "window start fraction must be in [0, 1], got {fraction}"
            ));
        }
        if window_duration == 0 {
            return Err("window duration must be >= 1 second".to_string());
        }
        let clamped = window_duration.min(duration);
        let slack = duration - clamped;
        let start = (fraction * slack as f64).round() as u64;
        placed.push(CapWindow::new(start, clamped));
    }
    let mut sorted = placed.clone();
    sorted.sort_by_key(|w| w.start);
    for pair in sorted.windows(2) {
        if pair[0].end() > pair[1].start {
            return Err(format!(
                "cap windows overlap once placed in a {duration} s interval: \
                 [{}, {}) and [{}, {})",
                pair[0].start,
                pair[0].end(),
                pair[1].start,
                pair[1].end()
            ));
        }
    }
    Ok(placed)
}

/// Where the replayed workload comes from.
#[derive(Debug, Clone)]
pub enum TraceSource {
    /// The calibrated synthetic Curie generator, driven by the spec's
    /// interval × seed grid.
    Synthetic,
    /// One fixed trace shared by every cell (e.g. parsed from an SWF file).
    /// The interval and seed axes collapse: replays are deterministic, so
    /// replications of an identical trace would produce identical rows.
    Fixed(std::sync::Arc<apc_workload::Trace>),
}

/// The workload coordinate of one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWorkload {
    /// A synthetic interval replayed with a generator seed at an arrival
    /// load factor.
    Synthetic {
        /// Interval flavour.
        interval: IntervalKind,
        /// Generator seed.
        seed: u64,
        /// `f64::to_bits` of the generator's arrival load factor (stored as
        /// bits so the coordinate stays `Eq`/`Hash`-able).
        load_bits: u64,
    },
    /// The campaign's fixed (SWF) trace.
    Fixed,
}

impl CellWorkload {
    /// Label used in result tables ("medianjob", "24h", "swf", …).
    pub fn label(&self) -> &'static str {
        match self {
            CellWorkload::Synthetic { interval, .. } => interval.name(),
            CellWorkload::Fixed => "swf",
        }
    }

    /// The generator seed, or `None` for a fixed trace. (Fixed traces used
    /// to report seed 0, which made an SWF row indistinguishable from a
    /// legitimate synthetic `seed=0` row — the workload kind is now explicit
    /// in every key derived from this.)
    pub fn seed(&self) -> Option<u64> {
        match self {
            CellWorkload::Synthetic { seed, .. } => Some(*seed),
            CellWorkload::Fixed => None,
        }
    }

    /// The generator's arrival load factor, or `None` for a fixed trace
    /// (whose arrival intensity is whatever the trace file recorded).
    pub fn load_factor(&self) -> Option<f64> {
        match self {
            CellWorkload::Synthetic { load_bits, .. } => Some(f64::from_bits(*load_bits)),
            CellWorkload::Fixed => None,
        }
    }
}

/// One concrete experiment: a workload replayed under one scenario.
#[derive(Debug, Clone)]
pub struct CampaignCell {
    /// Dense index in expansion order — the sharding and ordering key.
    pub index: usize,
    /// Platform scale in racks of 90 nodes (>= 56 means the full Curie).
    pub racks: usize,
    /// The workload coordinate.
    pub workload: CellWorkload,
    /// The powercap scenario to replay.
    pub scenario: Scenario,
}

/// A declarative experiment campaign.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Platform scales, in racks of 90 nodes each.
    pub racks: Vec<usize>,
    /// Workload intervals (ignored when the campaign runs on a fixed trace).
    pub intervals: Vec<IntervalKind>,
    /// Generator seeds — one replication per seed (ignored for fixed traces).
    pub seeds: Vec<u64>,
    /// Policies applied to the capped cells.
    pub policies: Vec<PowercapPolicy>,
    /// Cap fractions in `(0, 1)`, e.g. `[0.8, 0.6, 0.4]`.
    pub cap_fractions: Vec<f64>,
    /// Also run the uncapped "100 %/None" baseline for every workload.
    pub include_baseline: bool,
    /// Cap-window sweep axis: each value is the window set one scenario
    /// replays — `[(0.5, 3600)]` is the paper's centred hour; a value with
    /// several placements produces a multi-window scenario.
    pub cap_windows: Vec<WindowSet>,
    /// Time-varying cap-schedule axis: each value is one [`CapSchedule`]
    /// (per-segment fractions, absolute placement), replayed under every
    /// policy × grouping × decision rule. Empty (the default) leaves the
    /// legacy grid — and its fingerprint — untouched.
    pub cap_schedules: Vec<CapSchedule>,
    /// Fault-injection axis: each value is one fault plan crossed with every
    /// scenario of the grid (`None` = the fault-free variant). Empty (the
    /// default) behaves exactly like `[None]` without touching legacy
    /// fingerprints.
    pub faults: Vec<Option<FaultPlan>>,
    /// Switch-off grouping strategies (ablation axis).
    pub groupings: Vec<GroupingStrategy>,
    /// DVFS-vs-shutdown decision rules (ablation axis).
    pub decision_rules: Vec<DecisionRule>,
    /// Arrival load-factor sweep handed to the synthetic generator — one
    /// workload replication per (interval, seed, load) triple (ignored for
    /// fixed traces).
    pub load_factors: Vec<f64>,
    /// Initial backlog factor handed to the synthetic generator.
    pub backlog_factor: f64,
    /// Seeded per-user fair-share history, in core-hours.
    pub initial_fairshare_core_hours: f64,
}

impl Default for CampaignSpec {
    /// The paper's full evaluation grid: {SHUT, DVFS, MIX} × {80, 60, 40 %}
    /// plus the baseline, over all four intervals, one seed, at a 2-rack
    /// reduced scale.
    fn default() -> Self {
        CampaignSpec {
            racks: vec![2],
            intervals: IntervalKind::ALL.to_vec(),
            seeds: vec![2012],
            policies: vec![
                PowercapPolicy::Shut,
                PowercapPolicy::Dvfs,
                PowercapPolicy::Mix,
            ],
            cap_fractions: vec![0.80, 0.60, 0.40],
            include_baseline: true,
            cap_windows: vec![vec![SINGLE_PAPER_WINDOW]],
            cap_schedules: Vec::new(),
            faults: Vec::new(),
            groupings: vec![GroupingStrategy::Grouped],
            decision_rules: vec![DecisionRule::PaperRho],
            load_factors: vec![1.8],
            backlog_factor: 1.3,
            initial_fairshare_core_hours: 1_000.0,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into a running FNV-1a hash.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// `a * b`, or a clear complaint naming the axes that overflowed.
fn checked_mul(a: usize, b: usize, what: &str) -> Result<usize, String> {
    a.checked_mul(b)
        .ok_or_else(|| format!("campaign grid overflows usize while multiplying {what}"))
}

impl CampaignSpec {
    /// The paper grid with `replications` consecutive seeds starting at
    /// `base_seed`.
    pub fn paper(base_seed: u64, replications: usize) -> Self {
        CampaignSpec {
            seeds: (0..replications as u64).map(|i| base_seed + i).collect(),
            ..CampaignSpec::default()
        }
    }

    /// A stable 64-bit fingerprint of the spec plus its workload source.
    ///
    /// Two `(spec, source)` pairs produce the same fingerprint exactly when
    /// they expand to the same cell grid and replay the same workloads — the
    /// resume machinery compares it against the hash recorded in a result
    /// store's manifest before skipping any cell. Floats are hashed by bit
    /// pattern, fixed traces by folding every job field, so the fingerprint
    /// is independent of process, platform and run.
    pub fn fingerprint(&self, source: &TraceSource) -> u64 {
        let mut h = FNV_OFFSET;
        let mut put = |label: &str, value: &str| {
            fnv1a(&mut h, label.as_bytes());
            fnv1a(&mut h, b"=");
            fnv1a(&mut h, value.as_bytes());
            fnv1a(&mut h, b";");
        };
        for &r in &self.racks {
            put("rack", &r.to_string());
        }
        for &i in &self.intervals {
            put("interval", i.name());
        }
        for &s in &self.seeds {
            put("seed", &s.to_string());
        }
        for &p in &self.policies {
            put("policy", p.name());
        }
        for &f in &self.cap_fractions {
            put("cap", &format!("{:016x}", f.to_bits()));
        }
        put("baseline", if self.include_baseline { "1" } else { "0" });
        for set in &self.cap_windows {
            let value: Vec<String> = set
                .iter()
                .map(|(f, d)| format!("{:016x}x{d}", f.to_bits()))
                .collect();
            put("windows", &value.join("|"));
        }
        // The schedule and fault axes are hashed only when present, so every
        // legacy (static-window) spec keeps its pre-refactor fingerprint and
        // existing stores resume cleanly.
        for s in &self.cap_schedules {
            let value: Vec<String> = s
                .segments()
                .iter()
                .map(|seg| {
                    format!(
                        "{}+{}@{:016x}",
                        seg.start,
                        seg.duration,
                        seg.fraction.to_bits()
                    )
                })
                .collect();
            put("schedule", &value.join("|"));
        }
        for f in &self.faults {
            match f {
                None => put("fault", "-"),
                Some(plan) => put("fault", &plan.label()),
            }
        }
        for &g in &self.groupings {
            put("grouping", g.name());
        }
        for &d in &self.decision_rules {
            put("rule", d.name());
        }
        for &l in &self.load_factors {
            put("load", &format!("{:016x}", l.to_bits()));
        }
        put(
            "backlog",
            &format!("{:016x}", self.backlog_factor.to_bits()),
        );
        put(
            "fairshare",
            &format!("{:016x}", self.initial_fairshare_core_hours.to_bits()),
        );
        match source {
            TraceSource::Synthetic => put("source", "synthetic"),
            TraceSource::Fixed(trace) => {
                let mut t = FNV_OFFSET;
                fnv1a(&mut t, &trace.duration.to_le_bytes());
                for job in &trace.jobs {
                    fnv1a(&mut t, &(job.id as u64).to_le_bytes());
                    fnv1a(&mut t, &job.submit_time.to_le_bytes());
                    fnv1a(&mut t, &job.run_time.to_le_bytes());
                    fnv1a(&mut t, &u64::from(job.cores).to_le_bytes());
                    fnv1a(&mut t, &job.requested_time.to_le_bytes());
                    fnv1a(&mut t, &(job.user as u64).to_le_bytes());
                    fnv1a(&mut t, &u64::from(job.app_class).to_le_bytes());
                }
                put("source", &format!("fixed:{t:016x}"));
            }
        }
        h
    }

    /// Check the spec is runnable; returns a human-readable complaint if not.
    pub fn validate(&self) -> Result<(), String> {
        if self.racks.is_empty() {
            return Err("spec has no rack scales".into());
        }
        if let Some(r) = self.racks.iter().find(|&&r| r == 0) {
            return Err(format!("rack scale must be >= 1, got {r}"));
        }
        if self.intervals.is_empty() {
            return Err("spec has no intervals".into());
        }
        if self.seeds.is_empty() {
            return Err("spec has no seeds".into());
        }
        if !self.include_baseline
            && self.cap_schedules.is_empty()
            && (self.policies.is_empty() || self.cap_fractions.is_empty())
        {
            return Err(
                "spec expands to zero cells: no baseline and an empty policy/cap grid".into(),
            );
        }
        if let Some(f) = self
            .cap_fractions
            .iter()
            .find(|&&f| !(f > 0.0 && f < 1.0 && f.is_finite()))
        {
            return Err(format!("cap fraction must be in (0, 1), got {f}"));
        }
        if self.load_factors.is_empty() {
            return Err("spec has no load factors".into());
        }
        if let Some(l) = self
            .load_factors
            .iter()
            .find(|&&l| !(l.is_finite() && l > 0.0))
        {
            return Err(format!("load factor must be > 0, got {l}"));
        }
        for set in &self.cap_windows {
            if set.is_empty() {
                return Err("a cap-window axis value has no windows (use [(0.5, 3600)] \
                            for the paper placement)"
                    .into());
            }
            // Fractions and durations are checkable here; overlap depends on
            // the replayed duration, which validate() does not know — a
            // fixed (SWF) campaign ignores the interval axis entirely — so
            // placement is checked by [`validate_for`](Self::validate_for)
            // and re-checked during expansion per actual duration.
            for &(fraction, duration) in set {
                if !(0.0..=1.0).contains(&fraction) || !fraction.is_finite() {
                    return Err(format!(
                        "window start fraction must be in [0, 1], got {fraction}"
                    ));
                }
                if duration == 0 {
                    return Err("window duration must be >= 1 second".to_string());
                }
            }
        }
        self.reject_duplicate_axis_values()?;
        if self.backlog_factor < 0.0 || !self.backlog_factor.is_finite() {
            return Err(format!(
                "backlog factor must be >= 0, got {}",
                self.backlog_factor
            ));
        }
        if self.groupings.is_empty() || self.decision_rules.is_empty() {
            return Err("spec needs at least one grouping and one decision rule".into());
        }
        // Catch grids too large to even index before any expansion work.
        self.cell_count()?;
        Ok(())
    }

    /// [`validate`](Self::validate) plus window **placement** checks against
    /// the durations `source` will actually replay: every interval of the
    /// grid for a synthetic campaign, the trace's own duration for a fixed
    /// (SWF) one. Checking only the real durations matters — a window set
    /// that overlaps inside a 5 h interval can be perfectly disjoint in a
    /// 24 h SWF trace, and the interval axis is ignored for fixed sources.
    pub fn validate_for(&self, source: &TraceSource) -> Result<(), String> {
        self.validate()?;
        let durations: Vec<u64> = match source {
            TraceSource::Synthetic => self.intervals.iter().map(|i| i.duration()).collect(),
            TraceSource::Fixed(trace) => vec![trace.duration],
        };
        for set in &self.cap_windows {
            for &duration in &durations {
                place_windows(set, duration)?;
            }
        }
        // Schedules are placed absolutely: a segment past the replayed
        // horizon would silently never activate, so reject it up front.
        for schedule in &self.cap_schedules {
            for &duration in &durations {
                if schedule.end() > duration {
                    return Err(format!(
                        "cap schedule ends at {} s but the replayed interval lasts only \
                         {duration} s — later segments would silently never activate",
                        schedule.end()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Reject axes with repeated values: a duplicated seed, cap, window set
    /// or load factor expands into indistinguishable rows that share one
    /// summary group and silently skew its mean/stddev (a duplicated rack or
    /// ablation value likewise doubles rows without widening the grid).
    fn reject_duplicate_axis_values(&self) -> Result<(), String> {
        fn check<T: PartialEq + std::fmt::Debug>(values: &[T], axis: &str) -> Result<(), String> {
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(format!(
                        "{axis} axis repeats the value {v:?} — duplicate axis values \
                         expand into indistinguishable rows that skew the summaries"
                    ));
                }
            }
            Ok(())
        }
        fn check_floats(values: &[f64], axis: &str) -> Result<(), String> {
            for (i, v) in values.iter().enumerate() {
                if values[..i].iter().any(|p| p.to_bits() == v.to_bits()) {
                    return Err(format!(
                        "{axis} axis repeats the value {v} — duplicate axis values \
                         expand into indistinguishable rows that skew the summaries"
                    ));
                }
            }
            Ok(())
        }
        check(&self.racks, "rack-scale")?;
        check(&self.intervals, "interval")?;
        check(&self.seeds, "seed")?;
        check_floats(&self.cap_fractions, "cap-fraction")?;
        check_floats(&self.load_factors, "load-factor")?;
        check(&self.cap_windows, "cap-window")?;
        check(&self.cap_schedules, "cap-schedule")?;
        check(&self.faults, "fault")?;
        check(&self.groupings, "grouping")?;
        check(&self.decision_rules, "decision-rule")?;
        Ok(())
    }

    /// The scenarios of one workload cell, in stable order: the baseline
    /// first (once, with the default knobs), then windows × caps × policies
    /// for every grouping × decision-rule combination, then the schedule
    /// axis (schedules × policies per grouping × rule), the whole grid
    /// finally crossed with the fault axis (fault-major, the fault-free
    /// legacy order inside). Errors when a window set overlaps once placed
    /// in an interval of `duration` seconds.
    fn scenarios(&self, duration: u64) -> Result<Vec<Scenario>, String> {
        let mut scenarios = Vec::new();
        if self.include_baseline {
            scenarios.push(Scenario::baseline());
        }
        for &grouping in &self.groupings {
            for &rule in &self.decision_rules {
                for set in &self.cap_windows {
                    let windows = place_windows(set, duration)?;
                    for &fraction in &self.cap_fractions {
                        for &policy in &self.policies {
                            scenarios.push(
                                Scenario::paper(policy, fraction, duration)
                                    .with_windows(windows.clone())
                                    .with_grouping(grouping)
                                    .with_decision_rule(rule),
                            );
                        }
                    }
                }
                for schedule in &self.cap_schedules {
                    for &policy in &self.policies {
                        scenarios.push(
                            Scenario::scheduled(policy, schedule.clone())
                                .with_grouping(grouping)
                                .with_decision_rule(rule),
                        );
                    }
                }
            }
        }
        if !self.faults.is_empty() {
            scenarios = self
                .faults
                .iter()
                .flat_map(|fault| {
                    scenarios.iter().map(move |s| match fault {
                        Some(plan) => s.clone().with_faults(*plan),
                        None => s.clone(),
                    })
                })
                .collect();
        }
        Ok(scenarios)
    }

    /// Expand the grid into concrete cells, densely indexed in a stable
    /// order: racks → interval → seed → load factor → (baseline, then
    /// grouping → rule → window set → cap → policy).
    ///
    /// Errors (instead of silently producing an empty or wrapped grid) when
    /// an axis is zero-sized, a window set overlaps once placed, or the cell
    /// count overflows `usize`.
    pub fn expand(&self, source: &TraceSource) -> Result<Vec<CampaignCell>, String> {
        let total = match source {
            TraceSource::Synthetic => self.cell_count()?,
            TraceSource::Fixed(_) => checked_mul(
                self.racks.len(),
                self.per_workload_count()?,
                "racks × scenarios",
            )?,
        };
        let workloads: Vec<(CellWorkload, u64)> = match source {
            TraceSource::Fixed(trace) => vec![(CellWorkload::Fixed, trace.duration)],
            TraceSource::Synthetic => {
                let mut w = Vec::new();
                for &interval in &self.intervals {
                    for &seed in &self.seeds {
                        for &load in &self.load_factors {
                            w.push((
                                CellWorkload::Synthetic {
                                    interval,
                                    seed,
                                    load_bits: load.to_bits(),
                                },
                                interval.duration(),
                            ));
                        }
                    }
                }
                w
            }
        };
        let mut cells = Vec::with_capacity(total);
        for &racks in &self.racks {
            for &(workload, duration) in &workloads {
                for scenario in self.scenarios(duration)? {
                    cells.push(CampaignCell {
                        index: cells.len(),
                        racks,
                        workload,
                        scenario,
                    });
                }
            }
        }
        debug_assert_eq!(cells.len(), total);
        Ok(cells)
    }

    /// Scenarios per workload cell: the optional baseline plus the capped
    /// grid and the schedule axis, all crossed with the fault axis, with
    /// overflow and zero-sized-axis checks.
    fn per_workload_count(&self) -> Result<usize, String> {
        if !self.include_baseline && self.cap_schedules.is_empty() {
            for (len, axis) in [
                (self.policies.len(), "policies"),
                (self.cap_fractions.len(), "cap fractions"),
                (self.cap_windows.len(), "cap windows"),
                (self.groupings.len(), "groupings"),
                (self.decision_rules.len(), "decision rules"),
            ] {
                if len == 0 {
                    return Err(format!(
                        "campaign grid has a zero-sized {axis} axis and no baseline — \
                         it would expand to zero cells"
                    ));
                }
            }
        }
        let ablations = checked_mul(
            self.groupings.len(),
            self.decision_rules.len(),
            "groupings × rules",
        )?;
        let capped = checked_mul(
            checked_mul(
                ablations,
                self.cap_windows.len(),
                "groupings × rules × windows",
            )?,
            checked_mul(
                self.cap_fractions.len(),
                self.policies.len(),
                "caps × policies",
            )?,
            "groupings × rules × windows × caps × policies",
        )?;
        let scheduled = checked_mul(
            checked_mul(
                ablations,
                self.cap_schedules.len(),
                "groupings × rules × schedules",
            )?,
            self.policies.len(),
            "groupings × rules × schedules × policies",
        )?;
        let base = capped
            .checked_add(scheduled)
            .and_then(|n| n.checked_add(usize::from(self.include_baseline)))
            .ok_or_else(|| "campaign grid overflows usize adding the baseline".to_string())?;
        checked_mul(base, self.faults.len().max(1), "scenarios × faults")
    }

    /// Number of cells [`expand`](Self::expand) would produce for a
    /// synthetic-source campaign.
    ///
    /// Uses checked arithmetic throughout: a zero-sized axis or a product
    /// beyond `usize::MAX` is reported as an error rather than silently
    /// collapsing the grid to zero or wrapping.
    pub fn cell_count(&self) -> Result<usize, String> {
        for (len, axis) in [
            (self.racks.len(), "rack-scale"),
            (self.intervals.len(), "interval"),
            (self.seeds.len(), "seed"),
            (self.load_factors.len(), "load-factor"),
        ] {
            if len == 0 {
                return Err(format!("campaign grid has a zero-sized {axis} axis"));
            }
        }
        let per_workload = self.per_workload_count()?;
        if per_workload == 0 {
            return Err(
                "campaign grid expands to zero scenarios per workload (no baseline and an \
                 empty policy/cap grid)"
                    .to_string(),
            );
        }
        checked_mul(
            checked_mul(
                checked_mul(self.racks.len(), self.intervals.len(), "racks × intervals")?,
                self.load_factors.len(),
                "racks × intervals × loads",
            )?,
            checked_mul(self.seeds.len(), per_workload, "seeds × scenarios")?,
            "racks × intervals × loads × seeds × scenarios",
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_the_paper_grid() {
        let spec = CampaignSpec::default();
        spec.validate().unwrap();
        // 1 rack scale × 4 intervals × 1 seed × (1 baseline + 3 × 3 capped).
        assert_eq!(spec.cell_count().unwrap(), 4 * 10);
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        assert_eq!(cells.len(), spec.cell_count().unwrap());
    }

    #[test]
    fn indices_are_dense_and_stable() {
        let spec = CampaignSpec::paper(100, 3);
        let a = spec.expand(&TraceSource::Synthetic).unwrap();
        let b = spec.expand(&TraceSource::Synthetic).unwrap();
        for (i, (ca, cb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(ca.index, i);
            assert_eq!(cb.index, i);
            assert_eq!(ca.scenario, cb.scenario);
            assert_eq!(ca.workload, cb.workload);
        }
        assert_eq!(a.len(), 4 * 3 * 10);
    }

    #[test]
    fn baseline_is_emitted_once_per_workload() {
        let spec = CampaignSpec {
            groupings: vec![GroupingStrategy::Grouped, GroupingStrategy::Scattered],
            decision_rules: vec![DecisionRule::PaperRho, DecisionRule::WorkMaximizing],
            intervals: vec![IntervalKind::MedianJob],
            ..CampaignSpec::default()
        };
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        let baselines = cells
            .iter()
            .filter(|c| c.scenario.cap_fraction.is_none())
            .count();
        assert_eq!(baselines, 1);
        // 1 baseline + 2 groupings × 2 rules × 3 caps × 3 policies.
        assert_eq!(cells.len(), 1 + 2 * 2 * 3 * 3);
        assert_eq!(cells.len(), spec.cell_count().unwrap());
    }

    #[test]
    fn fixed_source_collapses_the_workload_axes() {
        let platform = apc_rjms::cluster::Platform::curie_scaled(1);
        let trace = apc_workload::CurieTraceGenerator::new(1)
            .load_factor(0.3)
            .backlog_factor(0.0)
            .generate_for(&platform);
        let spec = CampaignSpec::paper(1, 5);
        let cells = spec
            .expand(&TraceSource::Fixed(std::sync::Arc::new(trace)))
            .unwrap();
        assert_eq!(
            cells.len(),
            10,
            "intervals × seeds collapse to one workload"
        );
        assert!(cells.iter().all(|c| c.workload == CellWorkload::Fixed));
        assert_eq!(cells[0].workload.label(), "swf");
        // Regression: a fixed trace used to report seed 0, conflating its
        // rows with a legitimate synthetic seed=0 replication.
        assert_eq!(cells[0].workload.seed(), None);
        assert_eq!(cells[0].workload.load_factor(), None);
    }

    #[test]
    fn validation_catches_bad_specs() {
        let ok = CampaignSpec::default();
        assert!(ok.validate().is_ok());
        let bad = CampaignSpec {
            cap_fractions: vec![1.5],
            ..CampaignSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("cap fraction"));
        let bad = CampaignSpec {
            seeds: vec![],
            ..CampaignSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("seeds"));
        let bad = CampaignSpec {
            racks: vec![0],
            ..CampaignSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("rack"));
        let bad = CampaignSpec {
            include_baseline: false,
            policies: vec![],
            ..CampaignSpec::default()
        };
        assert!(bad.validate().unwrap_err().contains("zero cells"));
    }

    #[test]
    fn cell_count_reports_overflow_instead_of_wrapping() {
        let spec = CampaignSpec {
            racks: vec![1; 1 << 17],
            seeds: vec![0; 1 << 17],
            cap_fractions: vec![0.5; 1 << 17],
            policies: vec![apc_core::PowercapPolicy::Shut; 1 << 17],
            ..CampaignSpec::default()
        };
        let err = spec.cell_count().unwrap_err();
        assert!(err.contains("overflow"), "unexpected error: {err}");
        assert!(spec.expand(&TraceSource::Synthetic).is_err());
        assert!(spec.validate().is_err());
    }

    #[test]
    fn expand_rejects_zero_sized_axes() {
        let spec = CampaignSpec {
            intervals: vec![],
            ..CampaignSpec::default()
        };
        let err = spec.expand(&TraceSource::Synthetic).unwrap_err();
        assert!(err.contains("zero-sized interval axis"), "got: {err}");
        // A fixed-source expansion ignores the interval axis but still
        // rejects an all-empty scenario grid.
        let spec = CampaignSpec {
            include_baseline: false,
            policies: vec![],
            ..CampaignSpec::default()
        };
        let platform = apc_rjms::cluster::Platform::curie_scaled(1);
        let trace = apc_workload::CurieTraceGenerator::new(1)
            .load_factor(0.3)
            .backlog_factor(0.0)
            .generate_for(&platform);
        let err = spec
            .expand(&TraceSource::Fixed(std::sync::Arc::new(trace)))
            .unwrap_err();
        assert!(err.contains("zero-sized policies axis"), "got: {err}");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let spec = CampaignSpec::paper(2012, 3);
        let a = spec.fingerprint(&TraceSource::Synthetic);
        let b = spec.fingerprint(&TraceSource::Synthetic);
        assert_eq!(a, b, "fingerprint must be deterministic");
        // Any grid knob changes the hash.
        for changed in [
            CampaignSpec {
                seeds: vec![2012, 2013],
                ..spec.clone()
            },
            CampaignSpec {
                cap_fractions: vec![0.8, 0.6],
                ..spec.clone()
            },
            CampaignSpec {
                include_baseline: false,
                ..spec.clone()
            },
            CampaignSpec {
                load_factors: vec![1.9],
                ..spec.clone()
            },
            CampaignSpec {
                cap_windows: vec![vec![(0.25, 1800)]],
                ..spec.clone()
            },
        ] {
            assert_ne!(changed.fingerprint(&TraceSource::Synthetic), a);
        }
        // The workload source is part of the identity.
        let platform = apc_rjms::cluster::Platform::curie_scaled(1);
        let trace = apc_workload::CurieTraceGenerator::new(5)
            .load_factor(0.3)
            .backlog_factor(0.0)
            .generate_for(&platform);
        let fixed = TraceSource::Fixed(std::sync::Arc::new(trace.clone()));
        assert_ne!(spec.fingerprint(&fixed), a);
        // Same trace content ⇒ same hash, regardless of the Arc identity.
        let fixed2 = TraceSource::Fixed(std::sync::Arc::new(trace));
        assert_eq!(spec.fingerprint(&fixed), spec.fingerprint(&fixed2));
    }

    #[test]
    fn paper_fingerprint_is_pinned() {
        // Manifests and lease logs record this value: a change to the
        // byte-wise FNV-1a fold, or to what it folds, orphans every
        // existing store and lease log.
        assert_eq!(
            CampaignSpec::paper(2012, 3).fingerprint(&TraceSource::Synthetic),
            0x8a19_3831_1092_e1fa
        );
    }

    #[test]
    fn scenario_windows_follow_the_interval_duration() {
        let spec = CampaignSpec {
            intervals: vec![IntervalKind::Day24h],
            ..CampaignSpec::default()
        };
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        let capped = cells
            .iter()
            .find(|c| c.scenario.cap_fraction.is_some())
            .unwrap();
        let w = capped.scenario.window().unwrap();
        assert_eq!(w.duration(), 3600);
        assert_eq!(w.start, (24 * 3600 - 3600) / 2);
    }

    #[test]
    fn window_and_load_sweeps_multiply_the_grid() {
        let spec = CampaignSpec {
            intervals: vec![IntervalKind::MedianJob],
            cap_windows: vec![
                vec![SINGLE_PAPER_WINDOW],
                vec![(0.0, 1800)],
                vec![(0.0, 1800), (1.0, 1800)],
            ],
            load_factors: vec![1.0, 1.8],
            ..CampaignSpec::default()
        };
        spec.validate().unwrap();
        // 1 rack × 1 interval × 1 seed × 2 loads × (1 baseline + 3 windows ×
        // 3 caps × 3 policies).
        assert_eq!(spec.cell_count().unwrap(), 2 * (1 + 3 * 3 * 3));
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        assert_eq!(cells.len(), spec.cell_count().unwrap());
        // Every load factor appears in the workload coordinates.
        let loads: std::collections::BTreeSet<u64> = cells
            .iter()
            .filter_map(|c| c.workload.load_factor().map(f64::to_bits))
            .collect();
        assert_eq!(loads.len(), 2);
        // The multi-window set produces scenarios with two disjoint windows
        // placed at the interval edges.
        let multi = cells
            .iter()
            .find(|c| c.scenario.cap_windows.len() == 2)
            .expect("a multi-window cell");
        let ws = multi.scenario.windows();
        assert_eq!((ws[0].start, ws[0].end), (0, 1800));
        assert_eq!((ws[1].start, ws[1].end), (16_200, 18_000));
    }

    #[test]
    fn window_placement_clamps_and_rejects_overlap() {
        // A 2-hour window in a 1-hour-equivalent slot clamps to the span.
        let placed = place_windows(&[(0.5, 48 * 3600)], 18_000).unwrap();
        assert_eq!((placed[0].start, placed[0].duration), (0, 18_000));
        // Fractions place within the slack.
        let placed = place_windows(&[(1.0, 3600)], 18_000).unwrap();
        assert_eq!(placed[0].start, 14_400);
        assert_eq!(placed[0].end(), 18_000);
        // Overlapping placements are an error, not a silent merge.
        let err = place_windows(&[(0.0, 10_000), (0.5, 10_000)], 18_000).unwrap_err();
        assert!(err.contains("overlap"), "got: {err}");
        // And a spec carrying such a sweep fails source-aware validation
        // (and expansion) up front.
        let spec = CampaignSpec {
            cap_windows: vec![vec![(0.0, 10_000), (0.5, 10_000)]],
            intervals: vec![IntervalKind::MedianJob],
            ..CampaignSpec::default()
        };
        assert!(spec
            .validate_for(&TraceSource::Synthetic)
            .unwrap_err()
            .contains("overlap"));
        assert!(spec.expand(&TraceSource::Synthetic).is_err());
        // Bad fractions and zero durations are caught too.
        assert!(place_windows(&[(1.5, 3600)], 18_000).is_err());
        assert!(place_windows(&[(0.5, 0)], 18_000).is_err());
        let empty = CampaignSpec {
            cap_windows: vec![vec![]],
            ..CampaignSpec::default()
        };
        assert!(empty.validate().unwrap_err().contains("no windows"));
    }

    #[test]
    fn fixed_source_window_placement_is_checked_against_the_trace_duration() {
        // Two disjoint 3-hour windows fit a 24 h trace but overlap inside
        // the 5 h intervals of the (ignored) synthetic axis. A fixed-source
        // campaign must validate against the trace duration only.
        let spec = CampaignSpec {
            cap_windows: vec![vec![(0.0, 3 * 3600), (1.0, 3 * 3600)]],
            intervals: vec![IntervalKind::MedianJob],
            ..CampaignSpec::default()
        };
        // Static validity passes either way; synthetic placement rejects.
        spec.validate().unwrap();
        assert!(spec
            .validate_for(&TraceSource::Synthetic)
            .unwrap_err()
            .contains("overlap"));
        // A day-long fixed trace accepts the same sweep.
        let platform = apc_rjms::cluster::Platform::curie_scaled(1);
        let trace = apc_workload::CurieTraceGenerator::new(1)
            .interval(IntervalKind::Day24h)
            .load_factor(0.3)
            .backlog_factor(0.0)
            .generate_for(&platform);
        let fixed = TraceSource::Fixed(std::sync::Arc::new(trace));
        spec.validate_for(&fixed).unwrap();
        let cells = spec.expand(&fixed).unwrap();
        let multi = cells
            .iter()
            .find(|c| c.scenario.cap_windows.len() == 2)
            .expect("a multi-window SWF cell");
        let ws = multi.scenario.windows();
        assert_eq!((ws[0].start, ws[0].end), (0, 10_800));
        assert_eq!((ws[1].start, ws[1].end), (75_600, 86_400));
    }

    fn day_night_schedule() -> CapSchedule {
        use apc_replay::scenario::CapSegment;
        CapSchedule::new(vec![
            CapSegment::new(0, 2 * 3600, 0.8),
            CapSegment::new(2 * 3600, 3 * 3600, 0.4),
        ])
        .unwrap()
    }

    #[test]
    fn schedule_and_fault_axes_multiply_the_grid() {
        let spec = CampaignSpec {
            intervals: vec![IntervalKind::MedianJob],
            cap_schedules: vec![day_night_schedule()],
            faults: vec![None, Some(FaultPlan::new(3, 600, 7))],
            ..CampaignSpec::default()
        };
        spec.validate_for(&TraceSource::Synthetic).unwrap();
        // (1 baseline + 1 window set × 3 caps × 3 policies + 1 schedule ×
        // 3 policies) × 2 fault values.
        assert_eq!(spec.cell_count().unwrap(), (1 + 9 + 3) * 2);
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        assert_eq!(cells.len(), spec.cell_count().unwrap());
        // Fault-free cells come first (fault-major order) and replicate the
        // legacy grid exactly.
        let fault_free: Vec<_> = cells
            .iter()
            .filter(|c| c.scenario.faults.is_none())
            .collect();
        assert_eq!(fault_free.len(), 13);
        let legacy = CampaignSpec {
            intervals: vec![IntervalKind::MedianJob],
            ..CampaignSpec::default()
        };
        let legacy_cells = legacy.expand(&TraceSource::Synthetic).unwrap();
        for (a, b) in legacy_cells.iter().zip(fault_free.iter()) {
            assert_eq!(a.scenario, b.scenario);
        }
        // Scheduled cells expose segment windows and the schedule label.
        let scheduled = cells
            .iter()
            .find(|c| c.scenario.cap_schedule.is_some())
            .unwrap();
        assert_eq!(scheduled.scenario.windows().len(), 2);
        assert_eq!(
            scheduled.scenario.schedule_label(),
            "0+7200@80|7200+10800@40"
        );
        // Faulty cells carry the plan's label.
        let faulty = cells.iter().find(|c| c.scenario.faults.is_some()).unwrap();
        assert_eq!(faulty.scenario.fault_label(), "3x600@7");
    }

    #[test]
    fn new_axes_leave_legacy_fingerprints_unchanged() {
        let spec = CampaignSpec::paper(2012, 2);
        let base = spec.fingerprint(&TraceSource::Synthetic);
        // Adding either axis changes the fingerprint; explicitly-empty axes
        // (the legacy shape) do not.
        let with_schedule = CampaignSpec {
            cap_schedules: vec![day_night_schedule()],
            ..spec.clone()
        };
        assert_ne!(with_schedule.fingerprint(&TraceSource::Synthetic), base);
        let with_faults = CampaignSpec {
            faults: vec![Some(FaultPlan::new(1, 600, 3))],
            ..spec.clone()
        };
        assert_ne!(with_faults.fingerprint(&TraceSource::Synthetic), base);
        let nofault_axis = CampaignSpec {
            faults: vec![None],
            ..spec.clone()
        };
        assert_ne!(
            nofault_axis.fingerprint(&TraceSource::Synthetic),
            base,
            "an explicit [None] fault axis is a different spec than no axis"
        );
        let empty_axes = CampaignSpec {
            cap_schedules: Vec::new(),
            faults: Vec::new(),
            ..spec.clone()
        };
        assert_eq!(empty_axes.fingerprint(&TraceSource::Synthetic), base);
    }

    #[test]
    fn schedules_past_the_horizon_are_rejected() {
        use apc_replay::scenario::CapSegment;
        let spec = CampaignSpec {
            intervals: vec![IntervalKind::MedianJob], // 5 h
            cap_schedules: vec![CapSchedule::new(vec![CapSegment::new(0, 24 * 3600, 0.5)]).unwrap()],
            ..CampaignSpec::default()
        };
        spec.validate().unwrap();
        let err = spec.validate_for(&TraceSource::Synthetic).unwrap_err();
        assert!(err.contains("never activate"), "got: {err}");
        // The same schedule fits a 24 h fixed trace.
        let platform = apc_rjms::cluster::Platform::curie_scaled(1);
        let trace = apc_workload::CurieTraceGenerator::new(1)
            .interval(IntervalKind::Day24h)
            .load_factor(0.3)
            .backlog_factor(0.0)
            .generate_for(&platform);
        spec.validate_for(&TraceSource::Fixed(std::sync::Arc::new(trace)))
            .unwrap();
    }

    #[test]
    fn duplicate_schedule_and_fault_values_are_rejected() {
        let dup_schedule = CampaignSpec {
            cap_schedules: vec![day_night_schedule(), day_night_schedule()],
            ..CampaignSpec::default()
        };
        let err = dup_schedule.validate().unwrap_err();
        assert!(err.contains("cap-schedule") && err.contains("repeats"));
        let dup_fault = CampaignSpec {
            faults: vec![None, None],
            ..CampaignSpec::default()
        };
        let err = dup_fault.validate().unwrap_err();
        assert!(err.contains("fault") && err.contains("repeats"));
    }

    #[test]
    fn schedule_only_grid_needs_no_baseline_or_windows() {
        let spec = CampaignSpec {
            include_baseline: false,
            cap_fractions: vec![],
            cap_windows: vec![],
            cap_schedules: vec![day_night_schedule()],
            intervals: vec![IntervalKind::MedianJob],
            ..CampaignSpec::default()
        };
        spec.validate().unwrap();
        assert_eq!(spec.cell_count().unwrap(), 3, "3 policies × 1 schedule");
        let cells = spec.expand(&TraceSource::Synthetic).unwrap();
        assert!(cells.iter().all(|c| c.scenario.cap_schedule.is_some()));
    }

    #[test]
    fn duplicate_axis_values_are_rejected() {
        for (spec, what) in [
            (
                CampaignSpec {
                    seeds: vec![2012, 2013, 2012],
                    ..CampaignSpec::default()
                },
                "seed",
            ),
            (
                CampaignSpec {
                    cap_fractions: vec![0.6, 0.6],
                    ..CampaignSpec::default()
                },
                "cap-fraction",
            ),
            (
                CampaignSpec {
                    cap_windows: vec![vec![(0.5, 3600)], vec![(0.5, 3600)]],
                    ..CampaignSpec::default()
                },
                "cap-window",
            ),
            (
                CampaignSpec {
                    load_factors: vec![1.0, 1.0],
                    ..CampaignSpec::default()
                },
                "load-factor",
            ),
            (
                CampaignSpec {
                    racks: vec![2, 2],
                    ..CampaignSpec::default()
                },
                "rack-scale",
            ),
        ] {
            let err = spec.validate().unwrap_err();
            assert!(
                err.contains(what) && err.contains("repeats"),
                "{what}: got {err}"
            );
        }
    }
}
