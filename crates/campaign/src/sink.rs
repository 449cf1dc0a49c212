//! Result sinks: CSV and JSON renderers plus directory writers.
//!
//! The workspace's serde dependency is an offline marker stub (nothing
//! actually serializes through it), so the renderers here are hand-rolled —
//! which also makes the byte layout fully explicit, a requirement for the
//! campaign's "byte-identical across thread counts" guarantee. Floats are
//! printed with fixed precisions; non-finite values (an empty interval's
//! mean wait, say) become empty CSV fields and JSON `null`s.
//!
//! The per-cell renders take their columns, names and value kinds from the
//! row schema [`COLUMNS`]; the summary renders spell
//! out [`SummaryRow`]'s own columns.

use std::borrow::Cow;
use std::fmt::Write;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::agg::{CellRow, Column, MetricSummary, SummaryRow, Value, COLUMNS};

/// Decimal places used for every floating-point column.
const FLOAT_PRECISION: usize = 6;

/// Fixed-precision float field; empty/`null` for non-finite values.
fn float_field(v: f64, json: bool) -> String {
    if v.is_finite() {
        format!("{v:.FLOAT_PRECISION$}")
    } else if json {
        "null".to_string()
    } else {
        String::new()
    }
}

/// Quote a CSV field if it contains a separator, quote or newline.
pub(crate) fn csv_field(raw: &str) -> Cow<'_, str> {
    if raw.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", raw.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(raw)
    }
}

/// Append one column value as a CSV field: integers in decimal, a missing
/// seed as an empty field, labels through [`csv_field`] and floats through
/// `float` — the one encoding the crate's CSV writers (`cells.csv`, the v2
/// store line, `campaign query`) do not share.
pub(crate) fn push_csv_field(out: &mut String, value: Value, float: fn(&mut String, f64)) {
    match value {
        Value::Int(v) | Value::Seed(Some(v)) => {
            let _ = write!(out, "{v}");
        }
        Value::Seed(None) => {}
        Value::Float(v) => float(out, v),
        Value::Label(s) => out.push_str(&csv_field(s)),
    }
}

/// Split one CSV line into fields, undoing [`csv_field`] quoting.
///
/// Rejects malformed quoting (an unterminated quoted field or a stray quote
/// mid-field) — the store loader uses that to detect rows torn by a crash.
pub(crate) fn split_csv_line(line: &str) -> Result<Vec<String>, String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    loop {
        match chars.peek() {
            Some('"') => {
                chars.next();
                loop {
                    match chars.next() {
                        Some('"') if chars.peek() == Some(&'"') => {
                            chars.next();
                            field.push('"');
                        }
                        Some('"') => break,
                        Some(c) => field.push(c),
                        None => return Err("unterminated quoted CSV field".into()),
                    }
                }
                match chars.next() {
                    None => {
                        fields.push(std::mem::take(&mut field));
                        return Ok(fields);
                    }
                    Some(',') => fields.push(std::mem::take(&mut field)),
                    Some(c) => return Err(format!("unexpected '{c}' after closing quote")),
                }
            }
            _ => match chars.next() {
                None => {
                    fields.push(field);
                    return Ok(fields);
                }
                Some(',') => fields.push(std::mem::take(&mut field)),
                Some('"') => return Err("stray quote inside unquoted CSV field".into()),
                Some(c) => field.push(c),
            },
        }
    }
}

/// Escape a JSON string (the labels here are ASCII, but stay correct).
fn json_string(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The columns a cells render emits: the whole row schema, minus the
/// optional `schedule`/`faults` labels unless some rendered row carries
/// one — campaigns without those axes keep their pre-refactor output bytes
/// exactly.
fn cell_columns(labelled: bool) -> impl Iterator<Item = &'static Column> {
    COLUMNS.iter().filter(move |c| labelled || !c.optional)
}

/// Header of the per-cell CSV, with the `schedule`/`faults` columns when
/// `labelled`. The label-free header also heads every v2 (CSV) store
/// partition.
pub fn cells_csv_header(labelled: bool) -> String {
    let names: Vec<&str> = cell_columns(labelled).map(|c| c.name).collect();
    names.join(",")
}

/// Render the per-cell rows as CSV (with header and trailing newline).
pub fn render_cells_csv(rows: &[CellRow]) -> String {
    let labelled = rows.iter().any(CellRow::is_labelled);
    let mut out = cells_csv_header(labelled);
    out.push('\n');
    for r in rows {
        for (i, column) in cell_columns(labelled).enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_csv_field(&mut out, column.value(r), |out, v| {
                out.push_str(&float_field(v, false))
            });
        }
        out.push('\n');
    }
    out
}

fn summary_metric_csv(m: &MetricSummary) -> String {
    format!(
        "{},{},{},{}",
        float_field(m.mean, false),
        float_field(m.min, false),
        float_field(m.max, false),
        float_field(m.stddev, false)
    )
}

/// Header of the across-seed summary CSV.
pub const SUMMARY_CSV_HEADER: &str =
    "racks,workload,load_factor,scenario,window,cap_percent,grouping,decision_rule,replications,\
launched_jobs_mean,launched_jobs_min,launched_jobs_max,launched_jobs_stddev,\
energy_normalized_mean,energy_normalized_min,energy_normalized_max,energy_normalized_stddev,\
work_normalized_mean,work_normalized_min,work_normalized_max,work_normalized_stddev,\
mean_wait_seconds_mean,mean_wait_seconds_min,mean_wait_seconds_max,mean_wait_seconds_stddev,\
peak_power_watts_mean,peak_power_watts_min,peak_power_watts_max,peak_power_watts_stddev";

/// [`SUMMARY_CSV_HEADER`] with the `schedule`/`faults` columns, used when
/// any summary group carries a cap-schedule or fault-plan label.
pub const SUMMARY_CSV_HEADER_LABELLED: &str =
    "racks,workload,load_factor,scenario,window,cap_percent,grouping,decision_rule,\
schedule,faults,replications,\
launched_jobs_mean,launched_jobs_min,launched_jobs_max,launched_jobs_stddev,\
energy_normalized_mean,energy_normalized_min,energy_normalized_max,energy_normalized_stddev,\
work_normalized_mean,work_normalized_min,work_normalized_max,work_normalized_stddev,\
mean_wait_seconds_mean,mean_wait_seconds_min,mean_wait_seconds_max,mean_wait_seconds_stddev,\
peak_power_watts_mean,peak_power_watts_min,peak_power_watts_max,peak_power_watts_stddev";

/// Do any of these summary groups carry a schedule or fault label?
fn summaries_labelled(summaries: &[SummaryRow]) -> bool {
    summaries
        .iter()
        .any(|s| s.schedule != "-" || s.faults != "-")
}

/// Render the across-seed summaries as CSV (with header and trailing
/// newline).
pub fn render_summary_csv(summaries: &[SummaryRow]) -> String {
    let labelled = summaries_labelled(summaries);
    let mut out = String::from(if labelled {
        SUMMARY_CSV_HEADER_LABELLED
    } else {
        SUMMARY_CSV_HEADER
    });
    out.push('\n');
    for s in summaries {
        let labels = if labelled {
            format!("{},{},", csv_field(&s.schedule), csv_field(&s.faults))
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{labels}{},{},{},{},{},{}\n",
            s.racks,
            csv_field(&s.workload),
            float_field(s.load_factor, false),
            csv_field(&s.scenario),
            csv_field(&s.window),
            float_field(s.cap_percent, false),
            csv_field(&s.grouping),
            csv_field(&s.decision_rule),
            s.replications,
            summary_metric_csv(&s.launched_jobs),
            summary_metric_csv(&s.energy_normalized),
            summary_metric_csv(&s.work_normalized),
            summary_metric_csv(&s.mean_wait_seconds),
            summary_metric_csv(&s.peak_power_watts),
        ));
    }
    out
}

/// Render the per-cell rows as a JSON array (pretty, two-space indent).
pub fn render_cells_json(rows: &[CellRow]) -> String {
    let labelled = rows.iter().any(CellRow::is_labelled);
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("  {");
        for (j, column) in cell_columns(labelled).enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(column.name));
            out.push_str(": ");
            match column.value(r) {
                Value::Int(v) | Value::Seed(Some(v)) => out.push_str(&v.to_string()),
                Value::Seed(None) => out.push_str("null"),
                Value::Float(v) => out.push_str(&float_field(v, true)),
                Value::Label(s) => out.push_str(&json_string(s)),
            }
        }
        out.push_str(if i + 1 == rows.len() { "}\n" } else { "},\n" });
    }
    out.push_str("]\n");
    out
}

fn summary_metric_json(name: &str, m: &MetricSummary) -> String {
    format!(
        "\"{name}\": {{\"mean\": {}, \"min\": {}, \"max\": {}, \"stddev\": {}}}",
        float_field(m.mean, true),
        float_field(m.min, true),
        float_field(m.max, true),
        float_field(m.stddev, true)
    )
}

/// Render the across-seed summaries as a JSON array.
pub fn render_summary_json(summaries: &[SummaryRow]) -> String {
    let labelled = summaries_labelled(summaries);
    let mut out = String::from("[\n");
    for (i, s) in summaries.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"racks\": {}, ", s.racks));
        out.push_str(&format!("\"workload\": {}, ", json_string(&s.workload)));
        out.push_str(&format!(
            "\"load_factor\": {}, ",
            float_field(s.load_factor, true)
        ));
        out.push_str(&format!("\"scenario\": {}, ", json_string(&s.scenario)));
        out.push_str(&format!("\"window\": {}, ", json_string(&s.window)));
        out.push_str(&format!(
            "\"cap_percent\": {}, ",
            float_field(s.cap_percent, true)
        ));
        out.push_str(&format!("\"grouping\": {}, ", json_string(&s.grouping)));
        out.push_str(&format!(
            "\"decision_rule\": {}, ",
            json_string(&s.decision_rule)
        ));
        if labelled {
            out.push_str(&format!("\"schedule\": {}, ", json_string(&s.schedule)));
            out.push_str(&format!("\"faults\": {}, ", json_string(&s.faults)));
        }
        out.push_str(&format!("\"replications\": {}, ", s.replications));
        out.push_str(&summary_metric_json("launched_jobs", &s.launched_jobs));
        out.push_str(", ");
        out.push_str(&summary_metric_json(
            "energy_normalized",
            &s.energy_normalized,
        ));
        out.push_str(", ");
        out.push_str(&summary_metric_json("work_normalized", &s.work_normalized));
        out.push_str(", ");
        out.push_str(&summary_metric_json(
            "mean_wait_seconds",
            &s.mean_wait_seconds,
        ));
        out.push_str(", ");
        out.push_str(&summary_metric_json(
            "peak_power_watts",
            &s.peak_power_watts,
        ));
        out.push_str(if i + 1 == summaries.len() {
            "}\n"
        } else {
            "},\n"
        });
    }
    out.push_str("]\n");
    out
}

/// A pluggable results sink.
///
/// Since the executor streams every row into the partitioned
/// [`ResultStore`](crate::store::ResultStore), the sinks here are **render
/// frontends over the store**: [`write_store`](CampaignSink::write_store)
/// pulls the index-sorted rows back out, folds the summaries and renders
/// `cells.*`/`summary.*` exactly as the pre-store whole-file sinks did —
/// the output bytes are unchanged.
pub trait CampaignSink {
    /// Persist the rows and summaries; returns the paths written.
    fn write(&mut self, rows: &[CellRow], summaries: &[SummaryRow]) -> io::Result<Vec<PathBuf>>;

    /// Render everything a result store records (rows sorted by cell
    /// index, summaries re-folded from them) — byte-identical to a
    /// [`write`](CampaignSink::write) of the same campaign's in-memory
    /// outcome.
    fn write_store(&mut self, store: &crate::store::ResultStore) -> io::Result<Vec<PathBuf>> {
        let rows = store.rows();
        let summaries = crate::agg::summarize(&rows);
        self.write(&rows, &summaries)
    }
}

fn write_into(dir: &Path, name: &str, content: &str) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(name);
    fs::write(&path, content)?;
    Ok(path)
}

/// Writes `cells.csv` and `summary.csv` into a results directory.
#[derive(Debug, Clone)]
pub struct CsvSink {
    dir: PathBuf,
}

impl CsvSink {
    /// A CSV sink rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CsvSink { dir: dir.into() }
    }
}

impl CampaignSink for CsvSink {
    fn write(&mut self, rows: &[CellRow], summaries: &[SummaryRow]) -> io::Result<Vec<PathBuf>> {
        Ok(vec![
            write_into(&self.dir, "cells.csv", &render_cells_csv(rows))?,
            write_into(&self.dir, "summary.csv", &render_summary_csv(summaries))?,
        ])
    }
}

/// Writes `cells.json` and `summary.json` into a results directory.
#[derive(Debug, Clone)]
pub struct JsonSink {
    dir: PathBuf,
}

impl JsonSink {
    /// A JSON sink rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        JsonSink { dir: dir.into() }
    }
}

impl CampaignSink for JsonSink {
    fn write(&mut self, rows: &[CellRow], summaries: &[SummaryRow]) -> io::Result<Vec<PathBuf>> {
        Ok(vec![
            write_into(&self.dir, "cells.json", &render_cells_json(rows))?,
            write_into(&self.dir, "summary.json", &render_summary_json(summaries))?,
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<CellRow> {
        vec![CellRow {
            index: 0,
            racks: 1,
            workload: "medianjob".into(),
            seed: Some(7),
            load_factor: 1.8,
            scenario: "60%/SHUT".into(),
            window: "7200+3600".into(),
            policy: "shut".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            launched_jobs: 12,
            completed_jobs: 10,
            killed_jobs: 0,
            pending_jobs: 2,
            work_core_seconds: 123.456789,
            energy_joules: 9.875,
            energy_normalized: 0.5,
            launched_jobs_normalized: 0.25,
            work_normalized: 0.125,
            mean_wait_seconds: f64::NAN,
            peak_power_watts: 1000.0,
        }]
    }

    #[test]
    fn csv_has_header_and_one_line_per_row() {
        let csv = render_cells_csv(&rows());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("index,racks,workload,seed,load_factor,scenario,window"));
        assert!(lines[1].starts_with("0,1,medianjob,7,1.800000,60%/SHUT,7200+3600,shut,60.000000"));
        assert!(lines[1].contains("123.456789"));
        // NaN mean wait renders as an empty field, keeping the column count.
        assert_eq!(lines[1].split(',').count(), lines[0].split(',').count());
        assert!(lines[1].contains(",,"));
    }

    #[test]
    fn csv_quotes_separator_carrying_fields() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn csv_split_undoes_csv_field_quoting() {
        for raw in ["plain", "a,b", "say \"hi\"", "", "trail,", "\"x\",y\nz"] {
            let line = format!("{},{},end", csv_field(raw), csv_field(raw));
            let fields = split_csv_line(&line).unwrap();
            assert_eq!(fields, [raw, raw, "end"], "round-trip of {raw:?}");
        }
        assert_eq!(split_csv_line("a,,c").unwrap(), ["a", "", "c"]);
        assert_eq!(split_csv_line("").unwrap(), [""]);
        assert!(split_csv_line("\"unterminated").is_err());
        assert!(split_csv_line("\"x\"tail,y").is_err());
        assert!(split_csv_line("mid\"quote").is_err());
    }

    #[test]
    fn write_store_renders_the_same_bytes_as_write() {
        let dir = std::env::temp_dir().join(format!(
            "apc-campaign-sink-store-test-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let rows = rows();
        let summaries = crate::agg::summarize(&rows);
        let mut store =
            crate::store::ResultStore::create(dir.join("store"), 7, rows.len()).unwrap();
        for row in &rows {
            store.append(row).unwrap();
        }
        let direct_dir = dir.join("direct");
        let fronted_dir = dir.join("fronted");
        CsvSink::new(&direct_dir).write(&rows, &summaries).unwrap();
        JsonSink::new(&direct_dir).write(&rows, &summaries).unwrap();
        CsvSink::new(&fronted_dir).write_store(&store).unwrap();
        JsonSink::new(&fronted_dir).write_store(&store).unwrap();
        for name in ["cells.csv", "summary.csv", "cells.json", "summary.json"] {
            assert_eq!(
                fs::read(direct_dir.join(name)).unwrap(),
                fs::read(fronted_dir.join(name)).unwrap(),
                "{name} differs between direct render and store frontend"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_is_well_formed_and_null_for_nan() {
        let json = render_cells_json(&rows());
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert!(json.contains("\"mean_wait_seconds\": null"));
        assert!(json.contains("\"scenario\": \"60%/SHUT\""));
        // Balanced braces and a single object.
        assert_eq!(json.matches('{').count(), 1);
        assert_eq!(json.matches('}').count(), 1);
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_string("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_string("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
    }

    #[test]
    fn summary_renderers_cover_every_metric_block() {
        let summaries = vec![SummaryRow {
            racks: 1,
            workload: "medianjob".into(),
            load_factor: 1.8,
            scenario: "60%/SHUT".into(),
            window: "7200+3600".into(),
            cap_percent: 60.0,
            grouping: "grouped".into(),
            decision_rule: "paper-rho".into(),
            schedule: "-".into(),
            faults: "-".into(),
            replications: 3,
            launched_jobs: MetricSummary {
                mean: 10.0,
                min: 8.0,
                max: 12.0,
                stddev: 1.63,
            },
            energy_normalized: MetricSummary::default(),
            work_normalized: MetricSummary::default(),
            mean_wait_seconds: MetricSummary::default(),
            peak_power_watts: MetricSummary::default(),
        }];
        let csv = render_summary_csv(&summaries);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
        assert!(lines[1].starts_with(
            "1,medianjob,1.800000,60%/SHUT,7200+3600,60.000000,grouped,paper-rho,3,10.000000"
        ));
        let json = render_summary_json(&summaries);
        assert!(json.contains("\"launched_jobs\": {\"mean\": 10.000000"));
        assert!(json.contains("\"replications\": 3"));
    }

    #[test]
    fn label_columns_appear_only_for_labelled_rows() {
        // A label-free render keeps the pre-refactor header and column
        // count exactly.
        let legacy = render_cells_csv(&rows());
        assert!(legacy.starts_with(&cells_csv_header(false)));
        assert!(!legacy.contains("schedule"));
        // One labelled row switches both header and rows to the extended
        // layout, with "-" filled for label-free rows.
        let mut labelled = rows();
        labelled.push({
            let mut r = labelled[0].clone();
            r.index = 1;
            r.scenario = "SCHED/SHUT".into();
            r.schedule = "0+7200@80".into();
            r.faults = "3x600@7".into();
            r
        });
        let csv = render_cells_csv(&labelled);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with(&cells_csv_header(true)));
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), lines[0].split(',').count());
        }
        assert!(lines[1].contains(",paper-rho,-,-,"));
        assert!(lines[2].contains(",paper-rho,0+7200@80,3x600@7,"));
        // JSON mirrors the conditional keys.
        let json = render_cells_json(&labelled);
        assert!(json.contains("\"schedule\": \"0+7200@80\""));
        assert!(json.contains("\"faults\": \"-\""));
        assert!(!render_cells_json(&rows()).contains("\"schedule\""));
        // Summaries follow the same rule.
        let summaries = crate::agg::summarize(&labelled);
        let sum_csv = render_summary_csv(&summaries);
        assert!(sum_csv.starts_with(SUMMARY_CSV_HEADER_LABELLED));
        assert!(sum_csv.contains(",0+7200@80,3x600@7,"));
        assert!(render_summary_json(&summaries).contains("\"schedule\": \"0+7200@80\""));
    }

    #[test]
    fn sinks_write_into_the_results_directory() {
        let dir =
            std::env::temp_dir().join(format!("apc-campaign-sink-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let rows = rows();
        let summaries = crate::agg::summarize(&rows);
        let mut csv = CsvSink::new(&dir);
        let mut json = JsonSink::new(&dir);
        let mut written = csv.write(&rows, &summaries).unwrap();
        written.extend(json.write(&rows, &summaries).unwrap());
        assert_eq!(written.len(), 4);
        for path in &written {
            assert!(path.exists(), "{path:?} missing");
            assert!(!fs::read_to_string(path).unwrap().is_empty());
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
