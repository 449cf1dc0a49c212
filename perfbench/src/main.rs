//! The repository benchmark: end-to-end and per-layer metrics of the
//! campaign engine on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-grid|fault-sweep|store-query --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` times the workload with all
//! observability off and prints the end-to-end metrics; `--trace 1` makes
//! the separate traced run and prints the per-layer metrics, writing the
//! span dump under `perfbench/out/`. Both check the program's outputs.
//! Human-readable detail goes to stderr; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `BENCHMARK.json` for every metric and `perfbench/README.md` for what each
//! measures and the recorded spread.

mod check;
mod grids;
mod layers;
mod stats;
mod storequery;

use std::path::PathBuf;

use stats::{result_line, Metrics};

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every checked output was right.
    pub correct: bool,
    /// Operations attempted (cells or queries).
    pub attempted: u64,
    /// Operations whose output was missing or wrong.
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Metrics,
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args, work: &std::path::Path) -> Result<Outcome, String> {
    let grid = match args.workload.as_str() {
        "paper-grid" => Some(grids::Grid::Paper),
        "fault-sweep" => Some(grids::Grid::FaultSweep),
        "store-query" => None,
        other => {
            return Err(format!(
                "unknown workload {other} (paper-grid, fault-sweep, store-query)"
            ))
        }
    };
    let out = PathBuf::from("perfbench").join("out");
    match (grid, args.trace) {
        (Some(grid), false) => grids::timed(grid, args.seed, args.seconds, work),
        (Some(grid), true) => layers::traced_grid(grid, args.seed, work, &out),
        (None, false) => storequery::timed(args.seed, args.seconds, work),
        (None, true) => storequery::traced(args.seed, args.seconds, work, &out),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload paper-grid|fault-sweep|store-query \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from("perfbench").join("work").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    ));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Leave no empty scratch directory behind (another run may still use it).
    let _ = work.parent().map(std::fs::remove_dir);
    match result {
        Ok(outcome) => {
            for m in &outcome.metrics.0 {
                eprintln!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                result_line(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    /// The `"key": "value"` strings of `key` in `json`, in file order.
    fn strings<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let pattern = format!("\"{key}\": \"");
        json.match_indices(&pattern)
            .map(|(at, p)| {
                let rest = &json[at + p.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect()
    }

    /// `BENCHMARK.json` lists exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_manifest_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let end_to_end = [
            ("ops_per_s", "1/s"),
            ("op_p50_ms", "ms"),
            ("op_p90_ms", "ms"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MiB"),
        ];
        let mut expected_names = vec!["paper-grid", "fault-sweep", "store-query"];
        expected_names.extend(end_to_end.iter().map(|m| m.0));
        let per_layer = crate::layers::per_layer_names();
        expected_names.extend(per_layer.iter().map(|m| m.0.as_str()));
        assert_eq!(strings(&json, "name"), expected_names);
        let mut expected_units: Vec<&str> = end_to_end.iter().map(|m| m.1).collect();
        expected_units.extend(per_layer.iter().map(|m| m.1));
        assert_eq!(strings(&json, "unit"), expected_units);
    }
}
