//! CI latency-regression gate: compares the `BENCH_*.json` reports a
//! `repro` run writes (`MEA_BENCH_JSON=<dir> cargo run --release -p
//! mea-bench --bin repro`) against the baselines checked in under
//! `crates/bench/baselines/`.
//!
//! ```bash
//! cargo run --release -p mea-bench --bin bench_regression -- bench-out
//! ```
//!
//! Exit code 0 when every report is within tolerance; 1 with one line per
//! violation otherwise. `MEA_BENCH_BASELINES` overrides the baseline
//! directory; the latency threshold is `DEFAULT_TOLERANCE` (0.20, =20%).

use mea_bench::regression::{compare, BenchReport, DEFAULT_TOLERANCE};
use std::path::{Path, PathBuf};

fn load_reports(dir: &Path) -> Vec<BenchReport> {
    let mut reports = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_regression: cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("bench_regression: cannot read {}: {e}", path.display());
            std::process::exit(1);
        });
        match BenchReport::from_json(&text) {
            Ok(r) => reports.push(r),
            Err(e) => {
                eprintln!("bench_regression: {} is malformed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    reports.sort_by(|a, b| a.name.cmp(&b.name));
    reports
}

fn main() {
    let current_dir = std::env::args().nth(1).unwrap_or_else(|| "bench-out".to_string());
    let baseline_dir = std::env::var("MEA_BENCH_BASELINES")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines"));
    let tolerance = DEFAULT_TOLERANCE;

    let baselines = load_reports(&baseline_dir);
    let currents = load_reports(Path::new(&current_dir));
    if baselines.is_empty() {
        eprintln!("bench_regression: no baselines under {}", baseline_dir.display());
        std::process::exit(1);
    }

    let mut failures = Vec::new();
    for base in &baselines {
        match currents.iter().find(|c| c.name == base.name) {
            Some(cur) => {
                println!(
                    "{:<24} wall {:>9.1} ms (baseline {:>9.1} ms, tolerance {:.0}%)",
                    cur.name,
                    cur.wall_ms,
                    base.wall_ms,
                    tolerance * 100.0
                );
                failures.extend(compare(base, cur, tolerance));
            }
            None => failures.push(format!("{}: no current report in {current_dir}", base.name)),
        }
    }
    for cur in &currents {
        if !baselines.iter().any(|b| b.name == cur.name) {
            failures.push(format!(
                "{}: no baseline under {} (seed it from a healthy run)",
                cur.name,
                baseline_dir.display()
            ));
        }
    }

    if failures.is_empty() {
        println!("bench_regression: {} report(s) within tolerance", baselines.len());
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        std::process::exit(1);
    }
}
