//! Machine-readable bench reports and the latency-regression gate.
//!
//! The fast asserting bench targets wrap their run in a [`Reporter`]; when
//! `MEA_BENCH_JSON=<dir>` is set they drop a `BENCH_<name>.json` file with
//! the total wall time and their headline metrics. CI uploads those files
//! as artifacts and runs the `bench_regression` binary, which compares
//! them against the baselines checked in under `crates/bench/baselines/`
//! and fails on a >20% latency regression ([`DEFAULT_TOLERANCE`]).
//!
//! Comparison policy, by metric name:
//!
//! * `wall_ms` and metrics ending in `_ms` are **latencies**: only a
//!   regression beyond the tolerance fails (improvements pass — refresh
//!   the baseline when one sticks). Quantile metrics (`*_p50_ms`,
//!   `*_p95_ms`, `*_p99_ms`) additionally get a wider absolute floor
//!   (`QUANTILE_SLACK_MS`) because order statistics of live threaded
//!   runs jitter by whole scheduler quanta.
//! * every other metric is an **invariant** (parameter counts, MACs,
//!   closed-form costs): any drift beyond float noise fails, so a
//!   paper-claim number cannot silently change without a baseline update.
//!
//! The vendored `serde` stub has no JSON backend, so the flat report
//! format is written and parsed by hand here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Relative latency regression tolerated by default (20%).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Absolute slack for `wall_ms`: a whole-process "regression" must also
/// exceed the baseline by this many milliseconds. Wall times of
/// sub-millisecond closed-form benches are dominated by startup jitter
/// (observed >1 ms run-to-run on an idle host) and would otherwise fail
/// on noise alone.
pub(crate) const WALL_SLACK_MS: f64 = 5.0;

/// Absolute slack for `_ms` metrics. These are in-process timings (means
/// over repeated iterations), far more stable than process wall time, so
/// the floor only absorbs sub-millisecond scheduler noise — a multi-×
/// regression on a fast kernel must still fail.
pub(crate) const METRIC_SLACK_MS: f64 = 0.5;

/// Absolute slack for latency *quantile* metrics (keys ending in
/// `_p50_ms`, `_p95_ms` or `_p99_ms`). Quantiles are order statistics of
/// live multi-threaded serving runs: a single scheduler preemption or
/// oversleep shifts them by whole scheduler quanta (observed ±7 ms
/// run-to-run on an idle 1-core host), which is absolute noise, not a
/// relative one. The relative tolerance still applies on top, so a real
/// tail blow-up on a slow path must still fail.
pub(crate) const QUANTILE_SLACK_MS: f64 = 10.0;

/// Relative drift tolerated on invariant (non-latency) metrics. The JSON
/// codec round-trips f64 exactly (shortest-representation `Display`), so
/// this only needs to absorb float noise — a ±1 drift in a million-scale
/// parameter count must still fail.
pub(crate) const INVARIANT_EPS: f64 = 1e-12;

/// One bench target's machine-readable result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Bench target name (e.g. `table6_flops`).
    pub name: String,
    /// Total wall-clock time of the target's run, in milliseconds.
    pub wall_ms: f64,
    /// Headline metrics: latencies end in `_ms`, everything else is an
    /// invariant.
    pub metrics: BTreeMap<String, f64>,
}

impl BenchReport {
    /// Serializes the report as a flat JSON object.
    pub(crate) fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"name\": \"{}\",\n  \"wall_ms\": {:.3},\n  \"metrics\": {{",
            self.name, self.wall_ms
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{k}\": {v}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a report produced by `BenchReport::to_json`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed construct. The parser
    /// accepts exactly the flat shape this module writes (no nesting
    /// beyond `metrics`, no escapes in keys).
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let name = parse_string_field(text, "name")?;
        let wall_ms = parse_number_field(text, "wall_ms")?;
        let metrics_open = text.find("\"metrics\"").ok_or_else(|| "missing \"metrics\" object".to_string())?;
        let body = &text[metrics_open..];
        let open = body.find('{').ok_or_else(|| "metrics: missing '{'".to_string())?;
        let close = body.find('}').ok_or_else(|| "metrics: missing '}'".to_string())?;
        if close < open {
            return Err("metrics: '}' before '{'".to_string());
        }
        let mut metrics = BTreeMap::new();
        for pair in body[open + 1..close].split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair.split_once(':').ok_or_else(|| format!("metrics: bad pair `{pair}`"))?;
            let key = key.trim().trim_matches('"').to_string();
            let value: f64 = value.trim().parse().map_err(|e| format!("metrics.{key}: bad number ({e})"))?;
            metrics.insert(key, value);
        }
        Ok(BenchReport { name, wall_ms, metrics })
    }
}

fn parse_string_field(text: &str, field: &str) -> Result<String, String> {
    let tag = format!("\"{field}\"");
    let at = text.find(&tag).ok_or_else(|| format!("missing \"{field}\""))?;
    let rest = &text[at + tag.len()..];
    let colon = rest.find(':').ok_or_else(|| format!("{field}: missing ':'"))?;
    let rest = rest[colon + 1..].trim_start();
    let rest = rest.strip_prefix('"').ok_or_else(|| format!("{field}: expected string"))?;
    let end = rest.find('"').ok_or_else(|| format!("{field}: unterminated string"))?;
    Ok(rest[..end].to_string())
}

fn parse_number_field(text: &str, field: &str) -> Result<f64, String> {
    let tag = format!("\"{field}\"");
    let at = text.find(&tag).ok_or_else(|| format!("missing \"{field}\""))?;
    let rest = &text[at + tag.len()..];
    let colon = rest.find(':').ok_or_else(|| format!("{field}: missing ':'"))?;
    let rest = rest[colon + 1..].trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().map_err(|e| format!("{field}: bad number ({e})"))
}

/// Wall-clock reporter for a bench target. Create at the top of `main`,
/// record metrics as they are computed, and [`Reporter::finish`] at the
/// end; the JSON file is only written when `MEA_BENCH_JSON` names a
/// directory.
#[derive(Debug)]
pub struct Reporter {
    report: BenchReport,
    started: Instant,
}

impl Reporter {
    /// Starts timing bench target `name`.
    pub fn start(name: &str) -> Reporter {
        Reporter {
            report: BenchReport { name: name.to_string(), wall_ms: 0.0, metrics: BTreeMap::new() },
            started: Instant::now(),
        }
    }

    /// Records one headline metric (suffix `_ms` marks it as a latency).
    pub fn metric(&mut self, key: &str, value: f64) {
        self.report.metrics.insert(key.to_string(), value);
    }

    /// Stops the clock and writes `BENCH_<name>.json` into the
    /// `MEA_BENCH_JSON` directory, if that env var is set. Returns the
    /// finished report.
    ///
    /// # Panics
    ///
    /// Panics if `MEA_BENCH_JSON` is set but the directory or file cannot
    /// be written — CI must notice a broken artifact path, not skip it.
    pub fn finish(mut self) -> BenchReport {
        self.report.wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        if let Ok(dir) = std::env::var("MEA_BENCH_JSON") {
            if !dir.is_empty() {
                std::fs::create_dir_all(&dir).expect("MEA_BENCH_JSON directory");
                let path = format!("{dir}/BENCH_{}.json", self.report.name);
                std::fs::write(&path, self.report.to_json()).expect("write bench report");
                println!("[bench-json] wrote {path}");
            }
        }
        self.report
    }
}

/// Compares a current report against its baseline. Returns one line per
/// violation; empty means the gate passes.
pub fn compare(baseline: &BenchReport, current: &BenchReport, tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    if regressed(baseline.wall_ms, current.wall_ms, tolerance, WALL_SLACK_MS) {
        failures.push(format!(
            "{}: wall_ms regressed {:.1} -> {:.1} (>{:.0}% over baseline)",
            current.name,
            baseline.wall_ms,
            current.wall_ms,
            tolerance * 100.0
        ));
    }
    for (key, &base) in &baseline.metrics {
        let Some(&cur) = current.metrics.get(key) else {
            failures.push(format!("{}: metric `{key}` disappeared", current.name));
            continue;
        };
        if key.ends_with("_ms") {
            let is_quantile = key.ends_with("_p50_ms") || key.ends_with("_p95_ms") || key.ends_with("_p99_ms");
            let slack = if is_quantile { QUANTILE_SLACK_MS } else { METRIC_SLACK_MS };
            if regressed(base, cur, tolerance, slack) {
                failures.push(format!(
                    "{}: latency `{key}` regressed {base:.3} -> {cur:.3} (>{:.0}% over baseline)",
                    current.name,
                    tolerance * 100.0
                ));
            }
        } else if (cur - base).abs() > INVARIANT_EPS * (1.0 + base.abs()) {
            failures.push(format!(
                "{}: invariant `{key}` drifted {base} -> {cur} (update the baseline if intended)",
                current.name
            ));
        }
    }
    for key in current.metrics.keys() {
        if !baseline.metrics.contains_key(key) {
            failures.push(format!(
                "{}: metric `{key}` has no baseline (re-seed crates/bench/baselines)",
                current.name
            ));
        }
    }
    failures
}

fn regressed(base: f64, cur: f64, tolerance: f64, slack_ms: f64) -> bool {
    base > 0.0 && cur > base * (1.0 + tolerance) && cur - base > slack_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(wall: f64, metrics: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            name: "t".to_string(),
            wall_ms: wall,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn json_round_trips() {
        let r = report(12.345, &[("trained_params", 1.3e6), ("edge_forward_ms", 4.25), ("neg", -2.5)]);
        let parsed = BenchReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(parsed.name, "t");
        assert!((parsed.wall_ms - 12.345).abs() < 1e-9);
        assert_eq!(parsed.metrics.len(), 3);
        assert_eq!(parsed.metrics["trained_params"], 1.3e6);
        assert_eq!(parsed.metrics["edge_forward_ms"], 4.25);
        assert_eq!(parsed.metrics["neg"], -2.5);
    }

    #[test]
    fn empty_metrics_round_trip() {
        let r = report(1.0, &[]);
        let parsed = BenchReport::from_json(&r.to_json()).expect("round trip");
        assert!(parsed.metrics.is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("{\"name\": \"x\"}").is_err());
        assert!(BenchReport::from_json("{\"name\": \"x\", \"wall_ms\": abc, \"metrics\": {}}").is_err());
    }

    #[test]
    fn latency_gate_fails_only_on_regression() {
        let base = report(100.0, &[("k_ms", 10.0)]);
        // 15% slower: within the 20% tolerance.
        assert!(compare(&base, &report(115.0, &[("k_ms", 11.0)]), DEFAULT_TOLERANCE).is_empty());
        // Faster: improvements always pass.
        assert!(compare(&base, &report(50.0, &[("k_ms", 2.0)]), DEFAULT_TOLERANCE).is_empty());
        // 30% slower wall clock: fails.
        let fails = compare(&base, &report(130.0, &[("k_ms", 10.0)]), DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("wall_ms"));
        // Metric latency regression fails too.
        let fails = compare(&base, &report(100.0, &[("k_ms", 20.0)]), DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("k_ms"));
        // Sub-millisecond wall noise: hugely "over" in relative terms but
        // under the wall slack — process startup jitter, not a regression.
        let tiny = report(0.1, &[("k_ms", 0.5)]);
        assert!(compare(&tiny, &report(1.6, &[("k_ms", 0.6)]), DEFAULT_TOLERANCE).is_empty());
        // But a multi-x regression on a fast in-process kernel must fail:
        // metric latencies only get the small METRIC_SLACK_MS floor.
        let fails = compare(&tiny, &report(1.6, &[("k_ms", 3.5)]), DEFAULT_TOLERANCE);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("k_ms"));
    }

    #[test]
    fn quantile_metrics_get_the_wider_absolute_floor() {
        let base = report(100.0, &[("paced_p95_ms", 25.0), ("k_ms", 25.0)]);
        // +8 ms on a 25 ms quantile: >20% relative but under the 10 ms
        // quantile floor — scheduler jitter, passes.
        assert!(compare(&base, &report(100.0, &[("paced_p95_ms", 33.0), ("k_ms", 25.0)]), 0.2).is_empty());
        // The same +8 ms on a plain latency metric fails.
        let fails = compare(&base, &report(100.0, &[("paced_p95_ms", 25.0), ("k_ms", 33.0)]), 0.2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("k_ms"));
        // A real tail blow-up (>20% and >10 ms over) still fails.
        let fails = compare(&base, &report(100.0, &[("paced_p95_ms", 40.0), ("k_ms", 25.0)]), 0.2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("paced_p95_ms"));
    }

    #[test]
    fn invariants_must_match_exactly() {
        let base = report(1.0, &[("trained_params", 1_100_000.0)]);
        assert!(compare(&base, &report(1.0, &[("trained_params", 1_100_000.0)]), 0.2).is_empty());
        let fails = compare(&base, &report(1.0, &[("trained_params", 1_100_001.0)]), 0.2);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("drifted"));
    }

    #[test]
    fn missing_and_novel_metrics_are_flagged() {
        let base = report(1.0, &[("a", 1.0)]);
        let cur = report(1.0, &[("b", 1.0)]);
        let fails = compare(&base, &cur, 0.2);
        assert_eq!(fails.len(), 2, "{fails:?}");
    }
}
