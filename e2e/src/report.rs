//! The metric tables — name, unit, direction and bound of every metric —
//! and the two renderings of a run: the human-readable listing and the
//! one-line JSON result the driver reads. `BENCHMARK.json` is generated
//! from the same tables, so the file and the binary cannot disagree.

use crate::workload::WORKLOADS;
use std::fmt::Write;

/// Seconds of measured traffic per run (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// The command the driver runs from the root of a checkout.
const COMMAND: [&str; 8] =
    ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "e2e/Cargo.toml", "--"];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `first` the value `second` is worse (negative when
    /// it is better).
    pub fn worse_by(self, first: f64, second: f64) -> f64 {
        match self {
            Better::Lower => (second - first) / first,
            Better::Higher => (first - second) / first,
        }
    }
}

/// One metric of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Name in the JSON result and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median the metric may get worse by
    /// (end-to-end metrics only; 0 for per-layer metrics, which have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better, bound: 0.0 }
}

/// End-to-end metrics, the same set on every workload.
pub const END_TO_END: [MetricSpec; 10] = [
    e2e("throughput_rps", "1/s", Better::Higher, 0.25),
    e2e("cpu_ms_per_req", "ms", Better::Lower, 0.25),
    e2e("main_p50_ms", "ms", Better::Lower, 0.25),
    e2e("extension_p50_ms", "ms", Better::Lower, 0.25),
    e2e("cloud_p50_ms", "ms", Better::Lower, 0.25),
    e2e("slo_met_share", "share", Better::Higher, 0.05),
    e2e("uplink_bytes_per_req", "B", Better::Lower, 0.02),
    e2e("accuracy_share", "share", Better::Higher, 0.02),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Per-layer metrics of a traced run.
pub const PER_LAYER: [MetricSpec; 50] = [
    layer("tensor.matmul_128_us", "us", Better::Lower),
    layer("meanet.main_exit_us", "us", Better::Lower),
    layer("meanet.extension_us", "us", Better::Lower),
    layer("meanet.plan_us", "us", Better::Lower),
    layer("meanet.exit_main_share", "share", Better::Higher),
    layer("meanet.exit_extension_share", "share", Better::Higher),
    layer("meanet.exit_cloud_share", "share", Better::Lower),
    layer("nn.cloud_forward_b8_us", "us", Better::Lower),
    layer("nn.cloud_forward_b1_us", "us", Better::Lower),
    layer("nn.prefix_us", "us", Better::Lower),
    layer("nn.suffix_b1_us", "us", Better::Lower),
    layer("nn.suffix_b8_us", "us", Better::Lower),
    layer("quant.wire_encode_us", "us", Better::Lower),
    layer("quant.wire_decode_us", "us", Better::Lower),
    layer("quant.qgemm_128_us", "us", Better::Lower),
    layer("payload.encode_us", "us", Better::Lower),
    layer("payload.decode_us", "us", Better::Lower),
    layer("payload.bytes_per_offload", "B", Better::Lower),
    layer("transport.up_us", "us", Better::Lower),
    layer("transport.down_us", "us", Better::Lower),
    layer("transport.frame_encode_us", "us", Better::Lower),
    layer("transport.stream_mb_s", "MB/s", Better::Higher),
    layer("network.link_model_ms", "ms", Better::Lower),
    layer("network.estimator_observe_ns", "ns", Better::Lower),
    layer("partition.profile_us", "us", Better::Lower),
    layer("partition.plan_us", "us", Better::Lower),
    layer("partition.cost_model_err_share", "share", Better::Lower),
    layer("serve.sat_mean_batch", "count", Better::Higher),
    layer("serve.paced_mean_batch", "count", Better::Lower),
    layer("serve.cloud_batches", "count", Better::Lower),
    layer("serve.steals", "count", Better::Lower),
    layer("serve.max_queue_depth", "count", Better::Lower),
    layer("serve.cut_replans", "count", Better::Lower),
    layer("serve.cloud_macs_per_req", "count", Better::Lower),
    layer("serve.paced_drain_ms", "ms", Better::Lower),
    layer("serve.local_p99_ms", "ms", Better::Lower),
    layer("serve.cloud_p99_ms", "ms", Better::Lower),
    layer("serve.latency_max_ms", "ms", Better::Lower),
    layer("serve.sys_cpu_share", "share", Better::Lower),
    layer("serve.runtime_overhead_share", "share", Better::Lower),
    layer("serve.attributed_share", "share", Better::Higher),
    layer("serve.rss_before_mib", "MiB", Better::Lower),
    layer("alloc.calls_per_req", "count", Better::Lower),
    layer("alloc.bytes_per_req", "B", Better::Lower),
    layer("metrics.hist_record_ns", "ns", Better::Lower),
    layer("metrics.hist_p99_rel_err", "share", Better::Lower),
    layer("trace.overhead_share", "share", Better::Lower),
    layer("trace.spans", "count", Better::Lower),
    layer("trace.replay_us_per_req", "us", Better::Lower),
    layer("host.ref_loop_ms", "ms", Better::Lower),
];

/// Metric values of one run, in table order.
#[derive(Debug, Default)]
pub struct Values {
    entries: Vec<(&'static str, f64)>,
}

impl Values {
    /// Records `value` for the metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value: the result line must stay valid JSON.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Human-readable listing of `table`, one metric per line.
    ///
    /// # Panics
    ///
    /// Panics when a metric of the table was never set.
    pub fn listing(&self, table: &[MetricSpec]) -> String {
        let mut out = String::new();
        for spec in table {
            let v = self.get(spec.name).unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            writeln!(out, "  {:<34} {:>14.4} {}", spec.name, v, spec.unit).expect("write to a String");
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `table` with all its digits.
    pub fn result_line(&self, table: &[MetricSpec], attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, spec) in table.iter().enumerate() {
            let v = self.get(spec.name).unwrap_or_else(|| panic!("metric {} was not measured", spec.name));
            let sep = if i == 0 { "" } else { ", " };
            write!(out, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", spec.name, spec.unit)
                .expect("write to a String");
        }
        out.push_str("}}");
        out
    }
}

/// Reads one metric's value back out of a result line.
pub fn value_in_result(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Reads `correct` back out of a result line.
pub fn correct_in_result(line: &str) -> bool {
    line.starts_with("{\"correct\": true,")
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ");
    // One JSON object per line, comma-separated, inside a named array.
    let array = |key: &str, rows: Vec<String>| format!("  \"{key}\": [\n    {}\n  ]", rows.join(",\n    "));
    let workloads = WORKLOADS.iter().map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why));
    let end_to_end = END_TO_END.iter().map(|m| {
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        )
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        format!("{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}", m.name, m.unit, m.better.as_str())
    });
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"e2e\"],\n  \"run_seconds\": {RUN_SECONDS},\n{},\n{},\n{}\n}}\n",
        quoted(&COMMAND),
        array("workloads", workloads.collect()),
        array("end_to_end", end_to_end.collect()),
        array("per_layer", per_layer.collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_in_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with `--print-benchmark-json > BENCHMARK.json`");
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit =
            |s: &str| s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c));
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(m.name), "bad metric name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {}", m.unit);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(ok_name(w.name) && seen.insert(w.name), "bad or duplicate workload name {}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s carries the largest bound");
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let mut v = Values::default();
        v.set("throughput_rps", 1234.567890123);
        v.set("cpu_ms_per_req", 0.1 + 0.2);
        let table = &END_TO_END[..2];
        let line = v.result_line(table, 1000, 0);
        assert!(correct_in_result(&line));
        assert_eq!(value_in_result(&line, "throughput_rps"), Some(1234.567890123));
        assert_eq!(value_in_result(&line, "cpu_ms_per_req"), Some(0.1 + 0.2));
        assert_eq!(value_in_result(&line, "setup_s"), None);
        assert!(!correct_in_result(&v.result_line(table, 1000, 3)));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.ends_with("}}") && !line.contains('\n'));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Lower.worse_by(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(10.0, 12.0) < 0.0);
    }
}
