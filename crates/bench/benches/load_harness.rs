//! Saturation load harness for the scale-out serving substrate: a
//! heavy-tailed trace from a large device population that all rides one
//! edge worker, served by six cloud workers sharing the run's one lane vs
//! one cloud worker (identical requests), plus the Unix socket transport
//! and a diurnal-modulated trace.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[load_harness] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("load_harness");
    let result = serving::load_harness(Scale::from_env());

    let mut table =
        Table::new(&["configuration", "req/s", "p50 (ms)", "p95 (ms)", "p99 (ms)", "max depth", "batches"]);
    for r in [&result.shared, &result.one_worker, &result.uds, &result.diurnal] {
        table.row(&[
            r.label.to_string(),
            format!("{:.1}", r.sustained_hz),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            r.max_queue_depth.to_string(),
            r.cloud_batches.to_string(),
        ]);
    }
    println!(
        "== Saturation load harness: {} devices x {} frames, {} cloud workers ==\n{table}",
        result.devices, result.frames_per_device, result.cloud_workers
    );

    // The topology is a pure scheduling knob: every run — either worker
    // count, either transport, either arrival model — must reproduce the
    // offline sweep bit for bit and keep per-device FIFO within each exit
    // lane.
    for r in [&result.shared, &result.one_worker, &result.uds, &result.diurnal] {
        assert!(r.record_identity, "{}: records diverged from the offline sweep", r.label);
        assert!(r.fifo_ok, "{}: per-device FIFO violated", r.label);
        assert_eq!(r.offloaded, result.shared.offloaded, "{}: offload count moved", r.label);
    }

    // One worker serialises all link sleeps, while six take turns at the
    // one lane and overlap them — six workers must sustain >= 1.5x.
    assert!(
        result.speedup >= 1.5,
        "{} workers sustained only {:.2}x over one ({:.1} vs {:.1} req/s)",
        result.cloud_workers,
        result.speedup,
        result.shared.sustained_hz,
        result.one_worker.sustained_hz
    );
    println!("{} workers vs one at saturation: {:.2}x sustained throughput", result.cloud_workers, result.speedup);

    // The backlog must actually spread over the workers (and a backlog
    // must show in the high-water mark). Raw batch and depth counts are
    // scheduler-dependent — gate derived booleans only.
    assert!(result.shared.busy_workers >= 2, "skewed saturation ran on one cloud worker");

    // Deterministic routing outcomes gate as exact invariants; wall-clock
    // service times gate as `_ms` latencies, and the six-worker run's
    // saturation quantiles gate under the documented quantile slack.
    rep.metric("total", result.total as f64);
    rep.metric("offloaded", result.shared.offloaded as f64);
    rep.metric("record_identity", 1.0);
    rep.metric("fifo_ok", 1.0);
    rep.metric("workers_shared_backlog", f64::from(u8::from(result.shared.busy_workers >= 2)));
    rep.metric("backlog_observed", f64::from(u8::from(result.shared.max_queue_depth > 0)));
    rep.metric("speedup_ok", f64::from(u8::from(result.speedup >= 1.5)));
    // `sharded_service_ms` keeps its baseline name: the six-worker run.
    rep.metric("sharded_service_ms", result.shared.service_ms);
    rep.metric("one_worker_service_ms", result.one_worker.service_ms);
    rep.metric("uds_service_ms", result.uds.service_ms);
    rep.metric("diurnal_service_ms", result.diurnal.service_ms);
    rep.metric("saturation_p50_ms", result.shared.p50_ms);
    rep.metric("saturation_p95_ms", result.shared.p95_ms);
    rep.metric("saturation_p99_ms", result.shared.p99_ms);
    rep.finish();
}
