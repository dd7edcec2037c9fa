//! Saturation load harness for the scale-out serving substrate: a
//! heavy-tailed trace from a large device population whose sticky lanes
//! all collapse onto shard 0, served through the sharded work-stealing
//! ingress vs the legacy single-queue ingress (identical requests), plus
//! the byte-pipe transport and a diurnal-modulated trace.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[load_harness] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("load_harness");
    let result = serving::load_harness(Scale::from_env());

    let mut table = Table::new(&[
        "configuration",
        "req/s",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "steals",
        "max depth",
        "batches",
    ]);
    for r in [&result.sharded, &result.single_queue, &result.pipe, &result.diurnal] {
        table.row(&[
            r.label.to_string(),
            format!("{:.1}", r.sustained_hz),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            r.steals.to_string(),
            r.max_queue_depth.to_string(),
            r.cloud_batches.to_string(),
        ]);
    }
    println!(
        "== Saturation load harness: {} devices x {} frames, {} cloud workers ==\n{table}",
        result.devices, result.frames_per_device, result.cloud_workers
    );

    // The ingress is a pure scheduling knob: every run — either ingress,
    // either transport, either arrival model — must reproduce the offline
    // sweep bit for bit and keep per-device FIFO within each exit lane.
    for r in [&result.sharded, &result.single_queue, &result.pipe, &result.diurnal] {
        assert!(r.record_identity, "{}: records diverged from the offline sweep", r.label);
        assert!(r.fifo_ok, "{}: per-device FIFO violated", r.label);
        assert_eq!(r.offloaded, result.sharded.offloaded, "{}: offload count moved", r.label);
    }

    // The skew puts every frame on shard 0, so the single queue serialises
    // all link sleeps behind one worker while stealing overlaps them
    // across the tier — the sharded ingress must sustain >= 1.5x.
    assert!(
        result.speedup >= 1.5,
        "sharded ingress sustained only {:.2}x over single-queue ({:.1} vs {:.1} req/s)",
        result.speedup,
        result.sharded.sustained_hz,
        result.single_queue.sustained_hz
    );
    println!("sharded vs single-queue at saturation: {:.2}x sustained throughput", result.speedup);

    // Stealing must actually carry the tier (and is impossible without
    // backlog, so the high-water mark must be visible too). Raw steal and
    // depth counts are scheduler-dependent — gate derived booleans only.
    assert!(result.sharded.steals > 0, "skewed saturation produced no steals");
    assert!(result.single_queue.steals == 0, "single-queue ingress cannot steal");

    // Deterministic routing outcomes gate as exact invariants; wall-clock
    // service times gate as `_ms` latencies, and the sharded run's
    // saturation quantiles gate under the documented quantile slack.
    rep.metric("total", result.total as f64);
    rep.metric("offloaded", result.sharded.offloaded as f64);
    rep.metric("record_identity", 1.0);
    rep.metric("fifo_ok", 1.0);
    rep.metric("steals_exercised", f64::from(u8::from(result.sharded.steals > 0)));
    rep.metric("backlog_observed", f64::from(u8::from(result.sharded.max_queue_depth > 0)));
    rep.metric("speedup_ok", f64::from(u8::from(result.speedup >= 1.5)));
    rep.metric("sharded_service_ms", result.sharded.service_ms);
    rep.metric("single_queue_service_ms", result.single_queue.service_ms);
    rep.metric("pipe_service_ms", result.pipe.service_ms);
    rep.metric("diurnal_service_ms", result.diurnal.service_ms);
    rep.metric("saturation_p50_ms", result.sharded.p50_ms);
    rep.metric("saturation_p95_ms", result.sharded.p95_ms);
    rep.metric("saturation_p99_ms", result.sharded.p99_ms);
    rep.finish();
}
