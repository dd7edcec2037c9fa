//! Serving-runtime scaling: throughput and latency quantiles of the
//! online multi-worker runtime under saturating high-offload traffic,
//! sweeping the cloud tier from 1 to 4 workers.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[serving_throughput] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("serving_throughput");
    let result = serving::serving_throughput(Scale::from_env());

    let mut table = Table::new(&[
        "cloud workers",
        "throughput (req/s)",
        "p50 (ms)",
        "p95 (ms)",
        "p99 (ms)",
        "beta",
        "batches",
        "max batch",
    ]);
    for r in result.rows.iter().chain([&result.paced]) {
        table.row(&[
            r.cloud_workers.to_string(),
            format!("{:.1}", r.throughput_hz),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.2}", r.p99_ms),
            format!("{:.3}", r.achieved_beta),
            r.cloud_batches.to_string(),
            r.max_batch_seen.to_string(),
        ]);
    }
    println!("== Serving throughput: cloud-worker scaling (last row: paced) ==\n{table}");

    // The batched online cloud path agrees with the offline sweep bit for
    // bit, in every configuration (saturating sweep + paced profile).
    for (i, records) in result.served.iter().enumerate() {
        assert_eq!(records, &result.offline, "run {i}: served records diverged from the offline sweep");
    }

    // High-offload regime, and the dynamic batcher actually coalesces.
    let x1 = &result.rows[0];
    let x4 = result.rows.last().expect("sweep non-empty");
    assert!(x1.achieved_beta >= 0.6, "offload fraction too low: {}", x1.achieved_beta);
    assert!(x1.max_batch_seen >= 2, "saturating traffic should coalesce batches");

    // Cloud-worker scaling: 4 workers must beat 1 by >= 1.5x (the link
    // delay on each batch overlaps across workers like in-flight RPCs).
    let ratio = x4.throughput_hz / x1.throughput_hz;
    assert!(
        ratio >= 1.5,
        "1 -> 4 cloud workers scaled only {ratio:.2}x ({:.1} -> {:.1} req/s)",
        x1.throughput_hz,
        x4.throughput_hz
    );
    println!("1 -> {} cloud workers: {ratio:.2}x throughput", x4.cloud_workers);

    // Deterministic routing outcomes are invariants; wall-clock service
    // times gate as `_ms` latencies. Latency quantiles come from the
    // paced run, where they are sleep/service-dominated and stable —
    // under saturation they track the makespan and would gate on noise.
    rep.metric("achieved_beta", x1.achieved_beta);
    rep.metric("offloaded", (x1.achieved_beta * result.offline.len() as f64).round());
    rep.metric("total", result.offline.len() as f64);
    for r in &result.rows {
        rep.metric(&format!("service_x{}_ms", r.cloud_workers), r.service_ms);
    }
    rep.metric("paced_p50_ms", result.paced.p50_ms);
    rep.metric("paced_p95_ms", result.paced.p95_ms);
    rep.metric("paced_p99_ms", result.paced.p99_ms);
    rep.finish();
}
