//! Closed-loop cut planning under a silent link degradation: the same
//! deterministic single-pipeline trace served open-loop (the planner's
//! static contention model, which never hears about the degradation) and
//! closed-loop (per-batch measured-link telemetry feeding the planner),
//! gating the replan count, the final cuts and the converged link
//! estimate as exact invariants.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[planner_feedback] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("planner_feedback");
    let result = serving::planner_feedback(Scale::from_env());

    let mut table = Table::new(&["planner loop", "final cut", "replans", "bytes up", "service (ms)"]);
    for r in [&result.open, &result.closed] {
        table.row(&[
            r.mode.to_string(),
            r.final_cut.to_string(),
            r.cut_replans.to_string(),
            r.bytes_to_cloud.to_string(),
            format!("{:.2}", r.service_ms),
        ]);
    }
    println!("== Planner feedback: measured-link telemetry vs the static contention model ==\n{table}");
    println!(
        "link estimate after {} batches: {:.3} Mbps up (wire degraded to {:.1} Mbps mid-run)",
        result.estimate.samples, result.estimate.up_mbps, result.degraded_up_mbps
    );

    // The degradation is invisible to the static model: the open loop
    // must end the run on its nominal plan with zero replans.
    assert_eq!(result.open.cut_replans, 0, "the static model has nothing to replan from");

    // The closed loop must notice and move the cut toward the edge
    // (smaller upload): at least one replan, a strictly deeper cut.
    assert!(result.closed.cut_replans >= 1, "measured degradation never reached the planner");
    assert!(
        result.closed.final_cut > result.open.final_cut,
        "telemetry should push the cut edge-heavier: {} -> {}",
        result.open.final_cut,
        result.closed.final_cut
    );

    // The EWMA converged onto the degraded wire.
    let err = (result.estimate.up_mbps - result.degraded_up_mbps).abs() / result.degraded_up_mbps;
    assert!(err < 0.05, "estimate {:.3} Mbps should track the degraded wire", result.estimate.up_mbps);
    assert_eq!(result.estimate.samples as usize, result.offloaded, "one observation per served batch");

    // Replanning is a pure cost decision: both loops and the offline
    // sweep produce bitwise-identical records on the lossless wire.
    assert_eq!(result.closed.records, result.open.records, "feedback leaked into predictions");
    assert_eq!(result.closed.records, result.offline, "serving diverged from the offline sweep");

    // Deterministic loop outcomes gate as invariants; wall-clock service
    // times gate as `_ms` latencies.
    rep.metric("total", result.offline.len() as f64);
    rep.metric("offloaded", result.offloaded as f64);
    rep.metric("open_final_cut", result.open.final_cut as f64);
    rep.metric("open_replans", result.open.cut_replans as f64);
    rep.metric("closed_final_cut", result.closed.final_cut as f64);
    rep.metric("closed_replans", result.closed.cut_replans as f64);
    rep.metric("est_samples", result.estimate.samples as f64);
    rep.metric("est_up_mbps", result.estimate.up_mbps);
    rep.metric("service_open_ms", result.open.service_ms);
    rep.metric("service_closed_ms", result.closed.service_ms);
    rep.finish();
}
