//! Heterogeneous fleet serving through the `Fleet` API: three compute
//! tiers of one hardware profile get per-class planner cuts (gated as
//! exact invariants — the tiers MUST plan different cuts), and the same
//! trace rerun with difficulty-aware routing must skip exactly one
//! main-exit forward per predicted-hard request while still serving
//! everything. Wall-clock service times gate as `_ms` latencies.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[hetero_fleet] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("hetero_fleet");
    let result = serving::hetero_fleet(Scale::from_env());

    let mut table = Table::new(&["class", "scale factor", "planned cut", "served", "offloaded", "p95 (ms)"]);
    for t in &result.tiers {
        table.row(&[
            t.name.to_string(),
            format!("{:.1}", t.throughput_factor),
            t.planned_cut.to_string(),
            t.served.to_string(),
            t.offloaded.to_string(),
            format!("{:.2}", t.p95_ms),
        ]);
    }
    println!(
        "== Heterogeneous fleet: per-class planner cuts over a {:.2} Mbps link ==\n{table}",
        result.link_mbps
    );
    let mut runs = Table::new(&["routing", "total", "offloaded", "main-exit evals", "skipped", "service (ms)"]);
    for r in [&result.base, &result.routed] {
        runs.row(&[
            r.mode.to_string(),
            r.total.to_string(),
            r.offloaded.to_string(),
            r.main_exit_evals.to_string(),
            r.skipped_main_exits.to_string(),
            format!("{:.2}", r.service_ms),
        ]);
    }
    println!(
        "{runs}predictor bands on the trace: {} hard, {} easy (of {})",
        result.predicted_hard, result.predicted_easy, result.base.total
    );

    // The tentpole's acceptance bar: tier-scaled profiles must reach the
    // planner — High and Low plan different cuts by construction (the
    // link-rate search guarantees a separating rate exists).
    let cuts: Vec<usize> = result.tiers.iter().map(|t| t.planned_cut).collect();
    assert_ne!(cuts[0], cuts[2], "High and Low tiers must plan different cuts: {cuts:?}");

    // Round-robin over six devices: every class serves a third of the
    // trace, and the per-class breakdown partitions the totals exactly.
    let served: usize = result.tiers.iter().map(|t| t.served).sum();
    assert_eq!(served, result.base.total, "per-class served counts must partition the trace");
    let offloaded: usize = result.tiers.iter().map(|t| t.offloaded).sum();
    assert_eq!(offloaded, result.base.offloaded, "per-class offload counts must partition the offloads");
    assert!(result.tiers.iter().all(|t| t.served > 0), "every class serves traffic");

    // Difficulty-aware routing measurably reduces main-exit evaluations:
    // without a predictor nothing is skipped; with one, exactly the
    // predicted-hard requests pre-commit — and everything still serves.
    assert_eq!(result.base.skipped_main_exits, 0, "no predictor, no skips");
    assert!(result.predicted_hard > 0, "the calibrated predictor must band some requests hard");
    assert!(result.predicted_easy > 0, "the calibrated predictor must band some requests easy");
    assert_eq!(result.routed.skipped_main_exits, result.predicted_hard, "one skip per predicted-hard request");
    assert!(
        result.routed.main_exit_evals < result.base.main_exit_evals,
        "difficulty routing must reduce main-exit evaluations: {} vs {}",
        result.routed.main_exit_evals,
        result.base.main_exit_evals
    );
    assert_eq!(result.routed.total, result.base.total, "routing must not drop requests");

    // Deterministic outcomes gate as exact invariants; wall-clock service
    // times gate as `_ms` latencies with slack.
    rep.metric("total", result.base.total as f64);
    rep.metric("link_mbps", result.link_mbps);
    for t in &result.tiers {
        rep.metric(&format!("cut_{}", t.name), t.planned_cut as f64);
        rep.metric(&format!("served_{}", t.name), t.served as f64);
        rep.metric(&format!("offloaded_{}", t.name), t.offloaded as f64);
        rep.metric(&format!("p95_{}_ms", t.name), t.p95_ms);
    }
    rep.metric("base_offloaded", result.base.offloaded as f64);
    rep.metric("routed_offloaded", result.routed.offloaded as f64);
    rep.metric("predicted_hard", result.predicted_hard as f64);
    rep.metric("predicted_easy", result.predicted_easy as f64);
    rep.metric("skipped_main_exits", result.routed.skipped_main_exits as f64);
    rep.metric("service_base_ms", result.base.service_ms);
    rep.metric("service_routed_ms", result.routed.service_ms);
    rep.finish();
}
