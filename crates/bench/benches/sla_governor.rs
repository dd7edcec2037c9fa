//! The SLA governor against a mid-run link collapse: the same
//! deterministic single-pipeline trace served open-loop (static model,
//! f32), closed-loop (measured feedback moves the cut, wire pinned to
//! f32) and governed (the full (β, cut, wire) escalation ladder). Only
//! the governed run gets its steady-state p95 back under the budget; a
//! fourth run against an unreachable budget walks the ladder to its top
//! deterministically, and two fixed-cut runs price the int8 wires
//! against each other byte-for-byte. Decision counts and the final
//! (β, cut, wire) operating points gate as exact invariants; wall-clock
//! latencies gate as banded `_ms` metrics.
//!
//! The three comparison runs retry under host noise (best-of-three,
//! early exit on a quiet host — see `serving::sla_governor`), so the
//! checked-in baseline's `wall_ms` is seeded from the all-retries worst
//! case; typical runs finish ~3× faster and pass as improvements.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_edgecloud::serve::FeatureWire;
use mea_edgecloud::PlacementPlan;
use mea_metrics::Table;

/// Stable numeric code for a wire format (gated as an invariant).
fn wire_code(wire: FeatureWire) -> f64 {
    match wire {
        FeatureWire::F32 => 0.0,
        FeatureWire::Int8 => 1.0,
        FeatureWire::PerChannelInt8 => 2.0,
    }
}

fn main() {
    println!("[sla_governor] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("sla_governor");
    let result = serving::sla_governor(Scale::from_env());

    let mut table = Table::new(&[
        "control plan",
        "steady p95 (ms)",
        "final cut",
        "final wire",
        "violations",
        "decisions",
        "bytes up",
        "service (ms)",
    ]);
    for r in [&result.open, &result.closed, &result.governed, &result.harsh] {
        table.row(&[
            r.mode.to_string(),
            format!("{:.2}", r.steady_p95_ms),
            r.final_cut.to_string(),
            format!("{:?}", r.final_wire),
            r.sla_violations.to_string(),
            r.governor_decisions.to_string(),
            r.bytes_to_cloud.to_string(),
            format!("{:.2}", r.service_ms),
        ]);
    }
    println!("== SLA governor: joint (β, cut, wire) control under a link collapse ==\n{table}");
    println!("p95 budget {:.1} ms; governed trajectory: {:?}", result.budget_ms, result.governed_trajectory);
    println!("unreachable-SLA trajectory: {:?}", result.harsh_trajectory);
    println!(
        "int8 wires at the deep cut {}: per-tensor {} B vs per-channel {} B over {} offloads",
        result.deep_cut, result.bytes_per_tensor, result.bytes_per_channel, result.offloaded
    );

    // Neither ungoverned loop holds the budget once the wire collapses:
    // the static model never hears about it, and the closed loop can
    // shrink the upload only as far as lossless f32 allows.
    assert!(
        result.open.steady_p95_ms > result.budget_ms,
        "open loop held the SLA ({:.2} ms <= {:.2} ms): the degradation is not binding",
        result.open.steady_p95_ms,
        result.budget_ms
    );
    assert!(
        result.closed.steady_p95_ms > result.budget_ms,
        "closed loop held the SLA ({:.2} ms <= {:.2} ms) on the f32 wire alone",
        result.closed.steady_p95_ms,
        result.budget_ms
    );
    assert!(
        result.governed.steady_p95_ms <= result.budget_ms,
        "governed run violated the SLA at steady state: {:.2} ms > {:.2} ms",
        result.governed.steady_p95_ms,
        result.budget_ms
    );
    assert!(
        result.predicted_accuracy >= result.accuracy_floor,
        "governed operating point dipped under the accuracy floor: {:.3} < {:.3}",
        result.predicted_accuracy,
        result.accuracy_floor
    );

    // Only the governor moves: the ungoverned runs report no decisions
    // and no violations (nobody is counting them).
    assert_eq!(result.open.cut_replans, 0, "the static model has nothing to replan from");
    assert_eq!(result.open.governor_decisions + result.closed.governor_decisions, 0);
    assert_eq!(result.open.sla_violations + result.closed.sla_violations, 0);
    // The governed run's cut move and Int8 escalation are driven by
    // clearly-violating f32 windows, so they are deterministic. The exact
    // ladder length is not: an 8-sample window's p95 is its maximum, so a
    // single scheduler spike — or a straggling f32 completion landing in
    // the first post-switch window — adds a violation (and possibly an
    // inert β rung) without changing the operating point that matters.
    // Counts are asserted as lower bounds here and gated exactly only on
    // the harsh run below, where every window violates regardless.
    assert!(
        result.governed.sla_violations >= 2,
        "expected at least the two f32 windows to violate, saw {}",
        result.governed.sla_violations
    );
    assert!(
        result.governed.governor_decisions >= 2,
        "expected at least the cut move and the int8 rung, saw {}",
        result.governed.governor_decisions
    );
    assert_eq!(result.governed_trajectory[0].after_batches, 0, "trajectory must start at the initial point");
    let nominal: Vec<usize> =
        result.governed_trajectory[0].placements.iter().map(PlacementPlan::final_cut).collect();
    assert_eq!(nominal, vec![0], "nominal plan should ship pixels");
    assert_ne!(result.governed.final_wire, FeatureWire::F32, "holding the budget requires a cheaper wire");

    // The unreachable budget walks the full ladder: per-channel int8 at
    // a deep (sub-image-size) cut, β stepped down until the Table-III
    // accuracy floor pins it.
    assert_eq!(result.harsh.final_wire, FeatureWire::PerChannelInt8, "ladder must top out per-channel");
    assert!(result.deep_cut > 0, "the ladder should land on a feature cut, not raw pixels");
    let harsh_beta = result.harsh_trajectory.last().and_then(|p| p.beta_target);
    assert_eq!(
        harsh_beta,
        Some(result.harsh_beta_floor),
        "β target must pin at the accuracy floor's minimum offload fraction"
    );
    assert!(result.harsh.sla_violations > result.harsh.governor_decisions, "ladder saturated before the end");

    // The per-channel grid wire undercuts per-tensor int8 at the same
    // cut by exactly its per-frame overhead: 12 bytes of embedded params
    // plus the squeezed batch-axis dim.
    assert_eq!(
        result.bytes_per_tensor - result.bytes_per_channel,
        16 * result.offloaded as u64,
        "grid-indexed frames must save exactly 16 bytes per offload"
    );

    // Deterministic control outcomes gate as invariants; wall-clock
    // latencies gate as banded `_ms` metrics.
    rep.metric("total", result.offloaded as f64);
    rep.metric("open_final_cut", result.open.final_cut as f64);
    rep.metric("closed_final_cut", result.closed.final_cut as f64);
    rep.metric("closed_replans", result.closed.cut_replans as f64);
    rep.metric("governed_final_cut", result.governed.final_cut as f64);
    rep.metric("harsh_final_cut", result.harsh.final_cut as f64);
    rep.metric("harsh_final_wire", wire_code(result.harsh.final_wire));
    rep.metric("harsh_violations", result.harsh.sla_violations as f64);
    rep.metric("harsh_decisions", result.harsh.governor_decisions as f64);
    rep.metric("harsh_beta_target", harsh_beta.expect("ladder reached the beta rung"));
    rep.metric("bytes_per_tensor", result.bytes_per_tensor as f64);
    rep.metric("bytes_per_channel", result.bytes_per_channel as f64);
    rep.metric("open_steady_p95_ms", result.open.steady_p95_ms);
    rep.metric("closed_steady_p95_ms", result.closed.steady_p95_ms);
    rep.metric("governed_steady_p95_ms", result.governed.steady_p95_ms);
    rep.metric("service_governed_ms", result.governed.service_ms);
    rep.finish();
}
