//! The steps that serve through the threaded runtime. Each asserts its
//! claims and records its headline numbers: routing, wire and control
//! outcomes as exact invariants, wall-clock service times and quantiles
//! as `_ms` latencies, which `bench_regression` gates.

use mea_bench::experiments::serving;
use mea_bench::regression::BenchReport;
use mea_bench::Scale;
use mea_edgecloud::serve::FeatureWire;
use mea_edgecloud::PlacementPlan;
use mea_metrics::Table;

/// Serving-runtime scaling: throughput and latency quantiles of the
/// online multi-worker runtime under saturating high-offload traffic,
/// sweeping the cloud tier from 1 to 4 workers.
pub(crate) fn serving_throughput(scale: Scale, rep: &mut BenchReport) {
    let result = serving::serving_throughput(scale);

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
}

/// Feature-payload serving vs raw-image offloading: the same saturating
/// high-offload trace served three ways — raw 8-bit images (the paper's
/// baseline), f32 activations at the online-planned cut, and int8
/// activations at the deepest cut — comparing bytes on the wire, cloud
/// recompute, and service time.
pub(crate) fn feature_payload(scale: Scale, rep: &mut BenchReport) {
    let result = serving::feature_payload(scale);

    let mut table = Table::new(&[
        "payload mode",
        "cut",
        "bytes up",
        "bytes down",
        "cloud MMACs",
        "saved MMACs",
        "service (ms)",
    ]);
    for r in [&result.image_raw, &result.feature_f32, &result.feature_int8] {
        table.row(&[
            r.mode.to_string(),
            r.cut.map_or("-".into(), |c| c.to_string()),
            r.bytes_to_cloud.to_string(),
            r.bytes_from_cloud.to_string(),
            format!("{:.2}", r.cloud_macs as f64 / 1e6),
            format!("{:.2}", r.cloud_macs_saved as f64 / 1e6),
            format!("{:.2}", r.service_ms),
        ]);
    }
    println!("== Feature-payload serving: wire bytes and cloud recompute ==\n{table}");

    // The lossless feature path is the same system as the offline sweep,
    // whatever cut the planner picked.
    assert_eq!(
        result.feature_f32.records, result.offline,
        "f32 feature-payload serving diverged from the offline sweep"
    );
    assert!(result.offloaded > 0, "nothing offloaded; the comparison is vacuous");

    // Cloud recompute: every offload resumed at the cut spares the cloud
    // the prefix, so feature modes must execute strictly fewer MACs.
    let full = result.offloaded as u64 * result.cloud_total_macs;
    assert_eq!(result.image_raw.cloud_macs, full, "image mode must recompute the full forward per offload");
    assert_eq!(result.image_raw.cloud_macs_saved, 0);
    for r in [&result.feature_f32, &result.feature_int8] {
        assert!(r.cut.unwrap_or(0) > 0, "{}: expected a non-trivial cut", r.mode);
        assert!(r.cloud_macs < full, "{}: no cloud recompute saved", r.mode);
        assert_eq!(r.cloud_macs + r.cloud_macs_saved, full, "{}: MAC split must cover the forward", r.mode);
    }

    // Bytes on the wire: int8 activations at a deep cut undercut even the
    // raw-image upload; f32 activations do not (the paper's objection).
    assert!(
        result.feature_int8.bytes_to_cloud < result.image_raw.bytes_to_cloud,
        "int8 deep cut should beat the raw upload: {} vs {}",
        result.feature_int8.bytes_to_cloud,
        result.image_raw.bytes_to_cloud
    );

    // The int8 wire is lossy; it must still serve everything and mostly
    // agree with the lossless records.
    let n = result.offline.len();
    let agree = result
        .feature_int8
        .records
        .iter()
        .zip(&result.offline)
        .filter(|(a, b)| a.prediction == b.prediction)
        .count();
    assert!(agree * 4 >= n * 3, "int8 wire flipped too many predictions: {agree}/{n}");

    // Deterministic routing/wire/compute outcomes gate as invariants;
    // wall-clock service times gate as `_ms` latencies.
    rep.metric("total", n as f64);
    rep.metric("offloaded", result.offloaded as f64);
    rep.metric("planned_cut", result.feature_f32.cut.unwrap() as f64);
    rep.metric("deep_cut", result.feature_int8.cut.unwrap() as f64);
    rep.metric("image_bytes", result.image_raw.bytes_to_cloud as f64);
    rep.metric("feat_f32_bytes", result.feature_f32.bytes_to_cloud as f64);
    rep.metric("feat_int8_bytes", result.feature_int8.bytes_to_cloud as f64);
    rep.metric("response_bytes", result.image_raw.bytes_from_cloud as f64);
    rep.metric("cloud_macs_image", result.image_raw.cloud_macs as f64);
    rep.metric("cloud_macs_feat_f32", result.feature_f32.cloud_macs as f64);
    rep.metric("cloud_macs_saved_feat_f32", result.feature_f32.cloud_macs_saved as f64);
    rep.metric("cloud_macs_feat_int8", result.feature_int8.cloud_macs as f64);
    rep.metric("int8_agree", agree as f64);
    rep.metric("service_image_ms", result.image_raw.service_ms);
    rep.metric("service_feat_f32_ms", result.feature_f32.service_ms);
    rep.metric("service_feat_int8_ms", result.feature_int8.service_ms);
}

/// Closed-loop cut planning under a silent link degradation: the same
/// deterministic single-pipeline trace served open-loop (the planner's
/// static contention model, which never hears about the degradation) and
/// closed-loop (per-batch measured-link telemetry feeding the planner),
/// gating the replan count, the final cuts and the converged link
/// estimate as exact invariants.
pub(crate) fn planner_feedback(scale: Scale, rep: &mut BenchReport) {
    let result = serving::planner_feedback(scale);

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
}

/// Real-wire transport parity and measured closed-loop replanning: the
/// same traces cross the deterministic modelled wire and a real Unix
/// socket. Routing outcomes (records, bytes, cuts) gate as
/// exact invariants — the transport may only change where the time comes
/// from — while wall-clock service times gate as banded `_ms` latencies.
/// The closed loop's link estimates come from `Instant::now()` deltas, so
/// they must vary run-to-run (within a band around the throttled rate)
/// and move the planned cut without the static model being told.
pub(crate) fn real_transport(scale: Scale, rep: &mut BenchReport) {
    let result = serving::real_transport(scale);

    let mut table =
        Table::new(&["payload plan", "records", "bytes up", "bytes down", "cut", "modelled (ms)", "uds (ms)"]);
    for r in &result.parity {
        table.row(&[
            r.plan.to_string(),
            if r.records_match { "identical".to_string() } else { "DIVERGED".to_string() },
            r.bytes_to_cloud.to_string(),
            r.bytes_from_cloud.to_string(),
            r.cut.map_or("-".to_string(), |c| c.to_string()),
            format!("{:.2}", r.service_modelled_ms),
            format!("{:.2}", r.service_uds_ms),
        ]);
    }
    println!("== Real transport: modelled wire vs Unix socket ==\n{table}");
    let [a, b] = &result.closed;
    println!(
        "throttled socket closed loop: cut {} -> {} / {} (open loop held {}), estimates {:.3} / {:.3} Mbps \
         over {} batches (pacer throttled to {:.1} Mbps mid-run)",
        result.open_cut,
        a.final_cut,
        b.final_cut,
        result.open_cut,
        a.estimate.up_mbps,
        b.estimate.up_mbps,
        a.estimate.samples,
        result.throttled_up_mbps
    );

    // Record identity: the socket may never change a routing outcome, on
    // any payload plan or cut.
    for r in &result.parity {
        assert!(r.records_match, "{}: socket records diverged from the modelled wire", r.plan);
    }

    // The open loop over the throttled socket keeps the static model's
    // nominal plan; the measured closed loop must notice the real
    // throttle and move the cut edge-heavier — in both repeat runs.
    for r in &result.closed {
        assert!(r.cut_replans >= 1, "the real throttle never reached the planner");
        assert!(
            r.final_cut > result.open_cut,
            "measured telemetry should push the cut edge-heavier: {} -> {}",
            result.open_cut,
            r.final_cut
        );
    }
    assert_eq!(a.final_cut, b.final_cut, "repeat runs should converge on the same cut");

    // The estimates are genuine clock measurements: both track the
    // throttled pacer within a generous band, and (unlike the modelled
    // path, which is bit-deterministic) two runs never agree bitwise.
    for r in &result.closed {
        let ratio = r.estimate.up_mbps / result.throttled_up_mbps;
        assert!(
            ratio > 0.25 && ratio < 4.0,
            "estimate {:.3} Mbps should track the {:.1} Mbps throttle",
            r.estimate.up_mbps,
            result.throttled_up_mbps
        );
    }
    assert_ne!(
        a.estimate.up_mbps.to_bits(),
        b.estimate.up_mbps.to_bits(),
        "real wall-clock estimates cannot repeat bitwise"
    );
    assert_eq!(a.records, b.records, "measurement noise leaked into predictions");

    // Deterministic routing outcomes gate as exact invariants; wall-clock
    // service times gate as banded `_ms` latencies. The estimates
    // themselves are non-deterministic by design, so they are printed and
    // asserted in-band above but not gated.
    rep.metric("total", result.total as f64);
    rep.metric("offloaded", result.offloaded as f64);
    rep.metric("plans_matched", result.parity.iter().filter(|r| r.records_match).count() as f64);
    rep.metric("open_final_cut", result.open_cut as f64);
    rep.metric("closed_cut_moved", f64::from(a.final_cut > result.open_cut));
    rep.metric("est_samples", a.estimate.samples as f64);
    const SLUGS: [&str; 5] = ["image_f32", "image_q8", "feat_f32_mid", "feat_int8_deep", "feat_f32_planned"];
    assert_eq!(result.parity.len(), SLUGS.len(), "one slug per payload plan");
    for (slug, r) in SLUGS.iter().zip(&result.parity) {
        rep.metric(&format!("service_{slug}_modelled_ms"), r.service_modelled_ms);
        rep.metric(&format!("service_{slug}_uds_ms"), r.service_uds_ms);
    }
    rep.metric("closed_service_ms", (a.service_ms + b.service_ms) / 2.0);
}

/// Heterogeneous fleet serving through the `Fleet` API: three compute
/// tiers of one hardware profile get per-class planner cuts (gated as
/// exact invariants — the tiers MUST plan different cuts), and the same
/// trace rerun with difficulty-aware routing must skip exactly one
/// main-exit forward per predicted-hard request while still serving
/// everything. Wall-clock service times gate as `_ms` latencies.
pub(crate) fn hetero_fleet(scale: Scale, rep: &mut BenchReport) {
    let result = serving::hetero_fleet(scale);

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
}

/// Saturation load harness for the scale-out serving substrate: a
/// heavy-tailed trace from a large device population that all rides one
/// edge worker, served by six cloud workers sharing the run's one lane vs
/// one cloud worker (identical requests), plus the Unix socket transport
/// and a diurnal-modulated trace.
pub(crate) fn load_harness(scale: Scale, rep: &mut BenchReport) {
    let result = serving::load_harness(scale);

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
}

/// Stable numeric code for a wire format (gated as an invariant).
fn wire_code(wire: FeatureWire) -> f64 {
    match wire {
        FeatureWire::F32 => 0.0,
        FeatureWire::Int8 => 1.0,
        FeatureWire::PerChannelInt8 => 2.0,
    }
}

/// The SLA governor against a mid-run link collapse: the same
/// deterministic single-pipeline trace served open-loop (static model,
/// f32), closed-loop (measured feedback moves the cut, wire pinned to
/// f32) and governed (the full (β, cut, wire) escalation ladder). Only
/// the governed run gets its steady-state p95 back under the budget; a
/// fourth run against an unreachable budget walks the ladder to its top
/// deterministically, and two fixed-cut runs price the int8 wires
/// against each other byte-for-byte. Decision counts and the final
/// (β, cut, wire) operating points gate as exact invariants; wall-clock
/// latencies gate as banded `_ms` metrics.
///
/// The three comparison runs retry under host noise (best-of-three,
/// early exit on a quiet host — see `serving::sla_governor`), so the
/// checked-in baseline's `wall_ms` is seeded from the all-retries worst
/// case; typical runs finish ~3× faster and pass as improvements.
pub(crate) fn sla_governor(scale: Scale, rep: &mut BenchReport) {
    let result = serving::sla_governor(scale);

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
}

/// Cooperative edge splitting through the `Fleet` API: the same Low-tier
/// device class served solo (two-stage edge→cloud plans only) and pooled
/// into a 3-member cooperative group, where pooled peer throughput lets
/// the planner insert a peer stage, push the final cut deeper and shrink
/// the WAN upload. The planned placement shape, peer-hop count and
/// bytes-per-hop gate as exact invariants; both runs must produce
/// bitwise-identical records (f32 wire), and the cooperative run must
/// beat the solo run on wall-clock service time (`_ms`, banded).
pub(crate) fn coop_edge(scale: Scale, rep: &mut BenchReport) {
    let result = serving::coop_edge(scale);

    let mut table = Table::new(&[
        "mode",
        "total",
        "offloaded",
        "final cut",
        "stages",
        "peer hops",
        "peer bytes",
        "bytes to cloud",
        "service (ms)",
    ]);
    for r in [&result.solo, &result.coop] {
        table.row(&[
            r.mode.to_string(),
            r.total.to_string(),
            r.offloaded.to_string(),
            r.final_cut.to_string(),
            r.stages.to_string(),
            r.peer_hops.to_string(),
            r.peer_bytes.to_string(),
            r.bytes_to_cloud.to_string(),
            format!("{:.2}", r.service_ms),
        ]);
    }
    println!(
        "== Cooperative edge splitting: {} peers over a {:.1} Mbps local wire, {:.2} Mbps WAN ==\n{table}",
        result.members, result.peer_mbps, result.link_mbps
    );
    println!(
        "planned upload per offload: solo {} B, pooled {} B (+{} B over the peer wire)",
        result.planned_upload_solo, result.planned_upload_coop, result.planned_peer_bytes
    );

    // The tentpole's acceptance bar: the pooled class must plan a
    // genuinely multi-stage placement while the solo class stays on the
    // legacy two-stage shape — and the peer stage must shrink the WAN
    // upload (the link-rate search guarantees such a rate exists).
    assert_eq!(result.solo.stages, 2, "the solo class must plan a two-stage placement");
    assert!(result.coop.stages > 2, "the pooled class must plan a multi-stage placement");
    assert!(
        result.coop.final_cut > result.solo.final_cut,
        "pooled peer throughput must push the final cut deeper: {} vs {}",
        result.coop.final_cut,
        result.solo.final_cut
    );
    assert!(
        result.planned_upload_coop < result.planned_upload_solo,
        "the peer stage must shrink the planned WAN upload: {} vs {} bytes",
        result.planned_upload_coop,
        result.planned_upload_solo
    );

    // Peer-wire accounting: solo runs never touch the peer wire; the
    // cooperative run takes exactly one hop per offload, every hop ships
    // the same activation frame, and the per-hop size matches the plan.
    assert_eq!(result.solo.peer_hops, 0, "solo serving must not take peer hops");
    assert_eq!(result.solo.peer_bytes, 0, "solo serving must not ship peer bytes");
    assert_eq!(
        result.coop.peer_hops, result.coop.offloaded as u64,
        "every cooperative offload crosses the peer wire exactly once"
    );
    assert!(result.coop.offloaded > 0, "the trace must offload");
    assert_eq!(
        result.coop.peer_bytes % result.coop.peer_hops,
        0,
        "fixed activation shape: peer bytes divide evenly across hops"
    );
    let bytes_per_hop = result.coop.peer_bytes / result.coop.peer_hops;

    // Both runs route the same requests to the cloud and, over the f32
    // wire, reconstruct activations losslessly — records are bitwise
    // identical even though the cuts (and therefore the bytes) differ.
    assert_eq!(result.coop.total, result.solo.total, "both runs serve the whole trace");
    assert_eq!(result.coop.offloaded, result.solo.offloaded, "the offload set is cut-independent");
    assert!(result.records_match, "f32 wire: records must be bitwise identical across placements");
    assert!(
        result.coop.bytes_to_cloud < result.solo.bytes_to_cloud,
        "the deeper cut must shrink the measured WAN traffic: {} vs {} bytes",
        result.coop.bytes_to_cloud,
        result.solo.bytes_to_cloud
    );

    // The headline: cooperative splitting beats solo serving on
    // wall-clock service time at the searched WAN rate.
    assert!(
        result.coop.service_ms < result.solo.service_ms,
        "cooperative splitting must beat solo serving: {:.2} ms vs {:.2} ms",
        result.coop.service_ms,
        result.solo.service_ms
    );

    // Deterministic outcomes gate as exact invariants; wall-clock service
    // times gate as `_ms` latencies with slack.
    rep.metric("total", result.solo.total as f64);
    rep.metric("offloaded", result.solo.offloaded as f64);
    rep.metric("link_mbps", result.link_mbps);
    rep.metric("members", result.members as f64);
    rep.metric("solo_final_cut", result.solo.final_cut as f64);
    rep.metric("coop_final_cut", result.coop.final_cut as f64);
    rep.metric("coop_stages", result.coop.stages as f64);
    rep.metric("peer_hops", result.coop.peer_hops as f64);
    rep.metric("peer_bytes_per_hop", bytes_per_hop as f64);
    rep.metric("solo_bytes_to_cloud", result.solo.bytes_to_cloud as f64);
    rep.metric("coop_bytes_to_cloud", result.coop.bytes_to_cloud as f64);
    rep.metric("planned_upload_solo", result.planned_upload_solo as f64);
    rep.metric("planned_upload_coop", result.planned_upload_coop as f64);
    rep.metric("solo_service_ms", result.solo.service_ms);
    rep.metric("coop_service_ms", result.coop.service_ms);
}
