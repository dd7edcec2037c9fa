//! Regenerates every table and figure of the paper, prints them in order
//! and asserts the claims each one makes (who wins, which way a trend
//! goes), then runs the kernel and serving experiments the same way.
//! `MEA_SCALE=repro cargo run --release -p mea-bench --bin repro` is the
//! documented reproduction entry point; the default smoke scale finishes
//! in a few minutes on a small machine.
//!
//! `repro` runs every step of [`STEPS`]; `repro NAME…` runs only the named
//! steps, and an unknown name exits non-zero with the list of steps.
//!
//! A step may record headline metrics into its [`BenchReport`]. With
//! `MEA_BENCH_JSON=<dir>` set, every step that recorded one writes
//! `BENCH_<step>.json` there, holding those metrics and the step's wall
//! time, for the `bench_regression` gate; without it `repro` writes no
//! file.

// The crate root's own directory holds one file per binary, so the
// step modules live under `repro/`.
#[path = "repro/kernels.rs"]
mod kernels;
#[path = "repro/runtime.rs"]
mod runtime;

use mea_bench::experiments::{ablations, extensions, figures, tables};
use mea_bench::regression::BenchReport;
use mea_bench::Scale;
use mea_edgecloud::cost::Strategy;
use mea_edgecloud::Objective;
use meanet::model::AdaptivePlan;
use std::time::Instant;

/// A step's name, which `repro NAME` selects, and the function that runs
/// its experiment once, prints it, asserts its claims and records its
/// headline metrics.
type Step = (&'static str, fn(Scale, &mut BenchReport));

/// The steps in run order.
const STEPS: &[Step] = &[
    ("fig2_confusion", fig2_confusion),
    ("fig3_complexity", fig3_complexity),
    ("fig5_error_types", fig5_error_types),
    ("fig6_memory", fig6_memory),
    ("fig7_threshold_sweep", fig7_threshold_sweep),
    ("fig8_energy", fig8_energy),
    ("table1_cost_model", table1_cost_model),
    ("table2_hard_classes", table2_hard_classes),
    ("table3_all_classes", table3_all_classes),
    ("table45_class_selection", table45_class_selection),
    ("table6_flops", table6_flops),
    ("table7_per_image", table7_per_image),
    ("ablation_merge", ablation_merge),
    ("ablation_blockwise", ablation_blockwise),
    ("ablation_payload", ablation_payload),
    ("ablation_quant", ablation_quant),
    ("ablation_partition", ablation_partition),
    ("ablation_radio", ablation_radio),
    ("ablation_policies", ablation_policies),
    ("fleet_scaling", fleet_scaling),
    ("ablation_continual", ablation_continual),
    ("ablation_detector", ablation_detector),
    ("ablation_training_methods", ablation_training_methods),
    ("kernel_latency", kernels::kernel_latency),
    ("serving_throughput", runtime::serving_throughput),
    ("feature_payload", runtime::feature_payload),
    ("planner_feedback", runtime::planner_feedback),
    ("real_transport", runtime::real_transport),
    ("hetero_fleet", runtime::hetero_fleet),
    ("load_harness", runtime::load_harness),
    ("sla_governor", runtime::sla_governor),
    ("coop_edge", runtime::coop_edge),
];

fn main() {
    let scale = Scale::from_env();
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| !STEPS.iter().any(|(step, _)| step == n)) {
        eprintln!("repro: unknown step `{unknown}`; the steps are:");
        for (step, _) in STEPS {
            eprintln!("  {step}");
        }
        std::process::exit(2);
    }
    let json_dir = std::env::var("MEA_BENCH_JSON").ok().filter(|dir| !dir.is_empty());
    let t0 = Instant::now();
    // Pinned to one CPU before the first step, only so that timings
    // repeat: across the two vCPUs of the reference host the same kernel
    // spreads by 1.5× between runs minutes apart, which no 20 % gate
    // survives. Every thread a step spawns inherits the mask.
    println!("MEANet reproduction — scale {scale:?}, {}\n", mea_bench::pin::pin_for_timing());
    for (step, run) in STEPS {
        if names.is_empty() || names.iter().any(|n| n == step) {
            let mut rep = BenchReport::new(step);
            let started = Instant::now();
            run(scale, &mut rep);
            rep.wall_ms = started.elapsed().as_secs_f64() * 1e3;
            println!("[{step}] {:.1}s\n", rep.wall_ms / 1e3);
            if let Some(dir) = json_dir.as_deref().filter(|_| !rep.metrics.is_empty()) {
                println!("[bench-json] wrote {}", rep.write_into(dir));
            }
        }
    }
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

/// Fig. 2: per-class precision is visibly non-uniform (class-wise
/// complexity).
fn fig2_confusion(scale: Scale, _: &mut BenchReport) {
    let (rendered, confusion) = figures::fig2_confusion(scale);
    println!("== Fig. 2: confusion matrix (CIFAR-10-like) ==\n{rendered}");
    let prec = confusion.per_class_precision();
    let min = prec.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = prec.iter().cloned().fold(0.0, f64::max);
    println!("precision spread: min {min:.2} max {max:.2}");
    assert!(max - min > 0.08, "per-class precision unexpectedly uniform");
}

/// Fig. 3: wrong predictions carry higher entropy than correct ones.
fn fig3_complexity(scale: Scale, _: &mut BenchReport) {
    let (table, fdrs, stats) = figures::fig3_complexity(scale);
    println!("== Fig. 3: class-wise FDR / hard set ==\n{table}");
    println!("instance-wise entropy: mu_correct {:.3}, mu_wrong {:.3}\n", stats.mean_correct, stats.mean_wrong);
    assert!(stats.mean_wrong > stats.mean_correct, "entropy should separate correct/wrong");
    let mean_fdr = fdrs.iter().sum::<f64>() / fdrs.len() as f64;
    println!("mean FDR {mean_fdr:.3}");
}

/// Fig. 5: type IV (hard-as-hard) is the largest share of the errors —
/// the error mass the extension block attacks.
fn fig5_error_types(scale: Scale, _: &mut BenchReport) {
    let (table, results) = figures::fig5_error_types(scale);
    println!("== Fig. 5: error-type proportions (%) ==\n{table}");
    for (label, b) in &results {
        let (_, _, _, p4) = b.proportions();
        println!("{label}: type IV share {:.1}%", 100.0 * p4);
        assert!(p4 > 0.25, "{label}: hard-as-hard should dominate errors (got {p4:.2})");
    }
}

/// Fig. 6: blockwise training needs less memory than joint optimisation
/// (the paper reports ~60% savings for ResNets, ~30% for MobileNets).
fn fig6_memory(_: Scale, _: &mut BenchReport) {
    let (table, rows) = figures::fig6_memory();
    println!("== Fig. 6: training memory at batch 128 (paper scale) ==\n{table}");
    for r in &rows {
        assert!(
            r.ours_mib < r.joint_mib,
            "{}: blockwise must use less memory ({} vs {})",
            r.label,
            r.ours_mib,
            r.joint_mib
        );
    }
    let saving = |r: &figures::MemoryRow| 1.0 - r.ours_mib / r.joint_mib;
    let resnet_b = rows.iter().find(|r| r.label.contains("ResNet32 B")).expect("row");
    let mobilenet = rows.iter().find(|r| r.label.contains("MobileNet")).expect("row");
    println!(
        "savings: ResNet32B {:.0}% vs MobileNetV2 {:.0}%",
        100.0 * saving(resnet_b),
        100.0 * saving(mobilenet)
    );
}

/// Figs. 7 and 8 on the CIFAR-like side: a lower threshold offloads more
/// and gains accuracy, approaching cloud-only.
fn fig7_threshold_sweep(scale: Scale, _: &mut BenchReport) {
    let result = figures::fig78_cifar(scale);
    println!("== Fig. 7 ({}) ==\n{}", result.label, figures::render_fig7(&result));
    println!("== Fig. 8 ({}) ==\n{}", result.label, figures::render_fig8(&result));
    for w in result.points.windows(2) {
        assert!(w[1].cloud_fraction <= w[0].cloud_fraction + 1e-9, "cloud fraction must fall with threshold");
    }
    let best = result.points.iter().map(|p| p.accuracy).fold(0.0, f64::max);
    assert!(best + 1e-9 >= result.edge_only_accuracy, "some threshold should match/beat edge-only");
}

/// Figs. 7 and 8 on the ImageNet-like side: every partial offload costs
/// less communication energy than cloud-only, and edge-only costs none.
fn fig8_energy(scale: Scale, _: &mut BenchReport) {
    let result = figures::fig78_imagenet(scale);
    println!("== Fig. 7 ({}) ==\n{}", result.label, figures::render_fig7(&result));
    println!("== Fig. 8 ({}) ==\n{}", result.label, figures::render_fig8(&result));
    for (thr, e) in &result.energy {
        assert!(
            e.communication_j <= result.energy_cloud_only.communication_j + 1e-9,
            "thr {thr}: communication exceeds cloud-only"
        );
    }
    assert_eq!(result.energy_edge_only.communication_j, 0.0);
}

/// Table I: the closed-form cost model for the four deployment
/// strategies, instantiated with the paper's Table VII unit costs, and its
/// communication column measured end to end.
fn table1_cost_model(_: Scale, rep: &mut BenchReport) {
    let (table, totals) = tables::table1_cost_model();
    println!("== Table I: cost estimation (10k CIFAR images, beta=0.15, q=0.5) ==\n{table}");
    let get = |s: Strategy| totals.iter().find(|(x, _)| *x == s).expect("strategy present").1;
    // Shape: with beta = 0.15, edge-cloud(raw) must be cheaper at the edge
    // than cloud-only communication of everything.
    assert!(get(Strategy::EdgeCloudRaw) < get(Strategy::CloudOnly));
    for (strategy, total) in &totals {
        rep.metric(&format!("{strategy:?}_edge_total_j").to_lowercase(), *total);
    }

    // The "sending features" row, measured end-to-end by the offline
    // sweep (`run_inference_with_payload`) instead of assumed: the paper
    // models f32 features as input-sized (4x the raw bytes); a planned
    // cut ships the actual activation, and the int8 wire undercuts even
    // the raw image.
    let (mtable, m) = tables::table1_measured_features();
    println!("== Table I, communication column: modelled vs measured ==\n{mtable}");
    assert!(m.offloaded > 0, "beta quantile offloaded nothing; the measured row is vacuous");
    assert!(m.cut > 0, "the planner should pick a non-trivial cut under a congested uplink");
    assert!(m.records_identical, "the lossless feature sweep must reproduce the pixel sweep's records");
    // Measured raw == modelled raw: the pixel payload is exactly the
    // paper's 1 byte per sample.
    assert_eq!(m.raw_measured, m.raw_modelled as f64);
    // The planned cut ships a smaller activation than the input-sized f32
    // map the model assumes, and int8 beats even the raw upload.
    assert!(m.f32_measured < m.f32_modelled as f64, "planned cut should undercut the modelled features row");
    assert!(m.int8_measured < m.raw_measured, "int8 features at the planned cut should beat raw pixels");
    rep.metric("measured_offloaded", m.offloaded as f64);
    rep.metric("measured_cut", m.cut as f64);
    rep.metric("measured_raw_bytes_per_offload", m.raw_measured);
    rep.metric("measured_f32_bytes_per_offload", m.f32_measured);
    rep.metric("measured_int8_bytes_per_offload", m.int8_measured);
    rep.metric("modelled_f32_bytes_per_offload", m.f32_modelled as f64);
}

/// Table II: MEANet lifts hard-class accuracy over the main block.
fn table2_hard_classes(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = tables::table2_hard_classes(scale);
    println!("== Table II: hard-class accuracy (%) ==\n{table}");
    let mut wins = 0;
    let mut losses = 0;
    for r in &rows {
        assert!(
            r.train_meanet + 1e-9 >= r.train_main,
            "{}: MEANet should not lose on hard-class training data",
            r.label
        );
        if r.test_meanet > r.test_main {
            wins += 1;
        } else if r.test_meanet < r.test_main {
            losses += 1;
        }
    }
    if scale == Scale::Smoke {
        // At smoke scale the hard test sets are tens of instances and a
        // well-trained main exit often exactly ties MEANet, so the check
        // is directional: at least one strict improvement and no net
        // regression across rows.
        assert!(wins >= 1, "MEANet should improve hard-class test accuracy somewhere");
        assert!(wins >= losses, "MEANet regressed more rows ({losses}) than it improved ({wins})");
    } else {
        // At repro scale we ask for the majority of rows to improve on
        // test (the paper improves on all four at CIFAR/ImageNet scale).
        assert!(wins >= rows.len() / 2, "MEANet should improve hard-class test accuracy on most rows");
    }
}

/// Table III: easy/hard detection beats chance solidly, and MEANet does
/// not regress the all-class accuracy materially.
fn table3_all_classes(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = tables::table3_all_classes(scale);
    println!("== Table III: all-class accuracy (%) ==\n{table}");
    // The paper's detection accuracy is 83–91%; require every row to beat
    // chance solidly at every scale. (The MobileNetV2 row gets a doubled
    // smoke training schedule in `helpers::imagenet_mobilenet_b`.)
    for r in &rows {
        let detection_floor = 0.6;
        assert!(
            r.detection > detection_floor,
            "{}: detection accuracy {:.2} below floor {detection_floor}",
            r.label,
            r.detection
        );
        assert!(r.meanet + 0.03 >= r.main, "{}: MEANet regressed ({:.3} vs {:.3})", r.label, r.meanet, r.main);
    }
}

/// Tables IV and V: selecting fewer classes gives at least the training
/// improvement of selecting all of them.
fn table45_class_selection(scale: Scale, _: &mut BenchReport) {
    let (t4, t5, rows) = tables::table45_class_selection(scale);
    println!("== Table IV: detection accuracy ==\n{t4}");
    println!("== Table V: selected-class accuracy (%) ==\n{t5}");
    let hard_half = &rows[0];
    let all = rows.last().expect("all-classes row");
    let gain_half = hard_half.train_meanet - hard_half.train_main;
    let gain_all = all.train_meanet - all.train_main;
    println!("train gain: half={gain_half:.3} all={gain_all:.3}");
    assert!(
        gain_half + 1e-9 >= gain_all,
        "selecting fewer classes should give at least the improvement of selecting all"
    );
}

/// Table VI: MACs and parameters, fixed vs trained, at true paper scale.
/// Anchors: ResNet32 backbone ≈ 0.48M params; MobileNetV2 fixed ≈ 3.5M;
/// ResNet18 fixed ≈ 11.2M (+0.5M exit); MobileNetV2 B trained ≈ 1.1M
/// under the default depthwise-separable adaptive plan.
fn table6_flops(_: Scale, rep: &mut BenchReport) {
    let (table, rows) = tables::table6_flops();
    println!("== Table VI: computations and parameters (millions) ==\n{table}");
    let find = |s: &str| rows.iter().find(|r| r.label.contains(s)).expect("row");
    let r32a = find("ResNet32 A");
    // Model A's fixed side = stem+stage1 (~0.03M) plus its deliberately
    // spatial fresh exit (AvgPool 2x2 -> Flatten -> FC 4096x100 ~= 0.41M;
    // see MeaNet::from_backbone). The MACs split is the meaningful frozen
    // cost: it must be a small fraction of model B's full-backbone MACs.
    assert!((0.3e6..0.6e6).contains(&(r32a.fixed_params as f64)), "ResNet32A fixed params");
    let r32b = find("ResNet32 B");
    assert!(
        r32a.fixed_macs * 2 < r32b.fixed_macs,
        "model A must freeze well under half of model B's per-image MACs"
    );
    let mob = find("MobileNetV2");
    assert!((3.0e6..4.2e6).contains(&(mob.fixed_params as f64)), "MobileNetV2 fixed params");
    // Paper claim: ~1.1M trained parameters for the MobileNetV2 B row.
    // The depthwise-separable adaptive plan must land within ~1.5× of it
    // (the dense mirror used to cost ~6.2M; see the contrast below).
    assert!(
        (0.7e6..1.7e6).contains(&(mob.trained_params as f64)),
        "MobileNetV2 B trained params {} outside ~1.5x of the paper's 1.1M",
        mob.trained_params
    );
    let r18 = find("ResNet18");
    assert!((10.5e6..12.5e6).contains(&(r18.fixed_params as f64)), "ResNet18 fixed params");
    assert!(r18.trained_params > 5_000_000, "ResNet18 B extension is parameter-heavy");

    // The table is computed from CostSplit; the nets' own accessor must
    // agree, and the legacy dense mirror must document its defect: the
    // same MobileNetV2 B assembly trains >3x more parameters.
    for (plan, nets) in [
        (AdaptivePlan::DepthwiseSeparable, tables::paper_scale_meanets_under(AdaptivePlan::DepthwiseSeparable)),
        (AdaptivePlan::DenseMirror, tables::paper_scale_meanets_under(AdaptivePlan::DenseMirror)),
    ] {
        for (label, net) in &nets {
            assert_eq!(net.adaptive_plan(), Some(plan), "{label}");
            let row = rows.iter().find(|r| r.label == *label);
            if plan == AdaptivePlan::DepthwiseSeparable {
                assert_eq!(
                    net.trained_params(),
                    row.expect("table row").trained_params,
                    "{label}: trained_params() disagrees with the table"
                );
            }
        }
        let (_, net) = nets.iter().find(|(l, _)| l.contains("MobileNetV2")).expect("MobileNetV2 row");
        if plan == AdaptivePlan::DenseMirror {
            assert!(
                net.trained_params() as f64 > 3.0 * mob.trained_params as f64,
                "dense mirror ({}) should dwarf the separable plan ({})",
                net.trained_params(),
                mob.trained_params
            );
        }
    }

    for r in &rows {
        let key = r.label.to_lowercase().replace([',', ' '], "_").replace("__", "_");
        rep.metric(&format!("{key}_trained_params"), r.trained_params as f64);
        rep.metric(&format!("{key}_fixed_params"), r.fixed_params as f64);
    }
}

/// Table VII: per-image computation and communication power, time and
/// energy at the edge (paper device constants + host-measured latency).
// Table VII's CIFAR edge-compute energy anchor is 3.14 mJ — a paper
// constant that only coincidentally resembles π.
#[allow(clippy::approx_constant)]
fn table7_per_image(_: Scale, rep: &mut BenchReport) {
    let (table, rows) = tables::table7_per_image();
    println!("== Table VII: per-image edge costs ==\n{table}");
    let cifar = &rows[0].costs;
    let inet = &rows[1].costs;
    // Paper anchors.
    assert!((cifar.ecp_j * 1e3 - 3.14).abs() < 0.05);
    assert!((cifar.ecu_j * 1e3 - 7.12).abs() < 0.1);
    assert!((inet.ecu_j * 1e3 - 349.0).abs() < 3.0);
    // Communication dominates computation for ImageNet-sized images.
    assert!(inet.ecu_j > 10.0 * inet.ecp_j);
    // Modelled constants are invariants; host-measured latencies go in as
    // `_ms` metrics so only a real slowdown trips the CI gate.
    rep.metric("cifar_ecp_mj", cifar.ecp_j * 1e3);
    rep.metric("cifar_ecu_mj", cifar.ecu_j * 1e3);
    rep.metric("imagenet_ecu_mj", inet.ecu_j * 1e3);
    rep.metric("cifar_measured_ms", rows[0].measured_latency_s * 1e3);
    rep.metric("imagenet_measured_ms", rows[1].measured_latency_s * 1e3);
}

/// Sum and concat merges at the extension-block input both train.
fn ablation_merge(scale: Scale, _: &mut BenchReport) {
    let (table, results) = ablations::ablation_merge(scale);
    println!("== Ablation: merge mode ==\n{table}");
    for (_, acc) in &results {
        assert!(*acc > 0.2, "merge variant collapsed");
    }
}

/// Blockwise (frozen main) training needs less memory than joint training
/// and protects the easy classes from catastrophic forgetting.
fn ablation_blockwise(scale: Scale, _: &mut BenchReport) {
    let (table, results) = ablations::ablation_blockwise(scale);
    println!("== Ablation: blockwise vs joint ==\n{table}");
    let ours = &results[0];
    let joint = &results[1];
    assert!(ours.3 < joint.3, "blockwise must need less training memory");
    println!("easy-class accuracy: ours {:.3} vs joint {:.3}", ours.2, joint.2);
    assert!(ours.2 + 1e-9 >= joint.2 - 0.02, "freezing should protect easy classes");
}

/// Uplink payloads: CIFAR features outweigh raw pixels, ImageNet raw
/// pixels outweigh late features.
fn ablation_payload(_: Scale, _: &mut BenchReport) {
    let (table, rows) = ablations::ablation_payload();
    println!("== Ablation: payload sizing ==\n{table}");
    assert!(rows[1].1 > rows[0].1, "CIFAR f32 features should out-weigh raw pixels");
    assert!(rows[2].1 > rows[3].1, "ImageNet raw should out-weigh late features");
}

/// An int8 edge backbone is under half the download, agrees with float
/// and costs less energy, within 10 accuracy points.
fn ablation_quant(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::ablation_quant(scale);
    println!("== Ablation: int8 quantized edge backbone ==\n{table}");
    let float = &rows[0];
    let int8 = &rows[1];
    assert!(int8.model_bytes * 2 < float.model_bytes, "int8 download must be well under half the float size");
    assert!(int8.agreement >= 0.80, "int8 predictions diverged from float: {:.3}", int8.agreement);
    assert!(
        int8.accuracy >= float.accuracy - 0.10,
        "quantization cost more than 10 accuracy points: {:.3} vs {:.3}",
        int8.accuracy,
        float.accuracy
    );
    assert!(int8.energy_mj < float.energy_mj, "int8 MACs must be cheaper");
}

/// The partition optimiser's pick matches or beats both endpoints, and
/// the offloaded share sweeps from 0 to 1.
fn ablation_partition(_: Scale, _: &mut BenchReport) {
    let (table, costs) = extensions::ablation_partition();
    println!("== Ablation: DNN partition sweep (paper-scale ResNet18) ==\n{table}");
    for obj in [Objective::Latency, Objective::EdgeEnergy] {
        let score = |c: &mea_edgecloud::CutCost| match obj {
            Objective::Latency => c.latency_s,
            Objective::EdgeEnergy => c.edge_energy_j,
        };
        let best = costs.iter().cloned().min_by(|a, b| score(a).partial_cmp(&score(b)).unwrap()).unwrap();
        assert!(score(&best) <= score(&costs[0]) + 1e-12, "{obj:?}: best worse than cloud-only");
        assert!(score(&best) <= score(costs.last().unwrap()) + 1e-12, "{obj:?}: best worse than edge-only");
    }
    assert_eq!(costs.first().unwrap().q, 0.0);
    assert_eq!(costs.last().unwrap().q, 1.0);
}

/// WiFi reproduces Table VII's uplink energies, and LTE costs more than
/// twice as much per image.
fn ablation_radio(_: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::ablation_radio();
    println!("== Ablation: uplink radio (per raw image) ==\n{table}");
    let wifi = rows.iter().find(|r| r.label.starts_with("WiFi")).expect("wifi row");
    let lte = rows.iter().find(|r| r.label.starts_with("LTE")).expect("lte row");
    assert!(lte.cifar_mj > 2.0 * wifi.cifar_mj, "LTE should cost >2x per CIFAR image");
    assert!(lte.imagenet_mj > 2.0 * wifi.imagenet_mj, "LTE should cost >2x per ImageNet image");
    // Table VII: 7.12 mJ per CIFAR image, 349 mJ per ImageNet image.
    assert!((wifi.cifar_mj - 7.12).abs() < 0.1, "CIFAR WiFi energy {}", wifi.cifar_mj);
    assert!((wifi.imagenet_mj - 349.0).abs() < 3.0, "ImageNet WiFi energy {}", wifi.imagenet_mj);
}

/// Entropy offloading keeps edge-only accuracy, and the budgeted rule
/// sends its target share.
fn ablation_policies(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::ablation_policies(scale);
    println!("== Ablation: offload policies ==\n{table}");
    let by_label = |needle: &str| {
        rows.iter().find(|r| r.label.contains(needle)).unwrap_or_else(|| panic!("row {needle} missing"))
    };
    let never = by_label("never");
    let always = by_label("always");
    let entropy = by_label("entropy");
    let budget = by_label("budget");
    assert_eq!(never.cloud_fraction, 0.0);
    assert_eq!(always.cloud_fraction, 1.0);
    assert!(entropy.accuracy + 1e-9 >= never.accuracy - 0.02, "paper policy regressed vs edge-only");
    assert!(
        (budget.cloud_fraction - 0.25).abs() < 0.10,
        "budget missed its beta: sent {:.3}",
        budget.cloud_fraction
    );
}

/// Cloud queueing, utilisation and tail latency grow with the fleet.
fn fleet_scaling(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::fleet_scaling(scale);
    println!("== Fleet scaling (shared regional cloud) ==\n{table}");
    for pair in rows.windows(2) {
        assert!(
            pair[1].cloud_wait_ms >= pair[0].cloud_wait_ms - 1e-9,
            "cloud wait shrank when the fleet grew: {pair:?}"
        );
        assert!(pair[1].utilization >= pair[0].utilization - 1e-9, "utilization shrank with more devices");
    }
    assert!(rows.last().unwrap().p95_ms >= rows[0].p95_ms, "tail latency should grow with contention");
}

/// Replay retains more hard-class accuracy than naive fine-tuning.
fn ablation_continual(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::ablation_continual(scale);
    println!("== Ablation: continual adaptation with replay ==\n{table}");
    let naive = rows.iter().find(|r| r.replay_ratio == 0.0).expect("ratio 0 present");
    let replayed = rows.iter().filter(|r| r.replay_ratio > 0.0).collect::<Vec<_>>();
    assert!(!replayed.is_empty());
    let best_replay = replayed.iter().map(|r| r.retained_accuracy).fold(0.0f64, f64::max);
    assert!(
        best_replay > naive.retained_accuracy,
        "replay ({best_replay:.3}) must retain more hard-class accuracy than naive fine-tuning ({:.3})",
        naive.retained_accuracy
    );
}

/// The argmax easy/hard rule beats chance and stays close to a trained
/// binary detector without its extra parameters.
fn ablation_detector(scale: Scale, _: &mut BenchReport) {
    let (table, cmp) = extensions::ablation_detector(scale);
    println!("== Ablation: easy/hard detection rules ==\n{table}");
    assert!(cmp.argmax_accuracy > 0.5, "argmax detection no better than chance");
    assert!(cmp.binary_accuracy > 0.5, "binary detection no better than chance");
    assert!(
        cmp.argmax_accuracy >= cmp.binary_accuracy - 0.15,
        "argmax rule fell far behind the trained detector: {:.3} vs {:.3}",
        cmp.argmax_accuracy,
        cmp.binary_accuracy
    );
}

/// Blockwise training is the cheapest multi-exit method in memory, and
/// every method trains a working hard-class classifier.
fn ablation_training_methods(scale: Scale, _: &mut BenchReport) {
    let (table, rows) = extensions::ablation_training_methods(scale);
    println!("== Ablation: multi-exit training methods ==\n{table}");
    let blockwise = rows.iter().find(|r| r.label.contains("blockwise")).expect("blockwise row");
    for other in rows.iter().filter(|r| !r.label.contains("blockwise")) {
        assert!(
            blockwise.memory_mib < other.memory_mib,
            "blockwise must be the cheapest in training memory: {} vs {} ({})",
            blockwise.memory_mib,
            other.memory_mib,
            other.label
        );
    }
    for r in &rows {
        assert!(r.hard_accuracy > 0.0, "{} produced a dead model", r.label);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_bench::regression::compare;

    /// The steps that train nothing run in seconds: Fig. 6's memory
    /// ordering, payload sizes, the partition sweep, Table VII's radio
    /// anchors and Tables I, VI and VII are checked on every test run.
    /// The three tables' metrics must also match their checked-in
    /// baselines: the same keys, and every invariant exactly. Their
    /// timings cannot fail here (unbounded tolerance).
    #[test]
    fn closed_form_steps_hold_their_claims() {
        for name in [
            "fig6_memory",
            "ablation_payload",
            "ablation_partition",
            "ablation_radio",
            "table1_cost_model",
            "table6_flops",
            "table7_per_image",
        ] {
            let (_, run) = STEPS.iter().find(|(step, _)| *step == name).expect("step exists");
            let mut rep = BenchReport::new(name);
            run(Scale::Smoke, &mut rep);
            if name.starts_with("table") {
                let path = format!("{}/baselines/BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
                let text = std::fs::read_to_string(&path).expect("checked-in baseline");
                let baseline = BenchReport::from_json(&text).expect("well-formed baseline");
                let failures = compare(&baseline, &rep, f64::INFINITY);
                assert!(failures.is_empty(), "{name} drifted from {path}: {failures:#?}");
            }
        }
    }
}
