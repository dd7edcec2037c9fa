//! Runners for every figure of the paper's evaluation (Figs. 2, 3, 5–8).

use super::helpers::{self, cifar_system_a, imagenet_resnet_b, pct};
use crate::scale::Scale;
use mea_data::synth::generate;
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::energy::{cloud_only_energy, edge_only_energy, energy_from_records, EnergyReport};
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::payload::paper_raw_image_bytes;
use mea_metrics::memory::{blockwise_bytes, joint_bytes, mib};
use mea_metrics::{ConfusionMatrix, EntropyStats, ErrorBreakdown, Table};
use mea_nn::models::{resnet_cifar, CifarResNetConfig};
use mea_tensor::Rng;
use meanet::model::{MeaNet, Merge, Variant};
use meanet::stats::{evaluate_main_exit, ExitStats};
use meanet::train::{train_backbone, TrainConfig};

/// Fig. 2: confusion matrix of a ResNet trained on the CIFAR-10-like
/// dataset — demonstrating non-uniform per-class precision.
pub fn fig2_confusion(scale: Scale) -> (String, ConfusionMatrix) {
    let bundle = generate(&scale.cifar10_like(3001));
    let mut rng = Rng::new(3001);
    let mut cfg = CifarResNetConfig::repro_scale(bundle.train.num_classes);
    cfg.input_hw = 16;
    let mut backbone = resnet_cifar(&cfg, &mut rng);
    let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(scale.epochs()));

    // Wrap into a MEANet (model B) purely to reuse the evaluation helpers.
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 16, extension_blocks: 1 },
        Merge::Sum,
        &mut rng,
    );
    let eval = evaluate_main_exit(&mut net, &bundle.test, 32);
    let rendered = format!(
        "{}\nper-class precision: {:?}\n",
        eval.confusion,
        eval.confusion.per_class_precision().iter().map(|p| (p * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    (rendered, eval.confusion)
}

/// Fig. 3 data: per-class FDR (class-wise complexity) and per-instance
/// entropy statistics (instance-wise complexity) from one trained system.
pub fn fig3_complexity(scale: Scale) -> (Table, Vec<f64>, EntropyStats) {
    let mut sys = cifar_system_a(scale, 3101, false);
    let eval = helpers::evaluate_main(&mut sys.pipeline.net, &sys.bundle.test, 32);
    let fdrs: Vec<f64> = (0..eval.confusion.num_classes()).map(|c| eval.confusion.fdr(c)).collect();
    let stats = meanet::thresholds::entropy_stats(&eval);

    let mut table = Table::new(&["class", "FDR", "in hard set?"]);
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline");
    for (c, fdr) in fdrs.iter().enumerate() {
        table.row(&[c.to_string(), format!("{fdr:.3}"), dict.contains(c).to_string()]);
    }
    (table, fdrs, stats)
}

/// Fig. 5: proportions of the four error types with half of the classes
/// hard, for the CIFAR-like and ImageNet-like datasets.
pub fn fig5_error_types(scale: Scale) -> (Table, Vec<(String, ErrorBreakdown)>) {
    let mut results = Vec::new();
    let mut sys = cifar_system_a(scale, 3201, false);
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline").clone();
    let eval = helpers::evaluate_main(&mut sys.pipeline.net, &sys.bundle.test, 32);
    results.push(("CIFAR-like".to_string(), eval.error_breakdown(&dict)));

    let mut sys = imagenet_resnet_b(scale, 3202, false);
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline").clone();
    let eval = helpers::evaluate_main(&mut sys.pipeline.net, &sys.bundle.test, 32);
    results.push(("ImageNet-like".to_string(), eval.error_breakdown(&dict)));

    let mut table =
        Table::new(&["dataset", "I easy-as-hard", "II hard-as-easy", "III easy-as-easy", "IV hard-as-hard"]);
    for (label, b) in &results {
        let (p1, p2, p3, p4) = b.proportions();
        table.row(&[label.clone(), pct(p1), pct(p2), pct(p3), pct(p4)]);
    }
    (table, results)
}

/// One bar pair of Fig. 6.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Model label.
    pub label: String,
    /// Blockwise (ours) training memory in MiB at batch 128.
    pub ours_mib: f64,
    /// Joint-optimisation training memory in MiB at batch 128.
    pub joint_mib: f64,
}

/// Fig. 6: GPU memory for training the extension + adaptive blocks, ours
/// (blockwise, frozen main) vs joint optimisation, at paper scale and
/// batch size 128.
pub fn fig6_memory() -> (Table, Vec<MemoryRow>) {
    let batch = 128;
    let mut table = Table::new(&["model", "ours (MiB)", "joint (MiB)", "saving"]);
    let mut rows = Vec::new();
    for (label, net) in super::tables::paper_scale_meanets() {
        let (frozen, trained) = net.memory_parts();
        let ours = blockwise_bytes(&frozen, &trained, batch);
        let all: Vec<_> = frozen.iter().chain(trained.iter()).copied().collect();
        let joint = joint_bytes(&all, batch);
        let row = MemoryRow { label: label.clone(), ours_mib: mib(ours), joint_mib: mib(joint) };
        table.row(&[
            label,
            format!("{:.0}", row.ours_mib),
            format!("{:.0}", row.joint_mib),
            format!("{:.0}%", 100.0 * (1.0 - row.ours_mib / row.joint_mib)),
        ]);
        rows.push(row);
    }
    (table, rows)
}

/// One point of the Fig. 7 sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Entropy threshold.
    pub threshold: f64,
    /// Overall accuracy at this threshold.
    pub accuracy: f64,
    /// Fraction of instances sent to the cloud.
    pub cloud_fraction: f64,
}

/// Result of the Fig. 7/8 sweep for one system.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// System label.
    pub label: String,
    /// Sweep points (threshold ascending).
    pub points: Vec<SweepPoint>,
    /// Edge-only accuracy (threshold → ∞).
    pub edge_only_accuracy: f64,
    /// Cloud-only accuracy (threshold → 0 ≡ everything offloaded).
    pub cloud_only_accuracy: f64,
    /// Per-exit records for each threshold (for the energy model).
    pub energy: Vec<(f64, EnergyReport)>,
    /// Edge-only / cloud-only energy endpoints.
    pub energy_edge_only: EnergyReport,
    /// Cloud-only energy endpoint.
    pub energy_cloud_only: EnergyReport,
}

/// Figs. 7 & 8: sweep the entropy threshold, recording accuracy, cloud
/// fraction and edge energy for one trained system.
pub(crate) fn fig78_sweep(
    sys: &mut helpers::TrainedSystem,
    label: &str,
    device: &DeviceProfile,
    raw_bytes: u64,
    thresholds: &[f64],
) -> SweepResult {
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline").clone();
    let link = NetworkLink::wifi_18_88();
    let (macs_main, macs_ext, _) = helpers::macs_profile(&sys.pipeline.net, sys.pipeline.cloud.as_ref());

    let mut points = Vec::new();
    let mut energy = Vec::new();
    for &thr in thresholds {
        let records = sys.pipeline.infer_distributed(&sys.bundle.test, thr as f32, 32);
        let stats = ExitStats::from_records(&records, &dict);
        points.push(SweepPoint {
            threshold: thr,
            accuracy: stats.accuracy,
            cloud_fraction: stats.cloud_fraction(),
        });
        energy.push((thr, energy_from_records(&records, device, &link, macs_main, macs_ext, raw_bytes)));
    }

    let edge_records = sys.pipeline.infer_edge_only(&sys.bundle.test, 32);
    let edge_stats = ExitStats::from_records(&edge_records, &dict);
    let cloud_records = meanet::infer::run_cloud_only(
        sys.pipeline.cloud.as_mut().expect("sweep needs a cloud"),
        &sys.bundle.test,
        32,
    );
    let cloud_acc = cloud_records.iter().filter(|r| r.correct).count() as f64 / cloud_records.len() as f64;

    SweepResult {
        label: label.to_string(),
        points,
        edge_only_accuracy: edge_stats.accuracy,
        cloud_only_accuracy: cloud_acc,
        energy,
        energy_edge_only: edge_only_energy(&edge_records, device, macs_main, macs_ext),
        energy_cloud_only: cloud_only_energy(sys.bundle.test.len() as u64, &link, raw_bytes),
    }
}

/// Renders a [`SweepResult`] as the Fig. 7 table (accuracy and % to cloud
/// per threshold).
pub fn render_fig7(result: &SweepResult) -> Table {
    let mut table = Table::new(&["threshold", "accuracy (%)", "sent to cloud (%)"]);
    for p in &result.points {
        table.row(&[format!("{:.2}", p.threshold), pct(p.accuracy), pct(p.cloud_fraction)]);
    }
    table.row(&["edge-only".into(), pct(result.edge_only_accuracy), "0.00".into()]);
    table.row(&["cloud-only".into(), pct(result.cloud_only_accuracy), "100.00".into()]);
    table
}

/// Renders a [`SweepResult`] as the Fig. 8 table (energy split per
/// threshold plus the edge-only / cloud-only endpoints).
pub fn render_fig8(result: &SweepResult) -> Table {
    let mut table = Table::new(&["setting", "communication (J)", "edge compute (J)", "total (J)"]);
    let fmt = |e: &EnergyReport| {
        [format!("{:.3}", e.communication_j), format!("{:.3}", e.compute_j), format!("{:.3}", e.total_j())]
    };
    let e = &result.energy_edge_only;
    let [c1, c2, c3] = fmt(e);
    table.row(&["edge only".into(), c1, c2, c3]);
    for (thr, e) in &result.energy {
        let [c1, c2, c3] = fmt(e);
        table.row(&[format!("thr={thr:.2}"), c1, c2, c3]);
    }
    let [c1, c2, c3] = fmt(&result.energy_cloud_only);
    table.row(&["cloud only".into(), c1, c2, c3]);
    table
}

/// Full Fig. 7 + Fig. 8 experiment on the CIFAR-like system.
pub fn fig78_cifar(scale: Scale) -> SweepResult {
    let mut sys = cifar_system_a(scale, 3301, true);
    let thresholds = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.0];
    fig78_sweep(
        &mut sys,
        "CIFAR-like, ResNet A",
        &DeviceProfile::edge_gpu_cifar(),
        paper_raw_image_bytes(3, 32, 32),
        &thresholds,
    )
}

/// Full Fig. 7 + Fig. 8 experiment on the ImageNet-like system.
pub fn fig78_imagenet(scale: Scale) -> SweepResult {
    let mut sys = imagenet_resnet_b(scale, 3302, true);
    let thresholds = [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.0];
    fig78_sweep(
        &mut sys,
        "ImageNet-like, ResNet B",
        &DeviceProfile::edge_gpu_imagenet(),
        paper_raw_image_bytes(3, 224, 224),
        &thresholds,
    )
}
