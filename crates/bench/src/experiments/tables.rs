//! Runners for every table of the paper's evaluation (Tables I–VII).

use super::helpers::{
    self, cifar_system_a, cifar_system_b, imagenet_mobilenet_b, imagenet_resnet_b, pct, TrainedSystem,
};
use crate::scale::Scale;
use mea_data::synth::generate;
use mea_edgecloud::cost::{estimate, CostParams, Strategy};
use mea_edgecloud::device::DeviceProfile;
use mea_edgecloud::energy::per_image;
use mea_edgecloud::network::NetworkLink;
use mea_edgecloud::payload::paper_raw_image_bytes;
use mea_metrics::flops::millions;
use mea_metrics::Table;
use mea_nn::layer::Mode;
use mea_nn::models::{
    mobilenet_v2, resnet_cifar, resnet_imagenet, CifarResNetConfig, ImageNetResNetConfig, MobileNetConfig,
};
use mea_tensor::{Rng, Tensor};
use meanet::hard_classes::Selection;
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};
use meanet::pipeline::{Pipeline, PipelineConfig};
use meanet::stats::ExitStats;
use meanet::train::TrainConfig;

/// One row of the Table II reproduction.
#[derive(Debug, Clone)]
pub struct HardClassRow {
    /// Model/dataset label.
    pub label: String,
    /// Main-exit accuracy on hard-class training data.
    pub train_main: f64,
    /// MEANet accuracy on hard-class training data.
    pub train_meanet: f64,
    /// Main-exit accuracy on hard-class test data.
    pub test_main: f64,
    /// MEANet accuracy on hard-class test data.
    pub test_meanet: f64,
}

fn hard_class_row(label: &str, sys: &mut TrainedSystem) -> HardClassRow {
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline").clone();
    let hard_train = sys.pipeline.train_split.filter_classes(dict.hard_classes());
    let hard_test = sys.bundle.test.filter_classes(dict.hard_classes());
    HardClassRow {
        label: label.to_string(),
        train_main: helpers::main_accuracy(&mut sys.pipeline.net, &hard_train, 32),
        train_meanet: helpers::meanet_accuracy_on_hard(&mut sys.pipeline.net, &hard_train, 32),
        test_main: helpers::main_accuracy(&mut sys.pipeline.net, &hard_test, 32),
        test_meanet: helpers::meanet_accuracy_on_hard(&mut sys.pipeline.net, &hard_test, 32),
    }
}

/// Table II: accuracy of hard classes, main block vs MEANet, for the four
/// model/dataset pairs of the paper.
pub fn table2_hard_classes(scale: Scale) -> (Table, Vec<HardClassRow>) {
    let mut rows = Vec::new();
    let mut sys = cifar_system_a(scale, 2001, false);
    rows.push(hard_class_row("CIFAR-like, ResNet A", &mut sys));
    let mut sys = cifar_system_b(scale, 2002, false);
    rows.push(hard_class_row("CIFAR-like, ResNet B", &mut sys));
    let mut sys = imagenet_mobilenet_b(scale, 2003, false);
    rows.push(hard_class_row("ImageNet-like, MobileNetV2 B", &mut sys));
    let mut sys = imagenet_resnet_b(scale, 2004, false);
    rows.push(hard_class_row("ImageNet-like, ResNet B", &mut sys));

    let mut table = Table::new(&["dataset, model", "train main", "train MEANet", "test main", "test MEANet"]);
    for r in &rows {
        table.row(&[
            r.label.clone(),
            pct(r.train_main),
            pct(r.train_meanet),
            pct(r.test_main),
            pct(r.test_meanet),
        ]);
    }
    (table, rows)
}

/// One row of the Table III reproduction.
#[derive(Debug, Clone)]
pub struct AllClassRow {
    /// Model/dataset label.
    pub label: String,
    /// Main-exit test accuracy over all classes.
    pub main: f64,
    /// MEANet (edge-only Algorithm 2) test accuracy over all classes.
    pub meanet: f64,
    /// Easy/hard detection accuracy.
    pub detection: f64,
}

fn all_class_row(label: &str, sys: &mut TrainedSystem) -> AllClassRow {
    let dict = sys.pipeline.net.hard_dict().expect("trained pipeline").clone();
    let main = helpers::main_accuracy(&mut sys.pipeline.net, &sys.bundle.test, 32);
    let records = sys.pipeline.infer_edge_only(&sys.bundle.test, 32);
    let stats = ExitStats::from_records(&records, &dict);
    AllClassRow { label: label.to_string(), main, meanet: stats.accuracy, detection: stats.detection_accuracy }
}

/// Table III: test accuracy of all classes plus easy/hard detection
/// accuracy.
pub fn table3_all_classes(scale: Scale) -> (Table, Vec<AllClassRow>) {
    let mut rows = Vec::new();
    let mut sys = cifar_system_a(scale, 2001, false);
    rows.push(all_class_row("CIFAR-like, ResNet A", &mut sys));
    let mut sys = cifar_system_b(scale, 2002, false);
    rows.push(all_class_row("CIFAR-like, ResNet B", &mut sys));
    let mut sys = imagenet_mobilenet_b(scale, 2003, false);
    rows.push(all_class_row("ImageNet-like, MobileNetV2 B", &mut sys));
    let mut sys = imagenet_resnet_b(scale, 2004, false);
    rows.push(all_class_row("ImageNet-like, ResNet B", &mut sys));

    let mut table = Table::new(&["dataset, model", "main", "MEANet", "easy/hard detection"]);
    for r in &rows {
        table.row(&[r.label.clone(), pct(r.main), pct(r.meanet), pct(r.detection)]);
    }
    (table, rows)
}

/// One row of the Table IV/V reproduction.
#[derive(Debug, Clone)]
pub struct SelectionRow {
    /// Selection label ("N hard" / "N random").
    pub label: String,
    /// Detection accuracy (Table IV).
    pub detection: f64,
    /// Training accuracy of the selected classes (Table V).
    pub train_main: f64,
    /// MEANet training accuracy on selected classes.
    pub train_meanet: f64,
    /// Test accuracy of selected classes, main exit.
    pub test_main: f64,
    /// MEANet test accuracy of selected classes.
    pub test_meanet: f64,
}

/// Tables IV & V: the class-selection ablation (hard vs random vs count),
/// sharing one backbone seed so the pretrained main block is identical.
pub fn table45_class_selection(scale: Scale) -> (Table, Table, Vec<SelectionRow>) {
    let bundle = generate(&scale.cifar100_like(4001));
    let classes = bundle.train.num_classes;
    let half = classes / 2;
    let seventy = (classes * 7) / 10;
    let selections = vec![
        (format!("{half} hard"), Selection::HardestByPrecision { n: half }),
        (format!("{half} random"), Selection::Random { n: half, seed: 99 }),
        (format!("{seventy} hard"), Selection::HardestByPrecision { n: seventy }),
        (format!("{classes} (all)"), Selection::All),
    ];

    let mut rows = Vec::new();
    for (label, selection) in selections {
        let mut cfg = PipelineConfig::repro_resnet_a(classes, scale.epochs(), 4001);
        cfg.pretrain = TrainConfig::repro(scale.epochs());
        cfg.edge_train = TrainConfig::repro(scale.epochs());
        cfg.exit_train = TrainConfig::repro((scale.epochs() / 2).max(2));
        cfg.val_fraction = 0.3;
        cfg.selection = selection;
        cfg.cloud = None;
        let mut pipe = Pipeline::run(&cfg, &bundle.train);
        let dict = pipe.net.hard_dict().expect("trained pipeline").clone();

        let sel_train = pipe.train_split.filter_classes(dict.hard_classes());
        let sel_test = bundle.test.filter_classes(dict.hard_classes());
        let records = pipe.infer_edge_only(&bundle.test, 32);
        let stats = ExitStats::from_records(&records, &dict);
        rows.push(SelectionRow {
            label,
            detection: stats.detection_accuracy,
            train_main: helpers::main_accuracy(&mut pipe.net, &sel_train, 32),
            train_meanet: helpers::meanet_accuracy_on_hard(&mut pipe.net, &sel_train, 32),
            test_main: helpers::main_accuracy(&mut pipe.net, &sel_test, 32),
            test_meanet: helpers::meanet_accuracy_on_hard(&mut pipe.net, &sel_test, 32),
        });
    }

    let mut t4 = Table::new(&["selected classes", "detection accuracy (%)"]);
    for r in rows.iter().take(3) {
        t4.row(&[r.label.clone(), pct(r.detection)]);
    }
    let mut t5 = Table::new(&["selected classes", "train main", "train MEANet", "test main", "test MEANet"]);
    for r in &rows {
        t5.row(&[r.label.clone(), pct(r.train_main), pct(r.train_meanet), pct(r.test_main), pct(r.test_meanet)]);
    }
    (t4, t5, rows)
}

/// Table I: evaluates the closed-form cost model on the paper's Table VII
/// unit costs and cross-checks the `β = 0` / `β = 1` degeneracies.
pub fn table1_cost_model() -> (Table, Vec<(Strategy, f64)>) {
    // CIFAR unit costs from Table VII (energy, J).
    let params = CostParams {
        n: 10_000,
        edge_unit: 3.14e-3,
        cloud_unit: 0.0, // cloud compute energy is not an edge concern
        comm_raw_unit: 7.12e-3,
        comm_feat_unit: 4.0 * 7.12e-3, // f32 features ≈ 4× raw CIFAR bytes
        beta: 0.15,
        q: 0.5,
    };
    let strategies =
        [Strategy::EdgeOnly, Strategy::CloudOnly, Strategy::EdgeCloudRaw, Strategy::EdgeCloudFeatures];
    let mut table =
        Table::new(&["strategy", "edge compute (J)", "cloud compute (J)", "communication (J)", "edge total (J)"]);
    let mut totals = Vec::new();
    for s in strategies {
        let c = estimate(s, &params);
        table.row(&[
            format!("{s:?}"),
            format!("{:.1}", c.edge_compute),
            format!("{:.1}", c.cloud_compute),
            format!("{:.1}", c.communication),
            format!("{:.1}", c.edge_total()),
        ]);
        totals.push((s, c.edge_total()));
    }
    (table, totals)
}

/// Table I's "sending features" row, **measured** instead of modelled.
#[derive(Debug, Clone)]
pub struct MeasuredFeaturesResult {
    /// Instances the sweep offloaded (same set in every payload mode).
    pub offloaded: usize,
    /// Total instances swept.
    pub total: usize,
    /// The cut the offline `CutPlanner` picked for the measured rows.
    pub cut: usize,
    /// Measured bytes per offload, pixel payload (paper accounting).
    pub raw_measured: f64,
    /// Measured bytes per offload, f32 activations at the planned cut.
    pub f32_measured: f64,
    /// Measured bytes per offload, int8 activations through the
    /// `mea_quant::wire` codec (real frame, header included).
    pub int8_measured: f64,
    /// The paper's model for the raw row: 1 byte per input sample.
    pub raw_modelled: u64,
    /// The paper's model for the features row: f32 maps assumed
    /// input-sized, i.e. 4 bytes per input sample (`x'_cu = 4·x_cu` —
    /// exactly the `comm_feat_unit` ratio [`table1_cost_model`] uses).
    pub f32_modelled: u64,
    /// Whether the f32 feature sweep reproduced the pixel sweep's records
    /// bitwise (it must: the wire is lossless).
    pub records_identical: bool,
}

/// Measures Table I's communication column end-to-end: the same offline
/// sweep (`run_inference_with_payload`, β ≈ 0.15 like the table) run with
/// pixel, f32-feature and int8-feature payloads at the cut an offline
/// [`CutPlanner`](mea_edgecloud::partition::CutPlanner) picks, next to
/// the closed-form model's per-offload byte assumptions. The modelled
/// features row assumes input-sized f32 maps (4× the raw bytes — the
/// paper's stated objection to sending features); the measured rows show
/// what a *planned* cut actually ships.
pub fn table1_measured_features() -> (Table, MeasuredFeaturesResult) {
    use super::serving::{cloud_replica, edge_replica, high_offload_policy};
    use mea_edgecloud::network::NetworkLink;
    use mea_edgecloud::partition::{CutPlanner, Objective, PartitionEnv};
    use meanet::infer::run_inference_with_payload;
    use meanet::SweepPayload;

    let bundle = mea_data::presets::tiny(91);
    let data = &bundle.test;
    let hard = [0usize, 2, 4];
    let mut probe = edge_replica(61, &hard);
    let policy = high_offload_policy(&mut probe, data, 0.15);

    // Plan the cut offline against a congested uplink (the regime where
    // the features row earns its keep).
    let cloud_net = cloud_replica(62);
    let in_elems: u64 = cloud_net.in_shape.iter().map(|&d| d as u64).product();
    let edge = DeviceProfile::new("edge", 10.0, 5e9);
    let env = PartitionEnv {
        edge: edge.clone(),
        cloud: DeviceProfile::new("cloud", 200.0, 1e12),
        link: NetworkLink::wifi(1.0).with_rtt(0.0002),
        bytes_per_elem: 4,
        raw_input_bytes: 4 * in_elems,
        response_bytes: 8,
    };
    let planner = CutPlanner::from_network(&cloud_net, env, Objective::Latency, 1);
    let cut = planner.plan_placement_for_measured(&edge, None, None, None).plan.final_cut();

    let sweep = |payload: SweepPayload| {
        let mut net = edge_replica(61, &hard);
        let mut cloud = cloud_replica(62);
        run_inference_with_payload(&mut net, Some(&mut cloud), data, policy, 16, payload)
    };
    let (pixel_records, pixels) = sweep(SweepPayload::Pixels);
    let (f32_records, f32s) = sweep(SweepPayload::Features { cut });
    let (_, int8s) = sweep(SweepPayload::QuantFeatures { cut });

    let per = |bytes: u64| bytes as f64 / pixels.offloaded.max(1) as f64;
    let result = MeasuredFeaturesResult {
        offloaded: pixels.offloaded,
        total: data.len(),
        cut,
        raw_measured: per(pixels.upload_bytes),
        f32_measured: per(f32s.upload_bytes),
        int8_measured: per(int8s.upload_bytes),
        raw_modelled: in_elems,
        f32_modelled: 4 * in_elems,
        records_identical: f32_records == pixel_records,
    };
    let mut table = Table::new(&["payload", "modelled (B/offload)", "measured (B/offload)"]);
    table.row(&["raw pixels".into(), result.raw_modelled.to_string(), format!("{:.1}", result.raw_measured)]);
    table.row(&[
        format!("features f32 @ cut {cut}"),
        result.f32_modelled.to_string(),
        format!("{:.1}", result.f32_measured),
    ]);
    table.row(&[format!("features int8 @ cut {cut}"), "-".into(), format!("{:.1}", result.int8_measured)]);
    (table, result)
}

/// One row of the Table VI reproduction.
#[derive(Debug, Clone)]
pub struct FlopsRow {
    /// Model label.
    pub label: String,
    /// Per-image MACs through the fixed (frozen) part.
    pub fixed_macs: u64,
    /// Per-image MACs through the trained part.
    pub trained_macs: u64,
    /// Parameters in the fixed part.
    pub fixed_params: u64,
    /// Parameters in the trained part.
    pub trained_params: u64,
}

/// Builds the four *paper-scale* MEANets of Table VI (no training — pure
/// architecture counting, so this runs at full CIFAR/ImageNet geometry)
/// under the default [`AdaptivePlan`].
pub(crate) fn paper_scale_meanets() -> Vec<(String, MeaNet)> {
    paper_scale_meanets_under(AdaptivePlan::default())
}

/// `paper_scale_meanets` with an explicit adaptive plan, so `repro` can
/// contrast the depthwise-separable budget against the dense mirror.
pub fn paper_scale_meanets_under(plan: AdaptivePlan) -> Vec<(String, MeaNet)> {
    let mut rng = Rng::new(0);
    let mut nets = Vec::new();

    // CIFAR-100 ResNet32 A: split after stage 1 of (stem, s1, s2, s3).
    let backbone = resnet_cifar(&CifarResNetConfig::resnet32_cifar100(), &mut rng);
    let mut net =
        MeaNet::from_backbone(backbone, Variant::SplitBackbone { main_segments: 2 }, Merge::Sum, &mut rng);
    net.attach_edge_blocks(plan, mea_data::ClassDict::new(&(0..50).collect::<Vec<_>>()), &mut rng);
    nets.push(("CIFAR-100, ResNet32 A".to_string(), net));

    // CIFAR-100 ResNet32 B: full backbone + 2 fresh 64-channel blocks.
    let backbone = resnet_cifar(&CifarResNetConfig::resnet32_cifar100(), &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 64, extension_blocks: 2 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(plan, mea_data::ClassDict::new(&(0..50).collect::<Vec<_>>()), &mut rng);
    nets.push(("CIFAR-100, ResNet32 B".to_string(), net));

    // ImageNet MobileNetV2 B: full backbone + 4 narrow residual blocks
    // (the paper reports ~1.1M trained parameters).
    let backbone = mobilenet_v2(&MobileNetConfig::imagenet(), &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 96, extension_blocks: 4 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(plan, mea_data::ClassDict::new(&(0..500).collect::<Vec<_>>()), &mut rng);
    nets.push(("ImageNet, MobileNetV2 B".to_string(), net));

    // ImageNet ResNet18 B: full backbone + 2 fresh 512-channel blocks.
    let backbone = resnet_imagenet(&ImageNetResNetConfig::resnet18_imagenet(), &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 512, extension_blocks: 2 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(plan, mea_data::ClassDict::new(&(0..500).collect::<Vec<_>>()), &mut rng);
    nets.push(("ImageNet, ResNet18 B".to_string(), net));
    nets
}

/// Table VI: number of computations (MACs) and parameters, fixed vs
/// trained, at true paper scale.
pub fn table6_flops() -> (Table, Vec<FlopsRow>) {
    let mut table = Table::new(&[
        "dataset, model",
        "fixed MACs (M)",
        "trained MACs (M)",
        "fixed params (M)",
        "trained params (M)",
    ]);
    let mut rows = Vec::new();
    for (label, net) in paper_scale_meanets() {
        let split = net.cost_split();
        table.row(&[
            label.clone(),
            millions(split.fixed_macs),
            millions(split.trained_macs),
            millions(split.fixed_params),
            millions(split.trained_params),
        ]);
        rows.push(FlopsRow {
            label,
            fixed_macs: split.fixed_macs,
            trained_macs: split.trained_macs,
            fixed_params: split.fixed_params,
            trained_params: split.trained_params,
        });
    }
    (table, rows)
}

/// One row of the Table VII reproduction.
#[derive(Debug, Clone)]
pub struct PerImageRow {
    /// Workload label.
    pub label: String,
    /// Device + link costs under the paper's constants.
    pub costs: mea_edgecloud::energy::PerImageCosts,
    /// Wall-clock per-image latency of the repro-scale model on this host.
    pub measured_latency_s: f64,
}

/// Table VII: per-image computation/communication power, time and energy.
/// The modelled columns use the paper's device constants; the measured
/// column times this crate's repro-scale models on the host CPU.
pub fn table7_per_image() -> (Table, Vec<PerImageRow>) {
    let link = NetworkLink::wifi_18_88();
    let mut rng = Rng::new(7);

    let cifar = per_image(&DeviceProfile::edge_gpu_cifar(), &link, 69_400_000, paper_raw_image_bytes(3, 32, 32));
    let inet =
        per_image(&DeviceProfile::edge_gpu_imagenet(), &link, 1_820_000_000, paper_raw_image_bytes(3, 224, 224));

    let mut small = resnet_cifar(&CifarResNetConfig::repro_scale(100), &mut rng);
    let x = Tensor::randn([16, 3, 16, 16], 1.0, &mut rng);
    let reps = 5;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = small.forward(&x, Mode::Eval);
    }
    let measured_cifar = t0.elapsed().as_secs_f64() / (reps * 16) as f64;

    let mut big = resnet_imagenet(&ImageNetResNetConfig::repro_scale(40), &mut rng);
    let x = Tensor::randn([8, 3, 24, 24], 1.0, &mut rng);
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        let _ = big.forward(&x, Mode::Eval);
    }
    let measured_inet = t0.elapsed().as_secs_f64() / (reps * 8) as f64;

    let mut table = Table::new(&[
        "dataset, model",
        "GPU power (W)",
        "WiFi power (W)",
        "tcp (ms)",
        "tcu (ms)",
        "Ecp (mJ)",
        "Ecu (mJ)",
        "host-measured tcp (ms)",
    ]);
    let rows = vec![
        PerImageRow { label: "CIFAR-100, ResNet32 A".into(), costs: cifar, measured_latency_s: measured_cifar },
        PerImageRow { label: "ImageNet, ResNet18 B".into(), costs: inet, measured_latency_s: measured_inet },
    ];
    for r in &rows {
        table.row(&[
            r.label.clone(),
            format!("{:.0}", r.costs.gpu_power_w),
            format!("{:.2}", r.costs.upload_power_w),
            format!("{:.3}", r.costs.tcp_s * 1e3),
            format!("{:.1}", r.costs.tcu_s * 1e3),
            format!("{:.2}", r.costs.ecp_j * 1e3),
            format!("{:.0}", r.costs.ecu_j * 1e3),
            format!("{:.3}", r.measured_latency_s * 1e3),
        ]);
    }
    (table, rows)
}
