//! Runners for the beyond-paper subsystems: int8 quantization (hybrid
//! edge-cloud networks, the paper's reference \[43\]), Neurosurgeon-style
//! partitioning (the "sending features" mode of Table I), offload-policy
//! comparison, fleet-scale cloud congestion, continual adaptation with
//! replay, the trained easy/hard detector, and the three multi-exit
//! training methods of §III-A.

use super::helpers::{self, pct, TrainedSystem};
use crate::scale::Scale;
use mea_data::synth::generate;
use mea_data::ClassDict;
use mea_edgecloud::payload::paper_raw_image_bytes;
use mea_edgecloud::{
    best_cut, profile_network, simulate_fleet, sweep_cuts, ArrivalModel, ComputeTier, DeviceClass, DeviceProfile,
    FleetConfig, FleetSpec, NetworkLink, Objective, PartitionEnv,
};
use mea_metrics::memory::{blockwise_bytes, joint_bytes, mib};
use mea_metrics::Table;
use mea_nn::layer::Mode;
use mea_nn::models::{resnet_imagenet, ImageNetResNetConfig};
use mea_nn::StateDict;
use mea_quant::quantize_segmented;
use mea_tensor::Rng;
use meanet::continual::{extension_accuracy, train_edge_continual, ReplayBuffer};
use meanet::infer::run_inference_with_policy;
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};
use meanet::train::{
    build_hard_dataset, train_backbone, train_edge_blocks, train_edge_joint_weighted, train_separate, TrainConfig,
};
use meanet::{ExitPoint, HardDetector, OffloadPolicy};

/// Energy of an int8 multiply-add relative to fp32 on the same device —
/// the standard ≈4× arithmetic-energy advantage of 8-bit datapaths
/// (Horowitz, ISSCC'14 energy tables), used to scale
/// [`DeviceProfile::compute_energy_j`] for quantized edge models.
pub(crate) const INT8_MAC_ENERGY_RATIO: f64 = 0.25;

/// One row of the quantization ablation.
#[derive(Debug, Clone)]
pub struct QuantRow {
    /// Model/precision label.
    pub label: String,
    /// Test accuracy.
    pub accuracy: f64,
    /// Prediction agreement with the float model.
    pub agreement: f64,
    /// Model download size in bytes.
    pub model_bytes: u64,
    /// Per-image edge compute energy (mJ).
    pub energy_mj: f64,
}

/// Hybrid deployment ablation: a float edge backbone vs its int8
/// post-training quantization — accuracy, agreement, download size and
/// per-image compute energy.
pub fn ablation_quant(scale: Scale) -> (Table, Vec<QuantRow>) {
    let bundle = generate(&scale.cifar100_like(7001));
    let classes = bundle.train.num_classes;
    let mut rng = Rng::new(7001);
    let mut cfg = mea_nn::models::CifarResNetConfig::repro_scale(classes);
    cfg.input_hw = 16;
    let mut net = resnet_cifar_cfg(&cfg, &mut rng);
    let _ = train_backbone(&mut net, &bundle.train, &TrainConfig::repro(scale.epochs()));

    let calib: Vec<_> = bundle.train.batches(32).take(4).map(|(x, _)| x).collect();
    let qnet = quantize_segmented(&mut net, &calib).expect("repro ResNet is a supported graph");

    let mut float_correct = 0usize;
    let mut quant_correct = 0usize;
    let mut agree = 0usize;
    let mut total = 0usize;
    for (images, labels) in bundle.test.batches(32) {
        let fp = net.forward(&images, Mode::Eval).argmax_rows();
        let qp = qnet.predict(&images);
        for i in 0..labels.len() {
            float_correct += usize::from(fp[i] == labels[i]);
            quant_correct += usize::from(qp[i] == labels[i]);
            agree += usize::from(fp[i] == qp[i]);
            total += 1;
        }
    }
    let device = DeviceProfile::edge_gpu_cifar();
    let macs = net.total_macs();
    let float_energy = device.compute_energy_j(macs) * 1e3;
    let rows = vec![
        QuantRow {
            label: "fp32 edge backbone".into(),
            accuracy: float_correct as f64 / total as f64,
            agreement: 1.0,
            model_bytes: 4 * net.param_count() as u64,
            energy_mj: float_energy,
        },
        QuantRow {
            label: "int8 post-training".into(),
            accuracy: quant_correct as f64 / total as f64,
            agreement: agree as f64 / total as f64,
            model_bytes: qnet.weight_bytes(),
            energy_mj: float_energy * INT8_MAC_ENERGY_RATIO,
        },
    ];
    let mut table =
        Table::new(&["precision", "test acc (%)", "agreement (%)", "download (KB)", "energy/img (mJ)"]);
    for r in &rows {
        table.row(&[
            r.label.clone(),
            pct(r.accuracy),
            pct(r.agreement),
            format!("{:.1}", r.model_bytes as f64 / 1024.0),
            format!("{:.3}", r.energy_mj),
        ]);
    }
    (table, rows)
}

fn resnet_cifar_cfg(cfg: &mea_nn::models::CifarResNetConfig, rng: &mut Rng) -> mea_nn::models::SegmentedCnn {
    mea_nn::models::resnet_cifar(cfg, rng)
}

/// Partition-point sweep over the paper-scale ImageNet ResNet18 — the
/// network the paper would have partitioned had it sent features.
pub fn ablation_partition() -> (Table, Vec<mea_edgecloud::CutCost>) {
    let mut rng = Rng::new(7101);
    let net = resnet_imagenet(&ImageNetResNetConfig::resnet18_imagenet(), &mut rng);
    let profiles = profile_network(&net);
    let env = PartitionEnv {
        edge: DeviceProfile::edge_gpu_imagenet(),
        cloud: DeviceProfile::cloud_accelerator(),
        link: NetworkLink::wifi_18_88(),
        bytes_per_elem: 4,
        // The paper's accounting sends no response downlink (predictions
        // are consumed cloud-side in its tables), so this sweep keeps the
        // response free to preserve the Table I anchors.
        raw_input_bytes: paper_raw_image_bytes(3, 224, 224),
        response_bytes: 0,
    };
    let costs = sweep_cuts(&profiles, &env);
    let best_lat = best_cut(&profiles, &env, Objective::Latency);
    let best_energy = best_cut(&profiles, &env, Objective::EdgeEnergy);
    let mut table = Table::new(&["cut", "q (edge MAC frac)", "upload (KB)", "latency (ms)", "edge energy (mJ)"]);
    for c in &costs {
        let marker = if c.cut == best_lat.cut {
            " <- best latency"
        } else if c.cut == best_energy.cut {
            " <- best energy"
        } else {
            ""
        };
        table.row(&[
            format!("{}{}", c.cut, marker),
            format!("{:.3}", c.q),
            format!("{:.1}", c.upload_bytes as f64 / 1024.0),
            format!("{:.2}", c.latency_s * 1e3),
            format!("{:.2}", c.edge_energy_j * 1e3),
        ]);
    }
    (table, costs)
}

/// One row of the offload-policy comparison.
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// Policy label.
    pub label: String,
    /// Overall test accuracy under the policy.
    pub accuracy: f64,
    /// Fraction of instances sent to the cloud.
    pub cloud_fraction: f64,
}

/// Offload-policy comparison on a trained CIFAR-like system: the paper's
/// entropy threshold, a margin rule, a β-budgeted quantile rule, and the
/// two endpoints.
pub fn ablation_policies(scale: Scale) -> (Table, Vec<PolicyRow>) {
    let TrainedSystem { mut pipeline, bundle } = helpers::cifar_system_b(scale, 7201, true);
    let mid = 0.5 * (pipeline.entropy.mean_correct + pipeline.entropy.mean_wrong) as f32;

    // Calibrate the budget on the validation split's main-exit entropies.
    let val_records = pipeline.infer_edge_only(&pipeline.val_split.clone(), 32);
    let val_entropies: Vec<f32> = val_records.iter().map(|r| r.entropy).collect();

    let policies = vec![
        (format!("entropy > {mid:.2} (paper)"), OffloadPolicy::EntropyThreshold(mid)),
        ("margin < 0.15".to_string(), OffloadPolicy::ConfidenceMargin(0.15)),
        ("budget beta=0.25".to_string(), OffloadPolicy::budgeted_from_validation(&val_entropies, 0.25)),
        ("never (edge only)".to_string(), OffloadPolicy::Never),
        ("always (cloud only)".to_string(), OffloadPolicy::Always),
    ];
    let mut rows = Vec::new();
    for (label, policy) in policies {
        let cloud = pipeline.cloud.as_mut();
        let records = run_inference_with_policy(&mut pipeline.net, cloud, &bundle.test, policy, 32);
        let accuracy = records.iter().filter(|r| r.correct).count() as f64 / records.len() as f64;
        let cloud_fraction =
            records.iter().filter(|r| r.exit == ExitPoint::Cloud).count() as f64 / records.len() as f64;
        rows.push(PolicyRow { label, accuracy, cloud_fraction });
    }
    // How trustworthy is the confidence signal all these policies read?
    // ECE of the main exit on the test set (entropy routing assumes the
    // exit knows when it is wrong).
    let edge_records = pipeline.infer_edge_only(&bundle.test, 32);
    let confidences: Vec<f32> = edge_records.iter().map(|r| (-r.entropy).exp().clamp(0.0, 1.0)).collect();
    let correctness: Vec<bool> = edge_records.iter().map(|r| r.main_prediction == r.truth).collect();
    let main_exit_ece = mea_metrics::ece(&confidences, &correctness, 10);

    let mut table = Table::new(&["policy", "accuracy (%)", "sent to cloud (%)"]);
    for r in &rows {
        table.row(&[r.label.clone(), pct(r.accuracy), pct(r.cloud_fraction)]);
    }
    table.row(&[format!("(main-exit ECE {main_exit_ece:.3})"), String::new(), String::new()]);
    (table, rows)
}

/// One row of the radio comparison.
#[derive(Debug, Clone)]
pub struct RadioRow {
    /// Radio label.
    pub label: String,
    /// Upload power (W).
    pub power_w: f64,
    /// Energy to upload one CIFAR image (mJ).
    pub cifar_mj: f64,
    /// Energy to upload one ImageNet image (mJ).
    pub imagenet_mj: f64,
}

/// WiFi vs LTE uplink energy for the paper's two image geometries — the
/// paper takes its power model from an LTE measurement study (Huang et
/// al., MobiSys'12) but deploys over WiFi; this quantifies what changes
/// on cellular.
pub fn ablation_radio() -> (Table, Vec<RadioRow>) {
    let radios = [("WiFi 18.88 Mb/s", NetworkLink::wifi_18_88()), ("LTE 5.64 Mb/s", NetworkLink::lte_5_64())];
    let cifar = paper_raw_image_bytes(3, 32, 32);
    let imagenet = paper_raw_image_bytes(3, 224, 224);
    let mut rows = Vec::new();
    for (label, link) in radios {
        rows.push(RadioRow {
            label: label.to_string(),
            power_w: link.upload_power_w(),
            cifar_mj: link.upload_energy_j(cifar) * 1e3,
            imagenet_mj: link.upload_energy_j(imagenet) * 1e3,
        });
    }
    let mut table = Table::new(&["radio", "power (W)", "CIFAR img (mJ)", "ImageNet img (mJ)"]);
    for r in &rows {
        table.row(&[
            r.label.clone(),
            format!("{:.2}", r.power_w),
            format!("{:.2}", r.cifar_mj),
            format!("{:.1}", r.imagenet_mj),
        ]);
    }
    (table, rows)
}

/// One row of the fleet-scaling experiment.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Devices in the fleet.
    pub devices: usize,
    /// Mean end-to-end latency (ms).
    pub mean_ms: f64,
    /// p95 latency (ms).
    pub p95_ms: f64,
    /// Mean cloud queueing wait (ms).
    pub cloud_wait_ms: f64,
    /// Cloud slot utilization.
    pub utilization: f64,
}

/// Fleet scaling: the routes of one trained MEANet replicated across a
/// growing device fleet sharing two cloud servers — the congestion
/// argument of the paper's introduction, quantified.
pub fn fleet_scaling(scale: Scale) -> (Table, Vec<FleetRow>) {
    let TrainedSystem { mut pipeline, bundle } = helpers::cifar_system_b(scale, 7301, true);
    let mid = 0.5 * (pipeline.entropy.mean_correct + pipeline.entropy.mean_wrong) as f32;
    let records = pipeline.infer_distributed(&bundle.test, mid, 32);
    let base_routes: Vec<ExitPoint> = records.iter().map(|r| r.exit).collect();
    let (macs_main, macs_ext, macs_cloud) = helpers::macs_profile(&pipeline.net, pipeline.cloud.as_ref());

    // The shared cloud here is a *regional* server (a few devices' worth
    // of headroom), not a hyperscale datacenter — the regime where fleet
    // growth visibly congests the offload path.
    let spec = FleetSpec::uniform(DeviceClass::new("edge", DeviceProfile::edge_jetson_like(), ComputeTier::High));
    let cfg = FleetConfig {
        cloud: DeviceProfile::new("regional server", 150.0, 2.0e10),
        link: NetworkLink::wifi_18_88(),
        cloud_servers: 2,
        macs_main,
        macs_extension_extra: macs_ext,
        macs_cloud,
        payload_bytes: paper_raw_image_bytes(3, 16, 16),
        macs_peer: 0,
        peer_payload_bytes: 0,
    };
    let frames = ArrivalModel::Uniform { interval_s: 0.002 }.generate(base_routes.len(), &mut Rng::new(0));
    let mut rows = Vec::new();
    for devices in [1usize, 2, 4, 8, 16] {
        // Rotate each device's route stream so offloads don't align.
        let routes: Vec<Vec<ExitPoint>> = (0..devices)
            .map(|d| {
                let shift = d * base_routes.len() / devices.max(1);
                base_routes.iter().cycle().skip(shift).take(base_routes.len()).copied().collect()
            })
            .collect();
        let arrivals = vec![frames.clone(); devices];
        let report = simulate_fleet(&spec, &cfg, &routes, &arrivals);
        rows.push(FleetRow {
            devices,
            mean_ms: report.mean_latency_s * 1e3,
            p95_ms: report.p95_latency_s * 1e3,
            cloud_wait_ms: report.cloud_wait_mean_s * 1e3,
            utilization: report.cloud_utilization,
        });
    }
    let mut table = Table::new(&["devices", "mean (ms)", "p95 (ms)", "cloud wait (ms)", "cloud util"]);
    for r in &rows {
        table.row(&[
            r.devices.to_string(),
            format!("{:.2}", r.mean_ms),
            format!("{:.2}", r.p95_ms),
            format!("{:.3}", r.cloud_wait_ms),
            format!("{:.2}", r.utilization),
        ]);
    }
    (table, rows)
}

/// One row of the continual-adaptation ablation.
#[derive(Debug, Clone)]
pub struct ContinualRow {
    /// Replay ratio (replayed per new instance).
    pub replay_ratio: f64,
    /// Hard-class (extension-exit) accuracy after the distribution shift.
    pub retained_accuracy: f64,
}

/// Continual adaptation: after learning all hard classes, the edge
/// collects data of just one hard class; accuracy retained on the full
/// hard test set as a function of the replay ratio (0 = paper's warned
/// failure mode, >0 = its suggested mitigation).
pub fn ablation_continual(scale: Scale) -> (Table, Vec<ContinualRow>) {
    let bundle = generate(&scale.cifar100_like(7401));
    let classes = bundle.train.num_classes;
    let mut rng = Rng::new(7401);
    let mut cfg = mea_nn::models::CifarResNetConfig::repro_scale(classes);
    cfg.input_hw = 16;
    let mut backbone = resnet_cifar_cfg(&cfg, &mut rng);
    let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(scale.epochs()));
    let sd = StateDict::from_cnn(&mut backbone);
    let dict = ClassDict::new(&(0..classes / 2).collect::<Vec<_>>());
    let hard_train = build_hard_dataset(&bundle.train, &dict);
    let hard_test = build_hard_dataset(&bundle.test, &dict);
    let shift = {
        let keep: Vec<usize> = (0..hard_train.len()).filter(|&i| hard_train.labels[i] == 0).collect();
        hard_train.subset(&keep)
    };

    let mut rows = Vec::new();
    for replay_ratio in [0.0f64, 1.0, 2.0] {
        let mut b = resnet_cifar_cfg(&cfg, &mut Rng::new(1));
        sd.apply_to_cnn(&mut b).expect("same architecture");
        let mut net = MeaNet::from_backbone(
            b,
            Variant::FullBackbone { extension_channels: 32, extension_blocks: 2 },
            Merge::Sum,
            &mut Rng::new(2),
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, dict.clone(), &mut Rng::new(3));
        let _ = train_edge_blocks(&mut net, &hard_train, &TrainConfig::repro(scale.epochs()));
        let mut buffer = ReplayBuffer::new(hard_train.len(), dict.len());
        let mut brng = Rng::new(4);
        buffer.observe(&hard_train, &mut brng);
        let _ = train_edge_continual(
            &mut net,
            &shift,
            &mut buffer,
            replay_ratio,
            &TrainConfig::repro(scale.epochs()),
            &mut brng,
        );
        let retained = extension_accuracy(&mut net, &hard_test, 32);
        rows.push(ContinualRow { replay_ratio, retained_accuracy: retained });
    }
    let mut table = Table::new(&["replay ratio", "hard-class accuracy after shift (%)"]);
    for r in &rows {
        table.row(&[format!("{:.1}", r.replay_ratio), pct(r.retained_accuracy)]);
    }
    (table, rows)
}

/// Detection-rule comparison: the paper's argmax rule vs the optional
/// trained binary detector (§III-B).
pub fn ablation_detector(scale: Scale) -> (Table, meanet::DetectorComparison) {
    let TrainedSystem { mut pipeline, bundle } = helpers::cifar_system_b(scale, 7501, false);
    let dict = pipeline.net.hard_dict().expect("trained pipeline").clone();
    let channels = pipeline.net.main_out_shape()[0];
    let mut det = HardDetector::new(channels, &mut Rng::new(7501));
    let train_split = pipeline.train_split.clone();
    let _ = det.train(&mut pipeline.net, &train_split, &dict, &TrainConfig::repro(scale.epochs()));
    let cmp = meanet::compare_detectors(&mut pipeline.net, &mut det, &bundle.test, 32);
    let mut table = Table::new(&["detection rule", "accuracy (%)"]);
    table.row(&["argmax in C_hard (paper)".to_string(), pct(cmp.argmax_accuracy)]);
    table.row(&["trained binary head".to_string(), pct(cmp.binary_accuracy)]);
    (table, cmp)
}

/// One row of the training-methods ablation.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method label.
    pub label: String,
    /// Hard-class accuracy (extension exit protocol).
    pub hard_accuracy: f64,
    /// Training memory at batch 128 (MiB).
    pub memory_mib: f64,
}

/// The paper's three multi-exit training methods (§III-A) on one system:
/// blockwise (ours), separate, and BranchyNet-style weighted joint.
pub fn ablation_training_methods(scale: Scale) -> (Table, Vec<MethodRow>) {
    let bundle = generate(&scale.cifar100_like(7601));
    let classes = bundle.train.num_classes;
    let mut rng = Rng::new(7601);
    let mut cfg = mea_nn::models::CifarResNetConfig::repro_scale(classes);
    cfg.input_hw = 16;
    let mut backbone = resnet_cifar_cfg(&cfg, &mut rng);
    let _ = train_backbone(&mut backbone, &bundle.train, &TrainConfig::repro(scale.epochs()));
    let sd = StateDict::from_cnn(&mut backbone);
    let dict = ClassDict::new(&(0..classes / 2).collect::<Vec<_>>());
    let hard_train = build_hard_dataset(&bundle.train, &dict);
    let hard_test = bundle.test.filter_classes(dict.hard_classes());
    let tc = TrainConfig::repro(scale.epochs());

    let make_net = || {
        let mut b = resnet_cifar_cfg(&cfg, &mut Rng::new(10));
        sd.apply_to_cnn(&mut b).expect("same architecture");
        let mut net = MeaNet::from_backbone(
            b,
            Variant::FullBackbone { extension_channels: 32, extension_blocks: 2 },
            Merge::Sum,
            &mut Rng::new(11),
        );
        net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, dict.clone(), &mut Rng::new(12));
        net
    };

    let mut rows = Vec::new();
    for label in ["blockwise (ours)", "separate", "joint (weighted)"] {
        let mut net = make_net();
        match label {
            "blockwise (ours)" => {
                let _ = train_edge_blocks(&mut net, &hard_train, &tc);
            }
            "separate" => {
                let _ = train_separate(&mut net, &hard_train, &bundle.train, &tc);
            }
            _ => {
                let _ = train_edge_joint_weighted(&mut net, &hard_train, &tc, 0.5, 1.0);
            }
        }
        let hard_accuracy = helpers::meanet_accuracy_on_hard(&mut net, &hard_test, 32);
        let (frozen, trained) = net.memory_parts();
        let memory_mib = if label == "blockwise (ours)" {
            mib(blockwise_bytes(&frozen, &trained, 128))
        } else {
            let all: Vec<_> = frozen.iter().chain(trained.iter()).copied().collect();
            mib(joint_bytes(&all, 128))
        };
        rows.push(MethodRow { label: label.to_string(), hard_accuracy, memory_mib });
    }
    let mut table = Table::new(&["method", "hard acc (%)", "memory @128 (MiB)"]);
    for r in &rows {
        table.row(&[r.label.clone(), pct(r.hard_accuracy), format!("{:.1}", r.memory_mib)]);
    }
    (table, rows)
}
