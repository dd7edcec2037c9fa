//! Snapshot of the `mea_edgecloud` public API surface.
//!
//! The serve monolith was decomposed into `serve/{config, edge, cloud,
//! collect, stats}` and the two-tier cut generalised into N-stage
//! placement plans; this test is the proof that neither refactor moved
//! or renamed anything callers depend on. PR 15 then removed the legacy
//! payload/cut configuration types and the free `serve` shim on purpose
//! (README's "Removed in PR 15" list names each with its replacement)
//! and pins the six `ControlPlan` variants by construction below. Every
//! crate-root re-export is referenced by name (removal or rename breaks
//! compilation right here, with the missing item in the error), and the
//! workhorse entry points are pinned to their *exact* signatures through
//! typed function pointers — so even a parameter-type change is caught,
//! not just a deletion.

// Pinning exact signatures means writing the full function-pointer
// types out — aliasing them away would defeat the snapshot.
#![allow(clippy::type_complexity)]

use mea_data::Dataset;
use mea_edgecloud as ec;
use mea_nn::models::SegmentedCnn;
use mea_tensor::{Rng, Tensor};
use meanet::ExitPoint;
use std::time::Duration;

/// References `T` in type position: instantiating this is the snapshot
/// assertion that the type still exists under its re-exported name.
fn has<T>() {}

#[test]
fn crate_root_type_reexports_are_stable() {
    // cost
    has::<ec::CostBreakdown>();
    has::<ec::CostParams>();
    has::<ec::Strategy>();
    // device / energy
    has::<ec::DeviceProfile>();
    has::<ec::EnergyReport>();
    has::<ec::PerImageCosts>();
    // fleet
    has::<ec::ComputeTier>();
    has::<ec::CoopGroup>();
    has::<ec::DeviceClass>();
    has::<ec::FleetConfig>();
    has::<ec::FleetReport>();
    has::<ec::FleetSpec>();
    // governor
    has::<ec::AccuracyModel>();
    has::<ec::ControlPoint>();
    has::<ec::Governor>();
    has::<ec::GovernorConfig>();
    has::<ec::SlaTarget>();
    // network
    has::<ec::LinkEstimate>();
    has::<ec::LinkEstimator>();
    has::<ec::NetworkLink>();
    has::<ec::UploadPowerModel>();
    // partition
    has::<ec::CutCost>();
    has::<ec::CutPlanner>();
    has::<ec::LayerProfile>();
    has::<ec::Objective>();
    has::<ec::PartitionEnv>();
    has::<ec::PeerPool>();
    has::<ec::PlacementCost>();
    has::<ec::PlacementPlan>();
    has::<ec::SlaObjective>();
    has::<ec::Stage>();
    has::<ec::StageExecutor>();
    // payload
    has::<ec::ActivationGrids>();
    has::<ec::Payload>();
    // serve
    has::<ec::Completion>();
    has::<ec::ControlPlan>();
    has::<ec::ControllerConfig>();
    has::<ec::CutPlannerConfig>();
    has::<ec::EdgeReplica>();
    has::<ec::FeatureWire>();
    has::<ec::Fleet>();
    has::<ec::LinkChange>();
    has::<ec::LinkFeedback>();
    has::<ec::ServeConfig>();
    has::<ec::ServeConfigBuilder>();
    has::<ec::ServeConfigError>();
    has::<ec::ServeError>();
    has::<ec::ServeReport>();
    has::<ec::ServeRequest>();
    has::<ec::ServeStats>();
    has::<ec::WireFormat>();
    // traces
    has::<ec::ArrivalModel>();
    // transport
    has::<ec::ModelledTransport>();
    has::<ec::PaceChange>();
    has::<ec::PipeConfig>();
    has::<ec::PipeTransport>();
    has::<ec::RequestFrame>();
    has::<ec::ResponseFrame>();
    has::<ec::TransportKind>();
    #[cfg(unix)]
    has::<ec::UdsConfig>();
    #[cfg(unix)]
    has::<ec::UdsTransport>();

    // `Transport` is a trait: name it in bound position.
    fn bound<T: ec::Transport>() {}
    let _ = bound::<ec::ModelledTransport>;
    let _ = bound::<ec::PipeTransport>;
    #[cfg(unix)]
    let _ = bound::<ec::UdsTransport>;
}

#[test]
fn crate_root_fn_signatures_are_stable() {
    // The serving entry points: the decomposition of `serve.rs` into
    // submodules must not have moved or retyped them.
    let _: fn(
        &ec::ServeConfig,
        &mut [ec::EdgeReplica],
        &mut [SegmentedCnn],
        &[ec::ServeRequest],
    ) -> Result<ec::ServeReport, ec::ServeError> = ec::try_serve;
    let _: fn(&Dataset, usize, &ec::ArrivalModel, &mut Rng) -> Vec<ec::ServeRequest> = ec::trace_requests;

    // Partition search.
    let _: fn(&SegmentedCnn) -> Vec<ec::LayerProfile> = ec::profile_network;
    let _: fn(&[ec::LayerProfile], &ec::PartitionEnv) -> Vec<ec::CutCost> = ec::sweep_cuts;
    let _: fn(&[ec::LayerProfile], &ec::PartitionEnv, ec::Objective) -> ec::CutCost = ec::best_cut;
    let _: f64 = ec::MEASURED_PRIOR_SAMPLES;

    // Payload helpers.
    let _: fn(&Tensor) -> Vec<f32> = ec::channel_absmax;

    // Fleet simulators.
    let _: fn(&ec::FleetConfig, &[Vec<ExitPoint>]) -> ec::FleetReport = ec::simulate_fleet;
    let _: fn(&ec::FleetConfig, &[Vec<ExitPoint>], &[Vec<f64>]) -> ec::FleetReport =
        ec::simulate_fleet_with_arrivals;
    let _: fn(&ec::FleetSpec, &ec::FleetConfig, &[Vec<ExitPoint>]) -> ec::FleetReport = ec::simulate_fleet_spec;
    let _: fn(&ec::FleetSpec, &ec::FleetConfig, &[Vec<ExitPoint>], &[Vec<f64>]) -> ec::FleetReport =
        ec::simulate_fleet_spec_with_arrivals;
}

/// The whole steering vocabulary: every `ControlPlan` variant with its
/// exact field names and types, and `ServeConfig::control` holding one
/// directly.
#[test]
fn control_plan_variants_are_pinned_by_construction() {
    let controller: Option<ec::ControllerConfig> = None;
    let planner = || ec::CutPlannerConfig {
        classes: vec![ec::DeviceProfile::edge_gpu_cifar()],
        cloud: ec::DeviceProfile::cloud_accelerator(),
        objective: ec::Objective::Latency,
        feedback: None,
    };
    let link = ec::NetworkLink::wifi(10.0);
    let plans = [
        ec::ControlPlan::Image { wire: ec::WireFormat::Float32, controller },
        ec::ControlPlan::Static { cut: 1, wire: ec::FeatureWire::Int8, controller },
        ec::ControlPlan::Placement {
            plan: ec::PlacementPlan::three_stage(1, 2, 0, 3),
            wire: ec::FeatureWire::F32,
            controller,
        },
        ec::ControlPlan::OpenLoop { planner: planner(), wire: ec::FeatureWire::F32, controller },
        ec::ControlPlan::ClosedLoop {
            planner: planner(),
            feedback: ec::LinkFeedback::default(),
            wire: ec::FeatureWire::PerChannelInt8,
            controller,
        },
        ec::ControlPlan::Governed(ec::SlaTarget::new(50.0, 0.9)),
    ];
    assert_eq!(plans[0], ec::ControlPlan::default(), "the default ships lossless images, unsteered");
    for plan in plans {
        let cfg = ec::ServeConfig::builder(meanet::OffloadPolicy::Always)
            .link(link)
            .control(plan.clone())
            .build()
            .expect("every variant builds");
        let held: &ec::ControlPlan = &cfg.control;
        assert_eq!(held, &plan);
    }
}

#[test]
fn serve_module_surface_survived_the_decomposition() {
    // Items that were public on the old `serve.rs` monolith but are not
    // re-exported at the crate root: still reachable at their historical
    // `mea_edgecloud::serve::` paths.
    has::<ec::serve::CloudIngress>();
    let _: u64 = ec::serve::RESPONSE_WIRE_BYTES;

    // The generic pipeline entry point takes an `impl Fn` classifier, so
    // it is pinned by calling it (an empty run terminates immediately)
    // rather than by a function-pointer cast.
    let (preds, stats) = ec::serve::run_payload_pipeline(
        &ec::TransportKind::Modelled,
        Vec::new(),
        1,
        1,
        Duration::from_millis(1),
        1,
        |_| 0usize,
    );
    assert_eq!(stats.payloads, 0);
    assert!(preds.is_empty());
}
