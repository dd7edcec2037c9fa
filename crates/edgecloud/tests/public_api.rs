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
    has::<ec::ClassStats>();
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
    has::<ec::RequestFrame>();
    has::<ec::ResponseFrame>();
    has::<ec::TransportKind>();
    // Two wires (an exhaustive match) and the socket's three settings (a
    // struct literal naming every field): a new variant or field fails
    // to compile here.
    let wire = |kind: &ec::TransportKind| match kind {
        ec::TransportKind::Modelled => "modelled",
        #[cfg(unix)]
        ec::TransportKind::Uds(_) => "uds",
    };
    assert_eq!(wire(&ec::TransportKind::default()), "modelled");
    #[cfg(unix)]
    {
        has::<ec::UdsTransport>();
        let cfg = ec::UdsConfig { window_bytes: 256 * 1024, up_mbps: None, throttle: Vec::new() };
        assert_eq!(cfg, ec::UdsConfig::default(), "a 256 KiB window, unpaced, no throttle");
        let throttle = vec![ec::PaceChange { after_frames: 8, up_mbps: 1.0 }];
        assert_eq!(wire(&ec::TransportKind::Uds(ec::UdsConfig { up_mbps: Some(50.0), throttle, ..cfg })), "uds");
    }

    // `Transport` is a trait: name it in bound position.
    fn bound<T: ec::Transport>() {}
    let _ = bound::<ec::ModelledTransport>;
    #[cfg(unix)]
    let _ = bound::<ec::UdsTransport>;
}

#[test]
fn crate_root_fn_signatures_are_stable() {
    // The one serving entry point: `Fleet::new` checks the replicas once,
    // `Fleet::serve_with` checks each trace and hands every completion to
    // a sink as it settles, and `Fleet::serve` is `serve_with` collecting
    // a report. `serve_with` takes `impl FnMut(Completion)`, which cannot
    // be named as a fn pointer, so it is pinned through a closure with
    // the exact argument and return types.
    let _: fn(ec::ServeConfig, Vec<ec::EdgeReplica>, Vec<SegmentedCnn>) -> Result<ec::Fleet, ec::ServeError> =
        ec::Fleet::new;
    let _: fn(&mut ec::Fleet, &[ec::ServeRequest]) -> Result<ec::ServeReport, ec::ServeError> = ec::Fleet::serve;
    let _: fn(&mut ec::Fleet, &[ec::ServeRequest], fn(ec::Completion)) -> Result<ec::ServeStats, ec::ServeError> =
        |fleet, requests, sink| fleet.serve_with(requests, sink);
    // The per-class breakdown is one field of one type, folded as
    // completions settle.
    let _: fn(&ec::ServeStats) -> &Option<Vec<ec::ClassStats>> = |stats| &stats.per_class;
    let _: fn(&ec::ClassStats) -> (usize, usize, &Option<mea_metrics::StreamingHistogram>) =
        |class| (class.served, class.offloaded, &class.latency);
    // How late each request left the dispatcher, one signed sample per
    // request in a bounded histogram.
    let _: fn(&ec::ServeStats) -> &mea_metrics::StreamingHistogram = |stats| &stats.dispatch_lateness;
    let _: fn(&Dataset, usize, &ec::ArrivalModel, &mut Rng) -> Vec<ec::ServeRequest> = ec::trace_requests;

    // Partition search.
    let _: fn(&SegmentedCnn) -> Vec<ec::LayerProfile> = ec::profile_network;
    let _: fn(&[ec::LayerProfile], &ec::PartitionEnv) -> Vec<ec::CutCost> = ec::sweep_cuts;
    let _: fn(&[ec::LayerProfile], &ec::PartitionEnv, ec::Objective) -> ec::CutCost = ec::best_cut;
    let _: f64 = ec::MEASURED_PRIOR_SAMPLES;

    // Payload helpers.
    let _: fn(&Tensor) -> Vec<f32> = ec::channel_absmax;

    // The fleet simulator: one entry point, devices from the spec and
    // explicit per-device arrivals.
    let _: fn(&ec::FleetSpec, &ec::FleetConfig, &[Vec<ExitPoint>], &[Vec<f64>]) -> ec::FleetReport =
        ec::simulate_fleet;
}

/// The whole steering vocabulary: every `ControlPlan` variant with its
/// exact field names and types, each held by the `ServeConfig` built
/// with it.
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
    let builder = || ec::ServeConfig::builder(meanet::OffloadPolicy::Always).link(link);
    let unsteered = builder().build().expect("the default builds");
    for plan in plans {
        let cfg = builder().control(plan.clone()).build().expect("every variant builds");
        assert_eq!(cfg == unsteered, plan == ec::ControlPlan::default(), "the config holds {plan:?}");
    }
}

#[test]
fn serve_module_surface_survived_the_decomposition() {
    // Items that were public on the old `serve.rs` monolith but are not
    // re-exported at the crate root: still reachable at their historical
    // `mea_edgecloud::serve::` paths. (`serve::CloudIngress` was removed
    // on purpose: the cloud workers share one ingress queue, so there is
    // no pickup path left to choose.)
    let _: u64 = ec::serve::RESPONSE_WIRE_BYTES;
}
