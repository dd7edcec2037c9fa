//! Cooperative edge splitting through the `Fleet` API: the same Low-tier
//! device class served solo (two-stage edge→cloud plans only) and pooled
//! into a 3-member cooperative group, where pooled peer throughput lets
//! the planner insert a peer stage, push the final cut deeper and shrink
//! the WAN upload. The planned placement shape, peer-hop count and
//! bytes-per-hop gate as exact invariants; both runs must produce
//! bitwise-identical records (f32 wire), and the cooperative run must
//! beat the solo run on wall-clock service time (`_ms`, banded).

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[coop_edge] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("coop_edge");
    let result = serving::coop_edge(Scale::from_env());

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
    rep.finish();
}
