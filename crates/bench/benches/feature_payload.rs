//! Feature-payload serving vs raw-image offloading: the same saturating
//! high-offload trace served three ways — raw 8-bit images (the paper's
//! baseline), f32 activations at the online-planned cut, and int8
//! activations at the deepest cut — comparing bytes on the wire, cloud
//! recompute, and service time.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[feature_payload] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("feature_payload");
    let result = serving::feature_payload(Scale::from_env());

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
    rep.finish();
}
