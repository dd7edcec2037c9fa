//! Real-wire transport parity and measured closed-loop replanning: the
//! same traces cross the deterministic modelled wire and a real Unix
//! socket. Routing outcomes (records, bytes, cuts) gate as
//! exact invariants — the transport may only change where the time comes
//! from — while wall-clock service times gate as banded `_ms` latencies.
//! The closed loop's link estimates come from `Instant::now()` deltas, so
//! they must vary run-to-run (within a band around the throttled rate)
//! and move the planned cut without the static model being told.

use mea_bench::experiments::serving;
use mea_bench::regression::Reporter;
use mea_bench::Scale;
use mea_metrics::Table;

fn main() {
    println!("[real_transport] {}", mea_bench::pin::pin_for_timing());
    let mut rep = Reporter::start("real_transport");
    let result = serving::real_transport(Scale::from_env());

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
    rep.finish();
}
