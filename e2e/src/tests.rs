//! One trained system, every workload: the frozen configurations build a
//! `Fleet`, a served chunk verifies clean, and tampering with a report is
//! caught.

use crate::system::System;
use crate::traffic::Traffic;
use crate::verify::Reference;
use crate::workload::{Path, WORKLOADS};
use meanet::infer::ExitPoint;

#[test]
fn every_workload_builds_a_fleet_and_serves_a_verified_chunk() {
    let mut system = System::train();
    // The recipe must leave all three exits populated at every workload's
    // threshold, or a per-exit p50 would have nothing to report.
    for w in &WORKLOADS {
        let mut fleet = system.fleet(w);
        let reference = Reference::sweep(&mut system, w);
        let mut traffic = Traffic::new(5, system.pool.len());
        let chunk = traffic.paced(&system.pool, 160, 400.0);
        let report = fleet.serve(&chunk.requests).expect("generated traces are well-formed");
        let failed = reference.failures(&chunk, &report);
        assert!(failed.iter().all(|f| !f), "{}: {} requests failed verification", w.name, failed.len());
        for exit in [ExitPoint::Main, ExitPoint::Extension, ExitPoint::Cloud] {
            let n = report.records.iter().filter(|r| r.exit == exit).count();
            assert!(n >= 4, "{}: only {n} of 160 requests took the {exit:?} exit", w.name);
        }
        // What `workload.rs` and the README say the closed-loop planner
        // does on this network: it keeps cut 0 and never replans.
        if w.path == Path::WifiClosedLoop {
            assert_eq!(report.stats.final_cuts, Some(vec![0]), "the planner left cut 0");
            assert_eq!(report.stats.cut_replans, 0, "the planner replanned");
        }

        // A record that differs from the offline sweep fails its request.
        let mut wrong = report.clone();
        wrong.records[3].prediction = (wrong.records[3].prediction + 1) % 6;
        let failed = reference.failures(&chunk, &wrong);
        assert_eq!(failed.iter().filter(|&&f| f).count(), 1, "{}: exactly the tampered record fails", w.name);
        assert!(failed[3]);

        // A missing completion and a doubled one both fail.
        let mut missing = report.clone();
        let dropped = missing.completions.remove(0).req_id;
        assert!(reference.failures(&chunk, &missing)[dropped]);
        let mut doubled = report.clone();
        doubled.completions.push(doubled.completions[0]);
        assert!(reference.failures(&chunk, &doubled)[doubled.completions[0].req_id]);

        // Two completions of one device's stream out of order fail.
        let mut reordered = report.clone();
        let first = reordered.completions[0];
        let same_stream = |c: &mea_edgecloud::serve::Completion| {
            c.device == first.device
                && (c.record.exit == ExitPoint::Cloud) == (first.record.exit == ExitPoint::Cloud)
        };
        let later = (1..reordered.completions.len())
            .find(|&i| same_stream(&reordered.completions[i]))
            .expect("160 requests over 8 devices repeat a stream");
        reordered.completions.swap(0, later);
        assert!(reference.failures(&chunk, &reordered).iter().any(|&f| f), "{}: order break undetected", w.name);
    }
}

#[test]
fn thresholds_offload_the_calibrated_share_of_the_pool() {
    let system = System::train();
    for w in &WORKLOADS {
        let t = system.threshold(w.beta);
        let offloaded = system.edge_only.iter().filter(|r| r.entropy > t).count() as f64;
        let share = offloaded / system.pool.len() as f64;
        assert!((share - w.beta).abs() < 0.01, "{}: threshold offloads {share:.3}, wanted {}", w.name, w.beta);
    }
}
