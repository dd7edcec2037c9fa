//! Correctness of every served chunk: exactly one completion per request,
//! per-device order, and records equal to the offline Algorithm-2 sweep.

use crate::system::{System, SWEEP_BATCH};
use crate::traffic::Chunk;
use crate::workload::{Path, Workload};
use mea_edgecloud::serve::ServeReport;
use meanet::infer::{run_inference_with_payload, ExitPoint, InstanceRecord};
use meanet::OffloadPolicy;
use std::collections::HashMap;

/// What the record of each pool image must be, from the sequential
/// offline sweep over the pool.
#[derive(Debug)]
pub struct Reference {
    /// The record when the request exits locally (`None`: the threshold is
    /// fixed, so `offloaded` is the whole record and the exit must match).
    local: Option<Vec<InstanceRecord>>,
    /// The sweep at the workload's threshold — or, where a controller
    /// moves the threshold, with everything offloaded.
    offloaded: Vec<InstanceRecord>,
}

impl Reference {
    /// Runs the matching offline sweep. On the static workloads that is
    /// `meanet::infer` at the calibrated threshold with the workload's
    /// payload, and served records must equal it bit for bit. Where the
    /// controller moves the threshold the exit of a request depends on
    /// the window it fell in, so the check is the strongest one that
    /// holds for any threshold: whichever exit the runtime took, the
    /// record must equal the offline record *for that exit*.
    pub fn sweep(system: &mut System, workload: &Workload) -> Reference {
        let moving = workload.path == Path::WifiClosedLoop;
        let policy = if moving {
            OffloadPolicy::Always
        } else {
            OffloadPolicy::EntropyThreshold(system.threshold(workload.beta))
        };
        let (offloaded, _) = run_inference_with_payload(
            &mut system.pipe.net,
            system.pipe.cloud.as_mut(),
            &system.pool,
            policy,
            SWEEP_BATCH,
            workload.sweep_payload(),
        );
        Reference { local: moving.then(|| system.edge_only.clone()), offloaded }
    }

    fn expects(&self, instance: usize, served: &InstanceRecord) -> bool {
        match &self.local {
            Some(local) if served.exit != ExitPoint::Cloud => *served == local[instance],
            _ => *served == self.offloaded[instance],
        }
    }

    /// One flag per request of the chunk, `true` where the request failed:
    /// no completion or more than one, a completion that broke its
    /// device's order, or a record that differs from the reference.
    pub fn failures(&self, chunk: &Chunk, report: &ServeReport) -> Vec<bool> {
        let n = chunk.requests.len();
        let mut completions = vec![0usize; n];
        let mut failed = vec![false; n];
        // Local exits leave a device's edge worker in order and cloud
        // exits leave the reorder gate in order; the two streams are not
        // ordered against each other.
        let mut last_seq: HashMap<(usize, bool), usize> = HashMap::new();
        for c in &report.completions {
            if c.req_id >= n {
                continue;
            }
            completions[c.req_id] += 1;
            let stream = (c.device, c.record.exit == ExitPoint::Cloud);
            if last_seq.insert(stream, c.seq).is_some_and(|prev| c.seq <= prev) {
                failed[c.req_id] = true;
            }
        }
        for i in 0..n {
            let record_ok = report.records.get(i).is_some_and(|r| self.expects(chunk.instance_of[i], r));
            failed[i] |= completions[i] != 1 || !record_ok;
        }
        failed
    }
}
