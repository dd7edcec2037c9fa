//! The measured run: a warm-up chunk, then rounds of one saturated chunk
//! followed by one paced window, each round's trace built just before it
//! and dropped right after, keeping only counts and `f32` latencies.

use crate::procfs::{self, CpuTime};
use crate::stats::{median, percentile};
use crate::system::System;
use crate::traffic::{Chunk, Traffic};
use crate::verify::Reference;
use crate::workload::{Workload, ROUNDS};
use crate::{alloc, layers};
use mea_edgecloud::serve::{Fleet, ServeReport, ServeStats};
use meanet::infer::ExitPoint;
use std::time::Instant;

/// Position of an exit in per-exit arrays: main, extension, cloud.
pub fn exit_index(exit: ExitPoint) -> usize {
    match exit {
        ExitPoint::Main => 0,
        ExitPoint::Extension => 1,
        ExitPoint::Cloud => 2,
    }
}

/// Requests sent and failed in one phase of the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCount {
    /// Requests handed to the runtime.
    pub attempted: u64,
    /// Requests that failed verification or got no completion.
    pub failed: u64,
}

/// Latencies of one exit's paced completions, in ms.
#[derive(Debug, Default)]
pub struct ExitLatency {
    samples: Vec<f32>,
}

impl ExitLatency {
    /// Completions pooled.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The pooled latencies (ms).
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Nearest-rank percentile of the pool (sorts it).
    ///
    /// # Panics
    ///
    /// Panics when the exit completed nothing: every frozen workload sends
    /// traffic through all three exits.
    pub fn percentile_ms(&mut self, q: f64, exit: &str) -> f64 {
        assert!(!self.samples.is_empty(), "no paced completions at the {exit} exit");
        percentile(&mut self.samples, q)
    }
}

/// Counters summed over one phase's `ServeStats`.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseStats {
    /// Requests the cloud classified.
    pub offloaded: u64,
    /// Coalesced cloud batches.
    pub cloud_batches: u64,
    /// Bytes the cloud tier received.
    pub bytes_to_cloud: u64,
    /// Multiply-adds the cloud tier ran.
    pub cloud_macs: u64,
    /// Batches assembled from another worker's shard.
    pub steals: u64,
    /// Replans that changed a cut.
    pub cut_replans: u64,
    /// Deepest ingress backlog seen.
    pub max_queue_depth: usize,
}

impl PhaseStats {
    fn add(&mut self, s: &ServeStats) {
        self.offloaded += s.offloaded as u64;
        self.cloud_batches += s.cloud_batches;
        self.bytes_to_cloud += s.bytes_to_cloud;
        self.cloud_macs += s.cloud_macs;
        self.steals += s.steals;
        self.cut_replans += s.cut_replans;
        self.max_queue_depth = self.max_queue_depth.max(s.max_queue_depth);
    }

    /// Mean coalesced batch size (0 when nothing was offloaded).
    pub fn mean_batch(&self) -> f64 {
        if self.cloud_batches == 0 {
            0.0
        } else {
            self.offloaded as f64 / self.cloud_batches as f64
        }
    }
}

/// Everything the measured rounds produce.
#[derive(Debug, Default)]
pub struct Measured {
    /// Warm-up chunk counts (served and verified, never timed).
    pub warm: PhaseCount,
    /// Saturated chunks.
    pub saturated: PhaseCount,
    /// Paced windows.
    pub paced: PhaseCount,
    /// Requests per wall second of each saturated chunk.
    pub round_rps: Vec<f64>,
    /// Process CPU time summed over the saturated chunks.
    pub sat_cpu: CpuTime,
    /// Process CPU ms per request over all paced windows: batch-1 work,
    /// like the serial replay it is compared with.
    pub paced_cpu_ms_per_req: f64,
    /// Wall past the last arrival of each paced window (ms).
    pub round_drain_ms: Vec<f64>,
    /// The host reference loop, once per round (ms).
    pub round_ref_loop_ms: Vec<f64>,
    /// Paced main-exit latencies.
    pub main: ExitLatency,
    /// Paced extension-exit latencies.
    pub extension: ExitLatency,
    /// Paced cloud latencies.
    pub cloud: ExitLatency,
    /// Paced requests that completed, verified, within their exit's limit.
    pub slo_met: u64,
    /// Records whose prediction was right, all measured rounds.
    pub correct_records: u64,
    /// Main, extension and cloud exits, all measured rounds.
    pub exits: [u64; 3],
    /// Saturated-phase counters.
    pub sat_stats: PhaseStats,
    /// Paced-phase counters.
    pub paced_stats: PhaseStats,
    /// The cut device class 0 ended the last round on (0 with image
    /// payloads).
    pub final_cut: usize,
    /// Allocator calls during saturated chunks (traced runs only).
    pub alloc_calls: u64,
    /// Allocator bytes during saturated chunks (traced runs only).
    pub alloc_bytes: u64,
}

impl Measured {
    /// Requests of the measured rounds (warm-up excluded).
    pub fn measured_attempted(&self) -> u64 {
        self.saturated.attempted + self.paced.attempted
    }

    /// Median saturated throughput over rounds (1/s).
    pub fn throughput_rps(&self) -> f64 {
        median(&self.round_rps)
    }

    /// Process CPU ms per saturated request: the CPU time of all twelve
    /// chunks over all their requests. `/proc/self/stat` counts in 10 ms
    /// ticks, which one chunk resolves to a few per cent and the sum to a
    /// few per mille.
    pub fn cpu_ms_per_req(&self) -> f64 {
        1e3 * self.sat_cpu.total_s() / self.saturated.attempted as f64
    }

    /// Kernel share of the saturated chunks' CPU time (0 for a run too
    /// short to use one clock tick).
    pub fn sys_cpu_share(&self) -> f64 {
        let total_s = self.sat_cpu.total_s();
        if total_s > 0.0 {
            self.sat_cpu.sys_s / total_s
        } else {
            0.0
        }
    }

    fn tally_records(&mut self, report: &ServeReport) {
        for r in &report.records {
            self.correct_records += u64::from(r.correct);
            self.exits[exit_index(r.exit)] += 1;
        }
    }
}

/// Serves one chunk and returns the report with the wall and CPU time the
/// call took, or `None` when the runtime rejected the trace.
fn serve_timed(fleet: &mut Fleet, chunk: &Chunk) -> (Option<ServeReport>, f64, CpuTime) {
    let cpu0 = procfs::cpu_time();
    let t0 = Instant::now();
    let report = fleet.serve(&chunk.requests);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = procfs::cpu_time().since(&cpu0);
    if let Err(e) = &report {
        eprintln!("serve rejected a generated trace: {e}");
    }
    (report.ok(), wall_s, cpu)
}

/// Verifies a served chunk into `count`, returning the per-request failure
/// flags (all failed when the runtime returned no report).
fn account(
    reference: &Reference,
    chunk: &Chunk,
    report: Option<&ServeReport>,
    count: &mut PhaseCount,
) -> Vec<bool> {
    let failed = match report {
        Some(r) => reference.failures(chunk, r),
        None => vec![true; chunk.requests.len()],
    };
    count.attempted += failed.len() as u64;
    count.failed += failed.iter().filter(|&&f| f).count() as u64;
    failed
}

/// Runs the warm-up and the measured rounds of one workload.
pub fn run(
    workload: &Workload,
    system: &System,
    fleet: &mut Fleet,
    reference: &Reference,
    seed: u64,
    seconds: f64,
    count_allocs: bool,
) -> Measured {
    let mut traffic = Traffic::new(seed, system.pool.len());
    let mut m = Measured::default();
    let n_sat = workload.saturated_requests(seconds);
    let n_paced = workload.paced_requests(seconds);

    // Unmeasured warm-up: first-touch page faults, lazy initialisation and
    // allocator growth happen here, and the chunk is verified like any
    // other.
    let warm = traffic.saturated(&system.pool, n_sat);
    let (report, _, _) = serve_timed(fleet, &warm);
    account(reference, &warm, report.as_ref(), &mut m.warm);
    drop(warm);

    let mut paced_cpu_s = 0.0;
    println!("round  sat 1/s  sat cpu ms/req  paced p50 ms main / extension / cloud  drain ms  ref loop ms");
    for round in 0..ROUNDS {
        let ref_loop_ms = layers::host_ref_loop_ms();
        m.round_ref_loop_ms.push(ref_loop_ms);

        // Saturated chunk (closed loop): everything due at 0.
        let chunk = traffic.saturated(&system.pool, n_sat);
        let allocs0 = alloc::counted();
        alloc::set_counting(count_allocs);
        let (report, wall_s, cpu) = serve_timed(fleet, &chunk);
        alloc::set_counting(false);
        let allocs1 = alloc::counted();
        m.alloc_calls += allocs1.0 - allocs0.0;
        m.alloc_bytes += allocs1.1 - allocs0.1;
        let (rps, sat_cpu_ms) = (n_sat as f64 / wall_s, 1e3 * cpu.total_s() / n_sat as f64);
        m.round_rps.push(rps);
        m.sat_cpu.user_s += cpu.user_s;
        m.sat_cpu.sys_s += cpu.sys_s;
        account(reference, &chunk, report.as_ref(), &mut m.saturated);
        if let Some(r) = &report {
            m.sat_stats.add(&r.stats);
            m.tally_records(r);
        }
        drop((chunk, report));

        // Paced window (open loop): latency counts from the due time.
        let chunk = traffic.paced(&system.pool, n_paced, workload.paced_hz);
        let last_arrival_s = chunk.requests.last().map_or(0.0, |r| r.arrival_s);
        let (report, wall_s, cpu) = serve_timed(fleet, &chunk);
        paced_cpu_s += cpu.total_s();
        let drain_ms = 1e3 * (wall_s - last_arrival_s);
        m.round_drain_ms.push(drain_ms);
        let window_start = [m.main.count(), m.extension.count(), m.cloud.count()];
        let failed = account(reference, &chunk, report.as_ref(), &mut m.paced);
        if let Some(r) = &report {
            m.paced_stats.add(&r.stats);
            m.tally_records(r);
            m.final_cut = r.stats.final_cuts.as_ref().map_or(0, |cuts| cuts[0]);
            for c in &r.completions {
                let ms = 1e3 * c.latency_s;
                let (pool, limit_ms) = match c.record.exit {
                    ExitPoint::Main => (&mut m.main, workload.local_limit_ms),
                    ExitPoint::Extension => (&mut m.extension, workload.local_limit_ms),
                    ExitPoint::Cloud => (&mut m.cloud, workload.cloud_limit_ms),
                };
                pool.samples.push(ms as f32);
                if ms <= limit_ms && !failed.get(c.req_id).copied().unwrap_or(true) {
                    m.slo_met += 1;
                }
            }
        }
        // One line per round: a run whose rounds fall into two groups was
        // measured on a host (or a scheduler) that changed state under it.
        let window_p50 = |pool: &ExitLatency, from: usize| {
            let mut window = pool.samples[from..].to_vec();
            if window.is_empty() {
                f64::NAN
            } else {
                percentile(&mut window, 0.50)
            }
        };
        println!(
            "{:>5} {rps:>8.1} {sat_cpu_ms:>15.4} {:>23.4} / {:>9.4} / {:>5.4} {drain_ms:>9.2} {ref_loop_ms:>12.3}",
            round + 1,
            window_p50(&m.main, window_start[0]),
            window_p50(&m.extension, window_start[1]),
            window_p50(&m.cloud, window_start[2]),
        );
    }
    m.paced_cpu_ms_per_req = 1e3 * paced_cpu_s / (ROUNDS * n_paced) as f64;
    m
}
