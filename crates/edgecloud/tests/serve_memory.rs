//! The allocator's view of a served run: the runtime holds only what is
//! in flight. Serving ten times as many requests must not raise the
//! heap's high-water mark by more than a fixed constant — no buffer in
//! the runtime may be sized by, or grow with, the trace.
//!
//! This test binary installs a counting `#[global_allocator]`. Serving
//! allocates and frees on many threads, so the live and peak counts are
//! process-wide atomics; the binary holds this one test so that nothing
//! else allocates while it measures.

use mea_data::{presets, ClassDict};
use mea_edgecloud::serve::{EdgeReplica, Fleet, ServeConfig, ServeRequest};
use mea_nn::models::{resnet_cifar, CifarResNetConfig, SegmentedCnn};
use mea_tensor::Rng;
use meanet::model::{AdaptivePlan, MeaNet, Merge, Variant};
use meanet::{ExitPoint, OffloadPolicy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Bytes allocated and not yet freed, over every thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`; the only added
// work is arithmetic on static atomics, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller's contract for `alloc` is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: as for `dealloc`, and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn tiny_net(seed: u64) -> MeaNet {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    let backbone = resnet_cifar(&cfg, &mut rng);
    let mut net = MeaNet::from_backbone(
        backbone,
        Variant::FullBackbone { extension_channels: 8, extension_blocks: 1 },
        Merge::Sum,
        &mut rng,
    );
    net.attach_edge_blocks(AdaptivePlan::DepthwiseSeparable, ClassDict::new(&[0, 2, 4]), &mut rng);
    net
}

fn tiny_cloud(seed: u64) -> SegmentedCnn {
    let mut rng = Rng::new(seed);
    let mut cfg = CifarResNetConfig::repro_scale(6);
    cfg.input_hw = 8;
    cfg.channels = [16, 24, 32];
    resnet_cifar(&cfg, &mut rng)
}

const DEVICES: usize = 8;

/// `n` requests that all arrive at once, cycling over the tiny test set
/// from [`DEVICES`] devices.
fn instant_requests(n: usize) -> Vec<ServeRequest> {
    let data = presets::tiny(90).test;
    (0..n)
        .map(|i| {
            let k = i % data.len();
            ServeRequest {
                device: i % DEVICES,
                seq: i / DEVICES,
                arrival_s: 0.0,
                image: data.images.slice_axis0(k, k + 1),
                truth: data.labels[k],
            }
        })
        .collect()
}

/// Serves `n` instant requests through `serve_with` with a sink that only
/// counts. Returns the heap high-water above the live bytes at the call,
/// and the offloads seen.
fn serve_peak(fleet: &mut Fleet, n: usize) -> (usize, usize) {
    let requests = instant_requests(n);
    let (mut settled, mut offloads) = (0, 0);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let stats = fleet
        .serve_with(&requests, |c| {
            settled += 1;
            offloads += usize::from(c.record.exit == ExitPoint::Cloud);
        })
        .expect("a well-formed trace");
    let above = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!((settled, stats.total, stats.offloaded), (n, n, offloads));
    (above, offloads)
}

/// What the high-water may differ by between the two trace sizes: how
/// many completions and offloads happen to be in flight at the peak is
/// up to the scheduler, but never up to the trace length.
const SLACK_BYTES: usize = 256 << 10;

#[test]
fn serving_holds_only_what_is_in_flight() {
    const N: usize = 1_000;
    let cfg = ServeConfig::builder(OffloadPolicy::EntropyThreshold(0.5))
        .edge_workers(2)
        .cloud_workers(1)
        .max_batch(4)
        .build()
        .expect("valid config");
    let edges = (0..2).map(|_| EdgeReplica::new(tiny_net(31))).collect();
    let mut fleet = Fleet::new(cfg, edges, vec![tiny_cloud(32)]).expect("consistent replicas");
    // One warm run first: the first run's one-off allocations (lazy
    // statics, the matmul build) are not the runtime's per-request state.
    serve_peak(&mut fleet, N);
    let (small, small_offloads) = serve_peak(&mut fleet, N);
    let (large, large_offloads) = serve_peak(&mut fleet, 10 * N);
    println!(
        "heap high-water above the call: {small} B serving {N} ({small_offloads} offloaded), \
         {large} B serving {} ({large_offloads} offloaded)",
        10 * N
    );
    assert!(small_offloads > 0 && large_offloads > 0, "the policy must offload, or nothing is pending");
    assert!(
        large.abs_diff(small) <= SLACK_BYTES,
        "the high-water grew with the trace: {small} B at {N} requests, {large} B at {}",
        10 * N
    );
}
