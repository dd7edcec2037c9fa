//! The one place that decides how many workers an op gets.
//!
//! An op that can split its output into independent contiguous bands (rows
//! of a matrix product, images of a batch) asks [`band_len`] how many items
//! go in a band, cuts its buffers with `chunks_mut`, and hands the pieces
//! to [`run`]. Three rules live here and nowhere else:
//!
//! * the core count is read **once** — `std::thread::available_parallelism`
//!   is not cached by std, and on Linux every call is a `sched_getaffinity`
//!   plus cgroup file reads;
//! * one band runs **inline** on the calling thread: no scope, no spawn, no
//!   system call — the whole of a batch-1 forward on any host, and of every
//!   op on a one-core host;
//! * bands do **not nest**: an op called from inside a band gets one band,
//!   so a batch-parallel convolution keeps its inner product serial instead
//!   of running cores² threads.
//!
//! Banding never changes a result: every caller gives each output element
//! to exactly one band and keeps its accumulation order.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Set for good on the threads [`run`] spawns.
    static IN_BAND: Cell<bool> = const { Cell::new(false) };
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Items per band when `items` independent units of work are spread over
/// the workers this call may use: at most one band per core, and all of
/// `items` in a single band when called from inside another op's band.
pub fn band_len(items: usize) -> usize {
    let workers = if IN_BAND.get() { 1 } else { cores().min(items).max(1) };
    items.div_ceil(workers).max(1)
}

/// Runs `body` on every part and returns the results in part order. A
/// single part runs on the calling thread; several run on one scoped
/// thread each, which are joined before this returns.
///
/// # Panics
///
/// Re-raises a panic of `body`.
pub fn run<P: Send, R: Send>(mut parts: impl Iterator<Item = P>, body: impl Fn(P) -> R + Sync) -> Vec<R> {
    let Some(first) = parts.next() else { return Vec::new() };
    let Some(second) = parts.next() else { return vec![body(first)] };
    debug_assert!(!IN_BAND.get(), "parts cut with `band_len` never nest");
    let body = &body;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = [first, second]
            .into_iter()
            .chain(parts)
            .map(|part| {
                scope.spawn(move |_| {
                    IN_BAND.set(true);
                    #[cfg(test)]
                    let _live = probe::enter();
                    body(part)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("band worker panicked")).collect()
    })
    .expect("band scope failed")
}

/// Test-build census of the band closures alive at one moment.
#[cfg(test)]
pub(crate) mod probe {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard};

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);
    static ENTERED: AtomicUsize = AtomicUsize::new(0);
    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    pub struct Live;

    pub fn enter() -> Live {
        ENTERED.fetch_add(1, Ordering::SeqCst);
        PEAK.fetch_max(LIVE.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        Live
    }

    impl Drop for Live {
        fn drop(&mut self) {
            LIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Every test that can reach the banded path holds this, so the census
    /// a test reads is of its own bands only. Resets the counts.
    pub fn exclusive() -> MutexGuard<'static, ()> {
        let guard = EXCLUSIVE.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        PEAK.store(0, Ordering::SeqCst);
        ENTERED.store(0, Ordering::SeqCst);
        guard
    }

    /// `(most band closures alive at once, band closures started)` since
    /// [`exclusive`] was taken.
    pub fn census() -> (usize, usize) {
        (PEAK.load(Ordering::SeqCst), ENTERED.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_len_covers_every_item_with_at_most_one_band_per_core() {
        for items in [1usize, 2, 3, 7, 8, 64, 1000] {
            let band = band_len(items);
            assert!(band >= 1 && band <= items);
            assert!(items.div_ceil(band) <= cores(), "{items} items in bands of {band}");
        }
        assert_eq!(band_len(1), 1);
        assert_eq!(band_len(0), 1, "an empty op still gets a valid chunk length");
    }

    #[test]
    fn one_part_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = run(std::iter::once(7), |part| (part, std::thread::current().id()));
        assert_eq!(ran_on, vec![(7, caller)]);
        assert!(!IN_BAND.get(), "the inline path must leave the caller free to band later");
        assert_eq!(run(std::iter::empty::<()>(), |()| ()), Vec::<()>::new());
    }

    #[test]
    fn results_come_back_in_part_order_and_bands_refuse_to_nest() {
        let _alone = probe::exclusive();
        let mut out = vec![0usize; 12];
        let nested = run(out.chunks_mut(3).enumerate(), |(band, chunk)| {
            chunk.iter_mut().enumerate().for_each(|(i, v)| *v = band * 3 + i);
            (band, band_len(1000))
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
        assert_eq!(
            nested,
            (0..4).map(|band| (band, 1000)).collect::<Vec<_>>(),
            "inside a band an op gets one band"
        );
        let (peak, entered) = probe::census();
        assert!((1..=4).contains(&peak) && entered == 4, "peak {peak}, entered {entered}");
    }

    /// What `Conv2d::forward` does with a batch of 8, from the same public
    /// pieces: bands of images, and per image an unfold and a GEMM that is
    /// big enough (32·144·1024 multiply-adds) to be banded on its own.
    #[test]
    fn a_batch_parallel_conv_keeps_its_inner_gemm_serial() {
        use crate::conv::{im2col_into, ConvGeom};
        let _alone = probe::exclusive();
        let (n, oc, h, w) = (8usize, 32usize, 32usize, 32usize);
        let geom = ConvGeom::square(16, 3, 1, 1);
        let (patch, ncols) = (geom.patch_len(), h * w);
        let mut rng = crate::Rng::new(11);
        let x = crate::Tensor::randn([n, 16, h, w], 1.0, &mut rng);
        let weight = crate::Tensor::randn([oc, patch], 0.1, &mut rng);
        let forward = |x: &[f32], images: usize| {
            let mut out = vec![0.0f32; images * oc * ncols];
            let band = band_len(images);
            let parts = out.chunks_mut(band * oc * ncols).zip(x.chunks(band * 16 * h * w));
            run(parts, |(out_band, x_band)| {
                let mut cols = vec![f32::NAN; patch * ncols];
                for (y, img) in out_band.chunks_exact_mut(oc * ncols).zip(x_band.chunks_exact(16 * h * w)) {
                    im2col_into(img, h, w, &geom, &mut cols);
                    crate::matmul::gemm_into(weight.as_slice(), &cols, y, oc, patch, ncols);
                }
            });
            out
        };

        let batched = forward(x.as_slice(), n);
        let (peak, entered) = probe::census();
        // Bands are only ever spawned two or more at a time, so on one core none are.
        let outer = if cores() > 1 { n.div_ceil(band_len(n)) } else { 0 };
        assert_eq!(entered, outer, "only the batch is banded: the GEMMs inside its bands spawned nothing");
        assert!(peak <= cores(), "{peak} band closures alive at once on {} cores", cores());

        // One image at a time the GEMM itself is banded; the bits do not care.
        for (i, img) in x.as_slice().chunks_exact(16 * h * w).enumerate() {
            let single = forward(img, 1);
            let same = single.iter().zip(&batched[i * oc * ncols..]).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "image {i} differs between the banded batch and the inline call");
        }
    }

    #[test]
    #[should_panic(expected = "band worker panicked")]
    fn a_panicking_band_is_not_swallowed() {
        let _alone = probe::exclusive();
        run(0..2, |part| assert_ne!(part, 1, "boom"));
    }
}
