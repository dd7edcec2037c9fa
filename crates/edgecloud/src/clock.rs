//! The runtime's one way to wait: [`sleep_until`].
//!
//! `std::thread::sleep` wakes late. Linux lets a timed sleep fire up to
//! the thread's timer slack after it was due (50 µs by default), and the
//! wake-up itself adds more, so a sleep overshoots by 60–110 µs on an
//! idle host. [`sleep_until`] sleeps to a margin short of its deadline
//! and spins on [`Instant::now`] for the rest. The margin follows the
//! overshoot the clock's own earlier sleeps saw: a high quantile of it,
//! capped, so no setting tunes it. Every pacing, link and hop wait of the
//! runtime goes through here; a virtual clock for the modelled wire would
//! replace this seam.

use std::hint::spin_loop;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Where the margin starts: twice Linux's default timer slack.
const INITIAL_MARGIN_NS: u64 = 100_000;
/// The margin never grows past this. An overshoot beyond it comes from
/// CPU contention, and waking earlier on a busy core only spins longer.
const MAX_MARGIN_NS: u64 = 200_000;
/// A sleep that overshot the margin raises it by `UP_STEPS` steps; one
/// that woke in time lowers it by one. The margin settles where one sleep
/// in `UP_STEPS + 1` overshoots it: the 95th percentile of the recent
/// overshoots.
const STEP_NS: u64 = 250;
const UP_STEPS: u64 = 19;

/// How far before its deadline a wait wakes from its sleep (ns).
static MARGIN_NS: AtomicU64 = AtomicU64::new(INITIAL_MARGIN_NS);
/// Waits that had to wait, and the time they spent spinning (ns): what
/// punctuality costs, which the tests print.
static WAITS: AtomicU64 = AtomicU64::new(0);
static SPUN_NS: AtomicU64 = AtomicU64::new(0);

/// The instant `secs` seconds after `start`, or None when `secs` is
/// negative, not finite, or past the clock's range.
pub(crate) fn after(start: Instant, secs: f64) -> Option<Instant> {
    Duration::try_from_secs_f64(secs).ok().and_then(|d| start.checked_add(d))
}

/// Blocks until `deadline`: never returns before it, and returns within a
/// few µs after it. A deadline already passed returns at once.
pub(crate) fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline <= now {
        return;
    }
    let margin_ns = MARGIN_NS.load(Relaxed);
    if let Some(wake) = deadline.checked_sub(Duration::from_nanos(margin_ns)).filter(|&wake| wake > now) {
        std::thread::sleep(wake - now);
        // Threads race on the margin; a lost step only slows the tracking.
        let overshoot = Instant::now().saturating_duration_since(wake);
        MARGIN_NS.store(next_margin(margin_ns, overshoot), Relaxed);
    }
    let spin_start = Instant::now();
    let mut now = spin_start;
    while now < deadline {
        spin_loop();
        now = Instant::now();
    }
    WAITS.fetch_add(1, Relaxed);
    SPUN_NS.fetch_add(duration_ns(now.saturating_duration_since(spin_start)), Relaxed);
}

/// Waits that had to wait so far, and the time they spent spinning.
#[cfg(test)]
pub(crate) fn spin_totals() -> (u64, Duration) {
    (WAITS.load(Relaxed), Duration::from_nanos(SPUN_NS.load(Relaxed)))
}

/// The margin one tracker step after a sleep that overshot by
/// `overshoot`.
fn next_margin(margin: u64, overshoot: Duration) -> u64 {
    if duration_ns(overshoot) > margin {
        (margin + UP_STEPS * STEP_NS).min(MAX_MARGIN_NS)
    } else {
        margin.saturating_sub(STEP_NS)
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_until_never_returns_before_its_deadline() {
        let past = Instant::now().checked_sub(Duration::from_millis(5));
        let offsets_us = std::iter::once(0).chain(1..=50).chain((300..=2_000).step_by(170));
        for deadline in past.into_iter().chain(offsets_us.map(|us| Instant::now() + Duration::from_micros(us))) {
            sleep_until(deadline);
            assert!(Instant::now() >= deadline, "returned before its deadline");
        }
    }

    #[test]
    fn after_rejects_what_no_deadline_can_hold() {
        let now = Instant::now();
        assert_eq!(after(now, 0.0), Some(now));
        assert_eq!(after(now, 1e-3), Some(now + Duration::from_millis(1)));
        for bad in [-1e-9, f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(after(now, bad), None, "{bad} s");
        }
    }

    #[test]
    fn the_margin_tracks_a_high_quantile_and_stays_capped() {
        // One overshoot in twenty above the margin leaves it where it is;
        // a run of long ones drives it to the cap and no further.
        let mut margin = 50_000;
        for i in 0..400 {
            margin = next_margin(margin, Duration::from_micros(if i % 20 == 0 { 500 } else { 10 }));
        }
        assert_eq!(margin, 50_000);
        for _ in 0..100 {
            margin = next_margin(margin, Duration::from_millis(5));
        }
        assert_eq!(margin, MAX_MARGIN_NS);
        assert_eq!(next_margin(0, Duration::ZERO), 0);
    }

    /// Lateness quantiles (µs) of a sorted sample.
    fn quantiles(sorted: &[f64]) -> [f64; 3] {
        [0.1, 0.5, 0.9].map(|q| sorted[((sorted.len() - 1) as f64 * q).round() as usize])
    }

    #[test]
    fn sleep_until_wakes_closer_to_its_deadline_than_thread_sleep() {
        // A few hundred 0.3–2 ms waits of each kind, interleaved so a busy
        // phase of the host hits both alike. The check is relative, so a
        // slow host cannot fail it.
        let waits = 300;
        let (mut ours, mut std_sleep) = (Vec::with_capacity(waits), Vec::with_capacity(waits));
        let (waits_before, spun_before) = spin_totals();
        for i in 0..waits {
            let wait = Duration::from_micros(300 + (i as u64 * 577) % 1_700);
            let deadline = Instant::now() + wait;
            sleep_until(deadline);
            ours.push(Instant::now().duration_since(deadline).as_secs_f64() * 1e6);
            let deadline = Instant::now() + wait;
            std::thread::sleep(wait);
            std_sleep.push(Instant::now().duration_since(deadline).as_secs_f64() * 1e6);
        }
        let (waits_after, spun_after) = spin_totals();
        // Other tests of this process may wait meanwhile; their share only
        // blurs the printed mean.
        let spin_us = (spun_after - spun_before).as_secs_f64() * 1e6 / (waits_after - waits_before).max(1) as f64;
        ours.sort_by(f64::total_cmp);
        std_sleep.sort_by(f64::total_cmp);
        let [o10, o50, o90] = quantiles(&ours);
        let [s10, s50, s90] = quantiles(&std_sleep);
        println!("lateness over {waits} waits of 0.3–2 ms (µs): p10 / p50 / p90");
        println!("  clock::sleep_until  {o10:7.1} / {o50:7.1} / {o90:7.1}   mean spin {spin_us:.1} µs per wait");
        println!("  std::thread::sleep  {s10:7.1} / {s50:7.1} / {s90:7.1}   mean spin 0.0 µs per wait");
        assert!(o50 < s50, "sleep_until's median lateness {o50:.1} µs is not below thread::sleep's {s50:.1} µs");
    }
}
