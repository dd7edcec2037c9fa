//! Deterministic arrival-trace generators for the simulators.
//!
//! The paper's latency story assumes a steady camera-style frame interval;
//! real IoT traffic is rarely that polite. These generators produce
//! seeded, reproducible arrival-time sequences for the fleet simulator so
//! tail-latency claims can be checked under uniform, Poisson and bursty
//! load (burstiness is what actually stresses the shared cloud queue).

use mea_tensor::Rng;
use serde::{Deserialize, Serialize};

/// A stochastic (but seeded) model of when frames arrive at one device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Fixed inter-arrival interval (the paper's implicit assumption).
    Uniform {
        /// Seconds between consecutive frames.
        interval_s: f64,
    },
    /// Poisson process: exponential inter-arrival times.
    Poisson {
        /// Mean arrival rate in frames per second.
        rate_hz: f64,
    },
    /// On/off bursts: `burst_len` frames back to back, then a gap.
    Bursty {
        /// Frames per burst.
        burst_len: usize,
        /// Spacing inside a burst (s).
        intra_s: f64,
        /// Gap between bursts (s).
        gap_s: f64,
    },
    /// Heavy-tailed log-normal inter-arrival times: most frames arrive
    /// quickly, a few after long pauses (user-interactive traffic).
    /// Interval = `exp(mu + sigma·z)` with `z ~ N(0, 1)`.
    LogNormal {
        /// Mean of the underlying normal (log-seconds).
        mu: f64,
        /// Standard deviation of the underlying normal. Must be finite
        /// and non-negative; large values produce enormous tails and the
        /// serving runtime's finiteness guard will reject the trace if an
        /// interval overflows to infinity.
        sigma: f64,
    },
    /// Pareto (power-law) inter-arrival times — the classic heavy tail.
    /// Interval = `scale / U^(1/shape)` with `U ~ Uniform(0, 1)`, so the
    /// interval is at least `scale` and the tail index is `shape`.
    Pareto {
        /// Minimum inter-arrival time (s); the distribution's mode.
        scale: f64,
        /// Tail index. `shape <= 1` has an infinite mean — allowed for
        /// generation (the draws are still finite) but
        /// `ArrivalModel::mean_interval_s` reports `f64::INFINITY`.
        shape: f64,
    },
    /// Diurnal-modulated Poisson process: the instantaneous rate swings
    /// sinusoidally around `base_rate_hz`, modelling day/night load.
    /// `rate(t) = base · (1 + amplitude · sin(2πt / period_s))`, sampled
    /// by Lewis–Shedler thinning against the peak rate.
    Diurnal {
        /// Long-run mean arrival rate (frames per second).
        base_rate_hz: f64,
        /// Relative swing in `[0, 1)`: 0 reduces to plain Poisson.
        amplitude: f64,
        /// Period of one day-night cycle (s).
        period_s: f64,
    },
}

impl ArrivalModel {
    /// Generates `n` non-decreasing arrival times starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the model parameters are non-positive.
    pub fn generate(&self, n: usize, rng: &mut Rng) -> Vec<f64> {
        assert!(n > 0, "need at least one arrival");
        let mut times = Vec::with_capacity(n);
        let mut t = 0.0f64;
        match *self {
            ArrivalModel::Uniform { interval_s } => {
                assert!(interval_s >= 0.0, "interval must be non-negative");
                for i in 0..n {
                    times.push(i as f64 * interval_s);
                }
            }
            ArrivalModel::Poisson { rate_hz } => {
                assert!(rate_hz > 0.0, "rate must be positive");
                for _ in 0..n {
                    times.push(t);
                    // Inverse-CDF exponential draw; uniform() is in [0, 1).
                    let u = (1.0 - rng.uniform() as f64).max(1e-12);
                    t += -u.ln() / rate_hz;
                }
            }
            ArrivalModel::Bursty { burst_len, intra_s, gap_s } => {
                assert!(burst_len > 0, "bursts need at least one frame");
                assert!(intra_s >= 0.0 && gap_s >= 0.0, "spacings must be non-negative");
                let mut in_burst = 0usize;
                for _ in 0..n {
                    times.push(t);
                    in_burst += 1;
                    if in_burst == burst_len {
                        in_burst = 0;
                        t += gap_s;
                    } else {
                        t += intra_s;
                    }
                }
            }
            ArrivalModel::LogNormal { mu, sigma } => {
                assert!(mu.is_finite(), "mu must be finite");
                assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and non-negative");
                for _ in 0..n {
                    times.push(t);
                    // Box–Muller standard normal from two uniforms.
                    let u1 = (1.0 - rng.uniform() as f64).max(1e-12);
                    let u2 = rng.uniform() as f64;
                    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                    t += (mu + sigma * z).exp();
                }
            }
            ArrivalModel::Pareto { scale, shape } => {
                assert!(scale > 0.0, "scale must be positive");
                assert!(shape > 0.0, "shape must be positive");
                for _ in 0..n {
                    times.push(t);
                    // Inverse-CDF draw; u in (0, 1] so the interval is finite.
                    let u = (1.0 - rng.uniform() as f64).max(1e-12);
                    t += scale / u.powf(1.0 / shape);
                }
            }
            ArrivalModel::Diurnal { base_rate_hz, amplitude, period_s } => {
                assert!(base_rate_hz > 0.0, "base rate must be positive");
                assert!((0.0..1.0).contains(&amplitude), "amplitude must be in [0, 1)");
                assert!(period_s > 0.0, "period must be positive");
                // Lewis–Shedler thinning: draw candidates from a homogeneous
                // Poisson process at the peak rate, accept each with
                // probability rate(t) / rate_max.
                let rate_max = base_rate_hz * (1.0 + amplitude);
                for _ in 0..n {
                    times.push(t);
                    loop {
                        let u = (1.0 - rng.uniform() as f64).max(1e-12);
                        t += -u.ln() / rate_max;
                        let rate = base_rate_hz * (1.0 + amplitude * (std::f64::consts::TAU * t / period_s).sin());
                        if (rng.uniform() as f64) * rate_max <= rate {
                            break;
                        }
                    }
                }
            }
        }
        times
    }
}

#[cfg(test)]
impl ArrivalModel {
    /// Mean inter-arrival time implied by the model (for rate-matched
    /// comparisons between models). Exact in closed form for every
    /// variant: log-normal mean is `exp(mu + sigma²/2)`, Pareto mean is
    /// `shape·scale/(shape−1)` (infinite for `shape <= 1`), and the
    /// diurnal modulation averages out to the base rate over whole
    /// cycles.
    pub(crate) fn mean_interval_s(&self) -> f64 {
        match *self {
            ArrivalModel::Uniform { interval_s } => interval_s,
            ArrivalModel::Poisson { rate_hz } => 1.0 / rate_hz,
            ArrivalModel::Bursty { burst_len, intra_s, gap_s } => {
                ((burst_len - 1) as f64 * intra_s + gap_s) / burst_len as f64
            }
            ArrivalModel::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            ArrivalModel::Pareto { scale, shape } => {
                if shape > 1.0 {
                    shape * scale / (shape - 1.0)
                } else {
                    f64::INFINITY
                }
            }
            ArrivalModel::Diurnal { base_rate_hz, .. } => 1.0 / base_rate_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_an_arithmetic_sequence() {
        let mut rng = Rng::new(0);
        let t = ArrivalModel::Uniform { interval_s: 0.5 }.generate(4, &mut rng);
        assert_eq!(t, vec![0.0, 0.5, 1.0, 1.5]);
    }

    #[test]
    fn poisson_is_seeded_and_non_decreasing() {
        let a = ArrivalModel::Poisson { rate_hz: 100.0 }.generate(50, &mut Rng::new(7));
        let b = ArrivalModel::Poisson { rate_hz: 100.0 }.generate(50, &mut Rng::new(7));
        assert_eq!(a, b, "same seed, same trace");
        for w in a.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let c = ArrivalModel::Poisson { rate_hz: 100.0 }.generate(50, &mut Rng::new(8));
        assert_ne!(a, c, "different seed, different trace");
    }

    #[test]
    fn poisson_mean_rate_is_roughly_right() {
        let n = 2000;
        let t = ArrivalModel::Poisson { rate_hz: 1000.0 }.generate(n, &mut Rng::new(1));
        let span = t.last().unwrap() - t[0];
        let rate = (n - 1) as f64 / span;
        assert!((rate - 1000.0).abs() < 100.0, "empirical rate {rate}");
    }

    #[test]
    fn bursty_alternates_spacing() {
        let t = ArrivalModel::Bursty { burst_len: 3, intra_s: 0.001, gap_s: 0.1 }.generate(7, &mut Rng::new(0));
        // 0, .001, .002 | .102, .103, .104 | .204
        assert!((t[1] - t[0] - 0.001).abs() < 1e-12);
        assert!((t[3] - t[2] - 0.1).abs() < 1e-12);
        assert!((t[6] - t[5] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mean_intervals_match_generated_traces() {
        for model in [
            ArrivalModel::Uniform { interval_s: 0.01 },
            ArrivalModel::Bursty { burst_len: 4, intra_s: 0.001, gap_s: 0.037 },
        ] {
            let n = 400;
            let t = model.generate(n, &mut Rng::new(2));
            let empirical = (t.last().unwrap() - t[0]) / (n - 1) as f64;
            assert!(
                (empirical - model.mean_interval_s()).abs() < model.mean_interval_s() * 0.05,
                "{model:?}: empirical {empirical} vs {}",
                model.mean_interval_s()
            );
        }
    }

    #[test]
    fn heavy_tailed_models_are_seeded_and_non_decreasing() {
        for model in [
            ArrivalModel::LogNormal { mu: -4.0, sigma: 0.5 },
            ArrivalModel::Pareto { scale: 0.01, shape: 3.0 },
            ArrivalModel::Diurnal { base_rate_hz: 500.0, amplitude: 0.6, period_s: 0.2 },
        ] {
            let a = model.generate(64, &mut Rng::new(11));
            let b = model.generate(64, &mut Rng::new(11));
            assert_eq!(a, b, "{model:?}: same seed, same trace");
            assert!(a.windows(2).all(|w| w[1] >= w[0]), "{model:?}: times must be non-decreasing");
            assert!(a.iter().all(|t| t.is_finite()), "{model:?}: sane parameters stay finite");
            let c = model.generate(64, &mut Rng::new(12));
            assert_ne!(a, c, "{model:?}: different seed, different trace");
        }
    }

    #[test]
    fn heavy_tailed_empirical_means_converge_to_the_exact_mean() {
        // The closed-form `mean_interval_s` must match the long-run
        // empirical mean of the generated traces. Each model here has a
        // finite variance, so 4000 draws land well inside 5%.
        for model in [
            ArrivalModel::LogNormal { mu: -4.0, sigma: 0.5 },
            ArrivalModel::Pareto { scale: 0.01, shape: 4.0 },
            ArrivalModel::Diurnal { base_rate_hz: 1000.0, amplitude: 0.6, period_s: 0.2 },
        ] {
            let n = 4000;
            let t = model.generate(n, &mut Rng::new(3));
            let empirical = (t.last().unwrap() - t[0]) / (n - 1) as f64;
            let exact = model.mean_interval_s();
            assert!((empirical - exact).abs() < exact * 0.05, "{model:?}: empirical {empirical} vs exact {exact}");
        }
    }

    #[test]
    fn pareto_mean_is_infinite_at_and_below_shape_one() {
        assert_eq!(ArrivalModel::Pareto { scale: 0.01, shape: 1.0 }.mean_interval_s(), f64::INFINITY);
        assert_eq!(ArrivalModel::Pareto { scale: 0.01, shape: 0.5 }.mean_interval_s(), f64::INFINITY);
        // Just above 1 the mean is finite again (and large).
        assert!(ArrivalModel::Pareto { scale: 0.01, shape: 1.01 }.mean_interval_s().is_finite());
    }

    #[test]
    #[should_panic(expected = "non-finite arrival time")]
    fn overflowing_log_normal_hits_the_finiteness_guard() {
        // `exp(mu)` overflows to infinity for huge (but finite) `mu`, so
        // the model's own parameter checks pass; the serving runtime's
        // PR-6 finiteness guard must still reject the trace by name.
        let bundle = mea_data::presets::tiny(86);
        let mut rng = Rng::new(0);
        let _ = crate::serve::trace_requests(
            &bundle.test,
            1,
            &ArrivalModel::LogNormal { mu: 1e4, sigma: 0.0 },
            &mut rng,
        );
    }

    #[test]
    #[should_panic(expected = "sigma must be finite and non-negative")]
    fn log_normal_rejects_non_finite_sigma() {
        let _ = ArrivalModel::LogNormal { mu: 0.0, sigma: f64::NAN }.generate(1, &mut Rng::new(0));
    }
}
