//! Order statistics the benchmark reports: medians over rounds, pooled
//! latency percentiles, and the quartile rule of Python's
//! `statistics.quantiles(values, n=4)` that the acceptance check uses.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Sorts a pool of latency samples in place and returns the nearest-rank
/// `q`-quantile (the smallest sample with at least `q` of the pool at or
/// below it).
///
/// # Panics
///
/// Panics on an empty pool or a NaN.
pub fn percentile(samples: &mut [f32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    f64::from(samples[rank - 1])
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let ld = v.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance check holds against a bound.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn round_median_discards_one_outlier_round() {
        // One round 40% faster than its neighbours must not move the
        // reported value.
        let rounds = [100.0, 101.0, 99.0, 140.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9, 100.3];
        assert!((median(&rounds) - 100.05).abs() < 1e-9);
    }

    #[test]
    fn pooled_percentile_is_nearest_rank() {
        let mut pool: Vec<f32> = (1..=100).rev().map(|v| v as f32).collect();
        assert_eq!(percentile(&mut pool, 0.50), 50.0);
        assert_eq!(percentile(&mut pool, 0.99), 99.0);
        assert_eq!(percentile(&mut pool, 1.0), 100.0);
        let mut one = [4.5f32];
        assert_eq!(percentile(&mut one, 0.5), 4.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
