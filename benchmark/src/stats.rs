//! Percentiles, medians and run-to-run spread.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between the two nearest ranks. `NaN` on an empty slice, so a phase that
/// delivered nothing cannot pass for a measurement.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted {
        [] => f64::NAN,
        [only] => *only,
        _ => {
            let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort ascending; `NaN` sorts last so it cannot hide in the middle.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// `(max - min) / median`: the whole range of a handful of values as a
/// share of their centre. Used for the per-round spread and by `--repeat`,
/// where there are too few sets for quartiles.
pub fn range_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match (s.first(), s.last()) {
        (Some(min), Some(max)) => {
            let mid = percentile(&s, 0.5);
            if mid == 0.0 {
                0.0
            } else {
                (max - min) / mid.abs()
            }
        }
        _ => f64::NAN,
    }
}

/// The distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (the "exclusive" method) — the acceptance rule for this
/// benchmark is stated in those terms. Needs at least two values.
pub fn quartile_share(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return f64::NAN;
    }
    let quartile = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    let mid = percentile(&s, 0.5);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

/// Nanosecond samples → microseconds, sorted.
pub fn sorted_us(ns: &[u64]) -> Vec<f64> {
    sorted(ns.iter().map(|&n| n as f64 / 1e3).collect())
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.95), 48.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_of_rounds_ignores_order_and_one_outlier() {
        // Five rounds, one disturbed: the median is untouched by it.
        assert_eq!(median(&[9.8, 10.1, 55.0, 10.0, 9.9]), 10.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn range_share_is_relative_to_the_median() {
        assert_eq!(range_share(&[100.0, 105.0, 110.0]), 10.0 / 105.0);
        assert_eq!(range_share(&[5.0]), 0.0);
        assert_eq!(range_share(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartile_share_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let w = [16.0, 1.0, 4.0, 2.0, 8.0];
        assert!((quartile_share(&w) - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        assert!(quartile_share(&[1.0]).is_nan());
    }

    #[test]
    fn nanoseconds_become_sorted_microseconds() {
        assert_eq!(sorted_us(&[3000, 1000, 2500]), vec![1.0, 2.5, 3.0]);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
