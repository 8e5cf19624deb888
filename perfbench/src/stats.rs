//! Summary statistics the benchmark reports: geometric and arithmetic
//! means, the tail-percentile rule, and percentiles of
//! millisecond-floored samples.

/// Samples that must lie beyond a reported percentile. A tail
/// percentile resting on fewer observations is an anecdote, so
/// [`percentile`] refuses it (p95 therefore needs at least 200 samples).
pub const MIN_BEYOND: usize = 10;

/// Geometric mean of strictly positive values; `None` for an empty
/// slice or any value that is not positive and finite.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Arithmetic mean (total ÷ count) of a non-empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    Some(values.iter().sum::<f64>() / values.len() as f64)
}

/// May the `p`-th percentile (0 < p < 100) of `n` samples be reported?
/// Only when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile_supported(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= MIN_BEYOND as f64
}

/// The `p`-th percentile (0 < p < 100) of `values`, by linear
/// interpolation between closest ranks. `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !percentile_supported(values.len(), p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The `p`-th percentile of durations that a clock floored to whole
/// milliseconds (a reading `w` means a true duration in `[w, w+1)`).
/// Percentiles of such readings jump in whole steps, so this treats
/// each reading as spread evenly over its millisecond and interpolates
/// inside the bin that holds the percentile (the grouped-data
/// percentile). Same [`MIN_BEYOND`] rule as [`percentile`].
pub fn percentile_floored_ms(values: &[u64], p: f64) -> Option<f64> {
    if values.is_empty() || !percentile_supported(values.len(), p) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let target = p / 100.0 * v.len() as f64;
    let mut below = 0usize;
    let mut i = 0;
    while i < v.len() {
        let bin = v[i];
        let in_bin = v[i..].iter().take_while(|&&x| x == bin).count();
        if (below + in_bin) as f64 >= target {
            return Some(bin as f64 + (target - below as f64) / in_bin as f64);
        }
        below += in_bin;
        i += in_bin;
    }
    v.last().map(|&w| w as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[2.5]).unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
        assert_eq!(geomean(&[f64::NAN]), None);
    }

    #[test]
    fn geomean_never_exceeds_the_arithmetic_mean() {
        let v = [1.3, 1.9, 2.2, 0.7];
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(geomean(&v).unwrap() <= mean);
    }

    #[test]
    fn mean_is_total_over_count() {
        assert_eq!(mean(&[9.0, 15.0, 9.0, 15.0]), Some(12.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn p95_is_refused_below_200_samples() {
        let v: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), None);
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let p = percentile(&v, 95.0).unwrap();
        assert!((p - 189.05).abs() < 1e-9, "{p}");
        assert!(!percentile_supported(199, 95.0));
        assert!(percentile_supported(200, 95.0));
        // The median only needs 20 samples.
        assert!(!percentile_supported(19, 50.0));
        assert!(percentile_supported(20, 50.0));
        let ms: Vec<u64> = (0..199).collect();
        assert_eq!(percentile_floored_ms(&ms, 95.0), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(11.0));
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
    }

    #[test]
    fn floored_percentile_interpolates_inside_the_bin() {
        // 40 readings: 10 of 5 ms, 20 of 6 ms, 10 of 7 ms. The median
        // (20 samples below it) sits halfway through the 6 ms bin.
        let mut v = vec![5u64; 10];
        v.extend(std::iter::repeat_n(6, 20));
        v.extend(std::iter::repeat_n(7, 10));
        assert_eq!(percentile_floored_ms(&v, 50.0), Some(6.5));
        // 25% = 10 samples: exactly the top of the 5 ms bin.
        assert_eq!(percentile_floored_ms(&v, 25.0), Some(6.0));
        // A constant sample spreads over its one bin.
        let c = vec![9u64; 200];
        assert_eq!(percentile_floored_ms(&c, 95.0), Some(9.95));
    }
}
