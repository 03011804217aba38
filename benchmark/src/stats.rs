//! Order statistics over small samples.

/// First quartile, median and third quartile of `values`, by the rule of
/// Python's `statistics.quantiles(values, n=4)` (the rule the acceptance test
/// of this benchmark is stated in). Fewer than two values give that value
/// three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => [0.0; 3],
        1 => [sorted[0]; 3],
        _ => [1, 2, 3].map(|q| {
            // Exclusive method: position q·(n+1)/4, counted from 1, clamped.
            let j = (q * (n + 1) / 4).clamp(1, n - 1);
            let delta = ((q * (n + 1)) as f64 - (j * 4) as f64) / 4.0;
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
        }),
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The better half of `values`: the `ceil(n / 2)` smallest when lower is
/// better, the largest otherwise.
pub fn better_half(values: &[f64], lower_is_better: bool) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if !lower_is_better {
        sorted.reverse();
    }
    sorted.truncate(values.len().div_ceil(2));
    sorted
}

/// The highest whole percentile, at most 99, that leaves at least ten of `n`
/// samples beyond it; 50 when the sample is too small for any tail.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    ((100 * (n - 10) / n) as u32).clamp(50, 99)
}

/// The `pct`-th percentile of `samples` by nearest rank (sorts in place).
pub fn percentile(samples: &mut [u64], pct: u32) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (samples.len() * pct as usize).div_ceil(100).max(1);
    samples[rank.min(samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn better_half_ignores_the_disturbed_repetitions() {
        let times = [10.0, 30.0, 11.0, 12.0, 45.0, 13.0, 28.0, 31.0];
        assert_eq!(better_half(&times, true), [10.0, 11.0, 12.0, 13.0]);
        assert_eq!(better_half(&times, false), [45.0, 31.0, 30.0, 28.0]);
        assert_eq!(better_half(&[3.0, 1.0, 2.0], true), [1.0, 2.0]);
        assert_eq!(better_half(&[7.0], true), [7.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(240), 95);
        assert_eq!(tail_percentile(400), 97);
        assert_eq!(tail_percentile(300_000), 99);
        assert_eq!(tail_percentile(12), 50);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut samples, 50), 50);
        assert_eq!(percentile(&mut samples, 95), 95);
        assert_eq!(percentile(&mut samples, 99), 99);
    }
}
