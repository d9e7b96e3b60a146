//! Reducers over repeated measurements and latency samples.

/// The smallest value; `NaN` when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
/// what the driver and `selfcheck.sh` use.  Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Nearest-rank percentile of an ascending slice: the smallest sample such
/// that at least `p` (in `[0, 1]`) of the samples are `<=` it.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    let rank = (p * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// The percentiles a latency report may quote, ascending.
pub const PERCENTILES: [f64; 6] = [0.50, 0.90, 0.95, 0.99, 0.999, 0.9999];

/// The highest percentile of [`PERCENTILES`] that still has at least ten
/// samples beyond it, so the quoted tail is not one outlier.  `None` below
/// twenty samples, where not even the median qualifies.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PERCENTILES.iter().copied().rfind(|p| {
        let rank = (p * samples as f64).ceil() as usize;
        samples.saturating_sub(rank) >= 10
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reducers_on_known_values() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(min(&v), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert!(min(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50);
        assert_eq!(nearest_rank(&v, 0.99), 99);
        assert_eq!(nearest_rank(&v, 1.0), 100);
        assert_eq!(nearest_rank(&v, 0.0), 1);
    }

    #[test]
    fn percentile_picker_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.50));
        assert_eq!(highest_supported_percentile(100), Some(0.90));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        // 1 000 samples leave exactly ten beyond rank 990.
        assert_eq!(highest_supported_percentile(1_000), Some(0.99));
        assert_eq!(highest_supported_percentile(9_999), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
