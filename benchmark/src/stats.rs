//! Order statistics used for every reported timing.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of an ascending-sorted slice, by linear
/// interpolation between closest ranks. NaN on an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort a copy ascending (NaNs last) — the input of [`percentile_sorted`].
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 0.5)
}

/// The tail percentile a sample of `n` supports: the highest one, capped
/// at `cap`, that still has at least ten samples beyond it; never below
/// the median. With fewer than 20 samples the tail *is* the median.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    cap.min((n - 10) as f64 / n as f64).max(0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the spread estimator the
/// agreement rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 || values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1).abs() / m.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&v, 0.0), 10.0);
        assert_eq!(percentile_sorted(&v, 0.5), 30.0);
        assert_eq!(percentile_sorted(&v, 1.0), 50.0);
        assert_eq!(percentile_sorted(&v, 0.125), 15.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(8, 0.99), 0.5);
        assert_eq!(tail_percentile(19, 0.99), 0.5);
        assert_eq!(tail_percentile(100, 0.99), 0.9);
        assert_eq!(tail_percentile(500, 0.99), 0.98);
        assert_eq!(tail_percentile(1000, 0.99), 0.99);
        assert_eq!(tail_percentile(100_000, 0.99), 0.99);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
