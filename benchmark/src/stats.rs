//! The benchmark's arithmetic: percentiles, medians, quartiles and the
//! window-rate median. Everything takes plain slices so the unit tests
//! pin the exact numbers.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by linear interpolation
/// between closest ranks. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Sort a sample in place (NaN-free input) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the "exclusive"
/// method: positions `(n + 1) * k / 4`) — the rule the driver applies
/// to ten runs. `None` for fewer than two values.
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median (the spread the
/// driver bounds). `None` when it cannot be formed.
pub fn spread(v: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(v)?;
    let m = median(v)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Per-window completion rates: `counts[i]` operations finished in
/// window `i` of `window_secs` seconds.
pub fn window_rates(counts: &[u64], window_secs: f64) -> Vec<f64> {
    counts.iter().map(|&c| c as f64 / window_secs).collect()
}

/// The saturation-phase throughput: the median of the window rates, so
/// one stalled window (a host hiccup, a compaction) does not move it.
pub fn window_median_rate(counts: &[u64], window_secs: f64) -> Option<f64> {
    median(&window_rates(counts, window_secs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), Some(10.0));
        assert_eq!(percentile(&s, 0.5), Some(30.0));
        assert_eq!(percentile(&s, 1.0), Some(50.0));
        assert_eq!(percentile(&s, 0.95), Some(48.0));
        assert_eq!(percentile(&s, 0.125), Some(15.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
    }

    #[test]
    fn median_of_even_sample_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // cuts extrapolate past a two-point sample, as Python's do.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn window_median_ignores_one_stalled_window() {
        let counts = [1000, 1010, 990, 5, 1005, 1000, 995, 1002, 998, 1001];
        let m = window_median_rate(&counts, 2.0).unwrap();
        assert_eq!(m, 500.0);
        assert_eq!(window_rates(&[10, 20], 2.0), vec![5.0, 10.0]);
        assert_eq!(window_median_rate(&[], 2.0), None);
    }
}
