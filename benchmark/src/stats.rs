//! Order statistics for the instrument. Deliberately not `hpcml_sim::stats`: a change
//! to the system's own statistics code must not move the numbers it is judged by.

/// Linear-interpolated quantile of an ascending slice, `q` in `[0, 1]`; 0 when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sorted copy of `values` with non-finite entries dropped.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| x.is_finite()).collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The three quartiles `statistics.quantiles(values, n=4)` returns (Python's default
/// "exclusive" method), which is what the acceptance check of the benchmark contract
/// uses for its spread. Needs at least two values.
pub fn quartiles_exclusive(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    let at = |k: usize| -> f64 {
        if n < 2 {
            return s.first().copied().unwrap_or(0.0);
        }
        // Position k(n+1)/4 in 1-based ranks, clamped to the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    [at(1), at(2), at(3)]
}

/// Inter-quartile distance as a share of the median (the contract's spread).
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles_exclusive(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert!((quantile(&[10.0, 20.0], 0.25) - 12.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_samples_are_ignored() {
        assert_eq!(median(&[f64::NAN, 1.0, f64::INFINITY, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles_exclusive(&v);
        assert!((q[0] - 2.75).abs() < 1e-12, "{q:?}");
        assert!((q[1] - 5.5).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 8.25).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles_exclusive(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        assert!((relative_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
