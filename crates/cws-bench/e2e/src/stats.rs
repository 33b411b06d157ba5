//! Order statistics over measured samples.

/// `values` sorted ascending (NaNs last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `p`-th percentile (`0..=100`), linearly interpolated between the two
/// nearest ranks; `NaN` for no samples.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// The median.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The arithmetic mean; `NaN` for no samples.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The first and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads agree with that tool. With fewer than
/// two samples both quartiles are the sample itself.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let only = data.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let n = 4usize;
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([4, 5], n=4) == [3.75, 4.5, 5.25]
        assert_eq!(quartiles(&[4.0, 5.0]), (3.75, 5.25));
    }

    #[test]
    fn percentiles_interpolate() {
        let values: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 95.0), 95.0);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
