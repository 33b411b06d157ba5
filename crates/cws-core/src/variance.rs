//! Variance accounting for adjusted-weight estimators.
//!
//! The quality metric used throughout the paper is the *sum of per-key
//! variances* `ΣV[a] = Σ_i VAR[a(i)]` and its normalized form
//! `nΣV = ΣV / (Σ_i f(i))²` (Sections 3 and 9). For estimators with zero
//! covariances, `ΣV` also measures the average variance over subpopulations
//! of a given size.
//!
//! This module provides the analytic per-key variance of HT-style estimators
//! given the conditional inclusion probability, its plug-in estimate and the
//! normal-approximation confidence interval built on it. The Monte-Carlo measurement of `ΣV` used by
//! the experiments lives in the `cws-eval` crate.

/// Per-key variance of an HT/HTP adjusted weight with value `f` and
/// (conditional) inclusion probability `p`: `f² (1/p − 1)` (Eq. 18).
///
/// Returns `0` when `f == 0`; `p` must be positive whenever `f > 0`.
#[must_use]
pub(crate) fn per_key_variance(f: f64, p: f64) -> f64 {
    if f == 0.0 {
        return 0.0;
    }
    assert!(p > 0.0 && p <= 1.0, "inclusion probability must be in (0, 1], got {p}");
    f * f * (1.0 / p - 1.0)
}

/// The HT plug-in estimate of one *sampled* key's contribution to `ΣV`:
/// `f² (1/p − 1) / p`.
///
/// `f² (1/p − 1)` is the analytic variance `VAR[a(i)]` — it sums over
/// **all** keys, sampled or not, so a summary alone cannot evaluate it. The
/// plug-in divides each sampled key's term by its inclusion probability once
/// more, which makes the sum over just the *sampled* keys an unbiased
/// estimator of `ΣV` (the standard Horvitz–Thompson lift applied to the
/// variance itself). This is what powers the confidence intervals surfaced
/// through the query facade.
///
/// Returns `0` when `f == 0`; `p` must be positive whenever `f > 0`.
#[must_use]
pub fn ht_variance_component(f: f64, p: f64) -> f64 {
    if f == 0.0 {
        return 0.0;
    }
    per_key_variance(f, p) / p
}

/// Two-sided standard-normal quantile for 95% confidence
/// (`Φ⁻¹(0.975) ≈ 1.96`).
pub const Z_95: f64 = 1.959_963_984_540_054;

/// A symmetric normal-approximation confidence interval around a point
/// estimate.
///
/// The template estimators have zero covariance across distinct keys
/// (Section 5), so the estimate is a sum of many independent per-key terms
/// and the normal approximation is the standard central-limit argument. The
/// interval is exactly `value ± z·√variance`; coverage is approximate and
/// degrades when a handful of keys dominate the variance (heavy tails,
/// tiny `k`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint of the interval.
    pub lower: f64,
    /// Upper endpoint of the interval.
    pub upper: f64,
    /// The z-score the interval was built with (e.g. [`Z_95`]).
    pub z: f64,
}

impl ConfidenceInterval {
    /// Half the interval width, `z·√variance`.
    #[must_use]
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }

    /// `true` when `value` lies inside the closed interval.
    #[must_use]
    pub fn covers(&self, value: f64) -> bool {
        self.lower <= value && value <= self.upper
    }
}

/// The normal-approximation interval `value ± z·√variance`.
///
/// `variance` must be non-negative and finite; `z` is the two-sided quantile
/// (use [`Z_95`] for 95%).
#[must_use]
pub fn normal_ci(value: f64, variance: f64, z: f64) -> ConfidenceInterval {
    assert!(
        variance >= 0.0 && variance.is_finite(),
        "variance must be finite and non-negative, got {variance}"
    );
    let half = z * variance.sqrt();
    ConfidenceInterval { lower: value - half, upper: value + half, z }
}

/// The normalized sum of per-key variances `nΣV = ΣV / total²`.
///
/// Returns `0` when the total is zero and the variance is also zero, and
/// `+∞` when the total is zero but the variance is not.
#[must_use]
pub fn normalized_sigma_v(sigma_v: f64, total: f64) -> f64 {
    if total == 0.0 {
        if sigma_v == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        sigma_v / (total * total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_key_variance_formula() {
        assert_eq!(per_key_variance(0.0, 0.0), 0.0);
        assert_eq!(per_key_variance(2.0, 1.0), 0.0);
        assert!((per_key_variance(2.0, 0.5) - 4.0).abs() < 1e-12);
        assert!((per_key_variance(3.0, 0.25) - 27.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inclusion probability")]
    fn per_key_variance_rejects_zero_probability_with_positive_value() {
        let _ = per_key_variance(1.0, 0.0);
    }

    #[test]
    fn ht_plug_in_lifts_by_the_probability() {
        assert_eq!(ht_variance_component(0.0, 0.0), 0.0);
        assert_eq!(ht_variance_component(2.0, 1.0), 0.0);
        // f=2, p=0.5: analytic 4.0, plug-in 8.0.
        assert!((ht_variance_component(2.0, 0.5) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn normal_ci_is_symmetric_and_covers() {
        let ci = normal_ci(10.0, 4.0, Z_95);
        assert!((ci.half_width() - Z_95 * 2.0).abs() < 1e-12);
        assert!(ci.covers(10.0));
        assert!(ci.covers(10.0 + Z_95 * 2.0));
        assert!(!ci.covers(10.0 + Z_95 * 2.0 + 1e-9));
        assert!(!ci.covers(10.0 - Z_95 * 2.0 - 1e-9));
        // Zero variance degenerates to a point.
        let point = normal_ci(3.0, 0.0, Z_95);
        assert_eq!((point.lower, point.upper), (3.0, 3.0));
        assert!(point.covers(3.0) && !point.covers(3.0 + 1e-12));
    }

    #[test]
    #[should_panic(expected = "variance must be finite")]
    fn normal_ci_rejects_negative_variance() {
        let _ = normal_ci(1.0, -1.0, Z_95);
    }

    #[test]
    fn normalization() {
        assert_eq!(normalized_sigma_v(4.0, 2.0), 1.0);
        assert_eq!(normalized_sigma_v(0.0, 0.0), 0.0);
        assert!(normalized_sigma_v(1.0, 0.0).is_infinite());
    }
}
