//! Rank distributions (the monotone family `f_w`).
//!
//! A rank assignment maps each key to a rank value drawn from a distribution
//! that depends on its weight (Section 3). The paper highlights two families
//! with special structure:
//!
//! * **EXP ranks** — `f_w = EXP[w]`, i.e. `r = -ln(1-u)/w` for a uniform seed
//!   `u`. The minimum of EXP ranks over a set is `EXP[w(J)]`, which underlies
//!   the k-mins estimators and the independent-differences construction.
//! * **IPPS ranks** — `f_w = U[0, 1/w]`, i.e. `r = u/w`. Poisson sampling with
//!   IPPS ranks is inclusion-probability-proportional-to-size sampling and
//!   bottom-k sampling with IPPS ranks is priority sampling.
//!
//! Both families are *monotone*: a larger weight stochastically decreases the
//! rank, which is what makes shared-seed rank assignments consistent.

/// The family of rank distributions used to draw rank values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankFamily {
    /// Exponential ranks: `f_w = EXP[w]`.
    Exp,
    /// IPPS ranks: `f_w = U[0, 1/w]` (priority sampling for bottom-k).
    Ipps,
}

impl RankFamily {
    /// The rank value `F_w^{-1}(u)` for a key of weight `w` and seed
    /// `u ∈ (0, 1)`.
    ///
    /// Zero-weight keys receive rank `+∞`, matching the convention of the
    /// paper (`w^(b)(i) = 0 ⇒ r^(b)(i) = +∞`).
    #[inline]
    #[must_use]
    pub fn rank_from_seed(self, weight: f64, seed: f64) -> f64 {
        debug_assert!(seed > 0.0 && seed < 1.0, "seed must be in (0,1), got {seed}");
        debug_assert!(weight >= 0.0, "weight must be non-negative");
        if weight <= 0.0 {
            return f64::INFINITY;
        }
        match self {
            RankFamily::Exp => -(-seed).ln_1p() / weight,
            RankFamily::Ipps => seed / weight,
        }
    }

    /// The weight-independent numerator of the rank: for both families the
    /// rank factors as `rank_from_seed(w, u) == rank_base(u) / w`, computed
    /// with the exact same floating-point operations.
    ///
    /// The multi-assignment ingestion hot path exploits this: the base is
    /// derived from the shared seed once per record (one hash, and for EXP
    /// ranks one logarithm), and every assignment needs only a division —
    /// or, for its threshold pre-filter, only a multiplication.
    #[inline]
    #[must_use]
    pub fn rank_base(self, seed: f64) -> f64 {
        debug_assert!(seed > 0.0 && seed < 1.0, "seed must be in (0,1), got {seed}");
        match self {
            RankFamily::Exp => -(-seed).ln_1p(),
            RankFamily::Ipps => seed,
        }
    }

    /// The cumulative distribution `F_w(x) = Pr[r < x]` for weight `w`.
    ///
    /// This is the inclusion probability of a key with weight `w` when the
    /// sampling threshold (Poisson τ or the conditioned k-th rank) is `x`.
    /// For `w = 0` the probability is `0`; for `x = +∞` it is `1` whenever
    /// `w > 0`.
    #[inline]
    #[must_use]
    pub(crate) fn inclusion_probability(self, weight: f64, threshold: f64) -> f64 {
        debug_assert!(weight >= 0.0, "weight must be non-negative");
        if weight <= 0.0 || threshold <= 0.0 {
            return 0.0;
        }
        if threshold.is_infinite() {
            return 1.0;
        }
        match self {
            RankFamily::Exp => -(-weight * threshold).exp_m1(),
            RankFamily::Ipps => (weight * threshold).min(1.0),
        }
    }

    /// The seed that would produce rank exactly `rank` for weight `weight`,
    /// i.e. `F_w(rank)` interpreted as a seed value.
    ///
    /// For shared-seed consistent rank assignments the seed of a sampled key
    /// can be recovered from any of its (rank, weight) pairs via this
    /// function; the l-set estimators use it (Section 7.2, "known seeds").
    #[inline]
    #[must_use]
    pub(crate) fn seed_from_rank(self, weight: f64, rank: f64) -> f64 {
        self.inclusion_probability(weight, rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipps_rank_is_seed_over_weight() {
        let r = RankFamily::Ipps.rank_from_seed(20.0, 0.22);
        assert!((r - 0.011).abs() < 1e-12);
    }

    #[test]
    fn exp_rank_matches_formula() {
        let r = RankFamily::Exp.rank_from_seed(2.0, 0.5);
        assert!((r - (-(0.5f64).ln() / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn rank_base_over_weight_is_bit_identical_to_rank_from_seed() {
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            for &w in &[0.001, 0.5, 1.0, 7.5, 1234.5] {
                for &u in &[1e-12, 0.05, 0.3, 0.72, 0.999, 1.0 - 1e-12] {
                    let direct = family.rank_from_seed(w, u);
                    let factored = family.rank_base(u) / w;
                    assert_eq!(direct.to_bits(), factored.to_bits(), "{family:?} w={w} u={u}");
                }
            }
        }
    }

    #[test]
    fn zero_weight_is_infinite_rank() {
        assert!(RankFamily::Ipps.rank_from_seed(0.0, 0.3).is_infinite());
        assert!(RankFamily::Exp.rank_from_seed(0.0, 0.3).is_infinite());
    }

    #[test]
    fn inclusion_probability_bounds() {
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            assert_eq!(family.inclusion_probability(0.0, 1.0), 0.0);
            assert_eq!(family.inclusion_probability(5.0, 0.0), 0.0);
            assert_eq!(family.inclusion_probability(5.0, f64::INFINITY), 1.0);
            let p = family.inclusion_probability(5.0, 0.1);
            assert!(p > 0.0 && p <= 1.0);
        }
    }

    #[test]
    fn ipps_inclusion_probability_caps_at_one() {
        assert_eq!(RankFamily::Ipps.inclusion_probability(10.0, 1.0), 1.0);
        assert!((RankFamily::Ipps.inclusion_probability(0.5, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rank_and_cdf_are_inverse() {
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            for &w in &[0.1, 1.0, 7.5, 100.0] {
                for &u in &[0.05, 0.3, 0.72, 0.999] {
                    let rank = family.rank_from_seed(w, u);
                    let back = family.seed_from_rank(w, rank);
                    assert!((back - u).abs() < 1e-9, "{family:?} w={w} u={u} back={back}");
                }
            }
        }
    }

    #[test]
    fn monotone_in_weight() {
        // Larger weight => smaller rank for the same seed (the consistency
        // property exploited by shared-seed coordination).
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            for &u in &[0.1, 0.5, 0.9] {
                let r_small = family.rank_from_seed(1.0, u);
                let r_large = family.rank_from_seed(10.0, u);
                assert!(r_large < r_small);
            }
        }
    }

    #[test]
    fn monotone_family_cdf_ordering() {
        // F_{w1}(x) >= F_{w2}(x) whenever w1 >= w2 (definition of monotone
        // family, Section 3).
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            for &x in &[0.01, 0.1, 1.0, 10.0] {
                let p1 = family.inclusion_probability(5.0, x);
                let p2 = family.inclusion_probability(1.0, x);
                assert!(p1 >= p2);
            }
        }
    }

    #[test]
    fn exp_min_stability_statistical() {
        // The minimum of EXP[w1], EXP[w2] ranks behaves like EXP[w1+w2]:
        // check the mean of the minimum over a deterministic seed sweep.
        use cws_hash::SeedSequence;
        let seq = SeedSequence::new(5);
        let (w1, w2) = (2.0, 3.0);
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|k| {
                let r1 = RankFamily::Exp.rank_from_seed(w1, seq.assignment_seed(k, 0));
                let r2 = RankFamily::Exp.rank_from_seed(w2, seq.assignment_seed(k, 1));
                r1.min(r2)
            })
            .sum::<f64>()
            / n as f64;
        let expected = 1.0 / (w1 + w2);
        assert!((mean - expected).abs() < 0.01, "mean {mean} expected {expected}");
    }
}
