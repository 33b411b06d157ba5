//! k-mins sketches and the weighted Jaccard similarity estimator.
//!
//! A k-mins sketch applies `k` independent rank assignments to the weighted
//! set and records, for each, the key attaining the minimum rank (Section 3).
//! With EXP ranks each replica is a single weighted-sampling draw.
//!
//! Theorem 4.1: when the `k` rank assignments use *independent-differences
//! consistent* ranks across assignments, the probability that two
//! assignments share the same minimum-rank key equals their **weighted
//! Jaccard similarity** `Σ_i min(w1, w2) / Σ_i max(w1, w2)` — so the fraction
//! of agreeing replicas is an unbiased estimator of it.

use crate::coordination::RankGenerator;
use crate::weights::{Key, MultiWeighted};

/// A k-mins sketch of one weight assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct KMinsSketch {
    /// Per replica: the minimum-rank key and its rank, or `None` when the
    /// assignment has no positive-weight key.
    entries: Vec<Option<(Key, f64)>>,
}

impl KMinsSketch {
    /// Number of replicas `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.entries.len()
    }

    /// The replica entries.
    #[must_use]
    pub fn entries(&self) -> &[Option<(Key, f64)>] {
        &self.entries
    }

    /// Estimates the weighted Jaccard similarity between the assignments
    /// summarized by `self` and `other` as the fraction of replicas whose
    /// minimum-rank key agrees (Theorem 4.1; requires sketches built from the
    /// same coordinated rank assignments).
    ///
    /// # Panics
    /// Panics if the sketches have different numbers of replicas or zero
    /// replicas.
    #[must_use]
    pub fn jaccard_estimate(&self, other: &KMinsSketch) -> f64 {
        assert_eq!(self.k(), other.k(), "sketches must have the same number of replicas");
        assert!(self.k() > 0, "at least one replica is required");
        let agree = self
            .entries
            .iter()
            .zip(&other.entries)
            .filter(|(a, b)| match (a, b) {
                (Some((ka, _)), Some((kb, _))) => ka == kb,
                _ => false,
            })
            .count();
        agree as f64 / self.k() as f64
    }
}

/// Builds coordinated k-mins sketches, one per weight assignment of `data`.
///
/// Replica `j` uses the rank generator `generator.derive(j)`, so all
/// assignments share the same `k` rank assignments — the coordination that
/// Theorem 4.1 requires.
#[must_use]
#[allow(clippy::needless_range_loop)] // replica indexes a column across all assignments
pub fn kmins_sketches(
    data: &MultiWeighted,
    k: usize,
    generator: &RankGenerator,
) -> Vec<KMinsSketch> {
    assert!(k > 0, "number of replicas k must be positive");
    let assignments = data.num_assignments();
    let mut entries: Vec<Vec<Option<(Key, f64)>>> = vec![vec![None; k]; assignments];
    for replica in 0..k {
        let gen = generator.derive(replica as u64 + 1);
        for (key, weights) in data.iter() {
            let ranks = gen.rank_vector(key, weights);
            for (b, &rank) in ranks.iter().enumerate() {
                if !rank.is_finite() {
                    continue;
                }
                match entries[b][replica] {
                    Some((_, best)) if best <= rank => {}
                    _ => entries[b][replica] = Some((key, rank)),
                }
            }
        }
    }
    entries.into_iter().map(|entries| KMinsSketch { entries }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::weighted_jaccard;
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;

    fn fixture(correlated: bool) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..200u64 {
            let w1 = ((key % 13) + 1) as f64;
            let w2 =
                if correlated { w1 * 1.2 + ((key % 3) as f64) } else { ((key % 7) + 1) as f64 };
            builder.add(key, 0, w1);
            builder.add(key, 1, w2);
        }
        builder.build()
    }

    #[test]
    fn sketch_shape() {
        let data = fixture(true);
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 11)
            .unwrap();
        let sketches = kmins_sketches(&data, 32, &gen);
        assert_eq!(sketches.len(), 2);
        assert_eq!(sketches[0].k(), 32);
        assert!(sketches[0].entries().iter().all(Option::is_some));
    }

    #[test]
    fn empty_assignment_yields_none_entries() {
        let mut builder = MultiWeighted::builder(2);
        builder.add(1, 0, 5.0); // assignment 1 stays empty
        let data = builder.build();
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::SharedSeed, 1).unwrap();
        let sketches = kmins_sketches(&data, 4, &gen);
        assert!(sketches[0].entries().iter().all(Option::is_some));
        assert!(sketches[1].entries().iter().all(Option::is_none));
        assert_eq!(sketches[0].jaccard_estimate(&sketches[1]), 0.0);
    }

    #[test]
    fn jaccard_estimate_is_close_to_truth_theorem_4_1() {
        // Theorem 4.1: with independent-differences consistent ranks, the
        // agreement probability equals the weighted Jaccard similarity.
        let data = fixture(true);
        let truth = weighted_jaccard(&data, 0, 1, |_| true);
        let gen =
            RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 2024)
                .unwrap();
        let k = 4000;
        let sketches = kmins_sketches(&data, k, &gen);
        let estimate = sketches[0].jaccard_estimate(&sketches[1]);
        assert!((estimate - truth).abs() < 0.03, "estimate {estimate} vs truth {truth}");
    }

    #[test]
    fn identical_assignments_have_jaccard_one() {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..50u64 {
            let w = (key + 1) as f64;
            builder.add(key, 0, w);
            builder.add(key, 1, w);
        }
        let data = builder.build();
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::IndependentDifferences] {
            let gen = RankGenerator::new(RankFamily::Exp, mode, 3).unwrap();
            let sketches = kmins_sketches(&data, 64, &gen);
            assert_eq!(sketches[0].jaccard_estimate(&sketches[1]), 1.0, "{mode:?}");
        }
    }

    #[test]
    fn independent_ranks_underestimate_similarity() {
        // The motivating failure of non-coordinated samples: two nearly
        // identical assignments produce nearly disjoint independent samples.
        let data = fixture(true);
        let truth = weighted_jaccard(&data, 0, 1, |_| true);
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::Independent, 5).unwrap();
        let sketches = kmins_sketches(&data, 2000, &gen);
        let estimate = sketches[0].jaccard_estimate(&sketches[1]);
        assert!(estimate < truth * 0.3, "estimate {estimate} vs truth {truth}");
    }

    #[test]
    #[should_panic(expected = "same number of replicas")]
    fn mismatched_k_panics() {
        let data = fixture(true);
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::SharedSeed, 1).unwrap();
        let a = kmins_sketches(&data, 4, &gen);
        let b = kmins_sketches(&data, 8, &gen);
        let _ = a[0].jaccard_estimate(&b[1]);
    }
}
