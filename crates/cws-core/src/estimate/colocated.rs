//! Estimators over colocated summaries (Section 6).
//!
//! * [`InclusiveEstimator`] — the paper's inclusive estimator: the selection
//!   contains every outcome in which the key appears in the union of the
//!   embedded samples, the most inclusive selection possible, so by
//!   Lemma 5.1 it dominates any estimator that uses only a single embedded
//!   sample. Because colocated records carry the full weight vector, the same
//!   machinery serves single-assignment sums and any multiple-assignment
//!   aggregate (max, min, L1, ℓ-th largest, or a custom function of the
//!   weight vector).
//! * [`PlainEstimator`] — the baseline: the classic RC estimator applied to
//!   the embedded sample of one assignment, ignoring keys sampled only for
//!   other assignments.

use crate::aggregates::AggregateFn;
use crate::coordination::CoordinationMode;
use crate::error::{CwsError, Result};
use crate::estimate::adjusted::AdjustedWeights;
use crate::estimate::template::{estimate_from_selection, Selected};
use crate::summary::{ColocatedRecord, ColocatedSummary};

/// The inclusive estimator over a colocated summary.
#[derive(Debug, Clone, Copy)]
pub struct InclusiveEstimator<'a> {
    summary: &'a ColocatedSummary,
}

impl<'a> InclusiveEstimator<'a> {
    /// Creates an estimator over `summary`.
    #[must_use]
    pub fn new(summary: &'a ColocatedSummary) -> Self {
        Self { summary }
    }

    /// The conditional probability, given the ranks of all other keys, that
    /// this record appears in the union of the embedded samples (Eq. 4,
    /// instantiated per coordination mode: Eq. 5 for independent ranks, Eq. 6
    /// for shared-seed ranks, and the `A_ℓ` recursion for
    /// independent-differences ranks).
    #[must_use]
    pub(crate) fn inclusion_probability(&self, record: &ColocatedRecord) -> f64 {
        let summary = self.summary;
        let family = summary.family();
        let assignments = summary.num_assignments();
        match summary.mode() {
            CoordinationMode::Independent => {
                let mut complement = 1.0;
                for b in 0..assignments {
                    let threshold = summary.threshold_excluding(record, b);
                    complement *= 1.0 - family.inclusion_probability(record.weights[b], threshold);
                }
                1.0 - complement
            }
            CoordinationMode::SharedSeed => {
                let mut best = 0.0f64;
                for b in 0..assignments {
                    let threshold = summary.threshold_excluding(record, b);
                    best = best.max(family.inclusion_probability(record.weights[b], threshold));
                }
                best
            }
            CoordinationMode::IndependentDifferences => {
                // Sort the positive entries of the weight vector in increasing
                // order; level j draws d_j ~ EXP[w_(j) - w_(j-1)] and the key
                // is included somewhere iff some d_j falls below
                // M_j = max_{a >= j} threshold(b_a).
                let mut order: Vec<usize> =
                    (0..assignments).filter(|&b| record.weights[b] > 0.0).collect();
                order.sort_by(|&a, &b| record.weights[a].total_cmp(&record.weights[b]));
                if order.is_empty() {
                    return 0.0;
                }
                let suffix_max: Vec<f64> = {
                    let thresholds: Vec<f64> =
                        order.iter().map(|&b| summary.threshold_excluding(record, b)).collect();
                    let mut suffix = thresholds.clone();
                    for j in (0..suffix.len().saturating_sub(1)).rev() {
                        suffix[j] = suffix[j].max(suffix[j + 1]);
                    }
                    suffix
                };
                let mut probability = 0.0;
                let mut none_so_far = 1.0;
                let mut previous_weight = 0.0;
                for (level, &b) in order.iter().enumerate() {
                    let increment = record.weights[b] - previous_weight;
                    previous_weight = record.weights[b];
                    let hit = family.inclusion_probability(increment, suffix_max[level]);
                    probability += none_so_far * hit;
                    none_so_far *= 1.0 - hit;
                }
                probability
            }
        }
    }

    /// Adjusted weights for an arbitrary per-key function `f` of the weight
    /// vector. `f` must be non-negative and may only be positive for keys
    /// with a positive maximum weight (requirement (3) of Section 6) — which
    /// holds for every aggregate built from the weights themselves.
    #[must_use]
    pub(crate) fn adjusted_weights_with<F>(&self, f: F) -> AdjustedWeights
    where
        F: Fn(&[f64]) -> f64,
    {
        let summary = self.summary;
        let mut records = summary.records().iter();
        estimate_from_selection(summary.records().iter().map(|r| r.key), |_key| {
            let record = records.next().expect("records and keys iterate in lockstep");
            let value = f(&record.weights);
            if value == 0.0 {
                return None;
            }
            Some(Selected { value, probability: self.inclusion_probability(record) })
        })
    }

    /// Inclusion probabilities for every record, aligned with
    /// `summary.records()`.
    ///
    /// The inclusion probability of a record is a property of the summary
    /// outcome alone — it does not depend on the aggregate being estimated —
    /// so one probability pass can be shared across any number of aggregates
    /// via [`InclusiveEstimator::aggregate_with`]. The values are
    /// bit-identical to what [`InclusiveEstimator::aggregate`] computes
    /// internally.
    #[must_use]
    pub fn inclusion_probabilities(&self) -> Vec<f64> {
        self.summary.records().iter().map(|record| self.inclusion_probability(record)).collect()
    }

    /// Like [`InclusiveEstimator::adjusted_weights_with`], but reusing the
    /// precomputed `probabilities` from
    /// [`InclusiveEstimator::inclusion_probabilities`] instead of
    /// recomputing them. `inclusion_probability` is deterministic, so the
    /// result is bit-identical to the recomputing path.
    ///
    /// # Panics
    /// Panics when `probabilities` is not aligned with the summary records.
    #[must_use]
    pub(crate) fn adjusted_weights_with_probs<F>(
        &self,
        f: F,
        probabilities: &[f64],
    ) -> AdjustedWeights
    where
        F: Fn(&[f64]) -> f64,
    {
        let records = self.summary.records();
        assert_eq!(
            records.len(),
            probabilities.len(),
            "probabilities must be aligned with the summary records"
        );
        AdjustedWeights::from_selected(records.iter().zip(probabilities).filter_map(
            |(record, &probability)| {
                let value = f(&record.weights);
                (value != 0.0).then_some((record.key, Selected { value, probability }))
            },
        ))
    }

    fn validate(&self, f: &AggregateFn) -> Result<()> {
        let relevant = f.relevant_assignments();
        if relevant.is_empty() {
            return Err(CwsError::EmptyAssignmentSet);
        }
        let available = self.summary.num_assignments();
        if let Some(&bad) = relevant.iter().find(|&&b| b >= available) {
            return Err(CwsError::AssignmentOutOfRange { index: bad, available });
        }
        let mut sorted = relevant.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != relevant.len() {
            return Err(CwsError::InvalidParameter {
                name: "assignments",
                message: "relevant assignments must be distinct".to_string(),
            });
        }
        if let AggregateFn::LthLargest { assignments, ell } = f {
            if *ell < 1 || *ell > assignments.len() {
                return Err(CwsError::InvalidDependenceOrder {
                    ell: *ell,
                    relevant: assignments.len(),
                });
            }
        }
        Ok(())
    }

    /// Adjusted weights for one of the standard aggregates.
    ///
    /// # Errors
    /// Returns an error if the aggregate references an assignment outside the
    /// summary, has an empty relevant set or repeats an assignment (`R` is a
    /// set), or has an ℓ outside `1..=|R|`.
    pub fn aggregate(&self, f: &AggregateFn) -> Result<AdjustedWeights> {
        self.validate(f)?;
        Ok(self.adjusted_weights_with(|weights| f.evaluate(weights)))
    }

    /// [`InclusiveEstimator::aggregate`] with a shared probability pass: the
    /// validation is identical, and the adjusted weights are bit-identical
    /// when `probabilities` comes from
    /// [`InclusiveEstimator::inclusion_probabilities`].
    ///
    /// # Errors
    /// Returns an error if the aggregate references an assignment outside the
    /// summary or has an empty relevant set.
    ///
    /// # Panics
    /// Panics when `probabilities` is not aligned with the summary records.
    pub fn aggregate_with(
        &self,
        f: &AggregateFn,
        probabilities: &[f64],
    ) -> Result<AdjustedWeights> {
        self.validate(f)?;
        Ok(self.adjusted_weights_with_probs(|weights| f.evaluate(weights), probabilities))
    }

    /// Adjusted weights for the single-assignment sum `Σ w^(b)(i)`.
    ///
    /// # Errors
    /// Returns an error if `assignment` is out of range.
    pub fn single(&self, assignment: usize) -> Result<AdjustedWeights> {
        self.aggregate(&AggregateFn::SingleAssignment(assignment))
    }

    /// Adjusted weights for `max_{b ∈ R} w^(b)(i)`.
    ///
    /// # Errors
    /// Returns an error if `assignments` is empty or out of range.
    pub fn max(&self, assignments: &[usize]) -> Result<AdjustedWeights> {
        self.aggregate(&AggregateFn::Max(assignments.to_vec()))
    }

    /// Adjusted weights for `min_{b ∈ R} w^(b)(i)`.
    ///
    /// # Errors
    /// Returns an error if `assignments` is empty or out of range.
    pub fn min(&self, assignments: &[usize]) -> Result<AdjustedWeights> {
        self.aggregate(&AggregateFn::Min(assignments.to_vec()))
    }

    /// Adjusted weights for the range `max_R − min_R` (the L1 difference when
    /// `|R| = 2`). All inclusive estimators share the same inclusion
    /// probability, so the L1 adjusted weight of a key is directly
    /// `(max − min)/p ≥ 0`.
    ///
    /// # Errors
    /// Returns an error if `assignments` is empty or out of range.
    pub fn l1(&self, assignments: &[usize]) -> Result<AdjustedWeights> {
        self.aggregate(&AggregateFn::L1(assignments.to_vec()))
    }
}

/// The plain (single-sketch) RC estimator over a colocated summary: uses only
/// the keys embedded in the sample of the requested assignment.
#[derive(Debug, Clone, Copy)]
pub struct PlainEstimator<'a> {
    summary: &'a ColocatedSummary,
}

impl<'a> PlainEstimator<'a> {
    /// Creates an estimator over `summary`.
    #[must_use]
    pub fn new(summary: &'a ColocatedSummary) -> Self {
        Self { summary }
    }

    /// Adjusted weights for the single-assignment sum `Σ w^(b)(i)`, using only
    /// the embedded bottom-k sample of `b` (the classic RC / priority-sampling
    /// estimator).
    ///
    /// # Errors
    /// Returns an error if `assignment` is out of range.
    pub fn single(&self, assignment: usize) -> Result<AdjustedWeights> {
        let summary = self.summary;
        if assignment >= summary.num_assignments() {
            return Err(CwsError::AssignmentOutOfRange {
                index: assignment,
                available: summary.num_assignments(),
            });
        }
        let family = summary.family();
        let threshold = summary.next_rank(assignment);
        Ok(AdjustedWeights::from_entries(
            summary
                .records()
                .iter()
                .filter(|record| record.in_sketch[assignment] && record.weights[assignment] > 0.0)
                .map(|record| {
                    let weight = record.weights[assignment];
                    (record.key, weight / family.inclusion_probability(weight, threshold))
                }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::exact_aggregate;
    use crate::ranks::RankFamily;
    use crate::summary::SummaryConfig;
    use crate::weights::{Key, MultiWeighted};

    /// Skewed, partially correlated 3-assignment data set.
    fn fixture(num_keys: u64) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..num_keys {
            let base = ((key % 19) + 1) as f64 * if key % 23 == 0 { 25.0 } else { 1.0 };
            builder.add(key, 0, base);
            builder.add(key, 1, if key % 5 == 0 { 0.0 } else { base * 1.4 + (key % 3) as f64 });
            builder.add(key, 2, ((key % 7) * 3) as f64);
        }
        builder.build()
    }

    fn mean_estimate<F>(data: &MultiWeighted, config: &SummaryConfig, runs: u64, f: F) -> f64
    where
        F: Fn(&ColocatedSummary) -> f64,
    {
        let mut total = 0.0;
        for run in 0..runs {
            let summary = ColocatedSummary::build(data, &config.with_seed(run * 7919 + 13));
            total += f(&summary);
        }
        total / runs as f64
    }

    fn modes() -> [(RankFamily, CoordinationMode); 4] {
        [
            (RankFamily::Ipps, CoordinationMode::SharedSeed),
            (RankFamily::Ipps, CoordinationMode::Independent),
            (RankFamily::Exp, CoordinationMode::SharedSeed),
            (RankFamily::Exp, CoordinationMode::IndependentDifferences),
        ]
    }

    #[test]
    fn inclusive_single_assignment_is_unbiased() {
        let data = fixture(250);
        let predicate = |key: Key| key % 4 == 1;
        for (family, mode) in modes() {
            let config = SummaryConfig::new(30, family, mode, 1);
            for b in 0..3 {
                let exact = exact_aggregate(&data, &AggregateFn::SingleAssignment(b), predicate);
                let mean = mean_estimate(&data, &config, 400, |summary| {
                    InclusiveEstimator::new(summary).single(b).unwrap().subset_total(predicate)
                });
                assert!(
                    (mean - exact).abs() <= exact.max(1.0) * 0.08,
                    "{family:?}/{mode:?} b={b}: mean {mean} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn inclusive_multi_assignment_aggregates_are_unbiased() {
        let data = fixture(250);
        let r = vec![0usize, 1, 2];
        for (family, mode) in modes() {
            let config = SummaryConfig::new(30, family, mode, 2);
            for aggregate in [
                AggregateFn::Max(r.clone()),
                AggregateFn::Min(r.clone()),
                AggregateFn::L1(r.clone()),
                AggregateFn::LthLargest { assignments: r.clone(), ell: 2 },
            ] {
                let exact = exact_aggregate(&data, &aggregate, |_| true);
                let mean = mean_estimate(&data, &config, 400, |summary| {
                    InclusiveEstimator::new(summary).aggregate(&aggregate).unwrap().total()
                });
                assert!(
                    (mean - exact).abs() <= exact.max(1.0) * 0.08,
                    "{family:?}/{mode:?} {}: mean {mean} vs exact {exact}",
                    aggregate.label()
                );
            }
        }
    }

    #[test]
    fn plain_estimator_is_unbiased() {
        let data = fixture(250);
        let config = SummaryConfig::new(30, RankFamily::Ipps, CoordinationMode::SharedSeed, 3);
        let exact = exact_aggregate(&data, &AggregateFn::SingleAssignment(0), |_| true);
        let mean = mean_estimate(&data, &config, 400, |summary| {
            PlainEstimator::new(summary).single(0).unwrap().total()
        });
        assert!((mean - exact).abs() <= exact * 0.08, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn inclusive_beats_plain_on_mean_squared_error() {
        // Lemma 8.2: the inclusive estimator's per-key variance is at most the
        // plain estimator's. Check the aggregate mean squared error.
        let data = fixture(300);
        let config = SummaryConfig::new(40, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);
        let exact = exact_aggregate(&data, &AggregateFn::SingleAssignment(2), |_| true);
        let runs = 300u64;
        let (mut inclusive_sq, mut plain_sq) = (0.0, 0.0);
        for run in 0..runs {
            let summary = ColocatedSummary::build(&data, &config.with_seed(run * 31 + 7));
            let inclusive = InclusiveEstimator::new(&summary).single(2).unwrap().total();
            let plain = PlainEstimator::new(&summary).single(2).unwrap().total();
            inclusive_sq += (inclusive - exact).powi(2);
            plain_sq += (plain - exact).powi(2);
        }
        assert!(
            inclusive_sq < plain_sq,
            "inclusive MSE {inclusive_sq} should be below plain MSE {plain_sq}"
        );
    }

    #[test]
    fn l1_adjusted_weights_are_non_negative_and_consistent() {
        let data = fixture(200);
        for (family, mode) in modes() {
            let config = SummaryConfig::new(25, family, mode, 11);
            let summary = ColocatedSummary::build(&data, &config);
            let estimator = InclusiveEstimator::new(&summary);
            let max = estimator.max(&[0, 1]).unwrap();
            let min = estimator.min(&[0, 1]).unwrap();
            let l1 = estimator.l1(&[0, 1]).unwrap();
            for record in summary.records() {
                let key = record.key;
                assert!(l1.get(key) >= 0.0);
                assert!(
                    (l1.get(key) - (max.get(key) - min.get(key))).abs() < 1e-9,
                    "{family:?}/{mode:?}"
                );
            }
        }
    }

    #[test]
    fn inclusion_probabilities_are_valid_and_ordered() {
        // Shared-seed probabilities are the max over assignments; independent
        // probabilities are at least that max (union of independent events).
        let data = fixture(200);
        let shared = ColocatedSummary::build(
            &data,
            &SummaryConfig::new(25, RankFamily::Ipps, CoordinationMode::SharedSeed, 13),
        );
        let estimator = InclusiveEstimator::new(&shared);
        for record in shared.records() {
            let p = estimator.inclusion_probability(record);
            assert!(p > 0.0 && p <= 1.0 + 1e-12, "p={p}");
            let family = shared.family();
            let max_single = (0..3)
                .map(|b| {
                    family.inclusion_probability(
                        record.weights[b],
                        shared.threshold_excluding(record, b),
                    )
                })
                .fold(0.0f64, f64::max);
            assert!((p - max_single).abs() < 1e-12);
        }
    }

    #[test]
    fn aggregate_with_shared_probabilities_is_bit_identical() {
        let data = fixture(200);
        for (family, mode) in modes() {
            let config = SummaryConfig::new(25, family, mode, 29);
            let summary = ColocatedSummary::build(&data, &config);
            let estimator = InclusiveEstimator::new(&summary);
            let probs = estimator.inclusion_probabilities();
            for aggregate in [
                AggregateFn::SingleAssignment(1),
                AggregateFn::Max(vec![0, 2]),
                AggregateFn::Min(vec![0, 2]),
                AggregateFn::L1(vec![0, 2]),
            ] {
                let direct = estimator.aggregate(&aggregate).unwrap();
                let shared = estimator.aggregate_with(&aggregate, &probs).unwrap();
                assert_eq!(direct.len(), shared.len(), "{family:?}/{mode:?}");
                for (key, value) in direct.iter() {
                    // Bit-level equality, not approximate.
                    assert_eq!(
                        value.to_bits(),
                        shared.get(key).to_bits(),
                        "{family:?}/{mode:?} {}",
                        aggregate.label()
                    );
                }
                assert_eq!(
                    direct.subset_variance(|_| true).unwrap().to_bits(),
                    shared.subset_variance(|_| true).unwrap().to_bits()
                );
            }
            // Validation is shared too.
            assert!(matches!(
                estimator.aggregate_with(&AggregateFn::Max(vec![]), &probs),
                Err(CwsError::EmptyAssignmentSet)
            ));
        }
    }

    #[test]
    fn aggregate_validation_errors() {
        let data = fixture(50);
        let config = SummaryConfig::new(10, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let summary = ColocatedSummary::build(&data, &config);
        let estimator = InclusiveEstimator::new(&summary);
        assert!(matches!(
            estimator.single(7),
            Err(CwsError::AssignmentOutOfRange { index: 7, available: 3 })
        ));
        assert!(matches!(estimator.max(&[]), Err(CwsError::EmptyAssignmentSet)));
        // R is a set, as on dispersed summaries: a repeated assignment is rejected.
        assert!(matches!(
            estimator.max(&[0, 0]),
            Err(CwsError::InvalidParameter { name: "assignments", .. })
        ));
        assert!(matches!(
            estimator.aggregate(&AggregateFn::LthLargest { assignments: vec![0, 0, 1], ell: 2 }),
            Err(CwsError::InvalidParameter { name: "assignments", .. })
        ));
        assert!(matches!(
            estimator.aggregate(&AggregateFn::LthLargest { assignments: vec![0, 1], ell: 5 }),
            Err(CwsError::InvalidDependenceOrder { .. })
        ));
        assert!(matches!(
            PlainEstimator::new(&summary).single(9),
            Err(CwsError::AssignmentOutOfRange { .. })
        ));
    }

    #[test]
    fn custom_weight_functions_are_supported() {
        // Aggregates over secondary functions of the weight vector, e.g. the
        // second moment of assignment 0.
        let data = fixture(200);
        let config = SummaryConfig::new(30, RankFamily::Ipps, CoordinationMode::SharedSeed, 17);
        let exact: f64 = data.iter().map(|(_, w)| w[0] * w[0]).sum();
        let mean = mean_estimate(&data, &config, 400, |summary| {
            InclusiveEstimator::new(summary).adjusted_weights_with(|w| w[0] * w[0]).total()
        });
        assert!((mean - exact).abs() <= exact * 0.15, "mean {mean} vs exact {exact}");
    }
}
