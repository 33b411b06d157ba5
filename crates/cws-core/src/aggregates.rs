//! Aggregate functions over multi-assignment data and their exact evaluation.
//!
//! The queries supported by the summaries are sums `Σ_{i : d(i)} f(i)` where
//! `d` is a selection predicate over keys and `f` is a per-key numeric
//! function of the weight vector (Section 4). This module defines the
//! aggregate functions used throughout the paper and computes them exactly
//! from the full data — the ground truth against which the estimators are
//! evaluated.

use crate::weights::{Key, MultiWeighted};

/// A per-key numeric function `f(i)` of the weight vector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggregateFn {
    /// `f(i) = w^(b)(i)` — a single-assignment weighted sum.
    SingleAssignment(usize),
    /// `f(i) = max_{b ∈ R} w^(b)(i)` — the max-dominance norm contribution.
    Max(Vec<usize>),
    /// `f(i) = min_{b ∈ R} w^(b)(i)` — the min-dominance norm contribution.
    Min(Vec<usize>),
    /// `f(i) = max_R − min_R` — the range / L1 difference contribution.
    L1(Vec<usize>),
    /// `f(i)` = the ℓ-th largest entry of `w^(R)(i)` (1-based; ℓ=1 is the
    /// maximum, ℓ=|R| the minimum). Quantiles such as the median are special
    /// cases.
    LthLargest {
        /// The relevant assignments `R`.
        assignments: Vec<usize>,
        /// Which order statistic (1-based, from the largest).
        ell: usize,
    },
}

impl AggregateFn {
    /// The set of assignments the function depends on.
    #[must_use]
    pub fn relevant_assignments(&self) -> Vec<usize> {
        match self {
            AggregateFn::SingleAssignment(b) => vec![*b],
            AggregateFn::Max(r) | AggregateFn::Min(r) | AggregateFn::L1(r) => r.clone(),
            AggregateFn::LthLargest { assignments, .. } => assignments.clone(),
        }
    }

    /// Evaluates `f(i)` on a weight vector (indexed by assignment).
    ///
    /// # Panics
    /// Panics if an assignment index is out of range for the vector, if the
    /// relevant set is empty, or if ℓ is out of range.
    #[must_use]
    pub fn evaluate(&self, weights: &[f64]) -> f64 {
        match self {
            AggregateFn::SingleAssignment(b) => weights[*b],
            AggregateFn::Max(r) => {
                assert!(!r.is_empty(), "relevant assignment set must not be empty");
                r.iter().map(|&b| weights[b]).fold(0.0, f64::max)
            }
            AggregateFn::Min(r) => {
                assert!(!r.is_empty(), "relevant assignment set must not be empty");
                r.iter().map(|&b| weights[b]).fold(f64::INFINITY, f64::min)
            }
            AggregateFn::L1(r) => {
                // The `Max` and `Min` folds above, over `r` directly.
                assert!(!r.is_empty(), "relevant assignment set must not be empty");
                let max = r.iter().map(|&b| weights[b]).fold(0.0, f64::max);
                let min = r.iter().map(|&b| weights[b]).fold(f64::INFINITY, f64::min);
                max - min
            }
            AggregateFn::LthLargest { assignments, ell } => {
                assert!(!assignments.is_empty(), "relevant assignment set must not be empty");
                assert!(*ell >= 1 && *ell <= assignments.len(), "ell must be in 1..=|R|");
                let mut values: Vec<f64> = assignments.iter().map(|&b| weights[b]).collect();
                values.sort_by(|a, b| b.total_cmp(a));
                values[*ell - 1]
            }
        }
    }

    /// Short label used by the experiment harness ("min", "max", "L1", …).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AggregateFn::SingleAssignment(b) => format!("w({b})"),
            AggregateFn::Max(_) => "max".to_string(),
            AggregateFn::Min(_) => "min".to_string(),
            AggregateFn::L1(_) => "L1".to_string(),
            AggregateFn::LthLargest { ell, .. } => format!("{ell}-th largest"),
        }
    }
}

/// Exactly evaluates `Σ_{i : predicate(i)} f(i)` over the full data set.
#[must_use]
pub fn exact_aggregate<P>(data: &MultiWeighted, f: &AggregateFn, predicate: P) -> f64
where
    P: Fn(Key) -> bool,
{
    data.iter().filter(|&(key, _)| predicate(key)).map(|(_, weights)| f.evaluate(weights)).sum()
}

/// Exact per-key values of `f`, in the data set's key order. Used by the
/// evaluation harness to compute per-key squared errors.
#[must_use]
pub fn exact_per_key(data: &MultiWeighted, f: &AggregateFn) -> Vec<(Key, f64)> {
    data.iter().map(|(key, weights)| (key, f.evaluate(weights))).collect()
}

/// The weighted Jaccard similarity of assignments `a` and `b` over the keys
/// selected by `predicate`:
/// `Σ min(w^(a), w^(b)) / Σ max(w^(a), w^(b))` (Section 4).
///
/// Returns `0` when the max-sum is zero (both assignments empty on the
/// selection).
#[must_use]
pub fn weighted_jaccard<P>(data: &MultiWeighted, a: usize, b: usize, predicate: P) -> f64
where
    P: Fn(Key) -> bool,
{
    let min = exact_aggregate(data, &AggregateFn::Min(vec![a, b]), &predicate);
    let max = exact_aggregate(data, &AggregateFn::Max(vec![a, b]), &predicate);
    if max == 0.0 {
        0.0
    } else {
        min / max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2 (A) data set.
    fn figure2() -> MultiWeighted {
        let w1 = [15.0, 0.0, 10.0, 5.0, 10.0, 10.0];
        let w2 = [20.0, 10.0, 12.0, 20.0, 0.0, 10.0];
        let w3 = [10.0, 15.0, 15.0, 0.0, 15.0, 10.0];
        let mut b = MultiWeighted::builder(3);
        for key in 0..6u64 {
            b.add(key, 0, w1[key as usize]);
            b.add(key, 1, w2[key as usize]);
            b.add(key, 2, w3[key as usize]);
        }
        b.build()
    }

    #[test]
    fn figure2_per_key_functions() {
        let data = figure2();
        // w(max{1,2}) row of Figure 2 (assignments 0 and 1 here).
        let max12: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::Max(vec![0, 1]).evaluate(w)).collect();
        assert_eq!(max12, vec![20.0, 10.0, 12.0, 20.0, 10.0, 10.0]);
        let max123: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::Max(vec![0, 1, 2]).evaluate(w)).collect();
        assert_eq!(max123, vec![20.0, 15.0, 15.0, 20.0, 15.0, 10.0]);
        let min12: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::Min(vec![0, 1]).evaluate(w)).collect();
        assert_eq!(min12, vec![15.0, 0.0, 10.0, 5.0, 0.0, 10.0]);
        let min123: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::Min(vec![0, 1, 2]).evaluate(w)).collect();
        assert_eq!(min123, vec![10.0, 0.0, 10.0, 0.0, 0.0, 10.0]);
        let l1_12: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::L1(vec![0, 1]).evaluate(w)).collect();
        assert_eq!(l1_12, vec![5.0, 10.0, 2.0, 15.0, 10.0, 0.0]);
        let l1_23: Vec<f64> =
            data.iter().map(|(_, w)| AggregateFn::L1(vec![1, 2]).evaluate(w)).collect();
        assert_eq!(l1_23, vec![10.0, 5.0, 3.0, 20.0, 15.0, 0.0]);
    }

    #[test]
    fn figure2_subpopulation_aggregates() {
        let data = figure2();
        // "max dominance norm over even keys" — keys i2, i4, i6 are our keys
        // 1, 3, 5 (0-based) — for R = {1,2,3}: 15 + 20 + 10 = 45.
        let even = |key: Key| key % 2 == 1;
        let value = exact_aggregate(&data, &AggregateFn::Max(vec![0, 1, 2]), even);
        assert_eq!(value, 45.0);
        // L1 between assignments 2 and 3 over keys i1,i2,i3 = 10 + 5 + 3.
        let first_three = |key: Key| key < 3;
        let value = exact_aggregate(&data, &AggregateFn::L1(vec![1, 2]), first_three);
        assert_eq!(value, 18.0);
    }

    #[test]
    fn lth_largest_orders_correctly() {
        let f1 = AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 1 };
        let f2 = AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 };
        let f3 = AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 3 };
        let w = [5.0, 20.0, 10.0];
        assert_eq!(f1.evaluate(&w), 20.0);
        assert_eq!(f2.evaluate(&w), 10.0);
        assert_eq!(f3.evaluate(&w), 5.0);
    }

    #[test]
    #[should_panic(expected = "ell must be in")]
    fn lth_largest_out_of_range_panics() {
        let f = AggregateFn::LthLargest { assignments: vec![0, 1], ell: 3 };
        let _ = f.evaluate(&[1.0, 2.0]);
    }

    #[test]
    fn relevant_assignments_and_labels() {
        assert_eq!(AggregateFn::SingleAssignment(2).relevant_assignments(), vec![2]);
        assert_eq!(AggregateFn::L1(vec![0, 3]).relevant_assignments(), vec![0, 3]);
        assert_eq!(AggregateFn::Min(vec![1]).label(), "min");
        assert_eq!(AggregateFn::SingleAssignment(1).label(), "w(1)");
        assert_eq!(
            AggregateFn::LthLargest { assignments: vec![0, 1, 2], ell: 2 }.label(),
            "2-th largest"
        );
    }

    #[test]
    fn weighted_jaccard_identical_and_disjoint() {
        let mut b = MultiWeighted::builder(2);
        b.add(1, 0, 3.0).add(1, 1, 3.0).add(2, 0, 5.0).add(2, 1, 5.0);
        let same = b.build();
        assert_eq!(weighted_jaccard(&same, 0, 1, |_| true), 1.0);

        let mut b = MultiWeighted::builder(2);
        b.add(1, 0, 3.0).add(2, 1, 5.0);
        let disjoint = b.build();
        assert_eq!(weighted_jaccard(&disjoint, 0, 1, |_| true), 0.0);

        // Empty selection.
        assert_eq!(weighted_jaccard(&same, 0, 1, |_| false), 0.0);
    }

    #[test]
    fn exact_per_key_matches_iteration() {
        let data = figure2();
        let per_key = exact_per_key(&data, &AggregateFn::SingleAssignment(1));
        assert_eq!(per_key.len(), 6);
        assert_eq!(per_key[0], (0, 20.0));
        assert_eq!(per_key[4], (4, 0.0));
    }
}
