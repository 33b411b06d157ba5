//! The template estimator (Section 5).
//!
//! Every estimator in this crate is an instance of the same recipe, the
//! paper's *template estimator* built on HT over a partitioned sample space
//! (HTP) with rank conditioning (RC):
//!
//! 1. choose, for every key `i`, a selection `S*(i)` of summary outcomes in
//!    which `f(i)` (and the predicate `d(i)`) can be evaluated from the
//!    summary alone;
//! 2. compute the conditional probability `p(S, i)` that the outcome lands in
//!    `S*(i)`, conditioned on the ranks of all other keys (`Ω(i, r^{-i})`);
//! 3. assign the adjusted weight `a^(f)(i) = f(i) / p(S, i)` when the outcome
//!    is selected and `0` otherwise.
//!
//! Unbiasedness follows because, within every conditioned subspace, the
//! selected outcomes occur with probability exactly `p(S, i)`. The variance
//! decreases as the selection gets more inclusive (Lemma 5.1) — which is why
//! the *inclusive* colocated estimators and the *l-set* dispersed estimators
//! dominate their simpler counterparts.
//!
//! The concrete selection rules live in [`crate::estimate::colocated`] and
//! [`crate::estimate::dispersed`]; this module provides the shared plumbing.

use crate::estimate::adjusted::AdjustedWeights;
use crate::weights::Key;

/// The outcome of applying a selection rule to one key: the value `f(i)`
/// determined from the summary and the conditional inclusion probability of
/// the selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Selected {
    /// `f(i)`, as determined from the summary.
    pub value: f64,
    /// `p(S, i) ∈ (0, 1]` — the probability, conditioned on the ranks of all
    /// other keys, that the summary outcome belongs to the selection.
    pub probability: f64,
}

impl Selected {
    /// The adjusted weight `f(i) / p(S, i)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if the probability is not in `(0, 1]` while
    /// the value is positive — that would make the estimator undefined
    /// (requirement 1 of the template).
    #[must_use]
    pub(crate) fn adjusted_weight(&self) -> f64 {
        if self.value == 0.0 {
            return 0.0;
        }
        debug_assert!(
            self.probability > 0.0 && self.probability <= 1.0 + 1e-12,
            "inclusion probability must be in (0,1], got {}",
            self.probability
        );
        self.value / self.probability
    }
}

/// Drives the template estimator: applies a selection rule to every candidate
/// key of the summary and assembles the resulting [`AdjustedWeights`].
///
/// `selection(key)` returns `None` when the outcome is not in `S*(key)` (the
/// key then keeps its implicit zero adjusted weight). The `(value,
/// probability)` pairs are retained as support detail, so the resulting
/// summary can also estimate its own variance and the subpopulation count.
#[must_use]
pub(crate) fn estimate_from_selection<I, F>(candidates: I, mut selection: F) -> AdjustedWeights
where
    I: IntoIterator<Item = Key>,
    F: FnMut(Key) -> Option<Selected>,
{
    AdjustedWeights::from_selected(
        candidates.into_iter().filter_map(|key| selection(key).map(|selected| (key, selected))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjusted_weight_divides_by_probability() {
        let s = Selected { value: 3.0, probability: 0.25 };
        assert_eq!(s.adjusted_weight(), 12.0);
        let zero = Selected { value: 0.0, probability: 0.0 };
        assert_eq!(zero.adjusted_weight(), 0.0);
    }

    #[test]
    fn estimate_from_selection_collects_only_selected_keys() {
        let aw = estimate_from_selection(0u64..6, |key| {
            (key % 2 == 0).then_some(Selected { value: key as f64, probability: 0.5 })
        });
        assert_eq!(aw.len(), 2); // keys 2 and 4 (key 0 has value 0)
        assert_eq!(aw.get(2), 4.0);
        assert_eq!(aw.get(4), 8.0);
        assert_eq!(aw.get(1), 0.0);
    }
}
