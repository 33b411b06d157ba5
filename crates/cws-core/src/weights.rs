//! Weighted sets and multi-assignment data sets.
//!
//! The paper models data as a set of keys `I` together with a set `W` of
//! weight assignments, each mapping keys to non-negative reals (Section 4).
//! [`WeightedSet`] is the single-assignment special case used by the basic
//! sketches of Section 3; [`MultiWeighted`] holds the full key → weight-vector
//! mapping used by the multi-assignment summaries and estimators.

use std::collections::HashMap;

/// Key identifier.
///
/// Keys are 64-bit identifiers; applications map their natural keys (IP
/// 4-tuples, ticker symbols, movie ids, …) to `u64`, typically via
/// [`cws_hash::KeyHasher`] or an interning table kept by the data layer.
pub type Key = u64;

/// A single weight assignment over a set of keys: the weighted set `(I, w)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedSet {
    keys: Vec<Key>,
    weights: Vec<f64>,
    index: HashMap<Key, usize>,
    total: f64,
}

impl WeightedSet {
    /// Creates a weighted set from `(key, weight)` pairs.
    ///
    /// Duplicate keys have their weights summed (the "aggregated data" model
    /// of the paper: each key appears once with its total weight). Negative
    /// weights are rejected.
    #[must_use = "building a weighted set has no side effects"]
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Key, f64)>,
    {
        let mut index: HashMap<Key, usize> = HashMap::new();
        let mut keys = Vec::new();
        let mut weights = Vec::new();
        for (key, weight) in pairs {
            assert!(weight >= 0.0 && weight.is_finite(), "weights must be finite and non-negative");
            match index.get(&key) {
                Some(&slot) => weights[slot] += weight,
                None => {
                    index.insert(key, keys.len());
                    keys.push(key);
                    weights.push(weight);
                }
            }
        }
        let total = weights.iter().sum();
        Self { keys, weights, index, total }
    }

    /// Number of keys (including keys whose weight is zero).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the set holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys of the set, in insertion order.
    #[must_use]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The weight of `key`, or `0` if the key is absent.
    #[must_use]
    pub fn weight(&self, key: Key) -> f64 {
        self.index.get(&key).map_or(0.0, |&slot| self.weights[slot])
    }

    /// Total weight `w(I)`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Number of keys with strictly positive weight.
    #[must_use]
    pub fn positive_len(&self) -> usize {
        self.weights.iter().filter(|&&w| w > 0.0).count()
    }

    /// Iterates over `(key, weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Key, f64)> + '_ {
        self.keys.iter().copied().zip(self.weights.iter().copied())
    }

    /// Total weight of the keys selected by `predicate`.
    #[must_use]
    pub fn subset_total<P: Fn(Key) -> bool>(&self, predicate: P) -> f64 {
        self.iter().filter(|&(key, _)| predicate(key)).map(|(_, w)| w).sum()
    }
}

/// A multi-assignment data set: every key has a weight vector with one entry
/// per assignment in `W`.
///
/// The representation is dense row-major storage (`|I| × |W|`), which is the
/// natural format for the colocated model and is also what the evaluation
/// harness uses as ground truth for the dispersed model.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiWeighted {
    num_assignments: usize,
    keys: Vec<Key>,
    weights: Vec<f64>,
    index: HashMap<Key, usize>,
}

impl MultiWeighted {
    /// Starts building a data set with `num_assignments` weight assignments.
    #[must_use]
    pub fn builder(num_assignments: usize) -> MultiWeightedBuilder {
        assert!(num_assignments > 0, "at least one weight assignment is required");
        MultiWeightedBuilder {
            num_assignments,
            keys: Vec::new(),
            weights: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of weight assignments `|W|`.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.num_assignments
    }

    /// Number of distinct keys `|I|`.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the data set holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys, in insertion order.
    #[must_use]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The weight `w^(b)(key)`; `0` for absent keys.
    ///
    /// # Panics
    /// Panics if `assignment >= num_assignments`.
    #[must_use]
    pub(crate) fn weight(&self, key: Key, assignment: usize) -> f64 {
        assert!(assignment < self.num_assignments, "assignment out of range");
        self.index
            .get(&key)
            .map_or(0.0, |&row| self.weights[row * self.num_assignments + assignment])
    }

    /// The full weight vector of `key`, or `None` if the key is absent.
    #[must_use]
    pub(crate) fn weight_vector(&self, key: Key) -> Option<&[f64]> {
        self.index
            .get(&key)
            .map(|&row| &self.weights[row * self.num_assignments..(row + 1) * self.num_assignments])
    }

    /// Iterates over `(key, weight_vector)`.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &[f64])> + '_ {
        self.keys.iter().copied().enumerate().map(move |(row, key)| {
            (key, &self.weights[row * self.num_assignments..(row + 1) * self.num_assignments])
        })
    }

    /// Total weight of assignment `b`: `Σ_i w^(b)(i)`.
    #[must_use]
    pub fn assignment_total(&self, assignment: usize) -> f64 {
        assert!(assignment < self.num_assignments, "assignment out of range");
        self.iter().map(|(_, wv)| wv[assignment]).sum()
    }

    /// Number of keys with a strictly positive weight under assignment `b`.
    #[must_use]
    pub fn assignment_support(&self, assignment: usize) -> usize {
        assert!(assignment < self.num_assignments, "assignment out of range");
        self.iter().filter(|(_, wv)| wv[assignment] > 0.0).count()
    }

    /// Extracts assignment `b` as a stand-alone [`WeightedSet`].
    #[must_use]
    pub fn single(&self, assignment: usize) -> WeightedSet {
        assert!(assignment < self.num_assignments, "assignment out of range");
        WeightedSet::from_pairs(self.iter().map(|(key, wv)| (key, wv[assignment])))
    }

    /// `true` if `key` is present in the data set (possibly with an all-zero
    /// weight vector).
    #[must_use]
    pub fn contains(&self, key: Key) -> bool {
        self.index.contains_key(&key)
    }
}

/// Incremental builder for [`MultiWeighted`].
#[derive(Debug, Clone)]
pub struct MultiWeightedBuilder {
    num_assignments: usize,
    keys: Vec<Key>,
    weights: Vec<f64>,
    index: HashMap<Key, usize>,
}

impl MultiWeightedBuilder {
    /// Adds `weight` to `w^(assignment)(key)` (weights accumulate, mirroring
    /// the aggregation of raw records such as packets into flow weights).
    ///
    /// # Panics
    /// Panics if `assignment` is out of range or `weight` is negative or
    /// non-finite.
    pub fn add(&mut self, key: Key, assignment: usize, weight: f64) -> &mut Self {
        assert!(assignment < self.num_assignments, "assignment out of range");
        assert!(weight >= 0.0 && weight.is_finite(), "weights must be finite and non-negative");
        let row = match self.index.get(&key) {
            Some(&row) => row,
            None => {
                let row = self.keys.len();
                self.index.insert(key, row);
                self.keys.push(key);
                self.weights.extend(std::iter::repeat_n(0.0, self.num_assignments));
                row
            }
        };
        self.weights[row * self.num_assignments + assignment] += weight;
        self
    }

    /// Adds an entire weight vector for `key` (entries accumulate).
    ///
    /// # Panics
    /// Panics if the vector length differs from the number of assignments.
    pub fn add_vector(&mut self, key: Key, weights: &[f64]) -> &mut Self {
        assert_eq!(weights.len(), self.num_assignments, "weight vector length mismatch");
        for (assignment, &weight) in weights.iter().enumerate() {
            if weight != 0.0 {
                self.add(key, assignment, weight);
            } else if !self.index.contains_key(&key) {
                // Make sure the key exists even if this entry is zero.
                self.add(key, assignment, 0.0);
            }
        }
        self
    }

    /// Number of keys added so far.
    #[must_use]
    pub fn num_keys(&self) -> usize {
        self.keys.len()
    }

    /// Finalizes the data set.
    #[must_use]
    pub fn build(self) -> MultiWeighted {
        MultiWeighted {
            num_assignments: self.num_assignments,
            keys: self.keys,
            weights: self.weights,
            index: self.index,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> MultiWeighted {
        // The data set of Figure 2 (A): keys i1..i6, three assignments.
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
    fn weighted_set_accumulates_duplicates() {
        let set = WeightedSet::from_pairs(vec![(1, 2.0), (2, 3.0), (1, 5.0)]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.weight(1), 7.0);
        assert_eq!(set.weight(2), 3.0);
        assert_eq!(set.weight(99), 0.0);
        assert_eq!(set.total(), 10.0);
    }

    #[test]
    fn weighted_set_subset_total() {
        let set = WeightedSet::from_pairs((0u64..10).map(|k| (k, k as f64)));
        assert_eq!(set.subset_total(|k| k % 2 == 0), 0.0 + 2.0 + 4.0 + 6.0 + 8.0);
        assert_eq!(set.positive_len(), 9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn weighted_set_rejects_negative() {
        let _ = WeightedSet::from_pairs(vec![(1, -1.0)]);
    }

    #[test]
    fn multi_weighted_totals_match_figure2() {
        let data = example();
        assert_eq!(data.num_keys(), 6);
        assert_eq!(data.num_assignments(), 3);
        assert_eq!(data.assignment_total(0), 50.0);
        assert_eq!(data.assignment_total(1), 72.0);
        assert_eq!(data.assignment_total(2), 65.0);
        assert_eq!(data.assignment_support(0), 5);
        assert_eq!(data.assignment_support(1), 5);
        assert_eq!(data.assignment_support(2), 5);
    }

    #[test]
    fn multi_weighted_lookup() {
        let data = example();
        assert_eq!(data.weight(0, 1), 20.0);
        assert_eq!(data.weight(4, 1), 0.0);
        assert_eq!(data.weight(100, 0), 0.0);
        assert_eq!(data.weight_vector(3), Some(&[5.0, 20.0, 0.0][..]));
        assert_eq!(data.weight_vector(100), None);
        assert!(data.contains(5));
        assert!(!data.contains(6));
    }

    #[test]
    fn multi_weighted_single_view() {
        let data = example();
        let w2 = data.single(1);
        assert_eq!(w2.total(), 72.0);
        assert_eq!(w2.weight(1), 10.0);
        assert_eq!(w2.positive_len(), 5);
    }

    #[test]
    fn builder_accumulates_and_add_vector() {
        let mut b = MultiWeighted::builder(2);
        b.add(7, 0, 1.0).add(7, 0, 2.0).add_vector(8, &[0.0, 4.0]);
        assert_eq!(b.num_keys(), 2);
        let data = b.build();
        assert_eq!(data.weight(7, 0), 3.0);
        assert_eq!(data.weight(7, 1), 0.0);
        assert_eq!(data.weight(8, 1), 4.0);
        assert!(data.contains(8));
    }

    #[test]
    #[should_panic(expected = "assignment out of range")]
    fn builder_rejects_out_of_range_assignment() {
        let mut b = MultiWeighted::builder(2);
        b.add(1, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one weight assignment")]
    fn zero_assignments_rejected() {
        let _ = MultiWeighted::builder(0);
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let data = example();
        let keys: Vec<Key> = data.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4, 5]);
    }
}
