//! Adjusted-weight summaries (AW-summaries).
//!
//! An adjusted-weight assignment gives every sampled key a value
//! `a(i) ≥ 0` with `E[a(i)] = f(i)` (keys outside the sample implicitly get
//! `0`). Subpopulation aggregates are estimated by summing the adjusted
//! values of the sampled keys that satisfy the selection predicate
//! (Section 3, "Adjusted weights").

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use cws_hash::mix64;

use crate::estimate::template::Selected;
use crate::variance::ht_variance_component;
use crate::weights::Key;

/// Key → slot map of an [`AdjustedWeights`], hashed with one `mix64` per
/// key instead of SipHash. The map holds one summary's entries, the keys a
/// sample selected (a few thousand at most), so keys crafted to collide
/// could slow one index build but not grow it without bound.
type KeyIndex = HashMap<Key, usize, BuildHasherDefault<KeyMix>>;

/// [`Hasher`] of one 64-bit key: its `mix64`.
#[derive(Debug, Default)]
struct KeyMix(u64);

impl Hasher for KeyMix {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        self.0 = mix64(self.0 ^ key);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }
}

/// Adjusted weights of the sampled keys.
///
/// When built through the template estimator
/// ([`AdjustedWeights::from_selected`], which every concrete estimator uses),
/// each entry additionally retains its *support* — the raw `(value,
/// probability)` pair behind the adjusted weight — which is what the
/// variance estimators ([`AdjustedWeights::subset_variance`]) and the count
/// estimator ([`AdjustedWeights::subset_count`]) consume. Derived summaries
/// assembled outside the template (notably the dispersed L1 estimator,
/// [`crate::DispersedEstimator::l1`]) carry no support and report `None`
/// for those.
#[derive(Debug, Clone, Default)]
pub struct AdjustedWeights {
    entries: Vec<(Key, f64)>,
    /// Key → slot in `entries`, built by the first [`AdjustedWeights::get`].
    /// Entries in ascending key order (the dispersed and colocated
    /// estimators pass over keys that way) have no duplicates to find; any
    /// other order builds the map at construction to reject them.
    index: OnceLock<KeyIndex>,
    /// `(value, probability)` per entry, aligned with `entries`; empty when
    /// the summary was assembled without template support.
    support: Vec<Selected>,
}

/// Two AW-summaries are equal when they assign the same adjusted weight to
/// the same keys — the support detail is derived metadata and deliberately
/// excluded, so a summary built from raw entries compares equal to the same
/// summary built through the template.
impl PartialEq for AdjustedWeights {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl AdjustedWeights {
    /// Builds an AW-summary from `(key, adjusted_weight)` pairs.
    ///
    /// Zero-valued entries are dropped (they are the implicit default);
    /// duplicate keys are rejected. Summaries built this way carry no
    /// support detail (no variance / count estimators); use
    /// [`AdjustedWeights::from_selected`] when the `(value, probability)`
    /// pairs are known.
    ///
    /// # Panics
    /// Panics on duplicate keys or negative / non-finite values.
    #[must_use]
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (Key, f64)>,
    {
        let mut stored = Vec::new();
        for (key, value) in entries {
            assert!(
                value >= 0.0 && value.is_finite(),
                "adjusted weights must be finite and non-negative (key {key} had {value})"
            );
            if value == 0.0 {
                continue;
            }
            stored.push((key, value));
        }
        Self::with_entries(stored, Vec::new())
    }

    /// Builds an AW-summary from `(key, `[`Selected`]`)` pairs, retaining
    /// the `(value, probability)` support behind each adjusted weight so
    /// variance and count estimation stay available downstream.
    ///
    /// The adjusted weight stored for a key is exactly
    /// [`Selected::adjusted_weight`] (`value / probability`), bit-identical
    /// to what [`AdjustedWeights::from_entries`] would store for the same
    /// division. Zero-valued selections are dropped like zero entries.
    ///
    /// # Panics
    /// Panics on duplicate keys or selections yielding negative /
    /// non-finite adjusted weights.
    #[must_use]
    pub fn from_selected<I>(selections: I) -> Self
    where
        I: IntoIterator<Item = (Key, Selected)>,
    {
        let mut stored = Vec::new();
        let mut support = Vec::new();
        for (key, selected) in selections {
            let value = selected.adjusted_weight();
            assert!(
                value >= 0.0 && value.is_finite(),
                "adjusted weights must be finite and non-negative (key {key} had {value})"
            );
            if value == 0.0 {
                continue;
            }
            stored.push((key, value));
            support.push(selected);
        }
        Self::with_entries(stored, support)
    }

    /// Wraps validated entries, rejecting duplicate keys: entries in
    /// strictly ascending key order have none; any other order builds the
    /// key index now, which finds them.
    ///
    /// # Panics
    /// Panics on duplicate keys.
    fn with_entries(entries: Vec<(Key, f64)>, support: Vec<Selected>) -> Self {
        let index = OnceLock::new();
        if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            let _ = index.set(Self::index_of(&entries));
        }
        Self { entries, index, support }
    }

    /// The key → slot map of `entries`.
    ///
    /// # Panics
    /// Panics on duplicate keys.
    fn index_of(entries: &[(Key, f64)]) -> KeyIndex {
        let mut index = KeyIndex::with_capacity_and_hasher(entries.len(), Default::default());
        for (slot, &(key, _)) in entries.iter().enumerate() {
            let previous = index.insert(key, slot);
            assert!(previous.is_none(), "duplicate adjusted weight for key {key}");
        }
        index
    }

    /// `true` when every entry retains its `(value, probability)` support —
    /// the precondition for [`AdjustedWeights::subset_variance`] and
    /// [`AdjustedWeights::subset_count`].
    #[must_use]
    pub fn has_support(&self) -> bool {
        self.support.len() == self.entries.len()
    }

    /// Iterates over `(key, adjusted_weight, support)` triples, or `None`
    /// when the summary carries no support.
    pub fn supported_iter(&self) -> Option<impl Iterator<Item = (Key, f64, Selected)> + '_> {
        self.has_support().then(|| {
            self.entries
                .iter()
                .zip(self.support.iter())
                .map(|(&(key, value), &selected)| (key, value, selected))
        })
    }

    /// The adjusted weight of `key` (`0` for keys without an entry). The
    /// first call builds the key index.
    #[must_use]
    pub fn get(&self, key: Key) -> f64 {
        let index = self.index.get_or_init(|| Self::index_of(&self.entries));
        index.get(&key).map_or(0.0, |&slot| self.entries[slot].1)
    }

    /// Number of keys with a positive adjusted weight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no key has a positive adjusted weight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, adjusted_weight)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Key, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// The estimate of the full-population aggregate `Σ_i f(i)`.
    ///
    /// Summed with an explicit `+0.0` seed (not `Iterator::sum`, whose
    /// identity is `-0.0`) so that every fold in the workspace — here, the
    /// query fold, the batch executor — produces bit-identical totals,
    /// including `+0.0` for an empty summary.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.entries.iter().fold(0.0, |acc, &(_, value)| acc + value)
    }

    /// The estimate of a subpopulation aggregate `Σ_{i : predicate(i)} f(i)`.
    ///
    /// The predicate is evaluated only on sampled keys — this is exactly how
    /// AW-summaries support a-posteriori selections. Seeded at `+0.0` like
    /// [`AdjustedWeights::total`].
    #[must_use]
    pub fn subset_total<P: Fn(Key) -> bool>(&self, predicate: P) -> f64 {
        self.entries
            .iter()
            .filter(|&&(key, _)| predicate(key))
            .fold(0.0, |acc, &(_, value)| acc + value)
    }

    /// Estimates `Σ_{i : predicate(i)} h(i)` for a secondary numeric function
    /// `h` with `h(i) > 0 ⇒ f(i) > 0`, by rescaling each adjusted weight with
    /// `h(i)/f(i)` (Section 3). `per_key` must return `(h(i), f(i))` for a
    /// sampled key.
    #[must_use]
    pub fn ratio_estimate<P, G>(&self, predicate: P, per_key: G) -> f64
    where
        P: Fn(Key) -> bool,
        G: Fn(Key) -> (f64, f64),
    {
        self.entries
            .iter()
            .filter(|&&(key, _)| predicate(key))
            .map(|&(key, value)| {
                let (h, f) = per_key(key);
                if f == 0.0 {
                    0.0
                } else {
                    value * h / f
                }
            })
            .sum()
    }

    /// The HT plug-in estimate of the estimator variance over a
    /// subpopulation, `Σ_{sampled i : predicate(i)} f(i)²(1/p(i) − 1)/p(i)`
    /// (see [`ht_variance_component`]) — an unbiased estimate of
    /// `Σ_{i : predicate(i)} VAR[a(i)]`, which (zero covariance across keys,
    /// Section 5) is the variance of [`AdjustedWeights::subset_total`] for
    /// the same predicate.
    ///
    /// Returns `None` when the summary carries no support detail (e.g. a
    /// dispersed L1 summary, whose entries are differences of correlated
    /// estimators with no per-key probability behind them).
    #[must_use]
    pub fn subset_variance<P: Fn(Key) -> bool>(&self, predicate: P) -> Option<f64> {
        let iter = self.supported_iter()?;
        Some(iter.filter(|&(key, _, _)| predicate(key)).fold(0.0, |acc, (_, _, selected)| {
            acc + ht_variance_component(selected.value, selected.probability)
        }))
    }

    /// [`AdjustedWeights::subset_variance`] over the full population.
    #[must_use]
    pub fn variance_total(&self) -> Option<f64> {
        self.subset_variance(|_| true)
    }

    /// The HT estimate of the subpopulation *cardinality*
    /// `|{i : predicate(i), f(i) > 0}|` and its plug-in variance estimate,
    /// as `(count, variance)`.
    ///
    /// Each sampled key contributes `1/p(i)` to the count (the HT estimator
    /// for the constant function `h(i) = 1` over the support of `f`) and
    /// `(1/p(i) − 1)/p(i)` to the variance ([`ht_variance_component`] with
    /// `f = 1`).
    ///
    /// Returns `None` when the summary carries no support detail.
    #[must_use]
    pub fn subset_count<P: Fn(Key) -> bool>(&self, predicate: P) -> Option<(f64, f64)> {
        let iter = self.supported_iter()?;
        let mut count = 0.0;
        let mut variance = 0.0;
        for (_, _, selected) in iter.filter(|&(key, _, _)| predicate(key)) {
            count += 1.0 / selected.probability;
            variance += ht_variance_component(1.0, selected.probability);
        }
        Some((count, variance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let aw = AdjustedWeights::from_entries(vec![(1, 2.0), (2, 0.0), (3, 4.5)]);
        assert_eq!(aw.len(), 2);
        assert!(!aw.is_empty());
        assert_eq!(aw.get(1), 2.0);
        assert_eq!(aw.get(2), 0.0);
        assert_eq!(aw.get(99), 0.0);
        assert_eq!(aw.total(), 6.5);
    }

    #[test]
    fn subset_total_filters() {
        let aw = AdjustedWeights::from_entries((0u64..10).map(|k| (k, 1.0)));
        assert_eq!(aw.subset_total(|k| k < 3), 3.0);
        assert_eq!(aw.subset_total(|_| false), 0.0);
    }

    #[test]
    fn ratio_estimate_scales_by_secondary_function() {
        let aw = AdjustedWeights::from_entries(vec![(1, 10.0), (2, 20.0)]);
        // h(i) = f(i) / 2 for every key.
        let estimate = aw.ratio_estimate(|_| true, |_| (1.0, 2.0));
        assert_eq!(estimate, 15.0);
        // Keys with f = 0 contribute nothing.
        let estimate =
            aw.ratio_estimate(|_| true, |k| if k == 1 { (3.0, 0.0) } else { (1.0, 1.0) });
        assert_eq!(estimate, 20.0);
    }

    #[test]
    #[should_panic(expected = "duplicate adjusted weight")]
    fn duplicate_keys_rejected() {
        let _ = AdjustedWeights::from_entries(vec![(1, 1.0), (1, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate adjusted weight")]
    fn duplicate_keys_rejected_out_of_order() {
        let _ = AdjustedWeights::from_entries(vec![(3, 1.0), (1, 1.0), (3, 2.0)]);
    }

    #[test]
    fn get_works_in_any_entry_order() {
        let ascending = AdjustedWeights::from_entries(vec![(1, 1.0), (4, 2.0), (9, 3.0)]);
        let shuffled = AdjustedWeights::from_entries(vec![(9, 3.0), (1, 1.0), (4, 2.0)]);
        for aw in [&ascending, &shuffled] {
            assert_eq!(aw.get(1), 1.0);
            assert_eq!(aw.get(4), 2.0);
            assert_eq!(aw.get(9), 3.0);
            assert_eq!(aw.get(5), 0.0);
        }
        // A clone taken after the index was built still answers.
        assert_eq!(ascending.clone().get(9), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_values_rejected() {
        let _ = AdjustedWeights::from_entries(vec![(1, -1.0)]);
    }

    #[test]
    fn from_selected_matches_from_entries_and_keeps_support() {
        let selections = vec![
            (1, Selected { value: 2.0, probability: 0.5 }),
            (2, Selected { value: 0.0, probability: 1.0 }),
            (3, Selected { value: 3.0, probability: 0.25 }),
        ];
        let supported = AdjustedWeights::from_selected(selections.clone());
        let plain = AdjustedWeights::from_entries(
            selections.iter().map(|&(key, s)| (key, s.adjusted_weight())),
        );
        // Equality ignores support: both carry {1 → 4, 3 → 12}.
        assert_eq!(supported, plain);
        assert!(supported.has_support());
        assert!(!plain.has_support());
        assert_eq!(supported.len(), 2);
        assert_eq!(supported.get(1), 4.0);
        assert_eq!(supported.get(3), 12.0);
    }

    #[test]
    fn subset_variance_sums_plug_in_components() {
        let aw = AdjustedWeights::from_selected(vec![
            (1, Selected { value: 2.0, probability: 0.5 }),
            (2, Selected { value: 3.0, probability: 0.25 }),
        ]);
        // key 1: 4·(2−1)·2 = 8; key 2: 9·(4−1)·4 = 108.
        let total = aw.variance_total().unwrap();
        assert!((total - 116.0).abs() < 1e-9);
        let only_one = aw.subset_variance(|k| k == 1).unwrap();
        assert!((only_one - 8.0).abs() < 1e-12);
        // No support → no variance estimate.
        assert!(AdjustedWeights::from_entries(vec![(1, 1.0)]).variance_total().is_none());
    }

    #[test]
    fn subset_count_is_ht_over_the_support() {
        let aw = AdjustedWeights::from_selected(vec![
            (1, Selected { value: 2.0, probability: 0.5 }),
            (2, Selected { value: 3.0, probability: 0.25 }),
        ]);
        let (count, variance) = aw.subset_count(|_| true).unwrap();
        assert!((count - 6.0).abs() < 1e-12); // 2 + 4
        assert!((variance - (2.0 + 12.0)).abs() < 1e-12); // (2−1)·2 + (4−1)·4
        let (count, variance) = aw.subset_count(|k| k == 2).unwrap();
        assert!((count - 4.0).abs() < 1e-12);
        assert!((variance - 12.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_empty() {
        let aw = AdjustedWeights::default();
        assert!(aw.is_empty());
        assert_eq!(aw.total(), 0.0);
    }
}
