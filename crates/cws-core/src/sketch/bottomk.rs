//! Bottom-k (order) sketches.
//!
//! A bottom-k sketch of a weighted set contains the `k` keys with the
//! smallest rank values, their rank and weight, and the `(k+1)`-st smallest
//! rank value `r_{k+1}(I)` (Section 3). Bottom-k sketches with IPPS ranks are
//! *priority samples*; with EXP ranks they are successive weighted sampling
//! without replacement.

use std::collections::BinaryHeap;

use cws_hash::SeedSequence;

use crate::ranks::RankFamily;
use crate::weights::{Key, WeightedSet};

/// One sampled key inside a sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchEntry {
    /// The sampled key.
    pub key: Key,
    /// Its rank value under this assignment.
    pub rank: f64,
    /// Its weight under this assignment.
    pub weight: f64,
}

/// Ordering adaptor so entries can live in a max-heap keyed by rank.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ByRank(SketchEntry);

impl Eq for ByRank {}

impl PartialOrd for ByRank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByRank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.rank.total_cmp(&other.0.rank).then_with(|| self.0.key.cmp(&other.0.key))
    }
}

/// A bottom-k sketch of a single weighted set.
#[derive(Debug, Clone, PartialEq)]
pub struct BottomKSketch {
    k: usize,
    entries: Vec<SketchEntry>,
    next_rank: f64,
}

impl BottomKSketch {
    /// Builds a sketch from `(key, rank, weight)` triples.
    ///
    /// Keys with infinite rank (zero weight) are never sampled. Entries are
    /// retained for the `k` smallest ranks; `r_{k+1}(I)` is recorded, and is
    /// `+∞` when fewer than `k + 1` keys have a finite rank.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn from_ranked<I>(k: usize, ranked: I) -> Self
    where
        I: IntoIterator<Item = (Key, f64, f64)>,
    {
        assert!(k > 0, "sample size k must be positive");
        // Max-heap of the (k + 1) smallest-ranked entries seen so far.
        let mut heap: BinaryHeap<ByRank> = BinaryHeap::with_capacity(k + 2);
        for (key, rank, weight) in ranked {
            if !rank.is_finite() {
                continue;
            }
            debug_assert!(weight > 0.0, "finite rank implies positive weight");
            let entry = ByRank(SketchEntry { key, rank, weight });
            // Early reject: once full, an entry strictly above the top would
            // be pushed only to be popped again. An equal one (the same key
            // and rank) still takes the push/pop path, so which of the two
            // survives is exactly what it always was.
            if heap.len() > k && heap.peek().is_some_and(|top| entry > *top) {
                continue;
            }
            heap.push(entry);
            if heap.len() > k + 1 {
                heap.pop();
            }
        }
        // Pre-size to the k + 1 retained entries (the heap never holds more)
        // so finalize performs no reallocation, and sort without stability —
        // the `(rank, key)` sort key is a total order over the entries.
        let mut entries: Vec<SketchEntry> = Vec::with_capacity(k + 1);
        entries.extend(heap.into_iter().map(|ByRank(e)| e));
        entries.sort_unstable_by(|a, b| a.rank.total_cmp(&b.rank).then_with(|| a.key.cmp(&b.key)));
        let next_rank =
            if entries.len() > k { entries.pop().expect("len > k").rank } else { f64::INFINITY };
        Self { k, entries, next_rank }
    }

    /// Builds a sketch from `(key, rank, weight)` triples plus *tail* rank
    /// candidates: ranks known to exist in the population whose keys are
    /// unavailable (the `r_{k+1}` values of partial sketches being merged).
    ///
    /// Tail ranks participate only in determining `r_{k+1}` of the result;
    /// they can never become entries. They also never need to displace an
    /// entry: a partial sketch's `r_{k+1}` exceeds all of that partial's
    /// entry ranks, so if it were smaller than one of the union's bottom-k
    /// ranks, its own partial's `k` entries would already fill the union
    /// sketch — a contradiction. Hence the union's `r_{k+1}` is the smaller
    /// of the entry-based `r_{k+1}` and the smallest tail rank.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn from_ranked_with_tail<I, T>(k: usize, ranked: I, tail_ranks: T) -> Self
    where
        I: IntoIterator<Item = (Key, f64, f64)>,
        T: IntoIterator<Item = f64>,
    {
        let mut sketch = Self::from_ranked(k, ranked);
        let tail_min = tail_ranks.into_iter().fold(f64::INFINITY, f64::min);
        if tail_min < sketch.next_rank {
            debug_assert!(
                sketch.entries.last().is_none_or(|last| last.rank <= tail_min),
                "a tail rank may not undercut a retained entry"
            );
            sketch.next_rank = tail_min;
        }
        sketch
    }

    /// Reassembles a sketch from already-sorted parts — the decoding path of
    /// the binary summary codec, which must reproduce a previously
    /// finalized sketch bit-for-bit without re-ranking anything.
    ///
    /// # Panics
    /// Panics if `k == 0`, more than `k` entries are given, the entries are
    /// not strictly ascending in the `(rank, key)` total order, any rank is
    /// non-finite, any weight is not strictly positive and finite, or
    /// `next_rank` is NaN or smaller than the last entry's rank. (The codec
    /// validates these invariants first and reports them as typed errors;
    /// the panics here are a second line of defense for direct callers.)
    #[must_use]
    pub fn from_sorted_parts(k: usize, entries: Vec<SketchEntry>, next_rank: f64) -> Self {
        assert!(k > 0, "sample size k must be positive");
        assert!(entries.len() <= k, "a bottom-k sketch holds at most k entries");
        for pair in entries.windows(2) {
            let order =
                pair[0].rank.total_cmp(&pair[1].rank).then_with(|| pair[0].key.cmp(&pair[1].key));
            assert!(order == std::cmp::Ordering::Less, "entries must be sorted by (rank, key)");
        }
        assert!(
            entries.iter().all(|e| e.rank.is_finite() && e.weight.is_finite() && e.weight > 0.0),
            "entries must carry finite ranks and positive weights"
        );
        assert!(!next_rank.is_nan(), "next rank must not be NaN");
        assert!(
            entries.last().is_none_or(|last| last.rank <= next_rank),
            "next rank may not undercut a retained entry"
        );
        Self { k, entries, next_rank }
    }

    /// Samples a weighted set using shared-seed ranks from `seeds`.
    ///
    /// This is the single-assignment convenience constructor (used by the
    /// worked examples and the stream-sampler tests); multi-assignment
    /// summaries are built through [`crate::summary`].
    #[must_use]
    pub fn sample(set: &WeightedSet, k: usize, family: RankFamily, seeds: &SeedSequence) -> Self {
        Self::from_ranked(
            k,
            set.iter().map(|(key, weight)| {
                (key, family.rank_from_seed(weight, seeds.shared_seed(key)), weight)
            }),
        )
    }

    /// The nominal sample size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sampled entries, sorted by increasing rank (at most `k`).
    #[must_use]
    pub fn entries(&self) -> &[SketchEntry] {
        &self.entries
    }

    /// Number of sampled keys (`min(k, #positive-weight keys)`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no key was sampled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `r_{k+1}(I)` — the `(k+1)`-st smallest rank in the population
    /// (`+∞` if fewer than `k + 1` keys have positive weight).
    #[must_use]
    pub fn next_rank(&self) -> f64 {
        self.next_rank
    }

    /// `r_k(I)` — the `k`-th smallest rank in the population (`+∞` if fewer
    /// than `k` keys have positive weight).
    #[must_use]
    pub fn kth_rank(&self) -> f64 {
        if self.entries.len() == self.k {
            self.entries[self.k - 1].rank
        } else {
            f64::INFINITY
        }
    }

    /// Whether `key` was sampled.
    #[must_use]
    pub fn contains(&self, key: Key) -> bool {
        self.entries.iter().any(|e| e.key == key)
    }

    /// The rank of `key` if it was sampled.
    #[must_use]
    pub fn rank_of(&self, key: Key) -> Option<f64> {
        self.entries.iter().find(|e| e.key == key).map(|e| e.rank)
    }

    /// The weight recorded for `key` if it was sampled.
    #[must_use]
    pub fn weight_of(&self, key: Key) -> Option<f64> {
        self.entries.iter().find(|e| e.key == key).map(|e| e.weight)
    }

    /// `r_k(I \ {key})` — the conditioning threshold of the RC estimator:
    /// `r_{k+1}(I)` when `key` is in the sketch, `r_k(I)` otherwise.
    #[must_use]
    pub fn threshold_excluding(&self, key: Key) -> f64 {
        if self.contains(key) {
            self.next_rank
        } else {
            self.kth_rank()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranked_fixture() -> Vec<(Key, f64, f64)> {
        vec![
            (1, 0.011, 20.0),
            (2, 0.075, 10.0),
            (3, 0.0583, 12.0),
            (4, 0.046, 20.0),
            (5, 0.055, 10.0),
            (6, 0.037, 10.0),
        ]
    }

    #[test]
    fn bottom_k_keeps_smallest_ranks() {
        let sketch = BottomKSketch::from_ranked(3, ranked_fixture());
        let keys: Vec<Key> = sketch.entries().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![1, 6, 4]);
        assert!((sketch.next_rank() - 0.055).abs() < 1e-12);
        assert!((sketch.kth_rank() - 0.046).abs() < 1e-12);
        assert_eq!(sketch.len(), 3);
    }

    #[test]
    fn bottom_k_smaller_population_than_k() {
        let sketch = BottomKSketch::from_ranked(10, ranked_fixture());
        assert_eq!(sketch.len(), 6);
        assert!(sketch.next_rank().is_infinite());
        assert!(sketch.kth_rank().is_infinite());
    }

    #[test]
    fn bottom_k_exactly_k_positive_keys() {
        let sketch = BottomKSketch::from_ranked(6, ranked_fixture());
        assert_eq!(sketch.len(), 6);
        assert!(sketch.next_rank().is_infinite());
        assert!((sketch.kth_rank() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn zero_weight_keys_never_sampled() {
        let mut ranked = ranked_fixture();
        ranked.push((7, f64::INFINITY, 0.0));
        let sketch = BottomKSketch::from_ranked(10, ranked);
        assert!(!sketch.contains(7));
    }

    #[test]
    fn threshold_excluding_matches_rank_conditioning() {
        let sketch = BottomKSketch::from_ranked(3, ranked_fixture());
        // Key 1 is in the sketch: threshold is r_{k+1}(I).
        assert_eq!(sketch.threshold_excluding(1), sketch.next_rank());
        // Key 2 is not: threshold is r_k(I).
        assert_eq!(sketch.threshold_excluding(2), sketch.kth_rank());
    }

    #[test]
    fn membership_helpers() {
        let sketch = BottomKSketch::from_ranked(3, ranked_fixture());
        assert!(sketch.contains(6));
        assert_eq!(sketch.rank_of(6), Some(0.037));
        assert_eq!(sketch.weight_of(6), Some(10.0));
        assert_eq!(sketch.rank_of(2), None);
        assert!(!sketch.is_empty());
    }

    #[test]
    fn rank_ties_at_the_cut_match_a_full_sort() {
        // Few distinct ranks over many keys: the early reject sees long runs
        // of entries equal in rank to the heap top and must still keep
        // exactly the `(rank, key)`-smallest, as a full sort does — in
        // shuffled order, and in the ascending order where every entry
        // after the first k + 1 is rejected early.
        use cws_hash::{RandomSource, Xoshiro256};
        for k in [1usize, 2, 5, 17, 64] {
            let mut rng = Xoshiro256::seeded(0x7135 ^ k as u64);
            let mut ranked: Vec<(Key, f64, f64)> = (0..300u64)
                .map(|key| {
                    let rank = match rng.next_below(10) {
                        0 => f64::INFINITY,
                        level => level as f64 / 16.0,
                    };
                    (key, rank, 1.0 + key as f64)
                })
                .collect();
            for i in (1..ranked.len()).rev() {
                ranked.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut sorted: Vec<_> = ranked.iter().copied().filter(|e| e.1.is_finite()).collect();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let expected: Vec<SketchEntry> = sorted[..k]
                .iter()
                .map(|&(key, rank, weight)| SketchEntry { key, rank, weight })
                .collect();
            let descending: Vec<_> = sorted.iter().rev().copied().collect();
            for (order, input) in
                [("shuffled", ranked), ("ascending", sorted.clone()), ("descending", descending)]
            {
                let sketch = BottomKSketch::from_ranked(k, input);
                assert_eq!(sketch.entries(), &expected[..], "k={k} {order}");
                assert_eq!(sketch.next_rank().to_bits(), sorted[k].1.to_bits(), "k={k} {order}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_rejected() {
        let _ = BottomKSketch::from_ranked(0, ranked_fixture());
    }

    #[test]
    fn sample_from_weighted_set_is_deterministic() {
        let set = WeightedSet::from_pairs((0u64..100).map(|k| (k, (k % 10 + 1) as f64)));
        let seeds = SeedSequence::new(8);
        let a = BottomKSketch::sample(&set, 10, RankFamily::Ipps, &seeds);
        let b = BottomKSketch::sample(&set, 10, RankFamily::Ipps, &seeds);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
    }
}
