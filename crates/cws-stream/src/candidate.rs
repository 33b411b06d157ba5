//! Bounded candidate set shared by the stream samplers: the `k + 1`
//! smallest-ranked keys seen so far (the bottom-k sample plus the key that
//! currently defines `r_{k+1}`).
//!
//! This is the innermost structure of the ingestion hot path, so it is built
//! for the common case — a record whose rank is too large to matter — to cost
//! exactly one load and one floating-point compare: the current heap-top rank
//! is cached in `threshold`, so rejection does not even dereference the
//! heap. Storage is two flat arrays, both allocated once at construction and
//! never resized:
//!
//! * a binary max-heap of `k + 1` slots ordered by `(rank, key)`, which
//!   decides admission and eviction;
//! * a [`KeyIndex`] over the same keys (open addressing, at most half full),
//!   which answers membership with one probe. A competitive offer — about
//!   `k · (1 + ln(n/k))` of `n` records per set — would otherwise pay an
//!   `O(k)` duplicate scan of the heap; only a real duplicate, which an
//!   aggregated stream never produces, still searches the heap for its slot.
//!
//! The `(rank, key)` total order matches `BottomKSketch::from_ranked`
//! exactly, so a candidate set fed any permutation of a ranked population
//! finalizes into the bit-identical sketch the offline builder computes —
//! including rank ties, which the previous `BinaryHeap + HashSet`
//! implementation resolved by arrival order instead.

use cws_core::sketch::bottomk::BottomKSketch;
use cws_core::Key;

/// A candidate entry: a key with its rank and weight under one assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    rank: f64,
    key: Key,
    weight: f64,
}

impl Candidate {
    /// Total order used by the heap: by rank, tie-broken by key. Mirrors the
    /// eviction order of `BottomKSketch::from_ranked`.
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        match self.rank.total_cmp(&other.rank) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => self.key > other.key,
        }
    }
}

/// What [`CandidateSet::offer`] did with a ranked key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OfferOutcome {
    /// The rank was infinite or not among the `k + 1` smallest; nothing
    /// changed.
    Rejected,
    /// The key entered the candidate set, evicting the carried key if the
    /// set was already full.
    Inserted(Option<Key>),
    /// The key was already a candidate. Its entry kept the smaller of the
    /// two ranks (a re-offer can only improve a candidate, matching how the
    /// offline builder would see a single, best observation).
    Duplicate,
}

impl OfferOutcome {
    /// Whether this offer admitted (or updated) the key.
    ///
    /// On an aggregated stream — each key offered at most once per set,
    /// the documented contract of the samplers — this is equivalent to
    /// "the key is a candidate after the call". The one divergence is a
    /// *re-offer* of an existing candidate with a rank above the current
    /// threshold: the fast-reject fires before the duplicate guard, so the
    /// call reports `Rejected` even though the earlier entry remains; use
    /// [`CandidateSet::contains`] when that distinction matters.
    #[inline]
    pub(crate) fn is_candidate(self) -> bool {
        !matches!(self, OfferOutcome::Rejected)
    }
}

/// Set of the keys held by a [`CandidateSet`]: an open-addressing table
/// with linear probing and backward-shift deletion, sized once to at least
/// twice the set's capacity so probe chains stay short.
///
/// [`KeyIndex::EMPTY`] marks a free slot; the one key equal to it is
/// tracked by a flag instead of a slot.
#[derive(Debug, Clone)]
struct KeyIndex {
    slots: Box<[Key]>,
    /// `slots.len() - 1` (the length is a power of two).
    mask: usize,
    /// `64 - log2(slots.len())`: the home slot is the top bits of a
    /// multiplicative hash.
    shift: u32,
    holds_empty_key: bool,
}

impl KeyIndex {
    const EMPTY: Key = Key::MAX;

    /// An empty index for up to `capacity` keys.
    fn new(capacity: usize) -> Self {
        let len = (2 * capacity).next_power_of_two();
        Self {
            slots: vec![Self::EMPTY; len].into_boxed_slice(),
            mask: len - 1,
            shift: 64 - len.trailing_zeros(),
            holds_empty_key: false,
        }
    }

    /// The slot probing for `key` starts at (Fibonacci hashing, so runs of
    /// consecutive keys spread over the table).
    #[inline]
    fn home(&self, key: Key) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    #[inline]
    fn contains(&self, key: Key) -> bool {
        if key == Self::EMPTY {
            return self.holds_empty_key;
        }
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                held if held == key => return true,
                Self::EMPTY => return false,
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    /// Adds `key`, which must not be present.
    #[inline]
    fn insert(&mut self, key: Key) {
        if key == Self::EMPTY {
            self.holds_empty_key = true;
            return;
        }
        let mut slot = self.home(key);
        while self.slots[slot] != Self::EMPTY {
            debug_assert_ne!(self.slots[slot], key, "key {key} is already indexed");
            slot = (slot + 1) & self.mask;
        }
        self.slots[slot] = key;
    }

    /// Removes `key`, which must be present, and shifts later members of
    /// its probe run back so no lookup ever needs a tombstone.
    #[inline]
    fn remove(&mut self, key: Key) {
        if key == Self::EMPTY {
            self.holds_empty_key = false;
            return;
        }
        let mut hole = self.home(key);
        while self.slots[hole] != key {
            debug_assert_ne!(self.slots[hole], Self::EMPTY, "key {key} is not indexed");
            hole = (hole + 1) & self.mask;
        }
        let mut next = hole;
        loop {
            next = (next + 1) & self.mask;
            let moved = self.slots[next];
            if moved == Self::EMPTY {
                break;
            }
            // `moved` fills the hole unless its home lies after the hole
            // (cyclically, up to its own slot): then moving it back would
            // put it before its home, where no probe for it starts.
            let from_home = next.wrapping_sub(self.home(moved)) & self.mask;
            let from_hole = next.wrapping_sub(hole) & self.mask;
            if from_home >= from_hole {
                self.slots[hole] = moved;
                hole = next;
            }
        }
        self.slots[hole] = Self::EMPTY;
    }
}

/// Relative margin of [`CandidateSet::inflated_threshold`]: large enough to
/// absorb the rounding of one multiply and one divide (each within a few
/// ulps), small enough that essentially no rejectable candidate survives the
/// pre-filter.
const THRESHOLD_INFLATION: f64 = 1.0 + 1e-9;

/// The `k + 1` smallest-ranked keys observed so far, in one flat allocation.
#[derive(Debug, Clone)]
pub(crate) struct CandidateSet {
    k: usize,
    /// Binary max-heap by `(rank, key)`; `heap.len() <= k + 1`.
    heap: Vec<Candidate>,
    /// Exactly the keys in `heap`.
    index: KeyIndex,
    /// Cached rank of the heap top while the set is full, `+∞` otherwise:
    /// any strictly larger rank is rejected without touching the heap.
    threshold: f64,
    /// `threshold * THRESHOLD_INFLATION`, cached for the division-free
    /// pre-filter of the hash-once ingestion path.
    inflated: f64,
}

impl CandidateSet {
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "sample size k must be positive");
        Self {
            k,
            heap: Vec::with_capacity(k + 1),
            index: KeyIndex::new(k + 1),
            threshold: f64::INFINITY,
            inflated: f64::INFINITY,
        }
    }

    /// A conservatively inflated copy of the current rejection threshold.
    ///
    /// For ranks of the form `base / weight` (both rank families), a
    /// candidate with `base > weight * inflated_threshold()` is *certainly*
    /// rejected by [`CandidateSet::offer`]: the margin covers the rounding
    /// of the multiply and the divide, so skipping the offer is bit-exact.
    /// This lets the multi-assignment hot loop reject with one multiply and
    /// one compare instead of a division per assignment.
    #[inline]
    pub(crate) fn inflated_threshold(&self) -> f64 {
        self.inflated
    }

    /// Offers a ranked key. Infinite ranks (zero weights) are ignored.
    ///
    /// Offering a key that is already a candidate does not double-insert it:
    /// the existing entry is kept with the smaller of the two ranks. (The
    /// previous implementation left two heap entries behind one membership
    /// entry, desyncing `contains` after the later eviction and letting
    /// `into_sketch` emit a duplicate key.)
    pub(crate) fn offer(&mut self, key: Key, rank: f64, weight: f64) -> OfferOutcome {
        // Hot path: one compare. `threshold` is +∞ until the set is full, so
        // this also admits everything (finite) while filling.
        if rank > self.threshold {
            return OfferOutcome::Rejected;
        }
        if !rank.is_finite() {
            return OfferOutcome::Rejected;
        }
        let candidate = Candidate { rank, key, weight };

        // Duplicate guard: one index probe. Only a real duplicate searches
        // the heap for its slot.
        if self.index.contains(key) {
            let slot = self.heap.iter().position(|c| c.key == key).expect("indexed keys are held");
            if rank < self.heap[slot].rank {
                self.heap[slot] = candidate;
                // The entry shrank, so it can only need to move away from the
                // root of the max-heap.
                self.sift_down(slot);
                self.refresh_threshold();
            }
            return OfferOutcome::Duplicate;
        }

        if self.heap.len() <= self.k {
            self.heap.push(candidate);
            self.index.insert(key);
            self.sift_up(self.heap.len() - 1);
            self.refresh_threshold();
            return OfferOutcome::Inserted(None);
        }

        // Full: the new candidate enters only if it is strictly smaller than
        // the worst under the `(rank, key)` order — ranks equal to the
        // threshold are decided by the key tie-break, exactly like the
        // offline builder.
        if !self.heap[0].beats(&candidate) {
            return OfferOutcome::Rejected;
        }
        let evicted = std::mem::replace(&mut self.heap[0], candidate).key;
        self.index.remove(evicted);
        self.index.insert(key);
        self.sift_down(0);
        self.refresh_threshold();
        OfferOutcome::Inserted(Some(evicted))
    }

    #[inline]
    fn refresh_threshold(&mut self) {
        self.threshold =
            if self.heap.len() == self.k + 1 { self.heap[0].rank } else { f64::INFINITY };
        self.inflated = self.threshold * THRESHOLD_INFLATION;
    }

    fn sift_up(&mut self, mut index: usize) {
        while index > 0 {
            let parent = (index - 1) / 2;
            if self.heap[index].beats(&self.heap[parent]) {
                self.heap.swap(index, parent);
                index = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut index: usize) {
        loop {
            let left = 2 * index + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let mut largest = left;
            if right < self.heap.len() && self.heap[right].beats(&self.heap[left]) {
                largest = right;
            }
            if self.heap[largest].beats(&self.heap[index]) {
                self.heap.swap(index, largest);
                index = largest;
            } else {
                break;
            }
        }
    }

    /// Offers a whole column of factored ranks: record `i` has rank
    /// `bases[i] / weights[i]` (both rank families factor this way; see
    /// [`cws_core::ranks::RankFamily::rank_base`]).
    ///
    /// This is the structure-of-arrays hot loop: the inflated threshold is
    /// held in a register for the whole scan instead of being re-loaded per
    /// record, so the common case — a record that cannot enter the sample —
    /// costs two contiguous lane loads, one multiply and one compare. Only
    /// survivors of the pre-filter divide and fall into [`CandidateSet::
    /// offer`], whose exact `(rank, key)` comparison keeps the set
    /// bit-identical to per-record offers in any order; the register is
    /// refreshed after each offer, the only operation that can change it.
    ///
    /// `admitted(i)` is called for every record `i` whose offer admitted or
    /// updated its key ([`OfferOutcome::is_candidate`]); a caller with no
    /// use for it passes `|_| {}`, which compiles away.
    ///
    /// Invalid weights never corrupt the set (negative weights fail the
    /// pre-filter because `base > 0`; NaN and `±∞` produce non-finite ranks
    /// that `offer` rejects) — callers validate lanes separately to turn
    /// them into errors.
    pub(crate) fn push_batch_prefiltered(
        &mut self,
        keys: &[Key],
        bases: &[f64],
        weights: &[f64],
        mut admitted: impl FnMut(usize),
    ) {
        debug_assert_eq!(keys.len(), bases.len());
        debug_assert_eq!(keys.len(), weights.len());
        let mut threshold = self.inflated;
        for (index, ((&key, &base), &weight)) in keys.iter().zip(bases).zip(weights).enumerate() {
            // Certain rejection without dividing; see `inflated_threshold`
            // for why this is exact. `base > 0`, so zero and negative
            // weights land on the reject side too (directly, or as a
            // non-finite rank in `offer`), matching `rank_from_seed`'s
            // `+∞` convention.
            if base > weight * threshold {
                continue;
            }
            if self.offer(key, base / weight, weight).is_candidate() {
                admitted(index);
            }
            threshold = self.inflated;
        }
    }

    /// Whether `key` is currently a candidate (one index probe).
    #[inline]
    pub(crate) fn contains(&self, key: Key) -> bool {
        self.index.contains(key)
    }

    /// Number of candidates currently held (at most `k + 1`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Finalizes into a bottom-k sketch.
    pub(crate) fn into_sketch(self) -> BottomKSketch {
        BottomKSketch::from_ranked(self.k, self.heap.into_iter().map(|c| (c.key, c.rank, c.weight)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_plus_one_smallest() {
        let mut set = CandidateSet::new(2);
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Inserted(None));
        assert_eq!(set.offer(2, 0.4, 1.0), OfferOutcome::Inserted(None));
        assert_eq!(set.offer(3, 0.3, 1.0), OfferOutcome::Inserted(None));
        assert_eq!(set.len(), 3);
        // Key 4 with a smaller rank evicts key 1 (largest rank).
        assert_eq!(set.offer(4, 0.2, 1.0), OfferOutcome::Inserted(Some(1)));
        assert!(!set.contains(1));
        assert!(set.contains(4));
        // A large rank is rejected outright.
        assert_eq!(set.offer(5, 0.9, 1.0), OfferOutcome::Rejected);
        assert!(!set.contains(5));
        let sketch = set.into_sketch();
        assert_eq!(sketch.len(), 2);
        assert_eq!(sketch.entries()[0].key, 4);
        assert_eq!(sketch.entries()[1].key, 3);
        assert!((sketch.next_rank() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn infinite_ranks_are_ignored() {
        let mut set = CandidateSet::new(2);
        assert_eq!(set.offer(1, f64::INFINITY, 0.0), OfferOutcome::Rejected);
        assert_eq!(set.len(), 0);
    }

    #[test]
    fn duplicate_offer_does_not_corrupt() {
        // Regression: with the old BinaryHeap + HashSet pair, offering the
        // same key twice left two heap entries behind one membership entry;
        // a later eviction removed the key from the set while a stale heap
        // entry survived into the sketch.
        let mut set = CandidateSet::new(2);
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Inserted(None));
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Duplicate);
        assert_eq!(set.len(), 1, "duplicate must not double-insert");
        set.offer(2, 0.3, 1.0);
        set.offer(3, 0.4, 1.0);
        // Evict key 1 (the worst) and fill with better keys.
        assert_eq!(set.offer(4, 0.2, 1.0), OfferOutcome::Inserted(Some(1)));
        assert!(!set.contains(1));
        let sketch = set.into_sketch();
        let keys: Vec<Key> = sketch.entries().iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![4, 2]);
    }

    #[test]
    fn duplicate_offer_keeps_smaller_rank() {
        let mut set = CandidateSet::new(3);
        set.offer(7, 0.6, 2.0);
        set.offer(8, 0.5, 1.0);
        // Re-offer key 7 with a better rank: the entry improves in place.
        assert_eq!(set.offer(7, 0.1, 2.0), OfferOutcome::Duplicate);
        assert_eq!(set.len(), 2);
        let sketch = set.into_sketch();
        assert_eq!(sketch.entries()[0].key, 7);
        assert!((sketch.entries()[0].rank - 0.1).abs() < 1e-15);
        // Re-offer with a worse rank: ignored.
        let mut set = CandidateSet::new(3);
        set.offer(7, 0.1, 2.0);
        assert_eq!(set.offer(7, 0.6, 2.0), OfferOutcome::Duplicate);
        let sketch = set.into_sketch();
        assert!((sketch.entries()[0].rank - 0.1).abs() < 1e-15);
    }

    #[test]
    fn rank_ties_resolve_by_key_like_offline_builder() {
        // Three keys share the boundary rank; the set must keep the smaller
        // keys exactly as BottomKSketch::from_ranked would.
        let mut set = CandidateSet::new(1);
        set.offer(5, 0.3, 1.0);
        set.offer(9, 0.3, 1.0);
        set.offer(2, 0.3, 1.0);
        let streamed = set.into_sketch();
        let offline =
            BottomKSketch::from_ranked(1, vec![(5, 0.3, 1.0), (9, 0.3, 1.0), (2, 0.3, 1.0)]);
        assert_eq!(streamed, offline);
        assert_eq!(streamed.entries()[0].key, 2);
    }

    #[test]
    fn batch_prefilter_matches_per_record_offers() {
        // Factored ranks base/weight fed through the batch pre-filter must
        // finalize identically to per-record offers, including duplicates,
        // zero weights and threshold churn near k.
        let n = 200u64;
        let keys: Vec<Key> = (0..n).chain(0..n / 4).collect(); // duplicates
        let bases: Vec<f64> =
            keys.iter().map(|&k| ((k * 2654435761) % 997) as f64 / 997.0 + 1e-3).collect();
        let weights: Vec<f64> = keys.iter().map(|&k| (k % 9) as f64).collect(); // zeros too
        for k in [1usize, 7, 31] {
            let mut batched = CandidateSet::new(k);
            let mut admitted = Vec::new();
            batched.push_batch_prefiltered(&keys, &bases, &weights, |i| admitted.push(i));
            // Reference: every record goes through the exact offer path (no
            // pre-filter at all) — proves the pre-filter only ever skips
            // offers that would have been rejected, and reports exactly the
            // offers that admitted or updated a key.
            let mut scalar = CandidateSet::new(k);
            let mut expected = Vec::new();
            for i in 0..keys.len() {
                if scalar.offer(keys[i], bases[i] / weights[i], weights[i]).is_candidate() {
                    expected.push(i);
                }
            }
            assert_eq!(admitted, expected, "k={k}");
            assert_eq!(batched.into_sketch(), scalar.into_sketch(), "k={k}");
        }
    }

    /// Keys whose probe starts at `slot` of the index of a `k`-set.
    fn colliding_keys(k: usize, slot: usize, count: usize) -> Vec<Key> {
        let index = KeyIndex::new(k + 1);
        (0..).filter(|&key| index.home(key) == slot).take(count).collect()
    }

    /// Asserts the index holds exactly the heap's keys, and that `probes`
    /// agree with a scan of the heap.
    fn assert_index_matches_heap(set: &CandidateSet, probes: &[Key], context: &str) {
        for &key in probes {
            let scanned = set.heap.iter().any(|c| c.key == key);
            assert_eq!(set.contains(key), scanned, "{context}: key {key}");
        }
        assert!(set.heap.iter().all(|c| set.contains(c.key)), "{context}: heap key not indexed");
        let indexed = set.index.slots.iter().filter(|&&key| key != KeyIndex::EMPTY).count()
            + usize::from(set.index.holds_empty_key);
        assert_eq!(indexed, set.heap.len(), "{context}: index and heap sizes differ");
    }

    #[test]
    fn index_tracks_the_heap_through_seeded_offer_sequences() {
        use cws_hash::{RandomSource, Xoshiro256};
        use std::collections::HashMap;

        for k in [1usize, 7, 1024] {
            let mut rng = Xoshiro256::seeded(0x1DE7 ^ k as u64);
            let mask = KeyIndex::new(k + 1).mask;
            // The key pool: random keys, runs of keys sharing the first and
            // the last home slot (the last run wraps around the table), and
            // the key equal to the index's empty marker.
            let mut pool: Vec<Key> = (0..3 * k as u64 + 8).map(|_| rng.next_u64() >> 1).collect();
            pool.extend(colliding_keys(k, 0, k.min(16) + 2));
            pool.extend(colliding_keys(k, mask, k.min(16) + 2));
            pool.push(Key::MAX);
            let mut set = CandidateSet::new(k);
            // Best `(rank, weight)` offered per key: what the set must
            // finalize to.
            let mut best: HashMap<Key, (f64, f64)> = HashMap::new();
            let mut offered: Vec<Key> = Vec::new();
            for step in 0..12 * (k + 8) {
                // One offer in four re-offers an earlier key, whether it is
                // still held or was evicted since.
                let key = if !offered.is_empty() && rng.next_below(4) == 0 {
                    offered[rng.next_below(offered.len() as u64) as usize]
                } else {
                    pool[rng.next_below(pool.len() as u64) as usize]
                };
                let rank = rng.next_open01();
                let weight = 1.0 + rng.next_unit();
                let outcome = set.offer(key, rank, weight);
                offered.push(key);
                let entry = best.entry(key).or_insert((rank, weight));
                if rank < entry.0 {
                    *entry = (rank, weight);
                }
                let mut probes = vec![key, Key::MAX];
                if let OfferOutcome::Inserted(Some(evicted)) = outcome {
                    assert!(!set.contains(evicted), "k={k} step {step}: evicted key still held");
                    probes.push(evicted);
                }
                if k <= 7 || step % 97 == 0 {
                    probes.extend(&pool);
                }
                assert_index_matches_heap(&set, &probes, &format!("k={k} step {step}"));
            }
            let offline =
                BottomKSketch::from_ranked(k, best.into_iter().map(|(key, (r, w))| (key, r, w)));
            assert_eq!(set.into_sketch(), offline, "k={k}");
        }
    }

    #[test]
    fn index_deletion_keeps_wrapped_probe_runs_reachable() {
        // A run of keys homed at the last slot wraps to the front of the
        // table; deleting from its middle must shift the wrapped tail back
        // without stranding any member.
        let k = 7;
        let mut index = KeyIndex::new(k + 1);
        let run = colliding_keys(k, index.mask, 5);
        let front = colliding_keys(k, 0, 2);
        for &key in run.iter().chain(&front) {
            index.insert(key);
        }
        index.insert(Key::MAX);
        for (removed, &key) in run.iter().enumerate() {
            index.remove(key);
            assert!(!index.contains(key));
            for &kept in run[removed + 1..].iter().chain(&front) {
                assert!(index.contains(kept), "lost {kept} after removing {key}");
            }
            assert!(index.contains(Key::MAX));
        }
        index.remove(Key::MAX);
        assert!(!index.contains(Key::MAX));
        assert_eq!(index.slots.iter().filter(|&&key| key != KeyIndex::EMPTY).count(), 2);
    }

    #[test]
    fn matches_offline_builder_on_permutations() {
        // Exhaustive-ish: a fixed ranked population fed in many shuffled
        // orders always finalizes to the offline sketch.
        let population: Vec<(Key, f64, f64)> = (0..40u64)
            .map(|key| (key, ((key * 2654435761) % 1000) as f64 / 1000.0 + 0.001, 1.0))
            .collect();
        let offline = BottomKSketch::from_ranked(7, population.clone());
        let mut order: Vec<usize> = (0..population.len()).collect();
        for round in 0..20 {
            // Simple deterministic permutation churn.
            order.rotate_left(round % population.len());
            order.swap(round % 40, (round * 7) % 40);
            let mut set = CandidateSet::new(7);
            for &i in &order {
                let (key, rank, weight) = population[i];
                set.offer(key, rank, weight);
            }
            assert_eq!(set.into_sketch(), offline, "round {round}");
        }
    }
}
