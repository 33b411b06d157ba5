//! Bounded candidate set shared by the stream samplers: a buffer that always
//! holds the `k + 1` smallest-ranked keys seen so far (the bottom-k sample
//! plus the key that defines `r_{k+1}`), from which finalization selects
//! exactly those.
//!
//! This is the innermost structure of the ingestion hot path, so it is built
//! for the common case — a record whose rank is too large to matter — to cost
//! exactly one load and one floating-point compare against a cached
//! threshold. Storage is two flat arrays, both allocated once at
//! construction and never resized:
//!
//! * an unsorted buffer of at most `2(k + 1)` candidates (24 bytes each).
//!   An offer at or below the threshold is appended. When the buffer fills,
//!   a *compaction* selects the `k + 1` smallest under the `(rank, key)`
//!   order (`select_nth_unstable_by`, `O(k)`), drops the rest and lowers the
//!   threshold to the largest kept rank. One compaction pays for the `k + 1`
//!   appends that refill the buffer, so an admission costs amortised `O(1)`
//!   instead of a max-heap's `O(log k)` branchy sift. This is the layout of
//!   the QuickSelect theta sketches of Apache DataSketches; the estimators
//!   only need the final `k + 1` selection, not the order in which keys were
//!   admitted;
//! * a [`KeyIndex`] over the buffered keys (open addressing, a power-of-two
//!   table of at least `4(k + 1)` slots, so at most half full), which
//!   answers the duplicate check of an offer with one probe. Only a real
//!   duplicate, which an aggregated stream never produces, still searches
//!   the buffer for its entry.
//!
//! Memory per set is `48(k + 1)` bytes of buffer plus 8 bytes per index
//! slot: about 112 KiB at `k = 1024`.
//!
//! Between compactions the buffer may hold keys the next compaction drops.
//! [`CandidateSet::is_buffered`] is the one-probe test for that superset;
//! [`CandidateSet::contains`] answers exact membership in the `k + 1`
//! smallest by counting the entries that beat the key, `O(k)`.
//!
//! The `(rank, key)` total order matches `BottomKSketch::from_ranked`
//! exactly, and finalization selects under it, so a candidate set fed any
//! permutation of a ranked population finalizes into the bit-identical
//! sketch the offline builder computes — rank ties included.

use std::cmp::Ordering;

use cws_core::sketch::bottomk::{BottomKSketch, SketchEntry};
use cws_core::Key;

/// A candidate entry: a key with its rank and weight under one assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    rank: f64,
    key: Key,
    weight: f64,
}

impl Candidate {
    /// Total order of the selection: by rank, tie-broken by key. Mirrors the
    /// order of `BottomKSketch::from_ranked`.
    #[inline]
    fn order(&self, other: &Self) -> Ordering {
        self.rank.total_cmp(&other.rank).then(self.key.cmp(&other.key))
    }
}

/// What [`CandidateSet::offer`] did with a ranked key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OfferOutcome {
    /// The rank was non-finite or above the threshold; nothing changed.
    Rejected,
    /// The key was appended to the buffer (which may have compacted).
    Inserted,
    /// The key was already buffered. Its entry kept the smaller of the two
    /// ranks (a re-offer can only improve a candidate, matching how the
    /// offline builder would see a single, best observation).
    Duplicate,
}

impl OfferOutcome {
    /// Whether this offer admitted (or updated) the key.
    ///
    /// On an aggregated stream — each key offered at most once per set,
    /// the documented contract of the samplers — this is equivalent to
    /// "the key is buffered after the call", unless that very offer filled
    /// the buffer and its compaction dropped the key again. It is *not*
    /// exact membership in the `k + 1` smallest: a buffered key may lose its
    /// place at the next compaction. A *re-offer* of a buffered key with a
    /// rank above the threshold reports `Rejected` even though the earlier
    /// entry remains; use [`CandidateSet::contains`] when these distinctions
    /// matter.
    #[inline]
    pub(crate) fn is_candidate(self) -> bool {
        !matches!(self, OfferOutcome::Rejected)
    }
}

/// Set of the keys buffered by a [`CandidateSet`]: an open-addressing table
/// with linear probing and backward-shift deletion, sized once to at least
/// twice the buffer's capacity so probe chains stay short.
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

    /// Adds `key` unless it is present; returns whether it was added.
    #[inline]
    fn insert(&mut self, key: Key) -> bool {
        if key == Self::EMPTY {
            return !std::mem::replace(&mut self.holds_empty_key, true);
        }
        let mut slot = self.home(key);
        loop {
            match self.slots[slot] {
                held if held == key => return false,
                Self::EMPTY => break,
                _ => slot = (slot + 1) & self.mask,
            }
        }
        self.slots[slot] = key;
        true
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

/// A superset of the `k + 1` smallest-ranked keys observed so far, in one
/// flat allocation.
#[derive(Debug, Clone)]
pub(crate) struct CandidateSet {
    k: usize,
    /// Unsorted, one entry per key, at most `2(k + 1)` long; holds the
    /// `k + 1` smallest entries under `(rank, key)` seen so far.
    buffer: Vec<Candidate>,
    /// Exactly the keys in `buffer`.
    index: KeyIndex,
    /// Largest rank kept by the last compaction, `+∞` before the first:
    /// `k + 1` buffered entries rank at or below it, so any strictly larger
    /// rank is rejected without touching the buffer.
    threshold: f64,
    /// `threshold * THRESHOLD_INFLATION`, cached for the division-free
    /// pre-filter of the hash-once ingestion path.
    inflated: f64,
}

impl CandidateSet {
    pub(crate) fn new(k: usize) -> Self {
        assert!(k > 0, "sample size k must be positive");
        let capacity = 2 * (k + 1);
        Self {
            k,
            buffer: Vec::with_capacity(capacity),
            index: KeyIndex::new(capacity),
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

    /// Offers a ranked key. Non-finite ranks (zero weights) are ignored.
    ///
    /// Offering a key that is already buffered does not double-insert it:
    /// the existing entry is kept with the smaller of the two ranks.
    pub(crate) fn offer(&mut self, key: Key, rank: f64, weight: f64) -> OfferOutcome {
        // Hot path: one compare. `threshold` is +∞ until the first
        // compaction, so this also admits everything (finite) while filling.
        if rank > self.threshold {
            return OfferOutcome::Rejected;
        }
        if !rank.is_finite() {
            return OfferOutcome::Rejected;
        }
        let candidate = Candidate { rank, key, weight };

        // Duplicate guard: the index probe that adds the key. Only a real
        // duplicate searches the buffer for its entry.
        if !self.index.insert(key) {
            let held =
                self.buffer.iter_mut().find(|c| c.key == key).expect("indexed keys are buffered");
            if rank < held.rank {
                *held = candidate;
            }
            return OfferOutcome::Duplicate;
        }

        // A rank equal to the threshold is appended even when its key loses
        // the tie-break: the selection of the next compaction, or of
        // finalization, decides ties exactly like the offline builder.
        self.buffer.push(candidate);
        if self.buffer.len() == 2 * (self.k + 1) {
            self.compact();
        }
        OfferOutcome::Inserted
    }

    /// Keeps the `k + 1` smallest buffered entries and lowers the threshold
    /// to the largest of them.
    fn compact(&mut self) {
        let (_, kept_max, evicted) = self.buffer.select_nth_unstable_by(self.k, Candidate::order);
        self.threshold = kept_max.rank;
        self.inflated = self.threshold * THRESHOLD_INFLATION;
        for dropped in evicted.iter() {
            self.index.remove(dropped.key);
        }
        self.buffer.truncate(self.k + 1);
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

    /// Whether `key` is buffered (one index probe): true of every one of
    /// the `k + 1` smallest, and possibly of keys the next compaction drops.
    #[inline]
    pub(crate) fn is_buffered(&self, key: Key) -> bool {
        self.index.contains(key)
    }

    /// Finalizes into a bottom-k sketch: selects the `k + 1` smallest
    /// buffered entries under `(rank, key)`, sorts the first `k` and takes
    /// the last as `r_{k+1}` (`+∞` when `k` or fewer are buffered).
    ///
    /// The buffer holds distinct keys with finite ranks, so this is
    /// bit-identical to handing it to `BottomKSketch::from_ranked`, whose
    /// heap does the same selection under the same total order.
    pub(crate) fn into_sketch(self) -> BottomKSketch {
        let k = self.k;
        let mut buffer = self.buffer;
        let next_rank = if buffer.len() > k {
            let (_, next, _) = buffer.select_nth_unstable_by(k, Candidate::order);
            let next_rank = next.rank;
            buffer.truncate(k);
            next_rank
        } else {
            f64::INFINITY
        };
        buffer.sort_unstable_by(Candidate::order);
        let entries = buffer
            .into_iter()
            .map(|c| SketchEntry { key: c.key, rank: c.rank, weight: c.weight })
            .collect();
        BottomKSketch::from_sorted_parts(k, entries, next_rank)
    }

    /// Whether `key` is among the `k + 1` smallest offered so far: buffered
    /// and beaten by at most `k` buffered entries. `O(k)`, for the model
    /// tests; the hot paths use [`CandidateSet::is_buffered`].
    #[cfg(test)]
    pub(crate) fn contains(&self, key: Key) -> bool {
        if !self.index.contains(key) {
            return false;
        }
        if self.buffer.len() <= self.k + 1 {
            return true;
        }
        let held = self.buffer.iter().find(|c| c.key == key).expect("indexed keys are buffered");
        self.buffer.iter().filter(|c| c.order(held) == Ordering::Less).count() <= self.k
    }

    /// Number of entries currently buffered (fewer than `2(k + 1)`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_k_plus_one_smallest() {
        let mut set = CandidateSet::new(2);
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Inserted);
        assert_eq!(set.offer(2, 0.4, 1.0), OfferOutcome::Inserted);
        assert_eq!(set.offer(3, 0.3, 1.0), OfferOutcome::Inserted);
        assert_eq!(set.len(), 3);
        // Key 4 with a smaller rank pushes key 1 (largest rank) out of the
        // k + 1 smallest.
        assert_eq!(set.offer(4, 0.2, 1.0), OfferOutcome::Inserted);
        assert!(!set.contains(1));
        assert!(set.contains(4));
        // A large rank is never a candidate.
        set.offer(5, 0.9, 1.0);
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
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Inserted);
        assert_eq!(set.offer(1, 0.5, 1.0), OfferOutcome::Duplicate);
        assert_eq!(set.len(), 1, "duplicate must not double-insert");
        set.offer(2, 0.3, 1.0);
        set.offer(3, 0.4, 1.0);
        // Push key 1 (the worst) out with a better key.
        assert_eq!(set.offer(4, 0.2, 1.0), OfferOutcome::Inserted);
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

    /// Finalization by selection equals the offline heap for every buffer
    /// length a finalize can meet past `k` (from `k + 1` to `2k + 1`, the
    /// last length before a compaction), with few rank levels so ties at
    /// the cut are broken by key, and keys offered in scrambled order.
    #[test]
    fn selection_finalize_matches_from_ranked_at_every_buffer_length() {
        for k in [1usize, 2, 5, 33] {
            for len in k + 1..=2 * k + 1 {
                let mut set = CandidateSet::new(k);
                let mut offered = Vec::new();
                for i in 0..len as u64 {
                    let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                    let rank = ((key % 4) + 1) as f64 / 8.0;
                    set.offer(key, rank, 1.0 + i as f64);
                    offered.push((key, rank, 1.0 + i as f64));
                }
                assert_eq!(set.len(), len, "k={k}: the buffer compacted early");
                let selected = sketch_bits(&set.into_sketch());
                let offline = sketch_bits(&BottomKSketch::from_ranked(k, offered));
                assert_eq!(selected, offline, "k={k} len={len}");
            }
        }
    }

    /// Keys whose probe starts at `slot` of the index of a `k`-set.
    fn colliding_keys(k: usize, slot: usize, count: usize) -> Vec<Key> {
        let index = CandidateSet::new(k).index;
        (0..).filter(|&key| index.home(key) == slot).take(count).collect()
    }

    /// Asserts the index holds exactly the buffer's keys, and that `probes`
    /// agree with a scan of the buffer.
    fn assert_index_matches_buffer(set: &CandidateSet, probes: &[Key], context: &str) {
        for &key in probes {
            let scanned = set.buffer.iter().any(|c| c.key == key);
            assert_eq!(set.is_buffered(key), scanned, "{context}: key {key}");
            assert!(scanned || !set.contains(key), "{context}: unbuffered key {key} contained");
        }
        assert!(set.buffer.iter().all(|c| set.is_buffered(c.key)), "{context}: key not indexed");
        let indexed = set.index.slots.iter().filter(|&&key| key != KeyIndex::EMPTY).count()
            + usize::from(set.index.holds_empty_key);
        assert_eq!(indexed, set.buffer.len(), "{context}: index and buffer sizes differ");
    }

    #[test]
    fn index_tracks_the_buffer_through_seeded_offer_sequences() {
        use cws_hash::{RandomSource, Xoshiro256};
        use std::collections::HashMap;

        for k in [1usize, 7, 1024] {
            let mut rng = Xoshiro256::seeded(0x1DE7 ^ k as u64);
            let mask = CandidateSet::new(k).index.mask;
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
                let before: Vec<Key> = set.buffer.iter().map(|c| c.key).collect();
                set.offer(key, rank, weight);
                offered.push(key);
                let entry = best.entry(key).or_insert((rank, weight));
                if rank < entry.0 {
                    *entry = (rank, weight);
                }
                let mut probes = vec![key, Key::MAX];
                if set.len() < before.len() {
                    // The offer compacted: every key it dropped must have
                    // left the index.
                    probes.extend(before);
                }
                if k <= 7 || step % 97 == 0 {
                    probes.extend(&pool);
                }
                assert_index_matches_buffer(&set, &probes, &format!("k={k} step {step}"));
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
        let mut index = CandidateSet::new(k).index;
        let run = colliding_keys(k, index.mask, 5);
        let front = colliding_keys(k, 0, 2);
        for &key in run.iter().chain(&front) {
            assert!(index.insert(key));
        }
        assert!(index.insert(Key::MAX));
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

    /// The reference a candidate set is checked against, written without
    /// any of its machinery: the best (smallest-rank, first-offered on a
    /// tie) finite observation per key, fully sorted on demand.
    #[derive(Default)]
    struct Oracle {
        best: std::collections::HashMap<Key, (f64, f64)>,
    }

    impl Oracle {
        fn offer(&mut self, key: Key, rank: f64, weight: f64) {
            if !rank.is_finite() {
                return;
            }
            let entry = self.best.entry(key).or_insert((rank, weight));
            if rank < entry.0 {
                *entry = (rank, weight);
            }
        }

        /// The per-key minima in `(rank, key)` order.
        fn sorted(&self) -> Vec<(Key, f64, f64)> {
            let mut all: Vec<_> = self.best.iter().map(|(&key, &(r, w))| (key, r, w)).collect();
            all.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            all
        }

        fn top(&self, k: usize) -> Vec<Key> {
            self.sorted().into_iter().take(k + 1).map(|(key, _, _)| key).collect()
        }
    }

    /// A sketch as raw bits: `(key, rank bits, weight bits)` per entry, then
    /// the bits of `r_{k+1}`.
    fn sketch_bits(sketch: &BottomKSketch) -> (Vec<(Key, u64, u64)>, u64) {
        let entries =
            sketch.entries().iter().map(|e| (e.key, e.rank.to_bits(), e.weight.to_bits()));
        (entries.collect(), sketch.next_rank().to_bits())
    }

    /// Asserts `set` finalizes to the oracle's selection, to the bit, both
    /// by the offline builder over the per-key minima and by a full sort.
    fn assert_finalizes_like(set: &CandidateSet, oracle: &Oracle, k: usize, context: &str) {
        let sketch = sketch_bits(&set.clone().into_sketch());
        let sorted = oracle.sorted();
        let offline = BottomKSketch::from_ranked(k, sorted.iter().copied());
        assert_eq!(sketch, sketch_bits(&offline), "{context}: differs from from_ranked");
        let entries = sorted.iter().take(k).map(|&(key, r, w)| (key, r.to_bits(), w.to_bits()));
        let next = sorted.get(k).map_or(f64::INFINITY, |e| e.1);
        assert_eq!(sketch, (entries.collect(), next.to_bits()), "{context}: differs from a sort");
    }

    /// Asserts exact membership matches the oracle for every key in `keys`.
    fn assert_membership_like(
        set: &CandidateSet,
        oracle: &Oracle,
        k: usize,
        keys: &[Key],
        context: &str,
    ) {
        let top = oracle.top(k);
        for &key in keys {
            assert_eq!(set.contains(key), top.contains(&key), "{context}: key {key}");
        }
    }

    #[test]
    fn compactions_land_exactly_on_a_full_buffer() {
        // Strictly falling ranks admit every offer, so the buffer fills at
        // offers 2(k+1), 3(k+1), 4(k+1), ...: check membership after each
        // offer and the finalized sketch one before, on and after each.
        for k in [1usize, 2, 5, 64] {
            let capacity = 2 * (k + 1);
            let mut set = CandidateSet::new(k);
            let mut oracle = Oracle::default();
            let total = 4 * (k + 1) + 2;
            let keys: Vec<Key> =
                (0..total as u64).map(|i| i.wrapping_mul(0x9E37_79B9) ^ 5).collect();
            for (step, &key) in keys.iter().enumerate() {
                let offers = step + 1;
                let rank = 1.0 - offers as f64 / (total as f64 + 1.0);
                let weight = 1.0 + step as f64;
                assert_eq!(set.offer(key, rank, weight), OfferOutcome::Inserted);
                oracle.offer(key, rank, weight);
                let context = format!("k={k} offer {offers}");
                let expected_len =
                    if offers < capacity { offers } else { k + 1 + (offers - capacity) % (k + 1) };
                assert_eq!(set.len(), expected_len, "{context}");
                assert_membership_like(&set, &oracle, k, &keys[..offers], &context);
                if (offers + 1) % (k + 1) <= 2 {
                    assert_finalizes_like(&set, &oracle, k, &context);
                }
            }
        }
    }

    #[test]
    fn seeded_offer_sequences_match_the_oracle() {
        use cws_hash::{RandomSource, Xoshiro256};

        for k in [1usize, 2, 5, 64] {
            for seed in 0..4u64 {
                let mut rng = Xoshiro256::seeded(0x0AC1E ^ ((k as u64) << 8) ^ seed);
                let pool: Vec<Key> = (0..3 * k as u64 + 12).map(|_| rng.next_u64() >> 3).collect();
                let mut set = CandidateSet::new(k);
                let mut oracle = Oracle::default();
                let mut offered: Vec<Key> = Vec::new();
                for step in 0..10 * (k + 1) + 7 {
                    let key = match rng.next_below(6) {
                        // Re-offer a key that has left the k + 1 smallest
                        // (it may still be buffered), when there is one.
                        0 => offered
                            .iter()
                            .copied()
                            .find(|&key| !oracle.top(k).contains(&key))
                            .unwrap_or(pool[0]),
                        // Re-offer any earlier key: better or worse.
                        1 | 2 if !offered.is_empty() => {
                            offered[rng.next_below(offered.len() as u64) as usize]
                        }
                        _ => pool[rng.next_below(pool.len() as u64) as usize],
                    };
                    // Few rank levels, so ties at the threshold are common,
                    // plus the non-finite ranks an offer must ignore.
                    let rank = match rng.next_below(24) {
                        0 => f64::INFINITY,
                        1 => f64::NEG_INFINITY,
                        2 => f64::NAN,
                        3 => rng.next_open01(),
                        level => (level % 8 + 1) as f64 / 16.0,
                    };
                    let weight = 1.0 + step as f64;
                    set.offer(key, rank, weight);
                    oracle.offer(key, rank, weight);
                    offered.push(key);
                    let context = format!("k={k} seed {seed} step {step}");
                    assert_membership_like(&set, &oracle, k, &pool, &context);
                    if step % (k + 1) == 0 {
                        assert_finalizes_like(&set, &oracle, k, &context);
                    }
                }
                assert_finalizes_like(&set, &oracle, k, &format!("k={k} seed {seed} end"));
            }
        }
    }

    #[test]
    fn equal_ranks_keep_the_smallest_keys() {
        // Every rank ties at the threshold: the selection is by key alone,
        // whatever the arrival order.
        for k in [1usize, 2, 5, 64] {
            let keys: Vec<Key> = (0..5 * (k as u64 + 1)).map(|i| (i * 7919) % 1009).collect();
            let mut set = CandidateSet::new(k);
            let mut oracle = Oracle::default();
            for &key in &keys {
                set.offer(key, 0.25, 2.0);
                oracle.offer(key, 0.25, 2.0);
                assert_membership_like(&set, &oracle, k, &keys, &format!("k={k} key {key}"));
            }
            assert_finalizes_like(&set, &oracle, k, &format!("k={k}"));
        }
    }
}
