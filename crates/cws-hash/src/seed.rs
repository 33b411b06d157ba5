//! Per-key seed derivation used by rank assignments.
//!
//! A [`SeedSequence`] is the bridge between the hashing substrate and the
//! sampling layer: given a key identifier it produces uniform values in
//! `(0, 1)` that the rank distributions of `cws-core` turn into rank values.
//!
//! * [`SeedSequence::shared_seed`] returns *the same* value for a key
//!   regardless of which assignment asks — this is the `u(i)` of the paper's
//!   shared-seed consistent rank assignments and the basis of coordination.
//! * [`SeedSequence::assignment_seed`] returns per-`(key, assignment)` values
//!   that behave like independent draws — the basis of *independent*
//!   (non-coordinated) rank assignments.
//! * [`SeedSequence::auxiliary_seed`] returns additional per-key streams used
//!   by the independent-differences construction, which needs one exponential
//!   variate per distinct weight level of a key.

use crate::mix::KeyHasher;
use crate::uniform::u64_to_open01;

/// Salt of the per-assignment seed stream, mixed into the second pair-hash
/// operand so assignment seeds are uncorrelated with the shared-seed stream.
const ASSIGNMENT_SALT: u64 = 0x5851_F42D_4C95_7F2D;

/// Deterministic source of per-key uniform seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeedSequence {
    hasher: KeyHasher,
}

impl SeedSequence {
    /// Creates a seed sequence from a master seed shared by all processing
    /// sites.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self { hasher: KeyHasher::new(master_seed) }
    }

    /// The shared seed `u(i) ∈ (0, 1)` of a key, identical across all weight
    /// assignments.
    #[inline]
    #[must_use]
    pub fn shared_seed(&self, key: u64) -> f64 {
        u64_to_open01(self.hasher.hash_u64(key))
    }

    /// A seed for `(key, assignment)` that is independent-looking across
    /// assignments; used to build independent rank assignments.
    #[inline]
    #[must_use]
    pub fn assignment_seed(&self, key: u64, assignment: usize) -> f64 {
        u64_to_open01(self.hasher.hash_pair(key, ASSIGNMENT_SALT ^ assignment as u64))
    }

    /// Pre-mixes a whole column of keys into pair-hash bases (the columnar
    /// hash-once step, one `mix64` per key). Each base feeds
    /// [`SeedSequence::assignment_seed_from_base`] for any number of
    /// assignments without touching the key again.
    #[inline]
    pub fn pair_bases_into(&self, keys: &[u64], out: &mut Vec<u64>) {
        // No clear(): resize alone is a length adjustment (a no-op for the
        // full chunks of the hot path) and every slot is overwritten below.
        out.resize(keys.len(), 0);
        self.hasher.pair_base_batch(keys, out);
    }

    /// Completes a per-assignment seed from a base prepared by
    /// [`SeedSequence::pair_bases_into`]; bit-identical to
    /// [`SeedSequence::assignment_seed`].
    #[inline]
    #[must_use]
    pub fn assignment_seed_from_base(&self, pair_base: u64, assignment: usize) -> f64 {
        u64_to_open01(
            self.hasher.hash_pair_from_base(pair_base, ASSIGNMENT_SALT ^ assignment as u64),
        )
    }

    /// An auxiliary per-key stream, indexed by `slot`, independent of both
    /// [`Self::shared_seed`] and [`Self::assignment_seed`].
    ///
    /// The independent-differences consistent construction draws one
    /// exponential variate per distinct weight level of the key; `slot`
    /// identifies the level.
    #[inline]
    #[must_use]
    pub fn auxiliary_seed(&self, key: u64, slot: usize) -> f64 {
        u64_to_open01(self.hasher.hash_pair(key ^ 0xD6E8_FEB8_6659_FD93, slot as u64))
    }

    /// Derives a sequence for an unrelated sampling experiment (e.g. a
    /// different Monte-Carlo repetition in the evaluation harness).
    #[must_use]
    pub fn derive(&self, run: u64) -> Self {
        Self { hasher: self.hasher.derive(run) }
    }

    /// Hashes `key` **once** and returns a state from which the shared seed
    /// and every per-assignment seed derive without touching the key again.
    ///
    /// This is the hash-once ingestion path: a multi-assignment record pays
    /// one key hash, then fans out across all assignments with only the
    /// cheap per-assignment finalization left. Every seed produced by the
    /// returned [`KeySeeds`] is bit-identical to the corresponding
    /// [`SeedSequence::shared_seed`] / [`SeedSequence::assignment_seed`]
    /// call, so samples built either way coordinate perfectly.
    #[inline]
    #[must_use]
    pub fn key_seeds(&self, key: u64) -> KeySeeds {
        KeySeeds {
            shared: u64_to_open01(self.hasher.hash_u64(key)),
            pair_base: self.hasher.pair_base(key),
            hasher: self.hasher,
        }
    }
}

/// Per-key seed state computed by hashing the key exactly once
/// (see [`SeedSequence::key_seeds`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeySeeds {
    shared: f64,
    pair_base: u64,
    hasher: KeyHasher,
}

impl KeySeeds {
    /// The shared seed `u(i)`; bit-identical to [`SeedSequence::shared_seed`].
    #[inline]
    #[must_use]
    pub fn shared_seed(&self) -> f64 {
        self.shared
    }

    /// The per-assignment seed; bit-identical to
    /// [`SeedSequence::assignment_seed`] but re-using the pre-hashed key
    /// state instead of rehashing the key per assignment.
    #[inline]
    #[must_use]
    pub fn assignment_seed(&self, assignment: usize) -> f64 {
        u64_to_open01(
            self.hasher.hash_pair_from_base(self.pair_base, ASSIGNMENT_SALT ^ assignment as u64),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_seed_is_stable_across_instances() {
        let a = SeedSequence::new(99);
        let b = SeedSequence::new(99);
        for k in 0..100 {
            assert_eq!(a.shared_seed(k), b.shared_seed(k));
        }
    }

    #[test]
    fn shared_seed_in_open_interval() {
        let s = SeedSequence::new(7);
        for k in 0..10_000 {
            let u = s.shared_seed(k);
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn assignment_seeds_differ_across_assignments() {
        let s = SeedSequence::new(7);
        let equal =
            (0..1000).filter(|&k| s.assignment_seed(k, 0) == s.assignment_seed(k, 1)).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn auxiliary_seed_independent_of_shared() {
        let s = SeedSequence::new(7);
        let equal = (0..1000).filter(|&k| s.auxiliary_seed(k, 0) == s.shared_seed(k)).count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn derive_changes_all_streams() {
        let s = SeedSequence::new(7);
        let t = s.derive(1);
        assert_ne!(s.shared_seed(3), t.shared_seed(3));
        assert_ne!(s, t);
    }

    #[test]
    fn key_seeds_are_bit_identical_to_direct_calls() {
        let s = SeedSequence::new(123);
        for key in 0..2_000u64 {
            let once = s.key_seeds(key);
            assert_eq!(once.shared_seed().to_bits(), s.shared_seed(key).to_bits());
            for b in 0..16 {
                assert_eq!(
                    once.assignment_seed(b).to_bits(),
                    s.assignment_seed(key, b).to_bits(),
                    "key {key} assignment {b}"
                );
            }
        }
    }

    #[test]
    fn pair_base_lane_matches_scalar_assignment_seeds() {
        let s = SeedSequence::new(321);
        let keys: Vec<u64> = (0..500u64).map(|k| k * 31 + 5).collect();
        let mut bases = Vec::new();
        s.pair_bases_into(&keys, &mut bases);
        assert_eq!(bases.len(), keys.len());
        for (i, &key) in keys.iter().enumerate() {
            for b in 0..8 {
                assert_eq!(
                    s.assignment_seed_from_base(bases[i], b).to_bits(),
                    s.assignment_seed(key, b).to_bits(),
                    "key {key} assignment {b}"
                );
            }
        }
    }

    #[test]
    fn shared_seed_looks_uniform() {
        let s = SeedSequence::new(2024);
        let n = 50_000u64;
        let mean: f64 = (0..n).map(|k| s.shared_seed(k)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        // Simple 10-bucket chi-square style sanity check.
        let mut buckets = [0usize; 10];
        for k in 0..n {
            let u = s.shared_seed(k);
            buckets[(u * 10.0) as usize] += 1;
        }
        for (i, &count) in buckets.iter().enumerate() {
            let expected = n as f64 / 10.0;
            assert!((count as f64 - expected).abs() < expected * 0.1, "bucket {i} has {count}");
        }
    }
}
