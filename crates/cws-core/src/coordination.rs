//! Rank assignments for multi-assignment data: independent, shared-seed
//! consistent, and independent-differences consistent ranks (Section 4).
//!
//! A random rank assignment for `(I, W)` gives every key a *rank vector* with
//! one entry per assignment. The per-assignment marginals are always the
//! single-assignment rank distributions of [`RankFamily`]; what differs is the
//! joint distribution across assignments:
//!
//! * [`CoordinationMode::Independent`] — entries are independent; this is what
//!   you get from maintaining unrelated samples per assignment, and is the
//!   baseline the paper improves upon.
//! * [`CoordinationMode::SharedSeed`] — all entries are derived from the same
//!   uniform seed `u(i)`, making ranks *consistent* (a larger weight always
//!   has a smaller rank). Shared-seed coordination minimizes the expected
//!   number of distinct keys in the union of the sketches (Theorem 4.2).
//! * [`CoordinationMode::IndependentDifferences`] — EXP-rank-specific
//!   consistent construction in which the rank of each assignment is the
//!   minimum of independent exponentials over the "weight increments" of the
//!   key; it generalizes the classic min-hash Jaccard estimator
//!   (Theorem 4.1).

use cws_hash::SeedSequence;

use crate::error::{CwsError, Result};
use crate::ranks::RankFamily;
use crate::weights::Key;

/// Joint distribution of rank vectors across weight assignments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinationMode {
    /// Independent ranks per assignment (non-coordinated sketches).
    Independent,
    /// Shared-seed consistent ranks: `r^(b)(i) = F^{-1}_{w^(b)(i)}(u(i))`.
    SharedSeed,
    /// Independent-differences consistent ranks (EXP ranks only).
    IndependentDifferences,
}

impl CoordinationMode {
    /// `true` for the two consistent (coordinated) modes.
    #[must_use]
    pub fn is_coordinated(self) -> bool {
        !matches!(self, CoordinationMode::Independent)
    }
}

/// Generates rank values / rank vectors for keys.
///
/// A `RankGenerator` is a *pure function* of its master seed: the same
/// `(seed, key, weights)` always produces the same ranks. This is what allows
/// dispersed processing sites to agree on the sample without communication
/// and what makes Monte-Carlo evaluation reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankGenerator {
    family: RankFamily,
    mode: CoordinationMode,
    seeds: SeedSequence,
}

impl RankGenerator {
    /// Creates a generator.
    ///
    /// # Errors
    /// Returns [`CwsError::IndependentDifferencesRequiresExp`] when the
    /// independent-differences mode is combined with IPPS ranks.
    pub fn new(family: RankFamily, mode: CoordinationMode, master_seed: u64) -> Result<Self> {
        Self::with_seed_sequence(family, mode, SeedSequence::new(master_seed))
    }

    /// Creates a generator from an explicit [`SeedSequence`].
    ///
    /// # Errors
    /// Same as [`RankGenerator::new`].
    pub(crate) fn with_seed_sequence(
        family: RankFamily,
        mode: CoordinationMode,
        seeds: SeedSequence,
    ) -> Result<Self> {
        if mode == CoordinationMode::IndependentDifferences && family != RankFamily::Exp {
            return Err(CwsError::IndependentDifferencesRequiresExp);
        }
        Ok(Self { family, mode, seeds })
    }

    /// The rank family.
    #[must_use]
    pub fn family(&self) -> RankFamily {
        self.family
    }

    /// The coordination mode.
    #[must_use]
    pub fn mode(&self) -> CoordinationMode {
        self.mode
    }

    /// The underlying seed sequence.
    #[must_use]
    pub fn seed_sequence(&self) -> SeedSequence {
        self.seeds
    }

    /// Derives a generator for an unrelated repetition (Monte-Carlo run).
    #[must_use]
    pub(crate) fn derive(&self, run: u64) -> Self {
        Self { family: self.family, mode: self.mode, seeds: self.seeds.derive(run) }
    }

    /// The shared seed `u(i)` of a key (meaningful for
    /// [`CoordinationMode::SharedSeed`]).
    #[must_use]
    pub fn shared_seed(&self, key: Key) -> f64 {
        self.seeds.shared_seed(key)
    }

    /// Errors unless this generator can produce dispersed (per-assignment)
    /// ranks — the one place the "independent differences cannot be
    /// dispersed" error is constructed, shared by the scalar and batched
    /// ingestion paths.
    ///
    /// # Errors
    /// Returns [`CwsError::UnsupportedEstimator`] in independent-differences
    /// mode, which requires the full weight vector and therefore cannot be
    /// used with dispersed data (Section 4, "Computing coordinated
    /// sketches").
    #[inline]
    pub(crate) fn require_dispersable(&self) -> Result<()> {
        match self.mode {
            CoordinationMode::IndependentDifferences => Err(CwsError::UnsupportedEstimator {
                estimator: "dispersed_rank",
                reason: "independent-differences ranks require the full weight vector and are \
                         not suited for dispersed weights",
            }),
            CoordinationMode::SharedSeed | CoordinationMode::Independent => Ok(()),
        }
    }

    /// Rank of `key` under a single assignment, usable in the dispersed model
    /// where only `w^(b)(i)` is known to the processing site of assignment
    /// `b`.
    ///
    /// # Errors
    /// Returns [`CwsError::UnsupportedEstimator`] in independent-differences
    /// mode, which needs the full weight vector.
    pub fn dispersed_rank(&self, key: Key, weight: f64, assignment: usize) -> Result<f64> {
        self.require_dispersable()?;
        match self.mode {
            CoordinationMode::SharedSeed => {
                Ok(self.family.rank_from_seed(weight, self.seeds.shared_seed(key)))
            }
            CoordinationMode::Independent => {
                Ok(self.family.rank_from_seed(weight, self.seeds.assignment_seed(key, assignment)))
            }
            CoordinationMode::IndependentDifferences => unreachable!("rejected above"),
        }
    }

    /// Fills `out[i]` with the weight-independent rank numerator of
    /// `keys[i]` under shared-seed coordination (`rank = out[i] / w` for
    /// both families, bit-identical to [`RankGenerator::dispersed_rank`];
    /// see [`RankFamily::rank_base`]).
    ///
    /// This is the one shared-seed base kernel of the batched ingestion
    /// paths — single- and multi-assignment samplers both call it, so the
    /// bit-exactness contract lives in one place.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn shared_rank_bases_into(&self, keys: &[Key], out: &mut [f64]) {
        assert_eq!(keys.len(), out.len(), "output lane length mismatch");
        for (slot, &key) in out.iter_mut().zip(keys) {
            *slot = self.family.rank_base(self.seeds.shared_seed(key));
        }
    }

    /// Fills `out[i]` with the weight-independent rank numerator of the key
    /// behind `pair_bases[i]` (from [`cws_hash::SeedSequence::
    /// pair_bases_into`]) under *independent* coordination for one
    /// assignment — the counterpart of
    /// [`RankGenerator::shared_rank_bases_into`], completing the hash-once
    /// fan-out without touching the keys again.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    #[inline]
    pub fn assignment_rank_bases_into(
        &self,
        pair_bases: &[u64],
        assignment: usize,
        out: &mut [f64],
    ) {
        assert_eq!(pair_bases.len(), out.len(), "output lane length mismatch");
        for (slot, &pair_base) in out.iter_mut().zip(pair_bases) {
            *slot =
                self.family.rank_base(self.seeds.assignment_seed_from_base(pair_base, assignment));
        }
    }

    /// The full rank vector of a key given its weight vector.
    ///
    /// Zero weights map to rank `+∞`. The output has the same length and
    /// assignment order as `weights`.
    #[must_use]
    pub fn rank_vector(&self, key: Key, weights: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(weights.len());
        self.rank_vector_into(key, weights, &mut out);
        out
    }

    /// Writes the rank vector of a key into `out`, clearing and re-using its
    /// allocation — the hash-once hot path of multi-assignment ingestion.
    ///
    /// The key is hashed exactly once per call (its shared seed, or its
    /// pre-mixed per-assignment seed base) and the per-assignment rank
    /// computation fans out from that state. The values written are
    /// bit-identical to [`RankGenerator::rank_vector`] and, for the
    /// dispersable modes, to [`RankGenerator::dispersed_rank`] called per
    /// assignment.
    pub fn rank_vector_into(&self, key: Key, weights: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(weights.len());
        match self.mode {
            CoordinationMode::SharedSeed => {
                let u = self.seeds.shared_seed(key);
                out.extend(weights.iter().map(|&w| self.family.rank_from_seed(w, u)));
            }
            CoordinationMode::Independent => {
                let seeds = self.seeds.key_seeds(key);
                out.extend(
                    weights
                        .iter()
                        .enumerate()
                        .map(|(b, &w)| self.family.rank_from_seed(w, seeds.assignment_seed(b))),
                );
            }
            CoordinationMode::IndependentDifferences => {
                self.independent_differences_into(key, weights, out);
            }
        }
    }

    /// Independent-differences construction (Section 4): sort the positive
    /// weights in increasing order, draw `d_j ~ EXP[w_(j) - w_(j-1)]`
    /// independently, and give the assignment with the `j`-th smallest weight
    /// the rank `min_{a ≤ j} d_a`.
    fn independent_differences_into(&self, key: Key, weights: &[f64], ranks: &mut Vec<f64>) {
        // Keep the per-record sort allocation-free for realistic assignment
        // counts; only pathologically wide weight vectors fall back to the
        // heap.
        const STACK_ASSIGNMENTS: usize = 16;
        let mut stack_order = [0usize; STACK_ASSIGNMENTS];
        let mut heap_order = Vec::new();
        let order: &mut [usize] = if weights.len() <= STACK_ASSIGNMENTS {
            &mut stack_order[..weights.len()]
        } else {
            heap_order.resize(weights.len(), 0);
            &mut heap_order
        };
        for (index, slot) in order.iter_mut().enumerate() {
            *slot = index;
        }
        order.sort_unstable_by(|&a, &b| {
            weights[a].partial_cmp(&weights[b]).expect("weights must not be NaN")
        });

        debug_assert!(ranks.is_empty(), "caller clears the output buffer");
        ranks.resize(weights.len(), f64::INFINITY);
        let mut previous_weight = 0.0;
        let mut running_min = f64::INFINITY;
        for (level, &assignment) in order.iter().enumerate() {
            let weight = weights[assignment];
            if weight <= 0.0 {
                // Zero weight: rank stays +∞ and the increment baseline is
                // unchanged.
                continue;
            }
            let increment = weight - previous_weight;
            if increment > 0.0 {
                let u = self.seeds.auxiliary_seed(key, level);
                // d_level ~ EXP[increment]
                let d = -(-u).ln_1p() / increment;
                running_min = running_min.min(d);
            }
            ranks[assignment] = running_min;
            previous_weight = weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn weights_of(key: Key) -> Vec<f64> {
        // A small deterministic, non-uniform weight vector per key.
        vec![
            (key % 7 + 1) as f64,
            (key % 5) as f64, // sometimes zero
            ((key * 3) % 11 + 2) as f64,
        ]
    }

    #[test]
    fn independent_differences_requires_exp() {
        let err = RankGenerator::new(RankFamily::Ipps, CoordinationMode::IndependentDifferences, 1)
            .unwrap_err();
        assert_eq!(err, CwsError::IndependentDifferencesRequiresExp);
        assert!(RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 1)
            .is_ok());
    }

    #[test]
    fn shared_seed_ranks_are_consistent() {
        // Consistency: w^(b1)(i) >= w^(b2)(i) => r^(b1)(i) <= r^(b2)(i).
        for family in [RankFamily::Exp, RankFamily::Ipps] {
            let gen = RankGenerator::new(family, CoordinationMode::SharedSeed, 3).unwrap();
            for key in 0..500u64 {
                let w = weights_of(key);
                let r = gen.rank_vector(key, &w);
                for a in 0..w.len() {
                    for b in 0..w.len() {
                        if w[a] >= w[b] && w[b] > 0.0 {
                            assert!(
                                r[a] <= r[b] + 1e-15,
                                "key {key}: w={w:?} r={r:?} violates consistency"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn independent_differences_ranks_are_consistent() {
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 3)
            .unwrap();
        for key in 0..500u64 {
            let w = weights_of(key);
            let r = gen.rank_vector(key, &w);
            for a in 0..w.len() {
                for b in 0..w.len() {
                    if w[a] >= w[b] && w[b] > 0.0 {
                        assert!(r[a] <= r[b] + 1e-15, "key {key}: w={w:?} r={r:?}");
                    }
                    if w[a] == w[b] {
                        assert_eq!(r[a].to_bits(), r[b].to_bits(), "equal weights equal ranks");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_weight_has_infinite_rank_in_all_modes() {
        for mode in [
            CoordinationMode::Independent,
            CoordinationMode::SharedSeed,
            CoordinationMode::IndependentDifferences,
        ] {
            let gen = RankGenerator::new(RankFamily::Exp, mode, 9).unwrap();
            let r = gen.rank_vector(11, &[0.0, 5.0, 0.0]);
            assert!(r[0].is_infinite());
            assert!(r[1].is_finite());
            assert!(r[2].is_infinite());
        }
    }

    #[test]
    fn dispersed_rank_matches_rank_vector_for_dispersable_modes() {
        for mode in [CoordinationMode::Independent, CoordinationMode::SharedSeed] {
            for family in [RankFamily::Exp, RankFamily::Ipps] {
                let gen = RankGenerator::new(family, mode, 17).unwrap();
                for key in 0..200u64 {
                    let w = weights_of(key);
                    let vector = gen.rank_vector(key, &w);
                    for (b, &wb) in w.iter().enumerate() {
                        let single = gen.dispersed_rank(key, wb, b).unwrap();
                        assert_eq!(single.to_bits(), vector[b].to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn rank_vector_into_is_bit_identical_and_reuses_buffer() {
        let mut buffer = Vec::new();
        for (family, mode) in [
            (RankFamily::Ipps, CoordinationMode::SharedSeed),
            (RankFamily::Exp, CoordinationMode::SharedSeed),
            (RankFamily::Ipps, CoordinationMode::Independent),
            (RankFamily::Exp, CoordinationMode::IndependentDifferences),
        ] {
            let gen = RankGenerator::new(family, mode, 29).unwrap();
            for key in 0..300u64 {
                let w = weights_of(key);
                let fresh = gen.rank_vector(key, &w);
                gen.rank_vector_into(key, &w, &mut buffer);
                assert_eq!(fresh.len(), buffer.len());
                for (a, b) in fresh.iter().zip(&buffer) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{family:?} {mode:?} key {key}");
                }
            }
        }
    }

    #[test]
    fn dispersed_rank_rejected_for_independent_differences() {
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 5)
            .unwrap();
        assert!(gen.dispersed_rank(1, 2.0, 0).is_err());
    }

    #[test]
    fn marginal_distribution_is_exponential_for_independent_differences() {
        // r^(b)(i) should be EXP[w^(b)(i)] regardless of the other entries:
        // check the empirical mean of ranks across many keys with the same
        // weight vector.
        let gen = RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 7)
            .unwrap();
        let weights = [4.0, 1.0, 2.5];
        let n = 30_000u64;
        let mut sums = [0.0f64; 3];
        for key in 0..n {
            let r = gen.rank_vector(key, &weights);
            for b in 0..3 {
                sums[b] += r[b];
            }
        }
        for b in 0..3 {
            let mean = sums[b] / n as f64;
            let expected = 1.0 / weights[b];
            assert!(
                (mean - expected).abs() < expected * 0.05,
                "assignment {b}: mean {mean} expected {expected}"
            );
        }
    }

    #[test]
    fn independent_mode_ranks_are_uncorrelated_across_assignments() {
        let gen = RankGenerator::new(RankFamily::Ipps, CoordinationMode::Independent, 23).unwrap();
        // With equal weights, consistent ranks would be identical; independent
        // ranks should essentially never be.
        let equal = (0..2000u64)
            .filter(|&key| {
                let r = gen.rank_vector(key, &[3.0, 3.0]);
                r[0] == r[1]
            })
            .count();
        assert_eq!(equal, 0);
    }

    #[test]
    fn shared_seed_equal_weights_equal_ranks() {
        let gen = RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 23).unwrap();
        for key in 0..100u64 {
            let r = gen.rank_vector(key, &[3.0, 3.0]);
            assert_eq!(r[0], r[1]);
        }
    }

    #[test]
    fn derive_changes_ranks() {
        let gen = RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 23).unwrap();
        let other = gen.derive(1);
        assert_ne!(gen.rank_vector(5, &[1.0, 2.0]), other.rank_vector(5, &[1.0, 2.0]));
        assert_eq!(gen.family(), other.family());
        assert_eq!(gen.mode(), other.mode());
    }

    #[test]
    fn mode_helpers() {
        assert!(!CoordinationMode::Independent.is_coordinated());
        assert!(CoordinationMode::SharedSeed.is_coordinated());
        assert!(CoordinationMode::IndependentDifferences.is_coordinated());
    }
}
