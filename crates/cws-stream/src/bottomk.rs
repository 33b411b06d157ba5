//! Single-assignment bottom-k stream sampler.

use cws_core::columns::{invalid_weight_error, validate_weight_lane, weight_is_valid};
use cws_core::coordination::{CoordinationMode, RankGenerator};
use cws_core::error::Result;
use cws_core::sketch::bottomk::BottomKSketch;
use cws_core::Key;

use crate::candidate::CandidateSet;

/// Records per batch-processing chunk: the rank-base scratch lane stays in
/// L1 while the pre-filter re-reads it, and the stack frame stays small.
pub(crate) const COLUMN_CHUNK: usize = 1024;

/// A one-pass, `O(k)`-state bottom-k sampler for a single weight assignment.
///
/// Ranks are derived from the key and the shared hash seed, so independently
/// running samplers (different time periods, different sites) produce
/// *coordinated* samples as long as they are constructed from the same
/// [`RankGenerator`] and assignment index.
///
/// The stream must be aggregated: each key may be pushed at most once.
#[derive(Debug, Clone)]
pub struct BottomKStreamSampler {
    generator: RankGenerator,
    assignment: usize,
    candidates: CandidateSet,
    processed: u64,
}

impl BottomKStreamSampler {
    /// Creates a sampler for `assignment` with sample size `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(generator: RankGenerator, assignment: usize, k: usize) -> Self {
        Self { generator, assignment, candidates: CandidateSet::new(k), processed: 0 }
    }

    /// The assignment this sampler summarizes.
    #[must_use]
    pub fn assignment(&self) -> usize {
        self.assignment
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Processes one `(key, weight)` record.
    ///
    /// # Errors
    /// Returns an error if the weight is NaN, infinite or negative, or if
    /// the generator's coordination mode cannot produce dispersed
    /// (per-assignment) ranks — i.e. independent-differences ranks.
    pub fn push(&mut self, key: Key, weight: f64) -> Result<()> {
        if !weight_is_valid(weight) {
            return Err(invalid_weight_error(key, self.assignment, weight));
        }
        let rank = self.generator.dispersed_rank(key, weight, self.assignment)?;
        self.candidates.offer(key, rank, weight);
        self.processed += 1;
        Ok(())
    }

    /// Processes a structure-of-arrays batch: a key column with its weight
    /// lane. Bit-identical to pushing each `(keys[i], weights[i])` pair
    /// through [`BottomKStreamSampler::push`], but the per-record loop is
    /// replaced by chunked column kernels: one pass deriving the
    /// weight-independent rank numerators (`rank = rank_base(u) / w` for
    /// both families), then a pre-filter scan that holds the candidate
    /// threshold in a register and only divides for survivors.
    ///
    /// # Errors
    /// Returns an error on an invalid (NaN/infinite/negative) weight or an
    /// independent-differences generator. Each chunk of
    /// `COLUMN_CHUNK` (1024) records is validated before any of it is offered,
    /// so on error the sampler still holds a correct sample of every record
    /// of the preceding chunks and nothing from the failing one; the stream
    /// should nevertheless be considered poisoned and re-run after repair.
    ///
    /// # Panics
    /// Panics if the column lengths differ.
    pub fn push_batch(&mut self, keys: &[Key], weights: &[f64]) -> Result<()> {
        assert_eq!(keys.len(), weights.len(), "key and weight columns must align");
        // The same error the scalar path reports, built in one place.
        self.generator.require_dispersable()?;
        let seeds = self.generator.seed_sequence();
        let mode = self.generator.mode();
        let mut bases = [0.0f64; COLUMN_CHUNK];
        let mut pair_bases = Vec::new();
        let mut start = 0;
        while start < keys.len() {
            let len = COLUMN_CHUNK.min(keys.len() - start);
            let chunk_keys = &keys[start..start + len];
            let chunk_weights = &weights[start..start + len];
            validate_weight_lane(chunk_keys, chunk_weights, self.assignment)?;
            let bases = &mut bases[..len];
            match mode {
                CoordinationMode::SharedSeed => {
                    self.generator.shared_rank_bases_into(chunk_keys, bases);
                }
                CoordinationMode::Independent => {
                    seeds.pair_bases_into(chunk_keys, &mut pair_bases);
                    self.generator.assignment_rank_bases_into(&pair_bases, self.assignment, bases);
                }
                CoordinationMode::IndependentDifferences => unreachable!("rejected above"),
            }
            self.candidates.push_batch_prefiltered(chunk_keys, bases, chunk_weights, |_| {});
            self.processed += len as u64;
            start += len;
        }
        Ok(())
    }

    /// Whether `key` is currently among the candidates (the sample plus the
    /// key defining `r_{k+1}`). Exact, at `O(k)` per call: meant for
    /// diagnostics, not for a per-record loop.
    #[must_use]
    pub fn is_candidate(&self, key: Key) -> bool {
        self.candidates.contains(key)
    }

    /// Finalizes the pass into a bottom-k sketch.
    #[must_use]
    pub fn finalize(self) -> BottomKSketch {
        self.candidates.into_sketch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::coordination::CoordinationMode;
    use cws_core::ranks::RankFamily;
    use cws_core::weights::WeightedSet;
    use cws_hash::SeedSequence;

    fn weighted_set(n: u64) -> WeightedSet {
        WeightedSet::from_pairs((0..n).map(|k| (k, ((k % 23) + 1) as f64)))
    }

    #[test]
    fn stream_sampler_matches_offline_sketch() {
        let set = weighted_set(2000);
        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 42).unwrap();
        let mut sampler = BottomKStreamSampler::new(generator, 0, 50);
        for (key, weight) in set.iter() {
            sampler.push(key, weight).unwrap();
        }
        assert_eq!(sampler.processed(), 2000);
        let streamed = sampler.finalize();

        let offline = BottomKSketch::sample(&set, 50, RankFamily::Ipps, &SeedSequence::new(42));
        assert_eq!(streamed, offline);
    }

    #[test]
    fn order_of_arrival_does_not_matter() {
        let set = weighted_set(500);
        let generator =
            RankGenerator::new(RankFamily::Exp, CoordinationMode::SharedSeed, 7).unwrap();
        let mut forward = BottomKStreamSampler::new(generator, 0, 20);
        let mut backward = BottomKStreamSampler::new(generator, 0, 20);
        let pairs: Vec<_> = set.iter().collect();
        for &(key, weight) in &pairs {
            forward.push(key, weight).unwrap();
        }
        for &(key, weight) in pairs.iter().rev() {
            backward.push(key, weight).unwrap();
        }
        assert_eq!(forward.finalize(), backward.finalize());
    }

    #[test]
    fn batch_push_is_bit_identical_to_scalar_push() {
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
                let generator = RankGenerator::new(family, mode, 99).unwrap();
                let keys: Vec<Key> = (0..3000u64).collect();
                let weights: Vec<f64> = keys.iter().map(|&k| (k % 23) as f64).collect();
                let mut scalar = BottomKStreamSampler::new(generator, 1, 40);
                for (&key, &weight) in keys.iter().zip(&weights) {
                    scalar.push(key, weight).unwrap();
                }
                let mut batched = BottomKStreamSampler::new(generator, 1, 40);
                batched.push_batch(&keys, &weights).unwrap();
                assert_eq!(batched.processed(), 3000);
                let a = scalar.finalize();
                let b = batched.finalize();
                assert_eq!(a, b, "{family:?} {mode:?}");
                assert_eq!(a.next_rank().to_bits(), b.next_rank().to_bits());
            }
        }
    }

    #[test]
    fn batch_push_spans_chunk_boundaries() {
        use crate::bottomk::COLUMN_CHUNK;
        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 3).unwrap();
        let n = COLUMN_CHUNK as u64 * 2 + 17;
        let keys: Vec<Key> = (0..n).collect();
        let weights: Vec<f64> = keys.iter().map(|&k| ((k % 11) + 1) as f64).collect();
        let mut scalar = BottomKStreamSampler::new(generator, 0, 25);
        for (&key, &weight) in keys.iter().zip(&weights) {
            scalar.push(key, weight).unwrap();
        }
        let mut batched = BottomKStreamSampler::new(generator, 0, 25);
        batched.push_batch(&keys, &weights).unwrap();
        assert_eq!(scalar.finalize(), batched.finalize());
    }

    #[test]
    fn invalid_weights_are_rejected_with_errors() {
        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 2).unwrap();
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut sampler = BottomKStreamSampler::new(generator, 0, 5);
            let err = sampler.push(9, bad).unwrap_err();
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
            assert_eq!(sampler.processed(), 0);

            let mut sampler = BottomKStreamSampler::new(generator, 0, 5);
            let err = sampler.push_batch(&[1, 2, 9], &[1.0, 2.0, bad]).unwrap_err();
            assert!(err.to_string().contains("key 9"), "{err}");
            // The failing chunk was rejected before any offer.
            assert_eq!(sampler.processed(), 0);
        }
    }

    #[test]
    fn batch_push_rejects_independent_differences() {
        let generator =
            RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 1)
                .unwrap();
        let mut sampler = BottomKStreamSampler::new(generator, 0, 5);
        assert!(sampler.push_batch(&[1], &[2.0]).is_err());
    }

    #[test]
    fn zero_weight_keys_are_skipped() {
        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 1).unwrap();
        let mut sampler = BottomKStreamSampler::new(generator, 0, 5);
        sampler.push(1, 0.0).unwrap();
        sampler.push(2, 3.0).unwrap();
        let sketch = sampler.finalize();
        assert_eq!(sketch.len(), 1);
        assert!(!sketch.contains(1));
    }

    #[test]
    fn independent_differences_mode_is_rejected() {
        let generator =
            RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 1)
                .unwrap();
        let mut sampler = BottomKStreamSampler::new(generator, 0, 5);
        assert!(sampler.push(1, 2.0).is_err());
    }

    #[test]
    fn candidate_membership_is_exposed() {
        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 3).unwrap();
        let mut sampler = BottomKStreamSampler::new(generator, 0, 2);
        for key in 0..100u64 {
            sampler.push(key, ((key % 5) + 1) as f64).unwrap();
        }
        let candidates = (0..100u64).filter(|&k| sampler.is_candidate(k)).count();
        assert_eq!(candidates, 3); // k + 1
    }
}
