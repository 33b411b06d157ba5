//! Colocated multi-assignment stream sampling.

use std::collections::HashMap;

use cws_core::columns::{first_invalid_weight, invalid_weight_error, RecordColumns};
use cws_core::coordination::RankGenerator;
use cws_core::summary::{ColocatedRecord, ColocatedSummary, SummaryConfig};
use cws_core::{Key, Result};

use crate::candidate::CandidateSet;

/// A single pass over `(key, weight-vector)` records that embeds one bottom-k
/// sample per assignment and retains the full weight vector of every
/// candidate key (Section 6's colocated summary, computed with bounded
/// memory).
///
/// State is `O(k · |W|)` candidate entries plus the weight vectors of the
/// candidate keys; vectors of keys that fall out of every candidate set are
/// garbage-collected periodically.
#[derive(Debug, Clone)]
pub struct ColocatedStreamSampler {
    config: SummaryConfig,
    generator: RankGenerator,
    num_assignments: usize,
    candidates: Vec<CandidateSet>,
    vectors: HashMap<Key, Vec<f64>>,
    /// Reusable rank buffer so the hot path performs no per-record
    /// allocation.
    ranks: Vec<f64>,
    /// Reusable row buffer for the columnar push path.
    row: Vec<f64>,
    processed: u64,
    compaction_threshold: usize,
}

impl ColocatedStreamSampler {
    /// Creates a sampler for `num_assignments` assignments.
    ///
    /// # Panics
    /// Panics if `num_assignments == 0`.
    #[must_use]
    pub fn new(config: SummaryConfig, num_assignments: usize) -> Self {
        assert!(num_assignments > 0, "at least one assignment is required");
        let candidates = (0..num_assignments).map(|_| CandidateSet::new(config.k)).collect();
        let compaction_threshold = 4 * (config.k + 1) * num_assignments + 64;
        Self {
            config,
            generator: config.generator(),
            num_assignments,
            candidates,
            vectors: HashMap::new(),
            ranks: Vec::with_capacity(num_assignments),
            row: Vec::with_capacity(num_assignments),
            processed: 0,
            compaction_threshold,
        }
    }

    /// Number of assignments.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.num_assignments
    }

    /// Number of records pushed so far.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of weight vectors currently retained (bounded by the
    /// compaction threshold plus one).
    #[must_use]
    pub fn retained_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Processes one record: a key together with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if any weight is NaN, infinite or negative; the
    /// record is rejected whole.
    ///
    /// # Panics
    /// Panics if the vector length differs from the number of assignments.
    pub fn push(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        assert_eq!(weights.len(), self.num_assignments, "weight vector arity mismatch");
        if let Some(assignment) = first_invalid_weight(weights) {
            return Err(invalid_weight_error(key, assignment, weights[assignment]));
        }
        self.generator.rank_vector_into(key, weights, &mut self.ranks);
        let mut candidate_anywhere = false;
        for (b, (&rank, &weight)) in self.ranks.iter().zip(weights).enumerate() {
            candidate_anywhere |= self.candidates[b].offer(key, rank, weight).is_candidate();
        }
        if candidate_anywhere {
            self.vectors.insert(key, weights.to_vec());
        }
        self.processed += 1;
        if self.vectors.len() > self.compaction_threshold {
            self.compact();
        }
        Ok(())
    }

    /// Alias of [`ColocatedStreamSampler::push`] under the name every
    /// multi-assignment sampler shares, so record-shaped ingestion code can
    /// treat the back-ends uniformly.
    ///
    /// # Errors
    /// As [`ColocatedStreamSampler::push`].
    ///
    /// # Panics
    /// As [`ColocatedStreamSampler::push`].
    #[inline]
    pub fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        self.push(key, weights)
    }

    /// Processes a batch of row-major records.
    ///
    /// # Errors
    /// As [`ColocatedStreamSampler::push`]; records before the offending one
    /// were ingested.
    ///
    /// # Panics
    /// As [`ColocatedStreamSampler::push`].
    pub fn push_batch<'a, I>(&mut self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, &'a [f64])>,
    {
        for (key, weights) in records {
            self.push(key, weights)?;
        }
        Ok(())
    }

    /// Processes a structure-of-arrays batch.
    ///
    /// The colocated summary must retain the full weight vector of every
    /// candidate key, so records are re-materialized as rows through a
    /// reused scratch buffer; the batch form exists so columnar producers
    /// (generators, the sharded pipeline's data layer) can feed this
    /// sampler without building their own row views.
    ///
    /// # Errors
    /// As [`ColocatedStreamSampler::push`]; records before the offending
    /// one were ingested.
    ///
    /// # Panics
    /// Panics if the batch's assignment count differs from the sampler's.
    pub fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        assert_eq!(columns.num_assignments(), self.num_assignments, "weight vector arity mismatch");
        let mut row = std::mem::take(&mut self.row);
        let mut result = Ok(());
        for (index, &key) in columns.keys().iter().enumerate() {
            columns.copy_row_into(index, &mut row);
            result = self.push(key, &row);
            if result.is_err() {
                break;
            }
        }
        self.row = row;
        result
    }

    /// Drops weight vectors of keys that are no longer candidates anywhere
    /// (one index probe per candidate set and vector).
    fn compact(&mut self) {
        let candidates = &self.candidates;
        self.vectors.retain(|&key, _| candidates.iter().any(|set| set.contains(key)));
    }

    /// Finalizes the pass into a colocated summary.
    #[must_use]
    pub fn finalize(mut self) -> ColocatedSummary {
        self.compact();
        let sketches: Vec<_> = self.candidates.into_iter().map(CandidateSet::into_sketch).collect();
        let kth_ranks: Vec<f64> = sketches.iter().map(|s| s.kth_rank()).collect();
        let next_ranks: Vec<f64> = sketches.iter().map(|s| s.next_rank()).collect();

        let mut membership: HashMap<Key, Vec<bool>> = HashMap::new();
        for (b, sketch) in sketches.iter().enumerate() {
            for entry in sketch.entries() {
                membership.entry(entry.key).or_insert_with(|| vec![false; self.num_assignments])
                    [b] = true;
            }
        }
        let records: Vec<ColocatedRecord> = membership
            .into_iter()
            .map(|(key, in_sketch)| ColocatedRecord {
                key,
                weights: self
                    .vectors
                    .remove(&key)
                    .expect("every sampled key has a retained weight vector"),
                in_sketch,
            })
            .collect();

        ColocatedSummary::from_parts(self.config, self.config.k, kth_ranks, next_ranks, records)
    }

    /// Snapshots the current state into a summary **without** consuming the
    /// sampler: ingestion can continue afterwards. The snapshot is exactly
    /// what [`finalize`](Self::finalize) would return right now.
    #[must_use]
    pub fn snapshot(&self) -> ColocatedSummary {
        self.clone().finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::coordination::CoordinationMode;
    use cws_core::ranks::RankFamily;
    use cws_core::weights::MultiWeighted;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..700u64 {
            builder.add(key, 0, ((key % 17) + 1) as f64);
            builder.add(key, 1, ((key % 5) * 3) as f64);
            builder.add(key, 2, ((key % 29) + 2) as f64);
        }
        builder.build()
    }

    #[test]
    fn stream_summary_matches_offline_summary() {
        let data = fixture();
        for (family, mode) in [
            (RankFamily::Ipps, CoordinationMode::SharedSeed),
            (RankFamily::Ipps, CoordinationMode::Independent),
            (RankFamily::Exp, CoordinationMode::IndependentDifferences),
        ] {
            let config = SummaryConfig::new(25, family, mode, 99);
            let mut sampler = ColocatedStreamSampler::new(config, 3);
            for (key, weights) in data.iter() {
                sampler.push(key, weights).unwrap();
            }
            assert_eq!(sampler.processed(), 700);
            let streamed = sampler.finalize();
            let offline = ColocatedSummary::build(&data, &config);
            assert_eq!(streamed.num_distinct_keys(), offline.num_distinct_keys(), "{mode:?}");
            assert_eq!(streamed.records(), offline.records(), "{mode:?}");
            for b in 0..3 {
                assert_eq!(streamed.kth_rank(b).to_bits(), offline.kth_rank(b).to_bits());
                assert_eq!(streamed.next_rank(b).to_bits(), offline.next_rank(b).to_bits());
            }
        }
    }

    #[test]
    fn memory_stays_bounded_under_adversarial_order() {
        // Keys arrive in decreasing-rank order, which maximizes candidate
        // churn; the retained-vector count must stay near the compaction
        // threshold rather than growing with the stream.
        let config = SummaryConfig::new(10, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);
        let mut sampler = ColocatedStreamSampler::new(config, 2);
        let generator = config.generator();
        let mut keyed: Vec<(Key, Vec<f64>)> = (0..5000u64)
            .map(|key| (key, vec![((key % 13) + 1) as f64, ((key % 7) + 1) as f64]))
            .collect();
        keyed.sort_by(|a, b| {
            let ra = generator.rank_vector(a.0, &a.1)[0];
            let rb = generator.rank_vector(b.0, &b.1)[0];
            rb.total_cmp(&ra)
        });
        for (key, weights) in &keyed {
            sampler.push(*key, weights).unwrap();
        }
        assert!(
            sampler.retained_vectors() <= 4 * 11 * 2 + 65,
            "retained {}",
            sampler.retained_vectors()
        );
        let summary = sampler.finalize();
        assert_eq!(summary.effective_k(), 10);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_is_rejected() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let mut sampler = ColocatedStreamSampler::new(config, 3);
        let _ = sampler.push(1, &[1.0, 2.0]);
    }

    #[test]
    fn push_record_and_push_batch_alias_push() {
        let data = fixture();
        let config = SummaryConfig::new(20, RankFamily::Ipps, CoordinationMode::SharedSeed, 11);
        let mut by_push = ColocatedStreamSampler::new(config, 3);
        for (key, weights) in data.iter() {
            by_push.push(key, weights).unwrap();
        }
        let mut by_alias = ColocatedStreamSampler::new(config, 3);
        by_alias.push_batch(data.iter()).unwrap();
        assert_eq!(by_alias.processed(), 700);
        assert_eq!(by_push.finalize(), by_alias.finalize());
    }

    #[test]
    fn push_columns_matches_per_record_push() {
        let data = fixture();
        let config = SummaryConfig::new(20, RankFamily::Ipps, CoordinationMode::SharedSeed, 11);
        let mut scalar = ColocatedStreamSampler::new(config, 3);
        for (key, weights) in data.iter() {
            scalar.push(key, weights).unwrap();
        }
        let mut columnar = ColocatedStreamSampler::new(config, 3);
        columnar.push_columns(&data.to_columns()).unwrap();
        assert_eq!(columnar.processed(), 700);
        assert_eq!(scalar.finalize(), columnar.finalize());
    }

    #[test]
    fn invalid_weights_are_rejected_with_errors() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut sampler = ColocatedStreamSampler::new(config, 2);
            assert!(sampler.push(1, &[bad, 1.0]).is_err());
            assert_eq!(sampler.processed(), 0);
        }
    }
}
