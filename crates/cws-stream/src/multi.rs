//! Dispersed multi-assignment stream sampling.
//!
//! The dispersed model samples every weight assignment on its own; the
//! samples stay coordinated only through the shared hash seed (Section 4,
//! "Computing coordinated sketches"). [`MultiAssignmentStreamSampler`] keeps
//! one flat candidate set per assignment and takes two call shapes:
//!
//! * **Observations** —
//!   [`push_observation`](MultiAssignmentStreamSampler::push_observation)
//!   takes one `(key, assignment, weight)` observation at a time, in any
//!   interleaving of the assignments: the shape of truly dispersed sites,
//!   each of which sees only its own assignment's weights.
//! * **Records** — when the weight *vector* of a key is available at one
//!   place (the common shape of log pipelines that already aggregate per
//!   key), [`push_record`](MultiAssignmentStreamSampler::push_record) and
//!   [`push_columns`](MultiAssignmentStreamSampler::push_columns) hash the
//!   key once and fan the rank computation out across all assignments from
//!   the pre-hashed state. Shared-seed coordination means every assignment
//!   consumes the **same** `u(i)` ("What You Can Do with Coordinated
//!   Samples", Cohen–Kaplan 2012), so re-hashing per assignment would be
//!   pure waste.
//!
//! Each assignment's candidate set sees the same `(key, rank, weight)`
//! offers under both shapes, so the finalized [`DispersedSummary`] is
//! **bit-identical** either way, and to the offline builder's over the same
//! data.

use cws_core::columns::{
    check_arity, first_invalid_weight, invalid_weight_error, weight_is_valid, RecordColumns,
};
use cws_core::summary::{DispersedSummary, SummaryConfig};
use cws_core::{CoordinationMode, CwsError, Key, RankGenerator, Result};

use crate::candidate::CandidateSet;
use crate::kernel::{push_column_chunks, ChunkSink};

/// The dispersed sampler's [`ChunkSink`]: a chunk is validated whole before
/// any of it is offered (unless the producer already validated the batch),
/// and admissions need no bookkeeping.
struct WholeChunks {
    validate: bool,
}

impl ChunkSink for WholeChunks {
    #[inline]
    fn check(
        &mut self,
        columns: &RecordColumns,
        start: usize,
        len: usize,
    ) -> std::result::Result<(), (usize, CwsError)> {
        if self.validate {
            columns.validate_span(start, len).map_err(|error| (0, error))
        } else {
            Ok(())
        }
    }
}

/// A one-pass sampler for streams of `(key, weight-vector)` records or of
/// per-assignment `(key, assignment, weight)` observations, producing one
/// coordinated bottom-k sketch per assignment in `O(k)` state each.
///
/// The stream must be aggregated: each key may be pushed at most once per
/// assignment. (A repeated key is detected by the candidate structure and
/// does not corrupt the sample — the smaller rank wins — but its weights are
/// *not* summed.)
#[derive(Debug, Clone)]
pub struct MultiAssignmentStreamSampler {
    config: SummaryConfig,
    generator: RankGenerator,
    num_assignments: usize,
    candidates: Vec<CandidateSet>,
    /// Reusable rank buffer: the per-record fan-out allocates nothing.
    ranks: Vec<f64>,
    processed: u64,
}

impl MultiAssignmentStreamSampler {
    /// Creates a sampler for `num_assignments` assignments.
    ///
    /// # Panics
    /// Panics if `num_assignments == 0` or the configuration uses
    /// independent-differences ranks (the summary this sampler produces is
    /// the dispersed format, which that construction cannot realize).
    #[must_use]
    pub fn new(config: SummaryConfig, num_assignments: usize) -> Self {
        assert!(num_assignments > 0, "at least one assignment is required");
        assert!(
            config.mode != CoordinationMode::IndependentDifferences,
            "independent-differences ranks are not suited for dispersed weights"
        );
        let candidates = (0..num_assignments).map(|_| CandidateSet::new(config.k)).collect();
        Self {
            config,
            generator: config.generator(),
            num_assignments,
            candidates,
            ranks: Vec::with_capacity(num_assignments),
            processed: 0,
        }
    }

    /// Number of assignments.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.num_assignments
    }

    /// Ingestion progress: the number of accepted records (through
    /// [`push_record`](Self::push_record), [`push_batch`](Self::push_batch)
    /// and [`push_columns`](Self::push_columns)) plus the number of accepted
    /// observations (through [`push_observation`](Self::push_observation)).
    /// Rejected records and observations do not count.
    #[must_use]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Processes one aggregated observation of a single assignment: `key`
    /// has weight `weight` under `assignment`. Observations of different
    /// assignments may interleave in any order — the shape of dispersed
    /// sites, each of which sees only its own assignment. The sample is
    /// bit-identical to pushing the same weights as whole records through
    /// [`push_record`](Self::push_record).
    ///
    /// # Errors
    /// Returns [`CwsError::AssignmentOutOfRange`] if `assignment` is not
    /// below the number of assignments, or an invalid-weight error if the
    /// weight is NaN, infinite or negative. A rejected observation does not
    /// advance [`processed`](Self::processed).
    pub fn push_observation(&mut self, key: Key, assignment: usize, weight: f64) -> Result<()> {
        let set = self.candidates.get_mut(assignment).ok_or(CwsError::AssignmentOutOfRange {
            index: assignment,
            available: self.num_assignments,
        })?;
        if !weight_is_valid(weight) {
            return Err(invalid_weight_error(key, assignment, weight));
        }
        let rank = self.generator.dispersed_rank(key, weight, assignment)?;
        set.offer(key, rank, weight);
        self.processed += 1;
        Ok(())
    }

    /// Processes one record: a key with its full weight vector. The key is
    /// hashed once; all assignments are fed from the derived rank state.
    ///
    /// In shared-seed mode the fan-out is division-free for rejected
    /// assignments: both rank families factor as `rank = rank_base(u) / w`,
    /// so a candidate set's (conservatively inflated) threshold can be
    /// tested with one multiply — `base > w * t` — and only survivors pay
    /// the division and the candidate offer. The survivors' ranks are computed
    /// with the exact same floating-point operations as
    /// [`RankGenerator::dispersed_rank`], keeping the sample bit-identical.
    ///
    /// # Errors
    /// Returns an error if the vector length differs from the number of
    /// assignments, or if any weight is NaN, infinite or negative; the
    /// record is rejected whole (no assignment sees any part of it).
    #[inline]
    pub fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        check_arity(self.num_assignments, weights.len())?;
        if let Some(assignment) = first_invalid_weight(weights) {
            return Err(invalid_weight_error(key, assignment, weights[assignment]));
        }
        if self.generator.mode() == CoordinationMode::SharedSeed {
            let base = self.generator.family().rank_base(self.generator.shared_seed(key));
            for (set, &weight) in self.candidates.iter_mut().zip(weights) {
                // Certain rejection without dividing; see
                // `CandidateSet::inflated_threshold` for why this is exact.
                // Since `base > 0`, zero weights also land on the reject
                // side (directly, or as a non-finite rank in `offer`),
                // matching `rank_from_seed`'s `+∞` convention.
                if base > weight * set.inflated_threshold() {
                    continue;
                }
                set.offer(key, base / weight, weight);
            }
        } else {
            self.generator.rank_vector_into(key, weights, &mut self.ranks);
            for (set, (&rank, &weight)) in
                self.candidates.iter_mut().zip(self.ranks.iter().zip(weights))
            {
                set.offer(key, rank, weight);
            }
        }
        self.processed += 1;
        Ok(())
    }

    /// Processes a batch of row-major records.
    ///
    /// This is the record-at-a-time convenience route; the
    /// structure-of-arrays fast path is
    /// [`MultiAssignmentStreamSampler::push_columns`].
    ///
    /// # Errors
    /// As [`MultiAssignmentStreamSampler::push_record`]; records before the
    /// offending one were ingested.
    pub fn push_batch<'a, I>(&mut self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, &'a [f64])>,
    {
        for (key, weights) in records {
            self.push_record(key, weights)?;
        }
        Ok(())
    }

    /// Processes a structure-of-arrays batch — the ingestion fast path.
    ///
    /// Bit-identical to feeding each record through
    /// [`MultiAssignmentStreamSampler::push_record`]: within one assignment
    /// the candidate set sees the exact same offers in the exact same order,
    /// and assignments never interact. The work is organized as column
    /// kernels over `COLUMN_CHUNK` (1024)-record chunks, the chunk loop
    /// [`ColocatedStreamSampler::push_columns`](crate::ColocatedStreamSampler::push_columns)
    /// shares:
    ///
    /// 1. validate the chunk's weight lanes (one branch-free reduction per
    ///    lane, while the lane is about to be hot anyway);
    /// 2. hash the chunk's keys once into a rank-numerator scratch lane
    ///    (shared-seed mode) or a pair-base lane fanned out per assignment
    ///    (independent mode);
    /// 3. per assignment, run the candidate set's pre-filter scan over the
    ///    contiguous weight lane with the threshold held in a register.
    ///
    /// # Errors
    /// Returns an error on a NaN, infinite or negative weight. Chunks are
    /// validated before any of their records are offered, so on error the
    /// sampler holds a correct sample of all preceding chunks and nothing
    /// of the failing one; treat the stream as poisoned and re-run it after
    /// repair. A batch whose assignment count differs from the sampler's
    /// is rejected whole.
    pub fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        check_arity(self.num_assignments, columns.num_assignments())?;
        self.push_columns_inner(columns, true)
    }

    /// [`MultiAssignmentStreamSampler::push_columns`] minus the weight
    /// validation — for the sharded engine, whose producer side already
    /// validated the batch before handing it across the thread boundary.
    pub(crate) fn push_columns_trusted(&mut self, columns: &RecordColumns) {
        self.push_columns_inner(columns, false).expect("pre-validated columns cannot fail");
    }

    fn push_columns_inner(&mut self, columns: &RecordColumns, validate: bool) -> Result<()> {
        push_column_chunks(
            &self.generator,
            &mut self.candidates,
            columns,
            &mut WholeChunks { validate },
            &mut self.processed,
        )
    }

    /// Finalizes the pass into a dispersed summary, bit-identical to the one
    /// the offline [`DispersedSummary::build`] produces.
    #[must_use]
    pub fn finalize(self) -> DispersedSummary {
        let sketches = self.candidates.into_iter().map(CandidateSet::into_sketch).collect();
        // One candidate set per assignment (at least one), each at `config.k`.
        DispersedSummary::from_sketches(self.config, sketches)
            .expect("one sketch per assignment, each at k")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::COLUMN_CHUNK;
    use cws_core::ranks::RankFamily;
    use cws_core::weights::MultiWeighted;

    fn fixture(assignments: usize, keys: u64) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(assignments);
        for key in 0..keys {
            for b in 0..assignments {
                builder.add(key, b, ((key * (b as u64 + 2)) % 19) as f64);
            }
        }
        builder.build()
    }

    /// Every observation of `data`, key by key.
    fn push_observations(sampler: &mut MultiAssignmentStreamSampler, data: &MultiWeighted) {
        for (key, weights) in data.iter() {
            for (b, &w) in weights.iter().enumerate() {
                sampler.push_observation(key, b, w).unwrap();
            }
        }
    }

    #[test]
    fn push_record_matches_per_observation_pushes_bit_for_bit() {
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            for family in [RankFamily::Ipps, RankFamily::Exp] {
                let data = fixture(4, 900);
                let config = SummaryConfig::new(32, family, mode, 2024);

                let mut by_record = MultiAssignmentStreamSampler::new(config, 4);
                by_record.push_batch(data.iter()).unwrap();
                let mut by_observation = MultiAssignmentStreamSampler::new(config, 4);
                push_observations(&mut by_observation, &data);
                assert_eq!(by_record.processed(), 900);
                assert_eq!(by_observation.processed(), 900 * 4);
                let a = by_record.finalize();
                let b = by_observation.finalize();
                assert_eq!(a, b, "{family:?} {mode:?}");
                for (sa, sb) in a.sketches().iter().zip(b.sketches()) {
                    assert_eq!(sa.next_rank().to_bits(), sb.next_rank().to_bits());
                }
            }
        }
    }

    #[test]
    fn records_and_observations_match_offline_builder() {
        for assignments in [1, 3] {
            let data = fixture(assignments, 900);
            for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
                let config = SummaryConfig::new(25, RankFamily::Ipps, mode, 7);
                let offline = DispersedSummary::build(&data, &config);
                let mut by_record = MultiAssignmentStreamSampler::new(config, assignments);
                by_record.push_batch(data.iter()).unwrap();
                assert_eq!(by_record.finalize(), offline, "{assignments} {mode:?}");
                let mut by_observation = MultiAssignmentStreamSampler::new(config, assignments);
                push_observations(&mut by_observation, &data);
                assert_eq!(by_observation.finalize(), offline, "{assignments} {mode:?}");
            }
        }
    }

    #[test]
    fn push_columns_is_bit_identical_to_push_record() {
        // One lane over more than two column chunks, and four lanes.
        let chunks = 2 * COLUMN_CHUNK as u64 + 17;
        for (assignments, keys) in [(1, chunks), (4, 900)] {
            let data = fixture(assignments, keys);
            for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
                for family in [RankFamily::Ipps, RankFamily::Exp] {
                    let config = SummaryConfig::new(32, family, mode, 2024);
                    let mut scalar = MultiAssignmentStreamSampler::new(config, assignments);
                    scalar.push_batch(data.iter()).unwrap();
                    let mut columnar = MultiAssignmentStreamSampler::new(config, assignments);
                    columnar.push_columns(&data.to_columns()).unwrap();
                    assert_eq!(columnar.processed(), keys);
                    let context = format!("{assignments} {family:?} {mode:?}");
                    assert_eq!(scalar.finalize(), columnar.finalize(), "{context}");
                }
            }
        }
    }

    #[test]
    fn out_of_range_assignment_is_a_typed_error_not_a_panic() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let mut sampler = MultiAssignmentStreamSampler::new(config, 2);
        assert!(matches!(
            sampler.push_observation(1, 2, 1.0),
            Err(CwsError::AssignmentOutOfRange { index: 2, available: 2 })
        ));
        assert!(matches!(
            sampler.push_observation(1, usize::MAX, 1.0),
            Err(CwsError::AssignmentOutOfRange { index: usize::MAX, available: 2 })
        ));
        assert_eq!(sampler.num_assignments(), 2);
        // Rejected observations do not advance the progress counter, and the
        // sampler remains usable afterwards.
        assert_eq!(sampler.processed(), 0);
        sampler.push_observation(1, 1, 1.0).unwrap();
        assert_eq!(sampler.processed(), 1);
    }

    #[test]
    fn invalid_weights_are_rejected_with_errors() {
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 4);
        for bad in [f64::NAN, f64::INFINITY, -2.5] {
            let mut sampler = MultiAssignmentStreamSampler::new(config, 2);
            let err = sampler.push_record(3, &[1.0, bad]).unwrap_err();
            assert!(err.to_string().contains("assignment 1"), "{err}");
            assert_eq!(sampler.processed(), 0, "rejected record must not count");
            // Assignment 0 must not have seen the rejected record's weight.
            assert_eq!(sampler.clone().finalize().num_distinct_keys(), 0);

            let err = sampler.push_observation(9, 1, bad).unwrap_err();
            assert!(err.to_string().contains("finite and non-negative"), "{err}");
            assert!(err.to_string().contains("assignment 1"), "{err}");
            assert_eq!(sampler.processed(), 0, "rejected observation must not count");
            assert_eq!(sampler.finalize().num_distinct_keys(), 0);

            let mut columns = RecordColumns::new(2);
            columns.push(1, &[1.0, 1.0]);
            columns.push(3, &[bad, 2.0]);
            let mut sampler = MultiAssignmentStreamSampler::new(config, 2);
            let err = sampler.push_columns(&columns).unwrap_err();
            assert!(err.to_string().contains("key 3"), "{err}");
            assert_eq!(sampler.processed(), 0, "failing chunk is rejected whole");
        }
    }

    #[test]
    fn zero_weight_observations_are_skipped() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let mut sampler = MultiAssignmentStreamSampler::new(config, 1);
        sampler.push_observation(1, 0, 0.0).unwrap();
        sampler.push_observation(2, 0, 3.0).unwrap();
        assert_eq!(sampler.processed(), 2);
        let summary = sampler.finalize();
        let sketch = summary.sketch(0);
        assert_eq!(sketch.len(), 1);
        assert!(!sketch.contains(1));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let mut sampler = MultiAssignmentStreamSampler::new(config, 3);
        let err = sampler.push_record(1, &[1.0]).unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "weights", .. }), "{err:?}");
        assert_eq!(sampler.processed(), 0);
    }

    #[test]
    #[should_panic(expected = "not suited for dispersed")]
    fn independent_differences_rejected() {
        let config =
            SummaryConfig::new(5, RankFamily::Exp, CoordinationMode::IndependentDifferences, 1);
        let _ = MultiAssignmentStreamSampler::new(config, 2);
    }
}
