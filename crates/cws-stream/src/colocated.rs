//! Colocated multi-assignment stream sampling.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use cws_core::columns::{check_arity, first_invalid_weight, invalid_weight_error, RecordColumns};
use cws_core::coordination::{CoordinationMode, RankGenerator};
use cws_core::summary::{ColocatedRecord, ColocatedSummary, SummaryConfig};
use cws_core::{CwsError, Key, Result};

use crate::candidate::CandidateSet;
use crate::kernel::{push_column_chunks, ChunkSink, COLUMN_CHUNK};

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
    vectors: RetainedRows,
    /// Reusable rank buffer so the hot path performs no per-record
    /// allocation.
    ranks: Vec<f64>,
    /// Reusable row buffer for the columnar push path of
    /// independent-differences ranks.
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
        // Twice the most keys the candidate buffers can hold together,
        // `2(k + 1)` each, so a row compaction always frees at least half.
        let compaction_threshold = 4 * (config.k + 1) * num_assignments + 64;
        Self {
            config,
            generator: config.generator(),
            num_assignments,
            candidates,
            vectors: RetainedRows::new(num_assignments),
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
    #[cfg(test)]
    pub(crate) fn retained_vectors(&self) -> usize {
        self.vectors.len()
    }

    /// Processes one record: a key together with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if the vector length differs from the number of
    /// assignments, or if any weight is NaN, infinite or negative; the
    /// record is rejected whole.
    pub fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        check_arity(self.num_assignments, weights.len())?;
        if let Some(assignment) = first_invalid_weight(weights) {
            return Err(invalid_weight_error(key, assignment, weights[assignment]));
        }
        self.generator.rank_vector_into(key, weights, &mut self.ranks);
        let mut candidate_anywhere = false;
        for (b, (&rank, &weight)) in self.ranks.iter().zip(weights).enumerate() {
            candidate_anywhere |= self.candidates[b].offer(key, rank, weight).is_candidate();
        }
        if candidate_anywhere {
            self.vectors.insert(key, weights.iter().copied());
        }
        self.processed += 1;
        if self.vectors.len() > self.compaction_threshold {
            self.vectors.compact(&self.candidates);
        }
        Ok(())
    }

    /// Processes a batch of row-major records.
    ///
    /// # Errors
    /// As [`ColocatedStreamSampler::push_record`]; records before the
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
    /// [`ColocatedStreamSampler::push_record`]. With shared-seed or
    /// independent ranks, which factor as `rank_base(u) / w`, the batch runs
    /// the hash-once column kernel of
    /// [`MultiAssignmentStreamSampler::push_columns`](crate::MultiAssignmentStreamSampler::push_columns)
    /// over `COLUMN_CHUNK` (1024)-record chunks: each key is hashed once,
    /// each assignment's candidate set scans its contiguous weight lane with
    /// the division-free threshold pre-filter, and only a record that some
    /// offer admitted has its weight row copied into the retained vectors,
    /// in record order, so the last admitted occurrence of a key supplies
    /// its vector. Candidate sets see the same offers in the same order as
    /// under per-record pushes and never interact, so the summary is the
    /// same. Independent-differences ranks do not factor that way; their
    /// records go through [`ColocatedStreamSampler::push_record`] one row at
    /// a time.
    ///
    /// # Errors
    /// As [`ColocatedStreamSampler::push_record`]: the first record, in
    /// row-major order, with a NaN, infinite or negative weight is rejected
    /// with the error naming its key and its first bad assignment; every
    /// record before it was ingested, and no record after it. A batch whose
    /// assignment count differs from the sampler's is rejected whole.
    pub fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        check_arity(self.num_assignments, columns.num_assignments())?;
        if self.config.mode == CoordinationMode::IndependentDifferences {
            return self.push_rows(columns);
        }
        let mut sink = RetainVectors {
            vectors: &mut self.vectors,
            admitted: [false; COLUMN_CHUNK],
            compaction_threshold: self.compaction_threshold,
        };
        push_column_chunks(
            &self.generator,
            &mut self.candidates,
            columns,
            &mut sink,
            &mut self.processed,
        )
    }

    /// [`ColocatedStreamSampler::push_columns`] one row at a time through a
    /// reused row buffer.
    fn push_rows(&mut self, columns: &RecordColumns) -> Result<()> {
        let mut row = std::mem::take(&mut self.row);
        let mut result = Ok(());
        for (index, &key) in columns.keys().iter().enumerate() {
            columns.copy_row_into(index, &mut row);
            result = self.push_record(key, &row);
            if result.is_err() {
                break;
            }
        }
        self.row = row;
        result
    }

    /// Finalizes the pass into a colocated summary.
    #[must_use]
    pub fn finalize(self) -> ColocatedSummary {
        let sketches: Vec<_> = self.candidates.into_iter().map(CandidateSet::into_sketch).collect();
        let kth_ranks: Vec<f64> = sketches.iter().map(|s| s.kth_rank()).collect();
        let next_ranks: Vec<f64> = sketches.iter().map(|s| s.next_rank()).collect();

        // Every `(key, assignment)` sample membership, grouped by key with
        // one sort of at most `k · |W|` entries.
        let mut memberships: Vec<(Key, usize)> = sketches
            .iter()
            .enumerate()
            .flat_map(|(b, sketch)| sketch.entries().iter().map(move |entry| (entry.key, b)))
            .collect();
        memberships.sort_unstable();
        let records: Vec<ColocatedRecord> = memberships
            .chunk_by(|a, b| a.0 == b.0)
            .map(|group| {
                let key = group[0].0;
                let mut in_sketch = vec![false; self.num_assignments];
                for &(_, b) in group {
                    in_sketch[b] = true;
                }
                let weights = self
                    .vectors
                    .get(key)
                    .expect("every sampled key has a retained weight vector")
                    .to_vec();
                ColocatedRecord { key, weights, in_sketch }
            })
            .collect();

        // Invariant: `k` and the assignment count are validated at
        // construction, every record carries one weight and one flag per
        // assignment, and `records` holds one record per distinct sampled key.
        ColocatedSummary::from_parts(self.config, self.config.k, kth_ranks, next_ranks, records)
            .expect("the sampler's own parts form a valid summary")
    }

    /// Snapshots the current state into a summary **without** consuming the
    /// sampler: ingestion can continue afterwards. The snapshot is exactly
    /// what [`finalize`](Self::finalize) would return right now.
    #[must_use]
    pub fn snapshot(&self) -> ColocatedSummary {
        self.clone().finalize()
    }
}

/// The weight vectors of candidate keys, stored row after row in one flat
/// buffer, so retaining or replacing a vector never allocates.
#[derive(Debug, Clone)]
struct RetainedRows {
    width: usize,
    /// Row number of each retained key in `rows`.
    slots: HashMap<Key, usize>,
    rows: Vec<f64>,
    /// The buffer compaction packs the kept rows into, reused across
    /// compactions; empty between them, so a clone copies nothing of it.
    spare: Vec<f64>,
}

impl RetainedRows {
    fn new(width: usize) -> Self {
        Self { width, slots: HashMap::new(), rows: Vec::new(), spare: Vec::new() }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Sets the vector of `key` to the `width` weights of `row`.
    #[inline]
    fn insert(&mut self, key: Key, row: impl Iterator<Item = f64>) {
        match self.slots.entry(key) {
            Entry::Occupied(entry) => {
                let start = entry.get() * self.width;
                for (slot, weight) in self.rows[start..start + self.width].iter_mut().zip(row) {
                    *slot = weight;
                }
            }
            Entry::Vacant(entry) => {
                entry.insert(self.rows.len() / self.width);
                self.rows.extend(row);
            }
        }
    }

    fn get(&self, key: Key) -> Option<&[f64]> {
        let start = self.slots.get(&key)? * self.width;
        Some(&self.rows[start..start + self.width])
    }

    /// Drops the vectors of keys no candidate set buffers any more (one
    /// index probe per candidate set and vector) and packs the rest. A
    /// buffered key the next candidate compaction drops keeps its vector
    /// until a later row compaction.
    fn compact(&mut self, candidates: &[CandidateSet]) {
        let (width, rows) = (self.width, &self.rows);
        let kept = &mut self.spare;
        self.slots.retain(|&key, slot| {
            if !candidates.iter().any(|set| set.is_buffered(key)) {
                return false;
            }
            let start = *slot * width;
            *slot = kept.len() / width;
            kept.extend_from_slice(&rows[start..start + width]);
            true
        });
        std::mem::swap(&mut self.rows, &mut self.spare);
        self.spare.clear();
    }
}

/// The colocated sampler's [`ChunkSink`]: it reports a bad weight at its
/// row-major position, and retains the weight row of every record an offer
/// admitted.
struct RetainVectors<'a> {
    vectors: &'a mut RetainedRows,
    /// Records of the current chunk that some offer admitted or updated.
    admitted: [bool; COLUMN_CHUNK],
    compaction_threshold: usize,
}

impl ChunkSink for RetainVectors<'_> {
    /// Finds the first invalid record in row-major order: the smallest
    /// offset over all lanes, and at that offset the smallest assignment,
    /// which is what per-record [`ColocatedStreamSampler::push_record`]
    /// reports.
    fn check(
        &mut self,
        columns: &RecordColumns,
        start: usize,
        len: usize,
    ) -> std::result::Result<(), (usize, CwsError)> {
        let mut first: Option<(usize, usize)> = None;
        for assignment in 0..columns.num_assignments() {
            let end = first.map_or(len, |(offset, _)| offset);
            let lane = &columns.lane(assignment)[start..start + end];
            if let Some(offset) = first_invalid_weight(lane) {
                first = Some((offset, assignment));
            }
        }
        match first {
            None => Ok(()),
            Some((offset, assignment)) => {
                let (key, weight) =
                    (columns.keys()[start + offset], columns.lane(assignment)[start + offset]);
                Err((offset, invalid_weight_error(key, assignment, weight)))
            }
        }
    }

    #[inline]
    fn admitted(&mut self, offset: usize) {
        self.admitted[offset] = true;
    }

    /// Copies the admitted records' rows in record order, checking for
    /// compaction after each insert. Compacting against the candidate sets
    /// as they stand at the end of the chunk drops only vectors that no
    /// later offer of the chunk needs: a key that is a candidate at the end
    /// of the chunk keeps its vector, and any other key is re-inserted if it
    /// is admitted again.
    fn offered(
        &mut self,
        candidates: &[CandidateSet],
        columns: &RecordColumns,
        start: usize,
        len: usize,
    ) {
        for offset in 0..len {
            if !std::mem::take(&mut self.admitted[offset]) {
                continue;
            }
            let index = start + offset;
            let row = (0..columns.num_assignments()).map(|b| columns.lane(b)[index]);
            self.vectors.insert(columns.keys()[index], row);
            if self.vectors.len() > self.compaction_threshold {
                self.vectors.compact(candidates);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                sampler.push_record(key, weights).unwrap();
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
            sampler.push_record(*key, weights).unwrap();
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
    fn wrong_arity_is_rejected() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let mut sampler = ColocatedStreamSampler::new(config, 3);
        let err = sampler.push_record(1, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "weights", .. }), "{err:?}");
        assert_eq!(sampler.processed(), 0);
    }

    #[test]
    fn push_batch_and_push_columns_match_per_record_push() {
        let data = fixture();
        let config = SummaryConfig::new(20, RankFamily::Ipps, CoordinationMode::SharedSeed, 11);
        let mut scalar = ColocatedStreamSampler::new(config, 3);
        for (key, weights) in data.iter() {
            scalar.push_record(key, weights).unwrap();
        }
        let expected = scalar.finalize();
        let mut batched = ColocatedStreamSampler::new(config, 3);
        batched.push_batch(data.iter()).unwrap();
        assert_eq!(batched.processed(), 700);
        assert_eq!(batched.finalize(), expected);
        let mut columnar = ColocatedStreamSampler::new(config, 3);
        columnar.push_columns(&data.to_columns()).unwrap();
        assert_eq!(columnar.processed(), 700);
        assert_eq!(columnar.finalize(), expected);
    }

    #[test]
    fn invalid_weights_are_rejected_with_errors() {
        let config = SummaryConfig::new(5, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut sampler = ColocatedStreamSampler::new(config, 2);
            assert!(sampler.push_record(1, &[bad, 1.0]).is_err());
            assert_eq!(sampler.processed(), 0);
        }
    }

    const MODES: [(RankFamily, CoordinationMode); 4] = [
        (RankFamily::Ipps, CoordinationMode::SharedSeed),
        (RankFamily::Exp, CoordinationMode::SharedSeed),
        (RankFamily::Ipps, CoordinationMode::Independent),
        (RankFamily::Exp, CoordinationMode::IndependentDifferences),
    ];

    /// A seeded stream of `n` records over 4 assignments. Weights grow
    /// exponentially with the position, so ranks trend down and candidates
    /// churn enough to force compactions at every k. About one record in
    /// four re-offers one of the last 64 keys with its weights scaled up (a
    /// better rank) or down (a worse one), and about one fresh weight in
    /// eight is zero.
    fn churned_stream(n: usize, seed: u64) -> RecordColumns {
        use cws_hash::{RandomSource, Xoshiro256};
        let mut rng = Xoshiro256::seeded(seed);
        let mut columns = RecordColumns::new(4);
        let mut row = [0.0; 4];
        for index in 0..n {
            if index > 0 && rng.next_below(4) == 0 {
                let earlier = index - 1 - rng.next_below(index.min(64) as u64) as usize;
                let scale = if rng.next_below(2) == 0 { 4.0 } else { 0.25 };
                for (b, weight) in row.iter_mut().enumerate() {
                    *weight = columns.lane(b)[earlier] * scale;
                }
                columns.push(columns.keys()[earlier], &row);
                continue;
            }
            for weight in &mut row {
                *weight = if rng.next_below(8) == 0 {
                    0.0
                } else {
                    (index as f64 / 100.0).exp() * (0.5 + rng.next_unit())
                };
            }
            columns.push(rng.next_u64() >> 1, &row);
        }
        columns
    }

    /// Per-record pushes of records `0..end` of `columns`.
    fn pushed_per_record(
        config: SummaryConfig,
        columns: &RecordColumns,
        end: usize,
    ) -> ColocatedStreamSampler {
        let mut sampler = ColocatedStreamSampler::new(config, columns.num_assignments());
        let mut row = Vec::new();
        for index in 0..end {
            columns.copy_row_into(index, &mut row);
            sampler.push_record(columns.keys()[index], &row).unwrap();
        }
        sampler
    }

    #[test]
    fn push_columns_matches_per_record_push_across_batch_sizes_and_k() {
        let columns = churned_stream(9000, 0xC0C0);
        for (family, mode) in MODES {
            for k in [1usize, 7, 64] {
                let config = SummaryConfig::new(k, family, mode, 31);
                let expected = pushed_per_record(config, &columns, columns.len());
                let bound = expected.compaction_threshold + 1;
                let expected = expected.finalize();
                for batch in [1usize, 1023, 1024, 1025, 4097] {
                    let context = format!("{mode:?} {family:?} k={k} batch={batch}");
                    let mut columnar = ColocatedStreamSampler::new(config, 4);
                    let mut compactions = 0;
                    for (index, part) in columns.split(batch).iter().enumerate() {
                        let before = columnar.retained_vectors();
                        columnar.push_columns(part).unwrap();
                        assert!(columnar.retained_vectors() <= bound, "{context}");
                        compactions += usize::from(columnar.retained_vectors() < before);
                        if batch > 1 && index == 1 {
                            // Mid-stream state, not only the end result.
                            let prefix = pushed_per_record(config, &columns, 2 * batch);
                            assert_eq!(columnar.snapshot(), prefix.finalize(), "{context}");
                        }
                    }
                    if batch == 1 {
                        assert!(compactions > 1, "{context}: the stream must force compactions");
                    }
                    assert_eq!(columnar.processed(), 9000);
                    assert_eq!(columnar.finalize(), expected, "{context}");
                }
            }
        }
    }

    #[test]
    fn push_columns_reports_the_first_bad_record_in_row_major_order() {
        // In the second chunk, record 1024 + 300 has bad weights in
        // assignments 2 and 3, and record 1024 + 500 one in assignment 0: a
        // lane-by-lane scan meets record 500 first, row-major order record
        // 300, in its assignment 2.
        let clean = churned_stream(3000, 0xBAD);
        let (early, late) = (COLUMN_CHUNK + 300, COLUMN_CHUNK + 500);
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut lanes: Vec<Vec<f64>> = (0..4).map(|b| clean.lane(b).to_vec()).collect();
            lanes[2][early] = bad;
            lanes[3][early] = bad;
            lanes[0][late] = bad;
            let columns = RecordColumns::from_parts(clean.keys().to_vec(), lanes);
            for (family, mode) in MODES {
                let config = SummaryConfig::new(7, family, mode, 5);
                let context = format!("{bad} {mode:?} {family:?}");
                let mut scalar = pushed_per_record(config, &columns, early);
                let mut row = Vec::new();
                columns.copy_row_into(early, &mut row);
                let expected = scalar.push_record(columns.keys()[early], &row).unwrap_err();
                assert!(expected.to_string().contains("assignment 2"), "{context}: {expected}");

                let mut columnar = ColocatedStreamSampler::new(config, 4);
                let error = columnar.push_columns(&columns).unwrap_err();
                assert_eq!(error.to_string(), expected.to_string(), "{context}");
                assert_eq!(columnar.processed(), early as u64, "{context}");
                assert_eq!(columnar.finalize(), scalar.finalize(), "{context}");
            }
        }
    }
}
