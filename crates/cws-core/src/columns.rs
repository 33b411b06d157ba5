//! Structure-of-arrays record batches for the ingestion hot path.
//!
//! The stream samplers of `cws-stream` consume `(key, weight-vector)`
//! records. Row-major handoff (one `&[f64]` per record) forces the
//! per-assignment candidate loops to stride across interleaved weights and
//! makes sharded handoff copy each record individually. [`RecordColumns`]
//! stores a batch the other way round — one contiguous key column plus one
//! contiguous weight *lane* per assignment — so that
//!
//! * the per-assignment threshold pre-filter scans a flat `&[f64]` lane
//!   (auto-vectorizable, one threshold register, no per-record indirection);
//! * sharded dispatch moves whole columns: a batch crosses a thread boundary
//!   as three `Vec` pointers per lane instead of a per-record copy;
//! * buffers are recyclable: [`RecordColumns::clear`] keeps every lane's
//!   allocation, enabling allocate-once buffer pools.
//!
//! The layout flows unchanged from the data generators (`cws-data`) through
//! `MultiAssignmentStreamSampler::push_columns` down to the
//! `ShardedDispersedSampler` handoff.

use crate::error::{CwsError, Result};
use crate::weights::{Key, MultiWeighted};

/// Whether a weight is accepted by the samplers: finite and non-negative.
/// `w >= 0.0` rejects NaN and negatives in one compare; `w < f64::INFINITY`
/// rejects `+∞`.
#[inline]
#[must_use]
pub fn weight_is_valid(weight: f64) -> bool {
    (0.0..f64::INFINITY).contains(&weight)
}

/// Index of the first invalid weight in `lane`, or `None` when the whole
/// lane is finite and non-negative.
///
/// The common (all-valid) case is a single branch-free reduction over the
/// lane; only a lane that actually contains an invalid weight pays the
/// second, position-finding scan.
#[inline]
#[must_use]
pub fn first_invalid_weight(lane: &[f64]) -> Option<usize> {
    let all_valid = lane.iter().fold(true, |ok, &w| ok & (0.0..f64::INFINITY).contains(&w));
    if all_valid {
        None
    } else {
        lane.iter().position(|&w| !weight_is_valid(w))
    }
}

/// The error every push boundary returns for a NaN, infinite or negative
/// weight.
#[must_use]
pub fn invalid_weight_error(key: Key, assignment: usize, weight: f64) -> CwsError {
    CwsError::InvalidParameter {
        name: "weight",
        message: format!(
            "key {key}, assignment {assignment}: weight {weight} must be finite and non-negative"
        ),
    }
}

/// Validates one weight lane against its key column — the validation kernel
/// the hash-once and sharded columnar push boundaries share, built on the
/// same [`weight_is_valid`] predicate as every other push boundary, so the
/// acceptance contract cannot drift between them.
///
/// # Errors
/// Returns [`invalid_weight_error`] for the first offending entry.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn validate_weight_lane(keys: &[Key], lane: &[f64], assignment: usize) -> Result<()> {
    assert_eq!(keys.len(), lane.len(), "key and weight columns must align");
    match first_invalid_weight(lane) {
        None => Ok(()),
        Some(offset) => Err(invalid_weight_error(keys[offset], assignment, lane[offset])),
    }
}

/// A structure-of-arrays batch of `(key, weight-vector)` records: one
/// contiguous key column and one contiguous weight lane per assignment.
///
/// Invariant: every lane has exactly `len()` entries; record `i` is
/// `(keys()[i], lane(0)[i], …, lane(A-1)[i])`.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordColumns {
    keys: Vec<Key>,
    lanes: Vec<Vec<f64>>,
}

impl RecordColumns {
    /// Creates an empty batch for `num_assignments` assignments.
    ///
    /// # Panics
    /// Panics if `num_assignments == 0`.
    #[must_use]
    pub fn new(num_assignments: usize) -> Self {
        Self::with_capacity(num_assignments, 0)
    }

    /// Creates an empty batch with room for `records` records per lane.
    ///
    /// # Panics
    /// Panics if `num_assignments == 0`.
    #[must_use]
    pub fn with_capacity(num_assignments: usize, records: usize) -> Self {
        assert!(num_assignments > 0, "at least one weight assignment is required");
        Self {
            keys: Vec::with_capacity(records),
            lanes: (0..num_assignments).map(|_| Vec::with_capacity(records)).collect(),
        }
    }

    /// Number of weight assignments (lanes).
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.lanes.len()
    }

    /// Number of records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the batch holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key column.
    #[must_use]
    pub fn keys(&self) -> &[Key] {
        &self.keys
    }

    /// The weight lane of `assignment`.
    ///
    /// # Panics
    /// Panics if `assignment >= num_assignments()`.
    #[must_use]
    pub fn lane(&self, assignment: usize) -> &[f64] {
        &self.lanes[assignment]
    }

    /// Appends one record given as a row.
    ///
    /// # Panics
    /// Panics if `row.len() != num_assignments()`.
    #[inline]
    pub fn push(&mut self, key: Key, row: &[f64]) {
        assert_eq!(row.len(), self.lanes.len(), "weight vector arity mismatch");
        self.keys.push(key);
        for (lane, &weight) in self.lanes.iter_mut().zip(row) {
            lane.push(weight);
        }
    }

    /// Appends record `index` of `source` (a cross-batch gather, used by
    /// shard routing).
    ///
    /// # Panics
    /// Panics if the assignment counts differ or `index` is out of range.
    #[inline]
    pub fn push_row_from(&mut self, source: &RecordColumns, index: usize) {
        assert_eq!(source.lanes.len(), self.lanes.len(), "assignment arity mismatch");
        self.keys.push(source.keys[index]);
        for (lane, src) in self.lanes.iter_mut().zip(&source.lanes) {
            lane.push(src[index]);
        }
    }

    /// Bulk-appends `len` records of `source` starting at `start` — a
    /// per-lane `memcpy`, the single-shard fast path of the sharded engine.
    ///
    /// # Panics
    /// Panics if the assignment counts differ or the range is out of bounds.
    pub fn extend_from(&mut self, source: &RecordColumns, start: usize, len: usize) {
        assert_eq!(source.lanes.len(), self.lanes.len(), "assignment arity mismatch");
        self.keys.extend_from_slice(&source.keys[start..start + len]);
        for (lane, src) in self.lanes.iter_mut().zip(&source.lanes) {
            lane.extend_from_slice(&src[start..start + len]);
        }
    }

    /// Clears all records while keeping every lane's allocation — the
    /// recycling primitive of the sharded buffer pool.
    pub fn clear(&mut self) {
        self.keys.clear();
        for lane in &mut self.lanes {
            lane.clear();
        }
    }

    /// Copies record `index` into `row` (resized to the assignment count).
    ///
    /// # Panics
    /// Panics if `index` is out of range.
    pub fn copy_row_into(&self, index: usize, row: &mut Vec<f64>) {
        row.clear();
        row.extend(self.lanes.iter().map(|lane| lane[index]));
    }

    /// Checks every lane for NaN, infinite or negative weights.
    ///
    /// # Errors
    /// Returns [`CwsError::InvalidParameter`] naming the first offending
    /// `(key, assignment, weight)`.
    pub fn validate(&self) -> Result<()> {
        self.validate_span(0, self.len())
    }

    /// As [`RecordColumns::validate`], restricted to `len` records starting
    /// at `start` — what the chunked ingestion kernels call right before
    /// scanning the same span, while it is hot in cache.
    ///
    /// # Errors
    /// As [`RecordColumns::validate`].
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn validate_span(&self, start: usize, len: usize) -> Result<()> {
        let keys = &self.keys[start..start + len];
        for (assignment, lane) in self.lanes.iter().enumerate() {
            validate_weight_lane(keys, &lane[start..start + len], assignment)?;
        }
        Ok(())
    }

    /// Splits the batch into owned chunks of at most `chunk_len` records
    /// (the last chunk may be shorter) — how benchmark and pipeline code
    /// turns one large column set into hand-off-sized batches.
    ///
    /// # Panics
    /// Panics if `chunk_len == 0`.
    #[must_use]
    pub fn split(&self, chunk_len: usize) -> Vec<RecordColumns> {
        assert!(chunk_len > 0, "chunk length must be positive");
        let mut chunks = Vec::with_capacity(self.len().div_ceil(chunk_len));
        let mut start = 0;
        while start < self.len() {
            let len = chunk_len.min(self.len() - start);
            let mut chunk = RecordColumns::with_capacity(self.num_assignments(), len);
            chunk.extend_from(self, start, len);
            chunks.push(chunk);
            start += len;
        }
        chunks
    }

    /// Assembles a batch directly from an already-columnar key column and
    /// weight lanes — the zero-copy exit of producers that accumulate in
    /// structure-of-arrays form themselves (e.g. the streaming
    /// pre-aggregation stage of `cws-engine`).
    ///
    /// # Panics
    /// Panics if `lanes` is empty or any lane's length differs from the key
    /// column's.
    #[must_use]
    pub fn from_parts(keys: Vec<Key>, lanes: Vec<Vec<f64>>) -> Self {
        assert!(!lanes.is_empty(), "at least one weight assignment is required");
        for lane in &lanes {
            assert_eq!(lane.len(), keys.len(), "key and weight columns must align");
        }
        Self { keys, lanes }
    }

    /// Converts a row-major [`MultiWeighted`] data set into columns
    /// (insertion order preserved).
    #[must_use]
    pub fn from_multi(data: &MultiWeighted) -> Self {
        let mut columns = Self::with_capacity(data.num_assignments(), data.num_keys());
        for (key, row) in data.iter() {
            columns.push(key, row);
        }
        columns
    }
}

impl MultiWeighted {
    /// The data set as a structure-of-arrays batch; see [`RecordColumns`].
    #[must_use]
    pub fn to_columns(&self) -> RecordColumns {
        RecordColumns::from_multi(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecordColumns {
        let mut columns = RecordColumns::new(2);
        columns.push(10, &[1.0, 2.0]);
        columns.push(11, &[3.0, 0.0]);
        columns.push(12, &[5.0, 6.0]);
        columns
    }

    #[test]
    fn push_and_lanes_round_trip() {
        let columns = sample();
        assert_eq!(columns.len(), 3);
        assert!(!columns.is_empty());
        assert_eq!(columns.num_assignments(), 2);
        assert_eq!(columns.keys(), &[10, 11, 12]);
        assert_eq!(columns.lane(0), &[1.0, 3.0, 5.0]);
        assert_eq!(columns.lane(1), &[2.0, 0.0, 6.0]);
        let mut row = Vec::new();
        columns.copy_row_into(1, &mut row);
        assert_eq!(row, vec![3.0, 0.0]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut columns = RecordColumns::with_capacity(3, 64);
        columns.push(1, &[1.0, 2.0, 3.0]);
        columns.clear();
        assert!(columns.is_empty());
        assert!(columns.keys.capacity() >= 64);
        assert!(columns.lanes.iter().all(|lane| lane.capacity() >= 64));
    }

    #[test]
    fn extend_and_gather_match_push() {
        let source = sample();
        let mut bulk = RecordColumns::new(2);
        bulk.extend_from(&source, 1, 2);
        let mut gathered = RecordColumns::new(2);
        gathered.push_row_from(&source, 1);
        gathered.push_row_from(&source, 2);
        assert_eq!(bulk, gathered);
        assert_eq!(bulk.keys(), &[11, 12]);
    }

    #[test]
    fn split_partitions_without_loss() {
        let source = sample();
        let chunks = source.split(2);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 2);
        assert_eq!(chunks[1].len(), 1);
        let mut rebuilt = RecordColumns::new(2);
        for chunk in &chunks {
            rebuilt.extend_from(chunk, 0, chunk.len());
        }
        assert_eq!(rebuilt, source);
    }

    #[test]
    fn from_parts_round_trips() {
        let built = RecordColumns::from_parts(
            vec![10, 11, 12],
            vec![vec![1.0, 3.0, 5.0], vec![2.0, 0.0, 6.0]],
        );
        assert_eq!(built, sample());
    }

    #[test]
    #[should_panic(expected = "columns must align")]
    fn from_parts_rejects_ragged_lanes() {
        let _ = RecordColumns::from_parts(vec![1, 2], vec![vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn from_multi_preserves_order_and_values() {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..50u64 {
            builder.add(key, 0, (key % 7) as f64);
            builder.add(key, 1, (key % 3) as f64);
        }
        let data = builder.build();
        let columns = data.to_columns();
        assert_eq!(columns.len(), data.num_keys());
        for (index, (key, row)) in data.iter().enumerate() {
            assert_eq!(columns.keys()[index], key);
            assert_eq!(columns.lane(0)[index], row[0]);
            assert_eq!(columns.lane(1)[index], row[1]);
        }
    }

    #[test]
    fn validation_rejects_nan_inf_and_negative() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut columns = RecordColumns::new(2);
            columns.push(7, &[1.0, 2.0]);
            columns.push(8, &[bad, 2.0]);
            let err = columns.validate().unwrap_err();
            let text = err.to_string();
            assert!(text.contains("key 8"), "{text}");
            assert!(text.contains("assignment 0"), "{text}");
        }
        assert!(sample().validate().is_ok(), "zero weights are valid");
    }

    #[test]
    fn invalid_weight_scan_finds_first_offender() {
        assert_eq!(first_invalid_weight(&[0.0, 1.0, 2.0]), None);
        assert_eq!(first_invalid_weight(&[0.0, f64::NAN, -1.0]), Some(1));
        assert_eq!(first_invalid_weight(&[-0.5]), Some(0));
        assert_eq!(first_invalid_weight(&[f64::INFINITY]), Some(0));
        assert!(weight_is_valid(0.0));
        assert!(weight_is_valid(1e300));
        assert!(!weight_is_valid(f64::NEG_INFINITY));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let mut columns = RecordColumns::new(3);
        columns.push(1, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one weight assignment")]
    fn zero_assignments_rejected() {
        let _ = RecordColumns::new(0);
    }
}
