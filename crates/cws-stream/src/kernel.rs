//! The hash-once column kernel shared by the multi-assignment samplers.
//!
//! [`MultiAssignmentStreamSampler`](crate::MultiAssignmentStreamSampler) and
//! [`ColocatedStreamSampler`](crate::ColocatedStreamSampler) both keep one
//! candidate set per assignment and both take structure-of-arrays batches.
//! With shared-seed or independent coordination every rank factors as
//! `rank_base(u) / w`, so both run the same chunk loop: hash the chunk's keys
//! once into a rank-numerator lane, then let each assignment's candidate set
//! scan its contiguous weight lane with the division-free threshold
//! pre-filter. What differs — how a bad weight is reported, and what happens
//! to the records an offer admitted — is the caller's [`ChunkSink`].

use cws_core::columns::RecordColumns;
use cws_core::{CoordinationMode, CwsError, RankGenerator, Result};

use crate::candidate::CandidateSet;

/// Records per chunk of [`push_column_chunks`]: the rank-base scratch lane
/// stays in L1 while the pre-filter re-reads it, and the stack frame stays
/// small.
pub(crate) const COLUMN_CHUNK: usize = 1024;

/// The caller's side of [`push_column_chunks`].
pub(crate) trait ChunkSink {
    /// Checks records `start..start + len` before any of them is offered.
    /// `Err((taken, error))` offers only the first `taken` of them, then
    /// ends the batch with `error`.
    fn check(
        &mut self,
        columns: &RecordColumns,
        start: usize,
        len: usize,
    ) -> std::result::Result<(), (usize, CwsError)>;

    /// An offer admitted or updated record `start + offset` of the current
    /// chunk. Called once per such offer, assignment by assignment, so a
    /// record may be reported more than once.
    #[inline]
    fn admitted(&mut self, _offset: usize) {}

    /// Every assignment has been offered records `start..start + len`.
    #[inline]
    fn offered(
        &mut self,
        _candidates: &[CandidateSet],
        _columns: &RecordColumns,
        _start: usize,
        _len: usize,
    ) {
    }
}

/// Offers every record of `columns` to `candidates` (one set per assignment,
/// fed from the lane of the same index) in `COLUMN_CHUNK`-record chunks, and
/// adds the number of records offered to `processed`.
///
/// Per chunk: `sink.check`, one hash per key into a rank-numerator lane
/// (shared-seed mode) or a pair-base lane finished per assignment
/// (independent mode), then per assignment the candidate set's pre-filter
/// scan, then `sink.offered`. Each candidate set sees exactly the offers,
/// in the order, that per-record pushes would give it, so the sets are
/// bit-identical to per-record ingestion.
///
/// # Errors
/// Returns the error of the first failing `sink.check`, after the records
/// it let through were offered.
///
/// # Panics
/// Panics if the generator uses independent-differences ranks, whose ranks
/// do not factor as `base / w`, or if `candidates` and the batch disagree
/// on the assignment count.
pub(crate) fn push_column_chunks<S: ChunkSink>(
    generator: &RankGenerator,
    candidates: &mut [CandidateSet],
    columns: &RecordColumns,
    sink: &mut S,
    processed: &mut u64,
) -> Result<()> {
    // Every public push boundary checks arity first (`check_arity`).
    assert_eq!(columns.num_assignments(), candidates.len(), "weight vector arity mismatch");
    let shared = match generator.mode() {
        CoordinationMode::SharedSeed => true,
        CoordinationMode::Independent => false,
        CoordinationMode::IndependentDifferences => {
            panic!("independent-differences ranks do not factor as base / weight")
        }
    };
    let keys = columns.keys();
    let seeds = generator.seed_sequence();
    let mut bases = [0.0f64; COLUMN_CHUNK];
    let mut pair_bases = Vec::new();
    let mut start = 0;
    while start < keys.len() {
        let len = COLUMN_CHUNK.min(keys.len() - start);
        let (len, error) = match sink.check(columns, start, len) {
            Ok(()) => (len, None),
            Err((taken, error)) => (taken, Some(error)),
        };
        let chunk_keys = &keys[start..start + len];
        let bases = &mut bases[..len];
        if shared {
            // One hash per key, one numerator lane for every assignment.
            generator.shared_rank_bases_into(chunk_keys, bases);
        } else {
            // Hash once into pair bases; each assignment finishes its own
            // numerator lane from the pre-mixed state.
            seeds.pair_bases_into(chunk_keys, &mut pair_bases);
        }
        for (assignment, set) in candidates.iter_mut().enumerate() {
            if !shared {
                generator.assignment_rank_bases_into(&pair_bases, assignment, bases);
            }
            let lane = &columns.lane(assignment)[start..start + len];
            set.push_batch_prefiltered(chunk_keys, bases, lane, |offset| sink.admitted(offset));
        }
        sink.offered(candidates, columns, start, len);
        *processed += len as u64;
        if let Some(error) = error {
            return Err(error);
        }
        start += len;
    }
    Ok(())
}
