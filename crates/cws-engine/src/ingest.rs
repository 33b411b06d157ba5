//! The unified ingestion trait over every stream sampler.
//!
//! The three back-ends — [`ColocatedStreamSampler`], the hash-once
//! [`MultiAssignmentStreamSampler`] and [`ShardedDispersedSampler`] — each
//! have native record and structure-of-arrays paths. [`Ingest`] gives all of
//! them all four record-shaped surfaces: the trait's default methods bridge
//! row-major and columnar forms through the same per-record offers the
//! native paths make, so **every call shape on every back-end produces
//! bit-identical summaries** (asserted by `tests/pipeline_parity.rs` at the
//! workspace root).

use std::sync::Arc;

use cws_core::columns::RecordColumns;
use cws_core::{Key, Result};
use cws_stream::{ColocatedStreamSampler, MultiAssignmentStreamSampler, ShardedDispersedSampler};

use crate::summary::Summary;

/// Uniform single-pass ingestion of `(key, weight-vector)` records.
///
/// The stream must be aggregated: each key may appear at most once (feed
/// unaggregated element streams through a
/// [`Pipeline`](crate::Pipeline) with a [`SumByKey` /
/// `MaxByKey`](crate::Aggregation) stage instead). Implementations validate
/// weights at the push boundary — NaN, infinite and negative weights are
/// rejected with a typed error and the record is rejected whole.
pub trait Ingest {
    /// Number of weight assignments every record must carry.
    fn num_assignments(&self) -> usize;

    /// Ingestion progress: the number of records accepted so far.
    fn processed(&self) -> u64;

    /// Processes one record: a key with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if any weight is NaN, infinite or negative.
    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()>;

    /// Processes a batch of row-major records.
    ///
    /// # Errors
    /// As [`Ingest::push_record`]; records before the offending one were
    /// ingested.
    fn push_batch<'a, I>(&mut self, records: I) -> Result<()>
    where
        I: IntoIterator<Item = (Key, &'a [f64])>,
        Self: Sized,
    {
        for (key, weights) in records {
            self.push_record(key, weights)?;
        }
        Ok(())
    }

    /// Processes a structure-of-arrays batch.
    ///
    /// The default implementation re-materializes rows through a scratch
    /// buffer — bit-identical to [`Ingest::push_record`] per record;
    /// back-ends with a native columnar kernel override it.
    ///
    /// # Errors
    /// As [`Ingest::push_record`]; records before the offending one were
    /// ingested (native columnar kernels may reject a whole trailing chunk —
    /// see the back-end's own documentation).
    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        let mut row = Vec::with_capacity(columns.num_assignments());
        for (index, &key) in columns.keys().iter().enumerate() {
            columns.copy_row_into(index, &mut row);
            self.push_record(key, &row)?;
        }
        Ok(())
    }

    /// Processes a shared structure-of-arrays batch.
    ///
    /// The default forwards to [`Ingest::push_columns`]; the sharded
    /// back-end overrides it to hand the `Arc` itself across the thread
    /// boundary (the zero-copy path).
    ///
    /// # Errors
    /// As [`Ingest::push_columns`]. On a zero-copy hand-off, validation
    /// happens on the worker and an invalid weight surfaces from
    /// [`Ingest::finalize`] instead.
    fn push_columns_shared(&mut self, columns: &Arc<RecordColumns>) -> Result<()> {
        self.push_columns(columns)
    }

    /// Finalizes the pass into a [`Summary`].
    ///
    /// # Errors
    /// Returns an error if the back-end failed asynchronously (e.g. a
    /// sharded worker panicked or rejected a zero-copy batch).
    fn finalize(self) -> Result<Summary>
    where
        Self: Sized;
}

impl Ingest for ColocatedStreamSampler {
    fn num_assignments(&self) -> usize {
        ColocatedStreamSampler::num_assignments(self)
    }

    fn processed(&self) -> u64 {
        ColocatedStreamSampler::processed(self)
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        ColocatedStreamSampler::push_record(self, key, weights)
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        ColocatedStreamSampler::push_columns(self, columns)
    }

    fn finalize(self) -> Result<Summary> {
        Ok(Summary::Colocated(ColocatedStreamSampler::finalize(self)))
    }
}

impl Ingest for MultiAssignmentStreamSampler {
    fn num_assignments(&self) -> usize {
        MultiAssignmentStreamSampler::num_assignments(self)
    }

    fn processed(&self) -> u64 {
        MultiAssignmentStreamSampler::processed(self)
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        MultiAssignmentStreamSampler::push_record(self, key, weights)
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        MultiAssignmentStreamSampler::push_columns(self, columns)
    }

    fn finalize(self) -> Result<Summary> {
        Ok(Summary::Dispersed(MultiAssignmentStreamSampler::finalize(self)))
    }
}

impl Ingest for ShardedDispersedSampler {
    fn num_assignments(&self) -> usize {
        ShardedDispersedSampler::num_assignments(self)
    }

    fn processed(&self) -> u64 {
        ShardedDispersedSampler::processed(self)
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        ShardedDispersedSampler::push_record(self, key, weights)
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        ShardedDispersedSampler::push_columns(self, columns)
    }

    fn push_columns_shared(&mut self, columns: &Arc<RecordColumns>) -> Result<()> {
        ShardedDispersedSampler::push_columns_shared(self, columns)
    }

    fn finalize(self) -> Result<Summary> {
        ShardedDispersedSampler::finalize(self).map(Summary::Dispersed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::summary::{DispersedSummary, SummaryConfig};
    use cws_core::{CoordinationMode, MultiWeighted, RankFamily};

    fn fixture(assignments: usize) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(assignments);
        for key in 0..600u64 {
            for b in 0..assignments {
                builder.add(key, b, ((key * (b as u64 + 3)) % 21) as f64);
            }
        }
        builder.build()
    }

    /// Drives a back-end through every trait call shape and returns the four
    /// finalized summaries (which must all be equal).
    fn all_shapes<S, F>(make: F, data: &MultiWeighted) -> Vec<Summary>
    where
        S: Ingest,
        F: Fn() -> S,
    {
        let columns = data.to_columns();
        let mut summaries = Vec::new();

        let mut sampler = make();
        for (key, weights) in data.iter() {
            Ingest::push_record(&mut sampler, key, weights).unwrap();
        }
        assert_eq!(Ingest::processed(&sampler), data.num_keys() as u64);
        summaries.push(Ingest::finalize(sampler).unwrap());

        let mut sampler = make();
        Ingest::push_batch(&mut sampler, data.iter()).unwrap();
        summaries.push(Ingest::finalize(sampler).unwrap());

        let mut sampler = make();
        Ingest::push_columns(&mut sampler, &columns).unwrap();
        summaries.push(Ingest::finalize(sampler).unwrap());

        let mut sampler = make();
        let shared = Arc::new(columns);
        Ingest::push_columns_shared(&mut sampler, &shared).unwrap();
        summaries.push(Ingest::finalize(sampler).unwrap());

        summaries
    }

    #[test]
    fn every_back_end_accepts_every_call_shape_bit_exactly() {
        let data = fixture(3);
        let config = SummaryConfig::new(24, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);

        let colocated = all_shapes(|| ColocatedStreamSampler::new(config, 3), &data);
        assert!(colocated.iter().all(|s| s == &colocated[0]));
        assert!(colocated[0].as_colocated().is_some());

        let offline = Summary::Dispersed(DispersedSummary::build(&data, &config));
        let hash_once = all_shapes(|| MultiAssignmentStreamSampler::new(config, 3), &data);
        let sharded =
            all_shapes(|| ShardedDispersedSampler::with_batch_capacity(config, 3, 2, 64), &data);
        for summary in hash_once.iter().chain(&sharded) {
            assert_eq!(summary, &offline, "all dispersed back-ends and shapes agree");
        }
    }
}
