//! The unified ingestion trait over the stream samplers.
//!
//! The two back-ends — [`ColocatedStreamSampler`] for the colocated layout
//! and the hash-once [`MultiAssignmentStreamSampler`] for the dispersed
//! one — each have native record and structure-of-arrays paths. [`Ingest`]
//! gives both all three record-shaped surfaces: the trait's default methods
//! bridge row-major and columnar forms through the same per-record offers
//! the native paths make, so **every call shape on every back-end produces
//! bit-identical summaries** (asserted by `tests/pipeline_parity.rs` at the
//! workspace root).

use cws_core::columns::RecordColumns;
use cws_core::{Key, Result};
use cws_stream::{ColocatedStreamSampler, MultiAssignmentStreamSampler};

use crate::summary::Summary;

/// Uniform single-pass ingestion of `(key, weight-vector)` records.
///
/// The stream must be aggregated: each key may appear at most once (feed
/// unaggregated element streams through a
/// [`Pipeline`](crate::Pipeline) with a [`SumByKey` /
/// `MaxByKey`](crate::Aggregation) stage instead). Implementations validate
/// weights at the push boundary — NaN, infinite and negative weights are
/// rejected with a typed error and the record is rejected whole.
///
/// Every push runs on the caller's thread. [`Pipeline`](crate::Pipeline)
/// and [`EpochedPipeline`](crate::EpochedPipeline) also reject a record or
/// batch whose weight count differs from
/// [`num_assignments`](Self::num_assignments) with a typed
/// [`InvalidParameter`](cws_core::CwsError::InvalidParameter), before any
/// of it is journaled or ingested; the bare samplers treat that as a
/// caller bug and panic (see their own documentation).
pub trait Ingest {
    /// Number of weight assignments every record must carry.
    fn num_assignments(&self) -> usize;

    /// Ingestion progress: the number of records accepted so far.
    fn processed(&self) -> u64;

    /// Processes one record: a key with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if any weight is NaN, infinite or negative, or (on
    /// the pipelines) if `weights` has the wrong length.
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

    /// Finalizes the pass into a [`Summary`].
    ///
    /// # Errors
    /// Neither sampler fails here. A pipeline returns the error of handing
    /// its aggregation stage's last batch to the sampler, which a validated
    /// aggregate does not produce.
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

    /// Drives a back-end through every trait call shape and returns the
    /// three finalized summaries (which must all be equal).
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
        for summary in &hash_once {
            assert_eq!(summary, &offline, "every dispersed call shape agrees");
        }
    }
}
