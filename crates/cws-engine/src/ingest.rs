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
/// Every push runs on the caller's thread. Every implementation, the bare
/// samplers included, rejects a record or batch whose weight count differs
/// from [`num_assignments`](Self::num_assignments) with a typed
/// [`InvalidParameter`](cws_core::CwsError::InvalidParameter) before any of
/// it is journaled or ingested.
pub trait Ingest {
    /// Number of weight assignments every record must carry.
    fn num_assignments(&self) -> usize;

    /// Ingestion progress: the number of records accepted so far.
    fn processed(&self) -> u64;

    /// Processes one record: a key with its full weight vector.
    ///
    /// # Errors
    /// Returns an error if `weights` has the wrong length or any weight is
    /// NaN, infinite or negative.
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
    /// No implementation here fails: the samplers finalize infallibly, and
    /// a pipeline's aggregation stage holds only weights its sampler
    /// accepts, so sealing it cannot fail either.
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

    /// A record or column batch of the wrong width is a typed error on the
    /// bare public types too — both samplers (row and column surfaces, the
    /// colocated one in both of its column paths) and the aggregation
    /// table — and none of it is counted.
    #[test]
    fn bare_types_reject_wrong_arity_with_typed_errors() {
        use crate::aggregation::{Aggregation, KeyAggregator};
        use cws_core::CwsError;

        let (short, long) = (RecordColumns::new(1), RecordColumns::new(3));
        let mut wide = RecordColumns::new(3);
        wide.push(9, &[1.0, 2.0, 3.0]);
        let is_arity_error = |result: Result<()>| {
            matches!(result, Err(CwsError::InvalidParameter { name: "weights", .. }))
        };
        let mut samplers: Vec<(&str, Box<dyn Ingest>)> = Vec::new();
        for (family, mode) in [
            (RankFamily::Ipps, CoordinationMode::SharedSeed),
            (RankFamily::Exp, CoordinationMode::IndependentDifferences),
        ] {
            let config = SummaryConfig::new(4, family, mode, 5);
            samplers.push(("colocated", Box::new(ColocatedStreamSampler::new(config, 2))));
        }
        let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);
        samplers.push(("hash-once", Box::new(MultiAssignmentStreamSampler::new(config, 2))));
        for (name, mut sampler) in samplers {
            sampler.push_record(1, &[1.0, 2.0]).unwrap();
            assert!(is_arity_error(sampler.push_record(2, &[1.0])), "{name} short record");
            assert!(is_arity_error(sampler.push_record(2, &[1.0, 2.0, 3.0])), "{name} long record");
            for columns in [&short, &long, &wide] {
                assert!(is_arity_error(sampler.push_columns(columns)), "{name} columns");
            }
            assert_eq!(sampler.processed(), 1, "{name}: a refused push was counted");
        }

        let mut table = KeyAggregator::new(Aggregation::SumByKey, 2, 5);
        table.absorb_record(1, &[1.0, 2.0]).unwrap();
        assert!(is_arity_error(table.absorb_record(2, &[1.0])));
        assert!(is_arity_error(table.absorb_record(2, &[1.0, 2.0, 3.0])));
        for columns in [&short, &long, &wide] {
            assert!(is_arity_error(table.absorb_columns(columns)));
        }
        assert_eq!((table.absorbed(), table.num_keys()), (1, 1));
    }
}
