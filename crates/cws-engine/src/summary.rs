//! The unified summary type every [`Ingest`](crate::Ingest) back-end
//! finalizes into.

use std::io::{Read, Write};

use cws_core::aggregates::AggregateFn;
use cws_core::codec::{self, DecodedSummary};
use cws_core::estimate::adjusted::AdjustedWeights;
use cws_core::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
use cws_core::{DispersedEstimator, InclusiveEstimator, Result, SelectionKind};

use crate::plan::{EstimateReport, QueryBatch, QuerySpec};

/// A finalized coordinated summary in either of the paper's two layouts.
///
/// The colocated layout (Section 6) stores the full weight vector of every
/// retained key and supports the inclusive estimators; the dispersed layout
/// (Section 7) stores one bottom-k sketch per assignment, each entry
/// carrying only its own assignment's weight. [`QuerySpec`]s evaluate
/// uniformly against both — layout selection is a
/// [`Pipeline`](crate::Pipeline) configuration detail, not a query-time
/// concern.
#[derive(Debug, Clone, PartialEq)]
pub enum Summary {
    /// A colocated summary: full weight vectors, inclusive estimators.
    Colocated(ColocatedSummary),
    /// A dispersed summary: per-assignment sketches, s-set/l-set estimators.
    Dispersed(DispersedSummary),
}

impl Summary {
    /// The configuration the summary was built with.
    #[must_use]
    pub fn config(&self) -> &SummaryConfig {
        match self {
            Summary::Colocated(summary) => summary.config(),
            Summary::Dispersed(summary) => summary.config(),
        }
    }

    /// Per-assignment sample size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config().k
    }

    /// Number of weight assignments summarized.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        match self {
            Summary::Colocated(summary) => summary.num_assignments(),
            Summary::Dispersed(summary) => summary.num_assignments(),
        }
    }

    /// Number of distinct keys stored across the embedded samples.
    #[must_use]
    pub fn num_distinct_keys(&self) -> usize {
        match self {
            Summary::Colocated(summary) => summary.num_distinct_keys(),
            Summary::Dispersed(summary) => summary.num_distinct_keys(),
        }
    }

    /// The colocated summary, when this is one.
    #[must_use]
    pub fn as_colocated(&self) -> Option<&ColocatedSummary> {
        match self {
            Summary::Colocated(summary) => Some(summary),
            Summary::Dispersed(_) => None,
        }
    }

    /// The dispersed summary, when this is one.
    #[must_use]
    pub fn as_dispersed(&self) -> Option<&DispersedSummary> {
        match self {
            Summary::Colocated(_) => None,
            Summary::Dispersed(summary) => Some(summary),
        }
    }

    /// Evaluates one [`QuerySpec`] against this summary, as a one-spec
    /// [`QueryBatch`].
    ///
    /// ```
    /// use cws_engine::prelude::*;
    /// use cws_core::SelectionKind;
    ///
    /// let mut pipeline = Pipeline::builder()
    ///     .assignments(3)
    ///     .k(128)
    ///     .layout(Layout::Dispersed)
    ///     .seed(7)
    ///     .build()
    ///     .unwrap();
    /// for key in 0u64..5000 {
    ///     let weights = [((key % 11) + 1) as f64, ((key % 7) + 1) as f64, (key % 3) as f64];
    ///     pipeline.push_record(key, &weights).unwrap();
    /// }
    /// let summary = pipeline.finalize().unwrap();
    ///
    /// // A-posteriori: the L1 change between assignments 0 and 2, restricted
    /// // to even keys, with the most inclusive (l-set) selection.
    /// let spec = QuerySpec::l1(0, 2).selection(SelectionKind::LSet).filter(|key| key % 2 == 0);
    /// let estimate = summary.query(&spec).unwrap();
    /// assert!(estimate.value > 0.0);
    /// assert!(estimate.observed_keys > 0);
    /// ```
    ///
    /// # Errors
    /// As [`QueryBatch::execute`].
    pub fn query(&self, spec: &QuerySpec) -> Result<EstimateReport> {
        let mut reports = QueryBatch::new().push(spec.clone()).execute(self)?;
        Ok(reports.remove(0))
    }

    /// The adjusted weights of `aggregate` — per-key values for callers
    /// that need more than a [`QuerySpec`]'s scalar (per-key drill-down,
    /// ratio estimates). `selection` picks the evidence on dispersed
    /// summaries; colocated summaries ignore it. Adjusted weights cover
    /// every sampled key, so any number of subpopulations can be read off
    /// one call.
    ///
    /// This is the one place an aggregate is mapped to its estimator;
    /// batched execution calls it for every kernel.
    ///
    /// # Errors
    /// Returns a typed error for out-of-range or repeated assignments, an
    /// empty relevant set, an invalid ℓ, or an aggregate the summary's
    /// coordination mode cannot support (e.g. `max` over independent
    /// dispersed sketches).
    pub fn adjusted_weights(
        &self,
        aggregate: &AggregateFn,
        selection: SelectionKind,
    ) -> Result<AdjustedWeights> {
        self.kernel_weights(aggregate, selection, &mut None)
    }

    /// [`Summary::adjusted_weights`], with `probabilities` caching the
    /// colocated inclusion-probability pass across calls on the same
    /// summary (it does not depend on the aggregate; reusing it is
    /// bit-identical to recomputing it).
    pub(crate) fn kernel_weights(
        &self,
        aggregate: &AggregateFn,
        selection: SelectionKind,
        probabilities: &mut Option<Vec<f64>>,
    ) -> Result<AdjustedWeights> {
        match self {
            Summary::Colocated(colocated) => {
                let estimator = InclusiveEstimator::new(colocated);
                let probabilities =
                    probabilities.get_or_insert_with(|| estimator.inclusion_probabilities());
                estimator.aggregate_with(aggregate, probabilities)
            }
            Summary::Dispersed(dispersed) => {
                let estimator = DispersedEstimator::new(dispersed);
                match aggregate {
                    AggregateFn::SingleAssignment(b) => estimator.single(*b),
                    AggregateFn::Max(r) => estimator.max(r),
                    AggregateFn::Min(r) => estimator.min(r, selection),
                    AggregateFn::L1(r) => estimator.l1(r, selection),
                    AggregateFn::LthLargest { assignments, ell } => {
                        estimator.lth_largest(assignments, *ell, selection)
                    }
                }
            }
        }
    }

    /// Plans and executes a [`QueryBatch`] against this summary: every spec
    /// group shares one summary pass, and results come back in input order
    /// with variance / 95% CI where the estimator supports them.
    ///
    /// # Errors
    /// As [`QueryBatch::execute`].
    pub fn query_batch(&self, batch: &QueryBatch) -> Result<Vec<EstimateReport>> {
        batch.execute(self)
    }

    /// Serializes the summary in the versioned binary format of
    /// [`cws_core::codec`] (bit-exact round trips; the layout is encoded in
    /// the header, so [`Summary::read_from`] restores the right variant).
    ///
    /// # Errors
    /// Returns a typed codec error if the writer fails.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<()> {
        match self {
            Summary::Colocated(summary) => summary.write_to(writer),
            Summary::Dispersed(summary) => summary.write_to(writer),
        }
    }

    /// The serialized bytes of this summary.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Summary::Colocated(summary) => summary.to_bytes(),
            Summary::Dispersed(summary) => summary.to_bytes(),
        }
    }

    /// Reads one summary — either layout — from `reader`, leaving the
    /// reader positioned after it so concatenated summaries can be read
    /// sequentially.
    ///
    /// # Errors
    /// As [`cws_core::codec::read_summary`]: every malformed input yields a
    /// typed [`CwsError::Codec`](cws_core::CwsError::Codec), never a panic
    /// or a silently wrong summary.
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Self> {
        Ok(match codec::read_summary(reader)? {
            DecodedSummary::Colocated(summary) => Summary::Colocated(summary),
            DecodedSummary::Dispersed(summary) => Summary::Dispersed(summary),
        })
    }

    /// Decodes exactly one summary from `bytes`, rejecting trailing
    /// garbage.
    ///
    /// # Errors
    /// As [`Summary::read_from`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        Ok(match codec::summary_from_bytes(bytes)? {
            DecodedSummary::Colocated(summary) => Summary::Colocated(summary),
            DecodedSummary::Dispersed(summary) => Summary::Dispersed(summary),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::{CoordinationMode, MultiWeighted, RankFamily};

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..200u64 {
            builder.add(key, 0, ((key % 13) + 1) as f64);
            builder.add(key, 1, ((key % 7) + 1) as f64);
        }
        builder.build()
    }

    #[test]
    fn accessors_delegate_to_both_layouts() {
        let data = fixture();
        let config = SummaryConfig::new(16, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let colocated = Summary::Colocated(ColocatedSummary::build(&data, &config));
        let dispersed = Summary::Dispersed(DispersedSummary::build(&data, &config));
        for summary in [&colocated, &dispersed] {
            assert_eq!(summary.k(), 16);
            assert_eq!(summary.config().family, RankFamily::Ipps);
            assert_eq!(summary.config().mode, CoordinationMode::SharedSeed);
            assert_eq!(summary.num_assignments(), 2);
            assert!(summary.num_distinct_keys() >= 16);
            assert_eq!(summary.config().seed, 1);
        }
        assert!(colocated.as_colocated().is_some() && colocated.as_dispersed().is_none());
        assert!(dispersed.as_dispersed().is_some() && dispersed.as_colocated().is_none());
    }
}
