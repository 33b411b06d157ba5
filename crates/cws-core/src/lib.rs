//! Coordinated weighted sampling for estimating aggregates over multiple
//! weight assignments.
//!
//! This crate implements the primary contribution of Cohen, Kaplan and Sen,
//! *"Coordinated Weighted Sampling for Estimating Aggregates Over Multiple
//! Weight Assignments"* (VLDB 2009): sample-based summaries of data sets in
//! which each key carries a **vector** of weights (one entry per *weight
//! assignment*), together with unbiased estimators for single-assignment and
//! multiple-assignment aggregates (weighted sums, `max`, `min`, the `L1`
//! difference, ℓ-th largest weights and weighted Jaccard similarity), over
//! subpopulations selected *after* the summary was built.
//!
//! # Concepts
//!
//! * [`MultiWeighted`] — a set of keys, each with a weight vector over the
//!   assignments `W` (the data being summarized).
//! * [`RankFamily`] — the monotone family of rank distributions (EXP or IPPS)
//!   that turns a uniform seed into a rank value.
//! * [`CoordinationMode`] — how rank vectors relate across assignments:
//!   independent, shared-seed consistent, or independent-differences
//!   consistent.
//! * [`sketch`] — Poisson-τ, bottom-k and k-mins sketches of a single
//!   weighted set.
//! * [`summary`] — multi-assignment summaries for the *dispersed* and the
//!   *colocated* models: one embedded bottom-k sketch per assignment.
//! * [`estimate`] — the template estimator and its concrete instantiations:
//!   plain per-sketch RC estimators, colocated *inclusive* estimators and
//!   dispersed *s-set* / *l-set* estimators, all returning
//!   [`AdjustedWeights`] (Horvitz–Thompson style adjusted-weight summaries).
//! * [`aggregates`] — exact evaluation of the aggregates, used as ground
//!   truth by tests and by the evaluation harness.
//! * [`codec`] — the versioned binary format of a summary, over any
//!   `Read` / `Write`. The crate does no filesystem I/O of its own: the
//!   snapshot store and the write-ahead journal live in `cws-engine`.
//!
//! # Quick example
//!
//! ```
//! use cws_core::prelude::*;
//!
//! // Three weight assignments over five keys (colocated model).
//! let mut builder = MultiWeighted::builder(3);
//! for key in 0u64..5 {
//!     for b in 0..3 {
//!         builder.add(key, b, (key + 1) as f64 * (b + 1) as f64);
//!     }
//! }
//! let data = builder.build();
//!
//! // Coordinated (shared-seed, IPPS) bottom-3 summary.
//! let config = SummaryConfig::new(3, RankFamily::Ipps, CoordinationMode::SharedSeed, 42);
//! let summary = ColocatedSummary::build(&data, &config);
//!
//! // Unbiased estimate of the L1 difference between assignments 0 and 2
//! // over the odd keys, selected after the summary was built.
//! let estimator = InclusiveEstimator::new(&summary);
//! let aw = estimator.l1(&[0, 2]).unwrap();
//! let estimate = aw.subset_total(|key| key % 2 == 1);
//! assert!(estimate >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregates;
pub mod budget;
pub mod codec;
pub mod columns;
pub mod coordination;
pub mod error;
pub mod estimate;
pub mod fault;
pub mod ranks;
pub mod sketch;
pub mod summary;
pub mod variance;
pub mod weights;

#[cfg(test)]
mod paper_examples;

pub use aggregates::{exact_aggregate, AggregateFn};
pub use budget::{Deadline, QuarantinedRecords, ResourceBudget};
pub use codec::DecodedSummary;
pub use columns::RecordColumns;
pub use coordination::{CoordinationMode, RankGenerator};
pub use error::{CodecErrorKind, CwsError, Result};
pub use estimate::adjusted::AdjustedWeights;
pub use estimate::colocated::{InclusiveEstimator, PlainEstimator};
pub use estimate::dispersed::{DispersedEstimator, SelectionKind};
pub use fault::{FaultPlan, WorkerFault};
pub use ranks::RankFamily;
pub use summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
pub use variance::{normal_ci, ConfidenceInterval, Z_95};
pub use weights::{Key, MultiWeighted, MultiWeightedBuilder, WeightedSet};

/// Commonly used items.
pub mod prelude {
    pub use crate::aggregates::{exact_aggregate, AggregateFn};
    pub use crate::budget::{Deadline, QuarantinedRecords, ResourceBudget};
    pub use crate::codec::DecodedSummary;
    pub use crate::columns::RecordColumns;
    pub use crate::coordination::{CoordinationMode, RankGenerator};
    pub use crate::error::{CodecErrorKind, CwsError, Result};
    pub use crate::estimate::adjusted::AdjustedWeights;
    pub use crate::estimate::colocated::{InclusiveEstimator, PlainEstimator};
    pub use crate::estimate::dispersed::{DispersedEstimator, SelectionKind};
    pub use crate::fault::{FaultPlan, WorkerFault};
    pub use crate::ranks::RankFamily;
    pub use crate::sketch::bottomk::BottomKSketch;
    pub use crate::sketch::kmins::KMinsSketch;
    pub use crate::sketch::poisson::PoissonSketch;
    pub use crate::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
    pub use crate::variance::{normal_ci, ConfidenceInterval, Z_95};
    pub use crate::weights::{Key, MultiWeighted, MultiWeightedBuilder, WeightedSet};
}
