//! Evaluation harness for coordinated weighted sampling.
//!
//! This crate reproduces the measurement methodology of the paper's
//! Section 9:
//!
//! * [`measure`] — Monte-Carlo estimation of the sum of per-key variances
//!   `ΣV[a]` and its normalized form `nΣV` for any estimator over any data
//!   set, by averaging per-key squared errors over repeated, independently
//!   seeded sampling runs; plus sharing-index and combined-sample-size
//!   measurements for colocated summaries. Every run's summary is built by
//!   the engine's `Pipeline` and evaluated by `Summary::adjusted_weights`,
//!   the code `QueryBatch` runs; only Theorem 4.1 and the fixed-size and
//!   sketch-kind ablations build `cws-core` constructions the pipeline
//!   does not offer (k-mins, Poisson, a distinct-key budget).
//! * [`datasets`] — the laptop-scale synthetic stand-ins for the paper's
//!   data sets (IP dataset1/2, Netflix ratings, stock quotes), built with
//!   fixed seeds so every experiment is reproducible.
//! * [`experiments`] — one entry per table and figure of the paper's
//!   evaluation (plus ablations), each returning a structured
//!   [`report::ExperimentReport`] that the crate's `experiments` binary
//!   renders as text, CSV or JSON.
//! * [`report`] — the table/series data model and its renderers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod datasets;
pub mod experiments;
pub mod measure;
pub mod report;

pub use measure::{EstimatorSpec, VarianceMeasurement};
pub use report::{ExperimentReport, Table};

/// Commonly used items.
pub mod prelude {
    pub use crate::datasets::DatasetScale;
    pub use crate::experiments::{available_experiments, run_experiment};
    pub use crate::measure::{EstimatorSpec, VarianceMeasurement};
    pub use crate::report::{ExperimentReport, Table};
}
