//! One engine, one query language: a unified [`Pipeline`] facade over every
//! sampler and estimator of the coordinated-sampling workspace.
//!
//! The paper's promise (Cohen, Kaplan, Sen; VLDB 2009) is a *single*
//! coordinated summary that answers a-posteriori aggregate queries over any
//! combination of weight assignments. The lower crates realize that promise
//! with several specialized front-ends — offline builders, the colocated
//! stream sampler, the hash-once dispersed sampler — and two estimator
//! types with diverging method sets. This crate folds all of them behind
//! three small surfaces:
//!
//! * [`Ingest`] — one ingestion trait (`push_record`, `push_batch`,
//!   `push_columns`, `finalize`) implemented by both stream samplers, with
//!   default methods bridging the row and column call shapes so each
//!   back-end accepts all of them bit-exactly.
//! * [`Pipeline`] / [`PipelineBuilder`] — one builder that picks the
//!   back-end from a declarative configuration (`k`, rank family,
//!   coordination, [`Layout`], [`Aggregation`]) and, for unaggregated
//!   element streams, inserts a hash-based pre-aggregation stage
//!   ([`aggregation::KeyAggregator`]) in front of the sampler. Each layout
//!   has one sampler, which runs on the caller's thread; to scale out,
//!   split the stream by key across pipelines and join their summaries
//!   with [`Pipeline::merge`], which is bit-exact.
//! * [`QuerySpec`] / [`QueryBatch`] — one query language evaluated
//!   uniformly against colocated and dispersed summaries (the unified
//!   [`Summary`]): specs are planned into shared adjusted-weight passes and
//!   answered as [`EstimateReport`]s, replacing the per-estimator method
//!   soup.
//!
//! # Quick example
//!
//! ```
//! use cws_engine::prelude::*;
//! use cws_core::{CoordinationMode, RankFamily};
//!
//! let mut pipeline = Pipeline::builder()
//!     .assignments(3)
//!     .k(64)
//!     .rank(RankFamily::Ipps)
//!     .coordination(CoordinationMode::SharedSeed)
//!     .layout(Layout::Colocated)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! for key in 0u64..1000 {
//!     let weights = [(key % 7) as f64, (key % 5) as f64, (key % 3) as f64];
//!     pipeline.push_record(key, &weights).unwrap();
//! }
//! let summary = pipeline.finalize().unwrap();
//! let estimate = summary.query(&QuerySpec::l1(0, 2).filter(|key| key % 2 == 1)).unwrap();
//! assert!(estimate.value >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregation;
pub mod continuous;
mod durable;
mod hand_off;
pub mod ingest;
pub mod pipeline;
pub mod plan;
pub mod store;
pub mod summary;
pub mod wal;

pub use aggregation::{Aggregation, KeyAggregator, QuarantineDrain};
pub use continuous::{DegradedState, Drift, EpochReport, EpochedPipeline};
pub use ingest::Ingest;
pub use pipeline::{Layout, Pipeline, PipelineBuilder};
pub use plan::{
    AggregateSpec, EstimateReport, QueryBatch, QueryPlan, QuerySpec, DEADLINE_CHECK_STRIDE,
};
pub use store::{QuarantinedSnapshot, RecoveryReport, ScrubReport, SnapshotStore};
pub use summary::Summary;
pub use wal::{
    recover_from_store_and_wal, DurableRecovery, Journal, ReplayReport, SyncPolicy, WalConfig,
};

/// Commonly used items.
pub mod prelude {
    pub use crate::aggregation::Aggregation;
    pub use crate::continuous::{DegradedState, Drift, EpochReport, EpochedPipeline};
    pub use crate::ingest::Ingest;
    pub use crate::pipeline::{Layout, Pipeline, PipelineBuilder};
    pub use crate::plan::{
        AggregateSpec, EstimateReport, QueryBatch, QueryPlan, QuerySpec, DEADLINE_CHECK_STRIDE,
    };
    pub use crate::store::{QuarantinedSnapshot, RecoveryReport, ScrubReport, SnapshotStore};
    pub use crate::summary::Summary;
    pub use crate::wal::{
        recover_from_store_and_wal, DurableRecovery, Journal, ReplayReport, SyncPolicy, WalConfig,
    };
}
