//! Batched query planning: many aggregates, one pass per shared kernel.
//!
//! The paper's central promise is that *one* coordinated summary answers
//! *many* aggregates over many weight assignments. This module delivers the
//! serving side of that promise in three stages:
//!
//! This is the engine's only query path: a single query is a one-spec batch
//! ([`Summary::query`](crate::Summary::query)). It runs in three stages:
//!
//! 1. **IR** ([`ir`]) — a [`QueryBatch`] of declarative [`QuerySpec`]s:
//!    sum / count / avg over one assignment, max / min / L1 / ℓ-th largest
//!    over a relevant set, Jaccard over a pair; an optional a-posteriori key
//!    predicate; and the dispersed selection rule.
//! 2. **Planner** ([`planner`]) — groups specs by `(aggregate function,
//!    selection)` into a [`QueryPlan`]; each distinct kernel is one
//!    adjusted-weight pass, no matter how many specs (with however many
//!    different predicates) read from it.
//! 3. **Executor** ([`executor`]) — computes each kernel once through
//!    [`Summary::adjusted_weights`](crate::Summary::adjusted_weights)
//!    (colocated kernels additionally share one inclusion-probability
//!    pass), folds its entries once, and fans every entry out to all reading
//!    accumulators. Results return as [`EstimateReport`]s in input order,
//!    with variance and 95% CI where the estimator supports them.
//!
//! Batches honor the governance layer: [`QueryBatch::with_deadline`] arms a
//! wall-clock budget checked before every kernel and every 1024 folded
//! keys, and invalid specs fail with typed
//! [`CwsError`](cws_core::CwsError)s before any work is done.
//!
//! ```
//! use cws_engine::prelude::*;
//!
//! let mut pipeline = Pipeline::builder().assignments(3).k(64).seed(9).build().unwrap();
//! for key in 0u64..2000 {
//!     let weights = [((key % 11) + 1) as f64, ((key % 7) + 1) as f64, (key % 3) as f64];
//!     pipeline.push_record(key, &weights).unwrap();
//! }
//! let summary = pipeline.finalize().unwrap();
//!
//! let batch = QueryBatch::new()
//!     .push(QuerySpec::sum(0))
//!     .push(QuerySpec::sum(0).filter(|key| key % 2 == 0))
//!     .push(QuerySpec::avg(1))
//!     .push(QuerySpec::jaccard(0, 1));
//! // Four specs, two shared passes (SingleAssignment(0), SingleAssignment(1)) plus the
//! // Jaccard pair kernels.
//! let reports = summary.query_batch(&batch).unwrap();
//! assert_eq!(reports.len(), 4);
//! assert!(reports[0].ci95.unwrap().covers(reports[0].value));
//! ```

pub mod executor;
pub mod ir;
pub mod planner;

pub use executor::EstimateReport;
pub use ir::{AggregateSpec, QueryBatch, QuerySpec, SharedPredicate};
pub use planner::QueryPlan;
