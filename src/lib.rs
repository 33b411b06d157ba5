//! Umbrella crate for the coordinated weighted sampling workspace.
//!
//! Re-exports the public API of the member crates so that examples and
//! downstream users can depend on a single crate:
//!
//! * [`engine`] — the unified `Pipeline` / `QuerySpec` facade ([`cws_engine`]):
//!   one builder over every sampler, one query language over every
//!   estimator, plus the streaming pre-aggregation stage for unaggregated
//!   element streams. **Start here.**
//! * [`core`] — sketches, rank assignments, estimators ([`cws_core`]).
//! * [`stream`] — single-pass / distributed samplers ([`cws_stream`]).
//! * [`data`] — synthetic workload generators ([`cws_data`]).
//! * [`eval`] — variance measurement and the paper's experiments ([`cws_eval`]).
//! * [`hash`] — hashing substrate ([`cws_hash`]).

pub use cws_core as core;
pub use cws_data as data;
pub use cws_engine as engine;
pub use cws_eval as eval;
pub use cws_hash as hash;
pub use cws_stream as stream;

/// Convenience prelude with the types used by nearly every program.
pub mod prelude {
    pub use cws_core::prelude::*;
    pub use cws_data::prelude::*;
    pub use cws_engine::prelude::*;
    pub use cws_eval::prelude::*;
    pub use cws_stream::prelude::*;
}
