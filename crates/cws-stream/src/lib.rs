//! Single-pass and distributed stream sampling for coordinated weighted
//! sketches.
//!
//! The summaries of `cws-core` are defined over a complete weighted data set;
//! this crate produces the very same summaries from *streams* of records with
//! bounded memory, which is the scalability requirement of the paper
//! (Section 4, "Computing coordinated sketches"):
//!
//! * [`BottomKStreamSampler`] — one assignment, one pass, `O(k)` state; the
//!   building block of everything else.
//! * [`PoissonStreamSampler`] — fixed-threshold Poisson sampling in one pass.
//! * [`DispersedStreamSampler`] — one bottom-k sampler per assignment, sharing
//!   only the hash seed; models the dispersed sites (different time periods,
//!   different servers) that cannot communicate while sampling.
//! * [`MultiAssignmentStreamSampler`] — the hash-once hot path: one pass over
//!   `(key, weight-vector)` records that hashes each key once and fans the
//!   rank computation out across all assignments, producing a dispersed
//!   summary bit-identical to per-assignment processing.
//! * [`ColocatedStreamSampler`] — a single pass over `(key, weight-vector)`
//!   records that embeds one bottom-k sample per assignment and retains the
//!   full weight vector of every candidate key.
//! * [`merge`] — mergeability: sketches computed over disjoint partitions of
//!   the keys (e.g. different routers) combine into the sketch of the union.
//! * [`sharded`] — parallel ingestion: keys partitioned by hash across
//!   `std::thread` workers with per-shard candidate sets, merged bit-exactly
//!   at finalize.
//!
//! Streams are assumed to be *aggregated*: each key appears at most once per
//! assignment (as in the paper's model where per-key weights, such as flow
//! byte counts, have already been aggregated). Feeding the same key twice
//! under the same assignment keeps one candidate entry, at the smaller
//! rank; its weights are not summed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidate;
mod kernel;

pub mod bottomk;
pub mod colocated;
pub mod dispersed;
pub mod merge;
pub mod multi;
pub mod poisson;
pub mod sharded;

pub use bottomk::BottomKStreamSampler;
pub use colocated::ColocatedStreamSampler;
pub use dispersed::DispersedStreamSampler;
pub use merge::{
    merge_disjoint_colocated, merge_disjoint_sketches, merge_disjoint_summaries,
    merge_disjoint_summaries_ref,
};
pub use multi::MultiAssignmentStreamSampler;
pub use poisson::PoissonStreamSampler;
pub use sharded::ShardedDispersedSampler;

/// Commonly used items.
pub mod prelude {
    pub use crate::bottomk::BottomKStreamSampler;
    pub use crate::colocated::ColocatedStreamSampler;
    pub use crate::dispersed::DispersedStreamSampler;
    pub use crate::merge::{
        merge_disjoint_colocated, merge_disjoint_sketches, merge_disjoint_summaries,
        merge_disjoint_summaries_ref,
    };
    pub use crate::multi::MultiAssignmentStreamSampler;
    pub use crate::poisson::PoissonStreamSampler;
    pub use crate::sharded::ShardedDispersedSampler;
}
