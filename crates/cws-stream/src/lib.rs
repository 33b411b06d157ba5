//! Single-pass and distributed stream sampling for coordinated weighted
//! sketches.
//!
//! The summaries of `cws-core` are defined over a complete weighted data set;
//! this crate produces the very same summaries from *streams* of records with
//! bounded memory, which is the scalability requirement of the paper
//! (Section 4, "Computing coordinated sketches"):
//!
//! * [`MultiAssignmentStreamSampler`] — the dispersed summary in one pass,
//!   `O(k)` state per assignment, sharing only the hash seed across
//!   assignments. Whole `(key, weight-vector)` records hash each key once
//!   and fan the rank computation out across all assignments;
//!   [`push_observation`](MultiAssignmentStreamSampler::push_observation)
//!   takes one assignment's observations at a time, in any interleaving, as
//!   dispersed sites (different time periods, different servers) produce
//!   them. Both shapes give the summary the offline builder gives.
//! * [`ColocatedStreamSampler`] — a single pass over `(key, weight-vector)`
//!   records that embeds one bottom-k sample per assignment and retains the
//!   full weight vector of every candidate key.
//! * [`ShardedDispersedSampler`] — parallel ingestion: keys partitioned by
//!   hash across `std::thread` workers, each running a hash-once sampler,
//!   merged bit-exactly at finalize. On the hosts measured so far it is
//!   slower than one hash-once sampler (figures in [`sharded`]), and the
//!   `cws-engine` pipeline does not use it.
//! * [`merge`] — mergeability: sketches computed over disjoint partitions of
//!   the keys (e.g. different routers) combine into the sketch of the union.
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

pub mod colocated;
pub mod merge;
pub mod multi;
pub mod sharded;

pub use colocated::ColocatedStreamSampler;
pub use merge::{merge_disjoint_colocated, merge_disjoint_sketches, merge_disjoint_summaries};
pub use multi::MultiAssignmentStreamSampler;
pub use sharded::ShardedDispersedSampler;

/// Commonly used items.
pub mod prelude {
    pub use crate::colocated::ColocatedStreamSampler;
    pub use crate::merge::{
        merge_disjoint_colocated, merge_disjoint_sketches, merge_disjoint_summaries,
    };
    pub use crate::multi::MultiAssignmentStreamSampler;
    pub use crate::sharded::ShardedDispersedSampler;
}
