//! Write-ahead ingestion journal: crash-consistent recovery with bit-exact
//! replay.
//!
//! A coordinated bottom-k summary is a *deterministic* function of the
//! input records and the hash seed — the property every estimator in this
//! workspace builds on. This module exploits the same property for
//! durability: the one state a crash can destroy (records ingested since
//! the last published epoch) can be reconstructed **bit-exactly** by
//! replaying a durable log of the pushes through the same pipeline.
//!
//! The pieces, bottom-up:
//!
//! * `frame` — length-prefixed, CRC-framed record batches, encoded once
//!   from the caller's slice into a reused buffer, and decoded once into
//!   reused batch buffers on replay.
//!   Every frame carries the **epoch tag** it will publish under; weights
//!   travel as raw IEEE-754 bit patterns, the summary codec's convention.
//! * `segment` — `wal-<seq>.cwsj` files with a checksummed header,
//!   created through the atomic-write sequence of the crate's shared
//!   directory rules, which the snapshot store follows too (names,
//!   listing, `.quarantined` renames, unlinks and directory fsyncs).
//! * `journal` — the segmented log: appends, rotation at a byte cap,
//!   the [`SyncPolicy`] fsync knob (an element batch's fsync runs on one
//!   helper thread while the pipeline stages the batch; a failed or
//!   refused append is cut back off the segment), open-time torn-tail
//!   recovery that truncates exactly at the last clean frame and hands
//!   every clean frame of that one scan to the replay, a disk cap
//!   ([`WalConfig::max_bytes`]: a full journal is a typed
//!   `BudgetExceeded`, never silent truncation), and epoch
//!   watermarks: once a snapshot covers an epoch, the sealed segments
//!   holding it are pruned. They are unlinked and the directory fsynced
//!   before `publish_into` returns; a reclaim thread frees their blocks
//!   just after, so at most one epoch's covered segments still hold disk
//!   space.
//! * `replay` — [`recover_from_store_and_wal`], the 1-call recovery
//!   procedure: highest clean snapshot from the
//!   [`SnapshotStore`](crate::store::SnapshotStore), then the journal tail
//!   replayed into the current epoch, one push per frame.
//!
//! Attach a journal with
//! [`PipelineBuilder::journal`](crate::pipeline::PipelineBuilder::journal);
//! the epoched pipeline journals every push *before* combining any of its
//! weight and
//! writes an epoch barrier inside
//! [`publish_into`](crate::continuous::EpochedPipeline::publish_into).

pub(crate) mod frame;
pub(crate) mod journal;
pub(crate) mod replay;
pub(crate) mod segment;

pub use journal::{Journal, SyncPolicy, WalConfig};
pub use replay::{recover_from_store_and_wal, DurableRecovery, ReplayReport};
