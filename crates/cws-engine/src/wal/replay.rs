//! Crash recovery: highest clean snapshot + bit-exact WAL tail replay.

use std::sync::Arc;

use cws_core::{CwsError, Result};

use crate::continuous::EpochedPipeline;
use crate::pipeline::PipelineBuilder;
use crate::store::{RecoveryReport, SnapshotStore};

/// What replaying the journal tail did — the WAL half of a
/// [`DurableRecovery`].
#[derive(Debug, Clone, Default)]
pub struct ReplayReport {
    /// Data frames whose records were replayed into the current epoch.
    pub frames_replayed: usize,
    /// Records/elements re-ingested through the normal `Ingest` path.
    pub records_replayed: u64,
    /// Records/elements skipped because a durable snapshot already covers
    /// their epoch (their segments simply had not been pruned yet).
    pub records_skipped: u64,
    /// Replayed records the pipeline rejected — exactly the records the
    /// original run rejected too (invalid weights replay bit-exactly and
    /// fail the same validation), so these were never in any summary.
    pub rejected_records: u64,
    /// Bytes removed by torn-tail truncation when the journal was opened.
    pub truncated_bytes: u64,
    /// Journal segments condemned and quarantined when it was opened.
    pub quarantined_segments: usize,
    /// The journal's own abandoned `wal-…​.cwsj.tmp` files removed when it
    /// was opened; a foreign `.tmp` file stays.
    pub removed_temps: usize,
}

/// The result of [`recover_from_store_and_wal`]: a serving pipeline plus
/// the reports of both recovery layers.
#[derive(Debug)]
pub struct DurableRecovery {
    /// Ready to serve: `latest()` answers from the recovered snapshot (if
    /// any) and the current epoch already holds the replayed WAL tail.
    pub pipeline: EpochedPipeline,
    /// What [`SnapshotStore::recover`] found and did.
    pub store: RecoveryReport,
    /// What the journal replay found and did.
    pub replay: ReplayReport,
}

/// The 1-call recovery procedure for a journaled pipeline.
///
/// Opens the journal (truncating torn tails, quarantining condemned
/// segments), recovers the snapshot store, resumes serving from the
/// highest clean snapshot, and replays the journal tail — every record not
/// covered by a durable snapshot — through the same [`Ingest`] path the
/// original run used. Because a coordinated summary is a deterministic
/// function of `(records, seed)` and weights are journaled as raw bit
/// patterns, the recovered pipeline's next publish is **bit-identical** to
/// the undisturbed run's.
///
/// A record is replayed when its epoch tag is newer than the last good
/// snapshot, *or* when its epoch has no snapshot on disk (a publish that
/// failed at the store layer, or a snapshot that was itself corrupted and
/// quarantined) — replay is conservative toward re-ingesting, never toward
/// losing.
///
/// [`Ingest`]: crate::ingest::Ingest
///
/// # Errors
/// [`CwsError::InvalidParameter`] when `builder` has no
/// [`journal`](PipelineBuilder::journal) configured; otherwise as
/// [`EpochedPipeline::new`] and [`SnapshotStore::recover`]. On-disk
/// corruption is never an error — it is truncated or quarantined and
/// reported.
pub fn recover_from_store_and_wal(
    builder: PipelineBuilder,
    store: &mut SnapshotStore,
) -> Result<DurableRecovery> {
    if !builder.has_journal() {
        return Err(CwsError::InvalidParameter {
            name: "journal",
            message: "recover_from_store_and_wal needs a journaled pipeline; \
                      configure PipelineBuilder::journal(WalConfig)"
                .to_string(),
        });
    }
    let mut pipeline = EpochedPipeline::new(builder)?;
    let store_report = store.recover()?;
    if let Some((epoch, summary)) = &store_report.last_good {
        pipeline.resume_from(*epoch, Arc::clone(summary));
    }
    let stored_epochs = store.epochs()?;
    let replay = pipeline.replay_journal(&stored_epochs)?;
    Ok(DurableRecovery { pipeline, store: store_report, replay })
}
