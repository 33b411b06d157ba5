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
    /// Data frames replayed into the current epoch, one push each.
    pub frames_replayed: usize,
    /// Records/elements of replayed frames the pipeline absorbed.
    pub records_replayed: u64,
    /// Records/elements skipped because a durable snapshot already covers
    /// their epoch (their segments simply had not been pruned yet).
    pub records_skipped: u64,
    /// Records/elements of replayed frames the pipeline did not absorb,
    /// exactly as in the original run: quarantined poison, and the rest of
    /// a batch refused mid-way (a sum overflow).
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
/// Validates `builder`, recovers the snapshot store, resumes serving from
/// the highest clean snapshot, then opens the journal (truncating torn
/// tails, quarantining condemned segments) and, in the same scan, replays
/// its tail — every frame not covered by a durable snapshot — into the
/// current epoch. Each surviving segment is read once, and each replayed
/// frame is one push of the shape the original run journaled (a records
/// batch or an elements batch), so the pipeline absorbs and refuses
/// exactly what it did the first time. Because a coordinated summary is a
/// deterministic function of `(records, seed)` and weights are journaled
/// as raw bit patterns, the recovered pipeline's next publish is
/// **bit-identical** to the undisturbed run's.
///
/// A frame is replayed when its epoch tag is newer than the last good
/// snapshot, *or* when its epoch has no snapshot on disk (a publish that
/// failed at the store layer, or a snapshot that was itself corrupted and
/// quarantined) — replay is conservative toward re-ingesting, never toward
/// losing.
///
/// # Errors
/// [`CwsError::InvalidParameter`] when `builder` has no
/// [`journal`](PipelineBuilder::journal) configured; otherwise as
/// [`EpochedPipeline::new`] and [`SnapshotStore::recover`]. On-disk
/// corruption is never an error — it is truncated or quarantined and
/// reported.
pub fn recover_from_store_and_wal(
    mut builder: PipelineBuilder,
    store: &mut SnapshotStore,
) -> Result<DurableRecovery> {
    let Some(config) = builder.take_journal() else {
        return Err(CwsError::InvalidParameter {
            name: "journal",
            message: "recover_from_store_and_wal needs a journaled pipeline; \
                      configure PipelineBuilder::journal(WalConfig)"
                .to_string(),
        });
    };
    let mut pipeline = EpochedPipeline::new(builder)?;
    let store_report = store.recover()?;
    if let Some((epoch, summary)) = &store_report.last_good {
        pipeline.resume_from(*epoch, Arc::clone(summary));
    }
    let stored_epochs = store.epochs()?;
    let replay = pipeline.replay_journal(config, &stored_epochs)?;
    Ok(DurableRecovery { pipeline, store: store_report, replay })
}
