//! Continuous ingestion: epoch-swapped snapshots, and drift between any two
//! of them.
//!
//! The paper's motivating workload is a *time-evolving* database — snapshots
//! taken periodically, stored, shipped, and compared. [`EpochedPipeline`]
//! turns the one-shot [`Pipeline`] into that long-lived service: ingestion
//! never stops, and [`publish`](EpochedPipeline::publish) atomically swaps
//! in a fresh pipeline built from the same configuration, finalizes the
//! outgoing epoch, and hands back an immutable [`Arc<Summary>`] snapshot.
//! Works with both layouts; ingestion runs on the caller's thread.
//!
//! Every epoch uses the same seed, so keys keep their rank functions across
//! epochs: summaries of different epochs are themselves coordinated.
//! [`Drift::between`] pairs two such snapshots sketch by sketch and
//! estimates the change between them (L1 distance, weighted union/stable
//! mass) from the two samples alone. Which snapshots to compare is the
//! caller's choice: keep the `Arc<Summary>` of each [`EpochReport`], or load
//! epochs back from a [`SnapshotStore`], whose retention bounds how many
//! stay on disk.
//!
//! # Degraded-mode serving
//!
//! A long-lived service must keep answering queries through a failure. When
//! [`publish_into`](EpochedPipeline::publish_into) fails — the journal
//! could not write its epoch barrier, or the snapshot store rejected the
//! write — the pipeline does **not** stop serving:
//! [`latest`](EpochedPipeline::latest) keeps returning the newest snapshot
//! it published in memory, ingestion continues, and
//! [`degraded`](EpochedPipeline::degraded) reports the typed cause plus
//! staleness counters ([`DegradedState`]). The first successful publish
//! clears the state. Sealing an epoch cannot fail, so a failed publish
//! loses no records: the recovery route is
//! [`SnapshotStore::recover`](crate::store::SnapshotStore) plus
//! re-ingesting the un-stored epoch from its durable source.
//!
//! # Write-ahead journaling
//!
//! With a journal attached ([`PipelineBuilder::journal`]) the durable
//! source is the pipeline's own write-ahead log: every push is journaled,
//! tagged with the epoch it will publish under, before any of its weight
//! is ingested. Under [`SyncPolicy::PerBatch`] a push that returns `Ok` is
//! durable, and a push that returns `Err` absorbed nothing and left no
//! frame in the journal: a failed write or fsync is cut back off, and so
//! is a push the pipeline refuses whole, so a retry is journaled once. Only
//! a refusal after part of the push was absorbed (a sum overflow
//! mid-batch) keeps its frame, for recovery to replay. While an element
//! batch's fsync runs on the journal's helper thread the aggregation stage
//! resolves its keys, but no weight is combined before the fsync has
//! completed; a failed fsync aborts the staged keys.
//! [`publish_into`](EpochedPipeline::publish_into) writes an epoch barrier
//! (always fsynced) before swapping epochs and prunes fully-covered
//! segments after the snapshot commits. After a crash,
//! [`recover_from_store_and_wal`](crate::wal::recover_from_store_and_wal)
//! restores the whole state — snapshot plus replayed tail — in one call.
//!
//! [`PipelineBuilder::journal`]: crate::pipeline::PipelineBuilder::journal
//! [`SyncPolicy::PerBatch`]: crate::wal::SyncPolicy::PerBatch

use std::sync::Arc;

use cws_core::budget::QuarantinedRecords;
use cws_core::columns::RecordColumns;
use cws_core::summary::DispersedSummary;
use cws_core::{CwsError, Key, Result};

use crate::ingest::Ingest;
use crate::pipeline::{Pipeline, PipelineBuilder, Push};
use crate::plan::{EstimateReport, QueryBatch, QuerySpec};
use crate::store::SnapshotStore;
use crate::summary::Summary;
use crate::wal::frame::Frame;
use crate::wal::{Journal, ReplayReport, WalOpenReport};

/// Why (and how badly) the service is serving stale data — the payload of
/// [`EpochedPipeline::degraded`].
///
/// Present from the first failed publish until the next successful one.
/// While degraded, [`EpochedPipeline::latest`] still serves the last good
/// snapshot; the counters quantify the staleness an operator is accepting.
#[derive(Debug, Clone)]
pub struct DegradedState {
    /// The typed error of the **most recent** failed publish.
    pub reason: CwsError,
    /// Consecutive failed publishes since the last successful one.
    pub failed_publishes: u64,
    /// Records that are in no durable snapshot but **are** recoverable
    /// from the write-ahead journal: the epochs whose snapshot the store
    /// failed to write, waiting for
    /// [`recover_from_store_and_wal`](crate::wal::recover_from_store_and_wal).
    /// Always zero without a journal.
    pub records_replayable: u64,
}

/// What [`EpochedPipeline::publish`] returns: the closed epoch's snapshot
/// plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// 1-based index of the epoch that was just closed.
    pub epoch: u64,
    /// Records (or aggregated fragments) ingested during that epoch alone —
    /// uniform across back-ends.
    pub records: u64,
    /// The immutable snapshot; share it, serialize it, or merge it with
    /// other epochs' snapshots of disjoint key ranges.
    pub summary: Arc<Summary>,
}

/// A pipeline that publishes immutable point-in-time snapshots while
/// ingestion continues into the next epoch.
///
/// ```
/// use cws_engine::prelude::*;
///
/// let mut epochs = EpochedPipeline::new(
///     Pipeline::builder().assignments(2).k(32).layout(Layout::Dispersed).seed(7),
/// )
/// .unwrap();
/// epochs.push_record(1, &[1.0, 2.0]).unwrap();
/// let report = epochs.publish().unwrap();
/// assert_eq!((report.epoch, report.records), (1, 1));
/// epochs.push_record(2, &[3.0, 4.0]).unwrap(); // next epoch, same seed
/// assert_eq!(epochs.latest().unwrap().num_assignments(), 2);
/// ```
#[derive(Debug)]
pub struct EpochedPipeline {
    builder: PipelineBuilder,
    current: Pipeline,
    epoch: u64,
    latest: Option<Arc<Summary>>,
    degraded: Option<DegradedState>,
    /// Quarantine totals of closed epochs (each publish swaps the inner
    /// pipeline, which would otherwise silently drop its counters).
    quarantined_past: Option<QuarantinedRecords>,
    /// Peak tracked aggregation bytes across closed epochs.
    peak_bytes_past: u64,
    /// The write-ahead journal, when one was configured on the builder.
    journal: Option<Journal>,
    /// What opening the journal found (torn tails truncated, temps
    /// removed) — folded into the replay report during recovery.
    wal_open: Option<WalOpenReport>,
}

impl EpochedPipeline {
    /// Builds the first epoch's pipeline from `builder`; the same builder
    /// (same seed — the coordination contract) re-creates every subsequent
    /// epoch. A configured [`journal`](PipelineBuilder::journal) is opened
    /// here — torn tails truncated, condemned segments quarantined — and
    /// every subsequent push is journaled before it is ingested.
    ///
    /// # Errors
    /// As [`PipelineBuilder::build`]; journal opening adds typed
    /// `InvalidParameter` errors for dead WAL configuration and `Store`
    /// errors for filesystem failures.
    pub fn new(mut builder: PipelineBuilder) -> Result<Self> {
        let wal_config = builder.take_journal();
        let current = builder.clone().build()?;
        let (journal, wal_open) = match wal_config {
            Some(config) => {
                let (journal, report) = Journal::open(config, current.num_assignments())?;
                (Some(journal), Some(report))
            }
            None => (None, None),
        };
        Ok(Self {
            builder,
            current,
            epoch: 0,
            latest: None,
            degraded: None,
            quarantined_past: None,
            peak_bytes_past: 0,
            journal,
            wal_open,
        })
    }

    /// The attached write-ahead journal, if one was configured.
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// What opening the journal found and did, if one was configured.
    #[must_use]
    pub fn wal_open_report(&self) -> Option<&WalOpenReport> {
        self.wal_open.as_ref()
    }

    /// The pipeline ingesting the current (unpublished) epoch.
    #[must_use]
    pub fn current(&self) -> &Pipeline {
        &self.current
    }

    /// Number of epochs published so far.
    #[must_use]
    pub fn epochs_published(&self) -> u64 {
        self.epoch
    }

    /// The most recently published snapshot, if any.
    ///
    /// Keeps serving the **last good** snapshot through failed publishes —
    /// degraded-mode serving; check [`degraded`](Self::degraded) for
    /// staleness.
    #[must_use]
    pub fn latest(&self) -> Option<Arc<Summary>> {
        self.latest.clone()
    }

    /// Executes a [`QueryBatch`] against the most recently published
    /// snapshot ([`latest`](Self::latest)); `None` before the first
    /// publish. During degraded serving this answers from the last *good*
    /// epoch, like every other read.
    ///
    /// Concurrent callers should instead clone the `Arc<Summary>` from
    /// [`latest`](Self::latest) once and batch against it directly (see
    /// `examples/query_fleet.rs`) — this convenience borrows the pipeline,
    /// which normally lives with the ingestion thread.
    #[must_use]
    pub fn query_batch(&self, batch: &QueryBatch) -> Option<Result<Vec<EstimateReport>>> {
        self.latest().map(|summary| batch.execute(&summary))
    }

    /// The degraded state, present from the first failed publish until the
    /// next successful one. `None` means the service is healthy and
    /// [`latest`](Self::latest) is the newest closed epoch.
    #[must_use]
    pub fn degraded(&self) -> Option<&DegradedState> {
        self.degraded.as_ref()
    }

    /// `true` when the last publish attempt failed (stale serving).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.is_some()
    }

    /// Lifetime quarantine totals: poison records diverted in the current
    /// epoch **plus** every epoch closed before it. Each publish swaps the
    /// inner pipeline, so per-epoch counters alone would silently reset;
    /// this survives the swap. `None` when nothing was ever quarantined.
    #[must_use]
    pub fn quarantined_lifetime(&self) -> Option<QuarantinedRecords> {
        let mut total = self.quarantined_past.clone();
        if let Some(current) = self.current.quarantined() {
            match total.as_mut() {
                Some(total) => total.count += current.count,
                None => total = Some(current),
            }
        }
        total
    }

    /// High-water mark of tracked aggregation bytes across all epochs —
    /// the current one and every one closed before it. Zero only without
    /// an aggregation stage: even an empty table tracks its index.
    #[must_use]
    pub fn peak_tracked_bytes(&self) -> u64 {
        self.peak_bytes_past.max(self.current.peak_tracked_bytes())
    }

    /// Folds a closed epoch's quarantine report into the lifetime total,
    /// keeping the earliest first-error for forensics.
    fn absorb_quarantine(&mut self, report: Option<QuarantinedRecords>) {
        if let Some(report) = report {
            match self.quarantined_past.as_mut() {
                Some(total) => total.count += report.count,
                None => self.quarantined_past = Some(report),
            }
        }
    }

    /// Seeds [`latest`](Self::latest) and the epoch counter from a
    /// recovered snapshot — the restart half of the recovery procedure:
    /// after [`SnapshotStore::recover`](crate::store::SnapshotStore::recover)
    /// returns its last good `(epoch, summary)`, resuming from it lets the
    /// service answer queries immediately while the next epoch refills.
    pub fn resume_from(&mut self, epoch: u64, summary: Arc<Summary>) {
        self.epoch = epoch;
        self.latest = Some(summary);
        self.degraded = None;
    }

    /// Closes the current epoch: swaps in a fresh pipeline (same
    /// configuration, same seed), seals the outgoing one, and publishes its
    /// summary as an immutable snapshot. Sealing cannot fail.
    ///
    /// # Errors
    /// As [`PipelineBuilder::build`]. The service then **keeps serving**:
    /// [`latest`](Self::latest) still returns the last good snapshot,
    /// ingestion continues into the current epoch's pipeline, and
    /// [`degraded`](Self::degraded) carries the typed reason until a
    /// publish succeeds.
    pub fn publish(&mut self) -> Result<EpochReport> {
        let replacement = match self.builder.clone().build() {
            Ok(replacement) => replacement,
            Err(error) => {
                self.mark_degraded(error.clone(), 0);
                return Err(error);
            }
        };
        let outgoing = std::mem::replace(&mut self.current, replacement);
        let records = outgoing.processed();
        // Harvest governance counters before sealing consumes the epoch's
        // pipeline — they are lifetime totals, not per-epoch ones.
        self.absorb_quarantine(outgoing.quarantined());
        self.peak_bytes_past = self.peak_bytes_past.max(outgoing.peak_tracked_bytes());
        let summary = Arc::new(outgoing.seal());
        self.epoch += 1;
        self.latest = Some(Arc::clone(&summary));
        self.degraded = None;
        Ok(EpochReport { epoch: self.epoch, records, summary })
    }

    /// [`publish`](Self::publish), then durably persist the snapshot into
    /// `store` under its epoch number.
    ///
    /// With a journal attached, the sealed segments the snapshot covers are
    /// unlinked and the journal directory fsynced before this returns. The
    /// blocks of those segments, at most one epoch's, are freed just after
    /// on a reclaim thread.
    ///
    /// # Errors
    /// As [`publish`](Self::publish) for the in-memory half. If only the
    /// *store* write fails, the snapshot **was** published in memory
    /// ([`latest`](Self::latest) serves it, no records were lost) but is
    /// not durable; the pipeline is marked degraded with the store's typed
    /// error so the operator knows durability is behind serving. With a
    /// journal attached the un-stored epoch's records stay replayable
    /// (pruning is suspended and the count is surfaced as
    /// [`DegradedState::records_replayable`]);
    /// [`recover_from_store_and_wal`](crate::wal::recover_from_store_and_wal)
    /// re-ingests them once the store is healthy again.
    pub fn publish_into(&mut self, store: &mut SnapshotStore) -> Result<EpochReport> {
        // The barrier is always fsynced and always rotates, so the sealing
        // epoch's records are durable in sealed segments before its
        // snapshot commits.
        if let Some(journal) = self.journal.as_mut() {
            if let Err(error) = journal.barrier(self.epoch + 1) {
                self.mark_degraded(error.clone(), 0);
                return Err(error);
            }
        }
        let report = self.publish()?;
        if let Err(error) = store.publish(report.epoch, &report.summary) {
            let replayable = if let Some(journal) = self.journal.as_mut() {
                journal.suppress_pruning();
                report.records
            } else {
                0
            };
            self.mark_degraded(error.clone(), replayable);
            return Err(error);
        }
        // Prune segments the new snapshot fully covers. Best-effort: a
        // failed prune keeps the segments listed, so the next successful
        // publish retries reclaiming them.
        if let Some(journal) = self.journal.as_mut() {
            let _ = journal.mark_covered(report.epoch);
        }
        Ok(report)
    }

    /// Accumulates a failed publish into the degraded state.
    fn mark_degraded(&mut self, reason: CwsError, records_replayable: u64) {
        let state = self.degraded.get_or_insert(DegradedState {
            reason: reason.clone(),
            failed_publishes: 0,
            records_replayable: 0,
        });
        state.reason = reason;
        state.failed_publishes += 1;
        state.records_replayable += records_replayable;
    }

    /// Replays the journal tail after a restart: every frame whose epoch
    /// is **not** covered by a durable snapshot is re-ingested; covered
    /// frames — segments that simply had not been pruned yet — are skipped,
    /// never double-ingested.
    ///
    /// `stored_epochs` are the snapshot epochs currently on disk
    /// (ascending). A frame is covered when its epoch is at most the
    /// resumed epoch **and** that epoch's snapshot exists; a frame whose
    /// snapshot is missing (store-layer publish failure, quarantined
    /// corruption) replays — conservative toward re-ingesting, never
    /// toward losing.
    ///
    /// Frames replay oldest first through the normal `Ingest` path of the
    /// current pipeline (so rejections match the original run exactly),
    /// straight to the pipeline, never back into the journal; the records
    /// of covered data frames count as skipped. Frames are decoded in
    /// place and pushed record by record (never through a columnar fast
    /// path, so a mid-batch rejection cannot double-ingest a prefix).
    pub(crate) fn replay_journal(&mut self, stored_epochs: &[u64]) -> Result<ReplayReport> {
        // `recover_from_store_and_wal`, the one caller, requires a journal.
        let journal = self.journal.as_ref().expect("recovery opens a journaled pipeline");
        let resumed = self.epoch;
        let current = &mut self.current;
        let mut report = ReplayReport::default();
        let mut row = Vec::with_capacity(current.num_assignments());
        journal.for_each_frame(|frame| {
            if matches!(frame, Frame::Barrier { .. }) {
                return;
            }
            let epoch = frame.epoch();
            if epoch <= resumed && stored_epochs.binary_search(&epoch).is_ok() {
                report.records_skipped += frame.record_count() as u64;
                return;
            }
            report.frames_replayed += 1;
            let mut tally = |pushed: Result<()>| match pushed {
                Ok(()) => report.records_replayed += 1,
                Err(_) => report.rejected_records += 1,
            };
            frame
                .for_each_record(&mut row, |key, weights| tally(current.push_record(key, weights)));
            for (key, assignment, weight) in frame.elements() {
                tally(current.push_element(key, assignment as usize, weight));
            }
        })?;
        if let Some(open) = &self.wal_open {
            report.truncated_bytes = open.truncated_bytes;
            report.quarantined_segments = open.quarantined_segments;
            report.removed_temps = open.removed_temps;
        }
        Ok(report)
    }

    /// Write-ahead ordering, shared by every push. With a journal attached
    /// the push's frames are written under the epoch it will publish as,
    /// and no weight of the push is combined before their fsync has
    /// completed. An element batch into an aggregating pipeline is staged
    /// while the fsync runs (keys resolved, nothing combined) and commits
    /// once it succeeded; any other push runs after the fsync. A failed
    /// fsync aborts the stage, and the journal has already cut the frames
    /// back off. A push the pipeline refuses without absorbing any of it —
    /// an expired deadline, an invalid record, a batch wider than the key
    /// cap — is withdrawn from the journal too, so its retry is journaled
    /// once. A refusal after part of the push was absorbed (a sum overflow
    /// mid-batch) keeps the frames, so recovery replays what was absorbed.
    #[inline]
    fn journaled(&mut self, push: Push<'_>) -> Result<()> {
        let Some(journal) = self.journal.as_mut() else {
            return self.current.push(push);
        };
        let staged_elements = match push {
            Push::Elements(elements) if self.current.is_aggregating() => Some(elements),
            _ => None,
        };
        journal.append(self.epoch + 1, push, staged_elements.is_some())?;
        let processed = self.current.processed();
        let staged = staged_elements.map(|elements| (elements, self.current.stage(elements)));
        if let Err(error) = journal.sync() {
            if let Some((_, Ok(staged))) = staged {
                self.current.abort(staged);
            }
            return Err(error);
        }
        let pushed = match staged {
            Some((elements, staged)) => {
                staged.and_then(|staged| self.current.commit(staged, elements))
            }
            None => self.current.push(push),
        };
        if pushed.is_err() && self.current.processed() == processed {
            journal.withdraw();
        } else {
            journal.keep();
        }
        pushed
    }

    /// Absorbs one unaggregated element into the current epoch (requires an
    /// aggregation stage, as on [`Pipeline::push_element`]), journaling it
    /// first when a journal is attached.
    ///
    /// # Errors
    /// As [`Pipeline::push_element`], plus journal append errors (e.g. a
    /// typed `BudgetExceeded` when the WAL byte budget is full — the
    /// element is then neither journaled nor ingested).
    pub fn push_element(&mut self, key: Key, assignment: usize, weight: f64) -> Result<()> {
        self.journaled(Push::Element(key, assignment, weight))
    }

    /// Absorbs a batch of unaggregated elements into the current epoch,
    /// journaling it first when a journal is attached.
    ///
    /// # Errors
    /// As [`Pipeline::push_elements`], plus journal append errors.
    pub fn push_elements(&mut self, elements: &[(Key, usize, f64)]) -> Result<()> {
        self.journaled(Push::Elements(elements))
    }
}

impl Ingest for EpochedPipeline {
    fn num_assignments(&self) -> usize {
        self.current.num_assignments()
    }

    /// Progress of the **current** epoch only (each publish starts a fresh
    /// count — per-epoch record counts come for free).
    fn processed(&self) -> u64 {
        self.current.processed()
    }

    /// Write-ahead ordering: with a journal attached the record hits disk
    /// before the sampler sees it, so anything ingestion absorbed is
    /// replayable.
    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        self.journaled(Push::Record(key, weights))
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        self.journaled(Push::Columns(columns))
    }

    /// Finalizes the current epoch without publishing it.
    fn finalize(self) -> Result<Summary> {
        Ok(self.current.seal())
    }
}

/// Change between two coordinated snapshots, estimated from their samples
/// alone — see [`Drift::between`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    /// Estimated L1 distance `Σ_key |w_a(key) − w_b(key)|` between the two
    /// snapshots' weight assignments.
    pub l1: f64,
    /// Estimated weighted union mass `Σ_key max(w_a, w_b)`.
    pub union_total: f64,
    /// Estimated stable mass `Σ_key min(w_a, w_b)` — the weight present in
    /// both snapshots.
    pub stable_total: f64,
    /// Keys the paired sample could observe for the L1 estimate.
    pub observed_keys: usize,
}

impl Drift {
    /// Estimates how much `assignment` changed from snapshot `a` to
    /// snapshot `b`.
    ///
    /// Snapshots built with the same configuration share one hash seed, so
    /// their sketches of `assignment` are *coordinated*: pairing them (`a`
    /// as assignment 0, `b` as assignment 1) yields a legitimate
    /// two-assignment coordinated summary over which the dispersed
    /// estimators answer `L1`, `max`, and `min` — exactly the "similar
    /// subpopulations across snapshots" workload the paper motivates
    /// coordination with. Any two epochs of one [`EpochedPipeline`] pair,
    /// as do snapshots loaded back from a [`SnapshotStore`].
    ///
    /// # Errors
    /// [`CwsError::UnsupportedEstimator`] when either snapshot is not a
    /// dispersed summary; [`CwsError::IncompatibleSummaries`] naming the
    /// field when the two configurations differ; and
    /// [`CwsError::AssignmentOutOfRange`] when `assignment` is out of range.
    /// Estimator errors (e.g. `max` over independent sketches) propagate.
    pub fn between(a: &Summary, b: &Summary, assignment: usize) -> Result<Drift> {
        let mut sketches = Vec::with_capacity(2);
        for summary in [a, b] {
            let dispersed = summary.as_dispersed().ok_or(CwsError::UnsupportedEstimator {
                estimator: "drift",
                reason: "drift pairing needs per-assignment sketches; use the dispersed layout",
            })?;
            if assignment >= dispersed.num_assignments() {
                return Err(CwsError::AssignmentOutOfRange {
                    index: assignment,
                    available: dispersed.num_assignments(),
                });
            }
            sketches.push(dispersed.sketch(assignment).clone());
        }
        let config = *a.config();
        config.ensure_compatible(b.config())?;
        let paired = Summary::Dispersed(DispersedSummary::from_sketches(config, sketches));
        let reports = QueryBatch::new()
            .push(QuerySpec::l1(0, 1))
            .push(QuerySpec::max(0, 1))
            .push(QuerySpec::min(0, 1))
            .execute(&paired)?;
        Ok(Drift {
            l1: reports[0].value,
            union_total: reports[1].value,
            stable_total: reports[2].value,
            observed_keys: reports[0].observed_keys,
        })
    }

    /// The weighted Jaccard similarity estimate `stable / union` (1 when
    /// the snapshots are identical, 0 when nothing persists; 0 for two
    /// empty snapshots).
    #[must_use]
    pub fn jaccard(&self) -> f64 {
        if self.union_total > 0.0 {
            self.stable_total / self.union_total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Layout;

    fn dispersed_builder() -> PipelineBuilder {
        Pipeline::builder().assignments(2).k(64).layout(Layout::Dispersed).seed(9)
    }

    #[test]
    fn published_epoch_equals_one_shot_ingest() {
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        let mut oneshot = dispersed_builder().build().unwrap();
        for key in 0..500u64 {
            let weights = [((key % 13) + 1) as f64, ((key % 7) + 1) as f64];
            epochs.push_record(key, &weights).unwrap();
            oneshot.push_record(key, &weights).unwrap();
        }
        let report = epochs.publish().unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.records, 500);
        assert_eq!(*report.summary, oneshot.finalize().unwrap());
        // Ingestion continues; the published snapshot is unaffected.
        epochs.push_record(9999, &[1.0, 1.0]).unwrap();
        assert_eq!(epochs.processed(), 1);
        assert_eq!(epochs.latest().unwrap(), report.summary);
    }

    #[test]
    fn epochs_report_per_epoch_counts() {
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        for key in 0..300u64 {
            epochs.push_record(key, &[1.0 + (key % 5) as f64, 2.0]).unwrap();
        }
        let first = epochs.publish().unwrap();
        for key in 0..120u64 {
            epochs.push_record(key, &[2.0, 3.0]).unwrap();
        }
        let second = epochs.publish().unwrap();
        assert_eq!((first.records, second.records), (300, 120));
        assert_eq!(second.epoch, 2);
    }

    #[test]
    fn identical_windows_have_zero_drift() {
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        let mut windows = Vec::new();
        for _ in 0..2 {
            for key in 0..400u64 {
                epochs.push_record(key, &[((key % 11) + 1) as f64, 1.0]).unwrap();
            }
            windows.push(epochs.publish().unwrap().summary);
        }
        let drift = Drift::between(&windows[1], &windows[0], 0).unwrap();
        assert!(drift.l1.abs() < 1e-9, "identical windows must show no drift, got {}", drift.l1);
        assert!((drift.jaccard() - 1.0).abs() < 1e-9);
        assert!(drift.union_total > 0.0);
    }

    #[test]
    fn disjoint_windows_have_total_drift() {
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        for key in 0..200u64 {
            epochs.push_record(key, &[1.0, 1.0]).unwrap();
        }
        let older = epochs.publish().unwrap().summary;
        for key in 1000..1200u64 {
            epochs.push_record(key, &[1.0, 1.0]).unwrap();
        }
        let newer = epochs.publish().unwrap().summary;
        let drift = Drift::between(&newer, &older, 0).unwrap();
        assert!(drift.stable_total.abs() < 1e-9);
        assert!(drift.jaccard().abs() < 1e-9);
        assert!(drift.l1 > 0.0);
    }

    #[test]
    fn store_failure_marks_degraded_without_losing_records() {
        let dir =
            std::env::temp_dir().join(format!("cws-continuous-storefail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = crate::store::SnapshotStore::open(&dir, 4).unwrap();
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        epochs.push_record(1, &[1.0, 2.0]).unwrap();
        epochs.publish_into(&mut store).unwrap();
        assert_eq!(store.epochs().unwrap(), vec![1]);
        // Sabotage the store directory so the next durable publish fails.
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::write(&dir, b"not a directory").unwrap();
        epochs.push_record(2, &[3.0, 4.0]).unwrap();
        let err = epochs.publish_into(&mut store).unwrap_err();
        assert!(matches!(err, CwsError::Store { .. }), "{err:?}");
        let state = epochs.degraded().unwrap();
        assert!(matches!(state.reason, CwsError::Store { .. }));
        // The snapshot *was* published in memory — serving is ahead of
        // durability.
        assert_eq!(epochs.epochs_published(), 2);
        assert_eq!(epochs.latest().unwrap().num_distinct_keys(), 1);
        std::fs::remove_file(&dir).unwrap();
    }

    #[test]
    fn governance_counters_survive_epoch_swaps() {
        let builder = dispersed_builder()
            .aggregation(crate::aggregation::Aggregation::SumByKey)
            .budget(cws_core::budget::ResourceBudget::unlimited().with_max_bytes(1 << 20));
        let mut epochs = EpochedPipeline::new(builder).unwrap();
        // Epoch 1: one poison element diverted amid healthy traffic.
        epochs.current.push_elements(&[(1, 0, 1.0), (2, 0, f64::NAN)]).unwrap();
        let peak_epoch1 = epochs.peak_tracked_bytes();
        assert!(peak_epoch1 > 0);
        assert_eq!(epochs.quarantined_lifetime().unwrap().count, 1);
        epochs.publish().unwrap();
        // The swap replaced the inner pipeline; lifetime totals must not
        // reset with it.
        assert_eq!(epochs.quarantined_lifetime().unwrap().count, 1);
        assert_eq!(epochs.peak_tracked_bytes(), peak_epoch1);
        // Epoch 2 adds another poison; totals accumulate across epochs.
        epochs.current.push_elements(&[(3, 1, -1.0), (4, 1, 2.0)]).unwrap();
        assert_eq!(epochs.quarantined_lifetime().unwrap().count, 2);
        epochs.publish().unwrap();
        assert_eq!(epochs.quarantined_lifetime().unwrap().count, 2);
        assert!(epochs.peak_tracked_bytes() >= peak_epoch1);
    }

    /// Bytes of every file in `dir`.
    fn bytes_on_disk(dir: &std::path::Path) -> u64 {
        std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum()
    }

    #[test]
    fn failed_journal_appends_absorb_nothing_and_leave_no_frame() {
        use crate::aggregation::Aggregation;
        use crate::wal::journal::InjectedFault;
        use crate::wal::{recover_from_store_and_wal, WalConfig};

        let root =
            std::env::temp_dir().join(format!("cws-continuous-walfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (wal, store_dir) = (root.join("wal"), root.join("store"));
        let aggregating = || dispersed_builder().aggregation(Aggregation::SumByKey);
        let journaled = || aggregating().journal(WalConfig::new(&wal));
        // Seeded element batches over a shared key range, one NaN each.
        let batch = |seed: u64| -> Vec<(Key, usize, f64)> {
            (0..600u64)
                .map(|i| {
                    let weight = if i == seed { f64::NAN } else { ((i * seed) % 9) as f64 + 0.5 };
                    ((i * 7 + seed * 131) % 400, (i % 2) as usize, weight)
                })
                .collect()
        };
        let (first, second) = (batch(17), batch(23));
        let mut columns = RecordColumns::new(2);
        columns.push(1_000, &[1.0, 2.0]);
        columns.push(3, &[0.5, f64::INFINITY]);

        let mut store = SnapshotStore::open(&store_dir, 4).unwrap();
        let mut epochs = EpochedPipeline::new(journaled()).unwrap();
        epochs.push_elements(&first).unwrap();
        let observe = |epochs: &EpochedPipeline| {
            let aggregator = epochs.current.aggregator().unwrap();
            let quarantine = format!("{:?}", epochs.quarantined_lifetime());
            let journal = epochs.journal().unwrap();
            let columns = aggregator.clone().into_columns();
            (epochs.processed(), columns, quarantine, journal.total_bytes(), bytes_on_disk(&wal))
        };
        let before = observe(&epochs);
        for fault in [InjectedFault::Sync, InjectedFault::TornWrite] {
            type PushFn<'a> = &'a dyn Fn(&mut EpochedPipeline) -> Result<()>;
            let pushes: [PushFn<'_>; 4] = [
                &|e| e.push_elements(&second),
                &|e| e.push_columns(&columns),
                &|e| e.push_record(5_000, &[1.0, 1.0]),
                &|e| e.push_element(6_000, 1, 2.0),
            ];
            for push in pushes {
                epochs.journal.as_mut().unwrap().fail_next(fault);
                let error = push(&mut epochs).unwrap_err();
                assert!(matches!(error, CwsError::Store { .. }), "{fault:?}: {error:?}");
                assert_eq!(observe(&epochs), before, "{fault:?}: the failed push left a trace");
            }
        }
        // The retry succeeds, and a crash right after it recovers exactly
        // one copy of each batch.
        epochs.push_elements(&second).unwrap();
        drop(epochs);
        let recovered = recover_from_store_and_wal(journaled(), &mut store).unwrap();
        assert_eq!(recovered.replay.frames_replayed, 2);
        assert_eq!(recovered.replay.records_replayed + recovered.replay.rejected_records, 1200);
        assert_eq!(recovered.replay.rejected_records, 2, "exactly the two NaNs");
        let mut undisturbed = EpochedPipeline::new(aggregating()).unwrap();
        undisturbed.push_elements(&first).unwrap();
        undisturbed.push_elements(&second).unwrap();
        let mut recovered = recovered.pipeline;
        assert_eq!(recovered.publish().unwrap().summary, undisturbed.publish().unwrap().summary);

        // A pipeline without an aggregation stage takes the same path.
        let plain_wal = root.join("plain-wal");
        let mut plain =
            EpochedPipeline::new(dispersed_builder().journal(WalConfig::new(&plain_wal))).unwrap();
        plain.push_record(1, &[1.0, 2.0]).unwrap();
        plain.journal.as_mut().unwrap().fail_next(InjectedFault::Sync);
        assert!(matches!(plain.push_record(2, &[1.0, 2.0]), Err(CwsError::Store { .. })));
        assert_eq!(plain.processed(), 1);
        let on_disk = bytes_on_disk(&plain_wal);

        // When the failed append cannot be cut back off either, the
        // journal refuses every later write — pushes and barriers — with a
        // typed error until recovery reopens it.
        let journal = plain.journal.as_mut().unwrap();
        journal.fail_next(InjectedFault::Sync);
        journal.fail_next(InjectedFault::CutBack);
        assert!(matches!(plain.push_record(3, &[1.0, 2.0]), Err(CwsError::Store { .. })));
        assert!(bytes_on_disk(&plain_wal) > on_disk, "the frame could not be cut back off");
        for _ in 0..2 {
            match plain.push_record(4, &[1.0, 2.0]) {
                Err(CwsError::Store { op: "append", message, .. }) => {
                    assert!(message.contains("refuses appends"), "{message}");
                }
                other => panic!("expected a refused append, got {other:?}"),
            }
        }
        assert!(matches!(
            plain.publish_into(&mut store),
            Err(CwsError::Store { op: "append", .. })
        ));
        assert_eq!(plain.processed(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A push the pipeline refuses without absorbing any of it is taken
    /// back out of the journal, so only accepted pushes are left to
    /// replay: here a NaN record, an out-of-range element and a batch wider
    /// than the key cap, interleaved with accepted batches that the cap
    /// flushes early several times.
    #[test]
    fn refused_pushes_are_withdrawn_so_retries_replay_once() {
        use crate::aggregation::Aggregation;
        use crate::wal::{recover_from_store_and_wal, WalConfig};
        use cws_core::budget::ResourceBudget;

        let root =
            std::env::temp_dir().join(format!("cws-continuous-withdraw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let wal = root.join("wal");
        const CAP: usize = 6_000;
        // Each key once, so a flush cannot split a key and every run below
        // must publish the same summary.
        let elements: Vec<(Key, usize, f64)> =
            (0..20_000u64).map(|key| (key, (key % 2) as usize, ((key % 11) + 1) as f64)).collect();
        let wide: Vec<(Key, usize, f64)> =
            (0..=CAP as u64).map(|i| (1_000_000 + i, (i % 2) as usize, 1.0)).collect();
        let builder = || {
            dispersed_builder()
                .aggregation(Aggregation::SumByKey)
                .budget(ResourceBudget::unlimited().with_max_keys(CAP as u64))
        };
        let journaled = || builder().journal(WalConfig::new(&wal));

        let mut epochs = EpochedPipeline::new(journaled()).unwrap();
        let mut refusals = [0u32; 3];
        for (index, batch) in elements.chunks(1_000).enumerate() {
            epochs.push_elements(batch).unwrap();
            let (on_disk, processed) = (bytes_on_disk(&wal), epochs.processed());
            let refused = match index % 3 {
                0 => epochs.push_record(1, &[f64::NAN, 1.0]).unwrap_err(),
                1 => epochs.push_element(2, 7, 1.0).unwrap_err(),
                _ => epochs.push_elements(&wide).unwrap_err(),
            };
            match (index % 3, &refused) {
                (0, CwsError::InvalidParameter { name: "weight", .. })
                | (1, CwsError::AssignmentOutOfRange { index: 7, available: 2 })
                | (2, CwsError::BudgetExceeded { resource: "keys", .. }) => {
                    refusals[index % 3] += 1;
                }
                other => panic!("unexpected refusal {other:?}"),
            }
            assert_eq!(bytes_on_disk(&wal), on_disk, "a refused push left a frame: {refused:?}");
            assert_eq!(epochs.processed(), processed, "a refused push absorbed something");
        }
        assert!(refusals.iter().all(|&count| count > 0), "{refusals:?}");
        assert_eq!(epochs.processed(), elements.len() as u64);
        drop(epochs);

        let mut store = SnapshotStore::open(root.join("store"), 4).unwrap();
        let recovered = recover_from_store_and_wal(journaled(), &mut store).unwrap();
        assert_eq!(recovered.replay.frames_replayed, 20, "one frame per accepted batch");
        assert_eq!(recovered.replay.records_replayed, elements.len() as u64);
        assert_eq!(recovered.replay.rejected_records, 0);
        let mut undisturbed = EpochedPipeline::new(builder()).unwrap();
        for batch in elements.chunks(1_000) {
            undisturbed.push_elements(batch).unwrap();
        }
        let mut recovered = recovered.pipeline;
        assert_eq!(recovered.publish().unwrap().summary, undisturbed.publish().unwrap().summary);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Characterisation of a governed `SumByKey` run: every tracked-byte
    /// peak and every budget breach, pinned to the value. It scripts the
    /// bare aggregation table under key, byte and mixed caps (single
    /// elements, records and columns, the index doubling at 513 keys), a
    /// budget installed on a non-empty table, the benchmark twin's
    /// never-rejecting byte cap, and a journaled pipeline whose element
    /// batches flush early and whose stage a failed fsync aborts.
    #[test]
    fn governed_sum_by_key_readings_are_pinned() {
        use crate::aggregation::{Aggregation, KeyAggregator};
        use crate::wal::journal::InjectedFault;
        use crate::wal::WalConfig;
        use cws_core::budget::ResourceBudget;

        fn outcome(result: Result<()>) -> String {
            match result {
                Ok(()) => "ok".to_string(),
                Err(CwsError::BudgetExceeded { resource, used, requested, limit }) => {
                    format!("{resource} used {used} requested {requested} limit {limit}")
                }
                Err(other) => panic!("unexpected {other:?}"),
            }
        }
        let mut log: Vec<String> = Vec::new();
        let mut note = |step: &str, result: Result<()>, table: &KeyAggregator| {
            let (keys, peak) = (table.num_keys(), table.peak_tracked_bytes());
            log.push(format!("{step}: {} | keys {keys} peak {peak}", outcome(result)));
        };
        let columns = |keys: &[Key]| {
            let mut columns = RecordColumns::new(2);
            for &key in keys {
                columns.push(key, &[1.0, 2.0]);
            }
            columns
        };
        let table = || KeyAggregator::new(Aggregation::SumByKey, 2, 5);

        // A key cap: a key already held never breaches; new keys are
        // admitted up to the cap and refused one past it, by every surface.
        let mut keyed = table();
        keyed.set_budget(&ResourceBudget::unlimited().with_max_keys(3));
        note("keys element", keyed.absorb_element(1, 0, 1.0), &keyed);
        note("keys record", keyed.absorb_record(2, &[1.0, 2.0]), &keyed);
        note("keys update", keyed.absorb_element(1, 1, 2.0), &keyed);
        note("keys columns over", keyed.absorb_columns(&columns(&[3, 4])), &keyed);
        note("keys columns fit", keyed.absorb_columns(&columns(&[3])), &keyed);
        note("keys element over", keyed.absorb_element(5, 0, 1.0), &keyed);
        note("keys record over", keyed.absorb_record(6, &[1.0, 1.0]), &keyed);
        note("keys elements over", keyed.absorb_elements(&[(1, 0, 1.0), (7, 0, 1.0)]), &keyed);
        keyed.flush_columns();
        note("keys flushed", keyed.absorb_element(5, 0, 1.0), &keyed);

        // A byte cap at exactly 512 keys: the 513th doubles the index.
        let mut bytes = table();
        bytes.set_budget(&ResourceBudget::unlimited().with_max_bytes(16_384));
        let fill: Vec<(Key, usize, f64)> = (0..512u64).map(|key| (key, 0, 1.0)).collect();
        note("bytes fill", bytes.absorb_elements(&fill), &bytes);
        note("bytes element over", bytes.absorb_element(512, 0, 1.0), &bytes);
        note("bytes record over", bytes.absorb_record(512, &[1.0, 1.0]), &bytes);
        note("bytes columns over", bytes.absorb_columns(&columns(&[512, 513])), &bytes);
        note("bytes update", bytes.absorb_record(0, &[1.0, 1.0]), &bytes);
        bytes.flush_columns();
        note("bytes flushed", bytes.absorb_element(512, 0, 1.0), &bytes);

        // Both caps: the byte cap refuses a column batch the key cap
        // admits, then the key cap refuses a wider one.
        let mut mixed = table();
        mixed.set_budget(&ResourceBudget::unlimited().with_max_keys(5).with_max_bytes(4_168));
        note("mixed fill", mixed.absorb_columns(&columns(&[1, 2, 3])), &mixed);
        note("mixed bytes over", mixed.absorb_columns(&columns(&[4, 5])), &mixed);
        note("mixed keys over", mixed.absorb_columns(&columns(&[4, 5, 6])), &mixed);
        note("mixed element over", mixed.absorb_element(4, 0, 1.0), &mixed);

        // Budgets installed on a table that already holds ten keys.
        for (name, budget) in [
            ("late keys", ResourceBudget::unlimited().with_max_keys(4)),
            ("late bytes", ResourceBudget::unlimited().with_max_bytes(4_192)),
        ] {
            let mut late = table();
            let ten: Vec<(Key, usize, f64)> = (0..10u64).map(|key| (key, 1, 2.0)).collect();
            late.absorb_elements(&ten).unwrap();
            late.set_budget(&budget);
            note(&format!("{name} update"), late.absorb_element(3, 0, 1.0), &late);
            note(&format!("{name} element over"), late.absorb_element(10, 0, 1.0), &late);
            late.flush_columns();
            note(&format!("{name} flushed"), late.absorb_element(10, 0, 1.0), &late);
        }

        // The benchmark twin's recipe: a byte cap that never rejects.
        let mut twin = table();
        twin.set_budget(&ResourceBudget::unlimited().with_max_bytes(u64::MAX));
        let stream: Vec<(Key, usize, f64)> =
            (0..3_000u64).map(|i| (i * 7 % 2_000, (i % 2) as usize, 1.5)).collect();
        for (index, chunk) in stream.chunks(1_000).enumerate() {
            note(&format!("twin chunk {index}"), twin.absorb_elements(chunk), &twin);
        }

        // A journaled pipeline under a 600-key cap: batches of 250 new keys
        // flush early, a failed fsync aborts a stage after its flush, and a
        // batch wider than the cap is refused by the drained table.
        let root =
            std::env::temp_dir().join(format!("cws-continuous-governed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut epochs = EpochedPipeline::new(
            dispersed_builder()
                .aggregation(Aggregation::SumByKey)
                .budget(ResourceBudget::unlimited().with_max_keys(600))
                .journal(WalConfig::new(root.join("wal"))),
        )
        .unwrap();
        let batch = |first: Key, len: u64| -> Vec<(Key, usize, f64)> {
            (first..first + len).map(|key| (key, (key % 2) as usize, 1.0)).collect()
        };
        let mut pipeline_note = |step: &str, result: Result<()>, epochs: &EpochedPipeline| {
            let table = epochs.current.aggregator().unwrap();
            let (keys, processed) = (table.num_keys(), epochs.processed());
            let peak = epochs.peak_tracked_bytes();
            log.push(format!(
                "{step}: {} | keys {keys} processed {processed} peak {peak}",
                outcome(result)
            ));
        };
        pipeline_note("element", epochs.push_element(100_000, 0, 1.0), &epochs);
        pipeline_note("record", epochs.push_record(100_001, &[1.0, 2.0]), &epochs);
        pipeline_note("columns", epochs.push_columns(&columns(&[100_002, 100_003])), &epochs);
        for index in 0..3 {
            let pushed = epochs.push_elements(&batch(index * 250, 250));
            pipeline_note(&format!("batch {index}"), pushed, &epochs);
        }
        epochs.journal.as_mut().unwrap().fail_next(InjectedFault::Sync);
        let aborted = epochs.push_elements(&batch(750, 400));
        assert!(matches!(aborted, Err(CwsError::Store { .. })), "{aborted:?}");
        pipeline_note("fsync abort", Ok(()), &epochs);
        pipeline_note("retry", epochs.push_elements(&batch(750, 400)), &epochs);
        pipeline_note("too wide", epochs.push_elements(&batch(2_000, 601)), &epochs);
        let published = epochs.publish().unwrap();
        log.push(format!("published {} peak {}", published.records, epochs.peak_tracked_bytes()));
        let _ = std::fs::remove_dir_all(&root);

        let expected = [
            "keys element: ok | keys 1 peak 4120",
            "keys record: ok | keys 2 peak 4144",
            "keys update: ok | keys 2 peak 4144",
            "keys columns over: keys used 2 requested 2 limit 3 | keys 2 peak 4144",
            "keys columns fit: ok | keys 3 peak 4168",
            "keys element over: keys used 3 requested 1 limit 3 | keys 3 peak 4168",
            "keys record over: keys used 3 requested 1 limit 3 | keys 3 peak 4168",
            "keys elements over: keys used 3 requested 1 limit 3 | keys 3 peak 4168",
            "keys flushed: ok | keys 1 peak 4168",
            "bytes fill: ok | keys 512 peak 16384",
            "bytes element over: bytes used 16384 requested 4120 limit 16384 | keys 512 peak 16384",
            "bytes record over: bytes used 16384 requested 4120 limit 16384 | keys 512 peak 16384",
            "bytes columns over: bytes used 16384 requested 4144 limit 16384 | keys 512 peak 16384",
            "bytes update: ok | keys 512 peak 16384",
            "bytes flushed: ok | keys 1 peak 16384",
            "mixed fill: ok | keys 3 peak 4168",
            "mixed bytes over: bytes used 4168 requested 48 limit 4168 | keys 3 peak 4168",
            // `used` is what the table held before the refused push, also
            // after a refusal by the other cap or a budget installed late.
            "mixed keys over: keys used 3 requested 3 limit 5 | keys 3 peak 4168",
            "mixed element over: bytes used 4168 requested 24 limit 4168 | keys 3 peak 4168",
            "late keys update: ok | keys 10 peak 4336",
            "late keys element over: keys used 10 requested 1 limit 4 | keys 10 peak 4336",
            "late keys flushed: ok | keys 1 peak 4336",
            "late bytes update: ok | keys 10 peak 4336",
            "late bytes element over: bytes used 4336 requested 24 limit 4192 | keys 10 peak 4336",
            // The peak keeps what the table held before the flush, also
            // above a byte cap installed late.
            "late bytes flushed: ok | keys 1 peak 4336",
            "twin chunk 0: ok | keys 1000 peak 32192",
            "twin chunk 1: ok | keys 2000 peak 64384",
            "twin chunk 2: ok | keys 2000 peak 64384",
            "element: ok | keys 1 processed 1 peak 4120",
            "record: ok | keys 2 processed 2 peak 4144",
            "columns: ok | keys 4 processed 4 peak 4192",
            "batch 0: ok | keys 254 processed 254 peak 10192",
            "batch 1: ok | keys 504 processed 504 peak 16192",
            "batch 2: ok | keys 250 processed 754 peak 16192",
            "fsync abort: ok | keys 0 processed 754 peak 16192",
            "retry: ok | keys 400 processed 1154 peak 16192",
            "too wide: keys used 0 requested 601 limit 600 | keys 0 processed 1154 peak 16192",
            "published 1154 peak 16192",
        ];
        assert_eq!(log, expected, "\n{}", log.join("\n"));
    }

    /// Sealing an epoch cannot fail: whatever a hostile element stream does
    /// to the aggregation table — sums that overflow, `f64::MAX` maxima,
    /// zero weights, NaN, ∞ and negative poison, a key cap that flushes
    /// early — every publish succeeds, healthy, with the summary a one-shot
    /// twin fed the same pushes finalizes.
    #[test]
    fn publishing_a_hostile_stream_cannot_fail() {
        use crate::aggregation::Aggregation;
        use cws_core::budget::ResourceBudget;

        const CAP: u64 = 8;
        // Runs of eight elements over four keys, each key twice in a row
        // under one assignment: `f64::MAX` twice, then 0 and NaN, ∞ and a
        // negative weight, then two finite weights.
        let hostile: Vec<(Key, usize, f64)> = (0..240u64)
            .map(|i| {
                let key = (i % 80) / 2;
                let weight = match i % 8 {
                    0 | 1 => f64::MAX,
                    2 => 0.0,
                    3 => f64::NAN,
                    4 => f64::INFINITY,
                    5 => -1.0,
                    _ => (i % 5) as f64 + 0.5,
                };
                (key, ((i / 8) % 2) as usize, weight)
            })
            .collect();
        for aggregation in [Aggregation::SumByKey, Aggregation::MaxByKey] {
            for layout in [Layout::Colocated, Layout::Dispersed] {
                let context = format!("{aggregation:?} {layout:?}");
                let builder = || {
                    dispersed_builder()
                        .layout(layout)
                        .aggregation(aggregation)
                        .budget(ResourceBudget::unlimited().with_max_keys(CAP))
                };
                let mut epochs = EpochedPipeline::new(builder()).unwrap();
                for epoch in 0..2 {
                    let mut twin = builder().build().unwrap();
                    let (mut refusals, mut overflows) = (0, 0);
                    // Each run fits the drained table; the stream's 40 keys
                    // flush it early. Half the runs go in as one batch, the
                    // other half's first four elements one at a time.
                    for (index, run) in hostile.chunks(8).enumerate() {
                        let mut pushes = Vec::new();
                        if index % 2 == epoch {
                            pushes.push((epochs.push_elements(run), twin.push_elements(run)));
                        } else {
                            for &(key, assignment, weight) in &run[..4] {
                                pushes.push((
                                    epochs.push_element(key, assignment, weight),
                                    twin.push_element(key, assignment, weight),
                                ));
                            }
                        }
                        for (pushed, expected) in pushes {
                            assert_eq!(format!("{pushed:?}"), format!("{expected:?}"), "{context}");
                            let overflow = |e: &CwsError| e.to_string().contains("overflowed");
                            refusals += u32::from(pushed.is_err());
                            overflows += u32::from(pushed.as_ref().is_err_and(overflow));
                        }
                    }
                    assert!(refusals > 0, "{context}: the stream must be refused somewhere");
                    let sums = aggregation == Aggregation::SumByKey;
                    assert_eq!(overflows > 0, sums, "{context}: only sums overflow");
                    let report = epochs.publish().unwrap();
                    assert!(epochs.degraded().is_none(), "{context}");
                    assert_eq!(*report.summary, twin.finalize().unwrap(), "{context}");
                }
            }
        }
    }

    #[test]
    fn resume_from_restores_serving_after_restart() {
        let mut epochs = EpochedPipeline::new(dispersed_builder()).unwrap();
        epochs.push_record(7, &[1.0, 1.0]).unwrap();
        let report = epochs.publish().unwrap();
        // A "restarted" instance seeded from recovery serves immediately.
        let mut restarted = EpochedPipeline::new(dispersed_builder()).unwrap();
        assert!(restarted.latest().is_none());
        restarted.resume_from(report.epoch, Arc::clone(&report.summary));
        assert_eq!(restarted.latest().unwrap(), report.summary);
        assert_eq!(restarted.epochs_published(), 1);
        assert!(!restarted.is_degraded());
        restarted.push_record(8, &[2.0, 2.0]).unwrap();
        assert_eq!(restarted.publish().unwrap().epoch, 2);
    }

    #[test]
    fn drift_requires_the_dispersed_layout() {
        let publish_one = |builder: PipelineBuilder| {
            let mut epochs = EpochedPipeline::new(builder).unwrap();
            for key in 0..50u64 {
                epochs.push_record(key, &[1.0 + (key % 3) as f64, 1.0]).unwrap();
            }
            epochs.publish().unwrap().summary
        };
        let dispersed = publish_one(dispersed_builder());
        let colocated = publish_one(dispersed_builder().layout(Layout::Colocated));
        for (a, b) in [(&colocated, &dispersed), (&dispersed, &colocated)] {
            assert!(matches!(
                Drift::between(a, b, 0),
                Err(CwsError::UnsupportedEstimator { estimator: "drift", .. })
            ));
        }
        // Snapshots of different configurations are a typed error naming
        // the field, never a panic inside the pairing.
        for (field, builder) in
            [("k", dispersed_builder().k(32)), ("seed", dispersed_builder().seed(10))]
        {
            match Drift::between(&dispersed, &publish_one(builder), 0) {
                Err(CwsError::IncompatibleSummaries { field: found, .. }) => {
                    assert_eq!(found, field)
                }
                other => panic!("expected IncompatibleSummaries on {field}, got {other:?}"),
            }
        }
        assert!(matches!(
            Drift::between(&dispersed, &dispersed, 2),
            Err(CwsError::AssignmentOutOfRange { index: 2, available: 2 })
        ));
    }
}
