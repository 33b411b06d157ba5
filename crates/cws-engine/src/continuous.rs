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
//! clears the state. Lost records are *counted, never hidden* — the
//! recovery route is [`SnapshotStore::recover`](crate::store::SnapshotStore)
//! plus re-ingesting the failed epoch from its durable source.
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
//! mid-batch) keeps its frame, for recovery to replay. While an element batch's fsync runs on the
//! journal's helper thread the aggregation stage resolves its keys, but no
//! weight is combined before the fsync has completed; a failed fsync
//! aborts the staged keys.
//! [`publish_into`](EpochedPipeline::publish_into) writes an epoch barrier
//! (always fsynced) before swapping epochs and prunes fully-covered
//! segments after the snapshot commits. Should [`Ingest::finalize`] ever
//! fail, the destroyed epoch's records are replayed straight back out of
//! the journal and reported as [`DegradedState::records_replayable`]
//! instead of `records_lost`; neither layout's sampler fails there today.
//! After a crash,
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
    /// Records ingested into epochs whose publish failed — data that is in
    /// no published snapshot, is **not** in the write-ahead journal, and
    /// must be re-ingested from an external durable source after recovery.
    /// Publishes that failed only at the *store* layer (snapshot serving
    /// succeeded, durability did not) do not add here; neither do records
    /// a journal still holds (those count as
    /// [`records_replayable`](Self::records_replayable)).
    pub records_lost: u64,
    /// Records that are in no durable snapshot but **are** recoverable
    /// from the write-ahead journal — either already healed back into the
    /// current epoch (finalize failures) or waiting for
    /// [`recover_from_store_and_wal`](crate::wal::recover_from_store_and_wal)
    /// (store-layer failures). Always zero without a journal.
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
    /// the current one and every one closed before it. Zero without a
    /// byte budget (see [`PipelineBuilder::budget`]).
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
    /// configuration, same seed), finalizes the outgoing one, and publishes
    /// its summary as an immutable snapshot.
    ///
    /// # Errors
    /// As [`PipelineBuilder::build`] and [`Ingest::finalize`]. Either way
    /// the service **keeps serving**: [`latest`](Self::latest) still
    /// returns the last good snapshot, ingestion continues into a fresh
    /// same-seed pipeline (build failures leave the current epoch's
    /// pipeline in place instead), and [`degraded`](Self::degraded) carries
    /// the typed reason with staleness counters until a publish succeeds.
    /// A finalize failure would destroy the epoch's in-memory records
    /// (neither layout's sampler fails there today); with a journal
    /// attached they are immediately replayed back into the fresh pipeline
    /// (counted in [`DegradedState::records_replayable`] — nothing is
    /// lost), without one they are counted in
    /// [`DegradedState::records_lost`] and must be re-ingested from an
    /// external durable source.
    pub fn publish(&mut self) -> Result<EpochReport> {
        let replacement = match self.builder.clone().build() {
            Ok(replacement) => replacement,
            Err(error) => {
                self.mark_degraded(error.clone(), 0, 0);
                return Err(error);
            }
        };
        let outgoing = std::mem::replace(&mut self.current, replacement);
        let records = outgoing.processed();
        // Harvest governance counters before finalize consumes the epoch's
        // pipeline — they are lifetime totals, not per-epoch ones.
        self.absorb_quarantine(outgoing.quarantined());
        self.peak_bytes_past = self.peak_bytes_past.max(outgoing.peak_tracked_bytes());
        let summary = match outgoing.finalize() {
            Ok(summary) => Arc::new(summary),
            Err(error) => {
                // The epoch's records are gone from memory, but with a
                // journal they are still on disk tagged `epoch + 1`: replay
                // them into the fresh pipeline right here. This recovers
                // even records the dying back-end had already absorbed.
                // Per-record rejections (poison the original run also
                // rejected) are tolerated, so healing converges to exactly
                // the original accept set.
                let sealing = self.epoch + 1;
                match self.replay_frames(|epoch| epoch == sealing) {
                    Ok(healed) => self.mark_degraded(error.clone(), 0, healed.records_replayed),
                    Err(_) => {
                        // No journal, or an unreadable one: the records are
                        // lost to this process. A journal is now the only
                        // copy; make sure nothing prunes it before an
                        // operator recovers.
                        if let Some(journal) = self.journal.as_mut() {
                            journal.suppress_pruning();
                        }
                        self.mark_degraded(error.clone(), records, 0);
                    }
                }
                return Err(error);
            }
        };
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
                self.mark_degraded(error.clone(), 0, 0);
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
            self.mark_degraded(error.clone(), 0, replayable);
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
    fn mark_degraded(&mut self, reason: CwsError, records_lost: u64, records_replayable: u64) {
        let state = self.degraded.get_or_insert(DegradedState {
            reason: reason.clone(),
            failed_publishes: 0,
            records_lost: 0,
            records_replayable: 0,
        });
        state.reason = reason;
        state.failed_publishes += 1;
        state.records_lost += records_lost;
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
    pub(crate) fn replay_journal(&mut self, stored_epochs: &[u64]) -> Result<ReplayReport> {
        let resumed = self.epoch;
        let mut report = self.replay_frames(|epoch| {
            epoch > resumed || stored_epochs.binary_search(&epoch).is_err()
        })?;
        if let Some(open) = &self.wal_open {
            report.truncated_bytes = open.truncated_bytes;
            report.quarantined_segments = open.quarantined_segments;
            report.removed_temps = open.removed_temps;
        }
        Ok(report)
    }

    /// Re-ingests, oldest first, every journaled data frame whose epoch tag
    /// `replays` selects, through the normal `Ingest` path of the current
    /// pipeline (so rejections match the original run exactly); the
    /// records of data frames it passes over count as skipped. Replayed
    /// records go straight to the pipeline, never back into the journal.
    /// Frames are decoded in place and pushed record by record (never
    /// through a columnar fast path, so a mid-batch rejection cannot
    /// double-ingest a prefix).
    fn replay_frames(&mut self, replays: impl Fn(u64) -> bool) -> Result<ReplayReport> {
        let Some(journal) = self.journal.as_ref() else {
            return Err(CwsError::InvalidParameter {
                name: "journal",
                message: "replay needs a journaled pipeline".to_string(),
            });
        };
        let current = &mut self.current;
        let mut report = ReplayReport::default();
        let mut row = Vec::with_capacity(current.num_assignments());
        journal.for_each_frame(|frame| {
            if matches!(frame, Frame::Barrier { .. }) {
                return;
            }
            if !replays(frame.epoch()) {
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
        self.current.finalize()
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
        // durability, and no records were lost.
        assert_eq!(state.records_lost, 0);
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
