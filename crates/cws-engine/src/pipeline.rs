//! The [`Pipeline`] facade: one builder, one ingestion surface, one
//! finalized [`Summary`] — over every sampling back-end of the workspace.

use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Duration;

use cws_core::budget::{AdmissionControl, Deadline, QuarantinedRecords, ResourceBudget};
use cws_core::columns::RecordColumns;
use cws_core::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
use cws_core::{CoordinationMode, CwsError, Key, RankFamily, Result, WorkerFault};
use cws_stream::{
    merge_disjoint_colocated, merge_disjoint_summaries, ColocatedStreamSampler,
    MultiAssignmentStreamSampler, ShardedDispersedSampler,
};

use crate::aggregation::{Aggregation, KeyAggregator};
use crate::ingest::Ingest;
use crate::plan::EstimateReport;
use crate::summary::Summary;
use crate::wal::WalConfig;

/// Which summary layout the pipeline produces (the paper's two models).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Colocated summary (Section 6): full weight vectors per retained key,
    /// the inclusive estimators, every aggregate including custom functions.
    Colocated,
    /// Dispersed summary (Section 7): one bottom-k sketch per assignment,
    /// the s-set / l-set estimators, shardable ingestion.
    Dispersed,
}

/// How ingestion executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Execution {
    /// Single-threaded ingestion on the calling thread.
    Sequential,
    /// Keys partitioned by hash across worker threads (bit-identical to
    /// sequential at any shard count; dispersed layout only). The
    /// supervision knobs live here because nothing else uses them.
    Sharded {
        /// Number of worker threads (at least one).
        shards: usize,
        /// How long a push waits for a wedged shard before returning
        /// [`CwsError::ShardStalled`]; `None` means
        /// [`ShardedDispersedSampler::DEFAULT_STALL_TIMEOUT`]. Must be
        /// positive.
        stall_timeout: Option<Duration>,
        /// Admission-control policy for pushes into a full in-flight window
        /// (see [`ShardedDispersedSampler::set_admission`]).
        admission: AdmissionControl,
    },
}

/// Builder for [`Pipeline`] — the declarative front door of the engine.
///
/// ```
/// use cws_engine::prelude::*;
/// use cws_core::{AdmissionControl, CoordinationMode, RankFamily};
///
/// let mut pipeline = Pipeline::builder()
///     .assignments(8)
///     .k(256)
///     .rank(RankFamily::Ipps)
///     .coordination(CoordinationMode::SharedSeed)
///     .layout(Layout::Dispersed)
///     .execution(Execution::Sharded {
///         shards: 2,
///         stall_timeout: None,
///         admission: AdmissionControl::Block,
///     })
///     .aggregation(Aggregation::SumByKey)
///     .seed(42)
///     .build()
///     .unwrap();
/// // Unaggregated elements: the same key may arrive many times.
/// pipeline.push_element(7, 0, 10.0).unwrap();
/// pipeline.push_element(7, 0, 32.0).unwrap();
/// pipeline.push_element(9, 3, 5.0).unwrap();
/// let summary = pipeline.finalize().unwrap();
/// assert_eq!(summary.num_assignments(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    k: usize,
    family: RankFamily,
    mode: CoordinationMode,
    layout: Layout,
    execution: Execution,
    aggregation: Aggregation,
    seed: u64,
    assignments: Option<usize>,
    flush_threshold: Option<usize>,
    budget: ResourceBudget,
    deadline: Option<Duration>,
    journal: Option<WalConfig>,
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        Self {
            k: 256,
            family: RankFamily::Ipps,
            mode: CoordinationMode::SharedSeed,
            layout: Layout::Colocated,
            execution: Execution::Sequential,
            aggregation: Aggregation::PreAggregated,
            seed: 0,
            assignments: None,
            flush_threshold: None,
            budget: ResourceBudget::unlimited(),
            deadline: None,
            journal: None,
        }
    }
}

impl PipelineBuilder {
    /// Number of weight assignments every record carries (required).
    #[must_use]
    pub fn assignments(mut self, assignments: usize) -> Self {
        self.assignments = Some(assignments);
        self
    }

    /// Per-assignment sample size `k` (default 256).
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Rank distribution family (default [`RankFamily::Ipps`]).
    #[must_use]
    pub fn rank(mut self, family: RankFamily) -> Self {
        self.family = family;
        self
    }

    /// Coordination mode across assignments (default
    /// [`CoordinationMode::SharedSeed`]).
    #[must_use]
    pub fn coordination(mut self, mode: CoordinationMode) -> Self {
        self.mode = mode;
        self
    }

    /// Summary layout (default [`Layout::Colocated`]).
    #[must_use]
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Execution strategy (default [`Execution::Sequential`]).
    #[must_use]
    pub fn execution(mut self, execution: Execution) -> Self {
        self.execution = execution;
        self
    }

    /// Weight aggregation mode (default [`Aggregation::PreAggregated`]).
    #[must_use]
    pub fn aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Master hash seed shared by all processing sites (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Maximum records per hand-off batch when the aggregation stage drains
    /// into the sampler. Default: unbounded — the whole aggregate is handed
    /// over as **one zero-copy batch**. Set a threshold to bound hand-off
    /// batch sizes instead (e.g. to cap the sharded engine's in-flight
    /// buffers).
    #[must_use]
    pub fn flush_threshold(mut self, records: usize) -> Self {
        self.flush_threshold = Some(records);
        self
    }

    /// Caps the resources governed stages may hold (default: unlimited).
    ///
    /// Byte and key caps bound the aggregation stage's tracked memory: a
    /// push that would breach them first spills the aggregate to the
    /// sampling back-end ("flush early", see
    /// [`KeyAggregator::flush_columns`]) and only fails — with a typed
    /// [`CwsError::BudgetExceeded`] — if even the freshly drained table
    /// cannot hold it. A budget deadline behaves exactly like
    /// [`deadline`](Self::deadline).
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Arms a wall-clock deadline over the pipeline's whole ingest life,
    /// starting at [`build`](Self::build) and checked at every push / chunk
    /// boundary. Pushes after expiry return
    /// [`CwsError::DeadlineExceeded`]; [`finalize`](Ingest::finalize) stays
    /// available either way, so ingested work is never lost to a timeout.
    #[must_use]
    pub fn deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Attaches a write-ahead ingestion journal: every push is journaled
    /// (crash-replayable, see [`crate::wal`]) before it is ingested.
    ///
    /// Journaling needs the epoch barriers of an
    /// [`EpochedPipeline`](crate::continuous::EpochedPipeline); a one-shot
    /// [`build`](Self::build) with a journal configured is rejected as dead
    /// configuration.
    #[must_use]
    pub fn journal(mut self, config: WalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Detaches the journal configuration (the epoched wrapper owns the
    /// journal; the inner per-epoch pipelines must build without it).
    pub(crate) fn take_journal(&mut self) -> Option<WalConfig> {
        self.journal.take()
    }

    /// `true` when a journal is configured.
    pub(crate) fn has_journal(&self) -> bool {
        self.journal.is_some()
    }

    /// Validates the configuration and assembles the pipeline.
    ///
    /// # Errors
    /// Returns a typed [`CwsError`] — never panics — when:
    /// * `assignments` is missing or zero, or `k == 0`;
    /// * the rank family does not support the coordination mode
    ///   (independent-differences requires EXP ranks);
    /// * the dispersed layout is combined with independent-differences
    ///   ranks (that construction only exists colocated);
    /// * sharded execution is requested with the colocated layout, with
    ///   zero shards, or with a zero stall timeout;
    /// * a flush threshold of zero is set, or a flush threshold is set
    ///   without an aggregation stage (it would be silently dead
    ///   configuration);
    /// * a byte or key budget is set without an aggregation stage (only
    ///   governed stages track usage; deadlines work on any pipeline);
    /// * a [`journal`](Self::journal) is configured — journaling needs the
    ///   epoch barriers of an
    ///   [`EpochedPipeline`](crate::continuous::EpochedPipeline), so on a
    ///   one-shot pipeline it would be dead configuration.
    pub fn build(self) -> Result<Pipeline> {
        if self.journal.is_some() {
            return Err(CwsError::InvalidParameter {
                name: "journal",
                message: "a write-ahead journal needs epoch barriers; build an EpochedPipeline \
                          instead of a one-shot Pipeline"
                    .to_string(),
            });
        }
        let assignments = self.assignments.ok_or_else(|| CwsError::InvalidParameter {
            name: "assignments",
            message: "the number of weight assignments is required (PipelineBuilder::assignments)"
                .to_string(),
        })?;
        if assignments == 0 {
            return Err(CwsError::InvalidParameter {
                name: "assignments",
                message: "at least one weight assignment is required".to_string(),
            });
        }
        if self.flush_threshold == Some(0) {
            return Err(CwsError::InvalidParameter {
                name: "flush_threshold",
                message: "the aggregation flush threshold must be positive".to_string(),
            });
        }
        if self.flush_threshold.is_some() && !self.aggregation.is_aggregating() {
            return Err(CwsError::InvalidParameter {
                name: "flush_threshold",
                message: "a flush threshold is only meaningful with an aggregation stage \
                          (PipelineBuilder::aggregation(SumByKey | MaxByKey))"
                    .to_string(),
            });
        }
        if (self.budget.max_bytes().is_some() || self.budget.max_keys().is_some())
            && !self.aggregation.is_aggregating()
        {
            return Err(CwsError::InvalidParameter {
                name: "budget",
                message: "byte/key budgets govern the aggregation stage's tracked memory; \
                          configure PipelineBuilder::aggregation(SumByKey | MaxByKey) \
                          (deadlines work on any pipeline)"
                    .to_string(),
            });
        }
        let config = SummaryConfig::try_new(self.k, self.family, self.mode, self.seed)?;
        let backend = match (self.layout, self.execution) {
            (Layout::Colocated, Execution::Sequential) => {
                Backend::Colocated(ColocatedStreamSampler::new(config, assignments))
            }
            (Layout::Colocated, Execution::Sharded { .. }) => {
                return Err(CwsError::InvalidParameter {
                    name: "execution",
                    message: "sharded execution requires the dispersed layout \
                              (colocated summaries retain cross-assignment state)"
                        .to_string(),
                });
            }
            (Layout::Dispersed, execution) => {
                if self.mode == CoordinationMode::IndependentDifferences {
                    return Err(CwsError::InvalidParameter {
                        name: "coordination",
                        message: "independent-differences ranks cannot be realized in the \
                                  dispersed layout; use the colocated layout"
                            .to_string(),
                    });
                }
                match execution {
                    Execution::Sequential => {
                        Backend::HashOnce(MultiAssignmentStreamSampler::new(config, assignments))
                    }
                    Execution::Sharded { shards: 0, .. } => {
                        return Err(CwsError::InvalidParameter {
                            name: "execution",
                            message: "at least one shard is required".to_string(),
                        });
                    }
                    Execution::Sharded { stall_timeout: Some(Duration::ZERO), .. } => {
                        return Err(CwsError::InvalidParameter {
                            name: "stall_timeout",
                            message: "the stall timeout must be positive".to_string(),
                        });
                    }
                    Execution::Sharded { shards, stall_timeout, admission } => {
                        let mut sampler = ShardedDispersedSampler::new(config, assignments, shards);
                        if let Some(timeout) = stall_timeout {
                            sampler.set_stall_timeout(timeout);
                        }
                        sampler.set_admission(admission);
                        Backend::Sharded(sampler)
                    }
                }
            }
        };
        let aggregator = if self.aggregation.is_aggregating() {
            let mut aggregator = KeyAggregator::new(self.aggregation, assignments, self.seed);
            aggregator.set_budget(&self.budget);
            Some(aggregator)
        } else {
            None
        };
        let deadline = self.deadline.or(self.budget.deadline()).map(Deadline::after);
        Ok(Pipeline {
            backend,
            aggregator,
            unsent: None,
            flush_threshold: self.flush_threshold,
            deadline,
        })
    }
}

/// The selected sampling back-end (an implementation detail of
/// [`Pipeline`]; every variant implements [`Ingest`]).
enum Backend {
    Colocated(ColocatedStreamSampler),
    HashOnce(MultiAssignmentStreamSampler),
    Sharded(ShardedDispersedSampler),
}

macro_rules! for_backend {
    ($backend:expr, $sampler:ident => $body:expr) => {
        match $backend {
            Backend::Colocated($sampler) => $body,
            Backend::HashOnce($sampler) => $body,
            Backend::Sharded($sampler) => $body,
        }
    };
}

impl Backend {
    /// Hands `unsent`, a flushed aggregate, to the sampler: one zero-copy
    /// batch by default, `flush_threshold`-sized copies otherwise. `unsent`
    /// is cleared only once the back-end has accepted all of it; after an
    /// error (a sharded back-end shedding the hand-off) it stays, and the
    /// next call re-sends it whole. Rows that reached a shard before the
    /// error are then offered twice, which the candidate sets absorb: the
    /// same key at the same rank keeps one entry.
    #[inline]
    fn hand_off(
        &mut self,
        unsent: &mut Option<Arc<RecordColumns>>,
        flush_threshold: Option<usize>,
    ) -> Result<()> {
        let Some(columns) = unsent.as_ref() else {
            return Ok(());
        };
        match flush_threshold {
            Some(threshold) if threshold < columns.len() => {
                let mut batch = RecordColumns::with_capacity(columns.num_assignments(), threshold);
                let mut start = 0;
                while start < columns.len() {
                    let len = threshold.min(columns.len() - start);
                    batch.extend_from(columns, start, len);
                    for_backend!(&mut *self, sampler => sampler.push_columns(&batch))?;
                    batch.clear();
                    start += len;
                }
            }
            _ => {
                for_backend!(&mut *self, sampler => Ingest::push_columns_shared(sampler, columns))?
            }
        }
        *unsent = None;
        Ok(())
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Colocated(_) => f.write_str("Colocated"),
            Backend::HashOnce(_) => f.write_str("HashOnce"),
            Backend::Sharded(sampler) => write!(f, "Sharded({})", sampler.num_shards()),
        }
    }
}

/// The unified ingestion-and-summarization engine.
///
/// Construct with [`Pipeline::builder`]; feed it through the [`Ingest`]
/// surface (aggregated record streams) or [`Pipeline::push_element`]
/// (unaggregated element streams, when an [`Aggregation`] stage is
/// configured); [`Pipeline::finalize`] drains the aggregation stage into
/// the back-end and returns the layout's [`Summary`], ready for
/// [`QuerySpec`](crate::QuerySpec) evaluation.
#[derive(Debug)]
pub struct Pipeline {
    backend: Backend,
    aggregator: Option<KeyAggregator>,
    /// A flush-early aggregate the back-end has not accepted in full; see
    /// [`Backend::hand_off`].
    unsent: Option<Arc<RecordColumns>>,
    flush_threshold: Option<usize>,
    deadline: Option<Deadline>,
}

impl Pipeline {
    /// Starts a builder with the defaults documented on
    /// [`PipelineBuilder`]'s methods.
    #[must_use]
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// `true` when a pre-aggregation stage is configured (the pipeline
    /// accepts [`Pipeline::push_element`] and repeated keys).
    #[must_use]
    pub fn is_aggregating(&self) -> bool {
        self.aggregator.is_some()
    }

    /// Absorbs one unaggregated element: a fragment of `key`'s weight under
    /// `assignment`. Requires a [`SumByKey` / `MaxByKey`](Aggregation)
    /// stage.
    ///
    /// # Errors
    /// Returns a typed error when no aggregation stage is configured, the
    /// assignment is out of range, or the weight is NaN, infinite or
    /// negative.
    #[inline]
    pub fn push_element(&mut self, key: Key, assignment: usize, weight: f64) -> Result<()> {
        self.governed_push(
            |aggregator| aggregator.absorb_element(key, assignment, weight),
            |_| Err(requires_aggregation("push_element")),
        )
    }

    /// Absorbs a batch of unaggregated elements — bit-identical to pushing
    /// each element through [`Pipeline::push_element`] in order, but the
    /// aggregation table resolves all keys in one tight probe pass before
    /// combining any weight, which is substantially faster on large
    /// streams (see [`KeyAggregator::absorb_elements`]).
    ///
    /// # Errors
    /// As [`Pipeline::push_element`]; the batch is validated before any of
    /// it is absorbed.
    pub fn push_elements(&mut self, elements: &[(Key, usize, f64)]) -> Result<()> {
        self.governed_push(
            |aggregator| aggregator.absorb_elements(elements),
            |_| Err(requires_aggregation("push_elements")),
        )
    }

    /// Merges summaries computed over **disjoint** key partitions (different
    /// shards, sites, or archive files) into the summary of the union
    /// population — bit-identical to ingesting everything through one
    /// pipeline, for both layouts. Takes owned summaries or references
    /// alike, so summaries held behind shared pointers (epoch snapshots,
    /// caches) need not be cloned.
    ///
    /// # Errors
    /// Returns [`CwsError::IncompatibleSummaries`] naming the offending
    /// field when the summaries disagree on layout, `k`, rank family,
    /// coordination mode, seed, assignment count, or effective sample size —
    /// a mismatch is always a typed error, never a silently wrong answer.
    /// Returns [`CwsError::InvalidParameter`] when no summaries are given or
    /// a key appears in more than one partial.
    pub fn merge<S: Borrow<Summary>>(summaries: &[S]) -> Result<Summary> {
        let first = summaries.first().ok_or_else(|| CwsError::InvalidParameter {
            name: "summaries",
            message: "at least one summary is required".to_string(),
        })?;
        let mixed = || CwsError::IncompatibleSummaries {
            field: "layout",
            details: "colocated vs dispersed".to_string(),
        };
        match first.borrow() {
            Summary::Colocated(_) => {
                let parts: Vec<&ColocatedSummary> = summaries
                    .iter()
                    .map(|s| s.borrow().as_colocated().ok_or_else(mixed))
                    .collect::<Result<_>>()?;
                Ok(Summary::Colocated(merge_disjoint_colocated(&parts)?))
            }
            Summary::Dispersed(_) => {
                let parts: Vec<&DispersedSummary> = summaries
                    .iter()
                    .map(|s| s.borrow().as_dispersed().ok_or_else(mixed))
                    .collect::<Result<_>>()?;
                Ok(Summary::Dispersed(merge_disjoint_summaries(&parts)?))
            }
        }
    }

    /// Instructs one worker of a **sharded** back-end to exhibit `fault`
    /// (panic, stall) when it processes its next message — the
    /// deterministic fault-injection entry point the fault battery uses to
    /// exercise supervision and degraded-mode serving end to end. See
    /// [`ShardedDispersedSampler::inject_worker_fault`].
    ///
    /// # Errors
    /// A typed error when the pipeline is not sharded, the shard's worker
    /// is already dead (its harvested failure), or the fault could not be
    /// delivered within the stall timeout.
    ///
    /// # Panics
    /// Panics if `shard` is out of range for the sharded back-end.
    pub fn inject_worker_fault(&mut self, shard: usize, fault: WorkerFault) -> Result<()> {
        match &mut self.backend {
            Backend::Sharded(sampler) => sampler.inject_worker_fault(shard, fault),
            Backend::Colocated(_) | Backend::HashOnce(_) => Err(CwsError::InvalidParameter {
                name: "execution",
                message: "worker-fault injection targets shard workers; this pipeline runs \
                          single-threaded (Execution::Sequential)"
                    .to_string(),
            }),
        }
    }

    /// Snapshots the pipeline's current state into a [`Summary`] without
    /// consuming it — ingestion can continue afterwards. The snapshot is
    /// exactly what [`finalize`](Ingest::finalize) would return right now.
    ///
    /// # Errors
    /// Returns a typed error for sharded pipelines, whose in-flight state
    /// lives on worker threads; use
    /// [`EpochedPipeline`](crate::continuous::EpochedPipeline) to publish
    /// point-in-time summaries from a sharded ingestion loop.
    pub fn snapshot(&self) -> Result<Summary> {
        let backend = match &self.backend {
            Backend::Colocated(sampler) => Backend::Colocated(sampler.clone()),
            Backend::HashOnce(sampler) => Backend::HashOnce(sampler.clone()),
            Backend::Sharded(_) => {
                return Err(CwsError::InvalidParameter {
                    name: "execution",
                    message: "sharded pipelines cannot snapshot in place (worker state lives on \
                              other threads); publish epochs with EpochedPipeline instead"
                        .to_string(),
                });
            }
        };
        let copy = Pipeline {
            backend,
            aggregator: self.aggregator.clone(),
            unsent: self.unsent.clone(),
            flush_threshold: self.flush_threshold,
            deadline: self.deadline,
        };
        copy.finalize()
    }

    /// Snapshots the pipeline ([`snapshot`](Pipeline::snapshot)) and
    /// executes a [`QueryBatch`](crate::plan::QueryBatch) against the
    /// snapshot — the one-liner for "what do these aggregates look like
    /// right now?" mid-ingestion. For heavy concurrent serving, prefer
    /// publishing epochs with
    /// [`EpochedPipeline`](crate::continuous::EpochedPipeline) and batching
    /// against the shared [`Arc<Summary>`] snapshots.
    ///
    /// # Errors
    /// As [`Pipeline::snapshot`] (typed error for sharded pipelines) and
    /// [`QueryBatch::execute`](crate::plan::QueryBatch::execute).
    pub fn query_batch(&self, batch: &crate::plan::QueryBatch) -> Result<Vec<EstimateReport>> {
        batch.execute(&self.snapshot()?)
    }

    /// The aggregation stage's quarantine report: how many poison records
    /// (NaN/∞/negative weight, out-of-range assignment) were diverted to
    /// the dead-letter ring, and the error that condemned the first.
    /// `None` when nothing was quarantined or no aggregation stage is
    /// configured. Read before [`finalize`](Ingest::finalize); the
    /// invariant is `quarantined + processed == offered`.
    #[must_use]
    pub fn quarantined(&self) -> Option<QuarantinedRecords> {
        self.aggregator.as_ref().and_then(KeyAggregator::quarantined)
    }

    /// Drains the quarantine: the report plus the most recent diverted
    /// records themselves (the ring keeps at most
    /// [`KeyAggregator::DEAD_LETTER_CAPACITY`]), resetting the counters.
    pub fn take_quarantined(&mut self) -> Option<crate::aggregation::QuarantineDrain> {
        self.aggregator.as_mut().and_then(KeyAggregator::take_quarantined)
    }

    /// High-water mark of bytes tracked by the aggregation stage over the
    /// pipeline's lifetime (0 without one) — real memory pressure, not the
    /// post-flush level.
    #[must_use]
    pub fn peak_tracked_bytes(&self) -> u64 {
        self.aggregator.as_ref().map_or(0, KeyAggregator::peak_tracked_bytes)
    }

    /// The armed ingest [`Deadline`] check (a no-op without one).
    #[inline]
    fn check_ingest_deadline(&self) -> Result<()> {
        match &self.deadline {
            Some(deadline) => deadline.check("ingest"),
            None => Ok(()),
        }
    }

    /// The one governed push behind every ingestion method. It checks the
    /// ingest deadline; without an aggregation stage it hands the push to
    /// the back-end through `forward`. With one, it first re-sends any
    /// unsent flush-early aggregate, then absorbs through `absorb`. On a
    /// budget breach it flushes early — the aggregate goes to the back-end
    /// exactly as at finalize, the table recharges to empty, lifetime
    /// counters (processed, quarantined, peak bytes) survive — and absorbs
    /// once more.
    #[inline]
    fn governed_push(
        &mut self,
        mut absorb: impl FnMut(&mut KeyAggregator) -> Result<()>,
        forward: impl FnOnce(&mut Backend) -> Result<()>,
    ) -> Result<()> {
        self.check_ingest_deadline()?;
        let Some(aggregator) = &mut self.aggregator else {
            return forward(&mut self.backend);
        };
        self.backend.hand_off(&mut self.unsent, self.flush_threshold)?;
        match absorb(aggregator) {
            Err(CwsError::BudgetExceeded { .. }) => {
                self.unsent = Some(Arc::new(aggregator.flush_columns()));
                self.backend.hand_off(&mut self.unsent, self.flush_threshold)?;
                absorb(aggregator)
            }
            other => other,
        }
    }
}

/// The typed error of an element push into a pipeline without an
/// aggregation stage.
fn requires_aggregation(method: &str) -> CwsError {
    CwsError::InvalidParameter {
        name: "aggregation",
        message: format!(
            "{method} requires an aggregation stage \
             (PipelineBuilder::aggregation(SumByKey | MaxByKey))"
        ),
    }
}

impl Ingest for Pipeline {
    fn num_assignments(&self) -> usize {
        for_backend!(&self.backend, sampler => Ingest::num_assignments(sampler))
    }

    /// With an aggregation stage, progress counts accepted fragments
    /// (elements and record-shaped fragments); without one, accepted
    /// records.
    fn processed(&self) -> u64 {
        match &self.aggregator {
            Some(aggregator) => aggregator.absorbed(),
            None => for_backend!(&self.backend, sampler => Ingest::processed(sampler)),
        }
    }

    fn push_record(&mut self, key: Key, weights: &[f64]) -> Result<()> {
        self.governed_push(
            |aggregator| aggregator.absorb_record(key, weights),
            |backend| for_backend!(backend, sampler => Ingest::push_record(sampler, key, weights)),
        )
    }

    fn push_columns(&mut self, columns: &RecordColumns) -> Result<()> {
        self.governed_push(
            |aggregator| aggregator.absorb_columns(columns),
            |backend| for_backend!(backend, sampler => Ingest::push_columns(sampler, columns)),
        )
    }

    fn push_columns_shared(&mut self, columns: &Arc<RecordColumns>) -> Result<()> {
        self.governed_push(
            |aggregator| aggregator.absorb_columns(columns),
            |backend| for_backend!(backend, sampler => Ingest::push_columns_shared(sampler, columns)),
        )
    }

    fn finalize(mut self) -> Result<Summary> {
        if let Some(aggregator) = self.aggregator.take() {
            self.backend.hand_off(&mut self.unsent, self.flush_threshold)?;
            self.unsent = Some(Arc::new(aggregator.into_columns()));
            self.backend.hand_off(&mut self.unsent, self.flush_threshold)?;
        }
        for_backend!(self.backend, sampler => Ingest::finalize(sampler))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineBuilder {
        Pipeline::builder().assignments(2).k(8)
    }

    fn sharded(shards: usize) -> Execution {
        Execution::Sharded { shards, stall_timeout: None, admission: AdmissionControl::Block }
    }

    #[test]
    fn builder_validation_returns_typed_errors() {
        let missing = Pipeline::builder().build().unwrap_err();
        assert!(matches!(missing, CwsError::InvalidParameter { name: "assignments", .. }));
        assert!(base().assignments(0).build().is_err());
        assert!(matches!(base().k(0).build(), Err(CwsError::InvalidParameter { name: "k", .. })));
        assert!(base()
            .rank(RankFamily::Ipps)
            .coordination(CoordinationMode::IndependentDifferences)
            .build()
            .is_err());
        assert!(matches!(
            base()
                .layout(Layout::Dispersed)
                .rank(RankFamily::Exp)
                .coordination(CoordinationMode::IndependentDifferences)
                .build(),
            Err(CwsError::InvalidParameter { name: "coordination", .. })
        ));
        assert!(matches!(
            base().execution(sharded(2)).build(),
            Err(CwsError::InvalidParameter { name: "execution", .. })
        ));
        assert!(matches!(
            base().layout(Layout::Dispersed).execution(sharded(0)).build(),
            Err(CwsError::InvalidParameter { name: "execution", .. })
        ));
        // A journal on a one-shot pipeline is dead configuration: there is
        // no epoch barrier to ever cover (and so prune) what it writes.
        assert!(matches!(
            base().journal(WalConfig::new("/tmp/unused-wal")).build(),
            Err(CwsError::InvalidParameter { name: "journal", .. })
        ));
        assert!(matches!(
            base().aggregation(Aggregation::SumByKey).flush_threshold(0).build(),
            Err(CwsError::InvalidParameter { name: "flush_threshold", .. })
        ));
        // A flush threshold without an aggregation stage would be silently
        // dead configuration — rejected like every other invalid combo.
        assert!(matches!(
            base().flush_threshold(1000).build(),
            Err(CwsError::InvalidParameter { name: "flush_threshold", .. })
        ));
        // Same policy for the governance knobs: zero or dead configuration
        // is a typed build error, not silent acceptance.
        assert!(matches!(
            base()
                .layout(Layout::Dispersed)
                .execution(Execution::Sharded {
                    shards: 2,
                    stall_timeout: Some(Duration::ZERO),
                    admission: AdmissionControl::Block,
                })
                .build(),
            Err(CwsError::InvalidParameter { name: "stall_timeout", .. })
        ));
        assert!(matches!(
            base().budget(ResourceBudget::unlimited().with_max_keys(10)).build(),
            Err(CwsError::InvalidParameter { name: "budget", .. })
        ));
        // Sharded pipelines accept all of them together.
        base()
            .layout(Layout::Dispersed)
            .execution(Execution::Sharded {
                shards: 2,
                stall_timeout: Some(Duration::from_secs(1)),
                admission: AdmissionControl::FailFast { wait: Duration::from_millis(1) },
            })
            .aggregation(Aggregation::SumByKey)
            .budget(ResourceBudget::unlimited().with_max_keys(10))
            .build()
            .unwrap();
        // A deadline needs no aggregation stage.
        base().deadline(Duration::from_secs(3600)).build().unwrap();
    }

    #[test]
    fn governed_pipeline_flushes_early_and_matches_the_uncapped_run() {
        use crate::ingest::Ingest;
        let build = |budget: ResourceBudget| {
            base().aggregation(Aggregation::SumByKey).seed(11).budget(budget).build().unwrap()
        };
        // Each key arrives exactly once, so no flush can split a key's
        // fragments and the capped run must match the uncapped bit-exactly.
        let mut capped = build(ResourceBudget::unlimited().with_max_keys(16));
        let mut uncapped = build(ResourceBudget::unlimited());
        for key in 0..500u64 {
            let weight = ((key % 13) + 1) as f64;
            capped.push_element(key, (key % 2) as usize, weight).unwrap();
            uncapped.push_element(key, (key % 2) as usize, weight).unwrap();
        }
        assert!(capped.peak_tracked_bytes() > 0);
        assert!(capped.peak_tracked_bytes() < uncapped.peak_tracked_bytes());
        assert_eq!(capped.finalize().unwrap(), uncapped.finalize().unwrap());
    }

    #[test]
    fn expired_deadline_rejects_pushes_but_never_loses_ingested_work() {
        use crate::ingest::Ingest;
        let mut pipeline = base()
            .aggregation(Aggregation::SumByKey)
            .deadline(Duration::from_secs(3600))
            .build()
            .unwrap();
        pipeline.push_element(1, 0, 2.0).unwrap();

        let mut expired =
            base().aggregation(Aggregation::SumByKey).deadline(Duration::ZERO).build().unwrap();
        let err = expired.push_element(1, 0, 2.0).unwrap_err();
        assert!(matches!(err, CwsError::DeadlineExceeded { op: "ingest", .. }));
        let err = expired.push_record(1, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, CwsError::DeadlineExceeded { op: "ingest", .. }));
        // Finalize stays available: a timeout never destroys ingested work.
        let summary = expired.finalize().unwrap();
        assert_eq!(summary.num_assignments(), 2);
    }

    #[test]
    fn quarantine_surfaces_through_the_facade() {
        let mut pipeline = base().aggregation(Aggregation::SumByKey).build().unwrap();
        assert!(pipeline.quarantined().is_none());
        pipeline.push_elements(&[(1, 0, 1.0), (2, 0, f64::NAN), (3, 1, 2.0)]).unwrap();
        use crate::ingest::Ingest;
        assert_eq!(pipeline.processed(), 2);
        let report = pipeline.quarantined().expect("the NaN element must be quarantined");
        assert_eq!(report.count, 1);
        let (report, letters) = pipeline.take_quarantined().unwrap();
        assert_eq!(report.count, 1);
        assert_eq!(letters.len(), 1);
        assert_eq!(letters[0].0, 2);
        assert!(pipeline.quarantined().is_none(), "take_quarantined drains the ring");
    }

    #[test]
    fn push_element_requires_an_aggregation_stage() {
        let mut pipeline = base().build().unwrap();
        assert!(!pipeline.is_aggregating());
        assert!(matches!(
            pipeline.push_element(1, 0, 1.0),
            Err(CwsError::InvalidParameter { name: "aggregation", .. })
        ));
        assert!(matches!(
            pipeline.push_elements(&[(1, 0, 1.0)]),
            Err(CwsError::InvalidParameter { name: "aggregation", .. })
        ));
        let mut pipeline = base().aggregation(Aggregation::SumByKey).build().unwrap();
        assert!(pipeline.is_aggregating());
        pipeline.push_element(1, 0, 1.0).unwrap();
        pipeline.push_elements(&[(1, 0, 2.0), (2, 1, 3.0)]).unwrap();
        assert_eq!(pipeline.processed(), 3);
    }

    #[test]
    fn every_valid_backend_combination_builds() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            for aggregation in
                [Aggregation::PreAggregated, Aggregation::SumByKey, Aggregation::MaxByKey]
            {
                let mut executions = vec![Execution::Sequential];
                if layout == Layout::Dispersed {
                    executions.push(sharded(2));
                }
                for execution in executions {
                    let mut pipeline = base()
                        .layout(layout)
                        .execution(execution)
                        .aggregation(aggregation)
                        .build()
                        .unwrap();
                    pipeline.push_record(1, &[1.0, 2.0]).unwrap();
                    let summary = pipeline.finalize().unwrap();
                    assert_eq!(summary.num_assignments(), 2);
                    match layout {
                        Layout::Colocated => assert!(summary.as_colocated().is_some()),
                        Layout::Dispersed => assert!(summary.as_dispersed().is_some()),
                    }
                }
            }
        }
    }
}
