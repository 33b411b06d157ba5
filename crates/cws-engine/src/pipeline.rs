//! The [`Pipeline`] facade: one builder, one ingestion surface, one
//! finalized [`Summary`] — over every sampling back-end of the workspace.

use std::borrow::Borrow;
use std::time::Duration;

use cws_core::budget::{Deadline, QuarantinedRecords, ResourceBudget};
use cws_core::columns::RecordColumns;
use cws_core::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
use cws_core::{CoordinationMode, CwsError, Key, RankFamily, Result};
use cws_stream::{
    merge_disjoint_colocated, merge_disjoint_summaries, ColocatedStreamSampler,
    MultiAssignmentStreamSampler,
};

use crate::aggregation::{Aggregation, KeyAggregator, Staged};
use crate::hand_off::sampleable_rows;
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
    /// the s-set / l-set estimators; summaries of disjoint key partitions
    /// combine exactly through [`Pipeline::merge`].
    Dispersed,
}

/// Builder for [`Pipeline`] — the declarative front door of the engine.
///
/// Every pipeline ingests on the caller's thread. To scale out, split the
/// stream by key across several pipelines (threads, processes or sites)
/// and join their summaries with [`Pipeline::merge`], which is bit-exact.
///
/// ```
/// use cws_engine::prelude::*;
/// use cws_core::{CoordinationMode, RankFamily};
///
/// let mut pipeline = Pipeline::builder()
///     .assignments(8)
///     .k(256)
///     .rank(RankFamily::Ipps)
///     .coordination(CoordinationMode::SharedSeed)
///     .layout(Layout::Dispersed)
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
    aggregation: Aggregation,
    seed: u64,
    assignments: Option<usize>,
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
            aggregation: Aggregation::PreAggregated,
            seed: 0,
            assignments: None,
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

    /// Caps the resources governed stages may hold (default: unlimited).
    ///
    /// Byte and key caps bound the aggregation stage's tracked memory: a
    /// push that would breach them first spills the aggregate to the
    /// sampling back-end ("flush early", see
    /// [`KeyAggregator::flush_columns`]) and only fails — with a typed
    /// [`CwsError::BudgetExceeded`] — if even the freshly drained table
    /// cannot hold it.
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
        let backend = match self.layout {
            Layout::Colocated => {
                Backend::Colocated(ColocatedStreamSampler::new(config, assignments))
            }
            Layout::Dispersed => {
                if self.mode == CoordinationMode::IndependentDifferences {
                    return Err(CwsError::InvalidParameter {
                        name: "coordination",
                        message: "independent-differences ranks cannot be realized in the \
                                  dispersed layout; use the colocated layout"
                            .to_string(),
                    });
                }
                Backend::HashOnce(MultiAssignmentStreamSampler::new(config, assignments))
            }
        };
        let aggregator = if self.aggregation.is_aggregating() {
            let mut aggregator = KeyAggregator::new(self.aggregation, assignments, self.seed);
            aggregator.set_budget(&self.budget);
            Some(aggregator)
        } else {
            None
        };
        let deadline = self.deadline.map(Deadline::after);
        Ok(Pipeline { config, backend, aggregator, deadline })
    }
}

/// One push into a pipeline, in the shape its caller made it: what the
/// journaled [`EpochedPipeline`](crate::continuous::EpochedPipeline)
/// frames, then pushes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Push<'a> {
    Record(Key, &'a [f64]),
    Columns(&'a RecordColumns),
    Element(Key, usize, f64),
    Elements(&'a [(Key, usize, f64)]),
}

/// The selected sampling back-end, one per layout (an implementation
/// detail of [`Pipeline`]; both variants implement [`Ingest`]).
#[derive(Clone)]
enum Backend {
    Colocated(ColocatedStreamSampler),
    HashOnce(MultiAssignmentStreamSampler),
}

macro_rules! for_backend {
    ($backend:expr, $sampler:ident => $body:expr) => {
        match $backend {
            Backend::Colocated($sampler) => $body,
            Backend::HashOnce($sampler) => $body,
        }
    };
}

impl Backend {
    /// Hands a drained aggregation table to the sampler as one batch:
    /// only the rows that can still be sampled ([`sampleable_rows`], in
    /// table order), or the whole table when that pre-filter does not
    /// engage. `last` says no hand-off follows (the seal). Either way the
    /// summary is bit-identical to pushing the whole table; the argument
    /// is in `hand_off.rs`.
    fn hand_off(&mut self, config: &SummaryConfig, table: &RecordColumns, last: bool) {
        // A colocated sampler replaces the weight row of a key offered
        // again (one whose fragments straddle a flush-early boundary) only
        // when that offer passes the threshold its sets hold at that
        // moment, and a filtered push moves those thresholds. So a
        // colocated sampler filters only its one and only hand-off.
        let filter = match self {
            Backend::Colocated(sampler) => last && sampler.processed() == 0,
            Backend::HashOnce(_) => true,
        };
        let rows = if filter { sampleable_rows(config, table) } else { None };
        let columns = rows.as_ref().unwrap_or(table);
        // Invariant: the table admits only valid weights; `combine` refuses an overflowing sum.
        for_backend!(self, sampler => sampler.push_columns(columns))
            .expect("an aggregate holds only weights the sampler accepts");
    }

    /// Finalizes the sampler into its layout's summary.
    fn finalize(self) -> Summary {
        match self {
            Backend::Colocated(sampler) => Summary::Colocated(sampler.finalize()),
            Backend::HashOnce(sampler) => Summary::Dispersed(sampler.finalize()),
        }
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Colocated(_) => f.write_str("Colocated"),
            Backend::HashOnce(_) => f.write_str("HashOnce"),
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
    config: SummaryConfig,
    backend: Backend,
    aggregator: Option<KeyAggregator>,
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

    /// Snapshots the pipeline's current state into a [`Summary`] without
    /// consuming it — ingestion can continue afterwards. The snapshot is
    /// exactly what [`finalize`](Ingest::finalize) would return right now.
    #[must_use]
    pub fn snapshot(&self) -> Summary {
        let copy = Pipeline {
            config: self.config,
            backend: self.backend.clone(),
            aggregator: self.aggregator.clone(),
            deadline: self.deadline,
        };
        copy.seal()
    }

    /// Seals the pipeline into its summary: the aggregation stage's last
    /// table goes to the sampler, which finalizes. The hand-off offers only
    /// the table's rows that can still be sampled (see
    /// [`Backend::hand_off`]), so a large table costs one hashing and
    /// counting pass rather than a full stream through the sampler.
    /// Sealing cannot fail.
    pub(crate) fn seal(mut self) -> Summary {
        if let Some(aggregator) = self.aggregator.take() {
            self.backend.hand_off(&self.config, &aggregator.into_columns(), true);
        }
        self.backend.finalize()
    }

    /// Snapshots the pipeline ([`snapshot`](Pipeline::snapshot)) and
    /// executes a [`QueryBatch`](crate::plan::QueryBatch) against the
    /// snapshot — the one-liner for "what do these aggregates look like
    /// right now?" mid-ingestion. For heavy concurrent serving, prefer
    /// publishing epochs with
    /// [`EpochedPipeline`](crate::continuous::EpochedPipeline) and batching
    /// against the shared [`Arc<Summary>`](std::sync::Arc) snapshots.
    ///
    /// # Errors
    /// As [`QueryBatch::execute`](crate::plan::QueryBatch::execute).
    pub fn query_batch(&self, batch: &crate::plan::QueryBatch) -> Result<Vec<EstimateReport>> {
        batch.execute(&self.snapshot())
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

    /// The one governed push behind every ingestion method (and behind
    /// [`stage`](Self::stage)). It checks the ingest deadline; without an
    /// aggregation stage it hands the push to the back-end through
    /// `forward`, and with one it absorbs through `absorb`. On a budget
    /// breach it flushes early — the aggregate goes to the back-end exactly
    /// as at finalize, the table recharges to empty, lifetime counters
    /// (processed, quarantined, peak bytes) survive — and absorbs once
    /// more.
    #[inline]
    fn governed_push<T>(
        &mut self,
        mut absorb: impl FnMut(&mut KeyAggregator) -> Result<T>,
        forward: impl FnOnce(&mut Backend) -> Result<T>,
    ) -> Result<T> {
        self.check_ingest_deadline()?;
        let Some(aggregator) = &mut self.aggregator else {
            return forward(&mut self.backend);
        };
        match absorb(aggregator) {
            Err(CwsError::BudgetExceeded { .. }) => {
                self.backend.hand_off(&self.config, &aggregator.flush_columns(), false);
                absorb(aggregator)
            }
            other => other,
        }
    }
}

/// Staged pushes: the journaled epoch wrapper stages an element batch
/// while its fsync is in flight, then commits or aborts it by the fsync's
/// outcome.
impl Pipeline {
    /// Pushes `push` through the method of its shape.
    pub(crate) fn push(&mut self, push: Push<'_>) -> Result<()> {
        match push {
            Push::Record(key, weights) => self.push_record(key, weights),
            Push::Columns(columns) => self.push_columns(columns),
            Push::Element(key, assignment, weight) => self.push_element(key, assignment, weight),
            Push::Elements(elements) => self.push_elements(elements),
        }
    }

    /// Stages an element batch in the aggregation table: everything
    /// [`push_elements`](Self::push_elements) does short of combining a
    /// weight — the deadline check, the probe pass and admission, flushing early and probing again on a
    /// budget breach. [`commit`](Self::commit) then finishes it exactly as
    /// `push_elements` would have; [`abort`](Self::abort) removes the
    /// staged keys again.
    ///
    /// # Errors
    /// As [`push_elements`](Self::push_elements), with none of the batch
    /// absorbed.
    ///
    /// # Panics
    /// Panics without an aggregation stage.
    pub(crate) fn stage(&mut self, elements: &[(Key, usize, f64)]) -> Result<Staged> {
        self.governed_push(
            |aggregator| aggregator.stage_elements(elements),
            |_| unreachable!("only an aggregating pipeline stages"),
        )
    }

    /// Commits what [`stage`](Self::stage) staged from `elements`.
    ///
    /// # Errors
    /// A sum overflow, as on [`push_elements`](Self::push_elements).
    pub(crate) fn commit(&mut self, staged: Staged, elements: &[(Key, usize, f64)]) -> Result<()> {
        let aggregator = self.aggregator.as_mut().expect("only an aggregating pipeline stages");
        aggregator.commit_elements(staged, elements)
    }

    /// Undoes what [`stage`](Self::stage) staged.
    pub(crate) fn abort(&mut self, staged: Staged) {
        if let Some(aggregator) = self.aggregator.as_mut() {
            aggregator.abort(staged);
        }
    }

    /// The aggregation stage, for tests that compare its state.
    #[cfg(test)]
    pub(crate) fn aggregator(&self) -> Option<&KeyAggregator> {
        self.aggregator.as_ref()
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

    fn finalize(self) -> Result<Summary> {
        Ok(self.seal())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PipelineBuilder {
        Pipeline::builder().assignments(2).k(8)
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
        // A journal on a one-shot pipeline is dead configuration: there is
        // no epoch barrier to ever cover (and so prune) what it writes.
        assert!(matches!(
            base().journal(WalConfig::new("/tmp/unused-wal")).build(),
            Err(CwsError::InvalidParameter { name: "journal", .. })
        ));
        // A byte or key budget without an aggregation stage would be
        // silently dead configuration — a typed build error instead.
        assert!(matches!(
            base().budget(ResourceBudget::unlimited().with_max_keys(10)).build(),
            Err(CwsError::InvalidParameter { name: "budget", .. })
        ));
        base()
            .layout(Layout::Dispersed)
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
    fn a_deadline_too_far_to_represent_never_expires() {
        use crate::ingest::Ingest;
        use crate::plan::{QueryBatch, QuerySpec};
        let mut pipeline = base().deadline(Duration::MAX).build().unwrap();
        pipeline.push_record(1, &[1.0, 2.0]).unwrap();
        let summary = pipeline.finalize().unwrap();
        let batch = QueryBatch::new().push(QuerySpec::sum(0)).with_deadline(Duration::MAX);
        let reports = batch.execute(&summary).unwrap();
        assert_eq!(reports[0].value, 1.0);
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

    /// A record or column batch of the wrong width is a typed error that
    /// absorbs nothing, on every layout and aggregation mode — the same
    /// error the journal returns for it, never a panic in the sampler or
    /// the aggregation table.
    #[test]
    fn wrong_arity_pushes_are_typed_errors() {
        use crate::continuous::EpochedPipeline;
        use crate::ingest::Ingest;

        let dir = std::env::temp_dir().join(format!("cws-pipeline-arity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut journaled =
            EpochedPipeline::new(base().journal(WalConfig::new(dir.join("wal")))).unwrap();
        let mut wide = RecordColumns::new(3);
        wide.push(9, &[1.0, 2.0, 3.0]);
        let narrow = RecordColumns::new(1);
        for layout in [Layout::Colocated, Layout::Dispersed] {
            for aggregation in [Aggregation::PreAggregated, Aggregation::SumByKey] {
                let build = || base().layout(layout).aggregation(aggregation).build().unwrap();
                let mut pipeline = build();
                pipeline.push_record(1, &[1.0, 2.0]).unwrap();
                type PushFn<'a> = &'a dyn Fn(&mut dyn Ingest) -> Result<()>;
                let pushes: [(&str, PushFn<'_>); 4] = [
                    ("short record", &|p| p.push_record(2, &[1.0])),
                    ("long record", &|p| p.push_record(2, &[1.0, 2.0, 3.0])),
                    ("wide columns", &|p| p.push_columns(&wide)),
                    ("narrow columns", &|p| p.push_columns(&narrow)),
                ];
                for (shape, push) in pushes {
                    let context = format!("{layout:?} {aggregation:?} {shape}");
                    let error = push(&mut pipeline).unwrap_err();
                    assert!(
                        matches!(error, CwsError::InvalidParameter { name: "weights", .. }),
                        "{context}: {error:?}"
                    );
                    assert_eq!(pipeline.processed(), 1, "{context}: the push absorbed something");
                    let journal_error = push(&mut journaled).unwrap_err();
                    assert_eq!(error.to_string(), journal_error.to_string(), "{context}");
                }
                let mut twin = build();
                twin.push_record(1, &[1.0, 2.0]).unwrap();
                assert_eq!(pipeline.finalize().unwrap(), twin.finalize().unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_valid_backend_combination_builds() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            for aggregation in
                [Aggregation::PreAggregated, Aggregation::SumByKey, Aggregation::MaxByKey]
            {
                let mut pipeline = base().layout(layout).aggregation(aggregation).build().unwrap();
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
