//! The query IR: *what* to estimate (an aggregate over one assignment, a
//! relevant set of assignments or an assignment pair), *over which keys*
//! (an optional a-posteriori predicate) and *with which evidence* (the
//! s-set / l-set selection on dispersed summaries).
//!
//! A [`QueryBatch`] is an ordered list of [`QuerySpec`]s plus batch-wide
//! execution knob (its deadline). Specs are deliberately
//! declarative — no closures over summaries, no layout knowledge — so the
//! planner can regroup them freely.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use cws_core::{CwsError, Key, Result, SelectionKind};

use crate::plan::executor::{self, EstimateReport};
use crate::plan::planner::QueryPlan;
use crate::summary::Summary;

/// How many folded keys pass between wall-clock deadline checks during
/// batched execution.
///
/// The check itself is one `Instant::now()` comparison; at this stride its
/// cost is amortized to noise while an armed deadline is still noticed
/// within ~a thousand predicate evaluations.
pub const DEADLINE_CHECK_STRIDE: usize = 1024;

/// The aggregate a [`QuerySpec`] estimates.
///
/// Single-assignment aggregates (`Sum`, `Count`, `Avg`) name one weight
/// assignment. `Max`, `Min`, `L1` and `LthLargest` name a relevant set `R`
/// of assignments, sorted at construction; `Jaccard` names an *unordered*
/// pair, normalized to `(lo, hi)`. An empty set, a repeated assignment (a
/// degenerate pair included) or an ℓ outside `1..=|R|` is rejected with a
/// typed error at planning time, on either layout.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggregateSpec {
    /// The subpopulation sum `Σ w^(b)(i)`.
    Sum {
        /// The weight assignment `b`.
        assignment: usize,
    },
    /// The number of keys with `w^(b)(i) > 0` in the subpopulation
    /// (HT estimate `Σ 1/p(i)` over sampled contributing keys).
    Count {
        /// The weight assignment `b`.
        assignment: usize,
    },
    /// The mean weight over contributing keys — the ratio of the `Sum` and
    /// `Count` estimates (no unbiased variance estimate; see
    /// [`EstimateReport`]).
    Avg {
        /// The weight assignment `b`.
        assignment: usize,
    },
    /// The max-dominance sum `Σ max_{b ∈ R} w^(b)(i)`.
    Max {
        /// The relevant set `R`, sorted.
        assignments: Vec<usize>,
    },
    /// The min-dominance sum `Σ min_{b ∈ R} w^(b)(i)`.
    Min {
        /// The relevant set `R`, sorted.
        assignments: Vec<usize>,
    },
    /// The range sum `Σ (max_R − min_R)`: the L1 difference when `|R| = 2`.
    L1 {
        /// The relevant set `R`, sorted.
        assignments: Vec<usize>,
    },
    /// The sum of the ℓ-th largest weight over `R` (1-based: `ell = 1` is
    /// `Max`, `ell = |R|` is `Min`; the median is a special case).
    LthLargest {
        /// The relevant set `R`, sorted.
        assignments: Vec<usize>,
        /// Which order statistic, from the largest, in `1..=|R|`.
        ell: usize,
    },
    /// The weighted Jaccard similarity `Σ min / Σ max` (`0` when the max
    /// total is zero, matching
    /// [`weighted_jaccard`](cws_core::aggregates::weighted_jaccard); a ratio
    /// estimate with no variance).
    Jaccard {
        /// The unordered assignment pair, normalized to `(lo, hi)`.
        pair: (usize, usize),
    },
}

impl AggregateSpec {
    /// Validates the spec shape: a relevant set must be non-empty with
    /// distinct assignments and `ell` in `1..=|R|`; a pair must name two
    /// distinct assignments.
    ///
    /// Out-of-range assignment indices are summary-dependent and therefore
    /// surface at execution time (as
    /// [`CwsError::AssignmentOutOfRange`](cws_core::CwsError)), not here.
    pub(crate) fn validate(&self) -> Result<()> {
        match self {
            Self::Sum { .. } | Self::Count { .. } | Self::Avg { .. } => Ok(()),
            Self::Max { assignments } | Self::Min { assignments } | Self::L1 { assignments } => {
                validate_set(assignments)
            }
            Self::LthLargest { assignments, ell } => {
                validate_set(assignments)?;
                if !(1..=assignments.len()).contains(ell) {
                    return Err(CwsError::InvalidDependenceOrder {
                        ell: *ell,
                        relevant: assignments.len(),
                    });
                }
                Ok(())
            }
            Self::Jaccard { pair } => {
                if pair.0 == pair.1 {
                    return Err(CwsError::InvalidParameter {
                        name: "assignment_pair",
                        message: format!(
                            "pair aggregates need two distinct assignments, got ({}, {})",
                            pair.0, pair.1
                        ),
                    });
                }
                Ok(())
            }
        }
    }
}

/// Rejects an empty or repeating relevant set (sorted, so a repeat is
/// adjacent).
fn validate_set(assignments: &[usize]) -> Result<()> {
    if assignments.is_empty() {
        return Err(CwsError::EmptyAssignmentSet);
    }
    if assignments.windows(2).any(|pair| pair[0] == pair[1]) {
        return Err(CwsError::InvalidParameter {
            name: "assignments",
            message: "relevant assignments must be distinct".to_string(),
        });
    }
    Ok(())
}

/// The predicate type of a [`QuerySpec`]: `Send + Sync` so one batch can be
/// shared by many threads querying the same snapshot.
pub type SharedPredicate = Arc<dyn Fn(Key) -> bool + Send + Sync>;

/// One aggregate request inside a [`QueryBatch`].
#[derive(Clone)]
pub struct QuerySpec {
    aggregate: AggregateSpec,
    selection: SelectionKind,
    predicate: Option<SharedPredicate>,
}

impl fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuerySpec")
            .field("aggregate", &self.aggregate)
            .field("selection", &self.selection)
            .field("predicate", &self.predicate.as_ref().map(|_| "<predicate>"))
            .finish()
    }
}

fn sorted<R: IntoIterator<Item = usize>>(assignments: R) -> Vec<usize> {
    let mut assignments: Vec<usize> = assignments.into_iter().collect();
    assignments.sort_unstable();
    assignments
}

impl QuerySpec {
    fn new(aggregate: AggregateSpec) -> Self {
        Self { aggregate, selection: SelectionKind::LSet, predicate: None }
    }

    /// The subpopulation sum over assignment `b`.
    #[must_use]
    pub fn sum(assignment: usize) -> Self {
        Self::new(AggregateSpec::Sum { assignment })
    }

    /// The subpopulation cardinality (keys with positive weight) under
    /// assignment `b`.
    #[must_use]
    pub fn count(assignment: usize) -> Self {
        Self::new(AggregateSpec::Count { assignment })
    }

    /// The mean weight over contributing keys under assignment `b`.
    #[must_use]
    pub fn avg(assignment: usize) -> Self {
        Self::new(AggregateSpec::Avg { assignment })
    }

    /// The max-dominance sum over the assignment pair `{a, b}`.
    #[must_use]
    pub fn max(a: usize, b: usize) -> Self {
        Self::max_of([a, b])
    }

    /// The min-dominance sum over the assignment pair `{a, b}`.
    #[must_use]
    pub fn min(a: usize, b: usize) -> Self {
        Self::min_of([a, b])
    }

    /// The L1 difference over the assignment pair `{a, b}`.
    #[must_use]
    pub fn l1(a: usize, b: usize) -> Self {
        Self::l1_of([a, b])
    }

    /// The weighted Jaccard similarity of the assignment pair `{a, b}`.
    #[must_use]
    pub fn jaccard(a: usize, b: usize) -> Self {
        Self::new(AggregateSpec::Jaccard { pair: if a <= b { (a, b) } else { (b, a) } })
    }

    /// The max-dominance sum over the relevant set `R`.
    #[must_use]
    pub fn max_of<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::Max { assignments: sorted(assignments) })
    }

    /// The min-dominance sum over the relevant set `R`.
    #[must_use]
    pub fn min_of<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::Min { assignments: sorted(assignments) })
    }

    /// The range sum `Σ (max_R − min_R)` over the relevant set `R`.
    #[must_use]
    pub fn l1_of<R: IntoIterator<Item = usize>>(assignments: R) -> Self {
        Self::new(AggregateSpec::L1 { assignments: sorted(assignments) })
    }

    /// The sum of the ℓ-th largest weight over the relevant set `R`
    /// (1-based; `ell = 1` is the max, `ell = |R|` the min).
    #[must_use]
    pub fn lth_largest<R: IntoIterator<Item = usize>>(assignments: R, ell: usize) -> Self {
        Self::new(AggregateSpec::LthLargest { assignments: sorted(assignments), ell })
    }

    /// Restricts the estimate to keys satisfying `predicate` (a-posteriori
    /// subpopulation selection). Predicate evaluation is pushed into the
    /// shared fold — specs with different predicates still share one summary
    /// pass.
    #[must_use]
    pub fn filter<P: Fn(Key) -> bool + Send + Sync + 'static>(mut self, predicate: P) -> Self {
        self.predicate = Some(Arc::new(predicate));
        self
    }

    /// Selection rule for dispersed summaries (default
    /// [`SelectionKind::LSet`], the most inclusive). Colocated summaries
    /// ignore it: their inclusive estimator already conditions on the most
    /// inclusive selection possible.
    #[must_use]
    pub fn selection(mut self, kind: SelectionKind) -> Self {
        self.selection = kind;
        self
    }

    /// The aggregate this spec estimates.
    #[must_use]
    pub fn aggregate(&self) -> &AggregateSpec {
        &self.aggregate
    }

    /// The dispersed-summary selection rule.
    #[must_use]
    pub fn selection_kind(&self) -> SelectionKind {
        self.selection
    }

    /// The a-posteriori key predicate, when one was set.
    #[must_use]
    pub fn predicate(&self) -> Option<&SharedPredicate> {
        self.predicate.as_ref()
    }
}

/// An ordered batch of [`QuerySpec`]s evaluated together: the planner groups
/// specs that can share one pass over the summary, the executor fans every
/// folded key out to all accumulators, and results come back in input order
/// as [`EstimateReport`]s.
#[derive(Debug, Clone, Default)]
pub struct QueryBatch {
    specs: Vec<QuerySpec>,
    deadline: Option<Duration>,
}

impl QueryBatch {
    /// An empty batch (executing it yields an empty result vector).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a spec (builder style). Results are returned in push order.
    #[must_use]
    pub fn push(mut self, spec: QuerySpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Appends every spec from `specs`.
    #[must_use]
    pub fn extend<I: IntoIterator<Item = QuerySpec>>(mut self, specs: I) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Bounds how long one [`QueryBatch::execute`] call may run. The
    /// deadline is armed afresh per execution and checked before every
    /// kernel pass and every
    /// [`DEADLINE_CHECK_STRIDE`]
    /// folded keys; expiry is a
    /// typed [`CwsError::DeadlineExceeded`](cws_core::CwsError) and poisons
    /// nothing — the summary stays queryable.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Number of specs in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// `true` when the batch holds no specs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The specs, in execution (= result) order.
    #[must_use]
    pub fn specs(&self) -> &[QuerySpec] {
        &self.specs
    }

    /// The batch deadline, when one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Plans the batch: validates every spec and groups them into shared
    /// summary passes (kernels). Planning is summary-independent — the same
    /// plan shape serves both layouts.
    ///
    /// # Errors
    /// Returns a typed [`CwsError`] for invalid specs (an empty relevant
    /// set, a repeated assignment, an ℓ outside `1..=|R|`).
    pub fn plan(&self) -> Result<QueryPlan> {
        QueryPlan::build(self)
    }

    /// Plans and executes the batch against `summary`, returning one
    /// [`EstimateReport`] per spec, in input order — each bit-identical to
    /// folding the spec's predicate over
    /// [`Summary::adjusted_weights`] of its aggregate, with the variance and
    /// 95% CI filled in where the estimator supports them.
    ///
    /// # Errors
    /// As [`QueryBatch::plan`]; additionally out-of-range assignments
    /// (summary-dependent) and
    /// [`CwsError::DeadlineExceeded`](cws_core::CwsError) once an armed
    /// [deadline](QueryBatch::with_deadline) expires.
    pub fn execute(&self, summary: &Summary) -> Result<Vec<EstimateReport>> {
        executor::execute(self, summary)
    }
}

impl FromIterator<QuerySpec> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = QuerySpec>>(iter: I) -> Self {
        Self::new().extend(iter)
    }
}
