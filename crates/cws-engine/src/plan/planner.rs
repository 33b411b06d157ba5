//! Groups the specs of a [`QueryBatch`] into shared summary passes.
//!
//! The unit of work is a *kernel*: one adjusted-weight computation,
//! identified by `(aggregate function, selection rule)`. Computing a kernel
//! is the expensive part of query evaluation — it walks every summary record
//! and evaluates inclusion probabilities — so the planner's whole job is to
//! make each distinct kernel appear exactly once, no matter how many specs
//! read from it:
//!
//! * every `Sum` / `Count` / `Avg` spec over assignment `b` shares the
//!   `SingleAssignment(b)` kernel — predicates differ per spec, but
//!   predicate evaluation is pushed into the fold, not into the kernel;
//! * `Max` / `Min` / `L1` / `LthLargest` specs over the same (sorted) set
//!   and selection share the corresponding kernel;
//! * a `Jaccard` spec taps *two* kernels (the `Min` and `Max` of its pair),
//!   sharing each with any other spec that wants it.

use std::collections::HashMap;

use cws_core::aggregates::AggregateFn;
use cws_core::{Result, SelectionKind};

use crate::plan::ir::{AggregateSpec, QueryBatch};

/// One shared adjusted-weight pass: which aggregate, under which dispersed
/// selection rule. Colocated summaries ignore the selection (their inclusive
/// estimator is already maximally inclusive).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Kernel {
    pub(crate) aggregate: AggregateFn,
    pub(crate) selection: SelectionKind,
}

/// How one folded kernel entry feeds one spec's accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Accumulate the adjusted weight (and its variance component) into the
    /// spec's main total: `Sum`, `Max`, `Min`, `L1`, `LthLargest`.
    Sum,
    /// Accumulate `1/p` (and the count variance component): `Count`.
    Count,
    /// Accumulate both the adjusted weight and `1/p`: `Avg` reads both off
    /// one pass.
    SumAndCount,
    /// Accumulate the adjusted weight into the spec's main total (`Jaccard`
    /// numerator, the min kernel).
    RatioNumerator,
    /// Accumulate the adjusted weight into the spec's auxiliary total
    /// (`Jaccard` denominator, the max kernel).
    RatioDenominator,
}

/// One reader of a kernel: the spec index and what it accumulates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tap {
    pub(crate) spec: usize,
    pub(crate) role: Role,
}

/// How a spec's final [`EstimateReport`](crate::plan::EstimateReport) is
/// assembled from its accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Binding {
    /// `value = total`, variance when the kernel retains support.
    Total,
    /// `value = total` (the `Σ 1/p` count), variance always available.
    Count,
    /// `value = total / aux` (`0` when `aux == 0`), no variance — `Avg` and
    /// `Jaccard`.
    Ratio,
}

/// The grouped execution plan of a [`QueryBatch`]: the distinct kernels, the
/// taps reading each kernel, and the per-spec result bindings.
///
/// Build one with [`QueryBatch::plan`]; inspect the sharing with
/// [`QueryPlan::num_kernels`] versus [`QueryPlan::num_specs`].
#[derive(Debug, Clone)]
pub struct QueryPlan {
    kernels: Vec<Kernel>,
    taps: Vec<Vec<Tap>>,
    bindings: Vec<Binding>,
}

impl QueryPlan {
    pub(crate) fn build(batch: &QueryBatch) -> Result<Self> {
        let mut kernels: Vec<Kernel> = Vec::new();
        let mut taps: Vec<Vec<Tap>> = Vec::new();
        let mut slots: HashMap<Kernel, usize> = HashMap::new();
        let mut bindings = Vec::with_capacity(batch.len());
        for (index, spec) in batch.specs().iter().enumerate() {
            spec.aggregate().validate()?;
            let selection = spec.selection_kind();
            let mut tap = |aggregate: AggregateFn, role: Role| {
                let slot =
                    *slots.entry(Kernel { aggregate, selection }).or_insert_with_key(|kernel| {
                        kernels.push(kernel.clone());
                        taps.push(Vec::new());
                        kernels.len() - 1
                    });
                taps[slot].push(Tap { spec: index, role });
            };
            let binding = match spec.aggregate() {
                AggregateSpec::Sum { assignment } => {
                    tap(AggregateFn::SingleAssignment(*assignment), Role::Sum);
                    Binding::Total
                }
                AggregateSpec::Count { assignment } => {
                    tap(AggregateFn::SingleAssignment(*assignment), Role::Count);
                    Binding::Count
                }
                AggregateSpec::Avg { assignment } => {
                    tap(AggregateFn::SingleAssignment(*assignment), Role::SumAndCount);
                    Binding::Ratio
                }
                AggregateSpec::Max { assignments } => {
                    tap(AggregateFn::Max(assignments.clone()), Role::Sum);
                    Binding::Total
                }
                AggregateSpec::Min { assignments } => {
                    tap(AggregateFn::Min(assignments.clone()), Role::Sum);
                    Binding::Total
                }
                AggregateSpec::L1 { assignments } => {
                    tap(AggregateFn::L1(assignments.clone()), Role::Sum);
                    Binding::Total
                }
                AggregateSpec::LthLargest { assignments, ell } => {
                    let assignments = assignments.clone();
                    tap(AggregateFn::LthLargest { assignments, ell: *ell }, Role::Sum);
                    Binding::Total
                }
                AggregateSpec::Jaccard { pair: (a, b) } => {
                    tap(AggregateFn::Min(vec![*a, *b]), Role::RatioNumerator);
                    tap(AggregateFn::Max(vec![*a, *b]), Role::RatioDenominator);
                    Binding::Ratio
                }
            };
            bindings.push(binding);
        }
        Ok(Self { kernels, taps, bindings })
    }

    /// Number of distinct summary passes the plan will run. The shared-pass
    /// win of batching is `num_specs / num_kernels` passes saved.
    #[must_use]
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Number of specs the plan serves.
    #[must_use]
    pub fn num_specs(&self) -> usize {
        self.bindings.len()
    }

    pub(crate) fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    pub(crate) fn taps(&self, kernel: usize) -> &[Tap] {
        &self.taps[kernel]
    }

    pub(crate) fn bindings(&self) -> &[Binding] {
        &self.bindings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ir::QuerySpec;
    use cws_core::CwsError;

    #[test]
    fn sum_count_avg_over_one_assignment_share_a_single_kernel() {
        let batch = QueryBatch::new()
            .push(QuerySpec::sum(1))
            .push(QuerySpec::count(1))
            .push(QuerySpec::avg(1))
            .push(QuerySpec::sum(1).filter(|key| key % 2 == 0));
        let plan = batch.plan().unwrap();
        assert_eq!(plan.num_kernels(), 1);
        assert_eq!(plan.num_specs(), 4);
        assert_eq!(
            plan.kernels()[0],
            Kernel {
                aggregate: AggregateFn::SingleAssignment(1),
                selection: cws_core::SelectionKind::LSet
            }
        );
        let roles: Vec<Role> = plan.taps(0).iter().map(|tap| tap.role).collect();
        assert_eq!(roles, [Role::Sum, Role::Count, Role::SumAndCount, Role::Sum]);
        assert_eq!(
            plan.bindings(),
            [Binding::Total, Binding::Count, Binding::Ratio, Binding::Total]
        );
    }

    #[test]
    fn jaccard_taps_the_min_and_max_kernels_of_its_pair() {
        // The pair is normalized at spec construction, so jaccard(2, 0),
        // min(0, 2) and max(2, 0) all meet on the same two kernels.
        let batch = QueryBatch::new()
            .push(QuerySpec::jaccard(2, 0))
            .push(QuerySpec::min(0, 2))
            .push(QuerySpec::max(2, 0));
        let plan = batch.plan().unwrap();
        assert_eq!(plan.num_kernels(), 2);
        let slot = |aggregate: AggregateFn| {
            plan.kernels().iter().position(|kernel| kernel.aggregate == aggregate).unwrap()
        };
        let min_slot = slot(AggregateFn::Min(vec![0, 2]));
        let max_slot = slot(AggregateFn::Max(vec![0, 2]));
        let min_roles: Vec<Role> = plan.taps(min_slot).iter().map(|tap| tap.role).collect();
        let max_roles: Vec<Role> = plan.taps(max_slot).iter().map(|tap| tap.role).collect();
        assert_eq!(min_roles, [Role::RatioNumerator, Role::Sum]);
        assert_eq!(max_roles, [Role::RatioDenominator, Role::Sum]);
    }

    #[test]
    fn distinct_selections_do_not_share_a_kernel() {
        let batch = QueryBatch::new()
            .push(QuerySpec::min(0, 1))
            .push(QuerySpec::min(0, 1).selection(cws_core::SelectionKind::SSet));
        assert_eq!(batch.plan().unwrap().num_kernels(), 2);
    }

    #[test]
    fn permuted_sets_share_a_kernel() {
        let batch = QueryBatch::new()
            .push(QuerySpec::max_of([2, 0, 1]))
            .push(QuerySpec::max_of([0, 1, 2]).filter(|key| key % 2 == 0))
            .push(QuerySpec::lth_largest([1, 2, 0], 2))
            .push(QuerySpec::lth_largest([0, 2, 1], 2));
        let plan = batch.plan().unwrap();
        assert_eq!(plan.num_kernels(), 2);
        assert_eq!(plan.kernels()[0].aggregate, AggregateFn::Max(vec![0, 1, 2]));
    }

    #[test]
    fn invalid_shapes_fail_planning_with_a_typed_error() {
        for spec in [
            QuerySpec::l1(3, 3),
            QuerySpec::max(0, 0),
            QuerySpec::min(1, 1),
            QuerySpec::max_of([2, 0, 2]),
            QuerySpec::lth_largest([1, 1], 1),
        ] {
            let err = QueryBatch::new().push(spec).plan().unwrap_err();
            assert!(matches!(err, CwsError::InvalidParameter { name: "assignments", .. }));
        }
        let err = QueryBatch::new().push(QuerySpec::jaccard(2, 2)).plan().unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "assignment_pair", .. }));
        let err = QueryBatch::new().push(QuerySpec::min_of([])).plan().unwrap_err();
        assert!(matches!(err, CwsError::EmptyAssignmentSet));
        for ell in [0, 3] {
            let err =
                QueryBatch::new().push(QuerySpec::lth_largest([0, 1], ell)).plan().unwrap_err();
            assert!(matches!(err, CwsError::InvalidDependenceOrder { relevant: 2, .. }));
        }
    }
}
