//! Executes a planned [`QueryBatch`] against one summary snapshot.
//!
//! Per kernel, the adjusted weights are computed **once** and folded
//! **once**; every spec reading the kernel gets its accumulators updated
//! from the same entry stream, in entry order. Each accumulator therefore
//! sees exactly the f64 additions, in exactly the order, that a standalone
//! [`Query::evaluate`](crate::query::Query::evaluate) of the same spec
//! would perform — which is what makes batch results bit-identical to
//! sequential evaluation (`tests/planner_parity.rs` pins this on both
//! layouts).
//!
//! On colocated summaries the sharing goes one level deeper: the inclusion
//! probability of a record does not depend on the aggregate, so one
//! probability pass ([`InclusiveEstimator::inclusion_probabilities`]) is
//! computed per batch and reused by every colocated kernel
//! ([`InclusiveEstimator::aggregate_with`]).

use cws_core::budget::Deadline;
use cws_core::estimate::adjusted::AdjustedWeights;
use cws_core::variance::{ht_variance_component, normal_ci, Z_95};
use cws_core::{CwsError, DispersedEstimator, InclusiveEstimator, Result};

use crate::plan::ir::QueryBatch;
use crate::plan::planner::{Binding, Kernel, KernelKind, Role};
use crate::query::{validate_stride, EstimateReport};
use crate::summary::Summary;

/// Per-spec accumulator state, fanned out to during kernel folds.
#[derive(Debug, Clone, Copy, Default)]
struct SpecState {
    /// The main total: adjusted weights (sum-shaped roles), `Σ 1/p`
    /// (count), or the ratio numerator.
    total: f64,
    /// The auxiliary total: the count estimate for `Avg`, the denominator
    /// for `Jaccard`.
    aux: f64,
    /// Plug-in variance accumulator for the main total.
    variance: f64,
    /// Whether the kernel behind the main total retained per-key support
    /// (drives variance availability for `Total` bindings).
    supported: bool,
    /// Sampled keys that passed the predicate and contributed.
    observed: usize,
}

/// Computes one kernel's adjusted weights, routed exactly as
/// [`Query::adjusted_weights`](crate::query::Query::adjusted_weights)
/// routes the equivalent aggregate. `shared_probs` caches the colocated
/// probability pass across kernels of the same batch.
fn kernel_weights(
    summary: &Summary,
    kernel: &Kernel,
    shared_probs: &mut Option<Vec<f64>>,
) -> Result<AdjustedWeights> {
    match summary {
        Summary::Colocated(colocated) => {
            let estimator = InclusiveEstimator::new(colocated);
            let probs = shared_probs.get_or_insert_with(|| estimator.inclusion_probabilities());
            estimator.aggregate_with(&kernel.aggregate_fn(), probs)
        }
        Summary::Dispersed(dispersed) => {
            let estimator = DispersedEstimator::new(dispersed);
            match kernel.kind {
                KernelKind::Single(b) => estimator.single(b),
                KernelKind::Max(a, b) => estimator.max(&[a, b]),
                KernelKind::Min(a, b) => estimator.min(&[a, b], kernel.selection),
                KernelKind::L1(a, b) => estimator.l1(&[a, b], kernel.selection),
            }
        }
    }
}

pub(crate) fn execute(batch: &QueryBatch, summary: &Summary) -> Result<Vec<EstimateReport>> {
    let plan = batch.plan()?;
    let stride = validate_stride(batch.check_stride())?;
    let deadline = batch.deadline().map(Deadline::after);
    let check = |deadline: &Option<Deadline>| match deadline {
        Some(armed) => armed.check("query_batch"),
        None => Ok(()),
    };
    check(&deadline)?;

    let specs = batch.specs();
    let mut states = vec![SpecState::default(); specs.len()];
    let mut shared_probs: Option<Vec<f64>> = None;

    for (slot, kernel) in plan.kernels().iter().enumerate() {
        check(&deadline)?;
        let adjusted = kernel_weights(summary, kernel, &mut shared_probs)?;
        check(&deadline)?;
        let taps = plan.taps(slot);
        let has_support = adjusted.has_support();
        if !has_support
            && taps.iter().any(|tap| matches!(tap.role, Role::Count | Role::SumAndCount))
        {
            // Unreachable by construction (count-shaped roles only tap
            // Single kernels, which always retain support), but a typed
            // error beats a wrong answer if a new kernel kind forgets this.
            return Err(CwsError::UnsupportedEstimator {
                estimator: "count",
                reason: "the summary pass retained no per-key inclusion probabilities",
            });
        }
        for tap in taps {
            states[tap.spec].supported |= matches!(tap.role, Role::Sum) && has_support;
        }

        // One fold, fanned out to every tap. Per accumulator this performs
        // the same additions in the same (entry) order as a standalone
        // query fold — see the module docs for why that yields bit-identical
        // results. The per-key terms depend only on the entry, so each is
        // computed once per entry, and only if some tap reads it.
        let sums = taps.iter().any(|tap| tap.role == Role::Sum);
        let counts = taps.iter().any(|tap| matches!(tap.role, Role::Count | Role::SumAndCount));
        let supported = adjusted.supported_iter();
        match supported {
            Some(iter) => {
                for (index, (key, weight, selected)) in iter.enumerate() {
                    if index % stride == 0 {
                        check(&deadline)?;
                    }
                    let variance = if sums {
                        ht_variance_component(selected.value, selected.probability)
                    } else {
                        0.0
                    };
                    let (inverse, count_variance) = if counts {
                        (
                            1.0 / selected.probability,
                            ht_variance_component(1.0, selected.probability),
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    for tap in taps {
                        let spec = &specs[tap.spec];
                        if spec.predicate().is_none_or(|predicate| predicate(key)) {
                            let state = &mut states[tap.spec];
                            match tap.role {
                                Role::Sum => {
                                    state.total += weight;
                                    state.variance += variance;
                                    state.observed += 1;
                                }
                                Role::Count => {
                                    state.total += inverse;
                                    state.variance += count_variance;
                                    state.observed += 1;
                                }
                                Role::SumAndCount => {
                                    state.total += weight;
                                    state.aux += inverse;
                                    state.observed += 1;
                                }
                                Role::RatioNumerator => {
                                    state.total += weight;
                                }
                                Role::RatioDenominator => {
                                    state.aux += weight;
                                    state.observed += 1;
                                }
                            }
                        }
                    }
                }
            }
            None => {
                // Support-free kernel (dispersed L1): only sum-shaped roles
                // can reach here.
                for (index, (key, weight)) in adjusted.iter().enumerate() {
                    if index % stride == 0 {
                        check(&deadline)?;
                    }
                    for tap in taps {
                        let spec = &specs[tap.spec];
                        if spec.predicate().is_none_or(|predicate| predicate(key)) {
                            let state = &mut states[tap.spec];
                            match tap.role {
                                Role::Sum => {
                                    state.total += weight;
                                    state.observed += 1;
                                }
                                Role::RatioNumerator => {
                                    state.total += weight;
                                }
                                Role::RatioDenominator => {
                                    state.aux += weight;
                                    state.observed += 1;
                                }
                                Role::Count | Role::SumAndCount => unreachable!(
                                    "count-shaped roles were rejected above for support-free kernels"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    Ok(plan
        .bindings()
        .iter()
        .zip(states)
        .map(|(binding, state)| match binding {
            Binding::Total => {
                let variance = state.supported.then_some(state.variance);
                EstimateReport {
                    value: state.total,
                    observed_keys: state.observed,
                    variance,
                    ci95: variance.map(|v| normal_ci(state.total, v, Z_95)),
                }
            }
            Binding::Count => EstimateReport {
                value: state.total,
                observed_keys: state.observed,
                variance: Some(state.variance),
                ci95: Some(normal_ci(state.total, state.variance, Z_95)),
            },
            Binding::Ratio => {
                let value = if state.aux == 0.0 { 0.0 } else { state.total / state.aux };
                EstimateReport { value, observed_keys: state.observed, variance: None, ci95: None }
            }
        })
        .collect())
}
