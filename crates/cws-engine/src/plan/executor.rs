//! Executes a planned [`QueryBatch`] against one summary snapshot.
//!
//! Per kernel, the adjusted weights are computed **once**
//! ([`Summary::adjusted_weights`]) and folded **once**; every spec reading
//! the kernel gets its accumulators updated from the same entry stream, in
//! entry order. Each accumulator therefore sees exactly the f64 additions,
//! in exactly the order, of the matching [`AdjustedWeights`] formula
//! (`subset_total`, `subset_variance`, `subset_count`) for its predicate —
//! `tests/planner_parity.rs` pins this bit for bit on both layouts.
//!
//! On colocated summaries the sharing goes one level deeper: the inclusion
//! probability of a record does not depend on the aggregate, so one
//! probability pass is computed per batch and reused by every colocated
//! kernel.
//!
//! [`AdjustedWeights`]: cws_core::estimate::adjusted::AdjustedWeights

use cws_core::budget::Deadline;
use cws_core::variance::{ht_variance_component, normal_ci, ConfidenceInterval, Z_95};
use cws_core::{CwsError, Result};

use crate::plan::ir::{QueryBatch, DEADLINE_CHECK_STRIDE};
use crate::plan::planner::{Binding, Role};
use crate::summary::Summary;

/// The answer to one [`QuerySpec`](crate::plan::QuerySpec): the estimate,
/// how much evidence backs it, and its uncertainty — the HT plug-in
/// variance estimate and the 95% normal-approximation confidence interval.
///
/// `variance`/`ci95` are `None` when the estimator carries no per-key
/// inclusion probabilities: dispersed L1 (a difference of correlated max/min
/// estimators) and ratio-shaped aggregates (average, Jaccard — a quotient of
/// two unbiased estimates has no unbiased variance estimate of this form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// The unbiased estimate of `Σ_{i : filter(i)} f(i)`.
    pub value: f64,
    /// Number of sampled keys that contributed to the estimate (positive
    /// adjusted weight and passing the filter) — a direct sense of how much
    /// evidence backs the number.
    pub observed_keys: usize,
    /// The HT plug-in estimate of `VAR[value]`
    /// (`Σ f(i)²(1/p(i) − 1)/p(i)` over contributing keys), when available.
    pub variance: Option<f64>,
    /// `value ± `[`Z_95`]`·√variance`, when the variance is available.
    pub ci95: Option<ConfidenceInterval>,
}

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

pub(crate) fn execute(batch: &QueryBatch, summary: &Summary) -> Result<Vec<EstimateReport>> {
    let plan = batch.plan()?;
    let deadline = batch.deadline().map(Deadline::after);
    let check = |deadline: &Option<Deadline>| match deadline {
        Some(armed) => armed.check("query"),
        None => Ok(()),
    };
    check(&deadline)?;

    let specs = batch.specs();
    let mut states = vec![SpecState::default(); specs.len()];
    let mut shared_probs: Option<Vec<f64>> = None;

    for (slot, kernel) in plan.kernels().iter().enumerate() {
        check(&deadline)?;
        let adjusted =
            summary.kernel_weights(&kernel.aggregate, kernel.selection, &mut shared_probs)?;
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
        // the same additions in the same (entry) order as the matching
        // adjusted-weight formula — see the module docs. The per-key terms
        // depend only on the entry, so each is computed once per entry, and
        // only if some tap reads it.
        let sums = taps.iter().any(|tap| tap.role == Role::Sum);
        let counts = taps.iter().any(|tap| matches!(tap.role, Role::Count | Role::SumAndCount));
        let supported = adjusted.supported_iter();
        match supported {
            Some(iter) => {
                for (index, (key, weight, selected)) in iter.enumerate() {
                    if index % DEADLINE_CHECK_STRIDE == 0 {
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
                    if index % DEADLINE_CHECK_STRIDE == 0 {
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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cws_core::summary::{ColocatedSummary, DispersedSummary, SummaryConfig};
    use cws_core::{CoordinationMode, MultiWeighted, RankFamily, SelectionKind};

    use super::*;
    use crate::plan::QuerySpec;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..400u64 {
            builder.add(key, 0, ((key % 19) + 1) as f64);
            builder.add(key, 1, if key % 5 == 0 { 0.0 } else { ((key % 13) + 2) as f64 });
            builder.add(key, 2, ((key % 7) * 2) as f64);
        }
        builder.build()
    }

    fn summaries(k: usize, seed: u64) -> (Summary, Summary) {
        let data = fixture();
        let config = SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, seed);
        (
            Summary::Colocated(ColocatedSummary::build(&data, &config)),
            Summary::Dispersed(DispersedSummary::build(&data, &config)),
        )
    }

    #[test]
    fn query_errors_are_typed_on_both_layouts() {
        let (colocated, dispersed) = summaries(20, 1);
        for summary in [&colocated, &dispersed] {
            assert!(matches!(
                summary.query(&QuerySpec::sum(9)),
                Err(CwsError::AssignmentOutOfRange { index: 9, .. })
            ));
            assert!(matches!(
                summary.query(&QuerySpec::l1_of([0, 5])),
                Err(CwsError::AssignmentOutOfRange { index: 5, .. })
            ));
        }
        // Independent dispersed sketches cannot support max.
        let independent = Summary::Dispersed(DispersedSummary::build(
            &fixture(),
            &SummaryConfig::new(20, RankFamily::Ipps, CoordinationMode::Independent, 1),
        ));
        assert!(matches!(
            independent.query(&QuerySpec::max(0, 1)),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(independent.query(&QuerySpec::min(0, 1)).is_ok());
    }

    #[test]
    fn selection_kind_reaches_the_dispersed_estimator() {
        let (_, dispersed) = summaries(40, 11);
        let l_set = dispersed.query(&QuerySpec::min(0, 1).selection(SelectionKind::LSet)).unwrap();
        let s_set = dispersed.query(&QuerySpec::min(0, 1).selection(SelectionKind::SSet)).unwrap();
        // The l-set selection is strictly more inclusive.
        assert!(l_set.observed_keys >= s_set.observed_keys);
        assert_ne!(l_set.value.to_bits(), s_set.value.to_bits());
    }

    /// An expired deadline is a typed error that poisons nothing: the same
    /// summary answers the same spec immediately afterwards.
    #[test]
    fn expired_query_deadline_is_typed_and_poisons_nothing() {
        let (colocated, dispersed) = summaries(30, 5);
        let spec = || QuerySpec::sum(0).filter(|key| key % 2 == 0);
        for summary in [&colocated, &dispersed] {
            let expired = QueryBatch::new().push(spec()).with_deadline(Duration::ZERO);
            let err = expired.execute(summary).unwrap_err();
            assert!(matches!(err, CwsError::DeadlineExceeded { op: "query", budget_ms: 0 }));
            let generous = QueryBatch::new().push(spec()).with_deadline(Duration::from_secs(3600));
            assert_eq!(generous.execute(summary).unwrap(), [summary.query(&spec()).unwrap()]);
        }
    }

    #[test]
    fn dispersed_l1_reports_no_variance() {
        // Dispersed L1 is a difference of correlated max/min estimators; no
        // per-key inclusion probability survives, so variance is None while
        // the colocated layout (one shared probability per record) keeps it.
        let (colocated, dispersed) = summaries(40, 23);
        let report = dispersed.query(&QuerySpec::l1(0, 2)).unwrap();
        assert!(report.variance.is_none() && report.ci95.is_none());
        let report = colocated.query(&QuerySpec::l1(0, 2)).unwrap();
        assert!(report.variance.is_some() && report.ci95.is_some());
    }
}
