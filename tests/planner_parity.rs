//! Batch execution is the same estimator, faster: every `QueryBatch` result
//! must be **bit-identical** to the adjusted-weight formulas of its spec,
//! evaluated on `Summary::adjusted_weights` — across layouts, selections,
//! predicates and assignment sets — and the surfaced confidence intervals
//! must actually cover at their nominal rate over seeded trials.

mod common;

use std::time::Duration;

use common::{case_rng, mean_and_std};
use coordinated_sampling::core::estimate::adjusted::AdjustedWeights;
use coordinated_sampling::core::variance::{normal_ci, Z_95};
use coordinated_sampling::core::CwsError;
use coordinated_sampling::hash::RandomSource;
use coordinated_sampling::prelude::*;

type Pred = fn(Key) -> bool;

/// The predicate grid of the batch specs.
fn predicates() -> [Option<Pred>; 3] {
    [None, Some(|key| key % 2 == 0), Some(|key| key % 5 == 1)]
}

fn fixture(keys: u64, salt: u64) -> MultiWeighted {
    let mut rng = case_rng("planner_parity_fixture", salt);
    let mut builder = MultiWeighted::builder(3);
    for key in 0..keys {
        for b in 0..3 {
            let weight = match rng.next_below(3) {
                0 => 0.0,
                1 => 0.01 + rng.next_unit() * 10.0,
                _ => 10.0 + rng.next_unit() * 1000.0,
            };
            builder.add(key, b, weight);
        }
    }
    builder.build()
}

fn summaries(keys: u64, salt: u64, k: usize) -> (Summary, Summary) {
    let data = fixture(keys, salt);
    let config =
        SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, 0xC0DE + salt);
    (
        Summary::Colocated(ColocatedSummary::build(&data, &config)),
        Summary::Dispersed(DispersedSummary::build(&data, &config)),
    )
}

/// Every spec shape answers exactly what its adjusted-weight formulas say:
/// the batch value, observed keys, variance and interval of each spec are
/// bit-identical to `subset_total`, the filtered entry count,
/// `subset_variance` and `normal_ci` over `Summary::adjusted_weights` of its
/// aggregate — across layouts, selections, predicates and assignment sets,
/// with every spec sharing its kernel with the others in one batch.
#[test]
fn batch_is_bit_identical_to_sequential_queries() {
    use AggregateFn::{LthLargest, Max, Min, SingleAssignment, L1};
    let shapes = || {
        [
            (QuerySpec::sum(0), SingleAssignment(0)),
            (QuerySpec::sum(2), SingleAssignment(2)),
            (QuerySpec::max(0, 1), Max(vec![0, 1])),
            (QuerySpec::min(1, 0), Min(vec![0, 1])),
            (QuerySpec::min(1, 2), Min(vec![1, 2])),
            (QuerySpec::l1(0, 2), L1(vec![0, 2])),
            (QuerySpec::max_of([2, 0, 1]), Max(vec![0, 1, 2])),
            (QuerySpec::min_of([0, 1, 2]), Min(vec![0, 1, 2])),
            (QuerySpec::l1_of([0, 1, 2]), L1(vec![0, 1, 2])),
            (
                QuerySpec::lth_largest([0, 1, 2], 1),
                LthLargest { assignments: vec![0, 1, 2], ell: 1 },
            ),
            (
                QuerySpec::lth_largest([2, 1, 0], 2),
                LthLargest { assignments: vec![0, 1, 2], ell: 2 },
            ),
            (
                QuerySpec::lth_largest([0, 1, 2], 3),
                LthLargest { assignments: vec![0, 1, 2], ell: 3 },
            ),
        ]
    };
    for case in 0..6u64 {
        let mut rng = case_rng("planner_parity_cases", case);
        let keys = 100 + rng.next_below(400);
        let k = 8 + rng.next_below(48) as usize;
        let (colocated, dispersed) = summaries(keys, case, k);
        for summary in [&colocated, &dispersed] {
            for selection in [SelectionKind::SSet, SelectionKind::LSet] {
                let mut batch = QueryBatch::new();
                let mut expected = Vec::new();
                for (spec, aggregate) in shapes() {
                    for predicate in predicates() {
                        let spec = spec.clone().selection(selection);
                        batch = batch.push(match predicate {
                            Some(p) => spec.filter(p),
                            None => spec,
                        });
                        expected.push((aggregate.clone(), predicate.unwrap_or(|_| true)));
                    }
                }
                let reports = summary.query_batch(&batch).unwrap();
                assert_eq!(reports.len(), expected.len());
                for (report, (aggregate, pred)) in reports.iter().zip(&expected) {
                    let adjusted = summary.adjusted_weights(aggregate, selection).unwrap();
                    let value = adjusted.subset_total(pred);
                    assert_eq!(
                        report.value.to_bits(),
                        value.to_bits(),
                        "case {case}: batch {report:?} vs formula {value} for {aggregate:?}"
                    );
                    let observed = adjusted.iter().filter(|&(key, _)| pred(key)).count();
                    assert_eq!(report.observed_keys, observed);
                    let variance = adjusted.subset_variance(pred);
                    assert_eq!(report.variance.map(f64::to_bits), variance.map(f64::to_bits));
                    let ci = variance.map(|v| normal_ci(value, v, Z_95));
                    assert_eq!(
                        report.ci95.map(|ci| (ci.lower.to_bits(), ci.upper.to_bits())),
                        ci.map(|ci| (ci.lower.to_bits(), ci.upper.to_bits()))
                    );
                }
            }
        }
    }
}

#[test]
fn count_avg_jaccard_match_the_adjusted_weight_formulas() {
    for case in 0..4u64 {
        let (colocated, dispersed) = summaries(300, 40 + case, 32);
        for summary in [&colocated, &dispersed] {
            for predicate in predicates() {
                let always: Pred = |_| true;
                let pred = predicate.unwrap_or(always);
                let mut batch = QueryBatch::new()
                    .push(QuerySpec::count(1))
                    .push(QuerySpec::avg(1))
                    .push(QuerySpec::jaccard(0, 1));
                if let Some(p) = predicate {
                    batch = QueryBatch::new()
                        .push(QuerySpec::count(1).filter(p))
                        .push(QuerySpec::avg(1).filter(p))
                        .push(QuerySpec::jaccard(0, 1).filter(p));
                }
                let reports = summary.query_batch(&batch).unwrap();

                let adjusted = |aggregate: AggregateFn| -> AdjustedWeights {
                    summary.adjusted_weights(&aggregate, SelectionKind::LSet).unwrap()
                };
                let single = adjusted(AggregateFn::SingleAssignment(1));
                let (count, count_var) = single.subset_count(pred).unwrap();
                assert_eq!(reports[0].value.to_bits(), count.to_bits());
                assert_eq!(reports[0].variance.unwrap().to_bits(), count_var.to_bits());

                let sum = single.subset_total(pred);
                let avg = if count == 0.0 { 0.0 } else { sum / count };
                assert_eq!(reports[1].value.to_bits(), avg.to_bits());
                assert!(reports[1].variance.is_none() && reports[1].ci95.is_none());

                let min_total = adjusted(AggregateFn::Min(vec![0, 1])).subset_total(pred);
                let max_total = adjusted(AggregateFn::Max(vec![0, 1])).subset_total(pred);
                let jaccard = if max_total == 0.0 { 0.0 } else { min_total / max_total };
                assert_eq!(reports[2].value.to_bits(), jaccard.to_bits());
                assert!(reports[2].variance.is_none());
                assert!(reports[2].value >= 0.0 && reports[2].value <= 1.0 + 1e-9);
            }
        }
    }
}

/// Empirical 95% CI coverage over seeded trials, on both layouts: the
/// interval must cover the exact subpopulation sum at close to the nominal
/// rate, and the mean of the variance estimates must track the empirical
/// variance of the estimates (the unbiasedness-harness check applied to the
/// variance estimator itself).
#[test]
fn ci_coverage_is_close_to_nominal() {
    let data = fixture(500, 777);
    let pred: Pred = |key| key % 2 == 0;
    let exact = exact_aggregate(&data, &AggregateFn::SingleAssignment(0), pred);
    for layout in ["colocated", "dispersed"] {
        let trials = 300u64;
        let mut covered = 0usize;
        let mut estimates = Vec::new();
        let mut variance_estimates = Vec::new();
        for trial in 0..trials {
            let config = SummaryConfig::new(
                96,
                RankFamily::Ipps,
                CoordinationMode::SharedSeed,
                9_000 + trial,
            );
            let summary = match layout {
                "colocated" => Summary::Colocated(ColocatedSummary::build(&data, &config)),
                _ => Summary::Dispersed(DispersedSummary::build(&data, &config)),
            };
            let reports = summary
                .query_batch(&QueryBatch::new().push(QuerySpec::sum(0).filter(pred)))
                .unwrap();
            let report = reports[0];
            estimates.push(report.value);
            variance_estimates.push(report.variance.unwrap());
            if report.ci95.unwrap().covers(exact) {
                covered += 1;
            }
        }
        let coverage = covered as f64 / trials as f64;
        assert!(
            (0.85..=1.0).contains(&coverage),
            "{layout}: 95% CI covered the exact value in {coverage:.3} of trials"
        );
        // The mean variance estimate should approximate the true estimator
        // variance (estimated empirically across trials).
        let (_, std) = mean_and_std(&estimates);
        let empirical_variance = std * std;
        let mean_variance =
            variance_estimates.iter().sum::<f64>() / variance_estimates.len() as f64;
        assert!(
            mean_variance > 0.4 * empirical_variance && mean_variance < 2.5 * empirical_variance,
            "{layout}: mean variance estimate {mean_variance} vs empirical {empirical_variance}"
        );
    }
}

#[test]
fn invalid_specs_and_deadlines_are_typed_and_poison_nothing() {
    let (colocated, dispersed) = summaries(200, 99, 24);
    for summary in [&colocated, &dispersed] {
        // Degenerate pair: typed InvalidParameter at plan time.
        let degenerate = QueryBatch::new().push(QuerySpec::jaccard(1, 1));
        assert!(matches!(
            summary.query_batch(&degenerate),
            Err(CwsError::InvalidParameter { name: "assignment_pair", .. })
        ));
        // R is a set on both layouts: an empty set, a repeated assignment
        // or an ℓ outside 1..=|R| fails planning with the same typed error.
        assert!(matches!(
            summary.query(&QuerySpec::max_of([0, 0])),
            Err(CwsError::InvalidParameter { name: "assignments", .. })
        ));
        assert!(matches!(summary.query(&QuerySpec::min_of([])), Err(CwsError::EmptyAssignmentSet)));
        assert!(matches!(
            summary.query(&QuerySpec::lth_largest([0, 1], 3)),
            Err(CwsError::InvalidDependenceOrder { ell: 3, relevant: 2 })
        ));
        // So is the drill-down path, which no plan validates.
        assert!(matches!(
            summary.adjusted_weights(&AggregateFn::Max(vec![0, 0]), SelectionKind::LSet),
            Err(CwsError::InvalidParameter { name: "assignments", .. })
        ));
        // Out-of-range assignment: summary-dependent, typed at execution.
        let out_of_range = QueryBatch::new().push(QuerySpec::sum(7));
        assert!(matches!(
            summary.query_batch(&out_of_range),
            Err(CwsError::AssignmentOutOfRange { index: 7, .. })
        ));
        // Expired deadline: typed, and poisons nothing — the same batch
        // with a generous deadline matches the undeadlined run bit-for-bit.
        let specs = || {
            [
                QuerySpec::sum(0).filter(|key: Key| key % 2 == 0),
                QuerySpec::max(0, 1),
                QuerySpec::jaccard(0, 2),
            ]
        };
        let expired = QueryBatch::new().extend(specs()).with_deadline(Duration::ZERO);
        assert!(matches!(
            summary.query_batch(&expired),
            Err(CwsError::DeadlineExceeded { op: "query", budget_ms: 0 })
        ));
        let generous = QueryBatch::new().extend(specs()).with_deadline(Duration::from_secs(3600));
        let plain = QueryBatch::new().extend(specs());
        let deadlined = summary.query_batch(&generous).unwrap();
        let undeadlined = summary.query_batch(&plain).unwrap();
        for (a, b) in deadlined.iter().zip(&undeadlined) {
            assert_eq!(a.value.to_bits(), b.value.to_bits());
            assert_eq!(a.variance.map(f64::to_bits), b.variance.map(f64::to_bits));
        }
    }
    // An empty batch is a no-op, not an error.
    assert_eq!(colocated.query_batch(&QueryBatch::new()).unwrap().len(), 0);
}

/// The 64-query fleet shape of the `query-stress` CI job:
/// 64 sum queries sharing one kernel, distinct predicates, under a
/// deadline. One kernel pass must serve all of them.
#[test]
fn fleet_batch_shares_one_kernel_and_meets_its_deadline() {
    let (colocated, dispersed) = summaries(2_000, 4242, 256);
    let batch = (0..64u64)
        .map(|lane| QuerySpec::sum(0).filter(move |key: Key| key % 64 == lane))
        .collect::<QueryBatch>()
        .with_deadline(Duration::from_secs(30));
    assert_eq!(batch.plan().unwrap().num_kernels(), 1);
    assert_eq!(batch.plan().unwrap().num_specs(), 64);
    for summary in [&colocated, &dispersed] {
        let reports = summary.query_batch(&batch).unwrap();
        assert_eq!(reports.len(), 64);
        // The 64 lanes partition the population: lane sums add up to the
        // full-population estimate exactly (same addends, disjoint lanes).
        let full = summary.query(&QuerySpec::sum(0)).unwrap();
        let lane_sum: f64 = reports.iter().map(|r| r.value).sum();
        assert!((lane_sum - full.value).abs() <= full.value.abs() * 1e-9);
        for (lane, report) in reports.iter().enumerate() {
            let solo = summary
                .query(&QuerySpec::sum(0).filter(move |key: Key| key % 64 == lane as u64))
                .unwrap();
            assert_eq!(report.value.to_bits(), solo.value.to_bits());
            assert_eq!(report.observed_keys, solo.observed_keys);
            assert!(report.ci95.unwrap().covers(report.value));
        }
        assert!(reports.iter().any(|r| r.observed_keys > 0), "the fleet must observe keys");
    }
}
