//! Property-based tests for the core invariants of the sampling and
//! estimation framework, over generated weight assignments.
//!
//! The cases are drawn from the deterministic harness in `tests/common` (the
//! workspace builds without crates.io access, so `proptest` is replaced by a
//! seeded generator); every property is checked over 64 independent cases.

mod common;

use common::{arb_config, arb_multiweighted, arb_positive_weight, arb_weight, case_rng};
use coordinated_sampling::core::estimate::single::rc_adjusted_weights;
use coordinated_sampling::core::sketch::bottomk::BottomKSketch;
use coordinated_sampling::prelude::*;
use cws_hash::{RandomSource, SeedSequence};

const CASES: u64 = 64;

/// Bottom-k sketches keep at most k keys, sorted by rank, all with positive
/// weight, and the recorded thresholds are consistent.
#[test]
fn bottom_k_sketch_invariants() {
    for case in 0..CASES {
        let rng = &mut case_rng("bottom_k_sketch_invariants", case);
        let n = 1 + rng.next_below(199) as usize;
        let weights: Vec<f64> = (0..n)
            .map(|_| if rng.next_below(3) == 0 { 0.0 } else { arb_positive_weight(rng) })
            .collect();
        let k = 1 + rng.next_below(20) as usize;
        let seed = rng.next_u64();

        let set =
            WeightedSet::from_pairs(weights.iter().enumerate().map(|(key, &w)| (key as Key, w)));
        let sketch = BottomKSketch::sample(&set, k, RankFamily::Ipps, &SeedSequence::new(seed));
        assert!(sketch.len() <= k);
        assert_eq!(sketch.len(), k.min(set.positive_len()));
        let ranks: Vec<f64> = sketch.entries().iter().map(|e| e.rank).collect();
        assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "entries sorted by rank (case {case})");
        assert!(sketch.entries().iter().all(|e| e.weight > 0.0));
        assert!(sketch.kth_rank() <= sketch.next_rank());
        if sketch.len() == k && set.positive_len() > k {
            assert!(sketch.next_rank().is_finite(), "case {case}");
        } else {
            assert!(sketch.next_rank().is_infinite(), "case {case}");
        }
    }
}

/// The RC estimator never under-estimates a sampled key's weight (adjusted
/// weights are w/p with p ≤ 1) and assigns zero to everything else.
#[test]
fn rc_adjusted_weights_dominate_weights() {
    for case in 0..CASES {
        let rng = &mut case_rng("rc_adjusted_weights_dominate_weights", case);
        let n = 1 + rng.next_below(99) as usize;
        let weights: Vec<f64> = (0..n).map(|_| arb_positive_weight(rng)).collect();
        let k = 1 + rng.next_below(16) as usize;
        let seed = rng.next_u64();

        let set =
            WeightedSet::from_pairs(weights.iter().enumerate().map(|(key, &w)| (key as Key, w)));
        let sketch = BottomKSketch::sample(&set, k, RankFamily::Ipps, &SeedSequence::new(seed));
        let adjusted = rc_adjusted_weights(&sketch, RankFamily::Ipps);
        for (key, value) in adjusted.iter() {
            assert!(value >= set.weight(key) - 1e-9, "case {case}: key {key}");
        }
        assert_eq!(adjusted.len(), sketch.len());
    }
}

/// Shared-seed rank vectors are consistent: larger weights never get larger
/// ranks, equal weights get equal ranks, zero weights get +∞.
#[test]
fn shared_seed_ranks_are_consistent() {
    for case in 0..CASES {
        let rng = &mut case_rng("shared_seed_ranks_are_consistent", case);
        let n = 2 + rng.next_below(4) as usize;
        let weights: Vec<f64> = (0..n).map(|_| arb_weight(rng)).collect();
        let key = rng.next_u64();
        let seed = rng.next_u64();

        let generator =
            RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, seed).unwrap();
        let ranks = generator.rank_vector(key, &weights);
        for a in 0..weights.len() {
            for b in 0..weights.len() {
                if weights[a] > weights[b] {
                    assert!(ranks[a] <= ranks[b], "case {case}: monotonicity");
                }
                if weights[a] == weights[b] {
                    assert_eq!(ranks[a].to_bits(), ranks[b].to_bits(), "case {case}");
                }
            }
            if weights[a] == 0.0 {
                assert!(ranks[a].is_infinite(), "case {case}");
            }
        }
    }
}

/// Structural invariants of summaries and estimators for arbitrary data and
/// configurations: estimators are defined on every retained key, max ≥ min ≥
/// 0 per key, L1 = max − min, and the s-set selection is a subset of the
/// l-set selection.
#[test]
fn summary_and_estimator_invariants() {
    for case in 0..CASES {
        let rng = &mut case_rng("summary_and_estimator_invariants", case);
        let data = arb_multiweighted(rng, 60);
        let config = arb_config(rng);
        let all: Vec<usize> = (0..data.num_assignments()).collect();

        // Colocated side.
        let colocated = ColocatedSummary::build(&data, &config);
        assert!(colocated.num_distinct_keys() <= data.num_keys());
        let estimator = InclusiveEstimator::new(&colocated);
        let max = estimator.max(&all).unwrap();
        let min = estimator.min(&all).unwrap();
        let l1 = estimator.l1(&all).unwrap();
        for record in colocated.records() {
            let key = record.key;
            assert!(max.get(key) >= min.get(key) - 1e-9, "case {case}");
            assert!((l1.get(key) - (max.get(key) - min.get(key))).abs() < 1e-6, "case {case}");
            assert!(min.get(key) >= 0.0, "case {case}");
        }

        // Dispersed side (skip unsupported estimators for independent mode).
        let dispersed = DispersedSummary::build(&data, &config);
        assert!(dispersed.num_distinct_keys() >= dispersed.sketch(0).len());
        let estimator = DispersedEstimator::new(&dispersed);
        let min_l = estimator.min(&all, SelectionKind::LSet).unwrap();
        let min_s = estimator.min(&all, SelectionKind::SSet).unwrap();
        // The s-set selection is a subset of the l-set selection, so every
        // key with a positive s-set weight also has a positive l-set weight.
        for (key, value) in min_s.iter() {
            assert!(value >= 0.0, "case {case}");
            assert!(min_l.get(key) > 0.0, "case {case}");
        }
        if config.mode.is_coordinated() {
            let l1 = estimator.l1(&all, SelectionKind::LSet).unwrap();
            assert!(l1.iter().all(|(_, v)| v >= 0.0), "case {case}");
        }
    }
}

/// When the sample size covers the whole population, every estimator is
/// exact on every subpopulation.
#[test]
fn full_sample_is_exact() {
    for case in 0..CASES {
        let rng = &mut case_rng("full_sample_is_exact", case);
        let data = arb_multiweighted(rng, 12);
        let seed = rng.next_u64();
        let threshold = rng.next_below(4);

        let config = SummaryConfig::new(
            data.num_keys().max(1) + 1,
            RankFamily::Ipps,
            CoordinationMode::SharedSeed,
            seed,
        );
        let all: Vec<usize> = (0..data.num_assignments()).collect();
        let predicate = |key: Key| key % 4 >= threshold;

        let colocated = ColocatedSummary::build(&data, &config);
        let estimator = InclusiveEstimator::new(&colocated);
        for aggregate in [
            AggregateFn::SingleAssignment(0),
            AggregateFn::Max(all.clone()),
            AggregateFn::Min(all.clone()),
            AggregateFn::L1(all.clone()),
        ] {
            let exact = exact_aggregate(&data, &aggregate, predicate);
            let estimate = estimator.aggregate(&aggregate).unwrap().subset_total(predicate);
            assert!(
                (estimate - exact).abs() <= exact.abs() * 1e-9 + 1e-9,
                "case {case}, {}: {estimate} vs {exact}",
                aggregate.label()
            );
        }

        let dispersed = DispersedSummary::build(&data, &config);
        let estimator = DispersedEstimator::new(&dispersed);
        let exact_min = exact_aggregate(&data, &AggregateFn::Min(all.clone()), predicate);
        let estimate_min =
            estimator.min(&all, SelectionKind::LSet).unwrap().subset_total(predicate);
        assert!((estimate_min - exact_min).abs() <= exact_min.abs() * 1e-9 + 1e-9, "case {case}");
        let exact_max = exact_aggregate(&data, &AggregateFn::Max(all.clone()), predicate);
        let estimate_max = estimator.max(&all).unwrap().subset_total(predicate);
        assert!((estimate_max - exact_max).abs() <= exact_max.abs() * 1e-9 + 1e-9, "case {case}");
    }
}

/// Stream samplers are order-insensitive and match the offline builders.
#[test]
fn stream_equals_offline_for_any_order() {
    for case in 0..CASES {
        let rng = &mut case_rng("stream_equals_offline_for_any_order", case);
        let data = arb_multiweighted(rng, 80);
        let config = arb_config(rng);
        let reverse = rng.next_below(2) == 1;

        let offline = ColocatedSummary::build(&data, &config);
        let mut sampler = ColocatedStreamSampler::new(config, data.num_assignments());
        let mut rows: Vec<(Key, Vec<f64>)> =
            data.iter().map(|(key, weights)| (key, weights.to_vec())).collect();
        if reverse {
            rows.reverse();
        }
        for (key, weights) in &rows {
            sampler.push_record(*key, weights).unwrap();
        }
        let streamed = sampler.finalize();
        assert_eq!(streamed.records(), offline.records(), "case {case}");
    }
}
