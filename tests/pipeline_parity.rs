//! Facade parity: every `(layout, execution, aggregation, call-shape)`
//! combination reachable from `PipelineBuilder` must produce summaries
//! **bit-identical** to the corresponding hand-wired sampler path.
//!
//! The facade adds configuration dispatch and (optionally) a pre-aggregation
//! stage in front of the samplers; neither may change a single bit of the
//! finalized summary. Two suites:
//!
//! * the call-shape matrix — pipelines fed aggregated records through every
//!   `Ingest` surface vs the hand-wired `ColocatedStreamSampler` /
//!   `MultiAssignmentStreamSampler` references;
//! * the aggregation parity suite — `SumByKey` over a shuffled element
//!   stream (each key's weight split into 2–5 fragments, slots interleaved)
//!   and `MaxByKey` over running-peak fragments vs pre-aggregated
//!   ingestion, for both layouts, both rank families, sequential and
//!   sharded execution.

use std::sync::Arc;

use coordinated_sampling::data::synthetic::{correlated_zipf, element_stream};
use coordinated_sampling::prelude::*;

const ASSIGNMENTS: usize = 4;
const KEYS: usize = 1500;
const K: usize = 48;
const SEED: u64 = 0xFACADE;

fn dataset() -> MultiWeighted {
    correlated_zipf(KEYS, ASSIGNMENTS, 1.1, 0.75, 0.15, 0x9A9A)
}

fn families_and_modes() -> [(RankFamily, CoordinationMode); 3] {
    [
        (RankFamily::Ipps, CoordinationMode::SharedSeed),
        (RankFamily::Exp, CoordinationMode::SharedSeed),
        (RankFamily::Ipps, CoordinationMode::Independent),
    ]
}

fn builder(
    family: RankFamily,
    mode: CoordinationMode,
    layout: Layout,
    execution: Execution,
) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(ASSIGNMENTS)
        .k(K)
        .rank(family)
        .coordination(mode)
        .layout(layout)
        .execution(execution)
        .seed(SEED)
}

/// The hand-wired reference for a layout: the sampler a caller would have
/// constructed directly before the facade existed.
fn reference(family: RankFamily, mode: CoordinationMode, layout: Layout) -> Summary {
    let data = dataset();
    let config = SummaryConfig::new(K, family, mode, SEED);
    match layout {
        Layout::Colocated => {
            let mut sampler =
                coordinated_sampling::stream::ColocatedStreamSampler::new(config, ASSIGNMENTS);
            for (key, weights) in data.iter() {
                sampler.push_record(key, weights).unwrap();
            }
            Summary::Colocated(sampler.finalize())
        }
        Layout::Dispersed => {
            let mut sampler = coordinated_sampling::stream::MultiAssignmentStreamSampler::new(
                config,
                ASSIGNMENTS,
            );
            for (key, weights) in data.iter() {
                sampler.push_record(key, weights).unwrap();
            }
            Summary::Dispersed(sampler.finalize())
        }
    }
}

/// Drives one pipeline configuration through one call shape.
fn run_shape(
    family: RankFamily,
    mode: CoordinationMode,
    layout: Layout,
    execution: Execution,
    aggregation: Aggregation,
    shape: &str,
) -> Summary {
    let data = dataset();
    let mut pipeline =
        builder(family, mode, layout, execution).aggregation(aggregation).build().unwrap();
    match shape {
        "record" => {
            for (key, weights) in data.iter() {
                pipeline.push_record(key, weights).unwrap();
            }
        }
        "batch" => pipeline.push_batch(data.iter()).unwrap(),
        "columns" => {
            for chunk in data.to_columns().split(190) {
                pipeline.push_columns(&chunk).unwrap();
            }
        }
        "columns_shared" => {
            for chunk in data.to_columns().split(190) {
                pipeline.push_columns_shared(&Arc::new(chunk)).unwrap();
            }
        }
        other => panic!("unknown shape {other}"),
    }
    pipeline.finalize().unwrap()
}

#[test]
fn every_configuration_and_call_shape_matches_the_hand_wired_path() {
    for (family, mode) in families_and_modes() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = reference(family, mode, layout);
            let mut executions = vec![Execution::Sequential];
            if layout == Layout::Dispersed {
                executions.extend([
                    Execution::Sharded {
                        shards: 1,
                        stall_timeout: None,
                        admission: AdmissionControl::Block,
                    },
                    Execution::Sharded {
                        shards: 3,
                        stall_timeout: None,
                        admission: AdmissionControl::Block,
                    },
                ]);
            }
            for execution in executions {
                for aggregation in
                    [Aggregation::PreAggregated, Aggregation::SumByKey, Aggregation::MaxByKey]
                {
                    for shape in ["record", "batch", "columns", "columns_shared"] {
                        let got = run_shape(family, mode, layout, execution, aggregation, shape);
                        assert_eq!(
                            got, expected,
                            "{family:?}/{mode:?} {layout:?} {execution:?} {aggregation:?} {shape}"
                        );
                    }
                }
            }
        }
    }
}

/// `SumByKey` over a shuffled, fragmented element stream must reproduce
/// pre-aggregated ingestion bit-for-bit (the fragments of each slot sum
/// back to the exact weight; see `element_stream`'s exactness contract).
#[test]
fn sum_by_key_over_fragmented_shuffled_elements_is_bit_identical() {
    let data = dataset();
    let elements = element_stream(&data.to_columns(), 2, 5, 0xE1E);
    assert!(elements.len() > KEYS * 2, "fragmentation produced too few elements");
    for (family, mode) in families_and_modes() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = reference(family, mode, layout);
            let mut executions = vec![Execution::Sequential];
            if layout == Layout::Dispersed {
                executions.push(Execution::Sharded {
                    shards: 2,
                    stall_timeout: None,
                    admission: AdmissionControl::Block,
                });
            }
            for execution in executions {
                // Unbounded flush (one zero-copy hand-off batch), a tiny
                // threshold (many copied batches) and byte accounting under
                // a cap that never rejects must agree.
                let tracked = ResourceBudget::unlimited().with_max_bytes(u64::MAX);
                for (flush, budget) in [(None, None), (Some(97), None), (None, Some(tracked))] {
                    let mut b =
                        builder(family, mode, layout, execution).aggregation(Aggregation::SumByKey);
                    if let Some(records) = flush {
                        b = b.flush_threshold(records);
                    }
                    if let Some(budget) = budget {
                        b = b.budget(budget);
                    }
                    let mut pipeline = b.build().unwrap();
                    // Half the stream element by element, half in batches —
                    // the two element surfaces must compose bit-exactly.
                    let (scalar_half, batched_half) = elements.split_at(elements.len() / 2);
                    for &(key, assignment, fragment) in scalar_half {
                        pipeline.push_element(key, assignment, fragment).unwrap();
                    }
                    for batch in batched_half.chunks(1013) {
                        pipeline.push_elements(batch).unwrap();
                    }
                    assert_eq!(pipeline.processed(), elements.len() as u64);
                    if budget.is_some() {
                        assert!(pipeline.peak_tracked_bytes() > 0, "bytes must be tracked");
                    }
                    let got = pipeline.finalize().unwrap();
                    assert_eq!(
                        got, expected,
                        "{family:?}/{mode:?} {layout:?} {execution:?} flush {flush:?} \
                         budget {budget:?}"
                    );
                }
            }
        }
    }
}

/// `MaxByKey`: elements report running observations whose per-slot maximum
/// is the aggregated weight (max is order-independent, so the stream can be
/// fully shuffled).
#[test]
fn max_by_key_over_peak_observations_is_bit_identical() {
    let data = dataset();
    // Per non-zero slot emit up to three observations: two damped readings
    // and the true peak, in a deterministic interleaved order.
    let mut elements = Vec::new();
    for (key, weights) in data.iter() {
        for (assignment, &weight) in weights.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            elements.push((key, assignment, weight * 0.5));
            elements.push((key, assignment, weight));
            elements.push((key, assignment, weight * 0.25));
        }
    }
    // Deterministic shuffle (Fisher–Yates over a SplitMix stream).
    let mut state = 0x5EEDu64;
    for index in (1..elements.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let other = (state >> 16) as usize % (index + 1);
        elements.swap(index, other);
    }
    for (family, mode) in families_and_modes() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = reference(family, mode, layout);
            let mut pipeline = builder(family, mode, layout, Execution::Sequential)
                .aggregation(Aggregation::MaxByKey)
                .build()
                .unwrap();
            for &(key, assignment, observation) in &elements {
                pipeline.push_element(key, assignment, observation).unwrap();
            }
            let got = pipeline.finalize().unwrap();
            assert_eq!(got, expected, "{family:?}/{mode:?} {layout:?}");
        }
    }
}

/// Record-shaped fragments (partial weight vectors) through the aggregation
/// stage: every `Ingest` surface keeps working when aggregation is on.
#[test]
fn aggregating_pipelines_accept_record_shaped_fragments() {
    let data = dataset();
    let expected = reference(RankFamily::Ipps, CoordinationMode::SharedSeed, Layout::Dispersed);
    let mut pipeline = builder(
        RankFamily::Ipps,
        CoordinationMode::SharedSeed,
        Layout::Dispersed,
        Execution::Sequential,
    )
    .aggregation(Aggregation::SumByKey)
    .build()
    .unwrap();
    // Each record split into two half-weight fragments, one pushed as a
    // record and one as part of a columnar batch (w/2 + w/2 == w exactly).
    let mut halves = RecordColumns::new(ASSIGNMENTS);
    let mut half = vec![0.0; ASSIGNMENTS];
    for (key, weights) in data.iter() {
        for (cell, &weight) in half.iter_mut().zip(weights) {
            *cell = weight * 0.5;
        }
        pipeline.push_record(key, &half).unwrap();
        halves.push(key, &half);
    }
    pipeline.push_columns(&halves).unwrap();
    assert_eq!(pipeline.finalize().unwrap(), expected);
}

/// The queries on a facade summary must equal the hand-wired estimator
/// calls they replace, for both layouts.
#[test]
fn queries_match_hand_wired_estimators_exactly() {
    let data = dataset();
    let config = SummaryConfig::new(K, RankFamily::Ipps, CoordinationMode::SharedSeed, SEED);
    let subset = |key: Key| key % 3 == 0;

    let colocated = reference(RankFamily::Ipps, CoordinationMode::SharedSeed, Layout::Colocated);
    let direct = ColocatedSummary::build(&data, &config);
    let estimator = InclusiveEstimator::new(&direct);
    assert_eq!(
        colocated.query(&QuerySpec::sum(1).filter(subset)).unwrap().value,
        estimator.single(1).unwrap().subset_total(subset)
    );
    assert_eq!(
        colocated.query(&QuerySpec::l1(0, 2)).unwrap().value,
        estimator.l1(&[0, 2]).unwrap().total()
    );

    let dispersed = reference(RankFamily::Ipps, CoordinationMode::SharedSeed, Layout::Dispersed);
    let direct = DispersedSummary::build(&data, &config);
    let estimator = DispersedEstimator::new(&direct);
    assert_eq!(
        dispersed.query(&QuerySpec::max_of([0, 1, 2, 3])).unwrap().value,
        estimator.max(&[0, 1, 2, 3]).unwrap().total()
    );
    for kind in [SelectionKind::SSet, SelectionKind::LSet] {
        assert_eq!(
            dispersed
                .query(&QuerySpec::min_of([0, 1, 2]).selection(kind).filter(subset))
                .unwrap()
                .value,
            estimator.min(&[0, 1, 2], kind).unwrap().subset_total(subset)
        );
    }
    assert_eq!(
        dispersed.query(&QuerySpec::lth_largest([0, 1, 2, 3], 2)).unwrap().value,
        estimator.lth_largest(&[0, 1, 2, 3], 2, SelectionKind::LSet).unwrap().total()
    );
}
