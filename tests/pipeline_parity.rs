//! Facade parity: every `(layout, aggregation, call-shape)` combination
//! reachable from `PipelineBuilder` must produce summaries
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
//!   ingestion, for both layouts and both rank families, including runs
//!   that a key cap hands to the sampler in several flush-early batches.

use std::collections::HashMap;

use coordinated_sampling::data::synthetic::{correlated_zipf, element_stream, Element};
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

fn builder(family: RankFamily, mode: CoordinationMode, layout: Layout) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(ASSIGNMENTS)
        .k(K)
        .rank(family)
        .coordination(mode)
        .layout(layout)
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
    aggregation: Aggregation,
    shape: &str,
) -> Summary {
    let data = dataset();
    let mut pipeline = builder(family, mode, layout).aggregation(aggregation).build().unwrap();
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
        other => panic!("unknown shape {other}"),
    }
    pipeline.finalize().unwrap()
}

#[test]
fn every_configuration_and_call_shape_matches_the_hand_wired_path() {
    for (family, mode) in families_and_modes() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = reference(family, mode, layout);
            for aggregation in
                [Aggregation::PreAggregated, Aggregation::SumByKey, Aggregation::MaxByKey]
            {
                for shape in ["record", "batch", "columns"] {
                    let got = run_shape(family, mode, layout, aggregation, shape);
                    assert_eq!(
                        got, expected,
                        "{family:?}/{mode:?} {layout:?} {aggregation:?} {shape}"
                    );
                }
            }
        }
    }
}

/// The key cap of the flush-early case below: small enough that the
/// 1500-key stream crosses it several times.
const KEY_CAP: usize = 300;

/// `elements`, each tagged with its run: the keys in order of first
/// appearance, cut into runs of `cap`. Sorting by run (stably, so every
/// slot keeps its fragment order) makes each run contiguous; a table capped
/// at `cap` keys then fills exactly at each run's end, so every flush-early
/// hand-off falls between runs and no key's fragments straddle one.
fn key_runs(elements: &[Element], cap: usize) -> Vec<(usize, Element)> {
    let mut run_of = HashMap::new();
    for &(key, _, _) in elements {
        let next = run_of.len() / cap;
        run_of.entry(key).or_insert(next);
    }
    let mut tagged: Vec<(usize, Element)> = elements.iter().map(|&e| (run_of[&e.0], e)).collect();
    tagged.sort_by_key(|&(run, _)| run);
    tagged
}

/// `SumByKey` over a shuffled, fragmented element stream must reproduce
/// pre-aggregated ingestion bit-for-bit (the fragments of each slot sum
/// back to the exact weight; see `element_stream`'s exactness contract).
#[test]
fn sum_by_key_over_fragmented_shuffled_elements_is_bit_identical() {
    let data = dataset();
    let elements = element_stream(&data.to_columns(), 2, 5, 0xE1E);
    assert!(elements.len() > KEYS * 2, "fragmentation produced too few elements");
    let whole: Vec<(usize, Element)> = elements.iter().map(|&element| (0, element)).collect();
    let runs = key_runs(&elements, KEY_CAP);
    assert!(runs.last().unwrap().0 >= 3, "the key cap must force several flush-early hand-offs");
    // No budget and byte accounting under a cap that never rejects take the
    // whole aggregate in one hand-off; the key cap hands it over run by run.
    let tracked = ResourceBudget::unlimited().with_max_bytes(u64::MAX);
    let capped = tracked.with_max_keys(KEY_CAP as u64);
    for (family, mode) in families_and_modes() {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = reference(family, mode, layout);
            let mut peaks = Vec::new();
            for (stream, budget) in [(&whole, None), (&whole, Some(tracked)), (&runs, Some(capped))]
            {
                let mut b = builder(family, mode, layout).aggregation(Aggregation::SumByKey);
                if let Some(budget) = budget {
                    b = b.budget(budget);
                }
                let mut pipeline = b.build().unwrap();
                // Half the stream element by element, half in batches —
                // the two element surfaces must compose bit-exactly. No
                // batch spans two runs.
                let (scalar_half, batched_half) = stream.split_at(stream.len() / 2);
                for &(_, (key, assignment, fragment)) in scalar_half {
                    pipeline.push_element(key, assignment, fragment).unwrap();
                }
                for run in batched_half.chunk_by(|a, b| a.0 == b.0) {
                    for chunk in run.chunks(1013) {
                        let batch: Vec<Element> = chunk.iter().map(|&(_, e)| e).collect();
                        if let Some(cap) = budget.and_then(|budget| budget.max_keys()) {
                            let mut keys: Vec<Key> = batch.iter().map(|e| e.0).collect();
                            keys.sort_unstable();
                            keys.dedup();
                            assert!(keys.len() as u64 <= cap, "a batch wider than the key cap");
                        }
                        pipeline.push_elements(&batch).unwrap();
                    }
                }
                assert_eq!(pipeline.processed(), elements.len() as u64);
                if budget.is_some() {
                    assert!(pipeline.peak_tracked_bytes() > 0, "bytes must be tracked");
                    peaks.push(pipeline.peak_tracked_bytes());
                }
                let got = pipeline.finalize().unwrap();
                assert_eq!(got, expected, "{family:?}/{mode:?} {layout:?} budget {budget:?}");
            }
            assert!(peaks[1] < peaks[0], "the key cap never flushed early: {peaks:?}");
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
            let mut pipeline =
                builder(family, mode, layout).aggregation(Aggregation::MaxByKey).build().unwrap();
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
    let mut pipeline = builder(RankFamily::Ipps, CoordinationMode::SharedSeed, Layout::Dispersed)
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
