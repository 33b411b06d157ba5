//! Stream/offline equivalence tests (ISSUE 1, satellite 3).
//!
//! The one-pass samplers of `cws-stream` must produce exactly the summary
//! that the offline builders of `cws-core` compute from the complete data
//! set — for any arrival order. We feed each sampler a seeded random shuffle
//! of the records (for the dispersed sampler, a shuffle of the individual
//! `(assignment, key, weight)` observations through `push_observation`,
//! interleaving assignments arbitrarily) and require full structural
//! equality with the offline summary.

mod common;

use common::{arb_config, arb_multiweighted, case_rng, shuffle};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::{ColocatedStreamSampler, MultiAssignmentStreamSampler};

const CASES: u64 = 48;

/// `ColocatedStreamSampler` over a shuffled record stream equals the offline
/// `ColocatedSummary` builder.
#[test]
fn colocated_stream_equals_offline_on_shuffled_stream() {
    for case in 0..CASES {
        let rng = &mut case_rng("colocated_shuffled", case);
        let data = arb_multiweighted(rng, 100);
        let config = arb_config(rng);

        let offline = ColocatedSummary::build(&data, &config);

        let mut rows: Vec<(Key, Vec<f64>)> =
            data.iter().map(|(key, weights)| (key, weights.to_vec())).collect();
        shuffle(&mut rows, rng);

        let mut sampler = ColocatedStreamSampler::new(config, data.num_assignments());
        for (key, weights) in &rows {
            sampler.push_record(*key, weights).unwrap();
        }
        let streamed = sampler.finalize();
        assert_eq!(streamed, offline, "case {case}");
    }
}

/// `MultiAssignmentStreamSampler::push_observation` over a shuffled
/// observation stream (assignments interleaved arbitrarily) equals the
/// offline `DispersedSummary` builder.
#[test]
fn dispersed_stream_equals_offline_on_shuffled_stream() {
    for case in 0..CASES {
        let rng = &mut case_rng("dispersed_shuffled", case);
        let data = arb_multiweighted(rng, 100);
        let config = arb_config(rng);

        let offline = DispersedSummary::build(&data, &config);

        let mut observations: Vec<(usize, Key, f64)> = data
            .iter()
            .flat_map(|(key, weights)| {
                weights
                    .iter()
                    .enumerate()
                    .map(move |(assignment, &w)| (assignment, key, w))
                    .collect::<Vec<_>>()
            })
            .collect();
        shuffle(&mut observations, rng);

        let mut sampler = MultiAssignmentStreamSampler::new(config, data.num_assignments());
        for &(assignment, key, weight) in &observations {
            sampler.push_observation(key, assignment, weight).unwrap();
        }
        let streamed = sampler.finalize();
        assert_eq!(streamed, offline, "case {case}");
    }
}

/// The two models agree with each other: the embedded per-assignment sketch
/// of a colocated stream summary is identical to the corresponding sketch of
/// a dispersed stream summary built from the same data and seed.
#[test]
fn colocated_and_dispersed_streams_share_sketches() {
    for case in 0..CASES {
        let rng = &mut case_rng("cross_model", case);
        let data = arb_multiweighted(rng, 80);
        let config = arb_config(rng);

        let mut colocated = ColocatedStreamSampler::new(config, data.num_assignments());
        let mut observations = Vec::new();
        for (key, weights) in data.iter() {
            colocated.push_record(key, weights).unwrap();
            for (assignment, &w) in weights.iter().enumerate() {
                observations.push((key, assignment, w));
            }
        }
        shuffle(&mut observations, rng);
        let mut dispersed = MultiAssignmentStreamSampler::new(config, data.num_assignments());
        for &(key, assignment, weight) in &observations {
            dispersed.push_observation(key, assignment, weight).unwrap();
        }
        let colocated = colocated.finalize();
        let dispersed = dispersed.finalize();

        for assignment in 0..data.num_assignments() {
            let sketch = dispersed.sketch(assignment);
            assert_eq!(
                sketch.len(),
                colocated
                    .records()
                    .iter()
                    .filter(|record| colocated.in_sketch(record.key, assignment))
                    .count(),
                "case {case}, assignment {assignment}"
            );
            for entry in sketch.entries() {
                assert!(
                    colocated.in_sketch(entry.key, assignment),
                    "case {case}: key {} missing from colocated sketch {assignment}",
                    entry.key
                );
            }
        }
    }
}
