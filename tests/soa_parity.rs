//! Bit-exactness of the structure-of-arrays batch path (ISSUE 3,
//! satellite 3): `MultiAssignmentStreamSampler::push_columns` must match
//! per-record and per-observation ingestion to the bit under duplicate keys,
//! zero weights and batch sizes around the sample size (`1`, `k-1`, `k`,
//! `4k`), for both rank families, with one assignment (a single lane) and
//! with several.

mod common;

use common::{case_rng, MASTER_SEED};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::MultiAssignmentStreamSampler;
use cws_core::columns::RecordColumns;
use cws_hash::RandomSource;

const K: usize = 16;

/// A stream with adversarial structure: ~20% duplicated keys (re-offers of
/// live candidates and of evicted keys), ~25% zero weights, heavy-tailed
/// weight spread.
fn adversarial_records(case: u64, len: usize, assignments: usize) -> Vec<(Key, Vec<f64>)> {
    let rng = &mut case_rng("soa_parity", case);
    let mut records: Vec<(Key, Vec<f64>)> = Vec::with_capacity(len);
    for i in 0..len {
        let key = if i > 0 && rng.next_below(5) == 0 {
            // Re-offer an earlier key (possibly already evicted).
            records[rng.next_below(i as u64) as usize].0
        } else {
            rng.next_u64() >> 20
        };
        let weights: Vec<f64> = (0..assignments)
            .map(|_| {
                if rng.next_below(4) == 0 {
                    0.0
                } else {
                    let magnitude = rng.next_below(6);
                    (1 + rng.next_below(1000)) as f64 * 10f64.powi(magnitude as i32 - 3)
                }
            })
            .collect();
        records.push((key, weights));
    }
    records
}

fn columns_of(records: &[(Key, Vec<f64>)], assignments: usize) -> RecordColumns {
    let mut columns = RecordColumns::with_capacity(assignments, records.len());
    for (key, weights) in records {
        columns.push(*key, weights);
    }
    columns
}

fn assert_sketch_bits(a: &BottomKSketch, b: &BottomKSketch, context: &str) {
    assert_eq!(a, b, "{context}");
    assert_eq!(a.next_rank().to_bits(), b.next_rank().to_bits(), "{context}: next_rank");
    for (ea, eb) in a.entries().iter().zip(b.entries()) {
        assert_eq!(ea.key, eb.key, "{context}");
        assert_eq!(ea.rank.to_bits(), eb.rank.to_bits(), "{context}: rank");
        assert_eq!(ea.weight.to_bits(), eb.weight.to_bits(), "{context}: weight");
    }
}

/// Multi-assignment `push_columns` equals `push_record` and
/// `push_observation`, fed in batch sizes straddling the sample size, with
/// duplicate keys and zero weights. One assignment runs the column kernel
/// on a single lane over a stream longer than its internal chunk.
#[test]
fn multi_columns_batch_sizes_around_k_match_push_record() {
    for (assignments, first_case, len) in [(1, 0, 6000), (5, 10, 4000)] {
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            for (case, mode) in [CoordinationMode::SharedSeed, CoordinationMode::Independent]
                .into_iter()
                .enumerate()
            {
                let records = adversarial_records(first_case + case as u64, len, assignments);
                let config = SummaryConfig::new(K, family, mode, MASTER_SEED ^ 0xA5);
                let context = format!("{family:?} {mode:?} assignments={assignments}");

                let mut scalar = MultiAssignmentStreamSampler::new(config, assignments);
                let mut observed = MultiAssignmentStreamSampler::new(config, assignments);
                for (key, weights) in &records {
                    scalar.push_record(*key, weights).unwrap();
                    for (b, &w) in weights.iter().enumerate() {
                        observed.push_observation(*key, b, w).unwrap();
                    }
                }
                let expected = scalar.finalize();
                let observed = observed.finalize();
                assert_eq!(observed, expected, "{context} [observations]");
                for (sa, sb) in observed.sketches().iter().zip(expected.sketches()) {
                    assert_sketch_bits(sa, sb, &format!("{context} [observations]"));
                }

                for batch in [1usize, K - 1, K, 4 * K] {
                    let mut batched = MultiAssignmentStreamSampler::new(config, assignments);
                    for chunk in records.chunks(batch) {
                        batched.push_columns(&columns_of(chunk, assignments)).unwrap();
                    }
                    assert_eq!(batched.processed(), records.len() as u64);
                    let got = batched.finalize();
                    assert_eq!(got, expected, "{context} batch={batch}");
                    for (sa, sb) in got.sketches().iter().zip(expected.sketches()) {
                        assert_sketch_bits(sa, sb, &format!("{context} batch={batch}"));
                    }
                }
            }
        }
    }
}

/// Duplicate keys inside one column batch behave exactly like duplicate
/// per-record pushes: the smaller rank wins, membership stays consistent.
#[test]
fn duplicates_within_a_single_batch_match_per_record() {
    let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 99);
    // Key 42 appears three times with different weights (different ranks
    // under shared-seed consistency); key 7 twice with the same weight.
    let records: Vec<(Key, Vec<f64>)> = vec![
        (42, vec![1.0]),
        (7, vec![3.0]),
        (1, vec![2.0]),
        (42, vec![50.0]),
        (2, vec![0.0]),
        (7, vec![3.0]),
        (3, vec![4.0]),
        (42, vec![0.5]),
        (4, vec![1.5]),
    ];
    let mut scalar = MultiAssignmentStreamSampler::new(config, 1);
    for (key, weights) in &records {
        scalar.push_record(*key, weights).unwrap();
    }
    let mut batched = MultiAssignmentStreamSampler::new(config, 1);
    batched.push_columns(&columns_of(&records, 1)).unwrap();
    assert_eq!(batched.finalize(), scalar.finalize());
}

/// An all-zero-weight stream produces empty sketches through both paths.
#[test]
fn zero_weight_streams_yield_empty_sketches() {
    let config = SummaryConfig::new(8, RankFamily::Exp, CoordinationMode::SharedSeed, 3);
    let records: Vec<(Key, Vec<f64>)> = (0..100u64).map(|k| (k, vec![0.0, 0.0])).collect();
    let mut batched = MultiAssignmentStreamSampler::new(config, 2);
    batched.push_columns(&columns_of(&records, 2)).unwrap();
    let summary = batched.finalize();
    assert_eq!(summary.num_distinct_keys(), 0);
}
