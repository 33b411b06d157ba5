//! Bit-exactness of the ingestion engine (ISSUE 2 tentpole, extended by
//! ISSUE 3's structure-of-arrays routes): the hash-once multi-assignment
//! sampler and the sharded parallel engine must produce summaries
//! **bit-identical** to per-assignment observation ingestion and to the
//! offline builder, for every rank family, dispersable coordination mode,
//! shard count, ingestion API (per-record, partitioned columns, zero-copy
//! shared columns) and arrival order.

mod common;

use std::sync::Arc;

use common::{arb_multiweighted, case_rng, shuffle, MASTER_SEED};
use coordinated_sampling::prelude::*;
use coordinated_sampling::stream::sharded::ShardedDispersedSampler;
use coordinated_sampling::stream::MultiAssignmentStreamSampler;
use cws_core::columns::RecordColumns;
use cws_hash::RandomSource;

const CASES: u64 = 24;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// All (family, mode) combinations realizable in the dispersed model.
fn dispersable_configs(k: usize, seed: u64) -> Vec<SummaryConfig> {
    let mut configs = Vec::new();
    for family in [RankFamily::Ipps, RankFamily::Exp] {
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            configs.push(SummaryConfig::new(k, family, mode, seed));
        }
    }
    configs
}

/// Asserts full structural equality plus explicit bit-equality of the
/// per-assignment rank tails (`r_{k+1}` is easy to get "approximately right"
/// while breaking estimators, so it is checked to the bit).
fn assert_bit_identical(a: &DispersedSummary, b: &DispersedSummary, context: &str) {
    assert_eq!(a, b, "{context}");
    for (sa, sb) in a.sketches().iter().zip(b.sketches()) {
        assert_eq!(sa.next_rank().to_bits(), sb.next_rank().to_bits(), "{context}: next_rank");
        assert_eq!(sa.kth_rank().to_bits(), sb.kth_rank().to_bits(), "{context}: kth_rank");
        for (ea, eb) in sa.entries().iter().zip(sb.entries()) {
            assert_eq!(ea.key, eb.key, "{context}");
            assert_eq!(ea.rank.to_bits(), eb.rank.to_bits(), "{context}: entry rank");
            assert_eq!(ea.weight.to_bits(), eb.weight.to_bits(), "{context}: entry weight");
        }
    }
}

/// Shuffled records of a seeded random data set, both as rows and columns.
fn shuffled_records(case: u64, label: &str) -> (Vec<(Key, Vec<f64>)>, RecordColumns, usize) {
    let rng = &mut case_rng(label, case);
    let data = arb_multiweighted(rng, 120);
    let assignments = data.num_assignments();
    let mut records: Vec<(Key, Vec<f64>)> =
        data.iter().map(|(key, weights)| (key, weights.to_vec())).collect();
    shuffle(&mut records, rng);
    let mut columns = RecordColumns::with_capacity(assignments, records.len());
    for (key, weights) in &records {
        columns.push(*key, weights);
    }
    (records, columns, assignments)
}

/// Sharded ingestion equals sequential hash-once ingestion for every rank
/// family × coordination mode × shard count × ingestion API, over seeded
/// shuffled streams.
#[test]
fn sharded_equals_sequential_for_all_families_and_shard_counts() {
    for case in 0..CASES {
        let (records, columns, assignments) = shuffled_records(case, "sharded_parity");
        let rng = &mut case_rng("sharded_parity_k", case);
        let k = 1 + rng.next_below(14) as usize;

        for config in dispersable_configs(k, MASTER_SEED ^ case) {
            let mut sequential = MultiAssignmentStreamSampler::new(config, assignments);
            for (key, weights) in &records {
                sequential.push_record(*key, weights).unwrap();
            }
            let expected = sequential.finalize();

            for shards in SHARD_COUNTS {
                let context = format!(
                    "case {case}: {:?}/{:?} k={k} shards={shards}",
                    config.family, config.mode
                );
                // Per-record route; a small batch capacity forces many
                // cross-thread flushes and pool recycles.
                let mut sharded =
                    ShardedDispersedSampler::with_batch_capacity(config, assignments, shards, 8);
                for (key, weights) in &records {
                    sharded.push_record(*key, weights).unwrap();
                }
                assert_bit_identical(&sharded.finalize().unwrap(), &expected, &context);

                // Partitioned-columns route (one borrowed SoA batch).
                let mut sharded =
                    ShardedDispersedSampler::with_batch_capacity(config, assignments, shards, 8);
                sharded.push_columns(&columns).unwrap();
                assert_bit_identical(
                    &sharded.finalize().unwrap(),
                    &expected,
                    &format!("{context} [columns]"),
                );

                // Zero-copy shared route (chunked Arc batches).
                let mut sharded =
                    ShardedDispersedSampler::with_batch_capacity(config, assignments, shards, 8);
                for chunk in columns.split(13) {
                    sharded.push_columns_shared(&Arc::new(chunk)).unwrap();
                }
                assert_bit_identical(
                    &sharded.finalize().unwrap(),
                    &expected,
                    &format!("{context} [shared]"),
                );
            }
        }
    }
}

/// The hash-once sampler equals per-assignment observation ingestion and the
/// offline builder on shuffled streams — one key hash per record loses
/// nothing, whether records arrive as rows or as columns. The reference
/// pushes observations in assignment-major order, the way dispersed sites
/// would each stream their own assignment.
#[test]
fn hash_once_equals_per_assignment_and_offline() {
    for case in 0..CASES {
        let (records, columns, assignments) = shuffled_records(case, "hash_once_parity");
        let rng = &mut case_rng("hash_once_parity_k", case);
        let k = 1 + rng.next_below(14) as usize;
        let mut builder = MultiWeighted::builder(assignments);
        for (key, weights) in &records {
            builder.add_vector(*key, weights);
        }
        let data = builder.build();

        for config in dispersable_configs(k, MASTER_SEED ^ (case << 1)) {
            let offline = DispersedSummary::build(&data, &config);

            let mut once = MultiAssignmentStreamSampler::new(config, assignments);
            let mut columnar = MultiAssignmentStreamSampler::new(config, assignments);
            let mut per = MultiAssignmentStreamSampler::new(config, assignments);
            for (key, weights) in &records {
                once.push_record(*key, weights).unwrap();
            }
            for b in 0..assignments {
                for (key, weights) in &records {
                    per.push_observation(*key, b, weights[b]).unwrap();
                }
            }
            columnar.push_columns(&columns).unwrap();
            let context = format!("case {case}: {:?}/{:?} k={k}", config.family, config.mode);
            let once = once.finalize();
            assert_bit_identical(&once, &per.finalize(), &context);
            assert_bit_identical(&once, &offline, &context);
            assert_bit_identical(&once, &columnar.finalize(), &format!("{context} [columns]"));
        }
    }
}

/// Shard routing never loses or duplicates a record: the shard sizes sum to
/// the stream length, and the merged summary's union keys all exist in the
/// input.
#[test]
fn sharded_record_accounting() {
    let rng = &mut case_rng("sharded_accounting", 0);
    let data = arb_multiweighted(rng, 200);
    let assignments = data.num_assignments();
    let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);

    let mut sharded = ShardedDispersedSampler::new(config, assignments, 4);
    for (key, weights) in data.iter() {
        sharded.push_record(key, weights).unwrap();
    }
    assert_eq!(sharded.processed(), data.num_keys() as u64);
    let summary = sharded.finalize().unwrap();
    for key in summary.union_keys() {
        assert!((key as usize) < data.num_keys(), "unknown key {key} in summary");
    }
}

/// A panicking worker surfaces as [`CwsError::ShardWorkerPanicked`] from
/// finalize — never a hang, never a poisoned join. Pushes to the dead shard
/// in the meantime are *typed errors*, not silent drops: once the
/// supervision layer detects the death, the failing push reports it and the
/// record is cleanly rejected.
#[test]
fn injected_worker_panic_is_reported_on_finalize() {
    let rng = &mut case_rng("sharded_panic", 0);
    let data = arb_multiweighted(rng, 150);
    let assignments = data.num_assignments();
    let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);

    let mut sharded = ShardedDispersedSampler::with_batch_capacity(config, assignments, 3, 4);
    let records: Vec<(Key, Vec<f64>)> =
        data.iter().map(|(key, weights)| (key, weights.to_vec())).collect();
    for (key, weights) in records.iter().take(50) {
        sharded.push_record(*key, weights).unwrap();
    }
    sharded.inject_worker_fault(2, WorkerFault::Panic).unwrap();
    for (key, weights) in records.iter().skip(50) {
        // The worker dies asynchronously: pushes may succeed (buffered or
        // routed elsewhere) or fail with the typed cause — never panic,
        // never drop silently.
        if let Err(error) = sharded.push_record(*key, weights) {
            assert!(
                matches!(error, CwsError::ShardWorkerPanicked { shard: 2, .. }),
                "unexpected push error {error:?}"
            );
        }
    }
    match sharded.finalize() {
        Err(CwsError::ShardWorkerPanicked { shard, message }) => {
            assert_eq!(shard, 2);
            assert!(message.contains("injected"), "{message}");
        }
        other => panic!("expected a shard-worker panic report, got {other:?}"),
    }
}
