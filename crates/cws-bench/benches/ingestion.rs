//! Micro-benchmarks of the ingestion hot path: the layers the
//! `ingest_baseline` binary snapshots into `BENCH_pr4.json`. The workload
//! bodies live in [`cws_bench::workloads`], shared with that binary so the
//! two can never desynchronize.
//!
//! * `single_push` — single-assignment bottom-k push throughput, scalar
//!   (`push`) vs the chunked pre-filter batch path (`push_batch` over a key
//!   column + weight lane).
//! * `multi_assignment` — per-assignment hashing (`DispersedStreamSampler`)
//!   vs the hash-once record/row-batch/column APIs
//!   (`MultiAssignmentStreamSampler`), and the colocated sampler's column
//!   path (`ColocatedStreamSampler::push_columns`) on the same columns.
//! * `sharded` — parallel ingestion at 1/2/4/8 shards, per-record handoff
//!   vs zero-copy shared column batches.
//! * `aggregation` — the `Pipeline` facade's `SumByKey` pre-aggregation
//!   stage absorbing an unaggregated element stream (2–5 fragments per
//!   slot) and draining into the hash-once sampler.
//!
//! Set `CWS_BENCH_QUICK=1` for the CI smoke configuration (small dataset,
//! few samples).

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cws_bench::{ingestion_columns, ingestion_dataset, quick_mode, workloads};
use cws_core::columns::RecordColumns;
use cws_core::coordination::{CoordinationMode, RankGenerator};
use cws_core::ranks::RankFamily;
use cws_core::summary::SummaryConfig;
use cws_core::weights::MultiWeighted;

const ASSIGNMENTS: usize = 8;
const K: usize = 256;
/// Records per shared batch on the zero-copy sharded route.
const SHARED_BATCH: usize = 8192;

fn num_keys() -> usize {
    if quick_mode() {
        5_000
    } else {
        100_000
    }
}

fn dataset() -> MultiWeighted {
    ingestion_dataset(num_keys(), ASSIGNMENTS)
}

fn columns() -> RecordColumns {
    ingestion_columns(num_keys(), ASSIGNMENTS)
}

fn samples() -> usize {
    if quick_mode() {
        5
    } else {
        30
    }
}

fn config() -> SummaryConfig {
    SummaryConfig::new(K, RankFamily::Ipps, CoordinationMode::SharedSeed, 7)
}

fn bench_single_push(c: &mut Criterion) {
    let data = dataset();
    let columns = columns();
    let mut group = c.benchmark_group("single_push");
    group.sample_size(samples()).throughput(Throughput::Elements(data.num_keys() as u64));
    let generator = RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 7)
        .expect("valid combination");
    group.bench_function(BenchmarkId::new("bottomk", K), |b| {
        b.iter(|| black_box(workloads::single_push(&data, generator, K)));
    });
    group.bench_function(BenchmarkId::new("bottomk_batch", K), |b| {
        b.iter(|| black_box(workloads::single_push_batch(&columns, generator, K)));
    });
    group.finish();
}

fn bench_multi_assignment(c: &mut Criterion) {
    let data = dataset();
    let columns = columns();
    let config = config();
    let mut group = c.benchmark_group("multi_assignment");
    group.sample_size(samples()).throughput(Throughput::Elements(data.num_keys() as u64));
    group.bench_function(BenchmarkId::new("per_assignment", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::per_assignment(&data, config)));
    });
    group.bench_function(BenchmarkId::new("hash_once", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::hash_once(&data, config)));
    });
    group.bench_function(BenchmarkId::new("hash_once_batch", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::hash_once_batch(&data, config)));
    });
    group.bench_function(BenchmarkId::new("hash_once_columns", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::hash_once_columns(&columns, config)));
    });
    group.bench_function(BenchmarkId::new("colocated_columns", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::colocated_columns(&columns, config)));
    });
    group.finish();
}

fn bench_sharded(c: &mut Criterion) {
    let data = dataset();
    let batches: Vec<Arc<RecordColumns>> =
        columns().split(SHARED_BATCH).into_iter().map(Arc::new).collect();
    let config = config();
    let mut group = c.benchmark_group("sharded");
    group.sample_size(samples()).throughput(Throughput::Elements(data.num_keys() as u64));
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(BenchmarkId::new("records", shards), &shards, |b, &shards| {
            b.iter(|| black_box(workloads::sharded(&data, config, shards)));
        });
        group.bench_with_input(BenchmarkId::new("columns", shards), &shards, |b, &shards| {
            b.iter(|| black_box(workloads::sharded_columns(&batches, config, shards)));
        });
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let elements = cws_bench::ingestion_elements(num_keys(), ASSIGNMENTS);
    let config = config();
    let mut group = c.benchmark_group("aggregation");
    group.sample_size(samples()).throughput(Throughput::Elements(elements.len() as u64));
    group.bench_function(BenchmarkId::new("sum_by_key_elements", ASSIGNMENTS), |b| {
        b.iter(|| black_box(workloads::sum_by_key_elements(&elements, config, ASSIGNMENTS)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_push,
    bench_multi_assignment,
    bench_sharded,
    bench_aggregation
);
criterion_main!(benches);
