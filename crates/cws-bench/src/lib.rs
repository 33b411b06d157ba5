//! Benchmark fixtures shared by the Criterion benches and the experiment
//! regeneration binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cws_core::columns::RecordColumns;
use cws_core::weights::MultiWeighted;
use cws_data::synthetic::{correlated_zipf, correlated_zipf_columns, element_stream, Element};

/// A medium, skewed, three-assignment data set used by the micro-benchmarks.
#[must_use]
pub fn micro_dataset() -> MultiWeighted {
    correlated_zipf(50_000, 3, 1.1, 0.8, 0.2, 0xBE7C)
}

/// A small data set for fast benchmark smoke tests.
#[must_use]
pub fn tiny_dataset() -> MultiWeighted {
    correlated_zipf(2_000, 3, 1.1, 0.8, 0.2, 0xBE7C)
}

/// The synthetic Zipf stream used by the ingestion benchmarks and the
/// `ingest_baseline` binary: `num_assignments`-wide weight vectors with
/// mild churn, matching the multi-assignment workload of the paper.
#[must_use]
pub fn ingestion_dataset(num_keys: usize, num_assignments: usize) -> MultiWeighted {
    correlated_zipf(num_keys, num_assignments, 1.1, 0.7, 0.1, 0x17_6E57)
}

/// [`ingestion_dataset`] emitted natively in structure-of-arrays form —
/// record-for-record bit-identical to the row-major variant, so columnar and
/// row-major workloads measure the same stream.
#[must_use]
pub fn ingestion_columns(num_keys: usize, num_assignments: usize) -> RecordColumns {
    correlated_zipf_columns(num_keys, num_assignments, 1.1, 0.7, 0.1, 0x17_6E57)
}

/// [`ingestion_columns`] shredded into an *unaggregated* element stream:
/// every non-zero `(key, assignment)` slot split into 2–5 interleaved
/// weight fragments that recombine bit-exactly under `SumByKey`
/// aggregation — the raw-log workload of the pre-aggregation stage.
#[must_use]
pub fn ingestion_elements(num_keys: usize, num_assignments: usize) -> Vec<Element> {
    element_stream(&ingestion_columns(num_keys, num_assignments), 2, 5, 0x17_6E58)
}

/// `true` when benches should run in quick (CI smoke) mode — controlled by
/// the `CWS_BENCH_QUICK` environment variable.
#[must_use]
pub fn quick_mode() -> bool {
    std::env::var_os("CWS_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// The ingestion workloads measured by both `benches/ingestion.rs` and the
/// `ingest_baseline` binary — one definition, so the criterion numbers and
/// the committed JSON baseline can never desynchronize.
///
/// Each returns a size derived from the finalized sample so callers can
/// `black_box` it.
pub mod workloads {
    use std::sync::Arc;

    use cws_core::budget::ResourceBudget;
    use cws_core::columns::RecordColumns;
    use cws_core::coordination::RankGenerator;
    use cws_core::summary::SummaryConfig;
    use cws_core::weights::MultiWeighted;
    use cws_data::synthetic::Element;
    use cws_engine::{
        Aggregation, EpochedPipeline, Ingest, Layout, Pipeline, QueryBatch, QuerySpec, Summary,
        SyncPolicy, WalConfig,
    };
    use cws_stream::{
        BottomKStreamSampler, ColocatedStreamSampler, DispersedStreamSampler,
        MultiAssignmentStreamSampler, ShardedDispersedSampler,
    };

    /// Single-assignment bottom-k push over assignment 0 of `data`.
    pub fn single_push(data: &MultiWeighted, generator: RankGenerator, k: usize) -> usize {
        let mut sampler = BottomKStreamSampler::new(generator, 0, k);
        for (key, weights) in data.iter() {
            sampler.push(key, weights[0]).expect("valid weights and coordination mode");
        }
        sampler.finalize().len()
    }

    /// Single-assignment bottom-k over the same stream as
    /// [`single_push`], fed as one key column plus one weight lane through
    /// the chunked pre-filter batch API.
    pub fn single_push_batch(columns: &RecordColumns, generator: RankGenerator, k: usize) -> usize {
        let mut sampler = BottomKStreamSampler::new(generator, 0, k);
        sampler
            .push_batch(columns.keys(), columns.lane(0))
            .expect("valid weights and coordination mode");
        sampler.finalize().len()
    }

    /// The old multi-assignment path: one push (and one key hash) per
    /// `(assignment, key, weight)` observation.
    pub fn per_assignment(data: &MultiWeighted, config: SummaryConfig) -> usize {
        let mut sampler = DispersedStreamSampler::new(config, data.num_assignments());
        for (key, weights) in data.iter() {
            for (assignment, &weight) in weights.iter().enumerate() {
                sampler.push(assignment, key, weight).expect("valid assignment");
            }
        }
        sampler.finalize().num_distinct_keys()
    }

    /// The hash-once path: one `push_record` per record.
    pub fn hash_once(data: &MultiWeighted, config: SummaryConfig) -> usize {
        let mut sampler = MultiAssignmentStreamSampler::new(config, data.num_assignments());
        for (key, weights) in data.iter() {
            sampler.push_record(key, weights).expect("valid weights");
        }
        sampler.finalize().num_distinct_keys()
    }

    /// The hash-once path fed through the row-major batch API.
    pub fn hash_once_batch(data: &MultiWeighted, config: SummaryConfig) -> usize {
        let mut sampler = MultiAssignmentStreamSampler::new(config, data.num_assignments());
        sampler.push_batch(data.iter()).expect("valid weights");
        sampler.finalize().num_distinct_keys()
    }

    /// The hash-once path fed as structure-of-arrays columns (the chunked
    /// pre-filter kernels of `push_columns`).
    pub fn hash_once_columns(columns: &RecordColumns, config: SummaryConfig) -> usize {
        let mut sampler = MultiAssignmentStreamSampler::new(config, columns.num_assignments());
        sampler.push_columns(columns).expect("valid weights");
        sampler.finalize().num_distinct_keys()
    }

    /// The colocated summary over the same columns: the hash-once column
    /// kernel plus retaining the weight vector of every admitted record.
    pub fn colocated_columns(columns: &RecordColumns, config: SummaryConfig) -> usize {
        let mut sampler = ColocatedStreamSampler::new(config, columns.num_assignments());
        sampler.push_columns(columns).expect("valid weights");
        sampler.finalize().num_distinct_keys()
    }

    /// Sharded ingestion at `shards` worker threads, fed record-at-a-time
    /// (the PR-2 handoff: every record is copied into a shard buffer).
    pub fn sharded(data: &MultiWeighted, config: SummaryConfig, shards: usize) -> usize {
        let mut sampler = ShardedDispersedSampler::new(config, data.num_assignments(), shards);
        sampler.push_batch(data.iter()).expect("valid weights");
        sampler.finalize().expect("no worker failure").num_distinct_keys()
    }

    /// Records per batch handed to `Pipeline::push_elements` — the arrival
    /// granularity of a collector draining a socket or log segment.
    pub const ELEMENT_BATCH: usize = 4096;

    /// The facade's pre-aggregation stage over an unaggregated element
    /// stream: `Pipeline` with `SumByKey` aggregation absorbing raw
    /// `(key, assignment, fragment)` observations in
    /// [`ELEMENT_BATCH`]-element batches, draining into the hash-once
    /// sampler at finalize. Throughput is *elements* per second (an
    /// element is one fragment, not one record).
    pub fn sum_by_key_elements(
        elements: &[Element],
        config: SummaryConfig,
        num_assignments: usize,
    ) -> usize {
        let mut pipeline = Pipeline::builder()
            .assignments(num_assignments)
            .k(config.k)
            .rank(config.family)
            .coordination(config.mode)
            .layout(Layout::Dispersed)
            .aggregation(Aggregation::SumByKey)
            .seed(config.seed)
            .build()
            .expect("valid configuration");
        for batch in elements.chunks(ELEMENT_BATCH) {
            pipeline.push_elements(batch).expect("valid elements");
        }
        pipeline.finalize().expect("sequential ingestion cannot fail").num_distinct_keys()
    }

    /// The governed twin of [`sum_by_key_elements`]: the same element
    /// stream under a byte-tracking [`ResourceBudget`] (an effectively
    /// unbounded cap, so accounting runs but never rejects). Returns
    /// `(num_distinct_keys, peak_tracked_bytes)` — the size of the sample
    /// plus the aggregation stage's memory high-water mark, the number the
    /// baseline records so budget sizing has a measured anchor.
    pub fn sum_by_key_elements_governed(
        elements: &[Element],
        config: SummaryConfig,
        num_assignments: usize,
    ) -> (usize, u64) {
        let mut pipeline = Pipeline::builder()
            .assignments(num_assignments)
            .k(config.k)
            .rank(config.family)
            .coordination(config.mode)
            .layout(Layout::Dispersed)
            .aggregation(Aggregation::SumByKey)
            .budget(ResourceBudget::unlimited().with_max_bytes(u64::MAX))
            .seed(config.seed)
            .build()
            .expect("valid configuration");
        for batch in elements.chunks(ELEMENT_BATCH) {
            pipeline.push_elements(batch).expect("valid elements");
        }
        let peak = pipeline.peak_tracked_bytes();
        (pipeline.finalize().expect("sequential ingestion cannot fail").num_distinct_keys(), peak)
    }

    /// Epoched ingestion with an optional write-ahead journal: `data`'s
    /// records pushed one by one through an [`EpochedPipeline`] (the
    /// serving shape a journal attaches to), then published in memory.
    /// With a journal, every record is framed, CRC'd and written to `dir`
    /// *before* ingestion sees it, under the given [`SyncPolicy`] — the
    /// baseline records the per-policy overhead against the unjournaled
    /// run. The directory is wiped first so every call journals into a
    /// fresh log (no open-time scan of a previous rep's segments).
    pub fn journaled_ingest(
        data: &MultiWeighted,
        config: SummaryConfig,
        journal: Option<(&std::path::Path, SyncPolicy)>,
    ) -> usize {
        let mut builder = Pipeline::builder()
            .assignments(data.num_assignments())
            .k(config.k)
            .rank(config.family)
            .coordination(config.mode)
            .layout(Layout::Dispersed)
            .seed(config.seed);
        if let Some((dir, policy)) = journal {
            if dir.exists() {
                std::fs::remove_dir_all(dir).expect("scratch journal dir is removable");
            }
            builder = builder.journal(WalConfig::new(dir).sync(policy));
        }
        let mut pipeline = EpochedPipeline::new(builder).expect("valid configuration");
        for (key, weights) in data.iter() {
            pipeline.push_record(key, weights).expect("valid weights");
        }
        pipeline.publish().expect("publish cannot fail").summary.num_distinct_keys()
    }

    /// Queries per fleet batch in the batched-query workload: one
    /// subpopulation sum per lane, every lane sharing the same assignment
    /// (and therefore one summary pass under the planner).
    pub const FLEET_QUERIES: usize = 64;

    /// Builds both summary layouts over `data` so the query workloads can
    /// measure colocated and dispersed serving from identical evidence.
    #[must_use]
    pub fn query_summaries(data: &MultiWeighted, config: &SummaryConfig) -> (Summary, Summary) {
        use cws_core::summary::{ColocatedSummary, DispersedSummary};
        (
            Summary::Colocated(ColocatedSummary::build(data, config)),
            Summary::Dispersed(DispersedSummary::build(data, config)),
        )
    }

    /// The naive serving plan: [`FLEET_QUERIES`] one-spec batches, each a
    /// sum over assignment 0 restricted to its own key lane
    /// (`key % FLEET_QUERIES == lane`). Built once outside the timed
    /// region so the measurement is pure evaluation.
    #[must_use]
    pub fn fleet_queries() -> Vec<QueryBatch> {
        fleet_batch().specs().iter().map(|spec| QueryBatch::new().push(spec.clone())).collect()
    }

    /// The planned twin of [`fleet_queries`]: the same [`FLEET_QUERIES`]
    /// lane sums as one [`QueryBatch`], which the planner collapses into a
    /// single shared summary pass.
    #[must_use]
    pub fn fleet_batch() -> QueryBatch {
        (0..FLEET_QUERIES)
            .map(|lane| QuerySpec::sum(0).filter(move |key| key as usize % FLEET_QUERIES == lane))
            .collect()
    }

    /// Evaluates the fleet naively: one summary pass per query.
    pub fn naive_fleet(summary: &Summary, queries: &[QueryBatch]) -> usize {
        queries.iter().map(|query| batched_fleet(summary, query)).sum()
    }

    /// Evaluates the fleet through the planner: one summary pass total.
    /// Bit-identical to [`naive_fleet`] per query (`tests/planner_parity.rs`
    /// pins this); here only the throughput difference is measured.
    pub fn batched_fleet(summary: &Summary, batch: &QueryBatch) -> usize {
        batch.execute(summary).expect("valid batch").iter().map(|report| report.observed_keys).sum()
    }

    /// Sharded ingestion fed pre-chunked shared column batches — the
    /// zero-copy handoff (with one shard the `Arc` goes to the worker
    /// untouched; with more, columns are partitioned into pooled buffers).
    pub fn sharded_columns(
        batches: &[Arc<RecordColumns>],
        config: SummaryConfig,
        shards: usize,
    ) -> usize {
        let num_assignments = batches.first().map_or(1, |b| b.num_assignments());
        let mut sampler = ShardedDispersedSampler::new(config, num_assignments, shards);
        for batch in batches {
            sampler.push_columns_shared(batch).expect("valid weights");
        }
        sampler.finalize().expect("no worker failure").num_distinct_keys()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_have_expected_shape() {
        let tiny = tiny_dataset();
        assert_eq!(tiny.num_keys(), 2_000);
        assert_eq!(tiny.num_assignments(), 3);
    }

    #[test]
    fn columnar_and_row_major_workloads_sample_identically() {
        use cws_core::coordination::{CoordinationMode, RankGenerator};
        use cws_core::ranks::RankFamily;
        use cws_core::summary::SummaryConfig;
        use std::sync::Arc;

        let data = ingestion_dataset(3_000, 4);
        let columns = ingestion_columns(3_000, 4);
        assert_eq!(columns, data.to_columns(), "generators must emit the same stream");

        let config = SummaryConfig::new(64, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
        let generator = RankGenerator::new(RankFamily::Ipps, CoordinationMode::SharedSeed, 7)
            .expect("valid combination");
        assert_eq!(
            workloads::single_push(&data, generator, 64),
            workloads::single_push_batch(&columns, generator, 64)
        );
        let expected = workloads::hash_once_batch(&data, config);
        assert_eq!(workloads::hash_once_columns(&columns, config), expected);
        assert_eq!(
            workloads::colocated_columns(&columns, config),
            cws_core::summary::ColocatedSummary::build(&data, &config).num_distinct_keys()
        );
        let batches: Vec<Arc<_>> = columns.split(512).into_iter().map(Arc::new).collect();
        for shards in [1usize, 3] {
            assert_eq!(workloads::sharded_columns(&batches, config, shards), expected);
        }

        let elements = ingestion_elements(3_000, 4);
        assert!(elements.len() > 3_000 * 4, "fragmentation multiplies the stream");
        assert_eq!(
            workloads::sum_by_key_elements(&elements, config, 4),
            expected,
            "pre-aggregated elements must sample identically to aggregated records"
        );
        let (governed, peak) = workloads::sum_by_key_elements_governed(&elements, config, 4);
        assert_eq!(governed, expected, "budget accounting must not perturb the sample");
        assert!(peak > 0, "a byte-tracking budget must record a high-water mark");
    }

    #[test]
    fn naive_and_batched_fleet_workloads_observe_the_same_keys() {
        use cws_core::coordination::CoordinationMode;
        use cws_core::ranks::RankFamily;
        use cws_core::summary::SummaryConfig;

        let data = ingestion_dataset(3_000, 4);
        let config = SummaryConfig::new(64, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
        let (colocated, dispersed) = workloads::query_summaries(&data, &config);
        let queries = workloads::fleet_queries();
        let batch = workloads::fleet_batch();
        assert_eq!(batch.plan().unwrap().num_kernels(), 1, "all lanes must share one pass");
        for summary in [&colocated, &dispersed] {
            let naive = workloads::naive_fleet(summary, &queries);
            assert!(naive > 0, "the fleet must observe sampled keys");
            assert_eq!(workloads::batched_fleet(summary, &batch), naive);
        }
    }
}
