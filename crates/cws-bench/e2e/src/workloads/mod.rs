//! The four workloads and what they share: the run context, repeated
//! set-up, seeds, and the 64-spec query batch.

pub mod bulk_ingest;
pub mod netflow_durable;
pub mod query_mix;
pub mod serve_mixed;

use std::path::PathBuf;
use std::time::Instant;

use cws_core::aggregates::{exact_aggregate, weighted_jaccard, AggregateFn};
use cws_core::summary::SummaryConfig;
use cws_core::{CoordinationMode, MultiWeighted, RankFamily};
use cws_engine::{EstimateReport, Layout, Pipeline, PipelineBuilder, QueryBatch, QuerySpec};

use crate::report::Report;
use crate::stats;
use crate::sys;
use crate::trace::Tracer;

/// Workload sizes: the benchmark's own, or tiny ones for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `manifest.json` describes.
    Full,
    /// Small inputs that exercise every code path and gate in well under a
    /// second, for `cargo test`.
    Tiny,
}

/// Everything a workload run reads and writes.
#[derive(Debug)]
pub struct Ctx {
    /// Metrics, call counts and gate failures.
    pub report: Report,
    /// The `--seed` every input is derived from.
    pub seed: u64,
    /// Fixed work units of the measured phase.
    pub units: u64,
    /// `true` for the traced run (spans and twins on).
    pub traced: bool,
    /// Time origin shared by every tracer of the run.
    pub origin: Instant,
    /// A directory the run may create and fill (snapshot store, journal);
    /// removed when the run ends.
    pub work_dir: PathBuf,
    /// Tracers handed back by the workload, for the trace file.
    pub tracers: Vec<Tracer>,
}

/// Spans one tracer can hold: more than the largest traced workload
/// records. Pages are only touched as spans arrive.
const SPAN_CAPACITY: usize = 1 << 20;

/// How many times each run sets up; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

fn timed<S>(setup: &mut impl FnMut(&mut Report) -> S, report: &mut Report) -> (S, f64) {
    let start = Instant::now();
    let made = setup(report);
    (made, start.elapsed().as_secs_f64())
}

impl Ctx {
    /// A recording tracer in the traced run, a disabled one otherwise.
    #[must_use]
    pub fn tracer(&self, thread: u32) -> Tracer {
        if self.traced {
            Tracer::new(self.origin, SPAN_CAPACITY, thread)
        } else {
            Tracer::disabled()
        }
    }

    /// Sets up, runs `measure` on the result and records `peak_rss_mb`;
    /// then sets up [`SETUP_REPEATS`] − 1 more times, dropping each result
    /// at once, and records `setup_s` and `data.gen_s` as the medians of the
    /// set-up times and of the generator times `gen_s` reads off each
    /// result. The extra set-ups come after the peak is read, so freed
    /// set-up memory the allocator keeps cannot raise it.
    pub fn setup_and_measure<S>(
        &mut self,
        mut setup: impl FnMut(&mut Report) -> S,
        gen_s: impl Fn(&S) -> f64,
        measure: impl FnOnce(&mut Ctx, S),
    ) {
        let (made, seconds) = timed(&mut setup, &mut self.report);
        let (mut setup_times, mut gen_times) = (vec![seconds], vec![gen_s(&made)]);
        measure(self, made);
        if let Some(mib) = sys::peak_rss_mib() {
            self.report.metric("peak_rss_mb", mib, Vec::new());
        }
        for _ in 1..SETUP_REPEATS {
            let (made, seconds) = timed(&mut setup, &mut self.report);
            setup_times.push(seconds);
            gen_times.push(gen_s(&made));
        }
        self.report.metric("setup_s", stats::median(&setup_times), setup_times);
        self.report.metric("data.gen_s", stats::median(&gen_times), gen_times);
    }
}

/// Sample size of every summary.
pub const K: usize = 1024;

/// A distinct deterministic seed for each input `stream` of a run (the
/// SplitMix64 finalizer over both).
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The coordinated IPPS configuration every workload samples with.
#[must_use]
pub fn summary_config(k: usize, seed: u64) -> SummaryConfig {
    SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, seed)
}

/// The facade's builder for `config` over `assignments` weights per record.
#[must_use]
pub fn builder(config: &SummaryConfig, assignments: usize, layout: Layout) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(assignments)
        .k(config.k)
        .rank(config.family)
        .coordination(config.mode)
        .layout(layout)
        .seed(config.seed)
}

/// Specs per query batch.
pub const QUERY_SPECS: usize = 64;

/// The spec kinds of the batch, by lane `i % 4`.
pub const SPEC_KINDS: [&str; 4] = ["sum", "l1", "jaccard", "max"];

/// The 64-spec batch over `m` assignments. Lane `i`, by `i % 4`, with
/// `a = i % m`: 0 → `sum(a)` on keys with `key % 16 == i % 16`; 1 →
/// `l1(a, (i+1) % m)`; 2 → `jaccard(a, (i+3) % m)` on even keys; 3 →
/// `max(a, (i+2) % m)`. With `m = 8` the planner runs it as 10 kernels.
#[must_use]
pub fn query_specs(m: usize) -> Vec<QuerySpec> {
    (0..QUERY_SPECS)
        .map(|i| {
            let a = i % m;
            match i % 4 {
                0 => {
                    let lane = (i % 16) as u64;
                    QuerySpec::sum(a).filter(move |key| key % 16 == lane)
                }
                1 => QuerySpec::l1(a, (i + 1) % m),
                2 => QuerySpec::jaccard(a, (i + 3) % m).filter(|key| key % 2 == 0),
                _ => QuerySpec::max(a, (i + 2) % m),
            }
        })
        .collect()
}

/// The exact value of each spec of [`query_specs`] on `data`.
#[must_use]
pub fn exact_values(data: &MultiWeighted) -> Vec<f64> {
    let m = data.num_assignments();
    (0..QUERY_SPECS)
        .map(|i| {
            let a = i % m;
            match i % 4 {
                0 => {
                    let lane = (i % 16) as u64;
                    exact_aggregate(data, &AggregateFn::SingleAssignment(a), |key| key % 16 == lane)
                }
                1 => exact_aggregate(data, &AggregateFn::L1(vec![a, (i + 1) % m]), |_| true),
                2 => weighted_jaccard(data, a, (i + 3) % m, |key| key % 2 == 0),
                _ => exact_aggregate(data, &AggregateFn::Max(vec![a, (i + 2) % m]), |_| true),
            }
        })
        .collect()
}

/// The specs of `specs` whose lane has kind `kind` (see [`SPEC_KINDS`]),
/// as one sub-batch, with their lane indices.
#[must_use]
pub fn kind_sub_batch(specs: &[QuerySpec], kind: usize) -> (QueryBatch, Vec<usize>) {
    let lanes: Vec<usize> = (0..specs.len()).filter(|i| i % 4 == kind).collect();
    (lanes.iter().map(|&i| specs[i].clone()).collect(), lanes)
}

/// `true` when the two reports agree to the bit in every field.
#[must_use]
pub fn same_report(a: &EstimateReport, b: &EstimateReport) -> bool {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    let ci = |r: &EstimateReport| r.ci95.map(|c| (c.lower.to_bits(), c.upper.to_bits()));
    a.value.to_bits() == b.value.to_bits()
        && a.observed_keys == b.observed_keys
        && bits(a.variance) == bits(b.variance)
        && ci(a) == ci(b)
}

/// `true` when the two result lists agree to the bit, report by report.
#[must_use]
pub fn same_reports(a: &[EstimateReport], b: &[EstimateReport]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_report(x, y))
}

/// Nanoseconds of a `Duration`, as `f64`.
#[must_use]
pub fn ns(duration: std::time::Duration) -> f64 {
    duration.as_nanos() as f64
}

/// The percentile of unit times the `BENCHMARK.json` metrics take. On a
/// shared host, neighbours slow cache-bound code by up to +50 % for periods
/// of seconds to tens of seconds, so a run's median lands in the quiet or
/// the busy regime by chance: across ten seeds, run medians spread by up to
/// 40 % even at `--seconds 30`. The 10th percentile moves only when a run
/// is busy nine tenths of its time, and keeps dozens of samples below it in
/// every workload. The medians are still recorded under their own names.
pub const HEADLINE_PERCENTILE: f64 = 10.0;

/// Records the pair `BENCHMARK.json` lists for every workload:
/// `throughput_per_s`, one unit's `work` over the unit time at
/// [`HEADLINE_PERCENTILE`] of `unit_s`, and `latency_ms_p10` of the
/// headline call's `latency_ms`.
pub fn record_headline(report: &mut Report, work: f64, unit_s: &[f64], latency_ms: &[f64]) {
    let unit = stats::percentile(unit_s, HEADLINE_PERCENTILE);
    report.metric("throughput_per_s", work / unit, unit_s.to_vec());
    let latency = stats::percentile(latency_ms, HEADLINE_PERCENTILE);
    report.metric("latency_ms_p10", latency, latency_ms.to_vec());
}

/// The traced run's `trace.overhead_frac` from the facade time of each
/// work unit, where even-indexed units ran with facade spans recorded and
/// odd-indexed ones without.
#[must_use]
pub fn trace_overhead(per_unit: &[f64]) -> f64 {
    let half = |parity| -> Vec<f64> { per_unit.iter().skip(parity).step_by(2).copied().collect() };
    stats::median(&half(0)) / stats::median(&half(1)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_eight_assignment_batch_plans_ten_kernels() {
        let batch: QueryBatch = query_specs(8).into_iter().collect();
        assert_eq!(batch.plan().unwrap().num_kernels(), 10);
        let four: QueryBatch = query_specs(4).into_iter().collect();
        assert!(four.plan().is_ok(), "every pair stays distinct with four assignments");
        let (sub, lanes) = kind_sub_batch(&query_specs(8), 2);
        assert_eq!((sub.len(), lanes[1]), (16, 6));
    }

    #[test]
    fn seeds_are_distinct_per_stream() {
        assert_ne!(derive_seed(1, 1), derive_seed(1, 2));
        assert_ne!(derive_seed(1, 1), derive_seed(2, 1));
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
    }
}
