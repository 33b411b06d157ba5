//! `query_mix`: closed-loop runs of one 64-spec `QueryBatch` over a fixed
//! dispersed summary whose assignments are time periods.
//!
//! The traced run also runs each spec kind as its own sub-batch (the
//! per-kernel twin) and rebuilds the summary through the `Pipeline` facade
//! and the bare hash-once sampler, both of which must match the offline
//! build the queries read.

use std::time::Instant;

use cws_core::columns::RecordColumns;
use cws_core::summary::{DispersedSummary, SummaryConfig};
use cws_data::synthetic::correlated_zipf;
use cws_engine::{EstimateReport, Ingest, Layout, QueryBatch, QuerySpec, Summary};
use cws_stream::MultiAssignmentStreamSampler;

use super::{
    builder, derive_seed, exact_values, kind_sub_batch, query_specs, record_headline, same_report,
    same_reports, summary_config, trace_overhead, Ctx, Scale, K, QUERY_SPECS, SPEC_KINDS,
};
use crate::report::Report;
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;

/// Span names of the per-kind sub-batches, in [`SPEC_KINDS`] order.
const KIND_SPANS: [&str; 4] =
    ["plan.kernel_sum", "plan.kernel_l1", "plan.kernel_jaccard", "plan.kernel_max"];

/// Summary rebuilds in the traced run.
const BUILD_REPS: u64 = 5;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Distinct keys.
    pub keys: usize,
    /// Weight assignments (time periods).
    pub assignments: usize,
    /// Sample size.
    pub k: usize,
    /// Records per `push_columns` call of the traced run's rebuilds.
    pub batch: usize,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { keys: 200_000, assignments: 8, k: K, batch: 4096 },
            Scale::Tiny => Self { keys: 5_000, assignments: 8, k: 64, batch: 512 },
        }
    }
}

/// The summary, the batch and the reference answers.
#[derive(Debug)]
pub struct Setup {
    /// The records, as the traced run's rebuilds push them.
    pub columns: Vec<RecordColumns>,
    /// Sampling configuration.
    pub config: SummaryConfig,
    /// The 64 specs.
    pub specs: Vec<QuerySpec>,
    /// The specs as one batch.
    pub batch: QueryBatch,
    /// `DispersedSummary::build` over the records.
    pub summary: Summary,
    /// Its encoding.
    pub summary_bytes: Vec<u8>,
    /// Each spec's exact value on the records.
    pub exact: Vec<f64>,
    /// Each spec run as a one-spec batch.
    pub singles: Vec<EstimateReport>,
    /// Seconds spent in the generator.
    pub gen_s: f64,
}

/// Generates the records, builds the summary, computes exact values and
/// one-spec references, and runs the batch once untimed.
pub fn setup(params: &Params, seed: u64, report: &mut Report) -> Setup {
    let start = Instant::now();
    let data =
        correlated_zipf(params.keys, params.assignments, 1.1, 0.7, 0.1, derive_seed(seed, 21));
    let gen_s = start.elapsed().as_secs_f64();
    let columns = data.to_columns().split(params.batch);
    let config = summary_config(params.k, derive_seed(seed, 22));
    let summary = Summary::Dispersed(DispersedSummary::build(&data, &config));
    let specs = query_specs(params.assignments);
    let batch: QueryBatch = specs.iter().cloned().collect();
    let singles = specs
        .iter()
        .filter_map(|spec| {
            let single = QueryBatch::new().push(spec.clone()).execute(&summary);
            report.call("QueryBatch::execute", single).and_then(|mut r| r.pop())
        })
        .collect();
    report.call("QueryBatch::execute", batch.execute(&summary));
    Setup {
        columns,
        config,
        batch,
        summary_bytes: summary.to_bytes(),
        summary,
        exact: exact_values(&data),
        singles,
        specs,
        gen_s,
    }
}

/// Sets up and runs the measured batches.
pub fn run(ctx: &mut Ctx, params: &Params) {
    let seed = ctx.seed;
    ctx.setup_and_measure(
        |report| setup(params, seed, report),
        |s| s.gen_s,
        |ctx, s| measure(ctx, params, &s),
    );
}

/// The measured batches over `s`.
pub fn measure(ctx: &mut Ctx, params: &Params, s: &Setup) {
    let mut tracer = ctx.tracer(0);
    let traced = ctx.traced;
    let r = &mut ctx.report;
    let subs: Vec<_> = (0..SPEC_KINDS.len()).map(|kind| kind_sub_batch(&s.specs, kind)).collect();
    let mut kernels = 0;
    let mut first: Option<Vec<EstimateReport>> = None;
    let mut latency_us = Vec::new();
    for run in 0..ctx.units {
        // Spans on every other batch only, so the traced run also gives the
        // tracing overhead.
        tracer.set_enabled(traced && run % 2 == 0);
        let start = Instant::now();
        let results = tracer.span("plan.execute", run, |_| s.batch.execute(&s.summary));
        latency_us.push(start.elapsed().as_secs_f64() * 1e6);
        let Some(results) = r.call("QueryBatch::execute", results) else { continue };
        if let Some(first) = &first {
            r.gate(same_reports(&results, first), || format!("batch {run} differs from the first"));
        } else {
            r.gate(same_reports(&results, &s.singles), || {
                "the first batch differs from its specs run one at a time".to_string()
            });
            first = Some(results);
        }
        if traced {
            tracer.set_enabled(true);
            if let Ok(plan) = tracer.span("plan.plan", run, |_| s.batch.plan()) {
                kernels = plan.num_kernels();
            }
            for (kind, (sub, lanes)) in subs.iter().enumerate() {
                let results = tracer.span(KIND_SPANS[kind], run, |_| sub.execute(&s.summary));
                let Some(results) = r.call("QueryBatch::execute", results) else { continue };
                let same = first.as_ref().is_some_and(|first| {
                    lanes.iter().zip(&results).all(|(&lane, got)| same_report(got, &first[lane]))
                });
                r.gate(same, || format!("batch {run}: {} sub-batch differs", SPEC_KINDS[kind]));
            }
        }
    }

    let latency_ms: Vec<f64> = latency_us.iter().map(|us| us / 1e3).collect();
    let latency_s: Vec<f64> = latency_us.iter().map(|us| us / 1e6).collect();
    record_headline(r, QUERY_SPECS as f64, &latency_s, &latency_ms);
    r.metric("queries_per_s", QUERY_SPECS as f64 / (median(&latency_us) / 1e6), Vec::new());
    r.metric("query_us_p50", median(&latency_us), latency_us.clone());
    r.metric("query_us_p95", percentile(&latency_us, 95.0), Vec::new());
    if let Some(first) = &first {
        let errors: Vec<f64> = first
            .iter()
            .zip(&s.exact)
            .filter(|(_, &exact)| exact > 0.0)
            .map(|(got, &exact)| (got.value - exact).abs() / exact)
            .collect();
        r.metric("est_rel_err", mean(&errors), errors);
    }

    if traced {
        rebuilds(params, s, &mut tracer, r);
        let us_of =
            |name: &str| -> Vec<f64> { tracer.durations(name).iter().map(|ns| ns / 1e3).collect() };
        let plan_us = us_of("plan.plan");
        r.metric("plan.plan_us", median(&plan_us), plan_us);
        r.metric("plan.kernels_per_batch", kernels as f64, Vec::new());
        r.metric("plan.execute_us_p50", median(&latency_us), Vec::new());
        r.metric("plan.execute_us_p99", percentile(&latency_us, 99.0), Vec::new());
        for (kind, span) in KIND_SPANS.iter().enumerate() {
            let us = us_of(span);
            r.metric(&format!("plan.kernel_us.{}", SPEC_KINDS[kind]), median(&us), us);
        }
        r.metric("trace.overhead_frac", trace_overhead(&latency_us), Vec::new());
    }
    ctx.tracers.push(tracer);
}

/// The traced run's rebuilds of the summary the queries read: through the
/// `Pipeline` facade and through the bare hash-once sampler (its twin).
/// Both must equal the offline build byte for byte.
fn rebuilds(params: &Params, s: &Setup, tracer: &mut Tracer, r: &mut Report) {
    let records = s.columns.iter().map(RecordColumns::len).sum::<usize>() as f64;
    let (mut overhead, mut push_per_rec, mut finalize_ms, mut encode_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rep in 0..BUILD_REPS {
        let facade_start = Instant::now();
        let built = builder(&s.config, params.assignments, Layout::Dispersed).build();
        let facade = r.call("Pipeline::build", built).and_then(|mut pipeline| {
            for batch in &s.columns {
                let pushed =
                    tracer.span("pipeline.push_columns", rep, |_| pipeline.push_columns(batch));
                r.call("Pipeline::push_columns", pushed)?;
            }
            r.call(
                "Pipeline::finalize",
                tracer.span("pipeline.finalize", rep, |_| pipeline.finalize()),
            )
        });
        let facade_ns = facade_start.elapsed().as_secs_f64() * 1e9;
        r.gate(facade.is_some_and(|f| f.to_bytes() == s.summary_bytes), || {
            format!("rebuild {rep}: the Pipeline summary differs from DispersedSummary::build")
        });

        let twin_start = Instant::now();
        let mut sampler = MultiAssignmentStreamSampler::new(s.config, params.assignments);
        let mut push_ns = 0.0;
        for batch in &s.columns {
            let start = Instant::now();
            let pushed = tracer.span("stream.push_columns", rep, |_| sampler.push_columns(batch));
            push_ns += start.elapsed().as_secs_f64() * 1e9;
            r.call("MultiAssignmentStreamSampler::push_columns", pushed);
        }
        let start = Instant::now();
        let summary = tracer.span("stream.finalize", rep, |_| sampler.finalize());
        finalize_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let twin_ns = twin_start.elapsed().as_secs_f64() * 1e9;
        let start = Instant::now();
        let bytes = tracer.span("codec.encode", rep, |_| summary.to_bytes());
        encode_ms.push(start.elapsed().as_secs_f64() * 1e3);
        r.gate(bytes == s.summary_bytes, || {
            format!("rebuild {rep}: the sampler twin differs from DispersedSummary::build")
        });
        push_per_rec.push(push_ns / records);
        overhead.push((facade_ns - twin_ns) / facade_ns);
    }
    let fill = s.summary.num_distinct_keys() as f64 / (s.config.k * params.assignments) as f64;
    r.metric("stream.push_ns_per_rec", median(&push_per_rec), push_per_rec);
    r.metric("stream.finalize_ms", median(&finalize_ms), finalize_ms);
    r.metric("stream.sample_fill", fill, Vec::new());
    r.metric("pipeline.overhead_frac", median(&overhead), overhead);
    r.metric("codec.encode_ms", median(&encode_ms), encode_ms);
    r.metric("codec.snapshot_bytes", s.summary_bytes.len() as f64, Vec::new());
}
