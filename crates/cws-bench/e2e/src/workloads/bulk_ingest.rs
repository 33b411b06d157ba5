//! `bulk_ingest`: one-shot hash-once ingestion of pre-split columns.
//!
//! Each pass builds a `Pipeline` (Dispersed, hash-once, IPPS, SharedSeed,
//! no aggregation), pushes every batch and finalizes. The traced run drives
//! the hash-once sampler directly as the pass's twin and times a 2-shard
//! sampler on the same batches.

use std::sync::Arc;
use std::time::Instant;

use cws_core::columns::RecordColumns;
use cws_core::summary::{DispersedSummary, SummaryConfig};
use cws_data::synthetic::correlated_zipf;
use cws_engine::{Ingest, Layout, Summary};
use cws_stream::{MultiAssignmentStreamSampler, ShardedDispersedSampler};

use super::{builder, derive_seed, record_headline, summary_config, trace_overhead, Ctx, Scale, K};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Distinct keys.
    pub keys: usize,
    /// Weight assignments.
    pub assignments: usize,
    /// Records per `push_columns` call.
    pub batch: usize,
    /// Sample size.
    pub k: usize,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self { keys: 2_000_000, assignments: 8, batch: 4096, k: K },
            Scale::Tiny => Self { keys: 20_000, assignments: 8, batch: 512, k: 64 },
        }
    }
}

/// Inputs and expected outputs, made once per set-up.
#[derive(Debug)]
pub struct Setup {
    /// The record batches every pass pushes.
    pub batches: Vec<Arc<RecordColumns>>,
    /// Sampling configuration.
    pub config: SummaryConfig,
    /// The offline `DispersedSummary::build` of the same records.
    pub expected: DispersedSummary,
    /// Its encoding: every pass must produce exactly these bytes.
    pub expected_bytes: Vec<u8>,
    /// Seconds spent in the generator.
    pub gen_s: f64,
}

/// Generates the records, splits them into batches, builds the offline
/// reference and runs one untimed warm-up pass.
pub fn setup(params: &Params, seed: u64, report: &mut Report) -> Setup {
    let start = Instant::now();
    let data =
        correlated_zipf(params.keys, params.assignments, 1.1, 0.7, 0.1, derive_seed(seed, 1));
    let columns = data.to_columns();
    let gen_s = start.elapsed().as_secs_f64();
    let batches = columns.split(params.batch).into_iter().map(Arc::new).collect();
    drop(columns);
    let config = summary_config(params.k, derive_seed(seed, 2));
    let expected = DispersedSummary::build(&data, &config);
    let expected_bytes = expected.to_bytes();
    let setup = Setup { batches, config, expected, expected_bytes, gen_s };
    let warm = facade_pass(params, &setup, &mut Tracer::disabled(), report, 0);
    check_pass(&setup, warm.as_ref(), report, 0);
    setup
}

/// One facade pass; `None` when a call failed.
fn facade_pass(
    params: &Params,
    setup: &Setup,
    tracer: &mut Tracer,
    report: &mut Report,
    pass: u64,
) -> Option<Summary> {
    tracer.span("bench.pass", pass, |tracer| {
        let built = tracer.span("pipeline.build", pass, |_| {
            builder(&setup.config, params.assignments, Layout::Dispersed).build()
        });
        let mut pipeline = report.call("Pipeline::build", built)?;
        for batch in &setup.batches {
            let pushed =
                tracer.span("pipeline.push_columns", pass, |_| pipeline.push_columns(batch));
            report.call("Pipeline::push_columns", pushed)?;
        }
        let finalized = tracer.span("pipeline.finalize", pass, |_| pipeline.finalize());
        report.call("Pipeline::finalize", finalized)
    })
}

/// The gate: the pass equals the offline summary, structurally and byte
/// for byte.
fn check_pass(setup: &Setup, summary: Option<&Summary>, report: &mut Report, pass: u64) {
    let Some(summary) = summary else { return };
    let same = summary.as_dispersed() == Some(&setup.expected)
        && summary.to_bytes() == setup.expected_bytes;
    report.gate(same, || format!("pass {pass}: summary differs from DispersedSummary::build"));
}

/// The twin of a pass: the hash-once sampler fed directly.
fn twin_pass(setup: &Setup, tracer: &mut Tracer, pass: u64) -> Option<Vec<u8>> {
    let num_assignments = setup.expected.num_assignments();
    tracer.span("bench.twin", pass, |tracer| {
        let mut sampler = MultiAssignmentStreamSampler::new(setup.config, num_assignments);
        for batch in &setup.batches {
            tracer.span("stream.push_columns", pass, |_| sampler.push_columns(batch)).ok()?;
        }
        let summary = tracer.span("stream.finalize", pass, |_| sampler.finalize());
        Some(tracer.span("codec.encode", pass, |_| summary.to_bytes()))
    })
}

/// Sets up and runs the measured passes.
pub fn run(ctx: &mut Ctx, params: &Params) {
    let seed = ctx.seed;
    ctx.setup_and_measure(
        |report| setup(params, seed, report),
        |s| s.gen_s,
        |ctx, s| measure(ctx, params, &s),
    );
}

/// The measured passes over `setup`.
pub fn measure(ctx: &mut Ctx, params: &Params, setup: &Setup) {
    let records = setup.batches.iter().map(|b| b.len()).sum::<usize>() as f64;
    let mut tracer = ctx.tracer(0);
    let mut pass_s = Vec::new();
    for pass in 0..ctx.units {
        // The traced run records facade spans on every other pass only, so
        // the two halves give the tracing overhead.
        tracer.set_enabled(ctx.traced && pass % 2 == 0);
        let start = Instant::now();
        let summary = facade_pass(params, setup, &mut tracer, &mut ctx.report, pass);
        pass_s.push(start.elapsed().as_secs_f64());
        check_pass(setup, summary.as_ref(), &mut ctx.report, pass);
        if ctx.traced {
            tracer.set_enabled(true);
            let twin = twin_pass(setup, &mut tracer, pass);
            ctx.report.gate(twin.as_deref() == Some(&setup.expected_bytes[..]), || {
                format!("pass {pass}: twin differs from the facade")
            });
        }
    }

    let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
    let r = &mut ctx.report;
    record_headline(r, records, &pass_s, &pass_ms);
    r.metric("ingest_rec_per_s", records / median(&pass_s), Vec::new());

    if ctx.traced {
        layer_metrics(ctx, setup, &tracer, records, &pass_s);
    }
    ctx.tracers.push(tracer);
}

fn layer_metrics(ctx: &mut Ctx, setup: &Setup, tracer: &Tracer, records: f64, pass_s: &[f64]) {
    let push = tracer.total_ns_by_request("stream.push_columns");
    let finalize = tracer.total_ns_by_request("stream.finalize");
    let push_per_rec: Vec<f64> = push.values().map(|ns| ns / records).collect();
    let mut overhead = Vec::new();
    let facade_calls = ["pipeline.build", "pipeline.push_columns", "pipeline.finalize"];
    let facade: Vec<_> = facade_calls.iter().map(|n| tracer.total_ns_by_request(n)).collect();
    for (pass, push_ns) in &push {
        let facade_ns: f64 = facade.iter().filter_map(|f| f.get(pass)).sum();
        if facade_ns > 0.0 {
            overhead.push(
                (facade_ns - push_ns - finalize.get(pass).copied().unwrap_or(0.0)) / facade_ns,
            );
        }
    }
    let finalize_ms: Vec<f64> = finalize.values().map(|ns| ns / 1e6).collect();
    let encode_ms: Vec<f64> = tracer.durations("codec.encode").iter().map(|ns| ns / 1e6).collect();
    let fill = setup.expected.num_distinct_keys() as f64
        / (setup.config.k * setup.expected.num_assignments()) as f64;
    let sharded = sharded2(setup, &mut ctx.report);

    let r = &mut ctx.report;
    r.metric("stream.push_ns_per_rec", median(&push_per_rec), push_per_rec);
    r.metric("stream.finalize_ms", median(&finalize_ms), finalize_ms);
    r.metric("stream.sample_fill", fill, Vec::new());
    r.metric("pipeline.overhead_frac", median(&overhead), overhead);
    r.metric("codec.encode_ms", median(&encode_ms), encode_ms);
    r.metric("codec.snapshot_bytes", setup.expected_bytes.len() as f64, Vec::new());
    r.metric("stream.sharded2_rec_per_s", records / median(&sharded), sharded);
    r.metric("trace.overhead_frac", trace_overhead(pass_s), Vec::new());
}

/// Seconds per pass of a 2-shard sampler fed the shared batches, 3 passes;
/// each must equal the offline summary.
fn sharded2(setup: &Setup, report: &mut Report) -> Vec<f64> {
    let num_assignments = setup.expected.num_assignments();
    (0..3)
        .map(|pass| {
            let start = Instant::now();
            let mut sampler = ShardedDispersedSampler::new(setup.config, num_assignments, 2);
            for batch in &setup.batches {
                report.call(
                    "ShardedDispersedSampler::push_columns_shared",
                    sampler.push_columns_shared(batch),
                );
            }
            let summary = report.call("ShardedDispersedSampler::finalize", sampler.finalize());
            let elapsed = start.elapsed().as_secs_f64();
            report.gate(summary.as_ref() == Some(&setup.expected), || {
                format!("sharded pass {pass}: summary differs from DispersedSummary::build")
            });
            elapsed
        })
        .collect()
}
