//! `serve_mixed`: a writer ingesting and publishing in memory beside an
//! open-loop reader, one thread each.
//!
//! The writer pushes column batches into an unjournaled dispersed
//! `EpochedPipeline` and publishes every `epoch_batches` calls; the reader
//! runs the `query_mix` batch at a fixed rate against the newest snapshot,
//! timing each batch from the moment it was due. The pass is a whole number
//! of epochs, so every epoch's expected snapshot and answers are computed
//! once at set-up. The traced run also feeds every writer batch to the bare
//! hash-once sampler (the twin of each epoch).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use cws_core::columns::RecordColumns;
use cws_core::summary::SummaryConfig;
use cws_data::synthetic::correlated_zipf;
use cws_engine::{EpochedPipeline, EstimateReport, Ingest, Layout, QueryBatch, Summary};
use cws_stream::MultiAssignmentStreamSampler;

use super::{
    builder, derive_seed, query_specs, record_headline, same_reports, summary_config,
    trace_overhead, Ctx, Scale, K,
};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Batches the traced run times on an idle core before the writer starts,
/// for `plan.contention_x`.
const UNCONTENDED_RUNS: usize = 100;

/// Input sizes and the reader's schedule.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Distinct keys (a multiple of `batch * epoch_batches`).
    pub keys: usize,
    /// Weight assignments.
    pub assignments: usize,
    /// Records per `push_columns` call.
    pub batch: usize,
    /// Calls per published epoch.
    pub epoch_batches: usize,
    /// Sample size.
    pub k: usize,
    /// Query batches the reader sends per second.
    pub rate_per_s: f64,
    /// A batch done later than this after its due time misses the SLO.
    pub slo: Duration,
    /// Batches the reader sends even if the writer finishes first.
    pub min_reader_batches: u64,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        let slo = Duration::from_millis(20);
        match scale {
            Scale::Full => Self {
                keys: 1 << 20,
                assignments: 8,
                batch: 4096,
                epoch_batches: 32,
                k: K,
                rate_per_s: 100.0,
                slo,
                min_reader_batches: 1,
            },
            Scale::Tiny => Self {
                keys: 1 << 15,
                assignments: 8,
                batch: 1024,
                epoch_batches: 8,
                k: 64,
                rate_per_s: 100.0,
                slo,
                min_reader_batches: 3,
            },
        }
    }
}

/// Inputs and the expected snapshot and answers of every epoch.
#[derive(Debug)]
pub struct Setup {
    /// The writer's batches, one pass.
    pub batches: Vec<RecordColumns>,
    /// Sampling configuration.
    pub config: SummaryConfig,
    /// The reader's batch.
    pub batch: QueryBatch,
    /// Expected snapshot bytes of each epoch of a pass.
    pub expected_epochs: Vec<Vec<u8>>,
    /// Expected answers on each epoch of a pass.
    pub expected_reports: Vec<Vec<EstimateReport>>,
    /// The first epoch, published by the warm-up, served until the writer
    /// publishes.
    pub initial: Option<Arc<Summary>>,
    /// Seconds spent in the generator.
    pub gen_s: f64,
}

/// Generates the records, computes each epoch's expected snapshot and
/// answers with the bare sampler, and publishes the first epoch through an
/// `EpochedPipeline` as the warm-up.
pub fn setup(params: &Params, seed: u64, report: &mut Report) -> Setup {
    let start = Instant::now();
    let data =
        correlated_zipf(params.keys, params.assignments, 1.1, 0.7, 0.1, derive_seed(seed, 31));
    let columns = data.to_columns();
    let gen_s = start.elapsed().as_secs_f64();
    drop(data);
    let batches = columns.split(params.batch);
    assert_eq!(columns.len() % (params.batch * params.epoch_batches), 0, "whole epochs per pass");
    let config = summary_config(params.k, derive_seed(seed, 32));
    let batch: QueryBatch = query_specs(params.assignments).into_iter().collect();
    let (mut expected_epochs, mut expected_reports) = (Vec::new(), Vec::new());
    for epoch in batches.chunks(params.epoch_batches) {
        let mut sampler = MultiAssignmentStreamSampler::new(config, params.assignments);
        for b in epoch {
            report.call("MultiAssignmentStreamSampler::push_columns", sampler.push_columns(b));
        }
        let summary = Summary::Dispersed(sampler.finalize());
        let answers = report.call("QueryBatch::execute", batch.execute(&summary));
        expected_reports.push(answers.unwrap_or_default());
        expected_epochs.push(summary.to_bytes());
    }
    let initial = report
        .call(
            "EpochedPipeline::new",
            EpochedPipeline::new(builder(&config, params.assignments, Layout::Dispersed)),
        )
        .and_then(|mut warm| {
            for b in &batches[..params.epoch_batches] {
                report.call("EpochedPipeline::push_columns", warm.push_columns(b));
            }
            report.call("EpochedPipeline::publish", warm.publish()).map(|p| p.summary)
        });
    report.gate(initial.as_ref().is_some_and(|i| i.to_bytes() == expected_epochs[0]), || {
        "warm-up epoch differs from its twin".to_string()
    });
    Setup { batches, config, batch, expected_epochs, expected_reports, initial, gen_s }
}

/// The snapshot the reader serves.
struct Slot {
    summary: Arc<Summary>,
    content: usize,
    published: Instant,
}

/// What the writer thread measured.
#[derive(Default)]
struct WriterOut {
    publish_ms: Vec<f64>,
    epoch_ns: Vec<f64>,
    twin_push_ns: Vec<f64>,
    twin_finalize_ms: Vec<f64>,
    encode_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    sample_fill: Vec<f64>,
}

/// What the reader thread measured.
#[derive(Default)]
struct ReaderOut {
    latency_ms: Vec<f64>,
    execute_us: Vec<f64>,
    late_ms: Vec<f64>,
    age_ms: Vec<f64>,
    misses: u64,
}

/// State both threads share.
struct Shared<'a> {
    setup: &'a Setup,
    params: &'a Params,
    slot: Mutex<Slot>,
    writer_done: AtomicBool,
    start: Barrier,
    traced: bool,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn writer(sh: &Shared<'_>, units: u64, tracer: &mut Tracer, r: &mut Report) -> WriterOut {
    let (s, params) = (sh.setup, sh.params);
    let mut out = WriterOut::default();
    let pipeline = r.call(
        "EpochedPipeline::new",
        EpochedPipeline::new(builder(&s.config, params.assignments, Layout::Dispersed)),
    );
    sh.start.wait();
    let Some(mut pipeline) = pipeline else {
        sh.writer_done.store(true, Ordering::SeqCst);
        return out;
    };
    let new_twin = || MultiAssignmentStreamSampler::new(s.config, params.assignments);
    let mut twin = sh.traced.then(new_twin);
    let mut epoch: u64 = 0;
    let mut epoch_ns = 0.0;
    for _pass in 0..units {
        for (index, batch) in s.batches.iter().enumerate() {
            // Facade spans on even epochs only, for the tracing overhead.
            tracer.set_enabled(sh.traced && epoch % 2 == 0);
            let start = Instant::now();
            let pushed =
                tracer.span("continuous.push_columns", epoch, |_| pipeline.push_columns(batch));
            epoch_ns += start.elapsed().as_secs_f64() * 1e9;
            r.call("EpochedPipeline::push_columns", pushed);
            if let Some(twin) = twin.as_mut() {
                tracer.set_enabled(true);
                let start = Instant::now();
                let pushed =
                    tracer.span("stream.push_columns", epoch, |_| twin.push_columns(batch));
                let push_ns = start.elapsed().as_secs_f64() * 1e9;
                if index % params.epoch_batches == 0 {
                    out.twin_push_ns.push(push_ns);
                } else if let Some(last) = out.twin_push_ns.last_mut() {
                    *last += push_ns;
                }
                r.call("MultiAssignmentStreamSampler::push_columns", pushed);
                tracer.set_enabled(epoch % 2 == 0);
            }
            if (index + 1) % params.epoch_batches != 0 {
                continue;
            }
            let content = index / params.epoch_batches;
            let start = Instant::now();
            let published = tracer.span("continuous.publish", epoch, |_| pipeline.publish());
            let publish = start.elapsed();
            out.publish_ms.push(ms(publish));
            epoch_ns += publish.as_secs_f64() * 1e9;
            if let Some(published) = r.call("EpochedPipeline::publish", published) {
                *sh.slot.lock().expect("the reader never panics holding the slot") = Slot {
                    summary: Arc::clone(&published.summary),
                    content,
                    published: Instant::now(),
                };
                r.gate(published.summary.to_bytes() == s.expected_epochs[content], || {
                    format!("epoch {epoch}: snapshot differs from its twin")
                });
            }
            out.epoch_ns.push(epoch_ns);
            epoch_ns = 0.0;
            if let Some(twin) = twin.as_mut() {
                tracer.set_enabled(true);
                let sampler = std::mem::replace(twin, new_twin());
                let start = Instant::now();
                let summary = tracer.span("stream.finalize", epoch, |_| sampler.finalize());
                out.twin_finalize_ms.push(ms(start.elapsed()));
                let start = Instant::now();
                let bytes = tracer.span("codec.encode", epoch, |_| summary.to_bytes());
                out.encode_ms.push(ms(start.elapsed()));
                out.snapshot_bytes.push(bytes.len() as f64);
                let fill =
                    summary.num_distinct_keys() as f64 / (params.k * params.assignments) as f64;
                out.sample_fill.push(fill);
                r.gate(bytes == s.expected_epochs[content], || {
                    format!("epoch {epoch}: twin differs")
                });
            }
            epoch += 1;
        }
    }
    sh.writer_done.store(true, Ordering::SeqCst);
    out
}

fn reader(sh: &Shared<'_>, tracer: &mut Tracer, r: &mut Report) -> ReaderOut {
    let mut out = ReaderOut::default();
    let period = Duration::from_secs_f64(1.0 / sh.params.rate_per_s);
    sh.start.wait();
    let start = Instant::now();
    let mut sent: u64 = 0;
    while sent < sh.params.min_reader_batches || !sh.writer_done.load(Ordering::SeqCst) {
        let due = start + period * u32::try_from(sent).expect("fewer than 2^32 batches");
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let send = Instant::now();
        out.late_ms.push(ms(send - due));
        let (summary, content, published) = {
            let slot = sh.slot.lock().expect("the writer never panics holding the slot");
            (Arc::clone(&slot.summary), slot.content, slot.published)
        };
        out.age_ms.push(ms(send.saturating_duration_since(published)));
        let results = tracer.span("plan.execute", sent, |_| sh.setup.batch.execute(&summary));
        let done = Instant::now();
        out.execute_us.push((done - send).as_secs_f64() * 1e6);
        let latency = done - due;
        out.latency_ms.push(ms(latency));
        let answered = r.call("QueryBatch::execute", results).map(|results| {
            r.gate(same_reports(&results, &sh.setup.expected_reports[content]), || {
                format!("batch {sent}: answers differ from the epoch's twin")
            });
        });
        if answered.is_none() || latency > sh.params.slo {
            out.misses += 1;
        }
        sent += 1;
    }
    out
}

/// Sets up and runs the writer and the reader.
pub fn run(ctx: &mut Ctx, params: &Params) {
    let seed = ctx.seed;
    ctx.setup_and_measure(
        |report| setup(params, seed, report),
        |s| s.gen_s,
        |ctx, s| measure(ctx, params, s),
    );
}

/// Runs the writer and the reader over `s` until the writer's fixed work
/// is done.
pub fn measure(ctx: &mut Ctx, params: &Params, mut s: Setup) {
    let Some(initial) = s.initial.take() else { return };
    let traced = ctx.traced;
    let (mut writer_tracer, mut reader_tracer) = (ctx.tracer(0), ctx.tracer(1));

    // Uncontended reference for plan.contention_x, and the plan itself.
    let (mut uncontended_us, mut plan_us, mut kernels) = (Vec::new(), Vec::new(), 0);
    if traced {
        for run in 0..UNCONTENDED_RUNS as u64 {
            let start = Instant::now();
            let plan = reader_tracer.span("plan.plan", run, |_| s.batch.plan());
            plan_us.push(start.elapsed().as_secs_f64() * 1e6);
            kernels = plan.map_or(0, |p| p.num_kernels());
            let start = Instant::now();
            ctx.report.call("QueryBatch::execute", s.batch.execute(&initial));
            uncontended_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
    }

    let shared = Shared {
        setup: &s,
        params,
        slot: Mutex::new(Slot { summary: initial, content: 0, published: Instant::now() }),
        writer_done: AtomicBool::new(false),
        start: Barrier::new(2),
        traced,
    };
    let units = ctx.units;
    let (mut writer_report, mut reader_report) =
        (Report::new("serve_mixed", traced), Report::new("serve_mixed", traced));
    let (w, rd) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| writer(&shared, units, &mut writer_tracer, &mut writer_report));
        let reader = scope.spawn(|| reader(&shared, &mut reader_tracer, &mut reader_report));
        (writer.join().expect("writer thread"), reader.join().expect("reader thread"))
    });
    let r = &mut ctx.report;
    r.merge(&writer_report);
    r.merge(&reader_report);

    // The writer's unit is a pass, not an epoch: the first epoch of a pass
    // holds the heaviest keys and costs less than half of each other one.
    let epochs_per_pass = s.batches.len() / params.epoch_batches;
    let pass_s: Vec<f64> =
        w.epoch_ns.chunks(epochs_per_pass).map(|pass| pass.iter().sum::<f64>() / 1e9).collect();
    let pass_records = s.batches.iter().map(RecordColumns::len).sum::<usize>() as f64;
    let latency_us: Vec<f64> = rd.latency_ms.iter().map(|ms| ms * 1e3).collect();
    record_headline(r, pass_records, &pass_s, &rd.latency_ms);
    r.metric("ingest_rec_per_s", pass_records / median(&pass_s), Vec::new());
    r.metric("publish_ms_p50", median(&w.publish_ms), w.publish_ms.clone());
    r.metric("publish_ms_p95", percentile(&w.publish_ms, 95.0), Vec::new());
    r.metric("query_us_p50", median(&latency_us), latency_us.clone());
    r.metric("query_us_p95", percentile(&latency_us, 95.0), Vec::new());
    let sent = rd.latency_ms.len().max(1) as f64;
    r.metric("query_slo_miss_frac", rd.misses as f64 / sent, Vec::new());

    if traced {
        let epoch_records = (params.batch * params.epoch_batches) as f64;
        let push_per_rec: Vec<f64> = w.twin_push_ns.iter().map(|ns| ns / epoch_records).collect();
        let overhead: Vec<f64> = w
            .epoch_ns
            .iter()
            .zip(w.twin_push_ns.iter().zip(&w.twin_finalize_ms))
            .map(|(facade, (push, finalize))| (facade - push - finalize * 1e6) / facade)
            .collect();
        r.metric("stream.push_ns_per_rec", median(&push_per_rec), push_per_rec);
        r.metric("stream.finalize_ms", median(&w.twin_finalize_ms), w.twin_finalize_ms.clone());
        r.metric("stream.sample_fill", median(&w.sample_fill), w.sample_fill.clone());
        r.metric("pipeline.overhead_frac", median(&overhead), overhead);
        r.metric("codec.encode_ms", median(&w.encode_ms), w.encode_ms.clone());
        r.metric("codec.snapshot_bytes", median(&w.snapshot_bytes), w.snapshot_bytes.clone());
        r.metric("continuous.publish_ms_p99", percentile(&w.publish_ms, 99.0), Vec::new());
        r.metric("continuous.snapshot_age_ms_p50", median(&rd.age_ms), rd.age_ms.clone());
        r.metric("plan.plan_us", median(&plan_us), plan_us);
        r.metric("plan.kernels_per_batch", kernels as f64, Vec::new());
        r.metric("plan.execute_us_p50", median(&rd.execute_us), rd.execute_us.clone());
        r.metric("plan.execute_us_p99", percentile(&rd.execute_us, 99.0), Vec::new());
        r.metric("plan.contention_x", median(&rd.execute_us) / median(&uncontended_us), Vec::new());
        r.metric("bench.gen_late_ms_p99", percentile(&rd.late_ms, 99.0), rd.late_ms.clone());
        r.metric("trace.overhead_frac", trace_overhead(&w.epoch_ns), Vec::new());
    }
    ctx.tracers.push(writer_tracer);
    ctx.tracers.push(reader_tracer);
}
