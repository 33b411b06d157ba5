//! `netflow_durable`: raw flow elements through the durable serving path.
//!
//! Elements go in `push_elements` batches into a journaled, colocated,
//! `SumByKey` `EpochedPipeline`; every `epoch_batches` batches it calls
//! `publish_into` a `SnapshotStore` and runs one 64-spec `QueryBatch` on the
//! new snapshot. After the passes it pushes `tail_batches` more batches
//! without publishing, drops the pipeline (the crash) and recovers.
//!
//! The pass is cut to whole epochs, so every pass publishes the same epoch
//! contents and the set-up can compute each epoch's expected bytes once.
//! The traced run also feeds each epoch through each layer's own API (the
//! decomposed twin: aggregator, colocated sampler, codec, a second store)
//! and through an unjournaled `EpochedPipeline` (the WAL differential).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use cws_core::budget::ResourceBudget;
use cws_core::summary::{ColocatedSummary, SummaryConfig};
use cws_data::ip::{IpKey, IpTrace, IpTraceConfig};
use cws_data::synthetic::{element_stream, Element};
use cws_engine::{
    recover_from_store_and_wal, Aggregation, EpochedPipeline, EstimateReport, KeyAggregator,
    Layout, PipelineBuilder, QueryBatch, SnapshotStore, Summary, WalConfig,
};
use cws_stream::ColocatedStreamSampler;

use super::{
    builder, derive_seed, ns, query_specs, record_headline, same_reports, summary_config,
    trace_overhead, Ctx, Scale, K,
};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Flows in the generated trace.
    pub flows: usize,
    /// Destination IPs (the keys) the flows go to.
    pub dest_ips: usize,
    /// Elements per `push_elements` call.
    pub batch: usize,
    /// Calls per published epoch.
    pub epoch_batches: usize,
    /// Sample size.
    pub k: usize,
    /// Calls pushed after the last publish, before the crash.
    pub tail_batches: usize,
    /// `recover_from_store_and_wal` calls after the crash.
    pub recoveries: usize,
    /// Snapshots the store retains.
    pub retention: usize,
}

impl Params {
    /// The sizes for `scale`.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                flows: 1_000_000,
                dest_ips: 200_000,
                batch: 4096,
                epoch_batches: 64,
                k: K,
                tail_batches: 256,
                recoveries: 5,
                retention: 4,
            },
            Scale::Tiny => Self {
                flows: 20_000,
                dest_ips: 4_000,
                batch: 1024,
                epoch_batches: 8,
                k: 64,
                tail_batches: 16,
                recoveries: 2,
                retention: 4,
            },
        }
    }

    fn epoch_len(&self) -> usize {
        self.batch * self.epoch_batches
    }
}

/// Inputs, expected outputs and the opened durable state.
#[derive(Debug)]
pub struct Setup {
    /// One pass of elements, a whole number of epochs long.
    pub elements: Vec<Element>,
    /// Weight assignments (bytes, packets, flows, uniform).
    pub assignments: usize,
    /// Sampling configuration.
    pub config: SummaryConfig,
    /// The query batch run on every published snapshot.
    pub batch: QueryBatch,
    /// Expected snapshot bytes of each epoch of a pass.
    pub expected_epochs: Vec<Vec<u8>>,
    /// Expected query results on each epoch of a pass.
    pub expected_reports: Vec<Vec<EstimateReport>>,
    /// Expected bytes of the epoch the crashed tail would have published.
    pub expected_tail: Vec<u8>,
    /// The journaled pipeline, opened on a fresh journal.
    pub pipeline: Option<EpochedPipeline>,
    /// The snapshot store, opened empty.
    pub store: Option<SnapshotStore>,
    /// Seconds spent in the generators.
    pub gen_s: f64,
}

fn dirs(work_dir: &Path) -> (PathBuf, PathBuf, PathBuf) {
    (work_dir.join("store"), work_dir.join("wal"), work_dir.join("store-twin"))
}

fn sum_by_key(config: &SummaryConfig, assignments: usize) -> PipelineBuilder {
    builder(config, assignments, Layout::Colocated).aggregation(Aggregation::SumByKey)
}

/// What the decomposed twin produced for one epoch.
struct Twin {
    summary: ColocatedSummary,
    bytes: Vec<u8>,
    drained_keys: usize,
    peak_bytes: u64,
}

/// The decomposed twin of one epoch: each layer's public API in the
/// facade's order, with a byte-tracking budget on the aggregator.
fn twin(
    elements: &[Element],
    params: &Params,
    setup: (&SummaryConfig, usize),
    tracer: &mut Tracer,
    request: u64,
) -> cws_core::Result<Twin> {
    let (config, assignments) = setup;
    let mut aggregator = KeyAggregator::new(Aggregation::SumByKey, assignments, config.seed);
    aggregator.set_budget(&ResourceBudget::unlimited().with_max_bytes(u64::MAX));
    for chunk in elements.chunks(params.batch) {
        tracer
            .span("aggregation.absorb_elements", request, |_| aggregator.absorb_elements(chunk))?;
    }
    let peak_bytes = aggregator.peak_tracked_bytes();
    let columns = tracer.span("aggregation.into_columns", request, |_| aggregator.into_columns());
    let mut sampler = ColocatedStreamSampler::new(*config, assignments);
    tracer.span("stream.push_columns", request, |_| sampler.push_columns(&columns))?;
    let summary = tracer.span("stream.finalize", request, |_| sampler.finalize());
    let bytes = tracer.span("codec.encode", request, |_| summary.to_bytes());
    Ok(Twin { summary, bytes, drained_keys: columns.len(), peak_bytes })
}

/// Generates the trace, shreds it into elements, computes every epoch's
/// expected bytes and query results, opens a fresh store and journal, and
/// runs one untimed in-memory epoch as warm-up.
pub fn setup(params: &Params, seed: u64, work_dir: &Path, report: &mut Report) -> Setup {
    let start = Instant::now();
    let trace = IpTrace::generate(&IpTraceConfig {
        num_flows: params.flows,
        num_dest_ips: params.dest_ips,
        seed: derive_seed(seed, 11),
        ..IpTraceConfig::default()
    });
    let data = trace.colocated(IpKey::DestIp).data;
    drop(trace);
    let mut elements = element_stream(&data.to_columns(), 2, 5, derive_seed(seed, 12));
    let gen_s = start.elapsed().as_secs_f64();
    let epochs = elements.len() / params.epoch_len();
    assert!(epochs > 0, "a pass must hold at least one epoch");
    assert!(params.tail_batches * params.batch <= epochs * params.epoch_len(), "tail fits a pass");
    elements.truncate(epochs * params.epoch_len());

    let assignments = data.num_assignments();
    let config = summary_config(params.k, derive_seed(seed, 13));
    let batch: QueryBatch = query_specs(assignments).into_iter().collect();
    let off = &mut Tracer::disabled();
    let (mut expected_epochs, mut expected_reports) = (Vec::new(), Vec::new());
    for epoch in elements.chunks(params.epoch_len()) {
        let Some(t) =
            report.call("twin epoch", twin(epoch, params, (&config, assignments), off, 0))
        else {
            continue;
        };
        let results = batch.execute(&Summary::Colocated(t.summary));
        expected_reports.push(report.call("QueryBatch::execute", results).unwrap_or_default());
        expected_epochs.push(t.bytes);
    }
    let tail = &elements[..params.tail_batches * params.batch];
    let expected_tail = report
        .call("twin tail", twin(tail, params, (&config, assignments), off, 0))
        .map(|t| t.bytes)
        .unwrap_or_default();

    // Warm-up: one epoch through an in-memory pipeline and one query batch.
    if let Some(mut warm) =
        report.call("EpochedPipeline::new", EpochedPipeline::new(sum_by_key(&config, assignments)))
    {
        for chunk in elements[..params.epoch_len()].chunks(params.batch) {
            report.call("push_elements", warm.push_elements(chunk));
        }
        if let Some(published) = report.call("publish", warm.publish()) {
            report.call("QueryBatch::execute", batch.execute(&published.summary));
        }
    }

    let (store_dir, wal_dir, _) = dirs(work_dir);
    let _ = std::fs::remove_dir_all(work_dir);
    let store =
        report.call("SnapshotStore::open", SnapshotStore::open(store_dir, params.retention));
    let journaled = sum_by_key(&config, assignments).journal(WalConfig::new(wal_dir));
    let pipeline = report.call("EpochedPipeline::new", EpochedPipeline::new(journaled));
    Setup {
        elements,
        assignments,
        config,
        batch,
        expected_epochs,
        expected_reports,
        expected_tail,
        pipeline,
        store,
        gen_s,
    }
}

/// The gates on one published epoch: its bytes and its query results
/// equal the ones the set-up computed for that epoch of the pass.
fn check_epoch(
    s: &Setup,
    content: usize,
    epoch: u64,
    summary: &Summary,
    results: cws_core::Result<Vec<EstimateReport>>,
    r: &mut Report,
) {
    if let Some(results) = r.call("QueryBatch::execute", results) {
        let expected = s.expected_reports.get(content);
        r.gate(expected.is_some_and(|e| same_reports(&results, e)), || {
            format!("epoch {epoch}: query results differ from the twin's")
        });
    }
    let expected = s.expected_epochs.get(content);
    r.gate(expected.is_some_and(|e| summary.to_bytes() == *e), || {
        format!("epoch {epoch}: snapshot differs from its twin")
    });
}

/// The traced run's twins: an unjournaled pipeline fed the same calls, and
/// the decomposed twin publishing into a store of its own.
struct Twins {
    plain: EpochedPipeline,
    store: SnapshotStore,
    kernels: usize,
    peak_bytes: u64,
    /// Drained keys per epoch.
    drained: BTreeMap<u64, f64>,
    sample_fill: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

impl Twins {
    fn open(params: &Params, s: &Setup, dir: &Path, r: &mut Report) -> Option<Self> {
        let plain = EpochedPipeline::new(sum_by_key(&s.config, s.assignments));
        let plain = r.call("EpochedPipeline::new", plain)?;
        let store = r.call("SnapshotStore::open", SnapshotStore::open(dir, params.retention))?;
        Some(Self {
            plain,
            store,
            kernels: 0,
            peak_bytes: 0,
            drained: BTreeMap::new(),
            sample_fill: Vec::new(),
            snapshot_bytes: Vec::new(),
        })
    }

    fn push(&mut self, slice: &[Element], epoch: u64, tracer: &mut Tracer, r: &mut Report) {
        let plain = &mut self.plain;
        let pushed = tracer
            .span("continuous.push_elements_unjournaled", epoch, |_| plain.push_elements(slice));
        r.call("EpochedPipeline::push_elements", pushed);
    }

    /// Publishes the unjournaled pipeline, rebuilds the epoch through the
    /// decomposed twin and stores it; both must match the facade's bytes.
    fn epoch(
        &mut self,
        params: &Params,
        s: &Setup,
        content: usize,
        epoch: u64,
        tracer: &mut Tracer,
        r: &mut Report,
    ) {
        if let Ok(plan) = tracer.span("plan.plan", epoch, |_| s.batch.plan()) {
            self.kernels = plan.num_kernels();
        }
        let Some(expected) = s.expected_epochs.get(content) else { return };
        let plain = &mut self.plain;
        let published = tracer.span("continuous.publish_unjournaled", epoch, |_| plain.publish());
        if let Some(published) = r.call("EpochedPipeline::publish", published) {
            r.gate(published.summary.to_bytes() == *expected, || {
                format!("epoch {epoch}: unjournaled pipeline differs from the journaled one")
            });
        }
        let epoch_len = params.epoch_len();
        let elements = &s.elements[content * epoch_len..(content + 1) * epoch_len];
        let twin = twin(elements, params, (&s.config, s.assignments), tracer, epoch);
        let Some(twin) = r.call("twin epoch", twin) else { return };
        r.gate(twin.bytes == *expected, || format!("epoch {epoch}: decomposed twin differs"));
        self.drained.insert(epoch, twin.drained_keys as f64);
        self.peak_bytes = self.peak_bytes.max(twin.peak_bytes);
        let fill = twin.summary.num_distinct_keys() as f64 / (params.k * s.assignments) as f64;
        self.sample_fill.push(fill);
        self.snapshot_bytes.push(twin.bytes.len() as f64);
        let summary = Summary::Colocated(twin.summary);
        let store = &mut self.store;
        let stored = tracer.span("store.publish", epoch, |_| store.publish(epoch + 1, &summary));
        r.call("SnapshotStore::publish", stored);
    }
}

/// Sets up and runs the measured passes, the crash and the recoveries.
pub fn run(ctx: &mut Ctx, params: &Params) {
    let (seed, work_dir) = (ctx.seed, ctx.work_dir.clone());
    ctx.setup_and_measure(
        |report| setup(params, seed, &work_dir, report),
        |s| s.gen_s,
        |ctx, s| measure(ctx, params, s),
    );
}

/// The measured passes, the crash and the recoveries over `setup`.
pub fn measure(ctx: &mut Ctx, params: &Params, mut setup: Setup) {
    let work_dir = ctx.work_dir.clone();
    let (Some(mut pipeline), Some(mut store)) = (setup.pipeline.take(), setup.store.take()) else {
        return;
    };
    let s = &setup;
    let (store_dir, wal_dir, twin_dir) = dirs(&work_dir);
    let epoch_len = params.epoch_len();
    let traced = ctx.traced;
    let mut tracer = ctx.tracer(0);
    let r = &mut ctx.report;
    let mut twins = if traced { Twins::open(params, s, &twin_dir, r) } else { None };

    let (mut publish_ms, mut query_us, mut epoch_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut wal_bytes_per_elem, mut segments_peak) = (Vec::new(), 0usize);
    let (mut journaled_push_ns, mut epoch_ns) = (0.0, 0.0);
    let mut epoch: u64 = 0;
    for _pass in 0..ctx.units {
        for (index, slice) in s.elements.chunks(params.batch).enumerate() {
            // Facade spans are recorded on even epochs only, so the traced
            // run also gives the tracing overhead.
            tracer.set_enabled(traced && epoch % 2 == 0);
            let start = Instant::now();
            let pushed =
                tracer.span("continuous.push_elements", epoch, |_| pipeline.push_elements(slice));
            let push_ns = ns(start.elapsed());
            r.call("EpochedPipeline::push_elements", pushed);
            journaled_push_ns += push_ns;
            epoch_ns += push_ns;
            if let Some(twins) = twins.as_mut() {
                tracer.set_enabled(true);
                twins.push(slice, epoch, &mut tracer, r);
                tracer.set_enabled(epoch % 2 == 0);
            }
            if (index + 1) % params.epoch_batches != 0 {
                continue;
            }
            let content = index / params.epoch_batches;
            if let Some(journal) = pipeline.journal() {
                wal_bytes_per_elem.push(journal.total_bytes() as f64 / epoch_len as f64);
                segments_peak = segments_peak.max(journal.num_segments());
            }
            let start = Instant::now();
            let published = tracer
                .span("continuous.publish_into", epoch, |_| pipeline.publish_into(&mut store));
            let publish_ns = ns(start.elapsed());
            publish_ms.push(publish_ns / 1e6);
            epoch_ns += publish_ns;
            if let Some(published) = r.call("EpochedPipeline::publish_into", published) {
                let start = Instant::now();
                let results =
                    tracer.span("plan.execute", epoch, |_| s.batch.execute(&published.summary));
                let query_ns = ns(start.elapsed());
                query_us.push(query_ns / 1e3);
                epoch_ns += query_ns;
                check_epoch(s, content, epoch, &published.summary, results, r);
            }
            epoch_s.push(epoch_ns / 1e9);
            epoch_ns = 0.0;
            if let Some(twins) = twins.as_mut() {
                tracer.set_enabled(true);
                twins.epoch(params, s, content, epoch, &mut tracer, r);
            }
            epoch += 1;
        }
    }
    let elements_total = (s.elements.len() as u64 * ctx.units) as f64;

    // The crash: an unpublished tail, then the pipeline is dropped.
    tracer.set_enabled(traced);
    let tail = &s.elements[..params.tail_batches * params.batch];
    for chunk in tail.chunks(params.batch) {
        r.call("EpochedPipeline::push_elements", pipeline.push_elements(chunk));
    }
    drop(pipeline);
    drop(store);
    let (mut store_recover_s, mut recover_s) = (Vec::new(), Vec::new());
    let reopened = SnapshotStore::open(&store_dir, params.retention);
    if let Some(mut store) = r.call("SnapshotStore::open", reopened) {
        for attempt in 0..params.recoveries as u64 {
            let start = Instant::now();
            let recovered = tracer.span("store.recover", attempt, |_| store.recover());
            store_recover_s.push(start.elapsed().as_secs_f64());
            r.call("SnapshotStore::recover", recovered);
        }
        for attempt in 0..params.recoveries as u64 {
            let journaled = sum_by_key(&s.config, s.assignments).journal(WalConfig::new(&wal_dir));
            let start = Instant::now();
            let recovered = tracer.span("wal.recover_from_store_and_wal", attempt, |_| {
                recover_from_store_and_wal(journaled, &mut store)
            });
            recover_s.push(start.elapsed().as_secs_f64());
            let Some(recovered) = r.call("recover_from_store_and_wal", recovered) else {
                continue;
            };
            let replayed = recovered.replay.records_replayed;
            r.gate(replayed == tail.len() as u64, || {
                format!("recovery {attempt}: replayed {replayed} of {} tail elements", tail.len())
            });
            let mut resumed = recovered.pipeline;
            if let Some(published) = r.call("EpochedPipeline::publish", resumed.publish()) {
                r.gate(published.summary.to_bytes() == s.expected_tail, || {
                    format!("recovery {attempt}: recovered publish differs from the tail's twin")
                });
            }
        }
    }

    record_headline(r, epoch_len as f64, &epoch_s, &publish_ms);
    r.metric("ingest_elem_per_s", epoch_len as f64 / median(&epoch_s), Vec::new());
    r.metric("publish_ms_p50", median(&publish_ms), Vec::new());
    r.metric("publish_ms_p95", percentile(&publish_ms, 95.0), Vec::new());
    r.metric("recover_s", median(&recover_s), recover_s.clone());

    if let Some(twins) = twins {
        let by = |name| tracer.total_ns_by_request(name);
        let (absorb, drain) = (by("aggregation.absorb_elements"), by("aggregation.into_columns"));
        let (push, finalize) = (by("stream.push_columns"), by("stream.finalize"));
        let (encode, stored) = (by("codec.encode"), by("store.publish"));
        let plain_push = by("continuous.push_elements_unjournaled");
        let plain_publish = by("continuous.publish_unjournaled");
        let mut per_epoch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (&epoch, &drained) in &twins.drained {
            let at = |m: &BTreeMap<u64, f64>| m.get(&epoch).copied().unwrap_or(0.0);
            let twin_ns = at(&absorb) + at(&drain) + at(&push) + at(&finalize);
            let facade_ns = at(&plain_push) + at(&plain_publish);
            let publish_extra =
                publish_ms[epoch as usize] - (at(&plain_publish) + at(&stored)) / 1e6;
            for (name, value) in [
                ("aggregation.absorb_ns_per_elem", at(&absorb) / epoch_len as f64),
                ("aggregation.drain_ms", at(&drain) / 1e6),
                ("aggregation.elems_per_key", epoch_len as f64 / drained),
                ("stream.push_ns_per_rec", at(&push) / drained),
                ("stream.finalize_ms", at(&finalize) / 1e6),
                ("codec.encode_ms", at(&encode) / 1e6),
                ("store.publish_ms", (at(&stored) - at(&encode)) / 1e6),
                ("pipeline.overhead_frac", (facade_ns - twin_ns) / facade_ns),
                ("wal.publish_extra_ms", publish_extra),
            ] {
                per_epoch.entry(name).or_default().push(value);
            }
        }
        for (name, values) in per_epoch {
            r.metric(name, median(&values), values);
        }
        let plain_push_total: f64 = plain_push.values().sum();
        let store_recover_ms: Vec<f64> = store_recover_s.iter().map(|s| s * 1e3).collect();
        let replay = (median(&recover_s) - median(&store_recover_s)) * 1e9 / tail.len() as f64;
        let plan_us: Vec<f64> = tracer.durations("plan.plan").iter().map(|ns| ns / 1e3).collect();
        let wal_ns_per_elem = (journaled_push_ns - plain_push_total) / elements_total;
        r.metric("aggregation.peak_bytes", twins.peak_bytes as f64, Vec::new());
        r.metric("stream.sample_fill", median(&twins.sample_fill), twins.sample_fill);
        r.metric("codec.snapshot_bytes", median(&twins.snapshot_bytes), twins.snapshot_bytes);
        r.metric("wal.append_ns_per_elem", wal_ns_per_elem, Vec::new());
        r.metric("wal.bytes_per_elem", median(&wal_bytes_per_elem), wal_bytes_per_elem);
        r.metric("wal.segments_peak", segments_peak as f64, Vec::new());
        r.metric("store.recover_ms", median(&store_recover_ms), store_recover_ms);
        r.metric("continuous.replay_ns_per_elem", replay, Vec::new());
        r.metric("continuous.publish_ms_p99", percentile(&publish_ms, 99.0), Vec::new());
        r.metric("plan.plan_us", median(&plan_us), plan_us);
        r.metric("plan.kernels_per_batch", twins.kernels as f64, Vec::new());
        r.metric("plan.colocated_execute_us_p50", median(&query_us), query_us);
        r.metric("trace.overhead_frac", trace_overhead(&epoch_s), Vec::new());
    }
    ctx.tracers.push(tracer);
    let _ = std::fs::remove_dir_all(&work_dir);
}
