//! Runs one workload and writes its result and trace files.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json;
use crate::manifest::manifest;
use crate::report::Report;
use crate::sys;
use crate::trace::{self, Tracer};
use crate::workloads::{bulk_ingest, netflow_durable, query_mix, serve_mixed, Ctx, Scale};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload name, as in the manifest.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// `--seconds`: sets the fixed work through the manifest's rates.
    pub seconds: f64,
    /// Record spans and run the twins.
    pub traced: bool,
    /// Where result files, traces and the run's working directory go.
    pub out_dir: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// A finished run.
#[derive(Debug)]
pub struct Finished {
    /// Metrics, counts and gate failures.
    pub report: Report,
    /// The run's tracers (empty buffers in an untraced run).
    pub tracers: Vec<Tracer>,
    /// Work units the measured phase did.
    pub units: u64,
}

/// Runs `config.workload` in this process.
///
/// # Errors
/// When the workload is unknown.
pub fn run(config: &RunConfig) -> Result<Finished, String> {
    let def = manifest()
        .workload(&config.workload)
        .ok_or_else(|| format!("unknown workload `{}`", config.workload))?;
    let units = match config.scale {
        Scale::Full => def.units(config.seconds),
        // Two units, so the traced run has a traced and an untraced one.
        Scale::Tiny => 2,
    };
    let work_dir = config.out_dir.join(format!("work-{}-{}", config.workload, std::process::id()));
    let mut ctx = Ctx {
        report: Report::new(&config.workload, config.traced),
        seed: config.seed,
        units,
        traced: config.traced,
        origin: Instant::now(),
        work_dir,
        tracers: Vec::new(),
    };
    let scale = config.scale;
    match def.name.as_str() {
        "bulk_ingest" => bulk_ingest::run(&mut ctx, &bulk_ingest::Params::new(scale)),
        "netflow_durable" => netflow_durable::run(&mut ctx, &netflow_durable::Params::new(scale)),
        "query_mix" => query_mix::run(&mut ctx, &query_mix::Params::new(scale)),
        "serve_mixed" => serve_mixed::run(&mut ctx, &serve_mixed::Params::new(scale)),
        other => return Err(format!("workload `{other}` has no implementation")),
    }
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    ctx.report.finish();
    Ok(Finished { report: ctx.report, tracers: ctx.tracers, units })
}

fn unix_ms() -> u128 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_millis())
}

/// The self-time table of `tracers`, one line per span name.
#[must_use]
pub fn self_time_table(tracers: &[Tracer]) -> String {
    let refs: Vec<&Tracer> = tracers.iter().collect();
    let mut out = format!("{:<40} {:>9} {:>12} {:>12}\n", "span", "count", "total_ms", "self_ms");
    for (name, t) in trace::self_times(&refs) {
        out.push_str(&format!(
            "{name:<40} {:>9} {:>12.3} {:>12.3}\n",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out
}

/// Writes the result file (and, for a traced run, the Chrome trace) into
/// `config.out_dir`; returns their paths.
///
/// # Errors
/// Any I/O error.
pub fn write_files(
    config: &RunConfig,
    finished: &Finished,
) -> std::io::Result<(PathBuf, Option<PathBuf>)> {
    std::fs::create_dir_all(&config.out_dir)?;
    let stamp = unix_ms();
    let base = format!("{}-seed{}-{}", config.workload, config.seed, stamp);
    let refs: Vec<&Tracer> = finished.tracers.iter().collect();
    let trace_path = if config.traced {
        let path = config.out_dir.join(format!("{base}.trace.json"));
        let mut out = BufWriter::new(std::fs::File::create(&path)?);
        trace::write_chrome_trace(&mut out, &refs)?;
        out.flush()?;
        Some(path)
    } else {
        None
    };
    let self_time: Vec<String> = trace::self_times(&refs)
        .into_iter()
        .map(|(name, t)| {
            format!(
                "    {}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json::string(name),
                t.count,
                json::number(t.total_ns as f64 / 1e6),
                json::number(t.self_ns as f64 / 1e6)
            )
        })
        .collect();
    let report = &finished.report;
    let failures: Vec<String> = report.failures().iter().map(|f| json::string(f)).collect();
    let dropped: u64 = finished.tracers.iter().map(Tracer::dropped).sum();
    let text = format!(
        "{{\n  \"schema\": \"cws-bench-e2e/result/v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \
         \"seconds\": {},\n  \"units\": {},\n  \"trace\": {},\n  \"git_revision\": {},\n  \
         \"nproc\": {},\n  \"cpu_model\": {},\n  \"finished_unix_ms\": {},\n  \"correct\": {},\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \"metrics\": {},\n  \
         \"self_time\": {{\n{}\n  }},\n  \"dropped_spans\": {},\n  \"trace_file\": {}\n}}\n",
        json::string(&config.workload),
        config.seed,
        json::number(config.seconds),
        finished.units,
        config.traced,
        json::string(&sys::git_revision(Path::new("."))),
        sys::nproc(),
        json::string(&sys::cpu_model()),
        stamp,
        report.correct(),
        report.attempted(),
        report.failed(),
        failures.join(", "),
        report.metrics_json(),
        self_time.join(",\n"),
        dropped,
        trace_path.as_ref().map_or("null".to_string(), |p| json::string(&p.display().to_string())),
    );
    let result_path = config.out_dir.join(format!("{base}.json"));
    std::fs::write(&result_path, text)?;
    Ok((result_path, trace_path))
}
