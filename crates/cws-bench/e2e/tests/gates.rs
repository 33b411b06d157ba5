//! Every workload at tiny sizes: its gates pass, it reports every metric
//! the manifest gives it, its traced run writes a loadable Chrome trace —
//! and each gate fails when one byte of what it compares against flips.

use std::path::PathBuf;
use std::time::Instant;

use cws_bench_e2e::json;
use cws_bench_e2e::manifest::manifest;
use cws_bench_e2e::report::Report;
use cws_bench_e2e::run::{run, write_files, RunConfig};
use cws_bench_e2e::workloads::{bulk_ingest, netflow_durable, query_mix, serve_mixed, Ctx, Scale};

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn tiny(workload: &str, traced: bool) -> RunConfig {
    RunConfig {
        workload: workload.to_string(),
        seed: 7,
        seconds: 1.0,
        traced,
        out_dir: out_dir(&format!("{workload}-{traced}")),
        scale: Scale::Tiny,
    }
}

fn ctx(workload: &str) -> Ctx {
    Ctx {
        report: Report::new(workload, false),
        seed: 7,
        units: 2,
        traced: false,
        origin: Instant::now(),
        work_dir: out_dir(&format!("flip-{workload}")),
        tracers: Vec::new(),
    }
}

#[test]
fn every_workload_passes_its_gates_and_reports_its_metrics() {
    for def in &manifest().workloads {
        for traced in [false, true] {
            let config = tiny(&def.name, traced);
            let finished = run(&config).unwrap();
            let report = &finished.report;
            assert!(report.correct(), "{} traced={traced}: {:?}", def.name, report.failures());
            assert_eq!(report.failed(), 0);
            let defs = if traced { &manifest().per_layer } else { &manifest().end_to_end };
            for metric in defs.iter().filter(|m| m.applies_to(&def.name)) {
                let got = report.get(&metric.name);
                assert!(got.is_some(), "{} traced={traced}: no {}", def.name, metric.name);
                assert!(got.unwrap().value.is_finite(), "{}: {}", def.name, metric.name);
            }
            let line = json::parse(&report.result_line()).unwrap();
            assert_eq!(line.get("correct"), Some(&json::Value::Bool(true)));
            let reported = line.get("metrics").and_then(json::Value::as_object).unwrap();
            assert_eq!(reported.len(), defs.iter().filter(|m| m.listed).count());

            let (result, trace) = write_files(&config, &finished).unwrap();
            let doc = json::parse(&std::fs::read_to_string(result).unwrap()).unwrap();
            assert_eq!(doc.str_field("workload").unwrap(), def.name);
            assert!(doc.num_field("nproc").unwrap() >= 1.0);
            assert!(doc.str_field("cpu_model").is_ok() && doc.str_field("git_revision").is_ok());
            assert_eq!(trace.is_some(), traced);
            if let Some(trace) = trace {
                let chrome = json::parse(&std::fs::read_to_string(trace).unwrap()).unwrap();
                let events = chrome.array_field("traceEvents").unwrap();
                assert!(!events.is_empty(), "{}: empty trace", def.name);
                for event in events {
                    assert_eq!(event.str_field("ph").unwrap(), "X");
                    assert!(event.num_field("ts").unwrap() >= 0.0);
                    assert!(event.num_field("dur").unwrap() >= 0.0);
                    assert!(event.str_field("name").unwrap().contains('.'));
                }
            }
            assert!(!config
                .out_dir
                .join(format!("work-{}-{}", def.name, std::process::id()))
                .exists());
        }
    }
}

#[test]
fn a_flipped_byte_fails_the_bulk_ingest_gate() {
    let params = bulk_ingest::Params::new(Scale::Tiny);
    let mut setup = bulk_ingest::setup(&params, 7, &mut Report::new("bulk_ingest", false));
    setup.expected_bytes[40] ^= 1;
    let mut ctx = ctx("bulk_ingest");
    bulk_ingest::measure(&mut ctx, &params, &setup);
    assert!(!ctx.report.correct());
    assert!(ctx.report.failures()[0].contains("differs from DispersedSummary::build"));
}

#[test]
fn a_flipped_byte_fails_the_netflow_epoch_and_recovery_gates() {
    let params = netflow_durable::Params::new(Scale::Tiny);
    for flip_tail in [false, true] {
        let mut ctx = ctx("netflow_durable");
        let mut report = Report::new("netflow_durable", false);
        let mut setup = netflow_durable::setup(&params, 7, &ctx.work_dir, &mut report);
        assert!(report.correct(), "{:?}", report.failures());
        let (target, needle) = if flip_tail {
            (&mut setup.expected_tail, "recovered publish differs")
        } else {
            (&mut setup.expected_epochs[0], "snapshot differs from its twin")
        };
        target[40] ^= 1;
        netflow_durable::measure(&mut ctx, &params, setup);
        assert!(!ctx.report.correct());
        assert!(
            ctx.report.failures().iter().all(|f| f.contains(needle)),
            "{:?}",
            ctx.report.failures()
        );
    }
}

#[test]
fn a_flipped_bit_fails_the_query_mix_gate() {
    let params = query_mix::Params::new(Scale::Tiny);
    let mut setup = query_mix::setup(&params, 7, &mut Report::new("query_mix", false));
    setup.singles[5].value = f64::from_bits(setup.singles[5].value.to_bits() ^ 1);
    let mut ctx = ctx("query_mix");
    query_mix::measure(&mut ctx, &params, &setup);
    assert_eq!(ctx.report.failures(), ["the first batch differs from its specs run one at a time"]);
}

#[test]
fn a_flipped_byte_fails_the_serve_mixed_gate() {
    let params = serve_mixed::Params::new(Scale::Tiny);
    let mut setup = serve_mixed::setup(&params, 7, &mut Report::new("serve_mixed", false));
    setup.expected_epochs[1][40] ^= 1;
    let mut ctx = ctx("serve_mixed");
    serve_mixed::measure(&mut ctx, &params, setup);
    assert!(!ctx.report.correct());
    assert!(ctx.report.failures().iter().all(|f| f.contains("snapshot differs from its twin")));
}
