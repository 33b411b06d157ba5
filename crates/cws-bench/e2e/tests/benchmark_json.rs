//! The root `BENCHMARK.json` stays inside the limits its readers enforce,
//! and `manifest.json` completes it without repeating it.

use cws_bench_e2e::json::{self, Value};
use cws_bench_e2e::manifest::{manifest, BENCHMARK_JSON};

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect()
}

/// Units that are times: a metric in one of them is always measured, never
/// reported as a constant.
const TIME_UNITS: [&str; 6] = ["s", "ms", "us", "ns", "ns/rec", "ns/elem"];

#[test]
fn benchmark_json_keeps_to_its_format() {
    assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    let doc = json::parse(BENCHMARK_JSON).unwrap();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );

    let strings = |key| -> Vec<&str> {
        doc.array_field(key).unwrap().iter().map(|c| c.as_str().unwrap()).collect()
    };
    let command = strings("command");
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200 && !c.starts_with('/')));
    assert!(command.iter().all(|c| !c.split('/').any(|part| part == "..")));
    let paths = strings("paths");
    assert!((1..=16).contains(&paths.len()));
    for path in &paths {
        assert!(path.len() <= 200 && !path.starts_with('/') && !path.split('/').any(|p| p == ".."));
        assert!(path.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
        assert!(command.iter().any(|c| c.starts_with(path)), "the command runs {path}");
    }
    let run_seconds = doc.num_field("run_seconds").unwrap();
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads = doc.array_field("workloads").unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.str_field("why").unwrap();
        assert!(is_name(w.str_field("name").unwrap()) && why.len() <= 200 && !why.contains('\n'));
    }

    let mut names = Vec::new();
    for (key, limit, fields) in [
        ("end_to_end", 16, &["name", "unit", "better", "bound"][..]),
        ("per_layer", 128, &["name", "unit", "better"][..]),
    ] {
        let metrics = doc.array_field(key).unwrap();
        assert!((1..=limit).contains(&metrics.len()), "{key}");
        for m in metrics {
            assert_eq!(keys(m), fields);
            let name = m.str_field("name").unwrap();
            assert!(is_name(name) && is_unit(m.str_field("unit").unwrap()), "{name}");
            assert!(["higher", "lower"].contains(&m.str_field("better").unwrap()));
            names.push(name);
        }
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "metric names are used once");

    let end_to_end = doc.array_field("end_to_end").unwrap();
    let bounds: Vec<f64> = end_to_end.iter().map(|m| m.num_field("bound").unwrap()).collect();
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    let setup = end_to_end.iter().find(|m| m.str_field("name") == Ok("setup_s")).unwrap();
    assert_eq!((setup.str_field("unit"), setup.str_field("better")), (Ok("s"), Ok("lower")));
    assert!(bounds.iter().all(|&b| b <= setup.num_field("bound").unwrap()));
}

#[test]
fn every_workload_reports_every_listed_metric() {
    // manifest() panics if manifest.json disagrees with BENCHMARK.json.
    let all = &manifest().workloads;
    for def in manifest().end_to_end.iter().filter(|m| m.listed) {
        assert!(all.iter().all(|w| def.applies_to(&w.name)), "{}", def.name);
    }
    // A listed per-layer metric that a workload bypasses reads 0 there,
    // which only a count or a share may do.
    for def in manifest().per_layer.iter().filter(|m| m.listed) {
        let everywhere = all.iter().all(|w| def.applies_to(&w.name));
        assert!(everywhere || !TIME_UNITS.contains(&def.unit.as_str()), "{}", def.name);
    }
}
