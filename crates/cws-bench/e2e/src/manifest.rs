//! The benchmark's definition, compiled in from two files.
//!
//! The root `BENCHMARK.json` names the workloads, the run length and the
//! metrics every run reports, with their units, directions and bounds.
//! `manifest.json` beside this crate adds what that file has no room for:
//! which workloads report each metric, the metrics only some workloads
//! report (with their units, directions and bounds), and each workload's
//! work rate. A metric's unit, direction and bound live in exactly one of
//! the two files; [`parse`] rejects a manifest that repeats them.

use std::sync::OnceLock;

use crate::json::{self, Value};

/// The root `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// `manifest.json`.
pub const MANIFEST_JSON: &str = include_str!("../manifest.json");

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Relative(f64),
    /// An absolute difference, in the metric's unit.
    Absolute(f64),
    /// No bound (per-layer metrics).
    None,
}

/// One metric definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: Bound,
    /// Workloads that measure it.
    pub workloads: Vec<String>,
    /// `true` when `BENCHMARK.json` lists it, so every run reports it.
    pub listed: bool,
}

impl MetricDef {
    /// `true` when `workload` measures this metric.
    #[must_use]
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.iter().any(|w| w == workload)
    }
}

/// One workload definition.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    /// Workload name.
    pub name: String,
    /// Work units per second of `--seconds`, sized at the commit that added
    /// the benchmark so one run measures for about `--seconds` there.
    pub units_per_second: f64,
}

impl WorkloadDef {
    /// The fixed number of work units a run of `seconds` does (at least 1).
    #[must_use]
    pub fn units(&self, seconds: f64) -> u64 {
        ((seconds * self.units_per_second).round() as u64).max(1)
    }
}

/// The parsed definition.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Workloads, in run order.
    pub workloads: Vec<WorkloadDef>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricDef>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricDef>,
    /// The default `--seconds`.
    pub run_seconds: f64,
}

impl Manifest {
    /// The workload named `name`.
    #[must_use]
    pub fn workload(&self, name: &str) -> Option<&WorkloadDef> {
        self.workloads.iter().find(|w| w.name == name)
    }

    /// The metric named `name`, end-to-end or per-layer.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The compiled-in definition.
///
/// # Panics
/// If the two files are malformed or disagree — a build of this crate that
/// a test would have rejected.
#[must_use]
pub fn manifest() -> &'static Manifest {
    static MANIFEST: OnceLock<Manifest> = OnceLock::new();
    MANIFEST.get_or_init(|| {
        parse(BENCHMARK_JSON, MANIFEST_JSON).expect("BENCHMARK.json and manifest.json agree")
    })
}

fn named<'a>(entries: &'a [Value], name: &str) -> Option<&'a Value> {
    entries.iter().find(|e| e.str_field("name") == Ok(name))
}

/// One metric from its `manifest.json` entry and, when `BENCHMARK.json`
/// lists it, that file's entry.
fn metric(entry: &Value, listed: Option<&Value>) -> Result<MetricDef, String> {
    let name = entry.str_field("name")?.to_string();
    let source = match listed {
        Some(listed) => {
            if ["unit", "better", "bound", "bound_abs"].iter().any(|k| entry.get(k).is_some()) {
                return Err(format!("{name}: manifest.json repeats what BENCHMARK.json holds"));
            }
            listed
        }
        None => entry,
    };
    let better = match source.str_field("better")? {
        "higher" => Better::Higher,
        "lower" => Better::Lower,
        other => return Err(format!("{name}: unknown direction `{other}`")),
    };
    let bound = match (source.get("bound"), source.get("bound_abs")) {
        (Some(b), None) => Bound::Relative(b.as_f64().ok_or("bound must be a number")?),
        (None, Some(b)) => Bound::Absolute(b.as_f64().ok_or("bound_abs must be a number")?),
        (None, None) => Bound::None,
        (Some(_), Some(_)) => return Err(format!("{name}: both bound and bound_abs")),
    };
    let workloads = entry
        .array_field("workloads")?
        .iter()
        .map(|w| w.as_str().map(str::to_string).ok_or("workload names are strings"))
        .collect::<Result<_, _>>()?;
    Ok(MetricDef {
        unit: source.str_field("unit")?.to_string(),
        better,
        bound,
        workloads,
        listed: listed.is_some(),
        name,
    })
}

/// Parses a `BENCHMARK.json` and a `manifest.json` document into one
/// definition.
///
/// # Errors
/// A message naming the first missing or malformed field, or the first
/// workload or metric the two files disagree on.
pub fn parse(benchmark: &str, manifest: &str) -> Result<Manifest, String> {
    let (bench, man) = (json::parse(benchmark)?, json::parse(manifest)?);
    let rates = man.array_field("workloads")?;
    let workloads: Vec<WorkloadDef> = bench
        .array_field("workloads")?
        .iter()
        .map(|w| {
            let name = w.str_field("name")?;
            let rate = named(rates, name)
                .ok_or_else(|| format!("workload {name} is not in manifest.json"))?;
            Ok(WorkloadDef {
                name: name.to_string(),
                units_per_second: rate.num_field("units_per_second")?,
            })
        })
        .collect::<Result<_, String>>()?;
    if rates.len() != workloads.len() {
        return Err("manifest.json has workloads BENCHMARK.json does not name".to_string());
    }
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        let listed = bench.array_field(key)?;
        let defs: Vec<MetricDef> = man
            .array_field(key)?
            .iter()
            .map(|entry| metric(entry, named(listed, entry.str_field("name")?)))
            .collect::<Result<_, _>>()?;
        for entry in listed {
            let name = entry.str_field("name")?;
            if !defs.iter().any(|d| d.name == name) {
                return Err(format!("{name} is in BENCHMARK.json but not in manifest.json"));
            }
        }
        Ok(defs)
    };
    Ok(Manifest {
        workloads,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
        run_seconds: bench.num_field("run_seconds")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"run_seconds": 5, "workloads": [{"name": "w", "why": "."}],
        "end_to_end": [{"name": "a", "unit": "s", "better": "lower", "bound": 0.2}],
        "per_layer": []}"#;

    fn manifest_with(a: &str) -> String {
        format!(
            r#"{{"workloads": [{{"name": "w", "units_per_second": 2.0}}],
                "end_to_end": [{a},
                  {{"name": "b", "unit": "ms", "better": "lower", "bound": 0.1, "workloads": ["w"]}}],
                "per_layer": []}}"#
        )
    }

    #[test]
    fn listed_fields_come_from_benchmark_json_and_only_from_there() {
        let parsed = parse(BENCH, &manifest_with(r#"{"name": "a", "workloads": ["w"]}"#)).unwrap();
        let a = parsed.metric("a").unwrap();
        assert_eq!((a.listed, a.bound, a.unit.as_str()), (true, Bound::Relative(0.2), "s"));
        assert!(!parsed.metric("b").unwrap().listed);
        assert_eq!(parsed.workload("w").unwrap().units(3.0), 6);

        let repeated = manifest_with(r#"{"name": "a", "unit": "s", "workloads": ["w"]}"#);
        assert!(parse(BENCH, &repeated).unwrap_err().contains("repeats"));
        let missing =
            manifest_with(r#"{"name": "c", "unit": "s", "better": "lower", "workloads": []}"#);
        assert!(parse(BENCH, &missing).unwrap_err().contains("not in manifest.json"));
    }
}
