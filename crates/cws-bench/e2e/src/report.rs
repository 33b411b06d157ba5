//! What one workload run measured and checked, and how it is printed.

use std::fmt::{Display, Write as _};

use crate::json;
use crate::manifest::{manifest, MetricDef};

/// Gate failure messages kept verbatim; later ones are only counted.
const KEPT_FAILURES: usize = 20;

/// One measured metric with the samples it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name, as in the manifest.
    pub name: String,
    /// The reported value.
    pub value: f64,
    /// Unit, from the manifest.
    pub unit: String,
    /// Per-repetition samples the value summarizes (may be empty).
    pub samples: Vec<f64>,
}

/// Metrics, call counts and correctness-gate failures of one run.
#[derive(Debug, Clone)]
pub struct Report {
    workload: String,
    traced: bool,
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    failure_count: u64,
}

impl Report {
    /// An empty report for `workload`. A traced run keeps only per-layer
    /// metrics and an untraced one only end-to-end metrics, so no
    /// end-to-end number is ever taken from a traced run.
    #[must_use]
    pub fn new(workload: &str, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            traced,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            failure_count: 0,
        }
    }

    /// Records metric `name` (its unit comes from the manifest) unless it
    /// belongs to the other kind of run. A non-finite value fails the run.
    ///
    /// # Panics
    /// If the manifest does not define `name` — a bug in the workload.
    pub fn metric(&mut self, name: &str, value: f64, samples: Vec<f64>) {
        let def =
            manifest().metric(name).unwrap_or_else(|| panic!("metric `{name}` not in manifest"));
        let per_layer = manifest().per_layer.iter().any(|m| m.name == name);
        if per_layer != self.traced {
            return;
        }
        if !value.is_finite() {
            self.gate(false, || format!("metric {name} is not finite ({value})"));
        }
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Measured {
            name: name.to_string(),
            value,
            unit: def.unit.clone(),
            samples,
        });
    }

    /// The measured metric `name`, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Measured> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Counts one call into the system under test; an error counts as a
    /// failed call and fails the run.
    pub fn call<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.failed += 1;
                self.gate(false, || format!("{what} failed: {error}"));
                None
            }
        }
    }

    /// A correctness gate: records `message()` as a failure unless `ok`.
    pub fn gate(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failure_count += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(message());
            }
        }
    }

    /// Adds the calls and gate failures of `other` (a report another thread
    /// of the same run kept).
    pub fn merge(&mut self, other: &Report) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failure_count += other.failure_count;
        let room = KEPT_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.iter().take(room).cloned());
    }

    /// Calls made into the system under test.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Calls that returned an error.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The kept gate-failure messages.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// `true` when every correctness gate passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failure_count == 0
    }

    /// The metrics `BENCHMARK.json` names for this kind of run.
    fn listed_defs(&self) -> impl Iterator<Item = &'static MetricDef> {
        let defs = if self.traced { &manifest().per_layer } else { &manifest().end_to_end };
        defs.iter().filter(|m| m.listed)
    }

    /// Completes the report: records `error_rate`, reports 0 for listed
    /// metrics of layers this workload bypasses (only counts and shares,
    /// never times — a test holds the manifest to that), and fails the run
    /// if a listed metric the workload should measure is missing.
    pub fn finish(&mut self) {
        let rate =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        self.metric("error_rate", rate, Vec::new());
        self.gate(self.attempted > 0, || "no call was attempted".to_string());
        for def in self.listed_defs().collect::<Vec<_>>() {
            if self.get(&def.name).is_some() {
                continue;
            }
            if def.applies_to(&self.workload) {
                self.gate(false, || format!("metric {} was not measured", def.name));
            } else {
                self.metrics.push(Measured {
                    name: def.name.clone(),
                    value: 0.0,
                    unit: def.unit.clone(),
                    samples: Vec::new(),
                });
            }
        }
    }

    /// One `name = value unit` line per recorded metric.
    #[must_use]
    pub fn human_lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{:<34} {:>16} {}", m.name, format_value(m.value), m.unit);
        }
        out
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and the
    /// `BENCHMARK.json` metrics of this kind of run.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .listed_defs()
            .map(|def| {
                let value = self.get(&def.name).map_or(f64::NAN, |m| m.value);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&def.name),
                    json::number(value),
                    json::string(&def.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The `"metrics"` object of a result file, samples included.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let items: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json::string(&m.name),
                    json::number(m.value),
                    json::string(&m.unit),
                    json::numbers(&m.samples)
                )
            })
            .collect();
        format!("{{\n{}\n  }}", items.join(",\n"))
    }
}

fn format_value(value: f64) -> String {
    if value != 0.0 && (value.abs() >= 1e7 || value.abs() < 1e-3) {
        format!("{value:.4e}")
    } else {
        format!("{value:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reports_bypassed_counts_as_zero_and_flags_missing_metrics() {
        let mut report = Report::new("bulk_ingest", true);
        report.metric("setup_s", 1.0, Vec::new()); // end-to-end: ignored when traced
        assert!(report.get("setup_s").is_none());
        for name in ["data.gen_s", "stream.push_ns_per_rec", "stream.finalize_ms"] {
            report.metric(name, 2.5, vec![2.0, 3.0]);
        }
        assert_eq!(report.call::<(), String>("push", Ok(())), Some(()));
        report.finish();
        assert!(!report.correct(), "listed metrics left unmeasured must fail the run");
        assert_eq!(report.get("wal.segments_peak").unwrap().value, 0.0);
        let line = json::parse(&report.result_line()).unwrap();
        assert_eq!(line.num_field("attempted").unwrap(), 1.0);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.get("data.gen_s").unwrap().num_field("value").unwrap(), 2.5);
        assert_eq!(metrics.get("data.gen_s").unwrap().str_field("unit").unwrap(), "s");
    }

    #[test]
    fn failed_calls_and_gates_make_the_run_incorrect() {
        let mut report = Report::new("query_mix", false);
        assert!(report.call::<(), &str>("execute", Err("boom")).is_none());
        report.gate(true, || unreachable!());
        assert_eq!((report.attempted(), report.failed()), (1, 1));
        assert!(!report.correct());
        assert!(report.failures()[0].contains("boom"));
    }
}
