//! `bench compare BASE_DIR HEAD_DIR`: applies the end-to-end bounds of
//! `BENCHMARK.json` and `manifest.json` to two sets of untraced result
//! files.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::json;
use crate::manifest::{manifest, Better, Bound, MetricDef};
use crate::stats::{median, quartiles};

/// One run's end-to-end values, with what orders and pairs the runs.
#[derive(Debug, Clone)]
struct Run {
    seed: u64,
    finished: f64,
    values: BTreeMap<String, f64>,
}

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The head median is worse than the base median by more than the bound.
    Worse,
    /// Within the bound.
    Within,
    /// Better, by the gain rule: at least 9 in 10 paired wins, and a median
    /// gap larger than the base's interquartile range.
    Better,
    /// The base's own interquartile range exceeds the bound and not every
    /// head run beats every base run.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Worse => "worse",
            Verdict::Within => "within",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Decides the verdict for one metric from the paired runs.
#[must_use]
pub fn verdict(def: &MetricDef, base: &[f64], head: &[f64]) -> Verdict {
    let (mb, mh) = (median(base), median(head));
    let (q1, q3) = quartiles(base);
    let spread = q3 - q1;
    // How much worse the head median is, in the metric's direction.
    let worse_by = match def.better {
        Better::Lower => mh - mb,
        Better::Higher => mb - mh,
    };
    let limit = match def.bound {
        Bound::Relative(share) => share * mb.abs(),
        Bound::Absolute(limit) => limit,
        Bound::None => f64::INFINITY,
    };
    let beats = |h: f64, b: f64| match def.better {
        Better::Lower => h < b,
        Better::Higher => h > b,
    };
    let all_head_beat_all_base = head.iter().all(|&h| base.iter().all(|&b| beats(h, b)));
    let pairs = base.len().min(head.len());
    let wins = base.iter().zip(head).filter(|&(&b, &h)| beats(h, b)).count();
    let gain = pairs > 0 && wins * 10 >= pairs * 9 && -worse_by > spread;
    // A deterministic metric (an estimate's error, a count) reads the same
    // in every pair: it did not change, whatever its spread across seeds.
    let unchanged = base.len() == head.len() && base.iter().zip(head).all(|(b, h)| b == h);
    if unchanged {
        Verdict::Within
    } else if spread > limit && !all_head_beat_all_base {
        Verdict::Unresolved
    } else if worse_by > limit {
        Verdict::Worse
    } else if gain {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(dir: &Path) -> Result<BTreeMap<String, Vec<Run>>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut runs: BTreeMap<String, Vec<Run>> = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") != Some(&json::Value::Bool(false)) {
            continue;
        }
        let metrics = doc.get("metrics").and_then(json::Value::as_object).unwrap_or_default();
        let values = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.entry(doc.str_field("workload")?.to_string()).or_default().push(Run {
            seed: doc.num_field("seed")? as u64,
            finished: doc.num_field("finished_unix_ms").unwrap_or(0.0),
            values,
        });
    }
    for list in runs.values_mut() {
        list.sort_by(|a, b| {
            (a.seed, a.finished).partial_cmp(&(b.seed, b.finished)).expect("finite")
        });
    }
    Ok(runs)
}

/// The comparison table, and whether any pair was `worse`.
///
/// # Errors
/// When a directory or result file cannot be read.
pub fn compare(base_dir: &Path, head_dir: &Path) -> Result<(String, bool), String> {
    let (base, head) = (load(base_dir)?, load(head_dir)?);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<20} {:>3} {:>31} {:>3} {:>31} {:>8}  verdict",
        "workload", "metric", "n", "base median [q1, q3]", "n", "head median [q1, q3]", "change"
    );
    let mut any_worse = false;
    for def in manifest().workloads.iter() {
        let (Some(base_runs), Some(head_runs)) = (base.get(&def.name), head.get(&def.name)) else {
            continue;
        };
        for metric in manifest().end_to_end.iter().filter(|m| m.applies_to(&def.name)) {
            let pick = |runs: &[Run]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.values.get(&metric.name).copied()).collect()
            };
            let (b, h) = (pick(base_runs), pick(head_runs));
            if b.is_empty() || h.is_empty() {
                continue;
            }
            let v = verdict(metric, &b, &h);
            any_worse |= v == Verdict::Worse;
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4e} [{:.4e}, {:.4e}]", median(x), q1, q3)
            };
            let change = (median(&h) - median(&b)) / median(&b).abs() * 100.0;
            let _ = writeln!(
                out,
                "{:<16} {:<20} {:>3} {:>31} {:>3} {:>31} {:>+7.2}%  {}",
                def.name,
                metric.name,
                b.len(),
                show(&b),
                h.len(),
                show(&h),
                if change.is_finite() { change } else { 0.0 },
                v.label()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: Bound) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "ms".into(),
            better,
            bound,
            workloads: Vec::new(),
            listed: false,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_the_spread_and_the_gain_rule() {
        let lower = def(Better::Lower, Bound::Relative(0.1));
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let same: Vec<f64> = base.iter().map(|x| x + 0.05).collect();
        assert_eq!(verdict(&lower, &base, &same), Verdict::Within);
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&lower, &base, &slower), Verdict::Worse);
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&lower, &base, &faster), Verdict::Better);
        let higher = def(Better::Higher, Bound::Relative(0.1));
        assert_eq!(verdict(&higher, &base, &faster), Verdict::Worse);

        // A base whose own spread exceeds the bound cannot resolve a change
        // unless every head run beats every base run.
        let noisy = [50.0, 80.0, 100.0, 120.0, 150.0];
        assert_eq!(verdict(&lower, &noisy, &[100.0; 5]), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &noisy, &[10.0; 5]), Verdict::Better);
        assert_eq!(verdict(&lower, &noisy, &noisy), Verdict::Within, "paired runs read the same");

        let rate = def(Better::Lower, Bound::Absolute(0.0));
        assert_eq!(verdict(&rate, &[0.0; 4], &[0.0; 4]), Verdict::Within);
        assert_eq!(verdict(&rate, &[0.0; 4], &[0.0, 0.0, 0.1, 0.1]), Verdict::Worse);
    }
}
