//! Golden estimates: the exact bits of every [`EstimateReport`] field for a
//! fixed grid of seeded summaries and queries, pinned in
//! `tests/fixtures/estimate_golden.txt`.
//!
//! The grid covers dispersed shared-seed and independent summaries and a
//! colocated summary; on each it runs the 64-spec mixed batch of the
//! end-to-end benchmark (sums, L1, Jaccard and max over pairs) and, one spec
//! at a time through `Summary::query`, single / max / min / L1 / ℓ-th largest
//! over assignment sets under both selections, with and without a predicate.
//! Each `query` line also pins a digest of its per-key adjusted weights
//! (`Summary::adjusted_weights`) in entry order, which fixes the order every
//! fold adds them in.
//!
//! Any change to an estimator, a summary layout or a fold that moves a
//! single bit fails here. Regenerate only after a deliberate change to the
//! estimates, with:
//! `CWS_BLESS=1 cargo test --test estimate_golden`

use std::fmt::Write as _;
use std::path::PathBuf;

use coordinated_sampling::prelude::*;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/estimate_golden.txt")
}

const ASSIGNMENTS: usize = 8;

/// The summaries of the grid. Every constant is part of the golden contract.
fn summaries() -> Vec<(&'static str, Summary)> {
    let data = correlated_zipf(5_000, ASSIGNMENTS, 1.1, 0.7, 0.1, 0x601D);
    let config = |mode| SummaryConfig::new(64, RankFamily::Ipps, mode, 0xE57);
    vec![
        (
            "dispersed_shared",
            Summary::Dispersed(DispersedSummary::build(
                &data,
                &config(CoordinationMode::SharedSeed),
            )),
        ),
        (
            "dispersed_independent",
            Summary::Dispersed(DispersedSummary::build(
                &data,
                &config(CoordinationMode::Independent),
            )),
        ),
        (
            "colocated_shared",
            Summary::Colocated(ColocatedSummary::build(
                &data,
                &config(CoordinationMode::SharedSeed),
            )),
        ),
    ]
}

/// The end-to-end benchmark's 64-spec batch: lane `i`, by `i % 4`, with
/// `a = i % 8`: `sum(a)` on `key % 16 == i % 16`, `l1(a, a+1)`,
/// `jaccard(a, a+3)` on even keys, `max(a, a+2)`.
fn mixed_batch(selection: SelectionKind) -> QueryBatch {
    let m = ASSIGNMENTS;
    (0..64)
        .map(|i| {
            let a = i % m;
            let spec = match i % 4 {
                0 => {
                    let lane = (i % 16) as u64;
                    QuerySpec::sum(a).filter(move |key| key % 16 == lane)
                }
                1 => QuerySpec::l1(a, (i + 1) % m),
                2 => QuerySpec::jaccard(a, (i + 3) % m).filter(|key| key % 2 == 0),
                _ => QuerySpec::max(a, (i + 2) % m),
            };
            spec.selection(selection)
        })
        .collect()
}

/// One labelled line of the single-spec grid: the spec, and the aggregate
/// and selection behind its adjusted-weight digest.
struct Line {
    label: String,
    spec: QuerySpec,
    aggregate: AggregateFn,
    selection: SelectionKind,
}

/// The single-spec grid, labelled.
fn queries() -> Vec<Line> {
    use AggregateFn::{LthLargest, Max, Min, SingleAssignment, L1};
    let shapes = [
        ("single(0)", QuerySpec::sum(0), SingleAssignment(0)),
        ("single(5)", QuerySpec::sum(5), SingleAssignment(5)),
        ("max(0,1,2)", QuerySpec::max_of([0, 1, 2]), Max(vec![0, 1, 2])),
        ("max(3,6)", QuerySpec::max_of([3, 6]), Max(vec![3, 6])),
        ("min(0,1,2)", QuerySpec::min_of([0, 1, 2]), Min(vec![0, 1, 2])),
        ("min(4,7)", QuerySpec::min_of([4, 7]), Min(vec![4, 7])),
        ("l1(0,1,2)", QuerySpec::l1_of([0, 1, 2]), L1(vec![0, 1, 2])),
        ("l1(2,5)", QuerySpec::l1_of([2, 5]), L1(vec![2, 5])),
        (
            "lth(0,1,2,3;2)",
            QuerySpec::lth_largest([0, 1, 2, 3], 2),
            LthLargest { assignments: vec![0, 1, 2, 3], ell: 2 },
        ),
        (
            "lth(1,4,7;3)",
            QuerySpec::lth_largest([1, 4, 7], 3),
            LthLargest { assignments: vec![1, 4, 7], ell: 3 },
        ),
    ];
    let mut grid = Vec::new();
    for (name, spec, aggregate) in shapes {
        for selection in [SelectionKind::SSet, SelectionKind::LSet] {
            let spec = spec.clone().selection(selection);
            grid.push(Line {
                label: format!("{name} {selection:?}"),
                spec: spec.clone(),
                aggregate: aggregate.clone(),
                selection,
            });
            grid.push(Line {
                label: format!("{name} {selection:?} key%3==1"),
                spec: spec.filter(|key| key % 3 == 1),
                aggregate: aggregate.clone(),
                selection,
            });
        }
    }
    grid
}

fn report_line(report: &EstimateReport) -> String {
    let bits =
        |x: Option<f64>| x.map_or_else(|| "-".to_string(), |v| format!("{:016x}", v.to_bits()));
    let ci = report.ci95.map_or_else(
        || "-".to_string(),
        |ci| {
            format!(
                "{:016x}/{:016x}/{:016x}",
                ci.lower.to_bits(),
                ci.upper.to_bits(),
                ci.z.to_bits()
            )
        },
    );
    format!(
        "value={:016x} observed={} variance={} ci95={ci}",
        report.value.to_bits(),
        report.observed_keys,
        bits(report.variance)
    )
}

/// FNV-1a over `(key, weight bits)` of the adjusted weights, in entry order.
fn adjusted_digest(line: &Line, summary: &Summary) -> String {
    match summary.adjusted_weights(&line.aggregate, line.selection) {
        Ok(adjusted) => {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for (key, weight) in adjusted.iter() {
                for word in [key, weight.to_bits()] {
                    for byte in word.to_le_bytes() {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
            format!("entries={} digest={hash:016x}", adjusted.len())
        }
        Err(_) => "error".to_string(),
    }
}

fn golden_lines() -> String {
    let mut out = String::new();
    for (name, summary) in summaries() {
        for selection in [SelectionKind::SSet, SelectionKind::LSet] {
            match mixed_batch(selection).execute(&summary) {
                Ok(reports) => {
                    for (lane, report) in reports.iter().enumerate() {
                        writeln!(
                            out,
                            "{name} batch {selection:?} lane {lane}: {}",
                            report_line(report)
                        )
                        .unwrap();
                    }
                }
                Err(_) => writeln!(out, "{name} batch {selection:?}: error").unwrap(),
            }
        }
        for line in queries() {
            let report = match summary.query(&line.spec) {
                Ok(report) => report_line(&report),
                Err(_) => "error".to_string(),
            };
            let digest = adjusted_digest(&line, &summary);
            writeln!(out, "{name} query {}: {report} {digest}", line.label).unwrap();
        }
    }
    out
}

#[test]
fn estimates_match_the_golden_bits() {
    let lines = golden_lines();
    let path = golden_path();
    if std::env::var_os("CWS_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &lines).unwrap();
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden estimates {} ({e}); regenerate with CWS_BLESS=1", path.display())
    });
    let differing: Vec<(&str, &str)> =
        committed.lines().zip(lines.lines()).filter(|(want, got)| want != got).collect();
    assert!(
        differing.is_empty(),
        "{} golden estimate line(s) drifted; first:\n  want {}\n  got  {}",
        differing.len(),
        differing[0].0,
        differing[0].1
    );
    assert_eq!(committed.lines().count(), lines.lines().count(), "golden grid changed size");
}

#[test]
fn the_grid_exercises_every_estimator_path() {
    // Guards the fixture itself: the grid must reach real estimates on each
    // summary (not only errors; the independent one supports only single
    // and min), and the independent summary must reject the estimators it
    // cannot support.
    let lines = golden_lines();
    for name in ["dispersed_shared", "dispersed_independent", "colocated_shared"] {
        let ok = lines.lines().filter(|l| l.starts_with(name) && !l.contains("error")).count();
        assert!(ok >= 16, "{name}: only {ok} non-error lines");
    }
    assert!(lines.contains("dispersed_independent query max(0,1,2) SSet: error"));
    assert!(lines.contains("dispersed_shared batch LSet lane 1: value="));
}
