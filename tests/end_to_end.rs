//! Cross-crate integration tests: data generation → `Pipeline` ingestion →
//! `QuerySpec` estimation → comparison with exact aggregates, plus the
//! experiment registry end to end at smoke scale.

use coordinated_sampling::data::ip::{IpAttribute, IpKey, IpTrace, IpTraceConfig};
use coordinated_sampling::data::synthetic::element_stream;
use coordinated_sampling::eval::datasets::DatasetScale;
use coordinated_sampling::eval::experiments::run_all;
use coordinated_sampling::eval::measure::{measure, EstimatorSpec};
use coordinated_sampling::prelude::*;

fn ip_view() -> LabeledDataset {
    let trace = IpTrace::generate(&IpTraceConfig {
        num_flows: 4_000,
        num_dest_ips: 500,
        num_periods: 3,
        churn: 0.35,
        seed: 11,
        ..IpTraceConfig::default()
    });
    trace.dispersed(IpKey::DestIp, IpAttribute::Bytes)
}

#[test]
fn facade_pipeline_estimates_track_exact_values() {
    let view = ip_view();
    let data = &view.data;

    // Dispersed summary through the facade, fed columnar.
    let mut pipeline = Pipeline::builder()
        .assignments(data.num_assignments())
        .k(300)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Dispersed)
        .seed(5)
        .build()
        .unwrap();
    pipeline.push_columns(&data.to_columns()).unwrap();
    assert_eq!(pipeline.processed(), data.num_keys() as u64);
    let summary = pipeline.finalize().unwrap();

    let relevant = [0usize, 1, 2];
    let subpopulation = |key: Key| key % 4 == 0;
    for (query, aggregate) in [
        (QuerySpec::max_of(relevant), AggregateFn::Max(relevant.to_vec())),
        (QuerySpec::min_of(relevant), AggregateFn::Min(relevant.to_vec())),
        (QuerySpec::l1_of(relevant), AggregateFn::L1(relevant.to_vec())),
    ] {
        let estimate = summary.query(&query.filter(subpopulation)).unwrap();
        let exact = exact_aggregate(data, &aggregate, subpopulation);
        assert!(exact > 0.0);
        assert!(estimate.observed_keys > 0);
        assert!(
            (estimate.value - exact).abs() <= exact * 0.5,
            "{}: estimate {} too far from exact {exact} for a k=300 sample",
            aggregate.label(),
            estimate.value
        );
    }
}

#[test]
fn unaggregated_element_stream_matches_aggregated_ingestion_end_to_end() {
    // The IP trace re-shredded into raw per-period observations; the
    // SumByKey stage must reproduce aggregated ingestion bit-for-bit, and
    // the queries on top must therefore agree exactly.
    let view = ip_view();
    let data = &view.data;
    let elements = element_stream(&data.to_columns(), 2, 4, 0xAB);

    let build = || {
        Pipeline::builder()
            .assignments(data.num_assignments())
            .k(200)
            .layout(Layout::Dispersed)
            .seed(17)
    };
    let mut aggregated = build().build().unwrap();
    aggregated.push_batch(data.iter()).unwrap();
    let expected = aggregated.finalize().unwrap();

    let mut streaming = build().aggregation(Aggregation::SumByKey).build().unwrap();
    for &(key, period, bytes) in &elements {
        streaming.push_element(key, period, bytes).unwrap();
    }
    let streamed = streaming.finalize().unwrap();
    assert_eq!(streamed, expected);

    let query = QuerySpec::l1(0, 2).filter(|key| key % 3 == 0);
    assert_eq!(
        streamed.query(&query).unwrap(),
        expected.query(&query).unwrap(),
        "identical summaries answer identically"
    );
}

#[test]
fn colocated_facade_supports_posterior_queries() {
    let trace = IpTrace::generate(&IpTraceConfig {
        num_flows: 4_000,
        num_dest_ips: 500,
        num_periods: 2,
        seed: 13,
        ..IpTraceConfig::default()
    });
    let view = trace.colocated(IpKey::DestIp);
    let data = &view.data;

    let mut pipeline = Pipeline::builder()
        .assignments(data.num_assignments())
        .k(250)
        .layout(Layout::Colocated)
        .seed(3)
        .build()
        .unwrap();
    pipeline.push_batch(data.iter()).unwrap();
    let summary = pipeline.finalize().unwrap();
    assert!(summary.num_distinct_keys() >= 250);

    let bytes = view.assignment_named("bytes").unwrap();
    let flows = view.assignment_named("flows").unwrap();
    let subpopulation = |key: Key| key % 3 != 0;

    let estimate = summary.query(&QuerySpec::sum(bytes).filter(subpopulation)).unwrap();
    let exact = exact_aggregate(data, &AggregateFn::SingleAssignment(bytes), subpopulation);
    assert!((estimate.value - exact).abs() <= exact * 0.4, "bytes: {} vs {exact}", estimate.value);

    let estimated_flows = summary.query(&QuerySpec::sum(flows).filter(subpopulation)).unwrap();
    let exact_flows = exact_aggregate(data, &AggregateFn::SingleAssignment(flows), subpopulation);
    assert!((estimated_flows.value - exact_flows).abs() <= exact_flows * 0.4);
}

#[test]
fn coordination_beats_independence_on_the_ip_pipeline() {
    let view = ip_view();
    let spec = vec![EstimatorSpec::Adjusted(AggregateFn::Min(vec![0, 1, 2]), SelectionKind::LSet)];
    let [coordinated, independent] = [CoordinationMode::SharedSeed, CoordinationMode::Independent]
        .map(|mode| {
            let config = SummaryConfig::new(64, RankFamily::Ipps, mode, 9);
            measure(&view.data, &config, Layout::Dispersed, &spec, 40).unwrap()
        });
    assert!(
        independent[0].sigma_v > coordinated[0].sigma_v * 3.0,
        "independent ΣV {} vs coordinated ΣV {}",
        independent[0].sigma_v,
        coordinated[0].sigma_v
    );
}

#[test]
fn every_registered_experiment_produces_tables_at_smoke_scale() {
    // Every experiment at smoke scale, rendered as `experiments all --scale
    // smoke --format csv` prints it (one report's CSV and a blank line per
    // experiment), must match the committed reproduction byte for byte.
    // Regenerate only after a deliberate change to what an experiment
    // measures, with:
    // `cargo run --release -p cws-eval --bin experiments -- all --scale smoke
    //  --format csv 2>/dev/null > tests/fixtures/experiments_smoke.csv`
    let mut rendered = String::new();
    for report in run_all(DatasetScale::Smoke) {
        // Text and JSON renderings are well formed.
        assert!(report.render_text().contains(&report.id));
        assert!(report.to_json().contains("\"tables\""));
        rendered.push_str(&report.to_csv());
        rendered.push('\n');
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/experiments_smoke.csv");
    let expected = std::fs::read_to_string(&path).expect("fixture is committed");
    if let Some((line, (got, want))) =
        rendered.lines().zip(expected.lines()).enumerate().find(|(_, (got, want))| got != want)
    {
        panic!("line {}: got `{got}`, fixture has `{want}`", line + 1);
    }
    assert_eq!(rendered, expected, "output and fixture differ in length");
}

#[test]
fn distributed_merge_matches_centralized_facade_summary() {
    use coordinated_sampling::stream::merge_disjoint_summaries;

    let view = ip_view();
    let data = &view.data;
    let config = SummaryConfig::new(100, RankFamily::Ipps, CoordinationMode::SharedSeed, 21);

    // Centralized: the facade.
    let mut pipeline = Pipeline::builder()
        .assignments(data.num_assignments())
        .k(100)
        .layout(Layout::Dispersed)
        .seed(21)
        .build()
        .unwrap();
    pipeline.push_batch(data.iter()).unwrap();
    let centralized = pipeline.finalize().unwrap();

    // Partition keys across three "routers" and summarize each partition
    // separately with the offline builder.
    let mut partials = Vec::new();
    for router in 0..3u64 {
        let mut builder = MultiWeighted::builder(data.num_assignments());
        for (key, weights) in data.iter().filter(|(key, _)| key % 3 == router) {
            builder.add_vector(key, weights);
        }
        partials.push(DispersedSummary::build(&builder.build(), &config));
    }
    let merged = merge_disjoint_summaries(&partials).unwrap();
    assert_eq!(Summary::Dispersed(merged), centralized);
}
