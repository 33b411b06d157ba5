//! Quickstart: one `Pipeline`, one `QuerySpec` — summarize a multi-assignment
//! data set and answer a-posteriori subpopulation queries from the summary.
//!
//! Run with: `cargo run --release --example quickstart`

use coordinated_sampling::prelude::*;

fn main() {
    // A toy data set: 10,000 keys, three weight assignments (think: bytes in
    // three consecutive hours), heavy-tailed and correlated across hours.
    let data = correlated_zipf(10_000, 3, 1.2, 0.85, 0.2, 7);

    // One builder configures everything: coordinated (shared-seed IPPS =
    // coordinated priority samples) colocated summary, 256 keys embedded
    // per assignment.
    let mut pipeline = Pipeline::builder()
        .assignments(3)
        .k(256)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Colocated)
        .seed(42)
        .build()
        .expect("valid configuration");
    pipeline.push_batch(data.iter()).expect("valid weights");
    let summary = pipeline.finalize().expect("single-threaded ingestion cannot fail");
    println!(
        "summary stores {} distinct keys for {} assignments",
        summary.num_distinct_keys(),
        summary.num_assignments()
    );

    // Estimate aggregates for a subpopulation chosen only now: keys whose id
    // is divisible by 7 (in a real application: flows of one customer,
    // movies of one genre, ...). One query type covers every aggregate.
    let subpopulation = |key: Key| key % 7 == 0;

    let volume = summary.query(&QuerySpec::sum(0).filter(subpopulation)).unwrap();
    let exact_volume = exact_aggregate(&data, &AggregateFn::SingleAssignment(0), subpopulation);
    println!(
        "hour-0 volume      estimate {:>12.1}   exact {exact_volume:>12.1}   ({} keys observed)",
        volume.value, volume.observed_keys
    );

    let l1 = summary.query(&QuerySpec::l1(0, 2).filter(subpopulation)).unwrap();
    let exact_l1 = exact_aggregate(&data, &AggregateFn::L1(vec![0, 2]), subpopulation);
    println!("hour-0↔2 L1 change estimate {:>12.1}   exact {exact_l1:>12.1}", l1.value);

    let min = summary.query(&QuerySpec::min_of([0, 1, 2]).filter(subpopulation)).unwrap();
    let exact_min = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1, 2]), subpopulation);
    println!("3-hour min volume  estimate {:>12.1}   exact {exact_min:>12.1}", min.value);

    // The same engine in the dispersed model — only the layout changes, the
    // ingestion surface and the queries stay identical.
    let mut pipeline = Pipeline::builder()
        .assignments(3)
        .k(256)
        .layout(Layout::Dispersed)
        .seed(42)
        .build()
        .unwrap();
    pipeline.push_batch(data.iter()).unwrap();
    let dispersed = pipeline.finalize().unwrap();
    let l1 = dispersed.query(&QuerySpec::l1(0, 2).filter(subpopulation)).unwrap();
    println!("dispersed L1       estimate {:>12.1}   exact {exact_l1:>12.1}", l1.value);

    // Raw, unaggregated streams are first-class too: an aggregation stage
    // sums per-key fragments (packets of a flow, events of a user) before
    // sampling. Here every hour's weight arrives split in two.
    let mut pipeline = Pipeline::builder()
        .assignments(3)
        .k(256)
        .layout(Layout::Dispersed)
        .aggregation(Aggregation::SumByKey)
        .seed(42)
        .build()
        .unwrap();
    for (key, weights) in data.iter() {
        for (hour, &weight) in weights.iter().enumerate() {
            pipeline.push_element(key, hour, weight * 0.5).unwrap();
            pipeline.push_element(key, hour, weight * 0.5).unwrap();
        }
    }
    let aggregated = pipeline.finalize().unwrap();
    assert_eq!(aggregated, dispersed, "pre-aggregation is bit-exact");
    println!("element-stream ingestion (SumByKey) reproduced the summary bit-for-bit");
}
