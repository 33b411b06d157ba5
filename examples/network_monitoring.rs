//! Network-monitoring scenario (dispersed weights, unaggregated input).
//!
//! Hourly summaries of router traffic are collected independently — each
//! hour's collector samples its own flow records and only shares a hash seed
//! with the other hours. Flows arrive *unaggregated* (a flow's bytes come
//! packet batch by packet batch), so each pipeline runs a `SumByKey`
//! aggregation stage in front of its sampler. To scale out, the stream is
//! split by destination across two collectors, each on its own thread, and
//! `Pipeline::merge` joins their summaries into exactly the summary one
//! pipeline over the whole stream would have built. Later, an operator
//! asks change-detection questions such as "how much did the traffic of
//! destinations in this suspicious subnet change between hour 1 and
//! hour 4?", which the coordinated samples answer without ever collating
//! the raw data.
//!
//! Run with: `cargo run --release --example network_monitoring`

use coordinated_sampling::data::ip::{IpAttribute, IpKey, IpTrace, IpTraceConfig};
use coordinated_sampling::data::synthetic::{element_stream, Element};
use coordinated_sampling::prelude::*;

fn main() {
    // Generate a synthetic 4-hour trace (stand-in for a router feed).
    let trace = IpTrace::generate(&IpTraceConfig {
        num_flows: 30_000,
        num_dest_ips: 3_000,
        num_periods: 4,
        churn: 0.4,
        seed: 2024,
        ..IpTraceConfig::default()
    });
    let view = trace.dispersed(IpKey::DestIp, IpAttribute::Bytes);
    let data = &view.data;
    // Shred the aggregated per-destination byte counts back into raw
    // observations: 2–5 packet batches per (destination, hour), interleaved
    // — the shape a collector actually sees.
    let packets = element_stream(&data.to_columns(), 2, 5, 0xBEEF);
    println!(
        "{}: {} destinations, {} hourly assignments, {} raw packet batches",
        view.name,
        data.num_keys(),
        data.num_assignments(),
        packets.len()
    );

    // Each collector: SumByKey aggregation → hash-once sampling → one
    // coordinated bottom-k sketch per hour (k = 512). Every collector uses
    // the same configuration and seed, which is what makes them merge.
    let collector = |packets: &[Element]| {
        let mut pipeline = Pipeline::builder()
            .assignments(data.num_assignments())
            .k(512)
            .rank(RankFamily::Ipps)
            .coordination(CoordinationMode::SharedSeed)
            .layout(Layout::Dispersed)
            .aggregation(Aggregation::SumByKey)
            .seed(0xC0FE)
            .build()
            .expect("valid configuration");
        // Observations arrive in batches; `push_elements` resolves each
        // batch's aggregation slots in one pass.
        for batch in packets.chunks(4096) {
            pipeline.push_elements(batch).expect("valid observations");
        }
        pipeline.finalize().expect("a validated aggregate always finalizes")
    };

    // Scale-out: route each destination to one of two collectors (disjoint
    // key partitions), run them on two threads, and merge their summaries.
    let (even, odd): (Vec<Element>, Vec<Element>) =
        packets.iter().partition(|&&(key, _, _)| key % 2 == 0);
    let partials = std::thread::scope(|scope| {
        let collectors = [&even, &odd].map(|part| scope.spawn(|| collector(part)));
        collectors.map(|handle| handle.join().expect("collector thread"))
    });
    let summary = Pipeline::merge(&partials).expect("same configuration, disjoint keys");
    assert_eq!(summary, collector(&packets), "the merge equals one pipeline over everything");
    println!(
        "merged summary of 2 collectors holds {} distinct destinations ({} per hour embedded), \
         identical to one collector over the whole stream",
        summary.num_distinct_keys(),
        summary.k()
    );

    // A-posteriori query: destinations in a "suspicious" group (here: a slice
    // of the hashed key space, standing in for a subnet or customer prefix).
    let suspicious = |key: Key| key % 16 < 3;
    let hours = [0usize, 1, 2, 3];

    let queries: Vec<(&str, QuerySpec, AggregateFn)> = vec![
        ("hour-1 bytes", QuerySpec::sum(0), AggregateFn::SingleAssignment(0)),
        ("4-hour max-dominance", QuerySpec::max_of(hours), AggregateFn::Max(hours.to_vec())),
        ("4-hour min-dominance", QuerySpec::min_of(hours), AggregateFn::Min(hours.to_vec())),
        ("hour-1 vs hour-4 L1 change", QuerySpec::l1(0, 3), AggregateFn::L1(vec![0, 3])),
    ];
    println!("\nsuspicious-subnet queries (estimate vs exact):");
    for (name, query, aggregate) in queries {
        let estimate = summary.query(&query.filter(suspicious)).unwrap();
        let exact = exact_aggregate(data, &aggregate, suspicious);
        let error = if exact > 0.0 { 100.0 * (estimate.value - exact).abs() / exact } else { 0.0 };
        println!(
            "  {name:<28} {:>14.0}  vs {exact:>14.0}   ({error:.1}% off, {} keys observed)",
            estimate.value, estimate.observed_keys
        );
    }

    // Show why coordination matters: the same estimate from independent
    // (non-coordinated) per-hour samples — only the builder line changes.
    let mut independent = Pipeline::builder()
        .assignments(data.num_assignments())
        .k(512)
        .coordination(CoordinationMode::Independent)
        .layout(Layout::Dispersed)
        .seed(0xC0FE)
        .build()
        .unwrap();
    independent.push_batch(data.iter()).unwrap();
    let independent = independent.finalize().unwrap();
    let naive = independent.query(&QuerySpec::min_of(hours).filter(suspicious)).unwrap();
    let exact = exact_aggregate(data, &AggregateFn::Min(hours.to_vec()), suspicious);
    println!(
        "\nwithout coordination the 4-hour min estimate is {:.0} (exact {exact:.0}) — \
         independent samples rarely agree on the keys they keep.",
        naive.value
    );
}
