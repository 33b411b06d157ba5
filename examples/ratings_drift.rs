//! Ratings drift as a *continuous* workload: one coordinated snapshot per
//! month, snapshots that outlive the ingestion loop, and drift estimation
//! between any two of them — the paper's motivating "evolving database"
//! scenario.
//!
//! A year of movie ratings arrives month by month. An [`EpochedPipeline`]
//! ingests each month as its own epoch and publishes it as an immutable
//! snapshot, which the example keeps. Every epoch shares one hash seed, so
//! consecutive snapshots overlap maximally and [`Drift::between`] estimates
//! month-over-month churn (L1 distance, weighted Jaccard) from the two
//! samples alone — something independent per-month samples could not
//! answer.
//!
//! The published snapshots are immutable `Arc<Summary>` values: the example
//! also serializes one with the versioned binary codec, reads it back
//! bit-identically, and merges two regionally-split epoch snapshots into
//! the exact single-node summary.
//!
//! Run with: `cargo run --release --example ratings_drift`

use std::sync::Arc;

use coordinated_sampling::data::ratings::{RatingsConfig, RatingsData};
use coordinated_sampling::prelude::*;

/// Exact drift numbers between two months, computed from the raw data for
/// comparison against the sample-based estimates.
fn exact_drift(data: &MultiWeighted, a: usize, b: usize) -> (f64, f64) {
    let (mut l1, mut union, mut stable) = (0.0, 0.0, 0.0);
    for (_, weights) in data.iter() {
        l1 += (weights[a] - weights[b]).abs();
        union += weights[a].max(weights[b]);
        stable += weights[a].min(weights[b]);
    }
    (l1, if union > 0.0 { stable / union } else { 0.0 })
}

fn main() {
    let ratings = RatingsData::generate(&RatingsConfig {
        num_movies: 5_000,
        monthly_ratings: 250_000.0,
        seed: 77,
        ..RatingsConfig::default()
    });
    let view = ratings.dataset();
    let months = view.num_assignments();
    println!("{} movies, {months} monthly batches\n", view.num_keys());

    // One epoch per month. Every epoch is built from the same
    // configuration — the shared seed is what coordinates them.
    let builder = Pipeline::builder()
        .assignments(1)
        .k(400)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Dispersed)
        .seed(0xF00D);
    let mut epochs = EpochedPipeline::new(builder.clone()).expect("valid configuration");
    let mut published: Vec<Arc<Summary>> = Vec::with_capacity(months);

    println!("month  records   drift vs previous month (estimate | exact)   jaccard (est | exact)");
    for month in 0..months {
        for (movie, weights) in view.data.iter() {
            if weights[month] > 0.0 {
                epochs.push_record(movie, &[weights[month]]).unwrap();
            }
        }
        let report = epochs.publish().unwrap();
        published.push(Arc::clone(&report.summary));
        if month == 0 {
            println!("{:>5}  {:>7}   (first window)", month + 1, report.records);
            continue;
        }
        let drift = Drift::between(&published[month - 1], &published[month], 0).unwrap();
        let (exact_l1, exact_jaccard) = exact_drift(&view.data, month - 1, month);
        println!(
            "{:>5}  {:>7}   {:>12.0} | {:>12.0}          {:.3} | {:.3}",
            month + 1,
            report.records,
            drift.l1,
            exact_l1,
            drift.jaccard(),
            exact_jaccard,
        );
    }

    // Drift across a longer horizon: the first month's snapshot vs the
    // last (catalogue churn over the whole year).
    let yearly = Drift::between(&published[0], &published[months - 1], 0).unwrap();
    let (exact_l1, exact_jaccard) = exact_drift(&view.data, 0, months - 1);
    println!(
        "\nJanuary → December churn: L1 {:.0} (exact {exact_l1:.0}), \
         weighted Jaccard {:.3} (exact {exact_jaccard:.3})",
        yearly.l1,
        yearly.jaccard()
    );

    // Snapshots outlive the process: the latest one serializes with the
    // versioned binary codec and reads back bit-identically.
    let latest = published.last().unwrap();
    let bytes = latest.to_bytes();
    let restored = Summary::from_bytes(&bytes).unwrap();
    assert_eq!(restored, **latest);
    println!(
        "\nserialized December window: {} bytes for {} retained movies (round-trip bit-exact)",
        bytes.len(),
        latest.num_distinct_keys()
    );

    // Merge: two sites ingest disjoint halves of December into epoched
    // pipelines; their published snapshots merge into exactly the summary a
    // single node would have built.
    let december = months - 1;
    let mut site_a = EpochedPipeline::new(builder.clone()).unwrap();
    let mut site_b = EpochedPipeline::new(builder.clone()).unwrap();
    for (movie, weights) in view.data.iter() {
        if weights[december] > 0.0 {
            let site = if movie % 2 == 0 { &mut site_a } else { &mut site_b };
            site.push_record(movie, &[weights[december]]).unwrap();
        }
    }
    let a = site_a.publish().unwrap();
    let b = site_b.publish().unwrap();
    let merged = Pipeline::merge(&[a.summary.as_ref(), b.summary.as_ref()]).unwrap();
    assert_eq!(merged, **latest);
    println!(
        "two-site merge ({} + {} records) reproduces the single-node December window bit-for-bit",
        a.records, b.records
    );
}
