//! Stock-quotes scenario (colocated weights + similarity estimation).
//!
//! Each trading day a record with six numeric attributes (open, high, low,
//! close, adjusted close, volume) is attached to every ticker. A single
//! coordinated summary — built through the `Pipeline` facade — embeds a
//! weighted sample per attribute while storing each retained ticker only
//! once, and supports both per-attribute sums and cross-attribute
//! aggregates. Weighted Jaccard similarity across days is estimated with
//! coordinated k-mins sketches (Theorem 4.1).
//!
//! Run with: `cargo run --release --example stock_similarity`

use coordinated_sampling::core::aggregates::weighted_jaccard;
use coordinated_sampling::core::sketch::kmins::kmins_sketches;
use coordinated_sampling::data::stocks::{StockAttribute, StocksConfig, StocksData};
use coordinated_sampling::prelude::*;

fn main() {
    let stocks = StocksData::generate(&StocksConfig {
        num_tickers: 4_000,
        seed: 31,
        ..StocksConfig::default()
    });

    // --- Colocated summary of one trading day -----------------------------
    let day = stocks.colocated_day(0);
    let mut pipeline = Pipeline::builder()
        .assignments(day.data.num_assignments())
        .k(256)
        .rank(RankFamily::Ipps)
        .coordination(CoordinationMode::SharedSeed)
        .layout(Layout::Colocated)
        .seed(99)
        .build()
        .expect("valid configuration");
    pipeline.push_columns(&day.data.to_columns()).expect("valid weights");
    let summary = pipeline.finalize().unwrap();
    println!(
        "day-1 summary: {} tickers retained for 6 embedded samples",
        summary.num_distinct_keys()
    );

    let volume = day.assignment_named("volume").unwrap();
    let high = day.assignment_named("high").unwrap();

    // Estimate total traded volume of "penny stocks" (high price below 2):
    // the colocated records carry full weight vectors, so the predicate can
    // be evaluated per sampled key against another attribute.
    let colocated = summary.as_colocated().expect("colocated layout");
    let adjusted_volume = summary
        .adjusted_weights(&AggregateFn::SingleAssignment(volume), SelectionKind::LSet)
        .unwrap();
    let penny_estimate: f64 = colocated
        .records()
        .iter()
        .filter(|record| record.weights[high] < 2.0)
        .map(|record| adjusted_volume.get(record.key))
        .sum();
    let penny_exact: f64 = day
        .data
        .iter()
        .filter(|(_, weights)| weights[high] < 2.0)
        .map(|(_, weights)| weights[volume])
        .sum();
    println!("penny-stock volume  estimate {penny_estimate:>16.0}  exact {penny_exact:>16.0}");

    // The plain estimator (volume sample only) for comparison with the
    // facade's inclusive estimate.
    let plain = PlainEstimator::new(colocated).single(volume).unwrap().total();
    let inclusive = summary.query(&QuerySpec::sum(volume)).unwrap().value;
    let exact = day.data.assignment_total(volume);
    println!(
        "total volume        inclusive {inclusive:>14.0}  plain {plain:>14.0}  exact {exact:>14.0}"
    );

    // --- Day-to-day similarity via coordinated k-mins sketches ------------
    let volumes = stocks.dispersed(StockAttribute::Volume);
    let generator =
        RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 1234)
            .unwrap();
    let sketches = kmins_sketches(&volumes.data, 2_000, &generator);
    println!("\nweighted Jaccard similarity of daily traded volume (k-mins estimate vs exact):");
    for other in [1usize, 5, 22] {
        let estimate = sketches[0].jaccard_estimate(&sketches[other]);
        let exact = weighted_jaccard(&volumes.data, 0, other, |_| true);
        println!("  day 1 vs day {:>2}: {estimate:.3} (exact {exact:.3})", other + 1);
    }

    // --- Change detection across the month ---------------------------------
    let days: Vec<usize> = (0..volumes.num_assignments()).collect();
    let mut pipeline = Pipeline::builder()
        .assignments(volumes.num_assignments())
        .k(512)
        .layout(Layout::Dispersed)
        .seed(7)
        .build()
        .unwrap();
    pipeline.push_batch(volumes.data.iter()).unwrap();
    let dispersed = pipeline.finalize().unwrap();
    let l1 = dispersed.query(&QuerySpec::l1_of(days.clone())).unwrap();
    let exact_l1 = exact_aggregate(&volumes.data, &AggregateFn::L1(days), |_| true);
    println!("\nmonth-long volume range (L1): estimate {:.3e}, exact {exact_l1:.3e}", l1.value);
}
