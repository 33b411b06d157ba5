//! Round-trip property suite for the versioned summary codec (ISSUE 6).
//!
//! For every (layout × rank family × coordination mode × sample size ×
//! population size) combination from the seeded case generator:
//! `read_from(write_to(s))` must equal `s` **bit-for-bit**, and re-encoding
//! the decoded summary must reproduce the exact byte stream. Covers empty
//! summaries, populations straddling `k` (1, k−1, k, ~4k keys), and
//! tie-rank entries that the hash-based generators can never produce.

mod common;

use common::{arb_weight, case_rng};
use coordinated_sampling::core::codec::{read_summary, summary_from_bytes, DecodedSummary};
use coordinated_sampling::core::sketch::bottomk::BottomKSketch;
use coordinated_sampling::prelude::*;
use cws_hash::RandomSource;

/// Every (family, mode) pair that can be realized, with the layouts each
/// supports (independent-differences exists only colocated).
fn families_and_modes() -> Vec<(RankFamily, CoordinationMode, Vec<Layout>)> {
    vec![
        (
            RankFamily::Ipps,
            CoordinationMode::SharedSeed,
            vec![Layout::Colocated, Layout::Dispersed],
        ),
        (RankFamily::Exp, CoordinationMode::SharedSeed, vec![Layout::Colocated, Layout::Dispersed]),
        (
            RankFamily::Ipps,
            CoordinationMode::Independent,
            vec![Layout::Colocated, Layout::Dispersed],
        ),
        (
            RankFamily::Exp,
            CoordinationMode::Independent,
            vec![Layout::Colocated, Layout::Dispersed],
        ),
        (RankFamily::Exp, CoordinationMode::IndependentDifferences, vec![Layout::Colocated]),
    ]
}

fn build_summary(data: &MultiWeighted, config: &SummaryConfig, layout: Layout) -> Summary {
    match layout {
        Layout::Colocated => Summary::Colocated(ColocatedSummary::build(data, config)),
        Layout::Dispersed => Summary::Dispersed(DispersedSummary::build(data, config)),
    }
}

/// Asserts the full bit-exactness contract for one summary.
fn assert_round_trips(summary: &Summary, context: &str) {
    let bytes = summary.to_bytes();
    let decoded =
        Summary::from_bytes(&bytes).unwrap_or_else(|e| panic!("decode failed for {context}: {e}"));
    assert_eq!(&decoded, summary, "decoded summary differs for {context}");
    assert_eq!(decoded.to_bytes(), bytes, "re-encode is not byte-identical for {context}");
    // The streaming read leaves the reader positioned exactly past the
    // summary.
    let mut cursor = bytes.as_slice();
    read_summary(&mut cursor).unwrap();
    assert!(cursor.is_empty(), "reader left {} unread byte(s) for {context}", cursor.len());
}

#[test]
fn every_configuration_round_trips_bit_exactly() {
    let mut case = 0u64;
    for (family, mode, layouts) in families_and_modes() {
        for k in [1usize, 2, 7, 16] {
            // Populations straddling the sample size: empty, singleton,
            // k−1, k, and ~4k keys.
            for population in [0usize, 1, k.saturating_sub(1).max(1), k, 4 * k + 3] {
                let mut rng = case_rng("codec_roundtrip", case);
                case += 1;
                let assignments = 1 + (case % 4) as usize;
                let mut builder = MultiWeighted::builder(assignments);
                for key in 0..population {
                    let row: Vec<f64> = (0..assignments).map(|_| arb_weight(&mut rng)).collect();
                    builder.add_vector(key as Key, &row);
                }
                let data = builder.build();
                let config = SummaryConfig::new(k, family, mode, rng.next_u64());
                for &layout in &layouts {
                    let summary = build_summary(&data, &config, layout);
                    let context = format!(
                        "case {case}: {layout:?} {family:?} {mode:?} k={k} population={population} \
                         assignments={assignments}"
                    );
                    assert_round_trips(&summary, &context);
                }
            }
        }
    }
}

#[test]
fn tie_rank_entries_round_trip() {
    // Hash-derived ranks never collide in practice, so tie handling is
    // exercised with hand-built sketches: equal ranks, ordered by key.
    let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);
    let tied = BottomKSketch::from_ranked(
        4,
        [(10u64, 0.25, 2.0), (11, 0.25, 3.0), (12, 0.25, 4.0), (13, 0.5, 1.0), (14, 0.5, 9.0)],
    );
    assert_eq!(tied.len(), 4, "three-way tie plus one must fill the sketch");
    let summary =
        Summary::Dispersed(DispersedSummary::from_sketches(config, vec![tied.clone()]).unwrap());
    assert_round_trips(&summary, "tie-rank dispersed sketch");

    // A tie exactly at the k-th/(k+1)-st boundary: next_rank equals the
    // retained k-th rank.
    let boundary =
        BottomKSketch::from_ranked(2, [(1u64, 0.125, 1.0), (2, 0.75, 1.0), (3, 0.75, 5.0)]);
    assert_eq!(boundary.next_rank(), 0.75);
    let summary = Summary::Dispersed(
        DispersedSummary::from_sketches(config_with_k(2), vec![boundary]).unwrap(),
    );
    assert_round_trips(&summary, "boundary tie sketch");
}

fn config_with_k(k: usize) -> SummaryConfig {
    SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, 5)
}

#[test]
fn special_rank_values_round_trip() {
    // Sub-k populations leave the sketch threshold at +∞; the bit pattern
    // must survive the trip.
    let mut builder = MultiWeighted::builder(2);
    builder.add_vector(42, &[1.5, 0.0]);
    let data = builder.build();
    let config = SummaryConfig::new(8, RankFamily::Exp, CoordinationMode::SharedSeed, 3);
    for layout in [Layout::Colocated, Layout::Dispersed] {
        let summary = build_summary(&data, &config, layout);
        assert_round_trips(&summary, &format!("{layout:?} with infinite thresholds"));
    }
    let dispersed = DispersedSummary::build(&data, &config);
    assert!(dispersed.sketch(0).next_rank().is_infinite());
}

#[test]
fn concatenated_streams_decode_in_order() {
    let mut rng = case_rng("codec_concat", 0);
    let mut stream = Vec::new();
    let mut originals = Vec::new();
    for i in 0..6u64 {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..(5 + i * 7) {
            builder.add_vector(key, &[arb_weight(&mut rng), arb_weight(&mut rng)]);
        }
        let config = SummaryConfig::new(3, RankFamily::Ipps, CoordinationMode::SharedSeed, i);
        let layout = if i % 2 == 0 { Layout::Colocated } else { Layout::Dispersed };
        let summary = build_summary(&builder.build(), &config, layout);
        summary.write_to(&mut stream).unwrap();
        originals.push(summary);
    }
    let mut cursor = stream.as_slice();
    for (i, original) in originals.iter().enumerate() {
        let decoded = Summary::read_from(&mut cursor)
            .unwrap_or_else(|e| panic!("summary {i} failed to decode: {e}"));
        assert_eq!(&decoded, original, "summary {i} round-trip");
    }
    assert!(cursor.is_empty());
}

#[test]
fn core_decoded_summary_matches_engine_wrapper() {
    let mut builder = MultiWeighted::builder(3);
    for key in 0..40u64 {
        builder.add_vector(key, &[(key % 5) as f64, 1.0, (key % 3) as f64]);
    }
    let data = builder.build();
    let config = SummaryConfig::new(6, RankFamily::Ipps, CoordinationMode::SharedSeed, 11);
    let colocated = ColocatedSummary::build(&data, &config);
    match summary_from_bytes(&colocated.to_bytes()).unwrap() {
        DecodedSummary::Colocated(decoded) => assert_eq!(decoded, colocated),
        DecodedSummary::Dispersed(_) => panic!("layout tag mixed up"),
    }
}
