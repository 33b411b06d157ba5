//! Merge-parity suite (ISSUE 6): distributed summarization through the
//! full persistence path must be **bit-identical** to single-node
//! ingestion.
//!
//! For P ∈ {1, 2, 3, 7} and both layouts: split a stream
//! into P disjoint partitions, ingest each through its own pipeline,
//! **serialize** every partial summary, **deserialize** it back, and
//! `Pipeline::merge` the parts. The result must equal — byte for byte —
//! the summary of one pipeline that ingested everything. Incompatible
//! headers must surface as typed `CwsError::IncompatibleSummaries`, never
//! as a silently wrong merge.

mod common;

use common::{arb_multiweighted, case_rng, random_partition};
use coordinated_sampling::prelude::*;

const PART_COUNTS: [usize; 4] = [1, 2, 3, 7];

fn builder_for(config: &SummaryConfig, layout: Layout) -> PipelineBuilder {
    Pipeline::builder()
        .assignments(0) // overwritten by callers
        .k(config.k)
        .rank(config.family)
        .coordination(config.mode)
        .seed(config.seed)
        .layout(layout)
}

fn ingest_all(data: &MultiWeighted, config: &SummaryConfig, layout: Layout) -> Summary {
    let mut pipeline =
        builder_for(config, layout).assignments(data.num_assignments()).build().unwrap();
    pipeline.push_batch(data.iter()).unwrap();
    pipeline.finalize().unwrap()
}

/// The full persistence path: partial summaries → bytes → decoded → merged.
fn merge_through_codec(partials: &[Summary]) -> Result<Summary> {
    let decoded: Vec<Summary> = partials
        .iter()
        .map(|summary| Summary::from_bytes(&summary.to_bytes()).expect("round trip"))
        .collect();
    Pipeline::merge(&decoded)
}

#[test]
fn p_way_split_merge_equals_single_node() {
    let mut case = 0u64;
    for layout in [Layout::Colocated, Layout::Dispersed] {
        for parts in PART_COUNTS {
            for round in 0..3u64 {
                let mut rng = case_rng("merge_parity", case);
                case += 1;
                let data = arb_multiweighted(&mut rng, 400);
                let config = common::arb_config(&mut rng);
                let reference = ingest_all(&data, &config, layout);

                let partitions = random_partition(&data, parts, &mut rng);
                let partials: Vec<Summary> =
                    partitions.iter().map(|part| ingest_all(part, &config, layout)).collect();
                let merged = merge_through_codec(&partials).unwrap_or_else(|e| {
                    panic!("case {case} ({layout:?} P={parts} round {round}): {e}")
                });
                assert_eq!(merged, reference, "case {case}: {layout:?} P={parts} round {round}");
                assert_eq!(
                    merged.to_bytes(),
                    reference.to_bytes(),
                    "case {case}: merged summary not byte-identical"
                );
            }
        }
    }
}

#[test]
fn merge_of_serialized_archives_is_order_insensitive() {
    let mut rng = case_rng("merge_order", 0);
    let data = arb_multiweighted(&mut rng, 300);
    let config = SummaryConfig::new(10, RankFamily::Ipps, CoordinationMode::SharedSeed, 21);
    let partitions = random_partition(&data, 4, &mut rng);
    let mut partials: Vec<Summary> =
        partitions.iter().map(|part| ingest_all(part, &config, Layout::Dispersed)).collect();
    let forward = merge_through_codec(&partials).unwrap();
    partials.reverse();
    let backward = merge_through_codec(&partials).unwrap();
    assert_eq!(forward, backward);
}

#[test]
fn incompatible_headers_are_typed_errors() {
    let mut rng = case_rng("merge_incompatible", 0);
    let data = arb_multiweighted(&mut rng, 200);
    let assignments = data.num_assignments();
    let base = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 5);
    let reference = ingest_all(&data, &base, Layout::Dispersed);

    for (field, other) in [
        ("k", SummaryConfig::new(9, RankFamily::Ipps, CoordinationMode::SharedSeed, 5)),
        ("rank family", SummaryConfig::new(8, RankFamily::Exp, CoordinationMode::SharedSeed, 5)),
        ("coordination", SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::Independent, 5)),
        ("seed", SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 6)),
    ] {
        let mismatched = ingest_all(&data, &other, Layout::Dispersed);
        let err =
            merge_through_codec(&[reference.clone(), mismatched]).expect_err("must not merge");
        match err {
            CwsError::IncompatibleSummaries { field: found, .. } => {
                assert_eq!(found, field, "wrong field blamed");
            }
            other => panic!("expected IncompatibleSummaries for {field}, got {other}"),
        }
    }

    // Mixed layouts: typed error, not a coerced merge.
    let colocated = ingest_all(&data, &base, Layout::Colocated);
    let err = Pipeline::merge(&[reference.clone(), colocated.clone()]).unwrap_err();
    assert!(matches!(err, CwsError::IncompatibleSummaries { field: "layout", .. }));
    let err = Pipeline::merge(&[colocated.clone(), reference.clone()]).unwrap_err();
    assert!(matches!(err, CwsError::IncompatibleSummaries { field: "layout", .. }));

    // Mismatched assignment counts.
    let mut builder = MultiWeighted::builder(assignments + 1);
    for key in 0..50u64 {
        let row: Vec<f64> = (0..assignments + 1).map(|b| (b + 1) as f64).collect();
        builder.add_vector(key, &row);
    }
    let wider = ingest_all(&builder.build(), &base, Layout::Dispersed);
    let err = Pipeline::merge(&[reference, wider]).unwrap_err();
    assert!(matches!(err, CwsError::IncompatibleSummaries { field: "assignments", .. }));

    // The empty merge is rejected up front.
    assert!(matches!(
        Pipeline::merge::<Summary>(&[]),
        Err(CwsError::InvalidParameter { name: "summaries", .. })
    ));

    // Overlapping (non-disjoint) colocated partials are detected.
    let err = Pipeline::merge(&[colocated.clone(), colocated]).unwrap_err();
    assert!(matches!(err, CwsError::InvalidParameter { name: "summaries", .. }));
}

#[test]
fn merged_epoch_snapshots_answer_union_queries() {
    // The continuous + merge + persistence layers compose: snapshots of
    // disjoint key ranges published by epoched pipelines merge into a
    // queryable union summary.
    let builder = Pipeline::builder().assignments(2).k(128).layout(Layout::Dispersed).seed(0xAB);
    let mut north = EpochedPipeline::new(builder.clone()).unwrap();
    let mut south = EpochedPipeline::new(builder.clone()).unwrap();
    let mut all = builder.build().unwrap();
    for key in 0..600u64 {
        let weights = [((key % 7) + 1) as f64, ((key % 11) + 1) as f64];
        if key % 2 == 0 {
            north.push_record(key, &weights).unwrap();
        } else {
            south.push_record(key, &weights).unwrap();
        }
        all.push_record(key, &weights).unwrap();
    }
    let north_snapshot = north.publish().unwrap().summary;
    let south_snapshot = south.publish().unwrap().summary;
    let merged = Pipeline::merge(&[north_snapshot.as_ref(), south_snapshot.as_ref()]).unwrap();
    let reference = all.finalize().unwrap();
    assert_eq!(merged, reference);
    let estimate = merged.query(&QuerySpec::l1(0, 1)).unwrap();
    let exact = reference.query(&QuerySpec::l1(0, 1)).unwrap();
    assert_eq!(estimate.value.to_bits(), exact.value.to_bits());
}
