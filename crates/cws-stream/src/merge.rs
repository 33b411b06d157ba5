//! Merging sketches computed over disjoint partitions of the key universe.
//!
//! Bottom-k sketches are mergeable: if the keys are partitioned across sites
//! (different routers, shards, …) and each site computes a bottom-k sketch of
//! its partition with the shared hash seed, the k smallest ranks across all
//! partial sketches are exactly the bottom-k sketch of the full population.
//! This is what makes the summaries computable distributively as well as over
//! streams.

use std::borrow::Borrow;
use std::collections::HashMap;

use cws_core::error::{CwsError, Result};
use cws_core::sketch::bottomk::BottomKSketch;
use cws_core::summary::{ColocatedRecord, ColocatedSummary, DispersedSummary};
use cws_core::weights::Key;

fn empty_input(name: &'static str) -> CwsError {
    CwsError::InvalidParameter {
        name,
        message: "at least one summary or sketch is required".to_string(),
    }
}

/// Merges bottom-k sketches computed over **disjoint** key partitions into
/// the bottom-k sketch of the union population.
///
/// # Errors
/// Returns an error if no sketches are given or they disagree on `k`.
pub fn merge_disjoint_sketches(sketches: &[BottomKSketch]) -> Result<BottomKSketch> {
    let first = sketches.first().ok_or_else(|| empty_input("sketches"))?;
    let k = first.k();
    if let Some(other) = sketches.iter().find(|s| s.k() != k) {
        return Err(CwsError::IncompatibleSummaries {
            field: "k",
            details: format!("{} vs {}", k, other.k()),
        });
    }
    // The union's r_{k+1} may fall inside one partition's evicted tail (for
    // example when one partition holds all of the union's k + 1 smallest
    // ranks), so each partial's own r_{k+1} competes as a tail candidate.
    Ok(BottomKSketch::from_ranked_with_tail(
        k,
        sketches.iter().flat_map(|s| s.entries().iter().map(|e| (e.key, e.rank, e.weight))),
        sketches.iter().map(BottomKSketch::next_rank),
    ))
}

/// Merges dispersed summaries computed over disjoint key partitions
/// (assignment by assignment). Takes owned summaries or references alike,
/// so callers holding partials behind shared pointers (epoch snapshots,
/// deserialized archives) need not clone them wholesale.
///
/// # Errors
/// Returns [`CwsError::IncompatibleSummaries`] if the summaries disagree on
/// a configuration field or the assignment count, and an
/// [`CwsError::InvalidParameter`] error if none are given.
pub fn merge_disjoint_summaries<S: Borrow<DispersedSummary>>(
    summaries: &[S],
) -> Result<DispersedSummary> {
    let first = summaries.first().ok_or_else(|| empty_input("summaries"))?.borrow();
    let config = *first.config();
    let assignments = first.num_assignments();
    for other in &summaries[1..] {
        let other = other.borrow();
        config.ensure_compatible(other.config())?;
        if other.num_assignments() != assignments {
            return Err(CwsError::IncompatibleSummaries {
                field: "assignments",
                details: format!("{} vs {}", assignments, other.num_assignments()),
            });
        }
    }
    let mut merged = Vec::with_capacity(assignments);
    for b in 0..assignments {
        let per_partition: Vec<BottomKSketch> =
            summaries.iter().map(|s| s.borrow().sketch(b).clone()).collect();
        merged.push(merge_disjoint_sketches(&per_partition)?);
    }
    DispersedSummary::from_sketches(config, merged)
}

/// Merges colocated summaries computed over disjoint key partitions.
///
/// Ranks are deterministic functions of `(key, weights, seed)` and every
/// retained record carries its full weight vector, so the merge recomputes
/// each record's rank vector with the shared generator and rebuilds the
/// per-assignment bottom-k samples with the same tail-competition rule as
/// the dispersed merge. The result is bit-identical to building one summary
/// over the union population: a key in the union's bottom-k of assignment
/// `b` is necessarily in its own partition's bottom-k of `b`, so no
/// candidate is ever lost, and the partials' `(ℓ+1)`-st ranks compete for
/// the union's threshold.
///
/// # Errors
/// Returns [`CwsError::IncompatibleSummaries`] if the summaries disagree on
/// a configuration field, the assignment count, or the effective sample
/// size, and [`CwsError::InvalidParameter`] if none are given or a key
/// appears in more than one partial (the partitions were not disjoint).
pub fn merge_disjoint_colocated(summaries: &[&ColocatedSummary]) -> Result<ColocatedSummary> {
    let first = *summaries.first().ok_or_else(|| empty_input("summaries"))?;
    let config = *first.config();
    let assignments = first.num_assignments();
    let effective_k = first.effective_k();
    for other in &summaries[1..] {
        config.ensure_compatible(other.config())?;
        if other.num_assignments() != assignments {
            return Err(CwsError::IncompatibleSummaries {
                field: "assignments",
                details: format!("{} vs {}", assignments, other.num_assignments()),
            });
        }
        if other.effective_k() != effective_k {
            return Err(CwsError::IncompatibleSummaries {
                field: "effective_k",
                details: format!("{} vs {}", effective_k, other.effective_k()),
            });
        }
    }

    // Recompute every record's rank vector once with the shared generator —
    // bit-identical to the ranks used at build time.
    let generator = config.generator();
    let mut owners: HashMap<Key, &ColocatedRecord> = HashMap::new();
    let mut ranked: Vec<(&ColocatedRecord, Vec<f64>)> = Vec::new();
    for summary in summaries {
        for record in summary.records() {
            if owners.insert(record.key, record).is_some() {
                return Err(CwsError::InvalidParameter {
                    name: "summaries",
                    message: format!(
                        "key {} appears in more than one partial; partitions must be disjoint",
                        record.key
                    ),
                });
            }
            ranked.push((record, generator.rank_vector(record.key, &record.weights)));
        }
    }

    let mut kth_ranks = Vec::with_capacity(assignments);
    let mut next_ranks = Vec::with_capacity(assignments);
    let mut membership: HashMap<Key, Vec<bool>> = HashMap::new();
    for b in 0..assignments {
        let merged = BottomKSketch::from_ranked_with_tail(
            effective_k,
            ranked
                .iter()
                .filter(|(record, _)| record.in_sketch[b])
                .map(|(record, ranks)| (record.key, ranks[b], record.weights[b])),
            summaries.iter().map(|s| s.next_rank(b)),
        );
        kth_ranks.push(merged.kth_rank());
        next_ranks.push(merged.next_rank());
        for entry in merged.entries() {
            membership.entry(entry.key).or_insert_with(|| vec![false; assignments])[b] = true;
        }
    }

    let records: Vec<ColocatedRecord> = membership
        .into_iter()
        .map(|(key, in_sketch)| ColocatedRecord {
            key,
            weights: owners[&key].weights.clone(),
            in_sketch,
        })
        .collect();
    Ok(ColocatedSummary::from_parts(config, effective_k, kth_ranks, next_ranks, records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::coordination::CoordinationMode;
    use cws_core::ranks::RankFamily;
    use cws_core::summary::SummaryConfig;
    use cws_core::weights::{MultiWeighted, WeightedSet};
    use cws_hash::SeedSequence;

    #[test]
    fn merged_partition_sketches_equal_global_sketch() {
        let set = WeightedSet::from_pairs((0u64..3000).map(|k| (k, ((k % 31) + 1) as f64)));
        let seeds = SeedSequence::new(11);
        let global = BottomKSketch::sample(&set, 40, RankFamily::Ipps, &seeds);

        // Partition keys by residue class into three disjoint sets.
        let partitions: Vec<WeightedSet> = (0..3)
            .map(|r| WeightedSet::from_pairs(set.iter().filter(|(k, _)| k % 3 == r)))
            .collect();
        let partials: Vec<BottomKSketch> = partitions
            .iter()
            .map(|p| BottomKSketch::sample(p, 40, RankFamily::Ipps, &seeds))
            .collect();
        let merged = merge_disjoint_sketches(&partials).unwrap();
        assert_eq!(merged, global);
    }

    #[test]
    fn merged_summaries_equal_global_summary() {
        let mut builder = MultiWeighted::builder(2);
        for key in 0..1500u64 {
            builder.add(key, 0, ((key % 13) + 1) as f64);
            builder.add(key, 1, ((key % 9) * 2) as f64);
        }
        let data = builder.build();
        let config = SummaryConfig::new(25, RankFamily::Ipps, CoordinationMode::SharedSeed, 3);
        let global = DispersedSummary::build(&data, &config);

        let partitions: Vec<MultiWeighted> = (0..3)
            .map(|r| {
                let mut b = MultiWeighted::builder(2);
                for (key, weights) in data.iter().filter(|(k, _)| k % 3 == r) {
                    b.add_vector(key, weights);
                }
                b.build()
            })
            .collect();
        let partials: Vec<DispersedSummary> =
            partitions.iter().map(|p| DispersedSummary::build(p, &config)).collect();
        let merged = merge_disjoint_summaries(&partials).unwrap();
        assert_eq!(merged, global);
    }

    #[test]
    fn merged_colocated_partials_equal_global_summary() {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..2000u64 {
            builder.add(key, 0, ((key % 17) + 1) as f64);
            builder.add(key, 1, ((key % 5) * 3) as f64);
            builder.add(key, 2, ((key % 23) + 2) as f64);
        }
        let data = builder.build();
        for mode in [
            CoordinationMode::SharedSeed,
            CoordinationMode::Independent,
            CoordinationMode::IndependentDifferences,
        ] {
            let family = if mode == CoordinationMode::IndependentDifferences {
                RankFamily::Exp
            } else {
                RankFamily::Ipps
            };
            let config = SummaryConfig::new(30, family, mode, 7);
            let global = ColocatedSummary::build(&data, &config);
            let partitions: Vec<MultiWeighted> = (0..4)
                .map(|r| {
                    let mut b = MultiWeighted::builder(3);
                    for (key, weights) in data.iter().filter(|(k, _)| k % 4 == r) {
                        b.add_vector(key, weights);
                    }
                    b.build()
                })
                .collect();
            let partials: Vec<ColocatedSummary> =
                partitions.iter().map(|p| ColocatedSummary::build(p, &config)).collect();
            let refs: Vec<&ColocatedSummary> = partials.iter().collect();
            let merged = merge_disjoint_colocated(&refs).unwrap();
            assert_eq!(merged, global, "{mode:?}");
        }
    }

    #[test]
    fn overlapping_colocated_partitions_are_rejected() {
        let mut builder = MultiWeighted::builder(1);
        for key in 0..50u64 {
            builder.add(key, 0, 1.0 + key as f64);
        }
        let data = builder.build();
        let config = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
        let summary = ColocatedSummary::build(&data, &config);
        let err = merge_disjoint_colocated(&[&summary, &summary]).unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "summaries", .. }));
    }

    #[test]
    fn incompatible_configs_name_the_field() {
        let mut builder = MultiWeighted::builder(1);
        for key in 0..50u64 {
            builder.add(key, 0, 1.0);
        }
        let data = builder.build();
        let base = SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 7);
        let a = DispersedSummary::build(&data, &base);
        for (field, config) in [
            ("k", SummaryConfig::new(9, RankFamily::Ipps, CoordinationMode::SharedSeed, 7)),
            (
                "rank family",
                SummaryConfig::new(8, RankFamily::Exp, CoordinationMode::SharedSeed, 7),
            ),
            (
                "coordination",
                SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::Independent, 7),
            ),
            ("seed", SummaryConfig::new(8, RankFamily::Ipps, CoordinationMode::SharedSeed, 8)),
        ] {
            let b = DispersedSummary::build(&data, &config);
            let err = merge_disjoint_summaries(&[a.clone(), b]).unwrap_err();
            match err {
                CwsError::IncompatibleSummaries { field: found, .. } => assert_eq!(found, field),
                other => panic!("expected IncompatibleSummaries, got {other}"),
            }
        }
    }

    #[test]
    fn merge_validation_errors() {
        assert!(merge_disjoint_sketches(&[]).is_err());
        let set = WeightedSet::from_pairs((0u64..100).map(|k| (k, 1.0)));
        let seeds = SeedSequence::new(1);
        let a = BottomKSketch::sample(&set, 5, RankFamily::Ipps, &seeds);
        let b = BottomKSketch::sample(&set, 6, RankFamily::Ipps, &seeds);
        assert!(merge_disjoint_sketches(&[a.clone(), b]).is_err());
        assert!(merge_disjoint_sketches(std::slice::from_ref(&a)).is_ok());
        assert!(merge_disjoint_summaries::<DispersedSummary>(&[]).is_err());
    }
}
