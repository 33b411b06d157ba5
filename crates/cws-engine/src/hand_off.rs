//! The exact pre-filter of the aggregated hand-off: of an aggregation
//! table about to meet the sampler, keep only the rows that can still be
//! sampled.
//!
//! A bottom-k sample of one assignment depends only on its `k + 1` smallest
//! ranks, and a colocated or dispersed summary is the union of those
//! per-assignment samples. Streaming a whole table into a sampler admits
//! most of its first keys (an empty candidate set starts at an infinite
//! threshold) and copies their weight rows. Instead, per assignment `b`:
//!
//! 1. hash every table key once into its rank base (the sampler's own
//!    kernel calls, so every rank below is bit-identical to the one the
//!    sampler computes);
//! 2. take a candidate threshold `t_b`: the `j`-th smallest rank
//!    `base / w` among [`SAMPLE_PER_SLOT`]`·(k + 1)` evenly strided table
//!    keys, with `j` sized so that about [`TARGET_PER_SLOT`]`·(k + 1)`
//!    table keys are expected at or below `t_b` (and at least
//!    [`MIN_ORDER`]);
//! 3. count the table keys whose exact rank is at or below `t_b`, after a
//!    division-free reject (`base > w · t_b(1 + 1e-9)`).
//!
//! If every assignment counts at least `k + 1`, the union of those keys,
//! in table order, is what the sampler gets; otherwise (or when some `t_b`
//! is `+∞`) it gets the whole table.
//!
//! **Why this is exact.** The table's keys are distinct. If `k + 1` of
//! them rank at or below `t_b` under assignment `b`, then `b`'s final
//! `k + 1` smallest ranks — over this table together with whatever an
//! earlier flush-early hand-off already buffered — are all at or below
//! `t_b`: every table key ranking above `t_b` is beaten by those `k + 1`
//! and can neither enter `b`'s sample nor set its `r_{k+1}`. A candidate
//! set finalizes to the `k + 1` smallest of its offers whatever their
//! order, so withholding offers that cannot make that cut changes
//! nothing, and offering `b` a key kept only for another assignment is an
//! offer the whole-table push makes too. The summary is bit-identical to
//! pushing the whole table.
//!
//! A colocated sampler also keeps each candidate's weight row. A key
//! offered once has the table's row either way. A key offered again — one
//! whose fragments straddled a flush-early boundary — has its row replaced
//! whenever the re-offer passes the threshold its set holds at that
//! moment, and any filtered hand-off moves those thresholds, before or
//! after. So a colocated sampler filters only the seal of a pipeline that
//! never flushed early (see `Backend::hand_off`); a dispersed sampler
//! keeps no rows and filters every hand-off.

use cws_core::columns::RecordColumns;
use cws_core::summary::SummaryConfig;
use cws_core::{CoordinationMode, Key, RankGenerator};

/// Tables shorter than `ENGAGE_PER_SLOT · (k + 1)` keys go to the sampler
/// whole: the sample below would be too large a share of them to pay.
const ENGAGE_PER_SLOT: usize = 16;

/// Keys sampled per assignment to place its threshold:
/// `SAMPLE_PER_SLOT · (k + 1)`, evenly strided over the table (the table
/// is in key first-seen order, which can follow weight).
const SAMPLE_PER_SLOT: usize = 8;

/// Table keys expected at or below a threshold: `TARGET_PER_SLOT · (k + 1)`,
/// so that fewer than the needed `k + 1` is rare.
const TARGET_PER_SLOT: usize = 2;

/// The smallest order statistic a threshold is taken at: on a table much
/// larger than the sample, `j` would otherwise fall to a few ranks whose
/// spread makes a count short of `k + 1` likely.
const MIN_ORDER: usize = 32;

/// Relative margin of the division-free reject: it covers the rounding of
/// one multiply and one divide, and the exact comparison follows anyway.
const REJECT_MARGIN: f64 = 1.0 + 1e-9;

/// Keys per chunk of the counting pass: the chunk's rank bases stay in L1
/// while every assignment's lane is tested against them.
const CHUNK: usize = 1024;

/// The rows of `table` that can still enter a sample under `config`, in
/// table order, or `None` when the sampler should take the whole table:
/// a short table, independent-differences ranks (which do not factor as
/// `base / w`), a threshold of `+∞`, or a count short of `k + 1`.
///
/// `table` must hold distinct keys (an aggregation table does).
pub(crate) fn sampleable_rows(
    config: &SummaryConfig,
    table: &RecordColumns,
) -> Option<RecordColumns> {
    let slots = config.k + 1;
    let len = table.len();
    if len < ENGAGE_PER_SLOT * slots {
        return None;
    }
    if config.mode == CoordinationMode::IndependentDifferences {
        return None;
    }
    let bases = RankBases(config.generator());
    let thresholds = sampled_thresholds(&bases, slots, table)?;

    // One pass: hash each chunk's keys once, then test every lane of the
    // chunk against its threshold.
    let keys = table.keys();
    let mut below = vec![0usize; thresholds.len()];
    let mut kept = Vec::new();
    let mut chunk_bases = [0.0f64; CHUNK];
    let mut chunk_kept = [false; CHUNK];
    let mut pair_bases = Vec::new();
    for start in (0..len).step_by(CHUNK) {
        let end = len.min(start + CHUNK);
        let chunk_bases = &mut chunk_bases[..end - start];
        let chunk_kept = &mut chunk_kept[..end - start];
        bases.prepare(&keys[start..end], chunk_bases, &mut pair_bases);
        for (assignment, (&threshold, below)) in thresholds.iter().zip(&mut below).enumerate() {
            bases.finish(&pair_bases, assignment, chunk_bases);
            let lane = &table.lane(assignment)[start..end];
            let reject_above = threshold * REJECT_MARGIN;
            for ((&base, &weight), kept) in chunk_bases.iter().zip(lane).zip(&mut *chunk_kept) {
                // `base > 0`, so a zero weight (rank `+∞`) is rejected here.
                if base > weight * reject_above {
                    continue;
                }
                if base / weight <= threshold {
                    *kept = true;
                    *below += 1;
                }
            }
        }
        for (index, kept_here) in (start..end).zip(chunk_kept.iter_mut()) {
            if std::mem::take(kept_here) {
                kept.push(index);
            }
        }
    }
    if below.iter().any(|&count| count < slots) {
        return None;
    }
    let rows = kept.iter().map(|&index| keys[index]).collect();
    let lanes = (0..table.num_assignments())
        .map(|assignment| {
            let lane = table.lane(assignment);
            kept.iter().map(|&index| lane[index]).collect()
        })
        .collect();
    Some(RecordColumns::from_parts(rows, lanes))
}

/// Each assignment's candidate threshold `t_b`: the `j`-th smallest rank
/// over the evenly strided sample, or `None` when one is `+∞`.
fn sampled_thresholds(bases: &RankBases, slots: usize, table: &RecordColumns) -> Option<Vec<f64>> {
    let len = table.len();
    let sample = SAMPLE_PER_SLOT * slots;
    let order = (TARGET_PER_SLOT * slots * sample).div_ceil(len).max(MIN_ORDER).min(sample);
    let positions: Vec<usize> = (0..sample).map(|i| i * (len / sample)).collect();
    let keys: Vec<Key> = positions.iter().map(|&at| table.keys()[at]).collect();
    let mut sample_bases = vec![0.0f64; sample];
    let mut pair_bases = Vec::new();
    bases.prepare(&keys, &mut sample_bases, &mut pair_bases);
    let mut ranks = Vec::with_capacity(sample);
    (0..table.num_assignments())
        .map(|assignment| {
            bases.finish(&pair_bases, assignment, &mut sample_bases);
            let lane = table.lane(assignment);
            // Ranks are positive (or `+∞`), so their bit patterns order
            // like the ranks themselves.
            ranks.clear();
            ranks.extend(
                positions.iter().zip(&sample_bases).map(|(&at, &base)| (base / lane[at]).to_bits()),
            );
            let threshold = f64::from_bits(*ranks.select_nth_unstable(order - 1).1);
            (threshold < f64::INFINITY).then_some(threshold)
        })
        .collect()
}

/// The rank numerators `base` of `rank = base / w`, computed by the
/// sampler's own kernel calls: under shared-seed coordination one lane
/// for every assignment, under independent coordination pair bases
/// finished per assignment.
struct RankBases(RankGenerator);

impl RankBases {
    fn shared(&self) -> bool {
        self.0.mode() == CoordinationMode::SharedSeed
    }

    /// Hashes `keys` once: into `bases` when shared, else into `pair_bases`.
    fn prepare(&self, keys: &[Key], bases: &mut [f64], pair_bases: &mut Vec<u64>) {
        if self.shared() {
            self.0.shared_rank_bases_into(keys, bases);
        } else {
            self.0.seed_sequence().pair_bases_into(keys, pair_bases);
        }
    }

    /// Completes `bases` for `assignment` (a no-op when shared).
    fn finish(&self, pair_bases: &[u64], assignment: usize, bases: &mut [f64]) {
        if !self.shared() {
            self.0.assignment_rank_bases_into(pair_bases, assignment, bases);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregation::Aggregation;
    use crate::ingest::Ingest;
    use crate::pipeline::{Layout, Pipeline};
    use crate::summary::Summary;
    use cws_core::budget::ResourceBudget;
    use cws_core::RankFamily;
    use cws_hash::{RandomSource, Xoshiro256};
    use cws_stream::{ColocatedStreamSampler, MultiAssignmentStreamSampler};

    const ASSIGNMENTS: usize = 4;
    const K: usize = 40;
    const SLOTS: usize = K + 1;

    fn configs(k: usize) -> [SummaryConfig; 3] {
        [
            SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::SharedSeed, 0x5EED),
            SummaryConfig::new(k, RankFamily::Exp, CoordinationMode::SharedSeed, 0x5EED),
            SummaryConfig::new(k, RankFamily::Ipps, CoordinationMode::Independent, 0x5EED),
        ]
    }

    /// `len` distinct keys (`salt` picks which) with heavy-tailed weights,
    /// correlated across the lanes; lane 1 is zero on about half the keys.
    fn table(len: usize, salt: u64) -> RecordColumns {
        let mut rng = Xoshiro256::seeded(salt);
        let mut columns = RecordColumns::new(ASSIGNMENTS);
        for index in 0..len as u64 {
            let key = (salt << 40 | index).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let size = rng.next_open01().powf(-0.8);
            let mut row = [0.0; ASSIGNMENTS];
            for (b, weight) in row.iter_mut().enumerate() {
                *weight = (size * (0.5 + rng.next_unit()) * 64.0).round() / 64.0;
                if b == 1 && rng.next_below(2) == 0 {
                    *weight = 0.0;
                }
            }
            columns.push(key, &row);
        }
        columns
    }

    /// `columns` with lane `assignment` replaced by `weight(index)`.
    fn with_lane(
        columns: &RecordColumns,
        assignment: usize,
        weight: impl Fn(usize) -> f64,
    ) -> RecordColumns {
        let mut lanes: Vec<Vec<f64>> = (0..ASSIGNMENTS).map(|b| columns.lane(b).to_vec()).collect();
        lanes[assignment] = (0..columns.len()).map(weight).collect();
        RecordColumns::from_parts(columns.keys().to_vec(), lanes)
    }

    /// `columns` reordered so that the evenly strided sample of lane 0
    /// holds its smallest ranks under `config`: lane 0's threshold is then
    /// the `j`-th smallest rank of the whole table.
    fn smallest_ranks_sampled(columns: &RecordColumns, config: &SummaryConfig) -> RecordColumns {
        let generator = config.generator();
        let mut row = Vec::new();
        let mut by_rank: Vec<(f64, usize)> = (0..columns.len())
            .map(|index| {
                columns.copy_row_into(index, &mut row);
                (generator.rank_vector(columns.keys()[index], &row)[0], index)
            })
            .collect();
        by_rank.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (len, sample) = (columns.len(), SAMPLE_PER_SLOT * (config.k + 1));
        let stride = len / sample;
        let mut order = vec![usize::MAX; len];
        let mut rest = by_rank.iter().skip(sample).map(|&(_, index)| index);
        for (position, slot) in order.iter_mut().enumerate() {
            *slot = if position % stride == 0 && position / stride < sample {
                by_rank[position / stride].1
            } else {
                rest.next().unwrap()
            };
        }
        let mut sorted = RecordColumns::new(ASSIGNMENTS);
        for index in order {
            sorted.push_row_from(columns, index);
        }
        sorted
    }

    /// The reference: every batch pushed whole into one sampler.
    fn whole(config: SummaryConfig, layout: Layout, batches: &[&RecordColumns]) -> Vec<u8> {
        let summary = match layout {
            Layout::Colocated => {
                let mut sampler = ColocatedStreamSampler::new(config, ASSIGNMENTS);
                for batch in batches {
                    sampler.push_columns(batch).unwrap();
                }
                Summary::Colocated(sampler.finalize())
            }
            Layout::Dispersed => {
                let mut sampler = MultiAssignmentStreamSampler::new(config, ASSIGNMENTS);
                for batch in batches {
                    sampler.push_columns(batch).unwrap();
                }
                Summary::Dispersed(sampler.finalize())
            }
        };
        summary.to_bytes()
    }

    /// The same batches through an aggregating pipeline. With more than
    /// one, a key cap the size of the largest makes each batch flush the
    /// table of the one before early.
    fn handed_off(
        config: SummaryConfig,
        layout: Layout,
        aggregation: Aggregation,
        batches: &[&RecordColumns],
    ) -> Vec<u8> {
        let mut builder = Pipeline::builder()
            .assignments(ASSIGNMENTS)
            .k(config.k)
            .rank(config.family)
            .coordination(config.mode)
            .layout(layout)
            .aggregation(aggregation)
            .seed(config.seed);
        if batches.len() > 1 {
            let cap = batches.iter().map(|batch| batch.len()).max().unwrap();
            builder = builder.budget(ResourceBudget::unlimited().with_max_keys(cap as u64));
        }
        let mut pipeline = builder.build().unwrap();
        for batch in batches {
            pipeline.push_columns(batch).unwrap();
        }
        pipeline.finalize().unwrap().to_bytes()
    }

    /// Asserts the hand-off of `batches` matches the whole-table push in
    /// every layout and aggregation mode, to the byte.
    fn assert_exact(config: SummaryConfig, batches: &[&RecordColumns], context: &str) {
        for layout in [Layout::Colocated, Layout::Dispersed] {
            let expected = whole(config, layout, batches);
            for aggregation in [Aggregation::SumByKey, Aggregation::MaxByKey] {
                let got = handed_off(config, layout, aggregation, batches);
                assert!(
                    got == expected,
                    "{context}: {layout:?} {aggregation:?} {:?} {:?}",
                    config.family,
                    config.mode
                );
            }
        }
    }

    #[test]
    fn the_hand_off_equals_the_whole_table_push() {
        for config in configs(K) {
            let engaged = |columns: &RecordColumns| sampleable_rows(&config, columns).is_some();
            // Below, at and far past the engage threshold.
            for len in [10 * SLOTS, ENGAGE_PER_SLOT * SLOTS, 64 * SLOTS] {
                let columns = table(len, len as u64);
                assert_eq!(engaged(&columns), len >= ENGAGE_PER_SLOT * SLOTS, "{len} keys");
                assert_exact(config, &[&columns], &format!("{len} keys"));
            }
            let columns = table(64 * SLOTS, 7);
            // A zero lane has an infinite threshold; a lane with k positive
            // weights cannot count k + 1 keys. Both take the whole table.
            let zero = with_lane(&columns, 2, |_| 0.0);
            let sparse =
                with_lane(
                    &columns,
                    3,
                    |index| if index % 61 == 0 && index / 61 < K { 1.5 } else { 0.0 },
                );
            assert_eq!(sparse.lane(3).iter().filter(|&&w| w > 0.0).count(), K);
            for (name, columns) in [("zero lane", &zero), ("sparse lane", &sparse)] {
                assert!(!engaged(columns), "{name}");
                assert_exact(config, &[columns], name);
            }
            // Lane 0's sample holds its smallest ranks. Far past the engage
            // threshold its threshold counts only `MIN_ORDER < k + 1` keys
            // and the table goes whole; at the threshold it counts exactly
            // `k + 1`, and the last of them is `r_{k+1}`.
            let far = smallest_ranks_sampled(&columns, &config);
            assert!(!engaged(&far), "a short count must take the whole table");
            assert_exact(config, &[&far], "sampled smallest ranks, far");
            let at = smallest_ranks_sampled(&table(ENGAGE_PER_SLOT * SLOTS, 3), &config);
            assert!(engaged(&at), "a count of exactly k + 1 keeps the filter");
            assert_exact(config, &[&at], "sampled smallest ranks, at the engage threshold");
        }
    }

    /// A flush-early hand-off into a sampler that already holds an earlier
    /// table, half of whose keys come back: each under one assignment,
    /// with a weight a little below its first one, so its new rank lands
    /// near the thresholds the sets hold when it arrives. Whether such a
    /// re-offer replaces a colocated key's weight row depends on those
    /// thresholds, which is why a colocated sampler filters no hand-off
    /// but the seal of a pipeline that never flushed.
    #[test]
    fn a_flush_early_hand_off_into_a_non_empty_sampler_is_exact() {
        for config in configs(K) {
            let first = table(64 * SLOTS, 11);
            let fresh = table(32 * SLOTS, 12);
            let mut second = RecordColumns::new(ASSIGNMENTS);
            let mut row = Vec::new();
            for index in 0..fresh.len() {
                second.push_row_from(&fresh, index);
                first.copy_row_into(index, &mut row);
                for (assignment, weight) in row.iter_mut().enumerate() {
                    *weight *= if assignment == index % ASSIGNMENTS {
                        1.0 - (index % 13) as f64 / 64.0
                    } else {
                        0.0
                    };
                }
                second.push(first.keys()[index], &row);
            }
            assert!(sampleable_rows(&config, &first).is_some());
            assert!(sampleable_rows(&config, &second).is_some());
            assert_exact(config, &[&first, &second], "flush early");
        }
    }

    /// The same comparison at the size of one `netflow_durable` epoch of
    /// the end-to-end benchmark (about 92k keys, k = 1024, 4 assignments).
    /// Run in release: `cargo test --release -p cws-engine hand_off -- --ignored`.
    #[test]
    #[ignore = "netflow scale; run in release"]
    fn the_hand_off_equals_the_whole_table_push_at_netflow_scale() {
        for config in configs(1024) {
            let columns = table(92_358, 1);
            assert!(sampleable_rows(&config, &columns).is_some());
            assert_exact(config, &[&columns], "netflow scale");
            let first = table(46_000, 2);
            assert_exact(config, &[&first, &columns], "netflow scale, flush early");
        }
    }
}
