//! The colocated-weights summary: embedded per-assignment bottom-k samples
//! plus the full weight vector of every included key (Section 6).

use std::collections::HashMap;

use crate::coordination::CoordinationMode;
use crate::error::{CwsError, Result};
use crate::ranks::RankFamily;
use crate::sketch::bottomk::BottomKSketch;
use crate::summary::SummaryConfig;
use crate::weights::{Key, MultiWeighted};

/// One key retained in a colocated summary.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocatedRecord {
    /// The key.
    pub key: Key,
    /// Its full weight vector (colocated data makes this available for free
    /// once the key is sampled anywhere).
    pub weights: Vec<f64>,
    /// For each assignment, whether the key is in that embedded bottom-k
    /// sample.
    pub in_sketch: Vec<bool>,
}

/// A multi-assignment summary in the colocated-weights model.
///
/// The set of included keys is the union of one embedded bottom-k sample per
/// assignment; every included key carries its full weight vector, which is
/// what allows the *inclusive* estimators to use all of them for every
/// aggregate (Section 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ColocatedSummary {
    config: SummaryConfig,
    /// The per-assignment sample size actually used (equals `config.k` for
    /// fixed-k builds; may be larger for fixed-distinct-key builds).
    effective_k: usize,
    num_assignments: usize,
    kth_ranks: Vec<f64>,
    next_ranks: Vec<f64>,
    records: Vec<ColocatedRecord>,
    index: HashMap<Key, usize>,
}

impl ColocatedSummary {
    /// Builds a summary embedding a bottom-`k` sample for every assignment
    /// (`k` taken from the configuration).
    #[must_use]
    pub fn build(data: &MultiWeighted, config: &SummaryConfig) -> Self {
        Self::build_with_k(data, config, config.k)
    }

    /// Builds a summary with a fixed budget of distinct keys (Section 4,
    /// "Fixed number of distinct keys for colocated data").
    ///
    /// The per-assignment sample size is the largest `ℓ ≥ k` such that the
    /// union of the bottom-`ℓ` samples holds at most `max_distinct` keys.
    ///
    /// # Panics
    /// Panics if `max_distinct` is smaller than the number of distinct keys
    /// of the plain bottom-`k` build (the paper guarantees feasibility for
    /// `max_distinct = |W| · k`).
    #[must_use]
    pub fn build_with_distinct_budget(
        data: &MultiWeighted,
        config: &SummaryConfig,
        max_distinct: usize,
    ) -> Self {
        let base = Self::build_with_k(data, config, config.k);
        assert!(
            base.num_distinct_keys() <= max_distinct,
            "distinct-key budget {max_distinct} is below the bottom-k union size {}",
            base.num_distinct_keys()
        );
        // The union size is non-decreasing in ℓ; binary search the largest
        // feasible ℓ. The search space is bounded by the largest per-assignment
        // support (beyond which nothing changes).
        let max_support =
            (0..data.num_assignments()).map(|b| data.assignment_support(b)).max().unwrap_or(0);
        let mut lo = config.k; // feasible
        let mut hi = max_support.max(config.k); // possibly infeasible
        if Self::build_with_k(data, config, hi).num_distinct_keys() <= max_distinct {
            return Self::build_with_k(data, config, hi);
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if Self::build_with_k(data, config, mid).num_distinct_keys() <= max_distinct {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        if lo == config.k {
            base
        } else {
            Self::build_with_k(data, config, lo)
        }
    }

    /// Assembles a summary from parts computed elsewhere (e.g. by the
    /// single-pass stream sampler of `cws-stream`).
    ///
    /// `kth_ranks[b]` / `next_ranks[b]` must be the ℓ-th / (ℓ+1)-st smallest
    /// rank of assignment `b` over the full population, and every record must
    /// carry one membership flag and one weight per assignment.
    ///
    /// # Errors
    /// [`CwsError::InvalidParameter`] if `effective_k` is zero, the rank
    /// vectors are empty or disagree in length, a record has the wrong
    /// weight or membership arity, or two records share a key.
    pub fn from_parts(
        config: SummaryConfig,
        effective_k: usize,
        kth_ranks: Vec<f64>,
        next_ranks: Vec<f64>,
        mut records: Vec<ColocatedRecord>,
    ) -> Result<Self> {
        let invalid = |name, message: String| Err(CwsError::InvalidParameter { name, message });
        if effective_k == 0 {
            return invalid("effective_k", "effective sample size must be positive".to_string());
        }
        let assignments = kth_ranks.len();
        if assignments == 0 || next_ranks.len() != assignments {
            return invalid(
                "ranks",
                format!(
                    "need one k-th and one (k+1)-st rank per assignment, got {} and {}",
                    assignments,
                    next_ranks.len()
                ),
            );
        }
        for record in &records {
            if record.weights.len() != assignments || record.in_sketch.len() != assignments {
                return invalid(
                    "records",
                    format!(
                        "key {} has {} weights and {} membership flags, expected {assignments}",
                        record.key,
                        record.weights.len(),
                        record.in_sketch.len()
                    ),
                );
            }
        }
        records.sort_by_key(|record| record.key);
        if let Some(pair) = records.windows(2).find(|pair| pair[0].key == pair[1].key) {
            return invalid("records", format!("key {} appears twice", pair[0].key));
        }
        let index = records.iter().enumerate().map(|(slot, record)| (record.key, slot)).collect();
        Ok(Self {
            config,
            effective_k,
            num_assignments: assignments,
            kth_ranks,
            next_ranks,
            records,
            index,
        })
    }

    fn build_with_k(data: &MultiWeighted, config: &SummaryConfig, k: usize) -> Self {
        let generator = config.generator();
        let assignments = data.num_assignments();

        // Rank every key once; reuse the vectors for all assignments.
        let ranked: Vec<(Key, Vec<f64>)> =
            data.iter().map(|(key, weights)| (key, generator.rank_vector(key, weights))).collect();

        let mut kth_ranks = Vec::with_capacity(assignments);
        let mut next_ranks = Vec::with_capacity(assignments);
        let mut membership: HashMap<Key, Vec<bool>> = HashMap::new();
        for b in 0..assignments {
            let sketch = BottomKSketch::from_ranked(
                k,
                ranked.iter().map(|(key, ranks)| (*key, ranks[b], data.weight(*key, b))),
            );
            kth_ranks.push(sketch.kth_rank());
            next_ranks.push(sketch.next_rank());
            for entry in sketch.entries() {
                membership.entry(entry.key).or_insert_with(|| vec![false; assignments])[b] = true;
            }
        }

        let mut records: Vec<ColocatedRecord> = membership
            .into_iter()
            .map(|(key, in_sketch)| ColocatedRecord {
                key,
                weights: data.weight_vector(key).expect("sampled key exists in data").to_vec(),
                in_sketch,
            })
            .collect();
        records.sort_by_key(|record| record.key);
        let index = records.iter().enumerate().map(|(slot, record)| (record.key, slot)).collect();

        Self {
            config: *config,
            effective_k: k,
            num_assignments: assignments,
            kth_ranks,
            next_ranks,
            records,
            index,
        }
    }

    /// The configuration used to build the summary.
    #[must_use]
    pub fn config(&self) -> &SummaryConfig {
        &self.config
    }

    /// The per-assignment sample size actually embedded.
    #[must_use]
    pub fn effective_k(&self) -> usize {
        self.effective_k
    }

    /// The rank family.
    #[must_use]
    pub fn family(&self) -> RankFamily {
        self.config.family
    }

    /// The coordination mode.
    #[must_use]
    pub fn mode(&self) -> CoordinationMode {
        self.config.mode
    }

    /// Number of weight assignments.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.num_assignments
    }

    /// The retained records (union of the embedded samples), sorted by key.
    #[must_use]
    pub fn records(&self) -> &[ColocatedRecord] {
        &self.records
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn num_distinct_keys(&self) -> usize {
        self.records.len()
    }

    /// The record of `key`, if it was retained.
    #[must_use]
    pub(crate) fn record(&self, key: Key) -> Option<&ColocatedRecord> {
        self.index.get(&key).map(|&slot| &self.records[slot])
    }

    /// Whether `key` is included in the embedded sample of `assignment`.
    #[must_use]
    pub fn in_sketch(&self, key: Key, assignment: usize) -> bool {
        self.record(key).is_some_and(|record| record.in_sketch[assignment])
    }

    /// `r_ℓ^{(b)}(I)` — the ℓ-th smallest rank of assignment `b` (ℓ being the
    /// effective sample size).
    #[must_use]
    pub fn kth_rank(&self, assignment: usize) -> f64 {
        self.kth_ranks[assignment]
    }

    /// `r_{ℓ+1}^{(b)}(I)` — the next rank of assignment `b`.
    #[must_use]
    pub fn next_rank(&self, assignment: usize) -> f64 {
        self.next_ranks[assignment]
    }

    /// The rank-conditioning threshold `r_ℓ^{(b)}(I \ {i})` for a retained
    /// record: the next rank when the record is in the sample of `b`, the
    /// ℓ-th rank otherwise.
    #[must_use]
    pub(crate) fn threshold_excluding(&self, record: &ColocatedRecord, assignment: usize) -> f64 {
        if record.in_sketch[assignment] {
            self.next_ranks[assignment]
        } else {
            self.kth_ranks[assignment]
        }
    }

    /// The sharing index `|S| / (ℓ · |W|)` (Section 9.3): 1/|W| when all
    /// embedded samples coincide, 1 when they are disjoint.
    #[must_use]
    pub fn sharing_index(&self) -> f64 {
        self.num_distinct_keys() as f64 / (self.effective_k * self.num_assignments) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..400u64 {
            builder.add(key, 0, ((key % 11) + 1) as f64);
            builder.add(key, 1, ((key % 7) * 2) as f64);
            builder.add(key, 2, ((key % 13) + 3) as f64);
        }
        builder.build()
    }

    fn config(mode: CoordinationMode) -> SummaryConfig {
        SummaryConfig::new(25, RankFamily::Ipps, mode, 7)
    }

    fn from_parts_error(
        effective_k: usize,
        next_ranks: Vec<f64>,
        records: Vec<ColocatedRecord>,
    ) -> &'static str {
        let config = config(CoordinationMode::SharedSeed);
        match ColocatedSummary::from_parts(config, effective_k, vec![0.5, 0.5], next_ranks, records)
        {
            Err(CwsError::InvalidParameter { name, .. }) => name,
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    fn record(key: Key, weights: usize, flags: usize) -> ColocatedRecord {
        ColocatedRecord { key, weights: vec![1.0; weights], in_sketch: vec![true; flags] }
    }

    #[test]
    fn from_parts_rejects_zero_effective_k() {
        assert_eq!(from_parts_error(0, vec![0.6, 0.6], vec![record(1, 2, 2)]), "effective_k");
    }

    #[test]
    fn from_parts_rejects_empty_or_unequal_rank_vectors() {
        assert_eq!(from_parts_error(1, vec![0.6], vec![record(1, 2, 2)]), "ranks");
        let config = config(CoordinationMode::SharedSeed);
        let empty = ColocatedSummary::from_parts(config, 1, Vec::new(), Vec::new(), Vec::new());
        assert!(matches!(empty, Err(CwsError::InvalidParameter { name: "ranks", .. })));
    }

    #[test]
    fn from_parts_rejects_a_record_of_the_wrong_arity() {
        assert_eq!(from_parts_error(1, vec![0.6, 0.6], vec![record(1, 3, 2)]), "records");
        assert_eq!(from_parts_error(1, vec![0.6, 0.6], vec![record(1, 2, 1)]), "records");
    }

    #[test]
    fn from_parts_rejects_a_repeated_key() {
        let records = vec![record(4, 2, 2), record(1, 2, 2), record(4, 2, 2)];
        assert_eq!(from_parts_error(1, vec![0.6, 0.6], records), "records");
        let config = config(CoordinationMode::SharedSeed);
        let distinct = vec![record(4, 2, 2), record(1, 2, 2)];
        assert!(ColocatedSummary::from_parts(config, 1, vec![0.5, 0.5], vec![0.6, 0.6], distinct)
            .is_ok());
    }

    #[test]
    fn build_embeds_k_samples_per_assignment() {
        let data = fixture();
        let summary = ColocatedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        assert_eq!(summary.num_assignments(), 3);
        assert_eq!(summary.effective_k(), 25);
        for b in 0..3 {
            let in_b = summary.records().iter().filter(|r| r.in_sketch[b]).count();
            assert_eq!(in_b, 25, "assignment {b}");
            assert!(summary.kth_rank(b) <= summary.next_rank(b));
        }
    }

    #[test]
    fn records_store_full_weight_vectors() {
        let data = fixture();
        let summary = ColocatedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        for record in summary.records() {
            assert_eq!(record.weights, data.weight_vector(record.key).unwrap());
            assert_eq!(record.in_sketch.len(), 3);
        }
        // Lookup helpers agree with the records.
        let first = &summary.records()[0];
        assert_eq!(summary.record(first.key), Some(first));
        assert_eq!(summary.in_sketch(first.key, 0), first.in_sketch[0]);
        assert!(summary.record(1_000_000).is_none());
    }

    #[test]
    fn sharing_index_is_lower_for_coordinated_summaries() {
        let data = fixture();
        let coordinated = ColocatedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        let independent = ColocatedSummary::build(&data, &config(CoordinationMode::Independent));
        assert!(coordinated.sharing_index() < independent.sharing_index());
        assert!(coordinated.sharing_index() >= 1.0 / 3.0 - 1e-12);
        assert!(independent.sharing_index() <= 1.0);
    }

    #[test]
    fn threshold_excluding_picks_correct_rank() {
        let data = fixture();
        let summary = ColocatedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        let inside = summary.records().iter().find(|r| r.in_sketch[1]).unwrap();
        let outside = summary.records().iter().find(|r| !r.in_sketch[1]).unwrap();
        assert_eq!(summary.threshold_excluding(inside, 1), summary.next_rank(1));
        assert_eq!(summary.threshold_excluding(outside, 1), summary.kth_rank(1));
    }

    #[test]
    fn fixed_distinct_budget_grows_the_samples() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let plain = ColocatedSummary::build(&data, &cfg);
        let budget = 3 * cfg.k; // |W| * k as in the paper
        let fixed = ColocatedSummary::build_with_distinct_budget(&data, &cfg, budget);
        assert!(fixed.num_distinct_keys() <= budget);
        assert!(fixed.effective_k() >= plain.effective_k());
        // Growing ℓ can only add keys.
        assert!(fixed.num_distinct_keys() >= plain.num_distinct_keys());
    }

    #[test]
    fn fixed_distinct_budget_of_whole_population_takes_everything() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let fixed = ColocatedSummary::build_with_distinct_budget(&data, &cfg, data.num_keys());
        // Every key has positive weight in assignments 0 and 2, so the union
        // saturates at the full population.
        assert_eq!(fixed.num_distinct_keys(), data.num_keys());
    }

    #[test]
    #[should_panic(expected = "distinct-key budget")]
    fn infeasible_budget_panics() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let _ = ColocatedSummary::build_with_distinct_budget(&data, &cfg, cfg.k - 1);
    }

    #[test]
    fn independent_differences_is_supported_for_colocated_data() {
        let data = fixture();
        let cfg =
            SummaryConfig::new(25, RankFamily::Exp, CoordinationMode::IndependentDifferences, 7);
        let summary = ColocatedSummary::build(&data, &cfg);
        assert_eq!(summary.num_assignments(), 3);
        assert!(summary.num_distinct_keys() >= 25);
    }
}
