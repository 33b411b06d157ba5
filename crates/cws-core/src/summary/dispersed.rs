//! The dispersed-weights summary: independent per-assignment bottom-k
//! sketches coordinated only through the shared hash seed (Section 7).

use crate::coordination::CoordinationMode;
use crate::error::{CwsError, Result};
use crate::ranks::RankFamily;
use crate::sketch::bottomk::BottomKSketch;
use crate::summary::SummaryConfig;
use crate::weights::{Key, MultiWeighted};

/// The membership cell of a key outside a sketch: rank `+∞`, the rank of a
/// zero weight (sampled ranks are finite).
const ABSENT: (f64, f64) = (f64::INFINITY, 0.0);

/// Whether a membership cell holds a sampled `(rank, weight)`.
#[inline]
pub(crate) fn is_sampled(cell: (f64, f64)) -> bool {
    cell.0 < f64::INFINITY
}

/// A multi-assignment summary in the dispersed-weights model.
///
/// The summary is exactly what a set of per-assignment processing sites can
/// produce without communicating: for every assignment `b`, a bottom-k sketch
/// of `(I, w^(b))` whose entries record only the weight under `b`. The sites
/// share nothing but the hash seed; coordination (or the lack of it) is
/// decided by the [`CoordinationMode`] of the configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DispersedSummary {
    config: SummaryConfig,
    sketches: Vec<BottomKSketch>,
    /// The union of the sketches' keys, ascending.
    keys: Vec<Key>,
    /// Row-major `keys.len() × num_assignments` membership table: cell
    /// `(row, b)` is the `(rank, weight)` of `keys[row]` in the sketch of
    /// `b`, or `ABSENT` if it was not sampled there.
    cells: Vec<(f64, f64)>,
    /// Per assignment, `[r_k, r_{k+1}]` of its sketch: the conditioning
    /// threshold of a key outside and inside the sketch.
    thresholds: Vec<[f64; 2]>,
}

impl DispersedSummary {
    /// Builds the summary from the full data set, simulating the dispersed
    /// per-assignment processing.
    ///
    /// # Panics
    /// Panics if the configuration uses
    /// [`CoordinationMode::IndependentDifferences`], which requires the whole
    /// weight vector at sampling time and therefore cannot be realized by
    /// dispersed processing (Section 4, "Computing coordinated sketches").
    #[must_use]
    pub fn build(data: &MultiWeighted, config: &SummaryConfig) -> Self {
        assert!(
            config.mode != CoordinationMode::IndependentDifferences,
            "independent-differences ranks are not suited for dispersed weights"
        );
        let generator = config.generator();
        let assignments = data.num_assignments();
        let mut sketches = Vec::with_capacity(assignments);
        for b in 0..assignments {
            // Each assignment is processed on its own, exactly as a dispersed
            // site would: it sees only (key, w^(b)(key)).
            let sketch = BottomKSketch::from_ranked(
                config.k,
                data.iter().map(|(key, weights)| {
                    let weight = weights[b];
                    let rank = generator
                        .dispersed_rank(key, weight, b)
                        .expect("mode checked above to support dispersed processing");
                    (key, rank, weight)
                }),
            );
            sketches.push(sketch);
        }
        // A `MultiWeighted` has at least one assignment, and every sketch
        // was built at `config.k`.
        Self::from_sketches(*config, sketches).expect("one sketch per assignment, each at k")
    }

    /// Assembles a summary from per-assignment sketches that were computed
    /// elsewhere (e.g. by the stream samplers of `cws-stream` or at remote
    /// sites).
    ///
    /// # Errors
    /// [`CwsError::InvalidParameter`] naming `sketches` when none are given,
    /// and [`CwsError::IncompatibleSummaries`] naming `k` when a sketch's
    /// `k` differs from the configured one.
    pub fn from_sketches(config: SummaryConfig, sketches: Vec<BottomKSketch>) -> Result<Self> {
        if sketches.is_empty() {
            return Err(CwsError::InvalidParameter {
                name: "sketches",
                message: "at least one assignment's sketch is required".to_string(),
            });
        }
        if let Some(other) = sketches.iter().find(|s| s.k() != config.k) {
            return Err(CwsError::IncompatibleSummaries {
                field: "k",
                details: format!("configured {} vs sketch {}", config.k, other.k()),
            });
        }
        let assignments = sketches.len();
        let mut keys: Vec<Key> =
            sketches.iter().flat_map(|sketch| sketch.entries().iter().map(|e| e.key)).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut cells = vec![ABSENT; keys.len() * assignments];
        for (b, sketch) in sketches.iter().enumerate() {
            for entry in sketch.entries() {
                let row =
                    keys.binary_search(&entry.key).expect("every sampled key is in the union");
                cells[row * assignments + b] = (entry.rank, entry.weight);
            }
        }
        let thresholds = sketches.iter().map(|s| [s.kth_rank(), s.next_rank()]).collect();
        Ok(Self { config, sketches, keys, cells, thresholds })
    }

    /// The configuration used to build the summary.
    #[must_use]
    pub fn config(&self) -> &SummaryConfig {
        &self.config
    }

    /// Per-assignment sample size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config.k
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

    /// Number of weight assignments summarized.
    #[must_use]
    pub fn num_assignments(&self) -> usize {
        self.sketches.len()
    }

    /// The embedded bottom-k sketch of assignment `b`.
    #[must_use]
    pub fn sketch(&self, assignment: usize) -> &BottomKSketch {
        &self.sketches[assignment]
    }

    /// All embedded sketches.
    #[must_use]
    pub fn sketches(&self) -> &[BottomKSketch] {
        &self.sketches
    }

    /// Number of distinct keys in the union of the embedded sketches — the
    /// storage footprint that coordination minimizes (Theorem 4.2).
    #[must_use]
    pub fn num_distinct_keys(&self) -> usize {
        self.keys.len()
    }

    /// Iterates over the keys in the union of the sketches, in ascending
    /// order.
    pub fn union_keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.keys.iter().copied()
    }

    /// Each key of the union, ascending, with its row of the membership
    /// table: per assignment, the key's `(rank, weight)` in that sketch, or
    /// `ABSENT`. The estimators make one pass over these rows.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (Key, &[(f64, f64)])> + '_ {
        self.keys.iter().copied().zip(self.cells.chunks_exact(self.sketches.len()))
    }

    /// The `(rank, weight)` of `key` in the sketch of `assignment`, if it was
    /// sampled there (a binary search of the union).
    #[must_use]
    pub fn entry(&self, key: Key, assignment: usize) -> Option<(f64, f64)> {
        let row = self.keys.binary_search(&key).ok()?;
        let assignments = self.sketches.len();
        let cell = self.cells[row * assignments..][..assignments][assignment];
        is_sampled(cell).then_some(cell)
    }

    /// Whether `key` appears in the sketch of `assignment`.
    #[must_use]
    pub fn in_sketch(&self, key: Key, assignment: usize) -> bool {
        self.entry(key, assignment).is_some()
    }

    /// `r_k^{(b)}(I \ {key})` — the rank-conditioning threshold: the
    /// `(k+1)`-st smallest rank of assignment `b` when `key` is in its
    /// sketch, the `k`-th smallest otherwise.
    #[must_use]
    pub fn threshold_excluding(&self, key: Key, assignment: usize) -> f64 {
        self.conditioning_threshold(assignment, self.in_sketch(key, assignment))
    }

    /// [`DispersedSummary::threshold_excluding`] for a key whose membership
    /// in the sketch of `assignment` is already known.
    #[inline]
    pub(crate) fn conditioning_threshold(&self, assignment: usize, sampled: bool) -> f64 {
        // A table lookup rather than a branch: membership varies from key
        // to key, so the estimators' row passes could not predict it.
        self.thresholds[assignment][usize::from(sampled)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;

    fn fixture() -> MultiWeighted {
        let mut builder = MultiWeighted::builder(3);
        for key in 0..500u64 {
            builder.add(key, 0, ((key % 11) + 1) as f64);
            builder.add(key, 1, ((key % 7) * 2) as f64);
            builder.add(key, 2, ((key % 13) + 3) as f64);
        }
        builder.build()
    }

    fn config(mode: CoordinationMode) -> SummaryConfig {
        SummaryConfig::new(20, RankFamily::Ipps, mode, 42)
    }

    #[test]
    fn build_produces_one_sketch_per_assignment() {
        let data = fixture();
        let summary = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        assert_eq!(summary.num_assignments(), 3);
        assert_eq!(summary.k(), 20);
        for b in 0..3 {
            assert_eq!(summary.sketch(b).len(), 20);
        }
        assert_eq!(summary.family(), RankFamily::Ipps);
        assert_eq!(summary.mode(), CoordinationMode::SharedSeed);
        assert_eq!(summary.config().seed, 42);
    }

    #[test]
    fn union_size_bounds() {
        let data = fixture();
        for mode in [CoordinationMode::SharedSeed, CoordinationMode::Independent] {
            let summary = DispersedSummary::build(&data, &config(mode));
            let distinct = summary.num_distinct_keys();
            assert!(distinct >= 20, "{mode:?}: {distinct}");
            assert!(distinct <= 60, "{mode:?}: {distinct}");
            let keys: Vec<Key> = summary.union_keys().collect();
            assert_eq!(keys.len(), distinct);
            assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "union keys ascend");
        }
    }

    #[test]
    fn coordination_shares_more_keys_than_independence() {
        let data = fixture();
        let coordinated = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        let independent = DispersedSummary::build(&data, &config(CoordinationMode::Independent));
        assert!(
            coordinated.num_distinct_keys() < independent.num_distinct_keys(),
            "coordinated {} vs independent {}",
            coordinated.num_distinct_keys(),
            independent.num_distinct_keys()
        );
    }

    #[test]
    fn membership_is_consistent_with_sketches() {
        let data = fixture();
        let summary = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed));
        for b in 0..3 {
            for entry in summary.sketch(b).entries() {
                assert!(summary.in_sketch(entry.key, b));
                let (rank, weight) = summary.entry(entry.key, b).unwrap();
                assert_eq!(rank, entry.rank);
                assert_eq!(weight, entry.weight);
                assert_eq!(weight, data.weight(entry.key, b));
            }
        }
        // A key absent from a sketch reports the k-th rank as threshold.
        let some_key = summary
            .union_keys()
            .find(|&key| !summary.in_sketch(key, 0))
            .expect("some union key missing from sketch 0");
        assert_eq!(summary.threshold_excluding(some_key, 0), summary.sketch(0).kth_rank());
        let member = summary.sketch(0).entries()[0].key;
        assert_eq!(summary.threshold_excluding(member, 0), summary.sketch(0).next_rank());
        // A key outside the union is in no sketch.
        assert_eq!(summary.entry(10_000, 0), None);
        assert_eq!(summary.threshold_excluding(10_000, 0), summary.sketch(0).kth_rank());
        // Every row agrees with the per-key lookup.
        for (key, row) in summary.rows() {
            for (b, &cell) in row.iter().enumerate() {
                assert_eq!(is_sampled(cell).then_some(cell), summary.entry(key, b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not suited for dispersed weights")]
    fn independent_differences_rejected() {
        let data = fixture();
        let config =
            SummaryConfig::new(10, RankFamily::Exp, CoordinationMode::IndependentDifferences, 1);
        let _ = DispersedSummary::build(&data, &config);
    }

    #[test]
    fn from_sketches_roundtrip() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let built = DispersedSummary::build(&data, &cfg);
        let reassembled = DispersedSummary::from_sketches(cfg, built.sketches().to_vec()).unwrap();
        assert_eq!(built, reassembled);
    }

    #[test]
    fn from_sketches_rejects_mismatched_k() {
        let data = fixture();
        let cfg = config(CoordinationMode::SharedSeed);
        let built = DispersedSummary::build(&data, &cfg);
        let wrong = SummaryConfig::new(5, cfg.family, cfg.mode, cfg.seed);
        let err = DispersedSummary::from_sketches(wrong, built.sketches().to_vec()).unwrap_err();
        assert!(matches!(err, CwsError::IncompatibleSummaries { field: "k", .. }), "{err:?}");
    }

    #[test]
    fn from_sketches_rejects_an_empty_list() {
        let cfg = config(CoordinationMode::SharedSeed);
        let err = DispersedSummary::from_sketches(cfg, Vec::new()).unwrap_err();
        assert!(matches!(err, CwsError::InvalidParameter { name: "sketches", .. }), "{err:?}");
    }
}
