//! Estimators over dispersed summaries (Section 7): s-set and l-set
//! estimators for top-ℓ-dependent aggregates.
//!
//! In the dispersed model a key sampled for assignment `b` carries only its
//! weight under `b`, so an estimator can use a key only when the summary
//! reveals enough of its weight vector. The paper's two selection rules are:
//!
//! * **s-set** — use the key when its rank is below the *smallest*
//!   conditioning threshold over the relevant assignments
//!   `r_k^{(min R)}(I \ {i})`; a simple closed form that works for any
//!   consistent rank distribution.
//! * **l-set** — the most inclusive selection for which the top-ℓ weights are
//!   identifiable; it dominates the s-set estimator (Lemma 5.1) and has a
//!   closed form for shared-seed coordinated sketches (and for independent
//!   sketches in the min-dependence case).
//!
//! Supported aggregates: `max` (= s-set = l-set with ℓ = 1, Eq. 11), `min`
//! (s-set Eq. 12, l-set Eq. 15/16), the ℓ-th largest weight, and the L1
//! difference `a^(L1) = a^(max) − a^(min)` (Eq. 17), which is non-negative
//! for consistent ranks (Lemma 7.5). For independent sketches only the `min`
//! estimators exist (there is no nonnegative unbiased `max`/`L1` estimator
//! without known seeds).

use crate::error::{CwsError, Result};
use crate::estimate::adjusted::AdjustedWeights;
use crate::estimate::single::rc_adjusted_weights;
use crate::estimate::template::Selected;
use crate::summary::{is_sampled, DispersedSummary};

/// Which of the two selection rules to use for `min` / ℓ-th-largest
/// estimators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectionKind {
    /// The simpler, more restrictive selection (Section 7.1).
    SSet,
    /// The most inclusive selection (Section 7.2); tighter, requires known
    /// seeds except in the min-dependence case.
    LSet,
}

/// Estimator over a [`DispersedSummary`].
#[derive(Debug, Clone, Copy)]
pub struct DispersedEstimator<'a> {
    summary: &'a DispersedSummary,
}

impl<'a> DispersedEstimator<'a> {
    /// Creates an estimator over `summary`.
    #[must_use]
    pub fn new(summary: &'a DispersedSummary) -> Self {
        Self { summary }
    }

    fn coordinated(&self) -> bool {
        self.summary.mode().is_coordinated()
    }

    fn validate_assignments(&self, assignments: &[usize]) -> Result<()> {
        if assignments.is_empty() {
            return Err(CwsError::EmptyAssignmentSet);
        }
        let available = self.summary.num_assignments();
        if let Some(&bad) = assignments.iter().find(|&&b| b >= available) {
            return Err(CwsError::AssignmentOutOfRange { index: bad, available });
        }
        let mut sorted = assignments.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != assignments.len() {
            return Err(CwsError::InvalidParameter {
                name: "assignments",
                message: "relevant assignments must be distinct".to_string(),
            });
        }
        Ok(())
    }

    /// The error for an estimator that needs coordinated sketches.
    fn require_coordinated(&self, estimator: &'static str) -> Result<()> {
        if self.coordinated() {
            Ok(())
        } else {
            Err(CwsError::UnsupportedEstimator {
                estimator,
                reason: "requires coordinated (consistent) sketches",
            })
        }
    }

    /// Applies a selection rule to every row of the summary's membership
    /// table (each union key, ascending, with its per-assignment cells) in
    /// one pass, and assembles the adjusted weights.
    fn over_rows<F>(&self, mut selection: F) -> AdjustedWeights
    where
        F: FnMut(&[Cell]) -> Option<Selected>,
    {
        AdjustedWeights::from_selected(
            self.summary.rows().filter_map(|(key, row)| selection(row).map(|s| (key, s))),
        )
    }

    /// `r_k^{(min R)}(I \ {i})` — the smallest conditioning threshold over
    /// the relevant assignments, for the key of `row`.
    fn min_threshold(&self, row: &[Cell], assignments: &[usize]) -> f64 {
        assignments
            .iter()
            .map(|&b| self.summary.conditioning_threshold(b, is_sampled(row[b])))
            .fold(f64::INFINITY, f64::min)
    }

    /// The single-assignment RC estimator applied to the embedded sketch of
    /// `assignment` — the baseline `t^(b)` used throughout the evaluation.
    ///
    /// # Errors
    /// Returns an error if `assignment` is out of range.
    pub fn single(&self, assignment: usize) -> Result<AdjustedWeights> {
        self.validate_assignments(&[assignment])?;
        Ok(rc_adjusted_weights(self.summary.sketch(assignment), self.summary.family()))
    }

    /// The `max_R` estimator (Eq. 11): s-set (equivalently l-set) with ℓ = 1.
    ///
    /// # Errors
    /// Returns an error for independent sketches (no nonnegative unbiased
    /// estimator exists without known seeds) or invalid assignment sets.
    pub fn max(&self, assignments: &[usize]) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        self.require_coordinated("max")?;
        Ok(self.over_rows(self.lth_largest_selection(assignments, 1, SelectionKind::SSet)))
    }

    /// The `min_R` estimator.
    ///
    /// For coordinated sketches both selections are available; for
    /// independent sketches the estimator uses the product-form inclusion
    /// probability (Eq. 16 for the l-set, and its analogue for the s-set).
    ///
    /// # Errors
    /// Returns an error for invalid assignment sets.
    pub fn min(&self, assignments: &[usize], kind: SelectionKind) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        Ok(self.over_rows(self.min_selection(assignments, kind)))
    }

    /// The `min_R` selection rule over one row, reusing one scratch buffer
    /// across rows.
    fn min_selection<'s>(
        &'s self,
        assignments: &'s [usize],
        kind: SelectionKind,
    ) -> impl FnMut(&[Cell]) -> Option<Selected> + 's {
        let summary = self.summary;
        let family = summary.family();
        let coordinated = self.coordinated();
        let mut scratch = vec![(0, 0.0, 0.0); assignments.len()];
        move |row| {
            // Selection: the key must be in the sketch of every relevant
            // assignment; the s-set additionally requires every rank to fall
            // below the smallest threshold.
            if gather(row, assignments, f64::INFINITY, &mut scratch) < assignments.len() {
                return None;
            }
            let cells = &scratch;
            let value = cells.iter().map(|&(_, _, weight)| weight).fold(f64::INFINITY, f64::min);
            if value == 0.0 {
                return None;
            }
            let probability = match kind {
                SelectionKind::SSet => {
                    let threshold = self.min_threshold(row, assignments);
                    if cells.iter().any(|&(_, rank, _)| rank >= threshold) {
                        return None;
                    }
                    if coordinated {
                        family.inclusion_probability(value, threshold)
                    } else {
                        cells
                            .iter()
                            .map(|&(_, _, w)| family.inclusion_probability(w, threshold))
                            .product()
                    }
                }
                SelectionKind::LSet => {
                    let per_assignment = cells.iter().map(|&(b, _, w)| {
                        family.inclusion_probability(w, summary.conditioning_threshold(b, true))
                    });
                    if coordinated {
                        per_assignment.fold(f64::INFINITY, f64::min)
                    } else {
                        per_assignment.product()
                    }
                }
            };
            Some(Selected { value, probability })
        }
    }

    /// The ℓ-th-largest-weight estimator over coordinated sketches
    /// (Section 7.1 for the s-set, Section 7.2 for the l-set).
    ///
    /// `ell = 1` is the maximum, `ell = |R|` the minimum.
    ///
    /// # Errors
    /// Returns an error for independent sketches (the top-ℓ weights are not
    /// identifiable without consistency), invalid `ell`, or invalid
    /// assignment sets.
    pub fn lth_largest(
        &self,
        assignments: &[usize],
        ell: usize,
        kind: SelectionKind,
    ) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        if ell < 1 || ell > assignments.len() {
            return Err(CwsError::InvalidDependenceOrder { ell, relevant: assignments.len() });
        }
        self.require_coordinated("lth_largest")?;
        Ok(self.over_rows(self.lth_largest_selection(assignments, ell, kind)))
    }

    /// The ℓ-th-largest selection rule over one row, reusing one scratch
    /// buffer across rows. `ell` must be in `1..=|R|`.
    fn lth_largest_selection<'s>(
        &'s self,
        assignments: &'s [usize],
        ell: usize,
        kind: SelectionKind,
    ) -> impl FnMut(&[Cell]) -> Option<Selected> + 's {
        let summary = self.summary;
        let family = summary.family();
        let mut scratch = vec![(0, 0.0, 0.0); assignments.len()];
        move |row| {
            // R'(i): for the s-set, the assignments whose rank for the key is
            // below the smallest threshold (only sampled assignments can
            // qualify); for the l-set, the assignments whose sketch contains
            // the key.
            let rank_bound = match kind {
                SelectionKind::SSet => self.min_threshold(row, assignments),
                SelectionKind::LSet => f64::INFINITY,
            };
            let kept = gather(row, assignments, rank_bound, &mut scratch);
            if kept < ell {
                return None;
            }
            let observed = &mut scratch[..kept];
            sort_by_weight_descending(observed);
            let value = observed[ell - 1].2;
            if value == 0.0 {
                return None;
            }
            let probability = match kind {
                SelectionKind::SSet => family.inclusion_probability(value, rank_bound),
                SelectionKind::LSet => {
                    // Recover the shared seed from any observed (rank, weight).
                    let (_, rank0, weight0) = observed[0];
                    let seed = family.seed_from_rank(weight0, rank0);
                    let top = &observed[..ell];
                    // The remaining assignments must be certifiably no larger
                    // than the ℓ-th largest weight: the shared seed must fall
                    // below F_{value}(threshold_b).
                    let mut probability = f64::INFINITY;
                    for &(b, _, weight) in top {
                        probability = probability.min(family.inclusion_probability(
                            weight,
                            summary.conditioning_threshold(b, true),
                        ));
                    }
                    for &b in assignments {
                        if top.iter().any(|&(t, _, _)| t == b) {
                            continue;
                        }
                        let bound = family.inclusion_probability(
                            value,
                            summary.conditioning_threshold(b, is_sampled(row[b])),
                        );
                        if seed >= bound {
                            return None;
                        }
                        probability = probability.min(bound);
                    }
                    probability
                }
            };
            Some(Selected { value, probability })
        }
    }

    /// The L1 (range) estimator `a^(L1) = a^(max) − a^(min)` (Eq. 17), using
    /// the requested selection for the `min` part.
    ///
    /// Both parts are evaluated in the same pass over the rows; each key's
    /// entry is `(a^(max) − a^(min)).max(0)`, dropped when zero. For
    /// consistent rank assignments the difference is provably non-negative
    /// (Lemma 7.5), so the clamp only absorbs floating-point noise. The
    /// result carries no per-key support: its entries are differences of
    /// correlated estimators with no probability behind them.
    ///
    /// # Errors
    /// Returns an error for independent sketches or invalid assignment sets.
    pub fn l1(&self, assignments: &[usize], kind: SelectionKind) -> Result<AdjustedWeights> {
        self.validate_assignments(assignments)?;
        self.require_coordinated("max")?;
        let mut max = self.lth_largest_selection(assignments, 1, SelectionKind::SSet);
        let mut min = self.min_selection(assignments, kind);
        let adjusted = |selected: Option<Selected>| selected.map_or(0.0, |s| s.adjusted_weight());
        Ok(AdjustedWeights::from_entries(
            self.summary
                .rows()
                .map(|(key, row)| (key, (adjusted(max(row)) - adjusted(min(row))).max(0.0))),
        ))
    }
}

/// One cell of a [`DispersedSummary`] membership row: the key's `(rank,
/// weight)` in one sketch, with rank `+∞` if it was not sampled there.
type Cell = (f64, f64);

/// Copies the cells of `row` over `assignments`, in order, to the front of
/// `scratch` as `(assignment, rank, weight)`, keeping those whose rank is
/// below `bound`, and returns how many it kept. A cell outside its sketch
/// has rank `+∞`, so it is never kept (sampled ranks are finite).
///
/// The loop has no data-dependent branch: membership varies from key to
/// key, so a branch per cell would often be mispredicted.
/// `scratch` holds at least `assignments.len()` slots.
#[inline]
fn gather(
    row: &[Cell],
    assignments: &[usize],
    bound: f64,
    scratch: &mut [(usize, f64, f64)],
) -> usize {
    let mut kept = 0;
    for &b in assignments {
        let (rank, weight) = row[b];
        scratch[kept] = (b, rank, weight);
        kept += usize::from(rank < bound);
    }
    kept
}

/// Sorts `(assignment, rank, weight)` cells by weight, largest first, keeping
/// the assignment order of equal weights — the order `sort_by` gives. An
/// insertion sort: the slices hold at most `|R|` cells, most rows one or
/// two, where the general sort's set-up would cost more than the sort.
#[inline]
fn sort_by_weight_descending(cells: &mut [(usize, f64, f64)]) {
    for i in 1..cells.len() {
        let mut j = i;
        while j > 0 && cells[j].2.total_cmp(&cells[j - 1].2).is_gt() {
            cells.swap(j, j - 1);
            j -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{exact_aggregate, AggregateFn};
    use crate::coordination::CoordinationMode;
    use crate::ranks::RankFamily;
    use crate::summary::SummaryConfig;
    use crate::weights::{Key, MultiWeighted};

    /// Two-period, skewed data with churn, mimicking the structure of the
    /// paper's dispersed IP data.
    fn fixture(num_keys: u64, assignments: usize) -> MultiWeighted {
        let mut builder = MultiWeighted::builder(assignments);
        for key in 0..num_keys {
            for b in 0..assignments {
                // Churn: a key is absent from an assignment with some
                // probability; persistent keys keep correlated weights.
                let absent = (key + 3 * b as u64) % 6 == 0;
                let weight = if absent {
                    0.0
                } else {
                    let base = ((key % 19) + 1) as f64 * if key % 29 == 0 { 20.0 } else { 1.0 };
                    base * (1.0 + 0.2 * b as f64) + ((key + b as u64) % 4) as f64
                };
                builder.add(key, b, weight);
            }
        }
        builder.build()
    }

    fn config(mode: CoordinationMode, k: usize) -> SummaryConfig {
        SummaryConfig::new(k, RankFamily::Ipps, mode, 1)
    }

    fn mean_and_mse<F>(
        data: &MultiWeighted,
        cfg: &SummaryConfig,
        runs: u64,
        exact: f64,
        f: F,
    ) -> (f64, f64)
    where
        F: Fn(&DispersedSummary) -> f64,
    {
        let mut total = 0.0;
        let mut squared = 0.0;
        for run in 0..runs {
            let summary = DispersedSummary::build(data, &cfg.with_seed(run * 6151 + 11));
            let estimate = f(&summary);
            total += estimate;
            squared += (estimate - exact).powi(2);
        }
        (total / runs as f64, squared / runs as f64)
    }

    #[test]
    fn max_min_l1_are_unbiased_for_coordinated_sketches() {
        let data = fixture(250, 3);
        let r = vec![0usize, 1, 2];
        let cfg = config(CoordinationMode::SharedSeed, 30);
        type EstimateFn = Box<dyn Fn(&DispersedSummary) -> f64>;
        let cases: Vec<(AggregateFn, EstimateFn)> = vec![
            (
                AggregateFn::Max(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).max(&[0, 1, 2]).unwrap().total()
                }),
            ),
            (
                AggregateFn::Min(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::SSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::Min(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::L1(r.clone()),
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s).l1(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
                }),
            ),
            (
                AggregateFn::LthLargest { assignments: r.clone(), ell: 2 },
                Box::new(|s: &DispersedSummary| {
                    DispersedEstimator::new(s)
                        .lth_largest(&[0, 1, 2], 2, SelectionKind::LSet)
                        .unwrap()
                        .total()
                }),
            ),
        ];
        for (aggregate, estimate) in cases {
            let exact = exact_aggregate(&data, &aggregate, |_| true);
            let (mean, _) = mean_and_mse(&data, &cfg, 400, exact, |s| estimate(s));
            assert!(
                (mean - exact).abs() <= exact * 0.1,
                "{}: mean {mean} vs exact {exact}",
                aggregate.label()
            );
        }
    }

    #[test]
    fn min_is_unbiased_for_independent_sketches() {
        let data = fixture(250, 2);
        let cfg = config(CoordinationMode::Independent, 40);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1]), |_| true);
        let (mean, _) = mean_and_mse(&data, &cfg, 500, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1], SelectionKind::LSet).unwrap().total()
        });
        assert!((mean - exact).abs() <= exact * 0.2, "mean {mean} vs exact {exact}");
    }

    #[test]
    fn coordinated_min_has_much_lower_mse_than_independent_min() {
        // The headline result (Figure 3): coordination reduces the variance of
        // the min estimator by orders of magnitude.
        let data = fixture(300, 3);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1, 2]), |_| true);
        let runs = 200;
        let (_, mse_coord) =
            mean_and_mse(&data, &config(CoordinationMode::SharedSeed, 30), runs, exact, |s| {
                DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
            });
        let (_, mse_ind) =
            mean_and_mse(&data, &config(CoordinationMode::Independent, 30), runs, exact, |s| {
                DispersedEstimator::new(s).min(&[0, 1, 2], SelectionKind::LSet).unwrap().total()
            });
        assert!(
            mse_ind > mse_coord * 4.0,
            "independent MSE {mse_ind} should dwarf coordinated MSE {mse_coord}"
        );
    }

    #[test]
    fn l_set_dominates_s_set() {
        // Lemma 5.1: the more inclusive l-set selection has at most the
        // variance of the s-set selection.
        let data = fixture(300, 4);
        let exact = exact_aggregate(&data, &AggregateFn::Min(vec![0, 1, 2, 3]), |_| true);
        let cfg = config(CoordinationMode::SharedSeed, 25);
        let runs = 300;
        let (_, mse_s) = mean_and_mse(&data, &cfg, runs, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1, 2, 3], SelectionKind::SSet).unwrap().total()
        });
        let (_, mse_l) = mean_and_mse(&data, &cfg, runs, exact, |s| {
            DispersedEstimator::new(s).min(&[0, 1, 2, 3], SelectionKind::LSet).unwrap().total()
        });
        assert!(mse_l <= mse_s * 1.05, "l-set MSE {mse_l} should not exceed s-set MSE {mse_s}");
    }

    #[test]
    fn l1_is_non_negative_per_key() {
        let data = fixture(300, 2);
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            let cfg = SummaryConfig::new(25, family, CoordinationMode::SharedSeed, 3);
            let summary = DispersedSummary::build(&data, &cfg);
            let estimator = DispersedEstimator::new(&summary);
            for kind in [SelectionKind::SSet, SelectionKind::LSet] {
                let max = estimator.max(&[0, 1]).unwrap();
                let min = estimator.min(&[0, 1], kind).unwrap();
                for key in summary.union_keys() {
                    assert!(
                        max.get(key) >= min.get(key) - 1e-9,
                        "{family:?} {kind:?}: a_max {} < a_min {} for key {key}",
                        max.get(key),
                        min.get(key)
                    );
                }
                let l1 = estimator.l1(&[0, 1], kind).unwrap();
                assert!(l1.iter().all(|(_, value)| value >= 0.0));
            }
        }
    }

    #[test]
    fn l1_is_the_clamped_difference_of_max_and_min() {
        // The fused pass must give, key by key and bit for bit, the
        // difference of the separately computed max and min estimators,
        // clamped at zero, with zero entries dropped and no support.
        let data = fixture(300, 3);
        for family in [RankFamily::Ipps, RankFamily::Exp] {
            let cfg = SummaryConfig::new(25, family, CoordinationMode::SharedSeed, 5);
            let summary = DispersedSummary::build(&data, &cfg);
            let estimator = DispersedEstimator::new(&summary);
            for r in [&[0usize, 1][..], &[2, 0, 1]] {
                for kind in [SelectionKind::SSet, SelectionKind::LSet] {
                    let max = estimator.max(r).unwrap();
                    let min = estimator.min(r, kind).unwrap();
                    let expected: Vec<(Key, u64)> = summary
                        .union_keys()
                        .map(|key| (key, (max.get(key) - min.get(key)).max(0.0)))
                        .filter(|&(_, value)| value != 0.0)
                        .map(|(key, value)| (key, value.to_bits()))
                        .collect();
                    let l1 = estimator.l1(r, kind).unwrap();
                    let got: Vec<(Key, u64)> =
                        l1.iter().map(|(key, value)| (key, value.to_bits())).collect();
                    assert_eq!(got, expected, "{family:?} {r:?} {kind:?}");
                    assert!(!l1.has_support());
                    assert!(l1.variance_total().is_none());
                }
            }
        }
    }

    #[test]
    fn weight_sort_matches_the_stable_library_sort() {
        // Every ordering of a multiset with ties and signed zeros.
        let weights = [3.0, 1.0, 3.0, 0.0, -0.0, 2.0];
        let mut order: Vec<usize> = (0..weights.len()).collect();
        for round in 0..200usize {
            order.swap(round % weights.len(), (round * 7 + 3) % weights.len());
            let cells: Vec<(usize, f64, f64)> =
                order.iter().map(|&i| (i, i as f64, weights[i])).collect();
            let mut ours = cells.clone();
            sort_by_weight_descending(&mut ours);
            let mut reference = cells;
            reference.sort_by(|a, b| b.2.total_cmp(&a.2));
            assert_eq!(ours, reference, "round {round}");
        }
    }

    #[test]
    fn ell_one_equals_max_and_ell_r_equals_min() {
        let data = fixture(200, 3);
        let cfg = config(CoordinationMode::SharedSeed, 20);
        let summary = DispersedSummary::build(&data, &cfg);
        let estimator = DispersedEstimator::new(&summary);
        let r = [0usize, 1, 2];

        let max = estimator.max(&r).unwrap();
        let top1 = estimator.lth_largest(&r, 1, SelectionKind::SSet).unwrap();
        for key in summary.union_keys() {
            assert!((max.get(key) - top1.get(key)).abs() < 1e-9);
        }

        let min_s = estimator.min(&r, SelectionKind::SSet).unwrap();
        let bottom_s = estimator.lth_largest(&r, 3, SelectionKind::SSet).unwrap();
        for key in summary.union_keys() {
            assert!((min_s.get(key) - bottom_s.get(key)).abs() < 1e-9);
        }

        let min_l = estimator.min(&r, SelectionKind::LSet).unwrap();
        let bottom_l = estimator.lth_largest(&r, 3, SelectionKind::LSet).unwrap();
        for key in summary.union_keys() {
            assert!((min_l.get(key) - bottom_l.get(key)).abs() < 1e-9);
        }
    }

    #[test]
    fn single_matches_plain_rc() {
        let data = fixture(200, 2);
        let cfg = config(CoordinationMode::SharedSeed, 20);
        let summary = DispersedSummary::build(&data, &cfg);
        let estimator = DispersedEstimator::new(&summary);
        let direct = rc_adjusted_weights(summary.sketch(1), summary.family());
        assert_eq!(estimator.single(1).unwrap(), direct);
    }

    #[test]
    fn unsupported_and_invalid_inputs() {
        let data = fixture(100, 2);
        let coordinated = DispersedSummary::build(&data, &config(CoordinationMode::SharedSeed, 10));
        let independent =
            DispersedSummary::build(&data, &config(CoordinationMode::Independent, 10));

        let est = DispersedEstimator::new(&independent);
        assert!(matches!(est.max(&[0, 1]), Err(CwsError::UnsupportedEstimator { .. })));
        assert!(matches!(
            est.l1(&[0, 1], SelectionKind::LSet),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(matches!(
            est.lth_largest(&[0, 1], 1, SelectionKind::SSet),
            Err(CwsError::UnsupportedEstimator { .. })
        ));
        assert!(est.min(&[0, 1], SelectionKind::LSet).is_ok());

        let est = DispersedEstimator::new(&coordinated);
        assert!(matches!(est.max(&[]), Err(CwsError::EmptyAssignmentSet)));
        assert!(matches!(est.max(&[0, 5]), Err(CwsError::AssignmentOutOfRange { .. })));
        assert!(matches!(est.max(&[0, 0]), Err(CwsError::InvalidParameter { .. })));
        assert!(matches!(
            est.lth_largest(&[0, 1], 0, SelectionKind::SSet),
            Err(CwsError::InvalidDependenceOrder { .. })
        ));
        assert!(matches!(
            est.lth_largest(&[0, 1], 3, SelectionKind::SSet),
            Err(CwsError::InvalidDependenceOrder { .. })
        ));
    }

    #[test]
    fn subpopulation_estimates_track_truth() {
        let data = fixture(300, 2);
        let cfg = config(CoordinationMode::SharedSeed, 60);
        let predicate = |key: Key| key % 3 == 0;
        let exact = exact_aggregate(&data, &AggregateFn::L1(vec![0, 1]), predicate);
        let (mean, _) = mean_and_mse(&data, &cfg, 400, exact, |s| {
            DispersedEstimator::new(s)
                .l1(&[0, 1], SelectionKind::LSet)
                .unwrap()
                .subset_total(predicate)
        });
        assert!((mean - exact).abs() <= exact * 0.15, "mean {mean} vs exact {exact}");
    }
}
