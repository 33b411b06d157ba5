//! Monte-Carlo measurement of estimator quality.
//!
//! The paper reports the sum of per-key variances `ΣV[a] = Σ_i VAR[a(i)]` and
//! the normalized `nΣV = ΣV / (Σ_i f(i))²`, approximated "by averaging square
//! errors over multiple (25–200) runs of the sampling algorithm" (Section 9).
//! This module implements exactly that: for each run the summary is rebuilt
//! through the engine's [`Pipeline`] with a fresh hash seed, every estimator
//! under study is evaluated on it, and the per-key squared errors against the
//! exact values are accumulated. Estimates come from
//! [`Summary::adjusted_weights`], the same dispatch `QueryBatch` runs.

use cws_core::aggregates::{exact_per_key, AggregateFn};
use cws_core::error::{CwsError, Result};
use cws_core::estimate::adjusted::AdjustedWeights;
use cws_core::estimate::colocated::PlainEstimator;
use cws_core::estimate::dispersed::SelectionKind;
use cws_core::summary::SummaryConfig;
use cws_core::weights::MultiWeighted;
use cws_engine::{Ingest, Layout, Pipeline, Summary};

/// An estimator under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimatorSpec {
    /// The estimator [`Summary::adjusted_weights`] picks for the aggregate:
    /// inclusive over colocated summaries, the dispersed estimator (with the
    /// given s-set / l-set selection for `min`, `L1` and ℓ-th largest) over
    /// dispersed ones.
    Adjusted(AggregateFn, SelectionKind),
    /// Plain single-sketch estimator of one assignment over a colocated
    /// summary: the baseline the inclusive estimator improves on. Dispersed
    /// summaries reject it.
    ColocatedPlain(usize),
}

impl EstimatorSpec {
    /// The aggregate whose per-key values are the ground truth for this
    /// estimator.
    #[must_use]
    pub fn target(&self) -> AggregateFn {
        match self {
            EstimatorSpec::Adjusted(f, _) => f.clone(),
            EstimatorSpec::ColocatedPlain(b) => AggregateFn::SingleAssignment(*b),
        }
    }

    fn evaluate(&self, summary: &Summary) -> Result<AdjustedWeights> {
        match self {
            EstimatorSpec::Adjusted(f, selection) => summary.adjusted_weights(f, *selection),
            EstimatorSpec::ColocatedPlain(b) => match summary.as_colocated() {
                Some(colocated) => PlainEstimator::new(colocated).single(*b),
                None => Err(CwsError::UnsupportedEstimator {
                    estimator: "plain colocated",
                    reason: "evaluated against a dispersed summary",
                }),
            },
        }
    }
}

/// The outcome of a Monte-Carlo variance measurement for one estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceMeasurement {
    /// Estimated sum of per-key variances `ΣV`.
    pub sigma_v: f64,
    /// Normalized `nΣV = ΣV / (Σ_i f(i))²`.
    pub n_sigma_v: f64,
    /// Exact aggregate value `Σ_i f(i)`.
    pub exact_total: f64,
    /// Mean of the full-population estimates across runs (sanity check for
    /// unbiasedness).
    pub mean_estimate: f64,
    /// Number of Monte-Carlo runs.
    pub runs: u32,
}

/// Accumulates squared errors for one estimator across runs.
struct Accumulator {
    spec: EstimatorSpec,
    exact_by_key: std::collections::HashMap<u64, f64>,
    sum_squares_exact: f64,
    exact_total: f64,
    squared_error_sum: f64,
    estimate_sum: f64,
}

impl Accumulator {
    fn new(spec: EstimatorSpec, data: &MultiWeighted) -> Self {
        let per_key_exact = exact_per_key(data, &spec.target());
        let sum_squares_exact = per_key_exact.iter().map(|&(_, f)| f * f).sum();
        let exact_total = per_key_exact.iter().map(|&(_, f)| f).sum();
        Self {
            spec,
            exact_by_key: per_key_exact.into_iter().collect(),
            sum_squares_exact,
            exact_total,
            squared_error_sum: 0.0,
            estimate_sum: 0.0,
        }
    }

    /// Adds one run's adjusted weights.
    fn add(&mut self, adjusted: &AdjustedWeights) {
        // Σ_i (a(i) − f(i))² = Σ_i f(i)² + Σ_{i ∈ sample} (a(i)² − 2 a(i) f(i)).
        // Keys outside the sample contribute exactly f(i)², which is already
        // part of the first term.
        let mut error = self.sum_squares_exact;
        let mut total = 0.0;
        for (key, a) in adjusted.iter() {
            let f = self.exact_by_key.get(&key).copied().unwrap_or(0.0);
            error += a * a - 2.0 * a * f;
            total += a;
        }
        self.squared_error_sum += error;
        self.estimate_sum += total;
    }

    fn finish(self, runs: u32) -> VarianceMeasurement {
        let sigma_v = self.squared_error_sum / f64::from(runs);
        let n_sigma_v = cws_core::variance::normalized_sigma_v(sigma_v, self.exact_total);
        VarianceMeasurement {
            sigma_v,
            n_sigma_v,
            exact_total: self.exact_total,
            mean_estimate: self.estimate_sum / f64::from(runs),
            runs,
        }
    }
}

/// Measures `ΣV` / `nΣV` for estimators over summaries of one layout.
///
/// The summary is rebuilt once per run (with seeds derived from
/// `config.seed` and the run index) and every spec is evaluated on it, so the
/// per-run sampling cost is shared across estimators exactly as in the
/// paper's evaluation.
///
/// # Errors
/// Propagates estimator errors (e.g. a `max` spec over independent dispersed
/// sketches, or [`EstimatorSpec::ColocatedPlain`] over a dispersed layout).
///
/// # Panics
/// Panics if `runs == 0`.
pub fn measure(
    data: &MultiWeighted,
    config: &SummaryConfig,
    layout: Layout,
    specs: &[EstimatorSpec],
    runs: u32,
) -> Result<Vec<VarianceMeasurement>> {
    assert!(runs > 0, "at least one run is required");
    let mut accumulators: Vec<Accumulator> =
        specs.iter().map(|spec| Accumulator::new(spec.clone(), data)).collect();
    for run in 0..runs {
        let summary = run_summary(data, config, layout, run)?;
        for accumulator in &mut accumulators {
            let adjusted = accumulator.spec.evaluate(&summary)?;
            accumulator.add(&adjusted);
        }
    }
    Ok(accumulators.into_iter().map(|a| a.finish(runs)).collect())
}

/// Summary-size statistics of colocated summaries (Figures 12–17).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMeasurement {
    /// Mean number of distinct keys in the summary across runs.
    pub mean_distinct_keys: f64,
    /// Mean sharing index `|S| / (k · |W|)`.
    pub mean_sharing_index: f64,
    /// Number of Monte-Carlo runs.
    pub runs: u32,
}

/// Measures the combined sample size and the sharing index of colocated
/// summaries.
///
/// # Errors
/// Propagates pipeline errors.
///
/// # Panics
/// Panics if `runs == 0`.
pub fn measure_colocated_size(
    data: &MultiWeighted,
    config: &SummaryConfig,
    runs: u32,
) -> Result<SizeMeasurement> {
    assert!(runs > 0, "at least one run is required");
    let mut distinct = 0.0;
    let mut sharing = 0.0;
    for run in 0..runs {
        let summary = run_summary(data, config, Layout::Colocated, run)?;
        let colocated = summary.as_colocated().expect("the colocated layout builds one");
        distinct += colocated.num_distinct_keys() as f64;
        sharing += colocated.sharing_index();
    }
    Ok(SizeMeasurement {
        mean_distinct_keys: distinct / f64::from(runs),
        mean_sharing_index: sharing / f64::from(runs),
        runs,
    })
}

/// The summary of one Monte-Carlo run: `data` pushed record by record
/// through a [`Pipeline`] whose seed is a deterministic derivation of
/// `config.seed` and the run index.
fn run_summary(
    data: &MultiWeighted,
    config: &SummaryConfig,
    layout: Layout,
    run: u32,
) -> Result<Summary> {
    let seed = cws_hash::mix64(config.seed ^ (u64::from(run) + 1).wrapping_mul(0x9E37));
    let mut pipeline = Pipeline::builder()
        .assignments(data.num_assignments())
        .k(config.k)
        .rank(config.family)
        .coordination(config.mode)
        .layout(layout)
        .seed(seed)
        .build()?;
    for (key, weights) in data.iter() {
        pipeline.push_record(key, weights)?;
    }
    pipeline.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::coordination::CoordinationMode;
    use cws_core::ranks::RankFamily;
    use cws_data::synthetic::correlated_zipf;

    fn data() -> MultiWeighted {
        correlated_zipf(400, 3, 1.1, 0.8, 0.15, 21)
    }

    fn config(mode: CoordinationMode) -> SummaryConfig {
        SummaryConfig::new(40, RankFamily::Ipps, mode, 5)
    }

    fn adjusted(aggregate: AggregateFn) -> EstimatorSpec {
        EstimatorSpec::Adjusted(aggregate, SelectionKind::LSet)
    }

    #[test]
    fn dispersed_measurement_reports_all_specs_and_is_unbiased() {
        let data = data();
        let specs = vec![
            adjusted(AggregateFn::SingleAssignment(0)),
            adjusted(AggregateFn::Max(vec![0, 1, 2])),
            adjusted(AggregateFn::Min(vec![0, 1, 2])),
            adjusted(AggregateFn::L1(vec![0, 1, 2])),
        ];
        let cfg = config(CoordinationMode::SharedSeed);
        let results = measure(&data, &cfg, Layout::Dispersed, &specs, 150).unwrap();
        assert_eq!(results.len(), 4);
        for (spec, result) in specs.iter().zip(&results) {
            assert!(result.sigma_v >= 0.0);
            assert!(result.n_sigma_v >= 0.0);
            assert!(result.exact_total > 0.0);
            assert!(
                (result.mean_estimate - result.exact_total).abs() <= result.exact_total * 0.25,
                "{spec:?}: mean {} vs exact {}",
                result.mean_estimate,
                result.exact_total
            );
        }
    }

    #[test]
    fn coordination_reduces_min_variance() {
        let data = data();
        let spec = vec![adjusted(AggregateFn::Min(vec![0, 1, 2]))];
        let measure_in =
            |mode| measure(&data, &config(mode), Layout::Dispersed, &spec, 120).unwrap()[0].sigma_v;
        let coordinated = measure_in(CoordinationMode::SharedSeed);
        let independent = measure_in(CoordinationMode::Independent);
        assert!(
            independent > coordinated * 2.0,
            "independent {independent} vs coordinated {coordinated}"
        );
    }

    #[test]
    fn colocated_measurement_inclusive_beats_plain() {
        let data = data();
        let specs =
            vec![adjusted(AggregateFn::SingleAssignment(1)), EstimatorSpec::ColocatedPlain(1)];
        let cfg = config(CoordinationMode::SharedSeed);
        let results = measure(&data, &cfg, Layout::Colocated, &specs, 150).unwrap();
        assert!(results[0].sigma_v <= results[1].sigma_v * 1.05);
        assert!(results[0].n_sigma_v <= results[1].n_sigma_v * 1.05);
    }

    #[test]
    fn max_over_independent_sketches_is_an_error() {
        let data = data();
        let specs = vec![adjusted(AggregateFn::Max(vec![0, 1]))];
        let cfg = config(CoordinationMode::Independent);
        assert!(measure(&data, &cfg, Layout::Dispersed, &specs, 10).is_err());
    }

    #[test]
    fn size_measurements_are_sensible() {
        let data = data();
        let measure_in = |mode| measure_colocated_size(&data, &config(mode), 30).unwrap();
        let coordinated = measure_in(CoordinationMode::SharedSeed);
        let independent = measure_in(CoordinationMode::Independent);
        assert!(coordinated.mean_distinct_keys < independent.mean_distinct_keys);
        assert!(coordinated.mean_sharing_index >= 1.0 / 3.0 - 1e-9);
        assert!(independent.mean_sharing_index <= 1.0);
    }

    #[test]
    fn spec_targets() {
        let spec = adjusted(AggregateFn::Min(vec![0, 1]));
        assert_eq!(spec.target(), AggregateFn::Min(vec![0, 1]));
        let spec = EstimatorSpec::ColocatedPlain(2);
        assert_eq!(spec.target(), AggregateFn::SingleAssignment(2));
    }

    #[test]
    fn plain_estimator_over_a_dispersed_summary_is_unsupported() {
        let data = data();
        let cfg = config(CoordinationMode::SharedSeed);
        let error = measure(&data, &cfg, Layout::Dispersed, &[EstimatorSpec::ColocatedPlain(0)], 1)
            .unwrap_err();
        assert!(matches!(error, CwsError::UnsupportedEstimator { .. }), "{error:?}");
        // The same spec over the colocated layout is defined.
        assert!(
            measure(&data, &cfg, Layout::Colocated, &[EstimatorSpec::ColocatedPlain(0)], 1).is_ok()
        );
    }
}
