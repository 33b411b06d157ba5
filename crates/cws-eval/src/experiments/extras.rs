//! Extra experiments: the Theorem 4.1 Jaccard check and the design-choice
//! ablations.
//!
//! Theorem 4.1 and the fixed-size and sketch-kind ablations measure
//! constructions the engine's `Pipeline` does not offer (k-mins and Poisson
//! sketches, a distinct-key budget), so they build them with `cws-core`
//! directly. The other two run through [`crate::measure`].

use cws_core::aggregates::{weighted_jaccard, AggregateFn};
use cws_core::coordination::{CoordinationMode, RankGenerator};
use cws_core::estimate::colocated::InclusiveEstimator;
use cws_core::estimate::single::{ht_adjusted_weights, rc_adjusted_weights};
use cws_core::ranks::RankFamily;
use cws_core::sketch::bottomk::BottomKSketch;
use cws_core::sketch::kmins::kmins_sketches;
use cws_core::sketch::poisson::{threshold_for_expected_size, PoissonSketch};
use cws_core::summary::{ColocatedSummary, SummaryConfig};
use cws_data::ip::{IpAttribute, IpKey};
use cws_data::stocks::StockAttribute;
use cws_engine::Layout;
use cws_hash::SeedSequence;

use crate::datasets::{self, DatasetScale};
use crate::measure::measure;
use crate::report::{fmt, ExperimentReport, Table};

use super::{base_config, l_set, usable_ks};

/// Theorem 4.1: with independent-differences consistent ranks, the fraction
/// of k-mins replicas whose minimum-rank key agrees equals the weighted
/// Jaccard similarity.
pub(super) fn theorem_4_1(scale: DatasetScale) -> ExperimentReport {
    let replicas = match scale {
        DatasetScale::Smoke => 512,
        DatasetScale::Full => 4096,
    };
    let mut report = ExperimentReport::new(
        "thm4_1",
        "k-mins agreement fraction vs exact weighted Jaccard similarity (Theorem 4.1)",
    );
    let mut table = Table::new(
        format!("{replicas} replicas, independent-differences EXP ranks"),
        vec![
            "dataset".to_string(),
            "pair".to_string(),
            "exact Jaccard".to_string(),
            "k-mins estimate".to_string(),
            "independent-ranks estimate".to_string(),
        ],
    );
    let generator =
        RankGenerator::new(RankFamily::Exp, CoordinationMode::IndependentDifferences, 0xBEEF)
            .expect("EXP supports independent differences");
    let independent =
        RankGenerator::new(RankFamily::Exp, CoordinationMode::Independent, 0xBEEF).expect("valid");

    let stocks = datasets::stocks(scale);
    let netflix = datasets::ratings(scale);
    let cases = [
        ("stocks/high", stocks.dispersed(StockAttribute::High), (0usize, 1usize)),
        ("stocks/volume", stocks.dispersed(StockAttribute::Volume), (0, 1)),
        ("ratings", netflix.dataset().clone(), (0, 1)),
        ("ratings far", netflix.dataset().clone(), (0, 11)),
    ];
    for (name, view, (a, b)) in cases {
        let exact = weighted_jaccard(&view.data, a, b, |_| true);
        let coordinated = kmins_sketches(&view.data, replicas, &generator);
        let estimate = coordinated[a].jaccard_estimate(&coordinated[b]);
        let uncoordinated = kmins_sketches(&view.data, replicas.min(512), &independent);
        let naive = uncoordinated[a].jaccard_estimate(&uncoordinated[b]);
        table.push_row(vec![
            name.to_string(),
            format!("({}, {})", view.label(a), view.label(b)),
            fmt(exact),
            fmt(estimate),
            fmt(naive),
        ]);
    }
    report.push_table(table);
    report.note("The coordinated estimate tracks the exact similarity; independent ranks collapse toward 0.");
    report
}

/// Ablation: IPPS vs EXP rank families for the dispersed min-l / L1-l
/// estimators.
pub(super) fn ablation_rankfamily(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let view = datasets::ip_dataset1(scale).dispersed(IpKey::DestIp, IpAttribute::Bytes);
    let mut report = ExperimentReport::new(
        "ablation_rankfamily",
        "IPPS (priority) vs EXP rank families — ΣV of coordinated min-l and L1-l",
    );
    let mut table = Table::new(
        format!("{} (2 periods)", view.name),
        vec![
            "k".to_string(),
            "IPPS min-l".to_string(),
            "EXP min-l".to_string(),
            "IPPS L1-l".to_string(),
            "EXP L1-l".to_string(),
        ],
    );
    let specs = vec![l_set(AggregateFn::Min(vec![0, 1])), l_set(AggregateFn::L1(vec![0, 1]))];
    for &k in &usable_ks(&ks, view.num_keys()) {
        let exp_config =
            SummaryConfig::new(k, RankFamily::Exp, CoordinationMode::SharedSeed, 0x5EED);
        let [ipps, exp] = [base_config(k, CoordinationMode::SharedSeed), exp_config]
            .map(|config| measure(&view.data, &config, Layout::Dispersed, &specs, runs))
            .map(|result| result.expect("defined"));
        table.push_row(vec![
            k.to_string(),
            fmt(ipps[0].sigma_v),
            fmt(exp[0].sigma_v),
            fmt(ipps[1].sigma_v),
            fmt(exp[1].sigma_v),
        ]);
    }
    report.push_table(table);
    report.note("IPPS ranks (priority sampling) are typically slightly tighter, matching the single-assignment theory.");
    report
}

/// Ablation: shared-seed vs independent-differences consistent ranks for
/// colocated multi-assignment estimators (EXP family).
pub(super) fn ablation_consistency(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let view = datasets::stocks(scale).colocated_day(0);
    let all: Vec<usize> = (0..view.num_assignments()).collect();
    let mut report = ExperimentReport::new(
        "ablation_consistency",
        "Shared-seed vs independent-differences consistent ranks (colocated, EXP ranks)",
    );
    let mut table = Table::new(
        format!("{} — ΣV of the inclusive min estimator over all attributes", view.name),
        vec![
            "k".to_string(),
            "shared-seed".to_string(),
            "independent-differences".to_string(),
            "independent".to_string(),
        ],
    );
    let specs = vec![l_set(AggregateFn::Min(all))];
    for &k in &usable_ks(&ks, view.num_keys()) {
        let mut row = vec![k.to_string()];
        for mode in [
            CoordinationMode::SharedSeed,
            CoordinationMode::IndependentDifferences,
            CoordinationMode::Independent,
        ] {
            let config = SummaryConfig::new(k, RankFamily::Exp, mode, 0x5EED);
            let result =
                measure(&view.data, &config, Layout::Colocated, &specs, runs).expect("defined");
            row.push(fmt(result[0].sigma_v));
        }
        table.push_row(row);
    }
    report.push_table(table);
    report
}

/// Ablation: fixed per-assignment k vs a fixed distinct-key budget for
/// colocated summaries.
pub(super) fn ablation_fixedsize(scale: DatasetScale) -> ExperimentReport {
    let runs = scale.runs().min(25);
    let ks = scale.k_sweep();
    let view = datasets::ip_dataset1(scale).colocated(IpKey::DestIp);
    let mut report = ExperimentReport::new(
        "ablation_fixedsize",
        "Fixed per-assignment k vs fixed distinct-key budget (|W|·k) for colocated summaries",
    );
    let mut table = Table::new(
        format!("{} — summary size and estimation error", view.name),
        vec![
            "k".to_string(),
            "fixed-k distinct keys".to_string(),
            "budget".to_string(),
            "budget effective k".to_string(),
            "budget distinct keys".to_string(),
            "fixed-k MSE(bytes total)".to_string(),
            "budget MSE(bytes total)".to_string(),
        ],
    );
    let exact_total = view.data.assignment_total(0);
    for &k in &usable_ks(&ks, view.num_keys()) {
        let config = base_config(k, CoordinationMode::SharedSeed);
        let budget = k * view.num_assignments();
        let mut fixed_distinct = 0.0;
        let mut budget_distinct = 0.0;
        let mut budget_effective = 0.0;
        let mut fixed_mse = 0.0;
        let mut budget_mse = 0.0;
        for run in 0..runs {
            let run_config = config.with_seed(cws_hash::mix64(0x5EED ^ (u64::from(run) + 1)));
            let fixed = ColocatedSummary::build(&view.data, &run_config);
            let budgeted =
                ColocatedSummary::build_with_distinct_budget(&view.data, &run_config, budget);
            fixed_distinct += fixed.num_distinct_keys() as f64;
            budget_distinct += budgeted.num_distinct_keys() as f64;
            budget_effective += budgeted.effective_k() as f64;
            let fixed_estimate =
                InclusiveEstimator::new(&fixed).single(0).expect("valid assignment").total();
            let budget_estimate =
                InclusiveEstimator::new(&budgeted).single(0).expect("valid assignment").total();
            fixed_mse += (fixed_estimate - exact_total).powi(2);
            budget_mse += (budget_estimate - exact_total).powi(2);
        }
        let n = f64::from(runs);
        table.push_row(vec![
            k.to_string(),
            fmt(fixed_distinct / n),
            budget.to_string(),
            fmt(budget_effective / n),
            fmt(budget_distinct / n),
            fmt(fixed_mse / n),
            fmt(budget_mse / n),
        ]);
    }
    report.push_table(table);
    report.note("At an equal distinct-key budget the adaptive summary embeds larger per-assignment samples and reduces the estimation error.");
    report
}

/// Ablation: bottom-k (RC) vs Poisson (HT) sketches at equal expected sample
/// size for a single assignment.
pub(super) fn ablation_sketchkind(scale: DatasetScale) -> ExperimentReport {
    let runs = scale.runs();
    let ks = scale.k_sweep();
    let view = datasets::ip_dataset1(scale).colocated(IpKey::DestIp);
    let set = view.data.single(0);
    let weights: Vec<f64> = set.iter().map(|(_, w)| w).collect();
    let exact = set.total();
    let mut report = ExperimentReport::new(
        "ablation_sketchkind",
        "Bottom-k (RC) vs Poisson (HT) sketches at equal expected sample size",
    );
    let mut table = Table::new(
        format!("{} — MSE of the total-bytes estimate", view.name),
        vec![
            "k".to_string(),
            "bottom-k RC MSE".to_string(),
            "Poisson HT MSE".to_string(),
            "mean Poisson sample size".to_string(),
        ],
    );
    for &k in &usable_ks(&ks, set.len()) {
        let tau = threshold_for_expected_size(&weights, RankFamily::Ipps, k as f64);
        let mut bottomk_mse = 0.0;
        let mut poisson_mse = 0.0;
        let mut poisson_size = 0.0;
        for run in 0..runs {
            let seeds = SeedSequence::new(cws_hash::mix64(0xABCD ^ u64::from(run)));
            let sketch = BottomKSketch::sample(&set, k, RankFamily::Ipps, &seeds);
            let estimate = rc_adjusted_weights(&sketch, RankFamily::Ipps).total();
            bottomk_mse += (estimate - exact).powi(2);
            let poisson = PoissonSketch::from_ranked(
                tau,
                set.iter().map(|(key, weight)| {
                    (key, RankFamily::Ipps.rank_from_seed(weight, seeds.shared_seed(key)), weight)
                }),
            );
            poisson_size += poisson.len() as f64;
            let estimate = ht_adjusted_weights(&poisson, RankFamily::Ipps).total();
            poisson_mse += (estimate - exact).powi(2);
        }
        let n = f64::from(runs);
        table.push_row(vec![
            k.to_string(),
            fmt(bottomk_mse / n),
            fmt(poisson_mse / n),
            fmt(poisson_size / n),
        ]);
    }
    report.push_table(table);
    report.note("Bottom-k sketches have a fixed sample size and (with RC) comparable or lower error than Poisson HT at the same expected size.");
    report
}
