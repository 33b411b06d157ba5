//! The experiment registry: one entry per table and figure of the paper's
//! evaluation (Section 9), plus design-choice ablations.
//!
//! Each experiment builds its data set from [`crate::datasets`], runs the
//! Monte-Carlo measurement of [`crate::measure`], and returns an
//! [`ExperimentReport`] whose tables mirror the corresponding figure panels
//! (the x-axis of a plot becomes the first column, each curve becomes a
//! column).

mod colocated_figures;
mod dispersed_figures;
mod extras;
mod paper_tables;

use cws_core::aggregates::{exact_aggregate, AggregateFn};
use cws_core::coordination::CoordinationMode;
use cws_core::estimate::dispersed::SelectionKind;
use cws_core::ranks::RankFamily;
use cws_core::summary::SummaryConfig;
use cws_data::dataset::LabeledDataset;
use cws_engine::Layout;

use crate::datasets::DatasetScale;
use crate::measure::{measure, measure_colocated_size, EstimatorSpec};
use crate::report::{fmt, ExperimentReport, Table};

/// The ids of all registered experiments, in presentation order.
#[must_use]
pub fn available_experiments() -> Vec<&'static str> {
    vec![
        "table2",
        "table3",
        "table4",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "thm4_1",
        "ablation_rankfamily",
        "ablation_consistency",
        "ablation_fixedsize",
        "ablation_sketchkind",
    ]
}

/// Runs one experiment by id. Returns `None` for unknown ids.
#[must_use]
pub fn run_experiment(id: &str, scale: DatasetScale) -> Option<ExperimentReport> {
    let report = match id {
        "table2" => paper_tables::table2(scale),
        "table3" => paper_tables::table3(scale),
        "table4" => paper_tables::table4(scale),
        "fig3" => dispersed_figures::fig3(scale),
        "fig4" => dispersed_figures::fig4(scale),
        "fig5" => dispersed_figures::fig5(scale),
        "fig6" => dispersed_figures::fig6(scale),
        "fig7" => dispersed_figures::fig7(scale),
        "fig8" => dispersed_figures::fig8(scale),
        "fig9" => colocated_figures::fig9(scale),
        "fig10" => colocated_figures::fig10(scale),
        "fig11" => colocated_figures::fig11(scale),
        "fig12" => colocated_figures::fig12(scale),
        "fig13" => colocated_figures::fig13(scale),
        "fig14" => colocated_figures::fig14(scale),
        "fig15" => colocated_figures::fig15(scale),
        "fig16" => colocated_figures::fig16(scale),
        "fig17" => colocated_figures::fig17(scale),
        "thm4_1" => extras::theorem_4_1(scale),
        "ablation_rankfamily" => extras::ablation_rankfamily(scale),
        "ablation_consistency" => extras::ablation_consistency(scale),
        "ablation_fixedsize" => extras::ablation_fixedsize(scale),
        "ablation_sketchkind" => extras::ablation_sketchkind(scale),
        _ => return None,
    };
    Some(report)
}

/// Runs every registered experiment.
#[must_use]
pub fn run_all(scale: DatasetScale) -> Vec<ExperimentReport> {
    available_experiments()
        .into_iter()
        .map(|id| run_experiment(id, scale).expect("registered id"))
        .collect()
}

// ---------------------------------------------------------------------------
// Shared panel builders
// ---------------------------------------------------------------------------

pub(crate) fn base_config(k: usize, mode: CoordinationMode) -> SummaryConfig {
    SummaryConfig::new(k, RankFamily::Ipps, mode, 0x5EED)
}

/// The spec [`crate::measure::measure`] evaluates through
/// `Summary::adjusted_weights` with l-set selection (the selection only
/// matters for dispersed `min` and `L1`).
pub(crate) fn l_set(aggregate: AggregateFn) -> EstimatorSpec {
    EstimatorSpec::Adjusted(aggregate, SelectionKind::LSet)
}

/// Caps a k sweep so that it stays meaningful for the data set size
/// (k close to the number of keys makes every estimator exact).
pub(crate) fn usable_ks(ks: &[usize], num_keys: usize) -> Vec<usize> {
    ks.iter().copied().filter(|&k| k * 2 <= num_keys).collect::<Vec<_>>()
}

/// Figure 3 style panel: the ratio `ΣV[min over independent sketches] /
/// ΣV[min-l over coordinated sketches]` as a function of k.
pub(crate) fn min_ratio_panel(
    dataset: &LabeledDataset,
    relevant: &[usize],
    ks: &[usize],
    runs: u32,
) -> Table {
    let mut table = Table::new(
        format!("{} (|R|={})", dataset.name, relevant.len()),
        vec![
            "k".to_string(),
            "sigma_v ind-min".to_string(),
            "sigma_v coord min-l".to_string(),
            "ratio ind/coord".to_string(),
        ],
    );
    let spec = vec![l_set(AggregateFn::Min(relevant.to_vec()))];
    for &k in &usable_ks(ks, dataset.num_keys()) {
        let [coordinated, independent] =
            [CoordinationMode::SharedSeed, CoordinationMode::Independent].map(|mode| {
                measure(&dataset.data, &base_config(k, mode), Layout::Dispersed, &spec, runs)
                    .expect("min-l is always defined")
            });
        let ratio = if coordinated[0].sigma_v > 0.0 {
            independent[0].sigma_v / coordinated[0].sigma_v
        } else {
            f64::INFINITY
        };
        table.push_row(vec![
            k.to_string(),
            fmt(independent[0].sigma_v),
            fmt(coordinated[0].sigma_v),
            fmt(ratio),
        ]);
    }
    table
}

/// Figures 4–7 style panel pair: absolute `ΣV` and normalized `nΣV` of the
/// independent min, the single-assignment baselines of `shown_baselines`,
/// and the coordinated min-l / max / L1-l estimators over `relevant`, as a
/// function of k. `title` prefixes both table captions.
pub(crate) fn dispersed_variance_panels(
    dataset: &LabeledDataset,
    title: &str,
    relevant: &[usize],
    shown_baselines: &[usize],
    ks: &[usize],
    runs: u32,
) -> (Table, Table) {
    let mut columns = vec!["k".to_string(), "ind min".to_string()];
    for &b in shown_baselines {
        columns.push(dataset.label(b).to_string());
    }
    columns.extend(["coord min-l", "coord max", "coord L1-l"].map(str::to_string));

    let mut sigma = Table::new(format!("{title} — sum of square errors"), columns.clone());
    let mut normalized = Table::new(format!("{title} — normalized sum of square errors"), columns);

    let mut coordinated_specs: Vec<EstimatorSpec> =
        shown_baselines.iter().map(|&b| l_set(AggregateFn::SingleAssignment(b))).collect();
    coordinated_specs.push(l_set(AggregateFn::Min(relevant.to_vec())));
    coordinated_specs.push(l_set(AggregateFn::Max(relevant.to_vec())));
    coordinated_specs.push(l_set(AggregateFn::L1(relevant.to_vec())));
    let independent_spec = vec![l_set(AggregateFn::Min(relevant.to_vec()))];

    for &k in &usable_ks(ks, dataset.num_keys()) {
        let coordinated = measure(
            &dataset.data,
            &base_config(k, CoordinationMode::SharedSeed),
            Layout::Dispersed,
            &coordinated_specs,
            runs,
        )
        .expect("coordinated estimators are defined");
        let independent = measure(
            &dataset.data,
            &base_config(k, CoordinationMode::Independent),
            Layout::Dispersed,
            &independent_spec,
            runs,
        )
        .expect("independent min is defined");

        let mut sigma_row = vec![k.to_string(), fmt(independent[0].sigma_v)];
        let mut norm_row = vec![k.to_string(), fmt(independent[0].n_sigma_v)];
        for measurement in &coordinated {
            sigma_row.push(fmt(measurement.sigma_v));
            norm_row.push(fmt(measurement.n_sigma_v));
        }
        sigma.push_row(sigma_row);
        normalized.push_row(norm_row);
    }
    (sigma, normalized)
}

/// Figure 8 style panel: the `ΣV` ratio of the s-set to the l-set estimator
/// for min and L1.
pub(crate) fn s_vs_l_panel(
    dataset: &LabeledDataset,
    relevant: &[usize],
    ks: &[usize],
    runs: u32,
) -> Table {
    let mut table = Table::new(
        format!("{} (|R|={})", dataset.name, relevant.len()),
        vec!["k".to_string(), "min-s/min-l".to_string(), "L1-s/L1-l".to_string()],
    );
    let mut specs = Vec::new();
    for aggregate in [AggregateFn::Min(relevant.to_vec()), AggregateFn::L1(relevant.to_vec())] {
        for selection in [SelectionKind::SSet, SelectionKind::LSet] {
            specs.push(EstimatorSpec::Adjusted(aggregate.clone(), selection));
        }
    }
    for &k in &usable_ks(ks, dataset.num_keys()) {
        let results = measure(
            &dataset.data,
            &base_config(k, CoordinationMode::SharedSeed),
            Layout::Dispersed,
            &specs,
            runs,
        )
        .expect("coordinated estimators are defined");
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::NAN };
        table.push_row(vec![
            k.to_string(),
            fmt(ratio(results[0].sigma_v, results[1].sigma_v)),
            fmt(ratio(results[2].sigma_v, results[3].sigma_v)),
        ]);
    }
    table
}

/// Figures 9–11 style panel: per assignment, the `ΣV` ratio of the inclusive
/// estimator (coordinated and independent summaries) to the plain
/// single-sketch estimator.
pub(crate) fn colocated_ratio_panel(
    dataset: &LabeledDataset,
    ks: &[usize],
    runs: u32,
) -> (Table, Table) {
    let assignments = dataset.num_assignments();
    let mut columns = vec!["k".to_string()];
    for b in 0..assignments {
        columns.push(dataset.label(b).to_string());
    }
    let mut coordinated_table = Table::new(
        format!("{} — ΣV[inclusive]/ΣV[plain], coordinated sketches", dataset.name),
        columns.clone(),
    );
    let mut independent_table = Table::new(
        format!("{} — ΣV[inclusive]/ΣV[plain], independent sketches", dataset.name),
        columns,
    );

    let mut specs = Vec::new();
    for b in 0..assignments {
        specs.push(l_set(AggregateFn::SingleAssignment(b)));
        specs.push(EstimatorSpec::ColocatedPlain(b));
    }
    for &k in &usable_ks(ks, dataset.num_keys()) {
        for (mode, table) in [
            (CoordinationMode::SharedSeed, &mut coordinated_table),
            (CoordinationMode::Independent, &mut independent_table),
        ] {
            let results =
                measure(&dataset.data, &base_config(k, mode), Layout::Colocated, &specs, runs)
                    .expect("colocated estimators are defined");
            let mut row = vec![k.to_string()];
            for b in 0..assignments {
                let inclusive = &results[2 * b];
                let plain = &results[2 * b + 1];
                let ratio =
                    if plain.sigma_v > 0.0 { inclusive.sigma_v / plain.sigma_v } else { f64::NAN };
                row.push(fmt(ratio));
            }
            table.push_row(row);
        }
    }
    (coordinated_table, independent_table)
}

/// Figures 12–16 style panel: `nΣV` of the plain and inclusive estimators of
/// one assignment, for coordinated and independent summaries, against the
/// mean combined sample size (number of distinct keys).
pub(crate) fn size_tradeoff_panel(
    dataset: &LabeledDataset,
    assignment: usize,
    ks: &[usize],
    runs: u32,
) -> Table {
    let mut table = Table::new(
        format!("{} — weight={}", dataset.name, dataset.label(assignment)),
        vec![
            "k".to_string(),
            "size coord".to_string(),
            "size ind".to_string(),
            "coord plain".to_string(),
            "coord inclusive".to_string(),
            "ind plain".to_string(),
            "ind inclusive".to_string(),
        ],
    );
    let specs = vec![
        EstimatorSpec::ColocatedPlain(assignment),
        l_set(AggregateFn::SingleAssignment(assignment)),
    ];
    for &k in &usable_ks(ks, dataset.num_keys()) {
        let coord_cfg = base_config(k, CoordinationMode::SharedSeed);
        let ind_cfg = base_config(k, CoordinationMode::Independent);
        let [(coord, coord_size), (ind, ind_size)] = [coord_cfg, ind_cfg].map(|config| {
            let variance = measure(&dataset.data, &config, Layout::Colocated, &specs, runs);
            let size = measure_colocated_size(&dataset.data, &config, runs.min(20));
            (variance.expect("defined"), size.expect("defined"))
        });
        table.push_row(vec![
            k.to_string(),
            fmt(coord_size.mean_distinct_keys),
            fmt(ind_size.mean_distinct_keys),
            fmt(coord[0].n_sigma_v),
            fmt(coord[1].n_sigma_v),
            fmt(ind[0].n_sigma_v),
            fmt(ind[1].n_sigma_v),
        ]);
    }
    table
}

/// Figure 17 style panel: the sharing index of coordinated vs independent
/// colocated summaries as a function of k.
pub(crate) fn sharing_panel(dataset: &LabeledDataset, ks: &[usize], runs: u32) -> Table {
    let mut table = Table::new(
        format!("{} ({} assignments)", dataset.name, dataset.num_assignments()),
        vec!["k".to_string(), "coordinated".to_string(), "independent".to_string()],
    );
    for &k in &usable_ks(ks, dataset.num_keys()) {
        let [coord, ind] = [CoordinationMode::SharedSeed, CoordinationMode::Independent]
            .map(|mode| measure_colocated_size(&dataset.data, &base_config(k, mode), runs))
            .map(|size| size.expect("defined"));
        table.push_row(vec![
            k.to_string(),
            fmt(coord.mean_sharing_index),
            fmt(ind.mean_sharing_index),
        ]);
    }
    table
}

/// A paper-table row of exact aggregate totals for a dispersed data set:
/// per-assignment totals plus max / min / L1 over the full assignment set.
pub(crate) fn totals_row(dataset: &LabeledDataset, label: &str) -> Vec<String> {
    let all: Vec<usize> = (0..dataset.num_assignments()).collect();
    let mut row = vec![label.to_string(), dataset.num_keys().to_string()];
    for &b in &all {
        row.push(fmt(exact_aggregate(&dataset.data, &AggregateFn::SingleAssignment(b), |_| true)));
    }
    for aggregate in
        [AggregateFn::Max(all.clone()), AggregateFn::Min(all.clone()), AggregateFn::L1(all)]
    {
        row.push(fmt(exact_aggregate(&dataset.data, &aggregate, |_| true)));
    }
    row
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_runs_smoke_experiments() {
        let ids = available_experiments();
        assert!(ids.len() >= 20);
        assert!(run_experiment("nonexistent", DatasetScale::Smoke).is_none());
        // Run a representative, cheap subset end to end at smoke scale.
        for id in ["table2", "table3", "table4", "thm4_1"] {
            let report = run_experiment(id, DatasetScale::Smoke).expect("registered");
            assert_eq!(report.id, id);
            assert!(!report.tables.is_empty(), "{id} produced no tables");
            assert!(!report.render_text().is_empty());
        }
    }

    #[test]
    fn usable_ks_filters_oversized_samples() {
        assert_eq!(usable_ks(&[16, 64, 256], 200), vec![16, 64]);
        assert_eq!(usable_ks(&[16], 10), Vec::<usize>::new());
    }
}
