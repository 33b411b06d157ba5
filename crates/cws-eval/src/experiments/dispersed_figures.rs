//! Dispersed-model figures: Figure 3 (coordination vs independence), Figures
//! 4–7 (multi-assignment vs single-assignment variance), Figure 8 (s-set vs
//! l-set).

use cws_data::ip::{IpAttribute, IpKey};
use cws_data::stocks::StockAttribute;

use crate::datasets::{self, DatasetScale};
use crate::report::ExperimentReport;

use super::{dispersed_variance_panels, min_ratio_panel, s_vs_l_panel};

/// Figure 3: ratio of ΣV of the min estimator over independent vs coordinated
/// sketches, for every data set.
pub(super) fn fig3(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report = ExperimentReport::new(
        "fig3",
        "ΣV[min over independent sketches] / ΣV[min-l over coordinated sketches] vs k",
    );
    report.note(
        "Each ΣV is the sum of per-key squared errors, averaged over the runs. Where both \
         sketches sample well, the ratio is ≫ 1 (orders of magnitude in the paper) and tends to \
         grow with |R|. Rows with large |R| and small k can read < 1: independent sketches \
         rarely hold a key sampled for every assignment in R, so the independent min estimate \
         is usually 0. In a row where it was 0 in every run, the measured ΣV is exactly Σf², \
         the same at every k (stocks/high |R|=5 at k=16 and 64 at full scale, stocks/volume \
         |R|=23 at smoke scale). The estimator is unbiased, so its variance sits in rare runs \
         with huge estimates that a few dozen runs miss; there the measurement under-reads the \
         independent estimator's variance, and the ratio does not compare true variances.",
    );

    let ip1 = datasets::ip_dataset1(scale);
    for (key, attribute) in [
        (IpKey::DestIp, IpAttribute::Flows),
        (IpKey::DestIp, IpAttribute::Bytes),
        (IpKey::FourTuple, IpAttribute::Packets),
        (IpKey::FourTuple, IpAttribute::Bytes),
    ] {
        let view = ip1.dispersed(key, attribute);
        report.push_table(min_ratio_panel(&view, &[0, 1], &ks, runs));
    }

    let ip2 = datasets::ip_dataset2(scale);
    for key in [IpKey::DestIp, IpKey::FourTuple] {
        let view = ip2.dispersed(key, IpAttribute::Bytes);
        report.push_table(min_ratio_panel(&view, &[0, 1], &ks, runs));
        report.push_table(min_ratio_panel(&view, &[0, 1, 2, 3], &ks, runs));
    }

    let netflix = datasets::ratings(scale);
    for months in [2usize, 6, 12] {
        let r: Vec<usize> = (0..months).collect();
        report.push_table(min_ratio_panel(netflix.dataset(), &r, &ks, runs));
    }

    let stocks = datasets::stocks(scale);
    for attribute in [StockAttribute::High, StockAttribute::Volume] {
        let view = stocks.dispersed(attribute);
        for days in [2usize, 5, 23] {
            let r: Vec<usize> = (0..days).collect();
            report.push_table(min_ratio_panel(&view, &r, &ks, runs));
        }
    }
    report
}

/// Figure 4: IP dataset1 — ΣV and nΣV of the multi-assignment estimators vs
/// the single-assignment baselines.
pub(super) fn fig4(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report = ExperimentReport::new(
        "fig4",
        "IP dataset1 — ΣV and nΣV of min-l / max / L1-l vs per-period estimators",
    );
    report.note(
        "Multi-assignment estimators over coordinated sketches stay within an order of magnitude \
         of the single-assignment (per-period) estimators; the independent-sketches min is far \
         worse.",
    );
    let ip1 = datasets::ip_dataset1(scale);
    for (key, attribute) in [
        (IpKey::DestIp, IpAttribute::Flows),
        (IpKey::DestIp, IpAttribute::Bytes),
        (IpKey::FourTuple, IpAttribute::Packets),
        (IpKey::FourTuple, IpAttribute::Bytes),
    ] {
        let view = ip1.dispersed(key, attribute);
        let (sigma, normalized) =
            dispersed_variance_panels(&view, &view.name, &[0, 1], &[0, 1], &ks, runs);
        report.push_table(sigma);
        report.push_table(normalized);
    }
    report
}

/// Figure 5: IP dataset2 — same panels for hour sets {1,2} and {1,2,3,4}.
pub(super) fn fig5(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report =
        ExperimentReport::new("fig5", "IP dataset2 — ΣV and nΣV for hour sets {1,2} and {1,2,3,4}");
    let ip2 = datasets::ip_dataset2(scale);
    for key in [IpKey::DestIp, IpKey::FourTuple] {
        let view = ip2.dispersed(key, IpAttribute::Bytes);
        for r in [vec![0usize, 1], vec![0, 1, 2, 3]] {
            let (sigma, normalized) =
                dispersed_variance_panels(&view, &view.name, &r, &r, &ks, runs);
            report.push_table(sigma);
            report.push_table(normalized);
        }
    }
    report
}

/// Figure 6: the ratings data set — month ranges {1,2}, {1..6}, {1..12}.
pub(super) fn fig6(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report =
        ExperimentReport::new("fig6", "Ratings data set — ΣV and nΣV for month ranges");
    let netflix = datasets::ratings(scale);
    for months in [2usize, 6, 12] {
        let r: Vec<usize> = (0..months).collect();
        // Only show the first/last single-assignment baselines to keep the
        // table readable for wide month ranges.
        let shown: Vec<usize> = if months <= 2 { r.clone() } else { vec![0, months - 1] };
        let dataset = netflix.dataset();
        let title = format!("{} (|R|={months})", dataset.name);
        let (sigma, normalized) = dispersed_variance_panels(dataset, &title, &r, &shown, &ks, runs);
        report.push_table(sigma);
        report.push_table(normalized);
    }
    report
}

/// Figure 7: the stock data set — high and volume attributes for day ranges.
pub(super) fn fig7(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report =
        ExperimentReport::new("fig7", "Stocks data set — ΣV and nΣV for trading-day ranges");
    let stocks = datasets::stocks(scale);
    for attribute in [StockAttribute::High, StockAttribute::Volume] {
        let view = stocks.dispersed(attribute);
        for days in [2usize, 5, 23] {
            let r: Vec<usize> = (0..days).collect();
            let shown: Vec<usize> = if days <= 2 { r.clone() } else { vec![0, days - 1] };
            let title = format!("{} (|R|={days})", view.name);
            let (sigma, normalized) =
                dispersed_variance_panels(&view, &title, &r, &shown, &ks, runs);
            report.push_table(sigma);
            report.push_table(normalized);
        }
    }
    report
}

/// Figure 8: ΣV ratio of the s-set to the l-set estimators for min and L1.
pub(super) fn fig8(scale: DatasetScale) -> ExperimentReport {
    let ks = scale.k_sweep();
    let runs = scale.runs();
    let mut report = ExperimentReport::new(
        "fig8",
        "s-set vs l-set estimators — ΣV[·-s] / ΣV[·-l] for min and L1",
    );
    report.note(
        "Ratios are ≥ 1 in expectation (Lemma 5.1); a measured ratio can dip just below 1 from \
         Monte-Carlo noise. The advantage of the l-set varies by data set.",
    );

    let ip1 = datasets::ip_dataset1(scale);
    report.push_table(s_vs_l_panel(
        &ip1.dispersed(IpKey::DestIp, IpAttribute::Bytes),
        &[0, 1],
        &ks,
        runs,
    ));
    let ip2 = datasets::ip_dataset2(scale);
    report.push_table(s_vs_l_panel(
        &ip2.dispersed(IpKey::DestIp, IpAttribute::Bytes),
        &[0, 1, 2, 3],
        &ks,
        runs,
    ));
    let netflix = datasets::ratings(scale);
    for months in [2usize, 12] {
        let r: Vec<usize> = (0..months).collect();
        report.push_table(s_vs_l_panel(netflix.dataset(), &r, &ks, runs));
    }
    let stocks = datasets::stocks(scale);
    for attribute in [StockAttribute::High, StockAttribute::Volume] {
        let view = stocks.dispersed(attribute);
        for days in [2usize, 23] {
            let r: Vec<usize> = (0..days).collect();
            report.push_table(s_vs_l_panel(&view, &r, &ks, runs));
        }
    }
    report
}
