//! Synthetic workload generators standing in for the paper's data sets.
//!
//! The evaluation of the paper uses proprietary IP packet traces, the Netflix
//! Prize ratings and a stock-quotes feed. None of those can be redistributed,
//! so this crate generates synthetic data with the *same structural
//! properties* that drive the estimators' behaviour — heavy-tailed (Zipf /
//! Pareto) per-key weights, configurable correlation between weight
//! assignments, and configurable churn (keys appearing in some assignments
//! and not in others):
//!
//! * [`ip`] — packet/flow traces aggregated by destination IP or 4-tuple,
//!   with byte / packet / flow-count / uniform weight assignments and
//!   multiple time periods ("IP dataset1" and "IP dataset2" stand-ins).
//! * [`ratings`] — monthly movie-rating counts (the Netflix stand-in): many
//!   assignments, most keys present in all of them.
//! * [`stocks`] — daily prices and volumes for a few thousand tickers: the
//!   price attributes are very strongly correlated across days, the volumes
//!   are heavy-tailed and noisy, matching the contrast the paper highlights.
//! * [`synthetic`] — generic Zipf-correlated multi-assignment generators used
//!   by micro-benchmarks, property tests and the quickstart example.
//!
//! All generators are deterministic functions of their configuration
//! (including the seed), so experiments are exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod distributions;
pub mod ip;
pub mod ratings;
pub mod stocks;
pub mod synthetic;

pub use dataset::LabeledDataset;

/// Commonly used items.
pub mod prelude {
    pub use crate::dataset::LabeledDataset;
    pub use crate::ip::{IpAttribute, IpKey, IpTrace, IpTraceConfig};
    pub use crate::ratings::{RatingsConfig, RatingsData};
    pub use crate::stocks::{StockAttribute, StocksConfig, StocksData};
    pub use crate::synthetic::{correlated_zipf, element_stream, Element};
}
