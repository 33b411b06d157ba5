//! Synthetic daily stock quotes (the October-2008 stock data stand-in).
//!
//! Keys are ticker symbols. The colocated view uses the six numeric
//! attributes of one trading day (open, high, low, close, adjusted close,
//! volume); the dispersed view uses one assignment per trading day for a
//! chosen attribute. Prices are extremely correlated across days and
//! attributes (virtually every ticker has a positive price every day), while
//! volumes are heavy-tailed and noisy — the contrast the paper's stock
//! panels are built on.

use cws_core::weights::MultiWeighted;
use cws_hash::{KeyHasher, RandomSource};

use crate::dataset::LabeledDataset;
use crate::distributions::{lognormal, pareto, rng_for, standard_normal};

/// Configuration of the synthetic stock data.
#[derive(Debug, Clone, PartialEq)]
pub struct StocksConfig {
    /// Number of ticker symbols.
    pub num_tickers: usize,
    /// Number of trading days.
    pub num_days: usize,
    /// Daily return volatility (standard deviation of log returns).
    pub volatility: f64,
    /// Probability that a ticker does not trade on a given day (zero
    /// volume).
    pub no_trade_probability: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for StocksConfig {
    fn default() -> Self {
        Self {
            num_tickers: 6_000,
            num_days: 23,
            volatility: 0.04,
            no_trade_probability: 0.05,
            seed: 0x0057_0c05,
        }
    }
}

/// Which numeric attribute to use for the dispersed (per-day) view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StockAttribute {
    /// The daily high price.
    High,
    /// The daily traded volume.
    Volume,
}

impl StockAttribute {
    /// Label used in tables and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            StockAttribute::High => "high",
            StockAttribute::Volume => "volume",
        }
    }
}

/// Per-ticker, per-day quotes.
#[derive(Debug, Clone, PartialEq)]
struct TickerSeries {
    key: u64,
    /// Per day: (open, high, low, close, adjusted close, volume).
    days: Vec<[f64; 6]>,
}

/// Generated stock data.
#[derive(Debug, Clone, PartialEq)]
pub struct StocksData {
    config: StocksConfig,
    tickers: Vec<TickerSeries>,
}

/// The six colocated attribute labels, in assignment order.
pub const STOCK_ATTRIBUTES: [&str; 6] = ["open", "high", "low", "close", "adj_close", "volume"];

impl StocksData {
    /// Generates the data set.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    #[must_use]
    pub fn generate(config: &StocksConfig) -> Self {
        assert!(config.num_tickers > 0 && config.num_days > 0, "need tickers and days");
        assert!((0.0..1.0).contains(&config.no_trade_probability), "probability in [0, 1)");
        let hasher = KeyHasher::new(config.seed ^ 0x7e11);
        let mut rng = rng_for(config.seed, 3);
        let mut tickers = Vec::with_capacity(config.num_tickers);
        for ticker in 0..config.num_tickers {
            let key = hasher.hash_u64(ticker as u64);
            // Initial price ~ log-normal around $20; base volume heavy-tailed.
            let mut price = lognormal(&mut rng, 3.0, 1.0).max(0.2);
            let base_volume = pareto(&mut rng, 1.0e4, 1.1).min(5.0e9);
            let dividend_factor = 1.0 - 0.05 * rng.next_unit();
            let mut days = Vec::with_capacity(config.num_days);
            for _day in 0..config.num_days {
                let ret = config.volatility * standard_normal(&mut rng) - 0.002;
                let open = price;
                let close = (price * ret.exp()).max(0.05);
                let spread = 1.0 + 0.01 + 0.5 * config.volatility * rng.next_unit();
                let high = open.max(close) * spread;
                let low = (open.min(close) / spread).max(0.01);
                let adj_close = close * dividend_factor;
                let volume = if rng.next_unit() < config.no_trade_probability {
                    0.0
                } else {
                    (base_volume * lognormal(&mut rng, 0.0, 0.7) * (1.0 + 10.0 * ret.abs())).round()
                };
                days.push([open, high, low, close, adj_close, volume]);
                price = close;
            }
            tickers.push(TickerSeries { key, days });
        }
        Self { config: config.clone(), tickers }
    }

    /// The configuration used to generate the data.
    #[must_use]
    pub fn config(&self) -> &StocksConfig {
        &self.config
    }

    /// The colocated view of one trading day: six weight assignments
    /// (open, high, low, close, adjusted close, volume).
    ///
    /// # Panics
    /// Panics if `day` is out of range.
    #[must_use]
    pub fn colocated_day(&self, day: usize) -> LabeledDataset {
        assert!(day < self.config.num_days, "day out of range");
        let mut builder = MultiWeighted::builder(6);
        for ticker in &self.tickers {
            builder.add_vector(ticker.key, &ticker.days[day]);
        }
        LabeledDataset::new(
            format!("stocks/day{}", day + 1),
            builder.build(),
            STOCK_ATTRIBUTES.iter().map(|s| (*s).to_string()).collect(),
        )
    }

    /// The dispersed view: one weight assignment per trading day, weights
    /// given by `attribute`.
    #[must_use]
    pub fn dispersed(&self, attribute: StockAttribute) -> LabeledDataset {
        let column = match attribute {
            StockAttribute::High => 1,
            StockAttribute::Volume => 5,
        };
        let mut builder = MultiWeighted::builder(self.config.num_days);
        for ticker in &self.tickers {
            for (day, values) in ticker.days.iter().enumerate() {
                builder.add(ticker.key, day, values[column]);
            }
        }
        let labels = (1..=self.config.num_days).map(|d| format!("day{d:02}")).collect();
        LabeledDataset::new(format!("stocks/{}", attribute.label()), builder.build(), labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::aggregates::weighted_jaccard;

    fn small_config() -> StocksConfig {
        StocksConfig {
            num_tickers: 800,
            num_days: 23,
            volatility: 0.04,
            no_trade_probability: 0.05,
            seed: 9,
        }
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let a = StocksData::generate(&small_config());
        let b = StocksData::generate(&small_config());
        assert_eq!(a, b);
        assert_eq!(a.tickers.len(), 800);
        let day = a.colocated_day(0);
        assert_eq!(day.num_assignments(), 6);
        assert_eq!(day.num_keys(), 800);
        assert_eq!(day.label(5), "volume");
    }

    #[test]
    fn price_relations_hold() {
        let data = StocksData::generate(&small_config());
        for day in [0, 10, 22] {
            let view = data.colocated_day(day);
            for (_, w) in view.data.iter() {
                let (open, high, low, close) = (w[0], w[1], w[2], w[3]);
                assert!(high >= open - 1e-9 && high >= close - 1e-9, "high >= open/close");
                assert!(low <= open + 1e-9 && low <= close + 1e-9, "low <= open/close");
                assert!(low > 0.0);
                assert!(w[4] > 0.0, "adjusted close positive");
                assert!(w[5] >= 0.0, "volume non-negative");
            }
        }
    }

    #[test]
    fn prices_are_more_correlated_across_days_than_volumes() {
        let data = StocksData::generate(&small_config());
        let highs = data.dispersed(StockAttribute::High);
        let volumes = data.dispersed(StockAttribute::Volume);
        let high_sim = weighted_jaccard(&highs.data, 0, 22, |_| true);
        let volume_sim = weighted_jaccard(&volumes.data, 0, 22, |_| true);
        assert!(
            high_sim > volume_sim,
            "prices (sim {high_sim}) should be more stable than volumes (sim {volume_sim})"
        );
        assert!(high_sim > 0.6, "price similarity {high_sim}");
    }

    #[test]
    fn volumes_are_heavy_tailed() {
        let data = StocksData::generate(&small_config());
        let view = data.dispersed(StockAttribute::Volume);
        let mut day0: Vec<f64> = view.data.iter().map(|(_, w)| w[0]).collect();
        day0.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = day0.iter().sum();
        let top_share: f64 = day0[..day0.len() / 20].iter().sum::<f64>() / total;
        assert!(top_share > 0.4, "top 5% of tickers trade {top_share} of the volume");
    }

    #[test]
    fn dispersed_views_have_one_assignment_per_day() {
        let data = StocksData::generate(&small_config());
        let view = data.dispersed(StockAttribute::High);
        assert_eq!(view.num_assignments(), 23);
        assert_eq!(view.label(0), "day01");
        for day in 0..23 {
            assert!(view.data.assignment_total(day) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn day_out_of_range_panics() {
        let data = StocksData::generate(&small_config());
        let _ = data.colocated_day(23);
    }
}
