//! Synthetic monthly movie-rating counts (the Netflix Prize stand-in).
//!
//! Keys are movies; there is one weight assignment per month and the weight
//! of a movie in a month is its number of ratings that month. Compared with
//! the IP traces, almost every key is present in every assignment, the
//! number of assignments is larger (12 months), and popularity drifts slowly
//! — which is exactly the regime where the gap between coordinated and
//! independent sketches grows to tens of orders of magnitude in the paper's
//! Figure 3.

use cws_core::weights::MultiWeighted;
use cws_hash::RandomSource;

use crate::dataset::LabeledDataset;
use crate::distributions::{lognormal, rng_for, standard_normal, zipf_mandelbrot};

/// Configuration of the synthetic ratings data.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingsConfig {
    /// Number of movies (keys).
    pub num_movies: usize,
    /// Number of months (weight assignments).
    pub num_months: usize,
    /// Approximate total number of ratings per month.
    pub monthly_ratings: f64,
    /// Zipf exponent of movie popularity.
    pub popularity_exponent: f64,
    /// Standard deviation of the month-to-month popularity drift
    /// (log scale); small values mean strongly correlated months.
    pub drift: f64,
    /// Fraction of movies not yet released in month 0 (they appear at a
    /// uniformly random later month).
    pub late_arrivals: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for RatingsConfig {
    fn default() -> Self {
        Self {
            num_movies: 8_000,
            num_months: 12,
            monthly_ratings: 400_000.0,
            popularity_exponent: 1.05,
            drift: 0.25,
            late_arrivals: 0.05,
            seed: 0x4ef1_1a2b,
        }
    }
}

/// Generated ratings data.
#[derive(Debug, Clone, PartialEq)]
pub struct RatingsData {
    dataset: LabeledDataset,
}

impl RatingsData {
    /// Generates the data set.
    ///
    /// # Panics
    /// Panics on degenerate configurations.
    #[must_use]
    pub fn generate(config: &RatingsConfig) -> Self {
        assert!(config.num_movies > 0 && config.num_months > 0, "need movies and months");
        assert!(config.monthly_ratings > 0.0, "need a positive rating volume");
        assert!((0.0..1.0).contains(&config.late_arrivals), "late_arrivals must be in [0, 1)");

        let popularity = zipf_mandelbrot(config.num_movies, config.popularity_exponent, 5.0);
        let mut rng = rng_for(config.seed, 2);
        let mut builder = MultiWeighted::builder(config.num_months);
        for (movie, &p) in popularity.iter().enumerate() {
            let key = movie as u64;
            let release_month = if rng.next_unit() < config.late_arrivals {
                (rng.next_below(config.num_months as u64)) as usize
            } else {
                0
            };
            // Popularity follows a multiplicative random walk across months.
            let mut level = lognormal(&mut rng, 0.0, 0.3);
            for month in 0..config.num_months {
                if month < release_month {
                    builder.add(key, month, 0.0);
                    continue;
                }
                level *= (config.drift * standard_normal(&mut rng)).exp();
                let mean = p * config.monthly_ratings * level;
                let count = mean.round().max(if mean > 0.05 { 1.0 } else { 0.0 });
                builder.add(key, month, count);
            }
        }
        let labels = (1..=config.num_months).map(|m| format!("month{m:02}")).collect();
        Self { dataset: LabeledDataset::new("ratings", builder.build(), labels) }
    }

    /// The labeled data set (one assignment per month).
    #[must_use]
    pub fn dataset(&self) -> &LabeledDataset {
        &self.dataset
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cws_core::aggregates::weighted_jaccard;

    fn small_config() -> RatingsConfig {
        RatingsConfig {
            num_movies: 1_000,
            num_months: 12,
            monthly_ratings: 50_000.0,
            popularity_exponent: 1.05,
            drift: 0.25,
            late_arrivals: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn generation_is_deterministic_and_shaped() {
        let a = RatingsData::generate(&small_config());
        let b = RatingsData::generate(&small_config());
        assert_eq!(a, b);
        assert_eq!(a.dataset().num_assignments(), 12);
        assert_eq!(a.dataset().num_keys(), 1_000);
        assert_eq!(a.dataset().label(0), "month01");
    }

    #[test]
    fn monthly_totals_are_near_target() {
        let data = RatingsData::generate(&small_config());
        for month in 0..12 {
            let total = data.dataset.data.assignment_total(month);
            assert!(total > 10_000.0 && total < 250_000.0, "month {month}: total {total}");
        }
    }

    #[test]
    fn adjacent_months_are_more_similar_than_distant_months() {
        let data = RatingsData::generate(&small_config());
        let near = weighted_jaccard(&data.dataset.data, 0, 1, |_| true);
        let far = weighted_jaccard(&data.dataset.data, 0, 11, |_| true);
        assert!(near > far, "near {near} far {far}");
        assert!(near > 0.5, "adjacent months should be strongly correlated: {near}");
    }

    #[test]
    fn most_movies_are_rated_every_month() {
        let data = RatingsData::generate(&small_config());
        let always: usize =
            data.dataset.data.iter().filter(|(_, w)| w.iter().all(|&x| x > 0.0)).count();
        assert!(
            always as f64 > 0.5 * data.dataset().num_keys() as f64,
            "only {always} movies present in all months"
        );
    }

    #[test]
    fn ratings_are_non_negative_integers() {
        let data = RatingsData::generate(&small_config());
        for (_, weights) in data.dataset.data.iter() {
            for &w in weights {
                assert!(w >= 0.0);
                assert_eq!(w.fract(), 0.0);
            }
        }
    }

    #[test]
    fn late_arrivals_have_leading_zero_months() {
        let mut config = small_config();
        config.late_arrivals = 0.3;
        let data = RatingsData::generate(&config);
        let late = data
            .dataset
            .data
            .iter()
            .filter(|(_, w)| w[0] == 0.0 && w.iter().any(|&x| x > 0.0))
            .count();
        assert!(late > 0, "expected some movies released after month 0");
    }
}
