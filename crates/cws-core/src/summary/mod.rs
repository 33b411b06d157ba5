//! Multi-assignment summaries: one embedded bottom-k sketch per assignment.
//!
//! * [`DispersedSummary`] — the dispersed-weights format (Section 7): each
//!   assignment is summarized independently; a key included in the sketch of
//!   assignment `b` carries only its weight under `b`.
//! * [`ColocatedSummary`] — the colocated format (Section 6): the summary
//!   stores, for every key included in *any* embedded sketch, the full weight
//!   vector, enabling the *inclusive* estimators.
//!
//! Both are parameterized by a [`SummaryConfig`]: the per-assignment sample
//! size `k`, the rank family, the coordination mode and the master hash seed
//! shared by all processing sites.

mod colocated;
mod dispersed;

pub use colocated::{ColocatedRecord, ColocatedSummary};
pub(crate) use dispersed::is_sampled;
pub use dispersed::DispersedSummary;

use crate::coordination::{CoordinationMode, RankGenerator};
use crate::error::{CwsError, Result};
use crate::ranks::RankFamily;

/// Configuration shared by summary builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryConfig {
    /// Per-assignment sample size `k` (bottom-k).
    pub k: usize,
    /// Rank distribution family.
    pub family: RankFamily,
    /// Coordination mode across assignments.
    pub mode: CoordinationMode,
    /// Master seed of the shared hash function.
    pub seed: u64,
}

impl SummaryConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    /// Panics if `k == 0` or if the independent-differences mode is combined
    /// with IPPS ranks (that construction is EXP-specific). Use
    /// [`SummaryConfig::try_new`] for a non-panicking variant.
    #[must_use]
    pub fn new(k: usize, family: RankFamily, mode: CoordinationMode, seed: u64) -> Self {
        Self::try_new(k, family, mode, seed).expect("invalid summary configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    /// Returns an error if `k == 0` or the rank family does not support the
    /// coordination mode.
    pub fn try_new(
        k: usize,
        family: RankFamily,
        mode: CoordinationMode,
        seed: u64,
    ) -> Result<Self> {
        if k == 0 {
            return Err(crate::error::CwsError::InvalidParameter {
                name: "k",
                message: "sample size must be positive".to_string(),
            });
        }
        // Validate the (family, mode) combination eagerly.
        let _ = RankGenerator::new(family, mode, seed)?;
        Ok(Self { k, family, mode, seed })
    }

    /// The rank generator implied by this configuration.
    #[must_use]
    pub fn generator(&self) -> RankGenerator {
        RankGenerator::new(self.family, self.mode, self.seed)
            .expect("configuration was validated at construction")
    }

    /// A copy of this configuration with a different master seed; the
    /// evaluation harness uses this for Monte-Carlo repetitions.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> Self {
        Self { seed, ..*self }
    }

    /// Checks that summaries built under `self` and `other` can be combined
    /// (merged, or paired sketch by sketch), comparing field by field so a
    /// mismatch names exactly what disagrees instead of silently combining
    /// incomparable samples.
    ///
    /// # Errors
    /// Returns [`CwsError::IncompatibleSummaries`] naming the first field
    /// that differs: `k`, rank family, coordination, or seed.
    pub fn ensure_compatible(&self, other: &SummaryConfig) -> Result<()> {
        let mismatch = |field, details| Err(CwsError::IncompatibleSummaries { field, details });
        if self.k != other.k {
            return mismatch("k", format!("{} vs {}", self.k, other.k));
        }
        if self.family != other.family {
            return mismatch("rank family", format!("{:?} vs {:?}", self.family, other.family));
        }
        if self.mode != other.mode {
            return mismatch("coordination", format!("{:?} vs {:?}", self.mode, other.mode));
        }
        if self.seed != other.seed {
            return mismatch("seed", format!("{:#x} vs {:#x}", self.seed, other.seed));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(
            SummaryConfig::try_new(0, RankFamily::Ipps, CoordinationMode::SharedSeed, 1).is_err()
        );
        assert!(SummaryConfig::try_new(
            4,
            RankFamily::Ipps,
            CoordinationMode::IndependentDifferences,
            1
        )
        .is_err());
        let config =
            SummaryConfig::new(4, RankFamily::Exp, CoordinationMode::IndependentDifferences, 1);
        assert_eq!(config.k, 4);
    }

    #[test]
    #[should_panic(expected = "invalid summary configuration")]
    fn new_panics_on_invalid() {
        let _ = SummaryConfig::new(0, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
    }

    #[test]
    fn with_seed_and_k() {
        let config = SummaryConfig::new(4, RankFamily::Ipps, CoordinationMode::SharedSeed, 1);
        let other = config.with_seed(9);
        assert_eq!(other.seed, 9);
        assert_eq!(other.k, 4);
        assert_eq!(other.family, config.family);
        let gen = other.generator();
        assert_eq!(gen.family(), RankFamily::Ipps);
    }
}
