//! Resource governance: byte/key caps and wall-clock deadlines.
//!
//! A long-lived sampling service dies two ways the fault framework in
//! [`fault`](crate::fault) does not cover: it is *fed too much* (an
//! aggregation table grows without bound until the process is OOM-killed)
//! or it is *asked too much* (a slow multi-query pass holds a caller
//! hostage). This module provides the governance vocabulary the engine
//! uses:
//!
//! * [`ResourceBudget`] — a declarative cap on tracked bytes and distinct
//!   keys. The stage a budget is installed in checks admission against
//!   what it holds itself, so the budget carries no usage counters.
//! * [`Deadline`] — a single armed wall-clock deadline, checked at chunk
//!   boundaries so a timed-out operation returns a typed
//!   [`CwsError::DeadlineExceeded`] with nothing half-applied.
//! * [`QuarantinedRecords`] — the typed report for record-granular
//!   poison-record quarantine (dead-letter rings divert invalid records
//!   while the rest of a batch ingests).
//!
//! Everything here is allocation-free and costs nothing unless
//! constructed.

use std::time::{Duration, Instant};

use crate::error::{CwsError, Result};

/// A declarative resource cap: tracked bytes and distinct keys. Both
/// limits are optional; the default budget is unlimited.
///
/// A budget is plain configuration — cheap to clone, compare and store in
/// builders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    max_bytes: Option<u64>,
    max_keys: Option<u64>,
}

impl ResourceBudget {
    /// A budget with no limits — every check passes.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps the tracked bytes (dense key/lane storage plus index).
    #[must_use]
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Caps the number of distinct keys held by governed stages.
    #[must_use]
    pub fn with_max_keys(mut self, keys: u64) -> Self {
        self.max_keys = Some(keys);
        self
    }

    /// The byte cap, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The key cap, if any.
    #[must_use]
    pub fn max_keys(&self) -> Option<u64> {
        self.max_keys
    }
}

/// One armed wall-clock deadline, checked at chunk boundaries.
///
/// Copyable and allocation-free; `check` is one `Instant::now()` call, so
/// checking every few thousand records costs nothing measurable while
/// bounding how far past its budget an operation can run.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// `None` when `now + budget` is past what an `Instant` can hold: such a
    /// deadline never expires.
    expires: Option<Instant>,
    budget_ms: u64,
}

impl Deadline {
    /// Arms a deadline `budget` from now. A budget too far out for the
    /// clock to represent (such as `Duration::MAX`) never expires.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Self {
            expires: Instant::now().checked_add(budget),
            budget_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
        }
    }

    /// `true` once the wall clock has passed the deadline.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.expires.is_some_and(|expires| Instant::now() >= expires)
    }

    /// Typed check: the chunk-boundary form of [`Deadline::expired`].
    ///
    /// # Errors
    /// [`CwsError::DeadlineExceeded`] naming `op` once expired.
    #[inline]
    pub fn check(&self, op: &'static str) -> Result<()> {
        if self.expired() {
            Err(CwsError::DeadlineExceeded { op, budget_ms: self.budget_ms })
        } else {
            Ok(())
        }
    }
}

/// The typed report of a record-granular quarantine pass: how many
/// records a dead-letter ring diverted, and the error that condemned the
/// first of them (the most useful single diagnostic — poison records in
/// one batch usually share a cause).
///
/// The contract this reports on: `quarantined count + ingested count ==
/// offered count`. Valid records are never lost to a poison neighbour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedRecords {
    /// Number of records diverted since the ring was last drained.
    pub count: u64,
    /// The typed error that condemned the first diverted record.
    pub first_error: CwsError,
}

impl std::fmt::Display for QuarantinedRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} record(s) quarantined; first cause: {}", self.count, self.first_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let deadline = Deadline::after(Duration::ZERO);
        let err = deadline.check("query").unwrap_err();
        assert!(matches!(err, CwsError::DeadlineExceeded { op: "query", .. }));
        let generous = Deadline::after(Duration::from_secs(3600));
        generous.check("query").unwrap();
    }

    #[test]
    fn quarantine_report_displays_count_and_cause() {
        let report = QuarantinedRecords {
            count: 3,
            first_error: CwsError::InvalidParameter {
                name: "weight",
                message: "must be finite".into(),
            },
        };
        let text = report.to_string();
        assert!(text.contains('3'), "{text}");
        assert!(text.contains("finite"), "{text}");
    }
}
