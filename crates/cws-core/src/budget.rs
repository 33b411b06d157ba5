//! Resource governance: byte/key budgets and wall-clock deadlines.
//!
//! A long-lived sampling service dies two ways the fault framework in
//! [`fault`](crate::fault) does not cover: it is *fed too much* (an
//! aggregation table or channel backlog grows without bound until the
//! process is OOM-killed) or it is *asked too much* (a slow multi-query
//! pass holds a caller hostage). This module provides the governance
//! vocabulary the engine threads through its hot paths:
//!
//! * [`ResourceBudget`] — a declarative cap on tracked bytes, distinct
//!   keys, and wall-clock time. Budgets are configuration; arming one
//!   produces a [`BudgetGuard`].
//! * [`BudgetGuard`] — the armed form, threaded as `&BudgetGuard` through
//!   ingest paths. Usage accounting uses interior mutability (`Cell`) so
//!   one guard can be consulted from several call sites without threading
//!   `&mut` everywhere; guards are cheap and single-threaded by design.
//!   Byte/key checks are exact and deterministic; only the deadline
//!   consults the wall clock.
//! * [`Deadline`] — a single armed wall-clock deadline, checked at chunk
//!   boundaries so a timed-out operation returns a typed
//!   [`CwsError::DeadlineExceeded`] with nothing half-applied.
//! * [`QuarantinedRecords`] — the typed report for record-granular
//!   poison-record quarantine (dead-letter rings divert invalid records
//!   while the rest of a batch ingests).
//!
//! Everything here is allocation-free on the hot path and costs nothing
//! unless constructed; an unlimited guard reduces every check to one or
//! two predictable branches.

use std::cell::Cell;
use std::time::{Duration, Instant};

use crate::error::{CwsError, Result};

/// A declarative resource cap: tracked bytes, distinct keys, wall-clock
/// time. All three limits are optional; the default budget is unlimited.
///
/// A budget is plain configuration — cheap to clone, compare and store in
/// builders. Arming it with [`ResourceBudget::guard`] starts the deadline
/// clock and produces the [`BudgetGuard`] the hot paths consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceBudget {
    max_bytes: Option<u64>,
    max_keys: Option<u64>,
    deadline: Option<Duration>,
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

    /// Sets a wall-clock budget, armed when the guard is created.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
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

    /// The wall-clock budget, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// `true` when no limit is set (the guard will never reject).
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes.is_none() && self.max_keys.is_none() && self.deadline.is_none()
    }

    /// Arms the budget: usage counters at zero, deadline clock started.
    #[must_use]
    pub fn guard(&self) -> BudgetGuard {
        BudgetGuard {
            max_bytes: self.max_bytes,
            max_keys: self.max_keys,
            deadline: self.deadline.map(Deadline::after),
            used_bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
            used_keys: Cell::new(0),
        }
    }
}

/// An armed [`ResourceBudget`]: the object threaded as `&BudgetGuard`
/// through ingest hot paths.
///
/// Accounting is *charge-to* style: a governed stage recomputes its exact
/// tracked usage at a batch boundary and calls
/// [`try_charge_bytes_to`](BudgetGuard::try_charge_bytes_to) /
/// [`try_charge_keys_to`](BudgetGuard::try_charge_keys_to) with the total
/// it is about to hold. Charging to a *smaller* total releases (after a
/// flush); the high-water mark survives in
/// [`peak_bytes`](BudgetGuard::peak_bytes) so operators and benchmarks see
/// real memory pressure, not just the post-flush level.
#[derive(Debug, Clone)]
pub struct BudgetGuard {
    max_bytes: Option<u64>,
    max_keys: Option<u64>,
    deadline: Option<Deadline>,
    used_bytes: Cell<u64>,
    peak_bytes: Cell<u64>,
    used_keys: Cell<u64>,
}

impl BudgetGuard {
    /// A guard that never rejects (the identity element for threading).
    #[must_use]
    pub fn unlimited() -> Self {
        ResourceBudget::unlimited().guard()
    }

    /// Charges the byte counter to an absolute `total`, rejecting with
    /// [`CwsError::BudgetExceeded`] — and leaving the counter unchanged —
    /// when `total` exceeds the cap. Charging below the current level
    /// releases bytes; the peak is retained.
    ///
    /// # Errors
    /// [`CwsError::BudgetExceeded`] with `resource: "bytes"` when `total`
    /// exceeds the configured cap.
    #[inline]
    pub fn try_charge_bytes_to(&self, total: u64) -> Result<()> {
        if let Some(limit) = self.max_bytes {
            if total > limit {
                let used = self.used_bytes.get();
                return Err(CwsError::BudgetExceeded {
                    resource: "bytes",
                    used,
                    requested: total.saturating_sub(used),
                    limit,
                });
            }
        }
        self.used_bytes.set(total);
        if total > self.peak_bytes.get() {
            self.peak_bytes.set(total);
        }
        Ok(())
    }

    /// Charges the distinct-key counter to an absolute `total`, rejecting
    /// with [`CwsError::BudgetExceeded`] when `total` exceeds the cap.
    ///
    /// # Errors
    /// [`CwsError::BudgetExceeded`] with `resource: "keys"` when `total`
    /// exceeds the configured cap.
    #[inline]
    pub fn try_charge_keys_to(&self, total: u64) -> Result<()> {
        if let Some(limit) = self.max_keys {
            if total > limit {
                let used = self.used_keys.get();
                return Err(CwsError::BudgetExceeded {
                    resource: "keys",
                    used,
                    requested: total.saturating_sub(used),
                    limit,
                });
            }
        }
        self.used_keys.set(total);
        Ok(())
    }

    /// Checks the armed deadline (a no-op when none is set).
    ///
    /// # Errors
    /// [`CwsError::DeadlineExceeded`] naming `op` once the wall clock has
    /// passed the armed deadline.
    #[inline]
    pub fn check_deadline(&self, op: &'static str) -> Result<()> {
        match &self.deadline {
            Some(deadline) => deadline.check(op),
            None => Ok(()),
        }
    }

    /// The key cap, if any (governed stages may pre-size from it).
    #[must_use]
    pub fn max_keys(&self) -> Option<u64> {
        self.max_keys
    }

    /// The byte cap, if any.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Bytes currently charged.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes.get()
    }

    /// The high-water mark of charged bytes over the guard's lifetime.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.get()
    }

    /// Distinct keys currently charged.
    #[must_use]
    pub fn used_keys(&self) -> u64 {
        self.used_keys.get()
    }
}

/// One armed wall-clock deadline, checked at chunk boundaries.
///
/// Copyable and allocation-free; `check` is one `Instant::now()` call, so
/// checking every few thousand records costs nothing measurable while
/// bounding how far past its budget an operation can run.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    expires: Instant,
    budget_ms: u64,
}

impl Deadline {
    /// Arms a deadline `budget` from now.
    #[must_use]
    pub fn after(budget: Duration) -> Self {
        Self {
            expires: Instant::now() + budget,
            budget_ms: budget.as_millis().min(u128::from(u64::MAX)) as u64,
        }
    }

    /// `true` once the wall clock has passed the deadline.
    #[must_use]
    pub fn expired(&self) -> bool {
        Instant::now() >= self.expires
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
    fn unlimited_guard_never_rejects() {
        let guard = BudgetGuard::unlimited();
        guard.try_charge_bytes_to(u64::MAX).unwrap();
        guard.try_charge_keys_to(u64::MAX).unwrap();
        guard.check_deadline("test").unwrap();
        assert_eq!(guard.peak_bytes(), u64::MAX);
    }

    #[test]
    fn byte_cap_rejects_without_mutating_and_peak_survives_release() {
        let guard = ResourceBudget::unlimited().with_max_bytes(100).guard();
        guard.try_charge_bytes_to(96).unwrap();
        let err = guard.try_charge_bytes_to(128).unwrap_err();
        match err {
            CwsError::BudgetExceeded { resource: "bytes", used: 96, requested: 32, limit: 100 } => {
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(guard.used_bytes(), 96, "a rejected charge must not apply");
        // Charging below the current level releases; the peak survives.
        guard.try_charge_bytes_to(10).unwrap();
        assert_eq!(guard.used_bytes(), 10);
        assert_eq!(guard.peak_bytes(), 96);
    }

    #[test]
    fn key_cap_rejects_at_the_boundary() {
        let guard = ResourceBudget::unlimited().with_max_keys(3).guard();
        guard.try_charge_keys_to(3).unwrap();
        let err = guard.try_charge_keys_to(4).unwrap_err();
        assert!(matches!(err, CwsError::BudgetExceeded { resource: "keys", limit: 3, .. }));
        assert_eq!(guard.used_keys(), 3);
    }

    #[test]
    fn expired_deadline_is_a_typed_error() {
        let deadline = Deadline::after(Duration::ZERO);
        let err = deadline.check("query").unwrap_err();
        assert!(matches!(err, CwsError::DeadlineExceeded { op: "query", .. }));
        let generous = Deadline::after(Duration::from_secs(3600));
        generous.check("query").unwrap();

        let guard = ResourceBudget::unlimited().with_deadline(Duration::ZERO).guard();
        assert!(guard.check_deadline("ingest").is_err());
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
