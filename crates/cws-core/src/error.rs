//! Error type for the coordinated weighted sampling library.

use std::fmt;

/// Result alias using [`CwsError`].
pub type Result<T> = std::result::Result<T, CwsError>;

/// Errors produced by the sampling and estimation routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CwsError {
    /// The requested estimator does not exist for this configuration.
    ///
    /// The canonical example from the paper: there is no nonnegative unbiased
    /// estimator for `max` or `L1` over *independent* sketches when seeds are
    /// unknown (Section 9.2, footnote 3).
    UnsupportedEstimator {
        /// The estimator that was requested.
        estimator: &'static str,
        /// Why the configuration cannot support it.
        reason: &'static str,
    },
    /// An assignment index was out of range for the data set or summary.
    AssignmentOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of assignments available.
        available: usize,
    },
    /// A set of relevant assignments `R` was empty.
    EmptyAssignmentSet,
    /// A parameter had an invalid value (negative weight, zero sample size…).
    InvalidParameter {
        /// Name of the parameter.
        name: &'static str,
        /// Human-readable description of the violation.
        message: String,
    },
    /// The independent-differences construction requires EXP ranks.
    IndependentDifferencesRequiresExp,
    /// ℓ (top-ℓ dependence order) was outside `1..=|R|`.
    InvalidDependenceOrder {
        /// The requested ℓ.
        ell: usize,
        /// The size of the relevant assignment set.
        relevant: usize,
    },
    /// A sharded-ingestion worker thread panicked; the partial summaries are
    /// unusable and the whole pass must be re-run.
    ShardWorkerPanicked {
        /// Index of the shard whose worker died.
        shard: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A sharded-ingestion worker failed to accept a batch or return a
    /// buffer within the stall timeout. The worker may still be alive (a
    /// slow disk, scheduler starvation); the push that observed the stall
    /// did **not** ingest its records and can be retried, escalated to
    /// [`ShardedDispersedSampler::respawn`](https://docs.rs/cws-stream), or
    /// reported to the operator.
    ShardStalled {
        /// Index of the stalled shard.
        shard: usize,
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// A snapshot-store filesystem operation failed (create, write, fsync,
    /// rename, scan, remove). The store directory is never left in a state
    /// that `recover()` cannot repair: publishes are temp-file + fsync +
    /// rename, so a failure mid-publish leaves the previous epoch intact.
    Store {
        /// The operation that failed (`"create"`, `"write"`, `"rename"`…).
        op: &'static str,
        /// The path involved, rendered to text.
        path: String,
        /// The underlying error, rendered to text.
        message: String,
    },
    /// A serialized summary could not be decoded (or written): the input is
    /// truncated, corrupted, from an unknown format version, or an I/O
    /// operation failed. Every malformed input maps to one of the
    /// [`CodecErrorKind`] variants — decoding never panics and never yields a
    /// silently wrong summary.
    Codec {
        /// What exactly was malformed.
        kind: CodecErrorKind,
        /// Byte offset into the encoded stream where the problem was
        /// detected (0 for write-side failures).
        offset: u64,
    },
    /// Summaries offered for merging disagree on a configuration field
    /// (`k`, rank family, coordination mode, seed, layout, effective sample
    /// size or assignment count). Merging them would silently produce a
    /// wrong answer, so the mismatch is a typed error instead.
    IncompatibleSummaries {
        /// The configuration field that disagrees.
        field: &'static str,
        /// Human-readable description of the two values.
        details: String,
    },
    /// An operation would have pushed a tracked resource past its
    /// [`ResourceBudget`](crate::budget::ResourceBudget) cap. The operation
    /// did **not** partially apply: the state it guards is exactly what it
    /// was before the call, so the caller can flush/finalize to reclaim the
    /// resource and retry, or drop the work.
    BudgetExceeded {
        /// Which resource ran out (`"bytes"` or `"keys"`).
        resource: &'static str,
        /// How much was in use before the rejected operation.
        used: u64,
        /// How much the rejected operation additionally needed.
        requested: u64,
        /// The configured cap.
        limit: u64,
    },
    /// A wall-clock deadline expired before the operation completed. The
    /// deadline is checked at chunk boundaries, so the guarded state is
    /// consistent (nothing half-applied) and the same call can be retried
    /// with a fresh deadline.
    DeadlineExceeded {
        /// The operation that ran out of time (`"query"`, `"ingest"`…).
        op: &'static str,
        /// How long the operation was allowed to run, in milliseconds.
        budget_ms: u64,
    },
}

/// The precise way a serialized summary was malformed (the payload of
/// [`CwsError::Codec`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecErrorKind {
    /// The stream does not start with the `CWSM` magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The format version is not one this decoder understands.
    UnsupportedVersion {
        /// The version declared by the stream.
        found: u16,
    },
    /// A tag byte (layout, rank family, coordination mode, reserved pad) had
    /// a value outside its legal range.
    InvalidTag {
        /// Which tag field was malformed.
        field: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// The stream ended before a required field could be read.
    Truncated {
        /// Number of additional bytes the decoder needed.
        expected: u64,
    },
    /// A declared entry count exceeds what the header admits, so reading it
    /// would either allocate unboundedly or fabricate entries that cannot
    /// exist.
    LengthOverflow {
        /// The count declared by the stream.
        declared: u64,
        /// The largest count the header allows.
        limit: u64,
    },
    /// A checksum did not match: the covered bytes were altered after
    /// encoding.
    ChecksumMismatch {
        /// Which section's checksum failed (`"header"` or `"body"`).
        section: &'static str,
    },
    /// A structurally readable field carried a semantically impossible value
    /// (non-finite rank, non-positive weight, unsorted entries, …).
    Invalid {
        /// Description of the violated invariant.
        what: String,
    },
    /// The underlying reader or writer failed with a non-EOF I/O error.
    Io {
        /// The I/O error, rendered to text.
        message: String,
    },
}

impl fmt::Display for CodecErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecErrorKind::BadMagic { found } => {
                write!(f, "bad magic bytes {found:?} (expected `CWSM`)")
            }
            CodecErrorKind::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            CodecErrorKind::InvalidTag { field, value } => {
                write!(f, "invalid `{field}` tag byte {value:#04x}")
            }
            CodecErrorKind::Truncated { expected } => {
                write!(f, "truncated input: {expected} more byte(s) required")
            }
            CodecErrorKind::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds the limit {limit}")
            }
            CodecErrorKind::ChecksumMismatch { section } => {
                write!(f, "{section} checksum mismatch")
            }
            CodecErrorKind::Invalid { what } => write!(f, "invalid content: {what}"),
            CodecErrorKind::Io { message } => write!(f, "i/o failure: {message}"),
        }
    }
}

impl fmt::Display for CwsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CwsError::UnsupportedEstimator { estimator, reason } => {
                write!(f, "estimator `{estimator}` is not supported: {reason}")
            }
            CwsError::AssignmentOutOfRange { index, available } => {
                write!(f, "assignment index {index} out of range (only {available} assignments)")
            }
            CwsError::EmptyAssignmentSet => {
                write!(f, "the set of relevant assignments must not be empty")
            }
            CwsError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            CwsError::IndependentDifferencesRequiresExp => {
                write!(f, "independent-differences consistent ranks are only defined for EXP ranks")
            }
            CwsError::InvalidDependenceOrder { ell, relevant } => {
                write!(f, "dependence order ell={ell} must lie in 1..={relevant}")
            }
            CwsError::ShardWorkerPanicked { shard, message } => {
                write!(f, "shard {shard} worker thread panicked: {message}")
            }
            CwsError::ShardStalled { shard, timeout_ms } => {
                write!(f, "shard {shard} did not accept traffic within {timeout_ms} ms (stalled)")
            }
            CwsError::Store { op, path, message } => {
                write!(f, "snapshot store `{op}` failed on `{path}`: {message}")
            }
            CwsError::Codec { kind, offset } => {
                write!(f, "summary codec error at byte {offset}: {kind}")
            }
            CwsError::IncompatibleSummaries { field, details } => {
                write!(f, "summaries cannot be merged: `{field}` differs ({details})")
            }
            CwsError::BudgetExceeded { resource, used, requested, limit } => {
                write!(
                    f,
                    "{resource} budget exceeded: {used} in use + {requested} requested > \
                     limit {limit}"
                )
            }
            CwsError::DeadlineExceeded { op, budget_ms } => {
                write!(f, "`{op}` deadline exceeded after {budget_ms} ms")
            }
        }
    }
}

impl std::error::Error for CwsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CwsError::AssignmentOutOfRange { index: 5, available: 3 };
        assert!(e.to_string().contains('5'));
        assert!(e.to_string().contains('3'));

        let e = CwsError::UnsupportedEstimator { estimator: "max", reason: "independent sketches" };
        assert!(e.to_string().contains("max"));

        let e = CwsError::InvalidParameter { name: "k", message: "must be positive".into() };
        assert!(e.to_string().contains('k'));

        let e = CwsError::InvalidDependenceOrder { ell: 4, relevant: 2 };
        assert!(e.to_string().contains('4'));

        let e = CwsError::ShardWorkerPanicked { shard: 3, message: "boom".into() };
        assert!(e.to_string().contains("shard 3"));
        assert!(e.to_string().contains("boom"));

        let e = CwsError::ShardStalled { shard: 2, timeout_ms: 250 };
        assert!(e.to_string().contains("shard 2"));
        assert!(e.to_string().contains("250"));

        let e = CwsError::Store { op: "rename", path: "/tmp/x".into(), message: "denied".into() };
        assert!(e.to_string().contains("rename"));
        assert!(e.to_string().contains("/tmp/x"));
        assert!(e.to_string().contains("denied"));

        let e = CwsError::Codec { kind: CodecErrorKind::Truncated { expected: 8 }, offset: 17 };
        assert!(e.to_string().contains("byte 17"));
        assert!(e.to_string().contains("8 more"));

        let e = CwsError::IncompatibleSummaries { field: "seed", details: "1 vs 2".into() };
        assert!(e.to_string().contains("seed"));
        assert!(e.to_string().contains("1 vs 2"));

        let e = CwsError::BudgetExceeded { resource: "bytes", used: 96, requested: 32, limit: 100 };
        assert!(e.to_string().contains("bytes"));
        assert!(e.to_string().contains("96"));
        assert!(e.to_string().contains("32"));
        assert!(e.to_string().contains("100"));

        let e = CwsError::DeadlineExceeded { op: "query", budget_ms: 250 };
        assert!(e.to_string().contains("query"));
        assert!(e.to_string().contains("250"));
    }

    #[test]
    fn codec_kind_display_names_the_problem() {
        for (kind, needle) in [
            (CodecErrorKind::BadMagic { found: *b"NOPE" }, "magic"),
            (CodecErrorKind::UnsupportedVersion { found: 9 }, "version 9"),
            (CodecErrorKind::InvalidTag { field: "layout", value: 7 }, "layout"),
            (CodecErrorKind::LengthOverflow { declared: 10, limit: 4 }, "exceeds"),
            (CodecErrorKind::ChecksumMismatch { section: "body" }, "body checksum"),
            (CodecErrorKind::Invalid { what: "negative weight".into() }, "negative weight"),
            (CodecErrorKind::Io { message: "pipe".into() }, "pipe"),
        ] {
            assert!(kind.to_string().contains(needle), "{kind}");
        }
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_: &E) {}
        assert_err(&CwsError::EmptyAssignmentSet);
    }
}
