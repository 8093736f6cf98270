//! Typed case failures and the end-of-run failure digest.
//!
//! `run_case` returns `Result<CaseResult, CaseError>` so a sweep survives
//! individual cases that are misconfigured, wedge the simulator, or panic:
//! the failures are collected here and summarized in a digest instead of
//! aborting the whole `repro` run.

use std::fmt;

use gpu_sim::SimError;

use crate::cases::CaseSpec;

/// Why one case failed to produce a [`crate::CaseResult`].
#[derive(Debug, Clone, PartialEq)]
pub enum CaseError {
    /// The spec names a benchmark the workload table does not know.
    UnknownBenchmark {
        /// The unrecognized benchmark name.
        name: String,
    },
    /// The simulator's health layer reported a typed failure (watchdog
    /// trip with its health snapshot, or an audit violation).
    Sim(SimError),
    /// The case panicked — on the first attempt *and* on its one bounded
    /// retry — and was isolated by `catch_unwind`.
    Panicked {
        /// The panic payload of the final attempt, if it was a string.
        payload: String,
        /// Total attempts made before giving up (the policy allows two:
        /// the initial run plus one retry).
        attempts: u32,
    },
}

impl CaseError {
    /// Short machine-readable error kind for digests: one of
    /// `unknown-benchmark`, `watchdog`, `audit-violation`, `panic`.
    pub fn kind(&self) -> &'static str {
        match self {
            CaseError::UnknownBenchmark { .. } => "unknown-benchmark",
            CaseError::Sim(err) => err.kind(),
            CaseError::Panicked { .. } => "panic",
        }
    }
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaseError::UnknownBenchmark { name } => write!(f, "unknown benchmark {name:?}"),
            CaseError::Sim(err) => err.fmt(f),
            CaseError::Panicked { payload, attempts } => {
                write!(f, "panicked on all {attempts} attempt(s): {payload}")
            }
        }
    }
}

impl std::error::Error for CaseError {}

impl From<SimError> for CaseError {
    fn from(err: SimError) -> Self {
        CaseError::Sim(err)
    }
}

gpu_sim::impl_snap_enum!(CaseError {
    UnknownBenchmark { name } = 0,
    Sim(err) = 1,
    Panicked { payload, attempts } = 2,
});

/// One failed case of a sweep, recorded for the failure digest.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCase {
    /// Position of the case in its sweep.
    pub index: usize,
    /// The case that failed.
    pub spec: CaseSpec,
    /// Why it failed.
    pub error: CaseError,
}

/// Renders the end-of-run failure digest: one line per failed case (its
/// label, error kind, and message — including the watchdog's health
/// snapshot summary), or an all-clear line when nothing failed.
pub fn failure_digest(failures: &[FailedCase]) -> String {
    if failures.is_empty() {
        return "failure digest: all cases completed".to_string();
    }
    let mut out = format!("failure digest: {} case(s) failed\n", failures.len());
    for failure in failures {
        out.push_str(&format!(
            "  [{}] case {}: {} — {}\n",
            failure.error.kind(),
            failure.index,
            failure.spec.label(),
            failure.error
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::Policy;
    use qos_core::QuotaScheme;

    fn spec() -> CaseSpec {
        CaseSpec::new(
            &["sgemm", "lbm"],
            &[Some(0.5), None],
            Policy::Quota(QuotaScheme::Rollover),
            1_000,
        )
    }

    #[test]
    fn error_kinds_are_stable() {
        assert_eq!(CaseError::UnknownBenchmark { name: "x".into() }.kind(), "unknown-benchmark");
        assert_eq!(CaseError::Panicked { payload: "boom".into(), attempts: 2 }.kind(), "panic");
    }

    #[test]
    fn digest_reports_all_clear_when_empty() {
        assert!(failure_digest(&[]).contains("all cases completed"));
    }

    #[test]
    fn digest_names_case_and_kind() {
        let failures = vec![FailedCase {
            index: 3,
            spec: spec(),
            error: CaseError::Panicked { payload: "boom".into(), attempts: 2 },
        }];
        let digest = failure_digest(&failures);
        assert!(digest.contains("[panic]"), "{digest}");
        assert!(digest.contains("sgemm@0.50+lbm"), "{digest}");
        assert!(digest.contains("case 3"), "{digest}");
    }
}
