//! # harness — regenerating every table and figure of the paper
//!
//! The evaluation methodology of §4.1, reproduced end to end:
//!
//! * [`cases`] — enumerating the 90 kernel pairs and 60 trios, the QoS-goal
//!   sweeps, and the policies under comparison,
//! * [`scale`] — run scales (cycles per case, case subsampling): `Paper`
//!   matches the 2 M-cycle methodology; `Quick` and `Smoke` trade fidelity
//!   for wall-clock time,
//! * [`runner`] — isolated-IPC measurement (cached, with per-key in-flight
//!   dedup) and the one case runner: parallel, panic-isolated, chunked, and
//!   journaled when given a directory,
//! * [`error`] — typed per-case failures ([`error::CaseError`]) and the
//!   end-of-run failure digest,
//! * [`metrics`] — `QoSreach`, normalized throughput, miss-distance
//!   buckets, energy efficiency,
//! * [`experiments`] — the registry of every table, figure and ablation
//!   ([`experiments::EXPERIMENTS`]) and the [`experiments::Session`] that
//!   runs them and renders the end-of-run summary,
//! * [`report`] — plain-text table rendering for the `repro` binary,
//! * [`golden`] — the golden corpus under `tests/golden/`: three canonical
//!   scenarios' per-epoch telemetry, the ten Parboil models' metrics and the
//!   counter registry's order, each pinned byte for byte and checked by
//!   `repro golden` (regenerate with `repro golden --bless`),
//! * [`perfetto`] — Chrome-trace / Perfetto JSON export of a traced run
//!   (`repro trace <scenario> --out trace.json`), with a strict schema
//!   checker,
//! * [`checkpoint`] — the journal of a crash-resumable run: a manifest and
//!   one checksummed file per case (its mid-case machine snapshot, then its
//!   result), written by `repro --checkpoint-dir DIR <experiment>…`, rerun
//!   by `repro resume DIR`; failure snapshots for `repro inspect`,
//! * [`fleet_cli`] — `repro fleet <scenario>`: checkpointed, crash-resumable
//!   runs of the multi-GPU serving scenarios from the `fleet` crate, with
//!   per-tenant Perfetto export,
//! * [`telemetry`] — metrics export (`repro fleet … --metrics-out`):
//!   deterministic JSON + Prometheus text documents carrying the counter
//!   time series, per-tenant latency histograms, and SLO burn tracks; and
//!   the work-count profile (`repro profile <scenario>`: one GPU's
//!   deterministic run-loop counters; host wall time is sampled from
//!   outside by `scripts/sample-profile.sh`).
//!
//! # Example
//!
//! ```no_run
//! use harness::experiments::{Session, EXPERIMENTS};
//! use harness::scale::RunScale;
//!
//! // Regenerate every report `repro all` prints, at reduced scale, then the
//! // paper-vs-measured summary and the failure digest.
//! let session = Session::new(RunScale::Smoke);
//! for experiment in EXPERIMENTS.iter().filter(|e| e.in_all) {
//!     println!("{}", session.run(experiment));
//! }
//! println!("{}", session.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cases;
pub mod checkpoint;
pub mod error;
pub mod experiments;
pub mod fleet_cli;
pub mod golden;
pub mod metrics;
pub mod perfetto;
pub mod report;
pub mod runner;
pub mod scale;
pub mod telemetry;

pub use cases::{CaseSpec, ConfigKind, Policy};
pub use checkpoint::{CheckpointDir, CheckpointError, FailureSnapshot, Manifest};
pub use error::{failure_digest, CaseError, FailedCase};
pub use metrics::CaseResult;
pub use runner::{run_case, run_case_isolated, run_cases, IsolatedCache};
pub use scale::RunScale;
