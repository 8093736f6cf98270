//! Criterion benchmark crate.
//!
//! The benches live in `benches/`:
//!
//! * `figures` — one benchmark per paper table/figure, running the
//!   corresponding [`harness::experiments`] regenerator at
//!   [`harness::RunScale::Bench`] scale and printing the same rows the
//!   `repro` binary prints at larger scales,
//! * `simulator` — micro-benchmarks of the simulator substrate (isolated
//!   kernel runs, SMK co-runs, preemption churn),
//! * `fastforward` — naive vs. idle fast-forward stepping (DESIGN.md §3.1)
//!   over latency-bound, bandwidth-saturated, managed and compute-bound
//!   scenarios, asserting bit-identical results and writing the timings to
//!   `BENCH_fastforward.json` (CI uploads it; the repo root holds the
//!   blessed baseline).
//!
//! `simulator` also carries a `trace_replay` group timing the FGTR codec
//! round trip and a replayed-trace kernel run against its synthetic twin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Re-exported so the benches share one definition of the bench scale.
pub use harness::RunScale;

/// The scale every figure bench runs at.
pub const BENCH_SCALE: RunScale = RunScale::Bench;
