//! The legacy wall-clock benches. CI's `bench-smoke` job runs them for what
//! they assert (bit-identical results across stepping modes and repeated
//! runs) and uploads their timings; no wall-clock is gated (the 5% gate
//! went in PR 13: a runner's numbers do not compare with a baseline
//! committed from another machine).
//!
//! The benches live in `benches/` and time with `std::time` only:
//!
//! * `fastforward` — naive vs. idle fast-forward stepping (DESIGN.md §3.1)
//!   over latency-bound, bandwidth-saturated, managed and compute-bound
//!   scenarios, traced and with the telemetry stack armed, asserting
//!   bit-identical results and writing the timings to
//!   `BENCH_fastforward.json`,
//! * `fleet` — every fleet scenario run to completion twice (the reports
//!   must be byte-identical), timings and serving counters written to
//!   `BENCH_fleet.json`.
//!
//! The repo root holds one committed run of each. Both are superseded by
//! `fgqos-bench`, a package of its own under `src/bin/fgqos-bench/`: the
//! end-to-end and per-layer benchmark every speed claim is measured with,
//! as interleaved parent/change pairs.

#![forbid(unsafe_code)]
