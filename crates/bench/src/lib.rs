//! Wall-clock benches that CI's `bench-smoke` job runs and gates.
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
//! CI uploads both files; the repo root holds the blessed baselines. The
//! end-to-end and per-layer benchmark that speed claims are measured with
//! is `fgqos-bench`, a package of its own under `src/bin/fgqos-bench/`.

#![forbid(unsafe_code)]
