//! # trace — the FGTR kernel-trace subsystem
//!
//! Scenario diversity beyond the synthetic Parboil models (ROADMAP item 3):
//! a compact, versioned binary format for kernel traces, capture from the
//! `gpu-sim` observe layer, and reconstruction into a
//! [`gpu_sim::KernelDesc`] so traced kernels drop into every existing
//! scenario, sweep, and fleet tenant unchanged.
//!
//! Three modules:
//!
//! * [`mod@format`] — the trace content: provenance metadata, the traced
//!   kernel's static shape, its per-warp instruction-mix/locality events,
//!   and the observed per-TB lifecycle records;
//! * [`frame`] — the `FGTR` file: the shared [`gpu_sim::snap::frame`]
//!   under this format's magic and schema version, plus a reader that
//!   validates what it decoded; failures are a typed [`TraceError`];
//! * [`mod@capture`] — recording a trace by running a kernel on a [`gpu_sim`]
//!   machine with the flight recorder on and pairing its TB dispatch/drain
//!   events. No CUDA anywhere: the synthetic models bootstrap the corpus.
//!
//! The round trip is exact by construction: replaying a captured trace
//! rebuilds the *identical* `KernelDesc`, and the simulator is
//! deterministic, so a replayed kernel reproduces the original run's epoch
//! records and counter registry bit-for-bit (`tests/trace_replay.rs`).
//!
//! # Example
//!
//! ```
//! use gpu_sim::{GpuConfig, KernelDesc, Op};
//!
//! let desc = KernelDesc::builder("saxpy")
//!     .threads_per_tb(128)
//!     .grid_tbs(16)
//!     .iterations(4)
//!     .body(vec![Op::alu(4, 8)])
//!     .build();
//! let kt = trace::capture(&desc, &GpuConfig::tiny(), 4_000).expect("capture");
//! let bytes = trace::to_bytes(&kt);
//! let back = trace::from_bytes(&bytes).expect("strict reader");
//! assert_eq!(back.kernel(), desc, "replay rebuilds the identical kernel");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod capture;
pub mod format;
pub mod frame;

pub use capture::{
    capture, CaptureError, CAPTURE_RING_CAPACITY, CAPTURE_SOURCE, DEFAULT_CAPTURE_CYCLES,
};
pub use format::{KernelTrace, TbRecord, TbShape, TraceMeta};
pub use frame::{
    from_bytes, load, peek_version, save_atomic, to_bytes, TraceError, TRACE_MAGIC,
    TRACE_SCHEMA_VERSION,
};
