//! # workloads — Parboil-like synthetic kernel models
//!
//! The paper evaluates on ten Parboil benchmarks (`bfs` excluded as too
//! short). We cannot execute CUDA binaries, so each benchmark is replaced by
//! a synthetic [`gpu_sim::KernelDesc`] calibrated to the published
//! characteristics that the evaluation actually exploits:
//!
//! * **compute vs memory intensity** (the C/M classes of Fig. 7),
//! * **occupancy limits** (registers / shared memory / threads per TB),
//! * **instruction mix** (ALU / SFU / memory / barrier),
//! * **memory access locality** (streaming, tiled, random, stencil),
//! * **kernel length** (`histo` is deliberately short-running, the property
//!   behind its poor QoS behaviour in the paper).
//!
//! See `DESIGN.md` §4 for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use workloads::parboil;
//!
//! let kernels = parboil::all();
//! assert_eq!(kernels.len(), 10);
//! let sgemm = parboil::by_name("sgemm").expect("sgemm is a Parboil benchmark");
//! assert!(!sgemm.memory_intensive());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod arrival;
pub mod parboil;
pub mod synth;

pub use parboil::{all, by_name, NAMES};
