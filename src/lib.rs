//! # fgqos — fine-grained QoS for multitasking GPUs
//!
//! A full-system reproduction of *"Quality of Service Support for
//! Fine-Grained Sharing on GPUs"* (ISCA 2017): a cycle-level GPU simulator
//! with SMK fine-grained sharing and partial-context-switch preemption
//! ([`sim`]), Parboil-like workload models ([`workloads`]), the paper's
//! quota-based QoS manager and its baselines ([`qos`]), and the experiment
//! harness that regenerates every table and figure ([`mod@bench`]).
//!
//! This crate is a facade: each component is its own crate under `crates/`
//! and is re-exported here so applications can depend on one name.
//!
//! # Quickstart
//!
//! ```
//! use fgqos::{Gpu, GpuConfig, QosManager, QosSpec, QuotaScheme};
//!
//! let mut gpu = Gpu::new(GpuConfig::paper_table1());
//! let latency_job = gpu.launch(fgqos::workloads::by_name("sgemm").unwrap());
//! let batch_job = gpu.launch(fgqos::workloads::by_name("lbm").unwrap());
//!
//! let mut manager = QosManager::new(QuotaScheme::Rollover)
//!     .with_kernel(latency_job, QosSpec::qos(800.0))
//!     .with_kernel(batch_job, QosSpec::best_effort());
//! gpu.run(50_000, &mut manager);
//!
//! let stats = gpu.stats();
//! assert!(stats.ipc(latency_job) > 0.0 && stats.ipc(batch_job) >= 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The cycle-level GPU simulator substrate (re-export of `gpu-sim`).
pub mod sim {
    pub use gpu_sim::*;
}

/// Parboil-like synthetic workload models (re-export of `workloads`).
pub mod workloads {
    pub use workloads::*;
}

/// The paper's QoS algorithms and baselines (re-export of `qos-core`).
pub mod qos {
    pub use qos_core::*;
}

/// The experiment harness regenerating the paper's evaluation
/// (re-export of `harness`).
pub mod bench {
    pub use harness::*;
}

pub use gpu_sim::{Controller, Gpu, GpuConfig, KernelDesc, KernelId, NullController, SmId};
pub use qos_core::{QosManager, QosSpec, QuotaScheme, SpartController};
