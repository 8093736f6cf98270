//! # qos-core — fine-grained QoS for multitasking GPUs
//!
//! The primary contribution of *"Quality of Service Support for Fine-Grained
//! Sharing on GPUs"* (ISCA 2017), implemented against the [`gpu_sim`]
//! simulator:
//!
//! * [`goals`] — translating application-level QoS goals (frame/data rates)
//!   into architectural IPC goals (§3.2),
//! * [`scheme`] — the four quota-allocation schemes: Naïve, History-adjusted,
//!   Elastic Epoch and Rollover (§3.4), plus the CPU-style Rollover-Time
//!   strawman (§4.5),
//! * [`nonqos`] — the artificial-performance-goal search that lets non-QoS
//!   kernels consume exactly the slack the QoS kernels leave (§3.5),
//! * [`static_alloc`] — symmetric initial thread-block allocation and
//!   run-time TB adjustment driven by idle-warp sampling (§3.6),
//! * [`manager`] — [`QosManager`], the epoch controller tying it together,
//! * [`spart`] — the coarse-grained baseline: spatial partitioning with
//!   hill climbing (Aguilera et al., the paper's `Spart`),
//! * [`fairness`] — the SMK-style fairness policy the paper's firmware can
//!   swap with QoS management (§3.3).
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig};
//! use qos_core::{QosManager, QosSpec, QuotaScheme};
//!
//! let mut gpu = Gpu::new(GpuConfig::paper_table1());
//! let qos = gpu.launch(workloads::by_name("sgemm").unwrap());
//! let batch = gpu.launch(workloads::by_name("lbm").unwrap());
//!
//! // The sgemm instance must retain 70% of its isolated IPC (say 1080.0);
//! // lbm is best-effort.
//! let mut mgr = QosManager::new(QuotaScheme::Rollover)
//!     .with_kernel(qos, QosSpec::qos(1080.0))
//!     .with_kernel(batch, QosSpec::best_effort());
//! gpu.run(50_000, &mut mgr);
//! assert!(gpu.stats().ipc(qos) > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fairness;
pub mod goals;
pub mod manager;
pub mod nonqos;
pub mod scheme;
pub mod spart;
pub mod static_alloc;
pub mod workset;

pub use fairness::FairnessController;
pub use goals::{GoalTranslation, QosSpec, SloTarget, TenantClass};
pub use manager::QosManager;
pub use scheme::QuotaScheme;
pub use spart::SpartController;
pub use workset::{kernel_footprint_bytes, WorkingSetTracker};
