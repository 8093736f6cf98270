//! # gpu-sim — a cycle-level multitasking GPU simulator
//!
//! This crate is the substrate for reproducing *"Quality of Service Support
//! for Fine-Grained Sharing on GPUs"* (ISCA 2017). It models a GPU at the
//! warp-instruction level — the same abstraction the paper's QoS mechanisms
//! act upon:
//!
//! * streaming multiprocessors ([`sm::Sm`]) with per-SM register / shared
//!   memory / thread / thread-block occupancy limits,
//! * greedy-then-oldest warp schedulers (inside [`sm::Sm`]) with per-kernel
//!   instruction-quota gating (the paper's *Enhanced Warp Scheduler*),
//! * a two-level cache hierarchy with coalescing, crossbar and per-channel
//!   DRAM bandwidth queueing ([`cache`], [`memsys`], [`dram`]),
//! * a thread-block scheduler supporting exclusive, **SMK fine-grained** and
//!   **spatially partitioned** sharing ([`tb_sched`]),
//! * a partial-context-switch preemption engine ([`preempt`]),
//! * a GPUWattch-style event-energy power model ([`power`]),
//! * per-SM execution domains behind a typed interconnect boundary
//!   ([`icn`]), ticked then drained in SM-index order each cycle.
//!
//! Policy code (the QoS manager, the `Spart` hill-climbing baseline, …) lives
//! in the `qos-core` crate and drives the simulator through the
//! [`Controller`] trait, invoked once per epoch and at sampling points.
//!
//! # Example
//!
//! ```
//! use gpu_sim::{Gpu, GpuConfig, KernelDesc, Op, AccessPattern, NullController};
//!
//! let mut gpu = Gpu::new(GpuConfig::paper_table1());
//! let k = KernelDesc::builder("saxpy")
//!     .threads_per_tb(256)
//!     .regs_per_thread(32)
//!     .body(vec![
//!         Op::mem_load(AccessPattern::stream()),
//!         Op::alu(4, 8),
//!         Op::mem_store(AccessPattern::stream()),
//!     ])
//!     .iterations(64)
//!     .grid_tbs(512)
//!     .build();
//! let kid = gpu.launch(k);
//! gpu.run(10_000, &mut NullController);
//! assert!(gpu.stats().kernel(kid).thread_insts > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod gpu;
pub mod health;
pub mod icn;
pub mod kernel;
pub mod memsys;
pub mod observe;
pub mod power;
pub mod preempt;
pub mod rng;
pub mod sm;
pub mod snap;
pub mod stats;
pub mod tb;
pub mod tb_sched;
pub mod telemetry;
pub mod trace;
pub mod types;
pub mod warp;

pub use config::{GpuConfig, InvalidConfig, MemConfig, PowerConfig, SmConfig};
pub use gpu::{
    Controller, Gpu, NullController, SmQuotaView, SnapshotBlob, SnapshotError,
    SNAPSHOT_SCHEMA_VERSION,
};
pub use health::{
    AuditKind, AuditViolation, FaultKind, FaultPlan, FaultSpec, HealthConfig, HealthReport,
    KernelHealth, SimError, SmHealth, WarpStallCounts,
};
pub use icn::{IcnPort, IcnRequest, IcnResponse};
pub use kernel::{AccessPattern, KernelDesc, KernelDescBuilder, MemSpace, Op};
pub use observe::{
    CounterEntry, CounterKind, CounterScope, EventRing, TbLifecycle, TbLogError, TraceConfig,
    TraceEvent, TraceEventKind, TraceLevel,
};
pub use snap::{Snap, SnapError, SnapReader};
pub use stats::{EpochSnapshot, GpuStats, KernelStats};
pub use tb_sched::SharingMode;
pub use telemetry::{
    HostProfiler, LatencyHistogram, PhaseTotal, ProfPhase, SeriesRow, TimeSeries, WorkCounters,
};
pub use trace::Tracer;
pub use types::{Cycle, KernelId, SmId};

/// Number of concurrently resident kernels the simulator supports.
///
/// The paper evaluates pairs and trios; a fixed small bound lets hot
/// per-kernel state live in arrays instead of heap maps.
pub const MAX_KERNELS: usize = 4;

/// SIMD width of a warp (threads per warp).
pub const WARP_SIZE: u32 = 32;
