//! Fault-tolerant fleet serving layer over many simulated GPUs.
//!
//! The paper's QoS machinery ([`qos-core`](../qos_core/index.html)) protects
//! latency-sensitive kernels *inside* one GPU. This crate scales that
//! contract out to a cluster: many [`gpu_sim::Gpu`] instances stepped in
//! parallel behind a single scheduler that keeps tenant-level guarantees
//! while devices fail underneath it.
//!
//! The robustness core, in the order a request experiences it:
//!
//! * **Admission control** ([`Fleet`]): best-effort requests are rejected at
//!   the door when projected occupancy would push queue drain past the
//!   guaranteed tenants' SLO horizon.
//! * **Bounded retry with exponential backoff**: per-request timeouts and
//!   device failures re-queue the request with `base << attempt` backoff
//!   plus deterministic, seed-derived jitter — at most
//!   [`MAX_RETRIES`](config::MAX_RETRIES) times, after which the request is shed
//!   with an explicit reason.
//! * **Device-loss handling**: [`gpu_sim::FaultKind::DeviceLoss`] and
//!   [`gpu_sim::FaultKind::DeviceWedge`] faults kill or wedge a device
//!   mid-run; the fleet classifies the typed failure (wedges via the
//!   device's own watchdog), retires the device, and re-places the evicted
//!   requests on healthy ones.
//! * **Graceful degradation**: under overload, best-effort work is shed
//!   first — never guaranteed work — behind a hysteresis band so shedding
//!   does not flap.
//! * **Live migration** ([`migrate`]): batches on devices leaving service —
//!   lost, wedged, drained for maintenance, or preempted under shed
//!   pressure — resume from their last epoch-boundary checkpoint on a spare
//!   of the same migration class, with retry budgets untouched.
//! * **Working-set-aware admission**: per-tenant device-memory demand is
//!   measured from kernel footprints (not declarations) and feeds a second
//!   admission gate alongside the cycle-occupancy horizon.
//!
//! Everything is deterministic: the same config and seed produce a
//! byte-identical [`Fleet::report`], whether the run was uninterrupted or
//! SIGKILLed and resumed through [`Fleet::snapshot`] / [`Fleet::restore`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod fleet;
pub mod migrate;
pub mod placement;
pub mod request;
pub mod scenarios;

pub use config::{
    DeviceClass, FleetConfig, FleetConfigError, FleetFault, MigrationConfig, Placement,
    PlannedDrain, TenantSpec,
};
pub use fleet::{DeviceFate, Fleet, TenantCounters, FLEET_SNAPSHOT_VERSION};
pub use migrate::{MigrationReason, MigrationRecord, PendingMigration};
pub use placement::DeviceView;
pub use request::{Request, RequestState, ShedReason};
