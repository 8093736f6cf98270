//! Fleet configuration: tenants, heterogeneous device classes, scheduler
//! policy knobs, migration policy, and the fleet-level fault/drain schedule.

use std::error::Error;
use std::fmt;

use gpu_sim::{FaultKind, GpuConfig};
use qos_core::TenantClass;
use workloads::arrival::ArrivalModel;

/// Which placement policy routes queued requests to idle devices;
/// [`Placement::choose`] applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// Fill one device to its kernel/memory limits before using the next:
    /// maximizes idle (power-gateable) devices, worst tail latency.
    Binpack,
    /// The device with the most free kernel slots: spreads interference
    /// and blast radius, keeps every device warm.
    Spread,
    /// Queue-aware: route to the device with the fewest requests assigned
    /// this tick, breaking ties toward the fewest batches started (coldest
    /// device).
    LeastLoaded,
}

gpu_sim::impl_snap_enum!(Placement { Binpack = 0, Spread = 1, LeastLoaded = 2 });

/// One class of identical devices — the unit of migration compatibility.
///
/// Every device in a class shares the same simulated geometry (SM count, L2
/// sizing) and memory capacity, so a batch snapshot taken on one member
/// restores on any other ([`GpuConfig::fingerprint`]). Devices of
/// *different* classes never exchange snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceClass {
    /// Class name, for reports and traces.
    pub name: String,
    /// How many devices of this class the fleet holds.
    pub count: u32,
    /// Streaming multiprocessors per device.
    pub num_sms: u32,
    /// L2 capacity per device, in KiB.
    pub l2_kb: u32,
    /// Device memory capacity, in bytes, limiting co-resident requests.
    pub mem_bytes: u64,
}

gpu_sim::impl_snap_struct!(DeviceClass { name, count, num_sms, l2_kb, mem_bytes });

impl DeviceClass {
    /// The standard small class: the tiny test device (2 SMs, 32 KiB L2)
    /// with 1 GiB of memory.
    pub fn small(count: u32) -> Self {
        DeviceClass { name: "small".into(), count, num_sms: 2, l2_kb: 32, mem_bytes: 1 << 30 }
    }

    /// A bigger class: twice the SMs and L2, 2 GiB of memory.
    pub fn big(count: u32) -> Self {
        DeviceClass { name: "big".into(), count, num_sms: 4, l2_kb: 64, mem_bytes: 2 << 30 }
    }
}

/// Live-migration policy knobs. Migration is how the fleet recovers a batch
/// from a lost, wedged or drained device; evict + retry is its fallback when
/// no compatible spare turns up within `patience_ticks`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationConfig {
    /// Refresh every busy batch's migration checkpoint each time this many
    /// ticks divide the tick index (≥ 1). Larger values trade checkpoint
    /// bandwidth for more re-simulated progress after a failure.
    pub checkpoint_every_ticks: u64,
    /// How many ticks a pending migration may wait for a compatible spare
    /// before falling back to bounded retry (≥ 1).
    pub patience_ticks: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig { checkpoint_every_ticks: 1, patience_ticks: 8 }
    }
}

gpu_sim::impl_snap_struct!(MigrationConfig { checkpoint_every_ticks, patience_ticks });

/// One planned rebalance: at `at_cycle`, `device` drains — its running
/// batch is snapshotted at the tick boundary and migrated to a spare of the
/// same class, and the device stops accepting work (maintenance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedDrain {
    /// Fleet cycle at which the drain begins.
    pub at_cycle: u64,
    /// Device index to drain.
    pub device: u32,
}

gpu_sim::impl_snap_struct!(PlannedDrain { at_cycle, device });

/// One tenant's request stream and contract.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name; also labels its request kernels and RNG stream.
    pub name: String,
    /// Guaranteed (SLO-protected) or best-effort.
    pub class: TenantClass,
    /// Open-, closed-, or diurnal-loop arrival model.
    pub arrival: ArrivalModel,
    /// Total requests the tenant will issue over the run.
    pub requests: u64,
    /// Grid size of each request kernel (thread blocks).
    pub grid_tbs: u32,
    /// Declared device memory per resident request, in bytes. Seeds the
    /// working-set tracker; admission and placement use the *measured*
    /// estimate once completions start reporting footprints.
    pub mem_bytes: u64,
}

gpu_sim::impl_snap_struct!(TenantSpec { name, class, arrival, requests, grid_tbs, mem_bytes });

/// One scheduled fleet-level fault: at `at_cycle`, `device` suffers `kind`.
///
/// Faults are injected into the device's *next* simulated batch (translated
/// to device-relative cycles), so a fault aimed at an idle device is
/// discovered on first use — the way real device loss is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetFault {
    /// Fleet cycle at which the fault is due.
    pub at_cycle: u64,
    /// Device index it strikes.
    pub device: u32,
    /// What breaks: [`FaultKind::DeviceLoss`] or [`FaultKind::DeviceWedge`]
    /// ([`FleetConfig::validate`] refuses any other kind).
    pub kind: FaultKind,
}

impl FleetFault {
    /// Whether a device can suffer `kind`: it dies or it wedges. Both are
    /// terminal, so a device keeps its fault pending until it strikes.
    pub(crate) fn strikes_a_device(kind: FaultKind) -> bool {
        matches!(kind, FaultKind::DeviceLoss | FaultKind::DeviceWedge)
    }
}

gpu_sim::impl_snap_struct!(FleetFault { at_cycle, device, kind });

/// Device epoch length, in cycles.
pub const EPOCH_CYCLES: u64 = 1_000;

/// Fleet scheduler tick, in cycles. A multiple of the epoch, so every busy
/// device sits at an epoch boundary — and is therefore snapshottable — at
/// tick boundaries.
pub const TICK_CYCLES: u64 = 4_000;

const _: () = assert!(TICK_CYCLES.is_multiple_of(EPOCH_CYCLES));

/// Bounded retry budget per request (timeouts and device failures).
pub const MAX_RETRIES: u32 = 3;

/// Exponential backoff base, in cycles; retry `n` waits `base << (n-1)`
/// plus deterministic jitter in `[0, base)`.
pub const BACKOFF_BASE: u64 = 2_000;

/// Scheduler-visible runtime estimate per request, in device cycles — the
/// online structural runtime prediction admission control projects
/// occupancy with.
pub const EST_SERVICE_CYCLES: u64 = 20_000;

/// Load shedding engages when projected load exceeds this (permille).
pub const SHED_ENTER_PERMILLE: u32 = 900;

/// Load shedding disengages when projected load drops below this
/// (permille): the hysteresis band that keeps shedding from flapping.
pub const SHED_EXIT_PERMILLE: u32 = 500;

const _: () = assert!(SHED_EXIT_PERMILLE < SHED_ENTER_PERMILLE);

/// Top-level fleet configuration. Its scheduler's fixed policy values are
/// the constants above ([`TICK_CYCLES`] and beside it).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// The device classes making up the fleet. Devices are numbered in
    /// class order: class 0's devices first, then class 1's, and so on.
    pub classes: Vec<DeviceClass>,
    /// Placement policy for queued requests.
    pub placement: Placement,
    /// Live-migration policy.
    pub migration: MigrationConfig,
    /// Master seed; every stream/jitter seed derives from it.
    pub seed: u64,
    /// Per-request timeout while running on a device, in fleet cycles.
    pub timeout_cycles: u64,
    /// Safety net: after this many ticks the fleet sheds whatever is still
    /// queued (with an explicit reason) and finishes.
    pub max_ticks: u64,
    /// The tenants served by this fleet.
    pub tenants: Vec<TenantSpec>,
    /// Scheduled device faults, fleet-absolute.
    pub device_faults: Vec<FleetFault>,
    /// Scheduled planned drains (rebalances / maintenance windows).
    pub drains: Vec<PlannedDrain>,
}

gpu_sim::impl_snap_struct!(FleetConfig {
    classes,
    placement,
    migration,
    seed,
    timeout_cycles,
    max_ticks,
    tenants,
    device_faults,
    drains,
});

/// A violated [`FleetConfig`] constraint, carrying the offending field and
/// values so callers (and tests) can react to the *kind* of failure instead
/// of parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetConfigError {
    /// `classes` is empty or every class has `count == 0`.
    NoDevices,
    /// A class exists with `count == 0` (probably a config typo).
    EmptyClass {
        /// Name of the empty class.
        class: String,
    },
    /// A knob that must be positive is zero.
    ZeroKnob {
        /// Which field (`timeout_cycles`, `checkpoint_every_ticks`, or
        /// `patience_ticks`).
        field: &'static str,
    },
    /// `tenants` is empty.
    NoTenants,
    /// A tenant declares more memory than the largest device holds.
    TenantOverMemory {
        /// Tenant name.
        tenant: String,
        /// Its declared per-request memory.
        mem_bytes: u64,
        /// The largest device capacity in the fleet.
        largest_device: u64,
    },
    /// A scheduled fault targets a device index beyond the fleet.
    FaultBeyondFleet {
        /// The targeted device.
        device: u32,
        /// How many devices exist.
        devices: u32,
    },
    /// A scheduled fault is of a kind a device cannot suffer (anything but
    /// [`FaultKind::DeviceLoss`] and [`FaultKind::DeviceWedge`]).
    NotADeviceFault {
        /// The targeted device.
        device: u32,
        /// The refused kind.
        kind: FaultKind,
    },
    /// A planned drain targets a device index beyond the fleet.
    DrainBeyondFleet {
        /// The targeted device.
        device: u32,
        /// How many devices exist.
        devices: u32,
    },
    /// A class expands to a [`GpuConfig`] that fails its own validation.
    BadDeviceConfig {
        /// Name of the offending class.
        class: String,
        /// The underlying error.
        error: String,
    },
}

impl fmt::Display for FleetConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetConfigError::NoDevices => f.write_str("a fleet needs at least one device"),
            FleetConfigError::EmptyClass { class } => {
                write!(f, "device class {class:?} has count 0")
            }
            FleetConfigError::ZeroKnob { field } => write!(f, "{field} must be positive"),
            FleetConfigError::NoTenants => f.write_str("a fleet needs at least one tenant"),
            FleetConfigError::TenantOverMemory { tenant, mem_bytes, largest_device } => write!(
                f,
                "tenant {tenant} requests {mem_bytes} bytes, more than the largest device \
                 ({largest_device})"
            ),
            FleetConfigError::FaultBeyondFleet { device, devices } => {
                write!(f, "fault targets nonexistent device {device} (fleet has {devices})")
            }
            FleetConfigError::NotADeviceFault { device, kind } => write!(
                f,
                "fault {kind:?} on device {device} is not a device fault \
                 (DeviceLoss or DeviceWedge)"
            ),
            FleetConfigError::DrainBeyondFleet { device, devices } => {
                write!(f, "drain targets nonexistent device {device} (fleet has {devices})")
            }
            FleetConfigError::BadDeviceConfig { class, error } => {
                write!(f, "device class {class:?} expands to an invalid GPU config: {error}")
            }
        }
    }
}

impl Error for FleetConfigError {}

impl FleetConfig {
    /// Total devices across every class.
    pub fn total_devices(&self) -> u32 {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// The class index of device `device` (devices are numbered in class
    /// order).
    ///
    /// # Panics
    ///
    /// Panics when `device` is beyond the fleet.
    pub fn class_of(&self, device: u32) -> usize {
        let mut cursor = device;
        for (ci, class) in self.classes.iter().enumerate() {
            if cursor < class.count {
                return ci;
            }
            cursor -= class.count;
        }
        panic!("device {device} beyond the fleet ({} devices)", self.total_devices());
    }

    /// Builds the [`GpuConfig`] for one batch on a device of class `class`.
    /// Its fingerprint is the class's migration fingerprint: snapshots may
    /// only move between devices whose classes fingerprint equal.
    pub fn device_config(&self, class: usize) -> GpuConfig {
        let spec = &self.classes[class];
        let mut cfg = GpuConfig::tiny();
        cfg.num_sms = spec.num_sms;
        cfg.mem.l2_bytes = u64::from(spec.l2_kb) * 1024;
        cfg.epoch_cycles = EPOCH_CYCLES;
        cfg.samples_per_epoch = 10;
        cfg.health.watchdog = true;
        cfg
    }

    /// Validates internal consistency; returns the first violated
    /// constraint.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a typed [`FleetConfigError`]
    /// carrying the offending field and values.
    pub fn validate(&self) -> Result<(), FleetConfigError> {
        if self.classes.is_empty() || self.total_devices() == 0 {
            return Err(FleetConfigError::NoDevices);
        }
        for class in &self.classes {
            if class.count == 0 {
                return Err(FleetConfigError::EmptyClass { class: class.name.clone() });
            }
        }
        for (field, value) in [
            ("timeout_cycles", self.timeout_cycles),
            ("migration.checkpoint_every_ticks", self.migration.checkpoint_every_ticks),
            ("migration.patience_ticks", self.migration.patience_ticks),
        ] {
            if value == 0 {
                return Err(FleetConfigError::ZeroKnob { field });
            }
        }
        if self.tenants.is_empty() {
            return Err(FleetConfigError::NoTenants);
        }
        let largest = self.classes.iter().map(|c| c.mem_bytes).max().unwrap_or(0);
        for t in &self.tenants {
            if t.mem_bytes > largest {
                return Err(FleetConfigError::TenantOverMemory {
                    tenant: t.name.clone(),
                    mem_bytes: t.mem_bytes,
                    largest_device: largest,
                });
            }
        }
        let devices = self.total_devices();
        for f in &self.device_faults {
            if f.device >= devices {
                return Err(FleetConfigError::FaultBeyondFleet { device: f.device, devices });
            }
            if !FleetFault::strikes_a_device(f.kind) {
                return Err(FleetConfigError::NotADeviceFault { device: f.device, kind: f.kind });
            }
        }
        for d in &self.drains {
            if d.device >= devices {
                return Err(FleetConfigError::DrainBeyondFleet { device: d.device, devices });
            }
        }
        for (ci, class) in self.classes.iter().enumerate() {
            self.device_config(ci).validate().map_err(|e| FleetConfigError::BadDeviceConfig {
                class: class.name.clone(),
                error: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of the configuration, for checkpoint
    /// compatibility checks.
    pub fn fingerprint(&self) -> u64 {
        gpu_sim::snap::fnv1a(&gpu_sim::snap::encode_to_vec(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qos_core::SloTarget;

    fn base() -> FleetConfig {
        FleetConfig {
            classes: vec![DeviceClass::small(2)],
            placement: Placement::Spread,
            migration: MigrationConfig::default(),
            seed: 1,
            timeout_cycles: 40_000,
            max_ticks: 1_000,
            tenants: vec![TenantSpec {
                name: "t".into(),
                class: TenantClass::guaranteed(SloTarget::new(60_000, 900_000)),
                arrival: ArrivalModel::Open { mean_gap: 4_000 },
                requests: 10,
                grid_tbs: 8,
                mem_bytes: 1 << 20,
            }],
            device_faults: Vec::new(),
            drains: Vec::new(),
        }
    }

    #[test]
    fn base_config_validates() {
        base().validate().expect("base config is sound");
    }

    #[test]
    fn no_devices_variants() {
        let mut cfg = base();
        cfg.classes.clear();
        assert_eq!(cfg.validate(), Err(FleetConfigError::NoDevices));
        cfg.classes = vec![DeviceClass { count: 0, ..DeviceClass::small(0) }];
        assert_eq!(cfg.validate(), Err(FleetConfigError::NoDevices));
        cfg.classes = vec![DeviceClass::small(1), DeviceClass { count: 0, ..DeviceClass::big(0) }];
        assert_eq!(cfg.validate(), Err(FleetConfigError::EmptyClass { class: "big".into() }));
    }

    #[test]
    fn zero_knobs_name_their_field() {
        for field in
            ["timeout_cycles", "migration.checkpoint_every_ticks", "migration.patience_ticks"]
        {
            let mut cfg = base();
            match field {
                "timeout_cycles" => cfg.timeout_cycles = 0,
                "migration.checkpoint_every_ticks" => cfg.migration.checkpoint_every_ticks = 0,
                _ => cfg.migration.patience_ticks = 0,
            }
            assert_eq!(cfg.validate(), Err(FleetConfigError::ZeroKnob { field }));
        }
    }

    #[test]
    fn no_tenants_is_typed() {
        let mut cfg = base();
        cfg.tenants.clear();
        assert_eq!(cfg.validate(), Err(FleetConfigError::NoTenants));
    }

    #[test]
    fn tenant_over_memory_names_the_tenant() {
        let mut cfg = base();
        cfg.tenants[0].mem_bytes = 4 << 30;
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::TenantOverMemory {
                tenant: "t".into(),
                mem_bytes: 4 << 30,
                largest_device: 1 << 30,
            })
        );
        // A bigger class absorbs it.
        cfg.classes.push(DeviceClass::big(1));
        cfg.tenants[0].mem_bytes = 2 << 30;
        cfg.validate().expect("fits the big class");
    }

    #[test]
    fn fault_and_drain_bounds_are_typed() {
        let mut cfg = base();
        cfg.device_faults.push(FleetFault { at_cycle: 10, device: 9, kind: FaultKind::DeviceLoss });
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::FaultBeyondFleet { device: 9, devices: 2 })
        );
        cfg.device_faults.clear();
        cfg.drains.push(PlannedDrain { at_cycle: 10, device: 5 });
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::DrainBeyondFleet { device: 5, devices: 2 })
        );
    }

    #[test]
    fn a_fault_a_device_cannot_suffer_is_refused() {
        let mut cfg = base();
        cfg.device_faults.push(FleetFault { at_cycle: 10, device: 1, kind: FaultKind::Panic });
        assert_eq!(
            cfg.validate(),
            Err(FleetConfigError::NotADeviceFault { device: 1, kind: FaultKind::Panic })
        );
        cfg.device_faults[0].kind = FaultKind::DeviceWedge;
        cfg.validate().expect("a wedge strikes a device");
    }

    #[test]
    fn retired_custom_placement_tag_no_longer_decodes() {
        // Tag 3 was `Placement::Custom(name)`, resolved through a registry
        // nothing used; a stream that still carries it is refused.
        let custom = [&[3u8][..], &gpu_sim::snap::encode_to_vec(&"pin-highest".to_string())];
        assert_eq!(
            gpu_sim::snap::decode_from_slice::<Placement>(&custom.concat()),
            Err(gpu_sim::snap::SnapError::Invalid("Placement"))
        );
    }

    #[test]
    fn bad_device_class_names_the_class() {
        let mut cfg = base();
        // Zero SMs — the underlying GpuConfig rejects it, and the fleet
        // error says which class caused it.
        cfg.classes = vec![DeviceClass { num_sms: 0, ..DeviceClass::small(1) }];
        match cfg.validate() {
            Err(FleetConfigError::BadDeviceConfig { class, .. }) => assert_eq!(class, "small"),
            other => panic!("expected BadDeviceConfig, got {other:?}"),
        }
    }

    #[test]
    fn class_indexing_walks_class_order() {
        let mut cfg = base();
        cfg.classes = vec![DeviceClass::small(2), DeviceClass::big(3)];
        assert_eq!(cfg.total_devices(), 5);
        assert_eq!(cfg.class_of(0), 0);
        assert_eq!(cfg.class_of(1), 0);
        assert_eq!(cfg.class_of(2), 1);
        assert_eq!(cfg.class_of(4), 1);
    }

    #[test]
    fn compat_classes_are_honest() {
        let mut cfg = base();
        cfg.classes = vec![DeviceClass::small(1), DeviceClass::big(1), DeviceClass::small(1)];
        assert_eq!(
            cfg.device_config(0).fingerprint(),
            cfg.device_config(2).fingerprint(),
            "identical geometry, same migration class"
        );
        assert_ne!(
            cfg.device_config(0).fingerprint(),
            cfg.device_config(1).fingerprint(),
            "different geometry, different migration class"
        );
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = base();
        let mut b = base();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.seed = 2;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = base();
        c.migration.checkpoint_every_ticks = 2;
        assert_ne!(a.fingerprint(), c.fingerprint());
    }
}
