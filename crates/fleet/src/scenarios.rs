//! Named, fully-deterministic fleet scenarios.
//!
//! Each scenario is a complete [`FleetConfig`] — device classes, tenants,
//! placement, migration policy, timeouts, fault schedule, planned drains — so `repro fleet <name>`
//! needs nothing but a name and an optional seed override. The constants
//! below are calibrated against the tiny device configuration: one 8-TB
//! request kernel completes well inside 20k cycles solo, and inside ~3×
//! that when sharing a device with three neighbours under SMK.

use gpu_sim::FaultKind;
use qos_core::{SloTarget, TenantClass};
use workloads::arrival::ArrivalModel;

use crate::config::{
    DeviceClass, FleetConfig, FleetFault, MigrationConfig, Placement, PlannedDrain, TenantSpec,
};

/// Default master seed for scenarios (overridable on the CLI).
pub const DEFAULT_SEED: u64 = 0x000F_1EE7_CAFE;

/// Scenario names, in presentation order.
pub const SCENARIOS: [&str; 5] = ["steady", "overload", "chaos", "migration", "diurnal"];

/// Builds the named scenario, or `None` for an unknown name.
pub fn by_name(name: &str, seed: u64) -> Option<FleetConfig> {
    match name {
        "steady" => Some(steady(seed)),
        "overload" => Some(overload(seed)),
        "chaos" => Some(chaos(seed)),
        "migration" => Some(migration(seed)),
        "diurnal" => Some(diurnal(seed)),
        _ => None,
    }
}

fn base(seed: u64) -> FleetConfig {
    FleetConfig {
        classes: vec![DeviceClass::small(2)],
        placement: Placement::Spread,
        migration: MigrationConfig::default(),
        seed,
        timeout_cycles: 60_000,
        max_ticks: 600,
        tenants: Vec::new(),
        device_faults: Vec::new(),
        drains: Vec::new(),
    }
}

fn guaranteed(deadline: u64, floor_ppm: u32) -> TenantClass {
    TenantClass::guaranteed(SloTarget::new(deadline, floor_ppm))
}

/// Two healthy devices, light load, no faults: every request should
/// complete with headroom. The baseline the fault scenarios are read
/// against.
pub fn steady(seed: u64) -> FleetConfig {
    let mut cfg = base(seed);
    cfg.tenants = vec![
        TenantSpec {
            name: "latency".into(),
            class: guaranteed(120_000, 900_000),
            arrival: ArrivalModel::Open { mean_gap: 8_000 },
            requests: 12,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "batch".into(),
            class: TenantClass::best_effort(),
            arrival: ArrivalModel::Open { mean_gap: 6_000 },
            requests: 12,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
    ];
    cfg
}

/// One device, a guaranteed closed-loop tenant, and a best-effort open
/// tenant arriving far faster than the device can drain: admission control
/// and load shedding must sacrifice best-effort work to keep the guarantee.
pub fn overload(seed: u64) -> FleetConfig {
    let mut cfg = base(seed);
    cfg.classes = vec![DeviceClass::small(1)];
    cfg.placement = Placement::Binpack;
    cfg.tenants = vec![
        TenantSpec {
            name: "latency".into(),
            class: guaranteed(120_000, 850_000),
            arrival: ArrivalModel::Closed { think: 10_000, population: 2 },
            requests: 10,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "flood".into(),
            class: TenantClass::best_effort(),
            arrival: ArrivalModel::Open { mean_gap: 1_000 },
            requests: 60,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
    ];
    cfg
}

/// The chaos soak: four devices, three tenants, and a fault schedule that
/// kills one device outright and wedges another mid-run. In-flight batches
/// on the failed devices migrate to the two survivors from their last
/// checkpoints — every guaranteed tenant still meets its floor, every
/// request ends completed or explicitly shed.
pub fn chaos(seed: u64) -> FleetConfig {
    let mut cfg = base(seed);
    cfg.classes = vec![DeviceClass::small(4)];
    cfg.tenants = vec![
        TenantSpec {
            name: "latency".into(),
            class: guaranteed(200_000, 850_000),
            arrival: ArrivalModel::Open { mean_gap: 8_000 },
            requests: 15,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "interactive".into(),
            class: guaranteed(200_000, 850_000),
            arrival: ArrivalModel::Closed { think: 8_000, population: 2 },
            requests: 12,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "batch".into(),
            class: TenantClass::best_effort(),
            arrival: ArrivalModel::Open { mean_gap: 4_000 },
            requests: 20,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
    ];
    cfg.device_faults = vec![
        FleetFault { at_cycle: 30_000, device: 1, kind: FaultKind::DeviceLoss },
        FleetFault { at_cycle: 50_000, device: 2, kind: FaultKind::DeviceWedge },
    ];
    cfg
}

/// The migration storm: a heterogeneous fleet (six small + two big devices)
/// takes three same-tick failures inside the small class plus a planned
/// drain of a big device. Small-class blobs may only land on small spares
/// and big-class blobs on the remaining big device, so the storm exercises
/// compatibility classes, the pending-migration queue under contention, and
/// patience fallback — while every guaranteed SLO still holds and
/// `lost_requests()` stays zero.
pub fn migration(seed: u64) -> FleetConfig {
    let mut cfg = base(seed);
    cfg.classes = vec![DeviceClass::small(6), DeviceClass::big(2)];
    cfg.placement = Placement::LeastLoaded;
    cfg.migration = MigrationConfig { checkpoint_every_ticks: 1, patience_ticks: 12 };
    cfg.timeout_cycles = 120_000;
    cfg.max_ticks = 900;
    cfg.tenants = vec![
        TenantSpec {
            name: "latency".into(),
            class: guaranteed(300_000, 850_000),
            arrival: ArrivalModel::Open { mean_gap: 6_000 },
            requests: 20,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "interactive".into(),
            class: guaranteed(300_000, 850_000),
            arrival: ArrivalModel::Closed { think: 6_000, population: 3 },
            requests: 15,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "batch".into(),
            class: TenantClass::best_effort(),
            arrival: ArrivalModel::Open { mean_gap: 3_000 },
            requests: 30,
            grid_tbs: 8,
            mem_bytes: 128 << 20,
        },
    ];
    // Three small devices die in the same tick window; a big device drains
    // for maintenance shortly after. Devices 6 and 7 are the big class.
    cfg.device_faults = vec![
        FleetFault { at_cycle: 30_000, device: 0, kind: FaultKind::DeviceLoss },
        FleetFault { at_cycle: 30_000, device: 1, kind: FaultKind::DeviceLoss },
        FleetFault { at_cycle: 30_000, device: 2, kind: FaultKind::DeviceWedge },
    ];
    cfg.drains = vec![PlannedDrain { at_cycle: 60_000, device: 6 }];
    cfg
}

/// The long-horizon diurnal soak: arrival rate swings ±60% around its mean
/// over a 500k-cycle "day" while the fleet rides a planned drain and a
/// device loss across the peak. Exercises working-set admission (the EWMA
/// converges over hundreds of completions), migration under a slowly
/// breathing queue, and the throughput leg of the benchmark suite.
pub fn diurnal(seed: u64) -> FleetConfig {
    let mut cfg = base(seed);
    cfg.classes = vec![DeviceClass::small(2), DeviceClass::big(1)];
    cfg.placement = Placement::LeastLoaded;
    cfg.migration = MigrationConfig { checkpoint_every_ticks: 2, patience_ticks: 12 };
    cfg.timeout_cycles = 120_000;
    cfg.max_ticks = 1_500;
    cfg.tenants = vec![
        TenantSpec {
            name: "latency".into(),
            class: guaranteed(400_000, 850_000),
            arrival: ArrivalModel::Diurnal {
                mean_gap: 12_000,
                period: 500_000,
                swing_permille: 600,
            },
            requests: 150,
            grid_tbs: 8,
            mem_bytes: 64 << 20,
        },
        TenantSpec {
            name: "batch".into(),
            class: TenantClass::best_effort(),
            arrival: ArrivalModel::Diurnal {
                mean_gap: 10_000,
                period: 500_000,
                swing_permille: 600,
            },
            requests: 250,
            grid_tbs: 8,
            mem_bytes: 96 << 20,
        },
    ];
    cfg.device_faults =
        vec![FleetFault { at_cycle: 700_000, device: 1, kind: FaultKind::DeviceLoss }];
    cfg.drains = vec![PlannedDrain { at_cycle: 1_200_000, device: 0 }];
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_validates() {
        for name in SCENARIOS {
            let cfg = by_name(name, DEFAULT_SEED).expect("known scenario");
            cfg.validate().unwrap_or_else(|e| panic!("scenario {name}: {e}"));
        }
    }

    #[test]
    fn unknown_scenario_is_none() {
        assert!(by_name("nope", 1).is_none());
    }

    #[test]
    fn chaos_schedules_a_loss_and_a_wedge() {
        let cfg = chaos(DEFAULT_SEED);
        assert!(cfg.device_faults.iter().any(|f| f.kind == FaultKind::DeviceLoss));
        assert!(cfg.device_faults.iter().any(|f| f.kind == FaultKind::DeviceWedge));
    }

    #[test]
    fn migration_storm_is_heterogeneous_with_same_tick_failures() {
        let cfg = migration(DEFAULT_SEED);
        assert!(cfg.classes.len() >= 2, "needs at least two migration classes");
        assert!(cfg.device_faults.len() >= 3);
        let storm_cycle = cfg.device_faults[0].at_cycle;
        assert!(
            cfg.device_faults.iter().filter(|f| f.at_cycle == storm_cycle).count() >= 3,
            "the storm must land at least three failures in the same tick"
        );
        assert!(!cfg.drains.is_empty(), "the storm includes a planned drain");
        // The drained device must belong to the big class so both classes
        // exercise the migration path.
        let small_count: u32 = cfg.classes[0].count;
        assert!(cfg.drains[0].device >= small_count);
    }

    #[test]
    fn diurnal_is_long_horizon_with_breathing_arrivals() {
        let cfg = diurnal(DEFAULT_SEED);
        assert!(cfg.max_ticks >= 1_000, "long horizon");
        for t in &cfg.tenants {
            assert!(
                matches!(t.arrival, ArrivalModel::Diurnal { .. }),
                "diurnal tenants breathe: {:?}",
                t.arrival
            );
        }
        assert!(!cfg.device_faults.is_empty() && !cfg.drains.is_empty());
    }
}
