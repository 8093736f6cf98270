//! Simulator health: forward-progress watchdog, invariant audits, and
//! deterministic fault injection.
//!
//! All three facilities are **off by default** and cost nothing when
//! disabled, so the plain [`Gpu::run`](crate::Gpu::run) path stays
//! bit-identical to a build without this module.
//!
//! * The **watchdog** observes machine-wide forward progress (warp
//!   instructions issued) once every
//!   [`watchdog_window`](HealthConfig::watchdog_window) cycles. If a full
//!   window elapses with kernels resident and not a single instruction
//!   issued anywhere, the machine is wedged — quota starvation, a barrier
//!   deadlock, a frozen scheduler — and
//!   [`Gpu::try_run`](crate::Gpu::try_run) returns [`SimError::Watchdog`]
//!   carrying a [`HealthReport`] instead of spinning to the end of the
//!   cycle budget.
//! * **Audit mode** ([`HealthConfig::audit`]) re-derives SM bookkeeping —
//!   occupancy against hardware limits, warp/TB slot free lists, the quota
//!   double-entry ledger, the machine-wide issue bound — at every epoch
//!   boundary and fails fast with a typed [`AuditViolation`] when a
//!   conservation law is broken.
//! * A [`FaultPlan`] injects deterministic faults at fixed cycles; this is
//!   how the watchdog, the audits, and the harness recovery paths are
//!   exercised in tests without depending on real bugs.

use std::fmt;

use crate::observe::TraceEvent;
use crate::types::Cycle;

/// Health-layer knobs. The default disables everything (zero overhead,
/// behavior identical to a simulator without the health layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HealthConfig {
    /// Forward-progress window in cycles; `0` disables the watchdog.
    ///
    /// The watchdog samples the machine-wide issued-instruction total at
    /// every multiple of this window. One full window with kernels
    /// resident and zero issues trips it.
    pub watchdog_window: Cycle,
    /// Check simulator invariants at every epoch boundary
    /// (see [`AuditKind`] for the list). Intended for tests.
    pub audit: bool,
}

/// One scheduled fault in a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cycle at which the fault fires (clamped to the next simulated cycle
    /// if the plan is installed after `at_cycle` has passed).
    pub at_cycle: Cycle,
    /// What breaks.
    pub kind: FaultKind,
}

/// The kinds of deterministic faults a plan can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Gate every kernel with zero quota on every SM and freeze all further
    /// quota writes and refills, producing a machine-wide quota-starvation
    /// livelock that no controller can undo.
    StarveQuota,
    /// Freeze the warp schedulers of one SM: it keeps retiring in-flight
    /// context transfers but never issues another instruction.
    FreezeScheduler {
        /// Index of the SM to freeze.
        sm: usize,
    },
    /// Stall the preemption engine on every SM: `start_preempt` refuses
    /// new context saves, so TB targets can no longer be enforced.
    StallPreemption,
    /// Panic inside the simulation loop (exercises the harness's
    /// panic-isolation and retry policy).
    Panic,
    /// Kill the device outright: the run loop stops mid-epoch and returns
    /// [`SimError::DeviceLost`] with a final [`HealthReport`]. Models a
    /// fallen-off-the-bus GPU; everything resident on it is lost and a
    /// fleet must re-place the work elsewhere.
    DeviceLoss,
    /// Wedge the device: every SM's warp schedulers freeze at once, so the
    /// machine stops issuing but keeps consuming cycles. Unlike
    /// [`FaultKind::DeviceLoss`] the failure is *silent* — only the
    /// forward-progress watchdog can classify it, within one window.
    DeviceWedge,
}

/// A deterministic schedule of injected faults, carried on
/// [`GpuConfig`](crate::GpuConfig). Empty by default.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The scheduled faults. Order does not matter; the simulator applies
    /// them in `at_cycle` order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan with a single fault.
    pub fn one(at_cycle: Cycle, kind: FaultKind) -> Self {
        Self { faults: vec![FaultSpec { at_cycle, kind }] }
    }

    /// Add a fault to the plan (builder style).
    #[must_use]
    pub fn with(mut self, at_cycle: Cycle, kind: FaultKind) -> Self {
        self.faults.push(FaultSpec { at_cycle, kind });
        self
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Census of one SM's warp slots at report time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WarpStallCounts {
    /// Warps that could issue this cycle (modulo quota gating).
    pub ready: u32,
    /// Warps stalled on an operation latency or an outstanding memory
    /// access (`ready_at` in the future).
    pub waiting: u32,
    /// Warps parked at a TB-wide barrier.
    pub at_barrier: u32,
    /// Warps that have retired all their work.
    pub done: u32,
}

impl WarpStallCounts {
    /// Total resident warps counted.
    pub fn total(&self) -> u32 {
        self.ready + self.waiting + self.at_barrier + self.done
    }
}

/// Per-kernel slice of a [`HealthReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelHealth {
    /// Kernel id (launch order).
    pub kernel: usize,
    /// Benchmark name from the kernel descriptor.
    pub name: String,
    /// TBs currently resident across all SMs.
    pub resident_tbs: u32,
    /// TBs sitting in the preempted-context pool.
    pub preempted_tbs: usize,
    /// Remaining epoch quota summed across SMs (meaningful while gated).
    pub quota: i64,
    /// Number of SMs on which this kernel is quota-gated.
    pub gated_sms: u32,
    /// Number of SMs on which this kernel is gated **and** out of quota.
    pub exhausted_sms: u32,
    /// Thread instructions retired so far, machine-wide.
    pub thread_insts: u64,
}

impl KernelHealth {
    /// Whether this kernel is quota-starved: gated everywhere it is gated,
    /// with no quota left anywhere.
    pub fn quota_starved(&self) -> bool {
        self.gated_sms > 0 && self.exhausted_sms == self.gated_sms
    }
}

/// Per-SM slice of a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmHealth {
    /// SM index.
    pub sm: usize,
    /// Resident TBs (all kernels).
    pub resident_tbs: u32,
    /// Warp stall census.
    pub warps: WarpStallCounts,
    /// Whether a context save/load is still in flight on this SM.
    pub transfer_in_flight: bool,
}

/// Structured snapshot of machine health, produced when the watchdog trips
/// (or on demand via [`Gpu::health_report`](crate::Gpu::health_report)).
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Cycle at which the snapshot was taken.
    pub cycle: Cycle,
    /// The configured watchdog window (0 when taken on demand).
    pub window: Cycle,
    /// Last watchdog checkpoint at which forward progress was observed.
    /// Granularity is one window.
    pub last_progress_cycle: Cycle,
    /// Machine-wide warp instructions issued since construction.
    pub total_issued: u64,
    /// Per-kernel health, indexed by launch order.
    pub kernels: Vec<KernelHealth>,
    /// Per-SM health.
    pub sms: Vec<SmHealth>,
    /// Flight-recorder tail: the most recent trace events machine-wide,
    /// oldest first. Empty when tracing is disabled.
    pub events: Vec<TraceEvent>,
}

impl HealthReport {
    /// Kernels that are quota-starved (the usual livelock culprits).
    pub fn starved_kernels(&self) -> impl Iterator<Item = &KernelHealth> {
        self.kernels.iter().filter(|k| k.quota_starved())
    }

    /// One-line summary naming the offending kernels, for digests.
    pub fn summary(&self) -> String {
        let starved: Vec<&str> = self.starved_kernels().map(|k| k.name.as_str()).collect();
        if starved.is_empty() {
            format!(
                "no progress since cycle {} (no kernel is quota-starved; \
                 suspect a frozen scheduler or barrier deadlock)",
                self.last_progress_cycle
            )
        } else {
            format!(
                "no progress since cycle {}; quota-starved: {}",
                self.last_progress_cycle,
                starved.join(", ")
            )
        }
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "health: cycle {} window {} last-progress {} issued {}",
            self.cycle, self.window, self.last_progress_cycle, self.total_issued
        )?;
        for k in &self.kernels {
            writeln!(
                f,
                "  kernel {} ({}): {} resident TBs, {} preempted, \
                 quota {} on {} gated SMs ({} exhausted), {} thread insts{}",
                k.kernel,
                k.name,
                k.resident_tbs,
                k.preempted_tbs,
                k.quota,
                k.gated_sms,
                k.exhausted_sms,
                k.thread_insts,
                if k.quota_starved() { " [STARVED]" } else { "" }
            )?;
        }
        for s in &self.sms {
            writeln!(
                f,
                "  sm {}: {} TBs, warps ready {} waiting {} barrier {} done {}{}",
                s.sm,
                s.resident_tbs,
                s.warps.ready,
                s.warps.waiting,
                s.warps.at_barrier,
                s.warps.done,
                if s.transfer_in_flight { ", transfer in flight" } else { "" }
            )?;
        }
        Ok(())
    }
}

/// The invariant families checked in audit mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Resident threads/registers/shared memory exceed the SM's limits, or
    /// do not match the sum over resident TBs.
    Occupancy,
    /// Warp/TB slot free lists disagree with the occupied slots, or a TB
    /// points at a slot owned by someone else.
    SlotAccounting,
    /// The quota double-entry ledger is violated: remaining quota differs
    /// from credits (epoch grants + refills) minus debits (issued lanes).
    QuotaLedger,
    /// An epoch retired more thread instructions than the hardware could
    /// possibly issue (`sms x schedulers x warp width x cycles`).
    IssueBound,
}

impl fmt::Display for AuditKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AuditKind::Occupancy => "occupancy",
            AuditKind::SlotAccounting => "slot-accounting",
            AuditKind::QuotaLedger => "quota-ledger",
            AuditKind::IssueBound => "issue-bound",
        };
        f.write_str(s)
    }
}

/// A failed invariant check, reported by audit mode.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Cycle of the epoch boundary at which the audit ran.
    pub cycle: Cycle,
    /// SM on which the violation was found (`None` for machine-wide
    /// invariants such as the issue bound).
    pub sm: Option<usize>,
    /// Which invariant family failed.
    pub kind: AuditKind,
    /// Human-readable description with the numbers involved.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.sm {
            Some(sm) => write!(
                f,
                "audit violation [{}] at cycle {} on sm {}: {}",
                self.kind, self.cycle, sm, self.detail
            ),
            None => write!(
                f,
                "audit violation [{}] at cycle {}: {}",
                self.kind, self.cycle, self.detail
            ),
        }
    }
}

/// Typed simulator failure, returned by
/// [`Gpu::try_run`](crate::Gpu::try_run).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The forward-progress watchdog tripped; the report says why.
    Watchdog(Box<HealthReport>),
    /// An audit-mode invariant check failed.
    Audit(AuditViolation),
    /// The device was lost (a [`FaultKind::DeviceLoss`] fault fired): the
    /// run loop stopped mid-epoch and nothing resident survives. The report
    /// is the machine's final state, for post-mortems.
    DeviceLost(Box<HealthReport>),
}

impl SimError {
    /// Short machine-readable kind, for digests.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Watchdog(_) => "watchdog",
            SimError::Audit(_) => "audit-violation",
            SimError::DeviceLost(_) => "device-lost",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Watchdog(report) => {
                write!(f, "watchdog tripped at cycle {}: {}", report.cycle, report.summary())
            }
            SimError::Audit(v) => v.fmt(f),
            SimError::DeviceLost(report) => {
                write!(f, "device lost at cycle {}", report.cycle)
            }
        }
    }
}

impl std::error::Error for SimError {}

crate::impl_snap_struct!(HealthConfig { watchdog_window, audit });

crate::impl_snap_enum!(FaultKind {
    StarveQuota = 0,
    FreezeScheduler { sm } = 1,
    StallPreemption = 2,
    Panic = 3,
    DeviceLoss = 4,
    DeviceWedge = 5,
});

crate::impl_snap_struct!(FaultSpec { at_cycle, kind });

crate::impl_snap_struct!(FaultPlan { faults });

crate::impl_snap_struct!(WarpStallCounts { ready, waiting, at_barrier, done });

crate::impl_snap_struct!(KernelHealth {
    kernel,
    name,
    resident_tbs,
    preempted_tbs,
    quota,
    gated_sms,
    exhausted_sms,
    thread_insts,
});

crate::impl_snap_struct!(SmHealth { sm, resident_tbs, warps, transfer_in_flight });

crate::impl_snap_struct!(HealthReport {
    cycle,
    window,
    last_progress_cycle,
    total_issued,
    kernels,
    sms,
    events,
});

crate::impl_snap_enum!(AuditKind {
    Occupancy = 0,
    SlotAccounting = 1,
    QuotaLedger = 2,
    IssueBound = 3,
});

crate::impl_snap_struct!(AuditViolation { cycle, sm, kind, detail });

crate::impl_snap_enum!(SimError { Watchdog(report) = 0, Audit(violation) = 1, DeviceLost(report) = 2 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_disable_everything() {
        let h = HealthConfig::default();
        assert_eq!(h.watchdog_window, 0);
        assert!(!h.audit);
        assert!(FaultPlan::default().is_empty());
    }

    #[test]
    fn fault_plan_builder() {
        let plan = FaultPlan::one(10, FaultKind::StarveQuota).with(5, FaultKind::Panic);
        assert_eq!(plan.faults.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn report_summary_names_starved_kernels() {
        let report = HealthReport {
            cycle: 4_000,
            window: 2_000,
            last_progress_cycle: 2_000,
            total_issued: 17,
            kernels: vec![
                KernelHealth {
                    kernel: 0,
                    name: "sgemm".into(),
                    resident_tbs: 4,
                    preempted_tbs: 0,
                    quota: 0,
                    gated_sms: 2,
                    exhausted_sms: 2,
                    thread_insts: 544,
                },
                KernelHealth {
                    kernel: 1,
                    name: "lbm".into(),
                    resident_tbs: 4,
                    preempted_tbs: 1,
                    quota: 12,
                    gated_sms: 2,
                    exhausted_sms: 1,
                    thread_insts: 320,
                },
            ],
            sms: vec![SmHealth {
                sm: 0,
                resident_tbs: 8,
                warps: WarpStallCounts { ready: 6, waiting: 1, at_barrier: 1, done: 0 },
                transfer_in_flight: false,
            }],
            events: vec![],
        };
        assert!(report.kernels[0].quota_starved());
        assert!(!report.kernels[1].quota_starved());
        let summary = report.summary();
        assert!(summary.contains("sgemm"), "summary must name the starved kernel: {summary}");
        assert!(!summary.contains("lbm"), "non-starved kernels are not culprits: {summary}");
        let display = format!("{report}");
        assert!(display.contains("[STARVED]"));
        let err = SimError::Watchdog(Box::new(report));
        assert_eq!(err.kind(), "watchdog");
        assert!(format!("{err}").contains("sgemm"));
    }

    #[test]
    fn audit_violation_display() {
        let v = AuditViolation {
            cycle: 10_000,
            sm: Some(3),
            kind: AuditKind::QuotaLedger,
            detail: "kernel 1: quota 5 != credits 40 - debits 32".into(),
        };
        let s = format!("{}", SimError::Audit(v));
        assert!(s.contains("quota-ledger") && s.contains("sm 3"), "{s}");
    }
}
