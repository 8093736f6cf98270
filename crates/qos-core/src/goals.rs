//! Translating application-level QoS goals into architectural IPC goals.
//!
//! QoS requirements arrive as frame rates, data rates or deadlines. The
//! paper's OS-resident kernel scheduler subtracts non-kernel latencies
//! (PCIe transfers, queueing) from the end-to-end budget and converts the
//! remaining *pure kernel execution time* into an IPC target (§3.2):
//!
//! ```text
//! IPC = instructions_of_kernel / (frequency × kernel_execution_time)
//! ```
//!
//! The evaluation then expresses goals as a percentage of the kernel's
//! isolated IPC, which [`GoalTranslation`] reproduces.

/// Per-kernel QoS specification handed to a [`crate::QosManager`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosSpec {
    goal_ipc: Option<f64>,
}

impl QosSpec {
    /// A QoS kernel that must sustain `goal_ipc` thread-level IPC.
    ///
    /// # Panics
    ///
    /// Panics if `goal_ipc` is not finite and positive.
    pub fn qos(goal_ipc: f64) -> Self {
        assert!(goal_ipc.is_finite() && goal_ipc > 0.0, "IPC goal must be finite and positive");
        QosSpec { goal_ipc: Some(goal_ipc) }
    }

    /// A best-effort (non-QoS) kernel: no guarantee, maximize throughput
    /// with whatever the QoS kernels leave.
    pub fn best_effort() -> Self {
        QosSpec { goal_ipc: None }
    }

    /// The IPC goal, or `None` for best-effort kernels.
    pub fn goal_ipc(&self) -> Option<f64> {
        self.goal_ipc
    }

    /// Whether this is a QoS kernel.
    pub fn is_qos(&self) -> bool {
        self.goal_ipc.is_some()
    }
}

impl Default for QosSpec {
    fn default() -> Self {
        QosSpec::best_effort()
    }
}

/// End-to-end goal translation (§3.2).
///
/// Captures the OS-level accounting that precedes architectural QoS
/// management: the application's deadline minus data-transfer and queueing
/// time gives the kernel-execution budget, which together with the predicted
/// instruction count yields the IPC goal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoalTranslation {
    /// GPU core clock in MHz.
    pub core_mhz: u32,
    /// Predicted total (thread-level) instructions of the kernel. In data
    /// centres this is stable and predictable across invocations (§3.2).
    pub kernel_instructions: u64,
    /// Bytes transferred over PCIe per invocation (0 for unified memory).
    pub transfer_bytes: u64,
    /// PCIe bandwidth in bytes per microsecond (≈ GB/s × 1000 / 1e6).
    pub pcie_bytes_per_us: f64,
    /// Fixed PCIe/queueing latency per invocation, in microseconds.
    pub fixed_latency_us: f64,
}

impl GoalTranslation {
    /// Translation for a unified-memory system (no transfer cost).
    pub fn unified(core_mhz: u32, kernel_instructions: u64) -> Self {
        GoalTranslation {
            core_mhz,
            kernel_instructions,
            transfer_bytes: 0,
            pcie_bytes_per_us: 0.0,
            fixed_latency_us: 0.0,
        }
    }

    /// Non-kernel overhead (transfer + fixed latency) in microseconds.
    pub fn overhead_us(&self) -> f64 {
        let transfer = if self.transfer_bytes == 0 || self.pcie_bytes_per_us <= 0.0 {
            0.0
        } else {
            self.transfer_bytes as f64 / self.pcie_bytes_per_us
        };
        transfer + self.fixed_latency_us
    }

    /// IPC goal needed to finish each invocation within `deadline_us`
    /// (e.g. 16 667 µs for 60 fps frame processing).
    ///
    /// Returns `None` if the overhead alone exceeds the deadline — no
    /// architectural policy can meet such a goal.
    pub fn ipc_goal_for_deadline(&self, deadline_us: f64) -> Option<f64> {
        let budget_us = deadline_us - self.overhead_us();
        if budget_us <= 0.0 {
            return None;
        }
        let budget_cycles = budget_us * f64::from(self.core_mhz);
        Some(self.kernel_instructions as f64 / budget_cycles)
    }

    /// IPC goal for a sustained rate of `per_second` kernel invocations
    /// (frame rate or request rate).
    pub fn ipc_goal_for_rate(&self, per_second: f64) -> Option<f64> {
        if per_second <= 0.0 {
            return None;
        }
        self.ipc_goal_for_deadline(1e6 / per_second)
    }
}

/// Per-tenant latency SLO for fleet-level serving: a per-request deadline
/// plus the fraction of requests that must meet it.
///
/// Attainment is tracked in parts-per-million so the floor check is pure
/// integer arithmetic — byte-identical across runs and platforms, which the
/// fleet's deterministic reports depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloTarget {
    /// Per-request latency deadline, in fleet cycles (arrival to completion).
    pub deadline_cycles: u64,
    /// Minimum fraction of arrived requests that must complete within the
    /// deadline, in parts per million (e.g. `990_000` = 99%).
    pub attainment_floor_ppm: u32,
}

impl SloTarget {
    /// An SLO requiring `floor_ppm`/1e6 of requests within `deadline_cycles`.
    ///
    /// # Panics
    ///
    /// Panics if the deadline is zero or the floor exceeds 1e6.
    pub fn new(deadline_cycles: u64, attainment_floor_ppm: u32) -> Self {
        assert!(deadline_cycles > 0, "SLO deadline must be positive");
        assert!(attainment_floor_ppm <= 1_000_000, "attainment floor is at most 1e6 ppm");
        SloTarget { deadline_cycles, attainment_floor_ppm }
    }

    /// Whether `met` deadline hits out of `total` arrived requests satisfy
    /// the floor. Exact integer comparison; `total == 0` trivially passes.
    pub fn satisfied_by(&self, met: u64, total: u64) -> bool {
        u128::from(met) * 1_000_000 >= u128::from(total) * u128::from(self.attainment_floor_ppm)
    }

    /// The attainment floor as a fraction in `[0, 1]`, for display.
    pub fn floor_fraction(&self) -> f64 {
        f64::from(self.attainment_floor_ppm) / 1e6
    }

    /// The SLO's error budget in parts per million: the fraction of arrived
    /// requests allowed to miss the deadline before the floor is violated
    /// (`1e6 - attainment_floor_ppm`).
    pub fn error_budget_ppm(&self) -> u32 {
        1_000_000 - self.attainment_floor_ppm
    }

    /// SLO burn rate in parts per million of the error budget consumed:
    /// `1_000_000` means misses are arriving exactly at the budgeted rate,
    /// below means headroom, above means the floor is being burned through
    /// (at `> 1_000_000` the SLO check [`satisfied_by`](Self::satisfied_by)
    /// fails). Pure integer arithmetic in u128, saturating into u64. A zero
    /// budget (floor = 100%) is treated as 1 ppm so the rate stays finite;
    /// `total == 0` reports 0.
    pub fn burn_rate_ppm(&self, met: u64, total: u64) -> u64 {
        if total == 0 {
            return 0;
        }
        let missed = u128::from(total.saturating_sub(met));
        let miss_ppm = missed * 1_000_000 / u128::from(total);
        let budget = u128::from(self.error_budget_ppm().max(1));
        u64::try_from(miss_ppm * 1_000_000 / budget).unwrap_or(u64::MAX)
    }
}

/// Fleet-level tenant service class: guaranteed (admission-protected, never
/// shed, must meet its [`SloTarget`]) or best-effort (admitted and shed
/// according to cluster load).
///
/// The same `Option` shape as [`QosSpec`], one level up: `QosSpec` classifies
/// a *kernel* on one GPU, `TenantClass` classifies a *request stream* across
/// a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantClass {
    slo: Option<SloTarget>,
}

impl TenantClass {
    /// A guaranteed tenant with an SLO floor the fleet must defend.
    pub fn guaranteed(slo: SloTarget) -> Self {
        TenantClass { slo: Some(slo) }
    }

    /// A best-effort tenant: no guarantee; first to be shed under overload.
    pub fn best_effort() -> Self {
        TenantClass { slo: None }
    }

    /// The SLO target, or `None` for best-effort tenants.
    pub fn slo(&self) -> Option<SloTarget> {
        self.slo
    }

    /// Whether this tenant holds a guarantee.
    pub fn is_guaranteed(&self) -> bool {
        self.slo.is_some()
    }
}

impl Default for TenantClass {
    fn default() -> Self {
        TenantClass::best_effort()
    }
}

/// Builds the paper's goal sweep: fractions of isolated IPC from 50% to 95%
/// in 5% steps (§4.1).
pub fn paper_goal_fractions() -> Vec<f64> {
    (10..=19).map(|i| f64::from(i) * 0.05).collect()
}

/// The two-QoS-kernel sweep: (25%, 25%) … (70%, 70%) in 5% steps (§4.1).
pub fn paper_dual_goal_fractions() -> Vec<f64> {
    (5..=14).map(|i| f64::from(i) * 0.05).collect()
}

gpu_sim::impl_snap_struct!(QosSpec { goal_ipc });

gpu_sim::impl_snap_struct!(SloTarget { deadline_cycles, attainment_floor_ppm });

gpu_sim::impl_snap_struct!(TenantClass { slo });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_accessors() {
        let q = QosSpec::qos(100.0);
        assert!(q.is_qos());
        assert_eq!(q.goal_ipc(), Some(100.0));
        let b = QosSpec::best_effort();
        assert!(!b.is_qos());
        assert_eq!(b.goal_ipc(), None);
        assert_eq!(QosSpec::default(), b);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn spec_rejects_nonpositive_goal() {
        let _ = QosSpec::qos(0.0);
    }

    #[test]
    fn tenant_class_accessors() {
        let slo = SloTarget::new(40_000, 990_000);
        let g = TenantClass::guaranteed(slo);
        assert!(g.is_guaranteed());
        assert_eq!(g.slo(), Some(slo));
        let b = TenantClass::best_effort();
        assert!(!b.is_guaranteed());
        assert_eq!(b.slo(), None);
        assert_eq!(TenantClass::default(), b);
    }

    #[test]
    fn slo_floor_check_is_exact() {
        let slo = SloTarget::new(10_000, 990_000); // 99%
        assert!(slo.satisfied_by(0, 0), "no arrivals trivially satisfies");
        assert!(slo.satisfied_by(99, 100));
        assert!(!slo.satisfied_by(98, 100));
        assert!(slo.satisfied_by(990_000, 1_000_000));
        assert!(!slo.satisfied_by(989_999, 1_000_000));
        assert!((slo.floor_fraction() - 0.99).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "deadline must be positive")]
    fn slo_rejects_zero_deadline() {
        let _ = SloTarget::new(0, 1_000);
    }

    #[test]
    fn slo_error_budget_and_burn_rate_are_integer_exact() {
        let slo = SloTarget::new(10_000, 990_000); // 99% floor => 1% budget
        assert_eq!(slo.error_budget_ppm(), 10_000);
        assert_eq!(slo.burn_rate_ppm(0, 0), 0, "no arrivals burns nothing");
        assert_eq!(slo.burn_rate_ppm(100, 100), 0, "all met burns nothing");
        // 1 miss in 100 = 10_000 ppm missed = exactly the 1% budget.
        assert_eq!(slo.burn_rate_ppm(99, 100), 1_000_000);
        // 2 misses in 100 = twice the budget.
        assert_eq!(slo.burn_rate_ppm(98, 100), 2_000_000);
        // Half the budget.
        assert_eq!(slo.burn_rate_ppm(995, 1_000), 500_000);
        // Burn > 1e6 exactly when the floor check fails (total > 0).
        for (met, total) in [(99u64, 100u64), (98, 100), (995, 1_000), (0, 7), (7, 7)] {
            let burning = slo.burn_rate_ppm(met, total) > 1_000_000;
            assert_eq!(burning, !slo.satisfied_by(met, total), "met={met} total={total}");
        }
    }

    #[test]
    fn slo_burn_rate_with_zero_budget_stays_finite() {
        let strict = SloTarget::new(1_000, 1_000_000); // 100% floor
        assert_eq!(strict.error_budget_ppm(), 0);
        assert_eq!(strict.burn_rate_ppm(10, 10), 0);
        // One miss in a million with a 1-ppm effective budget: rate 1e6.
        assert_eq!(strict.burn_rate_ppm(999_999, 1_000_000), 1_000_000);
        assert!(strict.burn_rate_ppm(0, 2) > 1_000_000);
    }

    #[test]
    fn tenant_class_round_trips_through_the_codec() {
        use gpu_sim::snap::{decode_from_slice, encode_to_vec};
        for class in
            [TenantClass::guaranteed(SloTarget::new(25_000, 950_000)), TenantClass::best_effort()]
        {
            let back: TenantClass = decode_from_slice(&encode_to_vec(&class)).expect("codec");
            assert_eq!(back, class);
        }
    }

    #[test]
    fn unified_memory_has_no_overhead() {
        let t = GoalTranslation::unified(1216, 1_000_000);
        assert_eq!(t.overhead_us(), 0.0);
    }

    #[test]
    fn deadline_translation_matches_formula() {
        // 1216 MHz, 1e9 instructions, 16.667 ms budget -> IPC = 1e9 / (16667 * 1216)
        let t = GoalTranslation::unified(1216, 1_000_000_000);
        let ipc = t.ipc_goal_for_deadline(16_667.0).expect("feasible deadline");
        let expect = 1e9 / (16_667.0 * 1216.0);
        assert!((ipc - expect).abs() < 1e-9);
    }

    #[test]
    fn rate_is_deadline_reciprocal() {
        let t = GoalTranslation::unified(1216, 1_000_000_000);
        let by_rate = t.ipc_goal_for_rate(60.0).expect("feasible rate");
        let by_deadline = t.ipc_goal_for_deadline(1e6 / 60.0).expect("feasible deadline");
        assert!((by_rate - by_deadline).abs() < 1e-9);
    }

    #[test]
    fn transfer_overhead_shrinks_budget() {
        let mut t = GoalTranslation::unified(1216, 1_000_000_000);
        let base = t.ipc_goal_for_deadline(10_000.0).expect("feasible");
        t.transfer_bytes = 100 << 20; // 100 MiB
        t.pcie_bytes_per_us = 16_000.0; // ~16 GB/s
        let with_copy = t.ipc_goal_for_deadline(10_000.0).expect("still feasible");
        assert!(with_copy > base, "less time for the kernel => higher IPC needed");
    }

    #[test]
    fn infeasible_deadline_is_none() {
        let mut t = GoalTranslation::unified(1216, 1_000);
        t.fixed_latency_us = 50.0;
        assert_eq!(t.ipc_goal_for_deadline(40.0), None);
        assert_eq!(t.ipc_goal_for_rate(0.0), None);
    }

    #[test]
    fn paper_sweeps_match_methodology() {
        let single = paper_goal_fractions();
        assert_eq!(single.len(), 10);
        assert!((single[0] - 0.50).abs() < 1e-12);
        assert!((single[9] - 0.95).abs() < 1e-12);
        let dual = paper_dual_goal_fractions();
        assert_eq!(dual.len(), 10);
        assert!((dual[0] - 0.25).abs() < 1e-12);
        assert!((dual[9] - 0.70).abs() < 1e-12);
    }
}
