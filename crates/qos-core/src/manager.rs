//! The QoS manager: the paper's architecture extension (Fig. 3) driving the
//! enhanced TB scheduler and enhanced warp scheduler once per epoch.

use gpu_sim::sm::QuotaCarry;
use gpu_sim::{Controller, CounterEntry, CounterKind, CounterScope, Gpu, KernelId, SmId};

use crate::goals::QosSpec;
use crate::nonqos::{artificial_goal, QosStanding, INITIAL_NONQOS_IPC};
use crate::scheme::{alpha, distribute_quota, epoch_quota, QuotaScheme};
use crate::static_alloc::{
    initial_plan, select_victim, select_victim_for_nonqos, targets_feasible, VictimCandidate,
};

/// Epoch-driven QoS manager for fine-grained (SMK) sharing.
///
/// Build with [`QosManager::new`] and [`QosManager::with_kernel`], then pass
/// as the controller to [`Gpu::run`]. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct QosManager {
    scheme: QuotaScheme,
    specs: Vec<QosSpec>,
    static_adjust: bool,
    history_override: Option<bool>,

    initialized: bool,
    cum_insts: Vec<u64>,
    cum_cycles: u64,
    nonqos_prev_ipc: Vec<f64>,
    alphas: Vec<f64>,

    // Counter registry (DESIGN.md §12): the manager's own view of quota
    // traffic, per kernel. `throttled_warp_cycles` is the per-epoch delta of
    // the SMs' cumulative quota-blocked counters, folded in at epoch
    // boundaries, so it only covers epochs this manager actually managed.
    quota_grants: Vec<u64>,
    quota_granted_insts: Vec<u64>,
    exhausted_sm_epochs: Vec<u64>,
    throttled_warp_cycles: Vec<u64>,
    prev_blocked: Vec<u64>,
}

impl QosManager {
    /// Creates a manager running the given quota scheme.
    pub fn new(scheme: QuotaScheme) -> Self {
        QosManager {
            scheme,
            specs: Vec::new(),
            static_adjust: true,
            history_override: None,
            initialized: false,
            cum_insts: Vec::new(),
            cum_cycles: 0,
            nonqos_prev_ipc: Vec::new(),
            alphas: Vec::new(),
            quota_grants: Vec::new(),
            quota_granted_insts: Vec::new(),
            exhausted_sm_epochs: Vec::new(),
            throttled_warp_cycles: Vec::new(),
            prev_blocked: Vec::new(),
        }
    }

    /// Declares the QoS spec of kernel `k`. Kernels without a spec default
    /// to best-effort.
    pub fn with_kernel(mut self, k: KernelId, spec: QosSpec) -> Self {
        if self.specs.len() <= k.index() {
            self.specs.resize(k.index() + 1, QosSpec::best_effort());
        }
        self.specs[k.index()] = spec;
        self
    }

    /// Disables (or re-enables) run-time static TB adjustment — the §4.8
    /// ablation knob.
    pub fn with_static_adjust(mut self, on: bool) -> Self {
        self.static_adjust = on;
        self
    }

    /// Overrides whether history-based `α` adjustment is applied, regardless
    /// of the scheme default — the §4.8 history ablation knob.
    pub fn with_history_adjust(mut self, on: bool) -> Self {
        self.history_override = Some(on);
        self
    }

    /// The scheme this manager runs.
    pub fn scheme(&self) -> QuotaScheme {
        self.scheme
    }

    /// The kernel's cumulative IPC as tracked by the manager.
    pub fn history_ipc(&self, k: KernelId) -> f64 {
        if self.cum_cycles == 0 {
            0.0
        } else {
            self.cum_insts.get(k.index()).copied().unwrap_or(0) as f64 / self.cum_cycles as f64
        }
    }

    /// The latest `α` multiplier computed for kernel `k`.
    pub fn alpha_of(&self, k: KernelId) -> f64 {
        self.alphas.get(k.index()).copied().unwrap_or(1.0)
    }

    fn history_enabled(&self) -> bool {
        self.history_override.unwrap_or(self.scheme.history_adjusted())
    }

    fn init(&mut self, gpu: &mut Gpu) {
        let nk = gpu.num_kernels();
        if self.specs.len() < nk {
            self.specs.resize(nk, QosSpec::best_effort());
        }
        self.cum_insts = vec![0; nk];
        self.nonqos_prev_ipc = vec![INITIAL_NONQOS_IPC; nk];
        self.alphas = vec![1.0; nk];
        self.quota_grants = vec![0; nk];
        self.quota_granted_insts = vec![0; nk];
        self.exhausted_sm_epochs = vec![0; nk];
        self.throttled_warp_cycles = vec![0; nk];
        self.prev_blocked = vec![0; nk];

        gpu.set_sharing_mode(gpu_sim::SharingMode::Smk);
        initial_plan(gpu, &self.specs[..nk]).apply(gpu);
        let elastic = self.scheme.elastic();
        let priority = self.scheme.priority_block();
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            for k in 0..nk {
                let kid = KernelId::new(k);
                let mut view = gpu.sm_quota(sm);
                view.set_gated(kid, true);
                view.set_qos_kernel(kid, self.specs[k].is_qos());
                view.set_elastic(elastic);
                view.set_priority_block(priority);
            }
        }
        self.initialized = true;
    }

    fn update_history(&mut self, gpu: &Gpu) {
        let snap = gpu.epoch_snapshot();
        self.cum_cycles += snap.cycles;
        for (k, cum) in self.cum_insts.iter_mut().enumerate() {
            *cum += snap.thread_insts[k];
        }
    }

    /// Folds the SMs' quota counters into the manager's registry view at an
    /// epoch boundary, *before* fresh quotas are granted: an SM whose quota
    /// for `k` is non-positive here exhausted its grant during the epoch that
    /// just ended.
    fn harvest_counters(&mut self, gpu: &Gpu) {
        for k in 0..self.quota_grants.len() {
            let kid = KernelId::new(k);
            let blocked: u64 = gpu.sms().iter().map(|sm| sm.quota_blocked_cycles(kid)).sum();
            self.throttled_warp_cycles[k] += blocked.saturating_sub(self.prev_blocked[k]);
            self.prev_blocked[k] = blocked;
            self.exhausted_sm_epochs[k] +=
                gpu.sms().iter().filter(|sm| sm.quota(kid) <= 0).count() as u64;
        }
    }

    /// Named counters for the unified registry (DESIGN.md §12): the
    /// manager-side view of quota traffic, one block per kernel.
    pub fn counter_registry(&self) -> Vec<CounterEntry> {
        let mut out = Vec::new();
        for k in 0..self.quota_grants.len() {
            let scope = CounterScope::Kernel(k);
            let mut push = |name: &'static str, value: u64| {
                out.push(CounterEntry {
                    name,
                    scope,
                    kind: CounterKind::Counter,
                    value: value as i64,
                });
            };
            push("qos_quota_grants", self.quota_grants[k]);
            push("qos_quota_granted_insts", self.quota_granted_insts[k]);
            push("qos_exhausted_sm_epochs", self.exhausted_sm_epochs[k]);
            push("qos_throttled_warp_cycles", self.throttled_warp_cycles[k]);
        }
        out
    }

    /// Hosted TBs of kernel `k` on each SM, falling back to the configured
    /// targets before anything has been dispatched (epoch 0).
    fn tb_shares(&self, gpu: &Gpu, k: KernelId) -> Vec<u32> {
        let hosted: Vec<u32> = gpu.sms().iter().map(|sm| sm.hosted_tbs(k)).collect();
        if hosted.iter().any(|&h| h > 0) {
            hosted
        } else {
            gpu.sm_ids().map(|sm| u32::from(gpu.tb_target(sm, k))).collect()
        }
    }

    fn assign_quotas(&mut self, gpu: &mut Gpu, epoch: u64) {
        let nk = gpu.num_kernels();
        let epoch_cycles = gpu.config().epoch_cycles;
        let snap_ipc: Vec<f64> =
            (0..nk).map(|k| gpu.epoch_snapshot().ipc(KernelId::new(k))).collect();
        let history_on = self.history_enabled();

        // 1. α and quotas for QoS kernels.
        let mut standings = Vec::new();
        for (k, &epoch_ipc) in snap_ipc.iter().enumerate() {
            let Some(goal) = self.specs[k].goal_ipc() else { continue };
            let kid = KernelId::new(k);
            let a = if history_on && epoch > 0 { alpha(goal, self.history_ipc(kid)) } else { 1.0 };
            self.alphas[k] = a;
            standings.push(QosStanding { epoch_ipc, alpha: a, goal_ipc: goal });
            let quota = epoch_quota(goal, a, epoch_cycles);
            let refill = self.scheme.elastic();
            self.spread_quota(gpu, kid, quota, self.scheme.qos_carry(), refill);
        }

        // 2. Artificial goals and quotas for non-QoS kernels (§3.5).
        for (k, &epoch_ipc) in snap_ipc.iter().enumerate() {
            if self.specs[k].is_qos() {
                continue;
            }
            let kid = KernelId::new(k);
            let goal = artificial_goal(self.nonqos_prev_ipc[k], &standings);
            self.nonqos_prev_ipc[k] = epoch_ipc;
            let quota = epoch_quota(goal, 1.0, epoch_cycles);
            self.spread_quota(gpu, kid, quota, QuotaCarry::Reset, true);
        }
    }

    fn spread_quota(
        &mut self,
        gpu: &mut Gpu,
        k: KernelId,
        quota: u64,
        carry: QuotaCarry,
        refillable: bool,
    ) {
        let shares = self.tb_shares(gpu, k);
        let parts = distribute_quota(quota, &shares);
        self.quota_grants[k.index()] += parts.len() as u64;
        self.quota_granted_insts[k.index()] += quota;
        for (i, part) in parts.into_iter().enumerate() {
            let part = part as i64;
            let refill = if refillable { part } else { 0 };
            gpu.sm_quota(SmId::new(i)).set_epoch_quota(k, part, carry, refill);
        }
    }

    /// Run-time static TB adjustment (§3.6): lagging QoS kernels gain one TB
    /// per starved SM per epoch (evicting victims per the paper's rules);
    /// non-QoS kernels then reclaim capacity that QoS kernels demonstrably
    /// no longer need (idle TBs or IPC margin), which is what keeps
    /// best-effort throughput high once the QoS goals are met.
    fn adjust_tbs(&mut self, gpu: &mut Gpu, epoch: u64) {
        // "Swapping only happens if there are no pending preemption requests."
        if gpu.context_switch_in_flight() {
            return;
        }
        let nk = gpu.num_kernels();
        let total_tbs: Vec<u32> = (0..nk)
            .map(|k| gpu.sms().iter().map(|sm| sm.hosted_tbs(KernelId::new(k))).sum())
            .collect();

        for k in 0..nk {
            let kid = KernelId::new(k);
            match self.specs[k].goal_ipc() {
                Some(goal) => {
                    // More TLP only helps while the kernel is behind *and*
                    // its current rate is below goal; a kernel already
                    // running at goal-rate catches up through its rolled-over
                    // quota, and stealing TLP for it would only thrash. A
                    // kernel far below goal ramps two TBs per SM per epoch.
                    let epoch_ipc = gpu.epoch_snapshot().ipc(kid);
                    if self.history_ipc(kid) < goal && epoch_ipc < goal {
                        self.grow_kernel(gpu, k, &total_tbs, false, 0, usize::MAX);
                        if epoch_ipc < 0.7 * goal {
                            self.grow_kernel(gpu, k, &total_tbs, false, 0, usize::MAX);
                        }
                    }
                }
                None => {
                    // Best-effort kernels reclaim slack gradually (a quarter
                    // of the SMs per epoch, rotating) so a transient QoS dip
                    // is never amplified into a GPU-wide preemption storm.
                    let sms = gpu.sms().len().max(1);
                    let start = (epoch as usize * 7) % sms;
                    self.grow_kernel(gpu, k, &total_tbs, true, start, sms.div_ceil(4));
                }
            }
        }
    }

    /// Tries to add one TB of kernel `k` on SMs where it is TLP-starved
    /// (≤ 1 idle TB), beginning at `start_sm` and applying at most
    /// `max_adjust` changes. `strict_victims` applies the non-QoS-grower
    /// rules.
    fn grow_kernel(
        &self,
        gpu: &mut Gpu,
        k: usize,
        total_tbs: &[u32],
        strict_victims: bool,
        start_sm: usize,
        max_adjust: usize,
    ) {
        let nk = gpu.num_kernels();
        let kid = KernelId::new(k);
        let warps_per_tb = gpu.kernel_desc(kid).warps_per_tb().max(1);
        let cap = gpu.max_resident_tbs(kid) as u16;
        let sm_count = gpu.sms().len();
        let mut adjusted = 0usize;
        for off in 0..sm_count {
            if adjusted >= max_adjust {
                break;
            }
            let si = (start_sm + off) % sm_count;
            let sm_id = SmId::new(si);
            let idle_tbs = (gpu.sms()[si].idle_warp_avg(kid) / f64::from(warps_per_tb)) as u32;
            if idle_tbs > 1 {
                continue;
            }
            let target = gpu.tb_target(sm_id, kid);
            if target >= cap {
                continue;
            }
            let mut targets: Vec<u16> =
                (0..nk).map(|v| gpu.tb_target(sm_id, KernelId::new(v))).collect();
            targets[k] += 1;
            if targets_feasible(gpu, &targets) {
                gpu.set_tb_target(sm_id, kid, target + 1);
                adjusted += 1;
                continue;
            }
            // The SM allocation is full: pick a victim to shed TBs.
            let candidates: Vec<VictimCandidate> = (0..nk)
                .filter(|&v| v != k)
                .map(|v| {
                    let vid = KernelId::new(v);
                    let v_warps = gpu.kernel_desc(vid).warps_per_tb().max(1);
                    VictimCandidate {
                        kernel: v,
                        is_qos: self.specs[v].is_qos(),
                        idle_tbs: (gpu.sms()[si].idle_warp_avg(vid) / f64::from(v_warps)) as u32,
                        history_ipc: self.history_ipc(vid),
                        goal_ipc: self.specs[v].goal_ipc(),
                        total_tbs: total_tbs[v],
                        hosted_here: gpu.sms()[si].hosted_tbs(vid),
                    }
                })
                .collect();
            let victim = if strict_victims {
                select_victim_for_nonqos(&candidates, 1)
            } else {
                select_victim(&candidates, 1)
            };
            let Some(victim) = victim else { continue };
            // Shrink the victim just enough for the set to fit again.
            let mut shed = 0u32;
            while targets[victim] > 0 && shed < 4 && !targets_feasible(gpu, &targets) {
                targets[victim] -= 1;
                shed += 1;
            }
            let cand = candidates
                .iter()
                .find(|c| c.kernel == victim)
                .expect("victim came from candidates");
            let allowed = if strict_victims {
                cand.eligible_for_nonqos_growth(shed)
            } else {
                cand.eligible(shed)
            };
            if shed > 0 && targets_feasible(gpu, &targets) && allowed {
                let vid = KernelId::new(victim);
                gpu.set_tb_target(sm_id, vid, targets[victim]);
                gpu.set_tb_target(sm_id, kid, target + 1);
                adjusted += 1;
            }
        }
    }
}

impl Controller for QosManager {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        if !self.initialized {
            self.init(gpu);
        }
        if epoch > 0 {
            self.update_history(gpu);
            self.harvest_counters(gpu);
        }
        self.assign_quotas(gpu, epoch);
        if self.static_adjust && epoch > 0 {
            self.adjust_tbs(gpu, epoch);
        }
    }
}

gpu_sim::impl_snap_struct!(QosManager {
    scheme,
    specs,
    static_adjust,
    history_override,
    initialized,
    cum_insts,
    cum_cycles,
    nonqos_prev_ipc,
    alphas,
    quota_grants,
    quota_granted_insts,
    exhausted_sm_epochs,
    throttled_warp_cycles,
    prev_blocked,
});

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn pair(qos_name: &str, be_name: &str) -> (Gpu, KernelId, KernelId) {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name(qos_name).expect("known"));
        let b = gpu.launch(workloads::by_name(be_name).expect("known"));
        (gpu, q, b)
    }

    fn isolated_ipc(name: &str, cycles: u64) -> f64 {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let k = gpu.launch(workloads::by_name(name).expect("known"));
        gpu.run(cycles, &mut gpu_sim::NullController);
        gpu.stats().ipc(k)
    }

    #[test]
    fn rollover_holds_qos_kernel_near_goal() {
        let iso = isolated_ipc("sgemm", 60_000);
        let goal = 0.7 * iso;
        let (mut gpu, q, b) = pair("sgemm", "lbm");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q, QosSpec::qos(goal))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(60_000, &mut mgr);
        let got = gpu.stats().ipc(q);
        assert!(got >= goal * 0.95, "QoS kernel must be close to goal: got {got}, goal {goal}");
        assert!(
            got <= goal * 1.25,
            "quota gating must stop well-resourced kernels from overshooting \
             far past the goal: got {got}, goal {goal}"
        );
        assert!(gpu.stats().ipc(b) > 0.0, "non-QoS kernel must still progress");
    }

    #[test]
    fn nonqos_kernel_receives_leftover_throughput() {
        let iso = isolated_ipc("sgemm", 60_000);
        let (mut gpu, q, b) = pair("sgemm", "mri-q");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q, QosSpec::qos(0.5 * iso))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(60_000, &mut mgr);
        // With the QoS kernel capped at half speed, a compute-bound
        // best-effort kernel must claim substantial throughput.
        let b_ipc = gpu.stats().ipc(b);
        assert!(b_ipc > 100.0, "best-effort IPC {b_ipc} too low");
    }

    #[test]
    fn naive_undershoots_more_than_rollover() {
        // The core claim behind Fig. 6a: Rollover reaches goals Naive misses.
        let iso = isolated_ipc("tpacf", 60_000);
        let goal = 0.85 * iso;
        let run = |scheme| {
            let (mut gpu, q, b) = pair("tpacf", "lbm");
            let mut mgr = QosManager::new(scheme)
                .with_kernel(q, QosSpec::qos(goal))
                .with_kernel(b, QosSpec::best_effort());
            gpu.run(60_000, &mut mgr);
            gpu.stats().ipc(q)
        };
        let naive = run(QuotaScheme::Naive);
        let rollover = run(QuotaScheme::Rollover);
        assert!(rollover >= naive * 0.999, "rollover ({rollover}) must not trail naive ({naive})");
    }

    #[test]
    fn rollover_time_blocks_nonqos_harder() {
        let iso = isolated_ipc("sgemm", 40_000);
        let run = |scheme| {
            let (mut gpu, q, b) = pair("sgemm", "mri-q");
            let mut mgr = QosManager::new(scheme)
                .with_kernel(q, QosSpec::qos(0.7 * iso))
                .with_kernel(b, QosSpec::best_effort());
            gpu.run(40_000, &mut mgr);
            gpu.stats().ipc(b)
        };
        let overlapped = run(QuotaScheme::Rollover);
        let serialized = run(QuotaScheme::RolloverTime);
        assert!(
            overlapped > serialized,
            "time-multiplexed QoS ({serialized}) must hurt non-QoS throughput \
             vs overlapped ({overlapped}) — the §4.5 result"
        );
    }

    #[test]
    fn alpha_rises_when_history_lags() {
        let (mut gpu, q, b) = pair("spmv", "lbm");
        // An aggressive goal a bandwidth-bound kernel cannot reach while
        // sharing: α must grow above 1.
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q, QosSpec::qos(isolated_ipc("spmv", 30_000) * 0.95))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(30_000, &mut mgr);
        assert!(mgr.alpha_of(q) > 1.0);
        assert_eq!(mgr.alpha_of(b), 1.0, "non-QoS kernels have no α");
    }

    #[test]
    fn manager_tracks_history_ipc() {
        let (mut gpu, q, b) = pair("sgemm", "lbm");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q, QosSpec::qos(100.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(30_000, &mut mgr);
        // The manager's view lags the live stats by less than one epoch.
        let live = gpu.stats().ipc(q);
        let tracked = mgr.history_ipc(q);
        assert!(tracked > 0.0);
        assert!((tracked - live).abs() / live < 0.5, "tracked {tracked} vs live {live}");
    }

    #[test]
    fn elastic_scheme_replenishes_early() {
        // Elastic epochs must not fall behind fixed epochs when quotas are
        // consumed quickly.
        let iso = isolated_ipc("mri-q", 40_000);
        let run = |scheme| {
            let (mut gpu, q, b) = pair("mri-q", "stencil");
            let mut mgr = QosManager::new(scheme)
                .with_kernel(q, QosSpec::qos(0.8 * iso))
                .with_kernel(b, QosSpec::best_effort());
            gpu.run(40_000, &mut mgr);
            gpu.stats().ipc(q)
        };
        let naive = run(QuotaScheme::Naive);
        let elastic = run(QuotaScheme::Elastic);
        assert!(elastic >= naive * 0.99, "elastic ({elastic}) must not trail naive ({naive})");
    }

    #[test]
    fn history_override_disables_alpha() {
        let (mut gpu, q, b) = pair("spmv", "lbm");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_history_adjust(false)
            .with_kernel(q, QosSpec::qos(10_000.0)) // unreachable goal
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(30_000, &mut mgr);
        assert_eq!(mgr.alpha_of(q), 1.0, "history off => alpha pinned at 1");
    }

    #[test]
    fn static_adjust_off_freezes_targets() {
        let (mut gpu, q, b) = pair("sgemm", "lbm");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_static_adjust(false)
            .with_kernel(q, QosSpec::qos(1_400.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(1, &mut mgr); // initialize
        let before: Vec<u16> = gpu.sm_ids().map(|sm| gpu.tb_target(sm, q)).collect();
        gpu.run(50_000, &mut mgr);
        let after: Vec<u16> = gpu.sm_ids().map(|sm| gpu.tb_target(sm, q)).collect();
        assert_eq!(before, after, "targets must stay at the initial plan");
    }

    #[test]
    fn counter_registry_tracks_quota_traffic() {
        let (mut gpu, q, b) = pair("sgemm", "lbm");
        let mut mgr = QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q, QosSpec::qos(200.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(30_000, &mut mgr);
        let reg = mgr.counter_registry();
        assert_eq!(reg.len(), 4 * gpu.num_kernels(), "four counters per kernel");
        let value = |name: &str, k: KernelId| {
            reg.iter()
                .find(|e| e.name == name && e.scope == CounterScope::Kernel(k.index()))
                .expect("registry entry present")
                .value
        };
        // Every kernel gets a grant per SM per epoch; a tight goal means the
        // QoS kernel drains quota somewhere and best-effort warps throttle.
        assert!(value("qos_quota_grants", q) > 0);
        assert!(value("qos_quota_granted_insts", q) > 0);
        assert!(
            value("qos_exhausted_sm_epochs", q) + value("qos_exhausted_sm_epochs", b) > 0,
            "some SM-epoch must exhaust its grant under a tight goal"
        );
        assert!(
            value("qos_throttled_warp_cycles", b) > 0,
            "the gated best-effort kernel must accumulate throttled cycles"
        );
    }
}
