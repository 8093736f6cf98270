//! The (enhanced) thread-block scheduler.
//!
//! Dispatches TBs to SMs under one of three sharing disciplines:
//!
//! * [`SharingMode::Exclusive`] — a single kernel fills the whole GPU
//!   (isolated baseline runs),
//! * [`SharingMode::Smk`] — fine-grained *simultaneous multikernel* sharing:
//!   every SM hosts TBs of multiple kernels up to per-SM per-kernel targets
//!   set by the QoS manager (the paper's static resource management),
//! * [`SharingMode::Spatial`] — each SM is owned by one kernel (the `Spart`
//!   baseline's substrate).
//!
//! Targets are *enforced*: if an SM hosts more TBs of a kernel than its
//! target allows, the scheduler starts a partial context switch; saved TBs
//! go back to the kernel's preempted pool and are resumed with priority when
//! capacity reappears.

use std::sync::Arc;

use crate::config::PreemptConfig;
use crate::kernel::KernelDesc;
use crate::memsys::MemSystem;
use crate::preempt::{load_cycles, save_cycles, SavedTb};
use crate::sm::Sm;
use crate::types::{per_kernel, Cycle, KernelId, PerKernel, TbIndex};

/// How concurrently launched kernels share the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingMode {
    /// No sharing constraints: all kernels dispatch greedily everywhere.
    /// With one kernel launched this is the isolated-execution baseline.
    Exclusive,
    /// Fine-grained sharing within each SM, bounded by per-SM per-kernel
    /// TB targets.
    Smk,
    /// Spatial partitioning: each SM executes TBs of its owner kernel only.
    Spatial,
}

/// Per-kernel dispatch bookkeeping (grid cursor, re-execution, preempted pool).
#[derive(Debug)]
pub struct KernelRuntime {
    /// The kernel's immutable description.
    pub desc: Arc<KernelDesc>,
    next_tb: u32,
    tbs_completed: u64,
    preempted: Vec<SavedTb>,
}

impl KernelRuntime {
    pub(crate) fn new(desc: Arc<KernelDesc>) -> Self {
        KernelRuntime { desc, next_tb: 0, tbs_completed: 0, preempted: Vec::new() }
    }

    fn next_fresh_tb(&mut self) -> TbIndex {
        let idx = self.next_tb % self.desc.grid_tbs();
        self.next_tb = self.next_tb.wrapping_add(1);
        TbIndex(idx)
    }

    pub(crate) fn note_tb_completed(&mut self) {
        self.tbs_completed += 1;
    }

    /// TBs completed across all grid executions.
    pub fn tbs_completed(&self) -> u64 {
        self.tbs_completed
    }

    /// Full grid executions completed.
    pub fn launches_completed(&self) -> u64 {
        self.tbs_completed / u64::from(self.desc.grid_tbs())
    }

    /// Number of preempted TBs awaiting resumption.
    pub fn preempted_len(&self) -> usize {
        self.preempted.len()
    }
}

const UNLIMITED: u16 = u16::MAX;

/// The thread-block scheduler.
#[derive(Debug)]
pub struct TbScheduler {
    mode: SharingMode,
    targets: Vec<PerKernel<u16>>,
    owner: Vec<Option<KernelId>>,
    completed_scratch: Vec<(KernelId, TbIndex)>,
    saved_scratch: Vec<(KernelId, SavedTb)>,
}

impl TbScheduler {
    pub(crate) fn new(num_sms: usize) -> Self {
        TbScheduler {
            mode: SharingMode::Exclusive,
            targets: (0..num_sms).map(|_| per_kernel(|_| UNLIMITED)).collect(),
            owner: vec![None; num_sms],
            completed_scratch: Vec::new(),
            saved_scratch: Vec::new(),
        }
    }

    pub(crate) fn set_mode(&mut self, mode: SharingMode) {
        self.mode = mode;
    }

    /// Sets the SMK TB target for kernel `k` on SM `sm`.
    pub(crate) fn set_target(&mut self, sm: usize, k: KernelId, tbs: u16) {
        self.targets[sm][k.index()] = tbs;
    }

    /// SMK TB target for kernel `k` on SM `sm`.
    pub fn target(&self, sm: usize, k: KernelId) -> u16 {
        self.targets[sm][k.index()]
    }

    /// Assigns the owner kernel of SM `sm` (spatial mode).
    pub(crate) fn set_owner(&mut self, sm: usize, owner: Option<KernelId>) {
        self.owner[sm] = owner;
    }

    /// Owner kernel of SM `sm` (spatial mode).
    pub fn owner(&self, sm: usize) -> Option<KernelId> {
        self.owner[sm]
    }

    fn allowed(&self, sm: usize, k: usize, num_kernels: usize) -> u16 {
        if k >= num_kernels {
            return 0;
        }
        match self.mode {
            SharingMode::Exclusive => UNLIMITED,
            SharingMode::Smk => self.targets[sm][k],
            SharingMode::Spatial => {
                if self.owner[sm].map(KernelId::index) == Some(k) {
                    UNLIMITED
                } else {
                    0
                }
            }
        }
    }

    /// Whether one more TB of kernel `k` fits on SM `si` after setting
    /// aside the capacity other kernels still need to reach their targets.
    fn fits_with_reservations(
        &self,
        si: usize,
        k: usize,
        sm: &Sm,
        kernels: &[KernelRuntime],
    ) -> bool {
        let nk = kernels.len();
        let (mut r_threads, mut r_regs, mut r_smem, mut r_warps, mut r_tbs) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for (j, kr) in kernels.iter().enumerate() {
            if j == k {
                continue;
            }
            let allowed = self.allowed(si, j, nk);
            if allowed == UNLIMITED {
                // Unbounded targets (exclusive / spatial owner) reserve
                // nothing: they are not a managed allocation.
                continue;
            }
            let deficit =
                u64::from(allowed).saturating_sub(u64::from(sm.hosted_tbs(KernelId::new(j))));
            if deficit == 0 {
                continue;
            }
            let d = &kr.desc;
            r_threads += deficit * u64::from(d.threads_per_tb());
            r_regs += deficit * d.regfile_bytes_per_tb();
            r_smem += deficit * d.smem_per_tb();
            r_warps += deficit * u64::from(d.warps_per_tb());
            r_tbs += deficit;
        }
        let d = &kernels[k].desc;
        u64::from(sm.free_threads()) >= u64::from(d.threads_per_tb()) + r_threads
            && sm.free_regs() >= d.regfile_bytes_per_tb() + r_regs
            && sm.free_smem() >= d.smem_per_tb() + r_smem
            && u64::from(sm.free_warp_slots()) >= u64::from(d.warps_per_tb()) + r_warps
            && u64::from(sm.free_tb_slots()) > r_tbs
    }

    /// Whether a [`TbScheduler::service`] pass would mutate nothing — no
    /// notifications to drain, no kernel over its target, and no TB that
    /// could be dispatched into free capacity.
    ///
    /// Fast-forward uses this to decide whether `DISPATCH_INTERVAL` service
    /// points inside an idle window must be simulated. Every input read here
    /// (outboxes, residency, occupancy, targets, mode) only changes on
    /// cycles that are themselves simulated — issues, transition
    /// completions, controller writes — so a `true` verdict holds for the
    /// whole window. The `now`-dependent dispatch rotation in `service` only
    /// permutes kernel order, which is irrelevant when no kernel can
    /// dispatch.
    pub(crate) fn service_would_noop(&self, sms: &[Sm], kernels: &[KernelRuntime]) -> bool {
        if sms.iter().any(Sm::has_pending_notifications) {
            return false;
        }
        let nk = kernels.len();
        for (si, sm) in sms.iter().enumerate() {
            let in_flight = sm.context_switch_in_flight();
            for (k, kernel) in kernels.iter().enumerate() {
                let kid = KernelId::new(k);
                let allowed = u32::from(self.allowed(si, k, nk));
                let hosted = sm.hosted_tbs(kid);
                if !in_flight && hosted > allowed {
                    return false;
                }
                if hosted < allowed
                    && sm.can_host(&kernel.desc)
                    && self.fits_with_reservations(si, k, sm, kernels)
                {
                    return false;
                }
            }
        }
        true
    }

    /// Drains SM notifications, enforces targets via preemption, and
    /// dispatches fresh or resumed TBs into free capacity.
    pub(crate) fn service(
        &mut self,
        now: Cycle,
        sms: &mut [Sm],
        kernels: &mut [KernelRuntime],
        mem: &mut MemSystem,
        pcfg: &PreemptConfig,
    ) {
        let nk = kernels.len();
        // 1. Collect completions and finished context saves.
        for sm in sms.iter_mut() {
            sm.drain_completed(&mut self.completed_scratch);
            sm.drain_saved(&mut self.saved_scratch);
        }
        for (k, _tb) in self.completed_scratch.drain(..) {
            kernels[k.index()].note_tb_completed();
        }
        for (k, tb) in self.saved_scratch.drain(..) {
            kernels[k.index()].preempted.push(tb);
        }

        for (si, sm) in sms.iter_mut().enumerate() {
            // 2. Enforce targets: over-subscribed kernels lose one TB at a
            //    time per SM (bounding concurrent context-switch traffic).
            if !sm.context_switch_in_flight() {
                for (k, kernel) in kernels.iter().enumerate().take(nk) {
                    let kid = KernelId::new(k);
                    if sm.hosted_tbs(kid) > u32::from(self.allowed(si, k, nk)) {
                        let desc = &kernel.desc;
                        let cost = save_cycles(desc, pcfg);
                        if sm.start_preempt(kid, now, cost) {
                            mem.inject_context_traffic(kid, desc.context_bytes_per_tb(), now);
                        }
                        break;
                    }
                }
            }
            // 3. Fill free capacity, rotating the starting kernel so no
            //    kernel is structurally favoured. A kernel may not take
            //    capacity that is *reserved* — needed by another kernel to
            //    reach its own target — otherwise small-TB kernels would
            //    race into every hole a completing large TB leaves and
            //    permanently crowd out their co-runners.
            let start = (now as usize / 8) % nk.max(1);
            for off in 0..nk {
                let k = (start + off) % nk;
                let kid = KernelId::new(k);
                let allowed = u32::from(self.allowed(si, k, nk));
                while sm.hosted_tbs(kid) < allowed
                    && sm.can_host(&kernels[k].desc)
                    && self.fits_with_reservations(si, k, sm, kernels)
                {
                    if let Some(saved) = kernels[k].preempted.pop() {
                        let desc = &kernels[k].desc;
                        let cost = load_cycles(desc, pcfg);
                        mem.inject_context_traffic(kid, desc.context_bytes_per_tb(), now);
                        sm.dispatch(kid, saved.tb_index, Some(saved), now, cost);
                    } else {
                        let tb = kernels[k].next_fresh_tb();
                        sm.dispatch(kid, tb, None, now, 0);
                    }
                }
            }
        }
    }
}

crate::impl_snap_enum!(SharingMode { Exclusive = 0, Smk = 1, Spatial = 2 });

crate::impl_snap_struct!(KernelRuntime { desc, next_tb, tbs_completed, preempted });

crate::impl_snap_struct!(TbScheduler {
    mode,
    targets,
    owner,
} skip { completed_scratch, saved_scratch });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::kernel::Op;
    use crate::types::SmId;

    fn desc(name: &str) -> Arc<KernelDesc> {
        Arc::new(
            KernelDesc::builder(name)
                .threads_per_tb(256)
                .regs_per_thread(32)
                .grid_tbs(64)
                .iterations(50)
                .body(vec![Op::alu(1, 10)])
                .build(),
        )
    }

    fn setup(nk: usize) -> (Vec<Sm>, Vec<KernelRuntime>, MemSystem, TbScheduler, PreemptConfig) {
        let cfg = GpuConfig::tiny();
        let sms: Vec<Sm> = (0..2).map(|i| Sm::new(SmId::new(i), &cfg)).collect();
        let kernels: Vec<KernelRuntime> =
            (0..nk).map(|i| KernelRuntime::new(desc(&format!("k{i}")))).collect();
        let mut sms = sms;
        for sm in &mut sms {
            for (i, kr) in kernels.iter().enumerate() {
                sm.set_kernel_desc(KernelId::new(i), kr.desc.clone());
            }
        }
        let sched = TbScheduler::new(2);
        (sms, kernels, MemSystem::new(cfg.mem), sched, cfg.preempt)
    }

    #[test]
    fn exclusive_fills_all_sms() {
        let (mut sms, mut kernels, mut mem, mut sched, pcfg) = setup(1);
        sched.service(0, &mut sms, &mut kernels, &mut mem, &pcfg);
        for sm in &sms {
            assert_eq!(sm.hosted_tbs(KernelId::new(0)), 8, "2048 threads / 256 per TB");
        }
    }

    #[test]
    fn smk_targets_bound_residency() {
        let (mut sms, mut kernels, mut mem, mut sched, pcfg) = setup(2);
        sched.set_mode(SharingMode::Smk);
        for si in 0..2 {
            sched.set_target(si, KernelId::new(0), 3);
            sched.set_target(si, KernelId::new(1), 2);
        }
        sched.service(0, &mut sms, &mut kernels, &mut mem, &pcfg);
        for sm in &sms {
            assert_eq!(sm.hosted_tbs(KernelId::new(0)), 3);
            assert_eq!(sm.hosted_tbs(KernelId::new(1)), 2);
        }
    }

    #[test]
    fn spatial_mode_respects_ownership() {
        let (mut sms, mut kernels, mut mem, mut sched, pcfg) = setup(2);
        sched.set_mode(SharingMode::Spatial);
        sched.set_owner(0, Some(KernelId::new(0)));
        sched.set_owner(1, Some(KernelId::new(1)));
        sched.service(0, &mut sms, &mut kernels, &mut mem, &pcfg);
        assert_eq!(sms[0].hosted_tbs(KernelId::new(0)), 8);
        assert_eq!(sms[0].hosted_tbs(KernelId::new(1)), 0);
        assert_eq!(sms[1].hosted_tbs(KernelId::new(1)), 8);
        assert_eq!(sms[1].hosted_tbs(KernelId::new(0)), 0);
    }

    #[test]
    fn lowering_target_triggers_preemption_and_requeue() {
        let (mut sms, mut kernels, mut mem, mut sched, pcfg) = setup(2);
        sched.set_mode(SharingMode::Smk);
        for si in 0..2 {
            sched.set_target(si, KernelId::new(0), 8);
            sched.set_target(si, KernelId::new(1), 0);
        }
        sched.service(0, &mut sms, &mut kernels, &mut mem, &pcfg);
        assert_eq!(sms[0].hosted_tbs(KernelId::new(0)), 8);
        // Now shrink kernel 0 to make room for kernel 1.
        for si in 0..2 {
            sched.set_target(si, KernelId::new(0), 4);
            sched.set_target(si, KernelId::new(1), 4);
        }
        // Run enough service passes + cycles for the saves to complete.
        for now in 0..20_000u64 {
            if now % 8 == 0 {
                sched.service(now, &mut sms, &mut kernels, &mut mem, &pcfg);
            }
            for sm in &mut sms {
                sm.step(now, &mut mem);
            }
        }
        for sm in &sms {
            assert!(sm.hosted_tbs(KernelId::new(0)) <= 4, "target enforced via preemption");
            assert_eq!(sm.hosted_tbs(KernelId::new(1)), 4);
            assert!(sm.preempt_stats().saves > 0);
        }
    }

    #[test]
    fn retired_time_mux_tag_no_longer_decodes() {
        // Tag 3 was kernel-granularity time multiplexing, a mode nothing but
        // its own tests selected; a stream that still carries it is refused.
        use crate::snap::{decode_from_slice, SnapError};
        assert_eq!(decode_from_slice::<SharingMode>(&[3]), Err(SnapError::Invalid("SharingMode")));
    }

    #[test]
    fn fresh_tb_indices_wrap_around_grid() {
        let (_, mut kernels, _, _, _) = setup(1);
        let grid = kernels[0].desc.grid_tbs();
        for expect in 0..grid * 2 {
            assert_eq!(kernels[0].next_fresh_tb(), TbIndex(expect % grid));
        }
    }

    #[test]
    fn launches_derived_from_completed_tbs() {
        let (_, mut kernels, _, _, _) = setup(1);
        let grid = u64::from(kernels[0].desc.grid_tbs());
        for _ in 0..grid + 3 {
            kernels[0].note_tb_completed();
        }
        assert_eq!(kernels[0].launches_completed(), 1);
        assert_eq!(kernels[0].tbs_completed(), grid + 3);
    }
}
