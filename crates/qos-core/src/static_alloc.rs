//! Static resource allocation: initial symmetric TB placement and the
//! victim-selection rules for run-time TB adjustment (§3.6).

use gpu_sim::config::{MAX_TBS, MAX_THREADS, MAX_WARPS, REGISTER_FILE_BYTES, SHARED_MEM_BYTES};
use gpu_sim::{Gpu, KernelId, SmId};

use crate::goals::QosSpec;

/// The initial symmetric thread-block allocation plan.
///
/// Per §3.6: QoS kernels are distributed to *every* SM; the SMs are
/// partitioned equally among the non-QoS kernels; within each SM, resident
/// kernels receive equal thread shares.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialPlan {
    /// `targets[sm][kernel]` = TBs of `kernel` that SM `sm` should host.
    pub targets: Vec<Vec<u16>>,
}

/// Whether a per-SM target vector is jointly feasible: the summed demand of
/// `targets[k]` TBs per kernel fits every SM resource (threads, registers,
/// shared memory, warp slots, TB slots).
pub fn targets_feasible(gpu: &Gpu, targets: &[u16]) -> bool {
    let (mut threads, mut regs, mut smem, mut warps, mut tbs) = (0u64, 0u64, 0u64, 0u64, 0u64);
    for (k, &t) in targets.iter().enumerate() {
        let d = gpu.kernel_desc(KernelId::new(k));
        let t = u64::from(t);
        threads += t * u64::from(d.threads_per_tb());
        regs += t * d.regfile_bytes_per_tb();
        smem += t * d.smem_per_tb();
        warps += t * u64::from(d.warps_per_tb());
        tbs += t;
    }
    threads <= u64::from(MAX_THREADS)
        && regs <= REGISTER_FILE_BYTES
        && smem <= SHARED_MEM_BYTES
        && warps <= u64::from(MAX_WARPS)
        && tbs <= u64::from(MAX_TBS)
}

/// Shrinks an infeasible target vector until it fits, never below one TB.
///
/// Non-QoS kernels shed first (largest thread footprint first); QoS kernels
/// only shrink when the best-effort kernels are already at one TB — the
/// initial plan should never hand a QoS kernel less TLP than its fair share
/// just because a best-effort co-runner is register-hungry.
fn shrink_to_fit(gpu: &Gpu, specs: &[QosSpec], targets: &mut [u16]) {
    while !targets_feasible(gpu, targets) {
        let pick = |qos: bool| {
            targets
                .iter()
                .enumerate()
                .filter(|&(k, &t)| t > 1 && specs[k].is_qos() == qos)
                .max_by_key(|&(k, &t)| {
                    u64::from(t) * u64::from(gpu.kernel_desc(KernelId::new(k)).threads_per_tb())
                })
                .map(|(k, _)| k)
        };
        match pick(false).or_else(|| pick(true)) {
            Some(k) => targets[k] -= 1,
            None => break, // every kernel at 1 TB; give up (can_host still guards)
        }
    }
}

/// Computes the initial plan for the launched kernels of `gpu`.
///
/// # Panics
///
/// Panics if `specs.len()` differs from the number of launched kernels.
pub fn initial_plan(gpu: &Gpu, specs: &[QosSpec]) -> InitialPlan {
    let nk = gpu.num_kernels();
    assert_eq!(specs.len(), nk, "one spec per launched kernel");
    let num_sms = gpu.sms().len();

    let nonqos: Vec<usize> = (0..nk).filter(|&k| !specs[k].is_qos()).collect();
    // Partition SMs among non-QoS kernels (QoS kernels go everywhere). With
    // no non-QoS kernel every kernel goes everywhere.
    let owner_of_sm = |sm: usize| -> Option<usize> {
        if nonqos.is_empty() {
            None
        } else {
            Some(nonqos[sm * nonqos.len() / num_sms])
        }
    };

    let mut targets = vec![vec![0u16; nk]; num_sms];
    for (sm, row) in targets.iter_mut().enumerate() {
        let resident: Vec<usize> =
            (0..nk).filter(|&k| specs[k].is_qos() || owner_of_sm(sm) == Some(k)).collect();
        let share = MAX_THREADS / resident.len().max(1) as u32;
        for &k in &resident {
            let kid = KernelId::new(k);
            let desc = gpu.kernel_desc(kid);
            let by_share = (share / desc.threads_per_tb()).max(1);
            let cap = gpu.max_resident_tbs(kid);
            row[k] = by_share.min(cap) as u16;
        }
        // Equal thread shares can still over-subscribe registers or shared
        // memory; shrink until the set is jointly feasible.
        shrink_to_fit(gpu, specs, row);
    }
    InitialPlan { targets }
}

impl InitialPlan {
    /// Applies the plan to the GPU's TB targets.
    pub fn apply(&self, gpu: &mut Gpu) {
        for (sm, row) in self.targets.iter().enumerate() {
            for (k, &tbs) in row.iter().enumerate() {
                gpu.set_tb_target(SmId::new(sm), KernelId::new(k), tbs);
            }
        }
    }
}

/// One kernel's standing when hunting for a TB-adjustment victim on an SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VictimCandidate {
    /// Kernel slot index.
    pub kernel: usize,
    /// Whether the kernel has a QoS goal.
    pub is_qos: bool,
    /// Idle TBs of the kernel on this SM (idle warps / warps-per-TB).
    pub idle_tbs: u32,
    /// The kernel's cumulative IPC so far.
    pub history_ipc: f64,
    /// The kernel's IPC goal (QoS kernels only).
    pub goal_ipc: Option<f64>,
    /// Total TBs the kernel holds across the whole GPU (the paper's `N`).
    pub total_tbs: u32,
    /// TBs the kernel holds on this SM.
    pub hosted_here: u32,
}

impl VictimCandidate {
    /// Whether this kernel may lose `needed` TBs under the §3.6 rules:
    /// it is non-QoS, **or** it has at least `needed + 1` idle TBs, **or**
    /// it has enough IPC margin: `IPC_history × (1 − needed/N) > IPC_goal`.
    pub fn eligible(&self, needed: u32) -> bool {
        if self.hosted_here < needed.max(1) {
            return false;
        }
        if !self.is_qos {
            return true;
        }
        self.has_slack(needed)
    }

    /// Whether this kernel may lose `needed` TBs to a *non-QoS* grower.
    ///
    /// Stricter than [`VictimCandidate::eligible`]: every victim — QoS or
    /// not — must demonstrably have slack (idle TBs or IPC margin), so two
    /// best-effort kernels cannot steal the same TBs back and forth and a
    /// QoS kernel is never drained below what its goal needs.
    pub fn eligible_for_nonqos_growth(&self, needed: u32) -> bool {
        if self.hosted_here < needed.max(1) {
            return false;
        }
        if !self.is_qos {
            return self.idle_tbs > needed;
        }
        self.has_slack(needed)
    }

    fn has_slack(&self, needed: u32) -> bool {
        if self.idle_tbs > needed {
            return true;
        }
        match self.goal_ipc {
            Some(goal) if self.total_tbs > 0 => {
                let frac = 1.0 - f64::from(needed) / f64::from(self.total_tbs);
                self.history_ipc * frac > goal
            }
            _ => false,
        }
    }
}

/// Picks the victim kernel to shed `needed` TBs: non-QoS kernels first,
/// then the eligible kernel with the most idle TBs.
pub fn select_victim(candidates: &[VictimCandidate], needed: u32) -> Option<usize> {
    pick(candidates, |c| c.eligible(needed))
}

/// Victim selection for a non-QoS grower (strict slack rules; see
/// [`VictimCandidate::eligible_for_nonqos_growth`]).
pub fn select_victim_for_nonqos(candidates: &[VictimCandidate], needed: u32) -> Option<usize> {
    pick(candidates, |c| c.eligible_for_nonqos_growth(needed))
}

fn pick<F: Fn(&VictimCandidate) -> bool>(
    candidates: &[VictimCandidate],
    eligible: F,
) -> Option<usize> {
    candidates
        .iter()
        .filter(|c| eligible(c))
        .max_by(|a, b| {
            // Non-QoS beats QoS; ties broken by idle TBs, then hosted count.
            let rank = |c: &VictimCandidate| (u32::from(!c.is_qos), c.idle_tbs, c.hosted_here);
            rank(a).cmp(&rank(b))
        })
        .map(|c| c.kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::GpuConfig;

    fn gpu_with(kernels: &[&str]) -> Gpu {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        for name in kernels {
            gpu.launch(workloads::by_name(name).expect("known benchmark"));
        }
        gpu
    }

    #[test]
    fn pair_plan_is_symmetric() {
        let gpu = gpu_with(&["sgemm", "lbm"]);
        let specs = [QosSpec::qos(500.0), QosSpec::best_effort()];
        let plan = initial_plan(&gpu, &specs);
        assert_eq!(plan.targets.len(), 16);
        for row in &plan.targets {
            assert!(row[0] >= 1, "QoS kernel on every SM");
            assert!(row[1] >= 1, "single non-QoS kernel also everywhere");
        }
        // Equal thread shares (sgemm 4, lbm 8) over-subscribe the register
        // file; the plan must be shrunk to a jointly feasible set, and the
        // QoS kernel (sgemm) must keep its full fair share — the non-QoS
        // co-runner absorbs the shrinkage.
        assert!(targets_feasible(&gpu, &plan.targets[0]));
        assert_eq!(plan.targets[0][0], 4, "QoS kernel keeps its thread share");
        assert!((1..8).contains(&plan.targets[0][1]), "non-QoS kernel shrinks");
    }

    #[test]
    fn infeasible_targets_detected() {
        let gpu = gpu_with(&["sgemm", "lbm"]);
        assert!(targets_feasible(&gpu, &[2, 4]));
        assert!(!targets_feasible(&gpu, &[4, 8]), "384 KiB of registers in a 256 KiB file");
    }

    #[test]
    fn trio_partitions_nonqos_kernels() {
        let gpu = gpu_with(&["sgemm", "lbm", "spmv"]);
        let specs = [QosSpec::qos(500.0), QosSpec::best_effort(), QosSpec::best_effort()];
        let plan = initial_plan(&gpu, &specs);
        let lbm_sms = plan.targets.iter().filter(|r| r[1] > 0).count();
        let spmv_sms = plan.targets.iter().filter(|r| r[2] > 0).count();
        assert_eq!(lbm_sms, 8, "non-QoS kernels split the SMs");
        assert_eq!(spmv_sms, 8);
        for row in &plan.targets {
            assert!(row[0] >= 1, "QoS kernel everywhere");
            assert!(row[1] == 0 || row[2] == 0, "non-QoS partitions are disjoint");
        }
    }

    #[test]
    fn all_qos_trio_shares_every_sm() {
        let gpu = gpu_with(&["sgemm", "cutcp", "mri-q"]);
        let specs = [QosSpec::qos(1.0), QosSpec::qos(1.0), QosSpec::qos(1.0)];
        let plan = initial_plan(&gpu, &specs);
        for row in &plan.targets {
            assert!(row.iter().all(|&t| t >= 1));
        }
    }

    #[test]
    fn victim_prefers_nonqos() {
        let cands = [
            VictimCandidate {
                kernel: 0,
                is_qos: true,
                idle_tbs: 5,
                history_ipc: 1000.0,
                goal_ipc: Some(100.0),
                total_tbs: 64,
                hosted_here: 4,
            },
            VictimCandidate {
                kernel: 1,
                is_qos: false,
                idle_tbs: 0,
                history_ipc: 50.0,
                goal_ipc: None,
                total_tbs: 64,
                hosted_here: 4,
            },
        ];
        assert_eq!(select_victim(&cands, 1), Some(1));
    }

    #[test]
    fn qos_victim_needs_idle_tbs_or_margin() {
        let tight = VictimCandidate {
            kernel: 0,
            is_qos: true,
            idle_tbs: 1,
            history_ipc: 100.0,
            goal_ipc: Some(99.0),
            total_tbs: 64,
            hosted_here: 4,
        };
        assert!(!tight.eligible(1), "1 idle TB and ~no margin: protected");
        let idle = VictimCandidate { idle_tbs: 2, ..tight };
        assert!(idle.eligible(1), "n+1 idle TBs: eligible");
        let margin = VictimCandidate { history_ipc: 150.0, ..tight };
        assert!(margin.eligible(1), "150 * (1 - 1/64) > 99: eligible");
    }

    #[test]
    fn victim_requires_presence_on_sm() {
        let absent = VictimCandidate {
            kernel: 0,
            is_qos: false,
            idle_tbs: 0,
            history_ipc: 0.0,
            goal_ipc: None,
            total_tbs: 8,
            hosted_here: 0,
        };
        assert!(!absent.eligible(1));
        assert_eq!(select_victim(&[absent], 1), None);
    }

    #[test]
    fn plan_apply_round_trips() {
        let mut gpu = gpu_with(&["sgemm", "lbm"]);
        let specs = [QosSpec::qos(500.0), QosSpec::best_effort()];
        let plan = initial_plan(&gpu, &specs);
        plan.apply(&mut gpu);
        for sm in 0..16 {
            for k in 0..2 {
                assert_eq!(gpu.tb_target(SmId::new(sm), KernelId::new(k)), plan.targets[sm][k]);
            }
        }
    }
}
