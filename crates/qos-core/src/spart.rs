//! The coarse-grained baseline: spatial partitioning with hill climbing
//! (`Spart`, after Aguilera et al. \[3\]).
//!
//! Each kernel owns a disjoint set of SMs. Once per epoch the controller
//! takes one hill-climbing step: a lagging QoS kernel steals an SM from the
//! donor with the most headroom; a comfortably-over-goal QoS kernel returns
//! an SM to the non-QoS kernels. The tuning granularity is a whole SM —
//! exactly the coarseness the paper's fine-grained design removes.

use gpu_sim::{Controller, Gpu, KernelId, SmId};

use crate::goals::QosSpec;

/// Relative headroom a QoS kernel must keep after losing one SM for it to
/// qualify as a donor (hysteresis against oscillation).
const RELEASE_MARGIN: f64 = 1.05;

/// Spatial-partitioning QoS controller (the paper's `Spart`).
#[derive(Debug, Clone)]
pub struct SpartController {
    specs: Vec<QosSpec>,
    initialized: bool,
    cum_insts: Vec<u64>,
    cum_cycles: u64,
}

impl SpartController {
    /// Creates a controller with no kernels declared yet.
    pub fn new() -> Self {
        SpartController {
            specs: Vec::new(),
            initialized: false,
            cum_insts: Vec::new(),
            cum_cycles: 0,
        }
    }

    /// Declares the QoS spec of kernel `k` (defaults to best-effort).
    pub fn with_kernel(mut self, k: KernelId, spec: QosSpec) -> Self {
        if self.specs.len() <= k.index() {
            self.specs.resize(k.index() + 1, QosSpec::best_effort());
        }
        self.specs[k.index()] = spec;
        self
    }

    /// The kernel's cumulative IPC as tracked by the controller.
    pub fn history_ipc(&self, k: KernelId) -> f64 {
        if self.cum_cycles == 0 {
            0.0
        } else {
            self.cum_insts.get(k.index()).copied().unwrap_or(0) as f64 / self.cum_cycles as f64
        }
    }

    /// Number of SMs currently owned by kernel `k`.
    pub fn sms_of(&self, gpu: &Gpu, k: KernelId) -> usize {
        gpu.sm_ids().filter(|&sm| gpu.sm_owner(sm) == Some(k)).count()
    }

    fn init(&mut self, gpu: &mut Gpu) {
        let nk = gpu.num_kernels();
        if self.specs.len() < nk {
            self.specs.resize(nk, QosSpec::best_effort());
        }
        self.cum_insts = vec![0; nk];
        gpu.set_sharing_mode(gpu_sim::SharingMode::Spatial);
        // Even initial split, block-wise so each kernel's SMs are contiguous.
        let num_sms = gpu.sms().len();
        for si in 0..num_sms {
            let k = si * nk / num_sms;
            gpu.set_sm_owner(SmId::new(si), Some(KernelId::new(k)));
        }
        self.initialized = true;
    }

    /// Reassigns one SM from `from` to `to`; picks the highest-indexed SM of
    /// the donor. Returns whether a move happened.
    fn move_sm(&self, gpu: &mut Gpu, from: KernelId, to: KernelId) -> bool {
        let victim_sm = gpu.sm_ids().filter(|&sm| gpu.sm_owner(sm) == Some(from)).last();
        match victim_sm {
            Some(sm) => {
                gpu.set_sm_owner(sm, Some(to));
                true
            }
            None => false,
        }
    }

    /// One hill-climbing step (§2.3 / [3]): helps the most-lagging QoS
    /// kernel, or releases capacity from an over-achieving one.
    fn climb(&mut self, gpu: &mut Gpu) {
        let nk = gpu.num_kernels();
        let sms_of: Vec<usize> = (0..nk).map(|k| self.sms_of(gpu, KernelId::new(k))).collect();

        // Most-lagging QoS kernel by relative deficit.
        let lagging = (0..nk)
            .filter_map(|k| {
                let goal = self.specs[k].goal_ipc()?;
                let ipc = self.history_ipc(KernelId::new(k));
                (ipc < goal).then_some((k, ipc / goal))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1));

        if let Some((needy, _)) = lagging {
            // Donor: the non-QoS kernel with the most SMs (keeping ≥ 1), else
            // a QoS kernel that stays above goal after losing one SM.
            let donor = (0..nk)
                .filter(|&k| k != needy && !self.specs[k].is_qos() && sms_of[k] > 1)
                .max_by_key(|&k| sms_of[k])
                .or_else(|| {
                    (0..nk).find(|&k| {
                        if k == needy || !self.specs[k].is_qos() || sms_of[k] < 2 {
                            return false;
                        }
                        let goal = self.specs[k].goal_ipc().expect("QoS kernel has goal");
                        let s = sms_of[k] as f64;
                        self.history_ipc(KernelId::new(k)) * (s - 1.0) / s > goal * RELEASE_MARGIN
                    })
                });
            if let Some(donor) = donor {
                self.move_sm(gpu, KernelId::new(donor), KernelId::new(needy));
            }
            return;
        }

        // All QoS goals met: return surplus SMs to the non-QoS kernels.
        let Some(beneficiary) =
            (0..nk).filter(|&k| !self.specs[k].is_qos()).min_by_key(|&k| sms_of[k])
        else {
            return;
        };
        let generous = (0..nk).find(|&k| {
            if !self.specs[k].is_qos() || sms_of[k] < 2 {
                return false;
            }
            let goal = self.specs[k].goal_ipc().expect("QoS kernel has goal");
            let s = sms_of[k] as f64;
            self.history_ipc(KernelId::new(k)) * (s - 1.0) / s > goal * RELEASE_MARGIN
        });
        if let Some(generous) = generous {
            self.move_sm(gpu, KernelId::new(generous), KernelId::new(beneficiary));
        }
    }
}

impl Default for SpartController {
    fn default() -> Self {
        SpartController::new()
    }
}

impl Controller for SpartController {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        if !self.initialized {
            self.init(gpu);
        }
        if epoch > 0 {
            let snap = gpu.epoch_snapshot();
            self.cum_cycles += snap.cycles;
            for (k, cum) in self.cum_insts.iter_mut().enumerate() {
                *cum += snap.thread_insts[k];
            }
            self.climb(gpu);
        }
    }
}

gpu_sim::impl_snap_struct!(SpartController { specs, initialized, cum_insts, cum_cycles });

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, NullController};

    fn isolated_ipc(name: &str, cycles: u64) -> f64 {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let k = gpu.launch(workloads::by_name(name).expect("known"));
        gpu.run(cycles, &mut NullController);
        gpu.stats().ipc(k)
    }

    #[test]
    fn initial_split_is_even() {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let a = gpu.launch(workloads::by_name("sgemm").unwrap());
        let b = gpu.launch(workloads::by_name("lbm").unwrap());
        let mut ctrl = SpartController::new()
            .with_kernel(a, QosSpec::qos(100.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(1, &mut ctrl);
        assert_eq!(ctrl.sms_of(&gpu, a), 8);
        assert_eq!(ctrl.sms_of(&gpu, b), 8);
    }

    #[test]
    fn lagging_qos_kernel_gains_sms() {
        let iso = isolated_ipc("sgemm", 40_000);
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("sgemm").unwrap());
        let b = gpu.launch(workloads::by_name("lbm").unwrap());
        // 90% of isolated IPC is impossible on 8 of 16 SMs; the hill climber
        // must shift SMs toward the QoS kernel.
        let mut ctrl = SpartController::new()
            .with_kernel(q, QosSpec::qos(0.9 * iso))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(120_000, &mut ctrl);
        assert!(
            ctrl.sms_of(&gpu, q) > 8,
            "QoS kernel should have gained SMs, has {}",
            ctrl.sms_of(&gpu, q)
        );
        assert!(ctrl.sms_of(&gpu, b) >= 1, "donor keeps at least one SM");
    }

    #[test]
    fn modest_goal_leaves_sms_with_nonqos() {
        let iso = isolated_ipc("sgemm", 40_000);
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("sgemm").unwrap());
        let b = gpu.launch(workloads::by_name("lbm").unwrap());
        let mut ctrl = SpartController::new()
            .with_kernel(q, QosSpec::qos(0.3 * iso))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(120_000, &mut ctrl);
        assert!(
            ctrl.sms_of(&gpu, b) >= 8,
            "easy goal: non-QoS keeps (or gains) its half, has {}",
            ctrl.sms_of(&gpu, b)
        );
    }

    #[test]
    fn donor_never_loses_its_last_sm() {
        // An impossible goal makes the QoS kernel steal every epoch; the
        // non-QoS kernel must still keep one SM.
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("spmv").unwrap());
        let b = gpu.launch(workloads::by_name("lbm").unwrap());
        let mut ctrl = SpartController::new()
            .with_kernel(q, QosSpec::qos(100_000.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(200_000, &mut ctrl);
        assert!(ctrl.sms_of(&gpu, b) >= 1, "hill climbing must not evict the last SM");
        assert_eq!(ctrl.sms_of(&gpu, q) + ctrl.sms_of(&gpu, b), 16);
    }

    #[test]
    fn two_qos_kernels_split_by_need() {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let a = gpu.launch(workloads::by_name("sgemm").unwrap());
        let b = gpu.launch(workloads::by_name("mri-q").unwrap());
        let c = gpu.launch(workloads::by_name("lbm").unwrap());
        let mut ctrl = SpartController::new()
            .with_kernel(a, QosSpec::qos(400.0))
            .with_kernel(b, QosSpec::qos(400.0))
            .with_kernel(c, QosSpec::best_effort());
        gpu.run(100_000, &mut ctrl);
        for k in [a, b, c] {
            assert!(ctrl.sms_of(&gpu, k) >= 1, "every kernel keeps at least one SM");
        }
    }

    #[test]
    fn spart_does_not_gate_quotas() {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("sgemm").unwrap());
        let b = gpu.launch(workloads::by_name("lbm").unwrap());
        let mut ctrl = SpartController::new()
            .with_kernel(q, QosSpec::qos(10.0))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(30_000, &mut ctrl);
        // Even with a trivial goal the QoS kernel is free to exceed it —
        // Spart has no per-cycle throttle (that's Fig. 9's overshoot story).
        assert!(gpu.stats().ipc(q) > 100.0);
    }
}
