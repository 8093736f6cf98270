//! Aggregated simulation statistics.

use crate::types::{per_kernel, Cycle, KernelId, PerKernel};

/// Cumulative statistics for one kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStats {
    /// Thread-level instructions retired (the unit of quotas and IPC).
    pub thread_insts: u64,
    /// Warp-level instructions retired.
    pub warp_insts: u64,
    /// Thread blocks completed.
    pub tbs_completed: u64,
    /// Full grid executions completed (kernels re-execute when they finish
    /// before the simulation ends, as in the paper's methodology).
    pub launches_completed: u64,
}

impl KernelStats {
    /// Thread-level IPC over `cycles`.
    pub fn ipc(&self, cycles: Cycle) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.thread_insts as f64 / cycles as f64
        }
    }
}

/// Whole-GPU statistics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuStats {
    /// Simulated cycles so far.
    pub cycles: Cycle,
    /// Number of launched kernels.
    pub num_kernels: usize,
    kernels: PerKernel<KernelStats>,
}

impl GpuStats {
    pub(crate) fn new(cycles: Cycle, num_kernels: usize, kernels: PerKernel<KernelStats>) -> Self {
        GpuStats { cycles, num_kernels, kernels }
    }

    /// Statistics for kernel `k`.
    pub fn kernel(&self, k: KernelId) -> &KernelStats {
        &self.kernels[k.index()]
    }

    /// Thread-level IPC of kernel `k`.
    pub fn ipc(&self, k: KernelId) -> f64 {
        self.kernels[k.index()].ipc(self.cycles)
    }

    /// Total thread instructions across all kernels.
    pub fn total_thread_insts(&self) -> u64 {
        self.kernels[..self.num_kernels].iter().map(|k| k.thread_insts).sum()
    }
}

/// Per-epoch snapshot handed to the [`crate::Controller`].
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Epoch index (0 = the call before the first executed cycle).
    pub epoch: u64,
    /// Cycles covered by this epoch (0 for the initial call).
    pub cycles: Cycle,
    /// Thread instructions each kernel retired during the epoch.
    pub thread_insts: PerKernel<u64>,
}

impl EpochSnapshot {
    pub(crate) fn empty() -> Self {
        EpochSnapshot { epoch: 0, cycles: 0, thread_insts: per_kernel(|_| 0) }
    }

    /// Thread-level IPC of kernel `k` within the epoch.
    pub fn ipc(&self, k: KernelId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_insts[k.index()] as f64 / self.cycles as f64
        }
    }
}

crate::impl_snap_struct!(KernelStats {
    thread_insts,
    warp_insts,
    tbs_completed,
    launches_completed,
});

crate::impl_snap_struct!(EpochSnapshot { epoch, cycles, thread_insts });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_math() {
        let ks = KernelStats { thread_insts: 1000, ..Default::default() };
        assert!((ks.ipc(500) - 2.0).abs() < 1e-12);
        assert_eq!(ks.ipc(0), 0.0);
    }

    #[test]
    fn totals_only_cover_launched_kernels() {
        let mut kernels: PerKernel<KernelStats> = per_kernel(|_| KernelStats::default());
        kernels[0].thread_insts = 10;
        kernels[1].thread_insts = 20;
        kernels[2].thread_insts = 999; // not launched; must be ignored
        let s = GpuStats::new(10, 2, kernels);
        assert_eq!(s.total_thread_insts(), 30);
    }

    #[test]
    fn epoch_snapshot_ipc() {
        let mut snap = EpochSnapshot::empty();
        assert_eq!(snap.ipc(KernelId::new(0)), 0.0);
        snap.cycles = 100;
        snap.thread_insts[0] = 250;
        assert!((snap.ipc(KernelId::new(0)) - 2.5).abs() < 1e-12);
    }
}
