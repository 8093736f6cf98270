//! Partial context switch: cost model and saved-TB bookkeeping.
//!
//! SMK's *partial context switch* swaps kernel context in units of single
//! thread blocks, which is what makes fine-grained sharing adjustable at
//! run time. Saving a TB writes its live registers and shared memory to
//! device memory; restoring reads them back. Both occupy the TB's slot for
//! the transfer duration and consume DRAM bandwidth (modeled by
//! [`crate::memsys::MemSystem::inject_context_traffic`]).

use crate::config::PreemptConfig;
use crate::kernel::KernelDesc;
use crate::types::{Cycle, TbIndex};
use crate::warp::WarpProgress;

/// A preempted thread block waiting to be re-dispatched.
#[derive(Debug, Clone)]
pub struct SavedTb {
    /// Grid index of the saved TB.
    pub tb_index: TbIndex,
    /// Per-warp saved progress, in warp-within-TB order.
    pub warps: Vec<WarpProgress>,
}

impl SavedTb {
    /// Whether no saved warp has drawn more addresses than `clock` cycles
    /// allow (see [`crate::sm::Sm::seqs_behind`]).
    pub(crate) fn seqs_behind(&self, clock: Cycle) -> bool {
        self.warps.iter().all(|p| p.seq <= clock)
    }
}

/// Cycles to drain and save one TB of `desc` under `cfg`.
pub fn save_cycles(desc: &KernelDesc, cfg: &PreemptConfig) -> Cycle {
    Cycle::from(cfg.drain_cycles)
        + desc.context_bytes_per_tb().div_ceil(u64::from(cfg.context_bytes_per_cycle.max(1)))
}

/// Cycles to restore one TB of `desc` under `cfg`.
pub fn load_cycles(desc: &KernelDesc, cfg: &PreemptConfig) -> Cycle {
    desc.context_bytes_per_tb().div_ceil(u64::from(cfg.context_bytes_per_cycle.max(1)))
}

/// Aggregate preemption statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreemptStats {
    /// Number of TB context saves started.
    pub saves: u64,
    /// Number of saved TBs re-dispatched.
    pub resumes: u64,
    /// Total slot-occupied cycles spent saving or loading contexts.
    pub transfer_cycles: u64,
}

crate::impl_snap_struct!(SavedTb { tb_index, warps });

crate::impl_snap_struct!(PreemptStats { saves, resumes, transfer_cycles });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelDesc, Op};

    fn desc(regs: u32, smem: u64) -> KernelDesc {
        KernelDesc::builder("k")
            .threads_per_tb(256)
            .regs_per_thread(regs)
            .smem_per_tb(smem)
            .body(vec![Op::alu(1, 1)])
            .build()
    }

    #[test]
    fn save_cost_scales_with_context() {
        let cfg = PreemptConfig::default();
        let small = save_cycles(&desc(16, 0), &cfg);
        let big = save_cycles(&desc(64, 32 * 1024), &cfg);
        assert!(big > small);
        // 16 regs * 4 B * 256 thr = 16 KiB at 128 B/cyc = 128 cycles + drain.
        assert_eq!(small, u64::from(cfg.drain_cycles) + 128);
    }

    #[test]
    fn load_has_no_drain() {
        let cfg = PreemptConfig::default();
        assert_eq!(
            save_cycles(&desc(16, 0), &cfg) - load_cycles(&desc(16, 0), &cfg),
            u64::from(cfg.drain_cycles)
        );
    }

    #[test]
    fn zero_bandwidth_is_clamped() {
        let cfg = PreemptConfig { context_bytes_per_cycle: 0, drain_cycles: 0 };
        // Must not divide by zero.
        assert!(load_cycles(&desc(16, 0), &cfg) > 0);
    }
}
