//! GPUWattch-style event-energy power model.
//!
//! Energy is accumulated per architectural event (instruction issue, cache
//! and DRAM accesses) plus per-cycle static power for busy/idle SMs. The
//! paper's Fig. 14 reports *relative* instructions-per-Watt, so the model
//! needs faithful utilisation sensitivity, not absolute Watts.
//!
//! Units are arbitrary energy units per event; only *relative*
//! instructions-per-Watt numbers are reported, so absolute calibration is
//! unnecessary.

use crate::gpu::Gpu;

/// Static energy per SM per cycle while the SM hosts at least one TB.
pub const SM_STATIC_PER_CYCLE: f64 = 1.0;
/// Idle (gated) energy per SM per cycle when the SM hosts no TB.
pub const SM_IDLE_PER_CYCLE: f64 = 0.3;
/// Energy per ALU thread-instruction.
pub const ALU_PER_THREAD_INST: f64 = 0.010;
/// Energy per SFU thread-instruction.
pub const SFU_PER_THREAD_INST: f64 = 0.040;
/// Energy per shared-memory thread-access.
pub const SMEM_PER_THREAD_ACCESS: f64 = 0.015;
/// Energy per L1 access (per transaction).
pub const L1_PER_ACCESS: f64 = 0.20;
/// Energy per L2 access (per transaction).
pub const L2_PER_ACCESS: f64 = 0.60;
/// Energy per DRAM access (per transaction).
pub const DRAM_PER_ACCESS: f64 = 2.50;

/// Energy totals by component, in the model's arbitrary energy units.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Static energy of busy SMs.
    pub sm_static: f64,
    /// Static energy of idle (TB-less) SMs.
    pub sm_idle: f64,
    /// ALU dynamic energy.
    pub alu: f64,
    /// SFU dynamic energy.
    pub sfu: f64,
    /// Shared-memory dynamic energy.
    pub smem: f64,
    /// L1 access energy.
    pub l1: f64,
    /// L2 access energy.
    pub l2: f64,
    /// DRAM access energy (including preemption context traffic).
    pub dram: f64,
}

impl EnergyBreakdown {
    /// Total energy.
    pub fn total(&self) -> f64 {
        self.sm_static
            + self.sm_idle
            + self.alu
            + self.sfu
            + self.smem
            + self.l1
            + self.l2
            + self.dram
    }
}

/// Computes the energy consumed by a simulation so far.
pub fn energy(gpu: &Gpu) -> EnergyBreakdown {
    let cycles = gpu.cycle() as f64;
    let mut e = EnergyBreakdown::default();

    for sm in gpu.sms() {
        let busy = sm.busy_cycles() as f64;
        e.sm_static += busy * SM_STATIC_PER_CYCLE;
        e.sm_idle += (cycles - busy).max(0.0) * SM_IDLE_PER_CYCLE;
        for k in 0..crate::MAX_KERNELS {
            let kid = crate::types::KernelId::new(k);
            e.alu += sm.alu_thread_insts(kid) as f64 * ALU_PER_THREAD_INST;
            e.sfu += sm.sfu_thread_insts(kid) as f64 * SFU_PER_THREAD_INST;
            e.smem += sm.smem_accesses(kid) as f64 * SMEM_PER_THREAD_ACCESS;
        }
    }

    let traffic = gpu.mem().traffic();
    for k in 0..crate::MAX_KERNELS {
        e.l1 += traffic.l1_accesses[k] as f64 * L1_PER_ACCESS;
        e.l2 += traffic.l2_accesses[k] as f64 * L2_PER_ACCESS;
        e.dram +=
            (traffic.dram_accesses[k] + traffic.context_transactions[k]) as f64 * DRAM_PER_ACCESS;
    }
    e
}

/// Instructions per energy unit — the Fig. 14 metric (instructions per Watt
/// equals instructions per energy when compared over equal durations).
pub fn insts_per_energy(gpu: &Gpu) -> f64 {
    let e = energy(gpu).total();
    if e <= 0.0 {
        0.0
    } else {
        gpu.stats().total_thread_insts() as f64 / e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::gpu::NullController;
    use crate::kernel::{KernelDesc, Op};

    fn compute_kernel() -> KernelDesc {
        KernelDesc::builder("c")
            .threads_per_tb(128)
            .grid_tbs(64)
            .iterations(100)
            .body(vec![Op::alu(2, 16)])
            .build()
    }

    #[test]
    fn energy_grows_with_time() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel());
        gpu.run(1_000, &mut NullController);
        let e1 = energy(&gpu).total();
        gpu.run(1_000, &mut NullController);
        let e2 = energy(&gpu).total();
        assert!(e2 > e1, "energy must accumulate: {e1} -> {e2}");
    }

    #[test]
    fn busy_gpu_burns_more_than_idle() {
        let mut idle = Gpu::new(GpuConfig::tiny());
        idle.run(1_000, &mut NullController);
        let mut busy = Gpu::new(GpuConfig::tiny());
        busy.launch(compute_kernel());
        busy.run(1_000, &mut NullController);
        assert!(energy(&busy).total() > energy(&idle).total());
    }

    #[test]
    fn insts_per_energy_positive_when_running() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel());
        gpu.run(2_000, &mut NullController);
        assert!(insts_per_energy(&gpu) > 0.0);
    }
}
