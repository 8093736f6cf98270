//! Simulator configuration.
//!
//! [`GpuConfig::paper_table1`] reproduces Table 1 of the paper (the 16-SM
//! GTX-class configuration used for the main evaluation) and
//! [`GpuConfig::paper_56sm`] the 56-SM scalability configuration of §4.6.

use std::error::Error;
use std::fmt;

use crate::health::HealthConfig;
use crate::observe::TraceConfig;

/// Error returned by [`GpuConfig::validate`] describing the first violated
/// constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidConfig(String);

impl fmt::Display for InvalidConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for InvalidConfig {}

/// Per-SM static resource limits and issue configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SmConfig {
    /// Register file size in bytes (Table 1: 256 KB).
    pub register_file_bytes: u64,
    /// Shared memory (scratchpad) size in bytes (Table 1: 96 KB).
    pub shared_mem_bytes: u64,
    /// Maximum resident threads (Table 1: 2048).
    pub max_threads: u32,
    /// Maximum resident thread blocks (Table 1: 32).
    pub max_tbs: u32,
    /// Number of warp schedulers, each issuing one warp instruction per cycle
    /// (Table 1: 4). Each is greedy-then-oldest, the Table 1 policy.
    pub warp_schedulers: u32,
}

impl Default for SmConfig {
    fn default() -> Self {
        SmConfig {
            register_file_bytes: 256 * 1024,
            shared_mem_bytes: 96 * 1024,
            max_threads: 2048,
            max_tbs: 32,
            warp_schedulers: 4,
        }
    }
}

impl SmConfig {
    /// Maximum resident warps (`max_threads / 32`).
    pub fn max_warps(&self) -> u32 {
        self.max_threads / crate::WARP_SIZE
    }
}

/// Memory hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of memory controllers / L2 slices / DRAM channels (Table 1: 4).
    pub num_mcs: u32,
    /// Per-SM L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Per-MC L2 slice size in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: u32,
    /// L1 hit latency in core cycles.
    pub l1_hit_latency: u32,
    /// Interconnect (SM ↔ MC crossbar) one-way latency in cycles.
    pub xbar_latency: u32,
    /// L2 hit latency in cycles (on top of the crossbar).
    pub l2_hit_latency: u32,
    /// DRAM access latency in cycles (row access, on top of L2 miss path).
    pub dram_latency: u32,
    /// Cycles each L2 slice needs to service one transaction (inverse L2
    /// bandwidth per slice).
    pub l2_service_cycles: u32,
    /// Cycles each DRAM channel needs to service one transaction (inverse
    /// DRAM bandwidth per channel).
    pub dram_service_cycles: u32,
    /// Maximum outstanding-miss-induced queue depth modeled per channel, in
    /// cycles of accumulated backlog; beyond this the queue saturates and
    /// further requests see the saturated delay. Keeps pathological backlogs
    /// from growing without bound.
    pub max_queue_backlog: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            num_mcs: 4,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_bytes: 512 * 1024,
            l2_ways: 8,
            line_bytes: 32,
            l1_hit_latency: 28,
            xbar_latency: 8,
            l2_hit_latency: 96,
            dram_latency: 220,
            l2_service_cycles: 1,
            dram_service_cycles: 1,
            max_queue_backlog: 2_000,
        }
    }
}

/// GPUWattch-style event-energy model parameters.
///
/// Units are arbitrary energy units per event; only *relative*
/// instructions-per-Watt numbers are reported (Fig. 14), so absolute
/// calibration is unnecessary.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Static energy per SM per cycle while the SM hosts at least one TB.
    pub sm_static_per_cycle: f64,
    /// Idle (gated) energy per SM per cycle when the SM hosts no TB.
    pub sm_idle_per_cycle: f64,
    /// Energy per ALU thread-instruction.
    pub alu_per_thread_inst: f64,
    /// Energy per SFU thread-instruction.
    pub sfu_per_thread_inst: f64,
    /// Energy per shared-memory thread-access.
    pub smem_per_thread_access: f64,
    /// Energy per L1 access (per transaction).
    pub l1_per_access: f64,
    /// Energy per L2 access (per transaction).
    pub l2_per_access: f64,
    /// Energy per DRAM access (per transaction).
    pub dram_per_access: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            sm_static_per_cycle: 1.0,
            sm_idle_per_cycle: 0.3,
            alu_per_thread_inst: 0.010,
            sfu_per_thread_inst: 0.040,
            smem_per_thread_access: 0.015,
            l1_per_access: 0.20,
            l2_per_access: 0.60,
            dram_per_access: 2.50,
        }
    }
}

/// Preemption (partial context switch) cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct PreemptConfig {
    /// Context store/load bandwidth in bytes per cycle per SM.
    ///
    /// A TB's context is its live registers plus shared memory; saving or
    /// restoring it occupies the TB's slot for `context_bytes / bandwidth`
    /// cycles (SMK reports most of this overlaps with other TBs' execution).
    pub context_bytes_per_cycle: u32,
    /// Fixed pipeline-drain cycles added to every context save.
    pub drain_cycles: u32,
}

impl Default for PreemptConfig {
    fn default() -> Self {
        PreemptConfig { context_bytes_per_cycle: 128, drain_cycles: 100 }
    }
}

/// Top-level simulator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in MHz — used only when converting IPC goals to wall-clock
    /// rates for reporting (Table 1: 1216 MHz).
    pub core_mhz: u32,
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Power model parameters.
    pub power: PowerConfig,
    /// Preemption cost model.
    pub preempt: PreemptConfig,
    /// Epoch length in cycles for controller invocations (paper §4.1: 10 K).
    pub epoch_cycles: u64,
    /// Idle-warp sampling points per epoch (paper §4.1: 100).
    pub samples_per_epoch: u32,
    /// Health layer: forward-progress watchdog and epoch-boundary invariant
    /// audits. Disabled by default (zero overhead, identical behavior).
    pub health: HealthConfig,
    /// Idle-cycle fast-forward: when no warp on any SM can issue, the run
    /// loop jumps to the earliest event horizon instead of ticking every
    /// cycle (see DESIGN.md §3, "Fast-forward and event horizons"). Results
    /// are bit-identical to naive stepping; set `false` to force the naive
    /// per-cycle loop (the differential oracle in `tests/properties.rs`
    /// compares both paths).
    pub fast_forward: bool,
    /// Flight-recorder configuration (DESIGN.md §12): the event-trace level.
    /// Off by default; at `Off` the only simulated-path cost
    /// is one branch on a cached flag.
    pub trace: TraceConfig,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::paper_table1()
    }
}

impl GpuConfig {
    /// The paper's main configuration (Table 1): 16 SMs, 4 MCs, GTO,
    /// 4 warp schedulers per SM.
    pub fn paper_table1() -> Self {
        GpuConfig {
            num_sms: 16,
            core_mhz: 1216,
            sm: SmConfig::default(),
            mem: MemConfig::default(),
            power: PowerConfig::default(),
            preempt: PreemptConfig::default(),
            epoch_cycles: 10_000,
            samples_per_epoch: 100,
            health: HealthConfig::default(),
            fast_forward: true,
            trace: TraceConfig::default(),
        }
    }

    /// The §4.6 scalability configuration: 56 SMs, each with two warp
    /// schedulers; other parameters as in Table 1.
    pub fn paper_56sm() -> Self {
        let mut cfg = GpuConfig::paper_table1();
        cfg.num_sms = 56;
        cfg.sm.warp_schedulers = 2;
        // More SMs share the same four memory channels in the paper's setup;
        // keep the memory system identical so the experiment isolates SM count.
        cfg
    }

    /// A reduced configuration for fast unit tests: 2 SMs, small caches.
    pub fn tiny() -> Self {
        let mut cfg = GpuConfig::paper_table1();
        cfg.num_sms = 2;
        cfg.mem.num_mcs = 2;
        cfg.mem.l1_bytes = 4 * 1024;
        cfg.mem.l2_bytes = 32 * 1024;
        cfg.epoch_cycles = 1_000;
        cfg.samples_per_epoch = 10;
        cfg
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as an [`InvalidConfig`].
    pub fn validate(&self) -> Result<(), InvalidConfig> {
        let fail = |msg: &str| Err(InvalidConfig(msg.to_string()));
        if self.num_sms == 0 {
            return fail("num_sms must be positive");
        }
        if self.mem.num_mcs == 0 {
            return fail("num_mcs must be positive");
        }
        if !self.mem.line_bytes.is_power_of_two() {
            return fail("line_bytes must be a power of two");
        }
        if !self.sm.max_threads.is_multiple_of(crate::WARP_SIZE) {
            return fail("max_threads must be a multiple of the warp size");
        }
        // Every per-SM slot mask is one `u64` (DESIGN.md §18.1).
        if self.sm.max_warps() > crate::sm::MAX_SLOTS as u32 {
            return fail("max_threads must be at most 64 warps");
        }
        if self.sm.max_tbs > crate::sm::MAX_SLOTS as u32 {
            return fail("max_tbs must be at most 64");
        }
        if self.sm.warp_schedulers == 0 {
            return fail("warp_schedulers must be positive");
        }
        if self.epoch_cycles == 0 {
            return fail("epoch_cycles must be positive");
        }
        if self.samples_per_epoch == 0 || u64::from(self.samples_per_epoch) > self.epoch_cycles {
            return fail("samples_per_epoch must be in 1..=epoch_cycles");
        }
        if !self.mem.l1_bytes.is_multiple_of(u64::from(self.mem.line_bytes * self.mem.l1_ways)) {
            return fail("l1_bytes must be divisible by line_bytes * l1_ways");
        }
        if !self.mem.l2_bytes.is_multiple_of(u64::from(self.mem.line_bytes * self.mem.l2_ways)) {
            return fail("l2_bytes must be divisible by line_bytes * l2_ways");
        }
        // A cache line word keeps its tag in 32 bits (`cache.rs`), and the
        // simulated address space is one region per kernel slot.
        let space = crate::kernel::KernelDesc::base_addr(crate::MAX_KERNELS);
        let top_block = (space - 1) / u64::from(self.mem.line_bytes);
        let caches = [(self.mem.l1_bytes, self.mem.l1_ways), (self.mem.l2_bytes, self.mem.l2_ways)];
        for (bytes, ways) in caches {
            let set_bytes = u64::from(self.mem.line_bytes) * u64::from(ways);
            let sets = bytes.checked_div(set_bytes).unwrap_or(0);
            if sets == 0 || top_block / sets > u64::from(u32::MAX) {
                return fail("every cache needs enough sets that a tag fits 32 bits");
            }
        }
        Ok(())
    }

    /// Stable 64-bit fingerprint of this configuration (FNV-1a over the
    /// Snap encoding). Two configurations fingerprint equal iff every field
    /// matches, and only then does a snapshot taken on one restore on the
    /// other. A fault plan is machine state ([`crate::Gpu::set_fault_plan`]),
    /// so machines that differ only in their scheduled faults fingerprint
    /// equal: that is a fleet's migration class.
    pub fn fingerprint(&self) -> u64 {
        crate::snap::fnv1a(&crate::snap::encode_to_vec(self))
    }
}

crate::impl_snap_struct!(SmConfig {
    register_file_bytes,
    shared_mem_bytes,
    max_threads,
    max_tbs,
    warp_schedulers,
});

crate::impl_snap_struct!(MemConfig {
    num_mcs,
    l1_bytes,
    l1_ways,
    l2_bytes,
    l2_ways,
    line_bytes,
    l1_hit_latency,
    xbar_latency,
    l2_hit_latency,
    dram_latency,
    l2_service_cycles,
    dram_service_cycles,
    max_queue_backlog,
});

crate::impl_snap_struct!(PowerConfig {
    sm_static_per_cycle,
    sm_idle_per_cycle,
    alu_per_thread_inst,
    sfu_per_thread_inst,
    smem_per_thread_access,
    l1_per_access,
    l2_per_access,
    dram_per_access,
});

crate::impl_snap_struct!(PreemptConfig { context_bytes_per_cycle, drain_cycles });

crate::impl_snap_struct!(GpuConfig {
    num_sms,
    core_mhz,
    sm,
    mem,
    power,
    preempt,
    epoch_cycles,
    samples_per_epoch,
    health,
    fast_forward,
    trace,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let cfg = GpuConfig::paper_table1();
        assert_eq!(cfg.num_sms, 16);
        assert_eq!(cfg.mem.num_mcs, 4);
        assert_eq!(cfg.core_mhz, 1216);
        assert_eq!(cfg.sm.register_file_bytes, 256 * 1024);
        assert_eq!(cfg.sm.shared_mem_bytes, 96 * 1024);
        assert_eq!(cfg.sm.max_threads, 2048);
        assert_eq!(cfg.sm.max_tbs, 32);
        assert_eq!(cfg.sm.warp_schedulers, 4);
        assert_eq!(cfg.epoch_cycles, 10_000);
        assert_eq!(cfg.samples_per_epoch, 100);
        cfg.validate().expect("paper config must validate");
    }

    #[test]
    fn fiftysix_sm_config() {
        let cfg = GpuConfig::paper_56sm();
        assert_eq!(cfg.num_sms, 56);
        assert_eq!(cfg.sm.warp_schedulers, 2);
        cfg.validate().expect("56-SM config must validate");
    }

    #[test]
    fn tiny_validates() {
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn max_warps_derived_from_threads() {
        assert_eq!(SmConfig::default().max_warps(), 64);
    }

    #[test]
    fn validate_rejects_a_65th_warp_slot() {
        let mut cfg = GpuConfig::paper_table1();
        cfg.sm.max_threads = 2080;
        let err = InvalidConfig("max_threads must be at most 64 warps".into());
        assert_eq!(cfg.validate(), Err(err));
    }

    #[test]
    fn validate_rejects_a_65th_tb_slot() {
        let mut cfg = GpuConfig::paper_table1();
        cfg.sm.max_tbs = 65;
        assert_eq!(cfg.validate(), Err(InvalidConfig("max_tbs must be at most 64".into())));
        cfg.sm.max_tbs = 64;
        cfg.validate().expect("64 TB slots fill the word");
    }

    #[test]
    fn validate_rejects_zero_sms() {
        let mut cfg = GpuConfig::paper_table1();
        cfg.num_sms = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_pow2_line() {
        let mut cfg = GpuConfig::paper_table1();
        cfg.mem.line_bytes = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_a_tag_wider_than_a_line_word() {
        // The top address is 2^36 - 1: its tag fits 32 bits only with
        // line_bytes * sets >= 16.
        let mut cfg = GpuConfig::tiny();
        (cfg.mem.line_bytes, cfg.mem.l1_ways, cfg.mem.l1_bytes) = (1, 1, 16);
        (cfg.mem.l2_ways, cfg.mem.l2_bytes) = (1, 16);
        cfg.validate().expect("16 one-byte sets leave a 32-bit tag");
        cfg.mem.l2_bytes = 8;
        assert!(cfg.validate().is_err(), "8 one-byte sets leave a 33-bit tag");
        cfg.mem.l2_bytes = 0;
        assert!(cfg.validate().is_err(), "a cache needs a set");
    }

    #[test]
    fn health_layer_is_off_by_default() {
        let cfg = GpuConfig::paper_table1();
        assert_eq!(cfg.health, HealthConfig::default());
        assert!(crate::Gpu::new(cfg).fault_plan().is_empty());
    }

    #[test]
    fn validate_rejects_bad_sampling() {
        let mut cfg = GpuConfig::paper_table1();
        cfg.samples_per_epoch = 0;
        assert!(cfg.validate().is_err());
        cfg.samples_per_epoch = 20_000;
        assert!(cfg.validate().is_err());
    }
}
