//! Simulator configuration.
//!
//! [`GpuConfig::paper_table1`] reproduces Table 1 of the paper (the 16-SM
//! GTX-class configuration used for the main evaluation) and
//! [`GpuConfig::paper_56sm`] the 56-SM scalability configuration of §4.6.

use std::error::Error;
use std::fmt;

use crate::health::HealthConfig;
use crate::observe::TraceLevel;

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

/// Core clock in MHz (Table 1: 1216 MHz): used only when converting IPC
/// goals to wall-clock rates for reporting.
pub const CORE_MHZ: u32 = 1216;

/// Register file size per SM in bytes (Table 1: 256 KB).
pub const REGISTER_FILE_BYTES: u64 = 256 * 1024;

/// Shared memory (scratchpad) size per SM in bytes (Table 1: 96 KB).
pub const SHARED_MEM_BYTES: u64 = 96 * 1024;

/// Maximum resident threads per SM (Table 1: 2048).
pub const MAX_THREADS: u32 = 2048;

/// Maximum resident thread blocks per SM (Table 1: 32).
pub const MAX_TBS: u32 = 32;

/// Maximum resident warps per SM (`MAX_THREADS / WARP_SIZE`).
pub const MAX_WARPS: u32 = MAX_THREADS / crate::WARP_SIZE;

// Every per-SM slot mask is one `u64` (DESIGN.md §18.1).
const _: () = assert!(MAX_THREADS.is_multiple_of(crate::WARP_SIZE));
const _: () = assert!(MAX_WARPS as usize <= crate::sm::MAX_SLOTS);
const _: () = assert!(MAX_TBS as usize <= crate::sm::MAX_SLOTS);

/// L2 associativity.
pub const L2_WAYS: u32 = 8;

/// L1 hit latency in core cycles.
pub const L1_HIT_LATENCY: u32 = 28;

/// Interconnect (SM ↔ MC crossbar) one-way latency in cycles.
pub const XBAR_LATENCY: u32 = 8;

/// L2 hit latency in cycles (on top of the crossbar).
pub const L2_HIT_LATENCY: u32 = 96;

/// DRAM access latency in cycles (row access, on top of the L2 miss path).
pub const DRAM_LATENCY: u32 = 220;

/// Cycles each L2 slice needs to service one transaction (inverse L2
/// bandwidth per slice).
pub const L2_SERVICE_CYCLES: u32 = 1;

/// Memory hierarchy configuration. The fixed latencies, the L2's ways and
/// its service rate are constants ([`L1_HIT_LATENCY`] and beside it);
/// `l1_ways`, `line_bytes`, `dram_service_cycles` and `max_queue_backlog`
/// have one value too but stay fields, because the benchmark's standalone
/// memory drives read them from here.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of memory controllers / L2 slices / DRAM channels (Table 1: 4).
    pub num_mcs: u32,
    /// Per-SM L1 data cache size in bytes.
    pub l1_bytes: u64,
    /// L1 associativity (one value; a field because the benchmark reads it).
    pub l1_ways: u32,
    /// Per-MC L2 slice size in bytes.
    pub l2_bytes: u64,
    /// Cache line / memory transaction size in bytes (one value; a field
    /// because the benchmark reads it).
    pub line_bytes: u32,
    /// Cycles each DRAM channel needs to service one transaction (inverse
    /// DRAM bandwidth per channel; one value, a field because the benchmark
    /// reads it).
    pub dram_service_cycles: u32,
    /// Maximum outstanding-miss-induced queue depth modeled per channel, in
    /// cycles of accumulated backlog; beyond this the queue saturates and
    /// further requests see the saturated delay. Keeps pathological backlogs
    /// from growing without bound (one value; a field because the benchmark
    /// reads it).
    pub max_queue_backlog: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            num_mcs: 4,
            l1_bytes: 32 * 1024,
            l1_ways: 4,
            l2_bytes: 512 * 1024,
            line_bytes: 32,
            dram_service_cycles: 1,
            max_queue_backlog: 2_000,
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
    /// Warp schedulers per SM, each issuing one warp instruction per cycle
    /// (Table 1: 4; §4.6's 56-SM machine: 2). Each is greedy-then-oldest,
    /// the Table 1 policy.
    pub warp_schedulers: u32,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
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
    /// Flight-recorder level (DESIGN.md §12). Off by default; at `Off` the
    /// only simulated-path cost is one branch on a cached flag.
    pub trace: TraceLevel,
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
            warp_schedulers: 4,
            mem: MemConfig::default(),
            preempt: PreemptConfig::default(),
            epoch_cycles: 10_000,
            samples_per_epoch: 100,
            health: HealthConfig::default(),
            fast_forward: true,
            trace: TraceLevel::Off,
        }
    }

    /// The §4.6 scalability configuration: 56 SMs, each with two warp
    /// schedulers; other parameters as in Table 1.
    pub fn paper_56sm() -> Self {
        let mut cfg = GpuConfig::paper_table1();
        cfg.num_sms = 56;
        cfg.warp_schedulers = 2;
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

    /// Cycles between two idle-warp sample points: the epoch split
    /// `samples_per_epoch` ways, rounded down (the points are the multiples
    /// of it, so they need not divide the epoch).
    pub(crate) fn sample_interval(&self) -> u64 {
        (self.epoch_cycles / u64::from(self.samples_per_epoch)).max(1)
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
        if self.warp_schedulers == 0 {
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
        if !self.mem.l2_bytes.is_multiple_of(u64::from(self.mem.line_bytes * L2_WAYS)) {
            return fail("l2_bytes must be divisible by line_bytes * L2_WAYS");
        }
        // A cache line word keeps its tag in 32 bits (`cache.rs`), and the
        // simulated address space is one region per kernel slot.
        let space = crate::kernel::KernelDesc::base_addr(crate::MAX_KERNELS);
        let top_block = (space - 1) / u64::from(self.mem.line_bytes);
        let caches = [(self.mem.l1_bytes, self.mem.l1_ways), (self.mem.l2_bytes, L2_WAYS)];
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

crate::impl_snap_struct!(MemConfig {
    num_mcs,
    l1_bytes,
    l1_ways,
    l2_bytes,
    line_bytes,
    dram_service_cycles,
    max_queue_backlog,
});

crate::impl_snap_struct!(PreemptConfig { context_bytes_per_cycle, drain_cycles });

crate::impl_snap_struct!(GpuConfig {
    num_sms,
    warp_schedulers,
    mem,
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
        assert_eq!(CORE_MHZ, 1216);
        assert_eq!(REGISTER_FILE_BYTES, 256 * 1024);
        assert_eq!(SHARED_MEM_BYTES, 96 * 1024);
        assert_eq!(MAX_THREADS, 2048);
        assert_eq!(MAX_TBS, 32);
        assert_eq!(cfg.warp_schedulers, 4);
        assert_eq!(cfg.epoch_cycles, 10_000);
        assert_eq!(cfg.samples_per_epoch, 100);
        cfg.validate().expect("paper config must validate");
    }

    #[test]
    fn fiftysix_sm_config() {
        let cfg = GpuConfig::paper_56sm();
        assert_eq!(cfg.num_sms, 56);
        assert_eq!(cfg.warp_schedulers, 2);
        cfg.validate().expect("56-SM config must validate");
    }

    #[test]
    fn tiny_validates() {
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn max_warps_derived_from_threads() {
        assert_eq!(MAX_WARPS, 64);
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
        cfg.mem.l2_bytes = 16 * u64::from(L2_WAYS);
        cfg.validate().expect("16 one-byte sets leave a 32-bit tag");
        cfg.mem.l2_bytes = 8 * u64::from(L2_WAYS);
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
