//! Kernel descriptions: the static shape of a SIMT program.
//!
//! A [`KernelDesc`] describes one GPU kernel the way the thread-block
//! scheduler sees it: per-TB resource demands, grid size, and a per-warp
//! *body* — a loop over a sequence of [`Op`]s (ALU bursts, SFU bursts,
//! memory accesses with an [`AccessPattern`], barriers). Real ISA semantics
//! are not modeled; what matters for the paper's mechanisms is instruction
//! *count*, *latency class* and *memory behaviour*.

use crate::types::Addr;

/// Which address space a memory operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemSpace {
    /// Device (global) memory: goes through L1 → L2 → DRAM.
    Global,
    /// On-chip shared memory (scratchpad): fixed latency, no traffic.
    Shared,
}

/// How a warp's 32 lanes touch global memory, and with what locality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPattern {
    /// Locality class of the generated address stream.
    pub kind: PatternKind,
    /// Working-set size in bytes the address stream cycles through.
    ///
    /// For [`PatternKind::Tile`] this is per-TB; for the other kinds it is
    /// kernel-wide. Small footprints hit in cache; large ones stream.
    pub footprint_bytes: u64,
    /// Number of 32-byte memory transactions one warp access coalesces into
    /// (1 = perfectly coalesced 8-bit,
    /// 4 = coalesced 32-bit, 32 = fully divergent).
    pub transactions: u8,
}

/// Locality classes for global-memory address streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Sequential streaming: every warp walks fresh cache lines. Minimal
    /// reuse; bandwidth-bound (e.g. `lbm`, stream phases of `sgemm`).
    Stream,
    /// Per-TB tile with heavy reuse: hits in L1 after warm-up (e.g. blocked
    /// matrix multiply working tiles).
    Tile,
    /// Uniform random within the kernel footprint: poor coalescing and poor
    /// locality (e.g. `spmv` row gathers, `histo` bin updates).
    Random,
    /// Neighbourhood access over a kernel-wide grid: misses L1, reuses L2
    /// across TBs (e.g. `stencil`).
    Stencil,
}

impl AccessPattern {
    /// Perfectly coalesced streaming loads over a large footprint.
    pub fn stream() -> Self {
        AccessPattern { kind: PatternKind::Stream, footprint_bytes: 256 << 20, transactions: 4 }
    }

    /// A small per-TB tile that becomes L1-resident.
    pub fn tile(footprint_bytes: u64) -> Self {
        AccessPattern { kind: PatternKind::Tile, footprint_bytes, transactions: 4 }
    }

    /// Random accesses within `footprint_bytes`, `transactions` per warp access.
    pub fn random(footprint_bytes: u64, transactions: u8) -> Self {
        AccessPattern { kind: PatternKind::Random, footprint_bytes, transactions }
    }

    /// Stencil-style neighbourhood access over a kernel-wide footprint.
    pub fn stencil(footprint_bytes: u64) -> Self {
        AccessPattern { kind: PatternKind::Stencil, footprint_bytes, transactions: 4 }
    }
}

/// One step of a warp's instruction stream.
///
/// `repeat` expresses bursts compactly: `Op::alu(4, 10)` is ten back-to-back
/// 4-cycle ALU instructions. `active_lanes` models branch divergence — the
/// paper's quota counters decrement by the number of *active threads* in each
/// warp instruction (≤ 32), so divergence directly affects quota consumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// An arithmetic burst: `repeat` instructions of `latency` cycles each.
    Alu {
        /// Completion latency of each instruction in cycles.
        latency: u16,
        /// Number of back-to-back instructions.
        repeat: u16,
        /// Active lanes per instruction (1..=32).
        active_lanes: u8,
    },
    /// A special-function burst (transcendental, etc.): longer latency.
    Sfu {
        /// Completion latency of each instruction in cycles.
        latency: u16,
        /// Number of back-to-back instructions.
        repeat: u16,
        /// Active lanes per instruction (1..=32).
        active_lanes: u8,
    },
    /// One memory instruction per warp.
    Mem {
        /// Address space accessed.
        space: MemSpace,
        /// Whether this is a store (stores still allocate; flag is for stats).
        store: bool,
        /// Address pattern (ignored for [`MemSpace::Shared`]).
        pattern: AccessPattern,
        /// Active lanes (1..=32).
        active_lanes: u8,
    },
    /// TB-wide barrier: warps wait until all warps of the TB arrive.
    Bar,
}

impl Op {
    /// A full-warp ALU burst.
    pub fn alu(latency: u16, repeat: u16) -> Self {
        Op::Alu { latency, repeat, active_lanes: 32 }
    }

    /// A full-warp SFU burst.
    pub fn sfu(latency: u16, repeat: u16) -> Self {
        Op::Sfu { latency, repeat, active_lanes: 32 }
    }

    /// A divergent ALU burst with the given number of active lanes.
    ///
    /// # Panics
    ///
    /// Panics if `active_lanes` is 0 or exceeds the warp size.
    pub fn alu_divergent(latency: u16, repeat: u16, active_lanes: u8) -> Self {
        assert!(
            (1..=crate::WARP_SIZE as u8).contains(&active_lanes),
            "active_lanes must be in 1..=32"
        );
        Op::Alu { latency, repeat, active_lanes }
    }

    /// A full-warp global load with the given pattern.
    pub fn mem_load(pattern: AccessPattern) -> Self {
        Op::Mem { space: MemSpace::Global, store: false, pattern, active_lanes: 32 }
    }

    /// A full-warp global store with the given pattern.
    pub fn mem_store(pattern: AccessPattern) -> Self {
        Op::Mem { space: MemSpace::Global, store: true, pattern, active_lanes: 32 }
    }

    /// A full-warp shared-memory access.
    pub fn smem() -> Self {
        Op::Mem {
            space: MemSpace::Shared,
            store: false,
            pattern: AccessPattern::tile(0),
            active_lanes: 32,
        }
    }

    /// Number of dynamic warp instructions this op expands to.
    pub fn dynamic_insts(&self) -> u64 {
        match *self {
            Op::Alu { repeat, .. } | Op::Sfu { repeat, .. } => u64::from(repeat.max(1)),
            Op::Mem { .. } | Op::Bar => 1,
        }
    }

    /// Number of dynamic *thread* instructions this op expands to.
    pub fn dynamic_thread_insts(&self) -> u64 {
        match *self {
            Op::Alu { repeat, active_lanes, .. } | Op::Sfu { repeat, active_lanes, .. } => {
                u64::from(repeat.max(1)) * u64::from(active_lanes)
            }
            Op::Mem { active_lanes, .. } => u64::from(active_lanes),
            Op::Bar => u64::from(crate::WARP_SIZE),
        }
    }
}

/// Static description of a kernel.
///
/// Construct with [`KernelDesc::builder`]. The description is immutable once
/// built; launching it on a [`crate::Gpu`] creates per-launch runtime state.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    name: String,
    threads_per_tb: u32,
    regs_per_thread: u32,
    smem_per_tb: u64,
    grid_tbs: u32,
    iterations: u32,
    body: Vec<Op>,
    seed: u64,
    memory_intensive: bool,
}

impl KernelDesc {
    /// Starts building a kernel description.
    pub fn builder(name: impl Into<String>) -> KernelDescBuilder {
        KernelDescBuilder::new(name)
    }

    /// Kernel name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Threads per thread block.
    pub fn threads_per_tb(&self) -> u32 {
        self.threads_per_tb
    }

    /// Warps per thread block.
    pub fn warps_per_tb(&self) -> u32 {
        self.threads_per_tb.div_ceil(crate::WARP_SIZE)
    }

    /// Registers per thread.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Shared memory per TB in bytes.
    pub fn smem_per_tb(&self) -> u64 {
        self.smem_per_tb
    }

    /// Number of TBs in the grid (one kernel execution).
    pub fn grid_tbs(&self) -> u32 {
        self.grid_tbs
    }

    /// Loop iterations of the body each warp executes.
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// The per-warp instruction body.
    pub fn body(&self) -> &[Op] {
        &self.body
    }

    /// Base RNG seed for this kernel's address streams.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the kernel is classified memory-intensive ("M" in Fig. 7).
    pub fn memory_intensive(&self) -> bool {
        self.memory_intensive
    }

    /// Register-file bytes one TB occupies (4 bytes per register).
    pub fn regfile_bytes_per_tb(&self) -> u64 {
        u64::from(self.regs_per_thread) * 4 * u64::from(self.threads_per_tb)
    }

    /// Bytes of context (registers + shared memory) saved on preemption.
    pub fn context_bytes_per_tb(&self) -> u64 {
        self.regfile_bytes_per_tb() + self.smem_per_tb
    }

    /// Total dynamic thread instructions one warp retires per TB execution.
    pub fn thread_insts_per_warp(&self) -> u64 {
        let per_pass: u64 = self.body.iter().map(Op::dynamic_thread_insts).sum();
        per_pass * u64::from(self.iterations)
    }

    /// Total dynamic thread instructions one TB retires.
    pub fn thread_insts_per_tb(&self) -> u64 {
        self.thread_insts_per_warp() * u64::from(self.warps_per_tb())
    }

    /// Returns a copy with a different seed (used to decorrelate co-runners).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut k = self.clone();
        k.seed = seed;
        k
    }

    /// Base address of this kernel's slice of the device address space.
    ///
    /// Each resident kernel gets a disjoint 16 GiB region so co-runners never
    /// share cache lines, only capacity and bandwidth — matching distinct
    /// applications sharing a GPU.
    pub(crate) fn base_addr(kernel_slot: usize) -> Addr {
        (kernel_slot as Addr) << 34
    }
}

/// Builder for [`KernelDesc`].
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    desc: KernelDesc,
}

impl KernelDescBuilder {
    fn new(name: impl Into<String>) -> Self {
        KernelDescBuilder {
            desc: KernelDesc {
                name: name.into(),
                threads_per_tb: 256,
                regs_per_thread: 32,
                smem_per_tb: 0,
                grid_tbs: 1024,
                iterations: 32,
                body: Vec::new(),
                seed: 0,
                memory_intensive: false,
            },
        }
    }

    /// Sets threads per TB (must be a positive multiple of the warp size).
    pub fn threads_per_tb(mut self, n: u32) -> Self {
        self.desc.threads_per_tb = n;
        self
    }

    /// Sets registers per thread.
    pub fn regs_per_thread(mut self, n: u32) -> Self {
        self.desc.regs_per_thread = n;
        self
    }

    /// Sets shared memory per TB in bytes.
    pub fn smem_per_tb(mut self, bytes: u64) -> Self {
        self.desc.smem_per_tb = bytes;
        self
    }

    /// Sets the grid size in TBs.
    pub fn grid_tbs(mut self, n: u32) -> Self {
        self.desc.grid_tbs = n;
        self
    }

    /// Sets how many times each warp loops over the body.
    pub fn iterations(mut self, n: u32) -> Self {
        self.desc.iterations = n;
        self
    }

    /// Sets the per-warp body.
    pub fn body(mut self, ops: Vec<Op>) -> Self {
        self.desc.body = ops;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.desc.seed = seed;
        self
    }

    /// Marks the kernel memory-intensive (the "M" class of Fig. 7).
    pub fn memory_intensive(mut self, yes: bool) -> Self {
        self.desc.memory_intensive = yes;
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// Panics if the description is internally inconsistent (empty body,
    /// zero iterations/grid, thread count not a positive multiple of 32, or
    /// an op with zero or more than 32 active lanes).
    pub fn build(self) -> KernelDesc {
        let d = &self.desc;
        assert!(!d.body.is_empty(), "kernel body must not be empty");
        assert!(
            !matches!(d.body.last(), Some(Op::Bar)),
            "a barrier must not be the last op of the body (retiring warps \
             cannot release waiters)"
        );
        assert!(d.iterations > 0, "iterations must be positive");
        assert!(d.grid_tbs > 0, "grid must contain at least one TB");
        assert!(
            d.threads_per_tb > 0 && d.threads_per_tb.is_multiple_of(crate::WARP_SIZE),
            "threads_per_tb must be a positive multiple of {}",
            crate::WARP_SIZE
        );
        for op in &d.body {
            let lanes = match *op {
                Op::Alu { active_lanes, .. }
                | Op::Sfu { active_lanes, .. }
                | Op::Mem { active_lanes, .. } => active_lanes,
                Op::Bar => 32,
            };
            assert!(
                (1..=crate::WARP_SIZE as u8).contains(&lanes),
                "active_lanes must be in 1..=32"
            );
            if let Op::Mem { space: MemSpace::Global, pattern, .. } = op {
                assert!(
                    (1..=crate::WARP_SIZE as u8).contains(&pattern.transactions),
                    "transactions must be in 1..=32"
                );
                assert!(pattern.footprint_bytes > 0, "footprint must be positive");
            }
        }
        self.desc
    }
}

crate::impl_snap_enum!(MemSpace { Global = 0, Shared = 1 });

crate::impl_snap_enum!(PatternKind { Stream = 0, Tile = 1, Random = 2, Stencil = 3 });

crate::impl_snap_struct!(AccessPattern { kind, footprint_bytes, transactions });

crate::impl_snap_enum!(Op {
    Alu { latency, repeat, active_lanes } = 0,
    Sfu { latency, repeat, active_lanes } = 1,
    Mem { space, store, pattern, active_lanes } = 2,
    Bar = 3,
});

crate::impl_snap_struct!(KernelDesc {
    name,
    threads_per_tb,
    regs_per_thread,
    smem_per_tb,
    grid_tbs,
    iterations,
    body,
    seed,
    memory_intensive,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> KernelDesc {
        KernelDesc::builder("k")
            .threads_per_tb(128)
            .regs_per_thread(40)
            .smem_per_tb(4096)
            .grid_tbs(64)
            .iterations(10)
            .body(vec![Op::alu(4, 3), Op::Bar, Op::mem_load(AccessPattern::stream())])
            .build()
    }

    #[test]
    fn derived_resources() {
        let k = simple();
        assert_eq!(k.warps_per_tb(), 4);
        assert_eq!(k.regfile_bytes_per_tb(), 40 * 4 * 128);
        assert_eq!(k.context_bytes_per_tb(), 40 * 4 * 128 + 4096);
    }

    #[test]
    fn instruction_accounting() {
        let k = simple();
        // per pass: 3 ALU * 32 lanes + 1 mem * 32 + 1 bar * 32 = 160
        assert_eq!(k.thread_insts_per_warp(), 160 * 10);
        assert_eq!(k.thread_insts_per_tb(), 160 * 10 * 4);
    }

    #[test]
    fn op_dynamic_counts() {
        assert_eq!(Op::alu(4, 5).dynamic_insts(), 5);
        assert_eq!(Op::alu(4, 5).dynamic_thread_insts(), 160);
        assert_eq!(Op::alu_divergent(4, 2, 8).dynamic_thread_insts(), 16);
        assert_eq!(Op::Bar.dynamic_insts(), 1);
    }

    #[test]
    #[should_panic(expected = "body must not be empty")]
    fn build_rejects_empty_body() {
        let _ = KernelDesc::builder("k").build();
    }

    #[test]
    #[should_panic(expected = "multiple of 32")]
    fn build_rejects_unaligned_threads() {
        let _ = KernelDesc::builder("k").threads_per_tb(100).body(vec![Op::alu(1, 1)]).build();
    }

    #[test]
    #[should_panic(expected = "active_lanes")]
    fn divergent_rejects_zero_lanes() {
        let _ = Op::alu_divergent(4, 1, 0);
    }

    #[test]
    fn kernel_base_addresses_are_disjoint() {
        let spacing = KernelDesc::base_addr(1) - KernelDesc::base_addr(0);
        assert!(spacing >= (16 << 30));
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let k = simple();
        let k2 = k.with_seed(77);
        assert_eq!(k2.seed(), 77);
        assert_eq!(k2.name(), k.name());
        assert_eq!(k2.body(), k.body());
    }
}
