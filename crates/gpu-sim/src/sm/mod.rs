//! A streaming multiprocessor: one self-contained execution domain.
//!
//! The SM executes resident thread blocks' warps under a warp-scheduling
//! policy, gated by the per-kernel *quota counters* that implement the
//! paper's Enhanced Warp Scheduler (EWS): a kernel whose counter is
//! exhausted is simply skipped by the (otherwise unmodified) scheduler.
//! Mid-epoch refill rules (non-QoS top-up, elastic epoch restart) are
//! evaluated lazily when a blocked warp is encountered, so the per-cycle
//! issue loop stays branch-light.
//!
//! Every field of [`Sm`] is private, domain-local state: the
//! struct-of-arrays [`WarpTable`] and TB slab, the private L1, quota
//! counters, statistics, and the flight-recorder ring. The one piece of
//! shared machine state an SM used to reach into — the L2/DRAM hierarchy —
//! is behind the typed [`crate::icn::IcnPort`] boundary: `Sm::tick` takes
//! no `MemSystem` and instead enqueues requests that the machine drains
//! once every SM has ticked, in stable SM-index order (DESIGN.md §13).
//!
//! Module map:
//!
//! | module       | owns                                                     |
//! |--------------|----------------------------------------------------------|
//! | `mod.rs`     | the [`Sm`] struct, construction, snapshot codec          |
//! | `warp_table` | struct-of-arrays warp state, packed bitmasks, wake queue  |
//! | `slots`      | occupancy: TB dispatch, preemption, completion, audits   |
//! | `quota`      | the EWS quota gate: carry rules, refills, fault freezes  |
//! | `issue`      | the front end: issuable-mask gather, issue, `IcnPort`    |
//! | `observe`    | sampling, counters, and every read-only stats accessor   |

mod issue;
mod observe;
mod quota;
mod slots;
#[cfg(test)]
mod tests;
mod warp_table;

pub use quota::QuotaCarry;
pub(crate) use warp_table::slots;
pub use warp_table::WarpTable;

use std::sync::Arc;

use crate::cache::Cache;
use crate::config::GpuConfig;
use crate::icn::IcnPort;
use crate::kernel::KernelDesc;
use crate::observe::{EventRing, TraceEvent, TraceEventKind};
use crate::preempt::{PreemptStats, SavedTb};
use crate::tb::TbSlab;
use crate::types::{per_kernel, Cycle, KernelId, PerKernel, SmId, TbIndex};

/// Per-kernel issue counters of one SM for one epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmKernelCounters {
    /// Thread-level instructions issued (what quotas count).
    pub thread_insts: u64,
    /// Warp-level instructions issued.
    pub warp_insts: u64,
}

/// An SM's sleep state: nothing on it can change before cycle `until`
/// (`Cycle::MAX` when nothing ever will unprompted), and the cycles from
/// `since` on are not yet in its statistics — [`Sm::catch_up`] replays them
/// before anything mutates an input of the horizon (DESIGN.md §3.1).
#[derive(Debug, Clone, Copy)]
struct Sleep {
    since: Cycle,
    until: Cycle,
}

/// Scratch of the quota-gated gather (DESIGN.md §3.1); never encoded.
#[derive(Debug, Default)]
struct Gate {
    /// `live_buf` minus the warps of the kernels found quota-inert at the
    /// last evaluation: the candidates a scheduler has to visit.
    open: Vec<u64>,
    /// `inert_kernels()` evaluations made by `tick` (`WorkCounters`).
    evals: u64,
    /// Mutation switch: keep the tick-start set across a quota exhaustion,
    /// the inexact hoist the oracle in `tests.rs` must catch.
    #[cfg(test)]
    stale_hoist: bool,
}

/// A streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: SmId,
    num_scheds: u16,
    max_warps: u16,
    max_tbs: u16,
    max_threads: u32,
    regfile_bytes: u64,
    smem_bytes: u64,

    l1: Cache,
    descs: PerKernel<Option<Arc<KernelDesc>>>,
    // Flattened mirror of each registered kernel's op body, so the issue
    // path reads the current op through one indexed load instead of chasing
    // `Option<Arc<KernelDesc>>` → `Vec` on every dynamic instruction.
    // Written alongside `descs` in `set_kernel_desc`; skip-snapped (a
    // restored SM rebuilds each entry lazily on its first issue).
    bodies: PerKernel<Vec<crate::kernel::Op>>,

    // Domain-local copies of machine config consulted on the issue path;
    // the SM must not reach across the interconnect boundary to read them.
    l1_hit_latency: u32,
    line_bytes: u32,

    used_threads: u32,
    used_regs: u64,
    used_smem: u64,

    warps: WarpTable,
    tbs: TbSlab,
    // One entry per warp scheduler: the slot it last issued from, which a
    // greedy-then-oldest scheduler stays on while that warp is issuable.
    greedy: Vec<Option<u16>>,
    next_age: u64,
    transitioning: Vec<u16>,

    // --- interconnect boundary (DESIGN.md §13) ---
    // Requests filled by `issue`, drained by the machine at the end-of-cycle
    // barrier; empty outside the step→drain window of a single cycle.
    icn: IcnPort,

    // --- quota state (EWS) ---
    quota: PerKernel<i64>,
    gated: PerKernel<bool>,
    refill: PerKernel<i64>,
    is_qos: PerKernel<bool>,
    elastic: bool,
    priority_block: bool,

    // --- quota double-entry ledger (audit mode) ---
    // Every change to `quota` flows through exactly two channels: credits
    // (epoch grants, mid-epoch refills) and debits (issued lanes while
    // gated). `quota[k] == quota_credit[k] - quota_debit[k]` is then a
    // conservation law any stray mutation breaks.
    quota_credit: PerKernel<i64>,
    quota_debit: PerKernel<i64>,

    // --- injected faults ---
    quota_frozen: bool,
    sched_frozen: bool,
    preempt_stalled: bool,

    // --- statistics ---
    hosted: PerKernel<u16>,
    counters: PerKernel<SmKernelCounters>,
    alu_thread_insts: PerKernel<u64>,
    sfu_thread_insts: PerKernel<u64>,
    smem_accesses: PerKernel<u64>,
    busy_cycles: u64,
    issue_slots: u64,
    issued_total: u64,
    idle_warp_acc: PerKernel<u64>,
    idle_samples: u64,
    preempt_stats: PreemptStats,

    // --- observability (counter registry + flight recorder, DESIGN.md §12) ---
    trace_on: bool,
    events: EventRing,
    quota_blocked: PerKernel<u64>,
    quota_exhaustions: PerKernel<u64>,
    scoreboard_waits: PerKernel<u64>,

    // --- outboxes drained by the TB scheduler ---
    completed: Vec<(KernelId, TbIndex)>,
    saved: Vec<(KernelId, SavedTb)>,

    // Per-tick scratch: issuable mask words (occupied, not done, not at a
    // barrier, TB active, scoreboard released), computed once per tick and
    // scanned per scheduler. Rebuilt every tick, so restore-as-empty is safe.
    live_buf: Vec<u64>,
    gate: Gate,
    // Per-scheduler slot-stripe masks (bit set iff slot % num_scheds == sid).
    // Pure function of the geometry; lazily rebuilt when empty, so a
    // restored SM regenerates them on its first tick.
    stride_masks: Vec<Vec<u64>>,
    // `Some` while asleep (see `Sleep`). Set only by `sleep_from`, on the
    // machine's say-so; `None` at every epoch boundary and between runs, so
    // restore-as-`None` is what a snapshot would have held anyway.
    sleep: Option<Sleep>,
}

impl Sm {
    /// Builds an SM from the GPU configuration.
    pub fn new(id: SmId, cfg: &GpuConfig) -> Self {
        let max_warps = cfg.sm.max_warps() as u16;
        let max_tbs = cfg.sm.max_tbs as u16;
        Sm {
            id,
            num_scheds: cfg.sm.warp_schedulers as u16,
            max_warps,
            max_tbs,
            max_threads: cfg.sm.max_threads,
            regfile_bytes: cfg.sm.register_file_bytes,
            smem_bytes: cfg.sm.shared_mem_bytes,
            l1: Cache::new(cfg.mem.l1_bytes, cfg.mem.l1_ways, cfg.mem.line_bytes),
            descs: per_kernel(|_| None),
            bodies: per_kernel(|_| Vec::new()),
            l1_hit_latency: cfg.mem.l1_hit_latency,
            line_bytes: cfg.mem.line_bytes,
            used_threads: 0,
            used_regs: 0,
            used_smem: 0,
            warps: WarpTable::new(max_warps),
            tbs: TbSlab::new(max_tbs),
            greedy: vec![None; cfg.sm.warp_schedulers as usize],
            next_age: 0,
            transitioning: Vec::new(),
            icn: IcnPort::default(),
            quota: per_kernel(|_| 0),
            gated: per_kernel(|_| false),
            refill: per_kernel(|_| 0),
            is_qos: per_kernel(|_| false),
            elastic: false,
            priority_block: false,
            quota_credit: per_kernel(|_| 0),
            quota_debit: per_kernel(|_| 0),
            quota_frozen: false,
            sched_frozen: false,
            preempt_stalled: false,
            hosted: per_kernel(|_| 0),
            counters: per_kernel(|_| SmKernelCounters::default()),
            alu_thread_insts: per_kernel(|_| 0),
            sfu_thread_insts: per_kernel(|_| 0),
            smem_accesses: per_kernel(|_| 0),
            busy_cycles: 0,
            issue_slots: 0,
            issued_total: 0,
            idle_warp_acc: per_kernel(|_| 0),
            idle_samples: 0,
            preempt_stats: PreemptStats::default(),
            trace_on: cfg.trace.level.is_on(),
            events: EventRing::new(if cfg.trace.level.is_on() {
                cfg.trace.ring_capacity
            } else {
                0
            }),
            quota_blocked: per_kernel(|_| 0),
            quota_exhaustions: per_kernel(|_| 0),
            scoreboard_waits: per_kernel(|_| 0),
            completed: Vec::new(),
            saved: Vec::new(),
            live_buf: Vec::new(),
            gate: Gate::default(),
            stride_masks: Vec::new(),
            sleep: None,
        }
    }

    /// Whether this (decoded) SM's L1 can stand in for `built`'s
    /// ([`Cache::fits`]).
    pub(crate) fn l1_fits(&self, built: &Sm) -> bool {
        self.l1.fits(&built.l1)
    }

    /// This SM's identifier.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Builds the per-scheduler slot-stripe masks: bit `s` of
    /// `stride_masks[sid]` is set iff warp slot `s` belongs to scheduler
    /// `sid` (`s % num_scheds == sid`).
    fn build_stride_masks(&mut self) {
        let words = self.warps.words();
        let scheds = usize::from(self.num_scheds).max(1);
        self.stride_masks = vec![vec![0u64; words]; scheds];
        for slot in 0..usize::from(self.max_warps) {
            self.stride_masks[slot % scheds][slot / 64] |= 1 << (slot % 64);
        }
    }

    /// Records a flight-recorder event. A single branch when tracing is off,
    /// so the hot path stays free of ring-buffer work at level `Off`.
    #[inline]
    fn record(&mut self, cycle: Cycle, kind: TraceEventKind) {
        if self.trace_on {
            self.events.push(TraceEvent { cycle, sm: Some(self.id.index() as u32), kind });
        }
    }
}

crate::impl_snap_struct!(SmKernelCounters { thread_insts, warp_insts });

// `bodies` is a pure mirror of `descs`, rebuilt lazily by `issue`;
// `live_buf` and `gate` are per-tick scratch, always rebuilt before use;
// `icn` is pure transit state, always empty outside the step→drain window of
// one cycle (snapshots are taken at epoch boundaries, between cycles);
// `stride_masks` is a pure function of the geometry, lazily rebuilt;
// `sleep` is `None` wherever a snapshot can be taken (the machine wakes every
// SM before an epoch boundary's controller call and on every exit of a run).
// A restored SM therefore starts with empty/default values for all of them.
crate::impl_snap_struct!(Sm {
    id,
    num_scheds,
    max_warps,
    max_tbs,
    max_threads,
    regfile_bytes,
    smem_bytes,
    l1,
    descs,
    l1_hit_latency,
    line_bytes,
    used_threads,
    used_regs,
    used_smem,
    warps,
    tbs,
    greedy,
    next_age,
    transitioning,
    quota,
    gated,
    refill,
    is_qos,
    elastic,
    priority_block,
    quota_credit,
    quota_debit,
    quota_frozen,
    sched_frozen,
    preempt_stalled,
    hosted,
    counters,
    alu_thread_insts,
    sfu_thread_insts,
    smem_accesses,
    busy_cycles,
    issue_slots,
    issued_total,
    idle_warp_acc,
    idle_samples,
    preempt_stats,
    trace_on,
    events,
    quota_blocked,
    quota_exhaustions,
    scoreboard_waits,
    completed,
    saved,
} skip {
    icn,
    bodies,
    live_buf,
    gate,
    stride_masks,
    sleep
});
