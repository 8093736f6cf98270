//! A streaming multiprocessor.
//!
//! The SM executes resident thread blocks' warps under a warp-scheduling
//! policy, gated by the per-kernel *quota counters* that implement the
//! paper's Enhanced Warp Scheduler (EWS): a kernel whose counter is
//! exhausted is simply skipped by the (otherwise unmodified) scheduler.
//! Mid-epoch refill rules (non-QoS top-up, elastic epoch restart) are
//! evaluated lazily when a blocked warp is encountered, so the per-cycle
//! issue loop stays branch-light.
//!
//! Every field of [`Sm`] is private: the struct-of-arrays [`WarpTable`] and
//! TB slab, the private L1, quota counters, statistics, and the
//! flight-recorder ring. The one piece of shared machine state an SM
//! reaches is the L2/DRAM hierarchy: `Sm::tick` is handed the machine's
//! [`crate::memsys::MemSystem`] and serves a warp's L1 misses through
//! [`crate::memsys::MemSystem::serve`] as the warp issues (DESIGN.md §13).
//!
//! Module map:
//!
//! | module       | owns                                                     |
//! |--------------|----------------------------------------------------------|
//! | `mod.rs`     | the [`Sm`] struct, construction, snapshot codec          |
//! | `warp_table` | struct-of-arrays warp state, packed bitmasks, wake queue  |
//! | `slots`      | occupancy: TB dispatch, preemption, completion, audits   |
//! | `quota`      | the EWS quota gate: carry rules, refills; the wedge      |
//! | `issue`      | the front end: issuable-mask gather, issue, L1 misses    |
//! | `observe`    | sampling, counters, and every read-only stats accessor   |

mod issue;
mod observe;
mod quota;
mod slots;
#[cfg(test)]
mod tests;
mod warp_table;

pub use quota::QuotaCarry;
pub use warp_table::WarpTable;
pub(crate) use warp_table::{bit, slots, SlotColumn, SlotMask, Vacant, MAX_SLOTS};

use std::sync::Arc;

use crate::cache::Cache;
use crate::config::{GpuConfig, MAX_TBS, MAX_WARPS};
use crate::kernel::KernelDesc;
use crate::observe::{EventRing, TraceEvent, TraceEventKind};
use crate::preempt::{PreemptStats, SavedTb};
use crate::tb::TbSlab;
use crate::types::{checked_sum, per_kernel, Cycle, KernelId, PerKernel, SmId, TbIndex};

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
/// before anything mutates an input of the horizon (DESIGN.md §3.1). Nor
/// are the idle-warp sample points from `census` on, the first at or after
/// `since`: an awake SM is sampled at every point, a sleeping one at none.
#[derive(Debug, Clone, Copy)]
struct Sleep {
    since: Cycle,
    until: Cycle,
    census: Cycle,
}

/// Scratch of the quota-gated gather (DESIGN.md §3.1); never encoded.
#[derive(Debug, Default)]
struct Gate {
    /// `live` minus the warps of the kernels found quota-inert at the last
    /// evaluation: the candidates a scheduler has to visit.
    open: u64,
    /// The quota-inert kernels (`Sm::inert_kernels`, a kernel mask) as last
    /// evaluated. They hold while `fresh`: every write that can flip a sign
    /// the evaluation reads clears it (`Sm::stale_gate`), so a new or
    /// decoded SM starts unevaluated.
    inert: u64,
    fresh: bool,
    /// `inert_kernels()` evaluations stored in `inert` (`WorkCounters`).
    evals: u64,
    /// Mutation switch: keep the tick-start set across a quota exhaustion,
    /// the inexact hoist the oracle in `tests.rs` must catch.
    #[cfg(test)]
    stale_hoist: bool,
    /// Mutation switch: `set_epoch_quota` leaves the cached set fresh, the
    /// missed invalidation the oracle in `tests.rs` must catch.
    #[cfg(test)]
    stale_quota: bool,
}

/// A streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    id: SmId,
    num_scheds: u16,

    l1: Cache,
    descs: PerKernel<Option<Arc<KernelDesc>>>,
    // Flattened mirror of each registered kernel's op body, which `issue`
    // reads at an op boundary for the body's length and the next op (the
    // op itself it reads from the warp's I-buffer, `WarpTable::op`).
    // Written alongside `descs` in `set_kernel_desc`, the one writer of
    // both; never encoded.
    bodies: PerKernel<Vec<crate::kernel::Op>>,

    // A copy of the memory config consulted on the issue path, so it reads
    // no `MemSystem` field.
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

    // --- injected faults (`DeviceWedge`) ---
    sched_frozen: bool,

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
    // Raised when a TB drains, a save or a load finishes: the changes to
    // residency, free capacity and transitions that happen outside a TB
    // scheduler pass, each of which unsettles the scheduler
    // (`TbScheduler::settled`). A pass clears it as it starts; `false` on
    // restore, where the decoded scheduler starts unsettled anyway.
    residency_moved: bool,

    // Per-tick scratch: the issuable warps (occupied, not done, not at a
    // barrier, TB active, scoreboard released), computed once per tick and
    // scanned per scheduler. Rebuilt every tick, so restore-as-zero is safe.
    live: u64,
    gate: Gate,
    // Per-scheduler slot-stripe masks, one word each (bit set iff
    // slot % num_scheds == sid). Pure function of the geometry; never
    // encoded, built by `rebuild_derived`.
    stride_masks: Vec<u64>,
    // `Some` while asleep (see `Sleep`). Set only by `sleep_from`, on the
    // machine's say-so; `None` at every epoch boundary and between runs, so
    // restore-as-`None` is what a snapshot would have held anyway.
    sleep: Option<Sleep>,
    // Cycles between two idle-warp sample points
    // (`GpuConfig::sample_interval`); configuration, taken in `adopt`.
    sample_interval: Cycle,
    // Mutation switch: the wake replay also counts the wake cycle, which the
    // waking SM's own tick counts again; the census differential in `gpu.rs`
    // must catch it.
    #[cfg(test)]
    replay_counts_wake: bool,
}

impl Sm {
    /// Builds an SM from the GPU configuration.
    pub fn new(id: SmId, cfg: &GpuConfig) -> Self {
        let mut sm = Sm {
            id,
            num_scheds: cfg.warp_schedulers as u16,
            l1: Cache::new(cfg.mem.l1_bytes, cfg.mem.l1_ways, cfg.mem.line_bytes),
            descs: per_kernel(|_| None),
            bodies: per_kernel(|_| Vec::new()),
            line_bytes: cfg.mem.line_bytes,
            used_threads: 0,
            used_regs: 0,
            used_smem: 0,
            warps: WarpTable::new(MAX_WARPS as u16),
            tbs: TbSlab::new(MAX_TBS as u16),
            greedy: vec![None; cfg.warp_schedulers as usize],
            next_age: 0,
            transitioning: Vec::new(),
            quota: per_kernel(|_| 0),
            gated: per_kernel(|_| false),
            refill: per_kernel(|_| 0),
            is_qos: per_kernel(|_| false),
            elastic: false,
            priority_block: false,
            quota_credit: per_kernel(|_| 0),
            quota_debit: per_kernel(|_| 0),
            sched_frozen: false,
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
            trace_on: cfg.trace.is_on(),
            events: cfg.trace.ring(),
            quota_blocked: per_kernel(|_| 0),
            quota_exhaustions: per_kernel(|_| 0),
            scoreboard_waits: per_kernel(|_| 0),
            completed: Vec::new(),
            saved: Vec::new(),
            residency_moved: false,
            live: 0,
            gate: Gate::default(),
            stride_masks: Vec::new(),
            sleep: None,
            sample_interval: cfg.sample_interval(),
            #[cfg(test)]
            replay_counts_wake: false,
        };
        sm.rebuild_derived();
        sm
    }

    /// Rebuilds the stripe masks from the geometry and each warp's I-buffer
    /// entry from its kernel's body at its `pc`, at the end of `Sm::new` and
    /// of [`Sm::adopt`]. A hostile blob's kernel, `pc` or slot count is
    /// looked up with `.get()` and left vacant; [`Sm::warps_fit`] refuses
    /// such a blob afterwards.
    fn rebuild_derived(&mut self) {
        let scheds = usize::from(self.num_scheds).max(1);
        self.stride_masks = vec![0; scheds];
        let t = &mut self.warps;
        for slot in 0..t.capacity() {
            self.stride_masks[slot % scheds] |= bit(slot as u16);
        }
        t.op = SlotColumn::new(t.capacity());
        for slot in slots(t.occupied.0) {
            let body = &self.bodies[t.kernel[slot].index()];
            if let Some(&op) = body.get(usize::from(t.pc[slot])) {
                t.op[slot] = op;
            }
        }
    }

    /// Makes this decoded SM, holding the kernel list's descriptions
    /// (`set_kernel_desc`), stand in for `built`, the SM `Gpu::new` made for
    /// its slot: takes what the configuration fixes (ids, geometry, the L1's
    /// shape, the recorder's capacity, the sample interval), rebuilds the
    /// derived state, and answers whether the decoded state fits: a greedy
    /// pick per scheduler, an L1 with its lines, a recorder cursor in range,
    /// warps that fit.
    pub(crate) fn adopt(&mut self, built: &Sm) -> bool {
        (self.id, self.num_scheds, self.line_bytes, self.trace_on) =
            (built.id, built.num_scheds, built.line_bytes, built.trace_on);
        self.sample_interval = built.sample_interval;
        let fits = self.l1.adopt(&built.l1)
            && self.events.adopt(&built.events)
            && self.greedy.len() == built.greedy.len();
        self.rebuild_derived();
        fits && self.warps_fit()
    }

    /// The description this SM holds of kernel slot `k`, if any.
    #[cfg(test)]
    pub(crate) fn kernel_desc(&self, k: usize) -> Option<&Arc<KernelDesc>> {
        self.descs[k].as_ref()
    }

    /// Test-only backdoor: gives the SM one greedy pick more than it has
    /// schedulers, a list [`Sm::adopt`] must refuse on restore.
    #[cfg(test)]
    pub(crate) fn add_greedy_pick_for_test(&mut self) {
        self.greedy.push(None);
    }

    /// Test-only backdoor: sets the first resident warp's address-stream
    /// draw count to `seq`, which [`Sm::seqs_behind`] must refuse on restore
    /// once it passes the clock.
    #[cfg(test)]
    pub(crate) fn set_first_seq_for_test(&mut self, seq: u64) {
        let slot = slots(self.warps.occupied.0).next().expect("a resident warp");
        self.warps.seq[slot] = seq;
    }

    /// Test-only backdoor: a warp slot past the table for the first TB.
    #[cfg(test)]
    pub(crate) fn claim_foreign_warp_for_test(&mut self) {
        let slot = usize::from(self.tbs.iter_occupied().next().expect("a resident TB"));
        self.tbs.warp_slots[slot].push(MAX_SLOTS as u16);
    }

    /// Test-only backdoor: a warp's threads off the occupancy count.
    #[cfg(test)]
    pub(crate) fn shrink_occupancy_for_test(&mut self) {
        self.used_threads -= crate::WARP_SIZE;
    }

    /// Test-only backdoor: kernel 0's ALU lane tally at the top of a `u64`.
    #[cfg(test)]
    pub(crate) fn fill_alu_tally_for_test(&mut self) {
        self.alu_thread_insts[0] = u64::MAX;
    }

    /// Test-only backdoor: counts every live warp of the first occupied TB
    /// as arrived at its barrier, a count [`Sm::tbs_fit`] must refuse on
    /// restore (the barrier would have released).
    #[cfg(test)]
    pub(crate) fn fill_first_barrier_for_test(&mut self) {
        let slot = usize::from(self.tbs.iter_occupied().next().expect("a resident TB"));
        let live = self.tbs.warp_slots[slot].len() as u16 - self.tbs.warps_done[slot];
        self.tbs.barrier_arrived[slot] = live;
    }

    /// Whether the warp table and the TB slab have one entry per slot and
    /// every hosted warp points inside its kernel and its TB: its `pc` at an
    /// op of its kernel's body (or one past the end, once the warp is done),
    /// and its `tb_slot` at an occupied TB of the same kernel. `issue`,
    /// barrier arrival and TB drain index by all three unchecked.
    pub(crate) fn warps_fit(&self) -> bool {
        let (w, t) = (&self.warps, &self.tbs);
        let n = MAX_WARPS as usize;
        let columns = [
            w.kernel.len(),
            w.tb_slot.len(),
            w.warp_in_tb.len(),
            w.warp_uid.len(),
            w.pc.len(),
            w.rem.len(),
            w.iter.len(),
            w.ready_at.len(),
            w.seq.len(),
            w.rng.len(),
            w.age.len(),
        ];
        let inside = |slot: usize| {
            let k = w.kernel[slot];
            let Some(desc) = &self.descs[k.index()] else { return false };
            let (pc, end) = (usize::from(w.pc[slot]), desc.body().len());
            let done = w.done.0 & bit(slot as u16) != 0;
            let tb = w.tb_slot[slot];
            (pc < end || (pc == end && done))
                && usize::from(tb) < t.kernel.len()
                && t.is_occupied(tb)
                && t.kernel[usize::from(tb)] == k
        };
        columns.iter().all(|&len| len == n)
            && t.kernel.len() == MAX_TBS as usize
            && slots(w.occupied.0).all(|slot| slot < n && inside(slot))
    }

    /// Whether no warp has drawn more addresses than `clock` cycles allow:
    /// a warp issues at most one memory op per cycle, so every resident
    /// warp's and every saved warp's `seq` is at most the clock.
    /// `AddrStream::gen_lines` multiplies it unchecked. Call after
    /// [`Sm::warps_fit`], which sizes the columns this indexes.
    pub(crate) fn seqs_behind(&self, clock: Cycle) -> bool {
        let w = &self.warps;
        slots(w.occupied.0).all(|slot| w.seq[slot] <= clock)
            && self.saved.iter().all(|(_, tb)| tb.seqs_behind(clock))
    }

    /// Whether every occupied TB owns its warp slots (hosted warps of its
    /// kernel that point back at it), which barrier release and TB drain
    /// walk unchecked, and counts at most them as retired and fewer at its
    /// barrier than it has live ones: arrival subtracts the first from the
    /// warp count and releases the barrier once the second reaches the
    /// difference. Call after [`Sm::warps_fit`], which sizes the columns.
    pub(crate) fn tbs_fit(&self) -> bool {
        let (w, t) = (&self.warps, &self.tbs);
        let owned = |slot: u16, ws: u16| {
            usize::from(ws) < MAX_SLOTS
                && w.is_occupied(ws)
                && w.kernel[usize::from(ws)] == t.kernel[usize::from(slot)]
                && w.tb_slot[usize::from(ws)] == slot
        };
        t.iter_occupied().all(|slot| {
            let i = usize::from(slot);
            let warps = t.warp_slots[i].len();
            let done = usize::from(t.warps_done[i]);
            t.warp_slots[i].iter().all(|&ws| owned(slot, ws))
                && done <= warps
                && usize::from(t.barrier_arrived[i]) < warps - done
        })
    }

    /// Whether the occupancy counters are what the resident TBs hold, every
    /// one of a kernel with a description: `can_host` adds to the counters
    /// and TB drain subtracts from them unchecked.
    pub(crate) fn occupancy_fits(&self) -> bool {
        let mut held = (0u64, 0u64, 0u64);
        for slot in self.tbs.iter_occupied() {
            let k = self.tbs.kernel[usize::from(slot)].index();
            let Some(desc) = &self.descs[k] else { return false };
            held.0 += u64::from(desc.threads_per_tb());
            held.1 += desc.regfile_bytes_per_tb();
            held.2 += desc.smem_per_tb();
        }
        held == (u64::from(self.used_threads), self.used_regs, self.used_smem)
    }

    /// Whether every count is one `clock` cycles reach: a busy cycle and an
    /// idle sample per cycle before the clock's own, a slot per scheduler
    /// per busy cycle, an issue per slot, a warp's lanes per issue, each
    /// lane in at most one of the ALU, SFU and shared-memory tallies, an
    /// exhaustion per issue, and a count per warp per cycle (or idle
    /// sample) of quota blocking, scoreboard waits and idle warps. The tick
    /// adds to them unchecked. Call after [`Sm::adopt`], which sets the
    /// scheduler count.
    pub(crate) fn counts_behind(&self, clock: Cycle) -> bool {
        let (lanes, warps) = (u64::from(crate::WARP_SIZE), MAX_SLOTS as u64);
        self.busy_cycles <= clock
            && self.idle_samples <= clock
            && Some(self.issue_slots) == self.busy_cycles.checked_mul(u64::from(self.num_scheds))
            && self.issued_total <= self.issue_slots
            && checked_sum(self.counters.map(|c| c.warp_insts)) == Some(self.issued_total)
            && (0..crate::MAX_KERNELS).all(|k| {
                let c = self.counters[k];
                let tallies =
                    [self.alu_thread_insts[k], self.sfu_thread_insts[k], self.smem_accesses[k]];
                c.thread_insts <= c.warp_insts.saturating_mul(lanes)
                    && checked_sum(tallies).is_some_and(|t| t <= c.thread_insts)
                    && self.quota_exhaustions[k] <= c.warp_insts
                    && self.quota_blocked[k].max(self.scoreboard_waits[k])
                        <= clock.saturating_mul(warps)
                    && self.idle_warp_acc[k] <= self.idle_samples.saturating_mul(warps)
            })
    }

    /// This SM's identifier.
    pub fn id(&self) -> SmId {
        self.id
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

// What the configuration fixes and the kernel list's descriptions (with
// their mirror `bodies`) are the receiver's: `Gpu::restore` hands them over
// (`set_kernel_desc`, `adopt`), and `adopt` refills `stride_masks` and the
// warp table's I-buffer. `live` is per-tick scratch, always rebuilt before
// use, and `gate` a cache that a default value marks unevaluated; `sleep` is
// `None` wherever a snapshot can be taken (the machine wakes every SM before
// an epoch boundary's controller call and on every exit of a run);
// `residency_moved` only unsettles a TB scheduler that a restore leaves
// unsettled anyway; the sample interval is taken in `adopt`. A decoded SM
// therefore starts with default values for the last five.
crate::impl_snap_struct!(Sm {
    l1,
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
    sched_frozen,
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
    events,
    quota_blocked,
    quota_exhaustions,
    scoreboard_waits,
    completed,
    saved,
} skip {
    id,
    num_scheds,
    line_bytes,
    trace_on,
    descs,
    bodies,
    live,
    gate,
    stride_masks,
    sleep,
    residency_moved,
    sample_interval,
    #[cfg(test)]
    replay_counts_wake
});
