//! Sampling and read-only introspection: idle-warp/scoreboard censuses, the
//! flight-recorder ring, and every statistics accessor the counter registry,
//! power model, controllers, and harness read from an SM.

use crate::health::WarpStallCounts;
use crate::observe::EventRing;
use crate::preempt::PreemptStats;
use crate::types::{per_kernel, Cycle, KernelId};

use super::warp_table::slots;
use super::{Sm, SmKernelCounters};

impl Sm {
    /// Records one idle-warp sample (call right after [`Sm::tick`]).
    ///
    /// A warp is *idle* if it could issue (ready operands, active TB) but was
    /// not selected this cycle — including warps throttled by quota, which
    /// occupy static resources without contributing progress (§3.6).
    pub(crate) fn sample_idle_warps(&mut self, now: Cycle) {
        self.idle_samples += 1;
        let t = &self.warps;
        for wi in 0..t.words() {
            for slot in slots(wi, t.live(wi)) {
                let k = t.kernel[slot].index();
                if t.ready_at[slot] > now {
                    // Scoreboard census rides on the same sampling cadence:
                    // live warps waiting on operand latencies accumulate
                    // into the per-kernel scoreboard-wait counter.
                    self.scoreboard_waits[k] += 1;
                } else if self.tbs.issuable(t.tb_slot[slot], now) {
                    self.idle_warp_acc[k] += 1;
                }
            }
        }
    }

    /// Mean idle warps of kernel `k` since the last
    /// [`Sm::reset_idle_sampling`] call.
    pub fn idle_warp_avg(&self, k: KernelId) -> f64 {
        if self.idle_samples == 0 {
            0.0
        } else {
            self.idle_warp_acc[k.index()] as f64 / self.idle_samples as f64
        }
    }

    /// Clears idle-warp sampling accumulators (call at epoch boundaries).
    pub fn reset_idle_sampling(&mut self) {
        self.idle_warp_acc = per_kernel(|_| 0);
        self.idle_samples = 0;
    }

    /// Cumulative issue counters for kernel `k`.
    pub fn counters(&self, k: KernelId) -> SmKernelCounters {
        self.counters[k.index()]
    }

    /// Cycles in which the SM hosted at least one thread.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Issue slots offered while busy (busy cycles × schedulers).
    pub fn issue_slots(&self) -> u64 {
        self.issue_slots
    }

    /// Cycle-slots in which an otherwise-issuable warp of `k` was denied by
    /// quota admission (issue/stall telemetry for the counter registry).
    pub fn quota_blocked_cycles(&self, k: KernelId) -> u64 {
        self.quota_blocked[k.index()]
    }

    /// Times kernel `k`'s quota counter crossed from positive into
    /// exhaustion on this SM.
    pub fn quota_exhaustions(&self, k: KernelId) -> u64 {
        self.quota_exhaustions[k.index()]
    }

    /// Sampled count of kernel `k` warps waiting on operand scoreboards
    /// (same cadence as idle-warp sampling).
    pub fn scoreboard_wait_samples(&self, k: KernelId) -> u64 {
        self.scoreboard_waits[k.index()]
    }

    /// This SM's flight-recorder ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Warp instructions issued by this SM since construction.
    pub fn issued_total(&self) -> u64 {
        self.issued_total
    }

    /// Wake-queue hints drained and full queue builds (`WorkCounters`).
    pub(crate) fn wake_counts(&self) -> (u64, u64) {
        (self.warps.wake.wake_events, self.warps.wake.ready_rebuilds)
    }

    /// Quota-gate evaluations made by `tick` (`WorkCounters`).
    pub(crate) fn gate_evals(&self) -> u64 {
        self.gate.evals
    }

    /// TBs resident on this SM (all kernels, including transitioning ones).
    pub fn resident_tbs(&self) -> u32 {
        (self.max_tbs as usize - self.tbs.free_slots()) as u32
    }

    /// Census of resident warps by stall state at cycle `now`.
    pub fn warp_stall_counts(&self, now: Cycle) -> WarpStallCounts {
        let mut counts = WarpStallCounts::default();
        let t = &self.warps;
        for wi in 0..t.words() {
            counts.done += (t.occupied[wi] & t.done[wi]).count_ones();
            counts.at_barrier += (t.occupied[wi] & !t.done[wi] & t.at_barrier[wi]).count_ones();
            for slot in slots(wi, t.live(wi)) {
                if t.ready_at[slot] > now {
                    counts.waiting += 1;
                } else {
                    counts.ready += 1;
                }
            }
        }
        counts
    }

    /// Per-kernel ALU thread instructions (power model input).
    pub fn alu_thread_insts(&self, k: KernelId) -> u64 {
        self.alu_thread_insts[k.index()]
    }

    /// Per-kernel SFU thread instructions (power model input).
    pub fn sfu_thread_insts(&self, k: KernelId) -> u64 {
        self.sfu_thread_insts[k.index()]
    }

    /// Per-kernel shared-memory thread accesses (power model input).
    pub fn smem_accesses(&self, k: KernelId) -> u64 {
        self.smem_accesses[k.index()]
    }

    /// L1 hit/miss statistics.
    pub fn l1_stats(&self) -> crate::cache::CacheStats {
        self.l1.stats()
    }

    /// Preemption statistics.
    pub fn preempt_stats(&self) -> PreemptStats {
        self.preempt_stats
    }

    /// Number of resident threads.
    pub fn used_threads(&self) -> u32 {
        self.used_threads
    }

    /// Free thread capacity.
    pub fn free_threads(&self) -> u32 {
        self.max_threads - self.used_threads
    }

    /// Free register-file bytes.
    pub fn free_regs(&self) -> u64 {
        self.regfile_bytes - self.used_regs
    }

    /// Free shared-memory bytes.
    pub fn free_smem(&self) -> u64 {
        self.smem_bytes - self.used_smem
    }

    /// Free warp slots.
    pub fn free_warp_slots(&self) -> u32 {
        self.warps.free_slots() as u32
    }

    /// Free TB slots.
    pub fn free_tb_slots(&self) -> u32 {
        self.tbs.free_slots() as u32
    }

    /// Whether this SM's interconnect port holds in-flight traffic. Always
    /// `false` outside the tick→drain window of a single cycle; exposed so
    /// tests can assert the invariant that snapshots rely on.
    pub fn icn_in_flight(&self) -> bool {
        !self.icn.is_empty()
    }
}
