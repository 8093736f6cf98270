//! Sampling and read-only introspection: the idle-warp/scoreboard census
//! (taken after a tick, replayed after a sleep), the flight-recorder ring,
//! and every statistics accessor the counter registry, power model,
//! controllers, and harness read from an SM.

use crate::config::{MAX_TBS, MAX_THREADS, REGISTER_FILE_BYTES, SHARED_MEM_BYTES};
use crate::health::WarpStallCounts;
use crate::observe::EventRing;
use crate::preempt::PreemptStats;
use crate::types::{per_kernel, Cycle, KernelId};

use super::warp_table::slots;
use super::{Sm, SmKernelCounters};
use crate::MAX_KERNELS;

impl Sm {
    /// Records one idle-warp sample at the sample point `now`. Call right
    /// after the SM's [`Sm::tick`] at `now`, before it goes to sleep; a
    /// sleeping SM is not sampled, [`Sm::catch_up`] counts its points when
    /// it wakes.
    ///
    /// A warp is *idle* if it could issue (ready operands, active TB) but was
    /// not selected this cycle — including warps throttled by quota, which
    /// occupy static resources without contributing progress (§3.6). A live
    /// warp whose operands are not ready is *waiting* on its scoreboard, a
    /// census that rides on the same cadence. After the tick `tb_active` is
    /// the TB's phase exactly: the tick finished every load due at `now`.
    #[inline(never)]
    pub(crate) fn sample_idle_warps(&mut self, now: Cycle) {
        self.idle_samples += 1;
        let t = &self.warps;
        let live = t.live();
        let ready = t.released(live, now);
        self.count_census(live & !ready, ready & t.tb_active.0, 1);
    }

    /// Counts the sample points in `[first, end)`, which a sleep covered, as
    /// a sample after a tick at each would have: nothing on the SM changed
    /// in between, so a live warp is waiting at the points before its
    /// `ready_at` and idle at the rest if its TB is active (a loading TB's
    /// completion bounds the sleep, so `tb_active` is its phase throughout).
    ///
    /// One division counts the points; only a warp released after the first
    /// of them and at or before the last takes another. The warps the wake
    /// queue holds released were released before the sleep began, so before
    /// the first point: they are idle at every point and counted by
    /// popcount, not walked. Each of the others adds to its kernel's tallies
    /// directly, which on an SM of a few warps costs less than a popcount
    /// per kernel. Out of line, like [`Sm::catch_up`]'s other replay: the
    /// run loop inlines `catch_up`.
    #[inline(never)]
    pub(super) fn replay_census(&mut self, first: Cycle, end: Cycle) {
        let step = self.sample_interval;
        let points = (end - 1 - first) / step + 1;
        let last = first + (points - 1) * step;
        self.idle_samples += points;
        let t = &self.warps;
        let (live, active) = (t.live(), t.tb_active.0);
        let early = live & t.held_ready(first);
        for slot in slots(live & !early) {
            let (k, ready_at) = (t.kernel[slot].index(), t.ready_at[slot]);
            // The points before the release, at which the warp waits.
            let before = if ready_at <= first {
                0
            } else if ready_at > last {
                points
            } else {
                (ready_at - 1 - first) / step + 1
            };
            self.scoreboard_waits[k] += before;
            if active >> slot & 1 != 0 {
                self.idle_warp_acc[k] += points - before;
            }
        }
        self.count_census(0, early & active, points);
    }

    /// Adds `times` to the scoreboard-wait tally of the kernel of every warp
    /// of `waiting` and to the idle-warp tally of that of every warp of
    /// `idle`: a popcount per kernel that owns any of them.
    fn count_census(&mut self, waiting: u64, idle: u64, times: u64) {
        if waiting | idle == 0 {
            return;
        }
        for k in 0..MAX_KERNELS {
            let mask = self.warps.kernel_mask[k].0;
            let (w, i) = (waiting & mask, idle & mask);
            if w != 0 {
                self.scoreboard_waits[k] += times * u64::from(w.count_ones());
            }
            if i != 0 {
                self.idle_warp_acc[k] += times * u64::from(i.count_ones());
            }
        }
    }

    /// Idle-warp samples counted since the last
    /// [`Sm::reset_idle_sampling`] call.
    #[cfg(test)]
    pub(crate) fn idle_samples(&self) -> u64 {
        self.idle_samples
    }

    /// Test-only backdoor: the wake replay also counts the wake cycle
    /// (`replay_counts_wake`).
    #[cfg(test)]
    pub(crate) fn count_wake_cycle_for_test(&mut self) {
        self.replay_counts_wake = true;
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

    /// Cycle-slots in which a warp of `k` that could otherwise issue was
    /// denied by quota admission (issue/stall telemetry for the counter
    /// registry).
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

    /// Inert-set evaluations the gate cache stored (`WorkCounters`).
    pub(crate) fn gate_evals(&self) -> u64 {
        self.gate.evals
    }

    /// TBs resident on this SM (all kernels, including transitioning ones).
    pub fn resident_tbs(&self) -> u32 {
        (MAX_TBS as usize - self.tbs.free_slots()) as u32
    }

    /// Census of resident warps by stall state at cycle `now`.
    pub fn warp_stall_counts(&self, now: Cycle) -> WarpStallCounts {
        let t = &self.warps;
        let waiting = slots(t.live()).filter(|&slot| t.ready_at[slot] > now).count() as u32;
        WarpStallCounts {
            ready: t.live().count_ones() - waiting,
            waiting,
            at_barrier: (t.occupied.0 & !t.done.0 & t.at_barrier.0).count_ones(),
            done: (t.occupied.0 & t.done.0).count_ones(),
        }
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
        MAX_THREADS - self.used_threads
    }

    /// Free register-file bytes.
    pub fn free_regs(&self) -> u64 {
        REGISTER_FILE_BYTES - self.used_regs
    }

    /// Free shared-memory bytes.
    pub fn free_smem(&self) -> u64 {
        SHARED_MEM_BYTES - self.used_smem
    }

    /// Free warp slots.
    pub fn free_warp_slots(&self) -> u32 {
        self.warps.free_slots() as u32
    }

    /// Free TB slots.
    pub fn free_tb_slots(&self) -> u32 {
        self.tbs.free_slots() as u32
    }
}
