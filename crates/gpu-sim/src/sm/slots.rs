//! Occupancy and slot accounting: TB dispatch, preemption context switches,
//! completion outboxes, and the epoch-boundary invariant audit.
//!
//! All TB bookkeeping lives in the arena-allocated [`crate::tb::TbSlab`] and
//! all warp state in the struct-of-arrays [`super::WarpTable`]; dispatch and
//! release are index-based and allocation-free in steady state (the per-slot
//! warp lists keep their capacity across reuse). Every TB phase change also
//! updates the warp table's `tb_active`/`tb_loading` mirror bits, the
//! invariant the issue path's bitmask scan relies on.

use std::sync::Arc;

use crate::health::AuditKind;
use crate::kernel::KernelDesc;
use crate::observe::TraceEventKind;
use crate::preempt::SavedTb;
use crate::rng::derive_seed;
use crate::tb::TbPhase;
use crate::types::{Cycle, KernelId, TbIndex};
use crate::warp::WarpProgress;
use crate::MAX_KERNELS;

use super::warp_table::{mask_clear, mask_get};
use super::Sm;

impl Sm {
    /// Registers the kernel description for slot `k` (done once at launch).
    pub(crate) fn set_kernel_desc(&mut self, k: KernelId, desc: Arc<KernelDesc>) {
        self.bodies[k.index()] = desc.body().to_vec();
        self.descs[k.index()] = Some(desc);
    }

    /// Whether one more TB of `desc` fits in the remaining resources.
    pub fn can_host(&self, desc: &KernelDesc) -> bool {
        self.tbs.free_slots() > 0
            && self.warps.free_slots() >= desc.warps_per_tb() as usize
            && self.used_threads + desc.threads_per_tb() <= self.max_threads
            && self.used_regs + desc.regfile_bytes_per_tb() <= self.regfile_bytes
            && self.used_smem + desc.smem_per_tb() <= self.smem_bytes
    }

    /// Maximum TBs of `desc` an (empty) SM of this configuration can hold.
    pub fn max_resident_tbs(&self, desc: &KernelDesc) -> u32 {
        let by_tbs = u32::from(self.max_tbs);
        let by_warps = u32::from(self.max_warps) / desc.warps_per_tb();
        let by_threads = self.max_threads / desc.threads_per_tb();
        let by_regs = (self.regfile_bytes / desc.regfile_bytes_per_tb().max(1)) as u32;
        let by_smem = if desc.smem_per_tb() == 0 {
            u32::MAX
        } else {
            (self.smem_bytes / desc.smem_per_tb()) as u32
        };
        by_tbs.min(by_warps).min(by_threads).min(by_regs).min(by_smem)
    }

    /// Number of TBs of kernel `k` currently resident (including loading /
    /// saving ones).
    pub fn hosted_tbs(&self, k: KernelId) -> u32 {
        u32::from(self.hosted[k.index()])
    }

    /// Dispatches one TB of kernel `k`, optionally resuming saved context.
    /// The TB's warps may issue after `load_cost` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the TB does not fit (callers check [`Sm::can_host`]) or the
    /// kernel description was not registered.
    pub(crate) fn dispatch(
        &mut self,
        k: KernelId,
        tb_index: TbIndex,
        resume: Option<SavedTb>,
        now: Cycle,
        load_cost: Cycle,
    ) {
        let desc = self.descs[k.index()].as_ref().expect("kernel desc registered").clone();
        assert!(self.can_host(&desc), "dispatch without capacity on {}", self.id);
        // New residency ends a sleep; the slept cycles ran without it.
        self.catch_up(now);
        let resumed = resume.is_some();
        let warps_per_tb = desc.warps_per_tb() as u16;
        let tb_slot = self
            .tbs
            .alloc(k, tb_index, 0, TbPhase::Loading(now + load_cost))
            .expect("free TB slot");
        let saved_warps = resume.as_ref().map(|s| &s.warps);
        if let Some(s) = &resume {
            assert_eq!(s.tb_index, tb_index, "resume must target the saved TB index");
            assert_eq!(s.warps.len(), warps_per_tb as usize, "saved warp count mismatch");
            self.preempt_stats.resumes += 1;
            self.preempt_stats.transfer_cycles += load_cost;
        }
        let mut warps_done = 0u16;
        for wi in 0..warps_per_tb {
            let warp_uid = u64::from(tb_index.0) * u64::from(warps_per_tb) + u64::from(wi);
            let progress = match saved_warps {
                Some(saved) => {
                    let p: &WarpProgress = &saved[wi as usize];
                    if p.done {
                        warps_done += 1;
                    }
                    p.clone()
                }
                None => WarpProgress {
                    pc: 0,
                    rem: 0,
                    iter: desc.iterations(),
                    seq: 0,
                    done: false,
                    rng: crate::rng::SplitMix64::new(derive_seed(desc.seed(), warp_uid)),
                },
            };
            let slot = self
                .warps
                .alloc(k, tb_slot, wi, warp_uid, &progress, now + load_cost, self.next_age)
                .expect("free warp slot");
            self.next_age += 1;
            self.warps.set_tb_phase_bits(slot, false, true);
            self.tbs.warp_slots[usize::from(tb_slot)].push(slot);
        }
        self.tbs.warps_done[usize::from(tb_slot)] = warps_done;
        self.used_threads += desc.threads_per_tb();
        self.used_regs += desc.regfile_bytes_per_tb();
        self.used_smem += desc.smem_per_tb();
        self.hosted[k.index()] += 1;
        self.transitioning.push(tb_slot);
        self.record(
            now,
            TraceEventKind::TbDispatch { kernel: k.index() as u32, tb: tb_index.0, resumed },
        );
    }

    /// Starts a partial context switch of one `k` TB (the most recently
    /// dispatched active one). Returns `false` if no active TB of `k` is
    /// resident.
    pub(crate) fn start_preempt(&mut self, k: KernelId, now: Cycle, save_cost: Cycle) -> bool {
        if self.preempt_stalled {
            return false;
        }
        let victim = self
            .tbs
            .iter_occupied()
            .filter(|&slot| {
                let i = usize::from(slot);
                self.tbs.kernel[i] == k
                    && self.tbs.phase[i] == TbPhase::Active
                    && !self.tbs.finished(slot)
            })
            .map(|slot| (slot, self.tbs.tb_index[usize::from(slot)].0))
            .max_by_key(|&(_, idx)| idx);
        let Some((slot, victim_tb)) = victim else { return false };
        self.catch_up(now);
        let i = usize::from(slot);
        self.tbs.phase[i] = TbPhase::Saving(now + save_cost);
        // Warps parked at a barrier would deadlock the saved context check;
        // the barrier state is recomputed on resume, so release the arrivals.
        self.tbs.barrier_arrived[i] = 0;
        // Saving TBs' warps are frozen: neither phase-mirror bit set.
        for idx in 0..self.tbs.warp_slots[i].len() {
            let ws = self.tbs.warp_slots[i][idx];
            self.warps.set_tb_phase_bits(ws, false, false);
        }
        self.preempt_stats.saves += 1;
        self.preempt_stats.transfer_cycles += save_cost;
        self.transitioning.push(slot);
        self.record(now, TraceEventKind::PreemptStart { kernel: k.index() as u32, tb: victim_tb });
        true
    }

    /// Whether any TB is currently loading or saving context.
    pub fn context_switch_in_flight(&self) -> bool {
        self.transitioning
            .iter()
            .any(|&s| self.tbs.is_occupied(s) && self.tbs.transition_done_at(s).is_some())
    }

    pub(super) fn process_transitions(&mut self, now: Cycle) {
        let mut i = 0;
        while i < self.transitioning.len() {
            let slot = self.transitioning[i];
            if !self.tbs.is_occupied(slot) {
                // The TB completed while transitioning bookkeeping was
                // pending (cannot normally happen; defensive).
                self.transitioning.swap_remove(i);
                continue;
            }
            match self.tbs.phase[usize::from(slot)] {
                TbPhase::Loading(until) if now >= until => {
                    self.tbs.phase[usize::from(slot)] = TbPhase::Active;
                    let si = usize::from(slot);
                    for idx in 0..self.tbs.warp_slots[si].len() {
                        let ws = self.tbs.warp_slots[si][idx];
                        self.warps.set_tb_phase_bits(ws, true, false);
                    }
                    self.transitioning.swap_remove(i);
                }
                TbPhase::Saving(until) if now >= until => {
                    self.finalize_save(slot, now);
                    self.transitioning.swap_remove(i);
                }
                _ => i += 1,
            }
        }
    }

    fn finalize_save(&mut self, tb_slot: u16, now: Cycle) {
        let i = usize::from(tb_slot);
        let kernel = self.tbs.kernel[i];
        let tb_index = self.tbs.tb_index[i];
        let desc = self.descs[kernel.index()].as_ref().expect("desc").clone();
        let n = self.tbs.warp_slots[i].len();
        let mut warps = Vec::with_capacity(n);
        for idx in 0..n {
            let ws = self.tbs.warp_slots[i][idx];
            warps.push(self.warps.capture_progress(ws));
            self.warps.free_slot(ws);
        }
        self.release_resources(&desc);
        self.hosted[kernel.index()] -= 1;
        self.tbs.release(tb_slot);
        self.saved.push((kernel, SavedTb { tb_index, warps }));
        self.record(
            now,
            TraceEventKind::PreemptComplete { kernel: kernel.index() as u32, tb: tb_index.0 },
        );
    }

    fn release_resources(&mut self, desc: &KernelDesc) {
        self.used_threads -= desc.threads_per_tb();
        self.used_regs -= desc.regfile_bytes_per_tb();
        self.used_smem -= desc.smem_per_tb();
    }

    pub(super) fn note_barrier_arrival(&mut self, tb_slot: u16, now: Cycle) {
        let i = usize::from(tb_slot);
        self.tbs.barrier_arrived[i] += 1;
        let live = self.tbs.warp_slots[i].len() as u16 - self.tbs.warps_done[i];
        if self.tbs.barrier_arrived[i] >= live {
            self.tbs.barrier_arrived[i] = 0;
            for idx in 0..self.tbs.warp_slots[i].len() {
                let ws = self.tbs.warp_slots[i][idx];
                if self.warps.is_occupied(ws) && mask_get(&self.warps.at_barrier, ws) {
                    mask_clear(&mut self.warps.at_barrier, ws);
                    let at = self.warps.ready_at[usize::from(ws)].max(now + 1);
                    self.warps.set_ready_at(ws, at);
                }
            }
        }
    }

    pub(super) fn note_warp_retired(&mut self, tb_slot: u16, now: Cycle) {
        let i = usize::from(tb_slot);
        self.tbs.warps_done[i] += 1;
        if self.tbs.finished(tb_slot) {
            let kernel = self.tbs.kernel[i];
            let tb_index = self.tbs.tb_index[i];
            let desc = self.descs[kernel.index()].as_ref().expect("desc").clone();
            for idx in 0..self.tbs.warp_slots[i].len() {
                let ws = self.tbs.warp_slots[i][idx];
                self.warps.free_slot(ws);
            }
            self.release_resources(&desc);
            self.hosted[kernel.index()] -= 1;
            self.tbs.release(tb_slot);
            self.record(
                now,
                TraceEventKind::TbDrain { kernel: kernel.index() as u32, tb: tb_index.0 },
            );
            self.completed.push((kernel, tb_index));
        }
    }

    /// Whether TB completions or finished context saves are waiting for the
    /// TB scheduler's next service pass.
    pub(crate) fn has_pending_notifications(&self) -> bool {
        !self.completed.is_empty() || !self.saved.is_empty()
    }

    /// Drains TB-completion notifications for the TB scheduler.
    pub(crate) fn drain_completed(&mut self, out: &mut Vec<(KernelId, TbIndex)>) {
        out.append(&mut self.completed);
    }

    /// Drains saved-context notifications for the TB scheduler.
    pub(crate) fn drain_saved(&mut self, out: &mut Vec<(KernelId, SavedTb)>) {
        out.append(&mut self.saved);
    }

    /// Re-derives this SM's bookkeeping from its resident TBs and checks it
    /// against the incrementally maintained state. Returns the first
    /// violated invariant. Called at epoch boundaries in audit mode.
    pub fn audit_invariants(&self) -> Result<(), (AuditKind, String)> {
        let mut threads = 0u32;
        let mut regs = 0u64;
        let mut smem = 0u64;
        let mut hosted = [0u16; MAX_KERNELS];
        let mut live_tbs = 0usize;
        for slot in self.tbs.iter_occupied() {
            let i = usize::from(slot);
            let k = self.tbs.kernel[i].index();
            let Some(desc) = self.descs[k].as_ref() else {
                return Err((
                    AuditKind::SlotAccounting,
                    format!("TB slot {slot} hosts unregistered kernel {k}"),
                ));
            };
            threads += desc.threads_per_tb();
            regs += desc.regfile_bytes_per_tb();
            smem += desc.smem_per_tb();
            hosted[k] += 1;
            live_tbs += 1;
            let (want_active, want_loading) = match self.tbs.phase[i] {
                TbPhase::Active => (true, false),
                TbPhase::Loading(_) => (false, true),
                TbPhase::Saving(_) => (false, false),
            };
            for &ws in &self.tbs.warp_slots[i] {
                let ok = self.warps.is_occupied(ws)
                    && self.warps.kernel[usize::from(ws)] == self.tbs.kernel[i]
                    && self.warps.tb_slot[usize::from(ws)] == slot;
                if !ok {
                    return Err((
                        AuditKind::SlotAccounting,
                        format!("TB slot {slot} claims warp slot {ws} it does not own"),
                    ));
                }
                let is_active = mask_get(&self.warps.tb_active, ws);
                let is_loading = mask_get(&self.warps.tb_loading, ws);
                if (is_active, is_loading) != (want_active, want_loading) {
                    return Err((
                        AuditKind::SlotAccounting,
                        format!(
                            "warp slot {ws}: TB-phase mirror bits (active={is_active}, \
                             loading={is_loading}) disagree with TB slot {slot} phase {:?}",
                            self.tbs.phase[i]
                        ),
                    ));
                }
            }
        }
        if threads > self.max_threads || regs > self.regfile_bytes || smem > self.smem_bytes {
            return Err((
                AuditKind::Occupancy,
                format!(
                    "resident TBs need {threads} threads / {regs} reg bytes / {smem} smem \
                     bytes, limits are {} / {} / {}",
                    self.max_threads, self.regfile_bytes, self.smem_bytes
                ),
            ));
        }
        if threads != self.used_threads || regs != self.used_regs || smem != self.used_smem {
            return Err((
                AuditKind::Occupancy,
                format!(
                    "tracked occupancy {}t/{}r/{}s != recomputed {threads}t/{regs}r/{smem}s",
                    self.used_threads, self.used_regs, self.used_smem
                ),
            ));
        }
        for (k, &count) in hosted.iter().enumerate() {
            if count != self.hosted[k] {
                return Err((
                    AuditKind::SlotAccounting,
                    format!(
                        "kernel {k}: hosted counter {} != {count} resident TBs",
                        self.hosted[k]
                    ),
                ));
            }
        }
        if self.tbs.free_slots() + live_tbs != self.max_tbs as usize {
            return Err((
                AuditKind::SlotAccounting,
                format!(
                    "{} free + {live_tbs} live TB slots != {} total",
                    self.tbs.free_slots(),
                    self.max_tbs
                ),
            ));
        }
        let live_warps: usize = self.warps.occupied.iter().map(|w| w.count_ones() as usize).sum();
        if self.warps.free_slots() + live_warps != self.max_warps as usize {
            return Err((
                AuditKind::SlotAccounting,
                format!(
                    "{} free + {live_warps} live warp slots != {} total",
                    self.warps.free_slots(),
                    self.max_warps
                ),
            ));
        }
        for k in 0..MAX_KERNELS {
            let expected = self.quota_credit[k] - self.quota_debit[k];
            if self.quota[k] != expected {
                return Err((
                    AuditKind::QuotaLedger,
                    format!(
                        "kernel {k}: quota {} != credits {} - debits {}",
                        self.quota[k], self.quota_credit[k], self.quota_debit[k]
                    ),
                ));
            }
        }
        Ok(())
    }
}
