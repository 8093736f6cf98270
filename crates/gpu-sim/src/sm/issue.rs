//! The SM front end: per-cycle scheduler gather/choose/issue, the
//! work-conserving scavenger, global-memory issue, and the sleep /
//! catch-up protocol that lets the machine leave a stalled SM alone
//! (DESIGN.md §3.1).
//!
//! One issuable word is computed per tick (`live & tb_active & ready`,
//! the last kept by the wake queue). Scheduler `sid` owns the slots with
//! `slot % num_scheds == sid` and sees its candidates in increasing slot
//! order — the order the mutating `quota_allows` refill rules fire in
//! (DESIGN.md §18).
//!
//! The paper's QoS design leaves the warp scheduling algorithm unmodified —
//! quotas only *gate* which kernels are eligible — and evaluates one: GTO
//! (greedy-then-oldest, Table 1), which keeps issuing from the same warp
//! while it is ready and otherwise falls back to the oldest ready warp. That
//! scheduler is [`Pick`], written once; its whole state between cycles is
//! `Sm::greedy`, and the two gathers differ only in which candidates they
//! show it.

use crate::config::L1_HIT_LATENCY;
use crate::kernel::{KernelDesc, MemSpace, Op};
use crate::memsys::MemSystem;
use crate::observe::TraceEventKind;
use crate::types::Cycle;
use crate::MAX_KERNELS;

use super::warp_table::{bit, slots};
use super::Sm;

/// Largest scheduler count [`Sm::gather_fused`] serves, which is the largest
/// a shipped configuration has: its accumulators live on the stack and every
/// one is initialised each tick, used or not. It also wants a power of two,
/// so that a slot's owner is `slot & (n - 1)` and not a division per
/// candidate.
const MAX_SCHEDS_FUSED: usize = 4;

/// One greedy-then-oldest scheduler's choice among the candidates shown to
/// it, folded without materializing a candidate list: the warp it last issued
/// from while that warp is a candidate, otherwise the oldest one. Candidates
/// must arrive in increasing slot order, so that the strict `<` below keeps
/// the lowest slot among equal ages. `u16::MAX` is never a warp slot, so it
/// stands for "none" without an `Option` branch per candidate.
#[derive(Clone, Copy)]
struct Pick {
    greedy: u16,
    /// The greedy slot is among the candidates.
    greedy_seen: bool,
    /// The first candidate of minimum age.
    oldest: u16,
    best_age: u64,
}

impl Pick {
    fn new(greedy: Option<u16>) -> Self {
        Pick {
            greedy: greedy.unwrap_or(u16::MAX),
            greedy_seen: false,
            oldest: u16::MAX,
            best_age: u64::MAX,
        }
    }

    #[inline(always)]
    fn see(&mut self, slot: u16, age: u64) {
        self.greedy_seen |= slot == self.greedy;
        if age < self.best_age {
            self.best_age = age;
            self.oldest = slot;
        }
    }

    fn choose(&self) -> Option<u16> {
        let slot = if self.greedy_seen { self.greedy } else { self.oldest };
        (slot != u16::MAX).then_some(slot)
    }
}

impl Sm {
    /// The earliest future cycle at which this SM could change state by
    /// itself, or `None` if it is fully quiescent.
    ///
    /// A returned cycle `<= now` means the SM is busy *right now* (some
    /// non-inert warp can issue this cycle), so it must not sleep. Horizons
    /// come from two sources: in-flight context transitions (whose
    /// completion mutates slot state in `process_transitions`) and stalled
    /// warps' `ready_at` scoreboards.
    fn next_event(&self) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        let fold = |h: &mut Option<Cycle>, c: Cycle| {
            *h = Some(h.map_or(c, |v| v.min(c)));
        };
        for &slot in &self.transitioning {
            if self.tbs.is_occupied(slot) {
                if let Some(until) = self.tbs.transition_done_at(slot) {
                    fold(&mut horizon, until);
                }
            }
        }
        if self.sched_frozen || self.used_threads == 0 {
            // A frozen or empty SM never issues; only transitions can fire.
            return horizon;
        }
        let inert = if self.ungated() {
            0
        } else if self.gate.fresh {
            self.inert_bits(self.gate.inert)
        } else {
            self.inert_bits(self.inert_kernels())
        };
        let t = &self.warps;
        let waiting = t.live() & !inert;
        // Warps of Active TBs wake at their scoreboard release.
        for slot in slots(waiting & t.tb_active.0) {
            fold(&mut horizon, t.ready_at[slot]);
        }
        // Warps of Loading TBs wake at the later of their scoreboard release
        // and the load completion. (Warps of Saving TBs are frozen — neither
        // phase bit set — and the save completion is already a transition
        // horizon above.)
        for slot in slots(waiting & t.tb_loading.0) {
            let until = self.tbs.transition_done_at(t.tb_slot[slot]).unwrap_or(t.ready_at[slot]);
            fold(&mut horizon, t.ready_at[slot].max(until));
        }
        horizon
    }

    /// The cycle this SM must next be ticked at: its sleep horizon, or 0
    /// (always due) while it is awake.
    #[inline]
    pub(crate) fn wake_at(&self) -> Cycle {
        self.sleep.map_or(0, |s| s.until)
    }

    /// Puts the SM to sleep from cycle `from` if nothing on it can change at
    /// `from`. Call only right after a [`Sm::tick`] at `from - 1` that issued
    /// nothing, and after its idle-warp sample if `from - 1` is a sample
    /// point; `census` is the first sample point at or after `from`. Whether
    /// SMs sleep at all is the machine's decision
    /// (`GpuConfig::fast_forward`), which is why `tick` does not do this.
    pub(crate) fn sleep_from(&mut self, from: Cycle, census: Cycle) {
        let until = self.next_event().unwrap_or(Cycle::MAX);
        if until > from {
            self.sleep = Some(super::Sleep { since: from, until, census });
        }
    }

    /// Ends a sleep at `now`, accounting for the slept cycles `[since, now)`
    /// exactly as per-cycle [`Sm::tick`] calls would have: a hosted,
    /// unfrozen SM burns busy cycles and empty issue slots even when no warp
    /// can issue, and the gather counts every issuable-but-quota-denied warp
    /// once per cycle. Neither the freeze/occupancy conditions nor kernel
    /// inertness can change while asleep — whatever would change them calls
    /// this first — so the quota-blocked tally is replayed: every slept cycle
    /// for a warp the wake queue already held ready, from its scoreboard
    /// release to `now` for the others. Only quota-inert kernels can own
    /// issuable warps inside the window (a non-inert one would have bounded
    /// the horizon), and transitioning TBs stay un-issuable throughout
    /// because their completion is itself a horizon. No-op while awake.
    ///
    /// The idle-warp sample points the sleep covered, `[census, now)`, are
    /// counted first ([`Sm::replay_census`]): a frozen or empty SM is
    /// sampled too. The point at `now`, if it is one, is counted after the
    /// tick at `now`.
    ///
    /// Called from the run loop on every due SM, so it stays small: the
    /// replays are out of line, and the census one is reached only when a
    /// sample point fell in the window.
    pub(crate) fn catch_up(&mut self, now: Cycle) {
        let Some(super::Sleep { since, until, census }) = self.sleep.take() else { return };
        debug_assert!(now <= until, "{} slept past its horizon {until} to {now}", self.id);
        let end = now;
        #[cfg(test)]
        let end = end + u64::from(self.replay_counts_wake);
        if census < end {
            self.replay_census(census, end);
        }
        if now <= since || self.sched_frozen || self.used_threads == 0 {
            return;
        }
        let slept = now - since;
        self.busy_cycles += slept;
        self.issue_slots += slept * u64::from(self.num_scheds);
        // An ungated SM has no inert kernel, so no warp was quota-blocked.
        if !self.ungated() {
            self.replay_blocked(since, now);
        }
    }

    /// The quota-blocked tally of the slept cycles `[since, now)`, under the
    /// inert set the sleep began with (nothing changed it since).
    #[inline(never)]
    fn replay_blocked(&mut self, since: Cycle, now: Cycle) {
        let slept = now - since;
        let inert = self.inert_set();
        if inert == 0 {
            return;
        }
        let t = &self.warps;
        let bits = t.live() & t.tb_active.0 & self.inert_bits(inert);
        // Ready at the last tick, before `since`: denied every cycle.
        let ready = bits & t.wake.ready;
        self.count_blocked(inert, ready, slept);
        // The rest are released inside the window or after it.
        for slot in slots(bits & !ready) {
            let start = since.max(self.warps.ready_at[slot]);
            if start < now {
                self.quota_blocked[self.warps.kernel[slot].index()] += now - start;
            }
        }
    }

    /// Adds `times` to `quota_blocked` for every warp of `bits` that a
    /// kernel of the kernel mask `inert` owns.
    #[inline]
    fn count_blocked(&mut self, inert: u64, bits: u64, times: u64) {
        for k in slots(inert) {
            let owned = bits & self.warps.kernel_mask[k].0;
            self.quota_blocked[k] += times * u64::from(owned.count_ones());
        }
    }

    /// Advances the SM by one cycle and reports whether any warp issued.
    ///
    /// A global-memory instruction's L1 misses are served by `mem` as the
    /// warp issues, so the machine's calls into the shared hierarchy come in
    /// SM-index order, then scheduler issue order (DESIGN.md §13).
    pub(crate) fn tick(&mut self, now: Cycle, mem: &mut MemSystem) -> bool {
        self.catch_up(now);
        if !self.transitioning.is_empty() {
            self.process_transitions(now);
        }
        if self.sched_frozen || self.used_threads == 0 {
            return false;
        }
        self.busy_cycles += 1;
        self.issue_slots += u64::from(self.num_scheds);

        // Issuable candidates for this cycle: live, owning TB in Active
        // phase (`tb_active` mirrors the phase exactly; a Loading TB due this
        // cycle was flipped to Active by `process_transitions` above),
        // scoreboard released (the wake queue's `ready`, brought to `now`
        // across whatever this SM slept through). Mid-tick mutations (issue,
        // barrier release, TB drain) never make a masked-out warp issuable at
        // `now` — barrier releases push `ready_at` past `now`, drained TBs'
        // warps are all done, and an issue only rewrites the issuing
        // scheduler's own stripe, which is never revisited this tick — so one
        // mask, filtered per slot by the quota checks alone, serves every
        // scheduler (DESIGN.md §18).
        self.warps.advance(now);
        let t = &self.warps;
        self.live = t.live() & t.tb_active.0 & t.wake.ready;
        // The wake queue against the column it is derived from. The dev
        // profile keeps debug assertions on, so every tier-1 simulation runs
        // this; release builds carry none of it.
        #[cfg(debug_assertions)]
        {
            let mut swept = t.live() & t.tb_active.0;
            for (b, &ra) in t.ready_at.iter().enumerate() {
                swept &= !(u64::from(ra > now) << b);
            }
            debug_assert_eq!(self.live, swept, "{} wake queue at cycle {now}", self.id);
        }

        let n_scheds = self.greedy.len();
        let issued = self.issued_total;
        if self.ungated() && n_scheds.is_power_of_two() && n_scheds <= MAX_SCHEDS_FUSED {
            self.gather_fused(now, mem);
        } else {
            self.gather_gated(now, mem);
        }
        self.issued_total != issued
    }

    /// The ungated gather: every issuable warp is a candidate, so one pass
    /// over the issuable word feeds every scheduler's [`Pick`] at once
    /// (`sid = slot & (n - 1)`, the stripe partition), and all picks are made
    /// from tick-start state before any issue. That equals serving the
    /// schedulers one after another: a scheduler's candidates within the
    /// fused scan keep their increasing order, an issue only rewrites its own
    /// slot's scoreboard (own stripe, already gathered), barrier releases
    /// push `ready_at` past `now`, and with no kernel gated there is no
    /// mutating `quota_allows` whose call order could matter (DESIGN.md §18).
    #[inline(never)]
    fn gather_fused(&mut self, now: Cycle, mem: &mut MemSystem) {
        let n_scheds = self.greedy.len();
        // Entries past the scheduler count are never shown a candidate.
        let mut picks: [Pick; MAX_SCHEDS_FUSED] =
            std::array::from_fn(|sid| Pick::new(self.greedy.get(sid).copied().flatten()));
        for slot in slots(self.live) {
            picks[slot & (n_scheds - 1)].see(slot as u16, self.warps.age[slot]);
        }
        for (sid, pick) in picks[..n_scheds].iter().enumerate() {
            if let Some(slot) = pick.choose() {
                self.greedy[sid] = Some(slot);
                self.issue(slot, now, mem);
            }
        }
    }

    /// The gather behind the quota gate, one scheduler after another. The
    /// gate is decided in mask space: the inert kernels' candidates leave the
    /// gather (`gate.open`) and are counted in one step per inert kernel,
    /// over the issuable warps of the stripes still `owed` (§3.1): `live`
    /// is fixed for the tick and an inert kernel frees no slot, so these are
    /// the warps those schedulers saw. The open ones are asked about in slot
    /// order. An ungated SM whose scheduler count the fused gather does not
    /// serve comes here too: no kernel is inert, every candidate is open and
    /// admitted, and the scavenger finds nothing.
    #[inline(never)]
    fn gather_gated(&mut self, now: Cycle, mem: &mut MemSystem) {
        let n_scheds = self.greedy.len();
        let mut inert = self.open_gate();
        // The issuable warps not yet counted, and the stripes served so far.
        let (mut owed, mut served) = (self.live, 0);
        for sid in 0..n_scheds {
            let mut pick = Pick::new(self.greedy[sid]);
            let stripe = self.stride_masks[sid];
            served |= stripe;
            let open = self.gate.open & stripe;
            for slot in slots(open) {
                // A kernel turned inert since the evaluation is still open:
                // `quota_allows` denies it, mutating nothing.
                let k = self.warps.kernel[slot].index();
                if self.quota_allows(k) {
                    pick.see(slot as u16, self.warps.age[slot]);
                } else {
                    self.quota_blocked[k] += 1;
                }
            }
            if open == 0 {
                // Nothing to pick and nothing to scavenge.
                continue;
            }
            let pick = pick.choose();
            if pick.is_some() {
                self.greedy[sid] = pick;
            }
            // Work-conserving slack reclamation: the slot would idle -- no
            // admissible warp is ready -- so a quota-exhausted *non-QoS* warp
            // may use it (QoS kernels stay throttled at their goals; this is
            // the "keep them running" intent of the mid-epoch rule in section
            // 3.4.1). The issue still debits the quota counter, so epoch
            // accounting and the section 3.5 feedback see the true
            // consumption.
            let Some(slot) = pick.or_else(|| self.scavenge(open)) else { continue };
            let k = self.warps.kernel[usize::from(slot)].index();
            let exhaustions = self.quota_exhaustions[k];
            self.issue(slot, now, mem);
            let exhausted = self.quota_exhaustions[k] != exhaustions;
            #[cfg(test)]
            let exhausted = exhausted && !self.gate.stale_hoist;
            if exhausted {
                // `issue` counted a quota taken from positive to spent, the
                // one event that can end inertness inside a tick (see
                // `quota_inert`): the schedulers so far were served under the
                // old set, the rest see the new one.
                self.count_blocked(inert, owed & served, 1);
                owed &= !served;
                inert = self.open_gate();
            }
        }
        self.count_blocked(inert, owed, 1);
    }

    /// Opens the quota gate: returns the inert kernels (the cached set,
    /// evaluated again if stale) and leaves their candidates out of
    /// `gate.open`.
    fn open_gate(&mut self) -> u64 {
        let inert = self.inert_set();
        self.gate.open = self.live & !self.inert_bits(inert);
        inert
    }

    /// Oldest warp of `open` (a scheduler's open candidates) whose kernel is
    /// non-QoS and only blocked by an exhausted quota; `None` under the
    /// Rollover-Time priority gate while QoS quota remains (strict time
    /// multiplexing is that scheme's point).
    fn scavenge(&self, open: u64) -> Option<u16> {
        // No kernel in scavengeable state (gated, non-QoS, exhausted): the
        // scan below cannot match.
        if !(0..MAX_KERNELS).any(|k| self.gated[k] && !self.is_qos[k] && self.quota[k] <= 0) {
            return None;
        }
        if self.priority_block && self.any_qos_quota_positive() {
            return None;
        }
        let mut best: Option<(u16, u64)> = None;
        let t = &self.warps;
        // A scavengeable kernel is never inert: its warps are open.
        for slot in slots(open) {
            let k = t.kernel[slot].index();
            if self.gated[k] && !self.is_qos[k] && self.quota[k] <= 0 {
                match best {
                    Some((_, age)) if age <= t.age[slot] => {}
                    _ => best = Some((slot as u16, t.age[slot])),
                }
            }
        }
        best.map(|(slot, _)| slot)
    }

    fn issue(&mut self, slot: u16, now: Cycle, mem: &mut MemSystem) {
        let i = usize::from(slot);
        let k = self.warps.kernel[i].index();
        // The warp's I-buffer holds its current op: one load from an inline
        // column. Dev builds check it against the body it mirrors.
        let op = self.warps.op[i];
        debug_assert_eq!(
            Some(&op),
            self.bodies[k].get(usize::from(self.warps.pc[i])),
            "{} slot {slot}: I-buffer against kernel {k}'s body",
            self.id
        );

        if self.warps.rem[i] == 0 {
            self.warps.rem[i] = match op {
                Op::Alu { repeat, .. } | Op::Sfu { repeat, .. } => repeat.max(1),
                Op::Mem { .. } | Op::Bar => 1,
            };
        }

        // The op's lanes and the cycle its result is ready.
        let (lanes, ready_at) = match op {
            Op::Alu { latency, active_lanes, .. } => {
                self.alu_thread_insts[k] += u64::from(active_lanes);
                (active_lanes, now + Cycle::from(latency.max(1)))
            }
            Op::Sfu { latency, active_lanes, .. } => {
                self.sfu_thread_insts[k] += u64::from(active_lanes);
                (active_lanes, now + Cycle::from(latency.max(1)))
            }
            Op::Mem { space: MemSpace::Shared, active_lanes, .. } => {
                self.smem_accesses[k] += u64::from(active_lanes);
                (active_lanes, now + Cycle::from(L1_HIT_LATENCY))
            }
            Op::Mem { space: MemSpace::Global, pattern, active_lanes, .. } => {
                let tb_index = self.tbs.tb_index[usize::from(self.warps.tb_slot[i])].0;
                let mut buf = [0u64; 32];
                let n = self.warps.addr_stream(slot).gen_lines(
                    &pattern,
                    KernelDesc::base_addr(k),
                    self.line_bytes,
                    tb_index,
                    &mut buf,
                );
                // The private L1 is looked up here; only the misses reach
                // the shared hierarchy. `serve` is called even when every
                // line hit, because its L1-access ledger counts all lines.
                let mut misses = [0u64; 32];
                let mut m = 0;
                for &addr in &buf[..n] {
                    if self.l1.access(addr) == crate::cache::AccessOutcome::Miss {
                        misses[m] = addr;
                        m += 1;
                    }
                }
                (active_lanes, mem.serve(self.warps.kernel[i], &misses[..m], n as u64, now))
            }
            Op::Bar => (crate::WARP_SIZE as u8, now + 1),
        };
        self.warps.set_ready_at(slot, ready_at);

        // Retire one dynamic instruction and advance the program counter.
        self.warps.rem[i] -= 1;
        let mut arrived_barrier = false;
        let mut retired = false;
        if self.warps.rem[i] == 0 {
            // An op boundary: the one place `issue` reads the body.
            let body = &self.bodies[k];
            self.warps.pc[i] += 1;
            if usize::from(self.warps.pc[i]) == body.len() {
                self.warps.iter[i] -= 1;
                if self.warps.iter[i] == 0 {
                    self.warps.done.0 |= bit(slot);
                    retired = true;
                } else {
                    self.warps.pc[i] = 0;
                }
            }
            // A retired warp's `pc` is past the body; it never issues again.
            if let Some(&next) = body.get(usize::from(self.warps.pc[i])) {
                self.warps.op[i] = next;
            }
            if matches!(op, Op::Bar) {
                self.warps.at_barrier.0 |= bit(slot);
                arrived_barrier = true;
            }
        }
        let tb_slot = self.warps.tb_slot[i];

        self.issued_total += 1;
        self.counters[k].thread_insts += u64::from(lanes);
        self.counters[k].warp_insts += 1;
        if self.gated[k] {
            let before = self.quota[k];
            self.quota[k] -= i64::from(lanes);
            self.quota_debit[k] += i64::from(lanes);
            if before > 0 && self.quota[k] <= 0 {
                self.stale_gate();
                self.quota_exhaustions[k] += 1;
                self.record(now, TraceEventKind::QuotaExhausted { kernel: k as u32 });
            }
        }

        if arrived_barrier {
            self.note_barrier_arrival(tb_slot, now);
        }
        if retired {
            self.note_warp_retired(tb_slot, now);
        }
    }
}
