//! The SM front end: per-cycle scheduler gather/choose/issue, the
//! work-conserving scavenger, interconnect-port traffic, and the sleep /
//! catch-up protocol that lets the machine leave a stalled SM alone
//! (DESIGN.md §3.1).
//!
//! One issuable word set is computed per tick (`live & tb_active & ready`,
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

use crate::icn::{self, IcnRequest, IcnResponse};
use crate::kernel::{KernelDesc, MemSpace, Op};
use crate::memsys::MemSystem;
use crate::observe::TraceEventKind;
use crate::types::Cycle;
use crate::MAX_KERNELS;

use super::warp_table::{mask_set, slots};
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
    /// warps' `ready_at` scoreboards. Warps never hold the [`icn::PENDING`]
    /// sentinel here: only an issue parks a warp on it, and an SM is asked
    /// for its horizon only after a tick that issued nothing.
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
        let inert = self.inert_kernels();
        let t = &self.warps;
        for wi in 0..t.words() {
            let waiting = t.live(wi) & !self.inert_bits(wi, &inert);
            // Warps of Active TBs wake at their scoreboard release.
            for slot in slots(wi, waiting & t.tb_active[wi]) {
                fold(&mut horizon, t.ready_at[slot]);
            }
            // Warps of Loading TBs wake at the later of their scoreboard
            // release and the load completion. (Warps of Saving TBs are
            // frozen — neither phase bit set — and the save completion is
            // already a transition horizon above.)
            for slot in slots(wi, waiting & t.tb_loading[wi]) {
                let until =
                    self.tbs.transition_done_at(t.tb_slot[slot]).unwrap_or(t.ready_at[slot]);
                fold(&mut horizon, t.ready_at[slot].max(until));
            }
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
    /// nothing; whether SMs sleep at all is the machine's decision
    /// (`GpuConfig::fast_forward`), which is why `tick` does not do this.
    pub(crate) fn sleep_from(&mut self, from: Cycle) {
        let until = self.next_event().unwrap_or(Cycle::MAX);
        if until > from {
            self.sleep = Some(super::Sleep { since: from, until });
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
    pub(crate) fn catch_up(&mut self, now: Cycle) {
        let Some(super::Sleep { since, until }) = self.sleep.take() else { return };
        debug_assert!(now <= until, "{} slept past its horizon {until} to {now}", self.id);
        if now <= since || self.sched_frozen || self.used_threads == 0 {
            return;
        }
        let slept = now - since;
        self.busy_cycles += slept;
        self.issue_slots += slept * u64::from(self.num_scheds);
        let inert = self.inert_kernels();
        if !inert.iter().any(|&b| b) {
            return;
        }
        for wi in 0..self.warps.words() {
            let t = &self.warps;
            let bits = t.live(wi) & t.tb_active[wi] & self.inert_bits(wi, &inert);
            // Ready at the last tick, before `since`: denied every cycle.
            let ready = bits & t.wake.ready[wi];
            self.count_blocked(&inert, wi, ready, slept);
            // The rest are released inside the window or after it.
            for slot in slots(wi, bits & !ready) {
                let start = since.max(self.warps.ready_at[slot]);
                if start < now {
                    self.quota_blocked[self.warps.kernel[slot].index()] += now - start;
                }
            }
        }
    }

    /// Adds `times` to `quota_blocked` for every warp of `bits` (slots of
    /// word `wi`) that an `inert` kernel owns.
    #[inline]
    fn count_blocked(&mut self, inert: &[bool; MAX_KERNELS], wi: usize, bits: u64, times: u64) {
        for k in (0..MAX_KERNELS).filter(|&k| inert[k]) {
            let owned = bits & self.warps.kernel_mask[k][wi];
            self.quota_blocked[k] += times * u64::from(owned.count_ones());
        }
    }

    /// Advances the SM by one cycle, touching only domain-local state, and
    /// reports whether any warp issued.
    ///
    /// Global-memory instructions do not reach the shared hierarchy here:
    /// they are parked in this SM's `IcnPort` and served when the machine
    /// calls [`Sm::drain_icn`] once every SM has ticked.
    pub(crate) fn tick(&mut self, now: Cycle) -> bool {
        self.catch_up(now);
        if !self.transitioning.is_empty() {
            self.process_transitions(now);
        }
        if self.sched_frozen || self.used_threads == 0 {
            return false;
        }
        self.busy_cycles += 1;
        self.issue_slots += u64::from(self.num_scheds);

        // Issuable candidate words for this cycle: live, owning TB in Active
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
        self.live_buf.clear();
        self.live_buf
            .extend((0..t.words()).map(|wi| t.live(wi) & t.tb_active[wi] & t.wake.ready[wi]));
        // The wake queue against the column it is derived from. The dev
        // profile keeps debug assertions on, so every tier-1 simulation runs
        // this; release builds carry none of it.
        #[cfg(debug_assertions)]
        for (wi, &issuable) in self.live_buf.iter().enumerate() {
            let mut swept = t.live(wi) & t.tb_active[wi];
            for (b, &ra) in t.ready_at[wi * 64..].iter().take(64).enumerate() {
                swept &= !(u64::from(ra > now) << b);
            }
            debug_assert_eq!(issuable, swept, "{} wake queue, word {wi} at cycle {now}", self.id);
        }

        // With no kernel gated and neither the priority gate nor a quota
        // freeze active, `quota_allows` is `true` for every kernel and
        // mutates nothing, and the scavenger (which only admits *gated*
        // exhausted kernels) cannot match. No issue flips a gate, so this
        // holds for the whole tick.
        let ungated = !self.quota_frozen && !self.priority_block && !self.gated.iter().any(|&g| g);
        let n_scheds = self.greedy.len();
        let issued = self.issued_total;
        if ungated && n_scheds.is_power_of_two() && n_scheds <= MAX_SCHEDS_FUSED {
            self.gather_fused(now);
        } else {
            self.gather_gated(now);
        }
        self.issued_total != issued
    }

    /// The ungated gather: every issuable warp is a candidate, so one pass
    /// over the issuable words feeds every scheduler's [`Pick`] at once
    /// (`sid = slot & (n - 1)`, the stripe partition), and all picks are made
    /// from tick-start state before any issue. That equals serving the
    /// schedulers one after another: a scheduler's candidates within the
    /// fused scan keep their increasing order, an issue only rewrites its own
    /// slot's scoreboard (own stripe, already gathered), barrier releases
    /// push `ready_at` past `now`, and with no kernel gated there is no
    /// mutating `quota_allows` whose call order could matter (DESIGN.md §18).
    #[inline(never)]
    fn gather_fused(&mut self, now: Cycle) {
        let n_scheds = self.greedy.len();
        // Entries past the scheduler count are never shown a candidate.
        let mut picks: [Pick; MAX_SCHEDS_FUSED] =
            std::array::from_fn(|sid| Pick::new(self.greedy.get(sid).copied().flatten()));
        for (wi, &bits) in self.live_buf.iter().enumerate() {
            for slot in slots(wi, bits) {
                picks[slot & (n_scheds - 1)].see(slot as u16, self.warps.age[slot]);
            }
        }
        for (sid, pick) in picks[..n_scheds].iter().enumerate() {
            if let Some(slot) = pick.choose() {
                self.greedy[sid] = Some(slot);
                self.issue(slot, now);
            }
        }
    }

    /// The gather behind the quota gate, one scheduler after another. The
    /// gate is decided in mask space: the inert kernels' candidates leave the
    /// gather (`gate.open`) and are counted by `tally_blocked`, schedulers
    /// `tallied..` still owed (§3.1); the open ones are asked about in slot
    /// order. An ungated SM whose scheduler count the fused gather does not
    /// serve comes here too: no kernel is inert, every candidate is open and
    /// admitted, and the scavenger finds nothing.
    #[inline(never)]
    fn gather_gated(&mut self, now: Cycle) {
        if self.stride_masks.is_empty() {
            self.build_stride_masks();
        }
        let n_scheds = self.greedy.len();
        let mut inert = self.open_gate();
        let mut tallied = 0;
        for sid in 0..n_scheds {
            let mut pick = Pick::new(self.greedy[sid]);
            let mut any_open = false;
            for wi in 0..self.live_buf.len() {
                for slot in slots(wi, self.gate.open[wi] & self.stride_masks[sid][wi]) {
                    any_open = true;
                    // A kernel turned inert since the evaluation is still
                    // open: `quota_allows` denies it, mutating nothing.
                    let k = self.warps.kernel[slot].index();
                    if self.quota_allows(k) {
                        pick.see(slot as u16, self.warps.age[slot]);
                    } else {
                        self.quota_blocked[k] += 1;
                    }
                }
            }
            if !any_open {
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
            let Some(slot) = pick.or_else(|| self.scavenge(sid)) else { continue };
            let k = self.warps.kernel[usize::from(slot)].index();
            let exhaustions = self.quota_exhaustions[k];
            self.issue(slot, now);
            let exhausted = self.quota_exhaustions[k] != exhaustions;
            #[cfg(test)]
            let exhausted = exhausted && !self.gate.stale_hoist;
            if exhausted {
                // `issue` counted a quota taken from positive to spent, the
                // one event that can end inertness inside a tick (see
                // `quota_inert`): the schedulers so far were served under the
                // old set, the rest see the new one.
                self.tally_blocked(&inert, tallied..sid + 1);
                tallied = sid + 1;
                inert = self.open_gate();
            }
        }
        self.tally_blocked(&inert, tallied..n_scheds);
    }

    /// Evaluates the quota gate: returns the inert kernels and leaves their
    /// candidates out of `gate.open`.
    fn open_gate(&mut self) -> [bool; MAX_KERNELS] {
        let inert = self.inert_kernels();
        self.gate.evals += 1;
        self.gate.open.clear();
        for wi in 0..self.live_buf.len() {
            self.gate.open.push(self.live_buf[wi] & !self.inert_bits(wi, &inert));
        }
        inert
    }

    /// Counts what schedulers `scheds` denied without a visit: one per
    /// issuable warp of an `inert` kernel in their stripes. `live_buf` is
    /// fixed for the tick and an inert kernel frees no slot, so the masks
    /// are the ones those schedulers saw.
    fn tally_blocked(&mut self, inert: &[bool; MAX_KERNELS], scheds: std::ops::Range<usize>) {
        if !inert.iter().any(|&b| b) {
            return;
        }
        for wi in 0..self.live_buf.len() {
            let stripes = scheds.clone().fold(0, |m, sid| m | self.stride_masks[sid][wi]);
            self.count_blocked(inert, wi, self.live_buf[wi] & stripes, 1);
        }
    }

    /// Drains this SM's interconnect port into the shared memory system and
    /// applies the responses to the issuing warps' scoreboards.
    ///
    /// The machine calls this once per cycle, after all SM domains have
    /// ticked, iterating SMs in index order — so the shared queues observe
    /// requests in a fixed order (SM 0's issues in scheduler order, then
    /// SM 1's, …; DESIGN.md §13).
    pub(crate) fn drain_icn(
        &mut self,
        mem: &mut MemSystem,
        now: Cycle,
        prof: &mut crate::telemetry::HostProfiler,
    ) {
        if self.icn.requests.is_empty() {
            return;
        }
        let t0 = prof.begin();
        let mut port = std::mem::take(&mut self.icn);
        for req in port.requests.drain(..) {
            let s = req.miss_start as usize;
            let misses = &port.lines[s..s + req.miss_len as usize];
            let ready_at = mem.serve(req.kernel, misses, u64::from(req.total_lines), now);
            port.responses.push(IcnResponse { warp_slot: req.warp_slot, ready_at });
        }
        port.lines.clear();
        // Host-time attribution (opt-in, free when disabled): the serve loop
        // above is the shared-memory-system phase; the response delivery
        // below is the interconnect-drain phase proper.
        let t1 = prof.lap(crate::telemetry::ProfPhase::MemsysServe, t0);
        for resp in port.responses.drain(..) {
            // A vacated slot means the warp retired on this very instruction
            // and its whole TB completed at issue time; the serial path wrote
            // the completion cycle into a warp that was removed in the same
            // call, so dropping the response is identical — and keeps the
            // freed slot's canonical zeroed state intact. Slots cannot have
            // been *reused* yet: dispatch only happens in the TB scheduler's
            // service pass, outside the tick→drain window.
            if self.warps.is_occupied(resp.warp_slot) {
                self.warps.set_ready_at(resp.warp_slot, resp.ready_at);
            }
        }
        // Hand the (now empty) buffers back so next cycle reuses the
        // allocations.
        self.icn = port;
        prof.end(crate::telemetry::ProfPhase::IcnDrain, t1);
    }

    /// Steps the SM one cycle *and* drains its port immediately — the
    /// single-SM equivalent of the machine's tick→barrier→drain sequence,
    /// for tests that drive an SM without a `Gpu` around it.
    #[cfg(test)]
    pub(crate) fn step(&mut self, now: Cycle, mem: &mut MemSystem) {
        self.tick(now);
        self.drain_icn(mem, now, &mut crate::telemetry::HostProfiler::new());
    }

    /// Oldest issuable non-QoS warp whose kernel is only blocked by an
    /// exhausted quota; `None` under the Rollover-Time priority gate while
    /// QoS quota remains (strict time multiplexing is that scheme's point).
    fn scavenge(&self, sid: usize) -> Option<u16> {
        if self.quota_frozen {
            return None;
        }
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
        for wi in 0..t.words() {
            // A scavengeable kernel is never inert: its warps are open.
            for slot in slots(wi, self.gate.open[wi] & self.stride_masks[sid][wi]) {
                let k = t.kernel[slot].index();
                if self.gated[k] && !self.is_qos[k] && self.quota[k] <= 0 {
                    match best {
                        Some((_, age)) if age <= t.age[slot] => {}
                        _ => best = Some((slot as u16, t.age[slot])),
                    }
                }
            }
        }
        best.map(|(slot, _)| slot)
    }

    fn issue(&mut self, slot: u16, now: Cycle) {
        let i = usize::from(slot);
        let k = self.warps.kernel[i].index();
        // `Op` is `Copy` and the body length is all the control flow needs,
        // so the hot path reads the flattened `bodies` mirror — one indexed
        // load — instead of chasing `Option<Arc<KernelDesc>>`. An empty
        // mirror means this SM was just restored from a snapshot (`bodies`
        // is skip-snapped); rebuild it from the authoritative desc. A warp
        // can only issue from a registered, non-empty kernel body, so
        // emptiness is an unambiguous "not built yet" sentinel.
        if self.bodies[k].is_empty() {
            self.bodies[k] = self.descs[k].as_ref().expect("desc").body().to_vec();
        }
        let (op, body_len) = {
            let body = &self.bodies[k];
            (body[usize::from(self.warps.pc[i])], body.len())
        };

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
                (active_lanes, now + Cycle::from(self.l1_hit_latency))
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
                // The private L1 is looked up here, inside the domain; only
                // the misses cross the interconnect. The request is enqueued
                // even when every line hit, because the L1-access ledger
                // lives in the memory domain and counts total lines. The
                // warp parks on the PENDING sentinel until the drain writes
                // the real completion cycle later this same cycle.
                let miss_start = self.icn.lines.len() as u32;
                for &addr in &buf[..n] {
                    if self.l1.access(addr) == crate::cache::AccessOutcome::Miss {
                        self.icn.lines.push(addr);
                    }
                }
                let miss_len = self.icn.lines.len() as u32 - miss_start;
                self.icn.requests.push(IcnRequest {
                    kernel: self.warps.kernel[i],
                    warp_slot: slot,
                    total_lines: n as u32,
                    miss_start,
                    miss_len,
                });
                (active_lanes, icn::PENDING)
            }
            Op::Bar => (crate::WARP_SIZE as u8, now + 1),
        };
        self.warps.set_ready_at(slot, ready_at);

        // Retire one dynamic instruction and advance the program counter.
        self.warps.rem[i] -= 1;
        let mut arrived_barrier = false;
        let mut retired = false;
        if self.warps.rem[i] == 0 {
            self.warps.pc[i] += 1;
            if usize::from(self.warps.pc[i]) == body_len {
                self.warps.iter[i] -= 1;
                if self.warps.iter[i] == 0 {
                    mask_set(&mut self.warps.done, slot);
                    retired = true;
                } else {
                    self.warps.pc[i] = 0;
                }
            }
            if matches!(op, Op::Bar) {
                mask_set(&mut self.warps.at_barrier, slot);
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
