//! The SM front end: per-cycle scheduler gather/choose/issue, the
//! work-conserving scavenger, interconnect-port traffic, and the sleep /
//! catch-up protocol that lets the machine leave a stalled SM alone
//! (DESIGN.md §3.1).
//!
//! Ready-warp selection is a branchless trailing-zeros scan over the warp
//! table's packed bitmasks: one issuable word set is computed per tick
//! (`occupied & !done & !at_barrier & tb_active & ready`, the last kept by
//! the wake queue), then each scheduler scans `live & stride_mask[sid]` in
//! increasing-slot order — the order of the strided `Option`-walk it
//! replaced, which keeps the mutating `quota_allows` refill rules firing in
//! the original sequence (DESIGN.md §18). Candidates of quota-inert kernels
//! are popcounted once per tick, not visited: their `quota_allows` is a
//! `false` that mutates nothing (§3.1).

use crate::icn::{self, IcnRequest, IcnResponse};
use crate::kernel::{KernelDesc, MemSpace, Op};
use crate::memsys::MemSystem;
use crate::observe::TraceEventKind;
use crate::types::Cycle;
use crate::warp_sched::SchedPolicy;
use crate::MAX_KERNELS;

use super::warp_table::mask_set;
use super::Sm;

/// Stack-accumulator bound of the fused dense-path gather: scheduler counts
/// up to this (power-of-two) size compute all picks in one pass over the
/// issuable words. Larger or non-power-of-two geometries fall back to the
/// per-scheduler stripe scans (the fused path wants `slot & (n-1)` for the
/// stripe-owner computation, not a division per candidate).
const MAX_SCHEDS_FUSED: usize = 8;

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
            let waiting =
                t.occupied[wi] & !t.done[wi] & !t.at_barrier[wi] & !self.inert_bits(wi, &inert);
            // Warps of Active TBs wake at their scoreboard release.
            let mut bits = waiting & t.tb_active[wi];
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                fold(&mut horizon, t.ready_at[slot]);
            }
            // Warps of Loading TBs wake at the later of their scoreboard
            // release and the load completion. (Warps of Saving TBs are
            // frozen — neither phase bit set — and the save completion is
            // already a transition horizon above.)
            let mut bits = waiting & t.tb_loading[wi];
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
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
            // `tb_active` mirrors `phase == Active` exactly (maintained at
            // every transition), matching the old per-warp phase test.
            let bits = t.occupied[wi]
                & !t.done[wi]
                & !t.at_barrier[wi]
                & t.tb_active[wi]
                & self.inert_bits(wi, &inert);
            // Ready at the last tick, before `since`: denied every cycle.
            let ready = bits & t.wake.ready[wi];
            self.count_blocked(&inert, wi, ready, slept);
            // The rest are released inside the window or after it.
            let mut bits = bits & !ready;
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
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
        if self.stride_masks.is_empty() {
            self.build_stride_masks();
        }

        // When no kernel is gated and neither the priority gate nor a quota
        // freeze is active, `quota_allows` is `true` for every kernel and
        // mutates nothing (its very first branches), so the gather can skip
        // the call — and the scavenger can never match (it only admits
        // *gated* exhausted kernels). Nothing inside the scheduler loop
        // changes these inputs — `issue` debits quota counters but never
        // flips a gate — so the flag is computed once per tick.
        let all_allowed =
            !self.quota_frozen && !self.priority_block && !self.gated.iter().any(|&g| g);

        // Issuable candidate words for this cycle: occupied, not retired,
        // not parked at a barrier, owning TB in Active phase (`tb_active`
        // mirrors the phase exactly; a Loading TB due this cycle was flipped
        // to Active by `process_transitions` above), scoreboard released
        // (the wake queue's `ready`, brought to `now` across whatever this
        // SM slept through). Mid-tick mutations (issue, barrier release, TB
        // drain) never make a masked-out warp issuable at `now` — barrier
        // releases push `ready_at` past `now`, drained TBs' warps are all
        // done, and an issue only rewrites the issuing scheduler's own
        // stripe, which is never revisited this tick — so one mask, filtered
        // per slot by the quota checks alone, serves every scheduler
        // (DESIGN.md §18).
        self.warps.advance(now);
        let t = &self.warps;
        let words = t.words();
        let live = |wi: usize| t.occupied[wi] & !t.done[wi] & !t.at_barrier[wi] & t.tb_active[wi];
        self.live_buf.clear();
        self.live_buf.extend((0..words).map(|wi| live(wi) & t.wake.ready[wi]));
        // Reference: the sweep of the column that the queue replaced. The dev
        // profile keeps debug assertions on, so every tier-1 simulation runs
        // it against the queue; release builds carry none of it.
        #[cfg(debug_assertions)]
        for (wi, &issuable) in self.live_buf.iter().enumerate() {
            let mut swept = live(wi);
            for (b, &ra) in t.ready_at[wi * 64..].iter().take(64).enumerate() {
                swept &= !(u64::from(ra > now) << b);
            }
            debug_assert_eq!(issuable, swept, "{} wake queue, word {wi} at cycle {now}", self.id);
        }

        let mut issued_any = false;
        let n_scheds = usize::from(self.num_scheds);
        if all_allowed && n_scheds.is_power_of_two() && n_scheds <= MAX_SCHEDS_FUSED {
            // Fused dense-path gather: one trailing-zeros pass over the
            // issuable words computes every scheduler's pick at once, instead
            // of re-walking the words per scheduler. Each visited slot folds
            // into its owning scheduler's accumulator (`sid = slot & (n-1)`,
            // exactly the stripe partition), and within one stripe the fused
            // scan still yields slots in increasing order — the same
            // subsequence, in the same order, the per-scheduler stripe scans
            // visit — so the sentinel folds produce identical picks. Reading
            // all gathers from tick-start state before any issue matches the
            // interleaved gather/issue sequence bit-for-bit: an issue only
            // rewrites its own slot's scoreboard (own stripe, already
            // gathered) and barrier releases push `ready_at` past `now`, so
            // no later scheduler's fold inputs change mid-tick — and with no
            // kernel gated there is no mutating `quota_allows` whose call
            // order could matter (DESIGN.md §18).
            let mut greedy_s = [u16::MAX; MAX_SCHEDS_FUSED];
            let mut cursor = [0u16; MAX_SCHEDS_FUSED];
            for sid in 0..n_scheds {
                greedy_s[sid] = self.scheds[sid].greedy.unwrap_or(u16::MAX);
                cursor[sid] = self.scheds[sid].rr_cursor;
            }
            let mut greedy_ready = [false; MAX_SCHEDS_FUSED];
            let mut best_slot = [u16::MAX; MAX_SCHEDS_FUSED];
            let mut best_age = [u64::MAX; MAX_SCHEDS_FUSED];
            let mut first_slot = [u16::MAX; MAX_SCHEDS_FUSED];
            let mut first_after = [u16::MAX; MAX_SCHEDS_FUSED];
            let sid_mask = n_scheds - 1;
            {
                let t = &self.warps;
                let policy = self.policy;
                for wi in 0..words {
                    let mut bits = self.live_buf[wi];
                    while bits != 0 {
                        let slot = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = slot as u16;
                        let sid = slot & sid_mask;
                        match policy {
                            SchedPolicy::Gto => {
                                greedy_ready[sid] |= s == greedy_s[sid];
                                if t.age[slot] < best_age[sid] {
                                    best_age[sid] = t.age[slot];
                                    best_slot[sid] = s;
                                }
                            }
                            SchedPolicy::Lrr => {
                                first_slot[sid] = first_slot[sid].min(s);
                                first_after[sid] = first_after[sid].min(if s > cursor[sid] {
                                    s
                                } else {
                                    u16::MAX
                                });
                            }
                        }
                    }
                }
            }
            for sid in 0..n_scheds {
                let pick = match self.policy {
                    SchedPolicy::Gto if greedy_ready[sid] => self.scheds[sid].greedy,
                    SchedPolicy::Gto => (best_slot[sid] != u16::MAX).then_some(best_slot[sid]),
                    SchedPolicy::Lrr if first_after[sid] != u16::MAX => Some(first_after[sid]),
                    SchedPolicy::Lrr => (first_slot[sid] != u16::MAX).then_some(first_slot[sid]),
                };
                // No scavenge arm: with no kernel gated there is nothing in
                // scavengeable state, so the call would be a guaranteed miss.
                if let Some(slot) = pick {
                    self.scheds[sid].greedy = Some(slot);
                    self.scheds[sid].rr_cursor = slot;
                    self.issue(slot, now);
                    self.issued_total += 1;
                    issued_any = true;
                }
            }
            return issued_any;
        }
        // The quota gate is decided once per tick, in mask space: the inert
        // kernels' candidates leave the gather (`gate.open`) and are counted
        // by `tally_blocked`, schedulers `tallied..` still owed (§3.1).
        let mut inert = if all_allowed { [false; MAX_KERNELS] } else { self.open_gate() };
        let mut tallied = 0;
        for sid in 0..n_scheds {
            // Gather issuable warps for this scheduler: a trailing-zeros
            // scan over this scheduler's slot stripe, yielding slots in
            // increasing order (the old strided walk's order, which the
            // mutating `quota_allows` refill rules depend on). The policy
            // choice folds into the same scan: GTO needs only the first
            // minimum-age candidate (and whether the greedy slot is among
            // the candidates), LRR only the first candidate and the first
            // one past the cursor — all of which the increasing-slot order
            // yields without materializing a candidate list.
            // Sentinel-folded selection state: `u16::MAX` can never be a
            // warp slot (the table is at most 64 slots per word times a few
            // words), so it doubles as "none yet" without an `Option`
            // discriminant branch per candidate. The scan yields slots in
            // increasing order, so "first candidate" and "first past the
            // cursor" are plain minima.
            let greedy = self.scheds[sid].greedy;
            let greedy_s = greedy.unwrap_or(u16::MAX);
            let cursor = self.scheds[sid].rr_cursor;
            let mut greedy_ready = false;
            let mut best_slot = u16::MAX;
            let mut best_age = u64::MAX;
            let mut first_slot = u16::MAX;
            let mut first_after = u16::MAX;
            if all_allowed {
                // Dense-path arm: every issuable warp is a candidate and no
                // per-candidate bookkeeping mutates `self`.
                let t = &self.warps;
                let policy = self.policy;
                let stripe = &self.stride_masks[sid];
                for (wi, &stripe_w) in stripe.iter().enumerate().take(words) {
                    let mut bits = self.live_buf[wi] & stripe_w;
                    while bits != 0 {
                        let slot = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let s = slot as u16;
                        match policy {
                            SchedPolicy::Gto => {
                                greedy_ready |= s == greedy_s;
                                // Strict `<` keeps the *first* minimum (ages
                                // are unique, but this also matches
                                // `min_by_key` over the scan order exactly).
                                if t.age[slot] < best_age {
                                    best_age = t.age[slot];
                                    best_slot = s;
                                }
                            }
                            SchedPolicy::Lrr => {
                                first_slot = first_slot.min(s);
                                first_after =
                                    first_after.min(if s > cursor { s } else { u16::MAX });
                            }
                        }
                    }
                }
            } else {
                // Only open candidates are visited, in the same slot order
                // as ever; a stripe without one has nothing to pick or to
                // scavenge. A kernel turned inert since the evaluation is
                // still open: `quota_allows` denies it, mutating nothing.
                let stripe = &self.stride_masks[sid];
                if (0..words).all(|wi| self.gate.open[wi] & stripe[wi] == 0) {
                    continue;
                }
                for wi in 0..words {
                    let mut bits = self.gate.open[wi] & self.stride_masks[sid][wi];
                    while bits != 0 {
                        let slot = wi * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let k = self.warps.kernel[slot].index();
                        if self.quota_allows(k) {
                            let s = slot as u16;
                            match self.policy {
                                SchedPolicy::Gto => {
                                    greedy_ready |= s == greedy_s;
                                    if self.warps.age[slot] < best_age {
                                        best_age = self.warps.age[slot];
                                        best_slot = s;
                                    }
                                }
                                SchedPolicy::Lrr => {
                                    first_slot = first_slot.min(s);
                                    first_after =
                                        first_after.min(if s > cursor { s } else { u16::MAX });
                                }
                            }
                        } else {
                            self.quota_blocked[k] += 1;
                        }
                    }
                }
            }
            let pick = match self.policy {
                SchedPolicy::Gto if greedy_ready => greedy,
                SchedPolicy::Gto => (best_slot != u16::MAX).then_some(best_slot),
                SchedPolicy::Lrr if first_after != u16::MAX => Some(first_after),
                SchedPolicy::Lrr => (first_slot != u16::MAX).then_some(first_slot),
            };
            if let Some(slot) = pick {
                self.scheds[sid].greedy = Some(slot);
                self.scheds[sid].rr_cursor = slot;
            }
            // With no kernel gated the scavenger is a guaranteed miss (it
            // only admits gated exhausted kernels), so the dense path skips
            // the call.
            let pick = if all_allowed { pick } else { pick.or_else(|| self.scavenge(sid)) };
            if let Some(slot) = pick {
                // Work-conserving slack reclamation (the scavenge arm): the
                // slot would idle -- no admissible warp is ready -- so a
                // quota-exhausted *non-QoS* warp may use it (QoS kernels
                // stay throttled at their goals; this is the "keep them
                // running" intent of the mid-epoch rule in section 3.4.1).
                // The issue still debits the quota counter, so epoch
                // accounting and the section 3.5 feedback see the true
                // consumption.
                let k = self.warps.kernel[usize::from(slot)].index();
                let exhaustions = self.quota_exhaustions[k];
                self.issue(slot, now);
                self.issued_total += 1;
                issued_any = true;
                let exhausted = self.quota_exhaustions[k] != exhaustions;
                #[cfg(test)]
                let exhausted = exhausted && !self.gate.stale_hoist;
                if exhausted {
                    // `issue` counted a quota taken from positive to spent,
                    // the one event that can end inertness inside a tick
                    // (see `quota_inert`): the schedulers so far were served
                    // under the old set, the rest see the new one.
                    self.tally_blocked(&inert, tallied..sid + 1);
                    tallied = sid + 1;
                    inert = self.open_gate();
                }
            }
        }
        self.tally_blocked(&inert, tallied..n_scheds);
        issued_any
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
        // No kernel in scavengeable state (gated, non-QoS, exhausted) means
        // the stripe scan below cannot match — skip it. This is the common
        // case on every unmanaged scenario, where an empty issue slot would
        // otherwise pay a second full scan per scheduler per cycle.
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
            let mut bits = self.gate.open[wi] & self.stride_masks[sid][wi];
            while bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
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
