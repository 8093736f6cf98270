//! Unit tests for the SM. Tests drive a lone SM with [`Sm::tick`] against a
//! [`MemSystem`] of its own, which is what the machine's run loop does for
//! each SM in turn.

use std::sync::Arc;

use super::*;
use crate::config::GpuConfig;
use crate::kernel::{AccessPattern, KernelDesc, Op};
use crate::memsys::MemSystem;
use crate::types::{Cycle, KernelId, SmId, TbIndex};

fn setup(body: Vec<Op>, iters: u32) -> (Sm, MemSystem, Arc<KernelDesc>) {
    let cfg = GpuConfig::tiny();
    let sm = Sm::new(SmId::new(0), &cfg);
    let mem = MemSystem::new(cfg.mem.clone());
    let desc = Arc::new(
        KernelDesc::builder("t")
            .threads_per_tb(64)
            .regs_per_thread(16)
            .iterations(iters)
            .grid_tbs(8)
            .body(body)
            .build(),
    );
    (sm, mem, desc)
}

fn run(sm: &mut Sm, mem: &mut MemSystem, cycles: u64) {
    for now in 0..cycles {
        sm.tick(now, mem);
    }
}

#[test]
fn dispatch_occupies_and_completion_frees() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 4)], 2);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc.clone());
    sm.dispatch(k, TbIndex(0), None, 0, 0);
    assert_eq!(sm.hosted_tbs(k), 1);
    assert_eq!(sm.used_threads(), 64);
    run(&mut sm, &mut mem, 200);
    assert_eq!(sm.hosted_tbs(k), 0, "TB should complete and free");
    assert_eq!(sm.used_threads(), 0);
    let mut done = Vec::new();
    sm.drain_completed(&mut done);
    assert_eq!(done, vec![(k, TbIndex(0))]);
    // 2 warps * 2 iters * 4 insts * 32 lanes
    assert_eq!(sm.counters(k).thread_insts, 2 * 2 * 4 * 32);
}

#[test]
fn quota_gating_throttles_kernel() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc);
    sm.dispatch(k, TbIndex(0), None, 0, 0);
    sm.set_gated(k, true);
    sm.set_qos_kernel(k, true);
    sm.set_epoch_quota(k, 320, QuotaCarry::DiscardSurplus, 0);
    run(&mut sm, &mut mem, 1_000);
    // 320 thread-insts = 10 warp instructions; slight overshoot of one
    // warp instruction per scheduler is possible at the boundary.
    let issued = sm.counters(k).thread_insts;
    assert!(issued >= 320, "must consume its quota, got {issued}");
    assert!(issued <= 320 + 32 * 2, "throttled soon after exhaustion, got {issued}");
    assert!(sm.quota(k) <= 0);
}

#[test]
fn nonqos_refill_after_qos_exhausted() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let q = KernelId::new(0);
    let n = KernelId::new(1);
    sm.set_kernel_desc(q, desc.clone());
    sm.set_kernel_desc(n, desc);
    sm.dispatch(q, TbIndex(0), None, 0, 0);
    sm.dispatch(n, TbIndex(0), None, 0, 0);
    for (k, qos) in [(q, true), (n, false)] {
        sm.set_gated(k, true);
        sm.set_qos_kernel(k, qos);
    }
    sm.set_epoch_quota(q, 320, QuotaCarry::DiscardSurplus, 0);
    sm.set_epoch_quota(n, 320, QuotaCarry::DiscardSurplus, 320);
    run(&mut sm, &mut mem, 2_000);
    let qi = sm.counters(q).thread_insts;
    let ni = sm.counters(n).thread_insts;
    assert!(qi <= 320 + 64, "QoS kernel stays near quota, got {qi}");
    assert!(ni > 10 * 320, "non-QoS kernel keeps refilling, got {ni}");
}

#[test]
fn elastic_refills_all_when_everyone_exhausted() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc);
    sm.dispatch(k, TbIndex(0), None, 0, 0);
    sm.set_gated(k, true);
    sm.set_qos_kernel(k, true);
    sm.set_elastic(true);
    sm.set_epoch_quota(k, 320, QuotaCarry::DiscardSurplus, 320);
    run(&mut sm, &mut mem, 2_000);
    assert!(
        sm.counters(k).thread_insts > 10 * 320,
        "elastic epochs keep replenishing, got {}",
        sm.counters(k).thread_insts
    );
}

#[test]
fn priority_block_serializes_kernels() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let q = KernelId::new(0);
    let n = KernelId::new(1);
    sm.set_kernel_desc(q, desc.clone());
    sm.set_kernel_desc(n, desc);
    sm.dispatch(q, TbIndex(0), None, 0, 0);
    sm.dispatch(n, TbIndex(0), None, 0, 0);
    sm.set_gated(q, true);
    sm.set_qos_kernel(q, true);
    sm.set_priority_block(true);
    sm.set_epoch_quota(q, 3_200, QuotaCarry::DiscardSurplus, 0);
    // While the QoS kernel has quota, the non-QoS kernel must not issue.
    for now in 0..20 {
        sm.tick(now, &mut mem);
    }
    assert!(sm.counters(q).thread_insts > 0);
    assert_eq!(sm.counters(n).thread_insts, 0, "non-QoS blocked by priority gate");
    run(&mut sm, &mut mem, 3_000);
    assert!(sm.counters(n).thread_insts > 0, "non-QoS runs after quota exhausted");
}

#[test]
fn barrier_synchronizes_warps() {
    // Warp 0 of the TB has no extra work; all warps must still wait at
    // the barrier for the slowest one.
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(8, 4), Op::Bar, Op::alu(1, 1)], 1);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc);
    sm.dispatch(k, TbIndex(0), None, 0, 0);
    run(&mut sm, &mut mem, 500);
    assert_eq!(sm.hosted_tbs(k), 0, "TB with barrier completes");
}

#[test]
fn preempt_and_resume_preserves_progress() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 10)], 50);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc.clone());
    sm.dispatch(k, TbIndex(3), None, 0, 0);
    run(&mut sm, &mut mem, 100);
    let before = sm.counters(k).thread_insts;
    assert!(before > 0);
    assert!(sm.start_preempt(k, 100, 50));
    for now in 100..200 {
        sm.tick(now, &mut mem);
    }
    let mut saved = Vec::new();
    sm.drain_saved(&mut saved);
    assert_eq!(saved.len(), 1);
    assert_eq!(sm.hosted_tbs(k), 0);
    let (_, tb) = saved.pop().expect("one saved TB");
    assert_eq!(tb.tb_index, TbIndex(3));
    // Resume and run to completion.
    sm.dispatch(k, TbIndex(3), Some(tb), 200, 10);
    for now in 200..4_000 {
        sm.tick(now, &mut mem);
    }
    let mut done = Vec::new();
    sm.drain_completed(&mut done);
    assert_eq!(done, vec![(k, TbIndex(3))]);
    // Total work equals a full TB execution: 2 warps * 50 iters * 10 * 32.
    assert_eq!(sm.counters(k).thread_insts, 2 * 50 * 10 * 32);
}

#[test]
fn idle_warp_sampling_counts_unissued_ready_warps() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc.clone());
    // Several TBs worth of warps, only `warp_schedulers` can issue per cycle.
    for i in 0..4 {
        sm.dispatch(k, TbIndex(i), None, 0, 0);
    }
    for now in 0..50 {
        sm.tick(now, &mut mem);
        sm.sample_idle_warps(now);
    }
    assert!(sm.idle_warp_avg(k) > 0.0, "with 8 ready warps and 4 issue slots some idle");
    sm.reset_idle_sampling();
    assert_eq!(sm.idle_warp_avg(k), 0.0);
}

#[test]
fn max_resident_tbs_respects_limits() {
    let cfg = GpuConfig::paper_table1();
    let sm = Sm::new(SmId::new(0), &cfg);
    let fat = KernelDesc::builder("fat")
        .threads_per_tb(256)
        .regs_per_thread(64) // 64 KiB regs per TB -> 4 TBs by regfile
        .body(vec![Op::alu(1, 1)])
        .build();
    assert_eq!(sm.max_resident_tbs(&fat), 4);
    let slim = KernelDesc::builder("slim")
        .threads_per_tb(64)
        .regs_per_thread(16)
        .body(vec![Op::alu(1, 1)])
        .build();
    assert_eq!(sm.max_resident_tbs(&slim), 32, "TB-slot limited");
}

#[test]
fn memory_op_goes_through_memsys() {
    let (mut sm, mut mem, desc) =
        setup(vec![Op::mem_load(AccessPattern::stream()), Op::alu(1, 1)], 4);
    let k = KernelId::new(0);
    sm.set_kernel_desc(k, desc);
    sm.dispatch(k, TbIndex(0), None, 0, 0);
    run(&mut sm, &mut mem, 5_000);
    assert!(mem.traffic().l1_accesses[0] > 0);
    assert!(sm.l1_stats().accesses() > 0);
}

#[test]
fn l1_lookup_count_matches_memory_domain_ledger() {
    // Every coalesced line is looked up in the SM's private L1 exactly once
    // and counted as one L1 access by `MemSystem::serve` — including lines
    // that hit (`serve` is called even when no line missed). The two sides
    // must agree on the total, also when a TB completes on a global-memory
    // instruction: the second body ends on a store.
    let bodies = [
        (vec![Op::mem_load(AccessPattern::stream()), Op::alu(1, 1)], 16, 8_000),
        (vec![Op::alu(1, 1), Op::mem_store(AccessPattern::stream())], 3, 20_000),
    ];
    for (body, iters, cycles) in bodies {
        let (mut sm, mut mem, desc) = setup(body, iters);
        let k = KernelId::new(0);
        sm.set_kernel_desc(k, desc);
        sm.dispatch(k, TbIndex(0), None, 0, 0);
        run(&mut sm, &mut mem, cycles);
        assert_eq!(
            sm.l1_stats().accesses(),
            mem.traffic().l1_accesses[0],
            "SM-side L1 lookups and memory-side L1 ledger must agree"
        );
        assert_eq!(sm.resident_tbs(), 0, "the TB ran to completion");
        assert_eq!(sm.audit_invariants(cycles), Ok(()));
    }
}

#[test]
fn scavenging_lets_exhausted_nonqos_use_idle_slots() {
    // A lone non-QoS kernel with zero quota: no QoS kernel competes for
    // the slots, so scavenging must keep it running.
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let n = KernelId::new(0);
    sm.set_kernel_desc(n, desc);
    sm.dispatch(n, TbIndex(0), None, 0, 0);
    sm.set_gated(n, true);
    sm.set_qos_kernel(n, false);
    sm.set_epoch_quota(n, 0, QuotaCarry::Reset, 0);
    run(&mut sm, &mut mem, 500);
    assert!(
        sm.counters(n).thread_insts > 10_000,
        "scavenging must keep the machine busy, got {}",
        sm.counters(n).thread_insts
    );
}

#[test]
fn scavenging_never_feeds_exhausted_qos_kernels() {
    let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 100)], 100);
    let q = KernelId::new(0);
    sm.set_kernel_desc(q, desc);
    sm.dispatch(q, TbIndex(0), None, 0, 0);
    sm.set_gated(q, true);
    sm.set_qos_kernel(q, true);
    sm.set_epoch_quota(q, 320, QuotaCarry::DiscardSurplus, 0);
    run(&mut sm, &mut mem, 2_000);
    assert!(
        sm.counters(q).thread_insts <= 320 + 64,
        "QoS kernels stay throttled at their quota, got {}",
        sm.counters(q).thread_insts
    );
}

#[test]
fn reset_carry_drops_debt() {
    let cfg = GpuConfig::tiny();
    let mut sm = Sm::new(SmId::new(0), &cfg);
    let k = KernelId::new(0);
    sm.set_gated(k, true);
    sm.set_epoch_quota(k, 100, QuotaCarry::DiscardSurplus, 0);
    // Simulate deep debt, then a Reset assignment.
    sm.set_epoch_quota(k, -5_000, QuotaCarry::DiscardSurplus, 0);
    assert!(sm.quota(k) < 0);
    sm.set_epoch_quota(k, 100, QuotaCarry::Reset, 0);
    assert_eq!(sm.quota(k), 100, "reset ignores prior debt");
}

/// Drives the live warp picker: a lone SM with one scheduler hosting one
/// 10-warp TB (slots 0..10), either ungated (the fused gather) or
/// quota-gated with ample quota (the gated gather, through `quota_allows`).
struct Picker {
    sm: Sm,
    mem: MemSystem,
    now: Cycle,
}

impl Picker {
    fn new(gated: bool) -> Self {
        let mut cfg = GpuConfig::tiny();
        cfg.warp_schedulers = 1;
        let mut sm = Sm::new(SmId::new(0), &cfg);
        let k = KernelId::new(0);
        let desc = KernelDesc::builder("pick")
            .threads_per_tb(320)
            .regs_per_thread(16)
            .iterations(100)
            .body(vec![Op::alu(1, 100)])
            .build();
        sm.set_kernel_desc(k, Arc::new(desc));
        sm.dispatch(k, TbIndex(0), None, 0, 0);
        if gated {
            sm.set_gated(k, true);
            sm.set_qos_kernel(k, true);
            sm.set_epoch_quota(k, 1 << 40, QuotaCarry::Reset, 0);
        }
        Picker { sm, mem: MemSystem::new(cfg.mem), now: 0 }
    }

    /// Ticks one cycle in which exactly the `(slot, age)` warps of `ready`
    /// have their scoreboards released; returns the slot that issued.
    fn pick(&mut self, ready: &[(u16, u64)]) -> Option<u16> {
        self.now += 1;
        for slot in 0..self.sm.warps.capacity() as u16 {
            self.sm.warps.set_ready_at(slot, Cycle::MAX / 2);
        }
        for &(slot, age) in ready {
            self.sm.warps.set_ready_at(slot, self.now);
            self.sm.warps.age[usize::from(slot)] = age;
        }
        let issued = self.sm.issued_total;
        self.sm.tick(self.now, &mut self.mem);
        match self.sm.issued_total - issued {
            0 => None,
            1 => self.sm.greedy[0],
            n => panic!("one scheduler issued {n} warps in a cycle"),
        }
    }
}

#[test]
fn gto_sticks_with_greedy_warp() {
    for gated in [false, true] {
        let mut p = Picker::new(gated);
        // First pick: oldest (age 10) = slot 7.
        assert_eq!(p.pick(&[(3, 30), (7, 10), (9, 20)]), Some(7), "gated={gated}");
        // Slot 7 still ready: stay greedy even though it is not the oldest now.
        assert_eq!(p.pick(&[(3, 5), (7, 10)]), Some(7), "gated={gated}");
    }
}

#[test]
fn gto_falls_back_to_oldest() {
    for gated in [false, true] {
        let mut p = Picker::new(gated);
        p.sm.greedy[0] = Some(7);
        assert_eq!(p.pick(&[(3, 30), (9, 20)]), Some(9), "gated={gated}");
    }
}

#[test]
fn gto_none_when_nothing_ready() {
    for gated in [false, true] {
        let mut p = Picker::new(gated);
        assert_eq!(p.pick(&[]), None, "gated={gated}");
        assert_eq!(p.sm.greedy[0], None, "an idle cycle leaves the scheduler state alone");
    }
}

/// The quota gate of one tick, written out literally on plain arrays — the
/// paper's Enhanced Warp Scheduler (§3.2, §3.4) with none of `Sm::tick`'s
/// machinery: no masks, no inert set, no deferred tally, no skipped
/// scheduler. Every scheduler in order asks the admission rule about every
/// issuable warp of its stripe in slot order.
mod gate_oracle {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::types::PerKernel;
    use crate::MAX_KERNELS;
    use proptest::prelude::*;

    /// Everything the gate reads or writes, copied out of an [`Sm`].
    #[derive(Debug, Clone, PartialEq)]
    struct RefGate {
        priority_block: bool,
        elastic: bool,
        gated: PerKernel<bool>,
        is_qos: PerKernel<bool>,
        refill: PerKernel<i64>,
        quota: PerKernel<i64>,
        credit: PerKernel<i64>,
        debit: PerKernel<i64>,
        blocked: PerKernel<u64>,
        exhaustions: PerKernel<u64>,
        greedy: Vec<Option<u16>>,
    }

    impl RefGate {
        fn of(sm: &Sm) -> Self {
            RefGate {
                priority_block: sm.priority_block,
                elastic: sm.elastic,
                gated: sm.gated,
                is_qos: sm.is_qos,
                refill: sm.refill,
                quota: sm.quota,
                credit: sm.quota_credit,
                debit: sm.quota_debit,
                blocked: sm.quota_blocked,
                exhaustions: sm.quota_exhaustions,
                greedy: sm.greedy.clone(),
            }
        }

        /// The controller's epoch grant, `Sm::set_epoch_quota` written out.
        fn grant(&mut self, k: usize, alloc: i64, carry: QuotaCarry, refill: i64) {
            let old = self.quota[k];
            self.quota[k] = match carry {
                QuotaCarry::DiscardSurplus => alloc + old.min(0),
                QuotaCarry::Full => alloc + old.min(alloc),
                QuotaCarry::Reset => alloc,
            };
            self.credit[k] += self.quota[k] - old;
            self.refill[k] = refill;
        }

        fn any_qos_quota_left(&self) -> bool {
            (0..MAX_KERNELS).any(|k| self.gated[k] && self.is_qos[k] && self.quota[k] > 0)
        }

        /// May a warp of kernel `k` issue? Applies the lazy mid-epoch refills.
        fn admits(&mut self, k: usize) -> bool {
            // Rollover-Time: best-effort kernels wait while QoS quota is left.
            if self.priority_block && !self.is_qos[k] && self.any_qos_quota_left() {
                return false;
            }
            if !self.gated[k] || self.quota[k] > 0 {
                return true;
            }
            let all_spent = (0..MAX_KERNELS).all(|j| !self.gated[j] || self.quota[j] <= 0);
            if self.elastic {
                // Elastic epoch: everyone spent, so the next epoch starts now.
                if !all_spent {
                    return false;
                }
                for j in (0..MAX_KERNELS).filter(|&j| self.gated[j]) {
                    self.quota[j] += self.refill[j];
                    self.credit[j] += self.refill[j];
                }
                return self.quota[k] > 0;
            }
            // §3.4.1: once the QoS goals are met, best-effort kernels go on.
            if !self.is_qos[k] && self.refill[k] > 0 && !self.any_qos_quota_left() {
                self.quota[k] += self.refill[k];
                self.credit[k] += self.refill[k];
                return self.quota[k] > 0;
            }
            false
        }

        /// One cycle. `warps[slot]` is `(kernel, age, lanes)` of an issuable
        /// warp; returns the slot each scheduler issued from.
        fn tick(&mut self, warps: &[Option<(usize, u64, i64)>]) -> Vec<Option<u16>> {
            (0..self.greedy.len()).map(|sid| self.serve(sid, warps)).collect()
        }

        /// Scheduler `sid`'s turn: gather, pick, scavenge, debit.
        fn serve(&mut self, sid: usize, warps: &[Option<(usize, u64, i64)>]) -> Option<u16> {
            let scheds = self.greedy.len();
            let stripe = || (sid..warps.len()).step_by(scheds);
            let mut admitted: Vec<u16> = Vec::new();
            for slot in stripe() {
                let Some((k, ..)) = warps[slot] else { continue };
                if self.admits(k) {
                    admitted.push(slot as u16);
                } else {
                    self.blocked[k] += 1;
                }
            }
            let age = |s: &u16| warps[usize::from(*s)].expect("issuable").1;
            // Greedy-then-oldest within the admitted set.
            let pick = match self.greedy[sid] {
                Some(g) if admitted.contains(&g) => Some(g),
                _ => admitted.iter().copied().min_by_key(age),
            };
            if pick.is_some() {
                self.greedy[sid] = pick;
            }
            // An empty slot goes to the oldest spent best-effort warp.
            let scavenged = || {
                if self.priority_block && self.any_qos_quota_left() {
                    return None;
                }
                stripe()
                    .filter(|&slot| {
                        warps[slot].is_some_and(|(k, ..)| {
                            self.gated[k] && !self.is_qos[k] && self.quota[k] <= 0
                        })
                    })
                    .map(|slot| slot as u16)
                    .min_by_key(age)
            };
            let slot = pick.or_else(scavenged)?;
            let (k, _, lanes) = warps[usize::from(slot)].expect("issuable");
            if self.gated[k] {
                if self.quota[k] > 0 && self.quota[k] <= lanes {
                    self.exhaustions[k] += 1;
                }
                self.quota[k] -= lanes;
                self.debit[k] += lanes;
            }
            Some(slot)
        }
    }

    /// An SM of `scheds` schedulers hosting, in `order`, one TB per entry of
    /// kernel `order[i]`; kernel `k`'s TBs are `k % 3 + 1` warps of an ALU
    /// body whose every instruction has `lanes[k]` active lanes.
    fn sm_hosting(scheds: u32, lanes: &[u8], order: &[usize]) -> Sm {
        let mut cfg = GpuConfig::tiny();
        cfg.warp_schedulers = scheds;
        let mut sm = Sm::new(SmId::new(0), &cfg);
        for (k, &l) in lanes.iter().enumerate() {
            let desc = KernelDesc::builder(format!("k{k}"))
                .threads_per_tb(32 * (k as u32 % 3 + 1))
                .regs_per_thread(16)
                .iterations(1_000)
                .grid_tbs(64)
                .body(vec![Op::alu_divergent(1, 100, l)])
                .build();
            sm.set_kernel_desc(KernelId::new(k), Arc::new(desc));
        }
        for (tb, &k) in order.iter().enumerate() {
            sm.dispatch(KernelId::new(k), TbIndex(tb as u32), None, 0, 0);
        }
        sm
    }

    /// Which mutation switch of the gate a run turns on.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Mutation {
        Off,
        StaleHoist,
        StaleQuota,
    }

    /// The SM's cached inert set, while it claims to hold, against a fresh
    /// evaluation.
    fn cache_agrees(sm: &Sm, when: &str) -> Result<(), String> {
        if sm.gate.fresh && sm.gate.inert != sm.inert_kernels() {
            return Err(format!(
                "{when}: cached inert set {:?}, evaluated {:?}",
                sm.gate.inert,
                sm.inert_kernels()
            ));
        }
        Ok(())
    }

    /// One random controller write of the kind an epoch boundary makes,
    /// applied to the SM and to the reference alike: half of them epoch
    /// grants, the rest one flag each. An SM built `ungated` stays so.
    fn write_both(
        sm: &mut Sm,
        model: &mut RefGate,
        kernels: usize,
        ungated: bool,
        below: &mut impl FnMut(u64) -> u64,
    ) {
        let k = below(kernels as u64) as usize;
        let on = below(2) == 0;
        match below(8) {
            0 => {
                let gated = !ungated && on;
                sm.set_gated(KernelId::new(k), gated);
                model.gated[k] = gated;
            }
            1..=4 => {
                let alloc = below(97) as i64 - 24;
                let carry = [QuotaCarry::DiscardSurplus, QuotaCarry::Full, QuotaCarry::Reset]
                    [below(3) as usize];
                let refill = [0, 0, 24, 64][below(4) as usize];
                sm.set_epoch_quota(KernelId::new(k), alloc, carry, refill);
                model.grant(k, alloc, carry, refill);
            }
            5 => {
                sm.set_qos_kernel(KernelId::new(k), on);
                model.is_qos[k] = on;
            }
            6 => {
                sm.set_elastic(on);
                model.elastic = on;
            }
            _ => {
                let block = !ungated && on;
                sm.set_priority_block(block);
                model.priority_block = block;
            }
        }
    }

    /// Ticks `sm` at `now` with exactly the `ready` slots' scoreboards
    /// released, and `model` beside it; checks the two field by field and
    /// the SM's cached inert set against a fresh evaluation.
    fn tick_agrees(
        sm: &mut Sm,
        model: &mut RefGate,
        now: Cycle,
        ready: &[u16],
        lanes: &[u8],
    ) -> Result<(), String> {
        for slot in 0..sm.warps.capacity() as u16 {
            sm.warps.set_ready_at(slot, Cycle::MAX / 2);
        }
        let mut warps = vec![None; sm.warps.capacity()];
        for &slot in ready {
            sm.warps.set_ready_at(slot, now);
            let k = sm.warps.kernel[usize::from(slot)].index();
            warps[usize::from(slot)] =
                Some((k, sm.warps.age[usize::from(slot)], i64::from(lanes[k])));
        }
        let expected = model.tick(&warps);
        sm.tick(now, &mut MemSystem::new(GpuConfig::tiny().mem));
        // An issue moves the warp's scoreboard off `now`.
        let scheds = sm.greedy.len();
        let mut issued = vec![None; scheds];
        for &slot in ready {
            if sm.warps.ready_at[usize::from(slot)] != now {
                let sid = usize::from(slot) % scheds;
                if issued[sid].replace(slot).is_some() {
                    return Err(format!("scheduler {sid} issued twice at {now}"));
                }
            }
        }
        if issued != expected {
            return Err(format!("issued {issued:?}, the reference {expected:?} at {now}"));
        }
        let got = RefGate::of(sm);
        if got != *model {
            return Err(format!("at {now}\n   sm: {got:?}\n  ref: {model:?}"));
        }
        cache_agrees(sm, &format!("after the tick at {now}"))
    }

    /// One random SM (1–4 schedulers, 2–4 kernels with random QoS / gated /
    /// refill / elastic / priority-block settings, quotas within a
    /// few warp instructions of zero so they run out mid-tick; one in four
    /// with no gate at all), ticked three cycles with random ready sets
    /// against the reference, with up to three random controller writes
    /// before each tick after the first.
    fn random_sm_agrees(seed: u64, mutation: Mutation) -> Result<(), String> {
        let mut rng = SplitMix64::new(seed);
        let mut below = |n: u64| rng.next_below(n);
        let kernels = 2 + below(3) as usize;
        let lanes: Vec<u8> = (0..kernels).map(|_| [8, 16, 32, 32][below(4) as usize]).collect();
        let order: Vec<usize> =
            (0..6 + below(14)).map(|_| below(kernels as u64) as usize).collect();
        let mut sm = sm_hosting(1 + below(4) as u32, &lanes, &order);
        sm.gate.stale_hoist = mutation == Mutation::StaleHoist;
        sm.gate.stale_quota = mutation == Mutation::StaleQuota;
        let ungated = below(4) == 0;
        let hosted: Vec<u16> =
            (0..sm.warps.capacity() as u16).filter(|&s| sm.warps.is_occupied(s)).collect();
        for k in (0..kernels).map(KernelId::new) {
            // One QoS kernel at least, mostly gated, so the gate has work.
            sm.set_qos_kernel(k, k.index() == 0 || below(3) == 0);
            sm.set_gated(k, !ungated && below(4) != 0);
            let refill = [0, 0, 24, 64][below(4) as usize];
            sm.set_epoch_quota(k, below(97) as i64 - 24, QuotaCarry::Reset, refill);
        }
        sm.set_elastic(below(3) == 0);
        sm.set_priority_block(!ungated && below(2) == 0);
        for greedy in &mut sm.greedy {
            *greedy = (below(2) == 0).then(|| hosted[below(hosted.len() as u64) as usize]);
        }
        let mut model = RefGate::of(&sm);
        for now in 1..=3 {
            if now > 1 {
                for _ in 0..below(4) {
                    write_both(&mut sm, &mut model, kernels, ungated, &mut below);
                }
                cache_agrees(&sm, &format!("after the writes before {now}"))?;
            }
            let density = 1 + below(4);
            let ready: Vec<u16> = hosted.iter().copied().filter(|_| below(4) < density).collect();
            tick_agrees(&mut sm, &mut model, now, &ready, &lanes)?;
        }
        Ok(())
    }

    /// Priority block on; the QoS kernel holds quota for exactly one warp
    /// instruction and has one warp ready, in scheduler 0's stripe; the
    /// best-effort kernel has one warp ready in each other stripe. Scheduler
    /// 0's issue exhausts the quota and thereby opens the priority gate, so
    /// the other three issue in the same cycle. Returns how many did.
    fn issues_on_the_exhaustion_edge(stale_hoist: bool) -> u64 {
        let mut sm = sm_hosting(4, &[32, 32], &[0, 1, 1]);
        sm.gate.stale_hoist = stale_hoist;
        let (q, b) = (KernelId::new(0), KernelId::new(1));
        assert_eq!((*sm.warps.kernel)[..5], [q, b, b, b, b], "slot = scheduler");
        sm.set_qos_kernel(q, true);
        sm.set_gated(q, true);
        sm.set_epoch_quota(q, 32, QuotaCarry::Reset, 0);
        sm.set_priority_block(true);
        let mut model = RefGate::of(&sm);
        let agreed = tick_agrees(&mut sm, &mut model, 1, &[0, 1, 2, 3], &[32, 32]);
        assert_eq!(agreed.is_err(), stale_hoist, "{agreed:?}");
        sm.issued_total()
    }

    #[test]
    fn inert_set_is_refreshed_on_the_exhaustion_edge() {
        assert_eq!(issues_on_the_exhaustion_edge(false), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn tick_agrees_with_the_reference_gate(seed in any::<u64>()) {
            if let Err(why) = random_sm_agrees(seed, Mutation::Off) {
                prop_assert!(false, "{why}");
            }
        }
    }

    /// The mutation ROADMAP item 2 names, kept in-tree: with the inert set
    /// of the tick's start held across a quota exhaustion (`stale_hoist`),
    /// the directed case and the random one must both fail. At the commit
    /// before this test the whole suite, every golden and every benchmark
    /// digest passed with that mutation applied.
    #[test]
    fn stale_hoist_mutation_is_caught() {
        assert_eq!(issues_on_the_exhaustion_edge(true), 1, "schedulers 1-3 see a shut gate");
        let caught =
            (0..512).filter(|&seed| random_sm_agrees(seed, Mutation::StaleHoist).is_err()).count();
        assert!(caught >= 16, "only {caught} of 512 random SMs tell the stale hoist apart");
    }

    /// The missed invalidation the gate cache must not have, kept in-tree:
    /// with `set_epoch_quota` leaving the cached inert set fresh
    /// (`stale_quota`), the random SMs, whose controller writes between
    /// ticks include epoch grants, must tell it apart. When this test came
    /// in, 33 of the 512 did, 25 of them by what the SM issued and counted
    /// alone, without the direct look at the cache.
    #[test]
    fn stale_inert_set_mutation_is_caught() {
        let caught =
            (0..512).filter(|&seed| random_sm_agrees(seed, Mutation::StaleQuota).is_err()).count();
        assert!(caught >= 16, "only {caught} of 512 random SMs tell the stale inert set apart");
    }
}

/// The machine's stepping protocol (`Gpu::try_run`) over a lone SM hosting
/// an exhausted, gated QoS kernel `q` (ready warps, all quota-inert) beside
/// a best-effort kernel `b` that spends most cycles stalled on long ALU and
/// memory latencies: tick when due, go to sleep after an issue-free tick,
/// take the idle-warp sample after a tick at a sample point, move the clock
/// when everything sleeps. With `sleepy` off every cycle runs the full
/// gather and every sample point is sampled — the reference the sleeping
/// runs must equal.
struct Sleeper {
    sm: Sm,
    mem: MemSystem,
    now: Cycle,
    sleepy: bool,
    jumps: bool,
}

const Q: KernelId = KernelId(0);
const B: KernelId = KernelId(1);

impl Sleeper {
    fn new(sleepy: bool, jumps: bool) -> Self {
        let cfg = GpuConfig::tiny();
        let mut sm = Sm::new(SmId::new(0), &cfg);
        let desc = |name: &str, body: Vec<Op>| {
            let b = KernelDesc::builder(name).threads_per_tb(64).regs_per_thread(16);
            Arc::new(b.iterations(10_000).grid_tbs(8).body(body).build())
        };
        sm.set_kernel_desc(Q, desc("q", vec![Op::alu(1, 100)]));
        let stalls = vec![Op::alu(90, 1), Op::mem_load(AccessPattern::random(1 << 20, 4))];
        sm.set_kernel_desc(B, desc("b", stalls));
        sm.dispatch(Q, TbIndex(0), None, 0, 0);
        sm.dispatch(Q, TbIndex(1), None, 0, 0);
        sm.dispatch(B, TbIndex(0), None, 0, 0);
        sm.set_gated(Q, true);
        sm.set_qos_kernel(Q, true);
        sm.set_epoch_quota(Q, 640, QuotaCarry::Full, 0);
        Sleeper { sm, mem: MemSystem::new(cfg.mem), now: 0, sleepy, jumps }
    }

    fn run_to(&mut self, end: Cycle) {
        let interval = GpuConfig::tiny().sample_interval();
        while self.now < end {
            if self.sm.wake_at() <= self.now {
                let issued = self.sm.tick(self.now, &mut self.mem);
                if self.now.is_multiple_of(interval) {
                    self.sm.sample_idle_warps(self.now);
                }
                if !issued && self.sleepy {
                    self.sm.sleep_from(self.now + 1, (self.now + 1).next_multiple_of(interval));
                }
            }
            self.now += 1;
            if self.jumps && self.sm.wake_at() > self.now {
                self.now = self.sm.wake_at().min(end);
            }
        }
    }

    /// Runs to `at` and checks the scenario is the one the case is about:
    /// a sleepy SM is asleep there with `q` exhausted.
    fn run_into_a_sleep(&mut self, at: Cycle) {
        self.run_to(at);
        assert!(self.sm.quota(Q) <= 0, "q exhausts its 640 lanes long before {at}");
        assert_eq!(self.sm.wake_at() > at, self.sleepy, "asleep at {at} iff allowed to sleep");
    }

    /// What the run leaves behind once the machine's exit sync has run.
    fn finish(mut self) -> [u64; 13] {
        self.sm.catch_up(self.now);
        let sm = &self.sm;
        [
            sm.idle_samples(),
            sm.idle_warp_avg(Q).to_bits(),
            sm.idle_warp_avg(B).to_bits(),
            sm.scoreboard_wait_samples(Q),
            sm.scoreboard_wait_samples(B),
            sm.quota_blocked_cycles(Q),
            sm.quota_blocked_cycles(B),
            sm.busy_cycles(),
            sm.issue_slots(),
            sm.counters(Q).thread_insts,
            sm.counters(B).thread_insts,
            sm.issued_total(),
            sm.preempt_stats().transfer_cycles,
        ]
    }
}

/// Runs `script` under the naive reference, with sleep, and with sleep plus
/// clock jumps (a machine-wide jump across the sleeping SM must not count
/// its cycles a second time); all three must leave the same statistics.
fn sleep_matches_naive(script: impl Fn(&mut Sleeper)) {
    let run = |sleepy, jumps| {
        let mut s = Sleeper::new(sleepy, jumps);
        script(&mut s);
        s.finish()
    };
    let naive = run(false, false);
    assert!(naive[5] > 1_000, "q's ready warps are quota-blocked most cycles: {naive:?}");
    assert_eq!(run(true, false), naive, "sleeping");
    assert_eq!(run(true, true), naive, "sleeping with clock jumps");
}

#[test]
fn sleep_ended_by_its_horizon_matches_naive() {
    // Some twenty sleeps, each ended by b's next scoreboard release, and the
    // run stops exactly on such a horizon: the last window is a whole one.
    let mut probe = Sleeper::new(true, false);
    probe.run_into_a_sleep(2_000);
    let horizon = probe.sm.wake_at();
    sleep_matches_naive(|s| s.run_to(horizon));
}

#[test]
fn sleep_ended_by_the_end_of_the_run_matches_naive() {
    sleep_matches_naive(|s| s.run_into_a_sleep(1_500));
}

#[test]
fn sleep_ended_by_a_dispatch_matches_naive() {
    sleep_matches_naive(|s| {
        s.run_into_a_sleep(1_500);
        s.sm.dispatch(B, TbIndex(1), None, 1_500, 7);
        s.run_to(3_000);
    });
}

#[test]
fn sleep_ended_by_a_preemption_matches_naive() {
    sleep_matches_naive(|s| {
        s.run_into_a_sleep(1_500);
        assert!(s.sm.start_preempt(Q, 1_500, 40));
        s.run_to(3_000);
    });
}

#[test]
fn sleep_ended_by_an_epoch_sync_and_quota_write_matches_naive() {
    sleep_matches_naive(|s| {
        s.run_into_a_sleep(1_500);
        s.sm.catch_up(1_500);
        s.sm.set_epoch_quota(Q, 320, QuotaCarry::Full, 0);
        s.run_into_a_sleep(2_200);
        s.sm.catch_up(2_200);
        s.sm.set_gated(Q, false);
        s.run_to(3_000);
    });
}

#[test]
#[should_panic(expected = "write on sleeping")]
fn quota_write_on_a_sleeping_sm_is_refused() {
    let mut s = Sleeper::new(true, false);
    s.run_into_a_sleep(1_500);
    s.sm.set_epoch_quota(Q, 320, QuotaCarry::Full, 0);
}

#[test]
fn dispatch_onto_a_sleeping_sm_issues_on_the_cycle_its_awake_twin_does() {
    // A cycle at which the SM has slept for more than a turn of the wake
    // wheel: the new TB's scoreboards (`at + 7`) are written while the
    // queue's clock still stands at the last tick, so a hint filed by its
    // distance from `at` would share a bucket with a cycle long due.
    let mut probe = Sleeper::new(true, false);
    probe.run_into_a_sleep(1_500);
    let at = (1_500..3_000)
        .find(|&t| {
            probe.run_to(t);
            probe.sm.sleep.is_some_and(|s| s.since + 70 <= t && t < s.until)
        })
        .expect("b's memory stalls last hundreds of cycles");
    let issue_cycles = |sleepy, jumps| {
        let mut s = Sleeper::new(sleepy, jumps);
        s.run_into_a_sleep(at);
        s.sm.dispatch(B, TbIndex(1), None, at, 7);
        let mut cycles = Vec::new();
        for end in at + 1..at + 200 {
            let before = s.sm.counters(B).warp_insts;
            s.run_to(end);
            if s.sm.counters(B).warp_insts > before {
                cycles.push(end - 1);
            }
        }
        cycles
    };
    let awake = issue_cycles(false, false);
    assert_eq!(awake.first(), Some(&(at + 7)), "b's old TB is stalled; the new one loads first");
    assert_eq!(issue_cycles(true, false), awake, "sleeping");
    assert_eq!(issue_cycles(true, true), awake, "sleeping with clock jumps");
}

/// `sm` and `mem` through their bytes, made to stand in for themselves as
/// `Gpu::restore` makes a decoded machine stand in for the receiver: the
/// kernel descriptions given back through `set_kernel_desc`, then the rest
/// of the configuration adopted.
fn decoded(sm: &Sm, mem: &MemSystem) -> (Sm, MemSystem) {
    use crate::snap::{decode_from_slice, encode_to_vec};
    let mut back: Sm = decode_from_slice(&encode_to_vec(sm)).expect("sm decodes");
    for (k, desc) in sm.descs.iter().enumerate() {
        if let Some(desc) = desc {
            back.set_kernel_desc(KernelId::new(k), desc.clone());
        }
    }
    assert!(back.adopt(sm), "a decoded SM fits its own configuration");
    let mut back_mem: MemSystem = decode_from_slice(&encode_to_vec(mem)).expect("memsys decodes");
    assert!(back_mem.adopt(mem), "a decoded memory system fits its own configuration");
    (back, back_mem)
}

#[test]
fn sm_decoded_from_a_snapshot_ticks_bit_identically() {
    use crate::snap::encode_to_vec;
    let mut live = Sleeper::new(false, false);
    live.run_to(1_234);
    let mut back = Sleeper::new(false, false);
    (back.sm, back.mem) = decoded(&live.sm, &live.mem);
    back.now = live.now;
    assert_eq!(back.sm.wake_counts(), (0, 0), "the wake queue is rebuilt, not decoded");
    for end in (1_300..3_000).step_by(100) {
        live.run_to(end);
        back.run_to(end);
        assert_eq!(encode_to_vec(&back.sm), encode_to_vec(&live.sm), "at {end}");
    }
    assert_eq!((live.sm.wake_counts().1, back.sm.wake_counts().1), (1, 1), "one build each");
}

/// Runs one TB of an ALU/SFU kernel until `at(now, warps)` holds, decodes
/// the SM from its bytes there, dispatches a second TB onto the live SM and
/// onto the decoded one before either ticks again, and steps both: every
/// cycle they must encode alike and hold the same I-buffer for every warp
/// that can still issue. The I-buffer is never encoded, so this holds only
/// if `Sm::adopt` refills it from the kernel bodies and the dispatch fills
/// the new warps' entries from the description.
fn decoded_twin_issues_like_the_live_sm(at: impl Fn(Cycle, &WarpTable) -> bool) {
    use crate::snap::encode_to_vec;
    let (mut live, mut mem, desc) = setup(vec![Op::alu(4, 3), Op::sfu(20, 1), Op::alu(2, 2)], 40);
    let k = KernelId::new(0);
    live.set_kernel_desc(k, desc);
    live.dispatch(k, TbIndex(0), None, 0, 0);
    let mut now = 0;
    while !at(now, &live.warps) {
        live.tick(now, &mut mem);
        now += 1;
        assert!(now < 1_000, "the snapshot point comes inside the first TB's run");
    }
    let (mut back, mut back_mem) = decoded(&live, &mem);
    live.dispatch(k, TbIndex(1), None, now, 0);
    back.dispatch(k, TbIndex(1), None, now, 0);
    for t in now..now + 600 {
        live.tick(t, &mut mem);
        back.tick(t, &mut back_mem);
        assert_eq!(encode_to_vec(&back), encode_to_vec(&live), "at {t}");
        let w = &live.warps;
        for slot in slots(w.occupied.0 & !w.done.0) {
            assert_eq!(back.warps.op[slot], w.op[slot], "slot {slot}'s I-buffer at {t}");
        }
    }
    assert_eq!(live.counters(k).warp_insts, back.counters(k).warp_insts);
    assert!(live.counters(k).warp_insts > 300, "both TBs ran: {}", live.counters(k).warp_insts);
}

#[test]
fn sm_decoded_mid_burst_issues_like_the_live_one() {
    decoded_twin_issues_like_the_live_sm(|now, w| {
        now >= 100 && slots(w.occupied.0 & !w.done.0).any(|s| w.rem[s] > 0)
    });
}

#[test]
fn sm_decoded_at_an_op_boundary_issues_like_the_live_one() {
    decoded_twin_issues_like_the_live_sm(|now, w| {
        let running = w.occupied.0 & !w.done.0;
        now >= 100 && running != 0 && slots(running).all(|s| w.rem[s] == 0 && w.pc[s] > 0)
    });
}

mod preemption_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Preempting and resuming a TB at an arbitrary point never
        /// loses or duplicates work: total retired thread-instructions
        /// equal one uninterrupted TB execution.
        #[test]
        fn preempt_resume_conserves_work(
            preempt_at in 1u64..2_000,
            save_cost in 1u64..500,
            load_cost in 0u64..500,
            iters in 1u32..20,
        ) {
            let (mut sm, mut mem, desc) = setup(vec![Op::alu(1, 10)], iters);
            let k = KernelId::new(0);
            sm.set_kernel_desc(k, desc.clone());
            sm.dispatch(k, TbIndex(0), None, 0, 0);
            for now in 0..preempt_at {
                sm.tick(now, &mut mem);
            }
            let expected = desc.thread_insts_per_tb();
            if sm.hosted_tbs(k) == 0 {
                // The TB already finished before the preemption point.
                prop_assert_eq!(sm.counters(k).thread_insts, expected);
                return Ok(());
            }
            prop_assert!(sm.start_preempt(k, preempt_at, save_cost));
            let resume_at = preempt_at + save_cost + 1;
            for now in preempt_at..resume_at {
                sm.tick(now, &mut mem);
            }
            let mut saved = Vec::new();
            sm.drain_saved(&mut saved);
            prop_assert_eq!(saved.len(), 1);
            let (_, tb) = saved.pop().expect("one saved TB");
            sm.dispatch(k, TbIndex(0), Some(tb), resume_at, load_cost);
            for now in resume_at..resume_at + 60_000 {
                sm.tick(now, &mut mem);
                if sm.hosted_tbs(k) == 0 {
                    break;
                }
            }
            prop_assert_eq!(sm.hosted_tbs(k), 0, "resumed TB must finish");
            prop_assert_eq!(sm.counters(k).thread_insts, expected);
        }
    }
}

#[test]
fn rollover_carry_keeps_surplus_discard_drops_it() {
    let cfg = GpuConfig::tiny();
    let mut sm = Sm::new(SmId::new(0), &cfg);
    let k = KernelId::new(0);
    sm.set_gated(k, true);
    sm.set_epoch_quota(k, 100, QuotaCarry::DiscardSurplus, 0);
    assert_eq!(sm.quota(k), 100);
    sm.set_epoch_quota(k, 100, QuotaCarry::Full, 0);
    assert_eq!(sm.quota(k), 200, "rollover keeps the surplus");
    sm.set_epoch_quota(k, 50, QuotaCarry::Full, 0);
    assert_eq!(sm.quota(k), 100, "carried surplus is capped at one allocation");
    sm.set_epoch_quota(k, 100, QuotaCarry::DiscardSurplus, 0);
    assert_eq!(sm.quota(k), 100, "discard drops the surplus");
}

/// A scheduler count outside the fused gather's powers of two: three
/// schedulers over two ungated kernels (ALU bursts, SFU, global loads, a
/// barrier). Pins how many instructions each scheduler issued, the SM's
/// counters, and a digest of the whole encoded SM after every cycle. The
/// digest (and nothing else here) moved with snapshot schema 9, which takes
/// the policy byte and the per-scheduler round-robin cursors out of the
/// encoded SM, with schema 10, which takes out the per-kernel
/// preemption-save histograms, with schema 11, which takes out the
/// quota-freeze and preemption-stall fault flags, with schema 13, which
/// takes out the SM's copies of the Table 1 limits and the L1 hit latency,
/// and with schema 14, which takes out what the configuration fixes (id,
/// scheduler count, line size, trace switch, L1 geometry, ring capacity) and
/// the SM's copies of the kernel descriptions.
#[test]
fn odd_scheduler_count_matches_pinned_digest() {
    use crate::snap::{encode_to_vec, fnv1a};
    const CYCLES: Cycle = 3_000;
    let mut cfg = GpuConfig::tiny();
    cfg.warp_schedulers = 3;
    let mut sm = Sm::new(SmId::new(0), &cfg);
    let mut mem = MemSystem::new(cfg.mem.clone());
    let desc = |name: &str, threads, body| {
        let b = KernelDesc::builder(name).threads_per_tb(threads).regs_per_thread(16);
        Arc::new(b.iterations(10_000).grid_tbs(8).body(body).build())
    };
    sm.set_kernel_desc(Q, desc("q", 128, vec![Op::alu(4, 3), Op::Bar, Op::sfu(20, 1)]));
    let loads = vec![Op::alu(2, 2), Op::mem_load(AccessPattern::random(1 << 20, 4))];
    sm.set_kernel_desc(B, desc("b", 64, loads));
    for (tb, k) in [Q, B, Q, B, B].into_iter().enumerate() {
        sm.dispatch(k, TbIndex(tb as u32), None, 0, 0);
    }
    // No TB finishes inside the run, so an issue always moves its slot's
    // (pc, rem, iter) and nothing else does.
    let progress = |sm: &Sm| -> Vec<(u16, u16, u32)> {
        let t = &sm.warps;
        (0..t.capacity()).map(|s| (t.pc[s], t.rem[s], t.iter[s])).collect()
    };
    let mut per_sched = [0u64; 3];
    let mut digest = 0u64;
    for now in 0..CYCLES {
        let before = progress(&sm);
        sm.tick(now, &mut mem);
        for (slot, (b, a)) in before.iter().zip(progress(&sm)).enumerate() {
            per_sched[slot % 3] += u64::from(*b != a);
        }
        let state = [digest.to_le_bytes().to_vec(), encode_to_vec(&sm)].concat();
        digest = fnv1a(&state);
    }
    assert_eq!(per_sched.iter().sum::<u64>(), sm.issued_total(), "every issue was seen");
    let counters = [
        sm.busy_cycles(),
        sm.issue_slots(),
        sm.counters(Q).thread_insts,
        sm.counters(B).thread_insts,
        sm.quota_blocked_cycles(Q) + sm.quota_blocked_cycles(B),
    ];
    assert_eq!(per_sched, [1788, 962, 935]);
    assert_eq!(counters, [3000, 9000, 112_768, 5152, 0]);
    assert_eq!(digest, 0x9929_0446_f115_c8df);
}
