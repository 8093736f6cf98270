//! Struct-of-arrays warp state for one SM.
//!
//! Parallel flat vecs (one per field) plus packed `u64` bitmasks, so
//! ready-warp selection is a trailing-zeros scan over a handful of words
//! ([`slots`]) and the cold per-warp fields are only touched for live
//! candidates.
//!
//! ## Bitmask invariants
//!
//! - `occupied`: slot hosts a warp. All other masks are subsets of it.
//! - `done`: the warp has retired its last instruction.
//! - `at_barrier`: the warp is parked at a barrier.
//! - `tb_active` / `tb_loading`: mirrors of the owning TB's phase, bit set
//!   for every warp of a TB whose phase is `Active` / `Loading(_)`. They are
//!   maintained at every phase transition (dispatch, load completion,
//!   preempt start/finish, TB drain) so the scheduler can test "TB issuable"
//!   without chasing `tb_slot` per warp. A warp of a `Saving` TB has
//!   neither bit set.
//! - `kernel_mask[k]`: warps owned by kernel `k` (subset of `occupied`).
//!
//! ## Snapshot canonicality
//!
//! Freed slots are reset to canonical values (kernel 0, zeroed scalars,
//! `SplitMix64::new(0)`), so machines that reach the same architectural
//! state through different dispatch/free histories — e.g. a live run versus
//! a kill-and-resume run — encode byte-identical snapshots. The free-slot
//! stack itself is encoded, and both histories produce the same stack
//! because free-order is architecturally determined.
//!
//! ## Wake queue
//!
//! `ready_at` is the truth: snapshotted, and read by the sleep horizon and
//! its replay. [`WakeQueue`] is derived from it and never encoded; for every
//! occupied slot, `ready` bit ⇔ `ready_at[slot] <= clock`. Every write of the
//! column goes through [`WarpTable::set_ready_at`], which files a wake *hint*
//! relative to the queue's own clock (`dispatch` writes on SMs whose last
//! tick is long past). [`WarpTable::advance`] drains the hints due and checks
//! each against the column: a slot freed, re-allocated or rewritten
//! meanwhile leaves its old hint behind (DESIGN.md §18.2).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::icn;
use crate::rng::SplitMix64;
use crate::types::{Cycle, KernelId, PerKernel};
use crate::warp::{AddrStream, WarpProgress};

/// Sets bit `slot` in a packed mask.
#[inline]
pub(crate) fn mask_set(mask: &mut [u64], slot: u16) {
    mask[usize::from(slot) / 64] |= 1 << (usize::from(slot) % 64);
}

/// Clears bit `slot` in a packed mask.
#[inline]
pub(crate) fn mask_clear(mask: &mut [u64], slot: u16) {
    mask[usize::from(slot) / 64] &= !(1 << (usize::from(slot) % 64));
}

/// Reads bit `slot` of a packed mask.
#[inline]
pub(crate) fn mask_get(mask: &[u64], slot: u16) -> bool {
    mask[usize::from(slot) / 64] >> (usize::from(slot) % 64) & 1 == 1
}

/// The slots of the set bits of mask word `wi`, lowest first: the one
/// trailing-zeros scan every walk over a packed mask goes through.
#[inline]
pub(crate) fn slots(wi: usize, bits: u64) -> Slots {
    Slots { base: wi * 64, bits }
}

/// See [`slots`].
pub(crate) struct Slots {
    base: usize,
    bits: u64,
}

impl Iterator for Slots {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.bits == 0 {
            return None;
        }
        let slot = self.base + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(slot)
    }
}

/// Cycles the wake wheel spans: ALU, SFU, shared-memory and barrier
/// latencies land inside it, memory responses go to the heap.
const WHEEL_SPAN: Cycle = 64;

/// Scoreboard releases as events. `Default` is the unbuilt state (`ready`
/// empty), in which a fresh and a restored table both start: the first
/// `advance` builds the queue from the column.
#[derive(Debug, Default)]
pub(crate) struct WakeQueue {
    /// Bit = scoreboard released at `clock`.
    pub(crate) ready: Vec<u64>,
    /// Bucket `c % WHEEL_SPAN` (one mask-word set each) holds the hints for
    /// cycle `c`, `clock < c < clock + WHEEL_SPAN`.
    wheel: Vec<u64>,
    /// Bit `b` = bucket `b` is non-empty: a long gap drains in O(hints due).
    wheel_occ: u64,
    /// Hints `WHEEL_SPAN` or more cycles out, earliest first.
    far: BinaryHeap<Reverse<(Cycle, u16)>>,
    /// The cycle `ready` is exact for.
    clock: Cycle,
    /// Hints drained / full builds from the column (`WorkCounters`).
    pub(crate) wake_events: u64,
    pub(crate) ready_rebuilds: u64,
}

/// Struct-of-arrays storage for every warp slot of one SM.
#[derive(Debug)]
pub struct WarpTable {
    // --- per-slot attribute arrays (indexed by warp slot) ---
    /// Owning kernel.
    pub(crate) kernel: Vec<KernelId>,
    /// Owning TB's slot in the SM's TB slab.
    pub(crate) tb_slot: Vec<u16>,
    /// Warp position within its TB.
    pub(crate) warp_in_tb: Vec<u16>,
    /// Globally unique warp number within the kernel (survives preemption);
    /// derives the deterministic address stream.
    pub(crate) warp_uid: Vec<u64>,
    /// Index of the current op in the kernel body.
    pub(crate) pc: Vec<u16>,
    /// Remaining repeats of the current op (0 = not yet started).
    pub(crate) rem: Vec<u16>,
    /// Remaining body iterations.
    pub(crate) iter: Vec<u32>,
    /// Cycle at which the warp's previous instruction completes
    /// (`icn::PENDING` while a memory response is outstanding). Written only
    /// through [`WarpTable::set_ready_at`].
    pub(crate) ready_at: Vec<Cycle>,
    /// Memory-access sequence number.
    pub(crate) seq: Vec<u64>,
    /// Deterministic per-warp RNG for randomized patterns.
    pub(crate) rng: Vec<SplitMix64>,
    /// Dispatch age: smaller = older (GTO tie-break).
    pub(crate) age: Vec<u64>,
    // --- packed bitmasks (bit = warp slot) ---
    pub(crate) occupied: Vec<u64>,
    pub(crate) done: Vec<u64>,
    pub(crate) at_barrier: Vec<u64>,
    pub(crate) tb_active: Vec<u64>,
    pub(crate) tb_loading: Vec<u64>,
    /// Per-kernel occupancy masks.
    pub(crate) kernel_mask: PerKernel<Vec<u64>>,
    /// Free-slot stack; built in reverse so slot 0 pops first, matching the
    /// allocation order of the previous per-slot `Option` layout.
    pub(crate) free: Vec<u16>,
    pub(crate) wake: WakeQueue,
}

impl WarpTable {
    /// Creates an empty table with `max_warps` slots.
    pub fn new(max_warps: u16) -> Self {
        let n = usize::from(max_warps);
        let words = n.div_ceil(64);
        WarpTable {
            kernel: vec![KernelId::new(0); n],
            tb_slot: vec![0; n],
            warp_in_tb: vec![0; n],
            warp_uid: vec![0; n],
            pc: vec![0; n],
            rem: vec![0; n],
            iter: vec![0; n],
            ready_at: vec![0; n],
            seq: vec![0; n],
            rng: vec![SplitMix64::new(0); n],
            age: vec![0; n],
            occupied: vec![0; words],
            done: vec![0; words],
            at_barrier: vec![0; words],
            tb_active: vec![0; words],
            tb_loading: vec![0; words],
            kernel_mask: crate::types::per_kernel(|_| vec![0; words]),
            free: (0..max_warps).rev().collect(),
            wake: WakeQueue::default(),
        }
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.kernel.len()
    }

    /// Number of mask words covering the table.
    #[inline]
    pub(crate) fn words(&self) -> usize {
        self.occupied.len()
    }

    /// Number of currently free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Whether `slot` currently hosts a warp.
    #[inline]
    pub fn is_occupied(&self, slot: u16) -> bool {
        mask_get(&self.occupied, slot)
    }

    /// Word `wi` of the live warps: hosted, not retired, not parked at a
    /// barrier.
    #[inline]
    pub(crate) fn live(&self, wi: usize) -> u64 {
        self.occupied[wi] & !self.done[wi] & !self.at_barrier[wi]
    }

    /// Claims a free slot for a warp of `kernel`, writing every per-slot
    /// field and updating the occupancy masks. The warp starts neither done
    /// nor at a barrier; the TB-phase bits are set by the caller once the
    /// owning TB's phase is known. Returns `None` when the table is full.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn alloc(
        &mut self,
        kernel: KernelId,
        tb_slot: u16,
        warp_in_tb: u16,
        warp_uid: u64,
        progress: &WarpProgress,
        ready_at: Cycle,
        age: u64,
    ) -> Option<u16> {
        let slot = self.free.pop()?;
        let i = usize::from(slot);
        self.kernel[i] = kernel;
        self.tb_slot[i] = tb_slot;
        self.warp_in_tb[i] = warp_in_tb;
        self.warp_uid[i] = warp_uid;
        self.pc[i] = progress.pc;
        self.rem[i] = progress.rem;
        self.iter[i] = progress.iter;
        self.set_ready_at(slot, ready_at);
        self.seq[i] = progress.seq;
        self.rng[i] = progress.rng.clone();
        self.age[i] = age;
        mask_set(&mut self.occupied, slot);
        if progress.done {
            mask_set(&mut self.done, slot);
        }
        mask_set(&mut self.kernel_mask[kernel.index()], slot);
        Some(slot)
    }

    /// Releases `slot` back to the free stack, resetting every field to its
    /// canonical cleared value and clearing all mask bits.
    pub(crate) fn free_slot(&mut self, slot: u16) {
        let i = usize::from(slot);
        debug_assert!(self.is_occupied(slot));
        let k = self.kernel[i].index();
        self.kernel[i] = KernelId::new(0);
        self.tb_slot[i] = 0;
        self.warp_in_tb[i] = 0;
        self.warp_uid[i] = 0;
        self.pc[i] = 0;
        self.rem[i] = 0;
        self.iter[i] = 0;
        self.ready_at[i] = 0;
        self.seq[i] = 0;
        self.rng[i] = SplitMix64::new(0);
        self.age[i] = 0;
        mask_clear(&mut self.occupied, slot);
        mask_clear(&mut self.done, slot);
        mask_clear(&mut self.at_barrier, slot);
        mask_clear(&mut self.tb_active, slot);
        mask_clear(&mut self.tb_loading, slot);
        mask_clear(&mut self.kernel_mask[k], slot);
        self.free.push(slot);
    }

    /// Moves the scoreboard release of `slot` to `cycle`.
    #[inline]
    pub(crate) fn set_ready_at(&mut self, slot: u16, cycle: Cycle) {
        self.ready_at[usize::from(slot)] = cycle;
        let q = &mut self.wake;
        if q.ready.is_empty() {
            return;
        }
        if cycle <= q.clock {
            mask_set(&mut q.ready, slot);
            return;
        }
        mask_clear(&mut q.ready, slot);
        if cycle - q.clock < WHEEL_SPAN {
            let bucket = (cycle % WHEEL_SPAN) as usize;
            mask_set(&mut q.wheel[bucket * q.ready.len()..], slot);
            q.wheel_occ |= 1 << bucket;
        } else if cycle != icn::PENDING {
            q.far.push(Reverse((cycle, slot)));
        }
    }

    /// Brings `wake.ready` to cycle `now`, at a cost proportional to the
    /// hints that came due since the last call. Time running backwards (only
    /// tests restart a clock) rebuilds like the unbuilt state does.
    pub(crate) fn advance(&mut self, now: Cycle) {
        if self.wake.ready.is_empty() || now < self.wake.clock {
            self.wake.ready = vec![0; self.words()];
            self.wake.wheel = vec![0; self.words() * WHEEL_SPAN as usize];
            self.wake.wheel_occ = 0;
            self.wake.far.clear();
            self.wake.clock = now;
            self.wake.ready_rebuilds += 1;
            for slot in 0..self.capacity() as u16 {
                self.set_ready_at(slot, self.ready_at[usize::from(slot)]);
            }
            return;
        }
        let WarpTable { wake: q, ready_at, .. } = self;
        let words = q.ready.len();
        // Buckets of the cycles `clock + 1 ..= now`: all, from a full turn on.
        let gap = now - q.clock;
        let due = if gap >= WHEEL_SPAN {
            u64::MAX
        } else {
            ((1u64 << gap) - 1).rotate_left(((q.clock + 1) % WHEEL_SPAN) as u32)
        };
        let buckets = q.wheel_occ & due;
        q.wheel_occ &= !due;
        q.clock = now;
        let mut wake = |slot: u16| {
            q.wake_events += 1;
            if ready_at[usize::from(slot)] <= now {
                mask_set(&mut q.ready, slot);
            }
        };
        for bucket in slots(0, buckets) {
            for wi in 0..words {
                let bits = std::mem::take(&mut q.wheel[bucket * words + wi]);
                for slot in slots(wi, bits) {
                    wake(slot as u16);
                }
            }
        }
        while q.far.peek().is_some_and(|&Reverse((cycle, _))| cycle <= now) {
            let Reverse((_, slot)) = q.far.pop().expect("peeked");
            wake(slot);
        }
    }

    /// Captures the architectural progress of the warp in `slot` for a
    /// partial context save.
    pub(crate) fn capture_progress(&self, slot: u16) -> WarpProgress {
        let i = usize::from(slot);
        WarpProgress {
            pc: self.pc[i],
            rem: self.rem[i],
            iter: self.iter[i],
            seq: self.seq[i],
            done: mask_get(&self.done, slot),
            rng: self.rng[i].clone(),
        }
    }

    /// Borrows the address-stream state of the warp in `slot`.
    pub(crate) fn addr_stream(&mut self, slot: u16) -> AddrStream<'_> {
        let i = usize::from(slot);
        AddrStream {
            warp_uid: self.warp_uid[i],
            warp_in_tb: self.warp_in_tb[i],
            seq: &mut self.seq[i],
            rng: &mut self.rng[i],
        }
    }

    /// Sets or clears the TB-phase mirror bits of `slot` to reflect the
    /// owning TB's phase: `(active, loading)`.
    #[inline]
    pub(crate) fn set_tb_phase_bits(&mut self, slot: u16, active: bool, loading: bool) {
        if active {
            mask_set(&mut self.tb_active, slot);
        } else {
            mask_clear(&mut self.tb_active, slot);
        }
        if loading {
            mask_set(&mut self.tb_loading, slot);
        } else {
            mask_clear(&mut self.tb_loading, slot);
        }
    }
}

crate::impl_snap_struct!(WarpTable {
    kernel,
    tb_slot,
    warp_in_tb,
    warp_uid,
    pc,
    rem,
    iter,
    ready_at,
    seq,
    rng,
    age,
    occupied,
    done,
    at_barrier,
    tb_active,
    tb_loading,
    kernel_mask,
    free,
} skip {
    wake
});

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_progress() -> WarpProgress {
        WarpProgress { pc: 0, rem: 0, iter: 3, seq: 0, done: false, rng: SplitMix64::new(7) }
    }

    #[test]
    fn alloc_claims_increasing_slots_and_sets_masks() {
        let mut t = WarpTable::new(70);
        let a = t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 5, 1).unwrap();
        let b = t.alloc(KernelId::new(1), 1, 0, 0, &fresh_progress(), 5, 2).unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(t.is_occupied(0) && t.is_occupied(1) && !t.is_occupied(2));
        assert!(mask_get(&t.kernel_mask[0], 0) && mask_get(&t.kernel_mask[1], 1));
        assert!(!mask_get(&t.done, 0) && !mask_get(&t.at_barrier, 0));
        assert_eq!(t.ready_at[0], 5);
        // Slot 64 lives in the second mask word.
        for _ in 2..64 {
            t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 0, 0).unwrap();
        }
        let hi = t.alloc(KernelId::new(2), 0, 0, 0, &fresh_progress(), 0, 0).unwrap();
        assert_eq!(hi, 64);
        assert!(t.is_occupied(64) && mask_get(&t.kernel_mask[2], 64));
    }

    #[test]
    fn free_slot_restores_canonical_snapshot() {
        use crate::snap::Snap;
        let mut t = WarpTable::new(16);
        let mut p = fresh_progress();
        p.pc = 4;
        p.seq = 99;
        let s = t.alloc(KernelId::new(2), 3, 1, 42, &p, 17, 9).unwrap();
        mask_set(&mut t.at_barrier, s);
        t.set_tb_phase_bits(s, true, false);
        t.free_slot(s);
        let fresh = WarpTable::new(16);
        let mut a = Vec::new();
        let mut b = Vec::new();
        t.encode(&mut a);
        fresh.encode(&mut b);
        assert_eq!(a, b, "freed table snapshots identically to a fresh one");
    }

    #[test]
    fn capture_progress_round_trips_through_alloc() {
        let mut t = WarpTable::new(4);
        let mut p = fresh_progress();
        p.pc = 2;
        p.rem = 1;
        p.iter = 7;
        p.seq = 13;
        let s = t.alloc(KernelId::new(1), 0, 2, 5, &p, 0, 0).unwrap();
        let got = t.capture_progress(s);
        assert_eq!(
            (got.pc, got.rem, got.iter, got.seq, got.done),
            (p.pc, p.rem, p.iter, p.seq, p.done)
        );
    }

    #[test]
    fn done_bit_survives_alloc_of_saved_retired_warp() {
        let mut t = WarpTable::new(4);
        let mut p = fresh_progress();
        p.done = true;
        let s = t.alloc(KernelId::new(0), 0, 0, 0, &p, 0, 0).unwrap();
        assert!(mask_get(&t.done, s), "resumed retired warp keeps its done bit");
    }

    mod wake_queue {
        use super::*;
        use proptest::prelude::*;

        /// `ready` against the brute-force pass it replaces.
        fn ready_matches_column(t: &WarpTable, now: Cycle) -> Result<(), TestCaseError> {
            for slot in (0..t.capacity() as u16).filter(|&s| t.is_occupied(s)) {
                let swept = t.ready_at[usize::from(slot)] <= now;
                prop_assert_eq!(mask_get(&t.wake.ready, slot), swept, "slot {} at {}", slot, now);
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Random writes of the column (in the past, now, inside, at and
            /// beyond the wheel span, far out, `PENDING`), slots freed and
            /// re-allocated under their old hints, and time moving by
            /// nothing, a cycle, across the span edge and far beyond it.
            #[test]
            fn ready_mask_equals_the_swept_column(
                ops in prop::collection::vec(any::<u64>(), 1..400),
            ) {
                const DELAYS: [u64; 7] = [0, 1, 63, 64, 65, 5_000, icn::PENDING];
                const GAPS: [u64; 6] = [0, 1, 63, 64, 65, 10_000];
                // Two mask words, the second partial; half the slots hosted.
                let mut t = WarpTable::new(70);
                let mut now: Cycle = 20_000;
                for s in 0..35 {
                    t.alloc(KernelId::new(0), 0, s, 0, &fresh_progress(), now + u64::from(s), 0);
                }
                for op in ops {
                    let slot = (op >> 8) as u16 % 70;
                    let pick = (op >> 32) as usize;
                    let at = match DELAYS[pick % 7] {
                        0 if pick & 8 == 0 => now - (op >> 40) % 100,
                        icn::PENDING => icn::PENDING,
                        d => now + d,
                    };
                    match op % 8 {
                        0..=3 if t.is_occupied(slot) => t.set_ready_at(slot, at),
                        4 if t.is_occupied(slot) => {
                            // The free stack is LIFO: the same slot comes
                            // back, still carrying its old hints.
                            t.free_slot(slot);
                            let p = fresh_progress();
                            let got = t.alloc(KernelId::new(1), 0, 0, 0, &p, at.max(now + 2), 0);
                            prop_assert_eq!(got, Some(slot));
                        }
                        5 if t.is_occupied(slot) => t.free_slot(slot),
                        0..=5 => {
                            t.alloc(KernelId::new(2), 0, 0, 0, &fresh_progress(), at, 0);
                        }
                        _ => {
                            now += GAPS[pick % 6];
                            t.advance(now);
                            ready_matches_column(&t, now)?;
                        }
                    }
                }
                t.advance(now);
                ready_matches_column(&t, now)?;
                prop_assert_eq!(t.wake.ready_rebuilds, 1, "built once, drained ever after");
            }
        }

        #[test]
        fn time_running_backwards_rebuilds() {
            let mut t = WarpTable::new(8);
            let s = t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 30, 0).unwrap();
            t.advance(40);
            assert!(mask_get(&t.wake.ready, s));
            t.advance(10);
            assert!(!mask_get(&t.wake.ready, s), "not released yet at cycle 10");
            t.advance(30);
            assert!(mask_get(&t.wake.ready, s), "the rebuild re-filed the hint");
            assert_eq!(t.wake.ready_rebuilds, 2);
        }

        #[test]
        fn a_snapshot_carries_the_column_not_the_queue() {
            use crate::snap::{decode_from_slice, encode_to_vec};
            let mut t = WarpTable::new(8);
            t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 30, 0).unwrap();
            let unbuilt = encode_to_vec(&t);
            t.advance(5);
            assert_eq!(encode_to_vec(&t), unbuilt, "building the queue moves no snapshot byte");
            let back: WarpTable = decode_from_slice(&unbuilt).expect("decodes");
            assert!(back.wake.ready.is_empty(), "a restored table builds its queue anew");
        }
    }
}
