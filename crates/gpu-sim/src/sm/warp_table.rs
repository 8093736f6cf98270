//! Struct-of-arrays warp state for one SM.
//!
//! One inline column per field ([`SlotColumn`], a `[T; 64]` and the count
//! of slots in use) plus one-word bitmasks: an SM hosts at most 64 warps
//! and 64 TBs (`GpuConfig::validate` refuses more, and [`WarpTable::new`]
//! and `TbSlab::new` assert it), so no column needs the heap, every per-SM
//! slot mask is a single `u64` ([`SlotMask`] on the wire), ready-warp
//! selection is a trailing-zeros scan of one word ([`slots`]), and the cold
//! per-warp fields are only touched for live candidates.
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
//! Freed slots are reset to canonical values ([`Vacant::VACANT`]: kernel 0,
//! zeroed scalars, `SplitMix64::new(0)`), so machines that reach the same
//! architectural state through different dispatch/free histories — e.g. a
//! live run versus a kill-and-resume run — encode byte-identical snapshots.
//! The free-slot stack itself is encoded, and both histories produce the
//! same stack because free-order is architecturally determined.
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
use std::ops::{Deref, DerefMut, Index, IndexMut};

use crate::kernel::Op;
use crate::rng::SplitMix64;
use crate::types::{Cycle, KernelId, PerKernel, TbIndex};
use crate::warp::{AddrStream, WarpProgress};

/// Most warp or TB slots an SM has: one bit each in a `u64`.
pub(crate) const MAX_SLOTS: usize = 64;

/// The value a free slot of a [`SlotColumn`] holds: what a fresh column is
/// filled with and what freeing a slot writes back, so a freed slot encodes
/// like one never used.
pub(crate) trait Vacant {
    const VACANT: Self;
}

impl Vacant for u16 {
    const VACANT: Self = 0;
}

impl Vacant for u32 {
    const VACANT: Self = 0;
}

impl Vacant for u64 {
    const VACANT: Self = 0;
}

impl Vacant for KernelId {
    const VACANT: Self = KernelId(0);
}

impl Vacant for TbIndex {
    const VACANT: Self = TbIndex(0);
}

impl Vacant for SplitMix64 {
    const VACANT: Self = SplitMix64::new(0);
}

/// A free slot's op is never issued; the I-buffer of a fresh slot holds a
/// barrier only because an `Op` has to hold something.
impl Vacant for Op {
    const VACANT: Self = Op::Bar;
}

/// One per-slot field of an SM: a value for each of the [`MAX_SLOTS`] slots
/// inline, `len` of them in use. It reads as the slice of the slots in use;
/// `column[slot]` is checked against the constant 64, an immediate compare,
/// not against `len`. On the wire it is exactly the `Vec` of the slots in
/// use (`snap.rs`).
#[derive(Debug, Clone)]
pub(crate) struct SlotColumn<T> {
    items: [T; MAX_SLOTS],
    len: usize,
}

impl<T: Vacant> SlotColumn<T> {
    /// A column of `len` slots, every one vacant.
    pub(crate) fn new(len: usize) -> Self {
        assert!(len <= MAX_SLOTS, "a slot column holds at most {MAX_SLOTS} slots, not {len}");
        SlotColumn { items: std::array::from_fn(|_| T::VACANT), len }
    }

    /// Resets `slot` to the vacant value.
    #[inline]
    pub(crate) fn vacate(&mut self, slot: usize) {
        self.items[slot] = T::VACANT;
    }
}

/// The unbuilt column of a skip-snapped field: no slot in use.
impl<T: Vacant> Default for SlotColumn<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T> Deref for SlotColumn<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T> DerefMut for SlotColumn<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T> Index<usize> for SlotColumn<T> {
    type Output = T;
    #[inline]
    fn index(&self, slot: usize) -> &T {
        &self.items[slot]
    }
}

impl<T> IndexMut<usize> for SlotColumn<T> {
    #[inline]
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.items[slot]
    }
}

/// The bit of `slot` in a one-word mask. A slot past the word (a bug, or a
/// slot number decoded from a corrupt snapshot) panics in every profile
/// rather than wrap onto another slot.
#[inline]
pub(crate) fn bit(slot: u16) -> u64 {
    1u64.checked_shl(u32::from(slot)).expect("a slot of a one-word mask")
}

/// A mask of an SM's warp or TB slots, bit = slot; on the wire a sequence
/// of one word (`snap.rs`).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotMask(pub(crate) u64);

/// The slots of the set bits of `bits`, lowest first: the one trailing-zeros
/// scan every walk over a slot mask goes through.
#[inline]
pub(crate) fn slots(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let slot = (bits != 0).then(|| bits.trailing_zeros() as usize)?;
        bits &= bits - 1;
        Some(slot)
    })
}

/// Cycles the wake wheel spans: ALU, SFU, shared-memory and barrier
/// latencies land inside it, memory responses go to the heap.
const WHEEL_SPAN: Cycle = 64;

/// Scoreboard releases as events. `Default` is the unbuilt state, in which a
/// fresh and a restored table both start: the first `advance` builds the
/// queue from the column.
#[derive(Debug)]
pub(crate) struct WakeQueue {
    /// `ready`, the wheel and the heap hold the column as of `clock`.
    built: bool,
    /// Bit = scoreboard released at `clock`.
    pub(crate) ready: u64,
    /// Bucket `c % WHEEL_SPAN` holds the hints for cycle `c`,
    /// `clock < c < clock + WHEEL_SPAN`.
    wheel: [u64; WHEEL_SPAN as usize],
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

impl Default for WakeQueue {
    fn default() -> Self {
        WakeQueue {
            built: false,
            ready: 0,
            wheel: [0; WHEEL_SPAN as usize],
            wheel_occ: 0,
            far: BinaryHeap::new(),
            clock: 0,
            wake_events: 0,
            ready_rebuilds: 0,
        }
    }
}

/// Struct-of-arrays storage for every warp slot of one SM.
#[derive(Debug)]
pub struct WarpTable {
    // --- per-slot attribute arrays (indexed by warp slot) ---
    /// Owning kernel.
    pub(crate) kernel: SlotColumn<KernelId>,
    /// Owning TB's slot in the SM's TB slab.
    pub(crate) tb_slot: SlotColumn<u16>,
    /// Warp position within its TB.
    pub(crate) warp_in_tb: SlotColumn<u16>,
    /// Globally unique warp number within the kernel (survives preemption);
    /// derives the deterministic address stream.
    pub(crate) warp_uid: SlotColumn<u64>,
    /// Index of the current op in the kernel body.
    pub(crate) pc: SlotColumn<u16>,
    /// Remaining repeats of the current op (0 = not yet started).
    pub(crate) rem: SlotColumn<u16>,
    /// Remaining body iterations.
    pub(crate) iter: SlotColumn<u32>,
    /// Cycle at which the warp's previous instruction completes. Written
    /// only through [`WarpTable::set_ready_at`].
    pub(crate) ready_at: SlotColumn<Cycle>,
    /// Memory-access sequence number.
    pub(crate) seq: SlotColumn<u64>,
    /// Deterministic per-warp RNG for randomized patterns.
    pub(crate) rng: SlotColumn<SplitMix64>,
    /// Dispatch age: smaller = older (GTO tie-break).
    pub(crate) age: SlotColumn<u64>,
    /// The I-buffer: the op at `pc` in the warp's kernel body, which
    /// `issue` reads instead of looking the body up. Derived and never
    /// encoded: `Sm::dispatch` writes it from the kernel's description,
    /// `issue` whenever `pc` moves, and `Sm::rebuild_derived` on restore.
    pub(crate) op: SlotColumn<Op>,
    // --- one-word bitmasks (bit = warp slot) ---
    pub(crate) occupied: SlotMask,
    pub(crate) done: SlotMask,
    pub(crate) at_barrier: SlotMask,
    pub(crate) tb_active: SlotMask,
    pub(crate) tb_loading: SlotMask,
    /// Per-kernel occupancy masks.
    pub(crate) kernel_mask: PerKernel<SlotMask>,
    /// Free-slot stack; built in reverse so slot 0 pops first, matching the
    /// allocation order of the previous per-slot `Option` layout.
    pub(crate) free: Vec<u16>,
    pub(crate) wake: WakeQueue,
}

impl WarpTable {
    /// Creates an empty table with `max_warps` slots, at most 64.
    pub fn new(max_warps: u16) -> Self {
        let n = usize::from(max_warps);
        assert!(n <= MAX_SLOTS, "an SM hosts at most {MAX_SLOTS} warps, not {n}");
        WarpTable {
            kernel: SlotColumn::new(n),
            tb_slot: SlotColumn::new(n),
            warp_in_tb: SlotColumn::new(n),
            warp_uid: SlotColumn::new(n),
            pc: SlotColumn::new(n),
            rem: SlotColumn::new(n),
            iter: SlotColumn::new(n),
            ready_at: SlotColumn::new(n),
            seq: SlotColumn::new(n),
            rng: SlotColumn::new(n),
            age: SlotColumn::new(n),
            op: SlotColumn::new(n),
            occupied: SlotMask::default(),
            done: SlotMask::default(),
            at_barrier: SlotMask::default(),
            tb_active: SlotMask::default(),
            tb_loading: SlotMask::default(),
            kernel_mask: PerKernel::default(),
            free: (0..max_warps).rev().collect(),
            wake: WakeQueue::default(),
        }
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.kernel.len()
    }

    /// Number of currently free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Whether `slot` currently hosts a warp.
    #[inline]
    pub fn is_occupied(&self, slot: u16) -> bool {
        self.occupied.0 & bit(slot) != 0
    }

    /// The live warps: hosted, not retired, not parked at a barrier.
    #[inline]
    pub(crate) fn live(&self) -> u64 {
        self.occupied.0 & !self.done.0 & !self.at_barrier.0
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
        self.occupied.0 |= bit(slot);
        if progress.done {
            self.done.0 |= bit(slot);
        }
        self.kernel_mask[kernel.index()].0 |= bit(slot);
        Some(slot)
    }

    /// Releases `slot` back to the free stack, resetting every field to its
    /// canonical cleared value and clearing all mask bits.
    pub(crate) fn free_slot(&mut self, slot: u16) {
        let i = usize::from(slot);
        debug_assert!(self.is_occupied(slot));
        let k = self.kernel[i].index();
        self.kernel.vacate(i);
        self.tb_slot.vacate(i);
        self.warp_in_tb.vacate(i);
        self.warp_uid.vacate(i);
        self.pc.vacate(i);
        self.rem.vacate(i);
        self.iter.vacate(i);
        self.ready_at.vacate(i);
        self.seq.vacate(i);
        self.rng.vacate(i);
        self.age.vacate(i);
        self.op.vacate(i);
        self.occupied.0 &= !bit(slot);
        self.done.0 &= !bit(slot);
        self.at_barrier.0 &= !bit(slot);
        self.tb_active.0 &= !bit(slot);
        self.tb_loading.0 &= !bit(slot);
        self.kernel_mask[k].0 &= !bit(slot);
        self.free.push(slot);
    }

    /// Moves the scoreboard release of `slot` to `cycle`.
    #[inline]
    pub(crate) fn set_ready_at(&mut self, slot: u16, cycle: Cycle) {
        self.ready_at[usize::from(slot)] = cycle;
        let q = &mut self.wake;
        if !q.built {
            return;
        }
        if cycle <= q.clock {
            q.ready |= bit(slot);
            return;
        }
        q.ready &= !bit(slot);
        if cycle - q.clock < WHEEL_SPAN {
            let bucket = (cycle % WHEEL_SPAN) as usize;
            q.wheel[bucket] |= bit(slot);
            q.wheel_occ |= 1 << bucket;
        } else {
            q.far.push(Reverse((cycle, slot)));
        }
    }

    /// The slots of `among` whose scoreboard is released at `now`: the wake
    /// queue's word when it stands at `now` (an SM right after a tick that
    /// reached its gather), a compare over the column otherwise.
    #[inline]
    pub(crate) fn released(&self, among: u64, now: Cycle) -> u64 {
        let q = &self.wake;
        if q.built && q.clock == now {
            return among & q.ready;
        }
        slots(among)
            .filter(|&slot| self.ready_at[slot] <= now)
            .fold(0, |m, slot| m | bit(slot as u16))
    }

    /// Slots released by cycle `at` that the wake queue already holds: its
    /// `ready` word while it stands at or before `at`, none otherwise. Only
    /// a subset of the released slots for an `at` past the queue's clock.
    #[inline]
    pub(crate) fn held_ready(&self, at: Cycle) -> u64 {
        let q = &self.wake;
        if q.built && q.clock <= at {
            q.ready
        } else {
            0
        }
    }

    /// Brings `wake.ready` to cycle `now`, at a cost proportional to the
    /// hints that came due since the last call. Time running backwards (only
    /// tests restart a clock) rebuilds like the unbuilt state does.
    pub(crate) fn advance(&mut self, now: Cycle) {
        if !self.wake.built || now < self.wake.clock {
            let q = &mut self.wake;
            q.built = true;
            q.ready = 0;
            q.wheel = [0; WHEEL_SPAN as usize];
            q.wheel_occ = 0;
            q.far.clear();
            q.clock = now;
            q.ready_rebuilds += 1;
            for slot in 0..self.capacity() as u16 {
                self.set_ready_at(slot, self.ready_at[usize::from(slot)]);
            }
            return;
        }
        let WarpTable { wake: q, ready_at, .. } = self;
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
                q.ready |= bit(slot);
            }
        };
        for bucket in slots(buckets) {
            for slot in slots(std::mem::take(&mut q.wheel[bucket])) {
                wake(slot as u16);
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
            done: self.done.0 & bit(slot) != 0,
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
        for (mask, on) in [(&mut self.tb_active, active), (&mut self.tb_loading, loading)] {
            mask.0 = (mask.0 & !bit(slot)) | (u64::from(on) << slot);
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
    op,
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
        let mut t = WarpTable::new(64);
        let a = t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 5, 1).unwrap();
        let b = t.alloc(KernelId::new(1), 1, 0, 0, &fresh_progress(), 5, 2).unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(t.is_occupied(0) && t.is_occupied(1) && !t.is_occupied(2));
        assert_eq!((t.kernel_mask[0].0, t.kernel_mask[1].0), (0b01, 0b10));
        assert_eq!((t.done.0, t.at_barrier.0), (0, 0));
        assert_eq!(t.ready_at[0], 5);
        // Slot 63 is the top bit of the word.
        for _ in 2..63 {
            t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 0, 0).unwrap();
        }
        let hi = t.alloc(KernelId::new(2), 0, 0, 0, &fresh_progress(), 0, 0).unwrap();
        assert_eq!(hi, 63);
        assert!(t.is_occupied(63) && t.kernel_mask[2].0 == 1 << 63);
        assert_eq!(t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 0, 0), None);
    }

    #[test]
    #[should_panic(expected = "at most 64 warps")]
    fn a_table_refuses_a_65th_slot() {
        WarpTable::new(65);
    }

    #[test]
    fn free_slot_restores_canonical_snapshot() {
        use crate::snap::Snap;
        let mut t = WarpTable::new(16);
        let mut p = fresh_progress();
        p.pc = 4;
        p.seq = 99;
        let s = t.alloc(KernelId::new(2), 3, 1, 42, &p, 17, 9).unwrap();
        t.at_barrier.0 |= bit(s);
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
        assert!(t.done.0 & bit(s) != 0, "resumed retired warp keeps its done bit");
    }

    /// A tiny machine warmed to cycle 5 000 and its snapshot bytes.
    fn warmed() -> (crate::gpu::Gpu, Vec<u8>) {
        use crate::gpu::{Gpu, NullController};
        use crate::kernel::Op;
        let mut gpu = Gpu::new(crate::GpuConfig::tiny());
        let desc = crate::kernel::KernelDesc::builder("t").threads_per_tb(64).regs_per_thread(16);
        gpu.launch(desc.iterations(500).grid_tbs(8).body(vec![Op::Bar, Op::alu(2, 12)]).build());
        gpu.run(5_000, &mut NullController);
        let bytes = gpu.snapshot().expect("cycle 5000 is a boundary").into_bytes();
        (gpu, bytes)
    }

    /// Restores the tampered blob `bad` into a fresh machine, which must
    /// refuse it as corrupt and be left untouched.
    fn assert_refused(bad: &[u8], what: &str) {
        use crate::gpu::{Gpu, SnapshotBlob, SnapshotError};
        let blob = SnapshotBlob::from_bytes(bad).expect("the header is intact");
        let mut fresh = Gpu::new(crate::GpuConfig::tiny());
        match fresh.restore(&blob) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("{what} must be refused, got {other:?}"),
        }
        assert_eq!(fresh.cycle(), 0, "failed restore must leave the machine untouched");
    }

    /// The offset in `bytes` of the last SM's encoded warp table.
    fn last_table(gpu: &crate::gpu::Gpu, bytes: &[u8]) -> usize {
        let table = crate::snap::encode_to_vec(&gpu.sms().last().expect("SMs").warps);
        bytes.windows(table.len()).position(|w| w == table).expect("the warp table")
    }

    /// `bytes` with `cut` bytes at `at` replaced by `insert`, its header's
    /// payload length rewritten to match: a blob whose stream stays aligned.
    fn spliced(bytes: &[u8], at: usize, cut: usize, insert: &[u8]) -> Vec<u8> {
        use crate::gpu::SnapshotBlob;
        let header = bytes.len() - SnapshotBlob::from_bytes(bytes).expect("parses").payload_len();
        let mut bad = [&bytes[..at], insert, &bytes[at + cut..]].concat();
        let payload = (bad.len() - header) as u64;
        bad[header - 8..header].copy_from_slice(&payload.to_le_bytes());
        bad
    }

    /// A slot mask is one word: a blob whose warp-table, kernel or TB-slab mask
    /// says it holds 0 or 2 words is refused, even with the stream kept aligned
    /// (as many words follow as the prefix says), and the machine is untouched.
    #[test]
    fn restore_refuses_a_mask_that_is_not_one_word() {
        use crate::snap::encode_to_vec;
        let (gpu, bytes) = warmed();
        let find = |record: &[u8]| bytes.windows(record.len()).position(|w| w == record);
        // The masks are the last fields before each free-slot stack: the warp
        // table's five, then its four kernel masks; the slab's one.
        let sm = gpu.sms().last().expect("the machine has SMs");
        let (table, slab) = (encode_to_vec(&sm.warps), encode_to_vec(&sm.tbs));
        let table_masks =
            last_table(&gpu, &bytes) + table.len() - encode_to_vec(&sm.warps.free).len() - 9 * 16;
        let slab_mask =
            find(&slab).expect("the TB slab") + slab.len() - encode_to_vec(&sm.tbs.free).len() - 16;
        let masks = [
            ("occupied", table_masks),
            ("kernel_mask[3]", table_masks + 8 * 16),
            ("slab", slab_mask),
        ];
        for (what, at) in masks {
            assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes(), "{what} is one word");
            for words in [0u64, 2] {
                let mut mask = words.to_le_bytes().to_vec();
                mask.extend(std::iter::repeat_n(0, 8 * words as usize));
                assert_refused(
                    &spliced(&bytes, at, 16, &mask),
                    &format!("{what} of {words} words"),
                );
            }
        }
    }

    /// A warp-table column has one entry per warp slot: a blob whose `kernel`
    /// column is a slot short (`Sm::warps_fit`) or a slot over (65, past any
    /// SM: the column's decode), with the stream kept aligned, is refused and
    /// the machine is untouched.
    #[test]
    fn restore_refuses_a_column_of_another_slot_count() {
        let (gpu, bytes) = warmed();
        let n = gpu.sms().last().expect("the machine has SMs").warps.capacity();
        // The kernel column leads the table: a length word, then a byte a slot.
        let at = last_table(&gpu, &bytes);
        assert_eq!(bytes[at..at + 8], (n as u64).to_le_bytes(), "one entry a slot");
        let kernels = &bytes[at + 8..at + 8 + n];
        for len in [n - 1, n + 1] {
            let mut column = (len as u64).to_le_bytes().to_vec();
            column.extend(kernels.iter().chain([&0]).take(len));
            assert_refused(&spliced(&bytes, at, 8 + n, &column), &format!("{len} kernel slots"));
        }
    }

    /// A hosted warp points inside its kernel and its TB: a blob whose warp
    /// has a `pc` past its kernel's body, or a `tb_slot` past the slab or at
    /// a free TB slot, is refused (`Sm::warps_fit`), and the machine is
    /// untouched.
    #[test]
    fn restore_refuses_a_warp_outside_its_kernel_or_its_tb() {
        use crate::snap::encode_to_vec;
        let (gpu, bytes) = warmed();
        let sm = gpu.sms().last().expect("the machine has SMs");
        let t = &sm.warps;
        let slot = slots(t.occupied.0 & !t.done.0).next().expect("a running warp");
        let free_tb = (0..sm.tbs.capacity() as u16).find(|&s| !sm.tbs.is_occupied(s));
        // Each column is a length word, then two bytes a slot.
        let at = |columns: usize| {
            let before = [
                encode_to_vec(&t.kernel).len(),
                encode_to_vec(&t.tb_slot).len(),
                encode_to_vec(&t.warp_in_tb).len(),
                encode_to_vec(&t.warp_uid).len(),
            ];
            last_table(&gpu, &bytes) + before[..columns].iter().sum::<usize>() + 8 + 2 * slot
        };
        assert_eq!(bytes[at(4)..at(4) + 2], t.pc[slot].to_le_bytes(), "the warp's pc");
        assert_eq!(bytes[at(1)..at(1) + 2], t.tb_slot[slot].to_le_bytes(), "the warp's TB");
        let mut bombs = vec![("pc", at(4), 2), ("pc", at(4), u16::MAX), ("tb_slot", at(1), 64)];
        bombs.extend(free_tb.map(|tb| ("tb_slot at a free TB", at(1), tb)));
        for (what, at, value) in bombs {
            let mut bad = bytes.clone();
            bad[at..at + 2].copy_from_slice(&value.to_le_bytes());
            assert_refused(&bad, &format!("{what} {value}"));
        }
        let blob = crate::gpu::SnapshotBlob::from_bytes(&bytes).expect("parses");
        crate::gpu::Gpu::new(crate::GpuConfig::tiny()).restore(&blob).expect("the real blob");
    }

    mod wake_queue {
        use super::*;
        use proptest::prelude::*;

        /// `ready` against the brute-force pass it replaces.
        fn ready_matches_column(t: &WarpTable, now: Cycle) -> Result<(), TestCaseError> {
            for slot in (0..t.capacity() as u16).filter(|&s| t.is_occupied(s)) {
                let swept = t.ready_at[usize::from(slot)] <= now;
                prop_assert_eq!(t.wake.ready & bit(slot) != 0, swept, "slot {} at {}", slot, now);
            }
            Ok(())
        }

        /// Random writes of the column (in the past, now, inside, at and
        /// beyond the wheel span, far out, `Cycle::MAX`), slots freed and
        /// re-allocated under their old hints, and time moving by nothing,
        /// a cycle, across the span edge and far beyond it, on a table of
        /// `capacity` slots with half of them hosted.
        fn ready_mask_tracks_the_column(capacity: u16, ops: &[u64]) -> Result<(), TestCaseError> {
            const DELAYS: [u64; 7] = [0, 1, 63, 64, 65, 5_000, Cycle::MAX];
            const GAPS: [u64; 6] = [0, 1, 63, 64, 65, 10_000];
            let mut t = WarpTable::new(capacity);
            let mut now: Cycle = 20_000;
            for s in 0..capacity / 2 {
                t.alloc(KernelId::new(0), 0, s, 0, &fresh_progress(), now + u64::from(s), 0);
            }
            for &op in ops {
                let slot = (op >> 8) as u16 % capacity;
                let pick = (op >> 32) as usize;
                let at = match DELAYS[pick % 7] {
                    0 if pick & 8 == 0 => now - (op >> 40) % 100,
                    Cycle::MAX => Cycle::MAX,
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
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// A partial word (61 slots) and a full one (64: slot 63 is the
            /// top bit).
            #[test]
            fn ready_mask_equals_the_swept_column(
                ops in prop::collection::vec(any::<u64>(), 1..400),
            ) {
                ready_mask_tracks_the_column(61, &ops)?;
                ready_mask_tracks_the_column(64, &ops)?;
            }
        }

        #[test]
        fn time_running_backwards_rebuilds() {
            let mut t = WarpTable::new(8);
            let s = t.alloc(KernelId::new(0), 0, 0, 0, &fresh_progress(), 30, 0).unwrap();
            t.advance(40);
            assert!(t.wake.ready & bit(s) != 0);
            t.advance(10);
            assert!(t.wake.ready & bit(s) == 0, "not released yet at cycle 10");
            t.advance(30);
            assert!(t.wake.ready & bit(s) != 0, "the rebuild re-filed the hint");
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
            assert!(!back.wake.built, "a restored table builds its queue anew");
        }
    }
}
