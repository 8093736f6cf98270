//! Per-thread-block residency state, arena-allocated per SM.

use crate::types::{Cycle, KernelId, TbIndex};

/// Lifecycle phase of a resident thread block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbPhase {
    /// Context is being loaded (fresh dispatch or resume after preemption);
    /// warps may not issue until the given cycle.
    Loading(Cycle),
    /// Normal execution.
    Active,
    /// Context is being saved for preemption; warps are frozen and the slot
    /// is released at the given cycle.
    Saving(Cycle),
}

/// Slab of thread-block bookkeeping, indexed by TB slot id.
///
/// Struct-of-arrays layout: each field is a flat vec of `max_tbs` entries,
/// one per slot, plus a packed `occupied` bitmask and an explicit free-slot
/// stack. The per-slot `warp_slots` vecs are retained (only `.clear()`ed)
/// when a slot is released, so steady-state dispatch allocates nothing.
///
/// Freed slots are reset to canonical values (kernel 0, index 0, empty warp
/// list, `Active` phase) so that two machines reaching the same architectural
/// state through different dispatch histories encode identical snapshots.
#[derive(Debug)]
pub struct TbSlab {
    /// Owning kernel per slot.
    pub(crate) kernel: Vec<KernelId>,
    /// Grid-wide TB index per slot.
    pub(crate) tb_index: Vec<TbIndex>,
    /// Warp slot indices (into the SM's warp table) belonging to each TB.
    pub(crate) warp_slots: Vec<Vec<u16>>,
    /// Number of warps that have retired, per slot.
    pub(crate) warps_done: Vec<u16>,
    /// Number of warps currently parked at the active barrier, per slot.
    pub(crate) barrier_arrived: Vec<u16>,
    /// Current lifecycle phase per slot.
    pub(crate) phase: Vec<TbPhase>,
    /// Packed occupancy bitmask (bit = slot).
    pub(crate) occupied: Vec<u64>,
    /// Free-slot stack; built in reverse so slot 0 pops first, matching the
    /// dispatch order of the previous per-slot `Option` layout.
    pub(crate) free: Vec<u16>,
}

impl TbSlab {
    /// Creates an empty slab with `max_tbs` slots.
    pub fn new(max_tbs: u16) -> Self {
        let n = usize::from(max_tbs);
        TbSlab {
            kernel: vec![KernelId::new(0); n],
            tb_index: vec![TbIndex(0); n],
            warp_slots: vec![Vec::new(); n],
            warps_done: vec![0; n],
            barrier_arrived: vec![0; n],
            phase: vec![TbPhase::Active; n],
            occupied: vec![0; n.div_ceil(64)],
            free: (0..max_tbs).rev().collect(),
        }
    }

    /// Number of slots in the slab.
    pub fn capacity(&self) -> usize {
        self.kernel.len()
    }

    /// Number of currently free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Whether `slot` currently hosts a TB.
    #[inline]
    pub fn is_occupied(&self, slot: u16) -> bool {
        self.occupied[usize::from(slot) / 64] >> (usize::from(slot) % 64) & 1 == 1
    }

    /// Claims a free slot for a freshly dispatched TB and initialises its
    /// bookkeeping (the caller then pushes warp slot ids into `warp_slots`).
    /// Returns `None` when the slab is full.
    pub fn alloc(
        &mut self,
        kernel: KernelId,
        tb_index: TbIndex,
        warps_done: u16,
        phase: TbPhase,
    ) -> Option<u16> {
        let slot = self.free.pop()?;
        let i = usize::from(slot);
        self.kernel[i] = kernel;
        self.tb_index[i] = tb_index;
        debug_assert!(self.warp_slots[i].is_empty());
        self.warps_done[i] = warps_done;
        self.barrier_arrived[i] = 0;
        self.phase[i] = phase;
        self.occupied[i / 64] |= 1 << (i % 64);
        Some(slot)
    }

    /// Releases `slot` back to the free stack, resetting every field to its
    /// canonical cleared value. The `warp_slots` vec keeps its capacity.
    pub fn release(&mut self, slot: u16) {
        let i = usize::from(slot);
        debug_assert!(self.is_occupied(slot));
        self.kernel[i] = KernelId::new(0);
        self.tb_index[i] = TbIndex(0);
        self.warp_slots[i].clear();
        self.warps_done[i] = 0;
        self.barrier_arrived[i] = 0;
        self.phase[i] = TbPhase::Active;
        self.occupied[i / 64] &= !(1 << (i % 64));
        self.free.push(slot);
    }

    /// Whether all warps of the TB in `slot` have retired.
    pub fn finished(&self, slot: u16) -> bool {
        let i = usize::from(slot);
        usize::from(self.warps_done[i]) == self.warp_slots[i].len()
    }

    /// Whether warps of the TB in `slot` may issue at `now`.
    pub fn issuable(&self, slot: u16, now: Cycle) -> bool {
        match self.phase[usize::from(slot)] {
            TbPhase::Active => true,
            TbPhase::Loading(until) => now >= until,
            TbPhase::Saving(_) => false,
        }
    }

    /// The cycle at which an in-flight context transition (load or save) of
    /// the TB in `slot` completes, if one is pending.
    pub fn transition_done_at(&self, slot: u16) -> Option<Cycle> {
        match self.phase[usize::from(slot)] {
            TbPhase::Active => None,
            TbPhase::Loading(until) | TbPhase::Saving(until) => Some(until),
        }
    }

    /// Iterates the slot ids of all occupied slots in increasing order.
    pub fn iter_occupied(&self) -> impl Iterator<Item = u16> + '_ {
        let words = self.occupied.iter().enumerate();
        words.flat_map(|(wi, &word)| crate::sm::slots(wi, word).map(|slot| slot as u16))
    }
}

crate::impl_snap_enum!(TbPhase { Loading(until) = 0, Active = 1, Saving(until) = 2 });

crate::impl_snap_struct!(TbSlab {
    kernel,
    tb_index,
    warp_slots,
    warps_done,
    barrier_arrived,
    phase,
    occupied,
    free,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::Snap;

    fn slab_with_one(phase: TbPhase) -> (TbSlab, u16) {
        let mut s = TbSlab::new(4);
        let slot = s.alloc(KernelId::new(0), TbIndex(3), 0, phase).unwrap();
        for w in 0..4 {
            s.warp_slots[usize::from(slot)].push(w);
        }
        (s, slot)
    }

    #[test]
    fn finished_requires_all_warps() {
        let (mut s, slot) = slab_with_one(TbPhase::Active);
        assert!(!s.finished(slot));
        s.warps_done[usize::from(slot)] = 4;
        assert!(s.finished(slot));
    }

    #[test]
    fn issuable_by_phase() {
        assert!(slab_with_one(TbPhase::Active).0.issuable(0, 0));
        assert!(!slab_with_one(TbPhase::Loading(10)).0.issuable(0, 9));
        assert!(slab_with_one(TbPhase::Loading(10)).0.issuable(0, 10));
        assert!(!slab_with_one(TbPhase::Saving(10)).0.issuable(0, 100));
    }

    #[test]
    fn alloc_pops_lowest_slot_first_and_release_recycles() {
        let mut s = TbSlab::new(3);
        let a = s.alloc(KernelId::new(0), TbIndex(0), 0, TbPhase::Active).unwrap();
        let b = s.alloc(KernelId::new(1), TbIndex(1), 0, TbPhase::Active).unwrap();
        assert_eq!((a, b), (0, 1), "slots are claimed in increasing order");
        assert!(s.is_occupied(a) && s.is_occupied(b) && !s.is_occupied(2));
        s.release(a);
        assert!(!s.is_occupied(a));
        let c = s.alloc(KernelId::new(2), TbIndex(2), 0, TbPhase::Active).unwrap();
        assert_eq!(c, a, "released slot is reused next");
        assert_eq!(s.iter_occupied().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn release_resets_slot_to_canonical_state() {
        let (mut s, slot) = slab_with_one(TbPhase::Loading(7));
        s.warps_done[usize::from(slot)] = 2;
        s.barrier_arrived[usize::from(slot)] = 1;
        s.release(slot);
        let fresh = TbSlab::new(4);
        let mut a = Vec::new();
        let mut b = Vec::new();
        s.encode(&mut a);
        fresh.encode(&mut b);
        assert_eq!(a, b, "released slab snapshots identically to a fresh one");
    }
}
