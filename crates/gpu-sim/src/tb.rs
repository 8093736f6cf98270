//! Per-thread-block residency state, arena-allocated per SM.

use crate::sm::{bit, SlotColumn, SlotMask, Vacant};
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

/// A freed TB slot reads `Active`: the canonical phase a fresh slab holds.
impl Vacant for TbPhase {
    const VACANT: Self = TbPhase::Active;
}

/// Slab of thread-block bookkeeping, indexed by TB slot id.
///
/// Struct-of-arrays layout: each scalar field is an inline `SlotColumn`
/// of `max_tbs` entries in use, one per slot (an SM hosts at most 64 TBs,
/// so none needs the heap), plus a one-word `occupied` bitmask and an
/// explicit free-slot stack. The per-slot `warp_slots` vecs are retained
/// (only `.clear()`ed) when a slot is released, so steady-state dispatch
/// allocates nothing.
///
/// Freed slots are reset to canonical values (kernel 0, index 0, empty warp
/// list, `Active` phase) so that two machines reaching the same architectural
/// state through different dispatch histories encode identical snapshots.
#[derive(Debug)]
pub struct TbSlab {
    /// Owning kernel per slot.
    pub(crate) kernel: SlotColumn<KernelId>,
    /// Grid-wide TB index per slot.
    pub(crate) tb_index: SlotColumn<TbIndex>,
    /// Warp slot indices (into the SM's warp table) belonging to each TB.
    pub(crate) warp_slots: Vec<Vec<u16>>,
    /// Number of warps that have retired, per slot.
    pub(crate) warps_done: SlotColumn<u16>,
    /// Number of warps currently parked at the active barrier, per slot.
    pub(crate) barrier_arrived: SlotColumn<u16>,
    /// Current lifecycle phase per slot.
    pub(crate) phase: SlotColumn<TbPhase>,
    /// Occupancy bitmask (bit = slot).
    pub(crate) occupied: SlotMask,
    /// Free-slot stack; built in reverse so slot 0 pops first, matching the
    /// dispatch order of the previous per-slot `Option` layout.
    pub(crate) free: Vec<u16>,
}

impl TbSlab {
    /// Creates an empty slab with `max_tbs` slots, at most 64.
    pub fn new(max_tbs: u16) -> Self {
        let n = usize::from(max_tbs);
        assert!(n <= crate::sm::MAX_SLOTS, "an SM hosts at most 64 TBs, not {n}");
        TbSlab {
            kernel: SlotColumn::new(n),
            tb_index: SlotColumn::new(n),
            warp_slots: vec![Vec::new(); n],
            warps_done: SlotColumn::new(n),
            barrier_arrived: SlotColumn::new(n),
            phase: SlotColumn::new(n),
            occupied: SlotMask::default(),
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
        self.occupied.0 & bit(slot) != 0
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
        self.occupied.0 |= bit(slot);
        Some(slot)
    }

    /// Releases `slot` back to the free stack, resetting every field to its
    /// canonical cleared value. The `warp_slots` vec keeps its capacity.
    pub fn release(&mut self, slot: u16) {
        let i = usize::from(slot);
        debug_assert!(self.is_occupied(slot));
        self.kernel.vacate(i);
        self.tb_index.vacate(i);
        self.warp_slots[i].clear();
        self.warps_done.vacate(i);
        self.barrier_arrived.vacate(i);
        self.phase.vacate(i);
        self.occupied.0 &= !bit(slot);
        self.free.push(slot);
    }

    /// Whether all warps of the TB in `slot` have retired.
    pub fn finished(&self, slot: u16) -> bool {
        let i = usize::from(slot);
        usize::from(self.warps_done[i]) == self.warp_slots[i].len()
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
        crate::sm::slots(self.occupied.0).map(|slot| slot as u16)
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
    #[should_panic(expected = "at most 64 TBs")]
    fn a_slab_refuses_a_65th_slot() {
        TbSlab::new(65);
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
