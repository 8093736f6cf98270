//! Placement: which idle device a queued request lands on.
//!
//! Each tick the fleet describes every idle healthy device as a
//! [`DeviceView`], in ascending device order, and asks the configured
//! [`Placement`] to [`choose`](Placement::choose) one for each eligible
//! queued request. A choice always fits the request, and ties go to the
//! lowest index, so placement is a pure function of the views.

use std::cmp::Reverse;

use crate::config::Placement;

/// One candidate device, as placement sees it this tick.
#[derive(Debug, Clone)]
pub struct DeviceView {
    /// Kernel slots still free on this device this tick.
    pub free_slots: usize,
    /// Device memory not yet claimed by working-set estimates, in bytes.
    pub free_mem_bytes: u64,
    /// Requests already assigned to this device this tick (0 ⇒ still idle).
    pub assigned: usize,
    /// Batches this device has started over its lifetime — a load/wear
    /// signal for [`Placement::LeastLoaded`].
    pub batches: u64,
}

impl Placement {
    /// The index into `devices` of the device that takes a request whose
    /// working set is `mem_bytes`, or `None` when no device has a free
    /// kernel slot and that much unclaimed memory.
    pub fn choose(&self, mem_bytes: u64, devices: &[DeviceView]) -> Option<usize> {
        let mut fits = devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.free_slots > 0 && d.free_mem_bytes >= mem_bytes);
        // `min_by_key` keeps the first of equal keys: the lowest index.
        let (index, _) = match self {
            Placement::Binpack => fits.next(),
            Placement::Spread => fits.min_by_key(|(_, d)| Reverse(d.free_slots)),
            Placement::LeastLoaded => fits.min_by_key(|(_, d)| (d.assigned, d.batches)),
        }?;
        Some(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(free_slots: usize, free_mem_bytes: u64, assigned: usize, batches: u64) -> DeviceView {
        DeviceView { free_slots, free_mem_bytes, assigned, batches }
    }

    fn views() -> Vec<DeviceView> {
        vec![view(1, 1 << 20, 3, 10), view(4, 1 << 30, 0, 2), view(4, 1 << 30, 0, 1)]
    }

    #[test]
    fn builtins_pick_by_their_own_criterion() {
        let v = views();
        assert_eq!(Placement::Binpack.choose(64, &v), Some(0), "binpack fills device 0 first");
        assert_eq!(
            Placement::Binpack.choose(2 << 20, &v),
            Some(1),
            "binpack skips devices without memory"
        );
        assert_eq!(Placement::Spread.choose(64, &v), Some(1), "spread wants most free slots");
        assert_eq!(
            Placement::LeastLoaded.choose(64, &v),
            Some(2),
            "least-loaded breaks the tie toward the coldest device"
        );
        assert_eq!(Placement::Spread.choose(u64::MAX, &v), None, "nothing fits");
        let tied = [view(2, 1 << 30, 1, 5), view(2, 1 << 30, 1, 5), view(2, 1 << 30, 1, 5)];
        assert_eq!(
            Placement::LeastLoaded.choose(64, &tied),
            Some(0),
            "a full least-loaded tie goes to the lowest index"
        );
        let apart = [view(4, 1 << 30, 0, 0), view(1, 1 << 30, 0, 0), view(4, 1 << 30, 0, 0)];
        assert_eq!(
            Placement::Spread.choose(64, &apart),
            Some(0),
            "a spread tie between non-adjacent devices goes to the lower index"
        );
    }
}
