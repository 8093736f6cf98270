//! Strongly-typed identifiers and basic quantities used across the simulator.

use std::fmt;

/// A simulation cycle count / timestamp.
pub type Cycle = u64;

/// A global memory byte address in the simulated device address space.
pub type Addr = u64;

/// Identifier of a resident kernel, dense in `0..MAX_KERNELS`.
///
/// `KernelId` indexes per-kernel arrays in hot paths, so it is a thin wrapper
/// over a small integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KernelId(pub(crate) u8);

impl KernelId {
    /// Creates a kernel id from a raw slot index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= crate::MAX_KERNELS`.
    pub fn new(idx: usize) -> Self {
        assert!(idx < crate::MAX_KERNELS, "kernel slot {idx} out of range");
        KernelId(idx as u8)
    }

    /// Returns the dense slot index of this kernel.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "K{}", self.0)
    }
}

/// Identifier of a streaming multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmId(pub(crate) u16);

impl SmId {
    /// Creates an SM id from an index.
    pub fn new(idx: usize) -> Self {
        SmId(idx as u16)
    }

    /// Returns the index of this SM.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

/// Index of a thread block within its kernel's grid (restarts keep counting up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TbIndex(pub u32);

impl fmt::Display for TbIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TB{}", self.0)
    }
}

crate::impl_snap_struct!(SmId { 0 });

crate::impl_snap_struct!(TbIndex { 0 });

/// A per-kernel array sized for the maximum number of resident kernels.
///
/// Hot per-kernel state (quota counters, instruction tallies) lives in these
/// fixed arrays so the per-cycle issue loop performs no hashing or bounds
/// churn beyond a constant-size array index.
pub type PerKernel<T> = [T; crate::MAX_KERNELS];

/// Builds a `PerKernel` array by calling `f` for each slot.
pub fn per_kernel<T, F: FnMut(usize) -> T>(f: F) -> PerKernel<T> {
    std::array::from_fn(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_id_round_trips() {
        let k = KernelId::new(2);
        assert_eq!(k.index(), 2);
        assert_eq!(k.to_string(), "K2");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kernel_id_rejects_out_of_range() {
        let _ = KernelId::new(crate::MAX_KERNELS);
    }

    #[test]
    fn sm_id_round_trips() {
        let s = SmId::new(15);
        assert_eq!(s.index(), 15);
        assert_eq!(s.to_string(), "SM15");
    }

    #[test]
    fn per_kernel_builder_fills_all_slots() {
        let arr: PerKernel<usize> = per_kernel(|i| i * 10);
        assert_eq!(arr[0], 0);
        assert_eq!(arr[crate::MAX_KERNELS - 1], (crate::MAX_KERNELS - 1) * 10);
    }
}
