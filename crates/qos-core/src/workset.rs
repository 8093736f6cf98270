//! Working-set estimation from observed kernel memory footprints.
//!
//! The fleet layer admits and places tenants by **measured** device-memory
//! demand, not by their declared reservations: every time a request's kernel
//! retires, the device's unified counter registry (DESIGN.md §12) yields the
//! kernel's DRAM traffic, and [`kernel_footprint_bytes`] converts it into a
//! footprint sample — distinct cache lines brought on chip, `dram_accesses ×
//! line_bytes`. [`WorkingSetTracker`] folds those samples into a per-tenant
//! exponential moving average that starts at the tenant's declared
//! `mem_bytes` (the only information available before the first completion)
//! and thereafter tracks what the tenant's kernels actually touch.
//!
//! Everything is integer arithmetic so fleet snapshots and resumed runs stay
//! bit-identical.

use gpu_sim::observe::{CounterEntry, CounterScope};

/// Footprint sample for kernel slot `kernel` out of a device counter
/// registry: DRAM-line fills × line size, a proxy for the distinct lines the
/// kernel touched. Returns `None` when the registry has no
/// `dram_accesses` row for that slot (e.g. the slot was never launched).
pub fn kernel_footprint_bytes(
    registry: &[CounterEntry],
    kernel: usize,
    line_bytes: u32,
) -> Option<u64> {
    registry
        .iter()
        .find(|e| e.name == "dram_accesses" && e.scope == CounterScope::Kernel(kernel))
        .map(|e| (e.value.max(0) as u64).saturating_mul(u64::from(line_bytes)))
}

/// Integer exponential moving average of a tenant's device-memory working
/// set, in bytes.
///
/// The estimate starts at the tenant's declared reservation and moves a
/// quarter of the way toward each new sample (`est' = (3·est + sample) / 4`)
/// — heavy enough smoothing that one anomalous kernel instance cannot swing
/// admission, light enough that a mis-declared tenant converges within a few
/// completions. A floor of one cache line keeps a tenant whose kernels hit
/// entirely in cache from estimating to zero and being packed infinitely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkingSetTracker {
    estimate_bytes: u64,
    floor_bytes: u64,
    samples: u64,
}

// The floor is the fleet's configuration: `adopt` takes it from the receiver.
gpu_sim::impl_snap_struct!(WorkingSetTracker { estimate_bytes, samples } skip { floor_bytes });

impl WorkingSetTracker {
    /// A tracker seeded with the tenant's declared reservation.
    pub fn new(declared_bytes: u64, floor_bytes: u64) -> Self {
        WorkingSetTracker {
            estimate_bytes: declared_bytes.max(floor_bytes),
            floor_bytes,
            samples: 0,
        }
    }

    /// Folds one footprint sample into the estimate.
    pub fn observe(&mut self, sample_bytes: u64) {
        self.samples += 1;
        let blended = (3 * self.estimate_bytes + sample_bytes) / 4;
        self.estimate_bytes = blended.max(self.floor_bytes);
    }

    /// Current working-set estimate in bytes.
    pub fn estimate(&self) -> u64 {
        self.estimate_bytes
    }

    /// Makes this decoded tracker stand in for `built`, the one
    /// [`WorkingSetTracker::new`] made for the same tenant: takes its floor,
    /// which the wire does not carry.
    pub fn adopt(&mut self, built: &WorkingSetTracker) {
        self.floor_bytes = built.floor_bytes;
    }

    /// Number of samples folded in so far (0 ⇒ the estimate is still the
    /// declared reservation).
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::observe::CounterKind;

    fn entry(name: &'static str, scope: CounterScope, value: i64) -> CounterEntry {
        CounterEntry { name, scope, kind: CounterKind::Counter, value }
    }

    #[test]
    fn footprint_reads_the_right_kernel_row() {
        let registry = vec![
            entry("dram_accesses", CounterScope::Machine, 999),
            entry("l2_accesses", CounterScope::Kernel(0), 500),
            entry("dram_accesses", CounterScope::Kernel(0), 100),
            entry("dram_accesses", CounterScope::Kernel(1), 7),
        ];
        assert_eq!(kernel_footprint_bytes(&registry, 0, 32), Some(3_200));
        assert_eq!(kernel_footprint_bytes(&registry, 1, 32), Some(224));
        assert_eq!(kernel_footprint_bytes(&registry, 2, 32), None);
    }

    #[test]
    fn tracker_converges_toward_samples_and_respects_floor() {
        let mut ws = WorkingSetTracker::new(1 << 20, 32);
        assert_eq!(ws.estimate(), 1 << 20);
        for _ in 0..40 {
            ws.observe(4_096);
        }
        assert!(ws.estimate() < 8 * 1024, "EWMA must converge: {}", ws.estimate());
        assert!(ws.estimate() >= 4_096 || ws.estimate() >= 32);
        assert_eq!(ws.samples(), 40);

        let mut tiny = WorkingSetTracker::new(0, 32);
        tiny.observe(0);
        assert_eq!(tiny.estimate(), 32, "floor keeps cache-resident tenants nonzero");
    }

    #[test]
    fn tracker_snap_round_trips() {
        let mut ws = WorkingSetTracker::new(12_345, 64);
        ws.observe(777);
        ws.observe(100_000);
        let bytes = gpu_sim::snap::encode_to_vec(&ws);
        let mut r = gpu_sim::snap::SnapReader::new(&bytes);
        let mut back = <WorkingSetTracker as gpu_sim::Snap>::decode(&mut r).expect("round trip");
        back.adopt(&WorkingSetTracker::new(12_345, 64));
        assert_eq!(back, ws);
    }
}
