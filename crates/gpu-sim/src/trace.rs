//! Epoch-granular telemetry: record per-kernel time series while any
//! controller runs.
//!
//! [`Tracer`] wraps an inner [`Controller`] and snapshots per-kernel IPC,
//! residency and quota state at every epoch — the data behind the paper's
//! time-behaviour arguments (§3.5's "a kernel can behave differently during
//! execution") and this repo's debugging examples.

use crate::gpu::{Controller, Gpu};

/// One kernel's state at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelSample {
    /// Thread-level IPC over the elapsed epoch.
    pub epoch_ipc: f64,
    /// TBs resident across all SMs.
    pub hosted_tbs: u32,
    /// Sum of quota counters across SMs (after the controller ran).
    pub quota_total: i64,
    /// Preempted TBs waiting in the pool.
    pub preempted: usize,
}

/// One epoch's record.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Simulation cycle at the boundary.
    pub cycle: u64,
    /// Per-kernel samples, indexed by kernel slot.
    pub kernels: Vec<KernelSample>,
    /// Cumulative TB context saves.
    pub preemption_saves: u64,
}

/// A stable 64-bit FNV-1a hash ([`crate::snap::fnv1a`]) over a full record
/// stream, each field a little-endian `u64`.
///
/// Every field is folded in bit-exactly (`f64` samples via `to_bits`), so
/// two runs hash equal iff their entire epoch telemetry is identical — the
/// determinism and differential tests compare runs through this.
pub fn records_hash(records: &[EpochRecord]) -> u64 {
    let mut stream = Vec::new();
    let mut fold = |v: u64| stream.extend_from_slice(&v.to_le_bytes());
    fold(records.len() as u64);
    for r in records {
        fold(r.epoch);
        fold(r.cycle);
        fold(r.preemption_saves);
        fold(r.kernels.len() as u64);
        for s in &r.kernels {
            fold(s.epoch_ipc.to_bits());
            fold(u64::from(s.hosted_tbs));
            fold(s.quota_total as u64);
            fold(s.preempted as u64);
        }
    }
    crate::snap::fnv1a(&stream)
}

/// A controller wrapper that records an [`EpochRecord`] per epoch.
#[derive(Debug)]
pub struct Tracer<C> {
    inner: C,
    records: Vec<EpochRecord>,
}

impl<C: Controller> Tracer<C> {
    /// Wraps `inner`, recording after each of its epoch callbacks.
    pub fn new(inner: C) -> Self {
        Tracer { inner, records: Vec::new() }
    }

    /// The recorded series so far.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Consumes the tracer, returning the inner controller and the records.
    pub fn into_parts(self) -> (C, Vec<EpochRecord>) {
        (self.inner, self.records)
    }

    /// Rebuilds a tracer from a controller and previously recorded epochs
    /// (the inverse of [`Tracer::into_parts`]; used when resuming a
    /// checkpointed run).
    pub fn from_parts(inner: C, records: Vec<EpochRecord>) -> Self {
        Tracer { inner, records }
    }
}

impl<C: Controller> Controller for Tracer<C> {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        self.inner.on_epoch(gpu, epoch);
        let snap = gpu.epoch_snapshot();
        let kernels = gpu
            .kernel_ids()
            .map(|k| KernelSample {
                epoch_ipc: snap.ipc(k),
                hosted_tbs: gpu.sms().iter().map(|sm| sm.hosted_tbs(k)).sum(),
                quota_total: gpu.sms().iter().map(|sm| sm.quota(k)).sum(),
                preempted: gpu.preempted_len(k),
            })
            .collect();
        self.records.push(EpochRecord {
            epoch,
            cycle: gpu.cycle(),
            kernels,
            preemption_saves: gpu.preempt_stats().saves,
        });
    }
}

crate::impl_snap_struct!(KernelSample { epoch_ipc, hosted_tbs, quota_total, preempted });

crate::impl_snap_struct!(EpochRecord { epoch, cycle, kernels, preemption_saves });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::gpu::NullController;
    use crate::kernel::{KernelDesc, Op};

    fn kernel() -> KernelDesc {
        KernelDesc::builder("t")
            .threads_per_tb(128)
            .grid_tbs(64)
            .iterations(16)
            .body(vec![Op::alu(2, 8)])
            .build()
    }

    #[test]
    fn records_one_entry_per_epoch() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let k = gpu.launch(kernel());
        let mut tracer = Tracer::new(NullController);
        gpu.run(5_000, &mut tracer); // tiny epoch = 1000 cycles -> 5 epochs
        assert_eq!(tracer.records().len(), 5);
        assert_eq!(tracer.records()[0].epoch, 0);
        let samples: Vec<&KernelSample> =
            tracer.records().iter().map(|r| &r.kernels[k.index()]).collect();
        assert!(samples[1].epoch_ipc > 0.0, "the kernel progresses after warm-up");
        assert!(samples.iter().skip(1).all(|s| s.hosted_tbs > 0));
    }

    #[test]
    fn records_hash_fold_order_is_pinned() {
        // The fold order (len, then per record epoch/cycle/saves/kernel-count,
        // then per sample ipc-bits/tbs/quota/preempted) is load-bearing: the
        // golden corpus, checkpoint journals and sweep reports all embed this
        // hash. If this hardcoded value changes, the hash function changed —
        // bless the golden corpus and say so loudly in the changelog.
        let records = vec![
            EpochRecord {
                epoch: 0,
                cycle: 1_000,
                kernels: vec![
                    KernelSample { epoch_ipc: 1.5, hosted_tbs: 4, quota_total: -32, preempted: 1 },
                    KernelSample { epoch_ipc: 0.0, hosted_tbs: 0, quota_total: 0, preempted: 0 },
                ],
                preemption_saves: 2,
            },
            EpochRecord {
                epoch: 1,
                cycle: 2_000,
                kernels: vec![KernelSample {
                    epoch_ipc: 2.25,
                    hosted_tbs: 7,
                    quota_total: 640,
                    preempted: 0,
                }],
                preemption_saves: 2,
            },
        ];
        assert_eq!(records_hash(&records), 0x00e1_7c1e_fa31_1de9);
        assert_eq!(records_hash(&[]), 0xa8c7_f832_281a_39c5, "empty-stream hash pinned too");
    }

    #[test]
    fn into_parts_round_trips() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(kernel());
        let mut tracer = Tracer::new(NullController);
        gpu.run(2_000, &mut tracer);
        let (_inner, records) = tracer.into_parts();
        assert_eq!(records.len(), 2);
        assert!(records[1].cycle >= 1_000);
    }
}
