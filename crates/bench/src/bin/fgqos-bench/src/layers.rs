//! Per-layer numbers that come from the layers themselves: the counters a
//! machine's registry exports, the digest that pins every simulated
//! statistic, and the standalone drives that price one memory-system
//! operation from outside.

use std::hint::black_box;

use gpu_sim::cache::Cache;
use gpu_sim::dram::ServiceQueue;
use gpu_sim::memsys::MemSystem;
use gpu_sim::rng::SplitMix64;
use gpu_sim::{CounterEntry, CounterScope, Gpu, KernelId, MemConfig};

use crate::calib::{Calibrator, SliceClock};

/// Named per-layer values produced by one pass or drive.
pub type Counts = Vec<(&'static str, f64)>;

/// The value `counts` holds under `name`; 0 when it holds none.
pub fn value_of(counts: &Counts, name: &str) -> f64 {
    counts.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v)
}

/// FNV-1a over 64-bit words: the digest that must repeat between passes.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a whole counter registry: every value of every scope, in the
    /// registry's stable order.
    pub fn registry(&mut self, entries: &[CounterEntry]) {
        for e in entries {
            self.bytes(e.name.as_bytes());
            self.word(e.value as u64);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The low 48 bits of a digest: exactly representable as a JSON number.
pub fn digest48(digest: u64) -> f64 {
    (digest & 0xFFFF_FFFF_FFFF) as f64
}

/// Index of one machine-wide sum inside [`GpuCounters`].
#[derive(Debug, Clone, Copy)]
enum C {
    Cycles,
    Skipped,
    WarpInsts,
    IssueSlots,
    Issued,
    BusyCycles,
    QuotaBlocked,
    QuotaExhaustions,
    ScoreboardWaits,
    L1Accesses,
    L1Hits,
    L1Misses,
    L2Accesses,
    L2Hits,
    L2Misses,
    DramAccesses,
    L2Wait,
    DramWait,
    PreemptSaves,
    PreemptResumes,
    PreemptTransfer,
    /// A high-water mark, not a sum: kept as read by `since`, merged with
    /// `max` by `add`.
    DramPeakWait,
}

const COUNTERS: usize = C::DramPeakWait as usize + 1;

/// The machine-wide sums of one [`Gpu::counter_registry`] reading.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuCounters([u64; COUNTERS]);

impl GpuCounters {
    pub fn read(gpu: &Gpu) -> Self {
        let mut c = GpuCounters::default();
        for e in gpu.counter_registry() {
            let v = e.value.max(0) as u64;
            let slot = match (e.scope, e.name) {
                (CounterScope::Machine, "cycle") => C::Cycles,
                (CounterScope::Machine, "ff_skipped_cycles") => C::Skipped,
                (CounterScope::Machine, "preempt_saves") => C::PreemptSaves,
                (CounterScope::Machine, "preempt_resumes") => C::PreemptResumes,
                (CounterScope::Machine, "preempt_transfer_cycles") => C::PreemptTransfer,
                (CounterScope::Machine, "l2_hits") => C::L2Hits,
                (CounterScope::Machine, "l2_misses") => C::L2Misses,
                (CounterScope::Kernel(_), "warp_insts") => C::WarpInsts,
                (CounterScope::Kernel(_), "quota_blocked_cycles") => C::QuotaBlocked,
                (CounterScope::Kernel(_), "quota_exhaustions") => C::QuotaExhaustions,
                (CounterScope::Kernel(_), "scoreboard_wait_samples") => C::ScoreboardWaits,
                (CounterScope::Kernel(_), "l1_accesses") => C::L1Accesses,
                (CounterScope::Kernel(_), "l2_accesses") => C::L2Accesses,
                (CounterScope::Kernel(_), "dram_accesses") => C::DramAccesses,
                (CounterScope::Sm(_), "busy_cycles") => C::BusyCycles,
                (CounterScope::Sm(_), "issue_slots") => C::IssueSlots,
                (CounterScope::Sm(_), "issued_total") => C::Issued,
                (CounterScope::Sm(_), "l1_hits") => C::L1Hits,
                (CounterScope::Sm(_), "l1_misses") => C::L1Misses,
                (CounterScope::Channel(_), "l2_total_wait") => C::L2Wait,
                (CounterScope::Channel(_), "dram_total_wait") => C::DramWait,
                (CounterScope::Channel(_), "dram_peak_wait") => {
                    c.0[C::DramPeakWait as usize] = c.get(C::DramPeakWait).max(v);
                    continue;
                }
                _ => continue,
            };
            c.0[slot as usize] += v;
        }
        c
    }

    fn get(&self, c: C) -> u64 {
        self.0[c as usize]
    }

    /// What accumulated after `base` was read from the same machine.
    pub fn since(&self, base: &GpuCounters) -> GpuCounters {
        let mut out = *self;
        for (o, b) in out.0.iter_mut().zip(base.0).take(C::DramPeakWait as usize) {
            *o -= b;
        }
        out
    }

    /// Sums another machine's counters into this one (a sweep's cases).
    pub fn add(&mut self, other: &GpuCounters) {
        let peak = self.get(C::DramPeakWait).max(other.get(C::DramPeakWait));
        for (s, o) in self.0.iter_mut().zip(other.0) {
            *s += o;
        }
        self.0[C::DramPeakWait as usize] = peak;
    }

    pub fn ticks_executed(&self) -> u64 {
        self.get(C::Cycles) - self.get(C::Skipped)
    }

    pub fn warp_insts(&self) -> u64 {
        self.get(C::WarpInsts)
    }

    /// The exact per-layer metrics these counters carry.
    pub fn metrics(&self) -> Counts {
        let n = |c: C| self.get(c) as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        vec![
            ("gpu.ticks_executed", self.ticks_executed() as f64),
            ("gpu.ff_skipped_frac", ratio(n(C::Skipped), n(C::Cycles))),
            ("sm.warp_insts", n(C::WarpInsts)),
            ("sm.issue_slots", n(C::IssueSlots)),
            ("sm.issue_util", ratio(n(C::Issued), n(C::IssueSlots))),
            ("sm.busy_cycles", n(C::BusyCycles)),
            ("sm.quota_blocked_cycles", n(C::QuotaBlocked)),
            ("sm.scoreboard_wait_samples", n(C::ScoreboardWaits)),
            ("memsys.l1_accesses", n(C::L1Accesses)),
            ("memsys.l1_hit_rate", ratio(n(C::L1Hits), n(C::L1Hits) + n(C::L1Misses))),
            ("memsys.l2_accesses", n(C::L2Accesses)),
            ("memsys.l2_hit_rate", ratio(n(C::L2Hits), n(C::L2Hits) + n(C::L2Misses))),
            ("memsys.dram_accesses", n(C::DramAccesses)),
            ("memsys.l2_wait_cycles", n(C::L2Wait)),
            ("memsys.dram_wait_cycles", n(C::DramWait)),
            ("memsys.dram_peak_wait_cycles", n(C::DramPeakWait)),
            ("tb_sched.preempt_saves", n(C::PreemptSaves)),
            ("tb_sched.preempt_resumes", n(C::PreemptResumes)),
            ("tb_sched.preempt_transfer_cycles", n(C::PreemptTransfer)),
            ("qos_core.quota_exhaustions", n(C::QuotaExhaustions)),
        ]
    }

    /// Share of `run_s` the memory system is estimated to take: every line
    /// the run sent through L1, L2 and DRAM, priced at the unit costs the
    /// standalone `drives` measured.
    pub fn memsys_host_share(&self, drives: &Counts, run_s: f64) -> f64 {
        if run_s <= 0.0 {
            return 0.0;
        }
        let cost = |c: C, drive: &str| self.get(c) as f64 * value_of(drives, drive) * 1e-9;
        (cost(C::L1Hits, "cache.access_ns.hit")
            + cost(C::L1Misses, "cache.access_ns.miss")
            + cost(C::L2Hits, "memsys.serve_ns_per_line.l2hit")
            + cost(C::DramAccesses, "memsys.serve_ns_per_line.dram"))
            / run_s
    }
}

/// Lines each standalone drive pushes through its component.
const DRIVE_LINES: usize = 1_000_000;

/// Bursts on each side of a drive, which is a single slice.
const DRIVE_BURSTS: u32 = 4;

/// Reference-host nanoseconds per operation of `f`, which performs `ops`.
fn ns_per_op(cal: &mut Calibrator, ops: usize, f: impl FnOnce()) -> f64 {
    let mut clock = SliceClock::start(cal, DRIVE_BURSTS);
    clock.slice(f);
    clock.finish().norm_s * 1e9 / ops as f64
}

/// Prices one operation of each memory-system component by driving it alone
/// with seeded addresses: an L2-hit and a DRAM line through
/// [`MemSystem::serve`], an L1-sized [`Cache::access`] hit and miss, and one
/// [`ServiceQueue::serve`]. `lines` is [`DRIVE_LINES`] except in quick runs.
pub fn standalone_drives(seed: u64, quick: bool, cal: &mut Calibrator) -> Counts {
    let lines = if quick { DRIVE_LINES / 10 } else { DRIVE_LINES };
    let cfg = MemConfig::default();
    let line = u64::from(cfg.line_bytes);
    let mut rng = SplitMix64::new(seed ^ 0xD21E);
    let k = KernelId::new(0);

    // A footprint of a quarter of the L2 stays resident once touched; one of
    // 64x the L2 misses on nearly every random line.
    let l2_total = cfg.l2_bytes * u64::from(cfg.num_mcs);
    let addrs = |rng: &mut SplitMix64, footprint: u64| -> Vec<u64> {
        (0..lines).map(|_| rng.next_below(footprint / line) * line).collect()
    };
    let resident = addrs(&mut rng, l2_total / 4);
    let streaming = addrs(&mut rng, l2_total * 64);

    let mut mem = MemSystem::new(cfg.clone());
    for chunk in resident.chunks(4) {
        black_box(mem.serve(k, chunk, chunk.len() as u64, 0));
    }
    let serve = |mem: &mut MemSystem, addrs: &[u64]| {
        for (i, chunk) in addrs.chunks(4).enumerate() {
            black_box(mem.serve(k, black_box(chunk), chunk.len() as u64, i as u64 * 8));
        }
    };
    let l2hit = ns_per_op(cal, lines, || serve(&mut mem, &resident));
    let dram = ns_per_op(cal, lines, || serve(&mut mem, &streaming));

    let mut l1 = Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
    let l1_resident = addrs(&mut rng, cfg.l1_bytes / 2);
    let access = |c: &mut Cache, addrs: &[u64]| {
        for &a in addrs {
            black_box(c.access(black_box(a)));
        }
    };
    access(&mut l1, &l1_resident);
    let hit = ns_per_op(cal, lines, || access(&mut l1, &l1_resident));
    let miss = ns_per_op(cal, lines, || access(&mut l1, &streaming));

    let mut queue = ServiceQueue::new(cfg.dram_service_cycles, cfg.max_queue_backlog);
    let queue_ns = ns_per_op(cal, lines, || {
        for i in 0..lines {
            black_box(queue.serve(black_box(i as u64 * 2)));
        }
    });

    vec![
        ("memsys.serve_ns_per_line.l2hit", l2hit),
        ("memsys.serve_ns_per_line.dram", dram),
        ("cache.access_ns.hit", hit),
        ("cache.access_ns.miss", miss),
        ("dram.queue_serve_ns", queue_ns),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, NullController};

    #[test]
    fn counters_read_subtract_and_sum() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(::workloads::by_name("lbm").expect("known"));
        gpu.run(2_000, &mut NullController);
        let base = GpuCounters::read(&gpu);
        gpu.run(3_000, &mut NullController);
        let end = GpuCounters::read(&gpu);
        let delta = end.since(&base);
        assert_eq!(delta.get(C::Cycles), 3_000);
        assert!(delta.warp_insts() > 0 && delta.warp_insts() < end.warp_insts());
        assert_eq!(delta.get(C::L1Hits) + delta.get(C::L1Misses), delta.get(C::L1Accesses));
        let mut twice = delta;
        twice.add(&delta);
        assert_eq!(twice.warp_insts(), 2 * delta.warp_insts());
        assert_eq!(twice.get(C::DramPeakWait), delta.get(C::DramPeakWait));
        let m = delta.metrics();
        assert!(m.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let mut a = Digest::new();
        a.word(1);
        a.word(2);
        let mut b = Digest::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
        assert!(digest48(u64::MAX) < 2f64.powi(48));
    }

    #[test]
    fn standalone_drives_price_every_component() {
        let d = standalone_drives(7, true, &mut Calibrator::new(false));
        assert_eq!(d.len(), 5);
        assert!(d.iter().all(|(_, ns)| *ns > 0.0 && ns.is_finite()));
    }
}
