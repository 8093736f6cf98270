//! The shared memory system: crossbar, per-MC L2 slices and DRAM channels.
//!
//! Every SM shares it (DESIGN.md §13). A warp's global-memory instruction
//! is served by [`MemSystem::serve`] as the warp issues: the calls come in
//! SM-index order, then scheduler issue order within an SM, and the
//! returned completion cycle — when the slowest transaction finishes and
//! the warp becomes ready again — is written into the warp's scoreboard.
//! The crossbar is a latency inside `serve`. Per-kernel traffic counters
//! feed the power model and the harness reports.

use crate::cache::{AccessOutcome, Cache};
use crate::config::{
    MemConfig, DRAM_LATENCY, L1_HIT_LATENCY, L2_HIT_LATENCY, L2_SERVICE_CYCLES, L2_WAYS,
    XBAR_LATENCY,
};
use crate::dram::ServiceQueue;
use crate::types::{checked_sum, per_kernel, Addr, Cycle, KernelId, PerKernel};

/// Per-kernel memory traffic counters (in transactions).
#[derive(Debug, Clone)]
pub struct MemTraffic {
    /// L1 accesses (every global transaction).
    pub l1_accesses: PerKernel<u64>,
    /// L2 accesses (L1 misses).
    pub l2_accesses: PerKernel<u64>,
    /// DRAM accesses (L2 misses).
    pub dram_accesses: PerKernel<u64>,
    /// Context save/restore transactions caused by preempting this kernel.
    pub context_transactions: PerKernel<u64>,
}

impl Default for MemTraffic {
    fn default() -> Self {
        MemTraffic {
            l1_accesses: per_kernel(|_| 0),
            l2_accesses: per_kernel(|_| 0),
            dram_accesses: per_kernel(|_| 0),
            context_transactions: per_kernel(|_| 0),
        }
    }
}

/// The GPU-wide shared memory hierarchy below the per-SM L1s.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    l2: Vec<Cache>,
    l2_queue: Vec<ServiceQueue>,
    dram_queue: Vec<ServiceQueue>,
    traffic: MemTraffic,
    context_rr: usize,
}

impl MemSystem {
    /// Builds the memory system from its configuration.
    pub fn new(cfg: MemConfig) -> Self {
        let n = cfg.num_mcs as usize;
        MemSystem {
            l2: (0..n).map(|_| Cache::new(cfg.l2_bytes, L2_WAYS, cfg.line_bytes)).collect(),
            l2_queue: (0..n)
                .map(|_| ServiceQueue::new(L2_SERVICE_CYCLES, cfg.max_queue_backlog))
                .collect(),
            dram_queue: (0..n)
                .map(|_| ServiceQueue::new(cfg.dram_service_cycles, cfg.max_queue_backlog))
                .collect(),
            traffic: MemTraffic::default(),
            context_rr: 0,
            cfg,
        }
    }

    /// Memory configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Maps a line address to its memory controller.
    #[inline]
    pub fn mc_for(&self, addr: Addr) -> usize {
        let block = addr >> self.cfg.line_bytes.trailing_zeros();
        let n = u64::from(self.cfg.num_mcs);
        // Same mapping either way; the mask spares the hot miss path a
        // 64-bit division by a runtime value.
        (if n.is_power_of_two() { block & (n - 1) } else { block % n }) as usize
    }

    /// Serves one warp memory instruction: `miss_lines` are the line
    /// addresses that already missed the issuing SM's private L1,
    /// `total_lines` the coalesced transaction count before filtering (L1
    /// accounting lives here so the whole traffic ledger is in one place).
    /// Each miss crosses the crossbar ([`XBAR_LATENCY`]) both ways. Returns
    /// the completion cycle of the slowest transaction.
    ///
    /// This is the only entry point for SM-issued traffic; an SM calls it
    /// from `Sm::tick` as the warp issues (DESIGN.md §13).
    pub fn serve(
        &mut self,
        kernel: KernelId,
        miss_lines: &[Addr],
        total_lines: u64,
        now: Cycle,
    ) -> Cycle {
        let k = kernel.index();
        let mut done = now + Cycle::from(L1_HIT_LATENCY);
        self.traffic.l1_accesses[k] += total_lines;
        for &addr in miss_lines {
            self.traffic.l2_accesses[k] += 1;
            let mc = self.mc_for(addr);
            let at_l2 = now + Cycle::from(L1_HIT_LATENCY + XBAR_LATENCY);
            let l2_served = self.l2_queue[mc].serve(at_l2);
            let filled = match self.l2[mc].access(addr) {
                AccessOutcome::Hit => l2_served + Cycle::from(L2_HIT_LATENCY),
                AccessOutcome::Miss => {
                    self.traffic.dram_accesses[k] += 1;
                    self.dram_queue[mc].serve(l2_served + Cycle::from(L2_HIT_LATENCY))
                        + Cycle::from(DRAM_LATENCY)
                }
            };
            done = done.max(filled + Cycle::from(XBAR_LATENCY));
        }
        done
    }

    /// Injects context save/restore traffic for a preemption of `kernel`:
    /// `bytes` of register/shared-memory state written to (or read from)
    /// device memory. Consumes DRAM bandwidth round-robin across channels
    /// and returns when the last transaction completes.
    pub fn inject_context_traffic(&mut self, kernel: KernelId, bytes: u64, now: Cycle) -> Cycle {
        let lines = bytes.div_ceil(u64::from(self.cfg.line_bytes));
        self.traffic.context_transactions[kernel.index()] += lines;
        let mut done = now;
        for _ in 0..lines {
            let mc = self.context_rr;
            self.context_rr = (self.context_rr + 1) % self.dram_queue.len();
            done = done.max(self.dram_queue[mc].serve(now) + Cycle::from(DRAM_LATENCY));
        }
        done
    }

    /// Makes this decoded memory system stand in for `built`, the one
    /// `Gpu::new` made: takes the configuration and every queue's and
    /// slice's fixed parameters ([`ServiceQueue::adopt`], [`Cache::adopt`]),
    /// and answers whether the decoded state fits them: as many queues and
    /// slices, each fitting, and a context-traffic cursor on a channel.
    pub(crate) fn adopt(&mut self, built: &MemSystem) -> bool {
        self.cfg = built.cfg.clone();
        let queues = |m: &MemSystem| (m.l2.len(), m.l2_queue.len(), m.dram_queue.len());
        let queues_fit = |own: &mut [ServiceQueue], built: &[ServiceQueue]| {
            own.iter_mut().zip(built).all(|(q, b)| q.adopt(b))
        };
        queues(self) == queues(built)
            && self.context_rr < self.dram_queue.len()
            && queues_fit(&mut self.l2_queue, &built.l2_queue)
            && queues_fit(&mut self.dram_queue, &built.dram_queue)
            && self.l2.iter_mut().zip(&built.l2).all(|(c, b)| c.adopt(b))
    }

    /// Whether every traffic count is one that `issued` (each kernel's warp
    /// instructions across the SMs) reaches: a warp's lines of L1 accesses
    /// per instruction, an L2 access per L1 access, a DRAM access per L2
    /// access, a queue service per L2 access and per DRAM or context
    /// transaction. [`MemSystem::serve`] adds to them unchecked.
    pub(crate) fn counts_behind(&self, issued: &PerKernel<Option<u64>>) -> bool {
        let t = &self.traffic;
        let lines = u64::from(crate::WARP_SIZE);
        let served = |queues: &[ServiceQueue]| checked_sum(queues.iter().map(ServiceQueue::served));
        let dram = checked_sum(t.dram_accesses.iter().chain(&t.context_transactions).copied());
        (0..crate::MAX_KERNELS).all(|k| {
            issued[k].is_some_and(|i| t.l1_accesses[k] <= i.saturating_mul(lines))
                && t.l2_accesses[k] <= t.l1_accesses[k]
                && t.dram_accesses[k] <= t.l2_accesses[k]
        }) && served(&self.l2_queue).is_some_and(|s| Some(s) == checked_sum(t.l2_accesses))
            && served(&self.dram_queue).is_some_and(|s| Some(s) == dram)
    }

    /// Per-kernel traffic counters.
    pub fn traffic(&self) -> &MemTraffic {
        &self.traffic
    }

    /// Test-only backdoor: the traffic counters, for a count
    /// [`MemSystem::counts_behind`] must refuse on restore.
    #[cfg(test)]
    pub(crate) fn traffic_mut(&mut self) -> &mut MemTraffic {
        &mut self.traffic
    }

    /// L2 slice hit/miss statistics, aggregated over all slices.
    pub fn l2_stats(&self) -> crate::cache::CacheStats {
        let mut agg = crate::cache::CacheStats::default();
        for c in &self.l2 {
            agg.hits += c.stats().hits;
            agg.misses += c.stats().misses;
        }
        agg
    }

    /// The per-channel L2 service queues (counter-registry introspection).
    pub fn l2_queues(&self) -> &[ServiceQueue] {
        &self.l2_queue
    }

    /// The per-channel DRAM service queues (counter-registry introspection).
    pub fn dram_queues(&self) -> &[ServiceQueue] {
        &self.dram_queue
    }

    /// Mean DRAM queueing delay across channels, in cycles.
    pub fn mean_dram_wait(&self) -> f64 {
        let served: u64 = self.dram_queue.iter().map(ServiceQueue::served).sum();
        if served == 0 {
            return 0.0;
        }
        let weighted: f64 = self.dram_queue.iter().map(|q| q.mean_wait() * q.served() as f64).sum();
        weighted / served as f64
    }
}

crate::impl_snap_struct!(MemTraffic {
    l1_accesses,
    l2_accesses,
    dram_accesses,
    context_transactions,
});

// The configuration is the receiver's: `adopt` takes it.
crate::impl_snap_struct!(MemSystem { l2, l2_queue, dram_queue, traffic, context_rr } skip { cfg });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn sys() -> (MemSystem, Cache) {
        let cfg = MemConfig::default();
        let l1 = Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
        (MemSystem::new(cfg), l1)
    }

    /// What an SM does per memory instruction: filter `lines` through its
    /// private `l1`, then hand the misses to [`MemSystem::serve`].
    fn access_lines(
        m: &mut MemSystem,
        kernel: KernelId,
        l1: &mut Cache,
        lines: &[Addr],
        now: Cycle,
    ) -> Cycle {
        let misses: Vec<Addr> =
            lines.iter().copied().filter(|&a| l1.access(a) == AccessOutcome::Miss).collect();
        m.serve(kernel, &misses, lines.len() as u64, now)
    }

    #[test]
    fn l1_hit_is_fast() {
        let (mut m, mut l1) = sys();
        let k = KernelId::new(0);
        let first = access_lines(&mut m, k, &mut l1, &[0x1000], 0);
        let second = access_lines(&mut m, k, &mut l1, &[0x1000], first);
        assert_eq!(second - first, u64::from(L1_HIT_LATENCY));
        assert!(first > second - first, "first access (miss) must be slower");
    }

    #[test]
    fn miss_path_goes_through_l2_and_dram() {
        let (mut m, mut l1) = sys();
        let k = KernelId::new(0);
        access_lines(&mut m, k, &mut l1, &[0x2000], 0);
        let t = m.traffic();
        assert_eq!(t.l1_accesses[0], 1);
        assert_eq!(t.l2_accesses[0], 1);
        assert_eq!(t.dram_accesses[0], 1);
    }

    #[test]
    fn l2_hit_skips_dram() {
        let (mut m, mut l1) = sys();
        let k = KernelId::new(0);
        access_lines(&mut m, k, &mut l1, &[0x3000], 0);
        l1.flush(); // force the next access to miss L1 but hit L2
        access_lines(&mut m, k, &mut l1, &[0x3000], 10_000);
        assert_eq!(m.traffic().dram_accesses[0], 1, "second access must hit in L2");
        assert_eq!(m.traffic().l2_accesses[0], 2);
    }

    #[test]
    fn addresses_spread_across_mcs() {
        let (m, _) = sys();
        let line = u64::from(m.config().line_bytes);
        let mcs: std::collections::HashSet<usize> = (0..8u64).map(|i| m.mc_for(i * line)).collect();
        assert_eq!(mcs.len(), m.config().num_mcs as usize);
    }

    #[test]
    fn contention_slows_the_second_kernel() {
        let (mut m, mut l1a) = sys();
        let cfg = m.config().clone();
        let mut l1b = Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes);
        let ka = KernelId::new(0);
        let kb = KernelId::new(1);
        // Kernel A floods one channel.
        let line = u64::from(cfg.line_bytes);
        let nmc = u64::from(cfg.num_mcs);
        let flood: Vec<u64> = (0..64).map(|i| i * line * nmc).collect();
        access_lines(&mut m, ka, &mut l1a, &flood, 0);
        // Kernel B's single access to the same channel now queues.
        let solo_latency = {
            let (mut fresh, mut l1) = sys();
            access_lines(&mut fresh, kb, &mut l1, &[1 << 30], 0)
        };
        let contended = access_lines(&mut m, kb, &mut l1b, &[(1u64 << 30) / nmc * nmc], 0);
        assert!(
            contended > solo_latency,
            "contended access ({contended}) must exceed solo latency ({solo_latency})"
        );
    }

    #[test]
    fn context_traffic_counts_lines() {
        let (mut m, _) = sys();
        let k = KernelId::new(2);
        let done = m.inject_context_traffic(k, 1024, 0);
        assert_eq!(m.traffic().context_transactions[2], 1024 / 32);
        assert!(done > 0);
    }

    #[test]
    fn multi_line_access_completion_is_max() {
        let (mut m, mut l1) = sys();
        let k = KernelId::new(0);
        let one = access_lines(&mut m, k, &mut l1, &[0x10_0000], 0);
        let (mut m2, mut l1b) = sys();
        let many_addrs: Vec<u64> = (0..32u64).map(|i| 0x10_0000 + i * 32).collect();
        let many = access_lines(&mut m2, k, &mut l1b, &many_addrs, 0);
        assert!(many >= one, "32 transactions can't finish before 1");
    }
}
