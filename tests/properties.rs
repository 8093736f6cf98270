//! Property-based tests over the core data structures and invariants.

use fgqos::sim::cache::{AccessOutcome, Cache};
use fgqos::sim::dram::ServiceQueue;
use fgqos::{Gpu, GpuConfig, KernelDesc, KernelId, NullController};
use gpu_sim::{AccessPattern, Op};
use proptest::prelude::*;
use qos_core::scheme::{alpha, distribute_quota, epoch_quota, DEFAULT_ALPHA_CAP};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ------------------------------------------------------------------
    // Cache invariants
    // ------------------------------------------------------------------

    /// The most recently accessed line is always resident afterwards.
    #[test]
    fn cache_access_makes_line_resident(addrs in prop::collection::vec(0u64..1 << 24, 1..200)) {
        let mut c = Cache::new(4 * 1024, 4, 32);
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.probe(a), "line {a:#x} must be resident right after access");
        }
    }

    /// hits + misses == number of accesses, and the hit rate is in [0, 1].
    #[test]
    fn cache_stats_conserve_accesses(addrs in prop::collection::vec(0u64..1 << 16, 0..300)) {
        let mut c = Cache::new(2 * 1024, 2, 32);
        for &a in &addrs {
            c.access(a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!((0.0..=1.0).contains(&s.hit_rate()));
    }

    /// A working set no larger than one way-set-worth of distinct lines per
    /// set never misses after the first pass (LRU guarantees inclusion).
    #[test]
    fn cache_small_working_set_stays_resident(seed in 0u64..1000) {
        let mut c = Cache::new(1024, 2, 32); // 16 sets x 2 ways? no: 16 sets
        // Choose distinct lines all mapping to different sets (stride = line).
        let lines: Vec<u64> = (0..16u64).map(|i| (seed % 7 + 1) * 32 * 1024 + i * 32).collect();
        for &a in &lines {
            c.access(a);
        }
        for &a in &lines {
            prop_assert_eq!(c.access(a), AccessOutcome::Hit);
        }
    }

    // ------------------------------------------------------------------
    // Service queue invariants
    // ------------------------------------------------------------------

    /// Completions are monotonically non-decreasing for ordered arrivals and
    /// never precede arrival + service time.
    #[test]
    fn queue_completions_are_causal(
        arrivals in prop::collection::vec(0u64..10_000, 1..100),
        service in 1u32..16,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut q = ServiceQueue::new(service, 100_000);
        let mut last_done = 0;
        for &t in &sorted {
            let done = q.serve(t);
            prop_assert!(done >= t + u64::from(service));
            prop_assert!(done >= last_done, "completions must be ordered");
            last_done = done;
        }
        prop_assert_eq!(q.served(), sorted.len() as u64);
    }

    // ------------------------------------------------------------------
    // Quota arithmetic
    // ------------------------------------------------------------------

    /// Distribution conserves the quota exactly and is zero where no TBs are.
    #[test]
    fn quota_distribution_conserves(
        quota in 0u64..10_000_000,
        tbs in prop::collection::vec(0u32..64, 1..64),
    ) {
        let parts = distribute_quota(quota, &tbs);
        prop_assert_eq!(parts.len(), tbs.len());
        let total_tbs: u64 = tbs.iter().map(|&t| u64::from(t)).sum();
        if total_tbs == 0 {
            prop_assert!(parts.iter().all(|&p| p == 0));
        } else {
            prop_assert_eq!(parts.iter().sum::<u64>(), quota, "no quota created or lost");
            for (part, &t) in parts.iter().zip(&tbs) {
                if t == 0 {
                    prop_assert_eq!(*part, 0, "no quota for SMs hosting nothing");
                }
            }
        }
    }

    /// α is always in [1, cap] and scales the quota monotonically.
    #[test]
    fn alpha_bounds_and_monotonicity(
        goal in 1.0f64..3000.0,
        history in 0.0f64..3000.0,
    ) {
        let a = alpha(goal, history);
        prop_assert!((1.0..=DEFAULT_ALPHA_CAP).contains(&a), "alpha {a} out of [1, cap]");
        let q1 = epoch_quota(goal, 1.0, 10_000);
        let q2 = epoch_quota(goal, a, 10_000);
        prop_assert!(q2 >= q1, "history adjustment never shrinks the quota");
    }

    // ------------------------------------------------------------------
    // Kernel-description arithmetic
    // ------------------------------------------------------------------

    /// Instruction accounting is consistent across aggregation levels.
    #[test]
    fn kernel_instruction_accounting(
        warps_per_tb in 1u32..8,
        iters in 1u32..64,
        alu_repeat in 1u16..32,
    ) {
        let k = KernelDesc::builder("p")
            .threads_per_tb(warps_per_tb * 32)
            .iterations(iters)
            .body(vec![Op::alu(2, alu_repeat), Op::mem_load(AccessPattern::stream())])
            .build();
        let per_warp = (u64::from(alu_repeat) * 32 + 32) * u64::from(iters);
        prop_assert_eq!(k.thread_insts_per_warp(), per_warp);
        prop_assert_eq!(k.thread_insts_per_tb(), per_warp * u64::from(warps_per_tb));
    }

    // ------------------------------------------------------------------
    // Whole-simulator fuzz: random small kernels never wedge the machine
    // ------------------------------------------------------------------

    /// Any well-formed kernel makes forward progress, replays
    /// deterministically, and retires the exact per-TB instruction count.
    #[test]
    fn simulator_runs_arbitrary_kernels(
        alu_lat in 1u16..12,
        alu_repeat in 1u16..16,
        trans in 1u8..16,
        lanes in 1u8..32,
        use_barrier in any::<bool>(),
        iters in 1u32..8,
        seed in 0u64..1000,
    ) {
        let mut body = vec![
            Op::alu_divergent(alu_lat, alu_repeat, lanes),
            Op::mem_load(AccessPattern::random(1 << 20, trans)),
        ];
        if use_barrier {
            body.push(Op::Bar);
            body.push(Op::alu(1, 1));
        }
        let kernel = KernelDesc::builder("fuzz")
            .threads_per_tb(64)
            .regs_per_thread(16)
            .grid_tbs(4)
            .iterations(iters)
            .seed(seed)
            .body(body)
            .build();

        let run = || {
            let mut gpu = Gpu::new(GpuConfig::tiny());
            let k = gpu.launch(kernel.clone());
            gpu.run(30_000, &mut NullController);
            let s = gpu.stats();
            (s.kernel(k).thread_insts, s.kernel(k).tbs_completed)
        };
        let (insts, tbs) = run();
        prop_assert!(insts > 0, "kernel must make progress");
        prop_assert_eq!(run(), (insts, tbs), "replay must be deterministic");
        if tbs > 0 {
            // Completed TBs retire exactly the statically known instruction
            // count; the remainder belongs to still-resident TBs.
            prop_assert!(insts >= tbs * kernel.thread_insts_per_tb());
        }
    }
}

// ----------------------------------------------------------------------
// Differential oracle: fast-forward vs. naive stepping
// ----------------------------------------------------------------------

/// Everything observable about one simulation run. Two runs of the same
/// scenario must compare equal field-for-field regardless of whether the
/// idle-cycle fast-forward or the naive per-cycle loop executed them.
#[derive(Debug, Clone, PartialEq)]
struct RunSummary {
    outcome: Result<(), fgqos::sim::SimError>,
    cycle: u64,
    kernels: Vec<fgqos::sim::KernelStats>,
    records: Vec<fgqos::sim::trace::EpochRecord>,
    records_hash: u64,
    per_sm_busy_issued: Vec<(u64, u64)>,
    per_sm_l1: Vec<(u64, u64)>,
    l2: (u64, u64),
    preempt: fgqos::sim::preempt::PreemptStats,
    insts_per_energy_bits: u64,
    traffic: Vec<[u64; 4]>,
    dram_wait_bits: u64,
    // Observability surface (DESIGN.md §12): both runs fly with the recorder
    // on, so the merged event stream and every registry counter — including
    // the replayed quota-blocked cycles — must match event-for-event.
    events: Vec<fgqos::sim::TraceEvent>,
    counters: Vec<fgqos::sim::CounterEntry>,
    // What a sleeping SM defers and replays: per SM busy cycles, issue slots
    // and per-kernel quota-blocked cycles, read through the controller hook
    // at every epoch boundary — a replay that only came out right at the
    // end of the run would show here.
    sm_accounting_per_epoch: Vec<SmAccounting>,
}

type SmAccounting = (u64, u64, [u64; fgqos::sim::MAX_KERNELS]);

/// Records every SM's deferred-and-replayed statistics before handing the
/// epoch to the controller under test.
struct AccountingProbe<'a> {
    inner: Box<dyn fgqos::Controller>,
    seen: &'a mut Vec<SmAccounting>,
}

impl fgqos::Controller for AccountingProbe<'_> {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        self.seen.extend(gpu.sms().iter().map(|sm| {
            let blocked = std::array::from_fn(|k| sm.quota_blocked_cycles(KernelId::new(k)));
            (sm.busy_cycles(), sm.issue_slots(), blocked)
        }));
        self.inner.on_epoch(gpu, epoch);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_differential_case(
    fast_forward: bool,
    descs: &[KernelDesc],
    ctrl_sel: usize,
    goal: f64,
    watchdog: bool,
    audit: bool,
    fault: Option<(u64, fgqos::sim::FaultKind)>,
    cycles: u64,
) -> RunSummary {
    use fgqos::{Controller, QosManager, QosSpec, QuotaScheme, SpartController};

    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = fast_forward;
    cfg.trace.level = fgqos::sim::TraceLevel::Events;
    cfg.health.audit = audit;
    cfg.health.watchdog_window = if watchdog { 2 * cfg.epoch_cycles } else { 0 };
    if let Some((at, kind)) = fault {
        cfg.faults = fgqos::sim::FaultPlan::one(at, kind);
    }
    let mut gpu = Gpu::new(cfg);
    let kids: Vec<_> = descs.iter().map(|d| gpu.launch(d.clone())).collect();
    let spec = |slot: usize| {
        if slot == 0 {
            QosSpec::qos(goal)
        } else if slot == 1 && kids.len() == 3 {
            QosSpec::qos(goal * 0.5)
        } else {
            QosSpec::best_effort()
        }
    };
    let ctrl: Box<dyn Controller> = match ctrl_sel {
        0 => Box::new(NullController),
        5 => {
            let mut c = SpartController::new();
            for (slot, &k) in kids.iter().enumerate() {
                c = c.with_kernel(k, spec(slot));
            }
            Box::new(c)
        }
        sel => {
            let scheme = match sel {
                1 => QuotaScheme::Naive,
                2 => QuotaScheme::Rollover,
                3 => QuotaScheme::RolloverTime,
                _ => QuotaScheme::Elastic,
            };
            let mut m = QosManager::new(scheme);
            for (slot, &k) in kids.iter().enumerate() {
                m = m.with_kernel(k, spec(slot));
            }
            Box::new(m)
        }
    };
    let mut sm_accounting_per_epoch = Vec::new();
    let probe = AccountingProbe { inner: ctrl, seen: &mut sm_accounting_per_epoch };
    let mut tracer = fgqos::sim::Tracer::new(probe);
    let outcome = gpu.try_run(cycles, &mut tracer);
    let (_, records) = tracer.into_parts();
    let stats = gpu.stats();
    let traffic = gpu.mem().traffic();
    RunSummary {
        outcome,
        cycle: gpu.cycle(),
        kernels: kids.iter().map(|&k| *stats.kernel(k)).collect(),
        records_hash: fgqos::sim::trace::records_hash(&records),
        records,
        per_sm_busy_issued: gpu
            .sms()
            .iter()
            .map(|sm| (sm.busy_cycles(), sm.issued_total()))
            .collect(),
        per_sm_l1: gpu.sms().iter().map(|sm| (sm.l1_stats().hits, sm.l1_stats().misses)).collect(),
        l2: (gpu.mem().l2_stats().hits, gpu.mem().l2_stats().misses),
        preempt: gpu.preempt_stats(),
        insts_per_energy_bits: fgqos::sim::power::insts_per_energy(&gpu).to_bits(),
        traffic: kids
            .iter()
            .map(|&k| {
                let i = k.index();
                [
                    traffic.l1_accesses[i],
                    traffic.l2_accesses[i],
                    traffic.dram_accesses[i],
                    traffic.context_transactions[i],
                ]
            })
            .collect(),
        dram_wait_bits: gpu.mem().mean_dram_wait().to_bits(),
        events: gpu.recent_events(usize::MAX),
        // ff_skipped_cycles counts how many cycles the fast-forward jumped
        // over — stepping-mode metadata that differs between the two runs by
        // construction. Every other counter must match bit-exactly.
        counters: gpu
            .counter_registry()
            .into_iter()
            .filter(|e| e.name != "ff_skipped_cycles")
            .collect(),
        sm_accounting_per_epoch,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bit-identity contract, both ways at once: for random kernel
    /// mixes, QoS goals, schemes, health settings and injected faults, a
    /// fast-forward run and a naive per-cycle run produce identical
    /// `Stats`, `Tracer` epoch records, cache/DRAM traffic, preemption
    /// counts and health outcomes (including watchdog reports and audit
    /// verdicts), full event stream and counter registry included.
    #[test]
    fn fast_forward_matches_naive_stepping(
        nk in 1usize..4,
        alu_lat in 1u16..12,
        alu_repeat in 1u16..16,
        trans in 1u8..16,
        lanes in 1u8..32,
        use_barrier in any::<bool>(),
        iters in 1u32..6,
        seed in 0u64..10_000,
        cycles in 3_000u64..10_000,
        ctrl_sel in 0usize..8,
        goal_frac in 0.1f64..1.5,
        watchdog in any::<bool>(),
        audit in any::<bool>(),
        fault_sel in 0usize..4,
        fault_cycle in 500u64..6_000,
    ) {
        // A quarter of the cases are Rollover trios whose two QoS goals (1
        // to 15 and half that, in IPC) are met early in every epoch: their
        // warps then sit quota-exhausted on SMs whose best-effort kernel
        // stalls on memory at different times, so SMs sleep and wake
        // independently with quota-blocked cycles to replay.
        let (nk, ctrl_sel, goal) = if ctrl_sel >= 6 {
            (3, 2, goal_frac * 10.0)
        } else {
            (nk, ctrl_sel, goal_frac * 100.0)
        };
        let descs: Vec<KernelDesc> = (0..nk)
            .map(|k| {
                let k16 = k as u16;
                let mut body = vec![
                    Op::alu_divergent(alu_lat + k16, alu_repeat, lanes),
                    Op::mem_load(AccessPattern::random(1 << (18 + k), trans)),
                ];
                if use_barrier && k == 0 {
                    body.push(Op::Bar);
                    body.push(Op::alu(1, 1));
                }
                KernelDesc::builder(format!("diff{k}"))
                    .threads_per_tb(64)
                    .regs_per_thread(16)
                    .grid_tbs(4)
                    .iterations(iters + k as u32)
                    .seed(seed.wrapping_mul(k as u64 + 1))
                    .body(body)
                    .build()
            })
            .collect();
        let fault = match fault_sel {
            1 => Some((fault_cycle, fgqos::sim::FaultKind::StarveQuota)),
            2 => Some((fault_cycle, fgqos::sim::FaultKind::FreezeScheduler { sm: 0 })),
            3 => Some((fault_cycle, fgqos::sim::FaultKind::StallPreemption)),
            _ => None,
        };
        let fast =
            run_differential_case(true, &descs, ctrl_sel, goal, watchdog, audit, fault, cycles);
        let naive =
            run_differential_case(false, &descs, ctrl_sel, goal, watchdog, audit, fault, cycles);
        prop_assert_eq!(&fast, &naive);
    }
}

#[test]
fn simulator_invariants_hold_under_qos_management() {
    // A controller that checks occupancy invariants at every epoch while the
    // QoS manager reshuffles TBs underneath it.
    use fgqos::{Controller, QosManager, QosSpec, QuotaScheme};

    struct Checked {
        inner: QosManager,
    }
    impl Controller for Checked {
        fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
            self.inner.on_epoch(gpu, epoch);
            let max_threads = gpu.config().sm.max_threads;
            for sm in gpu.sms() {
                assert!(sm.used_threads() <= max_threads, "thread occupancy exceeded");
                assert!(sm.free_threads() <= max_threads);
            }
        }
    }

    let mut gpu = Gpu::new(GpuConfig::paper_table1());
    let q = gpu.launch(workloads::by_name("sgemm").expect("known"));
    let b = gpu.launch(workloads::by_name("lbm").expect("known"));
    let inner = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q, QosSpec::qos(900.0))
        .with_kernel(b, QosSpec::best_effort());
    gpu.run(60_000, &mut Checked { inner });
    assert!(gpu.stats().ipc(q) > 0.0);
}
