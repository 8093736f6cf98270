//! End-to-end integration tests: the paper's *directional* claims must hold
//! on small-scale runs of the full stack (workloads → simulator → QoS
//! manager → metrics).

use fgqos::{Gpu, GpuConfig, NullController, QosManager, QosSpec, QuotaScheme, SpartController};
use harness::cases::{CaseSpec, Policy};
use harness::metrics::qos_reach;
use harness::runner::{run_case, run_cases, IsolatedCache};

// 60k cycles (6 paper epochs) is the smallest budget at which every
// directional claim below still holds with margin; the long sweeps beyond
// this are `#[ignore]`d by default and run by CI's long-tests job
// (`cargo test -- --ignored`).
const CYCLES: u64 = 60_000;

fn isolated_ipc(name: &str) -> f64 {
    let mut gpu = Gpu::new(GpuConfig::paper_table1());
    let k = gpu.launch(workloads::by_name(name).expect("known"));
    gpu.run(CYCLES, &mut NullController);
    gpu.stats().ipc(k)
}

#[test]
fn quota_gating_holds_qos_kernel_near_goal_not_far_past_it() {
    let goal = 0.6 * isolated_ipc("mri-q");
    let mut gpu = Gpu::new(GpuConfig::paper_table1());
    let q = gpu.launch(workloads::by_name("mri-q").expect("known"));
    let b = gpu.launch(workloads::by_name("stencil").expect("known"));
    let mut mgr = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q, QosSpec::qos(goal))
        .with_kernel(b, QosSpec::best_effort());
    gpu.run(CYCLES, &mut mgr);
    let ipc = gpu.stats().ipc(q);
    assert!(ipc >= goal, "goal missed: {ipc} < {goal}");
    assert!(
        ipc <= goal * 1.15,
        "fine-grained control should not overshoot wildly: {ipc} vs goal {goal}"
    );
}

#[test]
fn spart_overshoots_more_than_rollover() {
    // Fig. 9's claim: Spart's SM-granular allocation overshoots the goal by
    // far more than quota gating does.
    let goal = 0.5 * isolated_ipc("tpacf");
    let overshoot = |use_spart: bool| {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("tpacf").expect("known"));
        let b = gpu.launch(workloads::by_name("lbm").expect("known"));
        if use_spart {
            let mut c = SpartController::new()
                .with_kernel(q, QosSpec::qos(goal))
                .with_kernel(b, QosSpec::best_effort());
            gpu.run(CYCLES, &mut c);
        } else {
            let mut m = QosManager::new(QuotaScheme::Rollover)
                .with_kernel(q, QosSpec::qos(goal))
                .with_kernel(b, QosSpec::best_effort());
            gpu.run(CYCLES, &mut m);
        }
        gpu.stats().ipc(q) / goal
    };
    let spart = overshoot(true);
    let rollover = overshoot(false);
    assert!(
        spart > rollover,
        "Spart ({spart:.3}x goal) must overshoot more than Rollover ({rollover:.3}x goal)"
    );
}

#[test]
fn rollover_time_degrades_best_effort_throughput() {
    // Fig. 10/11: similar QoSreach, much worse non-QoS throughput.
    let goal = 0.7 * isolated_ipc("sad");
    let run = |scheme| {
        let mut gpu = Gpu::new(GpuConfig::paper_table1());
        let q = gpu.launch(workloads::by_name("sad").expect("known"));
        let b = gpu.launch(workloads::by_name("mri-q").expect("known"));
        let mut m = QosManager::new(scheme)
            .with_kernel(q, QosSpec::qos(goal))
            .with_kernel(b, QosSpec::best_effort());
        gpu.run(CYCLES, &mut m);
        (gpu.stats().ipc(q), gpu.stats().ipc(b))
    };
    let (q_roll, b_roll) = run(QuotaScheme::Rollover);
    let (q_time, b_time) = run(QuotaScheme::RolloverTime);
    assert!(q_roll >= goal * 0.95 && q_time >= goal * 0.95, "both reach the goal");
    assert!(
        b_roll > b_time,
        "overlapped execution ({b_roll:.1}) must beat time multiplexing ({b_time:.1})"
    );
}

#[test]
#[ignore = "12-case sweep, ~2 min serial; CI's long-tests job runs it (cargo test -- --ignored)"]
fn rollover_reaches_goals_at_least_as_often_as_naive() {
    let iso = IsolatedCache::new();
    let mut specs = Vec::new();
    for policy in [Policy::Quota(QuotaScheme::Naive), Policy::Quota(QuotaScheme::Rollover)] {
        for (q, b) in [("sgemm", "spmv"), ("mri-q", "lbm"), ("stencil", "cutcp")] {
            for frac in [0.6, 0.85] {
                specs.push(CaseSpec::new(&[q, b], &[Some(frac), None], policy, 80_000));
            }
        }
    }
    let results: Vec<_> =
        run_cases(&specs, &iso).into_iter().map(|r| r.expect("healthy cases")).collect();
    let reach = |p: Policy| qos_reach(results.iter().filter(|r| r.spec.policy == p));
    let naive = reach(Policy::Quota(QuotaScheme::Naive));
    let rollover = reach(Policy::Quota(QuotaScheme::Rollover));
    assert!(rollover >= naive, "Rollover QoSreach ({rollover}) must be >= Naive ({naive})");
}

#[test]
fn audit_mode_stays_clean_on_a_managed_pair() {
    // The invariant audit (DESIGN.md §10) must never fire on a healthy
    // quota-managed run: occupancy, slot accounting and the quota ledger
    // all stay conserved across epochs of gating and preemption.
    let goal = 0.6 * isolated_ipc("sgemm");
    let mut cfg = GpuConfig::paper_table1();
    cfg.health.audit = true;
    cfg.health.watchdog = true;
    let mut gpu = Gpu::new(cfg);
    let q = gpu.launch(workloads::by_name("sgemm").expect("known"));
    let b = gpu.launch(workloads::by_name("spmv").expect("known"));
    let mut mgr = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q, QosSpec::qos(goal))
        .with_kernel(b, QosSpec::best_effort());
    gpu.try_run(CYCLES, &mut mgr).expect("healthy managed run must pass every audit");
    assert!(gpu.stats().ipc(q) > 0.0);
}

#[test]
fn memory_pair_contends_for_bandwidth() {
    // Fig. 7's M+M story requires real bandwidth contention: an unmanaged
    // co-run of two memory kernels must slow both below isolation.
    let iso_lbm = isolated_ipc("lbm");
    let iso_spmv = isolated_ipc("spmv");
    let mut gpu = Gpu::new(GpuConfig::paper_table1());
    let a = gpu.launch(workloads::by_name("lbm").expect("known"));
    let b = gpu.launch(workloads::by_name("spmv").expect("known"));
    gpu.set_sharing_mode(fgqos::sim::SharingMode::Smk);
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.set_tb_target(sm, a, 5);
        gpu.set_tb_target(sm, b, 5);
    }
    gpu.run(CYCLES, &mut NullController);
    let (ipc_a, ipc_b) = (gpu.stats().ipc(a), gpu.stats().ipc(b));
    assert!(ipc_a < iso_lbm, "lbm shared {ipc_a} must trail isolated {iso_lbm}");
    assert!(ipc_b < iso_spmv, "spmv shared {ipc_b} must trail isolated {iso_spmv}");
}

#[test]
fn two_qos_kernels_can_both_be_held_at_goals() {
    // The trio scenario of Fig. 6c at a modest goal pair.
    let iso = IsolatedCache::new();
    let spec = CaseSpec::new(
        &["mri-q", "sad", "lbm"],
        &[Some(0.35), Some(0.35), None],
        Policy::Quota(QuotaScheme::Rollover),
        80_000,
    );
    let r = run_case(&spec, &iso).expect("healthy case");
    assert!(
        r.success(),
        "both 35% goals should be reachable: ipc {:?} goals {:?}",
        r.ipc,
        r.goal_ipc
    );
    assert!(r.ipc[2] > 0.0, "the best-effort kernel must not be starved to zero");
}

#[test]
fn preemption_cost_is_modest() {
    // §4.8: the partial-context-switch overhead is small because transfers
    // overlap with other TBs' execution.
    let iso = IsolatedCache::new();
    let mut spec = CaseSpec::new(
        &["sgemm", "stencil"],
        &[Some(0.6), None],
        Policy::Quota(QuotaScheme::Rollover),
        60_000,
    );
    let real = run_case(&spec, &iso).expect("healthy case");
    spec.ablations.free_preemption = true;
    let free = run_case(&spec, &iso).expect("healthy case");
    let degradation = 1.0 - real.ipc[1] / free.ipc[1].max(1e-9);
    assert!(
        degradation < 0.25,
        "preemption overhead on the best-effort kernel should be modest, got {:.1}%",
        degradation * 100.0
    );
}
