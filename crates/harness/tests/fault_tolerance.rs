//! Acceptance tests for the fault-tolerant sweep runner: a sweep with
//! injected faults still completes, reports every healthy case's result,
//! and names the failed cases in the digest — and with no faults injected,
//! execution stays bit-identical run to run.

use gpu_sim::{FaultKind, FaultPlan};
use harness::cases::{pairs, CaseSpec, Policy};
use harness::error::{failure_digest, FailedCase};
use harness::runner::{run_cases, IsolatedCache};
use qos_core::QuotaScheme;

/// Builds a smoke-scale sweep of `n` distinct pair cases.
fn smoke_sweep(n: usize, cycles: u64) -> Vec<CaseSpec> {
    pairs()
        .into_iter()
        .take(n)
        .map(|(q, b)| {
            CaseSpec::new(&[q, b], &[Some(0.5), None], Policy::Quota(QuotaScheme::Rollover), cycles)
        })
        .collect()
}

#[test]
fn sweep_with_injected_panic_and_livelock_completes_with_18_of_20() {
    let mut specs = smoke_sweep(20, 30_000);
    // Case 4 crashes mid-simulation; case 11 wedges (every SM's schedulers
    // freeze) and must be caught by the watchdog, not the cycle budget.
    specs[4].faults = FaultPlan::one(5_000, FaultKind::Panic);
    specs[11].faults = FaultPlan::one(15_000, FaultKind::DeviceWedge);
    specs[11].cycles = 100_000;

    let iso = IsolatedCache::new();
    let results = run_cases(&specs, &iso);
    assert_eq!(results.len(), 20, "every case produces an entry");

    let mut failures = Vec::new();
    for (index, (result, spec)) in results.iter().zip(&specs).enumerate() {
        match result {
            Ok(r) => {
                assert!(r.ipc.iter().all(|&v| v > 0.0), "healthy case {index} must make progress")
            }
            Err(error) => {
                failures.push(FailedCase { index, spec: spec.clone(), error: error.clone() })
            }
        }
    }
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 18);
    assert_eq!(failures.len(), 2);
    assert_eq!(failures[0].index, 4);
    assert_eq!(failures[0].error.kind(), "panic");
    assert_eq!(failures[1].index, 11);
    assert_eq!(failures[1].error.kind(), "watchdog");

    let digest = failure_digest(&failures);
    assert!(digest.contains("2 case(s) failed"), "{digest}");
    assert!(digest.contains(&specs[4].label()), "{digest}");
    assert!(digest.contains(&specs[11].label()), "{digest}");
    assert!(digest.contains("[panic]") && digest.contains("[watchdog]"), "{digest}");
}

#[test]
fn fault_free_sweeps_are_bit_identical_across_runs() {
    // Determinism: the health layer (watchdog observation, panic isolation,
    // parallel scheduling) must not perturb results at all.
    let specs = smoke_sweep(6, 30_000);
    let a = run_cases(&specs, &IsolatedCache::new());
    let b = run_cases(&specs, &IsolatedCache::new());
    for (x, y) in a.iter().zip(&b) {
        let (x, y) = (x.as_ref().expect("ok"), y.as_ref().expect("ok"));
        assert_eq!(x.ipc, y.ipc, "IPC must be bit-identical");
        assert_eq!(x.isolated_ipc, y.isolated_ipc);
        assert_eq!(x.goal_ipc, y.goal_ipc);
        assert_eq!(x.insts_per_energy, y.insts_per_energy);
        assert_eq!(x.preemption_saves, y.preemption_saves);
    }
}
