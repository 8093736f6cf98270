//! Enumerating the evaluation's cases: 90 pairs, 60 trios, goal sweeps and
//! policies (§4.1).

use gpu_sim::rng::SplitMix64;
use qos_core::QuotaScheme;

/// Which GPU configuration a case runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// The paper's main Table 1 configuration (16 SMs).
    Table1,
    /// The §4.6 scalability configuration (56 SMs, 2 schedulers).
    Sm56,
}

impl ConfigKind {
    /// Builds the corresponding simulator configuration.
    pub fn build(self) -> gpu_sim::GpuConfig {
        match self {
            ConfigKind::Table1 => gpu_sim::GpuConfig::paper_table1(),
            ConfigKind::Sm56 => gpu_sim::GpuConfig::paper_56sm(),
        }
    }
}

/// The QoS management policy a case runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Spatial partitioning with hill climbing (the coarse-grained baseline).
    Spart,
    /// Fine-grained quota management with the given scheme.
    Quota(QuotaScheme),
}

impl Policy {
    /// The policies of Fig. 6a, in legend order.
    pub const FIG6A: [Policy; 4] = [
        Policy::Spart,
        Policy::Quota(QuotaScheme::Naive),
        Policy::Quota(QuotaScheme::Elastic),
        Policy::Quota(QuotaScheme::Rollover),
    ];

    /// Report label (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            Policy::Spart => "Spart",
            Policy::Quota(s) => s.label(),
        }
    }
}

/// Ablation switches (§4.8) applied on top of a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ablations {
    /// Force history-based quota adjustment on/off (`None` = scheme default).
    pub history_adjust: Option<bool>,
    /// Disable run-time static TB adjustment.
    pub static_adjust: bool,
    /// Make preemption free (zero save/restore cost and traffic).
    pub free_preemption: bool,
}

impl Default for Ablations {
    fn default() -> Self {
        Ablations { history_adjust: None, static_adjust: true, free_preemption: false }
    }
}

/// One simulation case: a set of co-running kernels, their goals, a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseSpec {
    /// Benchmark names, in kernel-slot order.
    pub kernels: Vec<String>,
    /// Per-kernel QoS goal as a fraction of isolated IPC (`None` =
    /// best-effort). QoS kernels come first by convention.
    pub goal_fracs: Vec<Option<f64>>,
    /// The management policy.
    pub policy: Policy,
    /// GPU configuration.
    pub config: ConfigKind,
    /// Simulated cycles.
    pub cycles: u64,
    /// Override of the controller epoch length (`None` = Table 1's 10K).
    pub epoch_cycles: Option<u64>,
    /// Ablation switches.
    pub ablations: Ablations,
    /// Deterministic fault-injection schedule forwarded to the simulator.
    /// Empty for every real experiment; robustness tests use it to wedge or
    /// crash selected cases.
    pub faults: gpu_sim::FaultPlan,
}

impl CaseSpec {
    /// Builds a standard pair/trio case at Table 1 configuration.
    pub fn new(kernels: &[&str], goal_fracs: &[Option<f64>], policy: Policy, cycles: u64) -> Self {
        assert_eq!(kernels.len(), goal_fracs.len(), "one goal entry per kernel");
        CaseSpec {
            kernels: kernels.iter().map(|s| s.to_string()).collect(),
            goal_fracs: goal_fracs.to_vec(),
            policy,
            config: ConfigKind::Table1,
            cycles,
            epoch_cycles: None,
            ablations: Ablations::default(),
            faults: gpu_sim::FaultPlan::default(),
        }
    }

    /// Number of QoS kernels in the case.
    pub fn num_qos(&self) -> usize {
        self.goal_fracs.iter().filter(|g| g.is_some()).count()
    }

    /// Compact case identifier for digests and logs, e.g.
    /// `sgemm@0.50+lbm Rollover/Table1`.
    pub fn label(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .zip(&self.goal_fracs)
            .map(|(name, goal)| match goal {
                Some(f) => format!("{name}@{f:.2}"),
                None => name.clone(),
            })
            .collect();
        format!("{} {}/{:?}", kernels.join("+"), self.policy.label(), self.config)
    }
}

/// All ordered (QoS, non-QoS) pairs of distinct benchmarks: 10 × 9 = 90.
pub fn pairs() -> Vec<(&'static str, &'static str)> {
    let mut out = Vec::with_capacity(90);
    for &q in &workloads::NAMES {
        for &b in &workloads::NAMES {
            if q != b {
                out.push((q, b));
            }
        }
    }
    out
}

/// The 60 kernel trios of §4.1.
///
/// The paper tests "60 trios of all possible combinations" without listing
/// them; we sample 60 of the 120 unordered 3-subsets deterministically
/// (seeded shuffle), ordered so that slot 0 (and slot 1 in the 2-QoS
/// experiments) carries the QoS goal.
pub fn trios() -> Vec<(&'static str, &'static str, &'static str)> {
    let names = workloads::NAMES;
    let mut all = Vec::new();
    for i in 0..names.len() {
        for j in i + 1..names.len() {
            for k in j + 1..names.len() {
                all.push((names[i], names[j], names[k]));
            }
        }
    }
    // Deterministic Fisher-Yates with a fixed seed, then take 60.
    let mut rng = SplitMix64::new(0x7210_2017);
    for i in (1..all.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        all.swap(i, j);
    }
    all.truncate(60);
    all
}

/// Builds the Fig. 6a-style pair sweep: `pairs × goals × policies`.
pub fn pair_sweep(
    policies: &[Policy],
    goal_fracs: &[f64],
    cycles: u64,
    case_stride: usize,
) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    for (q, b) in pairs().into_iter().step_by(case_stride.max(1)) {
        for &frac in goal_fracs {
            for &policy in policies {
                out.push(CaseSpec::new(&[q, b], &[Some(frac), None], policy, cycles));
            }
        }
    }
    out
}

/// Builds the trio sweep with `num_qos` ∈ {1, 2} QoS kernels.
///
/// # Panics
///
/// Panics if `num_qos` is not 1 or 2.
pub fn trio_sweep(
    policies: &[Policy],
    goal_fracs: &[f64],
    num_qos: usize,
    cycles: u64,
    case_stride: usize,
) -> Vec<CaseSpec> {
    assert!((1..=2).contains(&num_qos), "the paper evaluates 1 or 2 QoS kernels per trio");
    let mut out = Vec::new();
    for (a, b, c) in trios().into_iter().step_by(case_stride.max(1)) {
        for &frac in goal_fracs {
            for &policy in policies {
                let goals: Vec<Option<f64>> = match num_qos {
                    1 => vec![Some(frac), None, None],
                    _ => vec![Some(frac), Some(frac), None],
                };
                out.push(CaseSpec::new(&[a, b, c], &goals, policy, cycles));
            }
        }
    }
    out
}

gpu_sim::impl_snap_enum!(ConfigKind { Table1 = 0, Sm56 = 1 });

gpu_sim::impl_snap_enum!(Policy { Spart = 0, Quota(scheme) = 1 });

gpu_sim::impl_snap_struct!(Ablations { history_adjust, static_adjust, free_preemption });

gpu_sim::impl_snap_struct!(CaseSpec {
    kernels,
    goal_fracs,
    policy,
    config,
    cycles,
    epoch_cycles,
    ablations,
    faults,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ninety_ordered_pairs() {
        let p = pairs();
        assert_eq!(p.len(), 90);
        let distinct: std::collections::HashSet<_> = p.iter().collect();
        assert_eq!(distinct.len(), 90);
        assert!(p.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn sixty_distinct_trios() {
        let t = trios();
        assert_eq!(t.len(), 60);
        let distinct: std::collections::HashSet<_> = t.iter().collect();
        assert_eq!(distinct.len(), 60);
        for (a, b, c) in &t {
            assert!(a != b && b != c && a != c);
        }
    }

    #[test]
    fn trios_are_deterministic() {
        assert_eq!(trios(), trios());
    }

    #[test]
    fn pair_sweep_size_matches_methodology() {
        // 90 pairs × 10 goals × 1 policy = 900 cases (§4.1).
        let sweep = pair_sweep(
            &[Policy::Quota(QuotaScheme::Rollover)],
            &qos_core::goals::paper_goal_fractions(),
            1_000,
            1,
        );
        assert_eq!(sweep.len(), 900);
        assert!(sweep.iter().all(|c| c.num_qos() == 1));
    }

    #[test]
    fn trio_sweep_roles() {
        let goals = [0.5];
        let one = trio_sweep(&[Policy::Spart], &goals, 1, 1_000, 1);
        assert_eq!(one.len(), 60);
        assert!(one.iter().all(|c| c.num_qos() == 1));
        let two = trio_sweep(&[Policy::Spart], &goals, 2, 1_000, 1);
        assert!(two.iter().all(|c| c.num_qos() == 2));
    }

    #[test]
    #[should_panic(expected = "1 or 2 QoS kernels")]
    fn trio_sweep_rejects_bad_role_count() {
        let _ = trio_sweep(&[Policy::Spart], &[0.5], 3, 1_000, 1);
    }

    #[test]
    fn stride_subsamples() {
        let sweep = pair_sweep(&[Policy::Spart], &[0.5], 1_000, 9);
        assert_eq!(sweep.len(), 10);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::Spart.label(), "Spart");
        assert_eq!(Policy::Quota(QuotaScheme::Rollover).label(), "Rollover");
    }

    #[test]
    fn case_labels_identify_kernels_goals_and_policy() {
        let spec = CaseSpec::new(
            &["sgemm", "lbm"],
            &[Some(0.5), None],
            Policy::Quota(QuotaScheme::Rollover),
            1_000,
        );
        assert_eq!(spec.label(), "sgemm@0.50+lbm Rollover/Table1");
        assert!(spec.faults.is_empty(), "real cases never inject faults");
    }
}
