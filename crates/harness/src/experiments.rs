//! One regenerator per table and figure of the paper's evaluation.
//!
//! Every function returns the report as a `String` (and is exercised by the
//! `repro` binary and integration tests). Reports
//! lead with the paper's headline number for the experiment so measured and
//! published values sit side by side; `EXPERIMENTS.md` records a full run.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use qos_core::goals::{paper_dual_goal_fractions, paper_goal_fractions};
use qos_core::QuotaScheme;

use crate::cases::{pair_sweep, trio_sweep, Ablations, CaseSpec, ConfigKind, Policy};
use crate::error::{CaseError, FailedCase};
use crate::metrics::{mean, miss_bucket, qos_reach, CaseResult, MISS_BUCKETS};
use crate::report::{goal_label, pct, preamble, ratio, Table};
use crate::runner::{run_cases, IsolatedCache};
use crate::scale::RunScale;

/// Memoization key for a pair sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SweepKey {
    policy: Policy,
    ablations: Ablations,
    config: ConfigKind,
}

/// An experiment session: shared isolated-IPC cache and memoized sweeps so
/// `repro all` never simulates the same case twice.
///
/// Failed cases never abort a sweep: each sweep keeps its surviving results
/// and the failures accumulate here for the end-of-run
/// [`failure digest`](Session::failure_digest).
#[derive(Debug)]
pub struct Session {
    scale: RunScale,
    iso: IsolatedCache,
    pair_cache: Mutex<HashMap<SweepKey, Arc<Vec<CaseResult>>>>,
    trio_cache: Mutex<HashMap<usize, Arc<Vec<CaseResult>>>>,
    failures: Mutex<Vec<FailedCase>>,
}

impl Session {
    /// Creates a session at the given scale.
    pub fn new(scale: RunScale) -> Self {
        Session {
            scale,
            iso: IsolatedCache::new(),
            pair_cache: Mutex::new(HashMap::new()),
            trio_cache: Mutex::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    /// The session's scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Runs a sweep, keeping the surviving results and logging every failed
    /// case (with its position and spec) for the failure digest.
    fn run_sweep(&self, specs: &[CaseSpec]) -> Vec<CaseResult> {
        let outcomes = run_cases(specs, &self.iso);
        self.collect(specs, outcomes)
    }

    fn collect(
        &self,
        specs: &[CaseSpec],
        outcomes: Vec<Result<CaseResult, CaseError>>,
    ) -> Vec<CaseResult> {
        let mut ok = Vec::with_capacity(outcomes.len());
        let mut failures = self.failures.lock().expect("failure log lock");
        for (index, (outcome, spec)) in outcomes.into_iter().zip(specs).enumerate() {
            match outcome {
                Ok(r) => ok.push(r),
                Err(error) => failures.push(FailedCase { index, spec: spec.clone(), error }),
            }
        }
        ok
    }

    /// The cases that failed so far in this session.
    pub fn failures(&self) -> Vec<FailedCase> {
        self.failures.lock().expect("failure log lock").clone()
    }

    /// Renders the end-of-run failure digest for every case that failed in
    /// this session (or an all-clear line).
    pub fn failure_digest(&self) -> String {
        crate::error::failure_digest(&self.failures.lock().expect("failure log lock"))
    }

    fn goals(&self) -> Vec<f64> {
        paper_goal_fractions().into_iter().step_by(self.scale.goal_stride()).collect()
    }

    fn dual_goals(&self) -> Vec<f64> {
        paper_dual_goal_fractions().into_iter().step_by(self.scale.goal_stride()).collect()
    }

    /// Runs (or returns the memoized) trio sweep for Spart + Rollover with
    /// `num_qos` QoS kernels.
    fn trio_results(&self, num_qos: usize, goals: &[f64]) -> Arc<Vec<CaseResult>> {
        if let Some(hit) = self.trio_cache.lock().expect("trio cache lock").get(&num_qos) {
            return hit.clone();
        }
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let specs =
            trio_sweep(&policies, goals, num_qos, self.scale.cycles(), self.scale.case_stride());
        let results = Arc::new(self.run_sweep(&specs));
        self.trio_cache.lock().expect("trio cache lock").insert(num_qos, results.clone());
        results
    }

    /// Runs (or returns the memoized) 90-pair sweep for one policy.
    fn pairs(&self, policy: Policy) -> Arc<Vec<CaseResult>> {
        self.pairs_with(policy, Ablations::default(), ConfigKind::Table1, 1)
    }

    fn pairs_with(
        &self,
        policy: Policy,
        ablations: Ablations,
        config: ConfigKind,
        extra_stride: usize,
    ) -> Arc<Vec<CaseResult>> {
        let key = SweepKey { policy, ablations, config };
        if let Some(hit) = self.pair_cache.lock().expect("pair cache lock").get(&key) {
            return hit.clone();
        }
        let mut specs = pair_sweep(
            &[policy],
            &self.goals(),
            self.scale.cycles(),
            self.scale.case_stride() * extra_stride,
        );
        for s in &mut specs {
            s.ablations = ablations;
            s.config = config;
        }
        let results = Arc::new(self.run_sweep(&specs));
        self.pair_cache.lock().expect("pair cache lock").insert(key, results.clone());
        results
    }

    // ------------------------------------------------------------------
    // Tables
    // ------------------------------------------------------------------

    /// Table 1: the simulation parameters.
    pub fn table1(&self) -> String {
        let cfg = gpu_sim::GpuConfig::paper_table1();
        let mut out = preamble(
            "Table 1 — simulation parameters",
            "GTX-class GPU: 16 SMs, 4 MCs, GTO, 4 warp schedulers/SM",
            "configuration is static; scale-independent",
        );
        let mut t = Table::new(["parameter", "paper", "ours"]);
        t.row(["Core Freq.", "1216 MHz", &format!("{} MHz", cfg.core_mhz)]);
        t.row(["# of SMs", "16", &cfg.num_sms.to_string()]);
        t.row(["# of MC", "4", &cfg.mem.num_mcs.to_string()]);
        t.row(["Sched. Policy", "GTO", "GTO"]);
        t.row(["Registers", "256KB", &format!("{}KB", cfg.sm.register_file_bytes / 1024)]);
        t.row(["Shared Memory", "96KB", &format!("{}KB", cfg.sm.shared_mem_bytes / 1024)]);
        t.row(["Threads", "2048", &cfg.sm.max_threads.to_string()]);
        t.row(["TB Limit", "32", &cfg.sm.max_tbs.to_string()]);
        t.row(["Warp Scheduler", "4", &cfg.sm.warp_schedulers.to_string()]);
        t.row(["Epoch", "10K cycles", &format!("{} cycles", cfg.epoch_cycles)]);
        out.push_str(&t.render());
        out
    }

    /// Table 2: qualitative comparison with prior work (documentation-only).
    pub fn table2(&self) -> String {
        let mut out = preamble(
            "Table 2 — comparison with prior work",
            "fine-grained QoS is the only hardware scheme with QoS awareness, \
             intra-SM sharing, fine performance control and adaptive TLP",
            "qualitative; reproduced from the paper's taxonomy",
        );
        let mut t = Table::new([
            "capability",
            "CPU QoS",
            "KernelFusion",
            "SMK",
            "SpatialQoS",
            "WarpedSlicer",
            "Baymax",
            "FineGrainQoS",
        ]);
        t.row(["hardware scheme", "no", "no", "yes", "yes", "yes", "no", "yes"]);
        t.row(["QoS awareness", "yes", "no", "no", "yes", "no", "yes", "yes"]);
        t.row(["works on GPUs", "no", "yes", "yes", "yes", "yes", "yes", "yes"]);
        t.row(["preemption", "yes", "no", "yes", "yes", "no", "no", "yes"]);
        t.row(["active GPU sharing", "no", "yes", "yes", "yes", "yes", "no", "yes"]);
        t.row(["sharing within SMs", "no", "yes", "yes", "no", "yes", "no", "yes"]);
        t.row(["fine perf. control", "yes", "no", "no", "no", "no", "no", "yes"]);
        t.row(["adaptive TLP", "no", "no", "yes", "no", "no", "no", "yes"]);
        out.push_str(&t.render());
        out
    }

    // ------------------------------------------------------------------
    // Figures
    // ------------------------------------------------------------------

    /// Fig. 5: how far Naïve+History misses QoS goals.
    pub fn fig5(&self) -> String {
        let results = self.pairs(Policy::Quota(QuotaScheme::NaiveHistory));
        let mut buckets = [0usize; 5];
        let mut successes = 0usize;
        let mut overshoot_sum = 0.0;
        for r in results.iter() {
            match miss_bucket(r) {
                Some(b) => buckets[b] += 1,
                None => {
                    successes += 1;
                    overshoot_sum += r.qos_overshoot() - 1.0;
                }
            }
        }
        let mut out = preamble(
            "Fig. 5 — Naive+History miss distances (pairs)",
            ">700 of 900 cases miss, most within 5% of goal; successes \
             overshoot by 1.3% on average",
            &self.scale.describe(),
        );
        let mut t = Table::new(["bucket", "cases"]);
        for (b, label) in MISS_BUCKETS.iter().enumerate() {
            t.row([label.to_string(), buckets[b].to_string()]);
        }
        out.push_str(&t.render());
        let total_missed: usize = buckets.iter().sum();
        out.push_str(&format!(
            "\nmissed {total_missed} / {} cases; successes {successes}, mean overshoot {}\n",
            results.len(),
            pct(if successes == 0 { 0.0 } else { overshoot_sum / successes as f64 }),
        ));
        out
    }

    /// Fig. 6a: QoSreach vs goal for pairs, four policies.
    pub fn fig6a(&self) -> String {
        let mut out = preamble(
            "Fig. 6a — QoSreach vs QoS goals (pairs)",
            "avg QoSreach: Naive 20.6%, Spart 78.8%, Rollover 88.4% \
             (Rollover +12.2% over Spart)",
            &self.scale.describe(),
        );
        out.push_str(&self.reach_by_goal_table(&Policy::FIG6A, |p| self.pairs(*p), &self.goals()));
        out
    }

    /// Fig. 6b: QoSreach for trios with one QoS kernel.
    pub fn fig6b(&self) -> String {
        self.trio_reach(
            "Fig. 6b — QoSreach, trios with one QoS kernel",
            "Rollover reaches QoS goals 18.8% more often than Spart",
            1,
            &self.goals(),
        )
    }

    /// Fig. 6c: QoSreach for trios with two QoS kernels.
    pub fn fig6c(&self) -> String {
        self.trio_reach(
            "Fig. 6c — QoSreach, trios with two QoS kernels",
            "Rollover +43.8% over Spart; Spart reaches no goal at (70%,70%)",
            2,
            &self.dual_goals(),
        )
    }

    fn trio_reach(&self, title: &str, claim: &str, num_qos: usize, goals: &[f64]) -> String {
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let results = self.trio_results(num_qos, goals);
        let mut out = preamble(title, claim, &self.scale.describe());
        let mut t = Table::new(
            std::iter::once("goal".to_string())
                .chain(policies.iter().map(|p| p.label().to_string())),
        );
        for &g in goals {
            let mut row =
                vec![if num_qos == 2 { format!("2x{}", goal_label(g)) } else { goal_label(g) }];
            for &p in &policies {
                let subset = results
                    .iter()
                    .filter(|r| r.spec.policy == p && r.spec.goal_fracs[0] == Some(g));
                row.push(pct(qos_reach(subset)));
            }
            t.row(row);
        }
        let mut avg = vec!["AVG".to_string()];
        for &p in &policies {
            avg.push(pct(qos_reach(results.iter().filter(|r| r.spec.policy == p))));
        }
        t.row(avg);
        out.push_str(&t.render());
        out
    }

    /// Fig. 7: QoSreach per QoS benchmark, plus C+C / C+M / M+M summaries.
    pub fn fig7(&self) -> String {
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let mut out = preamble(
            "Fig. 7 — QoSreach per QoS kernel (pairs)",
            "C+C pairs always reach goals; Spart trails Rollover on M+M \
             (no bandwidth control); histo is hard for both",
            &self.scale.describe(),
        );
        let mut t = Table::new(["QoS kernel", "Spart", "Rollover"]);
        for &name in &workloads::NAMES {
            let mut row = vec![name.to_string()];
            for &p in &policies {
                let results = self.pairs(p);
                let subset = results.iter().filter(|r| r.spec.kernels[0] == name);
                row.push(pct(qos_reach(subset)));
            }
            t.row(row);
        }
        let class_of = |n: &str| workloads::by_name(n).expect("known").memory_intensive();
        for (label, qos_mem, other_mem) in
            [("C+C", false, false), ("C+M", false, true), ("M+M", true, true)]
        {
            let mut row = vec![label.to_string()];
            for &p in &policies {
                let results = self.pairs(p);
                let subset = results.iter().filter(|r| {
                    let qm = class_of(&r.spec.kernels[0]);
                    let bm = class_of(&r.spec.kernels[1]);
                    if label == "C+M" {
                        qm != bm
                    } else {
                        qm == qos_mem && bm == other_mem
                    }
                });
                row.push(pct(qos_reach(subset)));
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out
    }

    /// Fig. 8a: non-QoS throughput (normalized to isolated), pairs.
    pub fn fig8a(&self) -> String {
        let mut out = preamble(
            "Fig. 8a — non-QoS kernel throughput, pairs (successful cases)",
            "Rollover beats Spart at every goal, +15.9% on average",
            &self.scale.describe(),
        );
        out.push_str(&self.throughput_by_goal_table(
            &[Policy::Spart, Policy::Quota(QuotaScheme::Rollover)],
            |p| self.pairs(*p),
            &self.goals(),
        ));
        out
    }

    /// Fig. 8b/8c: non-QoS throughput for trios (1 or 2 QoS kernels).
    pub fn fig8bc(&self, num_qos: usize) -> String {
        let (title, claim, goals) = if num_qos == 1 {
            (
                "Fig. 8b — non-QoS throughput, trios with one QoS kernel",
                "Rollover +19.9% over Spart; largest gain 75.5% at the 95% goal",
                self.goals(),
            )
        } else {
            (
                "Fig. 8c — non-QoS throughput, trios with two QoS kernels",
                "Rollover +20.5% over Spart; >10x at the hardest goals",
                self.dual_goals(),
            )
        };
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let results = self.trio_results(num_qos, &goals);
        let mut out = preamble(title, claim, &self.scale.describe());
        let mut t = Table::new(
            std::iter::once("goal".to_string())
                .chain(policies.iter().map(|p| p.label().to_string())),
        );
        for &g in &goals {
            let mut row = vec![goal_label(g)];
            for &p in &policies {
                let subset: Vec<&CaseResult> = results
                    .iter()
                    .filter(|r| {
                        r.spec.policy == p && r.spec.goal_fracs[0] == Some(g) && r.success()
                    })
                    .collect();
                row.push(if subset.is_empty() {
                    "-".to_string()
                } else {
                    ratio(mean(subset.iter().copied(), CaseResult::nonqos_normalized))
                });
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out
    }

    /// Fig. 9: QoS-kernel throughput normalized to its goal.
    pub fn fig9(&self) -> String {
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let mut out = preamble(
            "Fig. 9 — QoS kernel throughput / goal (pairs, successful cases)",
            "Spart overshoots goals by 11.6% on average, Rollover by only 2.8%",
            &self.scale.describe(),
        );
        let goals = self.goals();
        let mut t = Table::new(
            std::iter::once("goal".to_string())
                .chain(policies.iter().map(|p| p.label().to_string())),
        );
        for &g in &goals {
            let mut row = vec![goal_label(g)];
            for &p in &policies {
                let results = self.pairs(p);
                let subset: Vec<&CaseResult> = results
                    .iter()
                    .filter(|r| r.spec.goal_fracs[0] == Some(g) && r.success())
                    .collect();
                row.push(if subset.is_empty() {
                    "-".to_string()
                } else {
                    ratio(mean(subset.iter().copied(), CaseResult::qos_overshoot))
                });
            }
            t.row(row);
        }
        let mut avg = vec!["AVG".to_string()];
        for &p in &policies {
            let results = self.pairs(p);
            let subset: Vec<&CaseResult> = results.iter().filter(|r| r.success()).collect();
            avg.push(ratio(mean(subset.iter().copied(), CaseResult::qos_overshoot)));
        }
        t.row(avg);
        out.push_str(&t.render());
        out
    }

    /// Fig. 10: QoSreach, Rollover vs Rollover-Time.
    pub fn fig10(&self) -> String {
        let policies =
            [Policy::Quota(QuotaScheme::Rollover), Policy::Quota(QuotaScheme::RolloverTime)];
        let mut out = preamble(
            "Fig. 10 — QoSreach: Rollover vs Rollover-Time (pairs)",
            "both schemes reach similar numbers of goals (within ~3%)",
            &self.scale.describe(),
        );
        out.push_str(&self.reach_by_goal_table(&policies, |p| self.pairs(*p), &self.goals()));
        out
    }

    /// Fig. 11: non-QoS throughput, Rollover vs Rollover-Time.
    pub fn fig11(&self) -> String {
        let mut out = preamble(
            "Fig. 11 — non-QoS throughput: Rollover vs Rollover-Time (pairs)",
            "CPU-style prioritisation degrades non-QoS throughput by 1.47x",
            &self.scale.describe(),
        );
        out.push_str(&self.throughput_by_goal_table(
            &[Policy::Quota(QuotaScheme::Rollover), Policy::Quota(QuotaScheme::RolloverTime)],
            |p| self.pairs(*p),
            &self.goals(),
        ));
        out
    }

    /// Fig. 12: QoSreach on the 56-SM configuration.
    pub fn fig12(&self) -> String {
        let policies = [Policy::Spart, Policy::Quota(QuotaScheme::Rollover)];
        let mut out = preamble(
            "Fig. 12 — QoSreach with 56 SMs (pairs)",
            "more SMs help Spart (finer spatial granularity) but it still \
             trails Rollover by 4.76%",
            &self.scale.describe(),
        );
        out.push_str(&self.reach_by_goal_table(
            &policies,
            |p| self.pairs_with(*p, Ablations::default(), ConfigKind::Sm56, self.sm56_stride()),
            &self.goals(),
        ));
        out
    }

    /// Fig. 13: non-QoS throughput on the 56-SM configuration.
    pub fn fig13(&self) -> String {
        let mut out = preamble(
            "Fig. 13 — non-QoS throughput with 56 SMs (pairs)",
            "Rollover +30.65% over Spart on average",
            &self.scale.describe(),
        );
        out.push_str(&self.throughput_by_goal_table(
            &[Policy::Spart, Policy::Quota(QuotaScheme::Rollover)],
            |p| self.pairs_with(*p, Ablations::default(), ConfigKind::Sm56, self.sm56_stride()),
            &self.goals(),
        ));
        out
    }

    /// Extra pair-subsampling for the 3.5x-slower 56-SM runs below Paper scale.
    fn sm56_stride(&self) -> usize {
        match self.scale {
            RunScale::Paper => 1,
            _ => 3,
        }
    }

    /// Fig. 14: energy-efficiency improvement of Rollover over Spart.
    pub fn fig14(&self) -> String {
        let goals = self.goals();
        let mut out = preamble(
            "Fig. 14 — instructions/Watt improvement over Spart (pairs)",
            "Rollover improves energy efficiency by 9.3% on average",
            &self.scale.describe(),
        );
        let mut t = Table::new(["goal", "improvement"]);
        let mut improvements = Vec::new();
        for &g in &goals {
            let eff = |p: Policy| {
                let results = self.pairs(p);
                let subset: Vec<&CaseResult> =
                    results.iter().filter(|r| r.spec.goal_fracs[0] == Some(g)).collect();
                mean(subset.iter().copied(), |r| r.insts_per_energy)
            };
            let spart = eff(Policy::Spart);
            let rollover = eff(Policy::Quota(QuotaScheme::Rollover));
            let improvement = if spart <= 0.0 { 0.0 } else { rollover / spart - 1.0 };
            improvements.push(improvement);
            t.row([goal_label(g), pct(improvement)]);
        }
        let avg = improvements.iter().sum::<f64>() / improvements.len().max(1) as f64;
        t.row(["AVG".to_string(), pct(avg)]);
        out.push_str(&t.render());
        out
    }

    // ------------------------------------------------------------------
    // §4.8 ablations
    // ------------------------------------------------------------------

    /// §4.8: preemption overhead on non-QoS throughput.
    pub fn ablation_preemption(&self) -> String {
        let real = self.pairs(Policy::Quota(QuotaScheme::Rollover));
        let free = self.pairs_with(
            Policy::Quota(QuotaScheme::Rollover),
            Ablations { free_preemption: true, ..Ablations::default() },
            ConfigKind::Table1,
            1,
        );
        let tput = |rs: &[CaseResult]| {
            let ok: Vec<&CaseResult> = rs.iter().filter(|r| r.success()).collect();
            mean(ok.iter().copied(), CaseResult::nonqos_normalized)
        };
        let (with_cost, without) = (tput(&real), tput(&free));
        let saves = mean(real.iter(), |r| r.preemption_saves as f64);
        let overhead = if without <= 0.0 { 0.0 } else { 1.0 - with_cost / without };
        let mut out = preamble(
            "§4.8 — preemption overhead",
            "1.93% on non-QoS throughput (context moves overlap execution)",
            &self.scale.describe(),
        );
        out.push_str(&format!(
            "non-QoS normalized throughput: {} with real preemption cost, {} with free \
             preemption\noverhead {} ({saves:.1} context saves per case)\n",
            ratio(with_cost),
            ratio(without),
            pct(overhead),
        ));
        out
    }

    /// §4.8: effect of history-based quota adjustment.
    pub fn ablation_history(&self) -> String {
        let on = self.pairs(Policy::Quota(QuotaScheme::Rollover));
        let off = self.pairs_with(
            Policy::Quota(QuotaScheme::Rollover),
            Ablations { history_adjust: Some(false), ..Ablations::default() },
            ConfigKind::Table1,
            1,
        );
        let (reach_on, reach_off) = (qos_reach(on.iter()), qos_reach(off.iter()));
        let gain = if reach_off <= 0.0 { f64::INFINITY } else { reach_on / reach_off - 1.0 };
        let mut out = preamble(
            "§4.8 — history-based quota adjustment",
            "enabling history adjustment covers 86.4% more cases",
            &self.scale.describe(),
        );
        out.push_str(&format!(
            "QoSreach: {} with history adjustment, {} without ({} more cases covered)\n",
            pct(reach_on),
            pct(reach_off),
            pct(gain),
        ));
        out
    }

    /// §4.8: effect of static resource management on M+M pairs.
    pub fn ablation_static(&self) -> String {
        let on = self.pairs(Policy::Quota(QuotaScheme::Rollover));
        let off = self.pairs_with(
            Policy::Quota(QuotaScheme::Rollover),
            Ablations { static_adjust: false, ..Ablations::default() },
            ConfigKind::Table1,
            1,
        );
        let mm = |rs: &[CaseResult]| {
            let subset: Vec<&CaseResult> = rs
                .iter()
                .filter(|r| {
                    r.success()
                        && r.spec
                            .kernels
                            .iter()
                            .all(|n| workloads::by_name(n).expect("known").memory_intensive())
                })
                .collect();
            mean(subset.iter().copied(), CaseResult::nonqos_normalized)
        };
        let (with_mgmt, without) = (mm(&on), mm(&off));
        let gain = if without <= 0.0 { 0.0 } else { with_mgmt / without - 1.0 };
        let mut out = preamble(
            "§4.8 — static resource management (M+M pairs)",
            "TB re-allocation improves M+M non-QoS throughput by 13.3%",
            &self.scale.describe(),
        );
        out.push_str(&format!(
            "M+M non-QoS normalized throughput: {} with TB adjustment, {} without \
             ({} improvement)\n",
            ratio(with_mgmt),
            ratio(without),
            pct(gain),
        ));
        out
    }

    /// Epoch-length sensitivity (the paper fixes 10K cycles per \[17\]; this
    /// ablation shows the choice is robust). Not part of `repro all`.
    pub fn ablation_epoch_length(&self) -> String {
        let mut out = preamble(
            "ablation — epoch length sensitivity",
            "10K-cycle epochs are 'sufficiently good' (section 4.1, following [17])",
            &self.scale.describe(),
        );
        let mut t = Table::new(["epoch cycles", "QoSreach", "non-QoS tput"]);
        for epoch_cycles in [2_500u64, 5_000, 10_000, 20_000] {
            let mut specs = pair_sweep(
                &[Policy::Quota(QuotaScheme::Rollover)],
                &[0.55, 0.75],
                self.scale.cycles(),
                self.scale.case_stride() * 3,
            );
            for s in &mut specs {
                s.epoch_cycles = Some(epoch_cycles);
            }
            let results = self.run_sweep(&specs);
            let ok: Vec<&CaseResult> = results.iter().filter(|r| r.success()).collect();
            t.row([
                epoch_cycles.to_string(),
                pct(qos_reach(results.iter())),
                if ok.is_empty() {
                    "-".to_string()
                } else {
                    ratio(mean(ok.iter().copied(), CaseResult::nonqos_normalized))
                },
            ]);
        }
        out.push_str(&t.render());
        out
    }

    // ------------------------------------------------------------------
    // Shared table builders
    // ------------------------------------------------------------------

    fn reach_by_goal_table<F>(&self, policies: &[Policy], fetch: F, goals: &[f64]) -> String
    where
        F: Fn(&Policy) -> Arc<Vec<CaseResult>>,
    {
        let mut t = Table::new(
            std::iter::once("goal".to_string())
                .chain(policies.iter().map(|p| p.label().to_string())),
        );
        for &g in goals {
            let mut row = vec![goal_label(g)];
            for p in policies {
                let results = fetch(p);
                let subset = results.iter().filter(|r| r.spec.goal_fracs[0] == Some(g));
                row.push(pct(qos_reach(subset)));
            }
            t.row(row);
        }
        let mut avg = vec!["AVG".to_string()];
        for p in policies {
            avg.push(pct(qos_reach(fetch(p).iter())));
        }
        t.row(avg);
        t.render()
    }

    fn throughput_by_goal_table<F>(&self, policies: &[Policy], fetch: F, goals: &[f64]) -> String
    where
        F: Fn(&Policy) -> Arc<Vec<CaseResult>>,
    {
        let mut t = Table::new(
            std::iter::once("goal".to_string())
                .chain(policies.iter().map(|p| p.label().to_string())),
        );
        for &g in goals {
            let mut row = vec![goal_label(g)];
            for p in policies {
                let results = fetch(p);
                let subset: Vec<&CaseResult> = results
                    .iter()
                    .filter(|r| r.spec.goal_fracs[0] == Some(g) && r.success())
                    .collect();
                row.push(if subset.is_empty() {
                    "-".to_string()
                } else {
                    ratio(mean(subset.iter().copied(), CaseResult::nonqos_normalized))
                });
            }
            t.row(row);
        }
        let mut avg = vec!["AVG".to_string()];
        for p in policies {
            let results = fetch(p);
            let subset: Vec<&CaseResult> = results.iter().filter(|r| r.success()).collect();
            avg.push(ratio(mean(subset.iter().copied(), CaseResult::nonqos_normalized)));
        }
        t.row(avg);
        t.render()
    }
}

// ----------------------------------------------------------------------
// One-shot helpers (used by benches and doc examples)
// ----------------------------------------------------------------------

/// Regenerates Fig. 5 in a fresh session.
pub fn fig5(scale: RunScale) -> String {
    Session::new(scale).fig5()
}

/// Regenerates Fig. 6a in a fresh session.
pub fn fig6a(scale: RunScale) -> String {
    Session::new(scale).fig6a()
}

/// Regenerates Fig. 9 in a fresh session.
pub fn fig9(scale: RunScale) -> String {
    Session::new(scale).fig9()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_session() -> Session {
        Session::new(RunScale::Bench)
    }

    #[test]
    fn table1_lists_paper_parameters() {
        let s = tiny_session().table1();
        for needle in ["1216", "16", "GTO", "256KB", "96KB", "2048", "32"] {
            assert!(s.contains(needle), "table1 missing {needle}:\n{s}");
        }
    }

    #[test]
    fn table2_has_all_schemes() {
        let s = tiny_session().table2();
        for needle in ["SMK", "Baymax", "FineGrainQoS", "adaptive TLP"] {
            assert!(s.contains(needle), "table2 missing {needle}");
        }
    }

    #[test]
    fn fig6a_reports_all_policies() {
        let s = tiny_session().fig6a();
        for needle in ["Spart", "Naive", "Elastic", "Rollover", "AVG"] {
            assert!(s.contains(needle), "fig6a missing {needle}:\n{s}");
        }
    }

    #[test]
    fn fig5_buckets_cover_all_cases() {
        let session = tiny_session();
        let s = session.fig5();
        assert!(s.contains("0-1%") && s.contains("20+%"), "{s}");
        assert!(s.contains("missed"));
    }

    #[test]
    fn sessions_memoize_pair_sweeps() {
        let session = tiny_session();
        let a = session.pairs(Policy::Quota(QuotaScheme::Rollover));
        let b = session.pairs(Policy::Quota(QuotaScheme::Rollover));
        assert!(Arc::ptr_eq(&a, &b), "second fetch must hit the memo");
    }

    #[test]
    fn sessions_log_failures_for_the_digest() {
        let session = tiny_session();
        assert!(session.failure_digest().contains("all cases completed"));
        let specs = vec![CaseSpec::new(&["nope", "lbm"], &[Some(0.5), None], Policy::Spart, 1_000)];
        let results = session.run_sweep(&specs);
        assert!(results.is_empty(), "the failing case yields no result");
        let digest = session.failure_digest();
        assert!(digest.contains("[unknown-benchmark]"), "{digest}");
        assert!(digest.contains("nope"), "{digest}");
        assert_eq!(session.failures().len(), 1);
    }
}
