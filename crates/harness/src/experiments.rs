//! Every table and figure of the paper's evaluation, declared once.
//!
//! [`EXPERIMENTS`] is the registry: one entry per report with its `repro`
//! name, its title, the paper's headline and a function that renders the
//! report body and a one-line measured headline from the same results.
//! `repro` lists, dispatches and summarises from it, and `EXPERIMENTS.md`'s
//! summary table is the [`Session::summary`] of a `repro --scale quick all`
//! run. A [`Session::journaled`] session keeps every case it runs in a
//! [`CheckpointDir`], so a killed run resumes and a finished one re-renders
//! without simulating.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::iter::once;
use std::sync::{Arc, Mutex};

use gpu_sim::{FaultKind, FaultPlan};
use qos_core::QuotaScheme;

use crate::cases::{pair_sweep, pairs, trio_sweep, Ablations, CaseSpec, ConfigKind, Policy};
use crate::checkpoint::CheckpointDir;
use crate::error::{CaseError, FailedCase};
use crate::metrics::{mean, miss_bucket, qos_reach, CaseResult, MISS_BUCKETS};
use crate::report::{goal_label, pct, preamble, ratio, Table};
use crate::runner::{run_journaled, IsolatedCache};
use crate::scale::RunScale;

/// One report of the evaluation.
#[derive(Debug)]
pub struct Experiment {
    /// The `repro` name.
    pub name: &'static str,
    /// The report's title.
    pub title: &'static str,
    /// What the paper reports for it.
    pub paper: &'static str,
    /// Whether `repro all` runs it.
    pub in_all: bool,
    run: fn(&Session) -> Report,
}

/// What an experiment measured: the report body and its one-line headline,
/// both computed from the same results.
#[derive(Debug)]
struct Report {
    body: String,
    measured: String,
}

const ROLLOVER: Policy = Policy::Quota(QuotaScheme::Rollover);
const SPART_ROLLOVER: [Policy; 2] = [Policy::Spart, ROLLOVER];
const ROLLOVER_TIME: [Policy; 2] = [ROLLOVER, Policy::Quota(QuotaScheme::RolloverTime)];
const NONQOS_TPUT: Cell = Cell::Mean(CaseResult::nonqos_normalized);

/// The registry, in `repro all` order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        title: "Table 1 — simulation parameters",
        paper: "GTX-class GPU: 16 SMs, 4 MCs, GTO, 4 warp schedulers/SM",
        in_all: true,
        run: Session::table1,
    },
    Experiment {
        name: "table2",
        title: "Table 2 — comparison with prior work",
        paper: "fine-grained QoS is the only hardware scheme with QoS awareness, \
                intra-SM sharing, fine performance control and adaptive TLP",
        in_all: true,
        run: Session::table2,
    },
    Experiment {
        name: "fig5",
        title: "Fig. 5 — Naive+History miss distances (pairs)",
        paper: ">700 of 900 cases miss, most within 5% of goal; successes \
                overshoot by 1.3% on average",
        in_all: true,
        run: Session::fig5,
    },
    Experiment {
        name: "fig6a",
        title: "Fig. 6a — QoSreach vs QoS goals (pairs)",
        paper: "avg QoSreach: Naive 20.6%, Spart 78.8%, Rollover 88.4% \
                (Rollover +12.2% over Spart)",
        in_all: true,
        run: |s| s.goal_table(&Policy::FIG6A, Source::Pairs(ConfigKind::Table1), Cell::Reach),
    },
    Experiment {
        name: "fig6b",
        title: "Fig. 6b — QoSreach, trios with one QoS kernel",
        paper: "Rollover reaches QoS goals 18.8% more often than Spart",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Trios(1), Cell::Reach),
    },
    Experiment {
        name: "fig6c",
        title: "Fig. 6c — QoSreach, trios with two QoS kernels",
        paper: "Rollover +43.8% over Spart; Spart reaches no goal at (70%,70%)",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Trios(2), Cell::Reach),
    },
    Experiment {
        name: "fig7",
        title: "Fig. 7 — QoSreach per QoS kernel (pairs)",
        paper: "C+C pairs always reach goals; Spart trails Rollover on M+M \
                (no bandwidth control); histo is hard for both",
        in_all: true,
        run: Session::fig7,
    },
    Experiment {
        name: "fig8a",
        title: "Fig. 8a — non-QoS kernel throughput, pairs (successful cases)",
        paper: "Rollover beats Spart at every goal, +15.9% on average",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Table1), NONQOS_TPUT),
    },
    Experiment {
        name: "fig8b",
        title: "Fig. 8b — non-QoS throughput, trios with one QoS kernel",
        paper: "Rollover +19.9% over Spart; largest gain 75.5% at the 95% goal",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Trios(1), NONQOS_TPUT),
    },
    Experiment {
        name: "fig8c",
        title: "Fig. 8c — non-QoS throughput, trios with two QoS kernels",
        paper: "Rollover +20.5% over Spart; >10x at the hardest goals",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Trios(2), NONQOS_TPUT),
    },
    Experiment {
        name: "fig9",
        title: "Fig. 9 — QoS kernel throughput / goal (pairs, successful cases)",
        paper: "Spart overshoots goals by 11.6% on average, Rollover by only 2.8%",
        in_all: true,
        run: |s| {
            let cell = Cell::Mean(CaseResult::qos_overshoot);
            s.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Table1), cell)
        },
    },
    Experiment {
        name: "fig10",
        title: "Fig. 10 — QoSreach: Rollover vs Rollover-Time (pairs)",
        paper: "both schemes reach similar numbers of goals (within ~3%)",
        in_all: true,
        run: |s| s.goal_table(&ROLLOVER_TIME, Source::Pairs(ConfigKind::Table1), Cell::Reach),
    },
    Experiment {
        name: "fig11",
        title: "Fig. 11 — non-QoS throughput: Rollover vs Rollover-Time (pairs)",
        paper: "CPU-style prioritisation degrades non-QoS throughput by 1.47x",
        in_all: true,
        run: |s| s.goal_table(&ROLLOVER_TIME, Source::Pairs(ConfigKind::Table1), NONQOS_TPUT),
    },
    Experiment {
        name: "fig12",
        title: "Fig. 12 — QoSreach with 56 SMs (pairs)",
        paper: "more SMs help Spart (finer spatial granularity) but it still \
                trails Rollover by 4.76%",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Sm56), Cell::Reach),
    },
    Experiment {
        name: "fig13",
        title: "Fig. 13 — non-QoS throughput with 56 SMs (pairs)",
        paper: "Rollover +30.65% over Spart on average",
        in_all: true,
        run: |s| s.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Sm56), NONQOS_TPUT),
    },
    Experiment {
        name: "fig14",
        title: "Fig. 14 — instructions/Watt improvement over Spart (pairs)",
        paper: "Rollover improves energy efficiency by 9.3% on average",
        in_all: true,
        run: Session::fig14,
    },
    Experiment {
        name: "ablation-preempt",
        title: "§4.8 — preemption overhead",
        paper: "1.93% on non-QoS throughput (context moves overlap execution)",
        in_all: true,
        run: Session::ablation_preempt,
    },
    Experiment {
        name: "ablation-history",
        title: "§4.8 — history-based quota adjustment",
        paper: "enabling history adjustment covers 86.4% more cases",
        in_all: true,
        run: Session::ablation_history,
    },
    Experiment {
        name: "ablation-static",
        title: "§4.8 — static resource management (M+M pairs)",
        paper: "TB re-allocation improves M+M non-QoS throughput by 13.3%",
        in_all: true,
        run: Session::ablation_static,
    },
    // The paper fixes 10K-cycle epochs following [17]; this shows the
    // choice is robust, and is not one of its figures.
    Experiment {
        name: "ablation-epoch",
        title: "ablation — epoch length sensitivity",
        paper: "10K-cycle epochs are 'sufficiently good' (section 4.1, following [17])",
        in_all: false,
        run: Session::ablation_epoch,
    },
    // The two drills of the journal (DESIGN §11.2): short enough that a
    // `Bench` case spans several chunks, one line per case with its trace
    // hash so that two runs compare case by case.
    Experiment {
        name: "smoke",
        title: "smoke — four Rollover pairs at 2 000-cycle epochs",
        paper: "not a result of the paper: the kill-and-resume drill",
        in_all: false,
        run: |s| s.smoke(false),
    },
    Experiment {
        name: "smoke-faulty",
        title: "smoke-faulty — the smoke pairs, the second wedged",
        paper: "not a result of the paper: the watchdog and failure-snapshot drill",
        in_all: false,
        run: |s| s.smoke(true),
    },
];

/// The experiments `names` ask for, in the order given; `all` among them
/// means every experiment marked for it instead.
///
/// # Errors
///
/// The first name that is neither an experiment nor `all`.
pub fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let mut chosen = Vec::new();
    for name in names {
        match EXPERIMENTS.iter().find(|e| e.name == name) {
            Some(e) => chosen.push(e),
            None if name == "all" => {}
            None => return Err(format!("unknown experiment {name:?}")),
        }
    }
    if names.iter().any(|n| n == "all") {
        chosen = EXPERIMENTS.iter().filter(|e| e.in_all).collect();
    }
    Ok(chosen)
}

/// The epoch override of the smoke drills: even a `Bench`-scale case spans
/// several epochs, so killing and resuming one exercises mid-case state
/// cheaply.
const SMOKE_EPOCH_CYCLES: u64 = 2_000;

/// The header of the summary's markdown table.
const SUMMARY_HEADER: &str = "| experiment | paper | measured |\n|---|---|---|\n";

/// A memoized sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sweep {
    /// The pair sweep of one policy, with ablations, on a configuration.
    Pairs(Policy, Ablations, ConfigKind),
    /// The Spart + Rollover trio sweep with this many QoS kernels.
    Trios(usize),
}

/// Where a goal table's cases come from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Each policy's pair sweep on a configuration.
    Pairs(ConfigKind),
    /// The trio sweep with this many QoS kernels.
    Trios(usize),
}

/// What a goal table's cell shows for a set of cases.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// `QoSreach` over every case.
    Reach,
    /// Mean of a metric over the successful cases.
    Mean(fn(&CaseResult) -> f64),
}

impl Cell {
    fn render<'a>(self, cases: impl Iterator<Item = &'a CaseResult>) -> String {
        match self {
            Cell::Reach => dash(reach(cases), pct),
            Cell::Mean(metric) => dash(success_mean(cases, metric), ratio),
        }
    }
}

/// `QoSreach` of a case set; `None` for an empty set.
fn reach<'a>(cases: impl Iterator<Item = &'a CaseResult>) -> Option<f64> {
    let cases: Vec<&CaseResult> = cases.collect();
    (!cases.is_empty()).then(|| qos_reach(cases))
}

/// Mean of `metric` over a case set; `None` for an empty set.
fn mean_of<'a>(
    cases: impl Iterator<Item = &'a CaseResult>,
    metric: fn(&CaseResult) -> f64,
) -> Option<f64> {
    let cases: Vec<&CaseResult> = cases.collect();
    (!cases.is_empty()).then(|| mean(cases, metric))
}

/// Mean of `metric` over the successful cases; `None` when none succeeded.
fn success_mean<'a>(
    cases: impl Iterator<Item = &'a CaseResult>,
    metric: fn(&CaseResult) -> f64,
) -> Option<f64> {
    mean_of(cases.filter(|r| r.success()), metric)
}

/// Renders a measured value, or `-` when nothing was measured.
fn dash(value: Option<f64>, render: fn(f64) -> String) -> String {
    value.map_or_else(|| "-".to_string(), render)
}

/// The goal sweep of cases with `num_qos` QoS kernels.
fn goals(scale: RunScale, num_qos: usize) -> Vec<f64> {
    if num_qos == 2 {
        scale.dual_goals()
    } else {
        scale.goals()
    }
}

fn memory_bound(name: &str) -> bool {
    workloads::by_name(name).expect("cases name known benchmarks").memory_intensive()
}

/// An experiment session: shared isolated-IPC cache and memoized sweeps so
/// `repro all` never simulates the same case twice.
///
/// Failed cases never abort a sweep: each sweep keeps its surviving results
/// and the failures accumulate here for the [`summary`](Session::summary).
/// A [`journaled`](Session::journaled) session keeps every case in its
/// journal, and reuses what the journal already holds.
#[derive(Debug)]
pub struct Session {
    scale: RunScale,
    iso: IsolatedCache,
    journal: Option<CheckpointDir>,
    sweeps: Mutex<HashMap<Sweep, Arc<Vec<CaseResult>>>>,
    failures: Mutex<Vec<FailedCase>>,
    measured: Mutex<Vec<(&'static Experiment, String)>>,
}

impl Session {
    /// Creates a session at the given scale.
    pub fn new(scale: RunScale) -> Self {
        Session {
            scale,
            iso: IsolatedCache::new(),
            journal: None,
            sweeps: Mutex::new(HashMap::new()),
            failures: Mutex::new(Vec::new()),
            measured: Mutex::new(Vec::new()),
        }
    }

    /// A session at the scale `journal`'s manifest records, journaling every
    /// case into it.
    pub fn journaled(journal: CheckpointDir) -> Self {
        let scale = journal.manifest().scale;
        Session { journal: Some(journal), ..Session::new(scale) }
    }

    /// The session's scale.
    pub fn scale(&self) -> RunScale {
        self.scale
    }

    /// Runs one experiment and returns its report: title, the paper's
    /// headline, the scale line, then the body. The measured headline is
    /// kept for the [`summary`](Session::summary).
    pub fn run(&self, experiment: &'static Experiment) -> String {
        let report = (experiment.run)(self);
        self.measured.lock().expect("summary lock").push((experiment, report.measured));
        preamble(experiment.title, experiment.paper, &self.scale.describe()) + &report.body
    }

    /// The end-of-run summary: the scale line, one markdown row per
    /// experiment run so far (experiment | paper | measured), then the
    /// failure digest.
    pub fn summary(&self) -> String {
        let mut out = format!("== summary ==\n{}\n\n{SUMMARY_HEADER}", self.scale.describe());
        for (e, measured) in self.measured.lock().expect("summary lock").iter() {
            let _ = writeln!(out, "| {} | {} | {measured} |", e.title, e.paper);
        }
        out + "\n" + &self.failure_digest()
    }

    /// The cases that failed so far in this session.
    pub fn failures(&self) -> Vec<FailedCase> {
        self.failures.lock().expect("failure log lock").clone()
    }

    /// Renders the failure digest for every case that failed in this
    /// session (or an all-clear line).
    fn failure_digest(&self) -> String {
        crate::error::failure_digest(&self.failures.lock().expect("failure log lock"))
    }

    /// Runs a sweep, logging every failed case (with its position and spec)
    /// for the failure digest.
    fn outcomes(&self, specs: &[CaseSpec]) -> Vec<Result<CaseResult, CaseError>> {
        let outcomes = run_journaled(specs, &self.iso, self.journal.as_ref());
        let mut failures = self.failures.lock().expect("failure log lock");
        for (index, (outcome, spec)) in outcomes.iter().zip(specs).enumerate() {
            if let Err(error) = outcome {
                failures.push(FailedCase { index, spec: spec.clone(), error: error.clone() });
            }
        }
        outcomes
    }

    /// Runs a sweep and keeps the surviving results.
    fn run_sweep(&self, specs: &[CaseSpec]) -> Vec<CaseResult> {
        self.outcomes(specs).into_iter().filter_map(Result::ok).collect()
    }

    /// The cases of a sweep at this session's scale.
    fn plan(&self, sweep: Sweep) -> Vec<CaseSpec> {
        let (cycles, stride) = (self.scale.cycles(), self.scale.case_stride());
        match sweep {
            Sweep::Pairs(policy, ablations, config) => {
                // The 56-SM runs are 3.5x slower: below paper scale they
                // keep every third pair of the sweep.
                let extra = match (config, self.scale) {
                    (ConfigKind::Sm56, s) if s != RunScale::Paper => 3,
                    _ => 1,
                };
                let mut specs = pair_sweep(&[policy], &self.scale.goals(), cycles, stride * extra);
                for s in &mut specs {
                    s.ablations = ablations;
                    s.config = config;
                }
                specs
            }
            Sweep::Trios(n) => {
                trio_sweep(&SPART_ROLLOVER, &goals(self.scale, n), n, cycles, stride)
            }
        }
    }

    /// Runs (or returns the memoized) sweep.
    fn results(&self, sweep: Sweep) -> Arc<Vec<CaseResult>> {
        if let Some(hit) = self.sweeps.lock().expect("sweep cache lock").get(&sweep) {
            return hit.clone();
        }
        let results = Arc::new(self.run_sweep(&self.plan(sweep)));
        self.sweeps.lock().expect("sweep cache lock").insert(sweep, results.clone());
        results
    }

    /// One policy's pair sweep on Table 1's GPU.
    fn pairs(&self, policy: Policy) -> Arc<Vec<CaseResult>> {
        self.results(Sweep::Pairs(policy, Ablations::default(), ConfigKind::Table1))
    }

    /// Rollover's pair sweep with a §4.8 ablation applied.
    fn ablated(&self, ablations: Ablations) -> Arc<Vec<CaseResult>> {
        self.results(Sweep::Pairs(ROLLOVER, ablations, ConfigKind::Table1))
    }

    /// A goal × policy table: one row per goal and one column per policy,
    /// then the AVG row over every goal, which is also the measured headline.
    fn goal_table(&self, policies: &[Policy], source: Source, cell: Cell) -> Report {
        let num_qos = match source {
            Source::Pairs(_) => 1,
            Source::Trios(n) => n,
        };
        let sweeps: Vec<Arc<Vec<CaseResult>>> = policies
            .iter()
            .map(|&p| {
                self.results(match source {
                    Source::Pairs(config) => Sweep::Pairs(p, Ablations::default(), config),
                    Source::Trios(n) => Sweep::Trios(n),
                })
            })
            .collect();
        let cases = |i: usize| sweeps[i].iter().filter(move |r| r.spec.policy == policies[i]);
        let mut t = Table::new(once("goal").chain(policies.iter().map(|p| p.label())));
        for g in goals(self.scale, num_qos) {
            let label = if num_qos == 2 { format!("2x{}", goal_label(g)) } else { goal_label(g) };
            let at_goal = |i| cell.render(cases(i).filter(|r| r.spec.goal_fracs[0] == Some(g)));
            t.row(once(label).chain((0..policies.len()).map(at_goal)));
        }
        let avg: Vec<String> = (0..policies.len()).map(|i| cell.render(cases(i))).collect();
        let measured: Vec<String> =
            policies.iter().zip(&avg).map(|(p, v)| format!("{} {v}", p.label())).collect();
        t.row(once("AVG".to_string()).chain(avg));
        Report { body: t.render(), measured: format!("AVG {}", measured.join(", ")) }
    }

    // ------------------------------------------------------------------
    // The reports that are not goal tables
    // ------------------------------------------------------------------

    fn table1(&self) -> Report {
        use gpu_sim::config::{
            CORE_MHZ, MAX_TBS, MAX_THREADS, REGISTER_FILE_BYTES, SHARED_MEM_BYTES,
        };
        let cfg = gpu_sim::GpuConfig::paper_table1();
        let rows = [
            ("Core Freq.", "1216 MHz", format!("{CORE_MHZ} MHz")),
            ("# of SMs", "16", cfg.num_sms.to_string()),
            ("# of MC", "4", cfg.mem.num_mcs.to_string()),
            ("Sched. Policy", "GTO", "GTO".to_string()),
            ("Registers", "256KB", format!("{}KB", REGISTER_FILE_BYTES / 1024)),
            ("Shared Memory", "96KB", format!("{}KB", SHARED_MEM_BYTES / 1024)),
            ("Threads", "2048", MAX_THREADS.to_string()),
            ("TB Limit", "32", MAX_TBS.to_string()),
            ("Warp Scheduler", "4", cfg.warp_schedulers.to_string()),
            ("Epoch", "10K cycles", format!("{} cycles", cfg.epoch_cycles)),
        ];
        let mut t = Table::new(["parameter", "paper", "ours"]);
        let mut same = 0;
        for (parameter, paper, ours) in &rows {
            // The paper writes thousands as `K`.
            same += usize::from(paper.replace("K ", "000 ") == *ours);
            t.row([*parameter, *paper, ours.as_str()]);
        }
        Report { body: t.render(), measured: format!("{same}/{} parameters match", rows.len()) }
    }

    fn table2(&self) -> Report {
        let header = [
            "capability",
            "CPU QoS",
            "KernelFusion",
            "SMK",
            "SpatialQoS",
            "WarpedSlicer",
            "Baymax",
            "FineGrainQoS",
        ];
        let rows = [
            ["hardware scheme", "no", "no", "yes", "yes", "yes", "no", "yes"],
            ["QoS awareness", "yes", "no", "no", "yes", "no", "yes", "yes"],
            ["works on GPUs", "no", "yes", "yes", "yes", "yes", "yes", "yes"],
            ["preemption", "yes", "no", "yes", "yes", "no", "no", "yes"],
            ["active GPU sharing", "no", "yes", "yes", "yes", "yes", "no", "yes"],
            ["sharing within SMs", "no", "yes", "yes", "no", "yes", "no", "yes"],
            ["fine perf. control", "yes", "no", "no", "no", "no", "no", "yes"],
            ["adaptive TLP", "no", "no", "yes", "no", "no", "no", "yes"],
        ];
        let mut t = Table::new(header);
        for row in rows {
            t.row(row);
        }
        let complete: Vec<&str> = (1..header.len())
            .filter(|&c| rows.iter().all(|row| row[c] == "yes"))
            .map(|c| header[c])
            .collect();
        let measured = format!("all {} capabilities: {}", rows.len(), complete.join(", "));
        Report { body: t.render(), measured }
    }

    fn fig5(&self) -> Report {
        let results = self.pairs(Policy::Quota(QuotaScheme::NaiveHistory));
        let mut buckets = [0usize; MISS_BUCKETS.len()];
        for b in results.iter().filter_map(miss_bucket) {
            buckets[b] += 1;
        }
        let missed: usize = buckets.iter().sum();
        let overshoot = success_mean(results.iter(), |r| r.qos_overshoot() - 1.0);
        let mut t = Table::new(["bucket", "cases"]);
        for (label, n) in MISS_BUCKETS.iter().zip(buckets) {
            t.row([label.to_string(), n.to_string()]);
        }
        let body = format!(
            "{}\nmissed {missed} / {} cases; successes {}, mean overshoot {}\n",
            t.render(),
            results.len(),
            results.len() - missed,
            dash(overshoot, pct),
        );
        let within_5pct = buckets[0] + buckets[1];
        let measured =
            format!("missed {missed} / {} cases, {within_5pct} within 5% of goal", results.len());
        Report { body, measured }
    }

    fn fig7(&self) -> Report {
        let sweeps = SPART_ROLLOVER.map(|p| self.pairs(p));
        let cells = |keep: &dyn Fn(&CaseResult) -> bool| -> Vec<String> {
            sweeps.iter().map(|rs| dash(reach(rs.iter().filter(|r| keep(r))), pct)).collect()
        };
        let mut t = Table::new(["QoS kernel", "Spart", "Rollover"]);
        for name in workloads::NAMES {
            t.row(once(name.to_string()).chain(cells(&|r| r.spec.kernels[0] == name)));
        }
        let class = |r: &CaseResult| match (
            memory_bound(&r.spec.kernels[0]),
            memory_bound(&r.spec.kernels[1]),
        ) {
            (false, false) => "C+C",
            (true, true) => "M+M",
            _ => "C+M",
        };
        let mut measured = Vec::new();
        for label in ["C+C", "C+M", "M+M"] {
            let row = cells(&|r| class(r) == label);
            if label != "C+M" {
                measured.push(format!("{label} Spart {} / Rollover {}", row[0], row[1]));
            }
            t.row(once(label.to_string()).chain(row));
        }
        Report { body: t.render(), measured: measured.join("; ") }
    }

    fn fig14(&self) -> Report {
        let [spart, rollover] = SPART_ROLLOVER.map(|p| self.pairs(p));
        let efficiency = |rs: &[CaseResult], g: f64| {
            mean_of(rs.iter().filter(|r| r.spec.goal_fracs[0] == Some(g)), |r| r.insts_per_energy)
        };
        let mut t = Table::new(["goal", "improvement"]);
        let mut gains = Vec::new();
        for g in self.scale.goals() {
            let gain = efficiency(&spart, g).zip(efficiency(&rollover, g)).map(|(s, r)| {
                if s <= 0.0 {
                    0.0
                } else {
                    r / s - 1.0
                }
            });
            gains.extend(gain);
            t.row([goal_label(g), dash(gain, pct)]);
        }
        let avg = (!gains.is_empty()).then(|| gains.iter().sum::<f64>() / gains.len() as f64);
        t.row(["AVG".to_string(), dash(avg, pct)]);
        Report { body: t.render(), measured: format!("AVG {}", dash(avg, pct)) }
    }

    // ------------------------------------------------------------------
    // §4.8 ablations
    // ------------------------------------------------------------------

    fn ablation_preempt(&self) -> Report {
        let real = self.pairs(ROLLOVER);
        let free = self.ablated(Ablations { free_preemption: true, ..Ablations::default() });
        let tput = |rs: &[CaseResult]| success_mean(rs.iter(), CaseResult::nonqos_normalized);
        let (with_cost, without) = (tput(&real), tput(&free));
        let overhead =
            with_cost.zip(without).map(|(w, f)| if f <= 0.0 { 0.0 } else { 1.0 - w / f });
        let saves = mean_of(real.iter(), |r| r.preemption_saves as f64);
        let measured = format!(
            "overhead {} ({} context saves per case)",
            dash(overhead, pct),
            dash(saves, |s| format!("{s:.1}")),
        );
        let body = format!(
            "non-QoS normalized throughput: {} with real preemption cost, {} with free \
             preemption\n{measured}\n",
            dash(with_cost, ratio),
            dash(without, ratio),
        );
        Report { body, measured }
    }

    fn ablation_history(&self) -> Report {
        let on = reach(self.pairs(ROLLOVER).iter());
        let off = reach(
            self.ablated(Ablations { history_adjust: Some(false), ..Ablations::default() }).iter(),
        );
        let gain =
            on.zip(off).map(|(on, off)| if off <= 0.0 { f64::INFINITY } else { on / off - 1.0 });
        let measured = format!(
            "QoSreach: {} with history adjustment, {} without ({} more cases covered)",
            dash(on, pct),
            dash(off, pct),
            dash(gain, pct),
        );
        Report { body: format!("{measured}\n"), measured }
    }

    fn ablation_static(&self) -> Report {
        let mm = |rs: &[CaseResult]| {
            let both_memory = |r: &&CaseResult| r.spec.kernels.iter().all(|n| memory_bound(n));
            success_mean(rs.iter().filter(both_memory), CaseResult::nonqos_normalized)
        };
        let with_mgmt = mm(&self.pairs(ROLLOVER));
        let without = mm(&self.ablated(Ablations { static_adjust: false, ..Ablations::default() }));
        let gain = with_mgmt.zip(without).map(|(w, o)| if o <= 0.0 { 0.0 } else { w / o - 1.0 });
        let measured = format!(
            "M+M non-QoS normalized throughput: {} with TB adjustment, {} without \
             ({} improvement)",
            dash(with_mgmt, ratio),
            dash(without, ratio),
            dash(gain, pct),
        );
        Report { body: format!("{measured}\n"), measured }
    }

    fn ablation_epoch(&self) -> Report {
        let mut t = Table::new(["epoch cycles", "QoSreach", "non-QoS tput"]);
        let mut measured = Vec::new();
        for epoch_cycles in [2_500u64, 5_000, 10_000, 20_000] {
            let mut specs = pair_sweep(
                &[ROLLOVER],
                &[0.55, 0.75],
                self.scale.cycles(),
                self.scale.case_stride() * 3,
            );
            for s in &mut specs {
                s.epoch_cycles = Some(epoch_cycles);
            }
            let results = self.run_sweep(&specs);
            let reached = dash(reach(results.iter()), pct);
            measured.push(format!("{epoch_cycles} {reached}"));
            t.row([epoch_cycles.to_string(), reached, NONQOS_TPUT.render(results.iter())]);
        }
        Report {
            body: t.render(),
            measured: format!("QoSreach by epoch cycles: {}", measured.join(", ")),
        }
    }

    /// The first four Rollover pairs at [`SMOKE_EPOCH_CYCLES`], the second
    /// wedged from its fourth epoch when `faulty`: one line per case.
    fn smoke(&self, faulty: bool) -> Report {
        let mut specs: Vec<CaseSpec> = pairs()
            .into_iter()
            .take(4)
            .map(|(q, b)| {
                let mut spec =
                    CaseSpec::new(&[q, b], &[Some(0.5), None], ROLLOVER, self.scale.cycles());
                spec.epoch_cycles = Some(SMOKE_EPOCH_CYCLES);
                spec
            })
            .collect();
        if faulty {
            specs[1].faults = FaultPlan::one(3 * SMOKE_EPOCH_CYCLES, FaultKind::DeviceWedge);
        }
        let outcomes = self.outcomes(&specs);
        let mut body = String::new();
        for (index, (outcome, spec)) in outcomes.iter().zip(&specs).enumerate() {
            let label = spec.label();
            let _ = match outcome {
                Ok(r) => {
                    let ipc: Vec<String> = r.ipc.iter().map(|v| format!("{v:.4}")).collect();
                    let (ipc, trace) = (ipc.join(", "), r.trace_hash);
                    writeln!(
                        body,
                        "  case {index:3} ok      {label}  ipc=[{ipc}] trace={trace:#018x}"
                    )
                }
                Err(e) => writeln!(body, "  case {index:3} FAILED  {label}  [{}]", e.kind()),
            };
        }
        let ok = outcomes.iter().filter_map(|o| o.as_ref().ok());
        let reached = dash(reach(ok.clone()), pct);
        let measured =
            format!("{} of {} cases completed, QoSreach {reached}", ok.count(), specs.len());
        Report { body, measured }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_session() -> Session {
        Session::new(RunScale::Bench)
    }

    fn experiment(name: &str) -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == name).expect("registered experiment")
    }

    fn report(name: &str) -> String {
        tiny_session().run(experiment(name))
    }

    #[test]
    fn table1_lists_paper_parameters() {
        let session = tiny_session();
        let s = session.run(experiment("table1"));
        for needle in ["1216", "16", "GTO", "256KB", "96KB", "2048", "32"] {
            assert!(s.contains(needle), "table1 missing {needle}:\n{s}");
        }
        assert!(session.summary().contains("| 10/10 parameters match |"));
    }

    #[test]
    fn table2_has_all_schemes() {
        let s = report("table2");
        for needle in ["SMK", "Baymax", "FineGrainQoS", "adaptive TLP"] {
            assert!(s.contains(needle), "table2 missing {needle}");
        }
    }

    #[test]
    fn fig6a_reports_all_policies() {
        let s = report("fig6a");
        for needle in ["Spart", "Naive", "Elastic", "Rollover", "AVG"] {
            assert!(s.contains(needle), "fig6a missing {needle}:\n{s}");
        }
    }

    #[test]
    fn fig5_buckets_cover_all_cases() {
        let s = report("fig5");
        assert!(s.contains("0-1%") && s.contains("20+%"), "{s}");
        assert!(s.contains("missed"));
    }

    #[test]
    fn sessions_memoize_pair_sweeps() {
        let session = tiny_session();
        let a = session.pairs(ROLLOVER);
        let b = session.pairs(ROLLOVER);
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
        assert!(session.summary().ends_with(&digest), "the summary ends with the digest");
    }

    #[test]
    fn registry_names_are_unique_and_all_skips_the_epoch_ablation_and_the_drills() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        assert!(!names.contains(&"all"), "`all` is the keyword for the set");
        let skipped: Vec<&str> = EXPERIMENTS.iter().filter(|e| !e.in_all).map(|e| e.name).collect();
        assert_eq!(skipped, ["ablation-epoch", "smoke", "smoke-faulty"]);
    }

    fn failed_case(policy: Policy) -> CaseResult {
        CaseResult {
            spec: CaseSpec::new(&["lbm", "spmv"], &[Some(0.5), None], policy, 1_000),
            ipc: vec![1.0, 1.0],
            isolated_ipc: vec![4.0, 2.0],
            goal_ipc: vec![Some(2.0), None],
            insts_per_energy: 1.0,
            preemption_saves: 0,
            trace_hash: 0,
        }
    }

    /// A session whose every pair sweep holds one case that missed its goal.
    fn session_without_successes() -> Session {
        let session = tiny_session();
        let ablations = [
            Ablations::default(),
            Ablations { free_preemption: true, ..Ablations::default() },
            Ablations { static_adjust: false, ..Ablations::default() },
        ];
        let mut sweeps = session.sweeps.lock().expect("sweep cache lock");
        for policy in SPART_ROLLOVER {
            for config in [ConfigKind::Table1, ConfigKind::Sm56] {
                for ablations in ablations {
                    let sweep = Sweep::Pairs(policy, ablations, config);
                    sweeps.insert(sweep, Arc::new(vec![failed_case(policy)]));
                }
            }
        }
        drop(sweeps);
        session
    }

    #[test]
    fn means_over_no_successes_print_a_dash() {
        let session = session_without_successes();
        let table =
            session.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Sm56), NONQOS_TPUT);
        let avg = table.body.lines().last().expect("AVG row");
        assert_eq!(avg.split_whitespace().collect::<Vec<_>>(), ["AVG", "-", "-"], "{}", table.body);
        assert_eq!(table.measured, "AVG Spart -, Rollover -");
        let reach =
            session.goal_table(&SPART_ROLLOVER, Source::Pairs(ConfigKind::Sm56), Cell::Reach);
        assert_eq!(reach.measured, "AVG Spart 0.0%, Rollover 0.0%", "a miss is measured");
        for (ablation, line) in [
            (
                Session::ablation_static as fn(&Session) -> Report,
                "- with TB adjustment, - without (- improvement)",
            ),
            (
                Session::ablation_preempt,
                "- with real preemption cost, - with free preemption\noverhead -",
            ),
        ] {
            let body = ablation(&session).body;
            assert!(body.contains(line), "{body}");
        }
    }

    /// One `Bench` session over every experiment `repro all` runs, shared by
    /// the tests that read its output.
    fn bench_all() -> &'static (Vec<(&'static str, String)>, String) {
        static RUN: std::sync::OnceLock<(Vec<(&'static str, String)>, String)> =
            std::sync::OnceLock::new();
        RUN.get_or_init(|| {
            let session = tiny_session();
            let reports = EXPERIMENTS.iter().filter(|e| e.in_all).map(|e| (e.name, session.run(e)));
            (reports.collect(), session.summary())
        })
    }

    #[test]
    fn every_experiment_in_all_measures_something_at_bench_scale() {
        let (_, summary) = bench_all();
        let rows: Vec<&str> = summary.lines().filter(|l| l.starts_with("| ")).skip(1).collect();
        let all: Vec<&Experiment> = EXPERIMENTS.iter().filter(|e| e.in_all).collect();
        assert_eq!(rows.len(), all.len(), "{summary}");
        for (row, e) in rows.iter().zip(all) {
            let prefix = format!("| {} | {} | ", e.title, e.paper);
            let measured = row.strip_prefix(&prefix).and_then(|m| m.strip_suffix(" |"));
            assert!(measured.is_some_and(|m| !m.trim().is_empty()), "{}: {row}", e.name);
        }
        assert!(summary.ends_with("failure digest: all cases completed"), "{summary}");
    }

    /// A journaled `all` prints what an unjournaled one prints, and a second
    /// session over the finished journal prints it again without simulating
    /// a case or measuring an isolated IPC.
    #[test]
    fn a_finished_journal_re_renders_without_simulating() {
        let root = std::env::temp_dir().join(format!("fgqos-journal-all-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let manifest = crate::checkpoint::Manifest {
            experiments: vec!["all".to_string()],
            scale: RunScale::Bench,
            checkpoint_every: crate::checkpoint::DEFAULT_CHECKPOINT_EVERY,
        };
        let run = |session: &Session| {
            let all = select(&manifest.experiments).expect("all");
            let mut printed: Vec<String> = all.into_iter().map(|e| session.run(e)).collect();
            printed.push(session.summary());
            printed
        };
        let (reports, summary) = bench_all();
        let unjournaled: Vec<String> =
            reports.iter().map(|(_, r)| r.clone()).chain([summary.clone()]).collect();
        let journal = CheckpointDir::create(&root, manifest.clone()).expect("journal");
        assert_eq!(run(&Session::journaled(journal)), unjournaled);
        let resumed = Session::journaled(CheckpointDir::open(&root).expect("reopens"));
        assert_eq!(run(&resumed), unjournaled);
        assert_eq!(resumed.iso.misses(), 0, "nothing was measured or simulated");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The goal column of a report's table, without the AVG row.
    fn goal_column(report: &str) -> Vec<&str> {
        let rows = report.lines().skip_while(|l| !l.starts_with('-')).skip(1);
        rows.map_while(|l| l.split_whitespace().next()).filter(|g| *g != "AVG").collect()
    }

    #[test]
    fn goal_tables_end_in_avg_and_dual_goals_share_their_labels() {
        let (reports, _) = bench_all();
        let of = |name: &str| &reports.iter().find(|(n, _)| *n == name).expect("ran").1;
        for name in [
            "fig6a", "fig6b", "fig6c", "fig8a", "fig8b", "fig8c", "fig9", "fig10", "fig11",
            "fig12", "fig13",
        ] {
            let last = of(name).lines().last().expect("a table");
            assert!(last.trim_start().starts_with("AVG"), "{name}:\n{}", of(name));
        }
        let dual = goal_column(of("fig6c"));
        assert_eq!(dual, ["2x25%", "2x50%"]);
        assert_eq!(goal_column(of("fig8c")), dual);
    }

    /// `EXPERIMENTS.md`'s summary is `repro --scale quick all`'s output: it
    /// carries the generator's header and one row per experiment of `all`,
    /// in order, with the registry's title and paper cells.
    #[test]
    fn experiments_md_summary_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
        let start = doc.find(SUMMARY_HEADER).expect("EXPERIMENTS.md has the summary header");
        let mut rows = doc[start + SUMMARY_HEADER.len()..].lines();
        for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
            let row = rows.next().unwrap_or_default();
            let prefix = format!("| {} | {} | ", e.title, e.paper);
            assert!(row.starts_with(&prefix) && row.len() > prefix.len() + 2, "{}: {row}", e.name);
        }
        assert_eq!(rows.next(), Some(""), "no rows beyond the registry's");
    }
}
