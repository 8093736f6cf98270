//! The metric tables (names, units, direction, regression bounds) and the
//! order statistics every reported number goes through.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a unit test
//! keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator pays or gets.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports all of these, from the untraced run.
///
/// `failed_ops_frac` of the issue is not in this table because a metric here
/// must never be 0: failed and attempted operations are the `failed` and
/// `attempted` fields of every result instead, and any failure makes the
/// result incorrect.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "wall_s", unit: "s", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "cpu_s", unit: "s", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "sim_cycles_per_s", unit: "cycles/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "ops_per_s", unit: "ops/s", better: Better::Higher, bound: 0.20 },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.25 },
];

/// A per-layer metric. `exact` ones are simulated statistics or work counts
/// read from the layers' own registries: they must repeat bit for bit
/// between passes, runs and commits that only change speed. The others are
/// host times taken from the benchmark's spans.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: true }
}

const fn host(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, exact: false }
}

/// Every traced run reports all of these; a metric whose layer a workload
/// does not reach reads 0 there.
pub const PER_LAYER: [PerLayer; 67] = [
    host("gpu.new_us", "us"),
    host("gpu.launch_us", "us"),
    host("gpu.run_s", "s"),
    count("gpu.ticks_executed", "cycles"),
    count("gpu.ff_skipped_frac", "fraction"),
    host("gpu.host_ns_per_tick", "ns"),
    count("gpu.stat_digest48", "count"),
    count("sm.warp_insts", "count"),
    count("sm.issue_slots", "count"),
    count("sm.issue_util", "fraction"),
    count("sm.busy_cycles", "cycles"),
    count("sm.quota_blocked_cycles", "cycles"),
    count("sm.scoreboard_wait_samples", "count"),
    host("sm.host_ns_per_warp_inst", "ns"),
    count("memsys.l1_accesses", "count"),
    count("memsys.l1_hit_rate", "fraction"),
    count("memsys.l2_accesses", "count"),
    count("memsys.l2_hit_rate", "fraction"),
    count("memsys.dram_accesses", "count"),
    count("memsys.l2_wait_cycles", "cycles"),
    count("memsys.dram_wait_cycles", "cycles"),
    count("memsys.dram_peak_wait_cycles", "cycles"),
    host("memsys.serve_ns_per_line.l2hit", "ns"),
    host("memsys.serve_ns_per_line.dram", "ns"),
    host("cache.access_ns.hit", "ns"),
    host("cache.access_ns.miss", "ns"),
    host("dram.queue_serve_ns", "ns"),
    host("memsys.host_share_est", "fraction"),
    count("tb_sched.preempt_saves", "count"),
    count("tb_sched.preempt_resumes", "count"),
    count("tb_sched.preempt_transfer_cycles", "cycles"),
    count("qos_core.on_epoch_calls", "count"),
    host("qos_core.on_epoch_us_total", "us"),
    host("qos_core.on_epoch_us_p50", "us"),
    count("qos_core.goal_miss_frac", "fraction"),
    count("qos_core.quota_exhaustions", "count"),
    count("qos_core.qos_reach", "fraction"),
    count("qos_core.nonqos_norm_tput", "fraction"),
    host("snap.snapshot_us", "us"),
    host("snap.to_bytes_us", "us"),
    host("snap.from_bytes_us", "us"),
    host("snap.restore_us", "us"),
    count("snap.blob_bytes", "bytes"),
    host("snap.encode_mib_per_s", "MiB/s"),
    host("snap.decode_mib_per_s", "MiB/s"),
    count("harness.cases", "count"),
    host("harness.iso_ipc_s", "s"),
    host("harness.prepare_case_us", "us"),
    host("harness.case_run_ms_p50", "ms"),
    host("harness.case_run_ms_max", "ms"),
    host("harness.finish_case_us", "us"),
    host("exec.cpu_utilization", "fraction"),
    host("workloads.build_us", "us"),
    host("fleet.new_us", "us"),
    count("fleet.ticks", "count"),
    host("fleet.step_us_p50", "us"),
    host("fleet.step_us_p98", "us"),
    host("fleet.snapshot_us", "us"),
    count("fleet.requests_done", "count"),
    count("fleet.requests_shed", "count"),
    count("fleet.migrated", "count"),
    count("fleet.lost", "count"),
    count("fleet.latency_p99_cycles", "cycles"),
    host("bench.trace_overhead_frac", "fraction"),
    host("bench.wall_iqr_frac", "fraction"),
    host("bench.iters", "count"),
    host("bench.host_speed", "fraction"),
];

/// One reported number with its spread.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    /// The median of the samples (or the single value).
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Number of samples behind `value`.
    pub n: usize,
    pub exact: bool,
}

impl Measured {
    pub fn single(name: &'static str, unit: &'static str, value: f64, exact: bool) -> Self {
        Measured { name, unit, value, q1: value, q3: value, n: 1, exact }
    }

    pub fn from_samples(name: &'static str, unit: &'static str, samples: &[f64]) -> Self {
        let (q1, q3) = quartiles(samples);
        Measured { name, unit, value: median(samples), q1, q3, n: samples.len(), exact: false }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn iqr_frac(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), so spreads printed here can be
/// checked against the acceptance rule directly. Fewer than two samples
/// have no spread: both quartiles are the sample.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let v = sorted(samples);
    let len = v.len();
    if len < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The `p`-th percentile by nearest rank (`p` in 0..=100); 0 when empty.
pub fn percentile(samples: &[f64], p: usize) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len()).div_ceil(100).clamp(1, v.len());
    v[rank - 1]
}

/// Whether `name` is made only of the characters the result schema allows.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_match_the_reference_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 98), 10.0);
        assert_eq!(percentile(&[], 50), 0.0);
    }

    #[test]
    fn metric_names_are_schema_clean_and_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "metric names must be unique");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(!valid_name("has space") && !valid_name("") && !valid_name(".x"));
    }
}
