//! Result records and the paper's evaluation metrics.

use crate::cases::CaseSpec;

/// Outcome of one simulated case.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseResult {
    /// The case that was run.
    pub spec: CaseSpec,
    /// Per-kernel achieved thread-level IPC.
    pub ipc: Vec<f64>,
    /// Per-kernel isolated IPC (same config and cycle budget).
    pub isolated_ipc: Vec<f64>,
    /// Per-kernel absolute IPC goal (`None` = best-effort).
    pub goal_ipc: Vec<Option<f64>>,
    /// Total thread instructions per unit energy (Fig. 14 metric).
    pub insts_per_energy: f64,
    /// Number of TB context saves performed.
    pub preemption_saves: u64,
    /// [`gpu_sim::trace::records_hash`] over the case's epoch-record stream:
    /// a bit-exact fingerprint of its entire telemetry, used by the
    /// determinism tests to prove parallel sweeps reproduce serial ones.
    pub trace_hash: u64,
}

impl CaseResult {
    /// Whether kernel `k` met its goal (best-effort kernels trivially do).
    pub fn kernel_reached(&self, k: usize) -> bool {
        match self.goal_ipc[k] {
            Some(goal) => self.ipc[k] >= goal,
            None => true,
        }
    }

    /// Whether every QoS kernel met its goal — the unit of `QoSreach`.
    pub fn success(&self) -> bool {
        (0..self.ipc.len()).all(|k| self.kernel_reached(k))
    }

    /// Relative miss distance of the worst QoS kernel: `(goal − ipc)/goal`,
    /// negative when all goals are met.
    pub fn worst_miss(&self) -> f64 {
        self.goal_ipc
            .iter()
            .zip(&self.ipc)
            .filter_map(|(goal, &ipc)| goal.map(|g| (g - ipc) / g))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean overshoot of QoS kernels relative to their goals (Fig. 9
    /// metric): `ipc / goal`, averaged.
    pub fn qos_overshoot(&self) -> f64 {
        let ratios: Vec<f64> = self
            .goal_ipc
            .iter()
            .zip(&self.ipc)
            .filter_map(|(goal, &ipc)| goal.map(|g| ipc / g))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }

    /// Mean throughput of non-QoS kernels normalized to isolated execution
    /// (Fig. 8 metric).
    pub fn nonqos_normalized(&self) -> f64 {
        let ratios: Vec<f64> = self
            .goal_ipc
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_none())
            .map(|(k, _)| self.ipc[k] / self.isolated_ipc[k].max(1e-9))
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            ratios.iter().sum::<f64>() / ratios.len() as f64
        }
    }
}

/// `QoSreach`: fraction of cases whose QoS goals were all reached (§4.1).
pub fn qos_reach<'a, I: IntoIterator<Item = &'a CaseResult>>(results: I) -> f64 {
    let mut total = 0usize;
    let mut ok = 0usize;
    for r in results {
        total += 1;
        ok += usize::from(r.success());
    }
    if total == 0 {
        0.0
    } else {
        ok as f64 / total as f64
    }
}

/// Mean of a metric over a result set; 0 for an empty set.
pub fn mean<'a, I, F>(results: I, f: F) -> f64
where
    I: IntoIterator<Item = &'a CaseResult>,
    F: Fn(&CaseResult) -> f64,
{
    let mut sum = 0.0;
    let mut n = 0usize;
    for r in results {
        sum += f(r);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Fig. 5's miss-distance buckets: 0-1%, 1-5%, 5-10%, 10-20%, 20+%.
pub const MISS_BUCKETS: [&str; 5] = ["0-1%", "1-5%", "5-10%", "10-20%", "20+%"];

/// Classifies a failed case into its Fig. 5 bucket; `None` if the case met
/// its goals.
pub fn miss_bucket(result: &CaseResult) -> Option<usize> {
    if result.success() {
        return None;
    }
    let miss = result.worst_miss();
    Some(match miss {
        m if m <= 0.01 => 0,
        m if m <= 0.05 => 1,
        m if m <= 0.10 => 2,
        m if m <= 0.20 => 3,
        _ => 4,
    })
}

gpu_sim::impl_snap_struct!(CaseResult {
    spec,
    ipc,
    isolated_ipc,
    goal_ipc,
    insts_per_energy,
    preemption_saves,
    trace_hash,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{CaseSpec, Policy};
    use qos_core::QuotaScheme;

    fn result(ipc: Vec<f64>, goals: Vec<Option<f64>>, iso: Vec<f64>) -> CaseResult {
        let n = ipc.len();
        CaseResult {
            spec: CaseSpec::new(
                &vec!["sgemm"; n],
                &goals,
                Policy::Quota(QuotaScheme::Rollover),
                1_000,
            ),
            ipc,
            isolated_ipc: iso,
            goal_ipc: goals,
            insts_per_energy: 1.0,
            preemption_saves: 0,
            trace_hash: 0,
        }
    }

    #[test]
    fn success_requires_every_qos_kernel() {
        let ok = result(vec![100.0, 50.0], vec![Some(90.0), None], vec![120.0, 100.0]);
        assert!(ok.success());
        let miss = result(vec![80.0, 50.0], vec![Some(90.0), None], vec![120.0, 100.0]);
        assert!(!miss.success());
        assert!(miss.kernel_reached(1), "best-effort kernels always count as reached");
    }

    #[test]
    fn qos_reach_is_a_fraction() {
        let a = result(vec![100.0], vec![Some(90.0)], vec![120.0]);
        let b = result(vec![80.0], vec![Some(90.0)], vec![120.0]);
        let reach = qos_reach([&a, &b]);
        assert!((reach - 0.5).abs() < 1e-12);
        assert_eq!(qos_reach([]), 0.0);
    }

    #[test]
    fn worst_miss_and_buckets() {
        let m3 = result(vec![87.0], vec![Some(90.0)], vec![120.0]);
        assert!((m3.worst_miss() - 3.0 / 90.0).abs() < 1e-12);
        assert_eq!(miss_bucket(&m3), Some(1), "3.3% miss lands in 1-5%");
        let big = result(vec![50.0], vec![Some(90.0)], vec![120.0]);
        assert_eq!(miss_bucket(&big), Some(4));
        let ok = result(vec![95.0], vec![Some(90.0)], vec![120.0]);
        assert_eq!(miss_bucket(&ok), None);
    }

    #[test]
    fn overshoot_ratio() {
        let r = result(vec![99.0, 10.0], vec![Some(90.0), None], vec![120.0, 100.0]);
        assert!((r.qos_overshoot() - 1.1).abs() < 1e-12);
    }

    #[test]
    fn nonqos_normalization() {
        let r = result(vec![100.0, 40.0], vec![Some(90.0), None], vec![120.0, 80.0]);
        assert!((r.nonqos_normalized() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_helper() {
        let a = result(vec![100.0], vec![Some(90.0)], vec![120.0]);
        let b = result(vec![80.0], vec![Some(90.0)], vec![120.0]);
        let m = mean([&a, &b], |r| r.ipc[0]);
        assert!((m - 90.0).abs() < 1e-12);
    }

    #[test]
    fn two_qos_kernel_case_uses_worst() {
        let r = result(
            vec![95.0, 80.0, 10.0],
            vec![Some(90.0), Some(90.0), None],
            vec![120.0, 120.0, 100.0],
        );
        assert!(!r.success());
        assert!((r.worst_miss() - 10.0 / 90.0).abs() < 1e-12);
    }
}
