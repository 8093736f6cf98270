//! The quota-allocation schemes of §3.4 and their carry-over semantics.

use gpu_sim::sm::QuotaCarry;

/// Which quota-allocation scheme the [`crate::QosManager`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuotaScheme {
    /// §3.4.1 — fixed quota each epoch, surplus discarded, no history
    /// adjustment.
    Naive,
    /// §3.4.2 — Naïve plus the history-based multiplier `α`.
    NaiveHistory,
    /// §3.4.3 — elastic epochs: a new epoch starts early once all kernels
    /// exhaust their quotas (with history adjustment).
    Elastic,
    /// §3.4.4 — unused QoS quota rolls over to the next epoch (with history
    /// adjustment). The paper's best scheme.
    Rollover,
    /// §4.5 — Rollover quotas with CPU-style prioritisation: non-QoS kernels
    /// are blocked while QoS kernels still hold quota.
    RolloverTime,
}

impl QuotaScheme {
    /// All schemes, in presentation order.
    pub const ALL: [QuotaScheme; 5] = [
        QuotaScheme::Naive,
        QuotaScheme::NaiveHistory,
        QuotaScheme::Elastic,
        QuotaScheme::Rollover,
        QuotaScheme::RolloverTime,
    ];

    /// Display name used in reports (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            QuotaScheme::Naive => "Naive",
            QuotaScheme::NaiveHistory => "Naive+History",
            QuotaScheme::Elastic => "Elastic",
            QuotaScheme::Rollover => "Rollover",
            QuotaScheme::RolloverTime => "Rollover-Time",
        }
    }

    /// Whether the history-based `α` adjustment applies.
    pub fn history_adjusted(self) -> bool {
        !matches!(self, QuotaScheme::Naive)
    }

    /// Carry-over rule for QoS kernels' quota counters.
    pub fn qos_carry(self) -> QuotaCarry {
        match self {
            QuotaScheme::Rollover | QuotaScheme::RolloverTime => QuotaCarry::Full,
            _ => QuotaCarry::DiscardSurplus,
        }
    }

    /// Whether SMs run in elastic-epoch mode.
    pub fn elastic(self) -> bool {
        matches!(self, QuotaScheme::Elastic)
    }

    /// Whether non-QoS kernels are blocked while QoS quota remains.
    pub fn priority_block(self) -> bool {
        matches!(self, QuotaScheme::RolloverTime)
    }
}

/// Cap on the history multiplier `α`: it keeps the first epochs, when the
/// measured history is still tiny, from handing a kernel the whole machine.
pub const DEFAULT_ALPHA_CAP: f64 = 8.0;

/// The history-based quota multiplier (§3.4.2):
/// `α = max(IPC_goal / IPC_history, 1)`, clamped to [`DEFAULT_ALPHA_CAP`].
pub fn alpha(goal_ipc: f64, history_ipc: f64) -> f64 {
    if history_ipc <= 0.0 {
        return DEFAULT_ALPHA_CAP;
    }
    (goal_ipc / history_ipc).clamp(1.0, DEFAULT_ALPHA_CAP)
}

/// Per-epoch quota in thread-instructions (§3.4.1, eq. 1):
/// `Quota = α × IPC_goal × T_epoch`.
pub fn epoch_quota(goal_ipc: f64, alpha: f64, epoch_cycles: u64) -> u64 {
    (alpha * goal_ipc * epoch_cycles as f64).round().max(0.0) as u64
}

/// Splits a GPU-wide quota across SMs proportionally to the TBs each hosts
/// (§3.4.1): SM *i* receives `quota × tbs_i / total`.
///
/// Rounding keeps the invariant `Σ parts = quota` (remainders go to the
/// SMs with the largest fractional share) so no quota is created or lost.
pub fn distribute_quota(quota: u64, hosted_tbs: &[u32]) -> Vec<u64> {
    let total: u64 = hosted_tbs.iter().map(|&t| u64::from(t)).sum();
    if total == 0 {
        return vec![0; hosted_tbs.len()];
    }
    let mut parts: Vec<u64> = Vec::with_capacity(hosted_tbs.len());
    let mut fractions: Vec<(usize, u64)> = Vec::with_capacity(hosted_tbs.len());
    let mut assigned = 0u64;
    for (i, &tbs) in hosted_tbs.iter().enumerate() {
        let exact = quota as u128 * u128::from(tbs);
        let floor = (exact / u128::from(total)) as u64;
        let rem = (exact % u128::from(total)) as u64;
        parts.push(floor);
        fractions.push((i, rem));
        assigned += floor;
    }
    let mut leftover = quota - assigned;
    fractions.sort_by_key(|&(_, rem)| std::cmp::Reverse(rem));
    for (i, _) in fractions {
        if leftover == 0 {
            break;
        }
        parts[i] += 1;
        leftover -= 1;
    }
    parts
}

gpu_sim::impl_snap_enum!(QuotaScheme {
    Naive = 0,
    NaiveHistory = 1,
    Elastic = 2,
    Rollover = 3,
    RolloverTime = 4,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<&str> =
            QuotaScheme::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), QuotaScheme::ALL.len());
    }

    #[test]
    fn scheme_flags_match_paper() {
        assert!(!QuotaScheme::Naive.history_adjusted());
        assert!(QuotaScheme::Rollover.history_adjusted());
        assert_eq!(QuotaScheme::Rollover.qos_carry(), QuotaCarry::Full);
        assert_eq!(QuotaScheme::Naive.qos_carry(), QuotaCarry::DiscardSurplus);
        assert_eq!(QuotaScheme::Elastic.qos_carry(), QuotaCarry::DiscardSurplus);
        assert!(QuotaScheme::Elastic.elastic());
        assert!(!QuotaScheme::Rollover.elastic());
        assert!(QuotaScheme::RolloverTime.priority_block());
        assert!(!QuotaScheme::Rollover.priority_block());
    }

    #[test]
    fn alpha_matches_paper_example() {
        // §3.4.2: goal 125, history 100 -> α = 1.25.
        assert!((alpha(125.0, 100.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn alpha_never_below_one_and_capped() {
        assert_eq!(alpha(100.0, 200.0), 1.0, "ahead of goal: no scaling");
        assert_eq!(alpha(100.0, 1.0), DEFAULT_ALPHA_CAP, "cap limits early blow-up");
        assert_eq!(alpha(100.0, 0.0), DEFAULT_ALPHA_CAP, "zero history hits the cap");
    }

    #[test]
    fn epoch_quota_formula() {
        assert_eq!(epoch_quota(100.0, 1.0, 10_000), 1_000_000);
        assert_eq!(epoch_quota(100.0, 1.25, 10_000), 1_250_000);
        assert_eq!(epoch_quota(0.0, 1.0, 10_000), 0);
    }

    #[test]
    fn distribution_is_proportional_and_conserving() {
        let parts = distribute_quota(1_000, &[2, 2, 4]);
        assert_eq!(parts, vec![250, 250, 500]);
        let parts = distribute_quota(1_000, &[3, 3, 3]);
        assert_eq!(parts.iter().sum::<u64>(), 1_000, "rounding must conserve");
        for &p in &parts {
            assert!((333..=334).contains(&p));
        }
    }

    #[test]
    fn distribution_with_no_tbs_is_zero() {
        assert_eq!(distribute_quota(1_000, &[0, 0]), vec![0, 0]);
    }

    #[test]
    fn distribution_skips_empty_sms() {
        let parts = distribute_quota(900, &[3, 0, 6]);
        assert_eq!(parts[1], 0);
        assert_eq!(parts[0], 300);
        assert_eq!(parts[2], 600);
    }
}
