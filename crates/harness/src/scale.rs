//! Run scales: trading evaluation fidelity for wall-clock time.
//!
//! The paper simulates 2 M cycles per case (§4.1, accurate past 1 M cycles
//! per \[1\]); with 900 pair-cases per policy that is hours of wall-clock even
//! parallelised. The reduced scales keep the full methodology — same case
//! enumeration, same goal sweeps — but shorten runs and (for `Smoke` /
//! `Bench`) subsample the pair/trio sets.

use qos_core::goals::{paper_dual_goal_fractions, paper_goal_fractions};

/// How big an experiment run should be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Benchmark scale: a handful of cases, tiny cycle budget.
    Bench,
    /// CI / smoke scale: small subsets, minutes of wall-clock.
    Smoke,
    /// Default for `repro`: all cases, reduced cycles (tens of minutes).
    Quick,
    /// The paper's methodology: all cases, 2 M cycles each.
    Paper,
}

impl RunScale {
    /// Parses a scale name (`bench` / `smoke` / `quick` / `paper`).
    pub fn parse(s: &str) -> Option<RunScale> {
        match s.to_ascii_lowercase().as_str() {
            "bench" => Some(RunScale::Bench),
            "smoke" => Some(RunScale::Smoke),
            "quick" => Some(RunScale::Quick),
            "paper" => Some(RunScale::Paper),
            _ => None,
        }
    }

    /// Simulated cycles per case.
    pub fn cycles(self) -> u64 {
        match self {
            RunScale::Bench => 20_000,
            RunScale::Smoke => 120_000,
            RunScale::Quick => 150_000,
            RunScale::Paper => 2_000_000,
        }
    }

    /// Keep every n-th pair/trio of the enumeration (1 = all).
    pub fn case_stride(self) -> usize {
        match self {
            RunScale::Bench => 30,
            RunScale::Smoke => 9,
            RunScale::Quick => 5,
            RunScale::Paper => 1,
        }
    }

    /// Keep every n-th goal of the sweep (1 = all).
    pub fn goal_stride(self) -> usize {
        match self {
            RunScale::Bench => 5,
            RunScale::Smoke => 3,
            RunScale::Quick | RunScale::Paper => 1,
        }
    }

    /// The one-QoS-kernel goal sweep (50%–95%) at this scale's goal stride.
    pub fn goals(self) -> Vec<f64> {
        paper_goal_fractions().into_iter().step_by(self.goal_stride()).collect()
    }

    /// The two-QoS-kernel goal sweep (2×25%–2×70%) at this scale's goal
    /// stride.
    pub fn dual_goals(self) -> Vec<f64> {
        paper_dual_goal_fractions().into_iter().step_by(self.goal_stride()).collect()
    }

    /// Human-readable description printed on every report.
    pub fn describe(self) -> String {
        format!(
            "{self:?} scale: {} cycles/case, every {} case(s), every {} goal(s)",
            self.cycles(),
            self.case_stride(),
            self.goal_stride()
        )
    }
}

gpu_sim::impl_snap_enum!(RunScale {
    Bench = 0,
    Smoke = 1,
    Quick = 2,
    Paper = 3,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for (name, scale) in [
            ("bench", RunScale::Bench),
            ("smoke", RunScale::Smoke),
            ("quick", RunScale::Quick),
            ("PAPER", RunScale::Paper),
        ] {
            assert_eq!(RunScale::parse(name), Some(scale));
        }
        assert_eq!(RunScale::parse("huge"), None);
    }

    #[test]
    fn paper_scale_matches_methodology() {
        assert_eq!(RunScale::Paper.cycles(), 2_000_000);
        assert_eq!(RunScale::Paper.case_stride(), 1);
        assert_eq!(RunScale::Paper.goal_stride(), 1);
    }

    #[test]
    fn scales_are_ordered_by_cost() {
        assert!(RunScale::Bench.cycles() < RunScale::Smoke.cycles());
        assert!(RunScale::Smoke.cycles() < RunScale::Quick.cycles());
        assert!(RunScale::Quick.cycles() < RunScale::Paper.cycles());
    }

    #[test]
    fn describe_mentions_scale() {
        assert!(RunScale::Quick.describe().contains("Quick"));
    }
}
