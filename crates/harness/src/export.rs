//! Exporting case results as CSV for external analysis/plotting.
//!
//! The `repro` reports are human-oriented tables; this module serializes raw
//! [`CaseResult`]s so the figures can be re-plotted (or re-analysed) outside
//! Rust. One row per *kernel* per case keeps the format flat and
//! spreadsheet-friendly.
//!
//! All on-disk artifacts (CSVs, reports, golden traces, checkpoints) go
//! through [`write_atomic`], so a crash mid-write — the exact scenario the
//! checkpoint subsystem recovers from — can never leave a torn file under
//! the final name.

use std::fmt::Write as _;
use std::path::Path;

use gpu_sim::snap::frame::write_atomic;

use crate::metrics::CaseResult;

/// Serializes `results` to CSV and writes the file atomically.
///
/// # Errors
///
/// Propagates filesystem errors from [`write_atomic`].
pub fn write_csv(path: &Path, results: &[CaseResult]) -> std::io::Result<()> {
    write_atomic(path, to_csv(results).as_bytes())
}

/// Writes a rendered report atomically.
///
/// # Errors
///
/// Propagates filesystem errors from [`write_atomic`].
pub fn write_report(path: &Path, report: &str) -> std::io::Result<()> {
    write_atomic(path, report.as_bytes())
}

/// CSV header matching [`to_csv`]'s row layout.
pub const CSV_HEADER: &str = "policy,config,cycles,case_kernels,goal_kernel,kernel,slot,\
                              is_qos,goal_frac,goal_ipc,ipc,isolated_ipc,reached,\
                              nonqos_normalized,insts_per_energy,preemption_saves";

/// Serializes results to CSV (header + one row per kernel per case).
pub fn to_csv(results: &[CaseResult]) -> String {
    let mut out = String::with_capacity(results.len() * 128 + CSV_HEADER.len());
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in results {
        let case_kernels = r.spec.kernels.join("+");
        for (slot, name) in r.spec.kernels.iter().enumerate() {
            let goal_frac = r.spec.goal_fracs[slot];
            let _ = writeln!(
                out,
                "{},{:?},{},{},{},{},{},{},{},{},{:.4},{:.4},{},{:.4},{:.6},{}",
                r.spec.policy.label(),
                r.spec.config,
                r.spec.cycles,
                case_kernels,
                r.spec.kernels[0],
                name,
                slot,
                goal_frac.is_some(),
                goal_frac.map(|f| format!("{f:.2}")).unwrap_or_default(),
                r.goal_ipc[slot].map(|g| format!("{g:.2}")).unwrap_or_default(),
                r.ipc[slot],
                r.isolated_ipc[slot],
                r.kernel_reached(slot),
                r.nonqos_normalized(),
                r.insts_per_energy,
                r.preemption_saves,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::{CaseSpec, Policy};
    use qos_core::QuotaScheme;

    fn sample() -> CaseResult {
        CaseResult {
            spec: CaseSpec::new(
                &["sgemm", "lbm"],
                &[Some(0.7), None],
                Policy::Quota(QuotaScheme::Rollover),
                1_000,
            ),
            ipc: vec![700.0, 40.0],
            isolated_ipc: vec![1_000.0, 120.0],
            goal_ipc: vec![Some(700.0), None],
            insts_per_energy: 1.5,
            preemption_saves: 4,
            trace_hash: 0,
        }
    }

    #[test]
    fn one_row_per_kernel_plus_header() {
        let csv = to_csv(&[sample()]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("policy,"));
        assert!(lines[1].contains("Rollover"));
        assert!(lines[1].contains("sgemm+lbm"));
        assert!(lines[1].contains(",true,0.70,"));
        assert!(lines[2].contains(",lbm,1,false,,,"));
    }

    #[test]
    fn column_count_is_consistent() {
        let csv = to_csv(&[sample()]);
        let header_cols = CSV_HEADER.replace(char::is_whitespace, "").split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_cols, "row has wrong column count: {line}");
        }
    }

    #[test]
    fn empty_results_yield_header_only() {
        let csv = to_csv(&[]);
        assert_eq!(csv.lines().count(), 1);
    }
}
