//! `fgqos-bench compare A.json B.json`: is set B, measured with the same
//! benchmark, no worse than set A?
//!
//! Per workload and end-to-end metric it prints both medians, the ratio
//! B/A, and a verdict against the bound the file carries. Per-layer counts
//! must be bit-identical; per-layer host times are printed for reading only.

use std::fmt::Write as _;

use crate::json::Json;
use crate::output::SCHEMA;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The quartile distance of a side is wider than the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric as one side measured it.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            ((self.q3 - self.q1) / self.value).abs()
        }
    }
}

/// Judges `b` against `a`: how much worse it is as a share of `a`'s median,
/// in the metric's own direction, against `bound`.
pub fn judge(a: Side, b: Side, higher_is_better: bool, bound: f64) -> Verdict {
    let worse_by = if higher_is_better { 1.0 - b.value / a.value } else { b.value / a.value - 1.0 };
    if a.spread() > bound || b.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn side(metric: &Json) -> Option<Side> {
    let num = |k: &str| metric.get(k).and_then(Json::as_f64);
    let value = num("value")?;
    Some(Side { value, q1: num("q1").unwrap_or(value), q3: num("q3").unwrap_or(value) })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match file.get("schema").and_then(Json::as_str) {
        Some(SCHEMA) => Ok(file),
        other => Err(format!("{path}: schema {other:?}, expected {SCHEMA:?}")),
    }
}

fn key(result: &Json) -> (String, u64) {
    (
        result.get("workload").and_then(Json::as_str).unwrap_or("?").to_string(),
        result.get("trace").and_then(Json::as_f64).unwrap_or(0.0) as u64,
    )
}

/// Compares two parsed result files. Returns the printable table and whether
/// B passes: nothing regressed, no count differs, nothing failed or missing.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let mut fail = |out: &mut String, line: String| {
        let _ = writeln!(out, "FAIL {line}");
        pass = false;
    };
    let _ = writeln!(
        out,
        "{:<15} {:<34} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A"
    );
    let results_b = b.get("results").map(Json::items).unwrap_or_default();
    for ra in a.get("results").map(Json::items).unwrap_or_default() {
        let (workload, trace) = key(ra);
        let Some(rb) = results_b.iter().find(|r| key(r) == (workload.clone(), trace)) else {
            fail(&mut out, format!("{workload} trace={trace}: missing from B"));
            continue;
        };
        for (name, r) in [("A", ra), ("B", rb)] {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                fail(&mut out, format!("{workload} trace={trace}: {name} is not a correct result"));
            }
        }
        let failed = |r: &Json| r.get("failed").and_then(Json::as_f64);
        if failed(ra) != failed(rb) {
            fail(&mut out, format!("{workload} trace={trace}: failed operations differ"));
        }
        let metrics_b = rb.get("metrics");
        for (name, ma) in ra.get("metrics").map(Json::members).unwrap_or_default() {
            let sides = side(ma).zip(metrics_b.and_then(|m| m.get(name)).and_then(side));
            let Some((sa, sb)) = sides else {
                fail(&mut out, format!("{workload} {name}: missing from B"));
                continue;
            };
            let ratio = if sa.value == 0.0 { f64::NAN } else { sb.value / sa.value };
            let verdict = if ma.get("exact").and_then(Json::as_bool) == Some(true) {
                if sa.value == sb.value {
                    "same"
                } else {
                    fail(&mut out, format!("{workload} {name}: count differs"));
                    "differs"
                }
            } else if let Some(bound) = ma.get("bound").and_then(Json::as_f64) {
                let higher = ma.get("better").and_then(Json::as_str) == Some("higher");
                let v = judge(sa, sb, higher, bound);
                if v == Verdict::Regressed {
                    fail(&mut out, format!("{workload} {name}: worse by more than {bound}"));
                }
                v.label()
            } else {
                "-"
            };
            let _ = writeln!(
                out,
                "{workload:<15} {name:<34} {:>16.6} {:>16.6} {ratio:>8.4}  {verdict}",
                sa.value, sb.value
            );
        }
    }
    (out, pass)
}

/// The `compare` subcommand: exit code 0 when B passes.
pub fn main(path_a: &str, path_b: &str) -> i32 {
    match load(path_a).and_then(|a| load(path_b).map(|b| (a, b))) {
        Ok((a, b)) => {
            let (table, pass) = compare(&a, &b);
            print!("{table}");
            println!("{}", if pass { "PASS" } else { "FAIL" });
            i32::from(!pass)
        }
        Err(e) => {
            eprintln!("fgqos-bench compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(value: f64) -> Side {
        Side { value, q1: value, q3: value }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(judge(flat(1.0), flat(1.09), false, 0.10), Verdict::Ok);
        assert_eq!(judge(flat(1.0), flat(1.11), false, 0.10), Verdict::Regressed);
        assert_eq!(judge(flat(1.0), flat(0.5), false, 0.10), Verdict::Ok);
        assert_eq!(judge(flat(100.0), flat(91.0), true, 0.10), Verdict::Ok);
        assert_eq!(judge(flat(100.0), flat(89.0), true, 0.10), Verdict::Regressed);
        let wide = Side { value: 1.0, q1: 0.9, q3: 1.1 };
        assert_eq!(judge(wide, flat(2.0), false, 0.10), Verdict::Unresolved);
    }

    fn file(wall: f64, insts: f64) -> Json {
        let text = format!(
            r#"{{"schema": "{SCHEMA}", "results": [{{"workload": "w", "trace": 0, "correct": true,
               "failed": 0, "metrics": {{
                 "wall_s": {{"value": {wall}, "q1": {wall}, "q3": {wall}, "exact": false,
                             "better": "lower", "bound": 0.1}},
                 "sm.warp_insts": {{"value": {insts}, "exact": true}},
                 "gpu.run_s": {{"value": {wall}, "exact": false}}}}}}]}}"#
        );
        Json::parse(&text).expect("test file parses")
    }

    #[test]
    fn compare_passes_equal_sets_and_fails_regressions_and_count_changes() {
        let (table, pass) = compare(&file(1.0, 5.0), &file(1.05, 5.0));
        assert!(pass, "{table}");
        assert!(table.contains("ok") && table.contains("same"));
        let (table, pass) = compare(&file(1.0, 5.0), &file(1.2, 5.0));
        assert!(!pass && table.contains("regressed"), "{table}");
        let (table, pass) = compare(&file(1.0, 5.0), &file(1.0, 6.0));
        assert!(!pass && table.contains("differs"), "{table}");
        let empty =
            Json::parse(&format!(r#"{{"schema": "{SCHEMA}", "results": []}}"#)).expect("parses");
        assert!(!compare(&file(1.0, 5.0), &empty).1, "a missing workload fails");
    }
}
