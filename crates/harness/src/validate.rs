//! `repro validate` — trace-replay correlation against committed expectations.
//!
//! The validation harness replays the committed FGTR corpus under
//! `tests/golden/validate/` — one trace per synthetic Parboil model — on the
//! canonical tiny configuration under the rollover QoS manager, extracts one
//! scalar per metric per kernel from the counter registries and the epoch
//! telemetry, and correlates the replayed vector against the committed
//! expectations (Pearson's r across kernels, per metric). The run passes only
//! if every metric correlates at [`CORR_THRESHOLD`] or better **and** no
//! kernel's value drifts by more than [`MAX_REL_ERR`] relative error — the
//! second gate catches uniform shifts (e.g. a changed epoch length scaling
//! every quota grant) that leave correlation near 1.
//!
//! This is the same methodology simulator validation papers use to compare a
//! model against hardware, turned inward: the "hardware" is the committed
//! expectation corpus, so any change to scheduling, quota accounting, the
//! memory system, or the trace codec that shifts replayed behaviour fails
//! loudly with a correlation table. Regenerate after an intentional change
//! with `repro validate --bless` (or `--recapture` if the traces themselves
//! must be re-recorded); bless refuses to run when the on-disk corpus was
//! written by a different trace schema version.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use gpu_sim::trace::Tracer;
use gpu_sim::{CounterEntry, CounterScope, Gpu, GpuConfig};
use qos_core::{QosManager, QosSpec, QuotaScheme};
use trace::{KernelTrace, TRACE_SCHEMA_VERSION};
use workloads::TraceLibrary;

/// Simulated cycles each replay runs. Long enough past the capture window
/// that every corpus kernel reaches steady state on the tiny machine.
pub const VALIDATE_CYCLES: u64 = 12_000;

/// Minimum acceptable per-metric Pearson correlation across kernels.
pub const CORR_THRESHOLD: f64 = 0.99;

/// Maximum acceptable per-kernel relative error on any metric.
pub const MAX_REL_ERR: f64 = 0.01;

/// The validated metrics, in table and expectation-file order.
pub const METRICS: [&str; 5] = ["ipc", "residency", "quota_grants", "l1_hit_rate", "l2_hit_rate"];

/// The directory holding the trace corpus and its expectations:
/// `tests/golden/validate/` at the repo root.
#[must_use]
pub fn validate_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/validate"))
}

/// The committed expectations file.
#[must_use]
pub fn expectations_path() -> PathBuf {
    expectations_in(&validate_dir())
}

/// The expectations file inside an arbitrary corpus directory.
#[must_use]
pub fn expectations_in(dir: &Path) -> PathBuf {
    dir.join("expectations.json")
}

/// One kernel's replayed metric vector, aligned with [`METRICS`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelMetrics {
    /// Kernel name (the trace's `meta.name`).
    pub name: String,
    /// Metric values in [`METRICS`] order.
    pub values: [f64; METRICS.len()],
}

fn machine_counter(reg: &[CounterEntry], name: &str) -> f64 {
    reg.iter()
        .find(|e| e.name == name && e.scope == CounterScope::Machine)
        .map_or(0.0, |e| e.value as f64)
}

fn sm_counter_sum(reg: &[CounterEntry], name: &str) -> f64 {
    reg.iter()
        .filter(|e| e.name == name && matches!(e.scope, CounterScope::Sm(_)))
        .map(|e| e.value as f64)
        .sum()
}

fn kernel_counter(reg: &[CounterEntry], name: &str, k: usize) -> f64 {
    reg.iter()
        .find(|e| e.name == name && e.scope == CounterScope::Kernel(k))
        .map_or(0.0, |e| e.value as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replays one trace solo under the rollover QoS manager on `cfg` and
/// extracts its metric vector from the counter registries and the epoch
/// telemetry. Deterministic: same trace, same config, same vector.
#[must_use]
pub fn replay_metrics(kt: &KernelTrace, cfg: &GpuConfig) -> KernelMetrics {
    let mut gpu = Gpu::new(cfg.clone());
    let k = gpu.launch(kt.kernel());
    let mut ctrl =
        Tracer::new(QosManager::new(QuotaScheme::Rollover).with_kernel(k, QosSpec::qos(40.0)));
    gpu.run(VALIDATE_CYCLES, &mut ctrl);
    let (manager, records) = ctrl.into_parts();
    let reg = gpu.counter_registry();
    let qos = manager.counter_registry();

    let ipc = ratio(kernel_counter(&reg, "thread_insts", 0), machine_counter(&reg, "cycle"));
    let residency = if records.is_empty() {
        0.0
    } else {
        records.iter().map(|r| f64::from(r.kernels[0].hosted_tbs)).sum::<f64>()
            / records.len() as f64
    };
    let quota_grants = kernel_counter(&qos, "qos_quota_granted_insts", 0);
    let l1_hits = sm_counter_sum(&reg, "l1_hits");
    let l1_hit_rate = ratio(l1_hits, l1_hits + sm_counter_sum(&reg, "l1_misses"));
    let l2_hits = machine_counter(&reg, "l2_hits");
    let l2_hit_rate = ratio(l2_hits, l2_hits + machine_counter(&reg, "l2_misses"));

    KernelMetrics {
        name: kt.meta.name.clone(),
        values: [ipc, residency, quota_grants, l1_hit_rate, l2_hit_rate],
    }
}

/// Pearson's r between two equal-length series.
///
/// A zero-variance series has no defined correlation; validation wants
/// "unchanged" to pass and "changed" to fail, so two bitwise-identical
/// degenerate series correlate at 1 and anything else at 0.
#[must_use]
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "correlating unequal series");
    let n = xs.len() as f64;
    if xs.is_empty() {
        return 0.0;
    }
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx) * (x - mx);
        syy += (y - my) * (y - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        let identical = xs.iter().zip(ys).all(|(x, y)| x.to_bits() == y.to_bits());
        return if identical { 1.0 } else { 0.0 };
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// The committed per-kernel metric expectations.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectations {
    /// Per-kernel metric vectors, sorted by kernel name.
    pub kernels: Vec<KernelMetrics>,
}

/// Renders expectations as the canonical JSON document. Floats are written
/// twice: human-readable (shortest round-trip) and as raw IEEE bits, which
/// is what the parser reads back, so the round trip is bit-exact.
#[must_use]
pub fn render_expectations(kernels: &[KernelMetrics]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"trace_schema_version\": {TRACE_SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"cycles\": {VALIDATE_CYCLES},");
    out.push_str("  \"kernels\": [\n");
    for (i, k) in kernels.iter().enumerate() {
        let fields = METRICS
            .iter()
            .zip(k.values)
            .map(|(m, v)| format!("\"{m}\": {v}, \"{m}_bits\": {}", v.to_bits()))
            .collect::<Vec<_>>()
            .join(", ");
        let comma = if i + 1 == kernels.len() { "" } else { "," };
        let _ = writeln!(out, "    {{\"name\": \"{}\", {fields}}}{comma}", k.name);
    }
    out.push_str("  ]\n}\n");
    out
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    Some(&rest[..rest.find('"')?])
}

/// Parses an expectations document written by [`render_expectations`].
///
/// # Errors
///
/// Human-readable description of the first malformed line or header field.
pub fn parse_expectations(doc: &str) -> Result<Expectations, String> {
    let header = doc
        .lines()
        .find_map(|l| field_u64(l, "trace_schema_version"))
        .ok_or("expectations file lacks a trace_schema_version header")?;
    if header != u64::from(TRACE_SCHEMA_VERSION) {
        return Err(format!(
            "expectations were blessed for trace schema v{header}, \
             this build writes v{TRACE_SCHEMA_VERSION}; re-bless the corpus"
        ));
    }
    let mut kernels = Vec::new();
    for line in doc.lines().filter(|l| l.contains("\"name\": \"")) {
        let name = field_str(line, "name").ok_or_else(|| format!("malformed line: {line}"))?;
        let mut values = [0.0; METRICS.len()];
        for (slot, metric) in values.iter_mut().zip(METRICS) {
            let bits = field_u64(line, &format!("{metric}_bits"))
                .ok_or_else(|| format!("kernel {name:?} lacks {metric}_bits"))?;
            *slot = f64::from_bits(bits);
        }
        kernels.push(KernelMetrics { name: name.to_string(), values });
    }
    if kernels.is_empty() {
        return Err("expectations file lists no kernels".to_string());
    }
    Ok(Expectations { kernels })
}

/// One metric's row of the correlation table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRow {
    /// Metric name from [`METRICS`].
    pub metric: &'static str,
    /// Pearson's r across kernels.
    pub corr: f64,
    /// Worst per-kernel relative error.
    pub max_rel_err: f64,
    /// Kernel with the worst relative error.
    pub worst_kernel: String,
    /// Whether this metric passes both gates.
    pub pass: bool,
}

/// The full validation outcome: one row per metric plus the rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-metric correlation rows, in [`METRICS`] order.
    pub rows: Vec<MetricRow>,
    /// Kernels validated, in corpus order.
    pub kernels: Vec<String>,
}

impl ValidationReport {
    /// Whether every metric passed both gates.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Renders the human-readable correlation table (the command's stdout).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace-replay validation: {} kernels x {} metrics, {} cycles each",
            self.kernels.len(),
            self.rows.len(),
            VALIDATE_CYCLES
        );
        let _ = writeln!(out, "kernels: {}", self.kernels.join(" "));
        out.push('\n');
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>13}  {:<10} status",
            "metric", "corr", "max_rel_err", "worst"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<14} {:>10.6} {:>13.3e}  {:<10} {}",
                r.metric,
                r.corr,
                r.max_rel_err,
                r.worst_kernel,
                if r.pass { "ok" } else { "FAIL" }
            );
        }
        out.push('\n');
        let _ = writeln!(
            out,
            "overall: {} (gates: corr >= {CORR_THRESHOLD}, rel err <= {MAX_REL_ERR})",
            if self.ok() { "PASS" } else { "FAIL" }
        );
        out
    }
}

/// Correlates replayed metrics against expectations, metric by metric.
///
/// # Errors
///
/// A kernel-set mismatch between the corpus and the expectations file.
pub fn correlate(
    actual: &[KernelMetrics],
    expected: &Expectations,
) -> Result<ValidationReport, String> {
    let names: Vec<&str> = actual.iter().map(|k| k.name.as_str()).collect();
    let expected_names: Vec<&str> = expected.kernels.iter().map(|k| k.name.as_str()).collect();
    if names != expected_names {
        return Err(format!(
            "kernel sets differ\n  corpus:       {}\n  expectations: {}\n\
             re-bless with: repro validate --bless",
            names.join(" "),
            expected_names.join(" ")
        ));
    }
    let mut rows = Vec::new();
    for (m, metric) in METRICS.iter().enumerate() {
        let xs: Vec<f64> = actual.iter().map(|k| k.values[m]).collect();
        let ys: Vec<f64> = expected.kernels.iter().map(|k| k.values[m]).collect();
        let corr = pearson(&xs, &ys);
        let (worst_kernel, max_rel_err) = xs
            .iter()
            .zip(&ys)
            .zip(&names)
            .map(|((&x, &y), &name)| {
                let scale = y.abs().max(1e-12);
                (name, (x - y).abs() / scale)
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(("", 0.0), |(n, e)| (n, e));
        rows.push(MetricRow {
            metric,
            corr,
            max_rel_err,
            worst_kernel: worst_kernel.to_string(),
            pass: corr >= CORR_THRESHOLD && max_rel_err <= MAX_REL_ERR,
        });
    }
    Ok(ValidationReport { rows, kernels: names.iter().map(|n| n.to_string()).collect() })
}

fn load_corpus(dir: &Path) -> Result<TraceLibrary, String> {
    let lib = TraceLibrary::load_dir(dir)
        .map_err(|e| format!("cannot load trace corpus from {}: {e}", dir.display()))?;
    if lib.is_empty() {
        return Err(format!(
            "no .fgtr traces under {}; seed the corpus with: repro validate --recapture",
            dir.display()
        ));
    }
    Ok(lib)
}

/// Loads the corpus under `dir`, replays it on `cfg`, and correlates
/// against the expectations file beside it.
///
/// # Errors
///
/// A missing/corrupt corpus or expectations file, or a kernel-set mismatch.
pub fn run_validation_in(dir: &Path, cfg: &GpuConfig) -> Result<ValidationReport, String> {
    let lib = load_corpus(dir)?;
    let path = expectations_in(dir);
    let doc = std::fs::read_to_string(&path).map_err(|e| {
        format!("cannot read {}: {e}\nbless with: repro validate --bless", path.display())
    })?;
    let expected = parse_expectations(&doc)?;
    let actual: Vec<KernelMetrics> = lib.traces().iter().map(|t| replay_metrics(t, cfg)).collect();
    correlate(&actual, &expected)
}

/// [`run_validation_in`] on the committed corpus.
///
/// # Errors
///
/// See [`run_validation_in`].
pub fn run_validation_with(cfg: &GpuConfig) -> Result<ValidationReport, String> {
    run_validation_in(&validate_dir(), cfg)
}

/// [`run_validation_with`] on the canonical tiny configuration.
///
/// # Errors
///
/// See [`run_validation_with`].
pub fn run_validation() -> Result<ValidationReport, String> {
    run_validation_with(&GpuConfig::tiny())
}

/// Refuses to bless when any on-disk trace was written by a different trace
/// schema version than this build: blessing would pin expectations against
/// a corpus the strict reader is about to reject (or silently reinterpret
/// after a future migration).
fn check_corpus_version(dir: &Path) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        if path.extension().is_none_or(|ext| ext != "fgtr") {
            continue;
        }
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let found = trace::peek_version(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        if found != TRACE_SCHEMA_VERSION {
            return Err(format!(
                "refusing to bless: {} is trace schema v{found}, this build writes \
                 v{TRACE_SCHEMA_VERSION}; re-record the corpus with: repro validate --recapture",
                path.display()
            ));
        }
    }
    Ok(())
}

/// Regenerates the expectations file beside the corpus under `dir`,
/// atomically (tmp + fsync + rename). Refuses on a trace-schema mismatch.
///
/// # Errors
///
/// Schema mismatch, unreadable corpus, or filesystem errors.
pub fn bless_dir(dir: &Path) -> Result<(), String> {
    check_corpus_version(dir)?;
    let lib = load_corpus(dir)?;
    let cfg = GpuConfig::tiny();
    let actual: Vec<KernelMetrics> = lib.traces().iter().map(|t| replay_metrics(t, &cfg)).collect();
    let path = expectations_in(dir);
    gpu_sim::snap::frame::write_atomic(&path, render_expectations(&actual).as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// [`bless_dir`] on the committed corpus.
///
/// # Errors
///
/// See [`bless_dir`].
pub fn bless() -> Result<(), String> {
    bless_dir(&validate_dir())
}

/// Re-records the corpus under `dir` from the synthetic Parboil models
/// (capture on the tiny configuration, one `.fgtr` per model, written
/// atomically), then blesses fresh expectations against it.
///
/// # Errors
///
/// Capture failures (a too-short window) or filesystem errors.
pub fn recapture_in(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let cfg = GpuConfig::tiny();
    for name in workloads::NAMES {
        let desc = workloads::by_name(name).expect("NAMES entries are known");
        let kt = trace::capture(&desc, &cfg, trace::DEFAULT_CAPTURE_CYCLES)
            .map_err(|e| format!("capturing {name}: {e}"))?;
        let path = dir.join(format!("{name}.fgtr"));
        trace::save_atomic(&path, &kt)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    bless_dir(dir)
}

/// [`recapture_in`] on the committed corpus.
///
/// # Errors
///
/// See [`recapture_in`].
pub fn recapture() -> Result<(), String> {
    recapture_in(&validate_dir())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up = [2.0, 4.0, 6.0, 8.0];
        let down = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
        let flat = [5.0, 5.0, 5.0, 5.0];
        assert_eq!(pearson(&flat, &flat), 1.0, "identical degenerate series pass");
        assert_eq!(pearson(&flat, &xs), 0.0, "changed degenerate series fail");
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn expectations_round_trip_bit_exactly() {
        let kernels = vec![
            KernelMetrics { name: "a".into(), values: [0.1, 2.5, 3e7, 0.75, 0.5] },
            KernelMetrics {
                name: "b".into(),
                values: [f64::MIN_POSITIVE, 0.0, 1.0, 0.999_999, 1.0 / 3.0],
            },
        ];
        let doc = render_expectations(&kernels);
        let back = parse_expectations(&doc).expect("parse");
        assert_eq!(back.kernels, kernels, "floats survive via their bit patterns");
    }

    #[test]
    fn parse_rejects_wrong_schema_and_garbage() {
        let doc = render_expectations(&[KernelMetrics { name: "a".into(), values: [0.0; 5] }]);
        let stale = doc.replace(
            &format!("\"trace_schema_version\": {TRACE_SCHEMA_VERSION}"),
            "\"trace_schema_version\": 999",
        );
        assert!(parse_expectations(&stale).unwrap_err().contains("v999"));
        assert!(parse_expectations("{}").is_err());
        let truncated = doc.replace("ipc_bits", "ipc_bats");
        assert!(parse_expectations(&truncated).unwrap_err().contains("ipc_bits"));
    }

    #[test]
    fn correlate_flags_drift_and_name_mismatch() {
        let base: Vec<KernelMetrics> = (0..5)
            .map(|i| KernelMetrics {
                name: format!("k{i}"),
                values: [i as f64 + 1.0, 2.0 * i as f64 + 3.0, 100.0 * (i + 1) as f64, 0.5, 0.25],
            })
            .collect();
        let expected = Expectations { kernels: base.clone() };
        let report = correlate(&base, &expected).expect("same kernels");
        assert!(report.ok(), "identical metrics must pass:\n{}", report.render());

        // A uniform 2x shift keeps corr = 1 but trips the rel-err gate.
        let mut shifted = base.clone();
        for k in &mut shifted {
            k.values[2] *= 2.0;
        }
        let report = correlate(&shifted, &expected).expect("same kernels");
        assert!(!report.ok());
        let row = &report.rows[2];
        assert!(row.corr > 0.999, "uniform scaling preserves correlation");
        assert!(row.max_rel_err > MAX_REL_ERR);
        assert!(report.render().contains("FAIL"));

        let mut renamed = base;
        renamed[0].name = "other".into();
        assert!(correlate(&renamed, &expected).unwrap_err().contains("kernel sets differ"));
    }
}
