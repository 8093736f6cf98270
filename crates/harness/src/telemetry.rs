//! Metrics export and the work-count profile (DESIGN.md §17).
//!
//! Two export formats for the telemetry layer's deterministic state:
//!
//! * **JSON** (`repro fleet <scenario> --metrics-out FILE`):
//!   the complete tick-sampled counter time series plus per-tenant
//!   histogram summaries (count/sum/max/mean and p50/p90/p95/p99/p99.9 of
//!   completion latency, queue wait, retries, and migration outage) and
//!   the SLO error-budget / burn-rate tracks.
//! * **Prometheus text exposition** (the `.prom` sibling of every JSON
//!   export): the latest counter-registry values, timestamped series
//!   samples (timestamp = fleet cycle), and cumulative `le`-bucket
//!   histograms — loadable by any Prometheus-compatible scraper or
//!   `promtool`.
//!
//! Both renderers are pure functions of snapshotted state, so a
//! kill+resume run exports byte-identical documents; both are re-validated
//! by their own strict checkers ([`crate::perfetto::check_json`],
//! [`check_prometheus_text`]) before anything is written to disk.
//!
//! The third piece is the **work-count profile** (`repro profile
//! <scenario>`): one simulated GPU's [`gpu_sim::WorkCounters`] — how many
//! SM steps its run loop executed and slept, what the wake queues and the
//! quota gate did, how often the TB scheduler ran. They repeat exactly
//! from run to run. Where host wall time goes is sampled from outside the
//! process by `scripts/sample-profile.sh`, not measured in here.

use std::fmt::Write as _;

use fleet::Fleet;
use gpu_sim::telemetry::LatencyHistogram;
use gpu_sim::{Gpu, GpuConfig, NullController, SharingMode};
use qos_core::{QosManager, QosSpec, QuotaScheme};

use crate::perfetto::escape;

/// Schema tag embedded in every metrics JSON document (bump on shape
/// changes so downstream consumers can dispatch).
pub const METRICS_SCHEMA: &str = "fgqos-metrics-v1";

/// Scenarios `repro profile` runs on a single simulated GPU, mirroring the
/// bench suite's constructions (paper-scale config, 80 k cycles).
pub const PROFILE_SCENARIOS: [&str; 4] =
    ["smk_memory_pair", "managed_rollover_pair", "managed_rollover_trio", "isolated_compute"];

/// Cycles each single-GPU profile scenario runs.
pub const PROFILE_CYCLES: u64 = 80_000;

// ---------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------

fn hist_json(h: &LatencyHistogram) -> String {
    format!(
        "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"mean\": {}, \"p50\": {}, \
         \"p90\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}}}",
        h.count(),
        h.sum(),
        h.max(),
        h.mean(),
        h.p50(),
        h.p90(),
        h.p95(),
        h.p99(),
        h.p999()
    )
}

/// Renders a finished fleet's metrics as JSON: the full counter time
/// series, per-tenant histogram summaries, and the SLO budget/burn tracks.
/// Pure function of snapshotted fleet state — resumed runs export
/// byte-identical documents.
#[must_use]
pub fn render_fleet_metrics_json(fleet: &Fleet, scenario: &str) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{METRICS_SCHEMA}\",");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", escape(scenario));
    let _ = writeln!(out, "  \"cycle\": {},", fleet.cycle());
    let _ = writeln!(out, "  \"ticks\": {},", fleet.ticks());
    let series = fleet.metrics_series();
    out.push_str("  \"series\": {\n");
    let _ = writeln!(out, "    \"evicted\": {},", series.evicted());
    let columns = series
        .columns()
        .iter()
        .map(|c| format!("\"{}\"", escape(c)))
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(out, "    \"columns\": [{columns}],");
    out.push_str("    \"rows\": [\n");
    let rows = series.rows();
    for (i, row) in rows.iter().enumerate() {
        let values = row.values.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "      {{\"stamp\": {}, \"values\": [{values}]}}{comma}", row.stamp);
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"tenants\": [\n");
    let specs = &fleet.config().tenants;
    let counters = fleet.tenant_counters();
    for (t, (spec, c)) in specs.iter().zip(counters).enumerate() {
        let slo = match spec.class.slo() {
            Some(slo) => format!(
                "{{\"deadline_cycles\": {}, \"attainment_floor_ppm\": {}, \
                 \"error_budget_ppm\": {}, \"burn_rate_ppm\": {}}}",
                slo.deadline_cycles,
                slo.attainment_floor_ppm,
                slo.error_budget_ppm(),
                slo.burn_rate_ppm(c.slo_met, c.arrived)
            ),
            None => "null".to_string(),
        };
        let comma = if t + 1 == specs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"guaranteed\": {},\n     \"latency\": {},\n     \
             \"queue_wait\": {},\n     \"retries\": {},\n     \"migration\": {},\n     \
             \"slo\": {slo}}}{comma}",
            escape(&spec.name),
            spec.class.is_guaranteed(),
            hist_json(&c.latency_hist),
            hist_json(&c.queue_wait_hist),
            hist_json(&c.retry_hist),
            hist_json(&c.migration_hist),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

/// Escapes a Prometheus label value (`\`, `"`, and newlines).
fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn prom_histogram(
    out: &mut String,
    metric: &str,
    help: &str,
    scenario: &str,
    tenant: &str,
    h: &LatencyHistogram,
) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    let labels = format!("scenario=\"{}\",tenant=\"{}\"", prom_label(scenario), prom_label(tenant));
    let mut cumulative = 0u64;
    for (upper, count) in h.buckets() {
        cumulative += count;
        let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"{upper}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", h.sum());
    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count());
}

/// Renders a finished fleet's metrics in the Prometheus text exposition
/// format: the latest counter-registry values (`fgqos_counter`), the full
/// tick-sampled time series as timestamped samples (`fgqos_series`,
/// timestamp = fleet cycle), and one cumulative-bucket histogram family
/// per tenant distribution. Deterministic: a resumed run exports the same
/// bytes as an uninterrupted one.
#[must_use]
pub fn render_fleet_metrics_prom(fleet: &Fleet, scenario: &str) -> String {
    let mut out = String::new();
    let scen = prom_label(scenario);
    out.push_str("# HELP fgqos_counter Latest fleet counter-registry value.\n");
    out.push_str("# TYPE fgqos_counter untyped\n");
    for e in fleet.counter_registry() {
        let _ = writeln!(
            out,
            "fgqos_counter{{scenario=\"{scen}\",scope=\"{}\",name=\"{}\"}} {}",
            prom_label(&e.scope.to_string()),
            prom_label(e.name),
            e.value
        );
    }
    out.push_str(
        "# HELP fgqos_series Tick-sampled counter time series (timestamp = fleet cycle).\n",
    );
    out.push_str("# TYPE fgqos_series untyped\n");
    let series = fleet.metrics_series();
    for row in series.rows() {
        for (column, value) in series.columns().iter().zip(&row.values) {
            let _ = writeln!(
                out,
                "fgqos_series{{scenario=\"{scen}\",column=\"{}\"}} {value} {}",
                prom_label(column),
                row.stamp
            );
        }
    }
    for (spec, c) in fleet.config().tenants.iter().zip(fleet.tenant_counters()) {
        prom_histogram(
            &mut out,
            "fgqos_tenant_latency_cycles",
            "End-to-end completion latency, in fleet cycles.",
            scenario,
            &spec.name,
            &c.latency_hist,
        );
        prom_histogram(
            &mut out,
            "fgqos_tenant_queue_wait_cycles",
            "Arrival-to-first-placement queue wait, in fleet cycles.",
            scenario,
            &spec.name,
            &c.queue_wait_hist,
        );
        prom_histogram(
            &mut out,
            "fgqos_tenant_retries",
            "Retries consumed per completed request.",
            scenario,
            &spec.name,
            &c.retry_hist,
        );
        prom_histogram(
            &mut out,
            "fgqos_tenant_migration_cycles",
            "Live-migration outage (enqueue to restore), in fleet cycles.",
            scenario,
            &spec.name,
            &c.migration_hist,
        );
    }
    out
}

/// Validates a Prometheus text-exposition document: every line is a
/// comment (`# …`), blank, or a sample of the form
/// `name{label="value",…} value [timestamp]` with a legal metric name,
/// balanced and properly quoted labels, and a parseable value. Returns
/// the number of samples.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn check_prometheus_text(doc: &str) -> Result<usize, String> {
    fn is_name_start(c: char) -> bool {
        c.is_ascii_alphabetic() || c == '_' || c == ':'
    }
    fn is_name_char(c: char) -> bool {
        is_name_start(c) || c.is_ascii_digit()
    }
    let mut samples = 0usize;
    for (i, line) in doc.lines().enumerate() {
        let fail = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut chars = line.char_indices().peekable();
        let Some((_, first)) = chars.next() else { unreachable!("non-empty") };
        if !is_name_start(first) {
            return Err(fail("metric name must start with [a-zA-Z_:]"));
        }
        let mut rest_at = line.len();
        for (at, c) in chars.by_ref() {
            if !is_name_char(c) {
                rest_at = at;
                break;
            }
        }
        let mut rest = &line[rest_at..];
        if let Some(after) = rest.strip_prefix('{') {
            // label pairs: key="value",… — scan respecting escapes.
            let mut r = after;
            loop {
                let key_end = r.find('=').ok_or_else(|| fail("label without '='"))?;
                let key = &r[..key_end];
                // Label names are `[a-zA-Z_][a-zA-Z0-9_]*`: no colon.
                let label_char = |c: char| c.is_ascii_alphanumeric() || c == '_';
                if !key.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
                    || !key.chars().all(label_char)
                {
                    return Err(fail("bad label name"));
                }
                r = r[key_end + 1..]
                    .strip_prefix('"')
                    .ok_or_else(|| fail("label value must be quoted"))?;
                let mut end = None;
                let mut esc = false;
                for (at, c) in r.char_indices() {
                    if esc {
                        esc = false;
                    } else if c == '\\' {
                        esc = true;
                    } else if c == '"' {
                        end = Some(at);
                        break;
                    }
                }
                let end = end.ok_or_else(|| fail("unterminated label value"))?;
                r = &r[end + 1..];
                if let Some(next) = r.strip_prefix(',') {
                    r = next;
                } else if let Some(next) = r.strip_prefix('}') {
                    rest = next;
                    break;
                } else {
                    return Err(fail("expected ',' or '}' after label"));
                }
            }
        }
        let mut fields = rest.split_whitespace();
        let value = fields.next().ok_or_else(|| fail("sample without a value"))?;
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            return Err(fail("unparseable sample value"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(fail("unparseable timestamp"));
            }
        }
        if fields.next().is_some() {
            return Err(fail("trailing fields after timestamp"));
        }
        samples += 1;
    }
    Ok(samples)
}

// ---------------------------------------------------------------------
// Scenario runners
// ---------------------------------------------------------------------

/// Renders a finished fleet's metrics in both formats, self-checking each
/// document before returning `(json, prometheus)`.
///
/// # Errors
///
/// An internal-error description if either document fails its own
/// validator (a bug in the renderer, not the caller).
pub fn fleet_metrics_docs(fleet: &Fleet, scenario: &str) -> Result<(String, String), String> {
    let json = render_fleet_metrics_json(fleet, scenario);
    crate::perfetto::check_json(&json)
        .map_err(|e| format!("internal error: metrics JSON fails its own check: {e}"))?;
    let prom = render_fleet_metrics_prom(fleet, scenario);
    check_prometheus_text(&prom)
        .map_err(|e| format!("internal error: metrics exposition fails its own check: {e}"))?;
    Ok((json, prom))
}

/// Builds one single-GPU profile scenario (paper-scale config,
/// fast-forward on) and returns the machine ready to run — mirrors the
/// bench suite's constructions so profile numbers line up with bench
/// numbers.
fn profile_gpu(name: &str) -> Option<(Gpu, Option<QosManager>)> {
    let mut cfg = GpuConfig::paper_table1();
    cfg.fast_forward = true;
    match name {
        "smk_memory_pair" => {
            let mut gpu = Gpu::new(cfg);
            let a = gpu.launch(workloads::by_name("lbm").expect("known"));
            let b = gpu.launch(workloads::by_name("spmv").expect("known"));
            gpu.set_sharing_mode(SharingMode::Smk);
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                gpu.set_tb_target(sm, a, 5);
                gpu.set_tb_target(sm, b, 5);
            }
            Some((gpu, None))
        }
        "managed_rollover_pair" => {
            let mut gpu = Gpu::new(cfg);
            let q = gpu.launch(workloads::by_name("mri-q").expect("known"));
            let be = gpu.launch(workloads::by_name("lbm").expect("known"));
            let mgr = QosManager::new(QuotaScheme::Rollover)
                .with_kernel(q, QosSpec::qos(600.0))
                .with_kernel(be, QosSpec::best_effort());
            Some((gpu, Some(mgr)))
        }
        "managed_rollover_trio" => {
            // Goals low enough to be met early in every epoch: the two QoS
            // kernels then sit quota-exhausted beside a memory-bound lbm.
            let mut gpu = Gpu::new(cfg);
            let mut mgr = QosManager::new(QuotaScheme::Rollover);
            for (name, spec) in [
                ("mri-q", QosSpec::qos(40.0)),
                ("sad", QosSpec::qos(20.0)),
                ("lbm", QosSpec::best_effort()),
            ] {
                mgr = mgr.with_kernel(gpu.launch(workloads::by_name(name).expect("known")), spec);
            }
            Some((gpu, Some(mgr)))
        }
        "isolated_compute" => {
            let mut gpu = Gpu::new(cfg);
            gpu.launch(workloads::by_name("sgemm").expect("known"));
            Some((gpu, None))
        }
        _ => None,
    }
}

/// Runs a [`profile_gpu`] machine for [`PROFILE_CYCLES`] under its manager.
fn run_profile_gpu(gpu: &mut Gpu, mgr: Option<QosManager>) {
    match mgr {
        Some(mut mgr) => gpu.run(PROFILE_CYCLES, &mut mgr),
        None => gpu.run(PROFILE_CYCLES, &mut NullController),
    }
}

/// Runs single-GPU scenario `name` (one of [`PROFILE_SCENARIOS`]) and
/// renders its work counters as one line — the engine of `repro profile`.
///
/// # Errors
///
/// Unknown scenario names.
pub fn profile_scenario(name: &str) -> Result<String, String> {
    let Some((mut gpu, mgr)) = profile_gpu(name) else {
        return Err(format!(
            "unknown profile scenario {name:?} (known: {})",
            PROFILE_SCENARIOS.join(" ")
        ));
    };
    run_profile_gpu(&mut gpu, mgr);
    let work = gpu.work_counters();
    let asleep = 100.0 * work.sm_ticks_slept as f64
        / (work.sm_ticks_run + work.sm_ticks_slept).max(1) as f64;
    Ok(format!(
        "sm steps: {} run, {} slept ({asleep:.1}% of SM-cycles asleep); \
         wake queue: {} hints drained, {} builds; quota gate: {} evaluations; \
         tb scheduler: {} passes\n",
        work.sm_ticks_run,
        work.sm_ticks_slept,
        work.wake_events,
        work.ready_rebuilds,
        work.gate_evals,
        work.tb_passes
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::scenarios;

    fn finished_fleet() -> Fleet {
        let mut f = Fleet::new(scenarios::steady(3));
        f.run_to_completion();
        f
    }

    #[test]
    fn metrics_json_is_valid_and_carries_percentiles() {
        let f = finished_fleet();
        let (json, prom) = fleet_metrics_docs(&f, "steady").expect("self-checks pass");
        assert!(json.contains("\"schema\": \"fgqos-metrics-v1\""));
        assert!(json.contains("\"p999\""), "percentile fields present");
        assert!(json.contains("\"burn_rate_ppm\""), "SLO burn track present");
        assert!(json.contains("\"columns\""), "series columns present");
        assert!(json.contains("tenant[0]/latency_p99"), "registry percentile gauges sampled");
        assert!(prom.contains("fgqos_tenant_latency_cycles_bucket"), "le buckets present");
        assert!(prom.contains("le=\"+Inf\""), "terminal bucket present");
        assert!(prom.contains("slo_burn_ppm"), "burn gauge exported");
    }

    #[test]
    fn metrics_exports_are_deterministic() {
        let (a, b) = (finished_fleet(), finished_fleet());
        let a = fleet_metrics_docs(&a, "steady").expect("self-checks pass");
        let b = fleet_metrics_docs(&b, "steady").expect("self-checks pass");
        assert_eq!(a.0, b.0, "JSON export must be byte-identical");
        assert_eq!(a.1, b.1, "Prometheus export must be byte-identical");
    }

    #[test]
    fn prometheus_checker_accepts_and_rejects() {
        let ok = "# HELP x help\n# TYPE x untyped\nx{a=\"b\\\"c\",_d9=\"e\"} 1.5 123\nx 2\n";
        assert_eq!(check_prometheus_text(ok), Ok(2));
        for bad in [
            "1bad 2",
            "x{a=b} 1",
            "x{a=\"b} 1",
            "x{a=\"b\"} nope",
            "x{a=\"b\"} 1 notime",
            "x{1a=\"b\"} 1",
            "x{a:b=\"c\"} 1",
            "x 1 2 3",
            "x",
        ] {
            assert!(check_prometheus_text(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// "It sleeps", "a wake-up costs the hints due, not the table" and "the
    /// TB scheduler wakes on change", without a clock: the run loop's step
    /// counts, the wake queues' drain counts and the TB scheduler's passes
    /// repeat exactly, so they are pinned. A change that moves them changed
    /// how much host work a simulated cycle costs — re-pin only with the
    /// reason.
    #[test]
    fn sm_step_counts_are_pinned() {
        for (name, run, slept, wakes, gates, passes) in [
            // One ungated compute kernel at 76% issue utilisation: 12.6%
            // asleep, in the tile-load stalls all of an SM's warps share.
            // A pass at every executed dispatch point was 9,957.
            ("isolated_compute", 1_118_713, 161_287, 3_990_716, 0, 888),
            // mri-q chases 600 IPC for most of each epoch: 36.0% asleep.
            // A pass at every executed dispatch point was 9,957.
            ("managed_rollover_pair", 819_753, 460_247, 1_749_010, 12_670, 923),
            // Both goals met early, exhausted QoS warps beside a stalled
            // lbm: 72.9% asleep, which the old per-cycle gather all ran.
            // A pass at every executed dispatch point was 9,423.
            ("managed_rollover_trio", 346_991, 933_009, 380_713, 12_303, 379),
            // Memory-bound lbm and spmv at five TBs each per SM: 88.5%
            // asleep. A pass at every executed dispatch point was 9,301.
            ("smk_memory_pair", 147_041, 1_132_959, 119_065, 0, 255),
        ] {
            let (mut gpu, mgr) = profile_gpu(name).expect("a profile scenario");
            run_profile_gpu(&mut gpu, mgr);
            let work = gpu.work_counters();
            assert_eq!((work.sm_ticks_run, work.sm_ticks_slept), (run, slept), "{name}");
            // A pass runs only where a drain, save, load or control-plane
            // write could have given it work. Every pass settles the
            // scheduler, as a second one at once would find nothing to do;
            // settling only after a pass that did nothing ran 935 and 381
            // on the managed pair and trio (the other two did not move).
            assert_eq!(work.tb_passes, passes, "{name}");
            assert_eq!(run + slept, PROFILE_CYCLES * u64::from(gpu.config().num_sms), "{name}");
            // About one hint per warp instruction, however long the SMs
            // slept between them; and each queue was built from its column
            // once, whatever the run length.
            assert_eq!(work.wake_events, wakes, "{name}");
            assert_eq!(work.ready_rebuilds, u64::from(gpu.config().num_sms), "{name}");
            // The quota gate's inert set is evaluated only when it is read
            // after a write that can flip one of its signs: a controller
            // setter at an epoch boundary, a lazy refill, or a quota
            // exhaustion (5,085 and 6,191), each of which the gather reads
            // at once. It used to be evaluated once per gated step and once
            // more per exhaustion (824,838 and 353,182), and before that
            // once per scheduler, four to the step.
            assert_eq!(work.gate_evals, gates, "{name}");
            let exhaustions: u64 = (0..gpu_sim::MAX_KERNELS)
                .flat_map(|k| {
                    gpu.sms().iter().map(move |sm| sm.quota_exhaustions(gpu_sim::KernelId::new(k)))
                })
                .sum();
            if gates > 0 {
                assert!(exhaustions < gates && gates < run + exhaustions, "{name}");
            }
        }
    }

    #[test]
    fn unknown_profile_scenario_is_an_error() {
        assert!(profile_scenario("nope").is_err());
        assert!(profile_scenario("steady").is_err(), "a fleet scenario is not a GPU scenario");
    }
}
