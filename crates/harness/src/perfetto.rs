//! Chrome-trace / Perfetto export of a traced run (DESIGN.md §12).
//!
//! [`render_trace`] turns a finished machine plus its epoch telemetry into a
//! Chrome-trace JSON document (the "JSON object format" both `chrome://
//! tracing` and [ui.perfetto.dev](https://ui.perfetto.dev) load): one counter
//! track per kernel carrying the per-epoch IPC / residency / quota series,
//! and one instant per flight-recorder event, attributed to its SM's thread
//! row. One simulated cycle maps to one microsecond of trace time.
//!
//! The document is built by plain string formatting — no JSON library — so
//! [`check_chrome_trace`] re-parses every export with a small strict JSON
//! parser and verifies the event schema; the harness test suite runs it on
//! every golden scenario.

use std::fmt::Write as _;

use gpu_sim::telemetry::HostProfiler;
use gpu_sim::trace::EpochRecord;
use gpu_sim::{Gpu, TraceEvent, TraceEventKind};

use crate::golden::run_scenario_traced;

/// Runs a golden scenario with the flight recorder on and renders its
/// Chrome-trace document.
///
/// # Panics
///
/// Panics on a name outside [`crate::golden::SCENARIOS`].
#[must_use]
pub fn export_scenario(name: &str) -> String {
    let (gpu, records) = run_scenario_traced(name);
    render_trace(name, &gpu, &records)
}

/// Renders a traced run as Chrome-trace JSON.
///
/// The top-level object carries `traceEvents` (what the viewers read) plus a
/// `counters` object with the full counter-registry dump and a
/// `dropped_events` count (flight-recorder ring overflow across the machine
/// and every SM) — viewers ignore unknown top-level keys, so both ride
/// along for free. When the host profiler was armed, its per-phase
/// wall-time totals appear as counter tracks under a dedicated
/// `host-profiler` process.
#[must_use]
pub fn render_trace(name: &str, gpu: &Gpu, records: &[EpochRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(out, "  \"scenario\": \"{}\",", escape(name));
    let _ = writeln!(out, "  \"dropped_events\": {},", dropped_events(gpu));
    out.push_str("  \"traceEvents\": [\n");

    let mut events: Vec<String> = Vec::new();
    metadata_events(gpu, records, &mut events);
    counter_events(records, &mut events);
    instant_events(&gpu.recent_events(usize::MAX), &mut events);
    host_profile_events(gpu.profiler(), &mut events);

    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(out, "    {e}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {\n");
    let registry = gpu.counter_registry();
    for (i, entry) in registry.iter().enumerate() {
        let comma = if i + 1 == registry.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}/{}\": {}{comma}", entry.scope, entry.name, entry.value);
    }
    out.push_str("  }\n}\n");
    out
}

/// Total flight-recorder events lost to ring overflow, machine + all SMs.
fn dropped_events(gpu: &Gpu) -> u64 {
    gpu.events().dropped() + gpu.sms().iter().map(|sm| sm.events().dropped()).sum::<u64>()
}

/// Dedicated pid for the host-profiler counter tracks — far from the
/// simulated pids so the wall-time rows group separately in Perfetto.
const HOST_PROFILE_PID: u32 = 999;

/// One counter track per profiled phase (host wall milliseconds + call
/// count, a single sample at ts 0). Empty when the profiler was never
/// armed. Host time is wall-clock — these tracks are the one deliberately
/// nondeterministic part of a trace, and only appear on opt-in.
fn host_profile_events(prof: &HostProfiler, out: &mut Vec<String>) {
    let rows = prof.rows();
    if rows.is_empty() {
        return;
    }
    out.push(format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {HOST_PROFILE_PID}, \"tid\": 0, \
         \"args\": {{\"name\": \"host-profiler\"}}}}"
    ));
    for (phase, t) in rows {
        out.push(format!(
            "{{\"name\": \"host/{}\", \"ph\": \"C\", \"ts\": 0, \"pid\": {HOST_PROFILE_PID}, \
             \"args\": {{\"ms\": {}, \"calls\": {}}}}}",
            phase.name(),
            t.nanos as f64 / 1e6,
            t.calls
        ));
    }
}

/// Process/thread naming: pid 0 is the machine; tid 0 the machine-scope
/// event row, tid `s + 1` the row of SM `s`.
fn metadata_events(gpu: &Gpu, records: &[EpochRecord], out: &mut Vec<String>) {
    out.push(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"fgqos-sim\"}}"
            .to_string(),
    );
    out.push(
        "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, \
         \"args\": {\"name\": \"machine\"}}"
            .to_string(),
    );
    for s in 0..gpu.sms().len() {
        out.push(format!(
            "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {}, \
             \"args\": {{\"name\": \"sm{s}\"}}}}",
            s + 1
        ));
    }
    let kernels = records.first().map_or(0, |r| r.kernels.len());
    for k in 0..kernels {
        // Counter tracks live in their own pid so Perfetto groups the
        // per-kernel series away from the instant rows.
        out.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"tid\": 0, \
             \"args\": {{\"name\": \"kernel{k}\"}}}}",
            k + 1
        ));
    }
}

/// One `ph: "C"` counter sample per kernel per epoch: the IPC, residency and
/// quota series behind the paper's time-behaviour figures.
fn counter_events(records: &[EpochRecord], out: &mut Vec<String>) {
    for r in records {
        for (k, s) in r.kernels.iter().enumerate() {
            let ipc = if s.epoch_ipc.is_finite() { s.epoch_ipc } else { 0.0 };
            out.push(format!(
                "{{\"name\": \"kernel{k}\", \"ph\": \"C\", \"ts\": {}, \"pid\": {}, \
                 \"args\": {{\"ipc\": {ipc}, \"hosted_tbs\": {}, \"quota_total\": {}, \
                 \"preempted\": {}}}}}",
                r.cycle,
                k + 1,
                s.hosted_tbs,
                s.quota_total,
                s.preempted
            ));
        }
    }
}

/// One `ph: "i"` instant per flight-recorder event, on its SM's thread row
/// (tid 0 for machine-scope events), with the event payload as `args`.
fn instant_events(events: &[TraceEvent], out: &mut Vec<String>) {
    for e in events {
        let tid = e.sm.map_or(0, |s| s + 1);
        out.push(format!(
            "{{\"name\": \"{}\", \"ph\": \"i\", \"ts\": {}, \"pid\": 0, \"tid\": {tid}, \
             \"s\": \"t\", \"args\": {{{}}}}}",
            e.kind.name(),
            e.cycle,
            event_args(&e.kind)
        ));
    }
}

fn event_args(kind: &TraceEventKind) -> String {
    match kind {
        TraceEventKind::QuotaExhausted { kernel } => format!("\"kernel\": {kernel}"),
        TraceEventKind::PreemptStart { kernel, tb }
        | TraceEventKind::PreemptComplete { kernel, tb }
        | TraceEventKind::TbDrain { kernel, tb } => {
            format!("\"kernel\": {kernel}, \"tb\": {tb}")
        }
        TraceEventKind::TbDispatch { kernel, tb, resumed } => {
            format!("\"kernel\": {kernel}, \"tb\": {tb}, \"resumed\": {resumed}")
        }
        TraceEventKind::EpochBoundary { epoch } => format!("\"epoch\": {epoch}"),
        TraceEventKind::IdleStart | TraceEventKind::IdleEnd => String::new(),
        TraceEventKind::FaultInjected { fault } => {
            format!("\"fault\": \"{fault:?}\"")
        }
    }
}

/// Renders a finished fleet run as Chrome-trace JSON. The per-tick counter
/// tracks are the fleet's metrics series: every row becomes one `ph: "C"`
/// event per registry scope, with that scope's columns as `args`. The
/// registry lists its scopes in blocks — machine, then each tenant, then
/// each device — and block `i` is process `i`: the machine is pid 0
/// (`fleet`), tenant `t` is pid `t + 1`, and the devices follow the tenants.
/// Each migrated request adds one `ph: "X"` span on its tenant's track,
/// from the cycle the batch left its device to the cycle it resumed, with
/// the source/target device and reason in `args`. The document states how
/// many rows the series evicted (`series_evicted`), and the full fleet
/// counter registry rides along under the `counters` key, exactly like the
/// single-GPU export.
#[must_use]
pub fn render_fleet_trace(fleet: &fleet::Fleet, name: &str) -> String {
    let series = fleet.metrics_series();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"displayTimeUnit\": \"ms\",");
    let _ = writeln!(out, "  \"scenario\": \"fleet/{}\",", escape(name));
    let _ = writeln!(out, "  \"series_evicted\": {},", series.evicted());
    out.push_str("  \"traceEvents\": [\n");

    // Consecutive columns of one scope form a block: its scope, its first
    // column, and its counter names (escaped once, written once per row).
    let mut blocks: Vec<(&str, usize, Vec<String>)> = Vec::new();
    for (i, column) in series.columns().iter().enumerate() {
        let (scope, counter) = column.split_once('/').unwrap_or(("", column));
        match blocks.last_mut() {
            Some((last, _, counters)) if *last == scope => counters.push(escape(counter)),
            _ => blocks.push((scope, i, vec![escape(counter)])),
        }
    }
    let tenants = &fleet.config().tenants;
    let mut events: Vec<String> = Vec::new();
    for (pid, &(scope, _, _)) in blocks.iter().enumerate() {
        let process = match pid {
            0 => "fleet".to_string(),
            p if p <= tenants.len() => format!("tenant/{}", tenants[p - 1].name),
            _ => scope.to_string(),
        };
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            escape(&process)
        ));
    }
    for row in series.rows() {
        for (pid, (scope, first, counters)) in blocks.iter().enumerate() {
            let args = counters
                .iter()
                .zip(row.values.iter().skip(*first))
                .map(|(counter, value)| format!("\"{counter}\": {value}"))
                .collect::<Vec<_>>()
                .join(", ");
            events.push(format!(
                "{{\"name\": \"{}\", \"ph\": \"C\", \"ts\": {}, \"pid\": {pid}, \
                 \"args\": {{{args}}}}}",
                escape(scope),
                row.stamp
            ));
        }
    }
    host_profile_events(fleet.profiler(), &mut events);
    // One complete-span per migrated request, on its tenant's track: the
    // span covers the window the request was off-device (enqueue → resume).
    for rec in fleet.migrations() {
        let dur = rec.restored_at.saturating_sub(rec.enqueued_at).max(1);
        for (req, tenant) in rec.requests.iter().zip(&rec.tenants) {
            events.push(format!(
                "{{\"name\": \"migration/{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {dur}, \
                 \"pid\": {}, \"tid\": 1, \"args\": {{\"request\": {req}, \"from_device\": {}, \
                 \"to_device\": {}, \"reason\": \"{}\"}}}}",
                rec.reason,
                rec.enqueued_at,
                tenant + 1,
                rec.from_device,
                rec.to_device,
                rec.reason
            ));
        }
    }

    for (i, e) in events.iter().enumerate() {
        let comma = if i + 1 == events.len() { "" } else { "," };
        let _ = writeln!(out, "    {e}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"counters\": {\n");
    let registry = fleet.counter_registry();
    for (i, entry) in registry.iter().enumerate() {
        let comma = if i + 1 == registry.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}/{}\": {}{comma}", entry.scope, entry.name, entry.value);
    }
    out.push_str("  }\n}\n");
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Schema check: a small strict JSON parser + Chrome-trace shape rules.
// ---------------------------------------------------------------------

/// A parsed JSON value (just enough structure for the schema check).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.err("expected '\"'"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| self.err("invalid UTF-8"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(&c @ (b'"' | b'\\' | b'/')) => out.push(c),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'b') => out.push(0x08),
                        Some(b'f') => out.push(0x0c),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&c) if c >= 0x20 => {
                    out.push(c);
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while matches!(
            self.bytes.get(self.pos),
            Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn parse_document(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage"));
        }
        Ok(v)
    }
}

/// Validates that `doc` is well-formed JSON (strict grammar, no trailing
/// garbage). Used by the metrics exporter to self-check documents before
/// they are written to disk.
///
/// # Errors
///
/// A human-readable description of the first grammar violation.
pub fn check_json(doc: &str) -> Result<(), String> {
    Parser::new(doc).parse_document().map(|_| ())
}

/// Validates that `doc` is well-formed JSON in the Chrome-trace object
/// format: a top-level object whose `traceEvents` is an array of event
/// objects, each with a string `name`, a string `ph` of a known phase, an
/// integer `pid`, and (for non-metadata phases) a numeric `ts`; instants
/// additionally carry a valid `s` scope. Returns the number of events.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn check_chrome_trace(doc: &str) -> Result<usize, String> {
    let root = Parser::new(doc).parse_document()?;
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        return Err("top-level \"traceEvents\" array missing".to_string());
    };
    for (i, event) in events.iter().enumerate() {
        let fail = |what: &str| Err(format!("traceEvents[{i}]: {what}"));
        let Json::Obj(_) = event else { return fail("not an object") };
        if event.get("name").and_then(Json::as_str).is_none() {
            return fail("missing string \"name\"");
        }
        let Some(ph) = event.get("ph").and_then(Json::as_str) else {
            return fail("missing string \"ph\"");
        };
        if !matches!(ph, "M" | "C" | "i" | "I" | "B" | "E" | "X") {
            return fail(&format!("unknown phase {ph:?}"));
        }
        let Some(Json::Num(pid)) = event.get("pid") else {
            return fail("missing numeric \"pid\"");
        };
        if pid.fract() != 0.0 {
            return fail("\"pid\" must be an integer");
        }
        if ph != "M" && !matches!(event.get("ts"), Some(Json::Num(ts)) if *ts >= 0.0) {
            return fail("missing non-negative \"ts\"");
        }
        if ph == "i"
            && !matches!(event.get("s"), Some(Json::Str(s)) if matches!(s.as_str(), "g" | "p" | "t"))
        {
            return fail("instant without a valid \"s\" scope");
        }
        if !matches!(event.get("args"), None | Some(Json::Obj(_))) {
            return fail("\"args\" must be an object");
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_and_rejects() {
        assert!(Parser::new("{\"a\": [1, -2.5e3, true, null, \"x\\n\"]}").parse_document().is_ok());
        for bad in ["{", "[1,]", "{\"a\" 1}", "1 2", "{\"a\": NaN}", ""] {
            assert!(Parser::new(bad).parse_document().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn check_rejects_malformed_traces() {
        assert!(check_chrome_trace("{}").is_err(), "no traceEvents");
        assert!(
            check_chrome_trace("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err(),
            "event without ph/pid"
        );
        assert!(
            check_chrome_trace(
                "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"i\", \"pid\": 0, \"ts\": 1}]}"
            )
            .is_err(),
            "instant without scope"
        );
        let ok = "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"i\", \"pid\": 0, \
                  \"ts\": 1, \"s\": \"t\"}]}";
        assert_eq!(check_chrome_trace(ok), Ok(1));
    }

    #[test]
    fn exported_scenario_passes_the_schema_check() {
        let doc = export_scenario("smk_pair");
        let events = check_chrome_trace(&doc).expect("exported trace must be valid");
        assert!(events > 10, "a busy scenario must export real events, got {events}");
        assert!(doc.contains("\"ph\": \"C\""), "counter samples present");
        assert!(doc.contains("\"ph\": \"i\""), "instants present");
    }

    #[test]
    fn exported_fleet_trace_passes_the_schema_check() {
        let mut f = fleet::Fleet::new(fleet::scenarios::steady(3));
        f.run_to_completion();
        let doc = render_fleet_trace(&f, "steady");
        let events = check_chrome_trace(&doc).expect("fleet trace must be valid");
        assert!(events > 10, "per-tick tenant samples must be present, got {events}");
        assert!(doc.contains("tenant/latency"), "tenant tracks are named");
        assert!(doc.contains("\"slo_met\""), "SLO series present");
        assert!(doc.contains("\"shed\""), "shed series present");
        assert!(doc.contains("tenant[0]/slo_met"), "registry rides along");
    }

    #[test]
    fn fleet_trace_carries_migration_spans() {
        let mut f = fleet::Fleet::new(fleet::scenarios::chaos(fleet::scenarios::DEFAULT_SEED));
        f.run_to_completion();
        assert!(f.migrated_requests() > 0, "chaos must migrate work for this test to bite");
        let doc = render_fleet_trace(&f, "chaos");
        check_chrome_trace(&doc).expect("fleet trace with migrations must stay valid");
        assert!(doc.contains("\"ph\": \"X\""), "migration spans are complete events");
        assert!(doc.contains("migration/device-"), "spans are named by reason");
        assert!(doc.contains("\"from_device\""), "span args carry the route");
        assert!(doc.contains("\"fleet_pending_migrations\""), "machine track gauges the queue");
    }

    #[test]
    fn fleet_trace_tracks_are_the_series() {
        let mut f = fleet::Fleet::new(fleet::scenarios::chaos(fleet::scenarios::DEFAULT_SEED));
        f.run_to_completion();
        let series = f.metrics_series();
        assert_eq!(series.evicted(), 0, "chaos fits the series");
        let doc = render_fleet_trace(&f, "chaos");
        let root = Parser::new(&doc).parse_document().expect("valid JSON");
        assert_eq!(root.get("series_evicted"), Some(&Json::Num(0.0)));
        let Some(Json::Arr(events)) = root.get("traceEvents") else { panic!("no traceEvents") };
        let mut args_seen = 0;
        for e in events.iter().filter(|e| e.get("ph") == Some(&Json::Str("C".into()))) {
            let (Some(Json::Num(ts)), Some(Json::Str(scope)), Some(Json::Obj(args))) =
                (e.get("ts"), e.get("name"), e.get("args"))
            else {
                panic!("counter event without ts, name or args: {e:?}")
            };
            let row = series.rows().iter().find(|r| r.stamp as f64 == *ts).expect("a row at ts");
            for (counter, value) in args {
                let column = format!("{scope}/{counter}");
                let i = series.columns().iter().position(|c| *c == column).expect("a column");
                assert_eq!(*value, Json::Num(row.values[i] as f64), "{column} at {ts}");
                args_seen += 1;
            }
        }
        assert_eq!(args_seen, series.rows().len() * series.columns().len(), "every value drawn");
    }
}
