//! How a [`Report`] leaves the process: the `name value unit` lines, the
//! one-line result object that ends standard output, and the richer result
//! file `compare` reads.

use crate::host;
use crate::json::Json;
use crate::metrics::{Measured, END_TO_END};
use crate::protocol::Report;

pub const SCHEMA: &str = "fgqos-bench-v1";

/// Prints every metric as `name value unit`, quartiles and sample count
/// beside the timings (those are not metrics), then what the run found.
pub fn print_human(r: &Report) {
    println!("# {} seed={:#x} trace={} iters={}", r.workload, r.seed, u8::from(r.trace), r.iters);
    match r.warm_cycles {
        0 => println!("# every pass starts cold: a fresh sweep or fleet, nothing warmed"),
        n => println!("# every pass warms a fresh machine for {n} cycles before the clock starts"),
    }
    for m in &r.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
        if m.n > 1 {
            println!("{}_q1 {} {}", m.name, m.q1, m.unit);
            println!("{}_q3 {} {}", m.name, m.q3, m.unit);
        }
    }
    println!("iters {} count", r.iters);
    println!("# times above are in reference-host seconds; as they ran on this host:");
    for m in &r.raw {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    if r.trace {
        let covered: f64 = r.self_times.iter().map(|(_, s)| s).sum();
        println!("# self time per span name, median traced pass (wall {} s):", r.traced_wall_s);
        for (name, s) in &r.self_times {
            println!("self.{name} {s} s");
        }
        println!("self.total {covered} s");
    }
    for f in &r.findings {
        println!("# INCORRECT: {f}");
    }
}

/// The object that must be the last line of standard output.
pub fn result_line(r: &Report) -> Json {
    let metric = |m: &Measured| {
        (m.name, Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]))
    };
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(r.metrics.iter().map(metric))),
    ])
}

/// One entry of a result file's `results`: the result line plus what
/// `compare` needs to judge it (spread, direction and bound, exactness) and,
/// for a traced run, the spans themselves.
pub fn full_result(r: &Report) -> Json {
    let metric = |m: &Measured| {
        let mut members = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("q1", Json::Num(m.q1)),
            ("q3", Json::Num(m.q3)),
            ("n", Json::Num(m.n as f64)),
            ("exact", Json::Bool(m.exact)),
        ];
        if let Some(e) = END_TO_END.iter().find(|e| e.name == m.name) {
            members.push(("better", Json::str(e.better.label())));
            members.push(("bound", Json::Num(e.bound)));
        }
        (m.name, Json::obj(members))
    };
    let span = |s: &crate::spans::Span| {
        Json::obj([
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
            ("iter", Json::Num(f64::from(s.iter))),
        ])
    };
    Json::obj([
        ("workload", Json::str(r.workload)),
        ("trace", Json::Num(f64::from(u8::from(r.trace)))),
        ("seed", Json::Num(r.seed as f64)),
        ("iters", Json::Num(r.iters as f64)),
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        ("metrics", Json::obj(r.metrics.iter().map(metric))),
        ("self_time_s", Json::obj(r.self_times.iter().map(|&(n, s)| (n, Json::Num(s))))),
        ("spans", Json::Arr(r.spans.all().iter().map(span).collect())),
    ])
}

/// A result file: where it was made, and the results of one or more runs.
pub fn result_file(results: Vec<Json>) -> Json {
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("stamp", Json::obj(host::stamp().into_iter().map(|(k, v)| (k, Json::Str(v))))),
        ("results", Json::Arr(results)),
    ])
}
