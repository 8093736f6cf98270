//! Wall-clock benchmark of the fleet serving layer (DESIGN.md §15–§16).
//!
//! Runs each fleet scenario to completion twice with the same seed,
//! verifies the two reports are byte-identical (determinism is the fleet's
//! load-bearing invariant — checkpoints, resumes, and the chaos soak all
//! ride on it), and writes the timings plus serving counters to
//! `BENCH_fleet.json` (override the path with the first CLI argument).
//! The long-horizon leg is the diurnal scenario: 1 500 ticks of
//! triangle-wave load with a device loss and a planned drain mid-run, so
//! the timing covers checkpoint refreshes, migrations, and working-set
//! admission — the full serving hot path, not just device stepping.
//! CI's bench-smoke job runs it for the identity assertion and uploads the
//! file; no wall-clock is gated, and `fgqos-bench`'s `fleet_diurnal`
//! workload supersedes the timings.

use std::time::Instant;

use fleet::{Fleet, RequestState};

/// Timed repetitions per scenario; the minimum is reported.
const REPS: u32 = 3;

/// Every registered scenario is timed; `diurnal` is the long-horizon
/// throughput leg called out in EXPERIMENTS.md.
const SEED: u64 = fleet::scenarios::DEFAULT_SEED;

struct Outcome {
    report: String,
    ticks: u64,
    cycles: u64,
    arrived: usize,
    done: usize,
    migrated: u64,
    lost: usize,
}

fn run_scenario(name: &str) -> Outcome {
    let cfg = fleet::scenarios::by_name(name, SEED).expect("registered scenario");
    let mut f = Fleet::new(cfg);
    f.run_to_completion();
    Outcome {
        report: f.report(name),
        ticks: f.ticks(),
        cycles: f.cycle(),
        arrived: f.requests().len(),
        done: f.requests().iter().filter(|r| matches!(r.state, RequestState::Done { .. })).count(),
        migrated: f.migrated_requests(),
        lost: f.lost_requests(),
    }
}

fn time_min(name: &str) -> (f64, Outcome) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..REPS {
        let t = Instant::now();
        let o = run_scenario(name);
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        outcome = Some(o);
    }
    (best, outcome.expect("at least one rep"))
}

fn main() {
    // cargo bench forwards harness flags like `--bench`; skip them.
    let out_path = std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .unwrap_or_else(|| "BENCH_fleet.json".to_string());

    let mut rows = Vec::new();
    for name in fleet::scenarios::SCENARIOS {
        let (wall_ms, a) = time_min(name);
        let b = run_scenario(name);
        let identical = a.report == b.report;
        assert!(identical, "{name}: same seed produced a different report");
        assert_eq!(a.lost, 0, "{name}: a benchmark run must not lose requests");
        let ticks_per_s = a.ticks as f64 / (wall_ms / 1e3);
        println!(
            "{name:<12} {wall_ms:>8.1} ms   {:>5} ticks ({ticks_per_s:>7.0} ticks/s)   \
             {}/{} done   {} migrated",
            a.ticks, a.done, a.arrived, a.migrated
        );
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"wall_ms\": {wall_ms:.3}, \"ticks\": {}, \
             \"device_cycles\": {}, \"ticks_per_s\": {ticks_per_s:.1}, \"arrived\": {}, \
             \"done\": {}, \"migrated\": {}, \"lost\": {}, \"identical\": {identical}}}",
            a.ticks, a.cycles, a.arrived, a.done, a.migrated, a.lost
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"fleet\",\n  \"seed\": {SEED},\n  \"reps\": {REPS},\n  \
         \"scenarios\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    );
    std::fs::write(&out_path, json).expect("benchmark results written");
    println!("wrote {out_path}");
}
