//! Golden-trace regression tests: each canonical scenario's per-epoch
//! IPC/residency/quota telemetry must match its snapshot in `tests/golden/`
//! byte for byte. A failure means simulator behaviour changed; if the change
//! is intentional, regenerate the corpus with
//! `cargo run --release -p harness --bin repro -- golden --bless`.

use fgqos::bench::golden;

#[test]
fn corpus_is_complete() {
    for name in golden::SCENARIOS {
        let path = golden::golden_path(name);
        assert!(path.is_file(), "missing golden file {}", path.display());
    }
}

#[test]
fn smk_pair_matches_golden() {
    golden::check("smk_pair").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn spart_pair_matches_golden() {
    golden::check("spart_pair").unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn datacenter_trio_matches_golden() {
    golden::check("datacenter_trio").unwrap_or_else(|e| panic!("{e}"));
}

/// The naive per-cycle loop must reproduce the fast-forwarded golden
/// snapshots exactly — the corpus pins one record stream, not one per
/// stepping mode.
#[test]
fn golden_hashes_are_stepping_independent() {
    use fgqos::sim::trace::records_hash;
    for name in golden::SCENARIOS {
        let hash = records_hash(&golden::run_scenario_naive(name));
        let contents =
            std::fs::read_to_string(golden::golden_path(name)).expect("golden file readable");
        assert!(
            contents.contains(&format!("{hash:#018x}")),
            "{name}: naive-loop records_hash {hash:#018x} not present in snapshot"
        );
    }
}
