//! Golden-corpus regression tests: every file of `tests/golden/` (three
//! scenarios' per-epoch IPC/residency/quota telemetry, the ten Parboil
//! models' metrics and the counter registry's order) must match what the
//! simulator renders today byte for byte. A failure means simulator
//! behaviour changed; if the change is intentional, regenerate the corpus
//! with `cargo run --release -p harness --bin repro -- golden --bless`.

use fgqos::bench::golden;

/// `tests/golden/` holds exactly the files of the corpus list: a file no
/// entry renders would be checked by nothing.
#[test]
fn corpus_is_complete() {
    let mut listed: Vec<&str> = golden::CORPUS.iter().map(|e| e.file).collect();
    listed.sort_unstable();
    let mut on_disk: Vec<String> = std::fs::read_dir(golden::golden_dir())
        .expect("golden directory readable")
        .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    on_disk.sort_unstable();
    assert_eq!(on_disk, listed, "tests/golden/ and golden::CORPUS disagree");
}

#[test]
fn smk_pair_matches_golden() {
    golden::check("smk_pair.json", true).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn spart_pair_matches_golden() {
    golden::check("spart_pair.json", true).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn datacenter_trio_matches_golden() {
    golden::check("datacenter_trio.json", true).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn models_match_golden() {
    golden::check("models.json", true).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn counter_registry_order_matches_golden() {
    golden::check("counter_registry_order.txt", true).unwrap_or_else(|e| panic!("{e}"));
}

/// A bless into an empty directory writes exactly the committed corpus, so
/// `repro golden --bless` on an unchanged simulator leaves `tests/golden/`
/// as it is.
#[test]
fn bless_writes_exactly_the_committed_corpus() {
    let dir = std::env::temp_dir().join(format!("fgqos-bless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    golden::bless_all(&dir).expect("bless into an empty directory");
    for entry in &golden::CORPUS {
        let fresh = std::fs::read(dir.join(entry.file)).expect("bless writes every corpus file");
        let committed = std::fs::read(golden::golden_path(entry.file)).expect("committed file");
        assert!(fresh == committed, "{}: bless does not write the committed bytes", entry.file);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The naive per-cycle loop must render every corpus file exactly as the
/// fast-forwarded run does — the corpus pins one behaviour, not one per
/// stepping mode.
#[test]
fn golden_hashes_are_stepping_independent() {
    for entry in &golden::CORPUS {
        golden::check(entry.file, false).unwrap_or_else(|e| panic!("naive stepping: {e}"));
    }
}
