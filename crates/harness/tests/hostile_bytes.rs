//! Length-bomb drill for every entry point that accepts bytes.
//!
//! FNV-1a is not a MAC: anyone can re-seal a frame, so every decoder behind
//! `frame::open` sees attacker-chosen payloads, and the unframed ones
//! (`Fleet::restore`, `SnapshotBlob::from_bytes` → `Gpu::restore`) see them
//! directly. Each drill takes a real encoding, overwrites one 8-byte window
//! at a time with an absurd little-endian length, and requires the decoder
//! to answer `Ok` or `Err` — never a panic, and never an allocation sized by
//! the stream (an abort, which takes this whole test binary with it).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use fleet::{scenarios, Fleet};
use gpu_sim::snap::frame;
use gpu_sim::snap::{Snap, SnapError, SnapReader};
use gpu_sim::trace::Tracer;
use gpu_sim::{Gpu, GpuConfig, NullController, SnapshotBlob, SnapshotError};
use harness::checkpoint::{
    CaseRecord, CaseState, CheckpointDir, InProgressCase, Manifest, CHECKPOINT_MAGIC,
    CHECKPOINT_SCHEMA_VERSION, MANIFEST_FILE,
};
use harness::fleet_cli::{save_checkpoint, FleetCheckpoint};
use harness::runner::{build_controller, prepare_case, IsolatedCache};
use harness::scale::RunScale;
use harness::{CaseSpec, Policy};

const ROLLOVER: Policy = Policy::Quota(qos_core::QuotaScheme::Rollover);

const BOMB: [u8; 8] = 0x0fff_ffff_ffff_ffff_u64.to_le_bytes();

/// Window offsets into an encoding of `len` bytes: every offset of the first
/// and last 2 KiB, where headers and the small trailing fields sit at any
/// alignment, and every eighth between — a stride at which every 8-byte
/// field of the encoding has its high bytes overwritten by some window.
fn windows(len: usize) -> Vec<usize> {
    const EDGE: usize = 2048;
    let last = len.saturating_sub(BOMB.len());
    if last <= 2 * EDGE {
        return (0..=last).collect();
    }
    (0..EDGE).chain((EDGE..last - EDGE).step_by(BOMB.len())).chain(last - EDGE..=last).collect()
}

/// A copy of `real` with the window at byte `at` overwritten by the bomb.
fn bombed(real: &[u8], at: usize) -> Vec<u8> {
    let mut evil = real.to_vec();
    evil[at..at + BOMB.len()].copy_from_slice(&BOMB);
    evil
}

/// Runs `decode` on `real` with each window overwritten; returns how many
/// windows were tried. `decode` reports nothing: returning at all is passing.
fn drill(what: &str, real: &[u8], decode: impl Fn(&[u8])) -> usize {
    decode(real);
    let offsets = windows(real.len());
    for &at in &offsets {
        let evil = bombed(real, at);
        if catch_unwind(AssertUnwindSafe(|| decode(&evil))).is_err() {
            panic!("{what}: decoder panicked on the window at byte {at} of {}", real.len());
        }
    }
    offsets.len()
}

/// A payload that is already bytes: encodes as itself, so `frame::seal`
/// re-seals a tampered payload exactly as an attacker would.
struct Raw(Vec<u8>);

impl Snap for Raw {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Raw(r.take(r.remaining())?.to_vec()))
    }
}

/// [`drill`] on the payload of a framed file, re-sealing each tampered
/// payload under the file's own magic and version so that the checksum
/// passes and `decode` is what has to cope.
fn drill_resealed(what: &str, file: &[u8], decode: impl Fn([u8; 4], u32, &[u8])) -> usize {
    let magic: [u8; 4] = file[..4].try_into().expect("magic");
    let version = frame::peek_version(magic, file).expect("a real frame");
    let Raw(payload) = frame::open(magic, version, file).expect("a real frame");
    drill(what, &payload, |evil| {
        decode(magic, version, &frame::seal(magic, version, &Raw(evil.to_vec())));
    })
}

/// The little-endian `u64` at byte `at` of `bytes`.
fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fgqos-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The chaos fleet at the first tick that ends with a device mid-batch, so
/// that the snapshot embeds machine blobs next to queued requests, pending
/// faults and tenant counters.
fn fleet_snapshot() -> Vec<u8> {
    let mut fleet = Fleet::new(scenarios::chaos(99));
    while !fleet.step() {
        let bytes = fleet.snapshot();
        if bytes.windows(4).any(|w| w == b"FGQS") {
            return bytes;
        }
    }
    panic!("no tick of the chaos scenario ends with a busy device");
}

/// Accepted means usable: a fleet that restores is stepped a tick, asked for
/// its report and rendered through the trace and metrics exports, still
/// inside the drill's no-panic boundary.
fn restore_fleet(bytes: &[u8]) -> Result<(), String> {
    let mut fleet = Fleet::restore(scenarios::chaos(99), bytes)?;
    fleet.step();
    let _ = fleet.report("restored");
    let _ = harness::perfetto::render_fleet_trace(&fleet, "restored");
    let _ = harness::telemetry::fleet_metrics_docs(&fleet, "restored");
    Ok(())
}

/// The byte ranges of `snapshot` that hold embedded machine blobs (batch
/// state and migration checkpoints), each with its `u64` length prefix.
fn machine_blobs(snapshot: &[u8]) -> Vec<std::ops::Range<usize>> {
    let starts = (8..snapshot.len() - 4).filter(|&at| &snapshot[at..at + 4] == b"FGQS");
    starts.map(|at| at - 8..at + word(snapshot, at - 8) as usize).collect()
}

/// [`restore_fleet`] for a tampered copy `evil` of the snapshot `real`, whose
/// `blobs` are [`machine_blobs`]. A copy tampered inside a machine blob is
/// only restored: what `Gpu::restore` lets through is that decoder's to vet
/// (`gpu_restore_survives_length_bombs`), and of a machine's tables only the
/// caches are checked against the receiver yet (and kernel ids, as they
/// decode). Of this drill's 9,204 windows inside machine blobs, 70 restore
/// `Ok` and panic when stepped (286 in a dev build, which also traps
/// overflowing counters): ROADMAP item 2, held as a ratchet by
/// `count_machine_windows_that_restore_then_panic`. Schema 10 changed the
/// blob layout, so these are not comparable to schema 9's 71 of 9,276 (279).
fn restore_fleet_window(blobs: &[std::ops::Range<usize>], real: &[u8], evil: &[u8]) {
    if real.len() != evil.len() || blobs.iter().any(|b| real[b.clone()] != evil[b.clone()]) {
        let _ = Fleet::restore(scenarios::chaos(99), evil);
    } else {
        let _ = restore_fleet(evil);
    }
}

#[test]
fn fleet_restore_survives_length_bombs() {
    let real = fleet_snapshot();
    let blobs = machine_blobs(&real);
    let tried = drill("Fleet::restore", &real, |evil| restore_fleet_window(&blobs, &real, evil));
    assert!(tried > 1_000, "{tried} windows");
}

/// The census behind ROADMAP item 2's figure: of the drill's windows that
/// fall inside an embedded machine blob, how many restore `Ok` and then panic
/// when the fleet is stepped (each panic prints; the last line is the count).
/// It is a ratchet: exactly 9,204 windows fall inside machine blobs, so a
/// moved blob layout fails it, and at most 70 of them may panic (286 in a dev
/// build), so a more permissive restore fails it too. Lower the ceiling when a
/// fix lowers the count. Item 2 is done when this prints 0 and
/// [`restore_fleet_window`]'s carve-out goes.
#[test]
#[ignore = "a measurement: cargo test --release -p harness --test hostile_bytes -- --ignored --nocapture"]
fn count_machine_windows_that_restore_then_panic() {
    let real = fleet_snapshot();
    let blobs = machine_blobs(&real);
    let (mut inside, mut panicked) = (0, 0);
    for at in windows(real.len()) {
        if blobs.iter().any(|b| at < b.end && at + BOMB.len() > b.start) {
            inside += 1;
            panicked += usize::from(catch_unwind(|| restore_fleet(&bombed(&real, at))).is_err());
        }
    }
    println!("{inside} windows inside machine blobs, {panicked} restore Ok and panic when stepped");
    assert_eq!(inside, 9_204, "the machine blobs moved inside the fleet snapshot");
    let ceiling = if cfg!(debug_assertions) { 286 } else { 70 };
    assert!(panicked <= ceiling, "{panicked} windows restore Ok and panic (at most {ceiling})");
}

/// A queued request id one past the request table: `Fleet::restore` must
/// refuse it, not hand back a fleet whose first `step` indexes with it.
#[test]
fn fleet_restore_refuses_an_out_of_range_queued_id() {
    // version, fingerprint, cycle, tick index, shedding, finished.
    const HEADER: usize = 4 + 8 + 8 + 8 + 1 + 1;
    let mut fleet = Fleet::new(scenarios::chaos(99));
    let (mut bytes, queue_at) = loop {
        assert!(!fleet.step(), "some tick of the chaos scenario ends with a request queued");
        let bytes = fleet.snapshot();
        let requests = fleet.requests().to_vec();
        let queue_at = HEADER + gpu_sim::snap::encode_to_vec(&requests).len();
        if word(&bytes, queue_at) > 0 {
            assert!(word(&bytes, queue_at + 8) < requests.len() as u64, "a real queued id");
            break (bytes, queue_at);
        }
    };
    assert_eq!(restore_fleet(&bytes), Ok(()));
    let beyond = fleet.requests().len() as u64;
    bytes[queue_at + 8..queue_at + 16].copy_from_slice(&beyond.to_le_bytes());
    let refused = restore_fleet(&bytes).expect_err("an id past the table is refused");
    assert!(refused.contains("shape does not match"), "{refused}");
}

/// A series of capacity 0 decodes, and the next tick's sample would evict
/// row 0 of an empty ring: `Fleet::restore` must refuse it.
#[test]
fn fleet_restore_refuses_a_series_bombed_to_capacity_0() {
    let mut fleet = Fleet::new(scenarios::chaos(99));
    fleet.step();
    let mut bytes = fleet.snapshot();
    let series = gpu_sim::snap::encode_to_vec(fleet.metrics_series());
    let at = bytes.windows(series.len()).position(|w| w == series).expect("the series is embedded");
    assert_eq!(word(&bytes, at), fleet::fleet::FLEET_SERIES_CAPACITY as u64, "its capacity");
    assert_eq!(restore_fleet(&bytes), Ok(()));
    bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
    let refused = restore_fleet(&bytes).expect_err("a series of capacity 0 is refused");
    assert!(refused.contains("shape does not match"), "{refused}");
}

/// The serialized snapshot of a `cfg` machine two epochs into sgemm + lbm.
fn machine_blob(cfg: &GpuConfig) -> Vec<u8> {
    let mut gpu = Gpu::new(cfg.clone());
    gpu.launch(workloads::by_name("sgemm").expect("known workload"));
    gpu.launch(workloads::by_name("lbm").expect("known workload"));
    gpu.run(2 * cfg.epoch_cycles, &mut NullController);
    gpu.snapshot().expect("epoch boundary").into_bytes()
}

/// Byte offset of SM 0's L1 in a serialized machine blob. Magic, version, two
/// fingerprints, payload length; cycle, SM count; SM 0 up to its L1: id,
/// three u16 limits, max_threads, two sizes.
const L1_AT: usize = (4 + 4 + 8 + 8 + 8) + (8 + 8) + (2 + 2 + 2 + 2 + 4 + 8 + 8);

/// A bombed `sets` or `ways` decodes (both are plain `usize`s), and the
/// restored L1 would index past its lines on the first access:
/// `Gpu::restore` must refuse the cache for not fitting the machine.
#[test]
fn gpu_restore_refuses_a_cache_that_does_not_fit_the_machine() {
    let cfg = GpuConfig::tiny();
    let blob = machine_blob(&cfg);
    let lines = cfg.mem.l1_bytes / u64::from(cfg.mem.line_bytes);
    let sets_at = L1_AT + 8 + 8 * lines as usize;
    let ways_at = sets_at + 8;
    assert_eq!(word(&blob, L1_AT), lines, "the L1's line count");
    assert_eq!(word(&blob, sets_at), lines / u64::from(cfg.mem.l1_ways), "its sets");
    assert_eq!(word(&blob, ways_at), u64::from(cfg.mem.l1_ways), "its ways");
    for at in [sets_at, ways_at] {
        let bombed = bombed(&blob, at);
        let evil = SnapshotBlob::from_bytes(&bombed).expect("the framing is untouched");
        let refused = Gpu::new(cfg.clone()).restore(&evil);
        assert!(matches!(refused, Err(SnapshotError::Corrupt(_))), "byte {at}: {refused:?}");
    }
}

/// Warp slots name their kernel by a byte that indexes `PerKernel` arrays on
/// the first tick and the first epoch sample: one past the last kernel slot
/// must fail to decode, not restore `Ok`.
#[test]
fn gpu_restore_refuses_a_warp_of_a_kernel_past_the_last_slot() {
    let cfg = GpuConfig::tiny();
    let blob = machine_blob(&cfg);
    // After the L1 (a word per line, sets, ways, shift and clock, two
    // counters): the per-kernel descriptions, two latencies and three
    // occupancy counters, then the warp table, whose first column is `kernel`.
    let lines = (cfg.mem.l1_bytes / u64::from(cfg.mem.line_bytes)) as usize;
    let descs = [Some("sgemm"), Some("lbm"), None, None]
        .map(|name| name.map(|n| workloads::by_name(n).expect("known workload")));
    let kernel_at = L1_AT
        + (8 + 8 * lines + 8 + 8 + 4 + 4 + 8 + 8)
        + gpu_sim::snap::encode_to_vec(&descs).len()
        + (4 + 4 + 4 + 8 + 8);
    assert_eq!(word(&blob, kernel_at), u64::from(cfg.sm.max_warps()), "the column's length");
    let last_slot = gpu_sim::MAX_KERNELS as u8 - 1;
    assert!(blob[kernel_at + 8..][..8].iter().all(|&k| k <= last_slot), "real kernel ids");
    let bombed = bombed(&blob, kernel_at + 8);
    let evil = SnapshotBlob::from_bytes(&bombed).expect("framing untouched");
    let refused = Gpu::new(cfg).restore(&evil);
    assert!(matches!(refused, Err(SnapshotError::Corrupt(_))), "{refused:?}");
}

#[test]
fn gpu_restore_survives_length_bombs() {
    let cfg = GpuConfig::tiny();
    let blob = machine_blob(&cfg);
    let tried = drill("SnapshotBlob::from_bytes -> Gpu::restore", &blob, |evil| {
        if let Ok(blob) = SnapshotBlob::from_bytes(evil) {
            let _ = Gpu::new(cfg.clone()).restore(&blob);
        }
    });
    assert!(tried > 1_000, "{tried} windows");
}

#[test]
fn resealed_trace_survives_length_bombs() {
    let file = std::fs::read(harness::validate::validate_dir().join("sgemm.fgtr")).expect("corpus");
    let tried = drill_resealed("FGTR", &file, |_, _, evil| {
        let _ = trace::from_bytes(evil);
    });
    assert!(tried > 100, "{tried} windows");
}

#[test]
fn resealed_sweep_checkpoint_survives_length_bombs() {
    let root = tmp_dir("fgck");
    let manifest = Manifest {
        experiments: vec!["smoke".to_string()],
        scale: RunScale::Bench,
        checkpoint_every: 1,
    };
    let dir = CheckpointDir::create(&root, manifest).expect("create");
    // A mid-case case file: spec, controller state and epoch records all
    // present. Its machine blob (three quarters of a megabyte that `open`
    // copies and never looks into) is cut short to keep the re-seals
    // affordable; `gpu_restore_survives_length_bombs` covers it.
    let mut spec = CaseSpec::new(&["cutcp", "lbm"], &[Some(0.5), None], ROLLOVER, 20_000);
    spec.epoch_cycles = Some(2_000);
    let mut case = prepare_case(&spec, &IsolatedCache::new()).expect("known benchmarks");
    let mut tracer = Tracer::new(build_controller(&spec, &case.kids, &case.goal_ipc));
    // The second of its two mid-case states at the chunk floor (8 000 cycles).
    case.gpu.try_run(16_000, &mut tracer).expect("a healthy case");
    let mut gpu_blob = case.gpu.snapshot().expect("epoch boundary").into_bytes();
    gpu_blob.truncate(64);
    let controller = tracer.inner().clone();
    let records = tracer.records().to_vec();
    let state = CaseState::InProgress(InProgressCase {
        cycles_done: 16_000,
        gpu_blob,
        controller,
        records,
    });
    dir.save_case(&CaseRecord { spec: spec.clone(), state });
    let file = std::fs::read(dir.case_path(&spec)).expect("read the case file");
    let tried = drill_resealed("FGCK case", &file, |magic, version, evil| {
        let _ = frame::open::<CaseRecord>(magic, version, evil);
    });
    assert!(tried > 1_000, "{tried} windows");

    let manifest = std::fs::read(root.join(MANIFEST_FILE)).expect("read the manifest");
    drill_resealed("FGCK manifest", &manifest, |magic, version, evil| {
        let _ = frame::open::<Manifest>(magic, version, evil);
    });
    // The experiment list's length is the payload's first word.
    let Raw(payload) =
        frame::open(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &manifest).expect("real");
    let evil = frame::seal(CHECKPOINT_MAGIC, CHECKPOINT_SCHEMA_VERSION, &Raw(bombed(&payload, 0)));
    std::fs::write(root.join(MANIFEST_FILE), evil).expect("write the bombed manifest");
    assert!(CheckpointDir::open(&root).is_err());
    let resumed = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["resume", root.to_str().expect("utf8 path")])
        .output()
        .expect("repro spawns");
    assert!(!resumed.status.success(), "{resumed:?}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resealed_fleet_checkpoint_survives_length_bombs() {
    let dir = tmp_dir("fgfl");
    let state = fleet_snapshot();
    let blobs = machine_blobs(&state);
    let ckpt = FleetCheckpoint {
        scenario: "chaos".to_string(),
        seed: 99,
        every_ticks: 5,
        state: state.clone(),
    };
    let file = std::fs::read(save_checkpoint(&dir, &ckpt).expect("save")).expect("read");
    let tried = drill_resealed("FGFL", &file, |magic, version, evil| {
        if let Ok(ckpt) = frame::open::<FleetCheckpoint>(magic, version, evil) {
            restore_fleet_window(&blobs, &state, &ckpt.state);
        }
    });
    assert!(tried > 1_000, "{tried} windows");
    let _ = std::fs::remove_dir_all(&dir);
}
