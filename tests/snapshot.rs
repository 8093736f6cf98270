//! Differential tests for the snapshot/restore subsystem.
//!
//! The contract under test: running to an epoch-aligned cycle `C`, taking a
//! [`Gpu::snapshot`], restoring it into a *fresh* machine (plus a
//! round-tripped controller), and continuing is bit-identical — same stats,
//! same epoch telemetry, same `records_hash`, same health outcome — to
//! never having snapshotted at all. Exercised across all controllers, quota
//! schemes, injected faults, and with the idle-cycle fast-forward both on
//! and off.
//!
//! Comparison rules mirror the fault-tolerance suite: a *healthy* chunked
//! run equals a straight run exactly; a *faulted* chunked run is still
//! deterministic but may trip the watchdog up to one window later than a
//! straight run (the per-call check schedule). So the snapshotted run is
//! always compared against an identically-chunked run, and additionally
//! against the straight run when no fault is injected.

use fgqos::sim::rng::SplitMix64;
use fgqos::sim::snap::{decode_from_slice, encode_to_vec};
use fgqos::sim::trace::{records_hash, EpochRecord, Tracer};
use fgqos::{
    Controller, Gpu, GpuConfig, KernelDesc, QosManager, QosSpec, QuotaScheme, SpartController,
};
use gpu_sim::{AccessPattern, KernelStats, Op, SharingMode, Snap, SnapshotBlob};
use proptest::prelude::*;

// ----------------------------------------------------------------------
// A concrete, snapshottable controller covering every policy under test.
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Ctrl {
    Null,
    Spart(SpartController),
    Quota(QosManager),
}

impl Controller for Ctrl {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        match self {
            Ctrl::Null => {}
            Ctrl::Spart(c) => c.on_epoch(gpu, epoch),
            Ctrl::Quota(m) => m.on_epoch(gpu, epoch),
        }
    }
}

gpu_sim::impl_snap_enum!(Ctrl { Null = 0, Spart(controller) = 1, Quota(manager) = 2 });

// ----------------------------------------------------------------------
// Scenario construction (mirrors tests/properties.rs).
// ----------------------------------------------------------------------

fn build_config(
    fast_forward: bool,
    watchdog: bool,
    audit: bool,
    fault: Option<(u64, fgqos::sim::FaultKind)>,
) -> GpuConfig {
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = fast_forward;
    // Recorder on: the counter registry and flight-recorder rings are part
    // of the snapshot payload, so every case round-trips them too.
    cfg.trace.level = fgqos::sim::TraceLevel::Events;
    cfg.health.audit = audit;
    cfg.health.watchdog_window = if watchdog { 2 * cfg.epoch_cycles } else { 0 };
    if let Some((at, kind)) = fault {
        cfg.faults = fgqos::sim::FaultPlan::one(at, kind);
    }
    cfg
}

fn build_gpu(cfg: &GpuConfig, descs: &[KernelDesc]) -> (Gpu, Vec<fgqos::KernelId>) {
    let mut gpu = Gpu::new(cfg.clone());
    let kids = descs.iter().map(|d| gpu.launch(d.clone())).collect();
    (gpu, kids)
}

fn build_ctrl(ctrl_sel: usize, kids: &[fgqos::KernelId], goal: f64) -> Ctrl {
    let spec = |slot: usize| {
        if slot == 0 {
            QosSpec::qos(goal)
        } else if slot == 1 && kids.len() == 3 {
            QosSpec::qos(goal * 0.5)
        } else {
            QosSpec::best_effort()
        }
    };
    match ctrl_sel {
        0 => Ctrl::Null,
        5 => {
            let mut c = SpartController::new();
            for (slot, &k) in kids.iter().enumerate() {
                c = c.with_kernel(k, spec(slot));
            }
            Ctrl::Spart(c)
        }
        sel => {
            let scheme = match sel {
                1 => QuotaScheme::Naive,
                2 => QuotaScheme::Rollover,
                3 => QuotaScheme::RolloverTime,
                _ => QuotaScheme::Elastic,
            };
            let mut m = QosManager::new(scheme);
            for (slot, &k) in kids.iter().enumerate() {
                m = m.with_kernel(k, spec(slot));
            }
            Ctrl::Quota(m)
        }
    }
}

/// Everything observable about one run; two runs of the same scenario must
/// compare equal field-for-field.
#[derive(Debug, Clone, PartialEq)]
struct RunSummary {
    outcome: Result<(), fgqos::sim::SimError>,
    cycle: u64,
    kernels: Vec<KernelStats>,
    records: Vec<EpochRecord>,
    records_hash: u64,
    per_sm_busy_issued: Vec<(u64, u64)>,
    l2: (u64, u64),
    preempt: fgqos::sim::preempt::PreemptStats,
    insts_per_energy_bits: u64,
    // Observability surface: the counter registry (including the stepping-
    // dependent ff_skipped_cycles — both runs step identically here) and the
    // merged flight-recorder stream must survive the round trip bit-exactly.
    events: Vec<fgqos::sim::TraceEvent>,
    counters: Vec<fgqos::sim::CounterEntry>,
}

fn summarize(
    outcome: Result<(), fgqos::sim::SimError>,
    gpu: &Gpu,
    kids: &[fgqos::KernelId],
    records: &[EpochRecord],
) -> RunSummary {
    let stats = gpu.stats();
    RunSummary {
        outcome,
        cycle: gpu.cycle(),
        kernels: kids.iter().map(|&k| *stats.kernel(k)).collect(),
        records_hash: records_hash(records),
        records: records.to_vec(),
        per_sm_busy_issued: gpu
            .sms()
            .iter()
            .map(|sm| (sm.busy_cycles(), sm.issued_total()))
            .collect(),
        l2: (gpu.mem().l2_stats().hits, gpu.mem().l2_stats().misses),
        preempt: gpu.preempt_stats(),
        insts_per_energy_bits: fgqos::sim::power::insts_per_energy(gpu).to_bits(),
        events: gpu.recent_events(usize::MAX),
        counters: gpu.counter_registry(),
    }
}

/// One straight run of `total` cycles.
fn run_straight(
    cfg: &GpuConfig,
    descs: &[KernelDesc],
    ctrl_sel: usize,
    goal: f64,
    total: u64,
) -> RunSummary {
    let (mut gpu, kids) = build_gpu(cfg, descs);
    let mut tracer = Tracer::new(build_ctrl(ctrl_sel, &kids, goal));
    let outcome = gpu.try_run(total, &mut tracer);
    summarize(outcome, &gpu, &kids, tracer.records())
}

/// One run chunked at `split`. With `snapshot_restore`, the machine is
/// snapshotted at the split, the snapshot restored into a *freshly built*
/// machine, and the controller + telemetry round-tripped through the binary
/// codec; the second chunk then runs on the restored copy.
fn run_split(
    cfg: &GpuConfig,
    descs: &[KernelDesc],
    ctrl_sel: usize,
    goal: f64,
    split: u64,
    total: u64,
    snapshot_restore: bool,
) -> RunSummary {
    let (mut gpu, kids) = build_gpu(cfg, descs);
    let mut tracer = Tracer::new(build_ctrl(ctrl_sel, &kids, goal));
    if let Err(e) = gpu.try_run(split, &mut tracer) {
        // The first chunk already failed; both chunked variants see the
        // identical prefix, so summarize here.
        return summarize(Err(e), &gpu, &kids, tracer.records());
    }
    if snapshot_restore {
        assert_eq!(gpu.cycle(), split, "healthy try_run advances exactly `cycles`");
        let blob =
            gpu.snapshot().expect("split is a multiple of epoch_cycles, so the snapshot is legal");
        // Round-trip the blob through its wire form, like a checkpoint does.
        let blob = SnapshotBlob::from_bytes(blob.to_bytes()).expect("wire round-trip");
        let (ctrl, records) = tracer.into_parts();
        let ctrl: Ctrl = decode_from_slice(&encode_to_vec(&ctrl)).expect("controller codec");
        let records: Vec<EpochRecord> =
            decode_from_slice(&encode_to_vec(&records)).expect("records codec");
        let (fresh_gpu, fresh_kids) = build_gpu(cfg, descs);
        assert_eq!(fresh_kids, kids, "kernel ids are deterministic");
        gpu = fresh_gpu;
        gpu.restore(&blob).expect("restore accepts a same-config snapshot");
        assert_eq!(gpu.cycle(), split, "restore lands on the snapshot cycle");
        tracer = Tracer::from_parts(ctrl, records);
    }
    let outcome = gpu.try_run(total - split, &mut tracer);
    summarize(outcome, &gpu, &kids, tracer.records())
}

fn diff_descs(
    nk: usize,
    alu_lat: u16,
    alu_repeat: u16,
    trans: u8,
    lanes: u8,
    iters: u32,
    seed: u64,
) -> Vec<KernelDesc> {
    (0..nk)
        .map(|k| {
            KernelDesc::builder(format!("snap{k}"))
                .threads_per_tb(64)
                .regs_per_thread(16)
                .grid_tbs(4)
                .iterations(iters + k as u32)
                .seed(seed.wrapping_mul(k as u64 + 1))
                .body(vec![
                    Op::alu_divergent(alu_lat + k as u16, alu_repeat, lanes),
                    Op::mem_load(AccessPattern::random(1 << (18 + k), trans)),
                ])
                .build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's restore contract: snapshot at an epoch boundary,
    /// restore into a fresh machine, continue — bit-identical to not having
    /// snapshotted, across controllers × schemes × faults × fast-forward.
    #[test]
    fn snapshot_restore_continue_is_bit_identical(
        nk in 1usize..4,
        alu_lat in 1u16..12,
        alu_repeat in 1u16..16,
        trans in 1u8..16,
        lanes in 1u8..32,
        iters in 1u32..6,
        seed in 0u64..10_000,
        split_epochs in 1u64..6,
        extra_epochs in 1u64..6,
        ctrl_sel in 0usize..6,
        goal_frac in 0.1f64..1.5,
        fast_forward in any::<bool>(),
        watchdog in any::<bool>(),
        audit in any::<bool>(),
        fault_sel in 0usize..4,
        fault_cycle in 500u64..6_000,
    ) {
        let fault = match fault_sel {
            1 => Some((fault_cycle, fgqos::sim::FaultKind::StarveQuota)),
            2 => Some((fault_cycle, fgqos::sim::FaultKind::FreezeScheduler { sm: 0 })),
            3 => Some((fault_cycle, fgqos::sim::FaultKind::StallPreemption)),
            _ => None,
        };
        let cfg = build_config(fast_forward, watchdog, audit, fault);
        let split = split_epochs * cfg.epoch_cycles;
        let total = split + extra_epochs * cfg.epoch_cycles;
        let descs = diff_descs(nk, alu_lat, alu_repeat, trans, lanes, iters, seed);
        let goal = goal_frac * 100.0;

        let chunked = run_split(&cfg, &descs, ctrl_sel, goal, split, total, false);
        let restored = run_split(&cfg, &descs, ctrl_sel, goal, split, total, true);
        prop_assert_eq!(&restored, &chunked, "restore must be invisible");

        if fault.is_none() {
            // A healthy chunked run also equals the straight run exactly
            // (the watchdog check schedule aligns to absolute windows).
            let straight = run_straight(&cfg, &descs, ctrl_sel, goal, total);
            prop_assert_eq!(&restored, &straight, "healthy chunking is invisible");
        }
    }

    /// Satellite: `SplitMix64` snapshotted mid-stream reproduces the exact
    /// remaining stream from the restored copy.
    #[test]
    fn splitmix_round_trips_mid_stream(
        seed in any::<u64>(),
        burn in 0usize..200,
        take in 1usize..100,
    ) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..burn {
            rng.next_u64();
        }
        let mut copy: SplitMix64 = decode_from_slice(&encode_to_vec(&rng)).expect("codec");
        for i in 0..take {
            prop_assert_eq!(copy.next_u64(), rng.next_u64(), "divergence at draw {}", i);
        }
    }

    /// Satellite: per-kernel stats counters survive an encode/decode cycle
    /// exactly, at any point in their value space.
    #[test]
    fn kernel_stats_round_trip_exactly(
        thread_insts in any::<u64>(),
        warp_insts in any::<u64>(),
        tbs_completed in any::<u64>(),
        launches_completed in any::<u64>(),
    ) {
        let stats = KernelStats { thread_insts, warp_insts, tbs_completed, launches_completed };
        let back: KernelStats = decode_from_slice(&encode_to_vec(&stats)).expect("codec");
        prop_assert_eq!(back, stats);
    }
}

/// The counter registry and flight-recorder rings restore bit-exactly into
/// a fresh machine: every entry (name, scope, kind, value) and every ring
/// event (cycle, SM, kind) of a busy traced run survives the wire form.
#[test]
fn counter_registry_and_events_survive_snapshot_restore() {
    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = true;
    cfg.trace.level = fgqos::sim::TraceLevel::Events;
    let descs = diff_descs(3, 4, 8, 6, 17, 3, 42);

    let (mut gpu, kids) = build_gpu(&cfg, &descs);
    let mut tracer = Tracer::new(build_ctrl(2, &kids, 80.0));
    gpu.try_run(6 * cfg.epoch_cycles, &mut tracer).expect("healthy run");

    let registry = gpu.counter_registry();
    assert!(
        registry.iter().any(|e| e.name == "quota_blocked_cycles" && e.value > 0),
        "a gated run must accumulate quota-blocked cycles"
    );
    assert!(!gpu.recent_events(usize::MAX).is_empty(), "a busy run records events");

    let bytes = gpu.snapshot().expect("epoch-aligned").into_bytes();
    let blob = SnapshotBlob::from_bytes(&bytes).expect("wire round-trip");
    let (mut fresh, _) = build_gpu(&cfg, &descs);
    fresh.restore(&blob).expect("same config");

    assert_eq!(fresh.counter_registry(), registry, "registry restores bit-exactly");
    assert_eq!(
        fresh.recent_events(usize::MAX),
        gpu.recent_events(usize::MAX),
        "flight-recorder rings restore bit-exactly"
    );
    for (sm, fresh_sm) in gpu.sms().iter().zip(fresh.sms()) {
        assert_eq!(
            sm.events().iter().collect::<Vec<_>>(),
            fresh_sm.events().iter().collect::<Vec<_>>(),
            "per-SM ring contents (including wraparound order) restore exactly"
        );
    }
}

/// Restoring mid-scenario reproduces the golden-trace corpus: the
/// datacenter trio run with a snapshot/restore at an interior epoch yields
/// the same record stream as the canonical uninterrupted scenario.
#[test]
fn golden_scenario_survives_snapshot_restore() {
    let golden = harness::golden::run_scenario("datacenter_trio");

    let mut cfg = GpuConfig::tiny();
    cfg.fast_forward = true;
    let build = |gpu: &mut Gpu| {
        let q1 = gpu.launch(workloads::by_name("mri-q").expect("known workload"));
        let q2 = gpu.launch(workloads::by_name("sad").expect("known workload"));
        let be = gpu.launch(workloads::by_name("lbm").expect("known workload"));
        QosManager::new(QuotaScheme::Rollover)
            .with_kernel(q1, QosSpec::qos(40.0))
            .with_kernel(q2, QosSpec::qos(20.0))
            .with_kernel(be, QosSpec::best_effort())
    };

    let total = 15_000u64;
    let split = (total / 2 / cfg.epoch_cycles) * cfg.epoch_cycles;
    assert!(split > 0 && split < total, "interior epoch boundary");

    let mut gpu = Gpu::new(cfg.clone());
    let mut tracer = Tracer::new(build(&mut gpu));
    gpu.try_run(split, &mut tracer).expect("healthy scenario");
    let blob = gpu.snapshot().expect("epoch-aligned");

    let mut gpu2 = Gpu::new(cfg);
    let ctrl2 = build(&mut gpu2);
    gpu2.restore(&blob).expect("same config");
    let (ctrl, records) = tracer.into_parts();
    drop(ctrl2); // the restored run continues with the *traced* controller
    let mut tracer2 = Tracer::from_parts(ctrl, records);
    gpu2.try_run(total - split, &mut tracer2).expect("healthy scenario");

    assert_eq!(
        records_hash(tracer2.records()),
        records_hash(&golden),
        "restored run must reproduce the canonical golden records"
    );
    assert_eq!(tracer2.records(), &golden[..]);
}

/// The deterministic half of "snapshot bytes encoded": the exact payload of
/// a warmed Table-1 machine under the benchmark's trio. A change to what a
/// snapshot carries moves this number on every runner; re-pin it with the
/// schema version and say what the bytes buy. The caches are 8 bytes a line
/// (DESIGN.md §3.2): 81,920 lines make 655,360 of these bytes. Schema 9 is
/// 160 bytes under schema 8: a policy byte and four `u16` round-robin cursors
/// on each of 16 SMs, and the TB scheduler's two time-multiplexing words.
/// Schema 10 is 7,456 bytes under schema 9: the 64 preemption-save
/// histograms (4 kernel slots on each of 16 SMs) and the machine's
/// never-enabled counter series.
#[test]
fn warmed_trio_payload_size_is_pinned() {
    let cfg = GpuConfig::paper_table1();
    let mut gpu = Gpu::new(cfg.clone());
    let [q1, q2, be] = ["mri-q", "sad", "lbm"]
        .map(|name| gpu.launch(workloads::by_name(name).expect("known workload")));
    let mut manager = QosManager::new(QuotaScheme::Rollover)
        .with_kernel(q1, QosSpec::qos(40.0))
        .with_kernel(q2, QosSpec::qos(20.0))
        .with_kernel(be, QosSpec::best_effort());
    gpu.run(3 * cfg.epoch_cycles, &mut manager);
    assert_eq!(gpu.snapshot().expect("epoch-aligned").payload_len(), 744_750);
}

// ----------------------------------------------------------------------
// SoA-layout codec round trips (DESIGN.md §18.5).
// ----------------------------------------------------------------------

/// Barrier-heavy kernels so mid-stream snapshots catch warps parked at
/// barriers, TBs mid-transition, and partially consumed op bodies — the
/// states that populate every `WarpTable` column and packed mask, and the
/// `TbSlab` arena columns, with non-default values.
fn barrier_descs(nk: usize, seed: u64) -> Vec<KernelDesc> {
    (0..nk)
        .map(|k| {
            KernelDesc::builder(format!("soa{k}"))
                .grid_tbs(6 + k as u32)
                .threads_per_tb(64)
                .iterations(4)
                .seed(seed.wrapping_add(k as u64))
                .body(vec![
                    Op::mem_load(AccessPattern::tile(2048)),
                    Op::Bar,
                    Op::smem(),
                    Op::alu(3 + k as u16, 6),
                    Op::Bar,
                    Op::alu(2, 3),
                ])
                .build()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The struct-of-arrays warp table and TB slab round-trip bit-exactly
    /// at arbitrary mid-stream states: snapshot, restore into a fresh
    /// machine, snapshot again — the two blobs must be byte-identical
    /// (decode is a perfect left-inverse of encode for every column and
    /// packed mask), and the restored machine must continue to the same
    /// record stream.
    #[test]
    fn warp_table_and_slab_reencode_identically_mid_stream(
        nk in 1usize..4,
        seed in 0u64..10_000,
        split_epochs in 1u64..8,
        extra_epochs in 1u64..4,
        fast_forward in any::<bool>(),
    ) {
        let cfg = build_config(fast_forward, false, false, None);
        let descs = barrier_descs(nk, seed);
        let (mut gpu, _) = build_gpu(&cfg, &descs);
        let mut tracer = Tracer::new(Ctrl::Null);
        gpu.try_run(split_epochs * cfg.epoch_cycles, &mut tracer).expect("healthy");

        let bytes = gpu.snapshot().expect("epoch-aligned").into_bytes();
        let blob = SnapshotBlob::from_bytes(&bytes).expect("wire round-trip");
        let (mut fresh, _) = build_gpu(&cfg, &descs);
        fresh.restore(&blob).expect("same config");
        let rebytes = fresh.snapshot().expect("still epoch-aligned").into_bytes();
        prop_assert_eq!(&rebytes, &bytes, "re-encoded snapshot must be byte-identical");

        // And the restored table drives the machine to the same stream.
        let extra = extra_epochs * cfg.epoch_cycles;
        let mut t1 = Tracer::new(Ctrl::Null);
        let mut t2 = Tracer::new(Ctrl::Null);
        gpu.try_run(extra, &mut t1).expect("healthy");
        fresh.try_run(extra, &mut t2).expect("healthy");
        prop_assert_eq!(
            records_hash(t1.records()),
            records_hash(t2.records()),
            "continuation must be bit-identical"
        );
    }
}

/// Regression pin for the counter registry's enumeration order across the
/// SoA refactor: the exact `(scope, name)` sequence is load-bearing — it
/// fixes Perfetto/metrics export layout and the fold order behind
/// determinism hashes — so it is compared verbatim against a committed
/// golden list. Regenerate deliberately with
/// `BLESS_COUNTER_ORDER=1 cargo test counter_registry_enumeration_order`.
#[test]
fn counter_registry_enumeration_order_is_pinned() {
    let cfg = build_config(true, false, false, None);
    let descs = barrier_descs(2, 7);
    let (mut gpu, _) = build_gpu(&cfg, &descs);
    let mut tracer = Tracer::new(Ctrl::Null);
    gpu.try_run(2 * cfg.epoch_cycles, &mut tracer).expect("healthy");

    let listing: String =
        gpu.counter_registry().iter().map(|e| format!("{:?} {}\n", e.scope, e.name)).collect();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/counter_registry_order.txt");
    if std::env::var_os("BLESS_COUNTER_ORDER").is_some() {
        std::fs::write(&path, &listing).expect("write golden listing");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden listing readable");
    assert_eq!(
        listing, golden,
        "counter registry enumeration order changed; if intentional, \
         regenerate with BLESS_COUNTER_ORDER=1"
    );
}

/// Asserts `value` encodes to exactly `expected` and that `expected` decodes
/// to something that encodes the same (not every wire enum is `PartialEq`).
fn pin<T: Snap>(value: &T, expected: &[u8]) {
    let name = std::any::type_name::<T>();
    assert_eq!(encode_to_vec(value), expected, "{name} encoding");
    let back: T = decode_from_slice(expected).unwrap_or_else(|e| panic!("{name} decodes: {e}"));
    assert_eq!(encode_to_vec(&back), expected, "{name} round trip");
}

/// The wire layout of every data-carrying enum — a `u8` tag, then the
/// variant's fields in declaration order — pinned byte for byte, one value
/// per variant, and of a [`Cache`](fgqos::sim::cache::Cache), the bulk of
/// every machine blob. Snapshots, fleet checkpoints, migration blobs and the
/// trace corpus all embed these; a change here is a schema change.
#[test]
fn enum_wire_bytes_are_pinned() {
    use fgqos::bench::runner::CaseController;
    use fgqos::bench::{CaseError, Policy};
    use fgqos::sim::kernel::PatternKind;
    use fgqos::sim::tb::TbPhase;
    use fgqos::sim::TraceEventKind as Ev;
    use fgqos::sim::{AuditKind, AuditViolation, FaultKind, HealthReport, MemSpace, SimError};
    use fgqos::workloads::arrival::ArrivalModel;
    use fleet::{DeviceFate, MigrationReason, Placement, RequestState, ShedReason};

    /// Little-endian `u64` words after a leading tag byte.
    fn tagged(tag: u8, words: &[u64]) -> Vec<u8> {
        let mut out = vec![tag];
        out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        out
    }
    /// A tag byte in front of `inner`'s own encoding.
    fn wrap<T: Snap>(tag: u8, inner: &T) -> Vec<u8> {
        let mut out = vec![tag];
        inner.encode(&mut out);
        out
    }

    pin(&Ev::QuotaExhausted { kernel: 7 }, &[0, 7, 0, 0, 0]);
    pin(&Ev::PreemptStart { kernel: 1, tb: 2 }, &[1, 1, 0, 0, 0, 2, 0, 0, 0]);
    pin(&Ev::PreemptComplete { kernel: 1, tb: 2 }, &[2, 1, 0, 0, 0, 2, 0, 0, 0]);
    pin(&Ev::TbDispatch { kernel: 1, tb: 2, resumed: true }, &[3, 1, 0, 0, 0, 2, 0, 0, 0, 1]);
    pin(&Ev::TbDrain { kernel: 3, tb: 0x0102 }, &[4, 3, 0, 0, 0, 2, 1, 0, 0]);
    pin(&Ev::EpochBoundary { epoch: 5 }, &tagged(5, &[5]));
    pin(&Ev::IdleStart, &[6]);
    pin(&Ev::IdleEnd, &[7]);
    pin(
        &Ev::FaultInjected { fault: FaultKind::FreezeScheduler { sm: 3 } },
        &[8, 1, 3, 0, 0, 0, 0, 0, 0, 0],
    );

    pin(&Op::Alu { latency: 4, repeat: 0x0201, active_lanes: 32 }, &[0, 4, 0, 1, 2, 32]);
    pin(&Op::Sfu { latency: 20, repeat: 1, active_lanes: 8 }, &[1, 20, 0, 1, 0, 8]);
    let pattern =
        AccessPattern { kind: PatternKind::Random, footprint_bytes: 0x0100, transactions: 4 };
    pin(
        &Op::Mem { space: MemSpace::Shared, store: true, pattern, active_lanes: 16 },
        &[2, 1, 1, 2, 0, 1, 0, 0, 0, 0, 0, 0, 4, 16],
    );
    pin(&Op::Bar, &[3]);

    pin(&FaultKind::StarveQuota, &[0]);
    pin(&FaultKind::FreezeScheduler { sm: 1 }, &tagged(1, &[1]));
    pin(&FaultKind::StallPreemption, &[2]);
    pin(&FaultKind::Panic, &[3]);
    pin(&FaultKind::DeviceLoss, &[4]);
    pin(&FaultKind::DeviceWedge, &[5]);

    let report = || {
        Box::new(HealthReport {
            cycle: 9,
            window: 4,
            last_progress_cycle: 5,
            total_issued: 7,
            kernels: Vec::new(),
            sms: Vec::new(),
            events: Vec::new(),
        })
    };
    let violation =
        AuditViolation { cycle: 3, sm: Some(1), kind: AuditKind::QuotaLedger, detail: "x".into() };
    let mut audit = tagged(1, &[3]);
    audit.extend(tagged(1, &[1])); // `sm: Some(1)`
    audit.extend(tagged(2, &[1])); // `kind`, then `detail`'s length
    audit.push(b'x');
    pin(&SimError::Watchdog(report()), &tagged(0, &[9, 4, 5, 7, 0, 0, 0]));
    pin(&SimError::Audit(violation.clone()), &audit);
    pin(&SimError::DeviceLost(report()), &tagged(2, &[9, 4, 5, 7, 0, 0, 0]));

    pin(&TbPhase::Loading(0x0302), &tagged(0, &[0x0302]));
    pin(&TbPhase::Active, &[1]);
    pin(&TbPhase::Saving(77), &tagged(2, &[77]));

    pin(&ArrivalModel::Open { mean_gap: 500 }, &tagged(0, &[500]));
    pin(
        &ArrivalModel::Closed { think: 9, population: 3 },
        &[1, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0],
    );
    let mut diurnal = tagged(2, &[500, 10_000]);
    diurnal.extend([250, 0, 0, 0]);
    pin(&ArrivalModel::Diurnal { mean_gap: 500, period: 10_000, swing_permille: 250 }, &diurnal);

    pin(&RequestState::Queued { not_before: 6 }, &tagged(0, &[6]));
    pin(
        &RequestState::Running { device: 2, started_at: 8 },
        &[1, 2, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0],
    );
    pin(&RequestState::Done { finished_at: 11 }, &tagged(2, &[11]));
    pin(
        &RequestState::Shed { reason: ShedReason::FleetDead, at: 12 },
        &[3, 3, 12, 0, 0, 0, 0, 0, 0, 0],
    );
    pin(
        &RequestState::Migrating { from: 5, started_at: 8 },
        &[4, 5, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0],
    );

    pin(&DeviceFate::Healthy, &[0]);
    pin(&DeviceFate::Lost { at: 21 }, &tagged(1, &[21]));
    pin(&DeviceFate::Wedged { at: 22 }, &tagged(2, &[22]));
    pin(&DeviceFate::Drained { at: 23 }, &tagged(3, &[23]));

    pin(&SharingMode::Exclusive, &[0]);
    pin(&SharingMode::Smk, &[1]);
    pin(&SharingMode::Spatial, &[2]);

    pin(&Placement::Binpack, &[0]);
    pin(&Placement::Spread, &[1]);
    pin(&Placement::LeastLoaded, &[2]);

    pin(&MigrationReason::DeviceLost, &[0]);
    pin(&MigrationReason::DeviceWedged, &[1]);
    pin(&MigrationReason::Drain, &[2]);
    pin(&MigrationReason::ShedPressure, &[3]);

    let mut unknown = tagged(0, &[3]);
    unknown.extend(*b"abc");
    pin(&CaseError::UnknownBenchmark { name: "abc".into() }, &unknown);
    pin(&CaseError::Sim(SimError::Audit(violation)), &[&[1], &audit[..]].concat());
    let mut panicked = tagged(2, &[2]);
    panicked.extend([b'n', b'o', 2, 0, 0, 0]);
    pin(&CaseError::Panicked { payload: "no".into(), attempts: 2 }, &panicked);

    let spart = SpartController::new();
    let quota = QosManager::new(QuotaScheme::Rollover);
    pin(&CaseController::Spart(spart.clone()), &wrap(0, &spart));
    pin(&CaseController::Quota(quota.clone()), &wrap(1, &quota));

    pin(&Policy::Spart, &[0]);
    pin(&Policy::Quota(QuotaScheme::Rollover), &[1, 3]);

    // Two one-way sets of 32-byte lines after one miss on set 1, tag 1: the
    // line count, a word per line (stamp in the low half, tag in the high),
    // sets, ways, then line_shift and clock as `u32`s, hits, misses.
    let mut cache = fgqos::sim::cache::Cache::new(64, 1, 32);
    cache.access(0x60);
    let words = |le: &[u64]| tagged(0, le)[1..].to_vec();
    let shift_and_clock = vec![5, 0, 0, 0, 1, 0, 0, 0];
    pin(&cache, &[words(&[2, 0, 1 << 32 | 1, 2, 1]), shift_and_clock, words(&[0, 1])].concat());
}
