//! The fleet proper: many simulated GPUs behind one cluster scheduler.
//!
//! Execution is tick-based. One tick = [`TICK_CYCLES`] device
//! cycles, a multiple of the device epoch, so every busy device sits at an
//! epoch boundary — and is therefore snapshottable — at every tick
//! boundary. Each tick:
//!
//! 1. **arrivals** are collected from every tenant stream (deterministic,
//!    per-tenant seeded) and pass **admission control**: best-effort
//!    requests are rejected outright when projected occupancy would push
//!    queue drain past the guaranteed tenants' SLO horizon, or when the
//!    fleet's **working-set estimates** project device memory past
//!    capacity;
//! 2. the **load-shedding hysteresis** updates (enter above
//!    [`SHED_ENTER_PERMILLE`], exit below [`SHED_EXIT_PERMILLE`]) and, while
//!    engaged, sheds queued best-effort work oldest-first;
//! 3. **planned drains** retire their devices, snapshotting any running
//!    batch into the pending-migration queue;
//! 4. **placement** first services pending migrations (restoring each
//!    batch snapshot onto the first idle device of its migration class),
//!    may preempt one all-best-effort batch under shed pressure to free a
//!    device for waiting guaranteed work, then routes queued requests
//!    through the configured [`Placement`](crate::Placement);
//! 5. busy devices are **stepped in parallel** via
//!    [`exec::parallel_for_each`];
//! 6. results are harvested in stable device order: device failures are
//!    **classified first** (loss / wedge, by the typed [`SimError`]),
//!    *then* accounted — completions that beat the fault in the same tick
//!    still count, and survivors resume from their last **checkpoint** on
//!    a compatible spare with retries untouched; clean completions retire
//!    (feeding closed-loop streams and the working-set trackers),
//!    timeouts go through **bounded retry with exponential backoff and
//!    deterministic jitter**.
//!
//! Every decision is a pure function of the config and the master seed, so
//! the final report is byte-identical across runs — and across a
//! kill+resume through [`Fleet::snapshot`]/[`Fleet::restore`], even with
//! migrations in flight.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

use gpu_sim::rng::{derive_seed, SplitMix64};
use gpu_sim::snap::{Snap, SnapError, SnapReader};
use gpu_sim::telemetry::{LatencyHistogram, TimeSeries};
use gpu_sim::{
    CounterEntry, CounterKind, CounterScope, FaultPlan, Gpu, KernelId, NullController, SimError,
    SnapshotBlob, MAX_KERNELS,
};
use qos_core::{kernel_footprint_bytes, WorkingSetTracker};
use workloads::arrival::{request_kernel, ArrivalStream};

use crate::config::{
    FleetConfig, FleetFault, PlannedDrain, BACKOFF_BASE, EST_SERVICE_CYCLES, MAX_RETRIES,
    SHED_ENTER_PERMILLE, SHED_EXIT_PERMILLE, TICK_CYCLES,
};
use crate::migrate::{MigrationReason, MigrationRecord, PendingMigration};
use crate::placement::DeviceView;
use crate::request::{Request, RequestState, ShedReason};

/// Schema version of the fleet snapshot encoding; [`Fleet::restore`]
/// refuses any other. v10 embeds schema-15 device blobs and holds each fact
/// once: the clock is the tick index, a device's id is its index and its
/// pending faults and drains are the configuration's, a request's id is its
/// index and its timeout base is its batch's, and a migration record's
/// tenants are its requests'. What the configuration fixes (each arrival
/// stream's model and total, the working-set floor, the series capacity) is
/// the receiver's (DESIGN.md §14.4, §16.2).
pub const FLEET_SNAPSHOT_VERSION: u32 = 10;

/// Ring capacity of the fleet's tick-sampled counter time series. Large
/// enough that every shipped scenario (at most 1,500 ticks; the diurnal soak
/// runs 558) keeps its full history; longer runs evict oldest-first and
/// count the evictions.
pub const FLEET_SERIES_CAPACITY: usize = 4096;

/// What ultimately happened to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceFate {
    /// Alive and serving.
    Healthy,
    /// Killed by a device-loss fault at the given fleet cycle.
    Lost {
        /// Fleet cycle at which the loss was detected.
        at: u64,
    },
    /// Wedged (watchdog-classified) at the given fleet cycle.
    Wedged {
        /// Fleet cycle at which the watchdog classified it.
        at: u64,
    },
    /// Retired by a planned drain at the given fleet cycle.
    Drained {
        /// Fleet cycle at which the drain took effect.
        at: u64,
    },
}

impl DeviceFate {
    fn is_healthy(self) -> bool {
        matches!(self, DeviceFate::Healthy)
    }
}

gpu_sim::impl_snap_enum!(DeviceFate {
    Healthy = 0,
    Lost { at } = 1,
    Wedged { at } = 2,
    Drained { at } = 3,
});

/// A batch's migration checkpoint: the serialized snapshot of `gpu` as it
/// stands, legal at every tick boundary, where a busy device sits at an
/// epoch boundary. The blob carries its own clock and migration class.
fn checkpoint(gpu: &Gpu) -> Vec<u8> {
    gpu.snapshot().expect("busy devices sit at epoch boundaries at ticks").into_bytes()
}

/// One in-flight batch: a fresh [`Gpu`] running up to [`MAX_KERNELS`]
/// request kernels under SMK sharing. Kernel slot `i` serves request
/// `requests[i]`.
#[derive(Debug)]
struct Batch {
    /// Request ids, in kernel launch order.
    requests: Vec<usize>,
    /// Whether slot `i` is still live (not yet completed / timed out).
    active: Vec<bool>,
    /// Fleet cycle at which the batch was originally placed: the timeout
    /// base of its requests, kept across migrations.
    started_at: u64,
    /// Latest migration checkpoint ([`checkpoint`]): taken at placement,
    /// refreshed on the checkpoint cadence.
    ckpt: Vec<u8>,
    /// The simulated device; it holds the batch's device-relative fault
    /// plan.
    gpu: Gpu,
    /// Error from the last tick's step, harvested after the parallel phase.
    step_err: Option<SimError>,
}

/// One fleet device: a slot that hosts consecutive batches until a fault
/// or a planned drain retires it. Its id is its index in the fleet's device
/// table; its scheduled faults and drains are the configuration's, pending
/// for as long as it stays healthy.
#[derive(Debug)]
struct Device {
    /// Index into `FleetConfig::classes` (derived from the id, not
    /// snapshotted).
    class: usize,
    fate: DeviceFate,
    /// Batches created on this device so far (including migrated-in ones).
    batches: u64,
    /// Requests completed on this device.
    served: u64,
    batch: Option<Batch>,
}

impl Device {
    fn idle_healthy(&self) -> bool {
        self.fate.is_healthy() && self.batch.is_none()
    }

    fn busy_healthy(&self) -> bool {
        self.fate.is_healthy() && self.batch.is_some()
    }

    /// Steps this device's batch by `cycles`; called from worker threads.
    fn step(&mut self, cycles: u64) {
        if let Some(batch) = &mut self.batch {
            batch.step_err = batch.gpu.try_run(cycles, &mut NullController).err();
        }
    }
}

/// Gates kernel slot `slot` on every SM of `gpu`: a retired request's
/// kernel stops consuming issue slots and can never complete twice.
fn retire_slot(gpu: &mut Gpu, slot: usize) {
    for sm in gpu.sm_ids().collect::<Vec<_>>() {
        gpu.sm_quota(sm).set_gated(KernelId::new(slot), true);
    }
}

/// Cumulative per-tenant serving metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Requests that arrived (entered the fleet).
    pub arrived: u64,
    /// Completed requests that met the tenant's SLO deadline (guaranteed
    /// tenants only; stays 0 for best-effort).
    pub slo_met: u64,
    /// Per-request timeouts observed.
    pub timeouts: u64,
    /// Retries consumed (each timeout or device failure that re-queued).
    pub retries: u64,
    /// Requests shed at admission.
    pub shed_admission: u64,
    /// Requests shed under overload.
    pub shed_overload: u64,
    /// Requests shed with the retry budget exhausted.
    pub shed_retries: u64,
    /// Requests shed for any other reason (fleet dead, unfinished).
    pub shed_other: u64,
    /// End-to-end completion latency distribution (arrival → done), in
    /// fleet cycles, one value per completed request: its count is the
    /// requests completed, and its sum and maximum give the mean and worst
    /// latency. Log-bucketed and integer-exact, so percentiles are
    /// deterministic and the state snapshots byte-identically.
    pub latency_hist: LatencyHistogram,
    /// Queue-wait distribution: arrival → first placement, in fleet
    /// cycles (first placements only — retry re-queues are excluded so a
    /// retried request does not double-count its service time as wait).
    pub queue_wait_hist: LatencyHistogram,
    /// Retries-consumed distribution, recorded once per completed
    /// request (value = total retries that request used).
    pub retry_hist: LatencyHistogram,
    /// Live-migration outage distribution: enqueue → restore, in fleet
    /// cycles, recorded once per resumed request: its count is the requests
    /// live-migrated to another device (retries untouched).
    pub migration_hist: LatencyHistogram,
}

gpu_sim::impl_snap_struct!(TenantCounters {
    arrived,
    slo_met,
    timeouts,
    retries,
    shed_admission,
    shed_overload,
    shed_retries,
    shed_other,
    latency_hist,
    queue_wait_hist,
    retry_hist,
    migration_hist,
});

impl TenantCounters {
    /// Total requests shed, over all reasons.
    pub fn shed_total(&self) -> u64 {
        self.shed_admission + self.shed_overload + self.shed_retries + self.shed_other
    }
}

/// The fleet: devices, tenants, queue, and the scheduler state machine.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    /// Per-class device config fingerprints (migration classes),
    /// config-derived.
    class_fingerprints: Vec<u64>,
    /// Per-class DRAM line size, config-derived (footprint samples).
    line_bytes: Vec<u32>,
    tick_index: u64,
    shedding: bool,
    finished: bool,
    devices: Vec<Device>,
    requests: Vec<Request>,
    queue: VecDeque<usize>,
    streams: Vec<ArrivalStream>,
    tenants: Vec<TenantCounters>,
    /// Per-tenant measured working-set estimates.
    ws: Vec<WorkingSetTracker>,
    /// Batches waiting for a compatible spare, oldest first.
    pending_migrations: Vec<PendingMigration>,
    /// Completed migrations, for reports and trace export.
    migrations: Vec<MigrationRecord>,
    /// Pending migrations that fell back to bounded retry (patience or
    /// timeout expired before a spare appeared).
    migration_fallbacks: u64,
    /// Requests evicted into retry-from-scratch (no checkpoint, migration
    /// disabled, or fallback).
    evictions: u64,
    /// Tick-sampled counter-registry time series: the one per-tick history,
    /// read by the metrics exports and the Perfetto trace (snapshotted: a
    /// resumed run carries the same history a straight-through run would).
    series: TimeSeries,
}

impl Fleet {
    /// Builds a fleet from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not validate.
    pub fn new(cfg: FleetConfig) -> Self {
        cfg.validate().expect("fleet config must validate");
        let class_fingerprints: Vec<u64> =
            (0..cfg.classes.len()).map(|ci| cfg.device_config(ci).fingerprint()).collect();
        let line_bytes: Vec<u32> =
            (0..cfg.classes.len()).map(|ci| cfg.device_config(ci).mem.line_bytes).collect();
        let ws_floor = u64::from(line_bytes.iter().copied().min().unwrap_or(32));
        let devices = (0..cfg.total_devices())
            .map(|id| Device {
                class: cfg.class_of(id),
                fate: DeviceFate::Healthy,
                batches: 0,
                served: 0,
                batch: None,
            })
            .collect();
        let streams = cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let seed =
                    derive_seed(cfg.seed, workloads::arrival::hash_label(&t.name) ^ i as u64);
                ArrivalStream::new(t.arrival, seed, t.requests)
            })
            .collect();
        let tenants = vec![TenantCounters::default(); cfg.tenants.len()];
        let ws =
            cfg.tenants.iter().map(|t| WorkingSetTracker::new(t.mem_bytes, ws_floor)).collect();
        Fleet {
            cfg,
            class_fingerprints,
            line_bytes,
            tick_index: 0,
            shedding: false,
            finished: false,
            devices,
            requests: Vec::new(),
            queue: VecDeque::new(),
            streams,
            tenants,
            ws,
            pending_migrations: Vec::new(),
            migrations: Vec::new(),
            migration_fallbacks: 0,
            evictions: 0,
            series: TimeSeries::new(FLEET_SERIES_CAPACITY),
        }
    }

    /// The configuration this fleet runs under.
    pub fn config(&self) -> &FleetConfig {
        &self.cfg
    }

    /// Current fleet cycle: the ticks executed times the tick length.
    pub fn cycle(&self) -> u64 {
        self.tick_index * TICK_CYCLES
    }

    /// Ticks executed so far.
    pub fn ticks(&self) -> u64 {
        self.tick_index
    }

    /// Whether the run is over (all streams drained and all requests
    /// terminal, or the fleet is dead / out of ticks).
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether load shedding is currently engaged.
    pub fn shedding(&self) -> bool {
        self.shedding
    }

    /// The request table (arrival order).
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Cumulative per-tenant counters, in config tenant order.
    pub fn tenant_counters(&self) -> &[TenantCounters] {
        &self.tenants
    }

    /// The tick-sampled counter-registry time series: one row of
    /// [`Fleet::counter_registry`] per tick.
    pub fn metrics_series(&self) -> &TimeSeries {
        &self.series
    }

    /// Completed migrations, oldest first.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Batches currently waiting in the pending-migration queue.
    pub fn pending_migration_count(&self) -> usize {
        self.pending_migrations.len()
    }

    /// Pending migrations that fell back to bounded retry.
    pub fn migration_fallbacks(&self) -> u64 {
        self.migration_fallbacks
    }

    /// Requests evicted into retry-from-scratch over the run.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Requests resumed via live migration over the run (one count per
    /// request per successful migration).
    pub fn migrated_requests(&self) -> u64 {
        self.tenants.iter().map(|c| c.migration_hist.count()).sum()
    }

    /// Tenant `t`'s current measured working-set estimate, in bytes.
    pub fn working_set_estimate(&self, t: usize) -> u64 {
        self.ws[t].estimate()
    }

    /// Arrived requests that are in no terminal state. Zero once
    /// [`Fleet::finished`] — the zero-lost-requests invariant.
    pub fn lost_requests(&self) -> usize {
        self.requests.iter().filter(|r| !r.is_terminal()).count()
    }

    /// Whether every guaranteed tenant meets its SLO attainment floor.
    pub fn all_guaranteed_met(&self) -> bool {
        self.cfg.tenants.iter().zip(&self.tenants).all(|(spec, c)| match spec.class.slo() {
            Some(slo) => slo.satisfied_by(c.slo_met, c.arrived),
            None => true,
        })
    }

    /// Runs to completion (bounded by the config's tick safety net).
    pub fn run_to_completion(&mut self) {
        while !self.finished {
            self.step();
        }
    }

    // ------------------------------------------------------------------
    // The tick state machine
    // ------------------------------------------------------------------

    /// Executes one tick; returns `true` when the fleet has finished.
    pub fn step(&mut self) -> bool {
        if self.finished {
            return true;
        }
        let now = self.cycle();
        let end = now + TICK_CYCLES;

        self.collect_arrivals(now);
        self.update_shedding(now);
        self.process_drains(now);
        self.place(now);
        self.step_devices();
        for di in 0..self.devices.len() {
            self.harvest_device(di, end);
        }
        self.tick_index += 1;
        self.expire_migrations(end);
        self.record_sample();
        self.check_finished();
        self.finished
    }

    /// Pulls every arrival due at or before `now` from the tenant streams,
    /// running admission control on best-effort work.
    fn collect_arrivals(&mut self, now: u64) {
        for t in 0..self.streams.len() {
            for (seq, at) in self.streams[t].arrivals_before(now + 1) {
                let id = self.requests.len();
                self.tenants[t].arrived += 1;
                let shed = if self.cfg.tenants[t].class.is_guaranteed() {
                    None
                } else if self.shedding {
                    Some(ShedReason::Overload)
                } else if self.load_permille(1) > 1000
                    || self.mem_load_permille(self.ws[t].estimate()) > 1000
                {
                    // Projected drain of one more request would overrun the
                    // guaranteed SLO horizon — or its measured working set
                    // would not fit the healthy fleet's memory: reject at
                    // the door.
                    Some(ShedReason::Admission)
                } else {
                    None
                };
                let state = RequestState::Queued { not_before: 0 };
                self.requests.push(Request { tenant: t, seq, arrived_at: at, retries: 0, state });
                match shed {
                    Some(reason) => self.shed(id, reason, now),
                    None => self.queue.push_back(id),
                }
            }
        }
    }

    /// Projected fleet load in permille of the guaranteed SLO horizon:
    /// outstanding work (running + migrating + queued + `extra`
    /// hypothetical requests, each costing the scheduler-visible service
    /// estimate) over what the healthy devices can drain within the
    /// horizon. 1000‰ means the last queued request is projected to finish
    /// exactly at the horizon.
    fn load_permille(&self, extra: u64) -> u64 {
        let healthy_slots =
            self.devices.iter().filter(|d| d.fate.is_healthy()).count() as u64 * MAX_KERNELS as u64;
        if healthy_slots == 0 {
            return u64::MAX;
        }
        let running = self
            .requests
            .iter()
            .filter(|r| matches!(r.state, RequestState::Running | RequestState::Migrating))
            .count() as u64;
        let work = (running + self.queue.len() as u64 + extra) * EST_SERVICE_CYCLES;
        work.saturating_mul(1000) / (healthy_slots * self.admission_horizon())
    }

    /// Projected device-memory demand in permille of healthy capacity:
    /// every outstanding request claims its tenant's measured working-set
    /// estimate, plus `extra_bytes` for a hypothetical admission.
    fn mem_load_permille(&self, extra_bytes: u64) -> u64 {
        let capacity: u64 = self
            .devices
            .iter()
            .filter(|d| d.fate.is_healthy())
            .map(|d| self.cfg.classes[d.class].mem_bytes)
            .sum();
        if capacity == 0 {
            return u64::MAX;
        }
        let demand: u64 = self
            .requests
            .iter()
            .filter(|r| {
                matches!(
                    r.state,
                    RequestState::Queued { .. } | RequestState::Running | RequestState::Migrating
                )
            })
            .map(|r| self.ws[r.tenant].estimate())
            .sum::<u64>()
            .saturating_add(extra_bytes);
        demand.saturating_mul(1000) / capacity
    }

    /// The SLO horizon admission control defends: the tightest guaranteed
    /// deadline, or the request timeout when no tenant holds a guarantee.
    fn admission_horizon(&self) -> u64 {
        self.cfg
            .tenants
            .iter()
            .filter_map(|t| t.class.slo())
            .map(|slo| slo.deadline_cycles)
            .min()
            .unwrap_or(self.cfg.timeout_cycles)
            .max(1)
    }

    /// Updates the load-shedding hysteresis and sheds queued best-effort
    /// work while engaged.
    fn update_shedding(&mut self, now: u64) {
        let load = self.load_permille(0);
        if !self.shedding && load > u64::from(SHED_ENTER_PERMILLE) {
            self.shedding = true;
        } else if self.shedding && load < u64::from(SHED_EXIT_PERMILLE) {
            self.shedding = false;
        }
        if !self.shedding {
            return;
        }
        // Shed queued best-effort oldest-first until the projection drops
        // back to the engage threshold (guaranteed work is never shed).
        while self.load_permille(0) > u64::from(SHED_ENTER_PERMILLE) {
            let Some(pos) = self
                .queue
                .iter()
                .position(|&id| !self.cfg.tenants[self.requests[id].tenant].class.is_guaranteed())
            else {
                break;
            };
            let id = self.queue.remove(pos).expect("position is in range");
            self.shed(id, ShedReason::Overload, now);
        }
    }

    /// Takes every planned drain that is due on a healthy device: its
    /// running batch (if any) is snapshotted fresh at this tick boundary and
    /// queued for migration, and the device leaves service.
    fn process_drains(&mut self, now: u64) {
        for di in 0..self.devices.len() {
            let due = |d: &PlannedDrain| d.device as usize == di && d.at_cycle <= now;
            if !self.devices[di].fate.is_healthy() || !self.cfg.drains.iter().any(due) {
                continue;
            }
            if self.devices[di].batch.is_some() {
                self.park_batch(di, now, MigrationReason::Drain);
            }
            self.devices[di].fate = DeviceFate::Drained { at: now };
        }
    }

    /// Placement phase: pending migrations first (they carry the most
    /// sunk work), then an optional shed-pressure preemption, then the
    /// policy-driven queue placement.
    fn place(&mut self, now: u64) {
        self.service_migrations(now);
        self.preempt_for_guaranteed(now);
        self.place_queue(now);
    }

    /// Restores pending migrations, oldest first, onto idle devices of the
    /// same migration class.
    fn service_migrations(&mut self, now: u64) {
        if self.pending_migrations.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending_migrations);
        for pm in pending {
            // A blob that does not parse has no class: it matches no device
            // and waits out its patience, as one that fails `restore` does.
            let class = SnapshotBlob::from_bytes(&pm.blob).ok().map(|b| b.config_fingerprint());
            let target = self
                .devices
                .iter()
                .position(|d| d.idle_healthy() && Some(self.class_fingerprints[d.class]) == class);
            let refused = match target {
                Some(di) => self.install_migration(di, pm, now).err(),
                None => Some(pm),
            };
            self.pending_migrations.extend(refused);
        }
    }

    /// Restores one pending migration onto idle device `di`. Gives `pm`
    /// back (leaving the fleet untouched) if the blob refuses to decode or
    /// restore — the migration then waits out its patience and falls back
    /// to bounded retry.
    fn install_migration(
        &mut self,
        di: usize,
        pm: PendingMigration,
        now: u64,
    ) -> Result<(), PendingMigration> {
        let Ok(blob) = SnapshotBlob::from_bytes(&pm.blob) else { return Err(pm) };
        // The restore brings the source device's fault plan; the receiver's
        // replaces it, translated into the restored clock, which reads the
        // blob's cycle at fleet cycle `now`.
        let mut gpu = Gpu::new(self.cfg.device_config(self.devices[di].class));
        if gpu.restore(&blob).is_err() {
            return Err(pm);
        }
        gpu.set_fault_plan(self.device_plan(di, gpu.cycle(), now));
        // Gate every slot that retired after the checkpoint was taken so
        // finished work never re-runs (and can never double-complete).
        for (slot, _) in pm.active.iter().enumerate().filter(|(_, &live)| !live) {
            retire_slot(&mut gpu, slot);
        }
        let mut record = MigrationRecord {
            from_device: pm.from_device,
            to_device: di as u32,
            reason: pm.reason,
            requests: Vec::new(),
            enqueued_at: pm.enqueued_at,
            restored_at: now,
        };
        for id in pm.live_requests() {
            let t = self.requests[id].tenant;
            self.requests[id].state = RequestState::Running;
            self.tenants[t].migration_hist.record(now.saturating_sub(pm.enqueued_at));
            record.requests.push(id as u64);
        }
        self.migrations.push(record);
        let batch = Batch {
            requests: pm.slots.iter().map(|&x| x as usize).collect(),
            active: pm.active,
            started_at: pm.started_at,
            ckpt: pm.blob,
            gpu,
            step_err: None,
        };
        self.open_batch(di, batch);
        Ok(())
    }

    /// Under shed pressure with guaranteed work waiting and no idle
    /// device, preempts (at most) one all-best-effort batch — snapshotted
    /// fresh, zero progress lost — to free its device for the guaranteed
    /// queue this very tick.
    fn preempt_for_guaranteed(&mut self, now: u64) {
        if !self.shedding {
            return;
        }
        let guaranteed_waiting = self.queue.iter().any(|&id| {
            self.cfg.tenants[self.requests[id].tenant].class.is_guaranteed()
                && matches!(self.requests[id].state,
                    RequestState::Queued { not_before } if not_before <= now)
        });
        if !guaranteed_waiting || self.devices.iter().any(Device::idle_healthy) {
            return;
        }
        let candidate = self.devices.iter().position(|d| {
            d.busy_healthy()
                && d.batch.as_ref().is_some_and(|b| {
                    b.requests.iter().zip(&b.active).filter(|&(_, &live)| live).all(|(&id, _)| {
                        !self.cfg.tenants[self.requests[id].tenant].class.is_guaranteed()
                    })
                })
        });
        if let Some(di) = candidate {
            self.park_batch(di, now, MigrationReason::ShedPressure);
        }
    }

    /// Moves device `di`'s batch into the pending-migration queue at fleet
    /// cycle `at`. A drained or preempted batch is snapshotted fresh at this
    /// tick boundary, so it loses nothing; a lost or wedged device's state
    /// is untrustworthy, so its batch resumes from its last checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if the device is idle or its GPU is off an epoch boundary (a
    /// fleet invariant violation).
    fn park_batch(&mut self, di: usize, at: u64, reason: MigrationReason) {
        let batch = self.devices[di].batch.take().expect("a parked device is busy");
        let blob = match reason {
            MigrationReason::Drain | MigrationReason::ShedPressure => checkpoint(&batch.gpu),
            MigrationReason::DeviceLost | MigrationReason::DeviceWedged => batch.ckpt,
        };
        let pm = PendingMigration {
            slots: batch.requests.iter().map(|&id| id as u64).collect(),
            active: batch.active,
            started_at: batch.started_at,
            blob,
            from_device: di as u32,
            reason,
            enqueued_at: at,
        };
        for id in pm.live_requests() {
            self.requests[id].state = RequestState::Migrating;
        }
        self.pending_migrations.push(pm);
    }

    /// Routes queued, backoff-eligible requests to idle healthy devices
    /// through the configured [`Placement`](crate::Placement). What stays
    /// queued keeps its order: first the requests still backing off, then
    /// the eligible ones no device could take.
    fn place_queue(&mut self, now: u64) {
        let (devices, mut views): (Vec<usize>, Vec<DeviceView>) = self
            .devices
            .iter()
            .enumerate()
            .filter(|(_, d)| d.idle_healthy())
            .map(|(di, d)| {
                let free_mem_bytes = self.cfg.classes[d.class].mem_bytes;
                let view = DeviceView {
                    free_slots: MAX_KERNELS,
                    free_mem_bytes,
                    assigned: 0,
                    batches: d.batches,
                };
                (di, view)
            })
            .unzip();
        if views.is_empty() {
            return;
        }
        let (eligible, mut queue): (VecDeque<usize>, VecDeque<usize>) =
            self.queue.iter().partition(|&&id| {
                matches!(self.requests[id].state,
                    RequestState::Queued { not_before } if not_before <= now)
            });
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); views.len()];
        for id in eligible {
            let mem_bytes = self.ws[self.requests[id].tenant].estimate();
            match self.cfg.placement.choose(mem_bytes, &views) {
                Some(vi) => {
                    let view = &mut views[vi];
                    view.free_slots -= 1;
                    view.free_mem_bytes -= mem_bytes;
                    view.assigned += 1;
                    assigned[vi].push(id);
                }
                None => queue.push_back(id),
            }
        }
        self.queue = queue;
        for (di, ids) in devices.into_iter().zip(assigned) {
            if !ids.is_empty() {
                self.start_batch(di, ids, now);
            }
        }
    }

    /// Creates a batch on device `di` serving `ids` and takes its initial
    /// migration checkpoint.
    fn start_batch(&mut self, di: usize, ids: Vec<usize>, now: u64) {
        let mut gpu = Gpu::new(self.cfg.device_config(self.devices[di].class));
        gpu.set_fault_plan(self.device_plan(di, 0, now));
        gpu.set_sharing_mode(gpu_sim::SharingMode::Smk);
        for &id in &ids {
            let req = &self.requests[id];
            let spec = &self.cfg.tenants[req.tenant];
            gpu.launch(request_kernel(&spec.name, req.seq, spec.grid_tbs));
            // Queue wait is arrival → first placement; retry re-queues are
            // excluded so service time never masquerades as wait.
            if req.retries == 0 {
                self.tenants[req.tenant].queue_wait_hist.record(now.saturating_sub(req.arrived_at));
            }
            self.requests[id].state = RequestState::Running;
        }
        let batch = Batch {
            active: vec![true; ids.len()],
            requests: ids,
            started_at: now,
            // The initial checkpoint, taken before the first cycle runs:
            // even a first-tick device loss migrates instead of retrying
            // from scratch.
            ckpt: checkpoint(&gpu),
            gpu,
            step_err: None,
        };
        self.open_batch(di, batch);
    }

    /// Healthy device `di`'s scheduled faults, fleet-absolute, translated
    /// into the clock of a GPU that reads `gpu_cycle` at fleet cycle `now`.
    /// Every fleet fault is terminal, so one that fired in a batch whose work
    /// finished before the watchdog tripped is still pending: the next batch
    /// meets it at cycle zero.
    fn device_plan(&self, di: usize, gpu_cycle: u64, now: u64) -> FaultPlan {
        let faults = self.cfg.device_faults.iter().filter(|f| f.device as usize == di);
        faults.fold(FaultPlan::none(), |plan, f| {
            plan.with(gpu_cycle + f.at_cycle.saturating_sub(now), f.kind)
        })
    }

    /// Installs `batch` on idle device `di`.
    fn open_batch(&mut self, di: usize, batch: Batch) {
        let device = &mut self.devices[di];
        device.batches += 1;
        device.batch = Some(batch);
    }

    /// Steps every busy healthy device by one tick, in parallel.
    fn step_devices(&mut self) {
        let tick = TICK_CYCLES;
        let busy: Vec<Mutex<&mut Device>> =
            self.devices.iter_mut().filter(|d| d.busy_healthy()).map(Mutex::new).collect();
        if busy.is_empty() {
            return;
        }
        let threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(busy.len());
        exec::parallel_for_each(&busy, threads, |cell| {
            cell.lock().expect("device mutex").step(tick);
        });
    }

    /// Harvests one device after the parallel step: completions, timeouts,
    /// device failures, and checkpoint refresh. Runs in stable device
    /// order.
    fn harvest_device(&mut self, di: usize, end: u64) {
        if !self.devices[di].busy_healthy() {
            return;
        }
        let Some(mut batch) = self.devices[di].batch.take() else { return };

        if let Some(err) = batch.step_err.take() {
            // Classify FIRST: the device's fate must be on the books before
            // any request accounting, so a wedge that fires during a
            // batch's final tick can never be laundered into a clean
            // eviction — the sticky-fault race this ordering closes.
            let (fate, reason) = match err {
                SimError::DeviceLost(_) => {
                    (DeviceFate::Lost { at: end }, MigrationReason::DeviceLost)
                }
                _ => (DeviceFate::Wedged { at: end }, MigrationReason::DeviceWedged),
            };
            self.devices[di].fate = fate;
            // THEN account: kernels that completed before the fault hit in
            // this same tick produced real results — harvest them as done.
            let stats = batch.gpu.stats();
            for slot in 0..batch.requests.len() {
                if !batch.active[slot] {
                    continue;
                }
                if stats.kernel(KernelId::new(slot)).launches_completed >= 1 {
                    batch.active[slot] = false;
                    let id = batch.requests[slot];
                    self.complete(id, end);
                    self.devices[di].served += 1;
                }
            }
            // Survivors resume from the last checkpoint on a compatible
            // spare; if none turns up, `expire_migrations` evicts them.
            if batch.active.iter().any(|&l| l) {
                self.devices[di].batch = Some(batch);
                self.park_batch(di, end, reason);
            }
            return;
        }

        let stats = batch.gpu.stats();
        for slot in 0..batch.requests.len() {
            if !batch.active[slot] {
                continue;
            }
            let id = batch.requests[slot];
            let k = KernelId::new(slot);
            let done = stats.kernel(k).launches_completed >= 1;
            let timed_out =
                !done && end.saturating_sub(batch.started_at) >= self.cfg.timeout_cycles;
            if !done && !timed_out {
                continue;
            }
            // Either way the slot retires.
            retire_slot(&mut batch.gpu, slot);
            batch.active[slot] = false;
            if done {
                let t = self.requests[id].tenant;
                let launches = stats.kernel(k).launches_completed.max(1);
                if let Some(fp) = kernel_footprint_bytes(
                    &batch.gpu.counter_registry(),
                    slot,
                    self.line_bytes[self.devices[di].class],
                ) {
                    self.ws[t].observe(fp / launches);
                }
                self.complete(id, end);
                self.devices[di].served += 1;
            } else {
                let t = self.requests[id].tenant;
                self.tenants[t].timeouts += 1;
                self.retry_or_shed(id, end);
            }
        }

        if batch.active.iter().any(|&a| a) {
            // Refresh the migration checkpoint on the configured cadence —
            // the GPU sits at an epoch boundary here, so the snapshot is
            // legal.
            if self
                .tick_index
                .wrapping_add(1)
                .is_multiple_of(self.cfg.migration.checkpoint_every_ticks)
            {
                batch.ckpt = checkpoint(&batch.gpu);
            }
            self.devices[di].batch = Some(batch);
        }
    }

    /// Applies patience and timeout limits to the pending-migration queue:
    /// a migration nobody can host falls back to bounded retry, so the
    /// queue can never hold work forever.
    fn expire_migrations(&mut self, end: u64) {
        if self.pending_migrations.is_empty() {
            return;
        }
        let patience = self.cfg.migration.patience_ticks.saturating_mul(TICK_CYCLES);
        let pending = std::mem::take(&mut self.pending_migrations);
        for pm in pending {
            if end.saturating_sub(pm.started_at) >= self.cfg.timeout_cycles {
                self.migration_fallbacks += 1;
                for id in pm.live_requests() {
                    let t = self.requests[id].tenant;
                    self.tenants[t].timeouts += 1;
                    self.retry_or_shed(id, end);
                }
            } else if end.saturating_sub(pm.enqueued_at) >= patience {
                self.migration_fallbacks += 1;
                for id in pm.live_requests() {
                    self.evictions += 1;
                    self.retry_or_shed(id, end);
                }
            } else {
                self.pending_migrations.push(pm);
            }
        }
    }

    /// Retires `id` as completed at `end`.
    fn complete(&mut self, id: usize, end: u64) {
        let req = &mut self.requests[id];
        req.state = RequestState::Done { finished_at: end };
        let t = req.tenant;
        let latency = end - req.arrived_at;
        let retries = u64::from(req.retries);
        let c = &mut self.tenants[t];
        c.latency_hist.record(latency);
        c.retry_hist.record(retries);
        if let Some(slo) = self.cfg.tenants[t].class.slo() {
            if latency <= slo.deadline_cycles {
                c.slo_met += 1;
            }
        }
        self.streams[t].on_completion(end);
    }

    /// Sends `id` through bounded retry with exponential backoff and
    /// deterministic jitter, or sheds it once the budget is exhausted.
    fn retry_or_shed(&mut self, id: usize, end: u64) {
        let req = &mut self.requests[id];
        req.retries += 1;
        if req.retries > MAX_RETRIES {
            self.shed(id, ShedReason::RetriesExhausted, end);
            return;
        }
        // Stateless jitter: re-derived from (seed, request, attempt), so it
        // is identical no matter how the run was interrupted and resumed.
        let exp = (req.retries - 1).min(16);
        let jitter_seed = derive_seed(self.cfg.seed, (id as u64) << 8 | u64::from(req.retries));
        let jitter = SplitMix64::new(jitter_seed).next_below(BACKOFF_BASE);
        let not_before = end + (BACKOFF_BASE << exp) + jitter;
        req.state = RequestState::Queued { not_before };
        self.tenants[req.tenant].retries += 1;
        self.queue.push_back(id);
    }

    /// Sheds `id` at fleet cycle `at`, counting it against its tenant
    /// under `reason`.
    fn shed(&mut self, id: usize, reason: ShedReason, at: u64) {
        let req = &mut self.requests[id];
        req.state = RequestState::Shed { reason, at };
        let c = &mut self.tenants[req.tenant];
        *match reason {
            ShedReason::Admission => &mut c.shed_admission,
            ShedReason::Overload => &mut c.shed_overload,
            ShedReason::RetriesExhausted => &mut c.shed_retries,
            ShedReason::FleetDead | ShedReason::Unfinished => &mut c.shed_other,
        } += 1;
    }

    /// Records the per-tick observability sample: one series row.
    fn record_sample(&mut self) {
        let entries = self.counter_registry();
        self.series.sample(self.cycle(), &entries);
    }

    /// Decides whether the run is over. A dead fleet, or one out of ticks,
    /// sheds everything still live — running work first, then the queue,
    /// then parked batches — so nothing is lost; otherwise the run ends
    /// once every stream is drained and every request is terminal.
    fn check_finished(&mut self) {
        let reason = if !self.devices.iter().any(|d| d.fate.is_healthy()) {
            ShedReason::FleetDead
        } else if self.tick_index >= self.cfg.max_ticks {
            ShedReason::Unfinished
        } else {
            self.finished = self.streams.iter().all(ArrivalStream::exhausted)
                && self.queue.is_empty()
                && self.pending_migrations.is_empty()
                && self.devices.iter().all(|d| d.batch.is_none());
            return;
        };
        let running: Vec<usize> = self
            .devices
            .iter_mut()
            .filter_map(|d| d.batch.take())
            .flat_map(|b| b.requests.into_iter().zip(b.active).filter(|&(_, live)| live))
            .map(|(id, _)| id)
            .collect();
        let queued = std::mem::take(&mut self.queue);
        let parked = std::mem::take(&mut self.pending_migrations);
        let live = parked.iter().flat_map(PendingMigration::live_requests);
        let now = self.cycle();
        for id in running.into_iter().chain(queued).chain(live) {
            self.shed(id, reason, now);
        }
        self.finished = true;
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Every fleet counter, in stable order: machine scope first, then one
    /// block per tenant, then one block per device — the fleet-level
    /// extension of [`Gpu::counter_registry`].
    pub fn counter_registry(&self) -> Vec<CounterEntry> {
        use CounterKind::{Counter, Gauge};
        let mut out = Vec::new();
        let mut push = |name, scope, kind, value: i64| {
            out.push(CounterEntry { name, scope, kind, value });
        };
        let machine = CounterScope::Machine;
        let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        push("fleet_cycle", machine, Gauge, as_i64(self.cycle()));
        push("fleet_ticks", machine, Counter, as_i64(self.tick_index));
        push("fleet_queue_depth", machine, Gauge, self.queue.len() as i64);
        push(
            "fleet_healthy_devices",
            machine,
            Gauge,
            self.devices.iter().filter(|d| d.fate.is_healthy()).count() as i64,
        );
        push("fleet_shedding", machine, Gauge, i64::from(self.shedding));
        push("fleet_evictions", machine, Counter, as_i64(self.evictions));
        push("fleet_migrations", machine, Counter, self.migrations.len() as i64);
        push("fleet_migrated_requests", machine, Counter, as_i64(self.migrated_requests()));
        push("fleet_pending_migrations", machine, Gauge, self.pending_migrations.len() as i64);
        push("fleet_migration_fallbacks", machine, Counter, as_i64(self.migration_fallbacks));
        let mut queued = vec![0i64; self.tenants.len()];
        for &id in &self.queue {
            queued[self.requests[id].tenant] += 1;
        }
        for (t, c) in self.tenants.iter().enumerate() {
            let scope = CounterScope::Tenant(t);
            push("arrived", scope, Counter, as_i64(c.arrived));
            push("completed", scope, Counter, as_i64(c.latency_hist.count()));
            push("slo_met", scope, Counter, as_i64(c.slo_met));
            push("timeouts", scope, Counter, as_i64(c.timeouts));
            push("retries", scope, Counter, as_i64(c.retries));
            push("migrated", scope, Counter, as_i64(c.migration_hist.count()));
            push("shed", scope, Counter, as_i64(c.shed_total()));
            push("queued", scope, Gauge, queued[t]);
            push("ws_estimate_bytes", scope, Gauge, as_i64(self.ws[t].estimate()));
            push("latency_p50", scope, Gauge, as_i64(c.latency_hist.p50()));
            push("latency_p90", scope, Gauge, as_i64(c.latency_hist.p90()));
            push("latency_p99", scope, Gauge, as_i64(c.latency_hist.p99()));
            push("latency_p999", scope, Gauge, as_i64(c.latency_hist.p999()));
            if let Some(slo) = self.cfg.tenants[t].class.slo() {
                push("slo_burn_ppm", scope, Gauge, as_i64(slo.burn_rate_ppm(c.slo_met, c.arrived)));
                push("error_budget_ppm", scope, Gauge, i64::from(slo.error_budget_ppm()));
            }
        }
        for (di, d) in self.devices.iter().enumerate() {
            let scope = CounterScope::Device(di);
            push("batches", scope, Counter, as_i64(d.batches));
            push("served", scope, Counter, as_i64(d.served));
            push("healthy", scope, Gauge, i64::from(d.fate.is_healthy()));
        }
        out
    }

    /// Jain's fairness index over per-tenant completion ratios (completed /
    /// arrived). 1.0 is perfectly fair; tends to `1/n` as service collapses
    /// onto one tenant. Tenants with no arrivals are excluded.
    pub fn fairness_index(&self) -> f64 {
        let ratios: Vec<f64> = self
            .tenants
            .iter()
            .filter(|c| c.arrived > 0)
            .map(|c| c.latency_hist.count() as f64 / c.arrived as f64)
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        let sum: f64 = ratios.iter().sum();
        let sq: f64 = ratios.iter().map(|x| x * x).sum();
        if sq == 0.0 {
            return 1.0;
        }
        (sum * sum) / (ratios.len() as f64 * sq)
    }

    /// Renders the deterministic fleet report. Pure function of the fleet
    /// state: two runs with the same config and seed — interrupted or not —
    /// produce byte-identical output.
    pub fn report(&self, title: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet {title} [seed {}, {} device(s), {} tenant(s), {} tick(s), {} cycles]",
            self.cfg.seed,
            self.cfg.total_devices(),
            self.cfg.tenants.len(),
            self.tick_index,
            self.cycle()
        );
        for (spec, c) in self.cfg.tenants.iter().zip(&self.tenants) {
            let class = if spec.class.is_guaranteed() { "guaranteed " } else { "best-effort" };
            let slo = match spec.class.slo() {
                Some(slo) => {
                    let pct = if c.arrived == 0 {
                        100.0
                    } else {
                        c.slo_met as f64 * 100.0 / c.arrived as f64
                    };
                    let verdict =
                        if slo.satisfied_by(c.slo_met, c.arrived) { "MET" } else { "MISSED" };
                    format!(
                        "slo {}/{} ({:.1}% >= {:.1}%) {}",
                        c.slo_met,
                        c.arrived,
                        pct,
                        slo.floor_fraction() * 100.0,
                        verdict
                    )
                }
                None => "slo -".to_string(),
            };
            let _ = writeln!(
                out,
                "  tenant {:<12} {class}  arrived {:>4}  done {:>4}  {slo}  \
                 retries {}  timeouts {}  migrated {}  shed {} (admission {}, overload {}, \
                 retries {}, other {})  latency mean {} max {} p50 {} p95 {} p99 {}",
                spec.name,
                c.arrived,
                c.latency_hist.count(),
                c.retries,
                c.timeouts,
                c.migration_hist.count(),
                c.shed_total(),
                c.shed_admission,
                c.shed_overload,
                c.shed_retries,
                c.shed_other,
                c.latency_hist.mean(),
                c.latency_hist.max(),
                c.latency_hist.p50(),
                c.latency_hist.p95(),
                c.latency_hist.p99()
            );
        }
        for (di, d) in self.devices.iter().enumerate() {
            let fate = match d.fate {
                DeviceFate::Healthy => "healthy".to_string(),
                DeviceFate::Lost { at } => format!("lost at {at}"),
                DeviceFate::Wedged { at } => format!("wedged at {at}"),
                DeviceFate::Drained { at } => format!("drained at {at}"),
            };
            let _ = writeln!(
                out,
                "  device {di} ({}): {:<16} batches {:>3}  served {:>4}",
                self.cfg.classes[d.class].name, fate, d.batches, d.served
            );
        }
        let _ = writeln!(
            out,
            "  migrations: {} completed ({} requests resumed), {} pending, {} fallback(s)",
            self.migrations.len(),
            self.migrated_requests(),
            self.pending_migrations.len(),
            self.migration_fallbacks
        );
        let arrived: u64 = self.tenants.iter().map(|c| c.arrived).sum();
        let completed: u64 = self.tenants.iter().map(|c| c.latency_hist.count()).sum();
        let shed: u64 = self.tenants.iter().map(|c| c.shed_total()).sum();
        let _ = writeln!(
            out,
            "  goodput {completed}/{arrived} requests, {shed} shed, {} evicted, {} migrated, \
             {} lost | fairness {:.3}",
            self.evictions,
            self.migrated_requests(),
            self.lost_requests(),
            self.fairness_index()
        );
        let _ = writeln!(
            out,
            "  guaranteed SLOs: {}",
            if self.all_guaranteed_met() { "MET" } else { "MISSED" }
        );
        out
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Serializes the complete fleet state — including in-flight
    /// migrations. Legal at tick boundaries only (which is the only time
    /// callers can observe the fleet anyway): every busy device then sits
    /// at an epoch boundary, so the embedded GPU snapshots are legal too.
    ///
    /// # Panics
    ///
    /// Panics if a busy device is somehow off an epoch boundary (a fleet
    /// invariant violation).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        FLEET_SNAPSHOT_VERSION.encode(&mut out);
        self.cfg.fingerprint().encode(&mut out);
        self.tick_index.encode(&mut out);
        self.shedding.encode(&mut out);
        self.finished.encode(&mut out);
        self.requests.encode(&mut out);
        Vec::from_iter(self.queue.iter().copied()).encode(&mut out);
        self.streams.encode(&mut out);
        self.tenants.encode(&mut out);
        self.ws.encode(&mut out);
        self.pending_migrations.encode(&mut out);
        self.migrations.encode(&mut out);
        self.migration_fallbacks.encode(&mut out);
        self.evictions.encode(&mut out);
        self.series.encode(&mut out);
        (self.devices.len() as u64).encode(&mut out);
        for d in &self.devices {
            d.fate.encode(&mut out);
            d.batches.encode(&mut out);
            d.served.encode(&mut out);
            match &d.batch {
                None => out.push(0),
                Some(b) => {
                    out.push(1);
                    b.requests.encode(&mut out);
                    b.active.encode(&mut out);
                    b.started_at.encode(&mut out);
                    b.ckpt.encode(&mut out);
                    let blob =
                        b.gpu.snapshot().expect("busy devices sit at epoch boundaries at ticks");
                    blob.into_bytes().encode(&mut out);
                }
            }
        }
        out
    }

    /// Reconstructs a fleet from [`Fleet::snapshot`] bytes under `cfg`. The
    /// snapshot holds state, not configuration: the fleet is built from
    /// `cfg` first and the state decoded into it, each stream, working-set
    /// tracker and the series adopting what `cfg` gave the one it replaces.
    ///
    /// # Errors
    ///
    /// A description of the mismatch: wrong snapshot version, a config
    /// whose fingerprint differs from the one the snapshot was taken
    /// under, or a corrupt encoding.
    pub fn restore(cfg: FleetConfig, bytes: &[u8]) -> Result<Fleet, String> {
        cfg.validate().map_err(|e| e.to_string())?;
        let mut r = SnapReader::new(bytes);
        let fail = |e: SnapError| format!("fleet snapshot: {e:?}");
        let version = u32::decode(&mut r).map_err(fail)?;
        if version != FLEET_SNAPSHOT_VERSION {
            return Err(format!(
                "fleet snapshot version {version}, this build expects {FLEET_SNAPSHOT_VERSION}"
            ));
        }
        if u64::decode(&mut r).map_err(fail)? != cfg.fingerprint() {
            return Err("fleet snapshot was taken under a different configuration".to_string());
        }
        let mut fleet = Fleet::new(cfg);
        fleet.tick_index = u64::decode(&mut r).map_err(fail)?;
        fleet.shedding = bool::decode(&mut r).map_err(fail)?;
        fleet.finished = bool::decode(&mut r).map_err(fail)?;
        fleet.requests = Vec::decode(&mut r).map_err(fail)?;
        fleet.queue = VecDeque::from(Vec::decode(&mut r).map_err(fail)?);
        let streams = decode_into(&mut r, &mut fleet.streams, ArrivalStream::adopt);
        let streams_fit = streams.map_err(fail)?;
        let tenants_fit = decode_into(&mut r, &mut fleet.tenants, |_, _| {}).map_err(fail)?;
        let ws_fit = decode_into(&mut r, &mut fleet.ws, WorkingSetTracker::adopt).map_err(fail)?;
        fleet.pending_migrations = Vec::decode(&mut r).map_err(fail)?;
        fleet.migrations = Vec::decode(&mut r).map_err(fail)?;
        fleet.migration_fallbacks = u64::decode(&mut r).map_err(fail)?;
        fleet.evictions = u64::decode(&mut r).map_err(fail)?;
        let mut series = TimeSeries::decode(&mut r).map_err(fail)?;
        // `sample` evicts at the capacity, so a series holding more rows
        // would be indexed past them on the next tick.
        let series_fits = series.adopt(&fleet.series);
        fleet.series = series;
        // The count comes from the stream; refuse a wrong one before the
        // devices are decoded (the bytes may be a re-sealed checkpoint file).
        let misshapen = || "fleet snapshot shape does not match the configuration".to_string();
        let n_devices = u64::decode(&mut r).map_err(fail)?;
        let tables_fit = streams_fit && tenants_fit && ws_fit && series_fits;
        if n_devices != fleet.devices.len() as u64 || !tables_fit {
            return Err(misshapen());
        }
        for d in &mut fleet.devices {
            d.fate = DeviceFate::decode(&mut r).map_err(fail)?;
            d.batches = u64::decode(&mut r).map_err(fail)?;
            d.served = u64::decode(&mut r).map_err(fail)?;
            d.batch = match u8::decode(&mut r).map_err(fail)? {
                0 => None,
                1 => {
                    let requests = Vec::<usize>::decode(&mut r).map_err(fail)?;
                    let active = Vec::<bool>::decode(&mut r).map_err(fail)?;
                    let started_at = u64::decode(&mut r).map_err(fail)?;
                    let ckpt = Vec::<u8>::decode(&mut r).map_err(fail)?;
                    let blob_bytes = Vec::<u8>::decode(&mut r).map_err(fail)?;
                    let blob = SnapshotBlob::from_bytes(&blob_bytes)
                        .map_err(|e| format!("fleet snapshot: device blob: {e}"))?;
                    let mut gpu = Gpu::new(fleet.cfg.device_config(d.class));
                    gpu.restore(&blob)
                        .map_err(|e| format!("fleet snapshot: device restore: {e}"))?;
                    Some(Batch { requests, active, started_at, ckpt, gpu, step_err: None })
                }
                _ => return Err("fleet snapshot: invalid batch tag".to_string()),
            };
        }
        // `step` and the exports index their tables with every id the stream
        // carried, so every id must point inside its table, or the bytes are
        // refused here, not met there. A tick index up to `max_ticks` is one
        // a fleet under `cfg` reaches, and so is its clock.
        let requests = fleet.requests.len();
        let request_ok = |id: usize| id < requests;
        let ids_ok = |ids: &[u64]| ids.iter().all(|&id| id < requests as u64);
        let devices = fleet.cfg.total_devices();
        let device_faults_only = |gpu: &Gpu| {
            gpu.fault_plan().faults.iter().all(|f| FleetFault::strikes_a_device(f.kind))
        };
        let in_range = fleet.tick_index <= fleet.cfg.max_ticks
            && fleet.queue.iter().all(|&id| request_ok(id))
            && fleet.requests.iter().all(|req| req.tenant < fleet.tenants.len())
            && fleet.pending_migrations.iter().all(|pm| {
                pm.active.len() == pm.slots.len() && pm.from_device < devices && ids_ok(&pm.slots)
            })
            && fleet.migrations.iter().all(|m| ids_ok(&m.requests))
            && fleet.devices.iter().filter_map(|d| d.batch.as_ref()).all(|b| {
                b.active.len() == b.requests.len()
                    && b.requests.iter().all(|&id| request_ok(id))
                    && device_faults_only(&b.gpu)
            });
        if !in_range {
            return Err(misshapen());
        }
        Ok(fleet)
    }
}

/// Decodes a table the configuration sized into `built`, each decoded entry
/// adopting what the configuration gave the one it replaces; answers whether
/// the table kept its length.
fn decode_into<T: Snap>(
    r: &mut SnapReader<'_>,
    built: &mut Vec<T>,
    adopt: impl Fn(&mut T, &T),
) -> Result<bool, SnapError> {
    let mut decoded = Vec::<T>::decode(r)?;
    decoded.iter_mut().zip(built.iter()).for_each(|(d, b)| adopt(d, b));
    let fits = decoded.len() == built.len();
    *built = decoded;
    Ok(fits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{
        DeviceClass, FleetConfig, MigrationConfig, Placement, PlannedDrain, TenantSpec,
    };
    use crate::scenarios;
    use gpu_sim::FaultKind;
    use qos_core::{SloTarget, TenantClass};
    use workloads::arrival::ArrivalModel;

    #[test]
    fn steady_scenario_serves_every_request() {
        let mut fleet = Fleet::new(scenarios::steady(7));
        fleet.run_to_completion();
        assert!(fleet.finished());
        assert_eq!(fleet.lost_requests(), 0, "every request must reach a terminal state");
        let done: u64 = fleet.tenant_counters().iter().map(|c| c.latency_hist.count()).sum();
        let arrived: u64 = fleet.tenant_counters().iter().map(|c| c.arrived).sum();
        assert_eq!(done, arrived, "an unloaded healthy fleet completes everything");
        assert!(fleet.all_guaranteed_met());
    }

    #[test]
    fn same_seed_runs_produce_byte_identical_reports() {
        let mut a = Fleet::new(scenarios::chaos(42));
        let mut b = Fleet::new(scenarios::chaos(42));
        a.run_to_completion();
        b.run_to_completion();
        assert_eq!(a.report("chaos"), b.report("chaos"));
    }

    #[test]
    fn admission_control_rejects_best_effort_that_would_break_the_horizon() {
        // One device (4 slots) defending a 4k-cycle guaranteed deadline with
        // the 20k-cycle service estimate: slot capacity within the horizon is
        // 4 * 4k = 16k cycles, so a single best-effort request (20k) already
        // projects past it and must be rejected at the door. The best-effort
        // requests all arrive in the first tick, before any guaranteed work
        // is outstanding, so shedding (which one outstanding request would
        // engage) has not started and every rejection is admission's.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(1)],
            placement: Placement::Binpack,
            migration: MigrationConfig::default(),
            seed: 3,
            timeout_cycles: 60_000,
            max_ticks: 300,
            tenants: vec![
                TenantSpec {
                    name: "gold".into(),
                    class: TenantClass::guaranteed(SloTarget::new(4_000, 1)),
                    arrival: ArrivalModel::Open { mean_gap: 50_000 },
                    requests: 2,
                    grid_tbs: 4,
                    mem_bytes: 1 << 20,
                },
                TenantSpec {
                    name: "riffraff".into(),
                    class: TenantClass::best_effort(),
                    arrival: ArrivalModel::Open { mean_gap: 1 },
                    requests: 8,
                    grid_tbs: 4,
                    mem_bytes: 1 << 20,
                },
            ],
            device_faults: Vec::new(),
            drains: Vec::new(),
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        let be = &fleet.tenant_counters()[1];
        assert_eq!(be.arrived, 8);
        assert_eq!(
            be.shed_admission, 8,
            "every best-effort request should be rejected at admission"
        );
        let gold = &fleet.tenant_counters()[0];
        assert_eq!(gold.shed_total(), 0, "guaranteed work is never shed");
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn shedding_engages_under_overload_without_flapping() {
        let mut fleet = Fleet::new(scenarios::overload(11));
        fleet.run_to_completion();
        let shed_overload: u64 =
            fleet.tenant_counters().iter().map(|c| c.shed_overload + c.shed_admission).sum();
        assert!(shed_overload > 0, "the flood tenant must lose work");
        // Hysteresis: the shedding flag may engage and disengage, but must
        // not oscillate tick to tick.
        let series = fleet.metrics_series();
        let column = series.columns().iter().position(|c| c == "machine/fleet_shedding");
        let column = column.expect("the registry gauges shedding");
        let transitions =
            series.rows().windows(2).filter(|w| w[0].values[column] != w[1].values[column]).count();
        assert_eq!(series.evicted(), 0, "the series holds the whole run");
        assert!(transitions <= 4, "shedding flapped: {transitions} transitions");
        assert!(fleet.all_guaranteed_met(), "overload must not break the guarantee");
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn device_loss_migrates_in_flight_batches_to_spares() {
        let mut fleet = Fleet::new(scenarios::chaos(scenarios::DEFAULT_SEED));
        fleet.run_to_completion();
        let fates: Vec<DeviceFate> = fleet.devices.iter().map(|d| d.fate).collect();
        assert!(
            fates.iter().any(|f| matches!(f, DeviceFate::Lost { .. })),
            "the scheduled device loss must fire: {fates:?}"
        );
        assert!(
            fates.iter().any(|f| matches!(f, DeviceFate::Wedged { .. })),
            "the scheduled wedge must be watchdog-classified: {fates:?}"
        );
        assert!(
            fleet.migrated_requests() > 0,
            "in-flight work on the dead devices resumes via migration"
        );
        assert_eq!(fleet.lost_requests(), 0, "migrated requests never vanish");
        assert!(fleet.all_guaranteed_met(), "survivors must absorb the guaranteed load");
        let healthy_served: u64 =
            fleet.devices.iter().filter(|d| d.fate.is_healthy()).map(|d| d.served).sum();
        assert!(healthy_served > 0);
        // Migration preserved the retry budget on the resumed requests.
        for rec in fleet.migrations() {
            assert!(matches!(
                rec.reason,
                MigrationReason::DeviceLost | MigrationReason::DeviceWedged
            ));
        }
    }

    #[test]
    fn with_migration_disabled_device_loss_falls_back_to_eviction() {
        // Eviction is migration's fallback, reached the way production
        // reaches it: both requests binpack onto the small device at the
        // cycle-4000 boundary, one finishes within the tick, and the device
        // is lost at 8_000 under the other. The only spare is of the big
        // class, which a small-class blob cannot restore on, so the pending
        // migration waits out its two ticks of patience and the victim
        // retries from scratch on the big device.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(1), DeviceClass::big(1)],
            placement: Placement::Binpack,
            migration: MigrationConfig { checkpoint_every_ticks: 1, patience_ticks: 2 },
            seed: 17,
            timeout_cycles: 120_000,
            max_ticks: 300,
            tenants: vec![TenantSpec {
                name: "latency".into(),
                class: TenantClass::guaranteed(SloTarget::new(300_000, 900_000)),
                arrival: ArrivalModel::Open { mean_gap: 1 },
                requests: 2,
                grid_tbs: 8,
                mem_bytes: 64 << 20,
            }],
            device_faults: vec![FleetFault {
                at_cycle: 8_000,
                device: 0,
                kind: FaultKind::DeviceLoss,
            }],
            drains: Vec::new(),
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(matches!(fleet.devices[0].fate, DeviceFate::Lost { .. }));
        assert_eq!(fleet.migration_fallbacks, 1, "patience ran out on the one pending batch");
        assert_eq!(fleet.evictions(), 1, "the victim retries from scratch");
        assert_eq!(fleet.requests()[1].retries, 1);
        assert_eq!(fleet.migrated_requests(), 0, "no compatible spare ever existed");
        assert_eq!(fleet.tenant_counters()[0].latency_hist.count(), 2);
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn loss_during_final_drain_tick_classifies_before_accounting() {
        // A tiny request completes its kernel a few thousand cycles into the
        // tick; the device is lost later in the same tick. The fix under
        // test: the device fate must be recorded BEFORE accounting, yet the
        // completion that beat the fault still counts — no eviction, no
        // retry, no laundering of the sticky fault. A loss fires on its own
        // cycle; a wedge would be classified only at the edge that closes its
        // second idle epoch.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(1)],
            placement: Placement::Binpack,
            migration: MigrationConfig::default(),
            seed: 9,
            timeout_cycles: 120_000,
            max_ticks: 40,
            tenants: vec![TenantSpec {
                name: "lone".into(),
                class: TenantClass::guaranteed(SloTarget::new(200_000, 1)),
                arrival: ArrivalModel::Open { mean_gap: 1 },
                requests: 1,
                grid_tbs: 2,
                mem_bytes: 1 << 20,
            }],
            // The request arrives by cycle 2, is placed at the tick-1
            // boundary (fleet cycle 4_000), so fleet cycle 7_000 is device
            // cycle 3_000 — late in the tick, after the kernel completes.
            device_faults: vec![FleetFault {
                at_cycle: 7_000,
                device: 0,
                kind: FaultKind::DeviceLoss,
            }],
            drains: Vec::new(),
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(
            matches!(fleet.devices[0].fate, DeviceFate::Lost { .. }),
            "the loss must be classified even though the batch's work completed: {:?}",
            fleet.devices[0].fate
        );
        let c = &fleet.tenant_counters()[0];
        assert_eq!(c.latency_hist.count(), 1, "the completion that beat the loss still counts");
        assert_eq!(c.retries, 0, "no retry: the request finished");
        assert_eq!(fleet.evictions(), 0, "nothing was evicted");
        assert_eq!(fleet.requests()[0].retries, 0);
        assert!(matches!(fleet.requests()[0].state, RequestState::Done { .. }));
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn planned_drain_migrates_the_batch_and_retires_the_device() {
        // Both requests arrive within the first tick (gap 1) and binpack
        // onto device 0 at the cycle-4000 boundary; the drain at 8_000
        // catches the batch mid-flight, so it must migrate to device 1.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(2)],
            placement: Placement::Binpack,
            migration: MigrationConfig::default(),
            seed: 17,
            timeout_cycles: 120_000,
            max_ticks: 300,
            tenants: vec![TenantSpec {
                name: "latency".into(),
                class: TenantClass::guaranteed(SloTarget::new(300_000, 900_000)),
                arrival: ArrivalModel::Open { mean_gap: 1 },
                requests: 2,
                grid_tbs: 8,
                mem_bytes: 64 << 20,
            }],
            device_faults: Vec::new(),
            drains: vec![PlannedDrain { at_cycle: 8_000, device: 0 }],
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(
            matches!(fleet.devices[0].fate, DeviceFate::Drained { .. }),
            "the drain must retire device 0: {:?}",
            fleet.devices[0].fate
        );
        assert!(
            fleet.migrations().iter().any(|m| m.reason == MigrationReason::Drain),
            "the drained device's batch must migrate: {:?}",
            fleet.migrations()
        );
        let done: u64 = fleet.tenant_counters().iter().map(|c| c.latency_hist.count()).sum();
        let arrived: u64 = fleet.tenant_counters().iter().map(|c| c.arrived).sum();
        assert_eq!(done, arrived, "a planned drain loses nothing");
        assert_eq!(fleet.lost_requests(), 0);
        assert!(fleet.all_guaranteed_met());
    }

    #[test]
    fn shed_pressure_preempts_best_effort_for_guaranteed_work() {
        // One device. Four best-effort requests fill it early; the
        // guaranteed request arrives while they run. Against its 25k-cycle
        // deadline each outstanding request projects 200‰, so shedding
        // engages at 5 outstanding requests (1000‰) and not at 4 (800‰), and
        // the scheduler preempts the all-best-effort batch — snapshotted
        // fresh — to serve the guaranteed request immediately. The
        // preempted batch later resumes on the same device and completes.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(1)],
            placement: Placement::Binpack,
            migration: MigrationConfig { checkpoint_every_ticks: 1, patience_ticks: 60 },
            seed: 2,
            timeout_cycles: 400_000,
            max_ticks: 600,
            tenants: vec![
                TenantSpec {
                    name: "gold".into(),
                    class: TenantClass::guaranteed(SloTarget::new(25_000, 1)),
                    arrival: ArrivalModel::Open { mean_gap: 8_000 },
                    requests: 1,
                    grid_tbs: 8,
                    mem_bytes: 1 << 20,
                },
                TenantSpec {
                    name: "batch".into(),
                    class: TenantClass::best_effort(),
                    arrival: ArrivalModel::Open { mean_gap: 1 },
                    requests: 4,
                    grid_tbs: 32,
                    mem_bytes: 1 << 20,
                },
            ],
            device_faults: Vec::new(),
            drains: Vec::new(),
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(
            fleet.migrations().iter().any(|m| m.reason == MigrationReason::ShedPressure),
            "shed pressure must preempt the best-effort batch: {:?}",
            fleet.migrations()
        );
        assert!(fleet.all_guaranteed_met(), "the preemption exists to protect the guarantee");
        let done: u64 = fleet.tenant_counters().iter().map(|c| c.latency_hist.count()).sum();
        let arrived: u64 = fleet.tenant_counters().iter().map(|c| c.arrived).sum();
        assert_eq!(done, arrived, "preempted work resumes and completes — zero loss");
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn working_set_estimates_converge_below_inflated_declarations() {
        // The tenant declares half a device of memory per request; its
        // kernels actually touch a few hundred KiB. After completions the
        // EWMA must have moved off the declaration.
        let mut cfg = scenarios::steady(23);
        cfg.tenants[0].mem_bytes = 512 << 20;
        let declared = cfg.tenants[0].mem_bytes;
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(fleet.tenant_counters()[0].latency_hist.count() > 0);
        assert!(
            fleet.working_set_estimate(0) < declared,
            "measured working set ({}) must fall below the declaration ({declared})",
            fleet.working_set_estimate(0)
        );
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn memory_admission_rejects_overcommitted_best_effort() {
        // Device memory is 1 GiB; each best-effort request declares 900 MiB.
        // Cycle-load admission stays out of the way (with no guarantee the
        // horizon is the 500k-cycle timeout, and each request projects only
        // 10‰ of it), so any admission shed is memory-driven.
        let cfg = FleetConfig {
            classes: vec![DeviceClass::small(1)],
            placement: Placement::Binpack,
            migration: MigrationConfig::default(),
            seed: 31,
            timeout_cycles: 500_000,
            max_ticks: 600,
            tenants: vec![TenantSpec {
                name: "hog".into(),
                class: TenantClass::best_effort(),
                arrival: ArrivalModel::Open { mean_gap: 500 },
                requests: 4,
                grid_tbs: 4,
                mem_bytes: 900 << 20,
            }],
            device_faults: Vec::new(),
            drains: Vec::new(),
        };
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        let c = &fleet.tenant_counters()[0];
        assert!(
            c.shed_admission > 0,
            "co-queuing two 900 MiB working sets on a 1 GiB fleet must shed at admission: {c:?}"
        );
        assert!(c.latency_hist.count() > 0, "the admitted request still completes");
        assert_eq!(fleet.lost_requests(), 0);
    }

    #[test]
    fn snapshot_round_trips_mid_run_and_converges_identically() {
        let cfg = scenarios::chaos(99);
        let mut live = Fleet::new(cfg.clone());
        for _ in 0..12 {
            if live.step() {
                break;
            }
        }
        let bytes = live.snapshot();
        let mut restored = Fleet::restore(cfg, &bytes).expect("restore");
        assert_eq!(restored.cycle(), live.cycle());
        assert_eq!(restored.ticks(), live.ticks());
        live.run_to_completion();
        restored.run_to_completion();
        assert_eq!(live.report("chaos"), restored.report("chaos"));
        // And the counter registries agree row for row.
        assert_eq!(live.counter_registry(), restored.counter_registry());
    }

    #[test]
    fn snapshot_taken_mid_migration_resumes_byte_identically() {
        // Force a pending migration to survive across ticks: every spare
        // of the victim's class is also killed, so the blob waits in the
        // queue. Snapshot in that window, restore, and both runs must
        // converge to byte-identical reports.
        let mut cfg = scenarios::chaos(7);
        cfg.migration.patience_ticks = 4;
        cfg.device_faults = vec![
            FleetFault { at_cycle: 30_000, device: 1, kind: FaultKind::DeviceLoss },
            FleetFault { at_cycle: 30_000, device: 2, kind: FaultKind::DeviceLoss },
            FleetFault { at_cycle: 30_000, device: 3, kind: FaultKind::DeviceLoss },
        ];
        let mut live = Fleet::new(cfg.clone());
        let mut saw_pending = false;
        let mut bytes = Vec::new();
        while !live.step() {
            if !saw_pending && live.pending_migration_count() > 0 {
                saw_pending = true;
                bytes = live.snapshot();
            }
        }
        assert!(saw_pending, "the triple loss must leave at least one migration in flight");
        let mut restored = Fleet::restore(cfg, &bytes).expect("mid-migration restore");
        assert!(restored.pending_migration_count() > 0, "pending migrations survive the codec");
        restored.run_to_completion();
        assert_eq!(live.report("storm"), restored.report("storm"));
        assert_eq!(live.counter_registry(), restored.counter_registry());
        assert_eq!(restored.lost_requests(), 0);
    }

    /// A fleet restored from any tick's snapshot steps like the one it was
    /// taken from: what the snapshot leaves out (the clock, each device's
    /// pending faults and drains, each request's timeout base) is rebuilt
    /// exactly, with drains and faults scheduled but not yet taken and
    /// requests running or migrating across the ticks.
    #[test]
    fn restore_at_every_tick_steps_like_the_original() {
        let runs = [
            ("steady", None),
            ("overload", None),
            ("chaos", None),
            ("migration", None),
            ("diurnal", Some(177)),
        ];
        for (name, last_tick) in runs {
            let cfg = scenarios::by_name(name, scenarios::DEFAULT_SEED).expect("a scenario");
            let mut live = Fleet::new(cfg.clone());
            let mut bytes = live.snapshot();
            while !live.finished() && last_tick.is_none_or(|t| live.ticks() < t) {
                let mut restored = Fleet::restore(cfg.clone(), &bytes).expect("restore");
                live.step();
                restored.step();
                bytes = live.snapshot();
                let tick = live.ticks();
                assert!(restored.snapshot() == bytes, "{name}: tick {tick} snapshots differ");
                assert_eq!(restored.report(name), live.report(name), "{name}: tick {tick}");
            }
        }
    }

    #[test]
    fn restore_rejects_a_different_configuration() {
        let mut fleet = Fleet::new(scenarios::steady(5));
        fleet.step();
        let bytes = fleet.snapshot();
        let other = scenarios::steady(6); // different seed, different fingerprint
        let err = Fleet::restore(other, &bytes).expect_err("must reject");
        assert!(err.contains("different configuration"), "{err}");
    }

    #[test]
    fn restore_refuses_a_batch_fault_a_device_cannot_suffer() {
        let cfg = scenarios::steady(5);
        let mut fleet = Fleet::new(cfg.clone());
        let busy = |fleet: &Fleet| fleet.devices.iter().position(|d| d.batch.is_some());
        while busy(&fleet).is_none() {
            assert!(!fleet.step(), "some batch outlives a tick");
        }
        Fleet::restore(cfg.clone(), &fleet.snapshot()).expect("a healthy snapshot restores");
        let di = busy(&fleet).expect("a busy device");
        let batch = fleet.devices[di].batch.as_mut().expect("busy");
        batch.gpu.set_fault_plan(FaultPlan::one(1 << 40, FaultKind::Panic));
        let err = Fleet::restore(cfg, &fleet.snapshot()).expect_err("must refuse");
        assert!(err.contains("does not match"), "{err}");
    }

    #[test]
    fn dead_fleet_sheds_the_queue_instead_of_losing_it() {
        let mut cfg = scenarios::steady(13);
        cfg.classes = vec![DeviceClass::small(1)];
        cfg.device_faults =
            vec![FleetFault { at_cycle: 0, device: 0, kind: FaultKind::DeviceLoss }];
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(fleet.finished());
        assert_eq!(fleet.lost_requests(), 0);
        let sheds: u64 = fleet.tenant_counters().iter().map(TenantCounters::shed_total).sum();
        assert!(sheds > 0, "work that arrived before the fleet died must be shed explicitly");
    }

    #[test]
    fn migration_respects_compatibility_classes() {
        // Two classes: the small device dies; the only spare is big. The
        // blob must NOT restore onto the incompatible spare — it waits out
        // its patience and falls back to bounded retry.
        let mut cfg = scenarios::steady(3);
        cfg.classes = vec![DeviceClass::small(1), DeviceClass::big(1)];
        cfg.migration.patience_ticks = 2;
        cfg.placement = Placement::Binpack; // fill the small device first
        cfg.device_faults =
            vec![FleetFault { at_cycle: 8_000, device: 0, kind: FaultKind::DeviceLoss }];
        let mut fleet = Fleet::new(cfg);
        fleet.run_to_completion();
        assert!(
            fleet.migrations().iter().all(|m| m.to_device != 1 || m.from_device == 1),
            "a small-class blob must never land on the big device: {:?}",
            fleet.migrations()
        );
        assert_eq!(fleet.lost_requests(), 0);
    }

    /// Every scenario's observable bytes, pinned at the default seed: the
    /// `fnv1a` of `report()` and of `snapshot()` at a mid-run tick and at
    /// the end. The mid tick holds a running batch beside a parked one,
    /// except in `diurnal`, whose one parked batch waits out a tick with no
    /// other batch, and `steady`, whose batches each finish inside the tick
    /// that placed them. Between them the five runs reach all three
    /// placements, all four migration reasons and the fallbacks, so a
    /// scheduler change that moves any decision moves a digest. Re-pin only
    /// for a change that means to move them. Fleet snapshot version 10
    /// moved every snapshot digest and no report digest: the version is in
    /// the bytes, and the clock, device and request ids, pending faults and
    /// drains, request timeout bases, migration records' tenants and what
    /// the configuration fixes (stream models and totals, the working-set
    /// floor, the series capacity) left them, while the behaviour the
    /// reports pin stayed.
    #[test]
    fn scenario_reports_and_snapshots_are_pinned() {
        use gpu_sim::snap::fnv1a;
        // (scenario, mid tick, [mid report, mid snapshot, end report, end snapshot])
        let pins: [(&str, u64, [u64; 4]); 5] = [
            (
                "steady",
                12,
                [
                    0xf7f9_2cb5_3487_5f55,
                    0x8b9b_c936_e182_81c8,
                    0x46eb_52cb_c9b0_9981,
                    0x46b0_281c_6e94_58aa,
                ],
            ),
            (
                "overload",
                7,
                [
                    0x4c2a_6721_bb88_1b87,
                    0x4747_22c2_ffa4_b2bc,
                    0xd87e_59ed_3295_a6c8,
                    0x73cb_d686_d210_52dc,
                ],
            ),
            (
                "chaos",
                10,
                [
                    0xe2b5_54a6_7c71_d5ba,
                    0x3528_8385_4d1c_ba1a,
                    0x656f_424e_b3a3_831d,
                    0x111b_be3f_47ad_55af,
                ],
            ),
            (
                "migration",
                8,
                [
                    0x6454_3830_9a98_c3b4,
                    0xfcb6_2da5_da4e_63e7,
                    0x775c_2960_274f_f97e,
                    0x50d3_2406_2435_f369,
                ],
            ),
            (
                "diurnal",
                177,
                [
                    0x4677_8130_fbf8_cccc,
                    0xcd49_f959_3743_6263,
                    0x37ac_4b01_d5cb_923a,
                    0x64a2_26c1_9ec2_617b,
                ],
            ),
        ];
        let digests =
            |fleet: &Fleet, name| [fnv1a(fleet.report(name).as_bytes()), fnv1a(&fleet.snapshot())];
        let mut seen = Vec::new();
        let mut reasons = Vec::new();
        let mut fallbacks = 0;
        for (name, mid_tick, _) in pins {
            let mut fleet = Fleet::new(scenarios::by_name(name, scenarios::DEFAULT_SEED).unwrap());
            while fleet.ticks() < mid_tick {
                fleet.step();
            }
            let busy = fleet.devices.iter().any(|d| d.batch.is_some());
            let parked = fleet.pending_migration_count() > 0;
            match name {
                "steady" => {}
                "diurnal" => assert!(parked, "{name}: nothing parked at tick {mid_tick}"),
                _ => assert!(busy && parked, "{name}: tick {mid_tick} is not busy and parked"),
            }
            let mid = digests(&fleet, name);
            fleet.run_to_completion();
            let end = digests(&fleet, name);
            seen.push((name, mid_tick, [mid[0], mid[1], end[0], end[1]]));
            reasons.extend(fleet.migrations().iter().map(|m| m.reason));
            fallbacks += fleet.migration_fallbacks();
        }
        for reason in [
            MigrationReason::DeviceLost,
            MigrationReason::DeviceWedged,
            MigrationReason::Drain,
            MigrationReason::ShedPressure,
        ] {
            assert!(reasons.contains(&reason), "no scenario migrates for {reason}");
        }
        assert!(fallbacks > 0, "no scenario falls back to retry");
        assert_eq!(seen, pins.to_vec());
    }

    #[test]
    fn counter_registry_is_stably_ordered() {
        let mut fleet = Fleet::new(scenarios::steady(21));
        fleet.step();
        let names: Vec<String> =
            fleet.counter_registry().iter().map(|e| format!("{} {}", e.scope, e.name)).collect();
        let machine = names.iter().position(|n| n == "machine fleet_cycle").expect("machine rows");
        let tenant = names.iter().position(|n| n.starts_with("tenant[0]")).expect("tenant rows");
        let device = names.iter().position(|n| n.starts_with("device[0]")).expect("device rows");
        assert!(machine < tenant && tenant < device, "scope blocks out of order: {names:?}");
        let mut sorted = names.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate counter rows");
    }
}
