//! The top-level GPU: owns SMs, memory system, TB scheduler, and the
//! epoch-driven controller hook.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::config::GpuConfig;
use crate::health::{
    AuditKind, AuditViolation, FaultKind, HealthReport, KernelHealth, SimError, SmHealth,
};
use crate::kernel::KernelDesc;
use crate::memsys::MemSystem;
use crate::observe::{
    CounterEntry, CounterKind, CounterScope, EventRing, TbLifecycle, TbLogError, TraceEvent,
    TraceEventKind,
};
use crate::preempt::PreemptStats;
use crate::sm::{QuotaCarry, Sm};
use crate::snap::{Snap, SnapError, SnapReader};
use crate::stats::{EpochSnapshot, GpuStats, KernelStats};
use crate::tb_sched::{KernelRuntime, SharingMode, TbScheduler};
use crate::telemetry::{HostProfiler, ProfPhase, WorkCounters};
use crate::types::{per_kernel, Cycle, KernelId, PerKernel, SmId};

/// Cycles between TB-scheduler service passes (dispatch / preemption checks).
const DISPATCH_INTERVAL: Cycle = 8;

/// Epoch-driven policy hook.
///
/// Implementations are the QoS managers of the `qos-core` crate; the
/// simulator calls [`Controller::on_epoch`] every `epoch_cycles` (first at
/// cycle 0, before any instruction issues) with full mutable access to the
/// GPU's control plane: quota counters, TB targets, SM ownership.
pub trait Controller {
    /// Called at every epoch boundary. `epoch` counts from 0.
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64);
}

/// A controller that never intervenes (plain unmanaged sharing).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl Controller for NullController {
    fn on_epoch(&mut self, _gpu: &mut Gpu, _epoch: u64) {}
}

/// Boxed controllers forward to their inner policy, so dynamically chosen
/// policies (e.g. the harness's per-case controllers) can be wrapped in
/// adapters like [`crate::trace::Tracer`].
impl Controller for Box<dyn Controller + '_> {
    fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
        (**self).on_epoch(gpu, epoch);
    }
}

/// The simulated GPU.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    cycle: Cycle,
    sms: Vec<Sm>,
    mem: MemSystem,
    kernels: Vec<KernelRuntime>,
    tb_sched: TbScheduler,
    epoch_snapshot: EpochSnapshot,
    last_totals: PerKernel<u64>,
    last_epoch_cycle: Cycle,
    epoch_index: u64,
    sample_interval: Cycle,
    fault_cursor: usize,
    ff_skipped: Cycle,
    trace_on: bool,
    events: EventRing,
    was_idle: bool,
    // Host-side self-profiler. Deliberately NOT snapshotted: wall-clock
    // attribution is nondeterministic host state (DESIGN.md §17).
    prof: HostProfiler,
    // Host-work counts; deterministic, but they describe how this process
    // stepped the machine, not the machine, so they stay out of snapshots,
    // digests and the counter registry like `prof`.
    work: WorkCounters,
}

impl Gpu {
    /// Builds a GPU from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn new(mut cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        // Faults are applied by a cursor walking the plan in cycle order.
        cfg.faults.faults.sort_by_key(|f| f.at_cycle);
        let sms = (0..cfg.num_sms as usize).map(|i| Sm::new(SmId::new(i), &cfg)).collect();
        let sample_interval = (cfg.epoch_cycles / Cycle::from(cfg.samples_per_epoch)).max(1);
        Gpu {
            sms,
            mem: MemSystem::new(cfg.mem.clone()),
            kernels: Vec::new(),
            tb_sched: TbScheduler::new(cfg.num_sms as usize),
            epoch_snapshot: EpochSnapshot::empty(),
            last_totals: per_kernel(|_| 0),
            last_epoch_cycle: 0,
            epoch_index: 0,
            sample_interval,
            fault_cursor: 0,
            ff_skipped: 0,
            trace_on: cfg.trace.level.is_on(),
            events: EventRing::new(if cfg.trace.level.is_on() {
                cfg.trace.ring_capacity
            } else {
                0
            }),
            was_idle: false,
            prof: HostProfiler::new(),
            work: WorkCounters::default(),
            cycle: 0,
            cfg,
        }
    }

    /// Records a machine-level flight-recorder event; a single branch when
    /// tracing is off.
    #[inline]
    fn record(&mut self, cycle: Cycle, kind: TraceEventKind) {
        if self.trace_on {
            self.events.push(TraceEvent { cycle, sm: None, kind });
        }
    }

    /// Launches a kernel; it becomes resident according to the sharing mode
    /// at the next TB-scheduler service pass.
    ///
    /// # Panics
    ///
    /// Panics if [`crate::MAX_KERNELS`] kernels are already launched.
    pub fn launch(&mut self, desc: KernelDesc) -> KernelId {
        assert!(
            self.kernels.len() < crate::MAX_KERNELS,
            "at most {} resident kernels",
            crate::MAX_KERNELS
        );
        let kid = KernelId::new(self.kernels.len());
        let desc = Arc::new(desc);
        for sm in &mut self.sms {
            sm.set_kernel_desc(kid, desc.clone());
        }
        self.kernels.push(KernelRuntime::new(desc));
        kid
    }

    /// Runs the simulation for `cycles` cycles under `ctrl`.
    ///
    /// # Panics
    ///
    /// Panics if the health layer reports a [`SimError`] — impossible with
    /// the default configuration, which disables the watchdog and audits —
    /// or when the fault plan injects [`FaultKind::Panic`]. Callers that
    /// enable the health layer should use [`Gpu::try_run`] instead.
    pub fn run(&mut self, cycles: Cycle, ctrl: &mut dyn Controller) {
        if let Err(err) = self.try_run(cycles, ctrl) {
            panic!("simulator health failure: {err}");
        }
    }

    /// Runs the simulation for `cycles` cycles under `ctrl`, returning a
    /// typed error instead of spinning when the machine stops making
    /// forward progress (watchdog) or an invariant audit fails.
    ///
    /// With the default [`crate::HealthConfig`] (watchdog and audits
    /// disabled) and an empty fault plan this never returns `Err` and is
    /// cycle-for-cycle identical to the unchecked loop.
    ///
    /// # Errors
    ///
    /// [`SimError::Watchdog`] when no instruction issues machine-wide for a
    /// full watchdog window while kernels are resident;
    /// [`SimError::Audit`] when audit mode finds a violated invariant at an
    /// epoch boundary;
    /// [`SimError::DeviceLost`] when a [`FaultKind::DeviceLoss`] fault
    /// fires. On error `self` is left at the failing cycle so the state can
    /// be inspected.
    pub fn try_run(&mut self, cycles: Cycle, ctrl: &mut dyn Controller) -> Result<(), SimError> {
        let outcome = self.run_until(self.cycle + cycles, ctrl);
        // Every way out, `Err` included, leaves the SMs awake with nothing
        // deferred: between runs their statistics are read and their quota
        // state written through calls that carry no cycle to catch up to.
        self.wake_sms(self.cycle);
        outcome
    }

    /// Ends every SM's sleep at `now` (see [`Sm::catch_up`]).
    fn wake_sms(&mut self, now: Cycle) {
        for sm in &mut self.sms {
            sm.catch_up(now);
        }
    }

    fn run_until(&mut self, end: Cycle, ctrl: &mut dyn Controller) -> Result<(), SimError> {
        let window = self.cfg.health.watchdog_window;
        let mut last_progress_cycle = self.cycle;
        let mut last_issued = self.total_issued();
        // checked_div: window == 0 disables the watchdog entirely.
        let mut next_check = match self.cycle.checked_div(window) {
            Some(windows_elapsed) => (windows_elapsed + 1) * window,
            None => Cycle::MAX,
        };
        // With fast-forward off no SM ever sleeps: every SM runs its full
        // gather on every cycle, which is what makes that mode an oracle
        // for this one (DESIGN.md §3.1).
        let may_sleep = self.cfg.fast_forward;
        let num_sms = self.sms.len() as u64;
        while self.cycle < end {
            let now = self.cycle;
            if self.cfg.faults.faults.get(self.fault_cursor).is_some_and(|f| f.at_cycle <= now) {
                // Faults rewrite quota and freeze state.
                self.wake_sms(now);
                self.apply_faults(now)?;
            }
            if now.is_multiple_of(self.cfg.epoch_cycles) {
                let t0 = self.prof.begin();
                // Epoch accounting and the controller read every counter and
                // write quotas; a snapshot taken in there sees no sleep state.
                self.wake_sms(now);
                self.record(now, TraceEventKind::EpochBoundary { epoch: self.epoch_index });
                self.finish_epoch(now);
                if self.cfg.health.audit {
                    self.audit_epoch(now)?;
                }
                ctrl.on_epoch(self, self.epoch_index);
                self.epoch_index += 1;
                for sm in &mut self.sms {
                    sm.reset_idle_sampling();
                }
                let t1 = self.prof.lap(ProfPhase::QosEpochService, t0);
                self.service(now);
                self.prof.end(ProfPhase::TbService, t1);
            } else if now.is_multiple_of(DISPATCH_INTERVAL) {
                let t0 = self.prof.begin();
                self.service(now);
                self.prof.end(ProfPhase::TbService, t0);
            }
            // Step every SM domain that is due — each touches only its own
            // state plus its interconnect port — then drain the ports into
            // the shared memory domain in stable SM-index order (see
            // `crate::icn`). A sleeping SM costs the one compare; an SM that
            // issued stays awake (due at 0), so `horizon` ends above `now`
            // only when the whole machine is asleep.
            let t0 = self.prof.begin();
            let mut horizon = Cycle::MAX;
            let mut ran = 0;
            for sm in &mut self.sms {
                if sm.wake_at() <= now {
                    ran += 1;
                    if !sm.tick(now) && may_sleep {
                        sm.sleep_from(now + 1);
                    }
                }
                horizon = horizon.min(sm.wake_at());
            }
            self.work.sm_ticks_run += ran;
            self.work.sm_ticks_slept += num_sms - ran;
            self.prof.end(ProfPhase::SmStep, t0);
            for sm in &mut self.sms {
                sm.drain_icn(&mut self.mem, now, &mut self.prof);
            }
            if now.is_multiple_of(self.sample_interval) {
                for sm in &mut self.sms {
                    sm.sample_idle_warps(now);
                }
            }
            if now >= next_check {
                let issued = self.total_issued();
                if issued > last_issued {
                    last_issued = issued;
                    last_progress_cycle = now;
                } else if !self.kernels.is_empty() {
                    let mut report = self.health_report();
                    report.window = window;
                    report.last_progress_cycle = last_progress_cycle;
                    return Err(SimError::Watchdog(Box::new(report)));
                }
                next_check += window;
            }
            self.cycle += 1;
            if horizon > self.cycle {
                let t0 = self.prof.begin();
                let target = self.jump_target(horizon, end, next_check);
                let skipped = target - self.cycle;
                self.ff_skipped += skipped;
                self.work.sm_ticks_slept += skipped * num_sms;
                self.cycle = target;
                self.prof.end(ProfPhase::FastForward, t0);
            }
        }
        Ok(())
    }

    /// How far the clock may move from `self.cycle` when every SM sleeps
    /// until `horizon` or later: nothing observable happens in between, and
    /// the SMs account for the jumped cycles themselves when they wake.
    ///
    /// `horizon` is clamped so that every externally observable event still
    /// fires on its exact cycle: epoch boundaries, idle-warp sampling ticks,
    /// the watchdog's `next_check`, the first still-pending `FaultPlan`
    /// entry, `DISPATCH_INTERVAL` service points whenever a service pass
    /// could act ([`TbScheduler::service_would_noop`]), and the end of the
    /// run. The memory system contributes no horizon: transaction
    /// completions are computed eagerly at access time and carried by warp
    /// scoreboards (see [`MemSystem::serve`]). None of the clamps lies
    /// behind `self.cycle`; a result equal to it means "simulate the very
    /// next cycle".
    ///
    /// Kept out of line, like [`Gpu::service`]: each runs once in several
    /// cycles, and inlined they (and the TB scheduler's passes inside them)
    /// sit in the middle of `run_until`'s per-cycle loop, where every edit
    /// to the TB scheduler moves the loop's code (EXPERIMENTS.md §options).
    #[inline(never)]
    fn jump_target(&self, horizon: Cycle, end: Cycle, next_check: Cycle) -> Cycle {
        let from = self.cycle;
        // Boundary cycles themselves are never skipped: `next_multiple_of`
        // is the smallest multiple at or above `from`.
        let mut target = horizon
            .min(end)
            .min(from.next_multiple_of(self.cfg.epoch_cycles))
            .min(from.next_multiple_of(self.sample_interval))
            .min(next_check);
        if let Some(fault) = self.cfg.faults.faults.get(self.fault_cursor) {
            target = target.min(fault.at_cycle);
        }
        // `service_would_noop` is the costliest predicate; consult it only
        // when the clamp it guards could actually shorten the jump.
        let dispatch = from.next_multiple_of(DISPATCH_INTERVAL);
        if target > dispatch && !self.tb_sched.service_would_noop(&self.sms, &self.kernels) {
            target = dispatch;
        }
        target
    }

    /// Applies every scheduled fault whose cycle has arrived.
    ///
    /// # Errors
    ///
    /// [`SimError::DeviceLost`] when a [`FaultKind::DeviceLoss`] fault
    /// fires; the run loop propagates it immediately (mid-epoch), modeling
    /// a device that drops off the bus without warning.
    fn apply_faults(&mut self, now: Cycle) -> Result<(), SimError> {
        while self.fault_cursor < self.cfg.faults.faults.len()
            && self.cfg.faults.faults[self.fault_cursor].at_cycle <= now
        {
            let fault = self.cfg.faults.faults[self.fault_cursor];
            self.fault_cursor += 1;
            self.record(now, TraceEventKind::FaultInjected { fault: fault.kind });
            match fault.kind {
                FaultKind::StarveQuota => {
                    for sm in &mut self.sms {
                        sm.freeze_all_quota();
                    }
                }
                FaultKind::FreezeScheduler { sm } => self.sms[sm].freeze_schedulers(),
                FaultKind::StallPreemption => {
                    for sm in &mut self.sms {
                        sm.stall_preemption();
                    }
                }
                FaultKind::Panic => {
                    panic!("injected fault: panic at cycle {now} (scheduled at {})", fault.at_cycle)
                }
                FaultKind::DeviceLoss => {
                    return Err(SimError::DeviceLost(Box::new(self.health_report())));
                }
                FaultKind::DeviceWedge => {
                    for sm in &mut self.sms {
                        sm.freeze_schedulers();
                    }
                }
            }
        }
        Ok(())
    }

    fn total_issued(&self) -> u64 {
        self.sms.iter().map(Sm::issued_total).sum()
    }

    /// Checks machine-wide and per-SM invariants; called at epoch
    /// boundaries when [`crate::HealthConfig::audit`] is set.
    fn audit_epoch(&self, now: Cycle) -> Result<(), SimError> {
        let snap = &self.epoch_snapshot;
        let bound = snap.cycles
            * u64::from(self.cfg.num_sms)
            * u64::from(self.cfg.sm.warp_schedulers)
            * u64::from(crate::WARP_SIZE);
        let issued: u64 = snap.thread_insts.iter().sum();
        if issued > bound {
            return Err(SimError::Audit(AuditViolation {
                cycle: now,
                sm: None,
                kind: AuditKind::IssueBound,
                detail: format!(
                    "epoch {} retired {issued} thread insts, hardware bound is {bound}",
                    snap.epoch
                ),
            }));
        }
        for sm in &self.sms {
            if let Err((kind, detail)) = sm.audit_invariants() {
                return Err(SimError::Audit(AuditViolation {
                    cycle: now,
                    sm: Some(sm.id().index()),
                    kind,
                    detail,
                }));
            }
        }
        Ok(())
    }

    /// Structured snapshot of machine health: per-kernel residency and
    /// quota state, per-SM warp stall census. This is what the watchdog
    /// attaches to [`SimError::Watchdog`]; it can also be taken on demand.
    pub fn health_report(&self) -> HealthReport {
        let now = self.cycle;
        let totals = self.kernel_totals();
        let kernels = (0..self.kernels.len())
            .map(|k| {
                let kid = KernelId::new(k);
                let mut resident_tbs = 0u32;
                let mut quota = 0i64;
                let mut gated_sms = 0u32;
                let mut exhausted_sms = 0u32;
                for sm in &self.sms {
                    resident_tbs += sm.hosted_tbs(kid);
                    quota += sm.quota(kid);
                    if sm.is_gated(kid) {
                        gated_sms += 1;
                        if sm.quota(kid) <= 0 {
                            exhausted_sms += 1;
                        }
                    }
                }
                KernelHealth {
                    kernel: k,
                    name: self.kernels[k].desc.name().to_string(),
                    resident_tbs,
                    preempted_tbs: self.kernels[k].preempted_len(),
                    quota,
                    gated_sms,
                    exhausted_sms,
                    thread_insts: totals[k],
                }
            })
            .collect();
        let sms = self
            .sms
            .iter()
            .map(|sm| SmHealth {
                sm: sm.id().index(),
                resident_tbs: sm.resident_tbs(),
                warps: sm.warp_stall_counts(now),
                transfer_in_flight: sm.context_switch_in_flight(),
            })
            .collect();
        HealthReport {
            cycle: now,
            window: self.cfg.health.watchdog_window,
            last_progress_cycle: now,
            total_issued: self.total_issued(),
            kernels,
            sms,
            events: self.recent_events(HEALTH_REPORT_EVENTS),
        }
    }

    /// The TB scheduler's pass at a dispatch point; out of line for the
    /// reason [`Gpu::jump_target`] gives.
    #[inline(never)]
    fn service(&mut self, now: Cycle) {
        self.tb_sched.service(
            now,
            &mut self.sms,
            &mut self.kernels,
            &mut self.mem,
            &self.cfg.preempt,
        );
    }

    fn finish_epoch(&mut self, now: Cycle) {
        let totals = self.kernel_totals();
        let mut snap = EpochSnapshot::empty();
        snap.epoch = self.epoch_index;
        snap.cycles = now - self.last_epoch_cycle;
        for (k, &total) in totals.iter().enumerate() {
            snap.thread_insts[k] = total - self.last_totals[k];
        }
        self.last_totals = totals;
        self.last_epoch_cycle = now;
        self.epoch_snapshot = snap;
        // Watchdog-relevant idle transitions: an epoch that retired nothing
        // while kernels were resident marks the machine as idle; the first
        // productive epoch after that ends the idle spell. Both edges land
        // on epoch boundaries, which fast-forward never skips, so traced
        // runs stay bit-identical across the fast-forward toggle.
        if self.trace_on && now > 0 && !self.kernels.is_empty() {
            let idle = self.epoch_snapshot.thread_insts.iter().sum::<u64>() == 0;
            if idle != self.was_idle {
                let kind = if idle { TraceEventKind::IdleStart } else { TraceEventKind::IdleEnd };
                self.record(now, kind);
                self.was_idle = idle;
            }
        }
    }

    fn kernel_totals(&self) -> PerKernel<u64> {
        let mut totals = per_kernel(|_| 0u64);
        for sm in &self.sms {
            for (k, total) in totals.iter_mut().enumerate() {
                *total += sm.counters(KernelId::new(k)).thread_insts;
            }
        }
        totals
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// The configuration in use.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// The machine-level flight-recorder ring (epoch boundaries, idle
    /// transitions, injected faults). Per-SM events live on the SMs.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Enables or disables the host-side self-profiler. Profiler state is
    /// host-only: never snapshotted, never part of any determinism surface.
    pub fn set_profiling(&mut self, on: bool) {
        self.prof.set_enabled(on);
    }

    /// The host-side self-profiler's accumulated phase totals.
    pub fn profiler(&self) -> &HostProfiler {
        &self.prof
    }

    /// How many per-SM cycle steps this machine's run loop executed and how
    /// many it skipped because the SM was asleep, and what its SMs' wake
    /// queues and quota gates did, since construction.
    pub fn work_counters(&self) -> WorkCounters {
        let mut work = self.work;
        for sm in &self.sms {
            let (events, rebuilds) = sm.wake_counts();
            work.wake_events += events;
            work.ready_rebuilds += rebuilds;
            work.gate_evals += sm.gate_evals();
        }
        work
    }

    /// The last `n` flight-recorder events machine-wide, oldest first: the
    /// machine-level ring merged with every SM's ring, ordered by cycle.
    /// Ties keep machine events before SM events and lower SM ids first;
    /// within one source, recording order is preserved.
    pub fn recent_events(&self, n: usize) -> Vec<TraceEvent> {
        let mut all: Vec<TraceEvent> = self.events.iter().copied().collect();
        for sm in &self.sms {
            all.extend(sm.events().iter().copied());
        }
        all.sort_by_key(|e| (e.cycle, e.sm.map_or(0, |s| s + 1)));
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Reconstructs the completed TB executions of kernel `k` from the
    /// per-SM flight-recorder rings — the capture hook behind the FGTR
    /// kernel-trace format (DESIGN.md §15).
    ///
    /// Pairs every [`TraceEventKind::TbDispatch`] with its
    /// [`TraceEventKind::TbDrain`] on the same SM and returns the completed
    /// lifecycles ordered by (dispatch cycle, SM, TB). TBs still resident
    /// when the run stopped are omitted. The result is only trusted when no
    /// ring lost events, so run with [`crate::TraceLevel::Events`] and a
    /// [`crate::TraceConfig::ring_capacity`] large enough to hold the whole
    /// recording.
    ///
    /// # Errors
    ///
    /// [`TbLogError::RingOverflow`] if any SM ring discarded events, and
    /// [`TbLogError::UnmatchedDrain`] if a drain has no open dispatch (a
    /// recording that started mid-flight).
    pub fn tb_lifecycles(&self, k: KernelId) -> Result<Vec<TbLifecycle>, TbLogError> {
        let kernel = k.index() as u32;
        let mut out = Vec::new();
        for sm in &self.sms {
            let sm_id = sm.id().index() as u32;
            let ring = sm.events();
            if ring.dropped() > 0 {
                return Err(TbLogError::RingOverflow { sm: sm_id, dropped: ring.dropped() });
            }
            // Open dispatches of this kernel on this SM: (tb, cycle, resumed).
            let mut open: Vec<(u32, Cycle, bool)> = Vec::new();
            for event in ring.iter() {
                match event.kind {
                    TraceEventKind::TbDispatch { kernel: ek, tb, resumed } if ek == kernel => {
                        open.push((tb, event.cycle, resumed));
                    }
                    TraceEventKind::TbDrain { kernel: ek, tb } if ek == kernel => {
                        let Some(pos) = open.iter().position(|&(t, _, _)| t == tb) else {
                            return Err(TbLogError::UnmatchedDrain { sm: sm_id, tb });
                        };
                        let (tb, dispatch_cycle, resumed) = open.swap_remove(pos);
                        out.push(TbLifecycle {
                            tb,
                            sm: sm_id,
                            dispatch_cycle,
                            drain_cycle: event.cycle,
                            resumed,
                        });
                    }
                    _ => {}
                }
            }
        }
        out.sort_by_key(|l| (l.dispatch_cycle, l.sm, l.tb));
        Ok(out)
    }

    /// Enumerates the counter registry: every named monotonic counter and
    /// gauge the simulator maintains, tagged with its scope (machine,
    /// kernel, SM, or memory channel). The set and order of entries is
    /// stable for a given configuration, so exporters and tests can rely on
    /// positional identity. All values come from state that snapshots
    /// round-trip bit-exactly.
    pub fn counter_registry(&self) -> Vec<CounterEntry> {
        use CounterKind::{Counter, Gauge};
        let mut out = Vec::new();
        let mut push = |name, scope, kind, value: i64| {
            out.push(CounterEntry { name, scope, kind, value });
        };
        let machine = CounterScope::Machine;
        push("cycle", machine, Gauge, self.cycle as i64);
        push("epoch_index", machine, Counter, self.epoch_index as i64);
        push("ff_skipped_cycles", machine, Counter, self.ff_skipped as i64);
        push("total_issued", machine, Counter, self.total_issued() as i64);
        let agg = self.preempt_stats();
        push("preempt_saves", machine, Counter, agg.saves as i64);
        push("preempt_resumes", machine, Counter, agg.resumes as i64);
        push("preempt_transfer_cycles", machine, Counter, agg.transfer_cycles as i64);
        for k in 0..self.kernels.len() {
            let kid = KernelId::new(k);
            let scope = CounterScope::Kernel(k);
            let mut thread_insts = 0u64;
            let mut warp_insts = 0u64;
            let mut quota_blocked = 0u64;
            let mut quota_exhaustions = 0u64;
            let mut scoreboard_waits = 0u64;
            let mut resident = 0u64;
            let mut quota = 0i64;
            for sm in &self.sms {
                let c = sm.counters(kid);
                thread_insts += c.thread_insts;
                warp_insts += c.warp_insts;
                quota_blocked += sm.quota_blocked_cycles(kid);
                quota_exhaustions += sm.quota_exhaustions(kid);
                scoreboard_waits += sm.scoreboard_wait_samples(kid);
                resident += u64::from(sm.hosted_tbs(kid));
                quota += sm.quota(kid);
            }
            push("thread_insts", scope, Counter, thread_insts as i64);
            push("warp_insts", scope, Counter, warp_insts as i64);
            push("quota_blocked_cycles", scope, Counter, quota_blocked as i64);
            push("quota_exhaustions", scope, Counter, quota_exhaustions as i64);
            push("scoreboard_wait_samples", scope, Counter, scoreboard_waits as i64);
            push("resident_tbs", scope, Gauge, resident as i64);
            push("quota", scope, Gauge, quota);
            let t = self.mem.traffic();
            push("l1_accesses", scope, Counter, t.l1_accesses[k] as i64);
            push("l2_accesses", scope, Counter, t.l2_accesses[k] as i64);
            push("dram_accesses", scope, Counter, t.dram_accesses[k] as i64);
            push("context_transactions", scope, Counter, t.context_transactions[k] as i64);
        }
        for sm in &self.sms {
            let scope = CounterScope::Sm(sm.id().index());
            push("busy_cycles", scope, Counter, sm.busy_cycles() as i64);
            push("issue_slots", scope, Counter, sm.issue_slots() as i64);
            push("issued_total", scope, Counter, sm.issued_total() as i64);
            let l1 = sm.l1_stats();
            push("l1_hits", scope, Counter, l1.hits as i64);
            push("l1_misses", scope, Counter, l1.misses as i64);
            let p = sm.preempt_stats();
            push("preempt_saves", scope, Counter, p.saves as i64);
            push("preempt_resumes", scope, Counter, p.resumes as i64);
            push("preempt_transfer_cycles", scope, Counter, p.transfer_cycles as i64);
        }
        let l2 = self.mem.l2_stats();
        push("l2_hits", machine, Counter, l2.hits as i64);
        push("l2_misses", machine, Counter, l2.misses as i64);
        for (ch, q) in self.mem.l2_queues().iter().enumerate() {
            let scope = CounterScope::Channel(ch);
            push("l2_served", scope, Counter, q.served() as i64);
            push("l2_total_wait", scope, Counter, q.total_wait() as i64);
            push("l2_peak_wait", scope, Counter, q.peak_wait() as i64);
            push("l2_queue_depth", scope, Gauge, q.backlog_at(self.cycle) as i64);
        }
        for (ch, q) in self.mem.dram_queues().iter().enumerate() {
            let scope = CounterScope::Channel(ch);
            push("dram_served", scope, Counter, q.served() as i64);
            push("dram_total_wait", scope, Counter, q.total_wait() as i64);
            push("dram_peak_wait", scope, Counter, q.peak_wait() as i64);
            push("dram_queue_depth", scope, Gauge, q.backlog_at(self.cycle) as i64);
        }
        out
    }

    /// Number of launched kernels.
    pub fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    /// Launched kernel ids.
    pub fn kernel_ids(&self) -> impl Iterator<Item = KernelId> + '_ {
        (0..self.kernels.len()).map(KernelId::new)
    }

    /// Description of kernel `k`.
    pub fn kernel_desc(&self, k: KernelId) -> &Arc<KernelDesc> {
        &self.kernels[k.index()].desc
    }

    /// Number of preempted TBs of kernel `k` awaiting resumption.
    pub fn preempted_len(&self, k: KernelId) -> usize {
        self.kernels[k.index()].preempted_len()
    }

    /// The SMs (read-only).
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Whole-SM mutable access, for tests that corrupt or poke state no
    /// control-plane view exposes.
    #[cfg(test)]
    pub(crate) fn sm_mut(&mut self, id: SmId) -> &mut Sm {
        &mut self.sms[id.index()]
    }

    /// Control-plane view of one SM, scoped to the quota/gating knobs a
    /// [`Controller`] is meant to turn. Policy code gets this view and no
    /// `&mut Sm`, so the surface a controller can mutate stays explicit and
    /// small. Controllers run only at epoch boundaries, outside the
    /// tick→drain window.
    pub fn sm_quota(&mut self, id: SmId) -> SmQuotaView<'_> {
        SmQuotaView { sm: &mut self.sms[id.index()] }
    }

    /// The shared memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Latest epoch snapshot (per-kernel instructions in the last epoch).
    pub fn epoch_snapshot(&self) -> &EpochSnapshot {
        &self.epoch_snapshot
    }

    /// Whether any SM has a context switch in flight.
    pub fn context_switch_in_flight(&self) -> bool {
        self.sms.iter().any(Sm::context_switch_in_flight)
    }

    /// Aggregated preemption statistics.
    pub fn preempt_stats(&self) -> PreemptStats {
        let mut agg = PreemptStats::default();
        for sm in &self.sms {
            let s = sm.preempt_stats();
            agg.saves += s.saves;
            agg.resumes += s.resumes;
            agg.transfer_cycles += s.transfer_cycles;
        }
        agg
    }

    /// Aggregated statistics snapshot.
    pub fn stats(&self) -> GpuStats {
        let mut kernels: PerKernel<KernelStats> = per_kernel(|_| KernelStats::default());
        for sm in &self.sms {
            for (k, ks) in kernels.iter_mut().enumerate() {
                let c = sm.counters(KernelId::new(k));
                ks.thread_insts += c.thread_insts;
                ks.warp_insts += c.warp_insts;
            }
        }
        for (k, kr) in self.kernels.iter().enumerate() {
            kernels[k].tbs_completed = kr.tbs_completed();
            kernels[k].launches_completed = kr.launches_completed();
        }
        GpuStats::new(self.cycle, self.kernels.len(), kernels)
    }

    // ------------------------------------------------------------------
    // Control plane (used by QoS managers)
    // ------------------------------------------------------------------

    /// Switches the sharing mode. Residency converges at subsequent service
    /// passes (over-subscribed TBs are preempted, free capacity refilled).
    pub fn set_sharing_mode(&mut self, mode: SharingMode) {
        self.tb_sched.set_mode(mode);
    }

    /// Sets the SMK TB target of kernel `k` on SM `sm`.
    pub fn set_tb_target(&mut self, sm: SmId, k: KernelId, tbs: u16) {
        self.tb_sched.set_target(sm.index(), k, tbs);
    }

    /// SMK TB target of kernel `k` on SM `sm`.
    pub fn tb_target(&self, sm: SmId, k: KernelId) -> u16 {
        self.tb_sched.target(sm.index(), k)
    }

    /// Assigns SM `sm` to `owner` (spatial mode).
    pub fn set_sm_owner(&mut self, sm: SmId, owner: Option<KernelId>) {
        self.tb_sched.set_owner(sm.index(), owner);
    }

    /// Owner of SM `sm` (spatial mode).
    pub fn sm_owner(&self, sm: SmId) -> Option<KernelId> {
        self.tb_sched.owner(sm.index())
    }

    /// Maximum TBs of kernel `k` one SM can host (occupancy bound).
    pub fn max_resident_tbs(&self, k: KernelId) -> u32 {
        self.sms[0].max_resident_tbs(self.kernel_desc(k))
    }

    /// All SM ids.
    pub fn sm_ids(&self) -> impl Iterator<Item = SmId> + '_ {
        (0..self.sms.len()).map(SmId::new)
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Stable 64-bit fingerprint of this GPU's configuration (FNV-1a over
    /// the encoded [`GpuConfig`]). Snapshots carry it so [`Gpu::restore`]
    /// can refuse blobs taken under a different configuration.
    pub fn config_fingerprint(&self) -> u64 {
        self.cfg.fingerprint()
    }

    /// Migration-class fingerprint of this GPU's configuration: the config
    /// fingerprint with the fault plan erased (see
    /// [`GpuConfig::compat_fingerprint`]). Snapshots carry it so
    /// [`Gpu::restore_compat`] can accept blobs from a same-class machine
    /// that merely had different scheduled faults.
    pub fn compat_fingerprint(&self) -> u64 {
        self.cfg.compat_fingerprint()
    }

    /// Captures the complete mutable state of the machine into a versioned
    /// [`SnapshotBlob`].
    ///
    /// Snapshots are only legal at **epoch boundaries** (`cycle` a multiple
    /// of `epoch_cycles`, including cycle 0) — the one point where no
    /// intra-epoch loop state is implicit in the call stack, so a restored
    /// machine continues bit-identically to one that never stopped. The
    /// watchdog and epoch audits also fire only on such cycles (the harness
    /// sizes the watchdog window as a multiple of the epoch), so failure
    /// states are snapshot-legal too.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotEpochBoundary`] when called mid-epoch.
    pub fn snapshot(&self) -> Result<SnapshotBlob<'static>, SnapshotError> {
        if !self.cycle.is_multiple_of(self.cfg.epoch_cycles) {
            return Err(SnapshotError::NotEpochBoundary {
                cycle: self.cycle,
                epoch_cycles: self.cfg.epoch_cycles,
            });
        }
        let (config_fingerprint, compat_fingerprint) =
            (self.config_fingerprint(), self.compat_fingerprint());
        // The header goes first with a zero length word, patched in below.
        let mut out = Vec::with_capacity(BLOB_HEADER_BYTES + self.payload_size_hint());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        SNAPSHOT_SCHEMA_VERSION.encode(&mut out);
        config_fingerprint.encode(&mut out);
        compat_fingerprint.encode(&mut out);
        0u64.encode(&mut out);
        self.cycle.encode(&mut out);
        self.sms.encode(&mut out);
        self.mem.encode(&mut out);
        self.kernels.encode(&mut out);
        self.tb_sched.encode(&mut out);
        self.epoch_snapshot.encode(&mut out);
        self.last_totals.encode(&mut out);
        self.last_epoch_cycle.encode(&mut out);
        self.epoch_index.encode(&mut out);
        self.sample_interval.encode(&mut out);
        self.fault_cursor.encode(&mut out);
        self.ff_skipped.encode(&mut out);
        self.events.encode(&mut out);
        self.was_idle.encode(&mut out);
        let payload_len = (out.len() - BLOB_HEADER_BYTES) as u64;
        out[BLOB_HEADER_BYTES - 8..BLOB_HEADER_BYTES].copy_from_slice(&payload_len.to_le_bytes());
        Ok(SnapshotBlob {
            version: SNAPSHOT_SCHEMA_VERSION,
            config_fingerprint,
            compat_fingerprint,
            bytes: Cow::Owned(out),
        })
    }

    /// About how many bytes [`Gpu::snapshot`] encodes after the blob header,
    /// so that it allocates once: 8 per cache line, a row per warp slot, and an
    /// allowance for the rest (TB slabs, kernels, counters, an empty event
    /// ring). A machine that carries more (a filled trace ring) grows it.
    fn payload_size_hint(&self) -> usize {
        const WARP_ROW_BYTES: usize = 64;
        const FIXED_BYTES: usize = 64 << 10;
        let sms = self.cfg.num_sms as usize;
        let mem = &self.cfg.mem;
        let cached = sms * mem.l1_bytes as usize + mem.num_mcs as usize * mem.l2_bytes as usize;
        cached / mem.line_bytes as usize * 8
            + sms * self.cfg.sm.max_warps() as usize * WARP_ROW_BYTES
            + FIXED_BYTES
    }

    /// Replaces this machine's state with a previously captured snapshot.
    ///
    /// The receiver must have been built from the **same configuration**
    /// that produced the blob (checked via the fingerprint); kernel launch
    /// state is part of the snapshot, so restoring into a freshly
    /// constructed `Gpu::new(cfg)` is the intended use. On any error `self`
    /// is left untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemaVersion`] on a version mismatch,
    /// [`SnapshotError::ConfigFingerprint`] when the blob was taken under a
    /// different configuration, and [`SnapshotError::Corrupt`] when the
    /// payload fails to decode.
    pub fn restore(&mut self, blob: &SnapshotBlob<'_>) -> Result<(), SnapshotError> {
        blob.check_header(blob.config_fingerprint, self.config_fingerprint())?;
        self.restore_payload(&blob.bytes[BLOB_HEADER_BYTES..])
    }

    /// Restores a snapshot from a **migration-class-compatible** machine:
    /// the blob's [`compat fingerprint`](SnapshotBlob::compat_fingerprint)
    /// must match this machine's, but the full config fingerprints may
    /// differ — i.e. the source may have carried a different fault plan.
    ///
    /// This is the receiving half of live migration: state captured on a
    /// device that was about to fail (or be drained) resumes on a spare of
    /// the same class. The snapshot's `fault_cursor` indexed the *source*
    /// plan, so it is rebased onto the receiver's plan: every receiver fault
    /// scheduled strictly before the restored cycle is treated as already
    /// consumed (the fleet layer translates pending faults so none land in
    /// the past), and faults at or after the restored cycle fire normally.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemaVersion`] on a version mismatch,
    /// [`SnapshotError::ConfigFingerprint`] when the blob's migration class
    /// differs from the receiver's, and [`SnapshotError::Corrupt`] when the
    /// payload fails to decode.
    pub fn restore_compat(&mut self, blob: &SnapshotBlob<'_>) -> Result<(), SnapshotError> {
        blob.check_header(blob.compat_fingerprint, self.compat_fingerprint())?;
        self.restore_payload(&blob.bytes[BLOB_HEADER_BYTES..])?;
        // Rebase the fault cursor from the source plan onto the receiver's
        // (sorted) plan: faults strictly in the past are consumed, the rest
        // remain armed.
        self.fault_cursor =
            self.cfg.faults.faults.iter().take_while(|f| f.at_cycle < self.cycle).count();
        // The snapshot may have been taken after a silent fault fired on
        // the source machine (a wedge freezes schedulers well before the
        // watchdog can classify it). Those effects describe the sick
        // device, not the workload — carrying them onto healthy silicon
        // would wedge the receiver too, cascading one hardware failure
        // across the fleet. The plain [`Gpu::restore`] path deliberately
        // keeps them: resuming the *same* machine must reproduce the
        // original run bit for bit, watchdog trip included.
        for sm in &mut self.sms {
            sm.clear_fault_effects();
        }
        Ok(())
    }

    /// Decodes a snapshot payload and swaps it in. Decodes fully into locals
    /// before assigning, so `self` is untouched on any error.
    fn restore_payload(&mut self, payload: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(payload);
        let cycle = Cycle::decode(&mut r)?;
        let sms = Vec::<Sm>::decode(&mut r)?;
        let mem = MemSystem::decode(&mut r)?;
        let kernels = Vec::<KernelRuntime>::decode(&mut r)?;
        let tb_sched = TbScheduler::decode(&mut r)?;
        let epoch_snapshot = EpochSnapshot::decode(&mut r)?;
        let last_totals = PerKernel::<u64>::decode(&mut r)?;
        let last_epoch_cycle = Cycle::decode(&mut r)?;
        let epoch_index = u64::decode(&mut r)?;
        let sample_interval = Cycle::decode(&mut r)?;
        let fault_cursor = usize::decode(&mut r)?;
        let ff_skipped = Cycle::decode(&mut r)?;
        let events = EventRing::decode(&mut r)?;
        let was_idle = bool::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "trailing bytes in snapshot payload",
            )));
        }
        // The receiver's own caches are what `Cache::new` builds from its
        // configuration: a decoded cache of another shape would be indexed
        // out of bounds on its first access.
        let l1s_fit = sms.len() == self.sms.len()
            && sms.iter().zip(&self.sms).all(|(sm, built)| sm.l1_fits(built));
        if !l1s_fit || !mem.l2_fits(&self.mem) {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "cache that does not fit the machine",
            )));
        }
        self.cycle = cycle;
        // The outgoing SMs take their wake-queue counts with them.
        self.work = self.work_counters();
        self.sms = sms;
        self.mem = mem;
        self.kernels = kernels;
        self.tb_sched = tb_sched;
        self.epoch_snapshot = epoch_snapshot;
        self.last_totals = last_totals;
        self.last_epoch_cycle = last_epoch_cycle;
        self.epoch_index = epoch_index;
        self.sample_interval = sample_interval;
        self.fault_cursor = fault_cursor;
        self.ff_skipped = ff_skipped;
        self.events = events;
        self.was_idle = was_idle;
        Ok(())
    }
}

/// Borrowed control-plane view of one SM (see [`Gpu::sm_quota`]).
///
/// Exposes exactly the quota-gating knobs of the paper's Enhanced Warp
/// Scheduler (§3.2): per-kernel instruction quotas with carry policy, QoS
/// membership, gating, and the elastic / priority-block refinements.
#[derive(Debug)]
pub struct SmQuotaView<'a> {
    sm: &'a mut Sm,
}

impl SmQuotaView<'_> {
    /// Gates (or ungates) kernel `k`'s issue on this SM.
    pub fn set_gated(&mut self, k: KernelId, gated: bool) {
        self.sm.set_gated(k, gated);
    }

    /// Installs kernel `k`'s per-epoch instruction quota.
    pub fn set_epoch_quota(&mut self, k: KernelId, alloc: i64, carry: QuotaCarry, refill: i64) {
        self.sm.set_epoch_quota(k, alloc, carry, refill);
    }

    /// Remaining quota of kernel `k` on this SM.
    pub fn quota(&self, k: KernelId) -> i64 {
        self.sm.quota(k)
    }

    /// Marks kernel `k` as QoS (quota-managed) or best-effort.
    pub fn set_qos_kernel(&mut self, k: KernelId, qos: bool) {
        self.sm.set_qos_kernel(k, qos);
    }

    /// Enables elastic quota (best-effort kernels borrow idle QoS slots).
    pub fn set_elastic(&mut self, on: bool) {
        self.sm.set_elastic(on);
    }

    /// Enables priority-block mode (QoS kernels always issue first).
    pub fn set_priority_block(&mut self, on: bool) {
        self.sm.set_priority_block(on);
    }
}

/// How many trailing flight-recorder events a [`HealthReport`] embeds.
const HEALTH_REPORT_EVENTS: usize = 32;

/// Version of the snapshot payload layout. Bumped whenever the set, order,
/// or encoding of snapshotted fields changes; [`Gpu::restore`] refuses
/// blobs from any other version. Version 3 added the SM-domain cache
/// parameters (`l1_hit_latency`, `line_bytes`) to the per-SM record when
/// the SM↔memory boundary moved behind [`crate::icn::IcnPort`]; version 4
/// added the `dropped` discard counter to every [`EventRing`] so lossless
/// trace capture can prove a recording never wrapped; version 5 added the
/// migration-class `compat_fingerprint` to the blob header so live
/// migration ([`Gpu::restore_compat`]) can accept snapshots from a
/// same-class device with a different fault plan; version 6 added the
/// telemetry layer's deterministic state — per-SM per-kernel
/// preemption-save latency histograms and the machine's epoch-sampled
/// counter series (DESIGN.md §17); version 7 switched the hot
/// per-SM state to struct-of-arrays layouts — the warp table
/// ([`crate::sm::WarpTable`]), the TB slab ([`crate::tb::TbSlab`]), and the
/// cache tag/LRU arrays — changing the field set and order of every per-SM
/// record (DESIGN.md §18); version 8 packed each cache line's tag and LRU
/// stamp into one `u64` word under a `u32` clock (DESIGN.md §3.2); version 9
/// took out what only the removed options wrote — the per-SM policy byte and
/// per-scheduler round-robin cursors, the TB scheduler's two time-multiplexing
/// rotation words, and `sched_policy` from the embedded [`GpuConfig`] (and so
/// from both fingerprints) — and refuses `SharingMode` tag 3 and kernel ids
/// past [`crate::MAX_KERNELS`]; version 10 took version 6's histograms and
/// series back out, as nothing outside tests read them (DESIGN.md §8.1).
/// Host-profiler state is deliberately absent: wall-clock attribution never
/// enters snapshots.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 10;

/// Leading magic of a serialized [`SnapshotBlob`].
const SNAPSHOT_MAGIC: [u8; 4] = *b"FGQS";

/// Wire bytes before a blob's payload: magic, version, fingerprints, length.
const BLOB_HEADER_BYTES: usize = 32;

/// Why a snapshot could not be taken, serialized, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// [`Gpu::snapshot`] was called mid-epoch; snapshots are only legal
    /// when `cycle` is a multiple of `epoch_cycles`.
    NotEpochBoundary {
        /// The cycle at which the snapshot was requested.
        cycle: Cycle,
        /// The configured epoch length.
        epoch_cycles: Cycle,
    },
    /// The byte stream does not begin with the snapshot magic.
    BadMagic,
    /// The blob was written by a different snapshot schema version.
    SchemaVersion {
        /// Version found in the blob.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The blob was taken under a different [`GpuConfig`].
    ConfigFingerprint {
        /// Fingerprint carried by the blob.
        found: u64,
        /// Fingerprint of the restoring machine's configuration.
        expected: u64,
    },
    /// The payload failed to decode (truncated or corrupted).
    Corrupt(SnapError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::NotEpochBoundary { cycle, epoch_cycles } => write!(
                f,
                "snapshot requested at cycle {cycle}, which is not an epoch \
                 boundary (epoch length {epoch_cycles})"
            ),
            SnapshotError::BadMagic => f.write_str("not a GPU snapshot (bad magic)"),
            SnapshotError::SchemaVersion { found, expected } => {
                write!(f, "snapshot schema version {found} is not the supported version {expected}")
            }
            SnapshotError::ConfigFingerprint { found, expected } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match the \
                 restoring machine's {expected:#018x}"
            ),
            SnapshotError::Corrupt(e) => write!(f, "snapshot payload corrupt: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        SnapshotError::Corrupt(e)
    }
}

/// A versioned, self-describing capture of a [`Gpu`]'s mutable state.
///
/// The blob carries the schema version and a fingerprint of the producing
/// configuration; [`Gpu::restore`] validates both before touching any
/// state. It holds its stable on-disk form (magic + version + fingerprint +
/// compat fingerprint + payload length + payload) in one buffer, which
/// [`SnapshotBlob::to_bytes`] and [`SnapshotBlob::from_bytes`] borrow and
/// [`SnapshotBlob::into_bytes`] hands over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob<'a> {
    version: u32,
    config_fingerprint: u64,
    compat_fingerprint: u64,
    bytes: Cow<'a, [u8]>,
}

impl<'a> SnapshotBlob<'a> {
    /// Schema version the blob was written with.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Fingerprint of the configuration that produced the blob.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Migration-class fingerprint of the producing configuration (the
    /// config fingerprint with the fault plan erased; see
    /// [`GpuConfig::compat_fingerprint`]).
    pub fn compat_fingerprint(&self) -> u64 {
        self.compat_fingerprint
    }

    /// Size of the encoded state payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.bytes.len() - BLOB_HEADER_BYTES
    }

    /// What a receiver checks before it decodes the payload: the schema
    /// version, then the blob's fingerprint `found` against its own.
    fn check_header(&self, found: u64, expected: u64) -> Result<(), SnapshotError> {
        if self.version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaVersion {
                found: self.version,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        if found != expected {
            return Err(SnapshotError::ConfigFingerprint { found, expected });
        }
        Ok(())
    }

    /// The blob's on-disk byte form, without a copy.
    pub fn to_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The on-disk byte form, moved out of a snapshot (copied out of a parse).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes.into_owned()
    }

    /// Parses a blob written by [`SnapshotBlob::to_bytes`], borrowing `bytes`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BadMagic`] when the stream is not a snapshot, and
    /// [`SnapshotError::Corrupt`] when the framing fails to decode.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        let framed = bytes.strip_prefix(&SNAPSHOT_MAGIC).ok_or(SnapshotError::BadMagic)?;
        let mut r = SnapReader::new(framed);
        let version = u32::decode(&mut r)?;
        let config_fingerprint = u64::decode(&mut r)?;
        let compat_fingerprint = u64::decode(&mut r)?;
        let payload_len = usize::decode(&mut r)?;
        r.take(payload_len)?;
        if !r.is_exhausted() {
            return Err(SnapError::Invalid("trailing bytes after value").into());
        }
        Ok(Self { version, config_fingerprint, compat_fingerprint, bytes: Cow::Borrowed(bytes) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccessPattern, Op};

    fn compute_kernel(name: &str) -> KernelDesc {
        KernelDesc::builder(name)
            .threads_per_tb(256)
            .regs_per_thread(32)
            .grid_tbs(256)
            .iterations(8)
            .body(vec![Op::alu(2, 12), Op::mem_load(AccessPattern::tile(8 * 1024))])
            .build()
    }

    fn memory_kernel(name: &str) -> KernelDesc {
        KernelDesc::builder(name)
            .threads_per_tb(256)
            .regs_per_thread(24)
            .grid_tbs(256)
            .iterations(64)
            .memory_intensive(true)
            .body(vec![Op::mem_load(AccessPattern::stream()), Op::alu(2, 2)])
            .build()
    }

    #[test]
    fn isolated_run_makes_progress() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let k = gpu.launch(compute_kernel("c"));
        gpu.run(20_000, &mut NullController);
        let stats = gpu.stats();
        assert!(stats.kernel(k).thread_insts > 100_000);
        assert!(stats.kernel(k).tbs_completed > 0);
        assert!(stats.ipc(k) > 1.0, "IPC {}", stats.ipc(k));
    }

    #[test]
    fn compute_kernel_outruns_memory_kernel_in_isolation() {
        let mut c = Gpu::new(GpuConfig::tiny());
        let kc = c.launch(compute_kernel("c"));
        c.run(20_000, &mut NullController);
        let mut m = Gpu::new(GpuConfig::tiny());
        let km = m.launch(memory_kernel("m"));
        m.run(20_000, &mut NullController);
        assert!(
            c.stats().ipc(kc) > m.stats().ipc(km),
            "compute IPC {} must exceed memory IPC {}",
            c.stats().ipc(kc),
            m.stats().ipc(km)
        );
    }

    #[test]
    fn corun_degrades_both_kernels() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let a = gpu.launch(memory_kernel("a"));
        let b = gpu.launch(memory_kernel("b").with_seed(99));
        gpu.set_sharing_mode(SharingMode::Smk);
        // Force co-residency: half the TB slots each (unbounded targets would
        // let whichever kernel dispatches first monopolize the SMs — the very
        // problem the paper's static resource management addresses).
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            gpu.set_tb_target(sm, a, 4);
            gpu.set_tb_target(sm, b, 4);
        }
        gpu.run(20_000, &mut NullController);
        let shared = gpu.stats();

        let mut iso = Gpu::new(GpuConfig::tiny());
        let ki = iso.launch(memory_kernel("a"));
        iso.run(20_000, &mut NullController);
        let isolated = iso.stats();

        assert!(shared.ipc(a) > 0.0 && shared.ipc(b) > 0.0);
        assert!(
            shared.ipc(a) < isolated.ipc(ki),
            "sharing must cost bandwidth-bound kernels: {} vs isolated {}",
            shared.ipc(a),
            isolated.ipc(ki)
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut gpu = Gpu::new(GpuConfig::tiny());
            let a = gpu.launch(compute_kernel("a"));
            let b = gpu.launch(memory_kernel("b"));
            gpu.set_sharing_mode(SharingMode::Smk);
            gpu.run(15_000, &mut NullController);
            (gpu.stats().kernel(a).thread_insts, gpu.stats().kernel(b).thread_insts)
        };
        assert_eq!(run(), run(), "same seeds must replay identically");
    }

    #[test]
    fn epoch_snapshot_reports_progress() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel("c"));

        struct Check {
            saw_progress: bool,
        }
        impl Controller for Check {
            fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
                if epoch > 0 {
                    let snap = gpu.epoch_snapshot();
                    assert_eq!(snap.cycles, gpu.config().epoch_cycles);
                    if snap.thread_insts[0] > 0 {
                        self.saw_progress = true;
                    }
                }
            }
        }
        let mut ctrl = Check { saw_progress: false };
        gpu.run(5_000, &mut ctrl);
        assert!(ctrl.saw_progress);
    }

    #[test]
    fn spatial_mode_partitions_sms() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let a = gpu.launch(compute_kernel("a"));
        let b = gpu.launch(compute_kernel("b").with_seed(7));
        gpu.set_sharing_mode(SharingMode::Spatial);
        gpu.set_sm_owner(SmId::new(0), Some(a));
        gpu.set_sm_owner(SmId::new(1), Some(b));
        gpu.run(5_000, &mut NullController);
        assert_eq!(gpu.sms()[0].hosted_tbs(b), 0);
        assert_eq!(gpu.sms()[1].hosted_tbs(a), 0);
        assert!(gpu.stats().ipc(a) > 0.0);
        assert!(gpu.stats().ipc(b) > 0.0);
    }

    #[test]
    fn launch_limit_enforced() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        for i in 0..crate::MAX_KERNELS {
            gpu.launch(compute_kernel(&format!("k{i}")));
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.launch(compute_kernel("overflow"));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn run_is_resumable() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let k = gpu.launch(compute_kernel("c"));
        gpu.run(5_000, &mut NullController);
        let mid = gpu.stats().kernel(k).thread_insts;
        gpu.run(5_000, &mut NullController);
        let end = gpu.stats().kernel(k).thread_insts;
        assert!(end > mid);
        assert_eq!(gpu.cycle(), 10_000);
    }

    use crate::health::{FaultKind, FaultPlan, SimError};

    #[test]
    fn watchdog_stays_silent_while_progressing() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog_window = 1_000;
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("c"));
        gpu.try_run(20_000, &mut NullController).expect("healthy run must not trip");
        assert_eq!(gpu.cycle(), 20_000);
    }

    #[test]
    fn watchdog_observation_does_not_perturb_results() {
        let run = |window: Cycle| {
            let mut cfg = GpuConfig::tiny();
            cfg.health.watchdog_window = window;
            let mut gpu = Gpu::new(cfg);
            let a = gpu.launch(compute_kernel("a"));
            let b = gpu.launch(memory_kernel("b"));
            gpu.set_sharing_mode(SharingMode::Smk);
            gpu.try_run(15_000, &mut NullController).expect("healthy");
            (gpu.stats().kernel(a).thread_insts, gpu.stats().kernel(b).thread_insts)
        };
        assert_eq!(run(0), run(500), "the watchdog is observation-only");
    }

    #[test]
    fn watchdog_trips_on_starved_quota_livelock_and_names_the_kernel() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog_window = 2_000;
        cfg.faults = FaultPlan::one(3_000, FaultKind::StarveQuota);
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("victim"));
        gpu.launch(memory_kernel("other"));
        let err = gpu
            .try_run(50_000, &mut NullController)
            .expect_err("all-gated livelock must trip the watchdog");
        assert!(
            gpu.cycle() < 50_000,
            "the watchdog must fire instead of spinning out the budget (cycle {})",
            gpu.cycle()
        );
        let SimError::Watchdog(report) = err else {
            panic!("expected a watchdog trip, got {err}");
        };
        let starved: Vec<&str> = report.starved_kernels().map(|k| k.name.as_str()).collect();
        assert!(
            starved.contains(&"victim") && starved.contains(&"other"),
            "report must name the quota-starved kernels, got {starved:?}"
        );
        assert!(report.summary().contains("victim"), "{}", report.summary());
        assert!(report.total_issued > 0, "progress happened before the fault");
    }

    #[test]
    fn frozen_scheduler_halts_only_that_sm() {
        let mut cfg = GpuConfig::tiny();
        cfg.faults = FaultPlan::one(0, FaultKind::FreezeScheduler { sm: 0 });
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("c"));
        gpu.run(10_000, &mut NullController);
        assert_eq!(gpu.sms()[0].issued_total(), 0, "frozen SM must not issue");
        assert!(gpu.sms()[1].issued_total() > 0, "the other SM keeps running");
    }

    #[test]
    fn stalled_preemption_engine_refuses_saves() {
        let run = |stalled: bool| {
            let mut cfg = GpuConfig::tiny();
            if stalled {
                cfg.faults = FaultPlan::one(0, FaultKind::StallPreemption);
            }
            let mut gpu = Gpu::new(cfg);
            let k = gpu.launch(compute_kernel("c"));
            gpu.set_sharing_mode(SharingMode::Smk);
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                gpu.set_tb_target(sm, k, 4);
            }
            gpu.run(3_000, &mut NullController);
            // Shrink the target: the TB scheduler now wants to preempt.
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                gpu.set_tb_target(sm, k, 1);
            }
            gpu.run(10_000, &mut NullController);
            gpu.preempt_stats().saves
        };
        assert_eq!(run(true), 0, "a stalled engine must refuse every save");
        assert!(run(false) > 0, "the healthy engine preempts down to the target");
    }

    #[test]
    fn panic_fault_panics_inside_run() {
        let mut cfg = GpuConfig::tiny();
        cfg.faults = FaultPlan::one(1_000, FaultKind::Panic);
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("c"));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            gpu.run(5_000, &mut NullController);
        }));
        let payload = result.expect_err("the injected panic must surface");
        let msg = payload.downcast_ref::<String>().expect("panic carries a message");
        assert!(msg.contains("injected fault"), "{msg}");
    }

    #[test]
    fn device_loss_surfaces_as_a_typed_error_mid_epoch() {
        let mut cfg = GpuConfig::tiny();
        cfg.faults = FaultPlan::one(2_500, FaultKind::DeviceLoss);
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("victim"));
        let err =
            gpu.try_run(50_000, &mut NullController).expect_err("a lost device must stop the run");
        assert_eq!(err.kind(), "device-lost");
        let SimError::DeviceLost(report) = err else {
            panic!("expected a device-lost error, got {err}");
        };
        assert_eq!(gpu.cycle(), 2_500, "the loss fires mid-epoch, not at a boundary");
        assert_eq!(report.cycle, 2_500);
        assert!(report.total_issued > 0, "progress happened before the loss");
    }

    #[test]
    fn watchdog_classifies_a_wedged_device_within_one_window() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog_window = 2_000;
        cfg.faults = FaultPlan::one(3_000, FaultKind::DeviceWedge);
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("victim"));
        let err = gpu
            .try_run(50_000, &mut NullController)
            .expect_err("a wedged device must trip the watchdog");
        assert_eq!(err.kind(), "watchdog");
        let SimError::Watchdog(report) = err else {
            panic!("expected a watchdog trip, got {err}");
        };
        // The wedge fires at 3 000; the first full window with zero issues is
        // (4 000, 6 000], so classification lands at 6 000 — one window after
        // the first check that still saw pre-wedge progress.
        assert!(
            report.cycle <= 3_000 + 2 * 2_000,
            "wedge must be classified within one window of the first silent check \
             (tripped at {})",
            report.cycle
        );
        assert!(
            report.starved_kernels().count() == 0,
            "a wedged device is not a quota livelock; no kernel is quota-starved"
        );
        for sm in &report.sms {
            assert!(sm.warps.ready > 0, "ready warps that cannot issue mark a frozen scheduler");
        }
    }

    #[test]
    fn audit_passes_on_clean_smk_run_with_quota_gating() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.audit = true;
        let mut gpu = Gpu::new(cfg);
        let a = gpu.launch(compute_kernel("a"));
        let b = gpu.launch(memory_kernel("b"));
        gpu.set_sharing_mode(SharingMode::Smk);
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            gpu.set_tb_target(sm, a, 4);
            gpu.set_tb_target(sm, b, 4);
        }

        struct Gate;
        impl Controller for Gate {
            fn on_epoch(&mut self, gpu: &mut Gpu, _epoch: u64) {
                for sm in gpu.sm_ids().collect::<Vec<_>>() {
                    let sm = gpu.sm_mut(sm);
                    sm.set_gated(KernelId::new(0), true);
                    sm.set_qos_kernel(KernelId::new(0), true);
                    sm.set_epoch_quota(KernelId::new(0), 2_000, crate::sm::QuotaCarry::Full, 0);
                }
            }
        }
        gpu.try_run(25_000, &mut Gate).expect("a clean run must pass every audit");
    }

    #[test]
    fn audit_catches_quota_ledger_corruption() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.audit = true;
        let mut gpu = Gpu::new(cfg);
        let k = gpu.launch(compute_kernel("c"));
        gpu.run(5_000, &mut NullController);
        gpu.sm_mut(SmId::new(0)).corrupt_quota_for_test(k, 7);
        let err = gpu
            .try_run(5_000, &mut NullController)
            .expect_err("a stray quota mutation must fail the ledger audit");
        match err {
            SimError::Audit(v) => {
                assert_eq!(v.kind, crate::health::AuditKind::QuotaLedger, "{v}");
                assert_eq!(v.sm, Some(0));
            }
            other => panic!("expected an audit violation, got {other}"),
        }
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        let cfg = GpuConfig::tiny();
        // Straight run to 12k cycles.
        let mut straight = Gpu::new(cfg.clone());
        let a = straight.launch(compute_kernel("a"));
        let b = straight.launch(memory_kernel("b"));
        straight.set_sharing_mode(SharingMode::Smk);
        for sm in straight.sm_ids().collect::<Vec<_>>() {
            straight.set_tb_target(sm, a, 4);
            straight.set_tb_target(sm, b, 4);
        }
        straight.run(12_000, &mut NullController);

        // Same run, snapshotted at 5k (an epoch boundary in the tiny config)
        // and restored into a *fresh* machine that never saw cycles 0..5k.
        let mut gpu = Gpu::new(cfg.clone());
        let a2 = gpu.launch(compute_kernel("a"));
        let b2 = gpu.launch(memory_kernel("b"));
        gpu.set_sharing_mode(SharingMode::Smk);
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            gpu.set_tb_target(sm, a2, 4);
            gpu.set_tb_target(sm, b2, 4);
        }
        gpu.run(5_000, &mut NullController);
        let blob = gpu.snapshot().expect("cycle 5000 is an epoch boundary");
        let mut resumed = Gpu::new(cfg);
        resumed.restore(&blob).expect("fingerprints match");
        assert_eq!(resumed.cycle(), 5_000);
        resumed.run(7_000, &mut NullController);

        assert_eq!(resumed.stats().kernel(a).thread_insts, straight.stats().kernel(a).thread_insts);
        assert_eq!(resumed.stats().kernel(b).thread_insts, straight.stats().kernel(b).thread_insts);
        assert_eq!(resumed.preempt_stats(), straight.preempt_stats());
        let skipped = |g: &Gpu| {
            g.counter_registry()
                .into_iter()
                .find(|e| e.name == "ff_skipped_cycles")
                .map(|e| e.value)
        };
        assert_eq!(skipped(&resumed), skipped(&straight));

        // Wake queues are rebuilt, never restored: one build per SM per
        // machine lifetime, one more per restore.
        let sms = u64::from(gpu.config().num_sms);
        assert_eq!(gpu.work_counters().ready_rebuilds, sms);
        gpu.restore(&blob).expect("its own snapshot");
        gpu.run(1_000, &mut NullController);
        assert_eq!(gpu.work_counters().ready_rebuilds, 2 * sms);
    }

    #[test]
    fn snapshot_refuses_mid_epoch() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel("c"));
        gpu.run(500, &mut NullController);
        match gpu.snapshot() {
            Err(SnapshotError::NotEpochBoundary { cycle: 500, epoch_cycles: 1_000 }) => {}
            other => panic!("expected NotEpochBoundary, got {other:?}"),
        }
    }

    #[test]
    fn restore_refuses_config_mismatch() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel("c"));
        let blob = gpu.snapshot().expect("cycle 0 is a boundary");
        let mut other_cfg = GpuConfig::tiny();
        other_cfg.epoch_cycles = 2_000;
        let mut other = Gpu::new(other_cfg);
        match other.restore(&blob) {
            Err(SnapshotError::ConfigFingerprint { .. }) => {}
            other => panic!("expected ConfigFingerprint, got {other:?}"),
        }
        assert_eq!(other.cycle(), 0, "failed restore must leave the machine untouched");
    }

    #[test]
    fn restore_compat_accepts_different_fault_plan_and_rebases_cursor() {
        // Source: clean machine, run to 5k, snapshot.
        let cfg = GpuConfig::tiny();
        let mut src = Gpu::new(cfg.clone());
        src.launch(compute_kernel("c"));
        src.run(5_000, &mut NullController);
        let blob = src.snapshot().expect("cycle 5000 is an epoch boundary");

        // Receiver: same class, different fault plan — one fault strictly in
        // the past (must be treated as consumed, not re-fired), one in the
        // future (must still fire).
        let mut dst_cfg = cfg.clone();
        dst_cfg.faults =
            FaultPlan::one(2_000, FaultKind::DeviceLoss).with(9_000, FaultKind::DeviceLoss);
        let mut dst = Gpu::new(dst_cfg);
        dst.launch(compute_kernel("c"));
        match dst.restore(&blob) {
            Err(SnapshotError::ConfigFingerprint { .. }) => {}
            other => panic!("full restore must refuse a fault-plan mismatch, got {other:?}"),
        }
        dst.restore_compat(&blob).expect("same migration class");
        assert_eq!(dst.cycle(), 5_000);
        // The past fault is consumed: stepping does not fire it...
        dst.run(2_000, &mut NullController);
        assert_eq!(dst.cycle(), 7_000);
        // ...but the future one still does.
        let err = dst.try_run(5_000, &mut NullController).expect_err("armed fault must fire");
        assert!(matches!(err, SimError::DeviceLost(_)), "got {err}");
        assert_eq!(dst.cycle(), 9_000);
    }

    #[test]
    fn compat_fingerprint_erases_faults_but_not_geometry() {
        let clean = GpuConfig::tiny();
        let mut faulty = clean.clone();
        faulty.faults = FaultPlan::one(100, FaultKind::DeviceWedge);
        assert_ne!(clean.fingerprint(), faulty.fingerprint());
        assert_eq!(clean.compat_fingerprint(), faulty.compat_fingerprint());
        let mut bigger = clean.clone();
        bigger.num_sms = 4;
        assert_ne!(clean.compat_fingerprint(), bigger.compat_fingerprint());
    }

    #[test]
    fn blob_bytes_round_trip_and_detect_corruption() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel("c"));
        gpu.run(1_000, &mut NullController);
        let blob = gpu.snapshot().expect("boundary");
        let bytes = blob.to_bytes();
        let parsed = SnapshotBlob::from_bytes(bytes).expect("round trip");
        assert_eq!(parsed, blob);
        assert_eq!(parsed.to_bytes().as_ptr(), bytes.as_ptr(), "parsing borrows its input");
        assert!(matches!(SnapshotBlob::from_bytes(b"nope"), Err(SnapshotError::BadMagic)));
        assert!(SnapshotBlob::from_bytes(&bytes[..bytes.len() - 3]).is_err());

        // The header parse keeps the errors the decoded framing gave.
        let parse = |b: &[u8]| SnapshotBlob::from_bytes(b).map(|_| ());
        let eof = Err(SnapshotError::Corrupt(SnapError::UnexpectedEof));
        for cut in 0..40 {
            let want =
                if cut < SNAPSHOT_MAGIC.len() { Err(SnapshotError::BadMagic) } else { eof.clone() };
            assert_eq!(parse(&bytes[..cut]), want, "cut at byte {cut}");
        }
        assert_eq!(parse(&bytes[..bytes.len() - 1]), eof, "last byte removed");
        let mut longer = bytes.to_vec();
        longer.push(0);
        let trailing = SnapError::Invalid("trailing bytes after value");
        assert_eq!(parse(&longer), Err(SnapshotError::Corrupt(trailing)), "one byte appended");
        let mut bombed = bytes.to_vec();
        bombed[BLOB_HEADER_BYTES - 8..BLOB_HEADER_BYTES].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(parse(&bombed), eof, "payload length u64::MAX");

        // A warmed paper-scale trio is written into one buffer that never
        // regrows, and `into_bytes` hands that buffer over.
        let cfg = GpuConfig::paper_table1();
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch(compute_kernel("a"));
        gpu.launch(memory_kernel("b"));
        gpu.launch(compute_kernel("c").with_seed(7));
        gpu.set_sharing_mode(SharingMode::Smk);
        gpu.run(3 * cfg.epoch_cycles, &mut NullController);
        let blob = gpu.snapshot().expect("boundary");
        let shown = blob.to_bytes().as_ptr();
        let owned = blob.into_bytes();
        assert_eq!(owned.as_ptr(), shown, "into_bytes hands over the snapshot's buffer");
        assert_eq!(owned.capacity(), BLOB_HEADER_BYTES + gpu.payload_size_hint(), "no regrowth");
    }

    #[test]
    fn failure_state_is_snapshot_legal() {
        // The watchdog trips at a multiple of its window; with the window a
        // multiple of the epoch length (the harness convention), the failing
        // machine sits on an epoch boundary and can be snapshotted for
        // offline inspection.
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog_window = 2_000;
        cfg.faults = FaultPlan::one(3_000, FaultKind::StarveQuota);
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch(compute_kernel("victim"));
        let err = gpu.try_run(50_000, &mut NullController).expect_err("must trip");
        assert!(matches!(err, SimError::Watchdog(_)));
        let blob = gpu.snapshot().expect("trip cycle is an epoch boundary");
        let mut inspect = Gpu::new(cfg);
        inspect.restore(&blob).expect("restore for inspection");
        assert_eq!(inspect.cycle(), gpu.cycle());
        let report = inspect.health_report();
        assert!(report.kernels[0].quota_starved());
    }

    #[test]
    fn compat_restore_thaws_fault_effects_but_full_restore_keeps_them() {
        // A wedge is silent: schedulers freeze long before the watchdog can
        // classify the device, so a snapshot taken in that window carries
        // the frozen state. Migrating the blob onto healthy silicon must
        // thaw it (the sickness belongs to the machine, not the workload);
        // resuming the same machine must keep it, watchdog trip included.
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog_window = 2_000;
        cfg.faults = FaultPlan::one(500, FaultKind::DeviceWedge);
        let mut src = Gpu::new(cfg.clone());
        src.launch(compute_kernel("c"));
        src.try_run(1_000, &mut NullController).expect("watchdog has not tripped yet");
        let blob = src.snapshot().expect("cycle 1000 is an epoch boundary");

        // Same machine (same fault plan): the frozen schedulers survive the
        // full restore and the watchdog classifies the wedge on schedule.
        let mut same = Gpu::new(cfg.clone());
        same.launch(compute_kernel("c"));
        same.restore(&blob).expect("identical fingerprint");
        let err = same.try_run(50_000, &mut NullController).expect_err("still wedged");
        assert!(matches!(err, SimError::Watchdog(_)), "got {err}");

        // Healthy spare of the same class: the thawed workload resumes and
        // completes instead of wedging the receiver.
        let mut clean_cfg = GpuConfig::tiny();
        clean_cfg.health.watchdog_window = 2_000;
        let mut spare = Gpu::new(clean_cfg);
        spare.launch(compute_kernel("c"));
        spare.restore_compat(&blob).expect("same migration class");
        spare.try_run(200_000, &mut NullController).expect("healthy silicon must not wedge");
        assert!(
            spare.stats().kernel(KernelId::new(0)).launches_completed >= 1,
            "the migrated kernel finishes on the spare"
        );
    }

    #[test]
    fn health_report_on_demand_reflects_residency() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.launch(compute_kernel("c"));
        gpu.run(5_000, &mut NullController);
        let report = gpu.health_report();
        assert_eq!(report.cycle, 5_000);
        assert_eq!(report.kernels.len(), 1);
        assert_eq!(report.sms.len(), 2);
        assert!(report.kernels[0].resident_tbs > 0);
        assert!(report.total_issued > 0);
        assert!(report.sms.iter().any(|s| s.warps.total() > 0));
    }
}
