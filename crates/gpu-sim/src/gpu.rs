//! The top-level GPU: owns SMs, memory system, TB scheduler, and the
//! epoch-driven controller hook.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::config::GpuConfig;
use crate::health::{
    AuditKind, AuditViolation, FaultKind, FaultPlan, HealthReport, KernelHealth, SimError, SmHealth,
};
use crate::kernel::KernelDesc;
use crate::memsys::MemSystem;
use crate::observe::{
    CounterEntry, CounterKind, CounterScope, EventRing, TraceEvent, TraceEventKind,
};
use crate::preempt::PreemptStats;
use crate::sm::{QuotaCarry, Sm, SmKernelCounters};
use crate::snap::{Snap, SnapError, SnapReader};
use crate::stats::{EpochSnapshot, GpuStats, KernelStats};
use crate::tb_sched::{KernelRuntime, SharingMode, TbScheduler};
use crate::telemetry::WorkCounters;
use crate::types::{checked_sum, per_kernel, Cycle, KernelId, PerKernel, SmId};

/// Cycles between TB-scheduler service passes (dispatch / preemption checks).
/// A power of two, so the run loop's test for a service point and
/// `jump_target`'s next one compile to masks.
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
    /// The wake column: `due[i]` is `sms[i].wake_at()`, kept beside the SMs
    /// so the per-cycle loop reads one contiguous row instead of a cache line
    /// per SM. Derived state: never encoded, rebuilt at every run's entry,
    /// and written only where an SM's sleep can change (DESIGN.md §3.1).
    due: Vec<Cycle>,
    mem: MemSystem,
    kernels: Vec<KernelRuntime>,
    tb_sched: TbScheduler,
    epoch_snapshot: EpochSnapshot,
    last_totals: PerKernel<u64>,
    last_epoch_cycle: Cycle,
    epoch_index: u64,
    /// The injected-fault schedule, in cycle order
    /// ([`Gpu::set_fault_plan`]); `fault_cursor` indexes its first fault
    /// still to fire.
    faults: FaultPlan,
    fault_cursor: usize,
    ff_skipped: Cycle,
    trace_on: bool,
    events: EventRing,
    /// Whether the last closed epoch issued nothing while kernels were
    /// launched: the watchdog's memory of the epoch before the closing one,
    /// and the state behind the `IdleStart` / `IdleEnd` events.
    last_epoch_idle: bool,
    // Host-work counts; deterministic, but they describe how this process
    // stepped the machine, not the machine, so they stay out of snapshots,
    // digests and the counter registry.
    work: WorkCounters,
}

impl Gpu {
    /// Builds a GPU from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        let sms = (0..cfg.num_sms as usize).map(|i| Sm::new(SmId::new(i), &cfg)).collect();
        Gpu {
            due: vec![0; cfg.num_sms as usize],
            sms,
            mem: MemSystem::new(cfg.mem.clone()),
            kernels: Vec::new(),
            tb_sched: TbScheduler::new(cfg.num_sms as usize),
            epoch_snapshot: EpochSnapshot::empty(),
            last_totals: per_kernel(|_| 0),
            last_epoch_cycle: 0,
            epoch_index: 0,
            faults: FaultPlan::none(),
            fault_cursor: 0,
            ff_skipped: 0,
            trace_on: cfg.trace.is_on(),
            events: cfg.trace.ring(),
            last_epoch_idle: false,
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
        self.tb_sched.invalidate();
        kid
    }

    /// Installs `plan` as this machine's injected-fault schedule, replacing
    /// the one it had ([`Gpu::restore`] replaces it too, with the blob's).
    /// Every fault scheduled before the current cycle counts as consumed;
    /// the rest fire on their cycle. Thaws every SM: a wedge belongs to the
    /// sick device a plan describes, not to the workload, so a machine
    /// restored from a wedged device's blob and given the receiver's plan
    /// runs on healthy silicon (DESIGN.md §16.1). For the same reason it
    /// forgets an idle epoch the wedge left behind, which would otherwise
    /// have the watchdog trip the receiver at its first edge. Call it
    /// between runs: a run reads its first pending fault at entry, so a plan
    /// a controller installs mid-run does not move that run's fault edge.
    pub fn set_fault_plan(&mut self, mut plan: FaultPlan) {
        plan.faults.sort_by_key(|f| f.at_cycle);
        self.fault_cursor = plan.faults.iter().take_while(|f| f.at_cycle < self.cycle).count();
        self.faults = plan;
        self.last_epoch_idle = false;
        for sm in &mut self.sms {
            sm.clear_fault_effects();
        }
    }

    /// The installed fault schedule, in cycle order.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// The cycle of the first fault still to fire; `Cycle::MAX` when none is.
    fn next_fault(&self) -> Cycle {
        self.faults.faults.get(self.fault_cursor).map_or(Cycle::MAX, |f| f.at_cycle)
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
    /// [`SimError::Watchdog`] at an epoch edge that closes the second
    /// consecutive epoch in which no instruction issued machine-wide while
    /// kernels are launched; [`SimError::Audit`] when audit mode finds a
    /// violated invariant at an epoch edge. Both leave `self` on that edge
    /// with nothing of it done, so the state can be inspected or
    /// snapshotted, and running it on fails again at once.
    /// [`SimError::DeviceLost`] when a [`FaultKind::DeviceLoss`] fault
    /// fires, leaving `self` at that cycle.
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
        self.due.fill(0);
    }

    fn run_until(&mut self, end: Cycle, ctrl: &mut dyn Controller) -> Result<(), SimError> {
        // The periodic edges are cycles: each starts at the first multiple
        // of its period at or after the entry cycle and moves one period on
        // when reached. The clock never passes an epoch (`jump_target` clamps
        // to it), so an executed cycle compares where it would otherwise
        // divide by a runtime period (DESIGN.md §3.1). The pending fault is
        // an edge too, read at entry and again after every fault applied.
        // A sample point is no edge: a jump may pass it, the sleeping SMs
        // count it when they wake (`Sm::catch_up`), and the loop derives the
        // next one again after the jump.
        let mut next_epoch = self.cycle.next_multiple_of(self.cfg.epoch_cycles);
        let sample_interval = self.cfg.sample_interval();
        let mut next_sample = self.cycle.next_multiple_of(sample_interval);
        let mut next_fault = self.next_fault();
        self.due.clear();
        self.due.extend(self.sms.iter().map(Sm::wake_at));
        // With fast-forward off no SM ever sleeps: every SM runs its full
        // gather on every cycle, which is what makes that mode an oracle
        // for this one (DESIGN.md §3.1).
        let may_sleep = self.cfg.fast_forward;
        let num_sms = self.sms.len() as u64;
        while self.cycle < end {
            let now = self.cycle;
            if now >= next_fault {
                // A wedge freezes every SM's schedulers.
                self.wake_sms(now);
                self.apply_faults(now)?;
                next_fault = self.next_fault();
            }
            if now == next_epoch {
                next_epoch += self.cfg.epoch_cycles;
                // The health verdict, epoch accounting and the controller
                // read every counter, and the controller writes quotas; a
                // snapshot taken in there sees no sleep state.
                self.wake_sms(now);
                self.judge_epoch(now)?;
                self.record(now, TraceEventKind::EpochBoundary { epoch: self.epoch_index });
                self.finish_epoch(now);
                ctrl.on_epoch(self, self.epoch_index);
                self.epoch_index += 1;
                for sm in &mut self.sms {
                    sm.reset_idle_sampling();
                }
                self.service(now);
            } else if now.is_multiple_of(DISPATCH_INTERVAL) {
                self.service(now);
            }
            // The wake column against the sleep it mirrors. The dev profile
            // keeps debug assertions on, so every tier-1 simulation runs this.
            #[cfg(debug_assertions)]
            for (sm, &due) in self.sms.iter().zip(&self.due) {
                debug_assert_eq!(due, sm.wake_at(), "{} wake column at cycle {now}", sm.id());
            }
            // Step every SM that is due, in SM-index order; each serves its
            // own L1 misses as its warps issue (DESIGN.md §13), and at a
            // sample point takes its idle-warp sample right after its tick;
            // one that goes to sleep keeps `next_sample`, the first point it
            // has not counted, for its wake to replay from. A sleeping SM
            // costs one compare in the wake column; an SM that issued stays
            // awake (due at 0), so `horizon` ends above `now` only when the
            // whole machine is asleep. Only a tick moves residency outside a
            // TB-scheduler pass, so the ticked SMs' flags are the scheduler's
            // whole verdict on them.
            let sampling = now == next_sample;
            if sampling {
                next_sample += sample_interval;
            }
            let mut horizon = Cycle::MAX;
            let mut ran = 0;
            let mut moved = false;
            for (sm, due) in self.sms.iter_mut().zip(&mut self.due) {
                if *due <= now {
                    ran += 1;
                    let issued = sm.tick(now, &mut self.mem);
                    if sampling {
                        sm.sample_idle_warps(now);
                    }
                    if !issued && may_sleep {
                        sm.sleep_from(now + 1, next_sample);
                    }
                    moved |= sm.residency_moved();
                    *due = sm.wake_at();
                }
                horizon = horizon.min(*due);
            }
            if moved {
                self.tb_sched.invalidate();
            }
            self.work.sm_ticks_run += ran;
            self.work.sm_ticks_slept += num_sms - ran;
            self.cycle += 1;
            if horizon > self.cycle {
                let edge = end.min(next_epoch).min(next_fault);
                let target = self.jump_target(horizon, edge);
                let skipped = target - self.cycle;
                self.ff_skipped += skipped;
                self.work.sm_ticks_slept += skipped * num_sms;
                self.cycle = target;
                if next_sample < target {
                    next_sample = target.next_multiple_of(sample_interval);
                }
            }
        }
        Ok(())
    }

    /// How far the clock may move from `self.cycle` when every SM sleeps
    /// until `horizon` or later: nothing observable happens in between, and
    /// the SMs account for the jumped cycles themselves when they wake.
    ///
    /// `horizon` is clamped so that every externally observable event still
    /// fires on its exact cycle. `edge` is the nearest of the run loop's
    /// tracked edges, each at or after `self.cycle`: the end of the run, the
    /// next epoch boundary and the first still-pending fault. An idle-warp
    /// sample point is none: the SMs count the ones they slept through when
    /// they wake. Clamped here is the next `DISPATCH_INTERVAL`
    /// service point whenever the TB scheduler is not settled
    /// ([`TbScheduler::settled`]: an input changed since its last pass). The
    /// memory system contributes no horizon: transaction completions are
    /// computed eagerly at access time and carried by warp scoreboards (see
    /// [`MemSystem::serve`]). None of the clamps lies behind `self.cycle`; a
    /// result equal to it means "simulate the very next cycle".
    ///
    /// Kept out of line, like [`Gpu::service`]: each runs once in several
    /// cycles, and inlined they (and the TB scheduler's passes inside them)
    /// sit in the middle of `run_until`'s per-cycle loop, where every edit
    /// to the TB scheduler moves the loop's code (5% on `latency_sparse`).
    #[inline(never)]
    fn jump_target(&self, horizon: Cycle, edge: Cycle) -> Cycle {
        let target = horizon.min(edge);
        let dispatch = self.cycle.next_multiple_of(DISPATCH_INTERVAL);
        if target > dispatch && !self.tb_sched.settled() {
            return dispatch;
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
        while self.next_fault() <= now {
            let fault = self.faults.faults[self.fault_cursor];
            self.fault_cursor += 1;
            self.record(now, TraceEventKind::FaultInjected { fault: fault.kind });
            match fault.kind {
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

    /// The health layer's verdict on the epoch closing at `now`, the first
    /// thing its edge does: nothing of the edge has happened and no SM has
    /// stepped `now`, so a machine stopped here is an epoch-boundary state
    /// like any other, and run on it reaches the same verdict again.
    ///
    /// The watchdog trips when the closing epoch and the one before it
    /// issued nothing while kernels are launched. Every op has at least one
    /// lane, so thread instructions stand still exactly when no warp
    /// issues; the verdict reads only machine state, so it does not depend
    /// on how the run was split into calls.
    fn judge_epoch(&self, now: Cycle) -> Result<(), SimError> {
        let health = self.cfg.health;
        let totals = self.kernel_totals();
        if health.watchdog
            && self.last_epoch_idle
            && !self.kernels.is_empty()
            && totals == self.last_totals
        {
            let mut report = self.health_report();
            report.window = 2 * self.cfg.epoch_cycles;
            report.last_progress_cycle = now.saturating_sub(report.window);
            return Err(SimError::Watchdog(Box::new(report)));
        }
        if health.audit {
            self.audit_epoch(now, &totals)?;
        }
        Ok(())
    }

    /// Checks machine-wide and per-SM invariants, the closing epoch's
    /// issue bound from the clock and totals it ends with.
    fn audit_epoch(&self, now: Cycle, totals: &PerKernel<u64>) -> Result<(), SimError> {
        let bound = (now - self.last_epoch_cycle)
            * u64::from(self.cfg.num_sms)
            * u64::from(self.cfg.warp_schedulers)
            * u64::from(crate::WARP_SIZE);
        let issued: u64 = totals.iter().zip(&self.last_totals).map(|(t, last)| t - last).sum();
        if issued > bound {
            return Err(SimError::Audit(AuditViolation {
                cycle: now,
                sm: None,
                kind: AuditKind::IssueBound,
                detail: format!(
                    "epoch {} retired {issued} thread insts, hardware bound is {bound}",
                    self.epoch_index
                ),
            }));
        }
        if !self.mem.counts_behind(&kernel_sums(&self.sms, |c| c.warp_insts)) {
            return Err(SimError::Audit(AuditViolation {
                cycle: now,
                sm: None,
                kind: AuditKind::IssueBound,
                detail: "a memory traffic count is past what the issued instructions reach"
                    .to_string(),
            }));
        }
        for sm in &self.sms {
            if let Err((kind, detail)) = sm.audit_invariants(now) {
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
            window: 0,
            last_progress_cycle: now,
            total_issued: self.total_issued(),
            kernels,
            sms,
            events: self.recent_events(HEALTH_REPORT_EVENTS),
        }
    }

    /// The TB scheduler's pass at a dispatch point; out of line for the
    /// reason [`Gpu::jump_target`] gives. With fast-forward on, a pass is
    /// skipped while the scheduler is settled; naive stepping runs every
    /// one, the oracle for that skip (DESIGN.md §3.1). Dev builds run the
    /// skipped pass anyway, uncounted, and check that it did nothing.
    #[inline(never)]
    fn service(&mut self, now: Cycle) {
        let settled = self.cfg.fast_forward && self.tb_sched.settled();
        if settled && !cfg!(debug_assertions) {
            return;
        }
        let acted = self.tb_sched.service(
            now,
            &mut self.sms,
            &mut self.kernels,
            &mut self.mem,
            &self.cfg.preempt,
        );
        if settled {
            debug_assert!(!acted, "a settled TB scheduler acted at cycle {now}");
            return;
        }
        self.work.tb_passes += 1;
        // `dispatch` and `start_preempt` end the sleep of the SM they act on.
        for (due, sm) in self.due.iter_mut().zip(&self.sms) {
            *due = sm.wake_at();
        }
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
        // An epoch that retired nothing while kernels were launched marks
        // the machine idle, for the watchdog's next verdict; the first
        // productive epoch after that ends the idle spell. Both transitions
        // land on epoch boundaries, which fast-forward never skips, so
        // traced runs stay bit-identical across the fast-forward toggle.
        if now > 0 && !self.kernels.is_empty() {
            let idle = self.epoch_snapshot.thread_insts.iter().sum::<u64>() == 0;
            if idle != self.last_epoch_idle {
                let kind = if idle { TraceEventKind::IdleStart } else { TraceEventKind::IdleEnd };
                self.record(now, kind);
                self.last_epoch_idle = idle;
            }
        }
    }

    fn kernel_totals(&self) -> PerKernel<u64> {
        kernel_sums(&self.sms, |c| c.thread_insts).map(|t| t.unwrap_or(u64::MAX))
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

    /// How many per-SM cycle steps this machine's run loop executed and how
    /// many it skipped because the SM was asleep, what its SMs' wake queues
    /// and quota gates did, and how often its TB scheduler ran a pass, since
    /// construction.
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
        self.tb_sched.invalidate();
        &mut self.sms[id.index()]
    }

    /// Control-plane view of one SM, scoped to the quota/gating knobs a
    /// [`Controller`] is meant to turn. Policy code gets this view and no
    /// `&mut Sm`, so the surface a controller can mutate stays explicit and
    /// small. Controllers run only at epoch boundaries, before any SM
    /// ticks that cycle.
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

    /// Captures the complete mutable state of the machine into a versioned
    /// [`SnapshotBlob`].
    ///
    /// Snapshots are only legal at **epoch boundaries** (`cycle` a multiple
    /// of `epoch_cycles`, including cycle 0) — the one point where no
    /// intra-epoch loop state is implicit in the call stack, so a restored
    /// machine continues bit-identically to one that never stopped. The
    /// watchdog and the audits stop a run on such a cycle, before its edge,
    /// so failure states are snapshot-legal too.
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
        let config_fingerprint = self.config_fingerprint();
        // The header goes first with a zero length word, patched in below.
        let mut out = Vec::with_capacity(BLOB_HEADER_BYTES + self.payload_size_hint());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        SNAPSHOT_SCHEMA_VERSION.encode(&mut out);
        config_fingerprint.encode(&mut out);
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
        self.faults.encode(&mut out);
        self.fault_cursor.encode(&mut out);
        self.ff_skipped.encode(&mut out);
        self.events.encode(&mut out);
        self.last_epoch_idle.encode(&mut out);
        let payload_len = (out.len() - BLOB_HEADER_BYTES) as u64;
        out[BLOB_HEADER_BYTES - 8..BLOB_HEADER_BYTES].copy_from_slice(&payload_len.to_le_bytes());
        Ok(SnapshotBlob {
            version: SNAPSHOT_SCHEMA_VERSION,
            config_fingerprint,
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
            + sms * crate::config::MAX_WARPS as usize * WARP_ROW_BYTES
            + FIXED_BYTES
    }

    /// Replaces this machine's state with a previously captured snapshot,
    /// its fault plan and any wedge it carries included: resuming the same
    /// machine reproduces the original run bit for bit, watchdog trip
    /// included. A migration onto another device of the same configuration
    /// follows with [`Gpu::set_fault_plan`] and the receiver's plan, which
    /// thaws the wedge (DESIGN.md §16.1).
    ///
    /// The receiver must have been built from the **same configuration**
    /// that produced the blob (checked via the fingerprint); kernel launch
    /// state is part of the snapshot, so restoring into a freshly
    /// constructed `Gpu::new(cfg)` is the intended use. Decodes fully into
    /// locals before assigning, so on any error `self` is left untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemaVersion`] on a version mismatch,
    /// [`SnapshotError::ConfigFingerprint`] when the blob was taken under a
    /// different configuration, and [`SnapshotError::Corrupt`] when the
    /// payload fails to decode or does not fit the machine.
    pub fn restore(&mut self, blob: &SnapshotBlob<'_>) -> Result<(), SnapshotError> {
        if blob.version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaVersion {
                found: blob.version,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        let expected = self.config_fingerprint();
        if blob.config_fingerprint != expected {
            return Err(SnapshotError::ConfigFingerprint {
                found: blob.config_fingerprint,
                expected,
            });
        }
        let mut r = SnapReader::new(&blob.bytes[BLOB_HEADER_BYTES..]);
        let cycle = Cycle::decode(&mut r)?;
        let mut sms = Vec::<Sm>::decode(&mut r)?;
        let mut mem = MemSystem::decode(&mut r)?;
        let kernels = Vec::<KernelRuntime>::decode(&mut r)?;
        let tb_sched = TbScheduler::decode(&mut r)?;
        let epoch_snapshot = EpochSnapshot::decode(&mut r)?;
        let last_totals = PerKernel::<u64>::decode(&mut r)?;
        let last_epoch_cycle = Cycle::decode(&mut r)?;
        let epoch_index = u64::decode(&mut r)?;
        let faults = FaultPlan::decode(&mut r)?;
        let fault_cursor = usize::decode(&mut r)?;
        let ff_skipped = Cycle::decode(&mut r)?;
        let mut events = EventRing::decode(&mut r)?;
        let last_epoch_idle = bool::decode(&mut r)?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "trailing bytes in snapshot payload",
            )));
        }
        // A blob holds state, not configuration: what the configuration
        // fixes is the receiver's, which the fingerprint showed was built
        // from the same one. The decoded parts `adopt` it from the receiver's
        // own, every SM first taking the kernel list's descriptions as
        // `launch` gives them. What is checked is decoded state, each where
        // issue, barrier arrival, TB drain or the memory path would index,
        // add or subtract with it unchecked (DESIGN.md §11.1).
        let fits = kernels.len() <= crate::MAX_KERNELS
            && kernels.iter().all(|k| k.desc.check().is_ok())
            && sms.len() == self.sms.len()
            && sms.iter_mut().zip(&self.sms).all(|(sm, built)| {
                for (k, runtime) in kernels.iter().enumerate() {
                    sm.set_kernel_desc(KernelId::new(k), runtime.desc.clone());
                }
                sm.adopt(built)
            })
            && sms.iter().all(|sm| {
                sm.seqs_behind(cycle)
                    && sm.tbs_fit()
                    && sm.occupancy_fits()
                    && sm.counts_behind(cycle)
            })
            && kernels.iter().all(|k| k.seqs_behind(cycle))
            && mem.adopt(&self.mem)
            && mem.counts_behind(&kernel_sums(&sms, |c| c.warp_insts))
            && events.adopt(&self.events)
            && tb_sched.fits(&self.tb_sched);
        if !fits {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "machine state that does not fit the configuration",
            )));
        }
        // The run loop walks the plan in cycle order, the next epoch's
        // accounting subtracts the last epoch's clock and per-kernel totals
        // from the current ones, and a snapshot is only taken on the epoch
        // grid: a plan out of order, a clock off the grid, or a last epoch
        // past the clock or above what the SMs retired, is a corrupt blob.
        if !faults.faults.is_sorted_by_key(|f| f.at_cycle) {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "fault plan out of cycle order",
            )));
        }
        let retired = kernel_sums(&sms, |c| c.thread_insts);
        let behind = cycle.is_multiple_of(self.cfg.epoch_cycles)
            && last_epoch_cycle <= cycle
            && last_totals
                .iter()
                .enumerate()
                .all(|(k, &last)| retired[k].is_some_and(|t| last <= t));
        if !behind {
            return Err(SnapshotError::Corrupt(SnapError::Invalid(
                "clock off the epoch grid or last epoch ahead of it",
            )));
        }
        self.cycle = cycle;
        // The outgoing SMs take their counts with them.
        self.work = self.work_counters();
        self.sms = sms;
        self.mem = mem;
        self.kernels = kernels;
        self.tb_sched = tb_sched;
        self.epoch_snapshot = epoch_snapshot;
        self.last_totals = last_totals;
        self.last_epoch_cycle = last_epoch_cycle;
        self.epoch_index = epoch_index;
        self.faults = faults;
        self.fault_cursor = fault_cursor;
        self.ff_skipped = ff_skipped;
        self.events = events;
        self.last_epoch_idle = last_epoch_idle;
        Ok(())
    }
}

/// Each kernel's `count` summed over `sms`; `None` where a sum overflows.
fn kernel_sums(sms: &[Sm], count: impl Fn(SmKernelCounters) -> u64) -> PerKernel<Option<u64>> {
    per_kernel(|k| checked_sum(sms.iter().map(|sm| count(sm.counters(KernelId::new(k))))))
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
/// blobs from any other version. A blob holds state only: what the
/// configuration fixes (each SM's geometry, the caches' shape, the queues'
/// rates, the recorders' capacity, the sampling interval) and the SMs'
/// copies of the kernel list's descriptions are the receiver's, taken on
/// restore (DESIGN.md §11.1).
/// Version 15 keeps the last-epoch idle flag whether or not tracing is on
/// (the watchdog reads it); a version-14 blob taken untraced holds `false`
/// for an idle epoch.
/// The run loop's [`WorkCounters`] are deliberately absent: they count how
/// this process stepped the machine, not the machine.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 15;

/// Leading magic of a serialized [`SnapshotBlob`].
const SNAPSHOT_MAGIC: [u8; 4] = *b"FGQS";

/// Wire bytes before a blob's payload: magic, version, fingerprint, length.
const BLOB_HEADER_BYTES: usize = 24;

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
/// payload length + payload) in one buffer, which
/// [`SnapshotBlob::to_bytes`] and [`SnapshotBlob::from_bytes`] borrow and
/// [`SnapshotBlob::into_bytes`] hands over.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob<'a> {
    version: u32,
    config_fingerprint: u64,
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

    /// Size of the encoded state payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.bytes.len() - BLOB_HEADER_BYTES
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
        let payload_len = usize::decode(&mut r)?;
        r.take(payload_len)?;
        if !r.is_exhausted() {
            return Err(SnapError::Invalid("trailing bytes after value").into());
        }
        Ok(Self { version, config_fingerprint, bytes: Cow::Borrowed(bytes) })
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

    /// A Rollover pair on every SM: QoS kernel 0 carries unused quota and
    /// goes inert once its goal is met; best-effort kernel 1 is refilled
    /// from then on (§3.4.1).
    struct Rollover;

    impl Controller for Rollover {
        fn on_epoch(&mut self, gpu: &mut Gpu, _epoch: u64) {
            let (qos, best_effort) = (KernelId::new(0), KernelId::new(1));
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                let mut quota = gpu.sm_quota(sm);
                quota.set_qos_kernel(qos, true);
                quota.set_gated(qos, true);
                quota.set_gated(best_effort, true);
                quota.set_epoch_quota(qos, 20_000, crate::sm::QuotaCarry::Full, 0);
                quota.set_epoch_quota(best_effort, 2_000, crate::sm::QuotaCarry::Reset, 2_000);
            }
        }
    }

    /// A run cut into chunks ends where one straight run does. Every chunk
    /// re-derives the run loop's edges and wake column at its entry, and the
    /// lengths line up with no dispatch point (8), idle-warp sample (100) or
    /// epoch (1 000) of the tiny machine.
    #[test]
    fn run_is_resumable() {
        const CHUNKS: [Cycle; 4] = [1, 7, 333, 999];
        const CYCLES: Cycle = 6_000;
        for fast_forward in [true, false] {
            let build = || {
                let mut cfg = GpuConfig::tiny();
                cfg.fast_forward = fast_forward;
                let mut gpu = Gpu::new(cfg);
                let a = gpu.launch(compute_kernel("qos"));
                let b = gpu.launch(memory_kernel("best-effort"));
                gpu.set_sharing_mode(SharingMode::Smk);
                for sm in gpu.sm_ids().collect::<Vec<_>>() {
                    gpu.set_tb_target(sm, a, 4);
                    gpu.set_tb_target(sm, b, 4);
                }
                gpu
            };
            let mut straight = build();
            straight.run(CYCLES, &mut Rollover);
            let mut chunked = build();
            for &n in CHUNKS.iter().cycle() {
                let left = CYCLES - chunked.cycle();
                if left == 0 {
                    break;
                }
                chunked.run(n.min(left), &mut Rollover);
            }
            assert_eq!(chunked.cycle(), CYCLES);
            // How many cycles the clock jumped is how the host stepped: a
            // chunk's first cycle always executes.
            let counters = |g: &Gpu| {
                let mut entries = g.counter_registry();
                entries.retain(|e| e.name != "ff_skipped_cycles");
                entries
            };
            assert_eq!(counters(&chunked), counters(&straight), "fast_forward {fast_forward}");
            assert_eq!(chunked.stats(), straight.stats(), "fast_forward {fast_forward}");
            for k in straight.kernel_ids() {
                assert!(straight.stats().kernel(k).thread_insts > 0, "{k:?} made no progress");
            }
            let total = |name: &str| {
                counters(&straight).iter().filter(|e| e.name == name).map(|e| e.value).sum::<i64>()
            };
            assert!(total("quota_exhaustions") > 0, "the QoS goal never closed the gate");
            assert!(total("quota_blocked_cycles") > 0, "no warp waited at the gate");
            if fast_forward {
                assert!(straight.work_counters().sm_ticks_slept > 0, "no SM slept");
            }
        }
    }

    /// Every SM's idle-warp census: samples counted, each kernel's mean idle
    /// warps (as bits) and its scoreboard-wait samples.
    type Census = Vec<(u64, PerKernel<u64>, PerKernel<u64>)>;

    fn census(gpu: &Gpu) -> Census {
        let read = |sm: &Sm| {
            let avg = per_kernel(|k| sm.idle_warp_avg(KernelId::new(k)).to_bits());
            let waits = per_kernel(|k| sm.scoreboard_wait_samples(KernelId::new(k)));
            (sm.idle_samples(), avg, waits)
        };
        gpu.sms.iter().map(read).collect()
    }

    /// Records the census the controller reads at each epoch edge, before
    /// handing the edge to `inner`.
    struct CensusProbe {
        inner: Box<dyn Controller>,
        seen: Vec<Census>,
    }

    impl Controller for CensusProbe {
        fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
            self.seen.push(census(gpu));
            self.inner.on_epoch(gpu, epoch);
        }
    }

    /// The machines of the census differential: a quota-gated SMK pair, the
    /// same pair wedged at cycle 2 345 (every SM frozen, asleep for good,
    /// its live warps still sampled), and a memory-bound pair sampled three
    /// times an epoch, an interval of 333 cycles that does not divide it.
    const CENSUS_CASES: [&str; 3] = ["gated", "wedged", "thirds"];

    /// Runs `case` for 7 012 cycles in three calls, each ending mid-epoch
    /// and off the sample grid, and returns the census at every epoch edge
    /// and after each call. `count_wake` arms the wake-cycle mutation.
    fn census_run(case: &str, fast_forward: bool, count_wake: bool) -> Vec<Census> {
        let mut cfg = GpuConfig::tiny();
        cfg.fast_forward = fast_forward;
        if case == "thirds" {
            cfg.samples_per_epoch = 3;
        }
        let mut gpu = Gpu::new(cfg);
        let (a, b) = if case == "thirds" {
            (gpu.launch(memory_kernel("m0")), gpu.launch(memory_kernel("m1").with_seed(5)))
        } else {
            (gpu.launch(compute_kernel("qos")), gpu.launch(memory_kernel("best-effort")))
        };
        gpu.set_sharing_mode(SharingMode::Smk);
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            gpu.set_tb_target(sm, a, 4);
            gpu.set_tb_target(sm, b, 4);
        }
        if case == "wedged" {
            gpu.set_fault_plan(FaultPlan::one(2_345, FaultKind::DeviceWedge));
        }
        if count_wake {
            gpu.sms.iter_mut().for_each(Sm::count_wake_cycle_for_test);
        }
        let inner: Box<dyn Controller> =
            if case == "gated" { Box::new(Rollover) } else { Box::new(NullController) };
        let mut probe = CensusProbe { inner, seen: Vec::new() };
        let mut after = Vec::new();
        for cycles in [2_777, 1_234, 3_001] {
            gpu.run(cycles, &mut probe);
            after.push(census(&gpu));
        }
        if fast_forward {
            assert!(gpu.ff_skipped > 0, "{case}: the clock never jumped");
        }
        probe.seen.extend(after);
        probe.seen
    }

    /// The idle-warp census a controller reads is the one naive stepping
    /// takes, although a sleeping SM is not sampled and the clock jumps
    /// over sample points: its points are counted when it wakes.
    #[test]
    fn census_matches_naive_stepping() {
        for case in CENSUS_CASES {
            let naive = census_run(case, false, false);
            assert!(naive.iter().flatten().any(|sm| sm.1.iter().any(|&avg| avg != 0)), "{case}");
            assert!(naive.iter().flatten().any(|sm| sm.2.iter().any(|&w| w != 0)), "{case}");
            assert_eq!(census_run(case, true, false), naive, "{case}");
        }
    }

    /// The off-by-one the wake replay must not have, kept in-tree: a replay
    /// that also counts the wake cycle (`Sm::replay_counts_wake`) counts a
    /// point the waking tick counts again, and
    /// `census_matches_naive_stepping` must tell it apart on every machine.
    #[test]
    fn wake_cycle_replay_mutation_is_caught() {
        for case in CENSUS_CASES {
            assert_ne!(census_run(case, true, true), census_run(case, false, false), "{case}");
        }
    }

    use crate::health::{FaultKind, FaultPlan, FaultSpec, SimError};

    /// From epoch 3 (cycle 3 000 on the tiny machine) on, makes every kernel
    /// on every SM a gated QoS kernel with zero quota and zero refill: a
    /// machine-wide quota-starvation livelock, made through the control
    /// plane alone.
    struct Starver;

    impl Controller for Starver {
        fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
            if epoch < 3 {
                return;
            }
            let kernels: Vec<KernelId> = gpu.kernel_ids().collect();
            for sm in gpu.sm_ids().collect::<Vec<_>>() {
                let mut quota = gpu.sm_quota(sm);
                for &k in &kernels {
                    quota.set_qos_kernel(k, true);
                    quota.set_gated(k, true);
                    quota.set_epoch_quota(k, 0, crate::sm::QuotaCarry::Reset, 0);
                }
            }
        }
    }

    #[test]
    fn watchdog_stays_silent_while_progressing() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog = true;
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("c"));
        gpu.try_run(20_000, &mut NullController).expect("healthy run must not trip");
        assert_eq!(gpu.cycle(), 20_000);
    }

    #[test]
    fn watchdog_observation_does_not_perturb_results() {
        let run = |watchdog: bool| {
            let mut cfg = GpuConfig::tiny();
            cfg.health.watchdog = watchdog;
            let mut gpu = Gpu::new(cfg);
            let a = gpu.launch(compute_kernel("a"));
            let b = gpu.launch(memory_kernel("b"));
            gpu.set_sharing_mode(SharingMode::Smk);
            gpu.try_run(15_000, &mut NullController).expect("healthy");
            (gpu.stats().kernel(a).thread_insts, gpu.stats().kernel(b).thread_insts)
        };
        assert_eq!(run(false), run(true), "the watchdog is observation-only");
    }

    #[test]
    fn watchdog_trips_on_starved_quota_livelock_and_names_the_kernel() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog = true;
        let mut gpu = Gpu::new(cfg);
        gpu.launch(compute_kernel("victim"));
        gpu.launch(memory_kernel("other"));
        let err = gpu
            .try_run(50_000, &mut Starver)
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
        assert!(report.total_issued > 0, "progress happened before the starvation");
    }

    #[test]
    fn panic_fault_panics_inside_run() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.set_fault_plan(FaultPlan::one(1_000, FaultKind::Panic));
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
        let mut gpu = Gpu::new(GpuConfig::tiny());
        gpu.set_fault_plan(FaultPlan::one(2_500, FaultKind::DeviceLoss));
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
        cfg.health.watchdog = true;
        let mut gpu = Gpu::new(cfg);
        gpu.set_fault_plan(FaultPlan::one(3_000, FaultKind::DeviceWedge));
        gpu.launch(compute_kernel("victim"));
        let err = gpu
            .try_run(50_000, &mut NullController)
            .expect_err("a wedged device must trip the watchdog");
        assert_eq!(err.kind(), "watchdog");
        let SimError::Watchdog(report) = err else {
            panic!("expected a watchdog trip, got {err}");
        };
        // The wedge fires at 3 000, so the epochs closing at 4 000 and
        // 5 000 issue nothing, and the edge at 5 000 trips: two idle epochs,
        // not a cycle more.
        assert_eq!(
            (report.cycle, report.window, report.last_progress_cycle),
            (5_000, 2_000, 3_000)
        );
        assert_eq!(gpu.cycle(), 5_000, "the machine stops on the edge it judged");
        assert!(
            report.starved_kernels().count() == 0,
            "a wedged device is not a quota livelock; no kernel is quota-starved"
        );
        for sm in &report.sms {
            assert!(sm.warps.ready > 0, "ready warps that cannot issue mark a frozen scheduler");
        }
    }

    /// Runs `gpu` to `budget` in calls of `chunk` cycles, stopping at the
    /// first error.
    fn run_in_chunks(gpu: &mut Gpu, chunk: Cycle, budget: Cycle) -> Result<(), SimError> {
        while gpu.cycle() < budget {
            gpu.try_run(chunk.min(budget - gpu.cycle()), &mut NullController)?;
        }
        Ok(())
    }

    #[test]
    fn watchdog_trip_does_not_depend_on_how_the_run_is_split() {
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog = true;
        for (wedge, trip) in [(1_500, 4_000), (2_500, 5_000)] {
            let build = || {
                let mut gpu = Gpu::new(cfg.clone());
                gpu.set_fault_plan(FaultPlan::one(wedge, FaultKind::DeviceWedge));
                gpu.launch(compute_kernel("victim"));
                gpu
            };
            let mut straight = build();
            let err = run_in_chunks(&mut straight, 50_000, 50_000).expect_err("wedged");
            let SimError::Watchdog(report) = &err else { panic!("expected a trip, got {err}") };
            assert_eq!((straight.cycle(), report.cycle), (trip, trip), "wedge at {wedge}");
            for chunk in [1_000, 4_000, 6_000] {
                let mut chunked = build();
                let split = run_in_chunks(&mut chunked, chunk, 50_000).expect_err("wedged");
                assert_eq!(
                    (chunked.cycle(), &split),
                    (trip, &err),
                    "wedge at {wedge}, {chunk}-cycle chunks"
                );
            }
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

    /// Restores `blob` into a fresh machine of `cfg` and expects it to refuse
    /// it as corrupt and stay untouched.
    fn assert_refused_as_corrupt(cfg: &GpuConfig, blob: &SnapshotBlob<'_>, what: &str) {
        let mut fresh = Gpu::new(cfg.clone());
        match fresh.restore(blob) {
            Err(SnapshotError::Corrupt(SnapError::Invalid(_))) => {}
            other => panic!("{what} must be refused, got {other:?}"),
        }
        assert_eq!(fresh.cycle(), 0, "failed restore must leave the machine untouched");
    }

    /// A two-kernel SMK machine at its cycle-5000 epoch boundary.
    fn smk_pair_at_5000(cfg: &GpuConfig) -> Gpu {
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch(compute_kernel("a"));
        gpu.launch(memory_kernel("b"));
        gpu.set_sharing_mode(SharingMode::Smk);
        gpu.run(5_000, &mut NullController);
        gpu
    }

    #[test]
    fn restore_refuses_a_greedy_list_longer_than_the_schedulers() {
        // The gated gather walks one greedy pick per list entry and one
        // stride mask per scheduler.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(1)).add_greedy_pick_for_test();
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a greedy pick per scheduler and one more");
    }

    #[test]
    fn restore_refuses_a_warp_that_drew_more_memory_ops_than_cycles() {
        // A warp issues at most one memory op a cycle; address generation
        // multiplies the draw count unchecked.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(1)).set_first_seq_for_test(5_000);
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        Gpu::new(cfg.clone()).restore(&blob).expect("a draw a cycle is the ceiling");
        gpu.sm_mut(SmId::new(1)).set_first_seq_for_test(5_001);
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a warp's draw count past the clock");
    }

    #[test]
    fn restore_refuses_a_barrier_holding_every_live_warp() {
        // Arrival releases the barrier once every live warp is there, so a
        // count that reaches them (or retirements past the warp count,
        // which the live count subtracts) never occurs.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(0)).fill_first_barrier_for_test();
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a barrier holding every live warp");
    }

    #[test]
    fn restore_refuses_a_tb_claiming_a_warp_it_does_not_own() {
        // Barrier release and TB drain walk a TB's warp slots unchecked.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(0)).claim_foreign_warp_for_test();
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a TB's warp slot past the table");
    }

    #[test]
    fn restore_refuses_occupancy_other_than_the_resident_tbs_hold() {
        // TB drain subtracts a TB's threads from the count unchecked.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(1)).shrink_occupancy_for_test();
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "occupancy a warp short of the TBs'");
    }

    #[test]
    fn restore_refuses_an_issue_count_the_clock_does_not_reach() {
        // Issue adds to every tally unchecked.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.sm_mut(SmId::new(0)).fill_alu_tally_for_test();
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "an ALU tally past the thread instructions");
    }

    #[test]
    fn restore_refuses_memory_traffic_the_issued_instructions_do_not_reach() {
        // `serve` adds to every traffic count unchecked.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.mem.traffic_mut().l1_accesses[1] = u64::MAX;
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "more L1 accesses than a warp's lines per issue");
    }

    #[test]
    fn restore_refuses_tb_targets_for_fewer_sms_than_the_machine() {
        // An SMK pass reads a target row per SM.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.tb_sched = TbScheduler::new(cfg.num_sms as usize - 1);
        gpu.tb_sched.set_mode(SharingMode::Smk);
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a target row short of the SM count");
    }

    #[test]
    fn restore_refuses_more_kernels_than_launch_admits() {
        // A pass names every kernel by a `KernelId`, which stops at
        // `MAX_KERNELS`.
        let cfg = GpuConfig::tiny();
        let mut gpu = Gpu::new(cfg.clone());
        for i in 0..crate::MAX_KERNELS {
            gpu.launch(compute_kernel(&format!("k{i}")));
        }
        gpu.kernels.push(KernelRuntime::new(Arc::new(compute_kernel("extra"))));
        let blob = gpu.snapshot().expect("cycle 0 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a kernel past MAX_KERNELS");
    }

    #[test]
    fn restored_sms_share_the_kernel_lists_descriptions() {
        // A blob carries each description once, in the kernel list; every
        // SM of the restored machine holds that very `Arc`, as `launch`
        // gives it, and no description past the list.
        let cfg = GpuConfig::tiny();
        let blob = smk_pair_at_5000(&cfg).snapshot().expect("cycle 5000 is a boundary");
        let mut gpu = Gpu::new(cfg);
        gpu.restore(&blob).expect("its own configuration");
        for sm in &gpu.sms {
            for k in 0..crate::MAX_KERNELS {
                let listed = gpu.kernels.get(k).map(|r| &r.desc);
                match (sm.kernel_desc(k), listed) {
                    (Some(held), Some(listed)) => assert!(Arc::ptr_eq(held, listed), "kernel {k}"),
                    (held, listed) => assert!(held.is_none() && listed.is_none(), "kernel {k}"),
                }
            }
        }
    }

    /// Two SMK kernels whose TBs outlive the run, 3 + 1 TBs per SM, swapped
    /// to 1 + 3 by the controller at the epoch-2 boundary, when the
    /// scheduler has long settled: no drain can unsettle it, only the
    /// setter. Returns each SM's hosted TBs per kernel and saves at the end.
    fn retarget_run(fast_forward: bool, sticky_target: bool) -> Vec<(u32, u32, u64)> {
        struct Swap;
        impl Controller for Swap {
            fn on_epoch(&mut self, gpu: &mut Gpu, epoch: u64) {
                if epoch == 2 {
                    for sm in gpu.sm_ids().collect::<Vec<_>>() {
                        gpu.set_tb_target(sm, KernelId::new(0), 1);
                        gpu.set_tb_target(sm, KernelId::new(1), 3);
                    }
                }
            }
        }
        let mut cfg = GpuConfig::tiny();
        cfg.fast_forward = fast_forward;
        let mut gpu = Gpu::new(cfg);
        let endless = |name| {
            KernelDesc::builder(name)
                .threads_per_tb(256)
                .regs_per_thread(32)
                .grid_tbs(64)
                .iterations(100_000)
                .body(vec![Op::alu(2, 12)])
                .build()
        };
        let (a, b) = (gpu.launch(endless("a")), gpu.launch(endless("b")));
        gpu.set_sharing_mode(SharingMode::Smk);
        for sm in gpu.sm_ids().collect::<Vec<_>>() {
            gpu.set_tb_target(sm, a, 3);
            gpu.set_tb_target(sm, b, 1);
        }
        gpu.tb_sched.sticky_target = sticky_target;
        gpu.run(5_000, &mut Swap);
        let sms = gpu.sms();
        sms.iter()
            .map(|sm| (sm.hosted_tbs(a), sm.hosted_tbs(b), sm.preempt_stats().saves))
            .collect()
    }

    /// The missed invalidation the settled skip exists to rule out, kept
    /// in-tree: with `set_target` leaving the scheduler settled
    /// (`TbScheduler::sticky_target`), the dev-build no-op check at the next
    /// dispatch point must fire, and a release build must end the run with
    /// the old residency where naive stepping swapped it.
    #[test]
    fn sticky_target_mutation_is_caught() {
        let reference = retarget_run(false, false);
        assert!(reference.iter().all(|&(a, b, saves)| (a, b) == (1, 3) && saves == 2));
        assert_eq!(retarget_run(true, false), reference, "the settled skip is exact");
        let mutated = std::panic::catch_unwind(|| retarget_run(true, true));
        if cfg!(debug_assertions) {
            let why = mutated.expect_err("the dev-build no-op check did not fire");
            let why = why.downcast_ref::<String>().map_or("", String::as_str);
            assert!(why.starts_with("a settled TB scheduler acted"), "{why}");
        } else {
            assert_ne!(mutated.ok(), Some(reference), "the sticky target went unseen");
        }
    }

    #[test]
    fn restore_refuses_a_flight_recorder_cursor_past_its_events() {
        let mut cfg = GpuConfig::tiny();
        cfg.trace = crate::TraceLevel::Events;
        // One-warp TBs of one short op, a dispatch and a drain event each.
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch(
            KernelDesc::builder("short")
                .threads_per_tb(32)
                .regs_per_thread(16)
                .grid_tbs(4_096)
                .iterations(1)
                .body(vec![Op::alu(1, 1)])
                .build(),
        );
        gpu.run(5_000, &mut NullController);
        let bytes = gpu.snapshot().expect("cycle 5000 is a boundary").into_bytes();
        // A ring encodes as `start`, `dropped`, events (its capacity is the
        // configuration's); the machine's sits right before the final idle
        // flag, SM 0's inside its record.
        let machine = bytes.len() - 1 - crate::snap::encode_to_vec(&gpu.events).len();
        let sm_ring = crate::snap::encode_to_vec(gpu.sms[0].events());
        let cap = crate::observe::RING_CAPACITY;
        assert_eq!(gpu.sms[0].events().len(), cap as usize, "SM 0's ring wrapped");
        let sm0 = bytes.windows(sm_ring.len()).position(|w| w == sm_ring).expect("SM 0's ring");
        for ring in [machine, sm0] {
            let mut bad = bytes.clone();
            bad[ring..ring + 4].copy_from_slice(&(cap + 3).to_le_bytes());
            let blob = SnapshotBlob::from_bytes(&bad).expect("the header is intact");
            assert_refused_as_corrupt(&cfg, &blob, "a ring cursor past its events");
        }
    }

    #[test]
    fn set_fault_plan_consumes_past_faults_and_arms_future_ones() {
        // Source: clean machine, run to 5k, snapshot.
        let cfg = GpuConfig::tiny();
        let mut src = Gpu::new(cfg.clone());
        src.launch(compute_kernel("c"));
        src.run(5_000, &mut NullController);
        let blob = src.snapshot().expect("cycle 5000 is an epoch boundary");

        // Receiver: same configuration, and after the restore its own plan —
        // one fault strictly in the past (consumed, not re-fired), one in the
        // future (must still fire).
        let mut dst = Gpu::new(cfg);
        dst.restore(&blob).expect("same configuration");
        dst.set_fault_plan(
            FaultPlan::one(9_000, FaultKind::DeviceLoss).with(2_000, FaultKind::DeviceLoss),
        );
        assert_eq!(dst.cycle(), 5_000);
        assert_eq!(dst.fault_plan().faults[0].at_cycle, 2_000, "the plan is kept sorted");
        // The past fault is consumed: stepping does not fire it...
        dst.run(2_000, &mut NullController);
        assert_eq!(dst.cycle(), 7_000);
        // ...but the future one still does.
        let err = dst.try_run(5_000, &mut NullController).expect_err("armed fault must fire");
        assert!(matches!(err, SimError::DeviceLost(_)), "got {err}");
        assert_eq!(dst.cycle(), 9_000);
    }

    #[test]
    fn restore_refuses_a_fault_plan_out_of_cycle_order() {
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.set_fault_plan(FaultPlan::one(7_000, FaultKind::DeviceLoss));
        gpu.faults.faults.insert(0, FaultSpec { at_cycle: 9_000, kind: FaultKind::DeviceLoss });
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a fault plan out of cycle order");
    }

    #[test]
    fn restore_refuses_a_last_epoch_past_the_clock() {
        // The next epoch's length is the clock less the last epoch's cycle.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.last_epoch_cycle = gpu.cycle + 1;
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a last epoch past the clock");
    }

    #[test]
    fn restore_refuses_a_clock_off_the_epoch_grid() {
        // A snapshot is taken on an epoch boundary, and a restored machine
        // is snapshotted again at its next one, which it finds by stepping
        // whole epochs from its clock.
        let cfg = GpuConfig::tiny();
        let gpu = smk_pair_at_5000(&cfg);
        let mut bytes = gpu.snapshot().expect("cycle 5000 is a boundary").into_bytes();
        bytes[BLOB_HEADER_BYTES..][..8].copy_from_slice(&5_001u64.to_le_bytes());
        let blob = SnapshotBlob::from_bytes(&bytes).expect("the framing is intact");
        assert_refused_as_corrupt(&cfg, &blob, "a clock off the epoch grid");
    }

    #[test]
    fn restore_refuses_last_totals_above_what_the_sms_retired() {
        // The next epoch's count is each kernel's total less its last one.
        let cfg = GpuConfig::tiny();
        let mut gpu = smk_pair_at_5000(&cfg);
        gpu.last_totals[1] = gpu.kernel_totals()[1] + 1;
        let blob = gpu.snapshot().expect("cycle 5000 is a boundary");
        assert_refused_as_corrupt(&cfg, &blob, "a last total above the SMs' total");
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
        // The watchdog trips at an epoch edge before any SM steps it, so the
        // failing machine is an epoch-boundary state: it snapshots for
        // offline inspection, and restored and run on it trips again at
        // once, with the same report.
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog = true;
        let mut gpu = Gpu::new(cfg.clone());
        gpu.launch(compute_kernel("victim"));
        let err = gpu.try_run(50_000, &mut Starver).expect_err("must trip");
        assert!(matches!(err, SimError::Watchdog(_)));
        for sm in gpu.sms() {
            assert!(sm.busy_cycles() <= gpu.cycle(), "{} ran the cycle it stopped at", sm.id());
        }
        let blob = gpu.snapshot().expect("trip cycle is an epoch boundary");
        let mut inspect = Gpu::new(cfg);
        inspect.restore(&blob).expect("restore for inspection");
        assert_eq!(inspect.cycle(), gpu.cycle());
        let report = inspect.health_report();
        assert!(report.kernels[0].quota_starved());
        let again = inspect.try_run(50_000, &mut Starver).expect_err("still starved");
        assert_eq!((inspect.cycle(), again), (gpu.cycle(), err), "the same trip");
    }

    #[test]
    fn audit_failure_snapshot_fails_again_where_it_stopped() {
        // An audit failure also stops on the edge it judged, before the
        // epoch closes: restored and run on, the machine fails with the same
        // violation at the same cycle.
        let mut cfg = GpuConfig::tiny();
        cfg.health.audit = true;
        let mut gpu = Gpu::new(cfg.clone());
        let k = gpu.launch(compute_kernel("c"));
        gpu.run(5_000, &mut NullController);
        gpu.sm_mut(SmId::new(0)).corrupt_quota_for_test(k, 7);
        let err = gpu.try_run(5_000, &mut NullController).expect_err("the ledger is off");
        assert!(matches!(err, SimError::Audit(_)), "got {err}");
        assert_eq!(gpu.cycle(), 5_000, "the edge it judged is not run");
        let blob = gpu.snapshot().expect("an audit stops on an epoch boundary");
        let mut resumed = Gpu::new(cfg);
        resumed.restore(&blob).expect("same configuration");
        let again = resumed.try_run(5_000, &mut NullController).expect_err("still off");
        assert_eq!((resumed.cycle(), again), (gpu.cycle(), err), "the same violation");
    }

    #[test]
    fn set_fault_plan_thaws_a_wedge_but_restore_keeps_it() {
        // A wedge is silent: schedulers freeze long before the watchdog can
        // classify the device, so a snapshot taken in that window carries
        // the frozen state. Migrating the blob onto healthy silicon must
        // thaw it (the sickness belongs to the machine, not the workload);
        // resuming the same machine must keep it, watchdog trip included.
        let mut cfg = GpuConfig::tiny();
        cfg.health.watchdog = true;
        let mut src = Gpu::new(cfg.clone());
        src.set_fault_plan(FaultPlan::one(500, FaultKind::DeviceWedge));
        src.launch(compute_kernel("c"));
        src.try_run(1_000, &mut NullController).expect("watchdog has not tripped yet");
        let blob = src.snapshot().expect("cycle 1000 is an epoch boundary");

        // Same machine: the plan and the frozen schedulers come from the
        // blob, and the watchdog classifies the wedge when the source does.
        let mut same = Gpu::new(cfg.clone());
        same.restore(&blob).expect("identical fingerprint");
        assert_eq!(same.fault_plan(), src.fault_plan());
        let err = same.try_run(50_000, &mut NullController).expect_err("still wedged");
        assert!(matches!(err, SimError::Watchdog(_)), "got {err}");
        let tripped = src.try_run(50_000, &mut NullController).expect_err("the source too");
        assert_eq!((same.cycle(), err), (src.cycle(), tripped), "on the source's schedule");

        // Healthy spare: the receiver's (empty) plan thaws the workload,
        // which resumes and completes instead of wedging the receiver.
        let mut spare = Gpu::new(cfg.clone());
        spare.restore(&blob).expect("same configuration");
        spare.set_fault_plan(FaultPlan::none());
        spare.try_run(200_000, &mut NullController).expect("healthy silicon must not wedge");
        assert!(
            spare.stats().kernel(KernelId::new(0)).launches_completed >= 1,
            "the migrated kernel finishes on the spare"
        );

        // A checkpoint refreshed later carries a closed idle epoch (1 000 to
        // 2 000), and the one closing at 3 000 is idle too: the same machine
        // trips on that edge, while a spare forgets the idle epoch with the
        // wedge and finishes the kernel.
        let mut src = Gpu::new(cfg.clone());
        src.set_fault_plan(FaultPlan::one(500, FaultKind::DeviceWedge));
        src.launch(compute_kernel("c"));
        src.try_run(3_000, &mut NullController).expect("one idle epoch does not trip");
        let blob = src.snapshot().expect("cycle 3000 is an epoch boundary");
        let mut same = Gpu::new(cfg.clone());
        same.restore(&blob).expect("identical fingerprint");
        let err = same.try_run(50_000, &mut NullController).expect_err("still wedged");
        assert!(matches!(err, SimError::Watchdog(_)), "got {err}");
        assert_eq!(same.cycle(), 3_000, "the idle epoch rode the blob");
        let mut spare = Gpu::new(cfg);
        spare.restore(&blob).expect("same configuration");
        spare.set_fault_plan(FaultPlan::none());
        spare.try_run(200_000, &mut NullController).expect("healthy silicon must not trip");
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
