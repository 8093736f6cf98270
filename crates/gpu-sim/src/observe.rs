//! Observability: trace levels, the cycle-level event flight recorder, and
//! the unified counter registry (DESIGN.md §12).
//!
//! Three pieces, all snapshot-integrated so checkpoint/restore round-trips
//! them bit-exactly:
//!
//! * [`TraceConfig`] — a per-machine trace level carried on
//!   [`GpuConfig`](crate::GpuConfig). At [`TraceLevel::Off`] (the default)
//!   the only cost on the simulated path is a single branch on a cached
//!   `bool`; the `fastforward` bench holds that overhead to ≤2%.
//! * [`TraceEvent`] / [`EventRing`] — a bounded flight recorder of typed,
//!   cycle-stamped events (quota exhaustion, preemption start/complete, TB
//!   dispatch/drain, epoch boundaries, idle transitions, fault injections).
//!   Each SM owns a ring and the machine owns one for global events; the
//!   merged tail is embedded into [`HealthReport`](crate::HealthReport) so a
//!   watchdog abort carries the timeline that led to it.
//! * [`CounterEntry`] — one row of the enumerable counter registry that
//!   [`Gpu::counter_registry`](crate::Gpu::counter_registry) assembles from
//!   the SM pipeline, memory hierarchy, and preemption engine. Counters are
//!   monotonic; gauges are instantaneous readings.
//!
//! Events may only be recorded on *simulated* cycles: the idle fast-forward
//! (DESIGN.md §3.1) skips windows in which the machine provably does
//! nothing, and the differential proptests hold a traced fast-forward run
//! bit-identical to a traced naive run — ring contents included.

use std::fmt;

use crate::health::FaultKind;
use crate::types::Cycle;

/// How much event recording the machine performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No events are recorded; the flight-recorder rings stay empty. The
    /// per-cycle cost is one branch on a cached flag.
    #[default]
    Off,
    /// Typed events are recorded into the bounded per-SM and machine rings.
    Events,
}

crate::impl_snap_enum!(TraceLevel { Off = 0, Events = 1 });

impl TraceLevel {
    /// Whether event recording is enabled.
    pub fn is_on(self) -> bool {
        self != TraceLevel::Off
    }
}

/// Flight-recorder configuration, carried on [`GpuConfig`](crate::GpuConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Event-recording level.
    pub level: TraceLevel,
    /// Capacity of each event ring (one per SM plus one machine-level).
    /// Older events are overwritten once a ring is full.
    pub ring_capacity: u32,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { level: TraceLevel::Off, ring_capacity: 256 }
    }
}

crate::impl_snap_struct!(TraceConfig { level, ring_capacity });

/// The typed payload of a flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A kernel's quota balance crossed from positive to exhausted on the
    /// debit that issued its last covered instruction.
    QuotaExhausted {
        /// Kernel slot whose quota ran out.
        kernel: u32,
    },
    /// A TB context save began (the preemption engine picked a victim).
    PreemptStart {
        /// Kernel slot owning the victim TB.
        kernel: u32,
        /// Grid index of the victim TB.
        tb: u32,
    },
    /// A TB context save finished; the TB's state left the SM.
    PreemptComplete {
        /// Kernel slot owning the saved TB.
        kernel: u32,
        /// Grid index of the saved TB.
        tb: u32,
    },
    /// A TB was dispatched (fresh, or resumed from a saved context).
    TbDispatch {
        /// Kernel slot of the dispatched TB.
        kernel: u32,
        /// Grid index of the dispatched TB.
        tb: u32,
        /// Whether the dispatch restored a previously saved context.
        resumed: bool,
    },
    /// A TB retired its last warp and drained from the SM.
    TbDrain {
        /// Kernel slot of the drained TB.
        kernel: u32,
        /// Grid index of the drained TB.
        tb: u32,
    },
    /// The machine crossed an epoch boundary (controller invocation point).
    EpochBoundary {
        /// Index of the epoch that just finished.
        epoch: u64,
    },
    /// The epoch that just finished issued no thread instructions at all —
    /// the watchdog-relevant idle transition into a stalled window.
    IdleStart,
    /// The epoch that just finished issued instructions again after one or
    /// more fully idle epochs.
    IdleEnd,
    /// A configured [`FaultPlan`](crate::FaultPlan) entry fired.
    FaultInjected {
        /// The injected fault.
        fault: FaultKind,
    },
}

impl TraceEventKind {
    /// Stable, machine-readable name (used as the Perfetto instant name).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::QuotaExhausted { .. } => "quota_exhausted",
            TraceEventKind::PreemptStart { .. } => "preempt_start",
            TraceEventKind::PreemptComplete { .. } => "preempt_complete",
            TraceEventKind::TbDispatch { .. } => "tb_dispatch",
            TraceEventKind::TbDrain { .. } => "tb_drain",
            TraceEventKind::EpochBoundary { .. } => "epoch_boundary",
            TraceEventKind::IdleStart => "idle_start",
            TraceEventKind::IdleEnd => "idle_end",
            TraceEventKind::FaultInjected { .. } => "fault_injected",
        }
    }
}

impl fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEventKind::QuotaExhausted { kernel } => {
                write!(f, "quota exhausted: kernel {kernel}")
            }
            TraceEventKind::PreemptStart { kernel, tb } => {
                write!(f, "preempt save start: kernel {kernel} tb {tb}")
            }
            TraceEventKind::PreemptComplete { kernel, tb } => {
                write!(f, "preempt save complete: kernel {kernel} tb {tb}")
            }
            TraceEventKind::TbDispatch { kernel, tb, resumed: false } => {
                write!(f, "tb dispatch: kernel {kernel} tb {tb}")
            }
            TraceEventKind::TbDispatch { kernel, tb, resumed: true } => {
                write!(f, "tb dispatch (resume): kernel {kernel} tb {tb}")
            }
            TraceEventKind::TbDrain { kernel, tb } => {
                write!(f, "tb drain: kernel {kernel} tb {tb}")
            }
            TraceEventKind::EpochBoundary { epoch } => {
                write!(f, "epoch boundary: epoch {epoch} finished")
            }
            TraceEventKind::IdleStart => {
                write!(f, "idle window start: epoch issued no instructions")
            }
            TraceEventKind::IdleEnd => write!(f, "idle window end: progress resumed"),
            TraceEventKind::FaultInjected { fault } => {
                write!(f, "fault injected: {fault:?}")
            }
        }
    }
}

crate::impl_snap_enum!(TraceEventKind {
    QuotaExhausted { kernel } = 0,
    PreemptStart { kernel, tb } = 1,
    PreemptComplete { kernel, tb } = 2,
    TbDispatch { kernel, tb, resumed } = 3,
    TbDrain { kernel, tb } = 4,
    EpochBoundary { epoch } = 5,
    IdleStart = 6,
    IdleEnd = 7,
    FaultInjected { fault } = 8,
});

/// One cycle-stamped flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Cycle at which the event occurred.
    pub cycle: Cycle,
    /// SM that recorded the event, or `None` for machine-level events
    /// (epoch boundaries, idle transitions, fault injections).
    pub sm: Option<u32>,
    /// What happened.
    pub kind: TraceEventKind,
}

crate::impl_snap_struct!(TraceEvent { cycle, sm, kind });

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {:>8}  ", self.cycle)?;
        match self.sm {
            Some(sm) => write!(f, "sm {sm:>2}   ")?,
            None => write!(f, "machine ")?,
        }
        write!(f, "{}", self.kind)
    }
}

/// A bounded, overwrite-oldest ring of [`TraceEvent`]s.
///
/// A zero-capacity ring drops everything — that (plus the callers' cached
/// `trace_on` flag) is what makes [`TraceLevel::Off`] free. The ring counts
/// how many events it has discarded (overwritten or dropped at zero
/// capacity), so lossless consumers — the FGTR trace capture in particular —
/// can tell a complete recording from a wrapped one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventRing {
    cap: u32,
    start: u32,
    dropped: u64,
    events: Vec<TraceEvent>,
}

crate::impl_snap_struct!(EventRing { cap, start, dropped, events });

impl EventRing {
    /// Creates an empty ring holding at most `cap` events.
    pub fn new(cap: u32) -> Self {
        EventRing { cap, start: 0, dropped: 0, events: Vec::new() }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events discarded so far (overwritten once the ring was
    /// full, or dropped outright at zero capacity). Zero means [`iter`]
    /// returns every event ever pushed.
    ///
    /// [`iter`]: EventRing::iter
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records an event, overwriting the oldest once full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() < self.cap as usize {
            self.events.push(event);
        } else {
            self.events[self.start as usize] = event;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Events in recording order, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = (self.start as usize).min(self.events.len());
        self.events[split..].iter().chain(self.events[..split].iter())
    }
}

/// One completed TB execution reconstructed from the flight recorder — the
/// unit of the FGTR trace capture (DESIGN.md §15).
///
/// Built by [`Gpu::tb_lifecycles`](crate::Gpu::tb_lifecycles) from paired
/// [`TraceEventKind::TbDispatch`] / [`TraceEventKind::TbDrain`] events in the
/// per-SM rings. TBs still resident when the recording ends have no drain
/// event and are not reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbLifecycle {
    /// Grid index of the TB.
    pub tb: u32,
    /// SM the TB executed (and drained) on.
    pub sm: u32,
    /// Cycle the TB was dispatched onto the SM.
    pub dispatch_cycle: Cycle,
    /// Cycle the TB retired its last warp and drained.
    pub drain_cycle: Cycle,
    /// Whether the dispatch restored a previously saved context.
    pub resumed: bool,
}

/// Why a TB-lifecycle extraction could not be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TbLogError {
    /// An event ring wrapped during the recording, so dispatch/drain pairs
    /// may be missing. Re-record with a larger
    /// [`TraceConfig::ring_capacity`].
    RingOverflow {
        /// SM whose ring overflowed.
        sm: u32,
        /// Events the ring discarded.
        dropped: u64,
    },
    /// A drain event arrived for a TB with no open dispatch — recording
    /// started mid-flight or the ring lost the dispatch.
    UnmatchedDrain {
        /// SM that recorded the orphan drain.
        sm: u32,
        /// Grid index of the drained TB.
        tb: u32,
    },
}

impl fmt::Display for TbLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbLogError::RingOverflow { sm, dropped } => write!(
                f,
                "event ring of sm {sm} discarded {dropped} events; \
                 raise TraceConfig::ring_capacity for lossless capture"
            ),
            TbLogError::UnmatchedDrain { sm, tb } => {
                write!(f, "sm {sm} recorded a drain for tb {tb} without a dispatch")
            }
        }
    }
}

impl std::error::Error for TbLogError {}

/// Whether a registry entry accumulates or reads instantaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterKind {
    /// Monotonically non-decreasing over a run.
    Counter,
    /// An instantaneous reading (occupancy, queue depth, balance).
    Gauge,
}

/// What a registry entry is scoped to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterScope {
    /// Whole-machine.
    Machine,
    /// Per resident kernel slot.
    Kernel(usize),
    /// Per SM.
    Sm(usize),
    /// Per memory channel (L2 slice / DRAM queue index).
    Channel(usize),
    /// Per fleet tenant (cluster-level serving metrics).
    Tenant(usize),
    /// Per fleet device (one simulated GPU in a cluster).
    Device(usize),
}

impl fmt::Display for CounterScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterScope::Machine => write!(f, "machine"),
            CounterScope::Kernel(k) => write!(f, "kernel[{k}]"),
            CounterScope::Sm(s) => write!(f, "sm[{s}]"),
            CounterScope::Channel(c) => write!(f, "chan[{c}]"),
            CounterScope::Tenant(t) => write!(f, "tenant[{t}]"),
            CounterScope::Device(d) => write!(f, "device[{d}]"),
        }
    }
}

/// One row of the enumerable counter registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterEntry {
    /// Stable counter name, unique within its scope.
    pub name: &'static str,
    /// What the value is scoped to.
    pub scope: CounterScope,
    /// Counter or gauge.
    pub kind: CounterKind,
    /// The value. Signed because quota balances can legitimately go
    /// negative (overdraft on the final covered debit).
    pub value: i64,
}

impl fmt::Display for CounterEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} = {}", self.scope, self.name, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snap::{decode_from_slice, encode_to_vec};

    fn ev(cycle: Cycle) -> TraceEvent {
        TraceEvent {
            cycle,
            sm: Some(1),
            kind: TraceEventKind::TbDispatch { kernel: 0, tb: cycle as u32, resumed: false },
        }
    }

    #[test]
    fn ring_preserves_order_and_overwrites_oldest() {
        let mut ring = EventRing::new(3);
        assert!(ring.is_empty());
        for c in 0..5 {
            ring.push(ev(c));
        }
        let cycles: Vec<Cycle> = ring.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "the newest `cap` events survive, in order");
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2, "two events were overwritten");
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let mut ring = EventRing::new(0);
        ring.push(ev(1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn unwrapped_ring_reports_zero_dropped() {
        let mut ring = EventRing::new(8);
        for c in 0..8 {
            ring.push(ev(c));
        }
        assert_eq!(ring.dropped(), 0, "filling to capacity discards nothing");
        ring.push(ev(8));
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn ring_round_trips_through_the_codec_mid_wrap() {
        let mut ring = EventRing::new(4);
        for c in 0..7 {
            ring.push(ev(c));
        }
        let back: EventRing = decode_from_slice(&encode_to_vec(&ring)).expect("codec");
        assert_eq!(back, ring);
        let a: Vec<&TraceEvent> = ring.iter().collect();
        let b: Vec<&TraceEvent> = back.iter().collect();
        assert_eq!(a, b, "iteration order survives the round trip");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            TraceEventKind::QuotaExhausted { kernel: 3 },
            TraceEventKind::PreemptStart { kernel: 1, tb: 17 },
            TraceEventKind::PreemptComplete { kernel: 1, tb: 17 },
            TraceEventKind::TbDispatch { kernel: 0, tb: 2, resumed: true },
            TraceEventKind::TbDrain { kernel: 2, tb: 40 },
            TraceEventKind::EpochBoundary { epoch: 12 },
            TraceEventKind::IdleStart,
            TraceEventKind::IdleEnd,
            TraceEventKind::FaultInjected { fault: FaultKind::StarveQuota },
            TraceEventKind::FaultInjected { fault: FaultKind::DeviceLoss },
            TraceEventKind::FaultInjected { fault: FaultKind::DeviceWedge },
        ];
        for kind in kinds {
            let event = TraceEvent { cycle: 999, sm: None, kind };
            let back: TraceEvent = decode_from_slice(&encode_to_vec(&event)).expect("codec");
            assert_eq!(back, event);
            assert!(!kind.name().is_empty());
            assert!(!format!("{event}").is_empty());
        }
    }

    #[test]
    fn trace_config_defaults_off() {
        let cfg = TraceConfig::default();
        assert_eq!(cfg.level, TraceLevel::Off);
        assert!(!cfg.level.is_on());
        assert!(TraceLevel::Events.is_on());
        let back: TraceConfig = decode_from_slice(&encode_to_vec(&cfg)).expect("codec");
        assert_eq!(back, cfg);
    }
}
