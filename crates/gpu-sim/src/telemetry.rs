//! Telemetry: deterministic latency histograms, counter time series, and a
//! host-side self-profiler (DESIGN.md §17).
//!
//! Three pieces with very different determinism contracts:
//!
//! * [`LatencyHistogram`] — an HDR-style log-bucketed histogram holding only
//!   integers. Recording is a shift-and-mask bucket computation; quantiles
//!   are derived at report time with pure integer (ppm-rank) arithmetic.
//!   Histograms are [`Snap`](crate::snap::Snap)-integrated, ride fleet snapshots, and
//!   are therefore part of the bit-identity surface: a SIGKILLed run resumed
//!   from its checkpoint reproduces every bucket exactly.
//! * [`TimeSeries`] — a bounded ring of periodic counter-registry samples
//!   (one row per fleet tick). Also [`Snap`](crate::snap::Snap)-integrated.
//! * [`HostProfiler`] — opt-in wall-clock attribution per simulator phase.
//!   Host time is inherently nondeterministic, so the profiler is kept
//!   strictly **outside** snapshots and `records_hash`: it is never encoded,
//!   never compared, and costs a single branch per phase boundary when
//!   disabled. [`WorkCounters`], the run loop's deterministic step counts,
//!   ride beside it: they describe the host strategy, not the machine.

use std::fmt;
use std::time::Instant;

use crate::observe::CounterEntry;

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Values below `1 << LINEAR_BITS` get one bucket each (exact counts).
const LINEAR_BITS: u32 = 5;
/// Sub-buckets per power-of-two octave above the linear range: each octave
/// `[2^m, 2^{m+1})` is split into 16 equal slots, bounding the relative
/// quantization error at `1/16 ≈ 6.25%`.
const SUB_BUCKETS: u64 = 16;
/// Highest bucket index a `u64` value can map to (`m = 63`, slot 15).
#[cfg(test)]
const MAX_BUCKETS: usize = 32 + (64 - LINEAR_BITS as usize) * SUB_BUCKETS as usize;

/// An HDR-style log-bucketed histogram with integer-only state.
///
/// Values `< 32` are counted exactly (one bucket per value); larger values
/// land in one of 16 sub-buckets per power-of-two octave, so the reported
/// quantiles carry at most ~6.25% relative quantization error while the
/// bucket array stays small (a value of 2^63 still needs only ~976 buckets,
/// and the vector grows lazily to the highest bucket actually hit).
///
/// Everything is a `u64`: recording and quantile extraction use no
/// floating point, so the histogram is byte-identical wherever the recorded
/// value sequence is — across fast-forward on/off and snapshot → SIGKILL →
/// resume.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Per-bucket counts, grown on demand; index via [`bucket_index`].
    counts: Vec<u64>,
    /// Total number of recorded values.
    count: u64,
    /// Sum of recorded values (saturating, for the mean).
    sum: u64,
    /// Largest recorded value (0 when empty).
    max: u64,
}

crate::impl_snap_struct!(LatencyHistogram { counts, count, sum, max });

/// Bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < (1 << LINEAR_BITS) {
        return v as usize;
    }
    let m = 63 - v.leading_zeros(); // m >= LINEAR_BITS
    let slot = (v >> (m - 4)) & (SUB_BUCKETS - 1);
    (1 << LINEAR_BITS) + (m - LINEAR_BITS) as usize * SUB_BUCKETS as usize + slot as usize
}

/// Inclusive upper bound of a bucket — the deterministic value reported for
/// quantiles that land in it.
fn bucket_upper(index: usize) -> u64 {
    if index < (1 << LINEAR_BITS) {
        return index as u64;
    }
    let rel = index - (1 << LINEAR_BITS);
    let m = LINEAR_BITS + (rel / SUB_BUCKETS as usize) as u32;
    let slot = (rel % SUB_BUCKETS as usize) as u64;
    let width = 1u64 << (m - 4);
    let low = (1u64 << m) + slot * width;
    low.wrapping_add(width - 1) // saturates to u64::MAX in the top bucket
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of the same value.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Integer mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The quantile at `ppm` parts-per-million (e.g. 990_000 for p99): the
    /// smallest bucket upper bound such that at least `ceil(count·ppm/10^6)`
    /// recorded values are at or below it, clamped to the observed maximum.
    /// Pure integer arithmetic; returns 0 for an empty histogram.
    pub fn quantile_ppm(&self, ppm: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let ppm = u64::from(ppm.min(1_000_000));
        // rank = ceil(count * ppm / 1e6), clamped to [1, count].
        let rank = ((u128::from(self.count) * u128::from(ppm)).div_ceil(1_000_000) as u64)
            .clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile_ppm(500_000)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile_ppm(900_000)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile_ppm(950_000)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile_ppm(990_000)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile_ppm(999_000)
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs, lowest
    /// bound first — the exporter surface for Prometheus `le` buckets.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(idx, &c)| (bucket_upper(idx), c))
    }
}

// ---------------------------------------------------------------------------
// Counter time series
// ---------------------------------------------------------------------------

/// One sampled row of a [`TimeSeries`]: every column's value at one stamp.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesRow {
    /// Simulated-time stamp of the sample (cycle).
    pub stamp: u64,
    /// One value per column, in [`TimeSeries::columns`] order.
    pub values: Vec<i64>,
}

crate::impl_snap_struct!(SeriesRow { stamp, values });

/// A bounded ring of periodic counter-registry samples.
///
/// Columns are fixed by the first sample (scope-qualified counter names);
/// each subsequent sample appends one row, evicting the oldest once
/// `capacity` rows are held. Everything — names, rows, the eviction count —
/// is [`Snap`](crate::snap::Snap)-encoded, so the series survives checkpoint/restore
/// byte-identically and is part of the determinism surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    capacity: usize,
    names: Vec<String>,
    rows: Vec<SeriesRow>,
    evicted: u64,
}

crate::impl_snap_struct!(TimeSeries { capacity, names, rows, evicted });

impl TimeSeries {
    /// A series holding at most `capacity` rows; sampling into a series of
    /// capacity 0 panics.
    pub fn new(capacity: usize) -> Self {
        TimeSeries { capacity, names: Vec::new(), rows: Vec::new(), evicted: 0 }
    }

    /// Maximum number of rows retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Scope-qualified column names, fixed by the first sample.
    pub fn columns(&self) -> &[String] {
        &self.names
    }

    /// Retained rows, oldest first.
    pub fn rows(&self) -> &[SeriesRow] {
        &self.rows
    }

    /// Rows evicted so far to honor the capacity bound. Zero means
    /// [`rows`](TimeSeries::rows) is the complete recording.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Samples the registry `entries` at `stamp`. The first sample fixes the
    /// column set; if a later sample's columns differ (a registry whose
    /// shape changed mid-run), the series restarts from the new shape and
    /// counts the discarded rows as evicted — deterministic, and visible to
    /// exporters.
    pub fn sample(&mut self, stamp: u64, entries: &[CounterEntry]) {
        let mut names: Vec<String> = Vec::new();
        let mut values: Vec<i64> = Vec::new();
        for e in entries {
            names.push(format!("{}/{}", e.scope, e.name));
            values.push(e.value);
        }
        if self.names != names {
            if !self.names.is_empty() {
                self.evicted += self.rows.len() as u64;
                self.rows.clear();
            }
            self.names = names;
        }
        if self.rows.len() == self.capacity {
            self.rows.remove(0);
            self.evicted += 1;
        }
        self.rows.push(SeriesRow { stamp, values });
    }
}

// ---------------------------------------------------------------------------
// Host-side self-profiler
// ---------------------------------------------------------------------------

/// A simulator phase the host profiler attributes wall-clock time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfPhase {
    /// Stepping every SM domain for one cycle.
    SmStep,
    /// Draining SM interconnect ports: applying memory responses to warp
    /// scoreboards at the end-of-cycle barrier.
    IcnDrain,
    /// Serving drained port requests in the shared L2/DRAM hierarchy.
    MemsysServe,
    /// TB-scheduler service passes: dispatch, preemption checks.
    TbService,
    /// Epoch-boundary work: epoch accounting, invariant audits, the QoS
    /// controller's `on_epoch`, and telemetry sampling.
    QosEpochService,
    /// Idle fast-forward horizon scans and jumps.
    FastForward,
    /// Fleet-layer tick orchestration (arrivals, placement, migration
    /// bookkeeping, sampling) — everything except stepping the devices.
    FleetTick,
    /// Stepping fleet devices (each device's own phases are inside its GPU).
    DeviceStep,
    /// Serializing and writing checkpoints to disk.
    CheckpointWrite,
}

impl ProfPhase {
    /// Every phase, in display order.
    pub const ALL: [ProfPhase; 9] = [
        ProfPhase::SmStep,
        ProfPhase::IcnDrain,
        ProfPhase::MemsysServe,
        ProfPhase::TbService,
        ProfPhase::QosEpochService,
        ProfPhase::FastForward,
        ProfPhase::FleetTick,
        ProfPhase::DeviceStep,
        ProfPhase::CheckpointWrite,
    ];

    /// Stable, machine-readable phase name.
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::SmStep => "sm_step",
            ProfPhase::IcnDrain => "icn_drain",
            ProfPhase::MemsysServe => "memsys_serve",
            ProfPhase::TbService => "tb_service",
            ProfPhase::QosEpochService => "qos_epoch_service",
            ProfPhase::FastForward => "fast_forward",
            ProfPhase::FleetTick => "fleet_tick",
            ProfPhase::DeviceStep => "device_step",
            ProfPhase::CheckpointWrite => "checkpoint_write",
        }
    }
}

impl fmt::Display for ProfPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Accumulated wall-clock time and invocation count of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Total nanoseconds attributed to the phase.
    pub nanos: u64,
    /// Number of timed spans.
    pub calls: u64,
}

/// Opt-in wall-clock attribution per simulator phase.
///
/// Deliberately **not** [`Snap`](crate::snap::Snap): host time is nondeterministic, so profiler
/// state never enters snapshots, reports, or `records_hash`. Disabled (the
/// default) every timing call is a single branch on a `bool`; enabled, each
/// phase boundary costs two `Instant::now()` reads.
#[derive(Debug, Clone, Default)]
pub struct HostProfiler {
    enabled: bool,
    totals: [PhaseTotal; ProfPhase::ALL.len()],
}

impl HostProfiler {
    /// A disabled profiler (all timing calls are no-ops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables timing. Disabling keeps accumulated totals.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether timing is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span: `Some(now)` when enabled, `None` (free) when not.
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span started by [`begin`](HostProfiler::begin), attributing
    /// its wall time to `phase`.
    #[inline]
    pub fn end(&mut self, phase: ProfPhase, started: Option<Instant>) {
        if let Some(t0) = started {
            self.add(phase, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Ends a span and starts the next one in a single clock read.
    #[inline]
    pub fn lap(&mut self, phase: ProfPhase, started: Option<Instant>) -> Option<Instant> {
        if let Some(t0) = started {
            let now = Instant::now();
            self.add(phase, now.duration_since(t0).as_nanos() as u64);
            Some(now)
        } else {
            None
        }
    }

    /// Attributes `nanos` to `phase` directly (for externally timed spans
    /// such as checkpoint writes).
    pub fn add(&mut self, phase: ProfPhase, nanos: u64) {
        let t = &mut self.totals[phase as usize];
        t.nanos = t.nanos.saturating_add(nanos);
        t.calls += 1;
    }

    /// Accumulated total of one phase.
    pub fn total(&self, phase: ProfPhase) -> PhaseTotal {
        self.totals[phase as usize]
    }

    /// Every phase with a nonzero total, in [`ProfPhase::ALL`] order.
    pub fn rows(&self) -> Vec<(ProfPhase, PhaseTotal)> {
        ProfPhase::ALL.iter().map(|&p| (p, self.total(p))).filter(|(_, t)| t.calls > 0).collect()
    }

    /// Sum of all attributed nanoseconds.
    pub fn attributed_nanos(&self) -> u64 {
        self.totals.iter().map(|t| t.nanos).sum()
    }
}

/// Deterministic counts of the work the run loop did on the host, as
/// opposed to what the simulated machine did: `sm_ticks_run` per-SM cycle
/// steps executed, `sm_ticks_slept` SM-cycles passed over because the SM was
/// asleep (machine-wide jumps included). They sum to simulated cycles × SMs
/// and repeat exactly from run to run, so a test can pin "it sleeps" without
/// a clock. Like [`HostProfiler`], never snapshotted: the same simulated
/// state is reached with different counts when fast-forward is off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Calls of the per-SM cycle step.
    pub sm_ticks_run: u64,
    /// SM-cycles that needed no step.
    pub sm_ticks_slept: u64,
    /// Wake-queue hints drained: the scoreboard work of all steps together.
    pub wake_events: u64,
    /// Wake queues built from the `ready_at` column: one per SM, plus one
    /// per SM and restore — more would be an O(table) pass creeping back.
    pub ready_rebuilds: u64,
    /// Evaluations of the quota-inert kernel set by the SM step: one per
    /// step with a gated kernel, plus one per quota exhaustion.
    pub gate_evals: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{CounterKind, CounterScope};
    use crate::snap::{decode_from_slice, encode_to_vec};

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile_ppm(1), 0, "rank 1 is the smallest value");
        assert_eq!(h.p50(), 15);
        assert_eq!(h.quantile_ppm(1_000_000), 31);
    }

    #[test]
    fn bucket_error_is_bounded() {
        // Every bucket upper bound must be within 1/16 of the values that
        // map into it.
        for v in [33u64, 100, 1_000, 65_537, 1 << 40, u64::MAX / 3, u64::MAX] {
            let idx = bucket_index(v);
            let upper = bucket_upper(idx);
            assert!(upper >= v, "upper bound {upper} below value {v}");
            // upper / v <= 1 + 1/16 + rounding slack
            assert!(
                (upper - v) as u128 * 16 <= v as u128 + 16,
                "bucket error too large: v={v} upper={upper}"
            );
        }
        // Monotone: larger values never land in earlier buckets.
        let mut last = 0;
        for v in (0..200u64).chain((8..20).map(|m| (1u64 << m) + 7)) {
            let idx = bucket_index(v);
            assert!(idx >= last);
            last = idx;
        }
        assert!(bucket_index(u64::MAX) < MAX_BUCKETS);
    }

    #[test]
    fn quantiles_are_clamped_to_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000);
        assert_eq!(h.p50(), 1_000);
        assert_eq!(h.p999(), 1_000, "single value: every quantile is it");
    }

    #[test]
    fn quantile_ranks_follow_ppm() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        // With 100 exact-ish samples, p90 must sit near 90 (within one
        // bucket's 6.25% quantization).
        let p90 = h.p90();
        assert!((88..=96).contains(&p90), "p90 = {p90}");
        assert!(h.p99() >= p90);
        assert!(h.p999() >= h.p99());
        assert_eq!(h.quantile_ppm(1_000_000), 100);
    }

    #[test]
    fn histogram_round_trips_through_the_codec() {
        let mut h = LatencyHistogram::new();
        for v in [3u64, 17, 1_000, 123_456_789] {
            h.record_n(v, v % 7 + 1);
        }
        let back: LatencyHistogram = decode_from_slice(&encode_to_vec(&h)).expect("codec");
        assert_eq!(back, h);
        assert_eq!(back.p99(), h.p99());
    }

    fn entry(name: &'static str, value: i64) -> CounterEntry {
        CounterEntry { name, scope: CounterScope::Machine, kind: CounterKind::Counter, value }
    }

    #[test]
    fn series_keeps_a_bounded_window_and_counts_evictions() {
        let mut s = TimeSeries::new(3);
        for i in 0..5u64 {
            s.sample(i * 10, &[entry("a", i as i64), entry("b", -1)]);
        }
        assert_eq!(s.rows().len(), 3);
        assert_eq!(s.evicted(), 2);
        assert_eq!(s.columns(), ["machine/a".to_string(), "machine/b".to_string()]);
        let stamps: Vec<u64> = s.rows().iter().map(|r| r.stamp).collect();
        assert_eq!(stamps, [20, 30, 40], "oldest rows were evicted");
        assert_eq!(s.rows()[2].values, [4, -1]);
    }

    #[test]
    fn series_restarts_when_the_registry_shape_changes() {
        let mut s = TimeSeries::new(8);
        s.sample(0, &[entry("a", 1)]);
        s.sample(1, &[entry("a", 2)]);
        s.sample(2, &[entry("a", 3), entry("b", 4)]);
        assert_eq!(s.columns().len(), 2);
        assert_eq!(s.rows().len(), 1, "old-shape rows were discarded");
        assert_eq!(s.evicted(), 2);
    }

    #[test]
    fn series_round_trips_through_the_codec() {
        let mut s = TimeSeries::new(2);
        for i in 0..4u64 {
            s.sample(i, &[entry("x", i as i64 * 3)]);
        }
        let back: TimeSeries = decode_from_slice(&encode_to_vec(&s)).expect("codec");
        assert_eq!(back, s);
    }

    #[test]
    fn disabled_profiler_is_free_and_silent() {
        let mut p = HostProfiler::new();
        assert!(!p.is_enabled());
        let t = p.begin();
        assert!(t.is_none());
        p.end(ProfPhase::SmStep, t);
        assert!(p.rows().is_empty());
        assert_eq!(p.attributed_nanos(), 0);
    }

    #[test]
    fn enabled_profiler_attributes_spans() {
        let mut p = HostProfiler::new();
        p.set_enabled(true);
        let t = p.begin();
        assert!(t.is_some());
        let t = p.lap(ProfPhase::SmStep, t);
        p.end(ProfPhase::IcnDrain, t);
        p.add(ProfPhase::CheckpointWrite, 1_000);
        assert_eq!(p.total(ProfPhase::SmStep).calls, 1);
        assert_eq!(p.total(ProfPhase::IcnDrain).calls, 1);
        assert_eq!(p.total(ProfPhase::CheckpointWrite).nanos, 1_000);
        let names: Vec<&str> = p.rows().iter().map(|(ph, _)| ph.name()).collect();
        assert_eq!(names, ["sm_step", "icn_drain", "checkpoint_write"]);
        assert!(p.attributed_nanos() >= 1_000);
    }

    #[test]
    fn every_phase_has_a_unique_name() {
        let mut names: Vec<&str> = ProfPhase::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ProfPhase::ALL.len());
    }
}
