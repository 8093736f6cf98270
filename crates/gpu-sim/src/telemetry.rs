//! Telemetry: deterministic latency histograms and counter time series
//! (DESIGN.md §17).
//!
//! * [`LatencyHistogram`] — an HDR-style log-bucketed histogram holding only
//!   integers. Recording is a shift-and-mask bucket computation; quantiles
//!   are derived at report time with pure integer (ppm-rank) arithmetic.
//!   Histograms are [`Snap`](crate::snap::Snap)-integrated, ride fleet snapshots, and
//!   are therefore part of the bit-identity surface: a SIGKILLed run resumed
//!   from its checkpoint reproduces every bucket exactly.
//! * [`TimeSeries`] — a bounded ring of periodic counter-registry samples
//!   (one row per fleet tick). Also [`Snap`](crate::snap::Snap)-integrated.
//! * [`WorkCounters`] — the run loop's deterministic step counts. They
//!   describe the host strategy, not the machine, so they never ride a
//!   snapshot. Where host wall time goes is measured from outside the
//!   process by `scripts/sample-profile.sh`; nothing here reads a clock.

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
/// `capacity` rows are held. Names, rows and the eviction count are
/// [`Snap`](crate::snap::Snap)-encoded, so the series survives
/// checkpoint/restore byte-identically and is part of the determinism
/// surface; the capacity is the owner's configuration, which
/// [`TimeSeries::adopt`] takes from the series it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    capacity: usize,
    names: Vec<String>,
    rows: Vec<SeriesRow>,
    evicted: u64,
}

crate::impl_snap_struct!(TimeSeries { names, rows, evicted } skip { capacity });

impl TimeSeries {
    /// A series holding at most `capacity` rows; sampling into a series of
    /// capacity 0 panics.
    pub fn new(capacity: usize) -> Self {
        TimeSeries { capacity, names: Vec::new(), rows: Vec::new(), evicted: 0 }
    }

    /// Makes this decoded series stand in for `built`, the one its owner
    /// made with [`TimeSeries::new`]: takes its capacity, which the wire does
    /// not carry, and answers whether at most that many rows are held. A
    /// fuller series would be indexed past its rows on the next sample.
    #[must_use]
    pub fn adopt(&mut self, built: &TimeSeries) -> bool {
        self.capacity = built.capacity;
        self.rows.len() <= self.capacity
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

/// Deterministic counts of the work the run loop did on the host, as
/// opposed to what the simulated machine did: `sm_ticks_run` per-SM cycle
/// steps executed, `sm_ticks_slept` SM-cycles passed over because the SM was
/// asleep (machine-wide jumps included). They sum to simulated cycles × SMs
/// and repeat exactly from run to run, so a test can pin "it sleeps" without
/// a clock. Never snapshotted: the same simulated state is reached with
/// different counts when fast-forward is off.
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
    /// Evaluations of the quota-inert kernel set. The set is cached per SM
    /// and evaluated again only when it is read after a write that can flip
    /// one of its signs (a controller setter, a lazy refill, a quota
    /// exhaustion), so this is at most one per gated step plus one per
    /// exhaustion, and usually far below.
    pub gate_evals: u64,
    /// TB-scheduler service passes run: every dispatch point with
    /// fast-forward off; with it on, one per dispatch point while the
    /// scheduler is not settled (after a launch, a control-plane write or
    /// an SM's drain / save / load completion).
    pub tb_passes: u64,
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
        // Empty, quantiles are total: every one is 0, the max of nothing.
        // A single value: every quantile is it.
        for (values, q) in [(&[][..], 0u64), (&[1_000][..], 1_000)] {
            let mut h = LatencyHistogram::new();
            for &v in values {
                h.record(v);
            }
            assert_eq!(h.count(), values.len() as u64);
            assert_eq!((h.p50(), h.p999(), h.max()), (q, q, q), "{values:?}");
        }
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
        let mut back: TimeSeries = decode_from_slice(&encode_to_vec(&s)).expect("codec");
        assert!(back.adopt(&TimeSeries::new(2)));
        assert_eq!(back, s);
    }

    #[test]
    fn adopt_refuses_more_rows_than_the_capacity() {
        let mut s = TimeSeries::new(3);
        for i in 0..3u64 {
            s.sample(i, &[entry("x", 1)]);
        }
        let bytes = encode_to_vec(&s);
        let decoded = || decode_from_slice::<TimeSeries>(&bytes).expect("codec");
        assert!(decoded().adopt(&TimeSeries::new(3)), "a full ring fits");
        assert!(!decoded().adopt(&TimeSeries::new(2)), "a row past the capacity");
        assert!(!decoded().adopt(&TimeSeries::new(0)), "no row fits capacity 0");
    }
}
