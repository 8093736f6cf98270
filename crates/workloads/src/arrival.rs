//! Tenant request-stream generators for the fleet serving layer.
//!
//! A fleet tenant is a stream of small kernel invocations, not one long
//! grid: each request is one grid execution of a [`request_kernel`], sized
//! so that a request completes within a handful of scheduler ticks. Streams
//! come in the two classic flavours:
//!
//! * **open** — arrivals are exogenous (a public endpoint): inter-arrival
//!   gaps are drawn around a mean regardless of completions, so overload is
//!   possible and load shedding matters;
//! * **closed** — a fixed client population with think time: a new request
//!   is issued only after a previous one completes, so the stream
//!   self-throttles.
//!
//! All randomness flows through per-stream [`SplitMix64`] generators seeded
//! from a tenant label, which keeps every arrival schedule deterministic and
//! byte-reproducible — the property the fleet's chaos soak and
//! kill-and-resume tests assert end to end.

use gpu_sim::rng::{derive_seed, SplitMix64};
use gpu_sim::{AccessPattern, KernelDesc, Op};

/// How a tenant's requests arrive at the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalModel {
    /// Open loop: gaps are uniform in `[1, 2 * mean_gap]` cycles (mean
    /// `mean_gap + 1/2`), independent of completions.
    Open {
        /// Mean inter-arrival gap in fleet cycles; must be positive.
        mean_gap: u64,
    },
    /// Closed loop: at most `population` requests outstanding; each
    /// completion schedules the next request `think` cycles later.
    Closed {
        /// Think time between a completion and the next request.
        think: u64,
        /// Concurrent client population (maximum outstanding requests).
        population: u32,
    },
    /// Open loop with a diurnal load curve: gaps are drawn as in
    /// [`ArrivalModel::Open`], but the mean swings along an integer
    /// triangle wave with the given period — trough (longest gaps) at the
    /// period edges, peak (shortest gaps) mid-period. Everything is integer
    /// arithmetic, so the curve is exactly reproducible across runs and
    /// checkpoint resumes.
    Diurnal {
        /// Baseline mean inter-arrival gap in fleet cycles; must be positive.
        mean_gap: u64,
        /// Length of one full "day" in fleet cycles; must be positive.
        period: u64,
        /// Swing amplitude in permille of `mean_gap` (`0..=999`): at peak
        /// the effective mean gap is `mean_gap - swing`, at trough
        /// `mean_gap + swing`.
        swing_permille: u32,
    },
}

/// The effective mean gap of a [`ArrivalModel::Diurnal`] stream at cycle
/// `at`: a triangle wave from `mean_gap + swing` (cycle 0, trough) down to
/// `mean_gap - swing` (half period, peak) and back, clamped to ≥ 1.
pub fn diurnal_mean_gap(mean_gap: u64, period: u64, swing_permille: u32, at: u64) -> u64 {
    let phase = at % period.max(1);
    let half = (period / 2).max(1);
    // Triangle in [-1000, 1000]: -1000 at phase 0, +1000 at `half`.
    let tri: i64 = if phase <= half {
        -1000 + (2000 * phase / half) as i64
    } else {
        1000 - (2000 * (phase - half) / half) as i64
    };
    let swing = (mean_gap.saturating_mul(u64::from(swing_permille)) / 1000) as i64;
    (mean_gap as i64 - tri * swing / 1000).max(1) as u64
}

gpu_sim::impl_snap_enum!(ArrivalModel {
    Open { mean_gap } = 0,
    Closed { think, population } = 1,
    Diurnal { mean_gap, period, swing_permille } = 2,
});

/// A deterministic per-tenant arrival stream: emits the arrival cycle of
/// each of `total` requests, driven by the tenant's private RNG.
///
/// The stream itself only decides *when* requests arrive; the fleet decides
/// what happens to them. For closed-loop models the fleet feeds completions
/// back via [`ArrivalStream::on_completion`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalStream {
    model: ArrivalModel,
    rng: SplitMix64,
    /// Requests emitted so far (also the next request's sequence number).
    emitted: u64,
    /// Total requests this stream will emit.
    total: u64,
    /// Arrival cycles that are already decided but not yet collected.
    ready: Vec<u64>,
    /// Next open-loop arrival cycle (open model only).
    next_open: u64,
}

impl ArrivalStream {
    /// Creates the stream for one tenant. `seed` should be derived from the
    /// fleet seed and a tenant label (see [`gpu_sim::rng::derive_seed`]).
    ///
    /// # Panics
    ///
    /// Panics on a zero open-loop gap or a zero closed-loop population.
    pub fn new(model: ArrivalModel, seed: u64, total: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut ready = Vec::new();
        let mut next_open = 0;
        match model {
            ArrivalModel::Open { mean_gap } => {
                assert!(mean_gap > 0, "open-loop mean gap must be positive");
                next_open = 1 + rng.next_below(2 * mean_gap);
            }
            ArrivalModel::Closed { population, .. } => {
                assert!(population > 0, "closed-loop population must be positive");
                // The whole population issues its first request at cycle 0.
                let first = u64::from(population).min(total);
                ready.extend(std::iter::repeat_n(0u64, first as usize));
            }
            ArrivalModel::Diurnal { mean_gap, period, swing_permille } => {
                assert!(mean_gap > 0, "diurnal mean gap must be positive");
                assert!(period > 0, "diurnal period must be positive");
                assert!(swing_permille < 1000, "diurnal swing must be < 1000 permille");
                let gap = diurnal_mean_gap(mean_gap, period, swing_permille, 0);
                next_open = 1 + rng.next_below(2 * gap);
            }
        }
        ArrivalStream { model, rng, emitted: 0, total, ready, next_open }
    }

    /// The model this stream follows.
    pub fn model(&self) -> ArrivalModel {
        self.model
    }

    /// Total requests the stream will emit over its lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Requests emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Whether every request has been emitted.
    pub fn exhausted(&self) -> bool {
        self.emitted >= self.total
    }

    /// Collects the sequence numbers and arrival cycles of every request
    /// arriving strictly before `horizon`, advancing the stream.
    pub fn arrivals_before(&mut self, horizon: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        // Closed-loop arrivals already scheduled by completions.
        self.ready.sort_unstable();
        while let Some(&at) = self.ready.first() {
            if at >= horizon || self.exhausted() {
                break;
            }
            self.ready.remove(0);
            out.push((self.emitted, at));
            self.emitted += 1;
        }
        // Open-loop arrivals drawn on demand (the diurnal model is an open
        // loop whose mean tracks the load curve at the drawing instant).
        loop {
            let mean = match self.model {
                ArrivalModel::Open { mean_gap } => mean_gap,
                ArrivalModel::Diurnal { mean_gap, period, swing_permille } => {
                    diurnal_mean_gap(mean_gap, period, swing_permille, self.next_open)
                }
                ArrivalModel::Closed { .. } => break,
            };
            if self.exhausted() || self.next_open >= horizon {
                break;
            }
            out.push((self.emitted, self.next_open));
            self.emitted += 1;
            self.next_open += 1 + self.rng.next_below(2 * mean);
        }
        out
    }

    /// Feeds a completion back into a closed-loop stream: the freed client
    /// thinks for `think` cycles and then issues its next request. No-op
    /// for open-loop streams.
    pub fn on_completion(&mut self, done_at: u64) {
        if let ArrivalModel::Closed { think, .. } = self.model {
            if self.emitted + (self.ready.len() as u64) < self.total {
                self.ready.push(done_at + think);
            }
        }
    }
}

gpu_sim::impl_snap_struct!(ArrivalStream { model, rng, emitted, total, ready, next_open });

/// Builds the kernel for one serving request.
///
/// One grid execution is one request. The grid is deliberately small — a
/// few TBs of the latency-sensitive [`crate::synth::frame_kernel`] shape —
/// so a request completes within a few fleet ticks and per-request deadlines
/// are meaningful. The seed mixes the tenant label and the request sequence
/// number so address streams decorrelate across requests without breaking
/// determinism.
pub fn request_kernel(tenant: &str, seq: u64, grid_tbs: u32) -> KernelDesc {
    KernelDesc::builder(tenant)
        .threads_per_tb(128)
        .regs_per_thread(32)
        .smem_per_tb(4 * 1024)
        .grid_tbs(grid_tbs.max(1))
        .iterations(6)
        .seed(derive_seed(hash_label(tenant), seq))
        .body(vec![
            Op::mem_load(AccessPattern::tile(16 * 1024)),
            Op::alu(4, 8),
            Op::Bar,
            Op::smem(),
            Op::alu(4, 6),
            Op::mem_store(AccessPattern::stream()),
        ])
        .build()
}

/// Deterministic 64-bit label from a tenant or kernel name: the FNV-1a fold
/// with its own multiplier.
pub fn hash_label(name: &str) -> u64 {
    // Not the FNV prime (`0x0100_0000_01b3`, what `gpu_sim::snap::fnv1a`
    // multiplies by): one hex digit sits a place higher. Every synthetic
    // kernel's seed, so every address stream, isolated IPC and golden,
    // descends from this exact constant. "Correcting" it, or folding this
    // into `fnv1a`, changes them all; any stable hash serves the purpose.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::snap::{decode_from_slice, encode_to_vec};
    use gpu_sim::{Gpu, GpuConfig, NullController};

    #[test]
    fn open_stream_is_deterministic_and_ordered() {
        let drain = |mut s: ArrivalStream| {
            let mut all = Vec::new();
            let mut horizon = 1_000;
            while !s.exhausted() {
                all.extend(s.arrivals_before(horizon));
                horizon += 1_000;
            }
            all
        };
        let a = drain(ArrivalStream::new(ArrivalModel::Open { mean_gap: 500 }, 7, 40));
        let b = drain(ArrivalStream::new(ArrivalModel::Open { mean_gap: 500 }, 7, 40));
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 40);
        assert!(a.windows(2).all(|w| w[0].1 <= w[1].1), "arrivals are time-ordered");
        assert!(a.windows(2).all(|w| w[0].0 + 1 == w[1].0), "sequence numbers are dense");
        let c = drain(ArrivalStream::new(ArrivalModel::Open { mean_gap: 500 }, 8, 40));
        assert_ne!(a, c, "different seeds decorrelate");
    }

    #[test]
    fn open_gaps_are_near_the_mean() {
        let mut s = ArrivalStream::new(ArrivalModel::Open { mean_gap: 100 }, 3, 1_000);
        let arrivals = s.arrivals_before(u64::MAX);
        let span = arrivals.last().unwrap().1 - arrivals[0].1;
        let mean = span as f64 / (arrivals.len() - 1) as f64;
        assert!((80.0..=120.0).contains(&mean), "empirical mean gap {mean} far from 100");
    }

    #[test]
    fn closed_stream_waits_for_completions() {
        let model = ArrivalModel::Closed { think: 50, population: 2 };
        let mut s = ArrivalStream::new(model, 1, 5);
        let first = s.arrivals_before(1_000);
        assert_eq!(first, vec![(0, 0), (1, 0)], "the population arrives at once");
        assert!(s.arrivals_before(1_000).is_empty(), "no arrivals without completions");
        s.on_completion(200);
        assert_eq!(s.arrivals_before(1_000), vec![(2, 250)], "think time after completion");
        s.on_completion(300);
        s.on_completion(400);
        s.on_completion(500); // population exhausted; total caps at 5
        let rest = s.arrivals_before(10_000);
        assert_eq!(rest, vec![(3, 350), (4, 450)]);
        assert!(s.exhausted());
    }

    #[test]
    fn streams_round_trip_through_the_codec_mid_flight() {
        let mut s = ArrivalStream::new(ArrivalModel::Open { mean_gap: 200 }, 11, 30);
        let _ = s.arrivals_before(2_000);
        let mut back: ArrivalStream = decode_from_slice(&encode_to_vec(&s)).expect("codec");
        assert_eq!(back, s);
        assert_eq!(back.arrivals_before(20_000), s.arrivals_before(20_000));
    }

    #[test]
    fn diurnal_curve_peaks_mid_period_and_is_deterministic() {
        // The triangle wave: trough at the edges, peak at half period.
        assert_eq!(diurnal_mean_gap(1_000, 10_000, 500, 0), 1_500);
        assert_eq!(diurnal_mean_gap(1_000, 10_000, 500, 5_000), 500);
        assert_eq!(diurnal_mean_gap(1_000, 10_000, 500, 10_000), 1_500);
        assert!(diurnal_mean_gap(4, 100, 999, 50) >= 1, "gap is clamped positive");

        let model = ArrivalModel::Diurnal { mean_gap: 200, period: 40_000, swing_permille: 600 };
        let drain = |seed: u64| {
            let mut s = ArrivalStream::new(model, seed, 400);
            s.arrivals_before(u64::MAX)
        };
        assert_eq!(drain(5), drain(5), "same seed, same schedule");
        assert_ne!(drain(5), drain(6), "different seeds decorrelate");

        // Arrival density over the first full period: the middle third of
        // the period (peak) must see strictly more arrivals than the first
        // third (trough).
        let arrivals = drain(5);
        let count_in = |lo: u64, hi: u64| arrivals.iter().filter(|a| a.1 >= lo && a.1 < hi).count();
        let trough = count_in(0, 13_333);
        let peak = count_in(13_333, 26_666);
        assert!(
            peak > trough,
            "diurnal peak must be denser than the trough (peak {peak}, trough {trough})"
        );
    }

    #[test]
    fn diurnal_streams_round_trip_through_the_codec_mid_flight() {
        let model = ArrivalModel::Diurnal { mean_gap: 150, period: 20_000, swing_permille: 400 };
        let mut s = ArrivalStream::new(model, 21, 60);
        let _ = s.arrivals_before(5_000);
        let mut back: ArrivalStream = decode_from_slice(&encode_to_vec(&s)).expect("codec");
        assert_eq!(back, s);
        assert_eq!(back.arrivals_before(u64::MAX), s.arrivals_before(u64::MAX));
    }

    #[test]
    fn request_kernels_are_small_and_deterministic() {
        let k = request_kernel("tenant-a", 3, 8);
        assert_eq!(k.grid_tbs(), 8);
        assert_eq!(k.seed(), request_kernel("tenant-a", 3, 8).seed());
        assert_ne!(k.seed(), request_kernel("tenant-a", 4, 8).seed());
        assert_ne!(k.seed(), request_kernel("tenant-b", 3, 8).seed());
    }

    #[test]
    fn zero_rate_tenants_emit_nothing_and_stay_inert() {
        // A tenant provisioned with total = 0 is a valid degenerate stream:
        // born exhausted, never emits, and completion feedback is a no-op.
        for model in [
            ArrivalModel::Open { mean_gap: 100 },
            ArrivalModel::Closed { think: 50, population: 4 },
        ] {
            let mut s = ArrivalStream::new(model, 9, 0);
            assert!(s.exhausted(), "a zero-request stream is exhausted at birth");
            assert_eq!(s.emitted(), 0);
            assert!(s.arrivals_before(u64::MAX).is_empty());
            s.on_completion(123);
            s.on_completion(456);
            assert!(s.arrivals_before(u64::MAX).is_empty(), "completions cannot revive it");
            assert!(s.exhausted());
            assert_eq!(s.emitted(), 0);
        }
    }

    #[test]
    fn closed_loop_population_one_alternates_strictly() {
        // With a single client, every request is gated on the previous
        // completion: exactly one arrival per completion, never two in
        // flight, and the arrival cycle is completion + think exactly.
        let mut s = ArrivalStream::new(ArrivalModel::Closed { think: 25, population: 1 }, 4, 4);
        assert_eq!(s.arrivals_before(u64::MAX), vec![(0, 0)], "the lone client starts at 0");
        assert!(s.arrivals_before(u64::MAX).is_empty(), "nothing until the completion");
        let mut done_at = 100;
        for seq in 1..4u64 {
            s.on_completion(done_at);
            let batch = s.arrivals_before(u64::MAX);
            assert_eq!(batch, vec![(seq, done_at + 25)], "one completion, one arrival");
            done_at += 100;
        }
        assert!(s.exhausted());
        s.on_completion(done_at);
        assert!(s.arrivals_before(u64::MAX).is_empty(), "total caps the stream");
    }

    #[test]
    fn per_tenant_streams_are_seed_stable_across_construction_orders() {
        // Each tenant's schedule depends only on its own derived seed, so
        // building the fleet's streams in a different order (or alone) must
        // reproduce identical per-tenant schedules.
        let fleet_seed = 0xF1EE7;
        let schedule = |tenant: &str| {
            let seed = derive_seed(fleet_seed, hash_label(tenant));
            let mut s = ArrivalStream::new(ArrivalModel::Open { mean_gap: 300 }, seed, 20);
            s.arrivals_before(u64::MAX)
        };
        let tenants = ["alpha", "bravo", "charlie"];
        let forward: Vec<_> = tenants.iter().map(|t| schedule(t)).collect();
        let mut reverse: Vec<_> = tenants.iter().rev().map(|t| schedule(t)).collect();
        reverse.reverse();
        assert_eq!(forward, reverse, "construction order must not leak into schedules");
        assert_ne!(forward[0], forward[1], "distinct tenants decorrelate");
        assert_ne!(forward[1], forward[2], "distinct tenants decorrelate");
    }

    #[test]
    fn one_request_grid_completes_quickly_on_a_tiny_device() {
        let mut gpu = Gpu::new(GpuConfig::tiny());
        let k = gpu.launch(request_kernel("t", 0, 8));
        gpu.run(20_000, &mut NullController);
        assert!(
            gpu.stats().kernel(k).launches_completed >= 1,
            "an 8-TB request must finish one grid well inside 20k cycles \
             (completed {} TBs)",
            gpu.stats().kernel(k).tbs_completed
        );
    }
}
