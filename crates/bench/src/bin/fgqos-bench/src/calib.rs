//! Host-speed calibration: what makes the timings comparable between runs.
//!
//! The hosts this benchmark runs on are shared virtual machines whose speed
//! moves by tens of percent within seconds (neighbours on the same core and
//! cache). A median over a ten-second run moves with it. So every timed part
//! is cut into slices of some tens of milliseconds, a fixed *calibration
//! burst* — this file's loop, which no simulator change can touch — runs
//! between the slices, and the wall time of the slices is scaled by how fast
//! the bursts among them ran relative to [`NOMINAL_BURST_S`]. The result is
//! the time the slices would have taken on a host that runs the burst in
//! exactly that time: *reference-host seconds*. The raw wall time and the
//! host speed are reported beside every normalised one.
//!
//! A burst has to slow down under contention the way the simulator does, or
//! the scaling over- or under-corrects. Plain arithmetic or pointer-chasing
//! loops do not (measured: they leave 8-14% of run-to-run spread where the
//! raw wall has 14-18%); a toy machine with the simulator's shape does
//! (3-5%). So the burst steps a [`Toy`]: cores with struct-of-arrays warp
//! state, a bitmask ready scan with trailing-zeros picks, and set-associative
//! tag arrays probed at random — the same mix of wide integer work, short
//! unpredictable branches and cache-resident random accesses.

use std::hint::black_box;
use std::time::Instant;

use crate::host;

/// Toy ticks per burst: about two milliseconds.
const BURST_TICKS: u64 = 1_000;
/// Duration of one burst on the reference host: the median this loop took,
/// between the slices of the seven workloads, on the 2-core 2.1 GHz Xeon
/// guest that wrote `BASELINE.json`. A host speed of 1.0 means "as fast as
/// that", so there reference-host seconds are close to real ones.
pub const NOMINAL_BURST_S: f64 = 1.6e-3;

const CORES: usize = 16;
const WARPS: usize = 64;
const L1_SETS: usize = 256;
const L1_WAYS: usize = 4;
const L2_SETS: usize = 4 * 4096;
const L2_WAYS: usize = 8;

/// The yardstick: a toy many-core machine that only exists to be timed.
/// Nothing of the simulator is used here, so no simulator change moves it.
#[derive(Debug)]
struct Toy {
    ready_at: Vec<u64>,
    pc: Vec<u32>,
    l1: Vec<u64>,
    l2: Vec<u64>,
    victim: Vec<u8>,
    rng: u64,
    now: u64,
    issued: u64,
}

impl Toy {
    fn new() -> Self {
        Toy {
            ready_at: vec![0; CORES * WARPS],
            pc: vec![0; CORES * WARPS],
            l1: vec![0; CORES * L1_SETS * L1_WAYS],
            l2: vec![0; L2_SETS * L2_WAYS],
            victim: vec![0; CORES * L1_SETS + L2_SETS],
            rng: 0x9E37_79B9_7F4A_7C15,
            now: 0,
            issued: 0,
        }
    }

    /// Looks `tag` up in one set; on a miss replaces the next victim way.
    fn probe(tags: &mut [u64], victim: &mut u8, tag: u64) -> bool {
        if tags.contains(&tag) {
            return true;
        }
        let way = *victim as usize % tags.len();
        *victim = victim.wrapping_add(1);
        tags[way] = tag;
        false
    }

    /// Steps the machine [`BURST_TICKS`] ticks; the wall time it took. The
    /// addresses are 48 random bits, so nearly every probe misses and every
    /// burst does the same work.
    fn burst(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..BURST_TICKS {
            self.now += 1;
            for core in 0..CORES {
                let warps = core * WARPS;
                let mut ready = 0u64;
                for w in 0..WARPS {
                    ready |= u64::from(self.ready_at[warps + w] <= self.now) << w;
                }
                for _ in 0..4 {
                    if ready == 0 {
                        break;
                    }
                    let i = warps + ready.trailing_zeros() as usize;
                    ready &= ready - 1;
                    self.pc[i] = self.pc[i].wrapping_add(1);
                    self.issued += 1;
                    if self.pc[i] & 7 != 0 {
                        self.ready_at[i] = self.now + 4;
                        continue;
                    }
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    let tag = (self.rng >> 16) | 1;
                    let s1 = core * L1_SETS + (tag as usize >> 1) % L1_SETS;
                    let s2 = (tag as usize >> 9) % L2_SETS;
                    let l1 = &mut self.l1[s1 * L1_WAYS..(s1 + 1) * L1_WAYS];
                    let latency = if Self::probe(l1, &mut self.victim[s1], tag) {
                        28
                    } else {
                        let l2 = &mut self.l2[s2 * L2_WAYS..(s2 + 1) * L2_WAYS];
                        if Self::probe(l2, &mut self.victim[CORES * L1_SETS + s2], tag) {
                            130
                        } else {
                            350
                        }
                    };
                    self.ready_at[i] = self.now + latency;
                }
            }
        }
        black_box(self.issued);
        t.elapsed().as_secs_f64()
    }
}

/// One toy machine per host thread the measured workload may use.
#[derive(Debug)]
pub struct Calibrator {
    toys: Vec<Toy>,
    /// Wall seconds spent in bursts so far.
    spent_s: f64,
}

impl Calibrator {
    /// With `all_threads` a burst runs on every host thread at once: right
    /// for a workload that keeps them all busy, whose wall time depends on
    /// all of them. Otherwise it runs on the calling thread alone.
    pub fn new(all_threads: bool) -> Self {
        let threads = if all_threads { host::nproc() } else { 1 };
        let mut cal = Calibrator { toys: (0..threads).map(|_| Toy::new()).collect(), spent_s: 0.0 };
        // The first bursts touch the arrays and fill the warp pipeline.
        cal.burst();
        cal.burst();
        cal.spent_s = 0.0;
        cal
    }

    pub fn threads(&self) -> usize {
        self.toys.len()
    }

    /// Runs one burst on every thread at once; the mean duration.
    fn burst(&mut self) -> f64 {
        let t = Instant::now();
        let mean = match self.toys.as_mut_slice() {
            [only] => only.burst(),
            many => {
                let n = many.len() as f64;
                std::thread::scope(|s| {
                    let handles: Vec<_> = many.iter_mut().map(|t| s.spawn(|| t.burst())).collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("a burst cannot panic"))
                        .sum::<f64>()
                }) / n
            }
        };
        self.spent_s += t.elapsed().as_secs_f64();
        mean
    }
}

/// Times a sequence of slices with a burst before, between and after them.
#[derive(Debug)]
pub struct SliceClock<'a> {
    cal: &'a mut Calibrator,
    raw_s: f64,
    per_boundary: u32,
    bursts: u32,
    bursts_s: f64,
    cpu0: f64,
    spent0: f64,
}

/// What a [`SliceClock`] measured.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds of the slices as they ran.
    pub raw_s: f64,
    /// The same in reference-host seconds.
    pub norm_s: f64,
    /// CPU seconds of the slices, all threads, as they ran.
    pub cpu_s: f64,
}

impl Timed {
    /// Speed of the host while the slices ran; 1.0 is the reference host.
    pub fn host_speed(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.norm_s / self.raw_s
        } else {
            1.0
        }
    }
}

impl<'a> SliceClock<'a> {
    /// `per_boundary` bursts run before the first slice and after every
    /// slice: one when a pass has tens of slices, several when it has few,
    /// so that a pass always rests on a few dozen bursts.
    pub fn start(cal: &'a mut Calibrator, per_boundary: u32) -> Self {
        let spent0 = cal.spent_s;
        let cpu0 = host::cpu_seconds();
        let mut clock =
            SliceClock { cal, raw_s: 0.0, per_boundary, bursts: 0, bursts_s: 0.0, cpu0, spent0 };
        clock.boundary();
        clock
    }

    fn boundary(&mut self) {
        for _ in 0..self.per_boundary {
            self.bursts_s += self.cal.burst();
        }
        self.bursts += self.per_boundary;
    }

    /// Runs and times one slice, then the bursts that close it.
    pub fn slice<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.raw_s += t.elapsed().as_secs_f64();
        self.boundary();
        r
    }

    /// Scales the slices by the mean burst among them. One factor for the
    /// whole sequence, not one per slice: a single two-millisecond burst is
    /// itself disturbed by a fifth, and dividing by it slice by slice would
    /// bias the sum upward by an amount that depends on the noise.
    pub fn finish(self) -> Timed {
        let norm_s = self.raw_s * NOMINAL_BURST_S / (self.bursts_s / f64::from(self.bursts));
        // The bursts are pure CPU work on every calibrated thread; what is
        // left of the process's CPU time belongs to the slices.
        let bursts_cpu = (self.cal.spent_s - self.spent0) * self.cal.threads() as f64;
        let cpu_s = (host::cpu_seconds() - self.cpu0 - bursts_cpu).max(0.0);
        Timed { raw_s: self.raw_s, norm_s, cpu_s }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_timed_and_normalised() {
        let mut cal = Calibrator::new(false);
        assert_eq!(cal.threads(), 1);
        let mut clock = SliceClock::start(&mut cal, 1);
        let mut sum = 0u64;
        for i in 0..4u64 {
            sum += clock.slice(|| black_box((0..200_000u64).map(|x| x ^ i).sum::<u64>()));
        }
        let t = clock.finish();
        assert!(sum > 0);
        assert!(t.raw_s > 0.0 && t.norm_s > 0.0);
        assert!(t.host_speed() > 0.05 && t.host_speed() < 20.0, "{}", t.host_speed());
    }

    #[test]
    fn parallel_calibration_uses_every_host_thread() {
        let mut cal = Calibrator::new(true);
        assert_eq!(cal.threads(), host::nproc());
        assert!(cal.burst() > 0.0);
    }
}
