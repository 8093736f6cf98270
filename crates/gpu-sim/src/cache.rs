//! A set-associative cache model with LRU replacement.
//!
//! Used for both the per-SM L1 data caches and the per-memory-controller L2
//! slices. The model tracks only tags (no data) — a lookup either hits or
//! misses-and-fills. Writes are modeled as allocate-on-write (the simulator
//! cares about traffic and latency, not coherence).
//!
//! Storage is one `u64` word per line, `tag << 32 | stamp`, set-major, so an
//! 8-way set is one 64-byte host cache line and a snapshot carries 8 bytes
//! per line. The stamp is the value of the access clock when the line was
//! last touched; the clock is pre-incremented, so a stamp of 0 means the line
//! is invalid and is exactly the victim key a `valid` flag would produce.
//! DESIGN.md §3.2 argues why 32 bits are enough for each half.

use crate::types::Addr;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// The line was not resident and has been filled (possibly evicting).
    Miss,
}

/// Aggregate hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; zero for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, allocate-on-miss cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// One word per line, `sets * ways` entries, set-major:
    /// `tag << 32 | stamp`. A larger stamp is more recently used and stamp 0
    /// is an invalid line.
    lines: Vec<u64>,
    sets: usize,
    ways: usize,
    line_shift: u32,
    /// Stamp of the latest access.
    clock: u32,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `total_bytes` capacity, `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (`total_bytes` not divisible
    /// into `ways * line_bytes` sets, non-power-of-two line size or set
    /// count, or zero sizes).
    pub fn new(total_bytes: u64, ways: u32, line_bytes: u32) -> Self {
        assert!(total_bytes > 0 && ways > 0 && line_bytes > 0, "cache sizes must be positive");
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        let set_bytes = u64::from(ways) * u64::from(line_bytes);
        assert!(
            total_bytes.is_multiple_of(set_bytes),
            "capacity must divide into ways * line_bytes sets"
        );
        let sets = (total_bytes / set_bytes) as usize;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            lines: vec![0; sets * ways as usize],
            sets,
            ways: ways as usize,
            line_shift: line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The set index and tag of the line containing `addr`.
    #[inline]
    fn locate(&self, addr: Addr) -> (usize, u64) {
        let block = addr >> self.line_shift;
        ((block as usize) & (self.sets - 1), block >> self.sets.trailing_zeros())
    }

    /// Accesses the line containing `addr`: on a miss the line is filled
    /// (evicting the set's LRU victim).
    ///
    /// # Panics
    ///
    /// Panics if `addr`'s tag does not fit the line word's 32 tag bits.
    /// [`crate::GpuConfig::validate`] proves that no address of the simulated
    /// space does, for the configured geometry.
    pub fn access(&mut self, addr: Addr) -> AccessOutcome {
        if self.clock == u32::MAX {
            self.renormalize();
        }
        self.clock += 1;
        let (set, tag) = self.locate(addr);
        assert!(tag <= u64::from(u32::MAX), "address {addr:#x} is outside the cache's tag range");
        let word = tag << 32 | u64::from(self.clock);
        let set_lines = &mut self.lines[set * self.ways..(set + 1) * self.ways];

        // An invalid line's stamp is 0, strictly below every valid stamp, so
        // the first-strict-minimum scan picks invalid ways first and the
        // true LRU way otherwise.
        let mut victim = 0usize;
        let mut victim_stamp = u64::MAX;
        for (i, line) in set_lines.iter_mut().enumerate() {
            let stamp = u64::from(*line as u32);
            if stamp != 0 && *line >> 32 == tag {
                *line = word;
                self.stats.hits += 1;
                return AccessOutcome::Hit;
            }
            if stamp < victim_stamp {
                victim_stamp = stamp;
                victim = i;
            }
        }
        set_lines[victim] = word;
        self.stats.misses += 1;
        AccessOutcome::Miss
    }

    /// Rewrites every set's stamps as their ranks within the set (invalid
    /// lines stay 0) and pulls the clock back to the largest rank possible.
    /// LRU only ever compares stamps of one set, and ranks keep their order,
    /// so every later hit, miss and victim is the one an unbounded clock
    /// would have produced.
    #[cold]
    fn renormalize(&mut self) {
        let mut stamps = vec![0u32; self.ways];
        for set_lines in self.lines.chunks_exact_mut(self.ways) {
            for (stamp, &line) in stamps.iter_mut().zip(set_lines.iter()) {
                *stamp = line as u32;
            }
            // Valid stamps of one set are distinct: a line's rank is one more
            // than the number of valid lines stamped below it.
            for (line, &stamp) in set_lines.iter_mut().zip(&stamps) {
                if stamp != 0 {
                    let below = stamps.iter().filter(|&&s| s != 0 && s < stamp).count();
                    *line = *line >> 32 << 32 | (below as u64 + 1);
                }
            }
        }
        self.clock = self.ways as u32;
    }

    /// Returns whether the line containing `addr` is resident, without
    /// touching LRU state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let (set, tag) = self.locate(addr);
        self.lines[set * self.ways..(set + 1) * self.ways]
            .iter()
            .any(|&line| line as u32 != 0 && line >> 32 == tag)
    }

    /// Invalidates every line.
    pub fn flush(&mut self) {
        self.lines.fill(0);
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Whether this (decoded) cache can stand in for `built`, one that
    /// [`Cache::new`] made: the same geometry and a line per way of every
    /// set, so that no access indexes past `lines`. The clock needs no check:
    /// every `u32` is a clock [`Cache::access`] handles, and a stamp out of
    /// step with it reorders evictions, which a hostile blob can do with
    /// legal stamps too.
    pub(crate) fn fits(&self, built: &Cache) -> bool {
        (self.sets, self.ways, self.line_shift, self.lines.len())
            == (built.sets, built.ways, built.line_shift, built.lines.len())
    }
}

crate::impl_snap_struct!(CacheStats { hits, misses });

crate::impl_snap_struct!(Cache { lines, sets, ways, line_shift, clock, stats });

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256 B
        Cache::new(256, 2, 32)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        assert_eq!(c.ways(), 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0x40), AccessOutcome::Miss);
        assert_eq!(c.access(0x40), AccessOutcome::Hit);
        assert_eq!(c.access(0x47), AccessOutcome::Hit, "same line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three tags mapping to set 0 in a 2-way set: set index = (addr>>5) & 3.
        let a = 0u64; // set 0
        let b = 4 * 32; // set 0
        let d = 8 * 32; // set 0
        c.access(a);
        c.access(b);
        c.access(a); // a most recent; b is LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = small();
        c.access(0);
        let before = c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(1 << 20));
        assert_eq!(c.stats(), before);
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0);
        c.flush();
        assert!(!c.probe(0));
        assert_eq!(c.access(0), AccessOutcome::Miss);
    }

    #[test]
    fn flushed_lines_never_alias_tag_zero() {
        // Validity lives in the stamp: address 0 has tag 0, and a cold or
        // flushed line word is 0 too.
        let mut c = small();
        assert_eq!(c.access(0), AccessOutcome::Miss, "cold line with tag 0 must miss");
        c.flush();
        assert_eq!(c.access(0), AccessOutcome::Miss, "flushed line with tag 0 must miss");
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        // 8 distinct lines in a 8-line cache, round robin: after the first
        // pass everything hits.
        let mut c = small();
        let addrs: Vec<u64> = (0..8).map(|i| i * 32).collect();
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            assert_eq!(c.access(a), AccessOutcome::Hit);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_line_size() {
        let _ = Cache::new(256, 2, 48);
    }

    #[test]
    #[should_panic(expected = "tag range")]
    fn refuses_an_address_whose_tag_would_alias() {
        // 4 sets of 32-byte lines: tags start at bit 7, so bit 39 is tag bit 32.
        small().access(1 << 39);
    }

    #[test]
    fn encodes_eight_bytes_a_line_and_a_fixed_header() {
        // Length prefix, sets, ways (8 each), line_shift, clock (4 each) and
        // the two counters.
        const HEADER: usize = 8 + 8 + 8 + 4 + 4 + 16;
        for (bytes, ways) in [(256, 2), (4 * 1024, 4), (512 * 1024, 8)] {
            let mut c = Cache::new(bytes, ways, 32);
            c.access(0x40);
            let lines = (bytes / 32) as usize;
            assert_eq!(crate::snap::encode_to_vec(&c).len(), 8 * lines + HEADER);
        }
    }

    #[test]
    fn lru_order_survives_the_clock_wrapping() {
        // One 4-way set, filled so that the last fill is stamped u32::MAX.
        let mut c = Cache::new(4 * 32, 4, 32);
        let [a, b, d, e, f] = [0u64, 32, 64, 96, 128];
        c.clock = u32::MAX - 4;
        for addr in [a, b, d, e] {
            assert_eq!(c.access(addr), AccessOutcome::Miss);
        }
        assert_eq!(c.clock, u32::MAX);
        // The next access renormalises first: ranks 1..=4, then stamp 5.
        assert_eq!(c.access(a), AccessOutcome::Hit);
        assert_eq!(c.clock, 5);
        assert_eq!(c.lines.iter().map(|&l| l as u32).collect::<Vec<_>>(), [5, 2, 3, 4]);
        // `b` is now the oldest, exactly as under an unbounded clock.
        assert_eq!(c.access(f), AccessOutcome::Miss);
        assert!(!c.probe(b) && c.probe(a) && c.probe(d) && c.probe(e) && c.probe(f));
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 5 });
    }

    /// The model before line words, kept literally: parallel `tags` / `lru`
    /// vectors under a `u64` clock that never wraps.
    struct RefCache {
        tags: Vec<u64>,
        lru: Vec<u64>,
        sets: usize,
        ways: usize,
        line_shift: u32,
        clock: u64,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(sets: usize, ways: usize, line_bytes: u32) -> Self {
            RefCache {
                tags: vec![0; sets * ways],
                lru: vec![0; sets * ways],
                sets,
                ways,
                line_shift: line_bytes.trailing_zeros(),
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: Addr) -> AccessOutcome {
            self.clock += 1;
            let block = addr >> self.line_shift;
            let set = (block as usize) & (self.sets - 1);
            let tag = block >> self.sets.trailing_zeros();
            let base = set * self.ways;
            let set_tags = &self.tags[base..base + self.ways];
            let set_lru = &mut self.lru[base..base + self.ways];
            let mut victim = 0usize;
            let mut victim_lru = u64::MAX;
            for (i, (&t, stamp)) in set_tags.iter().zip(set_lru.iter_mut()).enumerate() {
                if *stamp != 0 && t == tag {
                    *stamp = self.clock;
                    self.stats.hits += 1;
                    return AccessOutcome::Hit;
                }
                if *stamp < victim_lru {
                    victim_lru = *stamp;
                    victim = i;
                }
            }
            self.tags[base + victim] = tag;
            self.lru[base + victim] = self.clock;
            self.stats.misses += 1;
            AccessOutcome::Miss
        }

        fn probe(&self, addr: Addr) -> bool {
            let block = addr >> self.line_shift;
            let set = (block as usize) & (self.sets - 1);
            let tag = block >> self.sets.trailing_zeros();
            let base = set * self.ways;
            self.tags[base..base + self.ways]
                .iter()
                .zip(&self.lru[base..base + self.ways])
                .any(|(&t, &stamp)| stamp != 0 && t == tag)
        }

        fn flush(&mut self) {
            self.lru.fill(0);
        }
    }

    mod differential {
        use super::*;
        use crate::snap::{decode_from_slice, encode_to_vec};
        use proptest::prelude::*;

        proptest! {
            /// The packed cache and the two-vector reference answer every
            /// `access` and `probe` alike and count alike, on 1- to 8-way
            /// geometries, across flushes, across a snapshot round trip of
            /// the packed cache, and (one case in four) across the clock
            /// wrapping mid-sequence.
            #[test]
            fn packed_cache_matches_the_two_vector_reference(
                ways_log in 0u32..4,
                sets_log in 0u32..4,
                start in 0u32..4,
                margin in 0u32..48,
                ops in prop::collection::vec(any::<u64>(), 64..400),
                snap_at in 0usize..64,
            ) {
                let (sets, ways) = (1usize << sets_log, 1usize << ways_log);
                let mut packed = Cache::new((sets * ways * 32) as u64, ways as u32, 32);
                let mut reference = RefCache::new(sets, ways, 32);
                let wraps = start == 0;
                if wraps {
                    packed.clock = u32::MAX - margin;
                }
                // Three lines per way: sets fill, hit and evict.
                let span = 3 * (sets * ways) as u64;
                let mut accesses = 0u32;
                for (i, &op) in ops.iter().enumerate() {
                    let addr = (op >> 8) % span * 32 + (op >> 40) % 32;
                    match op & 0xff {
                        0..=3 => {
                            packed.flush();
                            reference.flush();
                        }
                        4..=63 => prop_assert_eq!(packed.probe(addr), reference.probe(addr), "op {}", i),
                        _ => {
                            prop_assert_eq!(packed.access(addr), reference.access(addr), "op {}", i);
                            accesses += 1;
                        }
                    }
                    if i == snap_at {
                        packed = decode_from_slice(&encode_to_vec(&packed)).expect("own encoding");
                    }
                }
                prop_assert_eq!(packed.stats(), reference.stats);
                if wraps && accesses > margin {
                    // `renormalize` fired: the clock restarted from `ways`.
                    prop_assert!(packed.clock <= ways as u32 + accesses, "clock {}", packed.clock);
                } else if !wraps {
                    prop_assert_eq!(u64::from(packed.clock), reference.clock);
                }
            }
        }
    }
}
