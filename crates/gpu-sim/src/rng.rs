//! Deterministic pseudo-random number generation.
//!
//! The simulator must be bit-reproducible for a given case id (the paper's
//! experiments are re-run across policies and compared case-by-case), so all
//! stochastic elements — randomized address streams, divergence draws —
//! use this small, seedable SplitMix64 generator rather than a global RNG.

/// A SplitMix64 pseudo-random generator.
///
/// Fast, tiny state, and good enough statistical quality for address-stream
/// generation. Not cryptographically secure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent streams.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 {
            // Avoid the all-zero fixed point producing a weak first draw.
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Returns a uniformly distributed value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift reduction; bias is negligible for simulation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

crate::impl_snap_struct!(SplitMix64 { state });

/// Derives a child seed from a parent seed and a stream label.
///
/// Used to give each warp / component an independent deterministic stream.
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    let mut mix = SplitMix64::new(parent ^ label.rotate_left(17));
    mix.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(7);
        for _ in 0..10_000 {
            assert!(r.next_below(13) < 13);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SplitMix64::new(9);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = SplitMix64::new(3);
        let mut buckets = [0u32; 8];
        for _ in 0..80_000 {
            buckets[r.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((8_000..12_000).contains(&b), "bucket count {b} far from uniform");
        }
    }

    #[test]
    fn derived_seeds_are_distinct_per_label() {
        let s1 = derive_seed(99, 0);
        let s2 = derive_seed(99, 1);
        assert_ne!(s1, s2);
    }
}
