//! Warp address-stream generation and saved progress.
//!
//! Per-warp execution state itself lives in the struct-of-arrays
//! [`crate::sm::WarpTable`]; this module holds the pieces that are not
//! layout-sensitive: the deterministic address-stream generator (borrowed
//! view over one table slot) and the architectural progress captured by a
//! partial context switch.

use crate::kernel::{AccessPattern, PatternKind};
use crate::rng::SplitMix64;
use crate::types::Addr;

/// Borrowed view of the address-stream state of one warp-table slot.
///
/// Streams are fully determined by `(kernel seed, warp_uid, seq)`, so a
/// preempted-and-resumed warp continues exactly where it left off.
#[derive(Debug)]
pub struct AddrStream<'a> {
    /// Globally unique warp number within the kernel (survives preemption).
    pub warp_uid: u64,
    /// Warp position within its TB.
    pub warp_in_tb: u16,
    /// Memory-access sequence number (advanced by each generated access).
    pub seq: &'a mut u64,
    /// Deterministic per-warp RNG for randomized patterns.
    pub rng: &'a mut SplitMix64,
}

impl AddrStream<'_> {
    /// Generates the coalesced line addresses for the warp's next memory
    /// access under `pattern`, appending up to `pattern.transactions` line
    /// addresses into `buf` and returning how many were written. `line_bytes`
    /// is a power of two, as [`crate::GpuConfig::validate`] requires.
    pub fn gen_lines(
        &mut self,
        pattern: &AccessPattern,
        kernel_base: Addr,
        line_bytes: u32,
        tb_index: u32,
        buf: &mut [Addr; 32],
    ) -> usize {
        // A shift, not a division, turns bytes into lines.
        debug_assert!(line_bytes.is_power_of_two());
        let shift = line_bytes.trailing_zeros();
        let trans = usize::from(pattern.transactions);
        let fp_lines = (pattern.footprint_bytes >> shift).max(1);
        let seq = *self.seq;
        *self.seq += 1;
        // Writes `(start + t) % fp_lines` scaled to line addresses for
        // `t = 0..trans`. `start` is already reduced mod `fp_lines`, so the
        // per-line modulo is a wrap-to-zero compare — one u64 division per
        // *access* instead of one per line, which matters on the dense path
        // where every memory issue runs this for a full warp's worth of
        // transactions.
        let fill = |buf: &mut [Addr; 32], base: Addr, start: u64| {
            let mut x = start;
            for slot in buf.iter_mut().take(trans) {
                *slot = base + (x << shift);
                x += 1;
                if x == fp_lines {
                    x = 0;
                }
            }
        };
        match pattern.kind {
            PatternKind::Stream => {
                // Each warp streams through its own region; fresh lines each
                // access until the (large) footprint wraps.
                let start =
                    self.warp_uid.wrapping_mul(2048).wrapping_add(seq * trans as u64) % fp_lines;
                fill(buf, kernel_base, start);
            }
            PatternKind::Tile => {
                // The whole TB cycles within one tile; after the first pass
                // the tile is cache-resident.
                let tile_base = kernel_base + u64::from(tb_index) % 1024 * pattern.footprint_bytes;
                let start =
                    (u64::from(self.warp_in_tb) * 97 + seq).wrapping_mul(trans as u64) % fp_lines;
                fill(buf, tile_base, start);
            }
            PatternKind::Random => {
                for slot in buf.iter_mut().take(trans) {
                    *slot = kernel_base + (self.rng.next_below(fp_lines) << shift);
                }
            }
            PatternKind::Stencil => {
                // Sliding windows that overlap across neighbouring warps and
                // successive accesses: L1 catches same-warp reuse, L2 catches
                // cross-TB reuse.
                let center = (self.warp_uid * trans as u64 + seq * 2) % fp_lines;
                fill(buf, kernel_base, center);
            }
        }
        trans
    }
}

/// A warp's saved architectural progress (for partial context switch).
#[derive(Debug, Clone)]
pub struct WarpProgress {
    /// Saved op index.
    pub pc: u16,
    /// Saved repeats-remaining.
    pub rem: u16,
    /// Saved loop iterations remaining.
    pub iter: u32,
    /// Saved memory sequence number.
    pub seq: u64,
    /// Whether the warp had already retired.
    pub done: bool,
    /// Saved RNG state (randomized streams resume deterministically).
    pub rng: SplitMix64,
}

crate::impl_snap_struct!(WarpProgress { pc, rem, iter, seq, done, rng });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    struct OwnedStream {
        warp_uid: u64,
        warp_in_tb: u16,
        seq: u64,
        rng: SplitMix64,
    }

    impl OwnedStream {
        fn gen(
            &mut self,
            pattern: &AccessPattern,
            kernel_base: Addr,
            tb_index: u32,
            buf: &mut [Addr; 32],
        ) -> usize {
            AddrStream {
                warp_uid: self.warp_uid,
                warp_in_tb: self.warp_in_tb,
                seq: &mut self.seq,
                rng: &mut self.rng,
            }
            .gen_lines(pattern, kernel_base, 32, tb_index, buf)
        }
    }

    fn warp(uid: u64) -> OwnedStream {
        OwnedStream { warp_uid: uid, warp_in_tb: 0, seq: 0, rng: SplitMix64::new(uid) }
    }

    #[test]
    fn stream_generates_fresh_consecutive_lines() {
        let mut w = warp(0);
        let mut buf = [0u64; 32];
        let p = AccessPattern::stream();
        let n = w.gen(&p, 0, 0, &mut buf);
        assert_eq!(n, 4);
        for t in 1..n {
            assert_eq!(buf[t] - buf[t - 1], 32, "stream lines are consecutive");
        }
        let first_access = buf[..n].to_vec();
        let n2 = w.gen(&p, 0, 0, &mut buf);
        assert!(
            buf[..n2].iter().all(|a| !first_access.contains(a)),
            "successive stream accesses touch fresh lines"
        );
    }

    #[test]
    fn tile_stays_within_footprint() {
        let mut w = warp(3);
        let mut buf = [0u64; 32];
        let p = AccessPattern::tile(4096);
        for _ in 0..100 {
            let n = w.gen(&p, 0, 7, &mut buf);
            let tile_base = 7 * 4096;
            for &a in &buf[..n] {
                assert!(
                    (tile_base..tile_base + 4096).contains(&a),
                    "tile access {a:#x} outside tile"
                );
            }
        }
    }

    #[test]
    fn random_stays_within_footprint_and_uses_rng() {
        let mut w = warp(5);
        let mut buf = [0u64; 32];
        let p = AccessPattern::random(1 << 20, 32);
        let n = w.gen(&p, 1 << 30, 0, &mut buf);
        assert_eq!(n, 32);
        for &a in &buf[..n] {
            assert!((1 << 30..(1 << 30) + (1 << 20)).contains(&a));
        }
        let distinct: std::collections::HashSet<u64> = buf[..n].iter().copied().collect();
        assert!(distinct.len() > 16, "random pattern should rarely repeat lines");
    }

    #[test]
    fn same_seed_same_stream_across_clones() {
        let mut a = warp(9);
        let mut b = warp(9);
        let mut ba = [0u64; 32];
        let mut bb = [0u64; 32];
        let p = AccessPattern::random(1 << 16, 8);
        for _ in 0..10 {
            a.gen(&p, 0, 0, &mut ba);
            b.gen(&p, 0, 0, &mut bb);
            assert_eq!(ba, bb);
        }
    }

    #[test]
    fn gen_lines_advances_seq_once_per_access() {
        let mut w = warp(1);
        let mut buf = [0u64; 32];
        let p = AccessPattern::stream();
        for expect in 1..=5u64 {
            w.gen(&p, 0, 0, &mut buf);
            assert_eq!(w.seq, expect, "each access advances seq by exactly one");
        }
    }

    #[test]
    fn stencil_windows_overlap_between_neighbour_warps() {
        let mut w0 = warp(0);
        let mut w1 = warp(1);
        let mut b0 = [0u64; 32];
        let mut b1 = [0u64; 32];
        let p = AccessPattern::stencil(1 << 16);
        // Advance warp 0 a little; its window should reach warp 1's start.
        let n0 = w0.gen(&p, 0, 0, &mut b0);
        let n1 = w1.gen(&p, 0, 0, &mut b1);
        let s0: std::collections::HashSet<u64> = b0[..n0].iter().copied().collect();
        let mut overlap = b1[..n1].iter().any(|a| s0.contains(a));
        for _ in 0..4 {
            let n = w0.gen(&p, 0, 0, &mut b0);
            overlap |= b0[..n].iter().any(|a| b1[..n1].contains(a));
        }
        assert!(overlap, "stencil windows should overlap across warps/accesses");
    }
}
