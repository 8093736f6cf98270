//! Property-based round trip for the FGTR trace codec, the committed corpus
//! as a format pin, and the FGTR-specific ends of the strict reader.
//!
//! The corruption drill (truncations, bit flips, trailing bytes) is
//! `gpu_sim::snap::frame`'s own proptest, which every container inherits;
//! here only what is particular to a trace is checked.

use gpu_sim::snap::frame::{self, FrameError};
use gpu_sim::{AccessPattern, Op};
use proptest::prelude::*;
use trace::{
    from_bytes, peek_version, to_bytes, KernelTrace, TbRecord, TbShape, TraceError, TraceMeta,
    TRACE_MAGIC, TRACE_SCHEMA_VERSION,
};

/// Builds an arbitrary-but-valid trace from proptest scalars. Ops are drawn
/// from a code stream (`op_codes`); a trailing ALU keeps the stream
/// non-empty and barrier-free at the end, as the validator requires.
fn build_trace(
    seed: u64,
    grid_tbs: u32,
    iterations: u32,
    warps: u32,
    op_codes: &[u8],
    tb_entropy: &[u64],
) -> KernelTrace {
    let mut warp_ops = Vec::new();
    for &code in op_codes {
        warp_ops.push(match code % 6 {
            0 => Op::alu(1 + u16::from(code % 7), 1 + u16::from(code % 5)),
            1 => Op::sfu(2 + u16::from(code % 9), 1 + u16::from(code % 3)),
            2 => Op::mem_load(AccessPattern::tile(1024 + 64 * u64::from(code))),
            3 => Op::mem_store(AccessPattern::stream()),
            4 => Op::smem(),
            _ => Op::Bar,
        });
    }
    warp_ops.push(Op::alu(4, 2));
    let mut tbs = Vec::new();
    let mut cycle = 0u64;
    // Each entropy word packs (sm, dispatch gap, run length, resumed); gaps
    // accumulate, so records come out in (dispatch, sm, tb) order for free.
    for (i, &e) in tb_entropy.iter().enumerate() {
        cycle += e % 500;
        tbs.push(TbRecord {
            tb: i as u32,
            sm: (e >> 16) as u32 % 8,
            dispatch_cycle: cycle,
            drain_cycle: cycle + 1 + (e >> 24) % 2_000,
            resumed: (e >> 40) & 1 == 1,
        });
    }
    KernelTrace {
        meta: TraceMeta {
            name: format!("prop-{seed:x}"),
            source: "proptest".into(),
            seed,
            capture_cycles: cycle + 1_000,
            config_fingerprint: seed.rotate_left(17),
        },
        shape: TbShape {
            threads_per_tb: warps * 32,
            regs_per_thread: 16,
            smem_per_tb: 2048,
            grid_tbs,
            iterations,
            memory_intensive: seed.is_multiple_of(2),
        },
        warp_ops,
        tbs,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode/decode is the identity on valid traces, and re-encoding the
    /// decoded trace reproduces the same bytes.
    #[test]
    fn fgtr_round_trip_is_bit_exact(
        seed in any::<u64>(),
        grid_tbs in 1u32..512,
        iterations in 1u32..64,
        warps in 1u32..32,
        op_codes in prop::collection::vec(any::<u8>(), 0..24),
        tb_entropy in prop::collection::vec(any::<u64>(), 0..40),
    ) {
        let kt = build_trace(seed, grid_tbs, iterations, warps, &op_codes, &tb_entropy);
        prop_assert_eq!(kt.validate(), Ok(()), "constructed traces are valid");
        let bytes = to_bytes(&kt);
        prop_assert_eq!(peek_version(&bytes), Ok(TRACE_SCHEMA_VERSION));
        let back = from_bytes(&bytes).expect("strict reader accepts its own writer");
        prop_assert_eq!(&back, &kt);
        prop_assert_eq!(to_bytes(&back), bytes, "re-encode is byte-identical");
    }
}

/// The version check fires only on an otherwise-intact frame (checksum is
/// verified first), and `peek_version` still reads the foreign version.
#[test]
fn future_schema_version_is_rejected_with_both_versions_named() {
    let kt = build_trace(3, 4, 1, 1, &[0, 2], &[42]);
    let future = TRACE_SCHEMA_VERSION + 1;
    let bytes = frame::seal(TRACE_MAGIC, future, &kt);
    assert_eq!(peek_version(&bytes), Ok(future));
    assert_eq!(
        from_bytes(&bytes),
        Err(TraceError::Frame(FrameError::Version {
            found: future,
            expected: TRACE_SCHEMA_VERSION
        }))
    );
}

/// The committed corpus pins the format: every file decodes, and
/// re-encoding what it decoded to reproduces the file byte for byte.
#[test]
fn committed_corpus_re_encodes_byte_identically() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/validate");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("corpus directory") {
        let path = entry.expect("entry").path();
        if path.extension().is_none_or(|ext| ext != "fgtr") {
            continue;
        }
        let file = std::fs::read(&path).expect("read");
        let kt = from_bytes(&file).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(to_bytes(&kt) == file, "{} does not re-encode to itself", path.display());
        seen += 1;
    }
    assert!(seen > 0, "no .fgtr under {}", dir.display());
}

/// A payload the frame accepts is still refused when it is not replayable.
#[test]
fn semantically_invalid_payload_is_rejected_after_decoding() {
    let mut kt = build_trace(5, 4, 1, 1, &[0], &[42]);
    kt.shape.grid_tbs = 0; // structurally decodable, semantically invalid
    let bytes = to_bytes(&kt);
    assert_eq!(from_bytes(&bytes), Err(TraceError::Invalid("empty grid")));
}
