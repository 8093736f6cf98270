//! The FGTR trace file: [`gpu_sim::snap::frame`] under [`TRACE_MAGIC`] and
//! [`TRACE_SCHEMA_VERSION`] around a [`KernelTrace`] payload.
//!
//! The frame rejects truncated, damaged, foreign-version and over-long
//! files; what is particular to a trace is that the reader then runs
//! [`KernelTrace::validate`], so a successfully loaded trace is always
//! semantically replayable.

use std::fmt;
use std::path::Path;

use gpu_sim::snap::frame::{self, FrameError};

use crate::format::KernelTrace;

/// Leading magic of an FGTR trace file.
pub const TRACE_MAGIC: [u8; 4] = *b"FGTR";

/// Version of the trace payload layout. Bumped whenever the set, order, or
/// encoding of [`KernelTrace`] fields changes; the reader refuses any other
/// version, and `repro validate --bless` refuses to bless expectations over
/// a corpus written by a different version.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Why a trace could not be read (or written).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The bytes are not an intact, same-version FGTR frame.
    Frame(FrameError),
    /// The decoded trace violates a semantic invariant (named).
    Invalid(&'static str),
    /// A filesystem error while loading or saving (stringified).
    Io(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Frame(e) => write!(f, "unreadable trace: {e}"),
            TraceError::Invalid(what) => write!(f, "invalid trace: {what}"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Serializes a trace into a framed FGTR byte string.
#[must_use]
pub fn to_bytes(trace: &KernelTrace) -> Vec<u8> {
    frame::seal(TRACE_MAGIC, TRACE_SCHEMA_VERSION, trace)
}

/// Strictly decodes a framed FGTR byte string.
///
/// # Errors
///
/// [`TraceError::Frame`] for anything the frame rejects, then
/// [`TraceError::Invalid`] from [`KernelTrace::validate`].
pub fn from_bytes(bytes: &[u8]) -> Result<KernelTrace, TraceError> {
    let trace: KernelTrace =
        frame::open(TRACE_MAGIC, TRACE_SCHEMA_VERSION, bytes).map_err(TraceError::Frame)?;
    trace.validate()?;
    Ok(trace)
}

/// Reads just the schema version of a framed trace, without verifying the
/// checksum or decoding the payload.
///
/// # Errors
///
/// [`TraceError::Frame`] if the fixed header is not present.
pub fn peek_version(bytes: &[u8]) -> Result<u32, TraceError> {
    frame::peek_version(TRACE_MAGIC, bytes).map_err(TraceError::Frame)
}

/// Loads and strictly decodes a trace file.
///
/// # Errors
///
/// [`TraceError::Io`] on filesystem errors, otherwise as [`from_bytes`].
pub fn load(path: &Path) -> Result<KernelTrace, TraceError> {
    let bytes = std::fs::read(path)
        .map_err(|e| TraceError::Io(format!("cannot read {}: {e}", path.display())))?;
    from_bytes(&bytes)
}

/// Writes a trace file through [`frame::write_atomic`], so a crash mid-write
/// never leaves a torn corpus file.
///
/// # Errors
///
/// [`TraceError::Io`] on filesystem errors.
pub fn save_atomic(path: &Path, trace: &KernelTrace) -> Result<(), TraceError> {
    frame::write_atomic(path, &to_bytes(trace))
        .map_err(|e| TraceError::Io(format!("cannot write {}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{TbRecord, TbShape, TraceMeta};
    use gpu_sim::{AccessPattern, Op};

    fn sample() -> KernelTrace {
        KernelTrace {
            meta: TraceMeta {
                name: "frame-test".into(),
                source: "unit-test".into(),
                seed: 41,
                capture_cycles: 2_000,
                config_fingerprint: 0xbeef,
            },
            shape: TbShape {
                threads_per_tb: 128,
                regs_per_thread: 24,
                smem_per_tb: 0,
                grid_tbs: 4,
                iterations: 3,
                memory_intensive: false,
            },
            warp_ops: vec![Op::alu(4, 2), Op::mem_load(AccessPattern::stream())],
            tbs: vec![TbRecord {
                tb: 0,
                sm: 0,
                dispatch_cycle: 2,
                drain_cycle: 40,
                resumed: false,
            }],
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let kt = sample();
        let bytes = to_bytes(&kt);
        let back = from_bytes(&bytes).expect("round trip");
        assert_eq!(back, kt);
        assert_eq!(to_bytes(&back), bytes, "re-encoding reproduces the bytes");
        assert_eq!(peek_version(&bytes), Ok(TRACE_SCHEMA_VERSION));
    }

    /// The corruption drill lives with `frame::open`; this pins that the
    /// FGTR reader goes through it under the FGTR magic and version, passes
    /// each of its verdicts on, and validates what it decoded.
    #[test]
    fn reader_rejects_truncation_magic_checksum_and_version() {
        let kt = sample();
        let bytes = to_bytes(&kt);
        let frame_err = |bytes: &[u8]| match from_bytes(bytes) {
            Err(TraceError::Frame(e)) => e,
            other => panic!("expected a frame error, got {other:?}"),
        };

        assert!(matches!(frame_err(&bytes[..10]), FrameError::Truncated { got: 10, .. }));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(matches!(frame_err(&flipped), FrameError::Checksum { .. }));

        let other_magic = frame::seal(*b"FGCK", TRACE_SCHEMA_VERSION, &kt);
        let bad_magic = FrameError::BadMagic { found: *b"FGCK", expected: TRACE_MAGIC };
        assert_eq!(frame_err(&other_magic), bad_magic);
        assert_eq!(peek_version(&other_magic), Err(TraceError::Frame(bad_magic)));

        let foreign = frame::seal(TRACE_MAGIC, TRACE_SCHEMA_VERSION + 1, &kt);
        assert_eq!(
            frame_err(&foreign),
            FrameError::Version { found: TRACE_SCHEMA_VERSION + 1, expected: TRACE_SCHEMA_VERSION }
        );
        assert_eq!(peek_version(&foreign), Ok(TRACE_SCHEMA_VERSION + 1));

        let trailing = frame::seal(TRACE_MAGIC, TRACE_SCHEMA_VERSION, &(kt.clone(), 0u8));
        assert!(matches!(frame_err(&trailing), FrameError::Payload(_)));

        let mut invalid = kt;
        invalid.warp_ops.clear();
        assert_eq!(
            from_bytes(&to_bytes(&invalid)),
            Err(TraceError::Invalid("empty warp-op stream"))
        );
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let kt = sample();
        let dir = std::env::temp_dir().join(format!("fgtr-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("sample.fgtr");
        save_atomic(&path, &kt).expect("save");
        assert_eq!(load(&path), Ok(kt));
        assert!(matches!(load(&dir.join("absent.fgtr")), Err(TraceError::Io(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_error_displays() {
        for e in [
            TraceError::Frame(FrameError::Truncated { got: 1, needed: 16 }),
            TraceError::Invalid("nope"),
            TraceError::Io("gone".into()),
        ] {
            assert!(!format!("{e}").is_empty());
        }
    }
}
