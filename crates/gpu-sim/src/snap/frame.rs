//! The one file frame every on-disk container shares, and the one atomic
//! writer that puts it there (DESIGN.md §11.3).
//!
//! ```text
//! magic (4 bytes) | version (u32 LE) | Snap payload | FNV-1a of all before (u64 LE)
//! ```
//!
//! A container is a `(magic, version, payload type)` triple: FGCK sweep
//! checkpoints, FGFS failure snapshots and FGFL fleet checkpoints differ in
//! nothing else. [`open`] checks length, magic, checksum, version —
//! in that order, so a damaged file is reported as damaged, never as a bogus
//! version — and then demands that the payload decode with no byte left over.

use std::fmt;
use std::io::Write as _;
use std::path::Path;

use super::{decode_from_slice, fnv1a, Snap, SnapError};

const HEADER: usize = 4 + 4;
/// Smallest well-formed frame: header, empty payload, checksum.
const MIN_FRAME: usize = HEADER + 8;

/// Why bytes are not the frame [`open`] was asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header plus checksum; nothing else is checkable.
    Truncated {
        /// Bytes present.
        got: usize,
        /// Minimum bytes a frame needs.
        needed: usize,
    },
    /// The leading four bytes are another container's, or not a frame at all.
    BadMagic {
        /// The bytes found.
        found: [u8; 4],
        /// The magic asked for.
        expected: [u8; 4],
    },
    /// The trailing checksum does not match the bytes before it: the file
    /// was cut short mid-payload or damaged.
    Checksum {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum computed over the body.
        computed: u64,
    },
    /// An intact frame written under a different schema version.
    Version {
        /// Version in the frame.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// An intact, same-version frame whose payload does not decode exactly
    /// (FNV-1a is not a MAC: a re-sealed or colliding file gets this far).
    Payload(SnapError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { got, needed } => {
                write!(f, "truncated: {got} bytes, a frame needs at least {needed}")
            }
            FrameError::BadMagic { found, expected } => {
                let (found, expected) = (found.escape_ascii(), expected.escape_ascii());
                write!(f, "bad magic \"{found}\", not a \"{expected}\" file")
            }
            FrameError::Checksum { stored, computed } => {
                write!(f, "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})")
            }
            FrameError::Version { found, expected } => {
                write!(f, "schema version {found} (this build reads and writes {expected})")
            }
            FrameError::Payload(e) => write!(f, "payload does not decode: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames `payload` under `magic` and `version`.
#[must_use]
pub fn seal<T: Snap>(magic: [u8; 4], version: u32, payload: &T) -> Vec<u8> {
    let mut out = magic.to_vec();
    version.encode(&mut out);
    payload.encode(&mut out);
    fnv1a(&out).encode(&mut out);
    out
}

/// Reads a frame's version after checking only its length and magic: the
/// first two of [`open`]'s checks, which compares the version only once the
/// checksum has held.
fn peek_version(magic: [u8; 4], bytes: &[u8]) -> Result<u32, FrameError> {
    if bytes.len() < MIN_FRAME {
        return Err(FrameError::Truncated { got: bytes.len(), needed: MIN_FRAME });
    }
    let found: [u8; 4] = bytes[..4].try_into().expect("4-byte magic");
    if found != magic {
        return Err(FrameError::BadMagic { found, expected: magic });
    }
    Ok(u32::from_le_bytes(bytes[4..HEADER].try_into().expect("4-byte version")))
}

/// Strictly decodes a frame sealed under `magic` and `version`.
///
/// # Errors
///
/// The first check that fails, in the order of [`FrameError`]'s variants.
pub fn open<T: Snap>(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<T, FrameError> {
    let found = peek_version(magic, bytes)?;
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte checksum"));
    let computed = fnv1a(body);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    if found != version {
        return Err(FrameError::Version { found, expected: version });
    }
    decode_from_slice(&body[HEADER..]).map_err(FrameError::Payload)
}

/// Writes `contents` to `path` atomically: a temporary sibling, unique per
/// process, is written and fsynced, renamed over `path`, and the directory
/// entry is fsynced. A crash at any moment leaves the old file or the new
/// one under `path`, never a torn mix.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on failure.
pub fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("file");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)?;
        // Makes the rename itself durable. Platforms that cannot open a
        // directory as a file have no such call to make.
        std::fs::File::open(dir).map_or(Ok(()), |d| d.sync_all())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The corruption drill every container inherits: whatever the magic,
        /// version and payload, `open` accepts exactly what `seal` wrote and
        /// names every other input's first defect.
        #[test]
        fn open_accepts_only_what_seal_wrote(
            magic in any::<u32>(),
            version in any::<u32>(),
            payload in prop::collection::vec(any::<u8>(), 0..200),
            salt in any::<u64>(),
            flip in 0u32..8,
        ) {
            let magic = magic.to_le_bytes();
            let bytes = seal(magic, version, &payload);
            prop_assert_eq!(bytes.len(), MIN_FRAME + 8 + payload.len());
            prop_assert_eq!(open::<Vec<u8>>(magic, version, &bytes), Ok(payload.clone()));
            prop_assert_eq!(peek_version(magic, &bytes), Ok(version));

            for cut in 0..bytes.len() {
                let err = open::<Vec<u8>>(magic, version, &bytes[..cut]).expect_err("cut");
                if cut < MIN_FRAME {
                    prop_assert_eq!(err, FrameError::Truncated { got: cut, needed: MIN_FRAME });
                } else {
                    prop_assert!(matches!(err, FrameError::Checksum { .. }), "cut {cut}: {err}");
                }
            }

            for pos in (salt as usize % 5..bytes.len()).step_by(5) {
                let mut evil = bytes.clone();
                evil[pos] ^= 1 << flip;
                let err = open::<Vec<u8>>(magic, version, &evil).expect_err("flip");
                if pos < 4 {
                    let found = evil[..4].try_into().expect("magic");
                    prop_assert_eq!(err, FrameError::BadMagic { found, expected: magic });
                } else {
                    prop_assert!(matches!(err, FrameError::Checksum { .. }), "flip {pos}: {err}");
                }
            }

            // A foreign version is named only once the checksum has vouched
            // for the field it is read from; `peek_version` reads it anyway.
            let foreign = seal(magic, version ^ 1, &payload);
            prop_assert_eq!(
                open::<Vec<u8>>(magic, version, &foreign),
                Err(FrameError::Version { found: version ^ 1, expected: version })
            );
            prop_assert_eq!(peek_version(magic, &foreign), Ok(version ^ 1));

            let trailing = seal(magic, version, &(payload.clone(), salt as u8));
            prop_assert_eq!(
                open::<Vec<u8>>(magic, version, &trailing),
                Err(FrameError::Payload(SnapError::Invalid("trailing bytes after value")))
            );
            let cut_short = seal(magic, version, &salt);
            prop_assert!(matches!(
                open::<(u64, u8)>(magic, version, &cut_short),
                Err(FrameError::Payload(SnapError::UnexpectedEof))
            ));

            let mut other = magic;
            other[salt as usize % 4] ^= 0x20;
            let wrong = FrameError::BadMagic { found: magic, expected: other };
            prop_assert_eq!(open::<Vec<u8>>(other, version, &bytes), Err(wrong.clone()));
            prop_assert_eq!(peek_version(other, &bytes), Err(wrong));
        }
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temporary() {
        let dir = std::env::temp_dir().join(format!("fgqos-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("out.bin");
        write_atomic(&path, b"old").expect("first write");
        write_atomic(&path, b"new contents").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"new contents");
        assert_eq!(std::fs::read_dir(&dir).expect("list").count(), 1, "temporary is gone");
        assert!(write_atomic(&dir.join("missing/out.bin"), b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_error_displays() {
        for e in [
            FrameError::Truncated { got: 1, needed: 16 },
            FrameError::BadMagic { found: *b"ABCD", expected: *b"FGCK" },
            FrameError::Checksum { stored: 1, computed: 2 },
            FrameError::Version { found: 2, expected: 1 },
            FrameError::Payload(SnapError::UnexpectedEof),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
