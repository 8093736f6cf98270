//! Snapshot codec: a small, dependency-free binary serialization layer.
//!
//! The checkpoint/restore subsystem needs every state-carrying struct in the
//! simulator to round-trip through bytes bit-exactly. The [`Snap`] trait plus
//! the [`impl_snap_struct!`](crate::impl_snap_struct) /
//! [`impl_snap_enum!`](crate::impl_snap_enum) macros generate field-by-field
//! encoders without a proc macro or a dependency. [`frame`] wraps an encoded
//! value in the one checksummed file frame every on-disk container uses.
//!
//! Format notes:
//! * integers are little-endian fixed width; `usize` travels as `u64`,
//! * `f64` travels as its IEEE-754 bit pattern (restores are bit-exact,
//!   including NaN payloads),
//! * sequences are a `u64` length followed by the elements,
//! * enums are a `u8` tag followed by the variant's fields.
//!
//! The format carries no field names or type tags beyond enum discriminants;
//! compatibility across schema changes is handled one level up by
//! [`crate::gpu::SNAPSHOT_SCHEMA_VERSION`] refusing to decode blobs from a
//! different schema at all.

use std::fmt;
use std::sync::Arc;

use crate::types::KernelId;

pub mod frame;

/// Error decoding a snapshot byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the value was fully decoded.
    UnexpectedEof,
    /// The bytes decoded to a structurally invalid value (bad enum tag,
    /// out-of-range length, …). The message names the offending type.
    Invalid(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof => write!(f, "snapshot stream ended unexpectedly"),
            SnapError::Invalid(what) => write!(f, "invalid snapshot encoding for {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Cursor over a snapshot byte stream being decoded.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Takes the next `n` bytes, or fails if fewer remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::UnexpectedEof)?;
        if end > self.buf.len() {
            return Err(SnapError::UnexpectedEof);
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// A value that can be snapshotted to bytes and restored bit-exactly.
///
/// `decode(encode(x)) == x` for every reachable state `x`; the differential
/// proptests in `tests/snapshot.rs` hold the whole simulator to this.
pub trait Snap: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value from the reader.
    ///
    /// # Errors
    ///
    /// [`SnapError`] when the stream is truncated or structurally invalid.
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Appends the encodings of `items` back to back — what sequences write
    /// after their length. The integers override it (and
    /// [`Snap::decode_vec`]) with bulk copies that produce the same bytes:
    /// snapshot payloads and the cache and scoreboard columns are megabytes
    /// of them.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` values laid out back to back.
    ///
    /// # Errors
    ///
    /// [`SnapError`] as for [`Snap::decode`].
    fn decode_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapError> {
        // Clamp pre-allocation so a corrupt length can't trigger a huge
        // allocation before the first element decode fails on EOF.
        let mut v = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            v.push(Self::decode(r)?);
        }
        Ok(v)
    }
}

/// Encodes a value into a fresh byte vector.
pub fn encode_to_vec<T: Snap>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a byte slice, requiring the slice to be fully
/// consumed.
///
/// # Errors
///
/// [`SnapError`] when decoding fails or trailing bytes remain.
pub fn decode_from_slice<T: Snap>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = SnapReader::new(bytes);
    let value = T::decode(&mut r)?;
    if !r.is_exhausted() {
        return Err(SnapError::Invalid("trailing bytes after value"));
    }
    Ok(value)
}

/// FNV-1a over a byte slice: frame checksums, config fingerprints and
/// [`crate::trace::records_hash`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

macro_rules! impl_snap_int {
    ($($ty:ty),+) => {
        $(impl Snap for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                let bytes = r.take(std::mem::size_of::<$ty>())?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const SIZE: usize = std::mem::size_of::<$ty>();
                // One growth, then fixed-width stores the compiler can
                // vectorise; `extend_from_slice` per item re-checks capacity.
                let start = out.len();
                out.resize(start + SIZE * items.len(), 0);
                for (chunk, item) in out[start..].chunks_exact_mut(SIZE).zip(items) {
                    chunk.copy_from_slice(&item.to_le_bytes());
                }
            }
            fn decode_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapError> {
                const SIZE: usize = std::mem::size_of::<$ty>();
                // `take` bounds the length against the stream before
                // anything is allocated.
                let bytes = r.take(len.checked_mul(SIZE).ok_or(SnapError::UnexpectedEof)?)?;
                let item = |c: &[u8]| <$ty>::from_le_bytes(c.try_into().expect("exact chunk"));
                Ok(bytes.chunks_exact(SIZE).map(item).collect())
            }
        })+
    };
}

impl_snap_int!(u16, u32, u64, u128, i8, i16, i32, i64);

impl Snap for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(r.take(1)?[0])
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_vec(r: &mut SnapReader<'_>, len: usize) -> Result<Vec<Self>, SnapError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Snap for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        usize::try_from(u64::decode(r)?).map_err(|_| SnapError::Invalid("usize"))
    }
}

impl Snap for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Invalid("bool")),
        }
    }
}

impl Snap for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Snap for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Invalid("utf-8 string"))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_slice(self, out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        T::decode_vec(r, len)
    }
}

impl<T: Snap> Snap for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(SnapError::Invalid("Option tag")),
        }
    }
}

impl<T: Snap, E: Snap> Snap for Result<T, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Ok(v) => {
                out.push(0);
                v.encode(out);
            }
            Err(e) => {
                out.push(1);
                e.encode(out);
            }
        }
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(Ok(T::decode(r)?)),
            1 => Ok(Err(E::decode(r)?)),
            _ => Err(SnapError::Invalid("Result tag")),
        }
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        T::encode_slice(self, out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        T::decode_vec(r, N)?.try_into().map_err(|_| SnapError::Invalid("array length"))
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// A kernel id travels as its slot byte and indexes `PerKernel` arrays the
/// moment it is decoded, so the range [`KernelId::new`] asserts is checked
/// here.
impl Snap for KernelId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let slot = u8::decode(r)?;
        if usize::from(slot) >= crate::MAX_KERNELS {
            return Err(SnapError::Invalid("KernelId"));
        }
        Ok(KernelId(slot))
    }
}

/// An SM's slot mask travels as a sequence of one word: a `u64` length of 1,
/// then the word, the layout of snapshot schema 10. Any other length is
/// refused, so a decoded mask is always the whole mask.
impl Snap for crate::sm::SlotMask {
    fn encode(&self, out: &mut Vec<u8>) {
        (1u64, self.0).encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match u64::decode(r)? {
            1 => Ok(crate::sm::SlotMask(u64::decode(r)?)),
            _ => Err(SnapError::Invalid("slot mask length")),
        }
    }
}

/// A slot column travels as the `Vec` of its slots in use: a `u64` length,
/// then each slot. A length past the 64 slots an SM has is refused before a
/// slot is read; one that differs from the SM's slot count is refused by
/// `Sm::warps_fit`.
impl<T: Snap + crate::sm::Vacant> Snap for crate::sm::SlotColumn<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.len().encode(out);
        T::encode_slice(self, out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        if len > crate::sm::MAX_SLOTS {
            return Err(SnapError::Invalid("slot column length"));
        }
        let mut column = Self::new(len);
        for slot in column.iter_mut() {
            *slot = T::decode(r)?;
        }
        Ok(column)
    }
}

/// `Arc` snapshots its inner value; decoding creates a fresh, unshared
/// allocation. The simulator never relies on `Arc` pointer identity (SMs and
/// the TB scheduler only read through it), so restored clones are
/// behaviorally identical.
impl<T: Snap> Snap for Arc<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

/// `Box` is transparent on the wire: the inner value's bytes, nothing else.
impl<T: Snap> Snap for Box<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (**self).encode(out);
    }
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Box::new(T::decode(r)?))
    }
}

/// Implements [`Snap`] for a struct by encoding the listed fields in order.
///
/// Must be invoked inside the module that can see the fields. An optional
/// trailing `skip { .. }` block names fields that are *not* persisted; they
/// decode as `Default::default()` (scratch that is empty between the
/// simulator's public calls, which is the only place snapshots are taken,
/// or configuration a restore takes from the receiver). A skipped field may
/// carry attributes (`#[cfg(test)]` on a mutation switch).
#[macro_export]
macro_rules! impl_snap_struct {
    ($ty:ty { $($field:tt),+ $(,)? }) => {
        $crate::impl_snap_struct!($ty { $($field),+ } skip {});
    };
    ($ty:ty { $($field:tt),+ $(,)? }
        skip { $($(#[$attr:meta])* $scratch:ident),* $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::snap::Snap::encode(&self.$field, out);)+
            }
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                Ok(Self {
                    $($field: $crate::snap::Snap::decode(r)?,)+
                    $($(#[$attr])* $scratch: Default::default(),)*
                })
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a `u8` tag followed by the variant's
/// fields in the order written — the one place that layout is decided.
///
/// Each variant is declared in its own shape with its tag: `Unit = 0`,
/// `Struct { a, b } = 1`, `Tuple(x) = 2` (a tuple variant's names are only
/// bindings). An undeclared tag decodes to [`SnapError::Invalid`] naming the
/// type.
#[macro_export]
macro_rules! impl_snap_enum {
    ($ty:ty { $(
        $variant:ident $({ $($field:ident),+ $(,)? })? $(( $($elem:ident),+ $(,)? ))? = $tag:literal
    ),+ $(,)? }) => {
        impl $crate::snap::Snap for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Self::$variant $({ $($field),+ })? $(( $($elem),+ ))? => {
                        out.push($tag);
                        $($($crate::snap::Snap::encode($field, out);)+)?
                        $($($crate::snap::Snap::encode($elem, out);)+)?
                    })+
                }
            }
            fn decode(
                r: &mut $crate::snap::SnapReader<'_>,
            ) -> Result<Self, $crate::snap::SnapError> {
                match <u8 as $crate::snap::Snap>::decode(r)? {
                    $($tag => {
                        $($(let $field = $crate::snap::Snap::decode(r)?;)+)?
                        $($(let $elem = $crate::snap::Snap::decode(r)?;)+)?
                        Ok(Self::$variant $({ $($field),+ })? $(( $($elem),+ ))?)
                    })+
                    _ => Err($crate::snap::SnapError::Invalid(stringify!($ty))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-12345i64);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(f64::NEG_INFINITY);
        round_trip(1.5f64);
        round_trip("héllo".to_string());
    }

    #[test]
    fn nan_payload_survives() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let bytes = encode_to_vec(&weird);
        let back: f64 = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip(Some(7u16));
        round_trip(Option::<u16>::None);
        round_trip([1u8, 2, 3, 4]);
        round_trip((42u64, "x".to_string()));
        round_trip(Ok::<u32, String>(5));
        round_trip(Err::<u32, String>("boom".to_string()));
    }

    #[test]
    fn bulk_integer_sequences_keep_the_element_wise_wire_format() {
        fn element_wise<T: Snap>(items: &[T]) -> Vec<u8> {
            let mut out = encode_to_vec(&items.len());
            for item in items {
                item.encode(&mut out);
            }
            out
        }
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(encode_to_vec(&bytes), element_wise(&bytes));
        round_trip(bytes);
        let words = vec![0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        assert_eq!(encode_to_vec(&words), element_wise(&words));
        let signed = vec![i16::MIN, -1, 0, i16::MAX];
        assert_eq!(encode_to_vec(&signed), element_wise(&signed));
        round_trip(signed);
        assert_eq!(encode_to_vec(&[7u32, 8, 9]), element_wise(&[7u32, 8, 9])[8..]);
        // A truncated bulk payload fails like a truncated element did.
        let mut cut = encode_to_vec(&words);
        cut.pop();
        assert_eq!(decode_from_slice::<Vec<u64>>(&cut), Err(SnapError::UnexpectedEof));
        assert_eq!(
            decode_from_slice::<Vec<u8>>(&[2, 0, 0, 0, 0, 0, 0, 0, 9]),
            Err(SnapError::UnexpectedEof)
        );
    }

    #[test]
    fn arc_round_trips_by_value() {
        let a = Arc::new(99u64);
        let bytes = encode_to_vec(&a);
        let back: Arc<u64> = decode_from_slice(&bytes).expect("decode");
        assert_eq!(*back, 99);
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = encode_to_vec(&12345u64);
        let err = decode_from_slice::<u64>(&bytes[..4]).expect_err("truncated");
        assert_eq!(err, SnapError::UnexpectedEof);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0);
        assert!(decode_from_slice::<u8>(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_fails_without_huge_allocation() {
        let mut bytes = Vec::new();
        u64::MAX.encode(&mut bytes); // absurd element count
        let err = decode_from_slice::<Vec<u64>>(&bytes).expect_err("corrupt length");
        assert_eq!(err, SnapError::UnexpectedEof);
    }

    #[test]
    fn bad_enum_tags_are_invalid() {
        assert!(matches!(decode_from_slice::<bool>(&[9]), Err(SnapError::Invalid("bool"))));
        assert!(matches!(decode_from_slice::<Option<u8>>(&[7]), Err(SnapError::Invalid(_))));
    }

    #[test]
    fn kernel_ids_past_the_last_slot_are_invalid() {
        let last = crate::MAX_KERNELS as u8 - 1;
        assert_eq!(decode_from_slice::<KernelId>(&[last]), Ok(KernelId(last)));
        for slot in [last + 1, u8::MAX] {
            assert_eq!(decode_from_slice::<KernelId>(&[slot]), Err(SnapError::Invalid("KernelId")));
        }
    }

    #[test]
    fn a_slot_column_encodes_as_the_vec_of_its_slots_in_use() {
        use crate::sm::SlotColumn;
        for len in [61, 64] {
            let mut ages = SlotColumn::<u64>::new(len);
            let mut kernels = SlotColumn::<KernelId>::new(len);
            for slot in 0..len {
                ages[slot] = (slot as u64) << 40 | 7;
                kernels[slot] = KernelId((slot % 4) as u8);
            }
            let bytes = encode_to_vec(&kernels);
            assert_eq!(bytes, encode_to_vec(&kernels.to_vec()), "{len} kernel slots");
            assert_eq!(encode_to_vec(&ages), encode_to_vec(&ages.to_vec()), "{len} ages");
            let back: SlotColumn<u64> = decode_from_slice(&encode_to_vec(&ages)).expect("decodes");
            assert_eq!(*back, *ages);
            if len == 61 {
                // A length word, then one byte a slot.
                assert_eq!(bytes.len(), 8 + 61);
                assert_eq!(bytes[..13], [61, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 0]);
            }
        }
    }

    #[test]
    fn a_slot_column_past_64_slots_is_invalid() {
        use crate::sm::SlotColumn;
        let decode = |bytes: &[u8]| decode_from_slice::<SlotColumn<u16>>(bytes).err();
        let refused = Some(SnapError::Invalid("slot column length"));
        assert_eq!(decode(&encode_to_vec(&vec![0u16; 65])), refused);
        // Refused on the length word alone, before any slot is read.
        assert_eq!(decode(&65u64.to_le_bytes()), refused);
        assert_eq!(decode(&u64::MAX.to_le_bytes()), refused);
        let full: SlotColumn<u16> = decode_from_slice(&encode_to_vec(&vec![3u16; 64])).expect("64");
        assert_eq!(full.len(), 64);
    }

    #[test]
    fn fnv_matches_known_vector() {
        // FNV-1a of the empty string is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: Vec<u8>,
        scratch: Vec<u64>,
    }
    crate::impl_snap_struct!(Demo { a, b } skip { scratch });

    #[test]
    fn struct_macro_skips_scratch_fields() {
        let d = Demo { a: 7, b: vec![1, 2], scratch: vec![9, 9, 9] };
        let bytes = encode_to_vec(&d);
        let back: Demo = decode_from_slice(&bytes).expect("decode");
        assert_eq!(back.a, 7);
        assert_eq!(back.b, vec![1, 2]);
        assert!(back.scratch.is_empty(), "scratch fields restore empty");
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Unit,
        Struct { a: u32, b: Vec<u8> },
        Tuple(u64, Box<Option<u16>>),
    }
    crate::impl_snap_enum!(Shape { Unit = 0, Struct { a, b } = 4, Tuple(x, y) = 2 });

    #[test]
    fn enum_macro_round_trips_and_rejects_bad_tags() {
        // The tag, then the fields in the order declared.
        let s = Shape::Struct { a: 0x0102, b: vec![9] };
        let t = Shape::Tuple(7, Box::new(Some(3)));
        assert_eq!(encode_to_vec(&Shape::Unit), [0]);
        assert_eq!(encode_to_vec(&s), [4, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 9]);
        assert_eq!(encode_to_vec(&t), [2, 7, 0, 0, 0, 0, 0, 0, 0, 1, 3, 0]);
        for v in [Shape::Unit, s, t] {
            round_trip(v);
        }
        assert_eq!(decode_from_slice::<Shape>(&[3]), Err(SnapError::Invalid("Shape")));
    }

    mod bulk_codec_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For every integer type the bulk `encode_slice` appends exactly
            /// the bytes the per-item `encode` does, whatever `out` already
            /// holds, and `decode_vec` reads them back.
            #[test]
            fn encode_slice_is_the_concatenation_of_encode(
                words in prop::collection::vec(any::<u64>(), 0..=257),
                lead in 0usize..9,
            ) {
                let wide = |w: u64| u128::from(w) << 64 | u128::from(w.rotate_left(17));
                macro_rules! check {
                    ($($ty:ty),+) => {$({
                        let items: Vec<$ty> = words.iter().map(|&w| wide(w) as $ty).collect();
                        let mut bulk = vec![0xaa; lead];
                        let mut each = bulk.clone();
                        <$ty>::encode_slice(&items, &mut bulk);
                        for item in &items {
                            item.encode(&mut each);
                        }
                        prop_assert_eq!(&bulk, &each, "{}", stringify!($ty));
                        let back = <$ty>::decode_vec(&mut SnapReader::new(&bulk[lead..]), items.len());
                        prop_assert_eq!(back, Ok(items), "{}", stringify!($ty));
                    })+};
                }
                check!(u8, u16, u32, u64, u128, i8, i16, i32, i64);
            }
        }
    }

    mod enum_macro_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Every variant shape round-trips, every proper prefix of an
            /// encoding is refused, and so is every tag not declared.
            #[test]
            fn declared_enums_round_trip_and_refuse_the_rest(
                pick in 0u8..3,
                a in any::<u32>(),
                b in proptest::collection::vec(any::<u8>(), 0..9),
                x in any::<u64>(),
                y in any::<u16>(),
                tag in any::<u8>(),
            ) {
                let value = match pick {
                    0 => Shape::Unit,
                    1 => Shape::Struct { a, b },
                    _ => Shape::Tuple(x, Box::new(y.is_multiple_of(2).then_some(y))),
                };
                let bytes = encode_to_vec(&value);
                prop_assert_eq!(decode_from_slice::<Shape>(&bytes), Ok(value));
                for cut in 0..bytes.len() {
                    prop_assert!(decode_from_slice::<Shape>(&bytes[..cut]).is_err(), "cut {}", cut);
                }
                if ![0, 4, 2].contains(&tag) {
                    let mut undeclared = bytes;
                    undeclared[0] = tag;
                    let refused = decode_from_slice::<Shape>(&undeclared);
                    prop_assert_eq!(refused, Err(SnapError::Invalid("Shape")));
                }
            }
        }
    }
}
