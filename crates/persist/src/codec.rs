//! Byte-level primitives and the [`Persist`] trait.

use std::error::Error;
use std::fmt;

/// Why a byte buffer failed to decode.
///
/// Every failure mode of the persistence layer is a variant here — decode
/// paths return errors, they never panic, so a corrupted checkpoint file
/// degrades a resume into a fresh start instead of crashing the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not begin with the checkpoint magic.
    BadMagic,
    /// The record was written by a newer (or unknown) format version.
    UnsupportedVersion {
        /// The version stored in the record.
        found: u16,
        /// The newest version this build can read.
        supported: u16,
    },
    /// The buffer ended before the value did.
    Truncated {
        /// Bytes the next read needed.
        needed: u64,
        /// Bytes actually remaining.
        available: u64,
    },
    /// The record's checksum does not match its payload.
    ChecksumMismatch {
        /// The checksum stored in the record.
        stored: u32,
        /// The checksum computed over the bytes actually present.
        computed: u32,
    },
    /// A field held a value outside its type's domain (an unknown enum
    /// tag, a non-boolean boolean, a length that overflows `usize`, …).
    InvalidValue {
        /// Which field or type rejected the value.
        what: &'static str,
    },
    /// The buffer continued after the value ended.
    TrailingBytes {
        /// How many bytes were left over.
        count: u64,
    },
    /// The record's kind tag names a payload type this reader does not
    /// know (a checkpoint from a different device class, or a future
    /// record type).
    UnknownKind {
        /// The kind tag found in the record.
        found: String,
    },
    /// Reading the underlying file failed.
    Io {
        /// The path that failed.
        path: String,
        /// The operating-system error, stringified.
        message: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a checkpoint record (bad magic)"),
            DecodeError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} is newer than the supported {supported}"
            ),
            DecodeError::Truncated { needed, available } => write!(
                f,
                "checkpoint truncated: needed {needed} more bytes, {available} available"
            ),
            DecodeError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::InvalidValue { what } => {
                write!(f, "checkpoint field `{what}` holds an invalid value")
            }
            DecodeError::TrailingBytes { count } => {
                write!(f, "checkpoint has {count} trailing bytes after the payload")
            }
            DecodeError::UnknownKind { found } => {
                write!(f, "unknown checkpoint record kind `{found}`")
            }
            DecodeError::Io { path, message } => {
                write!(f, "reading checkpoint `{path}`: {message}")
            }
        }
    }
}

impl Error for DecodeError {}

/// Appends values to a growing byte buffer in the canonical wire form.
///
/// All integers are little-endian and fixed-width; floats are their
/// IEEE-754 bit patterns; strings and sequences carry a `u64` length
/// prefix.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, yielding its buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// An encoder that appends to `buf`, keeping its bytes and capacity
    /// (take it back with [`Encoder::into_bytes`]).
    pub(crate) fn from_vec(buf: Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Appends bytes as they are, with no length prefix.
    pub(crate) fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (exact round trip,
    /// including signed zeros and NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one byte (`0` or `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed byte block.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Reads values back out of a byte buffer, validating every access.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated {
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean; any byte other than `0`/`1` is invalid.
    pub fn get_bool(&mut self) -> Result<bool, DecodeError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::InvalidValue { what: "bool" }),
        }
    }

    /// Reads a length prefix as a `usize`, guarding against platforms
    /// where `usize` is narrower than `u64`.
    pub fn get_len(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.get_u64()?).map_err(|_| DecodeError::InvalidValue { what: "length" })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, DecodeError> {
        self.get_str().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowing from the buffer.
    pub(crate) fn get_str(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.get_len()?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| DecodeError::InvalidValue { what: "utf-8" })
    }

    /// Reads a length-prefixed byte block, borrowing from the buffer.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.get_len()?;
        self.take(len)
    }

    /// Asserts the buffer is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::TrailingBytes`] if bytes remain.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() > 0 {
            Err(DecodeError::TrailingBytes {
                count: self.remaining() as u64,
            })
        } else {
            Ok(())
        }
    }
}

/// A type with a canonical, lossless byte form.
///
/// The contract is exact round-tripping: for every value `x`,
/// `T::decode(&mut Decoder::new(encode(x)))` must reproduce a value equal
/// to `x`, and decoding must consume exactly the bytes encoding produced.
/// Decode must return a [`DecodeError`] — never panic — on any byte
/// sequence, however corrupted.
pub trait Persist: Sized {
    /// Appends this value's canonical byte form to `w`.
    fn encode(&self, w: &mut Encoder);

    /// Parses a value back out of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the bytes are truncated or hold a
    /// value outside this type's domain.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Implements [`Persist`] for a plain struct from one field list.
///
/// `persist_struct! { Type { a, b, c } }` encodes `a`, `b` and `c` in
/// that order, each through its own [`Persist`] impl, and decodes them
/// back as a struct literal in the same order: the one list *is* the
/// byte format, for both directions. Reordering it, or adding or
/// removing a field, changes the bytes, so it needs a new record kind
/// tag.
///
/// `persist_struct! { Type { a, b }, check = validate }` additionally
/// runs `validate: fn(&Type) -> Result<(), DecodeError>` on the decoded
/// value and returns its error unchanged. That is where a type's
/// structural invariants (lengths matching a geometry, positive rates)
/// are checked, so corrupted bytes fail typed instead of panicking later.
///
/// Invocations use braces, which `rustfmt` leaves alone, so a field list
/// stays one wrapped line instead of one line per field.
///
/// ```
/// use uc_persist::{ensure, persist_struct, DecodeError, Decoder, Encoder, Persist};
///
/// #[derive(Debug, PartialEq)]
/// struct Lane {
///     depth: u32,
///     name: String,
/// }
/// persist_struct! { Lane { depth, name }, check = check_lane }
///
/// fn check_lane(lane: &Lane) -> Result<(), DecodeError> {
///     ensure(lane.depth > 0, "Lane.depth")
/// }
///
/// let lane = Lane { depth: 4, name: "lane0".into() };
/// let mut w = Encoder::new();
/// lane.encode(&mut w);
/// assert_eq!(Lane::decode(&mut Decoder::new(w.as_bytes())), Ok(lane));
/// ```
#[macro_export]
macro_rules! persist_struct {
    ($ty:ident { $($field:ident),+ $(,)? } $(, check = $check:expr)?) => {
        impl $crate::Persist for $ty {
            fn encode(&self, w: &mut $crate::Encoder) {
                $($crate::Persist::encode(&self.$field, w);)+
            }

            fn decode(
                r: &mut $crate::Decoder<'_>,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                let value = $ty {
                    $($field: $crate::Persist::decode(r)?,)+
                };
                $($check(&value)?;)?
                ::core::result::Result::Ok(value)
            }
        }
    };
}

/// Implements [`Persist`] for a tagged enum from one variant table.
///
/// `persist_enum! { Type { 0 = Unit, 1 = Tuple(a, b), 2 = Named { x, y } } }`
/// encodes a value as its variant's tag byte followed by the variant's
/// fields in the listed order, each through its own [`Persist`] impl.
/// Decode reads the tag, then the same fields in the same order: the one
/// table *is* the byte format, for both directions. A tuple variant's
/// names are only bindings; a named variant lists its own field names.
/// A tag the table does not list decodes to
/// [`DecodeError::InvalidValue`] with `what` set to `"Type tag"`.
///
/// `check = validate` runs `validate: fn(&Type) -> Result<(), DecodeError>`
/// on the decoded value, as in [`persist_struct!`].
///
/// ```
/// use uc_persist::{persist_enum, DecodeError, Decoder, Encoder, Persist};
///
/// #[derive(Debug, PartialEq)]
/// enum Limit {
///     None,
///     Ios(u64),
///     Window { start: u64, len: u32 },
/// }
/// persist_enum! { Limit { 0 = None, 1 = Ios(n), 2 = Window { start, len } } }
///
/// let mut w = Encoder::new();
/// Limit::Ios(7).encode(&mut w);
/// assert_eq!(w.as_bytes(), &[1, 7, 0, 0, 0, 0, 0, 0, 0]);
/// assert_eq!(Limit::decode(&mut Decoder::new(w.as_bytes())), Ok(Limit::Ios(7)));
/// assert_eq!(
///     Limit::decode(&mut Decoder::new(&[3])),
///     Err(DecodeError::InvalidValue { what: "Limit tag" })
/// );
/// ```
#[macro_export]
macro_rules! persist_enum {
    (
        $ty:ident {
            $($tag:literal = $variant:ident
                $(( $($arg:ident),+ $(,)? ))?
                $({ $($field:ident),+ $(,)? })?
            ),+ $(,)?
        } $(, check = $check:expr)?
    ) => {
        impl $crate::Persist for $ty {
            fn encode(&self, w: &mut $crate::Encoder) {
                match self {
                    $($ty::$variant $(($($arg),+))? $({ $($field),+ })? => {
                        w.put_u8($tag);
                        $($($crate::Persist::encode($arg, w);)+)?
                        $($($crate::Persist::encode($field, w);)+)?
                    })+
                }
            }

            fn decode(
                r: &mut $crate::Decoder<'_>,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                let value = match r.get_u8()? {
                    $($tag => {
                        $($(let $arg = $crate::Persist::decode(r)?;)+)?
                        $($(let $field = $crate::Persist::decode(r)?;)+)?
                        $ty::$variant $(($($arg),+))? $({ $($field),+ })?
                    })+
                    _ => {
                        return ::core::result::Result::Err($crate::DecodeError::InvalidValue {
                            what: concat!(stringify!($ty), " tag"),
                        })
                    }
                };
                $($check(&value)?;)?
                ::core::result::Result::Ok(value)
            }
        }
    };
}

/// `Ok(())` if `valid` holds, else [`DecodeError::InvalidValue`] naming
/// `what` — the one-line form of a decode-time validation.
///
/// # Errors
///
/// Returns [`DecodeError::InvalidValue`] when `valid` is false.
pub fn ensure(valid: bool, what: &'static str) -> Result<(), DecodeError> {
    if valid {
        Ok(())
    } else {
        Err(DecodeError::InvalidValue { what })
    }
}

macro_rules! persist_prim {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Persist for $ty {
            fn encode(&self, w: &mut Encoder) {
                w.$put(*self);
            }
            fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                r.$get()
            }
        }
    };
}

persist_prim!(u8, put_u8, get_u8);
persist_prim!(u16, put_u16, get_u16);
persist_prim!(u32, put_u32, get_u32);
persist_prim!(u64, put_u64, get_u64);
persist_prim!(i64, put_i64, get_i64);
persist_prim!(f64, put_f64, get_f64);
persist_prim!(bool, put_bool, get_bool);

/// The empty value: no bytes.
impl Persist for () {
    fn encode(&self, _w: &mut Encoder) {}
    fn decode(_r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(())
    }
}

impl Persist for usize {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(*self as u64);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.get_len()
    }
}

impl Persist for String {
    fn encode(&self, w: &mut Encoder) {
        w.put_str(self);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        r.get_string()
    }
}

impl<T: Persist> Persist for Box<T> {
    fn encode(&self, w: &mut Encoder) {
        (**self).encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        T::decode(r).map(Box::new)
    }
}

impl<T: Persist> Persist for Option<T> {
    fn encode(&self, w: &mut Encoder) {
        match self {
            None => w.put_bool(false),
            Some(v) => {
                w.put_bool(true);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        if r.get_bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn encode(&self, w: &mut Encoder) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let len = r.get_len()?;
        // A corrupted length cannot force a huge allocation: capacity is
        // bounded by the bytes actually present (each element consumes at
        // least one), and element decoding fails `Truncated` before the
        // phantom tail is reached.
        let mut items = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn encode(&self, w: &mut Encoder) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Persist, B: Persist, C: Persist> Persist for (A, B, C) {
    fn encode(&self, w: &mut Encoder) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl Persist for [u64; 4] {
    fn encode(&self, w: &mut Encoder) {
        for v in self {
            w.put_u64(*v);
        }
    }
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok([r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Encoder::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        let back = T::decode(&mut r).expect("decodes");
        r.finish().expect("fully consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(-42i64);
        round_trip(std::f64::consts::PI);
        round_trip(-0.0f64);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
        round_trip(String::from("héllo wörld"));
        round_trip(String::new());
        round_trip(Option::<u64>::None);
        round_trip(Some(7u64));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u32>::new());
        round_trip((1u64, String::from("x")));
        round_trip((1u64, 2u32, 3u8));
        round_trip([1u64, 2, 3, 4]);
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let mut w = Encoder::new();
        f64::NAN.encode(&mut w);
        let bytes = w.into_bytes();
        let back = f64::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = Encoder::new();
        12345u64.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes[..5]);
        assert!(matches!(
            u64::decode(&mut r),
            Err(DecodeError::Truncated { needed: 8, .. })
        ));
    }

    #[test]
    fn invalid_bool_and_utf8_are_typed() {
        let mut r = Decoder::new(&[7]);
        assert_eq!(
            bool::decode(&mut r),
            Err(DecodeError::InvalidValue { what: "bool" })
        );
        let mut w = Encoder::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        assert_eq!(
            String::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::InvalidValue { what: "utf-8" })
        );
    }

    #[test]
    fn huge_claimed_length_fails_without_allocating() {
        // A corrupt length prefix claims 2^60 elements backed by 0 bytes.
        let mut w = Encoder::new();
        w.put_u64(1 << 60);
        let bytes = w.into_bytes();
        assert!(matches!(
            Vec::<u64>::decode(&mut Decoder::new(&bytes)),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_typed() {
        let mut w = Encoder::new();
        1u8.encode(&mut w);
        2u8.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Decoder::new(&bytes);
        u8::decode(&mut r).unwrap();
        assert_eq!(r.finish(), Err(DecodeError::TrailingBytes { count: 1 }));
    }

    /// Declared `first, second`; the codec lists them the other way round.
    #[derive(Debug, Clone, PartialEq)]
    struct Swapped {
        first: u8,
        second: u32,
    }
    crate::persist_struct! { Swapped { second, first } }

    /// A field of every container shape, validated after decoding.
    #[derive(Debug, Clone, PartialEq)]
    struct Checked {
        id: u64,
        name: String,
        parts: Vec<(u32, bool)>,
        limit: Option<usize>,
        ratio: f64,
    }
    crate::persist_struct! { Checked { id, name, parts, limit, ratio }, check = check_ratio }

    fn check_ratio(c: &Checked) -> Result<(), DecodeError> {
        ensure(c.ratio >= 0.0, "Checked.ratio")
    }

    fn checked() -> Checked {
        Checked {
            id: 7,
            name: "lane".into(),
            parts: vec![(1, true), (2, false)],
            limit: Some(3),
            ratio: 0.5,
        }
    }

    #[test]
    fn macro_encodes_in_list_order_not_declaration_order() {
        let value = Swapped {
            first: 0xAA,
            second: 0x0403_0201,
        };
        let mut w = Encoder::new();
        value.encode(&mut w);
        assert_eq!(w.as_bytes(), &[0x01, 0x02, 0x03, 0x04, 0xAA]);
        round_trip(value);
        round_trip(checked());
    }

    #[test]
    fn macro_check_error_comes_back_verbatim() {
        let mut bad = checked();
        bad.ratio = -1.0;
        let mut w = Encoder::new();
        bad.encode(&mut w);
        assert_eq!(
            Checked::decode(&mut Decoder::new(w.as_bytes())),
            Err(DecodeError::InvalidValue {
                what: "Checked.ratio"
            })
        );
    }

    #[test]
    fn macro_decode_of_every_truncated_prefix_is_typed() {
        let mut w = Encoder::new();
        checked().encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let result = Checked::decode(&mut Decoder::new(&bytes[..cut]));
            assert!(
                matches!(result, Err(DecodeError::Truncated { .. })),
                "cut at {cut}: {result:?}"
            );
        }
    }

    /// Every variant shape, tags listed out of declaration order, and a
    /// recursive variant through `Box`.
    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Empty,
        Pair(u8, u32),
        Named { id: u64, label: String },
        Nested(Box<Shape>),
    }
    crate::persist_enum! {
        Shape { 3 = Empty, 0 = Pair(a, b), 1 = Named { id, label }, 7 = Nested(inner) },
        check = check_shape
    }

    fn check_shape(s: &Shape) -> Result<(), DecodeError> {
        ensure(!matches!(s, Shape::Pair(0, _)), "Shape.Pair")
    }

    #[test]
    fn enum_macro_writes_the_listed_tag_then_fields_in_order() {
        let encoded = |s: Shape| {
            let mut w = Encoder::new();
            s.encode(&mut w);
            round_trip(s);
            w.into_bytes()
        };
        assert_eq!(encoded(Shape::Empty), [3]);
        assert_eq!(encoded(Shape::Pair(9, 0x0403_0201)), [0, 9, 1, 2, 3, 4]);
        assert_eq!(
            encoded(Shape::Named {
                id: 5,
                label: "x".into()
            }),
            [1, 5, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, b'x']
        );
        assert_eq!(encoded(Shape::Nested(Box::new(Shape::Empty))), [7, 3]);
    }

    #[test]
    fn enum_macro_rejects_unlisted_tags_and_failed_checks() {
        let tag = Err(DecodeError::InvalidValue { what: "Shape tag" });
        for bad in [&[2u8][..], &[8], &[7, 2], &[255]] {
            assert_eq!(Shape::decode(&mut Decoder::new(bad)), tag, "{bad:?}");
        }
        assert_eq!(
            Shape::decode(&mut Decoder::new(&[0, 0, 1, 0, 0, 0])),
            Err(DecodeError::InvalidValue { what: "Shape.Pair" })
        );
        assert!(matches!(
            Shape::decode(&mut Decoder::new(&[0, 9, 1])),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn errors_display_and_box() {
        let errs: Vec<DecodeError> = vec![
            DecodeError::BadMagic,
            DecodeError::UnsupportedVersion {
                found: 9,
                supported: 1,
            },
            DecodeError::Truncated {
                needed: 8,
                available: 2,
            },
            DecodeError::ChecksumMismatch {
                stored: 1,
                computed: 2,
            },
            DecodeError::InvalidValue { what: "x" },
            DecodeError::TrailingBytes { count: 3 },
            DecodeError::UnknownKind {
                found: "mystery".into(),
            },
            DecodeError::Io {
                path: "/tmp/x".into(),
                message: "gone".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
            let boxed: Box<dyn Error> = Box::new(e);
            assert!(!boxed.to_string().is_empty());
        }
    }
}
