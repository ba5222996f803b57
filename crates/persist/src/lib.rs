//! Versioned binary serialization for checkpoint state.
//!
//! Every stateful layer of the workspace is its own checkpoint: the live
//! value (`SimRng`, `Ftl`, `Ssd`, …) is `Clone`, and its [`Persist`]
//! codec writes exactly the state it holds. This crate is the bottom of
//! the *durability* story: it turns that state into bytes that survive a
//! process crash and come back as typed values — or as a **typed
//! error**, never a panic, when the bytes are truncated, corrupted or
//! from a future format version.
//!
//! Three layers, smallest first:
//!
//! * [`Encoder`] / [`Decoder`] — fixed-width little-endian primitives
//!   (integers, floats as IEEE-754 bits, length-prefixed strings and
//!   sequences). Decoding validates every read against the remaining
//!   buffer and returns [`DecodeError::Truncated`] instead of slicing out
//!   of bounds.
//! * [`Persist`] — the codec trait each stateful type implements:
//!   `encode` appends the value's canonical byte form, `decode` parses it
//!   back. The contract is lossless round-tripping:
//!   `decode(encode(x)) == x`.
//! * **records** ([`encode_record`] / [`decode_record`] and the file
//!   helpers [`write_record_file`] / [`read_record_file`]) — the
//!   self-describing envelope every file and stream in the workspace is
//!   framed by: an 8-byte magic, a format version, a record-kind tag
//!   naming the payload type, the payload length, the payload and a
//!   CRC-32 of everything after the magic. Only this crate knows that
//!   layout. Files are written atomically (temp file + rename) so a
//!   crash mid-write leaves either the old checkpoint or none — never a
//!   torn one — and are read back kind-checked, into one buffer. The
//!   envelope is self-describing, so [`read_record_into`] can also take
//!   records one at a time off any byte stream (a socket serving
//!   `uc.wire.v2` frames), and [`peek_record_len`] can find a record's
//!   end in a buffer of partial reads, with every length field bounded
//!   before it is trusted. [`encode_record_into`] and
//!   [`read_record_into`] work over a buffer the caller owns and reuses:
//!   a connection encodes and reads its frames without allocating.
//!
//! # Example
//!
//! ```
//! use uc_persist::{decode_record, encode_record, Decoder, Encoder, Persist};
//!
//! let mut w = Encoder::new();
//! (42u64, "hello".to_string()).encode(&mut w);
//! let record = encode_record("example.v1", w.as_bytes());
//!
//! let (kind, payload) = decode_record(&record)?;
//! assert_eq!(kind, "example.v1");
//! let mut r = Decoder::new(payload);
//! let back = <(u64, String)>::decode(&mut r)?;
//! r.finish()?;
//! assert_eq!(back, (42, "hello".to_string()));
//! # Ok::<(), uc_persist::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod record;

pub use codec::{ensure, DecodeError, Decoder, Encoder, Persist};
pub use record::{
    crc32, decode_record, encode_record, encode_record_into, peek_record_len, read_record_file,
    read_record_into, write_record_file, MAX_STREAM_KIND_LEN, MAX_STREAM_PAYLOAD_LEN,
};
