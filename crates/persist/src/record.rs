//! The self-describing on-disk record envelope.
//!
//! Layout, in order:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | magic `UCSSDCP\0` |
//! | 2 | envelope format version, little-endian |
//! | 8 + n | record kind: `u64` length + UTF-8 tag |
//! | 8 | payload length, little-endian |
//! | … | payload |
//! | 4 | CRC-32 (IEEE) of everything after the magic |
//!
//! The kind tag names the payload type (`"uc.ssd-checkpoint.v2"`,
//! `"uc.fig3-checkpoint.v1"`, …) so a reader can dispatch to the right
//! decoder — or fail with [`DecodeError::UnknownKind`] instead of
//! misinterpreting bytes. Bumping a payload's layout means bumping its
//! kind tag; bumping the envelope itself means bumping the format
//! version, which old readers reject as
//! [`DecodeError::UnsupportedVersion`].
//!
//! This module is the only code that knows the layout: every head is
//! written by [`encode_record_into`], every whole record is checked by
//! [`decode_record`], and every stream prefix is parsed by one private
//! `parse_prefix`, which both [`read_record_into`] and
//! [`peek_record_len`] use.

use crate::codec::{DecodeError, Decoder, Encoder};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::OnceLock;

/// The 8-byte signature every record starts with.
const MAGIC: [u8; 8] = *b"UCSSDCP\0";

/// The envelope format version this build writes and reads.
const FORMAT_VERSION: u16 = 1;

/// Magic, version and kind length: the head every record starts with
/// before its first variable-length field.
const HEAD_LEN: usize = 18;

/// The slicing-by-8 tables: `[0]` is the bytewise table, and `[k][i]` is
/// the CRC state after feeding byte `i` followed by `k` zero bytes, so
/// one lookup per table folds eight input bytes at once.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            }
        }
        tables
    })
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// This is the per-record checksum; a single flipped payload bit decodes
/// as [`DecodeError::ChecksumMismatch`] instead of corrupt state.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Wraps `payload` in the record envelope under the given kind tag.
pub fn encode_record(kind: &str, payload: &[u8]) -> Vec<u8> {
    // magic 8 + version 2 + kind length 8 + payload length 8 + CRC 4.
    let mut record = Vec::with_capacity(30 + kind.len() + payload.len());
    encode_record_into(&mut record, kind, |w| w.put_raw(payload));
    record
}

/// Appends one record to `out`: the envelope under `kind`, then whatever
/// `payload` writes, in place.
///
/// The payload is a block written in place ([`Encoder::put_block`]) and
/// the CRC is computed over the bytes just written, so the payload is
/// never staged in a buffer of its own. A caller that clears and reuses
/// `out` encodes without allocating once `out` has grown to its largest
/// record. The bytes are exactly [`encode_record`]'s.
///
/// ```
/// use uc_persist::{encode_record, encode_record_into};
///
/// let mut out = b"already queued".to_vec();
/// encode_record_into(&mut out, "example.v1", |w| w.put_u32(7));
/// assert_eq!(out[14..], encode_record("example.v1", &7u32.to_le_bytes())[..]);
/// ```
pub fn encode_record_into(out: &mut Vec<u8>, kind: &str, payload: impl FnOnce(&mut Encoder)) {
    let start = out.len();
    let mut w = Encoder::from_vec(std::mem::take(out));
    w.put_raw(&MAGIC);
    w.put_u16(FORMAT_VERSION);
    w.put_str(kind);
    w.put_block(payload);
    *out = w.into_bytes();
    let checksum = crc32(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Unwraps a record envelope, returning `(kind, payload)`.
///
/// This is the whole-record validator: it bounds every length by the
/// bytes present, not by the stream caps, so a record of any size that
/// fits in memory decodes.
///
/// # Errors
///
/// Returns the [`DecodeError`] variant matching exactly what is wrong:
/// [`BadMagic`](DecodeError::BadMagic) for foreign bytes,
/// [`UnsupportedVersion`](DecodeError::UnsupportedVersion) for records
/// from a future format, [`Truncated`](DecodeError::Truncated) for short
/// reads, [`ChecksumMismatch`](DecodeError::ChecksumMismatch) for flipped
/// bits and [`TrailingBytes`](DecodeError::TrailingBytes) for appended
/// junk.
pub fn decode_record(bytes: &[u8]) -> Result<(&str, &[u8]), DecodeError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let body = &bytes[MAGIC.len()..];
    let mut r = Decoder::new(body);
    let version = r.get_u16()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let kind = r.get_str()?;
    let payload = r.get_bytes()?;
    let checked_len = body.len() - r.remaining();
    let stored = r.get_u32()?;
    let computed = crc32(&body[..checked_len]);
    if stored != computed {
        return Err(DecodeError::ChecksumMismatch { stored, computed });
    }
    r.finish()?;
    Ok((kind, payload))
}

/// Largest kind tag a stream reader ([`read_record_into`],
/// [`peek_record_len`]) accepts (the longest real tags are tens of
/// bytes; anything bigger is a corrupt length field, and the cap keeps a
/// flipped bit from turning into a giant allocation).
pub const MAX_STREAM_KIND_LEN: u64 = 1 << 10;

/// Largest payload a stream reader accepts, for the same reason: a
/// stream peer (or a corrupt record) must not be able to make the reader
/// allocate an arbitrary amount of memory off an 8-byte length.
pub const MAX_STREAM_PAYLOAD_LEN: u64 = 64 << 20;

/// What the first bytes of a stream say about the record they begin.
enum Prefix {
    /// The length fields are not all in yet: at least this many bytes
    /// are needed before the record's length is known.
    Partial(usize),
    /// The record is exactly this many bytes long.
    Complete(usize),
}

/// Parses as much of a record's head as `buf` holds, checking each field
/// the moment it is whole: a byte that disagrees with the magic is
/// [`DecodeError::BadMagic`], a foreign envelope version is
/// [`DecodeError::UnsupportedVersion`] (before any length read under the
/// wrong layout is trusted), and a length past the stream caps is
/// [`DecodeError::InvalidValue`].
fn parse_prefix(buf: &[u8]) -> Result<Prefix, DecodeError> {
    let magic = buf.len().min(MAGIC.len());
    if buf[..magic] != MAGIC[..magic] {
        return Err(DecodeError::BadMagic);
    }
    let version_end = MAGIC.len() + 2;
    if buf.len() < version_end {
        return Ok(Prefix::Partial(version_end));
    }
    let found = u16::from_le_bytes([buf[MAGIC.len()], buf[MAGIC.len() + 1]]);
    if found != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    if buf.len() < HEAD_LEN {
        return Ok(Prefix::Partial(HEAD_LEN));
    }
    let kind_len = u64::from_le_bytes(buf[version_end..HEAD_LEN].try_into().expect("8 bytes"));
    if kind_len > MAX_STREAM_KIND_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record kind length",
        });
    }
    let payload_at = HEAD_LEN + kind_len as usize + 8;
    if buf.len() < payload_at {
        return Ok(Prefix::Partial(payload_at));
    }
    let payload_len =
        u64::from_le_bytes(buf[payload_at - 8..payload_at].try_into().expect("8 bytes"));
    if payload_len > MAX_STREAM_PAYLOAD_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record payload length",
        });
    }
    Ok(Prefix::Complete(payload_at + payload_len as usize + 4))
}

/// Reads exactly `buf.len()` bytes unless the stream ends first;
/// returns how many bytes were actually read.
fn fill<R: Read + ?Sized>(reader: &mut R, buf: &mut [u8]) -> Result<usize, DecodeError> {
    let mut read = 0;
    while read < buf.len() {
        match reader.read(&mut buf[read..]) {
            Ok(0) => break,
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(DecodeError::Io {
                    path: "<stream>".to_string(),
                    message: e.to_string(),
                })
            }
        }
    }
    Ok(read)
}

/// The typed error for a stream that ended `missing` bytes short.
fn truncated(missing: usize) -> DecodeError {
    DecodeError::Truncated {
        needed: missing as u64,
        available: 0,
    }
}

/// Reads the next record envelope off a byte stream into `record`, a
/// buffer the caller owns and reuses, and unwraps it: `Ok(None)` at a
/// clean end of stream (end exactly at a record boundary), otherwise
/// `(kind, payload)` borrowed from `record`.
///
/// This is the incremental twin of [`decode_record`] for sources without
/// random access, such as a socket serving `uc.wire.v2` frames. The
/// envelope is self-describing, so no outer length prefix is needed:
/// the reader takes exactly the record's bytes off the stream, never
/// more, bounds every length (see [`MAX_STREAM_KIND_LEN`] /
/// [`MAX_STREAM_PAYLOAD_LEN`]) before it sizes anything by it, and then
/// validates the assembled record through [`decode_record`], checksum
/// included. `record` is cleared first; once it has grown to the largest
/// record read, reading allocates nothing.
///
/// # Errors
///
/// A stream ending *inside* a record is [`DecodeError::Truncated`];
/// foreign bytes are [`DecodeError::BadMagic`]; a record from a future
/// envelope is [`DecodeError::UnsupportedVersion`] (detected before its
/// untrusted lengths are used); an implausible length field is
/// [`DecodeError::InvalidValue`]; flipped bits are
/// [`DecodeError::ChecksumMismatch`]; transport failures surface as
/// [`DecodeError::Io`]. Corruption never panics.
pub fn read_record_into<'b, R: Read + ?Sized>(
    reader: &mut R,
    record: &'b mut Vec<u8>,
) -> Result<Option<(&'b str, &'b [u8])>, DecodeError> {
    record.clear();
    // The fixed head goes through the stack, so `record` is sized only
    // once the kind length is known. Every record is longer than it.
    let mut head = [0u8; HEAD_LEN];
    let got = fill(reader, &mut head)?;
    if got == 0 {
        return Ok(None);
    }
    let mut len = match parse_prefix(&head[..got])? {
        Prefix::Partial(len) if got == HEAD_LEN => len,
        _ => return Err(truncated(HEAD_LEN - got)),
    };
    record.reserve(len);
    record.extend_from_slice(&head);
    loop {
        let start = record.len();
        record.resize(len, 0);
        let got = fill(reader, &mut record[start..])?;
        if start + got < len {
            return Err(truncated(len - start - got));
        }
        match parse_prefix(record)? {
            Prefix::Complete(whole) if whole == len => break,
            Prefix::Partial(next) | Prefix::Complete(next) => len = next,
        }
    }
    let record: &'b Vec<u8> = record;
    decode_record(record).map(Some)
}

/// Reports whether `buf` starts with one complete record, and how long
/// it is — the incremental framing primitive for non-blocking readers.
///
/// A readiness-driven server accumulates partial reads in a buffer and
/// must know, without consuming anything, whether a whole record has
/// arrived yet. `Ok(Some(len))` means `buf[..len]` is exactly one record
/// (hand it to [`decode_record`]); `Ok(None)` means the prefix is
/// consistent with a record still in flight — read more bytes and ask
/// again.
///
/// # Errors
///
/// Corruption that can be diagnosed from the prefix alone is typed
/// immediately: [`DecodeError::BadMagic`] the moment a byte disagrees
/// with the magic, [`DecodeError::UnsupportedVersion`] on a foreign
/// envelope version, and [`DecodeError::InvalidValue`] for a length
/// field past the stream caps ([`MAX_STREAM_KIND_LEN`] /
/// [`MAX_STREAM_PAYLOAD_LEN`]) — a flipped length bit must not make the
/// caller buffer gigabytes waiting for a record that never completes.
pub fn peek_record_len(buf: &[u8]) -> Result<Option<usize>, DecodeError> {
    Ok(match parse_prefix(buf)? {
        Prefix::Complete(len) if buf.len() >= len => Some(len),
        _ => None,
    })
}

/// Writes a record file atomically: the bytes go to `<path>.tmp` first
/// and are renamed into place, so a crash mid-write never leaves a torn
/// record at `path`.
///
/// `payload` writes the payload in place, as in [`encode_record_into`],
/// so the whole record is encoded into one buffer. If it fails, nothing
/// is written.
///
/// # Errors
///
/// Returns `payload`'s error, or the underlying filesystem errors.
pub fn write_record_file<E: From<io::Error>>(
    path: &Path,
    kind: &str,
    payload: impl FnOnce(&mut Encoder) -> Result<(), E>,
) -> Result<(), E> {
    let mut encoded = Ok(());
    let mut record = Vec::new();
    encode_record_into(&mut record, kind, |w| encoded = payload(w));
    encoded?;
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&record)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Reads a record file of the given `kind` and returns its payload.
///
/// The envelope is trimmed off the file's bytes in place, so the payload
/// is the one buffer the file was read into.
///
/// # Errors
///
/// Filesystem errors surface as [`DecodeError::Io`]; malformed bytes as
/// the matching [`DecodeError`] variant (see [`decode_record`]); a
/// well-formed record of another kind as [`DecodeError::UnknownKind`]
/// naming the kind it has.
pub fn read_record_file(path: &Path, kind: &str) -> Result<Vec<u8>, DecodeError> {
    let mut bytes = std::fs::read(path).map_err(|e| DecodeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let (found, payload) = decode_record(&bytes)?;
    if found != kind {
        return Err(DecodeError::UnknownKind {
            found: found.to_string(),
        });
    }
    // The payload is the last field before the 4-byte CRC.
    let end = bytes.len() - 4;
    let start = end - payload.len();
    bytes.truncate(end);
    bytes.drain(..start);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The plain one-table CRC-32, one byte per step.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let table = &crc_tables()[0];
        !bytes.iter().fold(!0u32, |crc, &b| {
            table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference() {
        let bytes: Vec<u8> = (0u32..257).map(|i| (i * 31 + 7) as u8).collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                bytewise_crc32(&bytes[..len]),
                "len {len}"
            );
        }
    }

    /// Reads every record off `bytes` through one reused buffer, owning
    /// each `(kind, payload)`, up to the clean end or the first error.
    fn read_all(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>, DecodeError> {
        let mut reader = bytes;
        let mut record = Vec::new();
        let mut out = Vec::new();
        while let Some((kind, payload)) = read_record_into(&mut reader, &mut record)? {
            out.push((kind.to_string(), payload.to_vec()));
        }
        Ok(out)
    }

    #[test]
    fn record_into_appends_the_same_bytes_and_reads_back_borrowed() {
        let mut out = b"dirty".to_vec();
        encode_record_into(&mut out, "into.v1", |w| w.put_raw(b"payload"));
        assert_eq!(out[5..], encode_record("into.v1", b"payload")[..]);

        // One reused buffer reads back-to-back records, borrowing each.
        let mut stream = encode_record("a.v1", &[0xCD; 200]);
        stream.extend_from_slice(&encode_record("b.v1", b"x"));
        let mut reader = &stream[..];
        let mut record = Vec::new();
        let (kind, payload) = read_record_into(&mut reader, &mut record).unwrap().unwrap();
        assert_eq!((kind, payload), ("a.v1", &[0xCD; 200][..]));
        let grown = record.capacity();
        let (kind, payload) = read_record_into(&mut reader, &mut record).unwrap().unwrap();
        assert_eq!((kind, payload), ("b.v1", &b"x"[..]));
        assert_eq!(
            record.capacity(),
            grown,
            "a smaller record reuses the buffer"
        );
        assert_eq!(read_record_into(&mut reader, &mut record), Ok(None));
    }

    #[test]
    fn peek_sees_the_whole_record_exactly_at_its_boundary() {
        let record = encode_record("peek.v1", b"incremental");
        // Every strict prefix: not yet a whole record.
        for cut in 0..record.len() {
            assert_eq!(
                peek_record_len(&record[..cut]),
                Ok(None),
                "prefix of {cut} bytes"
            );
        }
        // The exact boundary — and any trailing bytes — report the length.
        assert_eq!(peek_record_len(&record), Ok(Some(record.len())));
        let mut padded = record.clone();
        padded.extend_from_slice(b"next frame starts here");
        assert_eq!(peek_record_len(&padded), Ok(Some(record.len())));
    }

    #[test]
    fn peek_rejects_corruption_as_early_as_it_is_visible() {
        let record = encode_record("peek.v1", b"x");
        // A wrong magic byte is rejected even before the prefix is whole.
        let mut bad = record.clone();
        bad[3] ^= 0xFF;
        assert_eq!(peek_record_len(&bad[..4]), Err(DecodeError::BadMagic));
        // A future version is rejected as soon as both bytes arrive.
        let mut bad = record.clone();
        bad[9] = 0x7F;
        assert_eq!(
            peek_record_len(&bad[..10]),
            Err(DecodeError::UnsupportedVersion {
                found: u16::from_le_bytes([bad[8], 0x7F]),
                supported: FORMAT_VERSION
            })
        );
        // Hostile length prefixes trip the caps before any allocation.
        let mut bad = record.clone();
        bad[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            peek_record_len(&bad),
            Err(DecodeError::InvalidValue {
                what: "stream record kind length"
            })
        );
        let mut bad = record;
        let kind_len = u64::from_le_bytes(bad[10..18].try_into().unwrap()) as usize;
        bad[18 + kind_len..26 + kind_len].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            peek_record_len(&bad),
            Err(DecodeError::InvalidValue {
                what: "stream record payload length"
            })
        );
    }

    #[test]
    fn record_round_trip() {
        let record = encode_record("test.v1", b"hello payload");
        let (kind, payload) = decode_record(&record).unwrap();
        assert_eq!(kind, "test.v1");
        assert_eq!(payload, b"hello payload");
    }

    #[test]
    fn empty_payload_round_trips() {
        let record = encode_record("empty.v1", b"");
        let (kind, payload) = decode_record(&record).unwrap();
        assert_eq!(kind, "empty.v1");
        assert!(payload.is_empty());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut record = encode_record("t", b"x");
        record[0] ^= 0xFF;
        assert_eq!(decode_record(&record), Err(DecodeError::BadMagic));
        // Too short to even hold the magic.
        assert_eq!(decode_record(b"UC"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn future_version_is_typed() {
        let mut record = encode_record("t", b"x");
        // The version is the first body field after the 8-byte magic.
        record[8] = 0xEE;
        record[9] = 0x7F;
        assert_eq!(
            decode_record(&record),
            Err(DecodeError::UnsupportedVersion {
                found: 0x7FEE,
                supported: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn flipped_payload_bit_is_a_checksum_mismatch() {
        let mut record = encode_record("t", b"payload-bytes");
        let payload_at = record.len() - 4 - 4; // inside the payload
        record[payload_at] ^= 0x01;
        assert!(matches!(
            decode_record(&record),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_record_is_typed() {
        let record = encode_record("t", b"payload-bytes");
        for cut in [record.len() - 1, record.len() - 5, 12] {
            assert!(
                matches!(
                    decode_record(&record[..cut]),
                    Err(DecodeError::Truncated { .. }) | Err(DecodeError::ChecksumMismatch { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn trailing_junk_is_typed() {
        let mut record = encode_record("t", b"x");
        record.extend_from_slice(b"junk");
        assert_eq!(
            decode_record(&record),
            Err(DecodeError::TrailingBytes { count: 4 })
        );
    }

    #[test]
    fn stream_reader_round_trips_back_to_back_records() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record("a.v1", b"first"));
        bytes.extend_from_slice(&encode_record("b.v1", b""));
        bytes.extend_from_slice(&encode_record("c.v1", &[0xAB; 300]));
        // Each record comes back, then a clean end of stream exactly at a
        // record boundary.
        assert_eq!(
            read_all(&bytes).unwrap(),
            [
                ("a.v1".to_string(), b"first".to_vec()),
                ("b.v1".to_string(), Vec::new()),
                ("c.v1".to_string(), vec![0xAB; 300]),
            ]
        );
        assert_eq!(read_all(b"").unwrap(), []);
    }

    #[test]
    fn stream_reader_types_mid_record_truncation() {
        let record = encode_record("cut.v1", b"payload-bytes");
        // A cut anywhere inside the record — including mid-magic — is a
        // typed truncation, never a clean end of stream.
        for cut in 1..record.len() {
            assert!(
                matches!(read_all(&record[..cut]), Err(DecodeError::Truncated { .. })),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn stream_reader_rejects_foreign_bytes_and_future_versions() {
        let mut wrong_magic = encode_record("t", b"x");
        wrong_magic[0] ^= 0xFF;
        assert_eq!(read_all(&wrong_magic), Err(DecodeError::BadMagic));
        let mut future = encode_record("t", b"x");
        future[8] = 0xEE;
        future[9] = 0x7F;
        assert_eq!(
            read_all(&future),
            Err(DecodeError::UnsupportedVersion {
                found: 0x7FEE,
                supported: FORMAT_VERSION
            })
        );
    }

    #[test]
    fn stream_reader_bounds_hostile_length_fields() {
        // A corrupt kind length must fail typed before any allocation of
        // that size is attempted.
        let mut bad_kind = encode_record("t", b"x");
        bad_kind[10..18].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            read_all(&bad_kind),
            Err(DecodeError::InvalidValue {
                what: "stream record kind length"
            })
        );
        let record = encode_record("t", b"x");
        let payload_len_at = 10 + 8 + 1; // version + kind length + "t"
        let mut bad_payload = record;
        bad_payload[payload_len_at..payload_len_at + 8]
            .copy_from_slice(&(MAX_STREAM_PAYLOAD_LEN + 1).to_le_bytes());
        assert_eq!(
            read_all(&bad_payload),
            Err(DecodeError::InvalidValue {
                what: "stream record payload length"
            })
        );
    }

    #[test]
    fn stream_reader_checks_the_checksum() {
        let mut record = encode_record("t", b"payload-bytes");
        let payload_at = record.len() - 4 - 4;
        record[payload_at] ^= 0x01;
        assert!(matches!(
            read_all(&record),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join("uc-persist-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        write_record_file(&path, "file.v1", |w| {
            w.put_raw(b"on disk");
            io::Result::Ok(())
        })
        .unwrap();
        assert_eq!(read_record_file(&path, "file.v1").unwrap(), b"on disk");
        // Another kind is typed, naming the kind the file has.
        assert_eq!(
            read_record_file(&path, "other.v1"),
            Err(DecodeError::UnknownKind {
                found: "file.v1".to_string()
            })
        );
        // No stray temp file is left behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_record_file(&path, "file.v1"),
            Err(DecodeError::Io { .. })
        ));
    }
}
