//! The self-describing on-disk record envelope.
//!
//! Layout, in order:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | [`MAGIC`] |
//! | 2 | [`FORMAT_VERSION`], little-endian |
//! | 8 + n | record kind: `u64` length + UTF-8 tag |
//! | 8 | payload length, little-endian |
//! | … | payload |
//! | 4 | CRC-32 (IEEE) of everything after the magic |
//!
//! The kind tag names the payload type (`"uc.ssd-checkpoint.v2"`,
//! `"uc.fig3-checkpoint.v1"`, …) so a reader can dispatch to the right
//! decoder — or fail with [`DecodeError::UnknownKind`] instead of
//! misinterpreting bytes. Bumping a payload's layout means bumping its
//! kind tag; bumping the envelope itself means bumping
//! [`FORMAT_VERSION`], which old readers reject as
//! [`DecodeError::UnsupportedVersion`].

use crate::codec::{DecodeError, Decoder, Encoder};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::OnceLock;

/// The 8-byte signature every checkpoint record starts with.
pub const MAGIC: [u8; 8] = *b"UCSSDCP\0";

/// The envelope format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

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

/// An incremental CRC-32 (IEEE 802.3 polynomial, reflected) hasher.
///
/// Streaming writers (e.g. a GiB-scale trace encoder) feed bytes through
/// [`Crc32::update`] as they go to disk instead of buffering the whole
/// payload just to checksum it; [`Crc32::finalize`] yields the same value
/// [`crc32`] computes over the concatenation of every update.
///
/// # Example
///
/// ```
/// use uc_persist::{crc32, Crc32};
///
/// let mut hasher = Crc32::new();
/// hasher.update(b"1234");
/// hasher.update(b"56789");
/// assert_eq!(hasher.finalize(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A hasher over the empty byte sequence.
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Feeds `bytes` through the hasher.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = crc_tables();
        let mut crc = self.state;
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
        self.state = crc;
    }

    /// The CRC-32 of every byte fed so far (the hasher stays usable).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
///
/// This is the per-record checksum; a single flipped payload bit decodes
/// as [`DecodeError::ChecksumMismatch`] instead of corrupt state.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut hasher = Crc32::new();
    hasher.update(bytes);
    hasher.finalize()
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
/// The payload length is filled in once `payload` returns and the CRC
/// is computed over the bytes just written, so the payload is never
/// staged in a buffer of its own. A caller that clears and reuses `out`
/// encodes without allocating once `out` has grown to its largest
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
    w.put_u64(0); // the payload length, filled in below
    let payload_at = w.as_bytes().len();
    payload(&mut w);
    *out = w.into_bytes();
    let len = (out.len() - payload_at) as u64;
    out[payload_at - 8..payload_at].copy_from_slice(&len.to_le_bytes());
    let checksum = crc32(&out[start + MAGIC.len()..]);
    out.extend_from_slice(&checksum.to_le_bytes());
}

/// Unwraps a record envelope, returning `(kind, payload)`.
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

/// Largest kind tag [`read_record_from`] accepts (the longest real tags
/// are tens of bytes; anything bigger is a corrupt length field, and the
/// cap keeps a flipped bit from turning into a giant allocation).
pub const MAX_STREAM_KIND_LEN: u64 = 1 << 10;

/// Largest payload [`read_record_from`] accepts, for the same reason:
/// a stream peer (or a corrupt record) must not be able to make the
/// reader allocate an arbitrary amount of memory off an 8-byte length.
pub const MAX_STREAM_PAYLOAD_LEN: u64 = 64 << 20;

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

/// Reads `buf.len()` bytes or fails typed: end-of-stream mid-field is
/// [`DecodeError::Truncated`].
fn fill_exact<R: Read + ?Sized>(reader: &mut R, buf: &mut [u8]) -> Result<(), DecodeError> {
    let got = fill(reader, buf)?;
    if got < buf.len() {
        return Err(DecodeError::Truncated {
            needed: (buf.len() - got) as u64,
            available: 0,
        });
    }
    Ok(())
}

/// Reads the next record envelope off a byte stream, returning
/// `Ok(None)` at a clean end of stream (end exactly at a record
/// boundary) and `(kind, payload)` otherwise.
///
/// The owning form of [`read_record_into`], which it wraps: it reads
/// into a fresh buffer and copies the kind and payload out.
///
/// # Errors
///
/// As [`read_record_into`].
pub fn read_record_from<R: Read + ?Sized>(
    reader: &mut R,
) -> Result<Option<(String, Vec<u8>)>, DecodeError> {
    let mut record = Vec::new();
    Ok(read_record_into(reader, &mut record)?
        .map(|(kind, payload)| (kind.to_string(), payload.to_vec())))
}

/// Reads the next record envelope off a byte stream into `record`, a
/// buffer the caller owns and reuses, and unwraps it: `Ok(None)` at a
/// clean end of stream (end exactly at a record boundary), otherwise
/// `(kind, payload)` borrowed from `record`.
///
/// This is the incremental twin of [`decode_record`] for sources without
/// random access — a socket serving `uc.wire.v2` frames, a pipe of
/// streamed trace records. The envelope is self-describing, so no outer
/// length prefix is needed; the reader walks the fields, bounds every
/// length (see [`MAX_STREAM_KIND_LEN`] / [`MAX_STREAM_PAYLOAD_LEN`]), and
/// then validates the assembled record through [`decode_record`] —
/// checksum included. `record` is cleared first; once it has grown to
/// the largest record read, reading allocates nothing.
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
    // magic 8 + version 2 + kind length 8, read before anything is sized.
    let mut head = [0u8; 18];
    let got = fill(reader, &mut head[..8])?;
    if got == 0 {
        return Ok(None);
    }
    if got < 8 {
        return Err(DecodeError::Truncated {
            needed: (8 - got) as u64,
            available: 0,
        });
    }
    if head[..8] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    fill_exact(reader, &mut head[8..10])?;
    let found = u16::from_le_bytes([head[8], head[9]]);
    if found != FORMAT_VERSION {
        // A future envelope may lay its fields out differently; bail
        // before trusting any length read under the wrong layout.
        return Err(DecodeError::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    fill_exact(reader, &mut head[10..])?;
    let kind_len = u64::from_le_bytes(head[10..].try_into().expect("8 bytes"));
    if kind_len > MAX_STREAM_KIND_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record kind length",
        });
    }
    // The kind tag and the payload length.
    record.reserve(head.len() + kind_len as usize + 8);
    record.extend_from_slice(&head);
    append_exact(reader, record, kind_len as usize + 8)?;
    let len_at = record.len() - 8;
    let payload_len = u64::from_le_bytes(record[len_at..].try_into().expect("8 bytes"));
    if payload_len > MAX_STREAM_PAYLOAD_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record payload length",
        });
    }
    // The payload and its CRC.
    append_exact(reader, record, payload_len as usize + 4)?;
    let record: &'b Vec<u8> = record;
    decode_record(record).map(Some)
}

/// Appends exactly `n` bytes read off `reader` to `buf`, or fails typed.
fn append_exact<R: Read + ?Sized>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    n: usize,
) -> Result<(), DecodeError> {
    let start = buf.len();
    buf.resize(start + n, 0);
    fill_exact(reader, &mut buf[start..])
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
    let prefix = buf.len().min(MAGIC.len());
    if buf[..prefix] != MAGIC[..prefix] {
        return Err(DecodeError::BadMagic);
    }
    if buf.len() < MAGIC.len() + 2 {
        return Ok(None);
    }
    let found = u16::from_le_bytes([buf[8], buf[9]]);
    if found != FORMAT_VERSION {
        return Err(DecodeError::UnsupportedVersion {
            found,
            supported: FORMAT_VERSION,
        });
    }
    if buf.len() < 18 {
        return Ok(None);
    }
    let kind_len = u64::from_le_bytes(buf[10..18].try_into().expect("8 bytes"));
    if kind_len > MAX_STREAM_KIND_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record kind length",
        });
    }
    let kind_len = kind_len as usize;
    if buf.len() < 18 + kind_len + 8 {
        return Ok(None);
    }
    let payload_len = u64::from_le_bytes(
        buf[18 + kind_len..26 + kind_len]
            .try_into()
            .expect("8 bytes"),
    );
    if payload_len > MAX_STREAM_PAYLOAD_LEN {
        return Err(DecodeError::InvalidValue {
            what: "stream record payload length",
        });
    }
    // magic 8 + version 2 + kind len 8 + kind + payload len 8 + payload
    // + CRC 4.
    let total = 30 + kind_len + payload_len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some(total))
}

/// Writes a record file atomically: the bytes go to `<path>.tmp` first
/// and are renamed into place, so a crash mid-write never leaves a torn
/// record at `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn write_record_file(path: &Path, kind: &str, payload: &[u8]) -> io::Result<()> {
    let record = encode_record(kind, payload);
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&record)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads and unwraps a record file, returning `(kind, payload)`.
///
/// # Errors
///
/// Filesystem errors surface as [`DecodeError::Io`]; malformed bytes as
/// the matching [`DecodeError`] variant (see [`decode_record`]).
pub fn read_record_file(path: &Path) -> Result<(String, Vec<u8>), DecodeError> {
    let bytes = std::fs::read(path).map_err(|e| DecodeError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let (kind, payload) = decode_record(&bytes)?;
    Ok((kind.to_string(), payload.to_vec()))
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
        let input = &bytes[..64];
        for split in 0..=input.len() {
            let mut hasher = Crc32::new();
            hasher.update(&input[..split]);
            hasher.update(&input[split..]);
            assert_eq!(hasher.finalize(), bytewise_crc32(input), "split at {split}");
        }
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
    fn incremental_crc_matches_one_shot_at_any_split() {
        let bytes: Vec<u8> = (0u16..300).map(|i| (i * 7) as u8).collect();
        let expected = crc32(&bytes);
        for split in [0, 1, 9, 150, 299, 300] {
            let mut hasher = Crc32::new();
            hasher.update(&bytes[..split]);
            hasher.update(&bytes[split..]);
            assert_eq!(hasher.finalize(), expected, "split at {split}");
        }
        // `finalize` does not consume: more updates keep accumulating.
        let mut hasher = Crc32::default();
        hasher.update(b"1234");
        let _ = hasher.finalize();
        hasher.update(b"56789");
        assert_eq!(hasher.finalize(), crc32(b"123456789"));
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
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_record_from(&mut cursor).unwrap(),
            Some(("a.v1".to_string(), b"first".to_vec()))
        );
        assert_eq!(
            read_record_from(&mut cursor).unwrap(),
            Some(("b.v1".to_string(), Vec::new()))
        );
        assert_eq!(
            read_record_from(&mut cursor).unwrap(),
            Some(("c.v1".to_string(), vec![0xAB; 300]))
        );
        // Clean end of stream, exactly at a record boundary.
        assert_eq!(read_record_from(&mut cursor).unwrap(), None);
        assert_eq!(read_record_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn stream_reader_types_mid_record_truncation() {
        let record = encode_record("cut.v1", b"payload-bytes");
        // A cut anywhere inside the record — including mid-magic — is a
        // typed truncation, never a clean end of stream.
        for cut in [1, 7, 9, 12, 20, record.len() - 1] {
            let mut cursor = std::io::Cursor::new(record[..cut].to_vec());
            assert!(
                matches!(
                    read_record_from(&mut cursor),
                    Err(DecodeError::Truncated { .. })
                ),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn stream_reader_rejects_foreign_bytes_and_future_versions() {
        let mut wrong_magic = encode_record("t", b"x");
        wrong_magic[0] ^= 0xFF;
        assert_eq!(
            read_record_from(&mut std::io::Cursor::new(wrong_magic)),
            Err(DecodeError::BadMagic)
        );
        let mut future = encode_record("t", b"x");
        future[8] = 0xEE;
        future[9] = 0x7F;
        assert_eq!(
            read_record_from(&mut std::io::Cursor::new(future)),
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
            read_record_from(&mut std::io::Cursor::new(bad_kind)),
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
            read_record_from(&mut std::io::Cursor::new(bad_payload)),
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
            read_record_from(&mut std::io::Cursor::new(record)),
            Err(DecodeError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join("uc-persist-test-record");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.ckpt");
        write_record_file(&path, "file.v1", b"on disk").unwrap();
        let (kind, payload) = read_record_file(&path).unwrap();
        assert_eq!(kind, "file.v1");
        assert_eq!(payload, b"on disk");
        // No stray temp file is left behind.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            read_record_file(&path),
            Err(DecodeError::Io { .. })
        ));
    }
}
