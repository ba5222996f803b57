//! The `uc.trace.v1` binary trace format.
//!
//! A binary trace is a standard `uc-persist` record file (the envelope,
//! defined in `uc-persist` alone, carries the kind tag, lengths and a
//! CRC-32) whose payload is:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | entry count, little-endian `u64` |
//! | 21 × n | entries: arrival nanos `u64`, kind `u8`, offset `u64`, length `u32` |
//!
//! A trace is held in memory whole, so it is written and read as one
//! record: [`save_trace`] writes the bytes [`encode_trace`] returns, and
//! [`load_trace`] reads the file into one buffer and decodes it as
//! [`decode_trace`] does.
//!
//! Decoding is defensive end to end: envelope problems surface as the
//! matching [`DecodeError`] variant, and decoded entries pass the same
//! shared validation as the text parser (non-zero lengths,
//! non-decreasing timestamps) so a malformed file is a typed
//! [`TraceFileError`] at load time — never a mid-replay surprise.

use std::fmt;
use std::io;
use std::path::Path;
use uc_persist::{DecodeError, Decoder, Encoder, Persist};
use uc_workload::{Trace, TraceEntry, TraceError};

/// The record kind tag of a binary trace. Bump the suffix when the
/// payload layout changes.
pub const TRACE_RECORD_KIND: &str = "uc.trace.v1";

/// Wire size of one encoded entry (`u64` + `u8` + `u64` + `u32`).
const ENTRY_WIRE: usize = 21;

/// Why a binary trace file failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceFileError {
    /// The record envelope or an entry failed to decode (truncation,
    /// corruption, foreign bytes, future version, unknown kind, I/O).
    Decode(DecodeError),
    /// The bytes decoded, but the entries violate the trace invariants
    /// (zero-length I/O, regressing timestamps).
    Invalid(TraceError),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Decode(e) => write!(f, "decoding binary trace: {e}"),
            TraceFileError::Invalid(e) => write!(f, "invalid trace contents: {e}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<DecodeError> for TraceFileError {
    fn from(e: DecodeError) -> Self {
        TraceFileError::Decode(e)
    }
}

impl From<TraceError> for TraceFileError {
    fn from(e: TraceError) -> Self {
        TraceFileError::Invalid(e)
    }
}

/// The payload length for `count` entries, guarding against overflow.
fn payload_len(count: u64) -> Option<u64> {
    count
        .checked_mul(ENTRY_WIRE as u64)
        .and_then(|n| n.checked_add(8))
}

/// Writes a trace's `uc.trace.v1` payload: the entry count, then each
/// entry.
fn encode_payload(trace: &Trace, w: &mut Encoder) {
    w.put_u64(trace.len() as u64);
    for entry in trace.entries() {
        entry.encode(w);
    }
}

/// Decodes a `uc.trace.v1` payload, validating every entry.
fn decode_payload(payload: &[u8]) -> Result<Trace, TraceFileError> {
    let mut r = Decoder::new(payload);
    let count = r.get_u64()?;
    if payload_len(count) != Some(payload.len() as u64) {
        return Err(DecodeError::InvalidValue {
            what: "trace entry count",
        }
        .into());
    }
    let mut entries = Vec::with_capacity(count as usize);
    let mut prev = uc_sim::SimTime::ZERO;
    for index in 0..count as usize {
        let entry = TraceEntry::decode(&mut r)?;
        entry.validate(index, None)?;
        if entry.at < prev {
            return Err(TraceError::TimestampRegression {
                index,
                prev,
                at: entry.at,
            }
            .into());
        }
        prev = entry.at;
        entries.push(entry);
    }
    r.finish()?;
    Ok(Trace::from_entries(entries))
}

/// Encodes a trace into a complete `uc.trace.v1` record (envelope
/// included) in memory.
///
/// Byte-identical to what [`save_trace`] writes to disk.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut record = Vec::new();
    uc_persist::encode_record_into(&mut record, TRACE_RECORD_KIND, |w| encode_payload(trace, w));
    record
}

/// Decodes a complete `uc.trace.v1` record from memory, validating every
/// entry.
///
/// # Errors
///
/// Returns [`TraceFileError::Decode`] for malformed bytes (wrong magic,
/// kind or version, truncation, checksum mismatch, trailing bytes) and
/// [`TraceFileError::Invalid`] for well-formed bytes whose entries
/// violate the trace invariants.
pub fn decode_trace(bytes: &[u8]) -> Result<Trace, TraceFileError> {
    let (kind, payload) = uc_persist::decode_record(bytes)?;
    if kind != TRACE_RECORD_KIND {
        return Err(DecodeError::UnknownKind {
            found: kind.to_string(),
        }
        .into());
    }
    decode_payload(payload)
}

/// Writes a trace to `path` as a `uc.trace.v1` record file (atomic
/// temp-file + rename).
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn save_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    uc_persist::write_record_file(path, TRACE_RECORD_KIND, |w| encode_payload(trace, w))
}

/// Reads a `uc.trace.v1` record file back into a [`Trace`].
///
/// # Errors
///
/// See [`decode_trace`]; filesystem errors surface as
/// [`DecodeError::Io`] inside [`TraceFileError::Decode`].
pub fn load_trace(path: &Path) -> Result<Trace, TraceFileError> {
    decode_payload(&uc_persist::read_record_file(path, TRACE_RECORD_KIND)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use uc_sim::SimDuration;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("uc-trace-format-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Trace {
        Trace::bursty_writes(3, 7, SimDuration::from_millis(2), 8192, 4 << 20, 42)
    }

    #[test]
    fn memory_round_trip_is_lossless() {
        let trace = sample();
        let bytes = encode_trace(&trace);
        let back = decode_trace(&bytes).unwrap();
        assert_eq!(back, trace);
        // Text → binary → text is byte-identical.
        assert_eq!(back.to_text(), trace.to_text());
        // Empty traces round-trip too.
        let empty = Trace::new();
        assert_eq!(decode_trace(&encode_trace(&empty)).unwrap(), empty);
    }

    /// Each corruption is the same typed error whether the bytes are
    /// decoded in memory or loaded from a file.
    #[test]
    fn corruption_is_typed_in_memory_and_streaming() {
        let dir = temp_dir("corruption");
        let trace = sample();
        let good = encode_trace(&trace);
        let path = dir.join("t.trace");

        type Check = fn(&TraceFileError) -> bool;
        let cases: Vec<(&str, Vec<u8>, Check)> = vec![
            (
                "wrong magic",
                {
                    let mut v = good.clone();
                    v[0] ^= 0xFF;
                    v
                },
                |e| matches!(e, TraceFileError::Decode(DecodeError::BadMagic)),
            ),
            (
                "future version",
                {
                    let mut v = good.clone();
                    v[8] = 0xFF;
                    v[9] = 0xFF;
                    v
                },
                |e| {
                    matches!(
                        e,
                        TraceFileError::Decode(DecodeError::UnsupportedVersion {
                            found: 0xFFFF,
                            ..
                        })
                    )
                },
            ),
            (
                "truncated mid-entry",
                good[..good.len() - 30].to_vec(),
                |e| matches!(e, TraceFileError::Decode(DecodeError::Truncated { .. })),
            ),
            (
                "flipped payload bit",
                {
                    let mut v = good.clone();
                    let mid = v.len() / 2;
                    v[mid] ^= 0x10;
                    v
                },
                |e| {
                    matches!(
                        e,
                        TraceFileError::Decode(DecodeError::ChecksumMismatch { .. })
                    )
                },
            ),
            (
                "trailing junk",
                {
                    let mut v = good.clone();
                    v.extend_from_slice(b"tail");
                    v
                },
                |e| matches!(e, TraceFileError::Decode(DecodeError::TrailingBytes { .. })),
            ),
        ];
        for (label, bytes, expected) in &cases {
            // In-memory decode. A flipped bit may land in an entry field
            // (checksum failure) or a length; both are typed.
            let err = decode_trace(bytes).unwrap_err();
            assert!(expected(&err), "{label}: decode_trace gave {err:?}");
            // The same bytes loaded from a file.
            std::fs::write(&path, bytes).unwrap();
            let err = load_trace(&path).unwrap_err();
            assert!(expected(&err), "{label}: load_trace gave {err:?}");
        }

        // A wrong kind tag is an UnknownKind for both paths.
        let foreign = uc_persist::encode_record("uc.other.v1", b"12345678");
        let other = || {
            TraceFileError::Decode(DecodeError::UnknownKind {
                found: "uc.other.v1".to_string(),
            })
        };
        assert_eq!(decode_trace(&foreign).unwrap_err(), other());
        std::fs::write(&path, &foreign).unwrap();
        assert_eq!(load_trace(&path).unwrap_err(), other());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_entries_are_typed_at_decode_time() {
        // Hand-build a payload with a zero-length entry.
        let mut payload = Encoder::new();
        payload.put_u64(1);
        TraceEntry {
            at: uc_sim::SimTime::ZERO,
            kind: uc_blockdev::IoKind::Write,
            offset: 0,
            len: 0,
        }
        .encode(&mut payload);
        let record = uc_persist::encode_record(TRACE_RECORD_KIND, payload.as_bytes());
        assert_eq!(
            decode_trace(&record).unwrap_err(),
            TraceFileError::Invalid(TraceError::ZeroLength { index: 0 })
        );

        // And one whose timestamps regress.
        let entries = [
            TraceEntry {
                at: uc_sim::SimTime::from_nanos(100),
                kind: uc_blockdev::IoKind::Write,
                offset: 0,
                len: 4096,
            },
            TraceEntry {
                at: uc_sim::SimTime::from_nanos(50),
                kind: uc_blockdev::IoKind::Read,
                offset: 0,
                len: 4096,
            },
        ];
        let mut payload = Encoder::new();
        payload.put_u64(2);
        for e in &entries {
            e.encode(&mut payload);
        }
        let record = uc_persist::encode_record(TRACE_RECORD_KIND, payload.as_bytes());
        assert!(matches!(
            decode_trace(&record).unwrap_err(),
            TraceFileError::Invalid(TraceError::TimestampRegression { index: 1, .. })
        ));
        // Loading the same bytes from a file rejects them the same way.
        let dir = temp_dir("invalid-entries");
        let path = dir.join("t.trace");
        std::fs::write(&path, &record).unwrap();
        assert!(matches!(
            load_trace(&path).unwrap_err(),
            TraceFileError::Invalid(TraceError::TimestampRegression { index: 1, .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_typed() {
        let dir = temp_dir("missing");
        let err = load_trace(&dir.join("nope.trace")).unwrap_err();
        assert!(matches!(
            err,
            TraceFileError::Decode(DecodeError::Io { .. })
        ));
        assert!(!err.to_string().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
