//! The `uc.trace.v1` binary trace format.
//!
//! A binary trace is a standard `uc-persist` record file (see
//! `uc_persist::record` for the envelope: magic, format version, kind
//! tag, payload length, payload, CRC-32) whose payload is:
//!
//! | bytes | field |
//! |---|---|
//! | 8 | entry count, little-endian `u64` |
//! | 21 × n | entries: arrival nanos `u64`, kind `u8`, offset `u64`, length `u32` |
//!
//! Entries are fixed-width, so the payload length is known before any
//! entry is written — which is what lets [`TraceWriter`] and
//! [`TraceReader`] *stream* GiB-scale traces through a small buffer
//! (CRC accumulated incrementally via [`uc_persist::Crc32`]) while
//! producing/consuming files byte-identical to the in-memory
//! [`encode_trace`] / [`decode_trace`] pair.
//!
//! Decoding is defensive end to end: envelope problems surface as the
//! matching [`DecodeError`] variant, and decoded entries pass the same
//! shared validation as the text parser (non-zero lengths,
//! non-decreasing timestamps) so a malformed file is a typed
//! [`TraceFileError`] at load time — never a mid-replay surprise.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use uc_persist::{Crc32, DecodeError, Decoder, Encoder, Persist, FORMAT_VERSION, MAGIC};
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

/// Encodes a trace into a complete `uc.trace.v1` record (envelope
/// included) in memory.
///
/// Byte-identical to what [`save_trace`] writes to disk; prefer the
/// streaming [`TraceWriter`] for traces too large to buffer.
pub fn encode_trace(trace: &Trace) -> Vec<u8> {
    let mut payload = Encoder::new();
    payload.put_u64(trace.len() as u64);
    for entry in trace.entries() {
        entry.encode(&mut payload);
    }
    uc_persist::encode_record(TRACE_RECORD_KIND, payload.as_bytes())
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

/// Writes a trace to `path` as a `uc.trace.v1` record file (streaming,
/// atomic temp-file + rename).
///
/// # Errors
///
/// Propagates the underlying filesystem errors.
pub fn save_trace(path: &Path, trace: &Trace) -> io::Result<()> {
    let mut writer = TraceWriter::create(path, trace.len() as u64)?;
    for entry in trace.entries() {
        writer.append(entry)?;
    }
    writer.finish()
}

/// Reads a `uc.trace.v1` record file back into a [`Trace`] (streaming).
///
/// # Errors
///
/// See [`decode_trace`]; filesystem errors surface as
/// [`DecodeError::Io`] inside [`TraceFileError::Decode`].
pub fn load_trace(path: &Path) -> Result<Trace, TraceFileError> {
    let mut reader = TraceReader::open(path)?;
    let mut entries = Vec::with_capacity(reader.remaining().min(1 << 20) as usize);
    for entry in reader.by_ref() {
        entries.push(entry?);
    }
    Ok(Trace::from_entries(entries))
}

/// A streaming `uc.trace.v1` encoder: entries go straight to disk
/// through a small buffer, with the record CRC accumulated
/// incrementally — a GiB-scale trace never sits in memory.
///
/// The entry count is declared up front (fixed-width entries make the
/// payload length computable), [`TraceWriter::append`] is called once
/// per entry, and [`TraceWriter::finish`] seals the checksum and
/// atomically renames the temp file into place. Dropping the writer
/// without finishing leaves only the `.tmp` file, never a torn record.
///
/// # Example
///
/// ```no_run
/// use uc_trace::TraceWriter;
/// use uc_workload::Trace;
///
/// let trace: Trace = "0 W 0 4096\n1000 R 4096 4096".parse()?;
/// let mut writer = TraceWriter::create("run.trace".as_ref(), trace.len() as u64)?;
/// for entry in trace.entries() {
///     writer.append(entry)?;
/// }
/// writer.finish()?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TraceWriter {
    file: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    crc: Crc32,
    declared: u64,
    written: u64,
}

impl TraceWriter {
    /// Opens a streaming writer for exactly `entries` entries.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; rejects entry counts whose payload
    /// length would overflow.
    pub fn create(path: &Path, entries: u64) -> io::Result<Self> {
        let payload = payload_len(entries).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "trace entry count overflows")
        })?;
        let tmp = path.with_extension("tmp");
        let mut file = BufWriter::new(File::create(&tmp)?);
        // The envelope head, byte-compatible with
        // `uc_persist::encode_record`: version, kind tag, payload length
        // — then the payload's own first field, the entry count.
        let mut head = Encoder::new();
        head.put_u16(FORMAT_VERSION);
        head.put_str(TRACE_RECORD_KIND);
        head.put_u64(payload);
        head.put_u64(entries);
        file.write_all(&MAGIC)?;
        file.write_all(head.as_bytes())?;
        let mut crc = Crc32::new();
        crc.update(head.as_bytes());
        Ok(TraceWriter {
            file,
            tmp,
            path: path.to_path_buf(),
            crc,
            declared: entries,
            written: 0,
        })
    }

    /// Entries still owed before [`TraceWriter::finish`] may be called.
    pub fn remaining(&self) -> u64 {
        self.declared - self.written
    }

    /// Appends one entry.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] past the declared
    /// count, and propagates filesystem errors.
    pub fn append(&mut self, entry: &TraceEntry) -> io::Result<()> {
        if self.written >= self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("trace writer declared {} entries", self.declared),
            ));
        }
        let mut buf = Encoder::new();
        entry.encode(&mut buf);
        debug_assert_eq!(buf.as_bytes().len(), ENTRY_WIRE);
        self.file.write_all(buf.as_bytes())?;
        self.crc.update(buf.as_bytes());
        self.written += 1;
        Ok(())
    }

    /// Seals the record (writes the CRC, syncs, renames into place).
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] if fewer entries than
    /// declared were appended, and propagates filesystem errors.
    pub fn finish(mut self) -> io::Result<()> {
        if self.written != self.declared {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "trace writer declared {} entries but {} were appended",
                    self.declared, self.written
                ),
            ));
        }
        self.file.write_all(&self.crc.finalize().to_le_bytes())?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        std::fs::rename(&self.tmp, &self.path)
    }
}

/// A streaming `uc.trace.v1` decoder: yields validated entries one at a
/// time through a small buffer, verifying the record CRC after the last
/// entry — the memory-bounded dual of [`TraceWriter`].
///
/// Iterate it like any `Iterator<Item = Result<TraceEntry,
/// TraceFileError>>`; the checksum verdict arrives as the final `Err`
/// (if any), so a consumer must drain the iterator before trusting the
/// whole stream. [`load_trace`] does exactly that.
#[derive(Debug)]
pub struct TraceReader {
    file: BufReader<File>,
    path: PathBuf,
    crc: Crc32,
    remaining: u64,
    index: usize,
    prev: uc_sim::SimTime,
    done: bool,
}

impl TraceReader {
    /// Opens a trace file and decodes its envelope head.
    ///
    /// # Errors
    ///
    /// Returns the [`DecodeError`] variant matching what is wrong with
    /// the envelope (foreign magic, future version, wrong kind,
    /// truncation, inconsistent lengths), wrapped in
    /// [`TraceFileError::Decode`].
    pub fn open(path: &Path) -> Result<Self, TraceFileError> {
        let file = File::open(path).map_err(|e| DecodeError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        let mut reader = TraceReader {
            file: BufReader::new(file),
            path: path.to_path_buf(),
            crc: Crc32::new(),
            remaining: 0,
            index: 0,
            prev: uc_sim::SimTime::ZERO,
            done: false,
        };
        let mut magic = [0u8; 8];
        reader.fill(&mut magic, false)?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic.into());
        }
        let mut version = [0u8; 2];
        reader.fill(&mut version, true)?;
        let version = u16::from_le_bytes(version);
        if version != FORMAT_VERSION {
            return Err(DecodeError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            }
            .into());
        }
        let kind_len = reader.read_u64()?;
        if kind_len != TRACE_RECORD_KIND.len() as u64 {
            return Err(DecodeError::UnknownKind {
                found: format!("<{kind_len}-byte kind>"),
            }
            .into());
        }
        let mut kind = [0u8; TRACE_RECORD_KIND.len()];
        reader.fill(&mut kind, true)?;
        if kind != TRACE_RECORD_KIND.as_bytes() {
            return Err(DecodeError::UnknownKind {
                found: String::from_utf8_lossy(&kind).into_owned(),
            }
            .into());
        }
        let payload = reader.read_u64()?;
        let count = reader.read_u64()?;
        if payload_len(count) != Some(payload) {
            return Err(DecodeError::InvalidValue {
                what: "trace entry count",
            }
            .into());
        }
        reader.remaining = count;
        Ok(reader)
    }

    /// Entries not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Reads exactly `buf.len()` bytes, optionally feeding the CRC.
    fn fill(&mut self, buf: &mut [u8], checksummed: bool) -> Result<(), TraceFileError> {
        let mut got = 0;
        while got < buf.len() {
            let n = self
                .file
                .read(&mut buf[got..])
                .map_err(|e| DecodeError::Io {
                    path: self.path.display().to_string(),
                    message: e.to_string(),
                })?;
            if n == 0 {
                return Err(DecodeError::Truncated {
                    needed: buf.len() as u64,
                    available: got as u64,
                }
                .into());
            }
            got += n;
        }
        if checksummed {
            self.crc.update(buf);
        }
        Ok(())
    }

    fn read_u64(&mut self) -> Result<u64, TraceFileError> {
        let mut buf = [0u8; 8];
        self.fill(&mut buf, true)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Yields the next validated entry; after the last one, verifies the
    /// CRC and that the file ends.
    fn next_entry(&mut self) -> Result<Option<TraceEntry>, TraceFileError> {
        if self.remaining == 0 {
            let mut stored = [0u8; 4];
            self.fill(&mut stored, false)?;
            let stored = u32::from_le_bytes(stored);
            let computed = self.crc.finalize();
            if stored != computed {
                return Err(DecodeError::ChecksumMismatch { stored, computed }.into());
            }
            let mut probe = [0u8; 1];
            let extra = self.file.read(&mut probe).map_err(|e| DecodeError::Io {
                path: self.path.display().to_string(),
                message: e.to_string(),
            })?;
            if extra != 0 {
                return Err(DecodeError::TrailingBytes { count: 1 }.into());
            }
            return Ok(None);
        }
        let mut buf = [0u8; ENTRY_WIRE];
        self.fill(&mut buf, true)?;
        let mut r = Decoder::new(&buf);
        let entry = TraceEntry::decode(&mut r)?;
        entry.validate(self.index, None)?;
        if entry.at < self.prev {
            return Err(TraceError::TimestampRegression {
                index: self.index,
                prev: self.prev,
                at: entry.at,
            }
            .into());
        }
        self.prev = entry.at;
        self.index += 1;
        self.remaining -= 1;
        Ok(Some(entry))
    }
}

impl Iterator for TraceReader {
    type Item = Result<TraceEntry, TraceFileError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.next_entry() {
            Ok(Some(entry)) => Some(Ok(entry)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn streaming_writer_matches_in_memory_encoder_byte_for_byte() {
        let dir = temp_dir("stream-vs-memory");
        let trace = sample();
        let path = dir.join("t.trace");
        save_trace(&path, &trace).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode_trace(&trace));
        assert!(!path.with_extension("tmp").exists());
        // And the generic record reader accepts the streamed file.
        let (kind, _) = uc_persist::read_record_file(&path).unwrap();
        assert_eq!(kind, TRACE_RECORD_KIND);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_reader_round_trips_and_counts() {
        let dir = temp_dir("stream-read");
        let trace = sample();
        let path = dir.join("t.trace");
        save_trace(&path, &trace).unwrap();
        let mut reader = TraceReader::open(&path).unwrap();
        assert_eq!(reader.remaining(), trace.len() as u64);
        let first = reader.next().unwrap().unwrap();
        assert_eq!(first, trace.entries()[0]);
        assert_eq!(reader.remaining(), trace.len() as u64 - 1);
        let loaded = load_trace(&path).unwrap();
        assert_eq!(loaded, trace);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_enforces_the_declared_count() {
        let dir = temp_dir("writer-count");
        let trace = sample();
        let path = dir.join("t.trace");
        // Too few entries: finish refuses.
        let mut writer = TraceWriter::create(&path, 5).unwrap();
        writer.append(&trace.entries()[0]).unwrap();
        assert_eq!(writer.remaining(), 4);
        let err = writer.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!path.exists(), "no torn record was published");
        // Too many entries: append refuses.
        let mut writer = TraceWriter::create(&path, 1).unwrap();
        writer.append(&trace.entries()[0]).unwrap();
        let err = writer.append(&trace.entries()[1]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        writer.finish().unwrap();
        assert_eq!(load_trace(&path).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

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
            // Streaming decode of the same bytes.
            std::fs::write(&path, bytes).unwrap();
            let err = match TraceReader::open(&path) {
                Err(e) => e,
                Ok(reader) => reader
                    .filter_map(|r| r.err())
                    .next()
                    .unwrap_or_else(|| panic!("{label}: streaming read must fail")),
            };
            assert!(expected(&err), "{label}: TraceReader gave {err:?}");
        }

        // A wrong kind tag is an UnknownKind for both paths.
        let foreign = uc_persist::encode_record("uc.other.v1", b"12345678");
        assert!(matches!(
            decode_trace(&foreign).unwrap_err(),
            TraceFileError::Decode(DecodeError::UnknownKind { .. })
        ));
        std::fs::write(&path, &foreign).unwrap();
        assert!(matches!(
            TraceReader::open(&path).unwrap_err(),
            TraceFileError::Decode(DecodeError::UnknownKind { .. })
        ));
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
        // The streaming reader rejects the same bytes the same way.
        let dir = temp_dir("invalid-entries");
        let path = dir.join("t.trace");
        std::fs::write(&path, &record).unwrap();
        let errs: Vec<TraceFileError> = TraceReader::open(&path)
            .unwrap()
            .filter_map(|r| r.err())
            .collect();
        assert!(matches!(
            errs[..],
            [TraceFileError::Invalid(TraceError::TimestampRegression {
                index: 1,
                ..
            })]
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
