//! Device checkpoint/restore: freezing a device's complete hidden state.
//!
//! The simulators are stateful in ways that matter to the paper's
//! measurements — FTL mappings and wear, write-buffer occupancy, token
//! bucket levels, RNG positions. [`CheckpointDevice`] extends
//! [`BlockDevice`](crate::BlockDevice) with the ability to capture all of
//! that state into a [`DeviceCheckpoint`] and to restore it later — on the
//! same device instance, on a freshly built one, or on another thread.
//!
//! The contract is **exactness**: a device restored from a checkpoint must
//! produce, for any subsequent request sequence, the same completion
//! instants, statistics and internal transitions the original device would
//! have produced had it never been checkpointed. This is what lets a long
//! endurance run (the paper's Figure 3: 3× capacity of sustained writes)
//! be sliced into resumable segments whose concatenation is byte-identical
//! to one continuous run.
//!
//! Each device is its own checkpoint payload: an `Ssd` or `Essd` checkpoint
//! is a clone of the device, and its durable form is the device's own
//! [`Persist`] codec. [`DeviceCheckpoint`] type-erases the payload so
//! checkpoints of heterogeneous devices can travel through one channel
//! (an experiment pipeline, a queue between workers).

use std::any::Any;
use std::error::Error;
use std::fmt;
use std::path::Path;

use crate::BlockDevice;
use uc_invariant::{ensure, Contract, Violation};
use uc_persist::{DecodeError, Decoder, Encoder, Persist};

/// Object-safe clonable `Any` — the erased payload of a checkpoint.
trait ErasedState: Any + Send {
    fn clone_box(&self) -> Box<dyn ErasedState>;
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    fn state_type(&self) -> &'static str;
}

impl<S: Any + Send + Clone> ErasedState for S {
    fn clone_box(&self) -> Box<dyn ErasedState> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn state_type(&self) -> &'static str {
        std::any::type_name::<S>()
    }
}

/// A device checkpoint payload with a durable on-disk form.
///
/// Implemented by the device types themselves (`Ssd`, `Essd`, …). The
/// [`Persist`] supertrait provides the byte codec;
/// [`PersistPayload::KIND`] is the **stable** record tag written next to
/// the bytes, so a reader can dispatch to the right decoder — change the
/// payload's layout and the tag must change with it (`…·v1` → `…·v2`).
pub trait PersistPayload: Any + Send + Clone + Persist {
    /// Stable on-disk tag naming this payload type and layout version.
    const KIND: &'static str;
}

/// The erased encode/decode hooks of one [`PersistPayload`] type.
///
/// A codec is how [`DeviceCheckpoint::load_from`] turns a record tag back
/// into a concrete payload: callers pass the codecs of every device class
/// they can restore (e.g. `uc-core`'s roster passes the SSD and ESSD
/// codecs), and the tag stored in the file selects one — or fails with
/// [`DecodeError::UnknownKind`].
#[derive(Clone, Copy)]
pub struct PayloadCodec {
    kind: &'static str,
    encode: fn(&dyn Any, &mut Encoder),
    decode: fn(&mut Decoder<'_>) -> Result<Box<dyn ErasedState>, DecodeError>,
}

impl PayloadCodec {
    /// The codec of payload type `S`.
    pub fn of<S: PersistPayload>() -> Self {
        PayloadCodec {
            kind: S::KIND,
            encode: |state, w| {
                state
                    .downcast_ref::<S>()
                    .expect("codec invoked on its own payload type")
                    .encode(w)
            },
            decode: |r| Ok(Box::new(S::decode(r)?)),
        }
    }

    /// The stable record tag this codec reads and writes.
    pub fn kind(&self) -> &'static str {
        self.kind
    }
}

impl fmt::Debug for PayloadCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadCodec")
            .field("kind", &self.kind)
            .finish()
    }
}

/// Errors saving a [`DeviceCheckpoint`] to disk.
#[derive(Debug)]
pub enum PersistError {
    /// The checkpoint's payload was constructed without a persistence
    /// codec ([`DeviceCheckpoint::new`] instead of
    /// [`DeviceCheckpoint::persistent`]), so it has no on-disk form.
    NotPersistent {
        /// The payload type's name (diagnostics only).
        state_type: &'static str,
    },
    /// Writing the record file failed.
    Io(std::io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::NotPersistent { state_type } => {
                write!(
                    f,
                    "checkpoint payload `{state_type}` has no persistence codec"
                )
            }
            PersistError::Io(e) => write!(f, "writing checkpoint: {e}"),
        }
    }
}

impl Error for PersistError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PersistError::NotPersistent { .. } => None,
            PersistError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The record kind tag of a stand-alone device-checkpoint file.
pub const DEVICE_RECORD_KIND: &str = "uc.device-checkpoint.v1";

/// A type-erased snapshot of one device's complete hidden state.
///
/// Produced by [`CheckpointDevice::checkpoint`]; consumed by
/// [`CheckpointDevice::restore_from`] (or taken apart by downcasting with
/// [`DeviceCheckpoint::state`] / [`DeviceCheckpoint::into_state`]). The
/// checkpoint records the device's name so restoring onto the wrong
/// device fails loudly instead of silently producing a chimera.
///
/// Checkpoints are `Clone + Send`: they can be kept for re-runs and handed
/// across worker threads. A checkpoint built with
/// [`DeviceCheckpoint::persistent`] additionally carries its payload's
/// [`PayloadCodec`], giving it a durable on-disk form via
/// [`DeviceCheckpoint::save_to`] / [`DeviceCheckpoint::load_from`].
pub struct DeviceCheckpoint {
    device: String,
    state: Box<dyn ErasedState>,
    codec: Option<PayloadCodec>,
}

impl DeviceCheckpoint {
    /// Wraps a concrete checkpoint payload for the named device.
    ///
    /// The resulting checkpoint has no on-disk form (use
    /// [`DeviceCheckpoint::persistent`] for payloads implementing
    /// [`PersistPayload`]); it still travels freely between threads.
    pub fn new<S: Any + Send + Clone>(device: impl Into<String>, state: S) -> Self {
        DeviceCheckpoint {
            device: device.into(),
            state: Box::new(state),
            codec: None,
        }
    }

    /// Wraps a persistable checkpoint payload for the named device,
    /// capturing its [`PayloadCodec`] so the checkpoint can be saved to
    /// and loaded from disk.
    pub fn persistent<S: PersistPayload>(device: impl Into<String>, state: S) -> Self {
        DeviceCheckpoint {
            device: device.into(),
            state: Box::new(state),
            codec: Some(PayloadCodec::of::<S>()),
        }
    }

    /// `true` if this checkpoint carries a persistence codec (was built
    /// with [`DeviceCheckpoint::persistent`] or loaded from disk).
    pub fn is_persistent(&self) -> bool {
        self.codec.is_some()
    }

    /// Appends this checkpoint's wire form (device name, payload kind
    /// tag, length-prefixed payload bytes) to `w` — the embedded form
    /// larger records (a fig3 segment checkpoint) compose.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NotPersistent`] if the payload was
    /// constructed without a codec.
    pub fn encode_into(&self, w: &mut Encoder) -> Result<(), PersistError> {
        let codec = self.codec.ok_or(PersistError::NotPersistent {
            state_type: self.state.state_type(),
        })?;
        w.put_str(&self.device);
        w.put_str(codec.kind);
        w.put_block(|w| (codec.encode)(self.state.as_any(), w));
        Ok(())
    }

    /// Parses a checkpoint back out of its wire form, dispatching the
    /// payload to whichever of `codecs` wrote it.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::UnknownKind`] if no codec matches the
    /// stored tag, or the payload's own [`DecodeError`] if its bytes are
    /// malformed.
    pub fn decode_from(r: &mut Decoder<'_>, codecs: &[PayloadCodec]) -> Result<Self, DecodeError> {
        let device = r.get_string()?;
        let kind = r.get_string()?;
        let payload = r.get_bytes()?;
        let codec = codecs
            .iter()
            .find(|c| c.kind == kind)
            .ok_or(DecodeError::UnknownKind { found: kind })?;
        let mut pr = Decoder::new(payload);
        let state = (codec.decode)(&mut pr)?;
        pr.finish()?;
        Ok(DeviceCheckpoint {
            device,
            state,
            codec: Some(*codec),
        })
    }

    /// Writes this checkpoint to `path` as a stand-alone record file
    /// (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::NotPersistent`] for codec-less payloads
    /// and [`PersistError::Io`] for filesystem failures.
    pub fn save_to(&self, path: &Path) -> Result<(), PersistError> {
        uc_persist::write_record_file(path, DEVICE_RECORD_KIND, |w| self.encode_into(w))
    }

    /// Reads a checkpoint back from a stand-alone record file written by
    /// [`DeviceCheckpoint::save_to`].
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`DecodeError`]: missing or unreadable
    /// files, foreign bytes, truncation, bit flips, future format
    /// versions and unknown payload kinds all come back as the matching
    /// variant — never a panic.
    pub fn load_from(path: &Path, codecs: &[PayloadCodec]) -> Result<Self, DecodeError> {
        let payload = uc_persist::read_record_file(path, DEVICE_RECORD_KIND)?;
        let mut r = Decoder::new(&payload);
        let checkpoint = Self::decode_from(&mut r, codecs)?;
        r.finish()?;
        Ok(checkpoint)
    }

    /// The name of the device this checkpoint was taken from.
    pub fn device(&self) -> &str {
        &self.device
    }

    /// The concrete payload type's name (diagnostics only).
    pub fn state_type(&self) -> &'static str {
        self.state.state_type()
    }

    /// Downcasts the payload to the concrete checkpoint type `S`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StateMismatch`] if the payload is not an
    /// `S` (the checkpoint came from a different device class).
    pub fn state<S: Any>(&self) -> Result<&S, CheckpointError> {
        self.state
            .as_any()
            .downcast_ref::<S>()
            .ok_or_else(|| CheckpointError::StateMismatch {
                expected: std::any::type_name::<S>(),
                found: self.state.state_type(),
            })
    }

    /// Consumes the checkpoint, yielding the concrete payload without a
    /// copy — the restore hot path (payloads carry full device mappings,
    /// which can be GiBs at paper scale).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::StateMismatch`] if the payload is not an
    /// `S` (the checkpoint came from a different device class).
    pub fn into_state<S: Any>(self) -> Result<S, CheckpointError> {
        let found = self.state.state_type();
        self.state
            .into_any()
            .downcast::<S>()
            .map(|boxed| *boxed)
            .map_err(|_| CheckpointError::StateMismatch {
                expected: std::any::type_name::<S>(),
                found,
            })
    }

    /// Verifies this checkpoint was taken from a device named `device`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::DeviceMismatch`] otherwise.
    pub fn expect_device(&self, device: &str) -> Result<(), CheckpointError> {
        if self.device == device {
            Ok(())
        } else {
            Err(CheckpointError::DeviceMismatch {
                expected: device.to_string(),
                found: self.device.clone(),
            })
        }
    }
}

/// Durability audit of a frozen device: a persistent checkpoint's wire
/// form must decode back with its own codec and re-encode to the identical
/// bytes — the on-disk half of the freeze/thaw exactness contract.
/// O(payload size); called by the invariant property suites, not per op.
impl Contract for DeviceCheckpoint {
    fn contract_name(&self) -> &'static str {
        "uc-blockdev/DeviceCheckpoint"
    }

    fn check(&self) -> Result<(), Violation> {
        ensure!(
            self,
            "device-named",
            !self.device.is_empty(),
            "checkpoint has an empty device name"
        );
        // Codec-less checkpoints have no wire form to audit.
        let Some(codec) = self.codec else {
            return Ok(());
        };
        let mut w = Encoder::new();
        ensure!(
            self,
            "persistent-encodes",
            self.encode_into(&mut w).is_ok(),
            "persistent checkpoint of {} failed to encode",
            self.device
        );
        let mut r = Decoder::new(w.as_bytes());
        let decoded = match DeviceCheckpoint::decode_from(&mut r, &[codec]) {
            Ok(decoded) => decoded,
            Err(e) => {
                return Err(Violation::new(
                    self.contract_name(),
                    "wire-roundtrip-decodes",
                    format!("checkpoint of {} does not decode back: {e}", self.device),
                ))
            }
        };
        ensure!(
            self,
            "wire-roundtrip-device",
            decoded.device == self.device,
            "decoded device name {:?} != {:?}",
            decoded.device,
            self.device
        );
        let mut again = Encoder::new();
        ensure!(
            self,
            "wire-roundtrip-reencodes",
            decoded.encode_into(&mut again).is_ok(),
            "decoded checkpoint of {} failed to re-encode",
            self.device
        );
        ensure!(
            self,
            "wire-roundtrip-stable",
            again.as_bytes() == w.as_bytes(),
            "re-encoding the decoded checkpoint of {} changed {} -> {} bytes or contents",
            self.device,
            w.as_bytes().len(),
            again.as_bytes().len()
        );
        Ok(())
    }
}

impl Clone for DeviceCheckpoint {
    fn clone(&self) -> Self {
        DeviceCheckpoint {
            device: self.device.clone(),
            state: self.state.clone_box(),
            codec: self.codec,
        }
    }
}

impl fmt::Debug for DeviceCheckpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DeviceCheckpoint")
            .field("device", &self.device)
            .field("state", &self.state.state_type())
            .finish()
    }
}

/// Errors returned when restoring from a [`DeviceCheckpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was taken from a different device.
    DeviceMismatch {
        /// The device a restore was attempted on.
        expected: String,
        /// The device the checkpoint was actually taken from.
        found: String,
    },
    /// The checkpoint payload is of a different device class.
    StateMismatch {
        /// The payload type the restoring device requires.
        expected: &'static str,
        /// The payload type the checkpoint holds.
        found: &'static str,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::DeviceMismatch { expected, found } => {
                write!(
                    f,
                    "checkpoint of device `{found}` restored onto `{expected}`"
                )
            }
            CheckpointError::StateMismatch { expected, found } => {
                write!(f, "checkpoint payload is `{found}`, expected `{expected}`")
            }
        }
    }
}

impl Error for CheckpointError {}

/// A block device whose complete hidden state can be captured and
/// restored.
///
/// Implementations must uphold the exactness contract: after
/// `restore_from`, the device behaves — completion instants, statistics,
/// internal transitions — exactly as the checkpointed device would have.
/// In particular, for any request sequence `reqs` and any split point `k`:
///
/// ```text
/// run(dev, reqs)  ==  { run(dev, reqs[..k]);
///                       cp = dev.checkpoint();
///                       fresh.restore_from(cp);
///                       run(fresh, reqs[k..]) }
/// ```
///
/// The trait is object-safe, and `dyn CheckpointDevice` implements
/// [`BlockDevice`] through its supertrait vtable, so checkpointable
/// devices flow through the same driver code as plain ones.
pub trait CheckpointDevice: BlockDevice {
    /// Captures the device's complete hidden state.
    fn checkpoint(&self) -> DeviceCheckpoint;

    /// Replaces this device's state with the checkpoint's, consuming the
    /// checkpoint (its payload moves into the device — no copy; clone the
    /// checkpoint first to keep it).
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] if the checkpoint was taken from a
    /// different device (by name or geometry) or holds a payload of
    /// another device class. On error the device is left unchanged (the
    /// checkpoint is still consumed).
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError>;
}

impl<D: CheckpointDevice + ?Sized> CheckpointDevice for &mut D {
    fn checkpoint(&self) -> DeviceCheckpoint {
        (**self).checkpoint()
    }
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        (**self).restore_from(checkpoint)
    }
}

impl<D: CheckpointDevice + ?Sized> CheckpointDevice for Box<D> {
    fn checkpoint(&self) -> DeviceCheckpoint {
        (**self).checkpoint()
    }
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        (**self).restore_from(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceInfo, IoRequest, IoResult};
    use uc_sim::{SimDuration, SimTime};

    /// A minimal stateful device: a busy-until timeline.
    #[derive(Clone)]
    struct Toy {
        busy_until: SimTime,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct ToyCheckpoint {
        busy_until: SimTime,
    }

    impl BlockDevice for Toy {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("toy", 1 << 20, 4096)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            let start = self.busy_until.max(req.submit_time);
            self.busy_until = start + SimDuration::from_micros(5);
            Ok(self.busy_until)
        }
    }

    impl CheckpointDevice for Toy {
        fn checkpoint(&self) -> DeviceCheckpoint {
            DeviceCheckpoint::new(
                "toy",
                ToyCheckpoint {
                    busy_until: self.busy_until,
                },
            )
        }
        fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
            checkpoint.expect_device("toy")?;
            let state = checkpoint.into_state::<ToyCheckpoint>()?;
            self.busy_until = state.busy_until;
            Ok(())
        }
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut a = Toy {
            busy_until: SimTime::ZERO,
        };
        for _ in 0..3 {
            a.submit(&IoRequest::read(0, 4096, SimTime::ZERO)).unwrap();
        }
        let cp = a.checkpoint();
        assert_eq!(cp.device(), "toy");
        assert!(cp.state_type().contains("ToyCheckpoint"));
        let mut b = Toy {
            busy_until: SimTime::ZERO,
        };
        b.restore_from(cp.clone()).unwrap();
        let req = IoRequest::write(4096, 4096, SimTime::ZERO);
        assert_eq!(a.submit(&req), b.submit(&req));
    }

    #[test]
    fn checkpoints_clone_and_cross_threads() {
        let a = Toy {
            busy_until: SimTime::ZERO + SimDuration::from_micros(42),
        };
        let cp = a.checkpoint();
        let copy = cp.clone();
        let handle = std::thread::spawn(move || {
            let mut b = Toy {
                busy_until: SimTime::ZERO,
            };
            b.restore_from(copy).unwrap();
            b.busy_until
        });
        assert_eq!(handle.join().unwrap(), a.busy_until);
        // The original is still usable after the clone moved away.
        assert_eq!(
            cp.state::<ToyCheckpoint>().unwrap().busy_until,
            a.busy_until
        );
    }

    #[test]
    fn mismatches_are_loud() {
        let cp = Toy {
            busy_until: SimTime::ZERO,
        }
        .checkpoint();
        assert!(matches!(
            cp.expect_device("other"),
            Err(CheckpointError::DeviceMismatch { .. })
        ));
        let err = cp.state::<u32>().unwrap_err();
        assert!(matches!(err, CheckpointError::StateMismatch { .. }));
        assert!(!err.to_string().is_empty());
        let boxed: Box<dyn Error> = Box::new(err);
        assert!(boxed.to_string().contains("expected"));
    }

    #[test]
    fn trait_is_object_safe_and_boxes_forward() {
        let mut dev: Box<dyn CheckpointDevice + Send> = Box::new(Toy {
            busy_until: SimTime::ZERO,
        });
        // The supertrait's methods flow through the trait object…
        dev.submit(&IoRequest::read(0, 4096, SimTime::ZERO))
            .unwrap();
        // …and so do the checkpoint methods, including via &mut.
        let cp = dev.checkpoint();
        let dev_ref: &mut (dyn CheckpointDevice + Send) = &mut *dev;
        dev_ref.restore_from(cp.clone()).unwrap();
        assert_eq!(
            dev.checkpoint().state::<ToyCheckpoint>().unwrap(),
            cp.state::<ToyCheckpoint>().unwrap()
        );
    }

    #[test]
    fn debug_shows_device_and_payload_type() {
        let cp = DeviceCheckpoint::new("dbg", 7u32);
        let text = format!("{cp:?}");
        assert!(text.contains("dbg"));
        assert!(text.contains("u32"));
    }

    uc_persist::persist_struct! { ToyCheckpoint { busy_until } }

    impl PersistPayload for ToyCheckpoint {
        const KIND: &'static str = "uc.toy-checkpoint.v1";
    }

    fn toy_codecs() -> Vec<PayloadCodec> {
        vec![PayloadCodec::of::<ToyCheckpoint>()]
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("uc-blockdev-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn save_and_load_round_trip_restores_the_device() {
        let mut a = Toy {
            busy_until: SimTime::ZERO,
        };
        for _ in 0..5 {
            a.submit(&IoRequest::write(0, 4096, SimTime::ZERO)).unwrap();
        }
        let cp = DeviceCheckpoint::persistent(
            "toy",
            ToyCheckpoint {
                busy_until: a.busy_until,
            },
        );
        assert!(cp.is_persistent());
        let path = temp_path("toy-roundtrip.ckpt");
        cp.save_to(&path).unwrap();

        let loaded = DeviceCheckpoint::load_from(&path, &toy_codecs()).unwrap();
        assert_eq!(loaded.device(), "toy");
        assert!(loaded.is_persistent());
        let mut b = Toy {
            busy_until: SimTime::ZERO,
        };
        b.restore_from(loaded).unwrap();
        let req = IoRequest::read(0, 4096, SimTime::ZERO);
        assert_eq!(a.submit(&req), b.submit(&req));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_checkpoint_can_be_saved_again() {
        let cp = DeviceCheckpoint::persistent(
            "toy",
            ToyCheckpoint {
                busy_until: SimTime::from_nanos(7),
            },
        );
        let path = temp_path("toy-resave.ckpt");
        cp.save_to(&path).unwrap();
        let loaded = DeviceCheckpoint::load_from(&path, &toy_codecs()).unwrap();
        let path2 = temp_path("toy-resave-2.ckpt");
        loaded.save_to(&path2).unwrap();
        let again = DeviceCheckpoint::load_from(&path2, &toy_codecs()).unwrap();
        assert_eq!(
            again.state::<ToyCheckpoint>().unwrap().busy_until,
            SimTime::from_nanos(7)
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn codec_less_checkpoints_refuse_to_save() {
        let cp = DeviceCheckpoint::new("toy", 9u32);
        assert!(!cp.is_persistent());
        let err = cp.save_to(&temp_path("never-written.ckpt")).unwrap_err();
        assert!(matches!(err, PersistError::NotPersistent { .. }));
        assert!(err.to_string().contains("u32"));
    }

    #[test]
    fn unknown_payload_kind_is_typed() {
        let cp = DeviceCheckpoint::persistent(
            "toy",
            ToyCheckpoint {
                busy_until: SimTime::ZERO,
            },
        );
        let path = temp_path("toy-unknown-kind.ckpt");
        cp.save_to(&path).unwrap();
        // A reader with no codecs cannot dispatch the payload.
        assert!(matches!(
            DeviceCheckpoint::load_from(&path, &[]),
            Err(DecodeError::UnknownKind { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_decodes_to_typed_errors() {
        let cp = DeviceCheckpoint::persistent(
            "toy",
            ToyCheckpoint {
                busy_until: SimTime::from_nanos(11),
            },
        );
        let path = temp_path("toy-corrupt.ckpt");
        cp.save_to(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flipped payload byte → checksum mismatch.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            DeviceCheckpoint::load_from(&path, &toy_codecs()),
            Err(DecodeError::ChecksumMismatch { .. })
        ));

        // Truncated file → truncated (or checksum, if the cut lands in
        // the trailing checksum field itself).
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(matches!(
            DeviceCheckpoint::load_from(&path, &toy_codecs()),
            Err(DecodeError::Truncated { .. })
        ));

        // Missing file → typed I/O error.
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            DeviceCheckpoint::load_from(&path, &toy_codecs()),
            Err(DecodeError::Io { .. })
        ));
    }
}
