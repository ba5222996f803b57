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
//! Each device is its own checkpoint payload ([`PersistPayload`]): an
//! `Ssd` or `Essd` checkpoint is a clone of the device, and its wire form
//! is the device's own [`Persist`] codec behind the device name and the
//! payload's kind tag ([`DeviceCheckpoint::encode_payload`]). A durable
//! save needs no clone: [`CheckpointDevice::encode_checkpoint`] writes
//! the same bytes straight from the live device. [`DeviceCheckpoint`]
//! type-erases the payload so checkpoints of heterogeneous devices can
//! travel through one channel (an experiment pipeline, a queue between
//! workers).

use std::any::Any;
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::Path;

use crate::{BlockDevice, DeviceInfo};
use uc_invariant::{ensure, Contract, Violation};
use uc_persist::{DecodeError, Decoder, Encoder, Persist};

/// Object-safe clonable payload — the erased state of a checkpoint.
trait ErasedState: Any + Send {
    fn clone_box(&self) -> Box<dyn ErasedState>;
    fn as_any(&self) -> &dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    fn state_type(&self) -> &'static str;
    /// Writes this payload's wire form as `device`'s checkpoint.
    fn encode_as(&self, device: &str, w: &mut Encoder);
    /// The decoder of this payload's type.
    fn codec(&self) -> PayloadCodec;
}

impl<S: PersistPayload> ErasedState for S {
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
    fn encode_as(&self, device: &str, w: &mut Encoder) {
        DeviceCheckpoint::encode_payload(device, self, w)
    }
    fn codec(&self) -> PayloadCodec {
        PayloadCodec::of::<S>()
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

/// The erased decoder of one [`PersistPayload`] type.
///
/// A codec is how [`DeviceCheckpoint::load_from`] turns a record tag back
/// into a concrete payload: callers pass the codecs of every device class
/// they can restore (e.g. `uc-core`'s roster passes the SSD and ESSD
/// codecs), and the tag stored in the file selects one — or fails with
/// [`DecodeError::UnknownKind`]. Encoding needs no codec: a payload
/// writes itself ([`DeviceCheckpoint::encode_payload`]).
#[derive(Clone, Copy)]
pub struct PayloadCodec {
    kind: &'static str,
    decode: fn(&mut Decoder<'_>) -> Result<Box<dyn ErasedState>, DecodeError>,
}

impl PayloadCodec {
    /// The codec of payload type `S`.
    pub fn of<S: PersistPayload>() -> Self {
        PayloadCodec {
            kind: S::KIND,
            decode: |r| Ok(Box::new(S::decode(r)?)),
        }
    }

    /// The stable record tag this codec reads.
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
/// across worker threads. Every payload is a [`PersistPayload`], so every
/// checkpoint has a durable on-disk form via [`DeviceCheckpoint::save_to`]
/// / [`DeviceCheckpoint::load_from`].
pub struct DeviceCheckpoint {
    device: String,
    state: Box<dyn ErasedState>,
}

impl DeviceCheckpoint {
    /// Wraps a checkpoint payload for the named device.
    pub fn persistent<S: PersistPayload>(device: impl Into<String>, state: S) -> Self {
        DeviceCheckpoint {
            device: device.into(),
            state: Box::new(state),
        }
    }

    /// Writes `state`'s wire form as `device`'s checkpoint: the device
    /// name, the payload kind tag, then the length-prefixed payload
    /// bytes. This is the one definition of the layout: a checkpoint's
    /// [`encode_into`](Self::encode_into) and a live device's
    /// [`CheckpointDevice::encode_checkpoint`] both write through it.
    pub fn encode_payload<S: PersistPayload>(device: &str, state: &S, w: &mut Encoder) {
        w.put_str(device);
        w.put_str(S::KIND);
        w.put_block(|w| state.encode(w));
    }

    /// Appends this checkpoint's wire form
    /// ([`encode_payload`](Self::encode_payload)) to `w` — the embedded
    /// form larger records compose.
    ///
    /// Never fails: every payload writes itself. The `Result` stays only
    /// because the perfbench micro-suite still `expect`s one.
    pub fn encode_into(&self, w: &mut Encoder) -> Result<(), Infallible> {
        self.state.encode_as(&self.device, w);
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
        Ok(DeviceCheckpoint { device, state })
    }

    /// Writes this checkpoint to `path` as a stand-alone record file
    /// (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Propagates the filesystem errors.
    pub fn save_to(&self, path: &Path) -> io::Result<()> {
        uc_persist::write_record_file(path, DEVICE_RECORD_KIND, |w| {
            self.state.encode_as(&self.device, w)
        })
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

    /// Restores a device that is its own payload: checks the name, moves
    /// the payload out and, if its [`DeviceInfo`] (read through `info`)
    /// equals `device`'s, moves it into `device`. Copies and allocates
    /// nothing on success — the body of `restore_from` for `Ssd` and
    /// `Essd`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::DeviceMismatch`] for another device name
    /// or geometry (same name, other capacity) and
    /// [`CheckpointError::StateMismatch`] for another device class; on
    /// error `device` is unchanged.
    pub fn restore_onto<S: PersistPayload>(
        self,
        device: &mut S,
        info: fn(&S) -> &DeviceInfo,
    ) -> Result<(), CheckpointError> {
        let expected = info(device);
        self.expect_device(expected.name())?;
        let restored = self.into_state::<S>()?;
        // Same name is not enough: a checkpoint from a differently-scaled
        // device must not silently shrink or grow this one.
        let found = info(&restored);
        if found != expected {
            return Err(CheckpointError::DeviceMismatch {
                expected: format!("{} ({} B)", expected.name(), expected.capacity()),
                found: format!("{} ({} B)", found.name(), found.capacity()),
            });
        }
        *device = restored;
        Ok(())
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

/// Durability audit of a frozen device: a checkpoint's wire form must
/// decode back with its own codec and re-encode to the identical bytes —
/// the on-disk half of the freeze/thaw exactness contract. O(payload
/// size); called by the invariant property suites, not per op.
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
        let mut w = Encoder::new();
        self.state.encode_as(&self.device, &mut w);
        let mut r = Decoder::new(w.as_bytes());
        let decoded = match DeviceCheckpoint::decode_from(&mut r, &[self.state.codec()]) {
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
        decoded.state.encode_as(&decoded.device, &mut again);
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

    /// Writes the wire form of this device's checkpoint (device name,
    /// payload kind tag, length-prefixed payload) into `w`: the bytes
    /// `self.checkpoint().encode_into(w)` writes. Durable saves and
    /// migration fingerprints encode through this.
    ///
    /// The default takes that checkpoint, a copy of the device. A device
    /// that is its own payload writes itself instead
    /// ([`DeviceCheckpoint::encode_payload`]), and a wrapper forwards to
    /// its inner device, so neither copies anything.
    fn encode_checkpoint(&self, w: &mut Encoder) {
        let Ok(()) = self.checkpoint().encode_into(w);
    }

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
    fn encode_checkpoint(&self, w: &mut Encoder) {
        (**self).encode_checkpoint(w)
    }
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        (**self).restore_from(checkpoint)
    }
}

impl<D: CheckpointDevice + ?Sized> CheckpointDevice for Box<D> {
    fn checkpoint(&self) -> DeviceCheckpoint {
        (**self).checkpoint()
    }
    fn encode_checkpoint(&self, w: &mut Encoder) {
        (**self).encode_checkpoint(w)
    }
    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        (**self).restore_from(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IoRequest, IoResult};
    use uc_sim::{SimDuration, SimTime};

    /// A minimal stateful device, its own checkpoint payload: a
    /// busy-until timeline.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Toy {
        busy_until: SimTime,
    }

    uc_persist::persist_struct! { Toy { busy_until } }

    impl PersistPayload for Toy {
        const KIND: &'static str = "uc.toy-checkpoint.v1";
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
            DeviceCheckpoint::persistent("toy", self.clone())
        }
        fn encode_checkpoint(&self, w: &mut Encoder) {
            DeviceCheckpoint::encode_payload("toy", self, w)
        }
        fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
            checkpoint.expect_device("toy")?;
            *self = checkpoint.into_state::<Toy>()?;
            Ok(())
        }
    }

    fn toy(micros: u64) -> Toy {
        Toy {
            busy_until: SimTime::ZERO + SimDuration::from_micros(micros),
        }
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut a = toy(0);
        for _ in 0..3 {
            a.submit(&IoRequest::read(0, 4096, SimTime::ZERO)).unwrap();
        }
        let cp = a.checkpoint();
        assert_eq!(cp.device(), "toy");
        assert!(cp.state_type().contains("Toy"));
        let mut b = toy(0);
        b.restore_from(cp.clone()).unwrap();
        let req = IoRequest::write(4096, 4096, SimTime::ZERO);
        assert_eq!(a.submit(&req), b.submit(&req));
    }

    #[test]
    fn checkpoints_clone_and_cross_threads() {
        let a = toy(42);
        let cp = a.checkpoint();
        let copy = cp.clone();
        let handle = std::thread::spawn(move || {
            let mut b = toy(0);
            b.restore_from(copy).unwrap();
            b.busy_until
        });
        assert_eq!(handle.join().unwrap(), a.busy_until);
        // The original is still usable after the clone moved away.
        assert_eq!(cp.state::<Toy>().unwrap(), &a);
    }

    #[test]
    fn mismatches_are_loud() {
        let cp = toy(0).checkpoint();
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
        let mut dev: Box<dyn CheckpointDevice + Send> = Box::new(toy(0));
        // The supertrait's methods flow through the trait object…
        dev.submit(&IoRequest::read(0, 4096, SimTime::ZERO))
            .unwrap();
        // …and so do the checkpoint methods, including via &mut.
        let cp = dev.checkpoint();
        let dev_ref: &mut (dyn CheckpointDevice + Send) = &mut *dev;
        dev_ref.restore_from(cp.clone()).unwrap();
        assert_eq!(
            dev.checkpoint().state::<Toy>().unwrap(),
            cp.state::<Toy>().unwrap()
        );
    }

    /// The live encode and its boxed and borrowed forwards write the
    /// checkpoint's own wire form (`tests/persist.rs` checks the trait
    /// default).
    #[test]
    fn live_encodes_write_the_checkpoint_bytes() {
        let dev = toy(17);
        let mut expected = Encoder::new();
        let Ok(()) = dev.checkpoint().encode_into(&mut expected);
        let boxed: Box<dyn CheckpointDevice + Send> = Box::new(dev.clone());
        let mut other = dev.clone();
        let borrowed = &mut other;
        let devices: [&dyn CheckpointDevice; 3] = [&dev, &boxed, &borrowed];
        for device in devices {
            let mut w = Encoder::new();
            device.encode_checkpoint(&mut w);
            assert_eq!(w.as_bytes(), expected.as_bytes());
        }
    }

    #[test]
    fn debug_shows_device_and_payload_type() {
        let cp = DeviceCheckpoint::persistent("dbg", toy(7));
        let text = format!("{cp:?}");
        assert!(text.contains("dbg"));
        assert!(text.contains("Toy"));
    }

    fn toy_codecs() -> Vec<PayloadCodec> {
        vec![PayloadCodec::of::<Toy>()]
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("uc-blockdev-persist-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn save_and_load_round_trip_restores_the_device() {
        let mut a = toy(0);
        for _ in 0..5 {
            a.submit(&IoRequest::write(0, 4096, SimTime::ZERO)).unwrap();
        }
        let path = temp_path("toy-roundtrip.ckpt");
        a.checkpoint().save_to(&path).unwrap();

        let loaded = DeviceCheckpoint::load_from(&path, &toy_codecs()).unwrap();
        assert_eq!(loaded.device(), "toy");
        let mut b = toy(0);
        b.restore_from(loaded).unwrap();
        let req = IoRequest::read(0, 4096, SimTime::ZERO);
        assert_eq!(a.submit(&req), b.submit(&req));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_checkpoint_can_be_saved_again() {
        let cp = DeviceCheckpoint::persistent("toy", toy(7));
        let path = temp_path("toy-resave.ckpt");
        cp.save_to(&path).unwrap();
        let loaded = DeviceCheckpoint::load_from(&path, &toy_codecs()).unwrap();
        let path2 = temp_path("toy-resave-2.ckpt");
        loaded.save_to(&path2).unwrap();
        let again = DeviceCheckpoint::load_from(&path2, &toy_codecs()).unwrap();
        assert_eq!(again.state::<Toy>().unwrap(), &toy(7));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn unknown_payload_kind_is_typed() {
        let path = temp_path("toy-unknown-kind.ckpt");
        toy(0).checkpoint().save_to(&path).unwrap();
        // A reader with no codecs cannot dispatch the payload.
        assert!(matches!(
            DeviceCheckpoint::load_from(&path, &[]),
            Err(DecodeError::UnknownKind { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_file_decodes_to_typed_errors() {
        let path = temp_path("toy-corrupt.ckpt");
        DeviceCheckpoint::persistent("toy", toy(11))
            .save_to(&path)
            .unwrap();
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
