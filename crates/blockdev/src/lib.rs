//! The block-device abstraction shared by every device model.
//!
//! Both the local SSD simulator (`uc-ssd`) and the elastic SSD simulator
//! (`uc-essd`) present the same interface the paper's devices present to
//! host software: a flat array of logical bytes supporting random reads and
//! writes. Workload drivers (`uc-workload`) are written against the
//! [`BlockDevice`] trait, so every experiment runs unchanged on any device.
//!
//! The simulators are *timeline-driven*: submitting a request immediately
//! returns the instant the request will complete, computed from the device's
//! internal resource timelines. A closed-loop driver keeps a queue-depth's
//! worth of requests outstanding by submitting each next request at the
//! completion instant of a previous one; this yields exactly the same
//! schedules an event loop would produce, at a fraction of the cost.
//!
//! Three companion layers complete the host-facing API:
//!
//! * the **queue pair** ([`IoBatch`] / [`Completion`] /
//!   [`BlockDevice::submit_batch_into`]) lets drivers issue a
//!   queue-depth's worth of requests per doorbell ring instead of one call
//!   per request, with completions posted into a queue the caller owns,
//! * the **checkpoint seam** ([`CheckpointDevice`] / [`DeviceCheckpoint`])
//!   captures a device's complete hidden state and restores it exactly,
//!   so one device's long virtual timeline can be sliced into resumable
//!   segments that different workers execute in turn,
//! * the **session seam** ([`SharedDevice`] / [`SessionId`]) multiplexes
//!   several tenants onto one device behind a shared queue discipline,
//!   with per-session accounting whose conservation is a machine-checked
//!   contract — the substrate of the multi-tenant fleet (`uc-fleet`).
//!
//! # Example
//!
//! ```
//! use uc_blockdev::{BlockDevice, DeviceInfo, IoKind, IoRequest, IoResult};
//! use uc_sim::{SimDuration, SimTime};
//!
//! /// A toy device: every I/O takes 10 us.
//! struct FixedLatency;
//!
//! impl BlockDevice for FixedLatency {
//!     fn info(&self) -> DeviceInfo {
//!         DeviceInfo::new("fixed", 1 << 30, 512)
//!     }
//!     fn submit(&mut self, req: &IoRequest) -> IoResult {
//!         Ok(req.submit_time + SimDuration::from_micros(10))
//!     }
//! }
//!
//! let mut dev = FixedLatency;
//! let req = IoRequest::read(0, 4096, SimTime::ZERO);
//! let done = dev.submit(&req)?;
//! assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(10));
//! # Ok::<(), uc_blockdev::IoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod checkpoint;
mod session;

pub use batch::{submit_each, Completion, IoBatch};
pub use checkpoint::{
    CheckpointDevice, CheckpointError, DeviceCheckpoint, PayloadCodec, PersistPayload,
    DEVICE_RECORD_KIND,
};
pub use session::{SessionId, SessionStats, SharedDevice};

use std::error::Error;
use std::fmt;
use uc_sim::SimTime;

/// Whether an I/O transfers data to or from the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoKind {
    /// Host reads data from the device.
    Read,
    /// Host writes data to the device.
    Write,
}

impl IoKind {
    /// `true` for [`IoKind::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, IoKind::Write)
    }

    /// `true` for [`IoKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, IoKind::Read)
    }
}

impl fmt::Display for IoKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoKind::Read => write!(f, "read"),
            IoKind::Write => write!(f, "write"),
        }
    }
}

uc_persist::persist_enum! { IoKind { 0 = Read, 1 = Write } }

/// One block-level I/O request.
///
/// Offsets and lengths are in bytes. The simulators are performance models:
/// requests carry no payload, only geometry and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// Read or write.
    pub kind: IoKind,
    /// Byte offset of the first accessed byte.
    pub offset: u64,
    /// Length in bytes; must be positive.
    pub len: u32,
    /// The instant the host submits the request.
    pub submit_time: SimTime,
}

impl IoRequest {
    /// A read of `len` bytes at `offset`, submitted at `submit_time`.
    pub fn read(offset: u64, len: u32, submit_time: SimTime) -> Self {
        IoRequest {
            kind: IoKind::Read,
            offset,
            len,
            submit_time,
        }
    }

    /// A write of `len` bytes at `offset`, submitted at `submit_time`.
    pub fn write(offset: u64, len: u32, submit_time: SimTime) -> Self {
        IoRequest {
            kind: IoKind::Write,
            offset,
            len,
            submit_time,
        }
    }

    /// The first byte past the accessed range.
    pub fn end(&self) -> u64 {
        self.offset + self.len as u64
    }
}

uc_persist::persist_struct! { IoRequest { kind, offset, len, submit_time } }

/// Static facts about a device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceInfo {
    name: String,
    capacity: u64,
    logical_block: u32,
}

impl DeviceInfo {
    /// Describes a device with the given name, byte capacity and logical
    /// block size.
    ///
    /// # Panics
    ///
    /// Panics if `logical_block` is zero or `capacity` is not a multiple of
    /// `logical_block`.
    pub fn new(name: impl Into<String>, capacity: u64, logical_block: u32) -> Self {
        assert!(logical_block > 0, "logical block size must be positive");
        assert!(
            capacity.is_multiple_of(logical_block as u64),
            "capacity must be a whole number of logical blocks"
        );
        DeviceInfo {
            name: name.into(),
            capacity,
            logical_block,
        }
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Logical block size in bytes (the unit of I/O alignment).
    pub fn logical_block(&self) -> u32 {
        self.logical_block
    }

    /// Validates a request against this device's geometry.
    ///
    /// # Errors
    ///
    /// Returns [`IoError::ZeroLength`], [`IoError::Misaligned`] or
    /// [`IoError::OutOfRange`] if the request violates the corresponding
    /// constraint.
    pub fn validate(&self, req: &IoRequest) -> Result<(), IoError> {
        if req.len == 0 {
            return Err(IoError::ZeroLength);
        }
        let lb = self.logical_block as u64;
        if !req.offset.is_multiple_of(lb) || !(req.len as u64).is_multiple_of(lb) {
            return Err(IoError::Misaligned {
                offset: req.offset,
                len: req.len,
                logical_block: self.logical_block,
            });
        }
        if req.end() > self.capacity {
            return Err(IoError::OutOfRange {
                end: req.end(),
                capacity: self.capacity,
            });
        }
        Ok(())
    }
}

/// Errors returned by [`BlockDevice::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The request length was zero.
    ZeroLength,
    /// The request was not aligned to the device's logical block size.
    Misaligned {
        /// Requested byte offset.
        offset: u64,
        /// Requested length.
        len: u32,
        /// The device's logical block size.
        logical_block: u32,
    },
    /// The request extended past the device capacity.
    OutOfRange {
        /// First byte past the requested range.
        end: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A served ring stayed full past the submitter's retry budget: the
    /// batch could not be split small enough to ever be admitted.
    RingSaturated {
        /// The server's ring size the batch was split down against.
        ring: u32,
        /// How many ring-full refusals the submitter absorbed before
        /// giving up.
        refusals: u32,
    },
}

uc_persist::persist_enum! {
    IoError {
        0 = ZeroLength, 1 = Misaligned { offset, len, logical_block },
        2 = OutOfRange { end, capacity }, 3 = RingSaturated { ring, refusals }
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::ZeroLength => write!(f, "zero-length i/o request"),
            IoError::Misaligned {
                offset,
                len,
                logical_block,
            } => write!(
                f,
                "i/o at offset {offset} length {len} not aligned to {logical_block}-byte blocks"
            ),
            IoError::OutOfRange { end, capacity } => {
                write!(f, "i/o extends to byte {end} beyond capacity {capacity}")
            }
            IoError::RingSaturated { ring, refusals } => write!(
                f,
                "{ring}-slot ring still refusing after {refusals} split retries"
            ),
        }
    }
}

impl Error for IoError {}

/// The completion instant of an accepted request.
pub type IoResult = Result<SimTime, IoError>;

/// A simulated block device.
///
/// Implementations must be *monotone*: calls to [`BlockDevice::submit`] are
/// made with non-decreasing `submit_time` values, and each returned
/// completion instant must be `>= submit_time`.
pub trait BlockDevice {
    /// Static device facts.
    fn info(&self) -> DeviceInfo;

    /// Submits a request, returning its completion instant.
    ///
    /// # Errors
    ///
    /// Returns an [`IoError`] if the request fails validation against the
    /// device geometry.
    fn submit(&mut self, req: &IoRequest) -> IoResult;

    /// Submits every request of `batch` through one doorbell ring,
    /// returning one [`Completion`] per request, in submission order.
    ///
    /// The default implementation services the batch as consecutive
    /// [`BlockDevice::submit`] calls ([`submit_each`]), so batched and
    /// request-at-a-time submission of the same request sequence produce
    /// identical completion instants; device implementations that
    /// override this for a fast path must preserve that equivalence.
    ///
    /// This is the convenience form: it allocates a new completion queue
    /// per doorbell. Hot drivers call [`BlockDevice::submit_batch_into`]
    /// with a queue they own and reuse.
    ///
    /// # Errors
    ///
    /// Returns the first [`IoError`] any request reports. Requests queued
    /// before the failing one have already been applied to the device
    /// timelines (as with consecutive `submit` calls).
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        let mut completions = Vec::with_capacity(batch.len());
        submit_each(self, batch, &mut completions)?;
        Ok(completions)
    }

    /// Submits every request of `batch` through one doorbell ring,
    /// appending one [`Completion`] per request, in submission order, to
    /// the caller's completion queue — the host owns and reuses its
    /// queue, so a doorbell allocates nothing once the queue has grown to
    /// the ring size.
    ///
    /// The default appends what [`BlockDevice::submit_batch`] returns, so
    /// an implementor that overrides only `submit_batch` still sees one
    /// `submit_batch` call per doorbell. Devices without a doorbell of
    /// their own override this with [`submit_each`].
    ///
    /// # Errors
    ///
    /// As [`BlockDevice::submit_batch`]. On error `completions` is left at
    /// the length it had on entry.
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        completions.extend(self.submit_batch(batch)?);
        Ok(())
    }

    /// Tells the device a time span has passed with no host activity.
    ///
    /// Devices that run background work (drain, garbage collection) may use
    /// this to advance internal timelines. The default does nothing.
    fn idle_until(&mut self, now: SimTime) {
        let _ = now;
    }

    /// Publishes the device's internal telemetry into `obs`, naming every
    /// metric `{prefix}.…`.
    ///
    /// This is the observability seam: callers that hold a device only as
    /// `dyn BlockDevice` (the fleet, the serve pool) can still pull FTL
    /// churn, queue depths, and throttle state into one
    /// [`MetricsRegistry`](uc_obs::MetricsRegistry) without knowing the
    /// concrete type. Registration order inside an implementation must be
    /// deterministic (fixed, not map-ordered) so snapshots stay
    /// byte-identical across same-seed runs. The default publishes
    /// nothing.
    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        let _ = (prefix, obs);
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for &mut D {
    fn info(&self) -> DeviceInfo {
        (**self).info()
    }
    fn submit(&mut self, req: &IoRequest) -> IoResult {
        (**self).submit(req)
    }
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        (**self).submit_batch(batch)
    }
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        (**self).submit_batch_into(batch, completions)
    }
    fn idle_until(&mut self, now: SimTime) {
        (**self).idle_until(now)
    }
    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        (**self).observe_into(prefix, obs)
    }
}

impl<D: BlockDevice + ?Sized> BlockDevice for Box<D> {
    fn info(&self) -> DeviceInfo {
        (**self).info()
    }
    fn submit(&mut self, req: &IoRequest) -> IoResult {
        (**self).submit(req)
    }
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        (**self).submit_batch(batch)
    }
    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        (**self).submit_batch_into(batch, completions)
    }
    fn idle_until(&mut self, now: SimTime) {
        (**self).idle_until(now)
    }
    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        (**self).observe_into(prefix, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> DeviceInfo {
        DeviceInfo::new("test", 1 << 20, 4096)
    }

    #[test]
    fn request_constructors() {
        let r = IoRequest::read(4096, 8192, SimTime::ZERO);
        assert!(r.kind.is_read());
        assert_eq!(r.end(), 12288);
        let w = IoRequest::write(0, 4096, SimTime::ZERO);
        assert!(w.kind.is_write());
    }

    #[test]
    fn validation_accepts_aligned_in_range() {
        let i = info();
        assert!(i.validate(&IoRequest::read(0, 4096, SimTime::ZERO)).is_ok());
        assert!(i
            .validate(&IoRequest::write((1 << 20) - 4096, 4096, SimTime::ZERO))
            .is_ok());
    }

    #[test]
    fn validation_rejects_zero_length() {
        assert_eq!(
            info().validate(&IoRequest::read(0, 0, SimTime::ZERO)),
            Err(IoError::ZeroLength)
        );
    }

    #[test]
    fn validation_rejects_misalignment() {
        let err = info()
            .validate(&IoRequest::read(123, 4096, SimTime::ZERO))
            .unwrap_err();
        assert!(matches!(err, IoError::Misaligned { .. }));
        let err = info()
            .validate(&IoRequest::read(0, 1000, SimTime::ZERO))
            .unwrap_err();
        assert!(matches!(err, IoError::Misaligned { .. }));
    }

    #[test]
    fn validation_rejects_out_of_range() {
        let err = info()
            .validate(&IoRequest::read(1 << 20, 4096, SimTime::ZERO))
            .unwrap_err();
        assert!(matches!(err, IoError::OutOfRange { .. }));
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn info_rejects_ragged_capacity() {
        let _ = DeviceInfo::new("bad", 1000, 4096);
    }

    #[test]
    fn errors_display_and_implement_error() {
        let e: Box<dyn Error> = Box::new(IoError::ZeroLength);
        assert!(!e.to_string().is_empty());
        assert!(IoError::OutOfRange {
            end: 10,
            capacity: 5
        }
        .to_string()
        .contains("beyond"));
    }

    #[test]
    fn trait_objects_and_references_work() {
        struct Dev;
        impl BlockDevice for Dev {
            fn info(&self) -> DeviceInfo {
                DeviceInfo::new("d", 4096, 4096)
            }
            fn submit(&mut self, req: &IoRequest) -> IoResult {
                Ok(req.submit_time)
            }
        }
        let mut d = Dev;
        let r: &mut dyn BlockDevice = &mut d;
        assert!(r.submit(&IoRequest::read(0, 4096, SimTime::ZERO)).is_ok());
        let mut boxed: Box<dyn BlockDevice> = Box::new(Dev);
        assert_eq!(boxed.info().capacity(), 4096);
        boxed.idle_until(SimTime::ZERO);
    }

    /// A device whose completion instant depends on every prior request
    /// (a busy-until timeline), so batch/sequential divergence would show.
    struct Timeline {
        busy_until: SimTime,
    }

    impl BlockDevice for Timeline {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("timeline", 1 << 20, 4096)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            let start = self.busy_until.max(req.submit_time);
            self.busy_until = start + uc_sim::SimDuration::from_micros(req.len as u64 / 1024);
            Ok(self.busy_until)
        }
    }

    #[test]
    fn default_submit_batch_matches_sequential_submit() {
        let reqs: Vec<IoRequest> = (0..8)
            .map(|i| IoRequest::read((i % 4) * 4096, 4096 * (1 + i as u32 % 3), SimTime::ZERO))
            .collect();
        let mut sequential = Timeline {
            busy_until: SimTime::ZERO,
        };
        let expected: Vec<SimTime> = reqs.iter().map(|r| sequential.submit(r).unwrap()).collect();
        let mut batched = Timeline {
            busy_until: SimTime::ZERO,
        };
        let batch: IoBatch = reqs.iter().copied().collect();
        let completions = batched.submit_batch(&batch).unwrap();
        assert_eq!(
            completions.iter().map(|c| c.completes).collect::<Vec<_>>(),
            expected
        );
        for (i, c) in completions.iter().enumerate() {
            assert_eq!(c.index, i);
            assert_eq!(c.len, batch.requests()[i].len);
        }
    }

    #[test]
    fn submit_batch_surfaces_first_error() {
        let mut dev = Timeline {
            busy_until: SimTime::ZERO,
        };
        let mut batch = IoBatch::new();
        batch.push(IoRequest::read(0, 4096, SimTime::ZERO));
        batch.push(IoRequest::read(1 << 20, 4096, SimTime::ZERO)); // out of range
        assert!(matches!(
            dev.submit_batch(&batch),
            Err(IoError::OutOfRange { .. })
        ));
        // The valid head of the batch was still applied to the timeline.
        assert!(dev.busy_until > SimTime::ZERO);
        // Through the caller's queue, the error leaves it at its entry
        // length.
        let mut queue = vec![Completion::of(0, &batch.requests()[0], SimTime::ZERO)];
        assert!(matches!(
            dev.submit_batch_into(&batch, &mut queue),
            Err(IoError::OutOfRange { .. })
        ));
        assert_eq!(queue.len(), 1);
    }
}
