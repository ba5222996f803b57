//! Queue-pair batching: submission batches and completion entries.
//!
//! Real NVMe-style host stacks talk to devices through *queue pairs*: the
//! host fills a submission queue with several commands and rings one
//! doorbell; the device posts one completion entry per command. [`IoBatch`]
//! and [`Completion`] model that interaction for the timeline-driven
//! simulators — a driver issues a queue-depth's worth of requests through
//! one [`BlockDevice::submit_batch_into`](crate::BlockDevice::submit_batch_into)
//! call instead of a call per request.
//!
//! As on an NVMe host, the completion queue belongs to the caller: the
//! device appends one entry per request to a `Vec<Completion>` the driver
//! keeps across doorbells and drains after each, so a steady-state
//! doorbell allocates nothing. [`submit_each`] is the request-at-a-time
//! doorbell every device without a batched fast path uses.
//! [`BlockDevice::submit_batch`](crate::BlockDevice::submit_batch), which
//! returns a fresh queue per call, stays as the convenience form.

use crate::{BlockDevice, IoError, IoKind, IoRequest};
use uc_sim::{SimDuration, SimTime};

/// An ordered set of requests submitted through one doorbell ring.
///
/// The batch is a submission queue slice: requests are processed strictly
/// in push order, and their `submit_time`s must be non-decreasing (the same
/// monotonicity contract [`BlockDevice::submit`](crate::BlockDevice::submit)
/// imposes across calls).
///
/// # Example
///
/// ```
/// use uc_blockdev::{IoBatch, IoRequest};
/// use uc_sim::SimTime;
///
/// let mut batch = IoBatch::with_capacity(2);
/// batch.push(IoRequest::read(0, 4096, SimTime::ZERO));
/// batch.push(IoRequest::write(4096, 4096, SimTime::ZERO));
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoBatch {
    reqs: Vec<IoRequest>,
}

impl IoBatch {
    /// An empty batch.
    pub fn new() -> Self {
        IoBatch { reqs: Vec::new() }
    }

    /// An empty batch with room for `capacity` requests.
    pub fn with_capacity(capacity: usize) -> Self {
        IoBatch {
            reqs: Vec::with_capacity(capacity),
        }
    }

    /// Appends a request to the batch.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `req.submit_time` is earlier than the
    /// last queued request's (submission queues are time-ordered).
    pub fn push(&mut self, req: IoRequest) {
        debug_assert!(
            self.reqs
                .last()
                .is_none_or(|last| req.submit_time >= last.submit_time),
            "batch submit times must be non-decreasing"
        );
        self.reqs.push(req);
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// `true` if no requests are queued.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Empties the batch, keeping its allocation (drivers reuse one batch
    /// per step).
    pub fn clear(&mut self) {
        self.reqs.clear();
    }

    /// The queued requests, in submission order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.reqs
    }

    /// The queued requests, mutably: the shared queue re-times them in
    /// place, keeping their submit times non-decreasing.
    pub(crate) fn requests_mut(&mut self) -> &mut [IoRequest] {
        &mut self.reqs
    }
}

impl From<Vec<IoRequest>> for IoBatch {
    fn from(reqs: Vec<IoRequest>) -> Self {
        let mut batch = IoBatch::with_capacity(reqs.len());
        for req in reqs {
            batch.push(req);
        }
        batch
    }
}

impl FromIterator<IoRequest> for IoBatch {
    fn from_iter<I: IntoIterator<Item = IoRequest>>(iter: I) -> Self {
        let mut batch = IoBatch::new();
        for req in iter {
            batch.push(req);
        }
        batch
    }
}

impl<'a> IntoIterator for &'a IoBatch {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;
    fn into_iter(self) -> Self::IntoIter {
        self.reqs.iter()
    }
}

/// One completion-queue entry: the echo of a batched request together with
/// the instant the device finished it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Index of the request within its batch.
    pub index: usize,
    /// Read or write.
    pub kind: IoKind,
    /// Bytes transferred.
    pub len: u32,
    /// When the host submitted the request.
    pub submitted: SimTime,
    /// When the device completed it.
    pub completes: SimTime,
}

uc_persist::persist_struct! { Completion { index, kind, len, submitted, completes } }

impl Completion {
    /// Builds the completion entry for `req` (batch slot `index`)
    /// finishing at `completes`.
    pub fn of(index: usize, req: &IoRequest, completes: SimTime) -> Self {
        Completion {
            index,
            kind: req.kind,
            len: req.len,
            submitted: req.submit_time,
            completes,
        }
    }

    /// The request's host-observed latency.
    pub fn latency(&self) -> SimDuration {
        self.completes - self.submitted
    }
}

/// Services `batch` as consecutive [`BlockDevice::submit`] calls,
/// appending one [`Completion`] per request to `completions`, in
/// submission order.
///
/// This is the doorbell of a device without a batched fast path: the
/// [`BlockDevice::submit_batch`] default, and the
/// [`BlockDevice::submit_batch_into`] override of the simulators.
///
/// # Errors
///
/// Returns the first [`IoError`] any request reports, with `completions`
/// truncated back to its length on entry. Requests before the failing one
/// have already been applied to the device (as with consecutive `submit`
/// calls).
pub fn submit_each<D: BlockDevice + ?Sized>(
    dev: &mut D,
    batch: &IoBatch,
    completions: &mut Vec<Completion>,
) -> Result<(), IoError> {
    let entry_len = completions.len();
    completions.reserve(batch.len());
    for (index, req) in batch.requests().iter().enumerate() {
        match dev.submit(req) {
            Ok(completes) => completions.push(Completion::of(index, req, completes)),
            Err(e) => {
                completions.truncate(entry_len);
                return Err(e);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_preserves_order_and_clears_in_place() {
        let mut b = IoBatch::new();
        assert!(b.is_empty());
        b.push(IoRequest::read(0, 4096, SimTime::ZERO));
        b.push(IoRequest::write(4096, 4096, SimTime::ZERO));
        assert_eq!(b.len(), 2);
        assert!(b.requests()[0].kind.is_read());
        assert!(b.requests()[1].kind.is_write());
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn batch_builds_from_iterators() {
        let reqs = vec![
            IoRequest::read(0, 4096, SimTime::ZERO),
            IoRequest::read(4096, 4096, SimTime::ZERO),
        ];
        let from_vec = IoBatch::from(reqs.clone());
        let collected: IoBatch = reqs.iter().copied().collect();
        assert_eq!(from_vec, collected);
        assert_eq!((&collected).into_iter().count(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn batch_rejects_time_travel() {
        let mut b = IoBatch::new();
        b.push(IoRequest::read(0, 4096, SimTime::from_nanos(100)));
        b.push(IoRequest::read(0, 4096, SimTime::ZERO));
    }

    #[test]
    fn completion_carries_request_facts() {
        let req = IoRequest::write(8192, 4096, SimTime::from_nanos(10));
        let c = Completion::of(3, &req, SimTime::from_nanos(25));
        assert_eq!(c.index, 3);
        assert!(c.kind.is_write());
        assert_eq!(c.len, 4096);
        assert_eq!(c.latency(), SimDuration::from_nanos(15));
    }
}
