//! Shared-device sessions: one device serving many concurrent tenants.
//!
//! Every experiment before the fleet owned its device outright; a fleet
//! inverts that — a single eSSD serves dozens of tenants whose merged
//! submission stream crosses one queue pair. [`SharedDevice`] is that
//! seam: it multiplexes per-tenant *sessions* onto one inner
//! [`BlockDevice`], enforces the shared queue discipline (a request is
//! never doorbelled earlier than the previously doorbelled one — late
//! arrivals are clamped to the queue head, exactly what a real submission
//! queue does), and keeps per-session accounting whose conservation
//! against the device-level totals is a machine-checked [`Contract`].
//!
//! The wrapper adds no timing of its own: a single session over a
//! `SharedDevice` observes completions identical to driving the inner
//! device directly.

use crate::{BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult};
use uc_invariant::{ensure, Contract, Violation};
use uc_sim::SimTime;

/// A handle to one tenant's session on a [`SharedDevice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(usize);

impl SessionId {
    /// The session's index in its device's session table.
    pub fn index(&self) -> usize {
        self.0
    }

    /// Rebuild a handle from a table index — the inverse of
    /// [`SessionId::index`], for resuming a session identified over a
    /// wire. Pair with [`SharedDevice::has_session`] before use.
    pub fn from_index(index: usize) -> Self {
        SessionId(index)
    }
}

/// Per-session accounting: what one tenant has pushed through the shared
/// queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Requests submitted.
    pub ios: u64,
    /// Bytes submitted.
    pub bytes: u64,
    /// Requests whose nominal submit instant predated the queue head and
    /// were clamped forward (head-of-line blocking behind another
    /// session's request).
    pub clamped: u64,
    /// The session's latest doorbelled instant.
    pub last_submit: SimTime,
}

uc_persist::persist_struct! { SessionStats { ios, bytes, clamped, last_submit } }

/// A block device shared by several sessions.
///
/// A request is never doorbelled earlier than the previously doorbelled
/// one: a late arrival is clamped to the queue head. `SharedDevice` is a
/// thin multiplexer: open one session per tenant, submit each
/// tenant's requests under its [`SessionId`], and read the per-session
/// ledger back out of [`SharedDevice::stats`].
#[derive(Debug)]
pub struct SharedDevice<D> {
    inner: D,
    sessions: Vec<SessionStats>,
    last_submit: SimTime,
    ios: u64,
    bytes: u64,
}

impl<D: BlockDevice> SharedDevice<D> {
    /// Wraps `inner` with an empty session table and a queue head at
    /// time zero.
    pub fn new(inner: D) -> Self {
        SharedDevice::with_queue_head(inner, SimTime::ZERO)
    }

    /// Wraps `inner` with the queue head already advanced to
    /// `last_submit` — the resume path: a thawed device must not accept
    /// submissions earlier than the last one it saw before the freeze.
    pub fn with_queue_head(inner: D, last_submit: SimTime) -> Self {
        SharedDevice {
            inner,
            sessions: Vec::new(),
            last_submit,
            ios: 0,
            bytes: 0,
        }
    }

    /// Opens a new session, returning its handle.
    pub fn open_session(&mut self) -> SessionId {
        self.sessions.push(SessionStats::default());
        SessionId(self.sessions.len() - 1)
    }

    /// Number of open sessions.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Whether `session` was opened on this device — the resume hook a
    /// served frontend uses to validate a reconnecting client's lane
    /// before replaying onto it.
    pub fn has_session(&self, session: SessionId) -> bool {
        session.0 < self.sessions.len()
    }

    /// The accounting ledger of `session`.
    ///
    /// # Panics
    ///
    /// Panics if `session` was not opened on this device.
    pub fn stats(&self, session: SessionId) -> &SessionStats {
        &self.sessions[session.0]
    }

    /// Every session's ledger, indexed by [`SessionId::index`] (open
    /// order).
    ///
    /// This is the whole-device read-out a served frontend's STATS
    /// frames and any dashboard consume: one pass over the slice yields
    /// the per-tenant ledgers whose sums the [`Contract`] audits against
    /// the device totals.
    pub fn session_stats(&self) -> &[SessionStats] {
        &self.sessions
    }

    /// The queue head: the latest doorbelled instant across all sessions.
    pub fn queue_head(&self) -> SimTime {
        self.last_submit
    }

    /// The inner device's static facts.
    pub fn info(&self) -> DeviceInfo {
        self.inner.info()
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The wrapped device, mutably (e.g. to take a checkpoint).
    pub fn inner_mut(&mut self) -> &mut D {
        &mut self.inner
    }

    /// Unwraps the inner device, discarding the session table.
    pub fn into_inner(self) -> D {
        self.inner
    }

    /// Applies the queue discipline to one request: clamp its submit
    /// instant to the queue head, advance the head, and debit `session`'s
    /// ledger. Returns the doorbelled request.
    fn doorbell(&mut self, session: SessionId, req: &IoRequest) -> IoRequest {
        let mut doorbelled = *req;
        let stats = &mut self.sessions[session.0];
        if doorbelled.submit_time < self.last_submit {
            doorbelled.submit_time = self.last_submit;
            stats.clamped += 1;
        }
        self.last_submit = doorbelled.submit_time;
        stats.ios += 1;
        stats.bytes += doorbelled.len as u64;
        stats.last_submit = doorbelled.submit_time;
        self.ios += 1;
        self.bytes += doorbelled.len as u64;
        doorbelled
    }

    /// Submits one request under `session`, returning its completion
    /// instant. A submit instant earlier than the queue head is clamped
    /// forward (and counted in [`SessionStats::clamped`]).
    ///
    /// # Errors
    ///
    /// Propagates the inner device's [`IoError`].
    ///
    /// # Panics
    ///
    /// Panics if `session` was not opened on this device.
    pub fn submit_shared(&mut self, session: SessionId, req: &IoRequest) -> IoResult {
        let doorbelled = self.doorbell(session, req);
        let result = self.inner.submit(&doorbelled);
        // Contract hook (O(1)): the queue head never regresses and the
        // session ledger stays within the device totals.
        uc_invariant::enforce(|| {
            ensure!(
                self,
                "queue-head-monotone",
                self.sessions[session.0].last_submit <= self.last_submit,
                "session {} doorbelled {:?} past the queue head {:?}",
                session.0,
                self.sessions[session.0].last_submit,
                self.last_submit
            );
            Ok(())
        });
        result
    }

    /// Submits a whole multi-session batch through one doorbell ring:
    /// `owners[i]` names the session that issued `batch.requests()[i]`.
    /// Completions are appended to the caller's queue `completions` in
    /// submission order, index-aligned with the batch — the caller
    /// attributes them to tenants by position.
    ///
    /// The queue discipline is applied in place: on return each request's
    /// `submit_time` is the instant the shared queue took it (clamped to
    /// the queue head), as its completion's `submitted` also says. So a
    /// doorbell copies nothing and, once `completions` has grown to the
    /// ring size, allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates the inner device's [`IoError`], leaving `completions`
    /// at its length on entry.
    ///
    /// # Panics
    ///
    /// Panics if `owners.len() != batch.len()` or any owner was not
    /// opened on this device.
    pub fn submit_batch_shared(
        &mut self,
        owners: &[SessionId],
        batch: &mut IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        assert_eq!(
            owners.len(),
            batch.len(),
            "one owning session per batched request"
        );
        // Clamping to the running queue head keeps the batch's submit
        // times non-decreasing.
        for (owner, req) in owners.iter().zip(batch.requests_mut()) {
            *req = self.doorbell(*owner, req);
        }
        self.inner.submit_batch_into(batch, completions)?;
        uc_invariant::debug_check(self);
        Ok(())
    }
}

/// Conservation audit of the shared queue: per-session ledgers sum to the
/// device-level totals, and no session's doorbell clock runs past the
/// queue head. O(sessions).
impl<D: BlockDevice> Contract for SharedDevice<D> {
    fn contract_name(&self) -> &'static str {
        "uc-blockdev/SharedDevice"
    }

    fn check(&self) -> Result<(), Violation> {
        let ios: u64 = self.sessions.iter().map(|s| s.ios).sum();
        let bytes: u64 = self.sessions.iter().map(|s| s.bytes).sum();
        ensure!(
            self,
            "session-io-conservation",
            ios == self.ios,
            "sessions account for {ios} i/os but the device saw {}",
            self.ios
        );
        ensure!(
            self,
            "session-byte-conservation",
            bytes == self.bytes,
            "sessions account for {bytes} bytes but the device saw {}",
            self.bytes
        );
        for (i, s) in self.sessions.iter().enumerate() {
            ensure!(
                self,
                "session-behind-queue-head",
                s.last_submit <= self.last_submit,
                "session {i} doorbelled {:?} past the queue head {:?}",
                s.last_submit,
                self.last_submit
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::{SimDuration, SimTime};

    /// A fixed-latency device that remembers the last submit instant it
    /// saw and asserts monotonicity (the property the queue discipline
    /// must uphold on the shared path).
    struct Probe {
        last: SimTime,
        service: SimDuration,
    }

    impl Probe {
        fn new() -> Self {
            Probe {
                last: SimTime::ZERO,
                service: SimDuration::from_micros(10),
            }
        }
    }

    impl BlockDevice for Probe {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("probe", 1 << 30, 512)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            assert!(
                req.submit_time >= self.last,
                "shared wrapper leaked a regression"
            );
            self.last = req.submit_time;
            Ok(req.submit_time + self.service)
        }
    }

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    #[test]
    fn has_session_tracks_open_order() {
        let mut dev = SharedDevice::new(Probe::new());
        assert!(!dev.has_session(SessionId::from_index(0)));
        let a = dev.open_session();
        assert!(dev.has_session(a));
        assert!(!dev.has_session(SessionId::from_index(a.index() + 1)));
    }

    #[test]
    fn sessions_account_for_their_own_traffic() {
        let mut dev = SharedDevice::new(Probe::new());
        let a = dev.open_session();
        let b = dev.open_session();
        dev.submit_shared(a, &IoRequest::write(0, 4096, at(0)))
            .unwrap();
        dev.submit_shared(b, &IoRequest::read(8192, 512, at(10)))
            .unwrap();
        dev.submit_shared(a, &IoRequest::write(4096, 4096, at(20)))
            .unwrap();
        assert_eq!(dev.stats(a).ios, 2);
        assert_eq!(dev.stats(a).bytes, 8192);
        assert_eq!(dev.stats(b).ios, 1);
        assert_eq!(dev.stats(b).bytes, 512);
        assert_eq!(dev.queue_head(), at(20));
        assert_eq!(dev.check(), Ok(()));
    }

    #[test]
    fn late_arrivals_are_clamped_to_the_queue_head() {
        let mut dev = SharedDevice::new(Probe::new());
        let a = dev.open_session();
        let b = dev.open_session();
        dev.submit_shared(a, &IoRequest::write(0, 4096, at(1000)))
            .unwrap();
        // Session b arrives "earlier" than the queue head: the doorbell
        // clamps it, the inner device never sees a regression, and the
        // clamp is visible in the ledger.
        let done = dev
            .submit_shared(b, &IoRequest::write(4096, 4096, at(200)))
            .unwrap();
        assert!(done >= at(1000));
        assert_eq!(dev.stats(b).clamped, 1);
        assert_eq!(dev.stats(b).last_submit, at(1000));
        assert_eq!(dev.check(), Ok(()));
    }

    #[test]
    fn batched_multi_session_submission_attributes_by_position() {
        let mut dev = SharedDevice::new(Probe::new());
        let a = dev.open_session();
        let b = dev.open_session();
        let mut batch = IoBatch::new();
        batch.push(IoRequest::write(0, 4096, at(0)));
        batch.push(IoRequest::write(4096, 512, at(0)));
        batch.push(IoRequest::read(0, 4096, at(5)));
        let owners = vec![a, b, a];
        let mut completions = Vec::new();
        dev.submit_batch_shared(&owners, &mut batch, &mut completions)
            .unwrap();
        assert_eq!(completions.len(), 3);
        assert_eq!(completions[1].len, 512);
        assert_eq!(dev.stats(a).ios, 2);
        assert_eq!(dev.stats(b).ios, 1);
        assert_eq!(dev.check(), Ok(()));
        // A second doorbell appends to the caller's queue, and its late
        // arrivals are clamped in place to the queue head.
        let mut late = IoBatch::new();
        late.push(IoRequest::write(0, 4096, at(2)));
        late.push(IoRequest::write(4096, 512, at(3)));
        late.push(IoRequest::read(0, 4096, at(9)));
        dev.submit_batch_shared(&owners, &mut late, &mut completions)
            .unwrap();
        assert_eq!(completions.len(), 6);
        assert_eq!(completions[4].index, 1);
        assert_eq!(completions[4].len, 512);
        let retimed: Vec<SimTime> = late.requests().iter().map(|r| r.submit_time).collect();
        assert_eq!(retimed, [at(5), at(5), at(9)]);
        assert!(completions[3..]
            .iter()
            .zip(&retimed)
            .all(|(c, t)| c.submitted == *t));
        assert_eq!(dev.stats(a).ios, 4);
        assert_eq!(dev.stats(b).clamped, 1);
        assert_eq!(dev.check(), Ok(()));
    }

    #[test]
    fn session_stats_exposes_every_ledger_in_open_order() {
        let mut dev = SharedDevice::new(Probe::new());
        let a = dev.open_session();
        let b = dev.open_session();
        dev.submit_shared(a, &IoRequest::write(0, 4096, at(0)))
            .unwrap();
        dev.submit_shared(b, &IoRequest::read(8192, 512, at(10)))
            .unwrap();
        let all = dev.session_stats();
        assert_eq!(all.len(), 2);
        assert_eq!(all[a.index()], *dev.stats(a));
        assert_eq!(all[b.index()], *dev.stats(b));
        assert_eq!(all.iter().map(|s| s.ios).sum::<u64>(), 2);
        assert_eq!(all.iter().map(|s| s.bytes).sum::<u64>(), 4608);
    }

    #[test]
    fn queue_head_survives_resume() {
        let mut dev = SharedDevice::with_queue_head(Probe::new(), at(5000));
        let s = dev.open_session();
        let done = dev
            .submit_shared(s, &IoRequest::write(0, 512, at(10)))
            .unwrap();
        assert!(done >= at(5000), "resumed head clamps pre-freeze instants");
        assert_eq!(dev.stats(s).clamped, 1);
    }

    #[test]
    fn single_session_is_transparent() {
        // Driving through one session equals driving the device directly.
        let mut direct = Probe::new();
        let mut shared = SharedDevice::new(Probe::new());
        let s = shared.open_session();
        for i in 0..8u64 {
            let req = IoRequest::write(i * 4096, 4096, at(i * 100));
            assert_eq!(
                direct.submit(&req).unwrap(),
                shared.submit_shared(s, &req).unwrap()
            );
        }
        assert_eq!(shared.stats(s).clamped, 0);
    }

    #[test]
    fn conservation_violation_is_reported() {
        let mut dev = SharedDevice::new(Probe::new());
        let s = dev.open_session();
        dev.submit_shared(s, &IoRequest::write(0, 4096, at(0)))
            .unwrap();
        // Corrupt the device-level ledger the way a lost session debit would.
        dev.ios += 1;
        let v = dev.check().unwrap_err();
        assert_eq!(v.invariant, "session-io-conservation");
    }
}
