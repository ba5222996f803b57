//! Transparent trace capture at the block-device seam.

use uc_blockdev::{BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult};
use uc_sim::SimTime;
use uc_workload::{Trace, TraceEntry};

/// A [`BlockDevice`] wrapper that records every request crossing the
/// seam.
///
/// The recorder is invisible to the workload: it forwards every call to
/// the wrapped device unchanged (same completions, same timelines) and
/// appends one [`TraceEntry`] per *accepted* request — rejected requests
/// never executed, so they are not part of the history. Batched
/// submissions are recorded entry-for-entry in submission order, and the
/// number of doorbell rings is tracked separately
/// ([`TraceRecorder::batches`]), so a capture also tells you how the
/// driver grouped its submissions.
///
/// Because drivers submit with non-decreasing instants (the
/// [`BlockDevice`] monotonicity contract), the recorded entries are
/// already arrival-ordered; [`TraceRecorder::into_trace`] is a plain
/// reshape, not a sort.
pub struct TraceRecorder<D> {
    inner: D,
    entries: Vec<TraceEntry>,
    batches: u64,
}

impl<D: BlockDevice> TraceRecorder<D> {
    /// Wraps `inner`, recording from the next request on.
    pub fn new(inner: D) -> Self {
        TraceRecorder {
            inner,
            entries: Vec::new(),
            batches: 0,
        }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Requests recorded so far.
    pub fn ios(&self) -> usize {
        self.entries.len()
    }

    /// Doorbell rings ([`BlockDevice::submit_batch`] or
    /// [`BlockDevice::submit_batch_into`] calls) recorded so far. Requests submitted one at a time do not count as batches.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// A snapshot of the capture so far (the recorder keeps recording).
    pub fn trace(&self) -> Trace {
        Trace::from_entries(self.entries.clone())
    }

    /// Consumes the recorder, yielding the captured trace.
    pub fn into_trace(self) -> Trace {
        Trace::from_entries(self.entries)
    }

    /// Consumes the recorder, yielding the device and the captured trace.
    pub fn into_parts(self) -> (D, Trace) {
        (self.inner, Trace::from_entries(self.entries))
    }

    fn record(&mut self, req: &IoRequest) {
        // Contract hook (O(1)): arrivals enter in non-decreasing order
        // (the BlockDevice monotonicity contract), so the capture is a
        // valid trace without sorting.
        uc_invariant::enforce(|| {
            if let Some(last) = self.entries.last() {
                if req.submit_time < last.at {
                    return Err(uc_invariant::Violation::new(
                        "uc-trace/TraceRecorder",
                        "entry-monotonicity",
                        format!(
                            "request at {:?} arrived after an entry at {:?}",
                            req.submit_time, last.at
                        ),
                    ));
                }
            }
            Ok(())
        });
        self.entries.push(TraceEntry {
            at: req.submit_time,
            kind: req.kind,
            offset: req.offset,
            len: req.len,
        });
    }
}

impl<D: BlockDevice> BlockDevice for TraceRecorder<D> {
    fn info(&self) -> DeviceInfo {
        self.inner.info()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        let done = self.inner.submit(req)?;
        self.record(req);
        Ok(done)
    }

    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        let mut completions = Vec::with_capacity(batch.len());
        self.submit_batch_into(batch, &mut completions)?;
        Ok(completions)
    }

    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        // On error the device may have applied a prefix of the batch, but
        // which prefix is not observable through the error; a failed
        // batch is therefore recorded as not-issued (experiments treat
        // the first IoError as fatal anyway).
        self.inner.submit_batch_into(batch, completions)?;
        for req in batch.requests() {
            self.record(req);
        }
        self.batches += 1;
        Ok(())
    }

    fn idle_until(&mut self, now: SimTime) {
        self.inner.idle_until(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_sim::SimDuration;
    use uc_workload::{run_job, AccessPattern, JobSpec};

    struct TestDevice {
        servers: uc_sim::ParallelResource,
    }

    impl TestDevice {
        fn new() -> Self {
            TestDevice {
                servers: uc_sim::ParallelResource::new(2),
            }
        }
    }

    impl BlockDevice for TestDevice {
        fn info(&self) -> DeviceInfo {
            DeviceInfo::new("test", 1 << 30, 4096)
        }
        fn submit(&mut self, req: &IoRequest) -> IoResult {
            self.info().validate(req)?;
            Ok(self
                .servers
                .acquire(req.submit_time, SimDuration::from_micros(8))
                .1)
        }
    }

    #[test]
    fn capture_is_invisible_and_complete() {
        let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 4).with_io_limit(50);
        // The same job on a bare device and through the recorder must
        // produce the same report.
        let mut bare = TestDevice::new();
        let bare_report = run_job(&mut bare, &spec).unwrap();
        let mut recorder = TraceRecorder::new(TestDevice::new());
        let recorded_report = run_job(&mut recorder, &spec).unwrap();
        assert_eq!(recorded_report.ios, bare_report.ios);
        assert_eq!(recorded_report.finished_at, bare_report.finished_at);
        assert!(recorder.batches() > 0, "closed loop rings doorbells");
        // Every submitted request is in the capture (the closed loop
        // keeps QD in flight past the limit, so >= the recorded count).
        assert!(recorder.ios() >= recorded_report.ios as usize);
        let trace = recorder.into_trace();
        assert_eq!(trace.entries().len(), trace.len());
        // Monotone arrivals survive the reshape untouched.
        for w in trace.entries().windows(2) {
            assert!(w[1].at >= w[0].at);
        }
    }

    #[test]
    fn either_doorbell_records_the_same_capture() {
        let batches: Vec<IoBatch> = (0..6u64)
            .map(|b| {
                (0..=b)
                    .map(|i| IoRequest::write(i * 4096, 4096, SimTime::from_nanos(b * 1000)))
                    .collect()
            })
            .collect();
        let mut returned = TraceRecorder::new(TestDevice::new());
        let mut appended = TraceRecorder::new(TestDevice::new());
        let mut queue = Vec::new();
        for batch in &batches {
            let got = returned.submit_batch(batch).unwrap();
            let entry_len = queue.len();
            appended.submit_batch_into(batch, &mut queue).unwrap();
            assert_eq!(queue[entry_len..], got[..]);
        }
        assert_eq!(appended.batches(), returned.batches());
        assert_eq!(appended.trace(), returned.trace());
        // A rejected batch leaves the caller's queue and the capture as
        // they were.
        let entry_len = queue.len();
        let mut bad = IoBatch::new();
        bad.push(IoRequest::read(0, 4096, SimTime::from_nanos(9000)));
        bad.push(IoRequest::read(1 << 40, 4096, SimTime::from_nanos(9000)));
        assert!(appended.submit_batch_into(&bad, &mut queue).is_err());
        assert_eq!(queue.len(), entry_len);
        assert_eq!(appended.batches(), returned.batches());
        assert_eq!(appended.ios(), returned.ios());
    }

    #[test]
    fn rejected_requests_are_not_recorded() {
        let mut recorder = TraceRecorder::new(TestDevice::new());
        let bad = IoRequest::read(1 << 40, 4096, SimTime::ZERO);
        assert!(recorder.submit(&bad).is_err());
        let mut batch = IoBatch::new();
        batch.push(IoRequest::read(0, 4096, SimTime::ZERO));
        batch.push(IoRequest::read(1 << 40, 4096, SimTime::ZERO));
        assert!(recorder.submit_batch(&batch).is_err());
        assert_eq!(recorder.ios(), 0);
        assert_eq!(recorder.batches(), 0);
        // A good request after the failures is recorded normally.
        recorder
            .submit(&IoRequest::write(0, 4096, SimTime::ZERO))
            .unwrap();
        assert_eq!(recorder.ios(), 1);
        assert_eq!(recorder.trace().total_bytes(), 4096);
        let (dev, trace) = recorder.into_parts();
        assert_eq!(dev.info().name(), "test");
        assert_eq!(trace.len(), 1);
    }
}
