//! The one I/O driver behind every job in this crate, and the synthetic
//! closed-loop jobs built on it.
//!
//! [`DriverCore`] owns the in-flight heap, the doorbell and the
//! drain-group loop; a [`RequestSource`] says which request goes out next
//! and from when. Three sources ride on it:
//!
//! * a synthetic job ([`ClosedLoopJob`], [`run_job`], [`precondition`]):
//!   an [`AddressStream`] whose requests all arrive at `spec.start`, so
//!   each goes out at the instant that freed its slot;
//! * closed-loop trace replay ([`TraceReplayJob`](crate::TraceReplayJob)):
//!   a trace cursor whose requests go out at `max(scaled arrival,
//!   slot-free instant)`;
//! * open-loop trace replay: the same cursor with no depth bound, each
//!   burst going out at its arrival and recorded as its doorbell returns.

use crate::{AddressStream, JobLimit, JobReport, JobSpec, ReplayMode};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use uc_blockdev::{BlockDevice, Completion, IoBatch, IoError, IoKind, IoRequest};
use uc_sim::SimTime;

/// One outstanding request, as the driver's completion heap holds it and
/// as the persisted jobs ([`DriverCheckpoint`],
/// [`TraceReplayJob`](crate::TraceReplayJob)) serialize it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightIo {
    /// The instant the request completes.
    pub completes: SimTime,
    /// The instant the request was submitted.
    pub submitted: SimTime,
    /// Read or write.
    pub kind: IoKind,
    /// Length in bytes.
    pub len: u32,
}

impl PartialOrd for InflightIo {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InflightIo {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Total order up to fully identical entries: (completes, submitted)
        // is the schedule order; kind/len break the remaining ties so the
        // completion-drain order never depends on heap push history (two
        // entries equal on all four fields are interchangeable).
        self.completes
            .cmp(&other.completes)
            .then_with(|| self.submitted.cmp(&other.submitted))
            .then_with(|| self.kind.is_write().cmp(&other.kind.is_write()))
            .then_with(|| self.len.cmp(&other.len))
    }
}

/// How a `run_until` call ([`ClosedLoopJob::run_until`],
/// [`TraceReplayJob::run_until`](crate::TraceReplayJob::run_until)) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobProgress {
    /// The milestone was reached; the job can be resumed.
    Paused,
    /// The job's stop condition fired or its source ran dry and every
    /// request completed; the report is final.
    Finished,
}

/// Where a [`DriverCore`]'s requests come from and when they may go out.
pub(crate) trait RequestSource {
    /// The next request's arrival — the earliest instant it may go out —
    /// or `None` once the source is exhausted.
    fn arrival(&self) -> Option<SimTime>;
    /// Takes the next request, going out at `at`.
    fn take(&mut self, at: SimTime) -> IoRequest;
    /// `true` once the run should pause at the next doorbell boundary.
    fn pause(&self, report: &JobReport) -> bool;
    /// `true` once the job's own stop condition fires; checked after
    /// every recorded completion.
    fn stop(&self, _report: &JobReport) -> bool {
        false
    }
}

/// The resumable queue every job drives: its in-flight heap and its
/// pacing. The job keeps its own report and passes it in.
///
/// Closed loop, this is [`ClosedLoopJob`]'s drain-group schedule, each
/// replacement going out at `max(arrival, group instant)`. Open loop,
/// each burst of requests sharing an arrival goes out through one
/// doorbell and its completions are recorded as it returns, so nothing
/// is ever left in flight. Every doorbell carries at most `ring`
/// requests; splitting one never changes the schedule, since each
/// request carries its own submit instant.
#[derive(Debug, Clone)]
pub(crate) struct DriverCore {
    mode: ReplayMode,
    ring: usize,
    inflight: BinaryHeap<Reverse<InflightIo>>,
    pub(crate) finished: bool,
    /// The completion queue every doorbell posts into, drained before
    /// the doorbell returns. Reused so a doorbell allocates nothing; it is
    /// empty between doorbells and never part of a checkpoint.
    completions: Vec<Completion>,
}

impl DriverCore {
    /// A core holding `inflight` (empty for a fresh job).
    pub(crate) fn resume(
        mode: ReplayMode,
        ring: usize,
        inflight: Vec<InflightIo>,
        finished: bool,
    ) -> Self {
        DriverCore {
            mode,
            ring,
            inflight: inflight.into_iter().map(Reverse).collect(),
            finished,
            completions: Vec::new(),
        }
    }

    /// The outstanding requests in canonical schedule order. Entries equal
    /// on all fields are interchangeable, so this fully determines the
    /// continuation.
    pub(crate) fn inflight(&self) -> Vec<InflightIo> {
        let mut inflight: Vec<InflightIo> = self.inflight.iter().map(|Reverse(io)| *io).collect();
        inflight.sort_unstable();
        inflight
    }

    /// An empty batch sized for one of this core's doorbells.
    pub(crate) fn batch(&self) -> IoBatch {
        IoBatch::with_capacity(match self.mode {
            ReplayMode::OpenLoop => self.ring,
            ReplayMode::ClosedLoop { queue_depth } => queue_depth.min(self.ring),
        })
    }

    /// Submits `batch` through one doorbell ring into the core's
    /// completion queue and empties both. The completions are recorded in
    /// `report` when one is given (open loop), and join the in-flight heap
    /// otherwise.
    fn ring_doorbell<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        batch: &mut IoBatch,
        report: Option<&mut JobReport>,
    ) -> Result<(), IoError> {
        if batch.is_empty() {
            return Ok(());
        }
        dev.submit_batch_into(batch, &mut self.completions)?;
        batch.clear();
        match report {
            Some(report) => {
                for c in self.completions.drain(..) {
                    report.record(c.kind.is_write(), c.len, c.submitted, c.completes);
                }
            }
            None => {
                for c in self.completions.drain(..) {
                    self.inflight.push(Reverse(InflightIo {
                        completes: c.completes,
                        submitted: c.submitted,
                        kind: c.kind,
                        len: c.len,
                    }));
                }
            }
        }
        Ok(())
    }

    /// Closed loop: fills the queue to its depth through `batch`, each
    /// request going out at its own arrival.
    pub(crate) fn prime<D, S>(
        &mut self,
        dev: &mut D,
        source: &mut S,
        batch: &mut IoBatch,
    ) -> Result<(), IoError>
    where
        D: BlockDevice + ?Sized,
        S: RequestSource,
    {
        let ReplayMode::ClosedLoop { queue_depth } = self.mode else {
            return Ok(());
        };
        while self.inflight.len() + batch.len() < queue_depth {
            let Some(at) = source.arrival() else { break };
            batch.push(source.take(at));
            if batch.len() >= self.ring {
                self.ring_doorbell(dev, batch, None)?;
            }
        }
        self.ring_doorbell(dev, batch, None)
    }

    /// Drives `source` until it asks to pause at a doorbell boundary, its
    /// stop condition fires, or it runs dry and everything in flight has
    /// completed, recording completions in `report`. A closed-loop core
    /// with nothing in flight primes first.
    pub(crate) fn run<D, S>(
        &mut self,
        dev: &mut D,
        source: &mut S,
        report: &mut JobReport,
    ) -> Result<JobProgress, IoError>
    where
        D: BlockDevice + ?Sized,
        S: RequestSource,
    {
        if self.finished {
            return Ok(JobProgress::Finished);
        }
        if self.mode == ReplayMode::OpenLoop {
            let mut batch = self.batch();
            while let Some(at) = source.arrival() {
                if source.pause(report) {
                    return Ok(JobProgress::Paused);
                }
                // One doorbell per burst: requests sharing this arrival,
                // split only at the ring size.
                while batch.len() < self.ring && source.arrival() == Some(at) {
                    batch.push(source.take(at));
                }
                self.ring_doorbell(dev, &mut batch, Some(report))?;
            }
            self.finished = true;
            return Ok(JobProgress::Finished);
        }
        let mut batch = self.batch();
        if self.inflight.is_empty() {
            self.prime(dev, source, &mut batch)?;
            if source.arrival().is_some() && source.pause(report) {
                return Ok(JobProgress::Paused);
            }
        }
        'drive: while let Some(Reverse(first)) = self.inflight.pop() {
            // Drain every completion sharing the earliest instant, queueing
            // one replacement per completion.
            let mut done = first;
            loop {
                report.record(
                    done.kind.is_write(),
                    done.len,
                    done.submitted,
                    done.completes,
                );
                if source.stop(report) {
                    // Replacements queued for the completions recorded
                    // before the stop still go out (exactly the requests
                    // one `submit` per request had already issued).
                    self.ring_doorbell(dev, &mut batch, None)?;
                    break 'drive;
                }
                if let Some(at) = source.arrival() {
                    batch.push(source.take(at.max(done.completes)));
                    // Replacements complete strictly after this group's
                    // instant, so an early doorbell cannot add members to
                    // the group being drained.
                    if batch.len() >= self.ring {
                        self.ring_doorbell(dev, &mut batch, None)?;
                    }
                }
                match self.inflight.peek() {
                    Some(Reverse(next)) if next.completes == first.completes => {
                        done = self.inflight.pop().expect("peeked").0;
                    }
                    _ => break,
                }
            }
            self.ring_doorbell(dev, &mut batch, None)?;
            if !self.inflight.is_empty() && source.pause(report) {
                return Ok(JobProgress::Paused);
            }
        }
        self.finished = true;
        Ok(JobProgress::Finished)
    }
}

fn job_span<D: BlockDevice + ?Sized>(dev: &D, spec: &JobSpec) -> (u64, u64) {
    match spec.span {
        Some((s, e)) => (s, e.min(dev.info().capacity())),
        None => (0, dev.info().capacity()),
    }
}

fn limit_reached(spec: &JobSpec, report: &JobReport) -> bool {
    match spec.limit {
        JobLimit::Ios(n) => report.ios >= n,
        JobLimit::Bytes(b) => report.bytes >= b,
        JobLimit::Elapsed(d) => report.elapsed() >= d,
    }
}

/// A synthetic job as a request source: every request arrives at
/// `spec.start`, so each goes out at the instant that freed its slot.
#[derive(Debug, Clone)]
struct Synthetic {
    spec: JobSpec,
    stream: AddressStream,
    /// Pause once this many bytes have completed.
    milestone: u64,
}

impl RequestSource for Synthetic {
    fn arrival(&self) -> Option<SimTime> {
        Some(self.spec.start)
    }

    fn take(&mut self, at: SimTime) -> IoRequest {
        let (kind, offset) = self.stream.next_io();
        IoRequest {
            kind,
            offset,
            len: self.spec.io_size,
            submit_time: at,
        }
    }

    fn pause(&self, report: &JobReport) -> bool {
        report.bytes >= self.milestone
    }

    fn stop(&self, report: &JobReport) -> bool {
        limit_reached(&self.spec, report)
    }
}

/// The complete serializable state of a paused [`ClosedLoopJob`].
///
/// Captured by [`ClosedLoopJob::checkpoint`]; [`ClosedLoopJob::resume`]
/// rebuilds a job that continues with a schedule identical to a job that
/// was never paused. Its field list is the job's persisted form: a
/// `ClosedLoopJob` persists as this record, so with the device's own
/// checkpoint (`uc_blockdev::CheckpointDevice`) a half-finished run moves
/// across threads and processes.
#[derive(Debug, Clone)]
pub struct DriverCheckpoint {
    /// The job specification being executed.
    pub spec: JobSpec,
    /// The resolved device span `[start, end)` offsets are drawn from.
    pub span: (u64, u64),
    /// The offset/direction generator, mid-sequence.
    pub stream: AddressStream,
    /// Everything measured so far.
    pub report: JobReport,
    /// Outstanding requests, sorted by schedule order
    /// (`(completes, submitted, kind, len)` ascending).
    pub inflight: Vec<InflightIo>,
    /// `true` once the job's stop condition has fired.
    pub finished: bool,
}

/// A resumable closed-loop job: the state [`run_job`] keeps on its stack,
/// reified so a long run can pause at byte milestones, be checkpointed,
/// travel to another worker, and continue.
///
/// The driver keeps `queue_depth` requests outstanding and speaks the
/// queue-pair API: the initial fill is one [`IoBatch`] of `queue_depth`
/// requests, and every later step drains the group of completions sharing
/// the earliest instant, then rings one doorbell with all of their
/// replacements. Because replacement requests are submitted at their
/// predecessors' completion instants and devices report strictly positive
/// service times, the batched schedule is *identical* to submitting one
/// request per [`BlockDevice::submit`] call — same virtual-time schedule,
/// fewer (and fatter) device calls. This reproduces FIO's `iodepth=N`
/// behaviour with exact virtual-time bookkeeping.
///
/// **Pause exactness:** [`ClosedLoopJob::run_until`] only pauses at
/// drain-group boundaries — after a group's replacements have gone out
/// through their doorbell, before the next group is popped. Every
/// recorded completion still queues its replacement exactly as an
/// uninterrupted run would, so for any milestone sequence the final
/// report (and the device-observed submission timeline) is byte-identical
/// to [`run_job`]'s. This is the property that lets `uc-core` slice the
/// Figure 3 endurance run into pipelined segments.
///
/// # Example
///
/// ```
/// use uc_ssd::{Ssd, SsdConfig};
/// use uc_workload::{AccessPattern, ClosedLoopJob, JobSpec, run_job};
///
/// let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 4)
///     .with_byte_limit(64 * 4096);
/// // Straight through…
/// let mut a = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
/// let straight = run_job(&mut a, &spec)?;
/// // …equals paused-and-resumed at a midpoint.
/// let mut b = Ssd::new(SsdConfig::samsung_970_pro(256 << 20));
/// let mut job = ClosedLoopJob::start(&mut b, &spec)?;
/// job.run_until(&mut b, 32 * 4096)?;
/// let resumed = ClosedLoopJob::resume(job.checkpoint());
/// let mut job = resumed;
/// job.run_until(&mut b, u64::MAX)?;
/// assert_eq!(job.report().finished_at, straight.finished_at);
/// # Ok::<(), uc_blockdev::IoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClosedLoopJob {
    source: Synthetic,
    span: (u64, u64),
    report: JobReport,
    core: DriverCore,
}

/// A synthetic job's queue: `queue_depth` outstanding, and no ring cap (a
/// drain group never exceeds the depth).
fn synthetic_core(spec: &JobSpec, inflight: Vec<InflightIo>, finished: bool) -> DriverCore {
    let mode = ReplayMode::ClosedLoop {
        queue_depth: spec.queue_depth,
    };
    DriverCore::resume(mode, usize::MAX, inflight, finished)
}

impl ClosedLoopJob {
    /// Primes a job against `dev`: resolves the span and submits the
    /// initial `queue_depth` fill through one doorbell.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IoError`] a submission reports (e.g. the
    /// spec's span exceeds the device capacity).
    pub fn start<D: BlockDevice + ?Sized>(dev: &mut D, spec: &JobSpec) -> Result<Self, IoError> {
        let span = job_span(dev, spec);
        let mut source = Synthetic {
            spec: spec.clone(),
            stream: AddressStream::new(spec.pattern, spec.io_size, span.0, span.1, spec.seed),
            milestone: u64::MAX,
        };
        let mut core = synthetic_core(spec, Vec::new(), false);
        // The report is allocated after the fill and the batch freed
        // last: device builds that follow a run were measured to slow
        // down up to 5x under other allocation orders (`setup_s` of the
        // endurance benchmark).
        let mut batch = core.batch();
        core.prime(dev, &mut source, &mut batch)?;
        Ok(ClosedLoopJob {
            source,
            span,
            report: JobReport::new(spec.throughput_window, spec.start),
            core,
        })
    }

    /// Drives the job until at least `bytes` total bytes have completed,
    /// pausing at the next drain-group boundary — or until the spec's own
    /// stop condition fires, whichever comes first.
    ///
    /// Pass `u64::MAX` to run to completion.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IoError`] a submission reports.
    pub fn run_until<D: BlockDevice + ?Sized>(
        &mut self,
        dev: &mut D,
        bytes: u64,
    ) -> Result<JobProgress, IoError> {
        self.source.milestone = bytes;
        self.core.run(dev, &mut self.source, &mut self.report)
    }

    /// `true` once the job's stop condition has fired.
    pub fn is_finished(&self) -> bool {
        self.core.finished
    }

    /// Everything measured so far (final once [`ClosedLoopJob::is_finished`]).
    pub fn report(&self) -> &JobReport {
        &self.report
    }

    /// Consumes the job, yielding its report.
    pub fn into_report(self) -> JobReport {
        self.report
    }

    /// Captures the job's complete state at a pause point.
    pub fn checkpoint(&self) -> DriverCheckpoint {
        let inflight = self.core.inflight();
        DriverCheckpoint {
            spec: self.source.spec.clone(),
            span: self.span,
            stream: self.source.stream.clone(),
            report: self.report.clone(),
            inflight,
            finished: self.core.finished,
        }
    }

    /// Rebuilds a job that continues exactly where `checkpoint` was taken.
    pub fn resume(checkpoint: DriverCheckpoint) -> Self {
        ClosedLoopJob {
            core: synthetic_core(&checkpoint.spec, checkpoint.inflight, checkpoint.finished),
            source: Synthetic {
                spec: checkpoint.spec,
                stream: checkpoint.stream,
                milestone: u64::MAX,
            },
            span: checkpoint.span,
            report: checkpoint.report,
        }
    }
}

/// Runs `spec` against `dev` with a closed-loop driver: `queue_depth`
/// requests stay outstanding; each completion immediately queues the next
/// request at its completion instant.
///
/// This is [`ClosedLoopJob`] run straight through — see its documentation
/// for the queue-pair batching and schedule-equivalence guarantees. Use
/// `ClosedLoopJob` directly to pause at byte milestones and checkpoint.
///
/// # Errors
///
/// Propagates the first [`IoError`] a submission reports (e.g. the spec's
/// span exceeds the device capacity).
///
/// # Example
///
/// See the crate-level example.
pub fn run_job<D: BlockDevice + ?Sized>(dev: &mut D, spec: &JobSpec) -> Result<JobReport, IoError> {
    let mut job = ClosedLoopJob::start(dev, spec)?;
    job.run_until(dev, u64::MAX)?;
    Ok(job.into_report())
}

/// Preconditions a device: sequentially fills its entire capacity with
/// large writes, returning the completion instant (pass it to
/// [`JobSpec::with_start`] for the measured job that follows).
///
/// This is the standard FIO methodology for putting an SSD's FTL into its
/// steady state before measuring — without it, in-place random-write
/// workloads on a fresh device never face garbage collection.
///
/// # Errors
///
/// Propagates the first [`IoError`] a submission reports.
pub fn precondition<D: BlockDevice + ?Sized>(dev: &mut D) -> Result<SimTime, IoError> {
    let capacity = dev.info().capacity();
    let io = (1u32 << 20).min(capacity.min(u32::MAX as u64) as u32);
    let spec = JobSpec::new(crate::AccessPattern::SeqWrite, io, 16)
        .with_byte_limit(capacity)
        .with_seed(0xF111);
    Ok(run_job(dev, &spec)?.finished_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdev::TestDevice;
    use crate::{replay_with, AccessPattern, ReplayConfig, Trace, TraceEntry};
    use uc_sim::SimDuration;

    /// An arrival-driven job: one request of `spec`'s pattern at each of
    /// `arrivals`, replayed open loop.
    fn run_open_loop(dev: &mut TestDevice, spec: &JobSpec, arrivals: &[SimTime]) -> JobReport {
        let (start, end) = job_span(dev, spec);
        let mut stream = AddressStream::new(spec.pattern, spec.io_size, start, end, spec.seed);
        let entries = arrivals
            .iter()
            .map(|&at| {
                let (kind, offset) = stream.next_io();
                TraceEntry {
                    at,
                    kind,
                    offset,
                    len: spec.io_size,
                }
            })
            .collect();
        let config = ReplayConfig::open_loop()
            .with_window(spec.throughput_window)
            .with_ring(spec.queue_depth);
        replay_with(dev, &Trace::from_entries(entries), &config).unwrap()
    }

    #[test]
    fn closed_loop_respects_io_limit() {
        let mut dev = TestDevice::new(10, 4);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 4).with_io_limit(100);
        let report = run_job(&mut dev, &spec).unwrap();
        assert_eq!(report.ios, 100);
        assert_eq!(report.bytes, 100 * 4096);
    }

    #[test]
    fn closed_loop_throughput_matches_littles_law() {
        // QD4 on a 4-server 10 us device: 4 IOs complete every 10 us.
        let mut dev = TestDevice::new(10, 4);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 4).with_io_limit(4000);
        let report = run_job(&mut dev, &spec).unwrap();
        let expect_iops = 4.0 / 10e-6;
        assert!(
            (report.iops() - expect_iops).abs() / expect_iops < 0.02,
            "iops {} vs {}",
            report.iops(),
            expect_iops
        );
        assert_eq!(report.latency.max(), SimDuration::from_micros(10));
    }

    #[test]
    fn queue_depth_queues_on_saturated_device() {
        // QD8 on a 1-server device: average latency ~ QD x service.
        let mut dev = TestDevice::new(10, 1);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 8).with_io_limit(500);
        let report = run_job(&mut dev, &spec).unwrap();
        let avg = report.latency.mean().as_micros_f64();
        assert!((70.0..=90.0).contains(&avg), "avg {avg} us, expected ~80");
    }

    #[test]
    fn submissions_are_time_ordered() {
        let mut dev = TestDevice::new(7, 3);
        let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 5).with_io_limit(300);
        run_job(&mut dev, &spec).unwrap();
        for w in dev.submissions.windows(2) {
            assert!(w[1] >= w[0], "submission times must be non-decreasing");
        }
    }

    #[test]
    fn byte_limit_stops_early() {
        let mut dev = TestDevice::new(1, 1);
        let spec = JobSpec::new(AccessPattern::SeqWrite, 4096, 1).with_byte_limit(10 * 4096);
        let report = run_job(&mut dev, &spec).unwrap();
        assert_eq!(report.ios, 10);
    }

    #[test]
    fn time_limit_stops_by_clock() {
        let mut dev = TestDevice::new(100, 1);
        let spec = JobSpec::new(AccessPattern::SeqRead, 4096, 1)
            .with_time_limit(SimDuration::from_micros(1000));
        let report = run_job(&mut dev, &spec).unwrap();
        assert_eq!(report.ios, 10, "10 x 100 us fills the 1 ms budget");
    }

    #[test]
    fn open_loop_burst_accumulates_queueing() {
        let mut dev = TestDevice::new(10, 1);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 1);
        // 20 requests all arriving at t=0: the last waits ~190 us.
        let arrivals = vec![SimTime::ZERO; 20];
        let report = run_open_loop(&mut dev, &spec, &arrivals);
        assert_eq!(report.ios, 20);
        assert_eq!(report.latency.max(), SimDuration::from_micros(200));
        assert_eq!(report.latency.min(), SimDuration::from_micros(10));
    }

    #[test]
    fn open_loop_smooth_arrivals_avoid_queueing() {
        let mut dev = TestDevice::new(10, 1);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 1);
        let arrivals: Vec<SimTime> = (0..20)
            .map(|i| SimTime::ZERO + SimDuration::from_micros(20 * i))
            .collect();
        let report = run_open_loop(&mut dev, &spec, &arrivals);
        assert_eq!(report.latency.max(), SimDuration::from_micros(10));
    }

    #[test]
    fn invalid_span_surfaces_as_error() {
        let mut dev = TestDevice::new(1, 1);
        let spec = JobSpec::new(AccessPattern::RandRead, 4095, 1); // misaligned
        assert!(run_job(&mut dev, &spec).is_err());
    }

    #[test]
    fn chained_jobs_keep_device_time_monotone() {
        // Run one job, then a second starting at the first's finish: the
        // second job's latency must look like the first's, not inherit a
        // time-warp penalty.
        let mut dev = TestDevice::new(10, 2);
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 2).with_io_limit(100);
        let first = run_job(&mut dev, &spec).unwrap();
        let second_spec = spec.clone().with_start(first.finished_at);
        let second = run_job(&mut dev, &second_spec).unwrap();
        // In-flight stragglers from the first job may delay the second
        // job's very first I/Os slightly; anything beyond that tolerance
        // would indicate a time-warp bug.
        let a = first.latency.mean().as_nanos() as f64;
        let b = second.latency.mean().as_nanos() as f64;
        assert!((b - a).abs() / a < 0.05, "means {a} vs {b}");
        assert!((first.iops() - second.iops()).abs() / first.iops() < 0.05);
    }

    #[test]
    fn precondition_fills_whole_capacity() {
        let mut dev = TestDevice::new(1, 8);
        let t = precondition(&mut dev).unwrap();
        assert!(t > SimTime::ZERO);
        // 1 GiB at 1 MiB per I/O: 1024 I/Os to hit the byte limit, plus up
        // to QD-1 in-flight stragglers the closed loop had already issued.
        assert!((1024..1024 + 16).contains(&dev.submissions.len()));
    }

    /// The pre-queue-pair driver: one `submit` call per request. Kept as a
    /// reference implementation to pin the batched driver's schedule.
    fn run_job_one_at_a_time<D: BlockDevice + ?Sized>(
        dev: &mut D,
        spec: &JobSpec,
    ) -> Result<JobReport, IoError> {
        let (start, end) = job_span(dev, spec);
        let mut stream = AddressStream::new(spec.pattern, spec.io_size, start, end, spec.seed);
        let mut report = JobReport::new(spec.throughput_window, spec.start);
        let mut inflight: BinaryHeap<Reverse<InflightIo>> = BinaryHeap::new();
        let submit = |dev: &mut D,
                      at: SimTime,
                      stream: &mut AddressStream,
                      inflight: &mut BinaryHeap<Reverse<InflightIo>>|
         -> Result<(), IoError> {
            let (kind, offset) = stream.next_io();
            let req = IoRequest {
                kind,
                offset,
                len: spec.io_size,
                submit_time: at,
            };
            let completes = dev.submit(&req)?;
            inflight.push(Reverse(InflightIo {
                completes,
                submitted: at,
                kind,
                len: spec.io_size,
            }));
            Ok(())
        };
        for _ in 0..spec.queue_depth {
            submit(dev, spec.start, &mut stream, &mut inflight)?;
        }
        while let Some(Reverse(done)) = inflight.pop() {
            report.record(
                done.kind.is_write(),
                done.len,
                done.submitted,
                done.completes,
            );
            if limit_reached(spec, &report) {
                break;
            }
            submit(dev, done.completes, &mut stream, &mut inflight)?;
        }
        Ok(report)
    }

    #[test]
    fn batched_driver_matches_one_at_a_time_schedule() {
        // servers=4 makes whole completion groups share an instant — the
        // case the batched drain must handle identically.
        for (us, servers, qd) in [(10, 4, 4), (7, 3, 8), (10, 1, 5), (3, 8, 16)] {
            for pattern in [
                AccessPattern::RandRead,
                AccessPattern::RandWrite,
                AccessPattern::SeqWrite,
                // Mixed kinds can tie on (completes, submitted) within one
                // multi-server completion group — the case the kind/len
                // tie-break in `InflightIo::cmp` pins down.
                AccessPattern::Mixed {
                    write_ratio: 0.5,
                    random: true,
                },
            ] {
                let spec = JobSpec::new(pattern, 4096, qd).with_io_limit(500);
                let mut a = TestDevice::new(us, servers);
                let reference = run_job_one_at_a_time(&mut a, &spec).unwrap();
                let mut b = TestDevice::new(us, servers);
                let batched = run_job(&mut b, &spec).unwrap();
                assert_eq!(batched.ios, reference.ios);
                assert_eq!(batched.bytes, reference.bytes);
                assert_eq!(batched.finished_at, reference.finished_at);
                assert_eq!(batched.latency.mean(), reference.latency.mean());
                assert_eq!(batched.latency.max(), reference.latency.max());
                assert_eq!(
                    batched.latency.percentile(99.9),
                    reference.latency.percentile(99.9)
                );
                // The devices saw the same submission timeline too.
                assert_eq!(b.submissions, a.submissions);
            }
        }
    }

    #[test]
    fn open_loop_batching_preserves_arrival_schedule() {
        let arrivals: Vec<SimTime> = (0..50)
            .map(|i| SimTime::ZERO + SimDuration::from_micros(3 * (i / 4)))
            .collect();
        let spec = JobSpec::new(AccessPattern::RandRead, 4096, 8);
        let mut a = TestDevice::new(10, 2);
        let mut ref_report = JobReport::new(spec.throughput_window, spec.start);
        {
            let (start, end) = job_span(&a, &spec);
            let mut stream = AddressStream::new(spec.pattern, spec.io_size, start, end, spec.seed);
            for &at in &arrivals {
                let (kind, offset) = stream.next_io();
                let req = IoRequest {
                    kind,
                    offset,
                    len: spec.io_size,
                    submit_time: at,
                };
                let completes = a.submit(&req).unwrap();
                ref_report.record(kind.is_write(), spec.io_size, at, completes);
            }
        }
        let mut b = TestDevice::new(10, 2);
        let batched = run_open_loop(&mut b, &spec, &arrivals);
        assert_eq!(batched.ios, ref_report.ios);
        assert_eq!(batched.finished_at, ref_report.finished_at);
        assert_eq!(batched.latency.mean(), ref_report.latency.mean());
        assert_eq!(b.submissions, a.submissions);
    }

    #[test]
    fn paused_job_matches_straight_run_exactly() {
        // Pause at several byte milestones, checkpointing and resuming at
        // each; the final report and the device-observed submission
        // timeline must equal a straight run's.
        for (qd, servers) in [(1usize, 1usize), (4, 4), (8, 3)] {
            let spec = JobSpec::new(
                AccessPattern::Mixed {
                    write_ratio: 0.5,
                    random: true,
                },
                4096,
                qd,
            )
            .with_byte_limit(400 * 4096)
            .with_seed(77);
            let mut straight_dev = TestDevice::new(9, servers);
            let straight = run_job(&mut straight_dev, &spec).unwrap();

            let mut dev = TestDevice::new(9, servers);
            let mut job = ClosedLoopJob::start(&mut dev, &spec).unwrap();
            let mut milestone = 50 * 4096u64;
            loop {
                match job.run_until(&mut dev, milestone).unwrap() {
                    JobProgress::Finished => break,
                    JobProgress::Paused => {
                        // Freeze and thaw: the continuation must not care.
                        job = ClosedLoopJob::resume(job.checkpoint());
                        milestone += 50 * 4096;
                    }
                }
            }
            assert!(job.is_finished());
            let segmented = job.into_report();
            assert_eq!(segmented.ios, straight.ios);
            assert_eq!(segmented.bytes, straight.bytes);
            assert_eq!(segmented.finished_at, straight.finished_at);
            assert_eq!(segmented.latency.mean(), straight.latency.mean());
            assert_eq!(
                segmented.latency.percentile(99.9),
                straight.latency.percentile(99.9)
            );
            assert_eq!(dev.submissions, straight_dev.submissions);
        }
    }

    #[test]
    fn checkpoint_is_canonical_and_resume_lossless() {
        let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 6).with_byte_limit(200 * 4096);
        let mut dev = TestDevice::new(5, 2);
        let mut job = ClosedLoopJob::start(&mut dev, &spec).unwrap();
        job.run_until(&mut dev, 40 * 4096).unwrap();
        let cp = job.checkpoint();
        assert!(!cp.finished);
        assert_eq!(cp.inflight.len(), 6, "queue depth stays outstanding");
        assert!(
            cp.inflight
                .windows(2)
                .all(|w| (w[0].completes, w[0].submitted) <= (w[1].completes, w[1].submitted)),
            "inflight entries are in canonical schedule order"
        );
        // A resumed job's own checkpoint is identical (canonical form).
        let resumed = ClosedLoopJob::resume(cp.clone());
        let cp2 = resumed.checkpoint();
        assert_eq!(cp2.inflight, cp.inflight);
        assert_eq!(cp2.spec, cp.spec);
        assert_eq!(cp2.span, cp.span);
        assert_eq!(cp2.report.bytes, cp.report.bytes);
    }

    #[test]
    fn run_until_past_limit_reports_finished() {
        let spec = JobSpec::new(AccessPattern::SeqWrite, 4096, 2).with_io_limit(10);
        let mut dev = TestDevice::new(3, 1);
        let mut job = ClosedLoopJob::start(&mut dev, &spec).unwrap();
        assert_eq!(
            job.run_until(&mut dev, u64::MAX).unwrap(),
            JobProgress::Finished
        );
        // Idempotent once finished.
        assert_eq!(
            job.run_until(&mut dev, u64::MAX).unwrap(),
            JobProgress::Finished
        );
        assert_eq!(job.report().ios, 10);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut dev = TestDevice::new(3, 2);
            let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 4)
                .with_io_limit(200)
                .with_seed(seed);
            let r = run_job(&mut dev, &spec).unwrap();
            (r.finished_at, r.latency.mean())
        };
        assert_eq!(run(5), run(5));
    }
}
