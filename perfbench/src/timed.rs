//! The timing wrapper at the `BlockDevice` seam.
//!
//! [`Timed`] brackets every call into the wrapped device with a host
//! clock reading and a per-thread allocation count, keeps the samples
//! locally, and merges them into a shared [`Sink`] when dropped — so a
//! device moved into a fleet, a pool or an executor stage still reports
//! what it measured. It forwards the checkpoint seam too, which lets it
//! wrap fig3 segment devices and fleet pool devices without changing
//! what they simulate.

use crate::alloc;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use uc_blockdev::{
    BlockDevice, CheckpointDevice, CheckpointError, Completion, DeviceCheckpoint, DeviceInfo,
    IoBatch, IoError, IoKind, IoRequest, IoResult,
};
use uc_sim::SimTime;

/// Host-side measurements of the calls into one or more devices.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// Host ns per read call (per request, or per batch in batch mode).
    pub read_ns: Vec<u32>,
    /// Host ns per write call.
    pub write_ns: Vec<u32>,
    /// Requests per timed call, in call order (batch mode only).
    pub batch_ios: Vec<u32>,
    /// Timed calls.
    pub calls: u64,
    /// Requests those calls carried.
    pub ios: u64,
    /// Heap allocations made inside the timed calls.
    pub allocs: u64,
    /// Total host ns inside the timed calls.
    pub total_ns: u64,
}

impl Samples {
    /// Appends `other`'s samples.
    pub fn merge(&mut self, other: &Samples) {
        self.read_ns.extend_from_slice(&other.read_ns);
        self.write_ns.extend_from_slice(&other.write_ns);
        self.batch_ios.extend_from_slice(&other.batch_ios);
        self.calls += other.calls;
        self.ios += other.ios;
        self.allocs += other.allocs;
        self.total_ns += other.total_ns;
    }

    /// Every timed call's duration, reads and writes together.
    pub fn all_ns(&self) -> Vec<u32> {
        let mut all = self.read_ns.clone();
        all.extend_from_slice(&self.write_ns);
        all
    }
}

/// Where wrappers deposit their samples when dropped.
pub type Sink = Arc<Mutex<Samples>>;

/// A fresh, empty sink.
pub fn sink() -> Sink {
    Arc::new(Mutex::new(Samples::default()))
}

/// What one timed call covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Time every request: batches are split into consecutive `submit`
    /// calls, exactly what `BlockDevice::submit_batch`'s default does.
    Request,
    /// Time every `submit_batch` call as one unit (a doorbell round trip).
    Batch,
}

/// A device wrapped so every submission is timed.
pub struct Timed<D: BlockDevice> {
    inner: D,
    granularity: Granularity,
    local: Samples,
    sink: Sink,
}

impl<D: BlockDevice> Timed<D> {
    /// Wraps `inner`; samples go to `sink` when the wrapper is dropped.
    pub fn new(inner: D, granularity: Granularity, sink: &Sink) -> Self {
        Timed {
            inner,
            granularity,
            local: Samples::default(),
            sink: Arc::clone(sink),
        }
    }

    /// What this wrapper has measured so far (not yet merged).
    pub fn samples(&self) -> &Samples {
        &self.local
    }

    fn record(&mut self, kind: IoKind, ios: usize, started: Instant, allocs_before: u64) {
        let ns = started.elapsed().as_nanos() as u64;
        self.local.allocs += alloc::thread() - allocs_before;
        self.local.calls += 1;
        self.local.ios += ios as u64;
        self.local.total_ns += ns;
        let ns = ns.min(u32::MAX as u64) as u32;
        match kind {
            IoKind::Read => self.local.read_ns.push(ns),
            IoKind::Write => self.local.write_ns.push(ns),
        }
        if self.granularity == Granularity::Batch {
            self.local.batch_ios.push(ios as u32);
        }
    }
}

impl<D: BlockDevice> Drop for Timed<D> {
    fn drop(&mut self) {
        // A poisoned sink means another measuring thread panicked; the
        // benchmark is failing already, so the samples are moot.
        if let Ok(mut sink) = self.sink.lock() {
            sink.merge(&self.local);
        }
    }
}

impl<D: BlockDevice> BlockDevice for Timed<D> {
    fn info(&self) -> DeviceInfo {
        self.inner.info()
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        let allocs = alloc::thread();
        let started = Instant::now();
        let result = self.inner.submit(req);
        self.record(req.kind, 1, started, allocs);
        result
    }

    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        match self.granularity {
            Granularity::Request => {
                let mut completions = Vec::with_capacity(batch.len());
                for (index, req) in batch.requests().iter().enumerate() {
                    let completes = self.submit(req)?;
                    completions.push(Completion::of(index, req, completes));
                }
                Ok(completions)
            }
            Granularity::Batch => {
                let kind = batch.requests().first().map_or(IoKind::Read, |r| r.kind);
                let allocs = alloc::thread();
                let started = Instant::now();
                let result = self.inner.submit_batch(batch);
                self.record(kind, batch.len(), started, allocs);
                result
            }
        }
    }

    fn idle_until(&mut self, now: SimTime) {
        self.inner.idle_until(now)
    }

    fn observe_into(&self, prefix: &str, obs: &mut uc_obs::MetricsRegistry) {
        self.inner.observe_into(prefix, obs)
    }
}

impl<D: CheckpointDevice> CheckpointDevice for Timed<D> {
    fn checkpoint(&self) -> DeviceCheckpoint {
        self.inner.checkpoint()
    }

    fn restore_from(&mut self, checkpoint: DeviceCheckpoint) -> Result<(), CheckpointError> {
        self.inner.restore_from(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uc_core::devices::{DeviceKind, DeviceRoster};
    use uc_workload::{run_job, AccessPattern, JobSpec};

    #[test]
    fn wrapped_device_completes_exactly_like_a_bare_one() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        for kind in DeviceKind::ALL {
            for pattern in [AccessPattern::RandWrite, AccessPattern::RandRead] {
                let spec = JobSpec::new(pattern, 16 << 10, 8)
                    .with_io_limit(3000)
                    .with_seed(0x5EED);
                let mut bare = roster.build_seeded(kind, 7);
                let expected = run_job(bare.as_mut(), &spec).unwrap();
                let sink = sink();
                let mut submitted = 0;
                for granularity in [Granularity::Request, Granularity::Batch] {
                    let mut wrapped = Timed::new(roster.build_seeded(kind, 7), granularity, &sink);
                    let got = run_job(&mut wrapped, &spec).unwrap();
                    assert_eq!(got.finished_at, expected.finished_at, "{kind}");
                    assert_eq!(got.ios, expected.ios);
                    assert_eq!(got.latency.mean(), expected.latency.mean());
                    assert_eq!(got.latency.max(), expected.latency.max());
                    // The driver's last doorbells go out after the limit
                    // fires, so up to QD - 1 more requests than completed.
                    let timed = wrapped.samples().ios;
                    assert!((expected.ios..expected.ios + 8).contains(&timed), "{timed}");
                    submitted += timed;
                }
                let merged = sink.lock().unwrap();
                assert_eq!(merged.ios, submitted, "both wrappers merged on drop");
            }
        }
    }

    #[test]
    fn checkpoint_seam_is_forwarded() {
        let roster = DeviceRoster::with_capacities(128 << 20, 128 << 20);
        let sink = sink();
        let mut wrapped = Timed::new(
            roster.build_checkpointable(DeviceKind::LocalSsd, 3),
            Granularity::Request,
            &sink,
        );
        let req = IoRequest::write(0, 4096, SimTime::ZERO);
        let first = wrapped.submit(&req).unwrap();
        let frozen = wrapped.checkpoint();
        assert_eq!(frozen.device(), wrapped.info().name());
        let again = wrapped.submit(&req).unwrap();
        wrapped.restore_from(frozen).unwrap();
        assert_eq!(wrapped.submit(&req).unwrap(), again);
        assert!(again >= first);
    }
}
