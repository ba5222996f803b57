//! Test doubles shared by the driver, replay and codec unit tests.

use uc_blockdev::{BlockDevice, Completion, DeviceInfo, IoBatch, IoError, IoRequest, IoResult};
use uc_sim::{ParallelResource, SimDuration, SimTime};

/// A device with fixed service time and `servers`-way parallelism that
/// remembers every submission instant.
pub(crate) struct TestDevice {
    service: SimDuration,
    servers: ParallelResource,
    pub(crate) submissions: Vec<SimTime>,
}

impl TestDevice {
    pub(crate) fn new(us: u64, servers: usize) -> Self {
        TestDevice {
            service: SimDuration::from_micros(us),
            servers: ParallelResource::new(servers),
            submissions: Vec::new(),
        }
    }
}

impl BlockDevice for TestDevice {
    fn info(&self) -> DeviceInfo {
        DeviceInfo::new("test", 1 << 30, 4096)
    }
    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.info().validate(req)?;
        self.submissions.push(req.submit_time);
        Ok(self.servers.acquire(req.submit_time, self.service).1)
    }
}

/// A [`TestDevice`] that also records the size of every doorbell ring.
pub(crate) struct Counting {
    pub(crate) inner: TestDevice,
    pub(crate) batches: Vec<usize>,
}

impl Counting {
    pub(crate) fn new(us: u64, servers: usize) -> Self {
        Counting {
            inner: TestDevice::new(us, servers),
            batches: Vec::new(),
        }
    }
}

impl BlockDevice for Counting {
    fn info(&self) -> DeviceInfo {
        self.inner.info()
    }
    fn submit(&mut self, req: &IoRequest) -> IoResult {
        self.inner.submit(req)
    }
    fn submit_batch(&mut self, batch: &IoBatch) -> Result<Vec<Completion>, IoError> {
        self.batches.push(batch.len());
        let mut out = Vec::with_capacity(batch.len());
        for (i, req) in batch.requests().iter().enumerate() {
            out.push(Completion::of(i, req, self.inner.submit(req)?));
        }
        Ok(out)
    }
}
