//! Allocation regression test of the closed-loop I/O path.
//!
//! A steady-state doorbell must not allocate: the driver owns and reuses
//! its completion queue, and the simulators post into it. This binary
//! installs its own counting global allocator (per thread, so tests
//! running in parallel do not see each other's allocations) and checks
//! that running `4N` I/Os costs fewer than `N / 100` allocations more
//! than running `N` — the per-run set-up (report, heap, batch, queue
//! growth) is paid once, the per-I/O path nothing.
//!
//! A served round trip allocates only the list each side decodes: the
//! request list on the server, the completion list on the client. Every
//! wire buffer is owned by its connection and reused.
//!
//! The allocator also records each thread's largest single allocation,
//! which bounds what a hostile wire frame can make the decoder reserve,
//! and shows that the checkpoint seam copies the FTL page maps once per
//! cut at their in-memory width. It counts each thread's allocations
//! above a size too, which shows that a record file is written from, and
//! read into, one buffer.
//!
//! Building a fleet allocates nothing per arrival: tenant traces stream
//! from lazy cursors, so a longer horizon costs no more set-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use unwritten_contract::blockdev::{submit_each, IoResult};
use unwritten_contract::prelude::*;
use unwritten_contract::workload::Shaper;

/// The system allocator, counting allocations made by each thread and
/// tracking the largest one.
struct CountingAlloc;

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor,
    // so the allocator may touch them from any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static BIG_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
    static BIG: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    if BIG_FROM.try_with(Cell::get).is_ok_and(|from| size >= from) {
        let _ = BIG.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// update neither allocates nor touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` memory.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The largest single allocation this thread makes while running `f`.
fn largest_alloc_in(f: impl FnOnce()) -> usize {
    LARGEST.with(|m| m.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// How many allocations of at least `bytes` this thread makes while
/// running `f`.
fn allocs_of_at_least(bytes: usize, f: impl FnOnce()) -> u64 {
    BIG.with(|n| n.set(0));
    BIG_FROM.with(|from| from.set(bytes));
    f();
    BIG_FROM.with(|from| from.set(usize::MAX));
    BIG.with(Cell::get)
}

const N: u64 = 2_000;
const CAPACITY: u64 = 256 << 20;

/// Allocations `run_job` makes for `ios` mixed 4 KiB I/Os at
/// `queue_depth` on a fresh device from `build` (built outside the
/// count).
fn job_allocs<D: BlockDevice>(build: &dyn Fn() -> D, queue_depth: usize, ios: u64) -> u64 {
    let mut dev = build();
    let pattern = AccessPattern::Mixed {
        write_ratio: 0.5,
        random: true,
    };
    let spec = JobSpec::new(pattern, 4096, queue_depth).with_io_limit(ios);
    let before = allocs();
    let report = run_job(&mut dev, &spec).expect("in-range job");
    let spent = allocs() - before;
    assert!(report.ios >= ios);
    spent
}

/// Asserts the extra `3N` I/Os of a `4N` run allocate fewer than `N/100`
/// times, at queue depths 1 and 16.
fn assert_no_per_io_allocation<D: BlockDevice>(name: &str, build: &dyn Fn() -> D) {
    for queue_depth in [1, 16] {
        let short = job_allocs(build, queue_depth, N);
        let long = job_allocs(build, queue_depth, 4 * N);
        let extra = long.saturating_sub(short);
        assert!(
            extra < N / 100,
            "{name} at QD {queue_depth}: {N} I/Os took {short} allocations, \
             {} took {long} ({extra} more for {} extra I/Os)",
            4 * N,
            3 * N
        );
    }
}

#[test]
fn ssd_jobs_do_not_allocate_per_io() {
    assert_no_per_io_allocation("Ssd", &|| Ssd::new(SsdConfig::samsung_970_pro(CAPACITY)));
}

#[test]
fn essd_jobs_do_not_allocate_per_io() {
    assert_no_per_io_allocation("Essd", &|| Essd::new(EssdConfig::aws_io2(CAPACITY)));
}

#[test]
fn shaped_essd_jobs_do_not_allocate_per_io() {
    assert_no_per_io_allocation("Shaper<Essd>", &|| {
        Shaper::new(Essd::new(EssdConfig::aws_io2(CAPACITY)), 200.0e6, 1 << 20)
    });
}

/// A device that completes every request 10 µs after submission and
/// allocates nothing, so a served count is the serving path's alone.
struct FixedLatency;

impl BlockDevice for FixedLatency {
    fn info(&self) -> DeviceInfo {
        DeviceInfo::new("fixed", CAPACITY, 512)
    }

    fn submit(&mut self, req: &IoRequest) -> IoResult {
        Ok(req.submit_time + SimDuration::from_micros(10))
    }

    fn submit_batch_into(
        &mut self,
        batch: &IoBatch,
        completions: &mut Vec<Completion>,
    ) -> Result<(), IoError> {
        submit_each(self, batch, completions)
    }
}

/// Allocations `(client thread, server thread)` for `ios` one-request
/// round trips from a `RemoteDevice` to a `serve_events` loop over
/// loopback TCP. The client counts its doorbells only; the server
/// counts its whole loop.
fn served_allocs(ios: u64) -> (u64, u64) {
    use unwritten_contract::serve::ServePool;
    use unwritten_contract::serve::{serve_events, Endpoint, Listener, PoolConfig, RemoteDevice};

    let device: Box<dyn BlockDevice + Send> = Box::new(FixedLatency);
    let pool = std::sync::Arc::new(ServePool::new(
        vec![("essd".to_string(), device)],
        PoolConfig::default(),
    ));
    let listener = Listener::bind(&Endpoint::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
    let endpoint = listener.local_endpoint().unwrap();
    let server = std::thread::spawn(move || {
        let before = allocs();
        serve_events(&listener, &pool, 1).expect("event loop");
        allocs() - before
    });
    let mut remote = RemoteDevice::open(&endpoint, 0).expect("open served lane");
    let mut batch = IoBatch::with_capacity(1);
    let mut completions = Vec::with_capacity(1);
    let before = allocs();
    for i in 0..ios {
        batch.clear();
        batch.push(IoRequest::write(
            (i * 4096) % CAPACITY,
            4096,
            SimTime::from_nanos(i * 10_000),
        ));
        completions.clear();
        remote
            .submit_batch_into(&batch, &mut completions)
            .expect("in-range write");
        assert_eq!(completions.len(), 1);
    }
    let client = allocs() - before;
    remote.close().expect("orderly close");
    (client, server.join().expect("event loop thread"))
}

/// The extra `3N` round trips of a `4N` run cost at most `3N`
/// allocations on each side: one decoded list per round trip.
#[test]
fn served_round_trips_allocate_one_list_per_side() {
    const N: u64 = 500;
    let (short_client, short_server) = served_allocs(N);
    let (long_client, long_server) = served_allocs(4 * N);
    for (side, short, long) in [
        ("client", short_client, long_client),
        ("server", short_server, long_server),
    ] {
        let extra = long.saturating_sub(short);
        assert!(
            extra <= 3 * N,
            "{side}: {N} round trips took {short} allocations, {} took {long} \
             ({extra} more for {} extra round trips)",
            4 * N,
            3 * N
        );
    }
}

/// A frame that claims the maximum 65,536 list entries but carries none
/// of them must fail `Truncated` without reserving room for the claim:
/// list capacity is bounded by the bytes present, not the count.
#[test]
fn hostile_frame_counts_do_not_reserve_memory() {
    use unwritten_contract::persist::{DecodeError, Encoder};
    use unwritten_contract::serve::{Frame, MAX_FRAME_REQUESTS};

    for (kind, lanes) in [
        ("uc.wire.submit.v2", None),
        ("uc.wire.completions.v2", None),
        ("uc.wire.resume.v2", None),
        ("uc.wire.resume-ok.v2", Some(2u32)),
    ] {
        let mut w = Encoder::new();
        w.put_u64(7); // session
        w.put_u32(1); // lane
        w.put_u64(1); // seq
        if let Some(lanes) = lanes {
            w.put_u32(lanes);
        }
        w.put_u64(MAX_FRAME_REQUESTS);
        let mut result = None;
        let largest = largest_alloc_in(|| result = Some(Frame::from_parts(kind, w.as_bytes())));
        assert!(
            matches!(result, Some(Err(DecodeError::Truncated { .. }))),
            "{kind}: {result:?}"
        );
        assert!(
            largest < 4096,
            "{kind}: decoding a {}-byte payload allocated {largest} bytes at once",
            w.as_bytes().len()
        );
    }
}

/// The checkpoint seam copies each FTL page map once per cut, at its
/// in-memory 4 bytes per entry, and a restore moves the maps into the
/// device without allocating anything map-sized.
#[test]
fn checkpoint_seam_copies_page_maps_once() {
    let config = SsdConfig::samsung_970_pro(1 << 30);
    let physical_pages = config.ftl.geometry.total_pages() as usize;
    let mut dev = Ssd::new(config.clone());
    let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 16).with_io_limit(20_000);
    run_job(&mut dev, &spec).expect("in-range job");

    let mut checkpoint = None;
    let largest = largest_alloc_in(|| checkpoint = Some(CheckpointDevice::checkpoint(&dev)));
    assert!(
        largest <= 4 * physical_pages,
        "checkpoint allocated {largest} bytes at once for {physical_pages} physical pages"
    );
    let checkpoint = checkpoint.expect("checkpoint taken");
    // As at a segment cut: restore into a freshly built device.
    let mut fresh = Ssd::new(config);
    let largest = largest_alloc_in(|| fresh.restore_from(checkpoint).expect("same device"));
    assert!(
        largest < 4096,
        "restore_from allocated {largest} bytes at once"
    );
}

/// A record file is written from one buffer: the device checkpoint's
/// payload is encoded in place behind the envelope head, never staged in
/// a buffer of its own and copied.
#[test]
fn record_files_are_written_from_one_buffer() {
    let mut dev = Ssd::new(SsdConfig::samsung_970_pro(1 << 30));
    let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 16).with_io_limit(2_000);
    run_job(&mut dev, &spec).expect("in-range job");
    let dir = std::env::temp_dir().join(format!("uc-alloc-write-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ssd.ckpt");
    let checkpoint = CheckpointDevice::checkpoint(&dev);
    checkpoint.save_to(&path).expect("save");
    let file_len = std::fs::metadata(&path).expect("saved").len() as usize;
    assert!(file_len >= 1 << 20, "a {file_len}-byte record is too small");

    // The growing buffer passes half the file's size at most twice.
    let big = allocs_of_at_least(file_len / 2, || checkpoint.save_to(&path).expect("save"));
    assert!(
        big <= 2,
        "writing a {file_len}-byte record file made {big} allocations of {} bytes or more",
        file_len / 2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A record file is read into one buffer: the envelope is checked and
/// trimmed off in place, never copied out.
#[test]
fn record_files_are_read_into_one_buffer() {
    use unwritten_contract::blockdev::DEVICE_RECORD_KIND;
    use unwritten_contract::persist::read_record_file;

    let mut dev = Ssd::new(SsdConfig::samsung_970_pro(1 << 30));
    let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 16).with_io_limit(2_000);
    run_job(&mut dev, &spec).expect("in-range job");
    let dir = std::env::temp_dir().join(format!("uc-alloc-record-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("ssd.ckpt");
    CheckpointDevice::checkpoint(&dev)
        .save_to(&path)
        .expect("save");
    let file_len = std::fs::metadata(&path).expect("saved").len() as usize;
    assert!(file_len >= 1 << 20, "a {file_len}-byte record is too small");

    let mut payload = None;
    let big = allocs_of_at_least(file_len / 2, || {
        payload = Some(read_record_file(&path, DEVICE_RECORD_KIND));
    });
    let payload = payload.expect("read").expect("an intact device record");
    assert!(payload.len() < file_len);
    assert!(
        big <= 1,
        "reading a {file_len}-byte record file made {big} allocations of {} bytes or more",
        file_len / 2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Allocations `FleetSim::new` makes for 16 tenants on two eSSDs over a
/// `horizon_ms` arrival horizon (the pool is built outside the count).
fn fleet_build_allocs(horizon_ms: u64) -> u64 {
    use unwritten_contract::fleet::FleetDevice;
    let pool: Vec<FleetDevice> = (0..2)
        .map(|i| {
            let config = EssdConfig::alibaba_pl3(64 << 20).with_name(format!("fleet-essd-{i}"));
            Box::new(Essd::new(config)) as FleetDevice
        })
        .collect();
    let config = FleetConfig::new(16, 2).with_duration(SimDuration::from_millis(horizon_ms));
    let before = allocs();
    let _sim = FleetSim::new(config, pool);
    allocs() - before
}

/// A fleet's set-up holds no tenant's arrivals: ten times the horizon
/// (ten times the entries) builds with exactly as many allocations.
#[test]
fn fleet_setup_allocations_do_not_grow_with_the_horizon() {
    let short = fleet_build_allocs(100);
    let long = fleet_build_allocs(1000);
    assert_eq!(
        short, long,
        "a 100 ms fleet took {short} allocations to build, a 1000 ms one {long}"
    );
}
