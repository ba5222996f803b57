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
//! The allocator also records each thread's largest single allocation,
//! which bounds what a hostile wire frame can make the decoder reserve.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
}

fn count(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
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
