//! A counting global allocator: every heap allocation made by the
//! benchmark process bumps a process-wide counter and a per-thread one,
//! and the allocator keeps the live heap size and its high-water mark.
//!
//! The process-wide count feeds `allocs_per_io`; the per-thread count
//! lets a timing wrapper attribute allocations to the one call it
//! brackets even while other executor threads allocate concurrently.
//! The high-water mark feeds `peak_heap_mib`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator plus allocation counters.
pub struct CountingAlloc;

static TOTAL: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` initialisation: no lazy-init allocation and no destructor,
    // so the allocator may touch it from any point of a thread's life.
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

// Relaxed throughout: statistics that publish no other data.
fn count(grown: u64) {
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD.try_with(|n| n.set(n.get() + 1));
    let live = LIVE.fetch_add(grown, Ordering::Relaxed) + grown;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn release(bytes: u64) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the counter
// updates neither allocate nor touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as u64);
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old_size = layout.size();
        count(new_size.saturating_sub(old_size) as u64);
        release(old_size.saturating_sub(new_size) as u64);
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which hands out `System` memory.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size() as u64);
        // SAFETY: forwarded verbatim; `ptr` came from `System` via us.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations (including reallocations) made by the whole process so far.
pub fn total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Restarts the heap high-water mark at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most heap bytes live at once since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Allocations made by the calling thread so far.
pub fn thread() -> u64 {
    THREAD.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_known_allocation() {
        let before_thread = thread();
        let before_total = total();
        let boxed = std::hint::black_box(Box::new([7u8; 64]));
        assert_eq!(thread() - before_thread, 1, "one Box is one allocation");
        assert!(total() - before_total >= 1);
        drop(boxed);
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(16));
        assert_eq!(thread() - before_thread, 2);
        drop(v);
    }

    #[test]
    fn tracks_the_heap_high_water_mark() {
        reset_peak();
        let big = std::hint::black_box(vec![1u8; 8 << 20]);
        drop(big);
        // Other test threads allocate too, so only a lower bound holds.
        assert!(peak_bytes() >= 8 << 20);
    }
}
