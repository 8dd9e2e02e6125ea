//! Counting global allocator.
//!
//! Always installed, in the untraced and the traced run alike, so both sides
//! of every comparison pay the same (four relaxed atomic operations per
//! allocation). Allocation and byte counts are exact: the simulator is
//! deterministic and the benchmark runs on one thread, so two runs of one
//! binary on one seed read identical digits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as u64, Relaxed) + size as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one allocation of the new size, as if it were
        // a free followed by an alloc.
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        on_alloc(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator and
        // the caller vouched for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made so far (monotone).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes requested so far (monotone).
pub fn bytes() -> u64 {
    BYTES.load(Relaxed)
}

/// Live heap size now, in bytes.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Largest live heap size since the last [`reset_peak`], in bytes.
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Relaxed)
}

/// Puts the peak back to `peak` (after work that must not count).
pub fn set_peak(peak: u64) {
    PEAK.store(peak, Relaxed);
}
