//! Counting global allocator: every heap allocation the process makes adds
//! one to a call counter and its size to a byte counter. It is always
//! installed, traced run or not, so two commits compared with this benchmark
//! pay the same two relaxed atomic adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: neither counter publishes other data, so `Relaxed` is
// enough.
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, plus the two counters.
pub struct Counting;

fn note(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: (contract) the caller passes a layout of non-zero size.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as received.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: (contract) the caller passes a layout of non-zero size.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: `layout` is the caller's, forwarded as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: every block this allocator hands out came from `System`
        // with the same layout, so `System` may free it.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: (contract) `ptr` came from this allocator with `layout`, and
    // `new_size` is non-zero and does not overflow when rounded up.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` describe a live `System` block (see
        // `dealloc`); `new_size` is the caller's, forwarded as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// (allocation calls, bytes requested) since process start.
pub fn snapshot() -> (u64, u64) {
    (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
