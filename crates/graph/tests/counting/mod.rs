//! A counting global allocator that tracks live and peak heap bytes and the
//! number of allocation calls, for the test binaries that bound what a call
//! holds or how often it allocates. Each such binary holds a single test, so
//! nothing else allocates while a call is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// Books one allocation call (`alloc`, `alloc_zeroed` or `realloc`) that
/// returned `bytes` bytes.
fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::SeqCst);
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `call` returns, the heap bytes that stay live with it, the peak
/// heap bytes allocated while it ran (both counted over what was live
/// before), and the allocation calls it made.
pub fn measure<T>(call: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let calls = CALLS.load(Ordering::SeqCst);
    let out = std::hint::black_box(call());
    let kept = LIVE.load(Ordering::SeqCst) - before;
    let peak = PEAK.load(Ordering::SeqCst) - before;
    (out, kept, peak, CALLS.load(Ordering::SeqCst) - calls)
}
