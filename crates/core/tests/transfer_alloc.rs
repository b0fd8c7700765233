//! A staged solve's store transfers allocate nothing: a read lands in the
//! matrix of the tile it evicted, and the file store encodes and decodes
//! through the one slot buffer it keeps.
//!
//! The global allocator below counts the allocations of at least one tile's
//! payload. This file is its own test binary with a single test, so nothing
//! else allocates while a solve is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use apsp_core::ooc::{ingest, ooc_fw, staged_budget_floor, tile_bytes, FileStore, OocConfig};
use apsp_graph::generators::{self, WeightKind};
use srgemm::MinPlusF32;

struct Counting;

/// Allocations of at least this many bytes are counted.
static LARGE: AtomicUsize = AtomicUsize::new(usize::MAX);
static COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if bytes >= LARGE.load(Ordering::SeqCst) {
        COUNT.fetch_add(1, Ordering::SeqCst);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }
    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What `call` returns and how many allocations of at least `bytes` it made.
fn count_large<T>(bytes: usize, call: impl FnOnce() -> T) -> (T, usize) {
    COUNT.store(0, Ordering::SeqCst);
    LARGE.store(bytes, Ordering::SeqCst);
    let out = std::hint::black_box(call());
    LARGE.store(usize::MAX, Ordering::SeqCst);
    (out, COUNT.load(Ordering::SeqCst))
}

#[test]
fn store_transfers_do_not_allocate_per_tile() {
    // a 6 × 6 grid the tile divides, so every victim has the incoming
    // tile's shape
    let (n, t) = (192usize, 32usize);
    let g = generators::uniform_dense(n, WeightKind::small_ints(), 3);
    let floor = staged_budget_floor::<f32>(t);
    let payload = t * t * 4;
    let mut runs = Vec::new();
    for budget in [floor, floor + 8 * tile_bytes::<f32>(t, t)] {
        let path = std::env::temp_dir()
            .join(format!("apsp-transfer-alloc-{}-{budget}.tiles", std::process::id()));
        let mut store = FileStore::<f32>::create(&path, n, t).unwrap();
        let mut blocks = ingest(&mut store, &g).unwrap();
        let cfg = OocConfig::with_budget(budget);
        let (stats, large) =
            count_large(payload, || ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &cfg));
        runs.push((stats.unwrap(), large));
    }
    let [(tight, tight_allocs), (roomy, roomy_allocs)] = runs[..] else { unreachable!() };
    assert!(
        tight.tiles_read >= roomy.tiles_read + 100,
        "the budgets must move different traffic: {} vs {} reads",
        tight.tiles_read,
        roomy.tiles_read
    );
    assert_eq!(tight.outer_gemms, roomy.outer_gemms);
    // Both runs make the same GEMMs, and so the same allocations inside
    // the kernel (each product's `A` staging buffer); the roomy run also
    // fills eight more cache slots. Every read and write of the tight run's
    // extra traffic allocated a tile-sized buffer before; now none does.
    assert!(
        tight_allocs <= roomy_allocs,
        "{tight_allocs} large allocations for {} reads and {} writes, against {roomy_allocs} \
         for {} and {}",
        tight.tiles_read,
        tight.tiles_written,
        roomy.tiles_read,
        roomy.tiles_written
    );
}
