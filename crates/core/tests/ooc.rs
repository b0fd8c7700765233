//! Out-of-core FW: oracle equivalence, budget enforcement, corruption
//! handling, pinned store traffic, cost-model consistency, and the absent
//! tiles that make the same loop the block-sparse solver.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use apsp_core::fw_blocked::{fw_blocked_threads, DiagMethod};
use apsp_core::fw_seq::fw_seq;
use apsp_core::ooc::{
    choose_tile, ingest, ooc_fw, read_tile, solve_in_store, staged_budget_floor, tile_bytes,
    FileStore, MemStore, OocConfig, OocError, StoreError, TileStore,
};
use apsp_graph::dijkstra::dijkstra;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{Graph, GraphBuilder, INF};
use gpu_sim::OffloadCosts;
use srgemm::matrix::Matrix;
use srgemm::MinPlusF32;

fn graph(n: usize, seed: u64) -> Graph {
    generators::uniform_dense(n, WeightKind::small_ints(), seed)
}

fn closure(g: &Graph) -> Matrix<f32> {
    let mut d = g.to_dense();
    fw_seq::<MinPlusF32>(&mut d);
    d
}

/// Unique temp file path, removed on drop.
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut p = std::env::temp_dir();
        p.push(format!("apsp-ooc-test-{}-{tag}-{seq}.tiles", std::process::id()));
        TempPath(p)
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A budget just big enough to run but far too small to hold the matrix:
/// forces eviction traffic through the store on every iteration.
fn tight_budget(tile: usize) -> u64 {
    staged_budget_floor::<f32>(tile) + 3 * tile_bytes::<f32>(tile, tile)
}

#[test]
fn staged_solve_is_bit_identical_to_fw_seq_across_ragged_shapes() {
    // n × tile combos where tiles divide, don't divide, and exceed n
    for &(n, t) in &[(24usize, 8usize), (29, 8), (48, 16), (33, 7), (40, 64)] {
        let g = graph(n, 0xA11CE + n as u64);
        let want = closure(&g);
        let mut blocked = g.to_dense();
        fw_blocked_threads::<MinPlusF32>(&mut blocked, t, DiagMethod::FwClosure, 1);
        assert!(want.eq_exact(&blocked), "fw_blocked oracle drifted at n={n} t={t}");

        let path = TempPath::new("oracle");
        let cfg = OocConfig::with_budget(tight_budget(t));
        let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
        let (got, stats) = solve_in_store(&g, &mut store, &cfg).unwrap();
        assert!(want.eq_exact(&got), "staged solve diverged at n={n} t={t}");
        assert!(stats.staged, "file-backed store must report staged");
        if n > t {
            assert!(stats.tiles_written > 0, "a tight budget must spill (n={n} t={t})");
        }
    }
}

#[test]
fn in_memory_store_matches_staged_and_fw_blocked() {
    let n = 56;
    let g = graph(n, 7);
    let mut want = g.to_dense();
    fw_blocked_threads::<MinPlusF32>(&mut want, 16, DiagMethod::FwClosure, 1);

    let mut mem_store = MemStore::new::<f32>(n, 16);
    let (via_mem, mem_stats) =
        solve_in_store(&g, &mut mem_store, &OocConfig::unbounded()).unwrap();
    assert!(want.eq_exact(&via_mem));
    assert!(!mem_stats.staged);

    let path = TempPath::new("memvsfile");
    let mut file_store = FileStore::create::<f32>(&path.0, n, 16).unwrap();
    let cfg = OocConfig { budget_bytes: tight_budget(16), threads: 2 };
    let (via_file, _) = solve_in_store(&g, &mut file_store, &cfg).unwrap();
    assert!(via_mem.eq_exact(&via_file), "staged and in-memory runs must agree bit-for-bit");
}

#[test]
fn budget_sweep_never_exceeds_the_budget() {
    // a grid the tile divides and a ragged one, from exactly the floor up
    for (n, t) in [(64usize, 16usize), (70, 16)] {
        let g = graph(n, 11);
        let want = closure(&g);
        let floor = staged_budget_floor::<f32>(t);
        for extra in [0u64, 1, 1 << 12, 1 << 14, 1 << 16, 1 << 20] {
            let budget = floor + extra;
            let path = TempPath::new("sweep");
            let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
            let cfg = OocConfig::with_budget(budget);
            let (got, stats) = solve_in_store(&g, &mut store, &cfg).unwrap();
            assert!(want.eq_exact(&got), "wrong closure at n={n} budget {budget}");
            assert!(
                stats.peak_resident_bytes <= budget,
                "n={n}: peak {} exceeds budget {budget}",
                stats.peak_resident_bytes
            );
        }
    }
}

#[test]
fn budget_below_floor_fails_upfront_with_the_full_requirement() {
    let (n, t) = (32usize, 16usize);
    let path = TempPath::new("floor");
    let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
    ingest(&mut store, &graph(n, 3)).unwrap();
    let floor = staged_budget_floor::<f32>(t);
    let cfg = OocConfig::with_budget(floor - 1);
    match ooc_fw::<MinPlusF32>(&mut store, &cfg) {
        Err(OocError::BudgetTooSmall { required, budget }) => {
            // the full up-front requirement, not the increment that tripped
            assert_eq!(required, floor);
            assert_eq!(budget, floor - 1);
        }
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    }
}

#[test]
fn truncated_store_file_is_a_typed_error_not_a_panic() {
    let (n, t) = (32usize, 8usize);
    let path = TempPath::new("trunc");
    {
        let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
        ingest(&mut store, &graph(n, 5)).unwrap();
    }
    let header = std::fs::read(&path.0).unwrap()[..36].to_vec();
    // Chop the file: open() must refuse with a header error.
    let full = std::fs::metadata(&path.0).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&path.0).unwrap();
    f.set_len(full / 2).unwrap();
    drop(f);
    match FileStore::open::<f32>(&path.0) {
        Err(StoreError::BadHeader { detail }) => {
            assert!(detail.contains("truncated"), "unhelpful detail: {detail}")
        }
        other => panic!("expected BadHeader, got {:?}", other.map(|_| ())),
    }
    // Chop into the header itself.
    let f = std::fs::OpenOptions::new().write(true).open(&path.0).unwrap();
    f.set_len(10).unwrap();
    drop(f);
    assert!(matches!(FileStore::open::<f32>(&path.0), Err(StoreError::Io { op: "read", .. })));

    // Hostile headers: a valid magic and dtype field, then a geometry whose
    // slot size or file length overflows. Each is 36 bytes and nothing
    // else; none may panic, hang or allocate.
    let (n_at, tile_at) = (12usize, 20usize);
    for (what, at, value) in [
        ("tile = 2^32", tile_at, 1u64 << 32),
        ("tile = u64::MAX", tile_at, u64::MAX),
        ("n = u64::MAX", n_at, u64::MAX),
    ] {
        let mut hostile = header.clone();
        hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&path.0, &hostile).unwrap();
        match FileStore::open::<f32>(&path.0) {
            Err(StoreError::BadHeader { detail }) => {
                assert!(detail.contains("geometry"), "{what}: unhelpful detail: {detail}")
            }
            other => panic!("{what}: expected BadHeader, got {:?}", other.map(|_| ())),
        }
    }
}

#[test]
fn store_written_as_one_dtype_refuses_to_open_as_another() {
    // i32 and f32 share the 4-byte width, so slot capacities are identical
    // — only the header's dtype code can stop a silent bit-reinterpretation
    // of every stored distance.
    let (n, t) = (32usize, 16usize);
    let path = TempPath::new("dtype");
    drop(FileStore::create::<i32>(&path.0, n, t).unwrap());
    match FileStore::open::<f32>(&path.0) {
        Err(StoreError::BadHeader { detail }) => {
            assert!(
                detail.contains("i32") && detail.contains("f32"),
                "unhelpful detail: {detail}"
            );
        }
        other => panic!("expected BadHeader, got {:?}", other.map(|_| ())),
    }
    // same-dtype reopen still works
    assert!(FileStore::open::<i32>(&path.0).is_ok());
    // a u16 store differs in width and slot capacity, caught up front
    let path2 = TempPath::new("dtype16");
    drop(FileStore::create::<u16>(&path2.0, n, t).unwrap());
    match FileStore::open::<f32>(&path2.0) {
        Err(StoreError::BadHeader { detail }) => {
            assert!(detail.contains("width 2"), "unhelpful detail: {detail}");
        }
        other => panic!("expected BadHeader, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn corrupt_or_never_written_tile_is_a_typed_store_error() {
    use std::io::{Seek, SeekFrom, Write};
    let (n, t) = (32usize, 8usize);
    let cfg = OocConfig::with_budget(tight_budget(t));
    let slot = tile_bytes::<f32>(t, t);

    // Stomp four bytes in the middle of tile (1, 1)'s payload: no header or
    // length field is touched, only distances.
    let path = TempPath::new("corrupt");
    {
        let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
        ingest(&mut store, &graph(n, 6)).unwrap();
    }
    let mut f = std::fs::OpenOptions::new().write(true).open(&path.0).unwrap();
    f.seek(SeekFrom::Start(36 + 5 * slot + slot / 2)).unwrap();
    f.write_all(&[0xA5; 4]).unwrap();
    drop(f);
    let mut store = FileStore::open::<f32>(&path.0).unwrap();
    assert_eq!(
        ooc_fw::<MinPlusF32>(&mut store, &cfg),
        Err(OocError::Store(StoreError::CorruptTile { ti: 1, tj: 1 }))
    );

    // A created but never ingested store is all zeros after its header: the
    // first tile read fails its checksum instead of decoding to zeros.
    let blank = TempPath::new("blank");
    let mut store = FileStore::create::<f32>(&blank.0, n, t).unwrap();
    assert_eq!(
        ooc_fw::<MinPlusF32>(&mut store, &cfg),
        Err(OocError::Store(StoreError::CorruptTile { ti: 0, tj: 0 }))
    );
}

#[test]
fn mem_store_read_of_unwritten_tile_is_typed() {
    let mut store = MemStore::new::<f32>(16, 8);
    use apsp_core::ooc::TileStore;
    assert_eq!(store.read(1, 0), Err(StoreError::MissingTile { ti: 1, tj: 0 }));
}

#[test]
fn choose_tile_picks_the_largest_fit_and_gives_up_below_the_smallest() {
    // A budget sized for tile 64 must not pick anything bigger.
    let b64 = staged_budget_floor::<f32>(64);
    assert_eq!(choose_tile::<f32>(10_000, b64), Some(64));
    assert!(staged_budget_floor::<f32>(96) > b64);
    // Tiny budget: nothing fits.
    assert_eq!(choose_tile::<f32>(10_000, 1024), None);
    // Clamped to n when the matrix is small.
    let huge = u64::MAX;
    assert_eq!(choose_tile::<f32>(24, huge), Some(24));
    // The benchmark's dense-ooc-auto configuration: half of a 1024² f32
    // matrix. Tile 256 misses by the seven slot checksums.
    assert_eq!(choose_tile::<f32>(1024, 1024 * 1024 * 2), Some(192));
}

#[test]
fn measured_run_is_consistent_with_the_four_engine_cost_model() {
    // Validate the §4.5 disk-tier extension against a real staged run: with
    // the run's own recorded compute and I/O times as t0/t3, the model's
    // fully-overlapped (≥4-lane) prediction is a lower bound on the wall
    // time — compute and I/O are disjoint sub-intervals of it on the
    // driver's one thread, so this holds by construction, not by timing.
    // Compute is the three phase spans less the io-wait spans inside them;
    // io-wait is every io-wait span, the final flush included.
    let (n, t) = (96usize, 24usize);
    let path = TempPath::new("model");
    let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
    ingest(&mut store, &graph(n, 13)).unwrap();
    let cfg = OocConfig::with_budget(tight_budget(t));
    let (stats, trace) = apsp_trace::record("driver", || {
        let _wall = apsp_trace::span("wall");
        ooc_fw::<MinPlusF32>(&mut store, &cfg)
    });
    assert!(stats.unwrap().tiles_written > 0);
    let spans = &trace.timelines[0].spans;
    let sum = |name: &str| spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns()).sum::<u64>();
    let phases: Vec<_> =
        spans.iter().filter(|s| ["DiagUpdate", "PanelUpdate", "OuterUpdate"].contains(&s.name)).collect();
    let io_in_phases: u64 = spans
        .iter()
        .filter(|s| s.name == "io-wait")
        .filter(|s| phases.iter().any(|p| p.start_ns <= s.start_ns && s.end_ns <= p.end_ns))
        .map(|s| s.dur_ns())
        .sum();
    let (wall, io) = (sum("wall"), sum("io-wait"));
    let compute = phases.iter().map(|s| s.dur_ns()).sum::<u64>() - io_in_phases;
    assert!(io > 0 && compute > 0, "io {io} ns, compute {compute} ns");
    let secs = |ns: u64| ns as f64 * 1e-9;
    let c = OffloadCosts { t0: secs(compute), t1: 0.0, t2: 0.0, t3: secs(io) };
    assert!(
        secs(wall) >= c.predicted_time(4),
        "wall {wall} ns below the overlap lower bound {}",
        c.predicted_time(4)
    );
    assert!(wall >= compute + io, "wall {wall} < compute {compute} + io {io} (ns)");
}

#[test]
fn store_traffic_is_pinned_for_a_fixed_configuration() {
    // LRU victims are chosen by stamp, so for a fixed (n, tile, budget) the
    // store traffic is exact. This is the benchmark's dense-ooc-auto
    // configuration at one third scale — budget of half the matrix, a 6×6
    // grid with a ragged edge — and it moves the same tiles: the
    // packed-blob driver this replaced read 388 and wrote 214 here and at
    // n = 1024. A change that raises store traffic fails this test instead
    // of a timer.
    let (n, budget) = (340usize, 340 * 340 * 2u64);
    let t = choose_tile::<f32>(n, budget).unwrap();
    assert_eq!(t, 64);
    let path = TempPath::new("traffic");
    let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
    let cfg = OocConfig::with_budget(budget);
    let (_, stats) = solve_in_store(&graph(n, 13), &mut store, &cfg).unwrap();
    assert_eq!(
        (stats.tiles_read, stats.tiles_written, stats.bytes_read, stats.bytes_written),
        (341, 209, 4_592_104, 2_732_488),
        "store traffic moved"
    );
    assert!(stats.peak_resident_bytes <= budget, "peak {}", stats.peak_resident_bytes);
}

#[test]
fn graph_ingest_matches_to_dense_and_declares_exactly_the_all_inf_tiles_absent() {
    // a ring over ragged 8-tiles, self-loops of both signs, and an ∞ edge
    // alone in its tile: that tile stays all ∞ and must be declared absent
    let (n, t) = (29, 8);
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, 1.0 + v as f32);
    }
    b.add_edge(3, 3, -1.0).add_edge(12, 12, 2.0).add_edge(2, 20, INF).add_edge(17, 9, 0.5);
    let g = b.build();
    let d = g.to_dense();
    let mut store = MemStore::new::<f32>(n, t);
    ingest(&mut store, &g).unwrap();
    let nb = store.tiles_per_side();
    for ti in 0..nb {
        for tj in 0..nb {
            let (rows, cols) = store.tile_dims(ti, tj);
            let want = d.block(ti * t, tj * t, rows, cols);
            let all_inf = want.as_slice().iter().all(|&v| v == INF);
            assert_eq!(store.present(ti, tj), ti == tj || !all_inf, "tile ({ti}, {tj})");
            if store.present(ti, tj) {
                let got = read_tile::<f32>(&mut store, ti, tj).unwrap();
                assert!(got.eq_exact(&want), "tile ({ti}, {tj})");
            }
        }
    }
    assert!(!store.present(0, 2), "the ∞ edge's tile is absent");
}

#[test]
fn absence_is_not_persisted_so_a_reopened_store_reads_such_a_slot_as_corrupt() {
    let (n, t) = (24usize, 4usize);
    let path = TempPath::new("reopen");
    {
        let mut store = FileStore::create::<f32>(&path.0, n, t).unwrap();
        let g = generators::multi_component(n, 3, WeightKind::small_ints(), 46);
        ingest(&mut store, &g).unwrap();
        assert!(!store.present(0, 2), "a cross-cluster tile is absent after ingest");
    }
    // the new handle has forgotten the declaration: the slot is presumed
    // written, and its never-written bytes fail the checksum
    let mut store = FileStore::open::<f32>(&path.0).unwrap();
    assert!(store.present(0, 2));
    let read = read_tile::<f32>(&mut store, 0, 2);
    assert!(matches!(read, Err(StoreError::CorruptTile { ti: 0, tj: 2 })));
    assert_eq!(
        ooc_fw::<MinPlusF32>(&mut store, &OocConfig::with_budget(tight_budget(t))),
        Err(OocError::Store(StoreError::CorruptTile { ti: 0, tj: 2 }))
    );
}

/// A [`TileStore`] that records which slots were read (a prefetch is a
/// read) and written.
struct Touched<S> {
    inner: S,
    read: HashSet<(usize, usize)>,
    written: HashSet<(usize, usize)>,
}

impl<S: TileStore> TileStore for Touched<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn tile(&self) -> usize {
        self.inner.tile()
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn dtype(&self) -> &'static str {
        self.inner.dtype()
    }
    fn read(&mut self, ti: usize, tj: usize) -> Result<Vec<u8>, StoreError> {
        self.read.insert((ti, tj));
        self.inner.read(ti, tj)
    }
    fn write(&mut self, ti: usize, tj: usize, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.written.insert((ti, tj));
        self.inner.write(ti, tj, bytes)
    }
    fn declare_absent(&mut self, ti: usize, tj: usize) {
        self.inner.declare_absent(ti, tj)
    }
    fn present(&self, ti: usize, tj: usize) -> bool {
        self.inner.present(ti, tj)
    }
    fn prefetch(&mut self, ti: usize, tj: usize) {
        self.read.insert((ti, tj));
        self.inner.prefetch(ti, tj)
    }
    fn flush(&mut self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }
}

#[test]
fn staged_solve_of_sixteen_components_touches_only_their_tiles() {
    // 16 components of 128 vertices at tile 64: 64 of 1 024 tiles hold
    // paths, under a budget of a quarter of the matrix
    let (n, t) = (2048usize, 64usize);
    let g = generators::multi_component(n, 16, WeightKind::small_ints(), 5);
    let path = TempPath::new("components");
    let inner = FileStore::create::<f32>(&path.0, n, t).unwrap();
    let mut store = Touched { inner, read: HashSet::new(), written: HashSet::new() };
    let cfg = OocConfig::with_budget((n * n) as u64);
    let (d, stats) = solve_in_store(&g, &mut store, &cfg).unwrap();
    let nb = n / t;
    let grid = (0..nb).flat_map(|i| (0..nb).map(move |j| (i, j)));
    let present: HashSet<_> = grid.filter(|&(i, j)| store.present(i, j)).collect();
    assert_eq!(present.len(), 64);
    assert!(present.iter().all(|&(i, j)| i / 2 == j / 2), "a tile across components");
    assert_eq!(store.written, present);
    assert_eq!(store.read, present);
    assert_eq!(stats.outer_gemms, 32, "one outer GEMM per k: the other tile of its component");
    // rows of the closure against single-source Dijkstra, which shares
    // nothing with the tiled loop
    for src in [0, 700, 2047] {
        assert_eq!(d.row(src), dijkstra(&g, src).as_slice(), "row {src}");
    }
}
