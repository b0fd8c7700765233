//! Out-of-core FW: oracle equivalence, budget enforcement, the unlinked
//! store file, pinned store traffic, I/O that does not overlap compute, and
//! the block-presence map that makes the same loop the block-sparse solver.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use apsp_core::fw_blocked::fw_blocked_threads;
use apsp_core::fw_seq::fw_seq;
use apsp_core::presence::BlockPresence;
use apsp_core::verify::max_abs_diff;
use apsp_core::ooc::{
    choose_tile, export, ingest, ooc_fw, solve_in_store, staged_budget_floor, tile_bytes,
    FileStore, OocConfig, OocError, StoreError, TileStore,
};
use apsp_graph::dijkstra::dijkstra;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{Graph, GraphBuilder, INF};
use srgemm::matrix::{Matrix, View, ViewMut};
use srgemm::MinPlusF32;

fn graph(n: usize, seed: u64) -> Graph {
    generators::uniform_dense(n, WeightKind::small_ints(), seed)
}

fn closure(g: &Graph) -> Matrix<f32> {
    let mut d = g.to_dense();
    fw_seq::<MinPlusF32>(&mut d);
    d
}

/// A temp-dir path no other test has drawn. `FileStore::create` unlinks
/// the file it makes there, so nothing is left to clean up.
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
        fw_blocked_threads::<MinPlusF32>(&mut blocked, t, 1);
        assert!(want.eq_exact(&blocked), "fw_blocked oracle drifted at n={n} t={t}");

        let path = TempPath::new("oracle");
        let cfg = OocConfig::with_budget(tight_budget(t));
        let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
        let (got, stats, _) = solve_in_store(&g, &mut store, &cfg).unwrap();
        assert!(want.eq_exact(&got), "staged solve diverged at n={n} t={t}");
        if n > t {
            assert!(stats.tiles_written > 0, "a tight budget must spill (n={n} t={t})");
        }
    }
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
            let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
            let cfg = OocConfig::with_budget(budget);
            let (got, stats, _) = solve_in_store(&g, &mut store, &cfg).unwrap();
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
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let mut blocks = ingest(&mut store, &graph(n, 3)).unwrap();
    let floor = staged_budget_floor::<f32>(t);
    let cfg = OocConfig::with_budget(floor - 1);
    match ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &cfg) {
        Err(OocError::BudgetTooSmall { required, budget }) => {
            // the full up-front requirement, not the increment that tripped
            assert_eq!(required, floor);
            assert_eq!(budget, floor - 1);
        }
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    }
}

#[test]
fn store_file_is_unlinked_at_create_and_still_solves() {
    // nothing of the store is left to name once `create` returns: a killed
    // or panicking solve cannot leak the file
    let (n, t) = (40usize, 8usize);
    let g = graph(n, 17);
    let path = TempPath::new("unlinked");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    assert!(!path.0.exists(), "{} outlived create", path.0.display());
    let cfg = OocConfig::with_budget(tight_budget(t));
    let (got, stats, _) = solve_in_store(&g, &mut store, &cfg).unwrap();
    assert!(closure(&g).eq_exact(&got));
    assert!(stats.tiles_written > 0, "the solve went through the file");
}

#[test]
fn corrupt_or_never_written_tile_is_a_typed_store_error() {
    // A created but never ingested store is all zeros: under a map that
    // says a dense graph was ingested, the first tile read fails its
    // checksum instead of decoding to zeros. (A slot damaged after ingest
    // is covered by the store's own unit tests, which stomp it through the
    // store's file.)
    let (n, t) = (32usize, 8usize);
    let blank = TempPath::new("blank");
    let mut store = FileStore::<f32>::create(&blank.0, n, t).unwrap();
    let mut blocks = BlockPresence::of::<MinPlusF32>(&graph(n, 3).to_dense().view(), t);
    assert_eq!(
        ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &OocConfig::with_budget(tight_budget(t))),
        Err(OocError::Store(StoreError::CorruptTile { ti: 0, tj: 0 }))
    );
}

#[test]
fn a_map_of_another_tile_grid_is_refused() {
    // a map at half the store's tile width would read bits at the wrong
    // tiles: `ooc_fw` and `export` both check its side first
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (n, t) = (32usize, 8usize);
    let path = TempPath::new("grid");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    ingest(&mut store, &graph(n, 3)).unwrap();
    let mut finer = BlockPresence::empty(8);
    let cfg = OocConfig::with_budget(1 << 20);
    let fw = catch_unwind(AssertUnwindSafe(|| ooc_fw::<MinPlusF32>(&mut store, &mut finer, &cfg)));
    let out = catch_unwind(AssertUnwindSafe(|| export::<MinPlusF32>(&mut store, &finer)));
    assert!(fw.is_err() && out.is_err());
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
    // A clustered input: `generate --kind multi --n 2048 --components 4
    // --seed 7` under `--memory-budget 4194304` solves in 0.064 s at tile
    // 256. A floor of packed B + 3 slots picks 384, whose tiles straddle
    // the 512-vertex components, and the solve took 0.170 s.
    assert_eq!(choose_tile::<f32>(2048, 4 << 20), Some(256));
}

#[test]
fn measured_io_does_not_overlap_compute() {
    // The file store moves its tiles on the solving thread, so compute and
    // I/O are disjoint sub-intervals of the wall time and the wall is at
    // least their sum — by construction, not by timing. Compute is the
    // three phase spans less the io-wait spans inside them; io-wait is
    // every io-wait span, the final write-backs included.
    let (n, t) = (96usize, 24usize);
    let path = TempPath::new("model");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let mut blocks = ingest(&mut store, &graph(n, 13)).unwrap();
    let cfg = OocConfig::with_budget(tight_budget(t));
    let (stats, trace) = apsp_trace::record("driver", || {
        let _wall = apsp_trace::span("wall");
        ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &cfg)
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
    assert!(wall >= compute + io, "wall {wall} < compute {compute} + io {io} (ns)");
}

#[test]
fn store_traffic_is_pinned_for_a_fixed_configuration() {
    // Victims are chosen by (spent, stamp) and stamps are unique, so for a
    // fixed (n, tile, budget) the store traffic is exact. This is the
    // benchmark's dense-ooc-auto configuration at one third scale — budget
    // of half the matrix, a 6×6 grid with a ragged edge — and it moves the
    // same tiles: the packed-blob driver read 388 and wrote 214 here and at
    // n = 1024, the i-outer sweep under plain LRU 232 and 202. The cache
    // gets the budget less the packed B and two transfer slots. A change
    // that raises store traffic fails this test instead of a timer.
    let (n, budget) = (340usize, 340 * 340 * 2u64);
    let t = choose_tile::<f32>(n, budget).unwrap();
    assert_eq!(t, 64);
    let path = TempPath::new("traffic");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let cfg = OocConfig::with_budget(budget);
    let (_, stats, _) = solve_in_store(&graph(n, 13), &mut store, &cfg).unwrap();
    assert_eq!(
        (stats.tiles_read, stats.tiles_written, stats.bytes_read, stats.bytes_written),
        (187, 187, 2_484_504, 2_484_504),
        "store traffic moved"
    );
    assert!(stats.tiles_read <= 232 && stats.tiles_written <= 202, "above the i-outer sweep's");
    assert!(stats.peak_resident_bytes <= budget, "peak {}", stats.peak_resident_bytes);
}

#[test]
fn tiles_wider_than_the_block_close_their_diagonal_in_blocks() {
    // DiagUpdate closes in blocks of 64; on n = 3·64 + 13: tiles of one,
    // two and three blocks (the last tile of 128 is a ragged 77) and of two
    // and a half, staged under a tight budget and an unbounded one
    let (b, n) = (64usize, 205usize);
    let ints = graph(n, 0xB10C);
    let reals = generators::uniform_dense(n, WeightKind::Real { lo: 0.5, hi: 20.0 }, 0xB10C);
    for t in [b, 2 * b, 3 * b, 160] {
        for (g, exact) in [(&ints, true), (&reals, false)] {
            let want = closure(g);
            let path = TempPath::new("wide");
            let mut file = FileStore::<f32>::create(&path.0, n, t).unwrap();
            let staged = OocConfig::with_budget(tight_budget(t));
            let (via_file, stats, _) = solve_in_store(g, &mut file, &staged).unwrap();
            assert!(stats.tiles_written > 0, "t={t}: a tight budget must spill");
            // unbounded, nothing is evicted; two kernel threads split the
            // tile GEMMs of 192 and above
            let path = TempPath::new("wide-unbounded");
            let mut roomy = FileStore::<f32>::create(&path.0, n, t).unwrap();
            let unbounded = OocConfig { threads: 2, ..OocConfig::with_budget(u64::MAX) };
            let (via_roomy, ..) = solve_in_store(g, &mut roomy, &unbounded).unwrap();
            assert!(via_file.eq_exact(&via_roomy), "t={t}: tight and unbounded budgets differ");
            if exact {
                assert!(want.eq_exact(&via_file), "t={t}: integer weights must be bit-exact");
            } else {
                let diff = max_abs_diff(&want, &via_file);
                assert!(diff <= 1e-3, "t={t}: real weights off by {diff}");
            }
        }
    }
}

#[test]
fn a_wide_diagonal_tile_books_its_inner_loop_under_diag_update_only() {
    // tile 96, wider than DiagUpdate's 64: each DiagUpdate runs two blocked
    // iterations, whose panel and outer updates and packs must not show as
    // phases of their own
    let (n, t) = (277usize, 96usize);
    let path = TempPath::new("wide-trace");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let mut blocks = ingest(&mut store, &graph(n, 29)).unwrap();
    let cfg = OocConfig::with_budget(tight_budget(t));
    let (stats, trace) =
        apsp_trace::record("driver", || ooc_fw::<MinPlusF32>(&mut store, &mut blocks, &cfg));
    stats.unwrap();
    let spans = &trace.timelines[0].spans;
    let diags: Vec<_> = spans.iter().filter(|s| s.name == "DiagUpdate").collect();
    assert_eq!(diags.len(), n.div_ceil(t), "one DiagUpdate per block-iteration");
    for s in spans.iter().filter(|s| ["PanelUpdate", "OuterUpdate", "pack"].contains(&s.name)) {
        assert!(
            !diags.iter().any(|d| d.start_ns <= s.start_ns && s.end_ns <= d.end_ns),
            "{} span [{}, {}] ns inside a DiagUpdate",
            s.name,
            s.start_ns,
            s.end_ns
        );
    }
    // the driver's own phases are all there: one per iteration, and a pack
    // per present B(k, j)
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!((count("PanelUpdate"), count("OuterUpdate")), (3, 3));
    assert_eq!(count("pack"), 3 * 2);
}

#[test]
fn graph_ingest_matches_to_dense_and_declares_exactly_the_all_inf_tiles_absent() {
    // a ring over ragged 8-tiles, self-loops of both signs, and an ∞ edge
    // alone in its tile: that tile stays all ∞ and its bit clear in the map
    // `ingest` returns
    let (n, t) = (29, 8);
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        b.add_edge(v, (v + 1) % n, 1.0 + v as f32);
    }
    b.add_edge(3, 3, -1.0).add_edge(12, 12, 2.0).add_edge(2, 20, INF).add_edge(17, 9, 0.5);
    let g = b.build();
    let d = g.to_dense();
    let path = TempPath::new("ingest");
    let mut store = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let blocks = ingest(&mut store, &g).unwrap();
    let nb = store.tiles_per_side();
    for ti in 0..nb {
        for tj in 0..nb {
            let (rows, cols) = store.tile_dims(ti, tj);
            let want = d.block(ti * t, tj * t, rows, cols);
            let all_inf = want.as_slice().iter().all(|&v| v == INF);
            assert_eq!(blocks.get(ti, tj), ti == tj || !all_inf, "tile ({ti}, {tj})");
            if blocks.get(ti, tj) {
                let mut got = Matrix::filled(rows, cols, f32::NAN);
                store.read_into(ti, tj, &mut got.view_mut()).unwrap();
                assert!(got.eq_exact(&want), "tile ({ti}, {tj})");
            }
        }
    }
    assert!(!blocks.get(0, 2), "the ∞ edge's tile is absent");
}

/// A [`TileStore`] that records which slots were read and written.
struct Touched<S> {
    inner: S,
    read: HashSet<(usize, usize)>,
    written: HashSet<(usize, usize)>,
}

impl<S: TileStore<f32>> TileStore<f32> for Touched<S> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn tile(&self) -> usize {
        self.inner.tile()
    }
    fn read_into(
        &mut self,
        ti: usize,
        tj: usize,
        dst: &mut ViewMut<'_, f32>,
    ) -> Result<(), StoreError> {
        self.read.insert((ti, tj));
        self.inner.read_into(ti, tj, dst)
    }
    fn write(&mut self, ti: usize, tj: usize, tile: &View<'_, f32>) -> Result<(), StoreError> {
        self.written.insert((ti, tj));
        self.inner.write(ti, tj, tile)
    }
}

#[test]
fn staged_solve_of_sixteen_components_touches_only_their_tiles() {
    // 16 components of 128 vertices at tile 64: 64 of 1 024 tiles hold
    // paths, under a budget of a quarter of the matrix
    let (n, t) = (2048usize, 64usize);
    let g = generators::multi_component(n, 16, WeightKind::small_ints(), 5);
    let path = TempPath::new("components");
    let inner = FileStore::<f32>::create(&path.0, n, t).unwrap();
    let mut store = Touched { inner, read: HashSet::new(), written: HashSet::new() };
    let cfg = OocConfig::with_budget((n * n) as u64);
    let (d, stats, blocks) = solve_in_store(&g, &mut store, &cfg).unwrap();
    let nb = n / t;
    let grid = (0..nb).flat_map(|i| (0..nb).map(move |j| (i, j)));
    let present: HashSet<_> = grid.filter(|&(i, j)| blocks.get(i, j)).collect();
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
