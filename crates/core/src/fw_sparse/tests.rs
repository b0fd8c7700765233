use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{Graph, GraphBuilder};
use srgemm::MinPlusF32;

use crate::fw_seq::fw_seq;
use crate::ooc::{
    ingest, solve_in_store, staged_budget_floor, tile_bytes, FileStore, OocConfig, OocStats,
};
use crate::presence::BlockPresence;

/// A temp-dir path for a store file that no other test has drawn;
/// `FileStore::create` unlinks the file it makes there. The crate's unit
/// tests share it.
pub(crate) struct TempPath(pub(crate) PathBuf);

impl TempPath {
    pub(crate) fn new() -> Self {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("apsp-core-test-{}-{seq}.tiles", std::process::id());
        TempPath(std::env::temp_dir().join(name))
    }
}

/// One solve: which tiles of the grid (row-major) the map held after
/// ingest and after the solve, the grid's side and the solve's counters.
struct Run {
    budget: &'static str,
    nb: usize,
    ingested: Vec<bool>,
    present: Vec<bool>,
    stats: OocStats,
}

impl Run {
    fn tiles_present(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Outer-product tile GEMMs of a run with every tile present.
    fn dense_outer_gemms(&self) -> u64 {
        let nb = self.nb as u64;
        nb * (nb - 1) * (nb - 1)
    }
}

fn present_grid(blocks: &BlockPresence, nb: usize) -> Vec<bool> {
    (0..nb * nb).map(|t| blocks.get(t / nb, t % nb)).collect()
}

/// Solve `g` at tile `t` on a file store without a budget, which never
/// evicts, and at a budget far below the matrix, which spills every
/// iteration; assert each closure is bit-identical to `fw_seq`'s.
fn solve_at_both_budgets(g: &Graph, t: usize) -> [Run; 2] {
    let n = g.n();
    let mut want = g.to_dense();
    fw_seq::<MinPlusF32>(&mut want);
    let new_store = || FileStore::<f32>::create(&TempPath::new().0, n, t).unwrap();
    let nb = n.div_ceil(t);
    let ingested = present_grid(&ingest(&mut new_store(), g).unwrap(), nb);
    let tight = staged_budget_floor::<f32>(t) + 3 * tile_bytes::<f32>(t, t);
    [("unbounded", u64::MAX), ("tight", tight)].map(|(label, budget)| {
        let mut store = new_store();
        let cfg = OocConfig::with_budget(budget);
        let (got, stats, blocks) = solve_in_store(g, &mut store, &cfg).unwrap();
        assert!(want.eq_exact(&got), "n={n} tile={t}, {label} budget");
        let present = present_grid(&blocks, nb);
        Run { budget: label, nb, ingested: ingested.clone(), present, stats }
    })
}

#[test]
fn matches_dense_fw_on_random_sparse_graph() {
    let g = generators::erdos_renyi(30, 0.1, WeightKind::small_ints(), 44);
    solve_at_both_budgets(&g, 6);
}

#[test]
fn matches_dense_fw_on_dense_graph() {
    let g = generators::uniform_dense(24, WeightKind::small_ints(), 45);
    for run in solve_at_both_budgets(&g, 5) {
        // dense input ⇒ every tile present and every outer GEMM run
        assert!(run.present.iter().all(|&p| p), "{} budget", run.budget);
        assert_eq!(run.stats.outer_gemms, run.dense_outer_gemms(), "{} budget", run.budget);
    }
}

#[test]
fn banded_graph_skips_most_block_work() {
    // path graph (bandwidth 1): tiles fill only near the diagonal during
    // early iterations
    let n = 64;
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_undirected(i, i + 1, 1.0);
    }
    for run in solve_at_both_budgets(&b.build(), 8) {
        // a path is connected: the closure fills every tile...
        assert_eq!(run.tiles_present(), 8 * 8, "{} budget", run.budget);
        // ...but early iterations multiply thin panels only
        assert!(
            run.stats.outer_gemms < run.dense_outer_gemms(),
            "{} budget: {} !< {}",
            run.budget,
            run.stats.outer_gemms,
            run.dense_outer_gemms()
        );
    }
}

#[test]
fn disconnected_clusters_never_fill_across() {
    // tiles align with the 8-vertex clusters
    let g = generators::multi_component(24, 3, WeightKind::small_ints(), 46);
    for run in solve_at_both_budgets(&g, 4) {
        // 3 clusters of 2 tile rows each → 3 · 4 = 12 intra tiles of 36,
        // and no tile across ever materializes
        assert_eq!(run.tiles_present(), 12, "{} budget", run.budget);
        let nb = run.nb;
        assert!(run.present.iter().enumerate().all(|(t, &p)| !p || t / nb / 2 == t % nb / 2));
        // at most one outer GEMM per k: the other tile of its cluster
        assert!(run.stats.outer_gemms <= nb as u64, "{} budget", run.budget);
    }
}

#[test]
fn fill_in_is_monotone() {
    let g = generators::erdos_renyi(20, 0.15, WeightKind::small_ints(), 47);
    for run in solve_at_both_budgets(&g, 4) {
        for (t, (&before, &after)) in run.ingested.iter().zip(&run.present).enumerate() {
            assert!(after || !before, "{} budget: tile {t} vanished", run.budget);
        }
    }
}

#[test]
fn ragged_blocks_and_tiny_sizes() {
    for (n, b) in [(7usize, 3usize), (5, 5), (9, 2), (1, 4), (7, 1), (7, 16), (70, 3)] {
        let g = generators::erdos_renyi(n, 0.4, WeightKind::small_ints(), (n * b) as u64);
        solve_at_both_budgets(&g, b);
    }
}
