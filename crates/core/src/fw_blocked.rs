//! Blocked Floyd-Warshall (paper Algorithm 2), single node.
//!
//! Per block-iteration `k`: DiagUpdate closes `A(k,k)`, PanelUpdate fixes the
//! k-th block row and column, and the MinPlus outer product updates the rest
//! of the matrix. Every phase runs in place on views of the matrix, cut by
//! `bands` into the 3 × 3 bands around block `k`: the diagonal block is
//! read as a view by PanelUpdate, and OuterUpdate covers only `i ∉ k, j ∉ k`,
//! each GEMM taking its `A` straight from the column panel beside it.
//!
//! DiagUpdate is `diag_update`, the one of every FW loop in the crate: a
//! block no wider than `CLOSURE_WIDTH` is one [`fw_closure`] call, and a
//! wider one is closed by this same loop at that width. So the block size
//! `b` sets the width of PanelUpdate and OuterUpdate (the paper's `b`)
//! while the scalar `O(b³)` closure never runs on more than 64 columns.
//!
//! Blocks that are all `S::zero()` are skipped: the loop reads the matrix
//! once into a [`BlockPresence`] map at width `b`. At each iteration it
//! re-reads the blocks of column and row `k` that the map holds set,
//! clearing those that are all zero, then closes the map; what stays set
//! gives the present runs of both panels. PanelUpdate runs on those runs,
//! OuterUpdate on row runs × column runs: PanelUpdate leaves an all-zero
//! block all zero, and a product with one adds nothing. On a dense input
//! every bit is set, each block is read up to its first row, and the GEMM
//! calls are those of the unskipped loop.
//!
//! That OuterUpdate is `QuadrantUpdate`, the one band-split update of the
//! crate: the distributed driver runs it too, around the strips each of its
//! iterations has already closed. It consumes `B` (here the row panel) one
//! run at a time through one [`PackedB`]: each run is packed into the
//! micro-kernel's tiled layout **once per update** (reusing the allocation
//! via [`PackedB::repack`]) and streamed by every GEMM below it, at any
//! thread count. Those repacks are the iteration's only copy.
//!
//! The map's pass opens a `presence` span and each iteration the paper's
//! phase spans (`DiagUpdate`, `PanelUpdate` with the re-read inside it,
//! `OuterUpdate` with each repack
//! as `pack` inside it) on the calling thread's `apsp_trace` recorder. The
//! loop that closes a wide diagonal block runs [`apsp_trace::muted`], so
//! its own pass and phases book under DiagUpdate.

use std::convert::Infallible;
use std::ops::Range;

use apsp_trace::{muted, span};
use srgemm::closure::fw_closure;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::{Matrix, View, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

use crate::presence::BlockPresence;

/// The widest diagonal block DiagUpdate closes with one scalar
/// [`fw_closure`] call; a wider one is closed in blocks of this width.
pub(crate) const CLOSURE_WIDTH: usize = 64;

/// The DiagUpdate choice `benchmark/src/layers.rs` still names when it calls
/// [`fw_blocked`]. `diag_update` is the one DiagUpdate; this enum and the
/// wrapper below are deleted by the next `[benchmark]` PR, once that file
/// stops naming them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagMethod {
    /// [`fw_closure`] on blocks up to `CLOSURE_WIDTH` wide, the blocked
    /// loop at that width on wider ones.
    FwClosure,
}

/// [`fw_blocked_threads`] behind the signature `benchmark/src/layers.rs`
/// compiles against: `parallel` means every core of the host, otherwise one
/// thread. A change outside `benchmark/` may not edit that file, so this
/// wrapper stays until the next `[benchmark]` PR moves the call over and
/// deletes it with [`DiagMethod`]; nothing else in the workspace calls it.
pub fn fw_blocked<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, _: DiagMethod, parallel: bool) {
    fw_blocked_threads::<S>(d, b, if parallel { crate::host_threads() } else { 1 })
}

/// In-place blocked Floyd-Warshall with block size `b`, its GEMMs on at
/// most `threads` kernel threads.
///
/// # Panics
/// Panics if `d` is not square or `b == 0`.
pub fn fw_blocked_threads<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, threads: usize) {
    let mut inner = QuadrantUpdate::<S>::new(CLOSURE_WIDTH);
    fw_blocked_view::<S>(&mut d.view_mut(), threads, &mut QuadrantUpdate::new(b), |diag| {
        diag_update(diag, threads, &mut inner)
    });
}

/// DiagUpdate, the one of every FW loop here: close the square block `d`
/// in place. A block no wider than [`CLOSURE_WIDTH`] is one [`fw_closure`]
/// call. A wider one runs the blocked loop at that width, packing into
/// `inner`, an update at [`CLOSURE_WIDTH`] that the caller keeps for the
/// whole solve, under [`muted`]: its phases book under the caller's
/// DiagUpdate span.
///
/// # Panics
/// Panics if `d` is not square, or if it is wider than [`CLOSURE_WIDTH`]
/// and `inner` is not an update at that width.
pub(crate) fn diag_update<S: Semiring>(
    d: &mut ViewMut<'_, S::Elem>,
    threads: usize,
    inner: &mut QuadrantUpdate<S>,
) {
    if d.rows() <= CLOSURE_WIDTH {
        fw_closure::<S>(d);
        return;
    }
    assert_eq!(inner.block, CLOSURE_WIDTH, "DiagUpdate closes wide blocks at CLOSURE_WIDTH");
    muted(|| fw_blocked_view::<S>(d, threads, inner, fw_closure::<S>));
}

/// Blocked FW on the square view `d` at the block size of `quadrants`,
/// packing into its buffer, with `close` as DiagUpdate; returns its map.
///
/// # Panics
/// Panics if `d` is not square.
fn fw_blocked_view<S: Semiring>(
    d: &mut ViewMut<'_, S::Elem>,
    threads: usize,
    quadrants: &mut QuadrantUpdate<S>,
    mut close: impl FnMut(&mut ViewMut<'_, S::Elem>),
) -> BlockPresence {
    let (n, b) = (d.rows(), quadrants.block);
    assert!(
        S::IDEMPOTENT_ADD,
        "blocked FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    let mut blocks = BlockPresence::of::<S>(&d.as_view(), b);
    let mut present = [Vec::new(), Vec::new()];
    for (kb, k0) in (0..n).step_by(b).enumerate() {
        let k = k0..n.min(k0 + b);
        let w = k.len();
        {
            let _p = span("DiagUpdate");
            close(&mut d.subview_mut(k0, k0, w, w));
        }

        // ----- PanelUpdate, on the present runs of each panel -----
        let panel_update = span("PanelUpdate");
        let v = d.as_view();
        let [col_k, row_k] = &mut present;
        blocks.refine::<S>(col_k, (n, b), |i| (i, kb), |r| v.subview(r.start, k0, r.len(), w));
        blocks.refine::<S>(row_k, (n, b), |j| (kb, j), |c| v.subview(k0, c.start, w, c.len()));
        blocks.close(kb);
        split_runs(&mut quadrants.rows, col_k, n, k.clone(), b);
        split_runs(&mut quadrants.cols, row_k, n, k.clone(), b);
        let [
            [top_left, mut top_k, top_right],
            [mut k_left, diag_k, mut k_right],
            [bottom_left, mut bottom_k, bottom_right],
        ] = bands(d.subview_mut(0, 0, n, n), k.clone(), k);
        let diag_k = diag_k.as_view();
        // row panel A(k, :): left and right of the diagonal block
        for (panel, runs) in [&mut k_left, &mut k_right].into_iter().zip(&quadrants.cols) {
            for r in runs {
                let h = panel.rows();
                panel_update_left::<S>(&mut panel.subview_mut(0, r.start, h, r.len()), &diag_k);
            }
        }
        // column panel A(:, k): above and below it
        for (panel, runs) in [&mut top_k, &mut bottom_k].into_iter().zip(&quadrants.rows) {
            for r in runs {
                let w = panel.cols();
                panel_update_right::<S>(&mut panel.subview_mut(r.start, 0, r.len(), w), &diag_k);
            }
        }
        drop(panel_update);

        // ----- MinPlus outer product, i ∉ k and j ∉ k, present runs only -----
        let _p = span("OuterUpdate");
        let Ok(()) = quadrants.corners::<Infallible>(
            [[top_left, top_right], [bottom_left, bottom_right]],
            [top_k.as_view(), bottom_k.as_view()],
            [k_left.as_view(), k_right.as_view()],
            |c, a, b| {
                gemm_packed_threads::<S>(c, a, b.packed(), threads);
                Ok(())
            },
        );
    }
    blocks
}

/// `m`'s rows cut into the bands above, inside and below `rows`.
pub(crate) fn row_bands<T: Copy>(m: ViewMut<'_, T>, rows: Range<usize>) -> [ViewMut<'_, T>; 3] {
    let (above, rest) = m.split_rows_mut(rows.start);
    let (inside, below) = rest.split_rows_mut(rows.len());
    [above, inside, below]
}

/// `m`'s columns cut into the bands left of, inside and right of `cols`.
pub(crate) fn col_bands<T: Copy>(m: ViewMut<'_, T>, cols: Range<usize>) -> [ViewMut<'_, T>; 3] {
    let (left, rest) = m.split_cols_mut(cols.start);
    let (inside, right) = rest.split_cols_mut(cols.len());
    [left, inside, right]
}

/// `m` cut into the 3 × 3 bands around the row range `rows` and the column
/// range `cols`: `[above, rows, below]` × `[left, cols, right]`, any of
/// them possibly empty.
pub(crate) fn bands<T: Copy>(
    m: ViewMut<'_, T>,
    rows: Range<usize>,
    cols: Range<usize>,
) -> [[ViewMut<'_, T>; 3]; 3] {
    row_bands(m, rows).map(|band| col_bands(band, cols.clone()))
}

/// Present blocks less than this many rows or columns apart share a run:
/// below blocks 16 wide, a GEMM call costs more than so narrow a gap saves.
const MIN_GAP: usize = 16;

/// Into `halves`, the parts before and after `excluded` of the
/// `block`-wide blocks of `0..len` that `present` holds, joined where less
/// than [`MIN_GAP`] apart, each counted from the start of its half.
fn split_runs(
    halves: &mut [Vec<Range<usize>>; 2],
    present: &[bool],
    len: usize,
    excluded: Range<usize>,
    block: usize,
) {
    for (runs, half) in halves.iter_mut().zip([0..excluded.start, excluded.end..len]) {
        runs.clear();
        let blocks = half.start / block..half.end.div_ceil(block);
        for l in blocks.filter(|&l| !half.is_empty() && present[l]) {
            let blk = (l * block).max(half.start)..(l * block + block).min(half.end);
            let blk = blk.start - half.start..blk.end - half.start;
            match runs.last_mut() {
                Some(run) if blk.start - run.end < MIN_GAP => run.end = blk.end,
                _ => runs.push(blk),
            }
        }
    }
}

/// The band-split OuterUpdate every FW loop here runs: `C ⊕= A ⊗ B` on
/// the four corners of `C` outside one excluded row band and one excluded
/// column band (the strips an iteration has already closed), over the
/// present row runs of `A` × the present column runs of `B`. Each run of
/// `B` is packed at most once per update, into the one [`PackedB`] held
/// here, whose allocation every later update reuses.
pub(crate) struct QuadrantUpdate<S: Semiring> {
    /// The width of the blocks the runs are made of.
    block: usize,
    /// The one packed `B`; the out-of-core driver packs its own operands
    /// into it too, so that its budget pays for one buffer.
    pub(crate) packed: PackedB<S::Elem>,
    /// Present row runs of `A` above and below the excluded rows, and
    /// present column runs of `B` left and right of the excluded columns,
    /// each counted from the start of its band.
    rows: [Vec<Range<usize>>; 2],
    cols: [Vec<Range<usize>>; 2],
}

impl<S: Semiring> QuadrantUpdate<S> {
    /// An update on `block`-wide blocks, its buffer sized by the first pack.
    ///
    /// # Panics
    /// Panics if `block == 0`.
    pub(crate) fn new(block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let packed = PackedB::pack::<S>(&View::from_slice(&[], 0, 0));
        QuadrantUpdate { block, packed, rows: Default::default(), cols: Default::default() }
    }

    /// `c ⊕= a ⊗ b` (`[a, b]` the operands) outside the rows `rows` and
    /// the columns `cols` of `c`, which stay untouched, skipping the blocks
    /// of `a`'s rows and `b`'s columns that `present` (`[a's, b's]`) holds
    /// false, block `l` being `l·block..(l+1)·block`. `a` has `c`'s rows
    /// and `b` its columns; both lie outside `c`. `gemm(piece, a, b)` updates one non-empty
    /// piece of a corner.
    ///
    /// # Panics
    /// Panics if a range or an operand does not fit `c`.
    pub(crate) fn update<Err>(
        &mut self,
        c: ViewMut<'_, S::Elem>,
        rows: Range<usize>,
        cols: Range<usize>,
        [a, b]: [&View<'_, S::Elem>; 2],
        [a_present, b_present]: [&[bool]; 2],
        gemm: impl FnMut(
            &mut ViewMut<'_, S::Elem>,
            &View<'_, S::Elem>,
            &mut BRun<'_, '_, S>,
        ) -> Result<(), Err>,
    ) -> Result<(), Err> {
        assert_eq!((a.rows(), b.cols()), (c.rows(), c.cols()), "operands must fit the output");
        split_runs(&mut self.rows, a_present, c.rows(), rows.clone(), self.block);
        split_runs(&mut self.cols, b_present, c.cols(), cols.clone(), self.block);
        let [[top_left, _, top_right], _, [bottom_left, _, bottom_right]] =
            bands(c, rows.clone(), cols.clone());
        let (depth, m, n) = (a.cols(), a.rows(), b.cols());
        let [above, below] =
            [a.subview(0, 0, rows.start, depth), a.subview(rows.end, 0, m - rows.end, depth)];
        let [left, right] =
            [b.subview(0, 0, depth, cols.start), b.subview(0, cols.end, depth, n - cols.end)];
        let corners = [[top_left, top_right], [bottom_left, bottom_right]];
        self.corners(corners, [above, below], [left, right], gemm)
    }

    /// [`QuadrantUpdate::update`] on corners [`bands`] has already cut out,
    /// `[[above-left, above-right], [below-left, below-right]]`, with `A`'s
    /// rows beside them (`[above, below]`) and `B`'s columns over them
    /// (`[left, right]`), over the runs kept in `rows` and `cols` for
    /// these halves. This is the form for operands that are themselves
    /// bands of the matrix being written, as blocked FW's panels are.
    pub(crate) fn corners<Err>(
        &mut self,
        [[top_left, top_right], [bottom_left, bottom_right]]: [[ViewMut<'_, S::Elem>; 2]; 2],
        [above, below]: [View<'_, S::Elem>; 2],
        [left, right]: [View<'_, S::Elem>; 2],
        mut gemm: impl FnMut(
            &mut ViewMut<'_, S::Elem>,
            &View<'_, S::Elem>,
            &mut BRun<'_, '_, S>,
        ) -> Result<(), Err>,
    ) -> Result<(), Err> {
        let depth = above.cols();
        let halves = [(left, [top_left, bottom_left]), (right, [top_right, bottom_right])];
        for ((half, [mut upper, mut lower]), col_runs) in halves.into_iter().zip(&self.cols) {
            for cr in col_runs {
                let view = half.subview(0, cr.start, depth, cr.len());
                let mut b = BRun { view, packed: &mut self.packed, is_packed: false };
                for (c, a, row_runs) in
                    [(&mut upper, &above, &self.rows[0]), (&mut lower, &below, &self.rows[1])]
                {
                    for rr in row_runs {
                        let mut piece = c.subview_mut(rr.start, cr.start, rr.len(), cr.len());
                        gemm(&mut piece, &a.subview(rr.start, 0, rr.len(), depth), &mut b)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One present column run of a [`QuadrantUpdate`]'s `B` operand: a view,
/// packed into the update's buffer on first use, so an executor that reads
/// views never packs.
pub(crate) struct BRun<'v, 'p, S: Semiring> {
    view: View<'v, S::Elem>,
    packed: &'p mut PackedB<S::Elem>,
    is_packed: bool,
}

impl<'v, S: Semiring> BRun<'v, '_, S> {
    /// The run as a view of its source.
    pub(crate) fn view(&self) -> &View<'v, S::Elem> {
        &self.view
    }

    /// The run in the micro-kernel's tiled layout, packed on the first call.
    pub(crate) fn packed(&mut self) -> &PackedB<S::Elem> {
        if !self.is_packed {
            let _pack = span("pack");
            self.packed.repack::<S>(&self.view);
            self.is_packed = true;
        }
        self.packed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use crate::paths_dist::{annotate, MinPlusPred};
    use apsp_graph::generators::{self, GraphKind, WeightKind};
    use apsp_graph::GraphBuilder;
    use srgemm::gemm::gemm_naive;
    use srgemm::semiring::{MaxMin, MinPlusSatU16};
    use srgemm::MinPlusF32;

    fn dense(n: usize, seed: u64) -> Matrix<f32> {
        generators::uniform_dense(n, WeightKind::small_ints(), seed).to_dense()
    }

    /// [`fw_blocked_threads`]' solve of `d`, also returning its map.
    fn solve<S: Semiring>(d: &mut Matrix<S::Elem>, b: usize, threads: usize) -> BlockPresence {
        let mut inner = QuadrantUpdate::<S>::new(CLOSURE_WIDTH);
        fw_blocked_view::<S>(&mut d.view_mut(), threads, &mut QuadrantUpdate::new(b), |diag| {
            diag_update(diag, threads, &mut inner)
        })
    }

    /// `fw_blocked_threads` bit for bit against `fw_seq` on `base`, with
    /// blocks of 1, 7, n − 1, n and n + 5 on 1–3 threads: the quadrants
    /// above and left of block k are empty at k = 0, those below and right
    /// at the last (ragged) block, and b ≥ n is one diagonal block alone.
    /// Every block the solve's map holds clear is all `S::zero()` in the
    /// answer.
    fn assert_blocked_matches_seq<S: Semiring>(base: &Matrix<S::Elem>, input: &str) {
        let n = base.rows();
        let mut want = base.clone();
        fw_seq::<S>(&mut want);
        for b in [1, 7, n - 1, n, n + 5] {
            for threads in 1..=3 {
                let mut got = base.clone();
                let map = solve::<S>(&mut got, b, threads);
                let case = format!("{} {input} n={n} b={b} threads={threads}", S::NAME);
                assert_eq!(got.as_slice(), want.as_slice(), "{case}");
                let answer = BlockPresence::of::<S>(&got.view(), b);
                let nb = n.div_ceil(b);
                for (i, j) in (0..nb).flat_map(|i| (0..nb).map(move |j| (i, j))) {
                    assert!(map.get(i, j) || !answer.get(i, j), "{case}: ({i}, {j}) held clear");
                }
            }
        }
    }

    /// The pairs of an 8 × 8 grid with its vertex `v` at id `v + v/4`: an
    /// unused id after every fourth and 21 after the last, so the 100 ids
    /// hold 37 weak components whose ids interleave.
    fn interleaved_grid() -> (usize, Vec<(usize, usize)>) {
        let grid = generators::grid(8, 8, WeightKind::small_ints(), 2);
        (100, grid.edges().map(|(u, v, _)| (u + u / 4, v + v / 4)).collect())
    }

    /// [`assert_blocked_matches_seq`] on inputs with all-zero blocks and
    /// without: a hashed third of all pairs at ragged n, the same within
    /// five contiguous components of 20 (blocks of 7 straddle their
    /// borders), and the interleaved grid. `edge` maps a hash to an edge
    /// value.
    fn assert_matches_seq<S: Semiring>(edge: impl Fn(u64) -> S::Elem) {
        let hash = |n: usize, i: usize, j: usize| {
            ((i * n + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40
        };
        let hashed = |n: usize, keep: &dyn Fn(usize, usize) -> bool| {
            Matrix::from_fn(n, n, |i, j| {
                let h = hash(n, i, j);
                if i != j && keep(i, j) && h.is_multiple_of(3) { edge(h >> 2) } else { S::zero() }
            })
        };
        for n in [2usize, 37, 100] {
            assert_blocked_matches_seq::<S>(&hashed(n, &|_, _| true), "random");
        }
        assert_blocked_matches_seq::<S>(&hashed(100, &|i, j| i / 20 == j / 20), "components");
        let (n, pairs) = interleaved_grid();
        let mut grid = Matrix::filled(n, n, S::zero());
        for (u, v) in pairs {
            grid[(u, v)] = edge(hash(n, u, v) >> 2);
        }
        assert_blocked_matches_seq::<S>(&grid, "interleaved grid");
        // complete components of 20: at widths that never cut one between
        // two blocks, the map is exactly the answer's presence
        let complete = Matrix::from_fn(100, 100, |i, j| {
            if i != j && i / 20 == j / 20 { edge(hash(100, i, j) >> 2) } else { S::zero() }
        });
        for b in [4, 5, 10, 20, 40] {
            let mut got = complete.clone();
            let map = solve::<S>(&mut got, b, 1);
            assert_eq!(map, BlockPresence::of::<S>(&got.view(), b), "{} b={b}", S::NAME);
        }
    }

    #[test]
    fn quadrant_outer_update_matches_sequential_per_semiring() {
        assert_matches_seq::<MinPlusF32>(|h| (h % 100 + 1) as f32);
        assert_matches_seq::<MinPlusSatU16>(|h| (h % 100 + 1) as u16);
        assert_matches_seq::<MaxMin<f32>>(|h| (h % 50) as f32);
    }

    /// Graph inputs whose dense form has absent blocks: negative edges
    /// between clusters that no cycle crosses, and `∞`-weight edges, which
    /// are all-zero entries like the pairs without an edge.
    #[test]
    fn negative_and_infinite_edges_match_sequential() {
        let multi = generators::multi_component(60, 4, WeightKind::small_ints(), 3);
        let mut negative = GraphBuilder::new(60);
        let mut infinite = GraphBuilder::new(60);
        for (u, v, w) in multi.edges() {
            negative.add_edge(u, v, w);
            infinite.add_edge(u, v, if (u + v) % 3 == 0 { f32::INFINITY } else { w });
        }
        // cluster c reaches cluster c + 1 over one negative edge
        negative.add_edge(3, 20, -40.0).add_edge(17, 33, -7.0).add_edge(44, 51, -100.0);
        infinite.add_edge(2, 31, f32::INFINITY).add_edge(48, 5, f32::INFINITY);
        for (g, input) in [(negative.build(), "negative DAG"), (infinite.build(), "∞ edges")] {
            assert_blocked_matches_seq::<MinPlusF32>(&g.to_dense(), input);
        }
    }

    /// Serve's witness solve on a clustered graph: every distance and every
    /// predecessor as `fw_seq` finds them. Distinct weights up to 10⁶ keep
    /// each shortest path unique and every sum exact in `f32`.
    #[test]
    fn witness_solve_on_clusters_matches_sequential() {
        let g = generators::multi_component(90, 3, WeightKind::Integer { lo: 1, hi: 1_000_000 }, 8);
        assert_blocked_matches_seq::<MinPlusPred>(&annotate(&g), "clusters");
    }

    /// Components of 40 at block 32 straddle block boundaries, so `close`
    /// chains each run of five blocks that share components, setting bits
    /// whose block product is all `S::zero()`. Each iteration re-reads its
    /// row and column of the map before using them, and the last ones are
    /// closed by no later iteration: they are the answer's, the last block
    /// sharing components with its neighbour only.
    #[test]
    fn straddling_components_leave_the_last_block_row_and_column_exact() {
        let mut d = generators::multi_component(320, 8, WeightKind::small_ints(), 5).to_dense();
        let mut want = d.clone();
        fw_seq::<MinPlusF32>(&mut want);
        let map = solve::<MinPlusF32>(&mut d, 32, 1);
        assert_eq!(d.as_slice(), want.as_slice());
        let row: Vec<_> = (0..10).map(|l| (map.get(9, l), map.get(l, 9))).collect();
        let near = |l: usize| (l >= 8, l >= 8);
        assert_eq!(row, (0..10).map(near).collect::<Vec<_>>());
    }

    /// The skip, counted: on 8 components of 64 at block 32 each block-
    /// iteration's row panel holds one present block, so OuterUpdate packs
    /// once per k, 16 in all. A dense input of the same size packs both
    /// halves of the row panel at every k but the first and the last. On
    /// both the solve's map is exactly the answer's presence: the
    /// components are contiguous and the blocks do not straddle them.
    #[test]
    fn absent_blocks_are_neither_multiplied_nor_packed() {
        let packs = |g: &apsp_graph::Graph| {
            let mut d = g.to_dense();
            let (map, trace) =
                apsp_trace::record("main", || solve::<MinPlusF32>(&mut d, 32, 1));
            assert_eq!(map, BlockPresence::of::<MinPlusF32>(&d.view(), 32));
            trace.timelines.iter().flat_map(|t| &t.spans).filter(|s| s.name == "pack").count()
        };
        assert_eq!(packs(&generators::multi_component(512, 8, WeightKind::small_ints(), 1)), 16);
        assert_eq!(packs(&generators::uniform_dense(512, WeightKind::small_ints(), 1)), 2 * 16 - 2);
    }

    /// [`QuadrantUpdate::update`] against one full `gemm_naive` update,
    /// for every excluded row range × excluded column range: bit for bit
    /// outside both bands, untouched inside either. Each run streams the
    /// packed `B` halves, then the same update reads them as views (the
    /// offload executor's form); one buffer serves every run.
    fn assert_quadrants_match_naive<S: Semiring>(edge: impl Fn(u64) -> S::Elem) {
        let (m, n, depth) = (14, 17, 6);
        let random = |rows, cols, seed: u64| {
            Matrix::from_fn(rows, cols, |i, j| {
                let h = ((seed << 32) + (i * cols + j) as u64 + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    >> 40;
                if h.is_multiple_of(5) {
                    S::zero()
                } else {
                    edge(h >> 3)
                }
            })
        };
        let (before, mut a, mut b) = (random(m, n, 1), random(m, depth, 2), random(depth, n, 3));
        // all-zero blocks at an end of `A`'s rows and of `B`'s columns,
        // which the update is told to skip (gaps inside a run are narrower
        // than `MIN_GAP` here, so they would be joined)
        a.subview_mut(12, 0, 2, depth).fill(S::zero());
        b.subview_mut(0, 0, depth, 4).fill(S::zero());
        let mut full = before.clone();
        gemm_naive::<S>(&mut full.view_mut(), &a.view(), &b.view());
        // in blocks of 4: empty (at the start and inside), the first block,
        // the last (ragged) one, a middle one, two blocks wide, everything
        let shapes = |len: usize| [0..0, 5..5, 0..4, len - len % 4..len, 4..8, 4..12, 0..len];
        let mut quadrants = QuadrantUpdate::<S>::new(4);
        for rows in shapes(m) {
            for cols in shapes(n) {
                for on_views in [false, true] {
                    let mut got = before.clone();
                    let Ok(()) = quadrants.update::<Infallible>(
                        got.view_mut(),
                        rows.clone(),
                        cols.clone(),
                        [&a.view(), &b.view()],
                        [&[true, true, true, false], &[false, true, true, true, true]],
                        |c, a, b| {
                            if on_views {
                                gemm_naive::<S>(c, a, b.view());
                            } else {
                                gemm_packed_threads::<S>(c, a, b.packed(), 1);
                            }
                            Ok(())
                        },
                    );
                    for (i, j) in (0..m).flat_map(|i| (0..n).map(move |j| (i, j))) {
                        let banded = rows.contains(&i) || cols.contains(&j);
                        let want = if banded { before[(i, j)] } else { full[(i, j)] };
                        assert_eq!(
                            got[(i, j)],
                            want,
                            "{} rows {rows:?} cols {cols:?} views {on_views} at ({i}, {j})",
                            S::NAME
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn quadrant_update_skips_exactly_the_excluded_bands() {
        assert_quadrants_match_naive::<MinPlusF32>(|h| (h % 100 + 1) as f32);
        assert_quadrants_match_naive::<MinPlusSatU16>(|h| (h % 100 + 1) as u16);
        assert_quadrants_match_naive::<MaxMin<f32>>(|h| (h % 50) as f32);
    }

    #[test]
    fn blocked_matches_sequential_for_many_block_sizes() {
        let base = dense(48, 1);
        let mut want = base.clone();
        fw_seq::<MinPlusF32>(&mut want);
        // block sizes that divide, don't divide, exceed, and equal n
        for b in [1, 3, 7, 16, 17, 48, 64] {
            let mut got = base.clone();
            fw_blocked_threads::<MinPlusF32>(&mut got, b, 1);
            assert!(want.eq_exact(&got), "b={b}");
        }
    }

    /// Dense inputs from 1 to 70 vertices: at n = 70, block 128 is one
    /// diagonal block wider than `CLOSURE_WIDTH`, closed by the loop at
    /// that width.
    #[test]
    fn matches_sequential_fw_across_sizes_and_bases() {
        for n in [1usize, 2, 3, 5, 8, 17, 33, 48, 70] {
            let base = dense(n, n as u64);
            let mut want = base.clone();
            fw_seq::<MinPlusF32>(&mut want);
            for b in [1, 3, 4, 16, 64, 128] {
                let mut got = base.clone();
                fw_blocked_threads::<MinPlusF32>(&mut got, b, 1);
                assert!(want.eq_exact(&got), "n={n} b={b}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        // n = 384 at block 64: the 320 × 320 × 64 quadrant at k = 0 splits
        // (at n = 256 the largest, 192 × 192 × 64, would not)
        let base = dense(384, 3);
        let mut a = base.clone();
        let mut b = base.clone();
        fw_blocked_threads::<MinPlusF32>(&mut a, 64, 1);
        fw_blocked_threads::<MinPlusF32>(&mut b, 64, 2);
        assert!(a.eq_exact(&b));
    }

    #[test]
    fn sparse_graph_with_infinities() {
        let g = generators::erdos_renyi(33, 0.15, WeightKind::small_ints(), 4);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let mut got = g.to_dense();
        fw_blocked_threads::<MinPlusF32>(&mut got, 8, 1);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn sparse_and_disconnected_inputs() {
        for (kind, seed) in [
            (GraphKind::ErdosRenyi { p: 0.1 }, 5u64),
            (GraphKind::MultiComponent { components: 4 }, 6),
            (GraphKind::Ring, 7),
        ] {
            let g = generators::generate(kind, 27, WeightKind::small_ints(), seed);
            let mut want = g.to_dense();
            fw_seq::<MinPlusF32>(&mut want);
            let mut got = g.to_dense();
            fw_blocked_threads::<MinPlusF32>(&mut got, 4, 1);
            assert!(want.eq_exact(&got), "{kind:?}");
        }
    }

    /// Random capacities: an edge on every `every`-th draw, each below `cap`.
    fn capacities(n: usize, mut state: u64, every: u64, cap: u64) -> Matrix<f32> {
        Matrix::from_fn(n, n, |i, j| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            if i != j && state.is_multiple_of(every) {
                ((state >> 33) % cap) as f32
            } else {
                f32::NEG_INFINITY
            }
        })
    }

    #[test]
    fn works_for_max_min_widest_path() {
        type WP = MaxMin<f32>;
        let m = capacities(20, 99, 3, 50);
        let mut want = m.clone();
        fw_seq::<WP>(&mut want);
        let mut got = m.clone();
        fw_blocked_threads::<WP>(&mut got, 6, 1);
        assert!(want.eq_exact(&got));
    }

    /// Widest paths, bit for bit against `fw_seq`: at blocks narrower than,
    /// equal to and wider than n, and at n = 150 on blocks wider than
    /// `CLOSURE_WIDTH`, where DiagUpdate runs the loop.
    #[test]
    fn works_for_widest_path_semiring() {
        type WP = MaxMin<f32>;
        for (m, blocks) in [
            (capacities(21, 5, 4, 40), &[4, 6, 21, 30][..]),
            (capacities(150, 5, 4, 40), &[65, 96, 150]),
        ] {
            let mut want = m.clone();
            fw_seq::<WP>(&mut want);
            for &b in blocks {
                let mut got = m.clone();
                fw_blocked_threads::<WP>(&mut got, b, 1);
                assert!(want.eq_exact(&got), "n={} b={b}", m.rows());
            }
        }
    }

    /// At block 96 each DiagUpdate closes its block with the loop at
    /// `CLOSURE_WIDTH`, muted: the trace books one DiagUpdate per
    /// block-iteration and no phase or pack inside one.
    #[test]
    fn a_wide_diagonal_block_books_its_inner_loop_under_diag_update_only() {
        let (n, b) = (200, 96);
        let mut d = dense(n, 4);
        let ((), trace) =
            apsp_trace::record("main", || fw_blocked_threads::<MinPlusF32>(&mut d, b, 1));
        let spans = &trace.timelines[0].spans;
        let diags: Vec<_> = spans.iter().filter(|s| s.name == "DiagUpdate").collect();
        assert_eq!(diags.len(), n.div_ceil(b), "one DiagUpdate per block-iteration");
        for s in spans.iter().filter(|s| s.name != "DiagUpdate") {
            assert!(
                !diags.iter().any(|d| d.start_ns <= s.start_ns && s.end_ns <= d.end_ns),
                "{} span [{}, {}] ns inside a DiagUpdate",
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
        assert_eq!((count("PanelUpdate"), count("OuterUpdate")), (3, 3));
        // one pass builds the map; the muted inner loops record theirs not
        assert_eq!(count("presence"), 1);
        // both halves of the row panel at the middle k, one at either end
        assert_eq!(count("pack"), 4);
    }

    #[test]
    fn single_vertex_and_empty_edge_cases() {
        let mut one = Matrix::filled(1, 1, f32::INFINITY);
        fw_blocked_threads::<MinPlusF32>(&mut one, 4, 1);
        assert_eq!(one[(0, 0)], 0.0);
        let mut zero = Matrix::filled(0, 0, 0.0f32);
        fw_blocked_threads::<MinPlusF32>(&mut zero, 4, 1);
    }
}
