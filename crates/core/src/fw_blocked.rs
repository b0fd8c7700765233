//! Blocked Floyd-Warshall (paper Algorithm 2), single node.
//!
//! Per block-iteration `k`: DiagUpdate closes `A(k,k)`, PanelUpdate fixes the
//! k-th block row and column, and the MinPlus outer product updates the rest
//! of the matrix. Every phase runs in place on views of the matrix, cut by
//! `bands` into the 3 × 3 bands around block `k`: the diagonal block is
//! read as a view by PanelUpdate, and OuterUpdate covers only `i ∉ k, j ∉ k`
//! as up to four quadrant GEMMs (above/below × left/right of block `k`),
//! each taking its `A` straight from the column panel beside it.
//!
//! That OuterUpdate is `QuadrantUpdate`, the one band-split update of the
//! crate: the distributed driver runs it too, around the strips each of its
//! iterations has already closed. It consumes the two halves of `B` (here
//! the row panel, left and right of the diagonal block) through one
//! [`PackedB`]: each half is packed into the micro-kernel's tiled layout
//! **once per update** (reusing the allocation across all updates via
//! [`PackedB::repack`]) and streamed by the two quadrants below and above
//! it and every row slab of those GEMMs, at any thread count. Those repacks
//! are the iteration's only copy.
//!
//! Each iteration opens the paper's phase spans (`DiagUpdate`,
//! `PanelUpdate`, `OuterUpdate`, with the repack as `pack` inside the last)
//! on the calling thread's `apsp_trace` recorder.

use std::convert::Infallible;
use std::ops::Range;

use apsp_trace::span;
use srgemm::closure::fw_closure;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::{Matrix, View, ViewMut};
use srgemm::panel::{panel_update_left, panel_update_right};
use srgemm::semiring::Semiring;

/// The DiagUpdate choice `benchmark/src/layers.rs` still names when it calls
/// [`fw_blocked`]. [`srgemm::closure::fw_closure`] is the one DiagUpdate
/// kernel; this enum and the wrapper below are deleted by the next
/// `[benchmark]` PR, once that file stops naming them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagMethod {
    /// Classic `O(b³)` Floyd-Warshall on the block.
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
    fw_blocked_view::<S>(&mut d.view_mut(), b, threads, &mut QuadrantUpdate::new());
}

/// [`fw_blocked_threads`] on the square view `d`, packing into the buffer
/// of `quadrants`. A `d` no wider than `b` is one [`fw_closure`] call.
/// The out-of-core driver closes its diagonal tile with this, at the
/// solve's block size.
///
/// # Panics
/// Panics if `d` is not square or `b == 0`.
pub(crate) fn fw_blocked_view<S: Semiring>(
    d: &mut ViewMut<'_, S::Elem>,
    b: usize,
    threads: usize,
    quadrants: &mut QuadrantUpdate<S>,
) {
    let n = d.rows();
    assert_eq!(n, d.cols(), "distance matrix must be square");
    assert!(b > 0, "block size must be positive");
    assert!(
        S::IDEMPOTENT_ADD,
        "blocked FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    for k0 in (0..n).step_by(b) {
        let k = k0..n.min(k0 + b);
        let [
            [top_left, mut top_k, top_right],
            [mut k_left, mut diag_k, mut k_right],
            [bottom_left, mut bottom_k, bottom_right],
        ] = bands(d.subview_mut(0, 0, n, n), k.clone(), k);

        // ----- DiagUpdate -----
        {
            let _p = span("DiagUpdate");
            fw_closure::<S>(&mut diag_k);
        }
        // ----- PanelUpdate -----
        {
            let _p = span("PanelUpdate");
            let diag_k = diag_k.as_view();
            // row panel A(k, :): left and right of the diagonal block
            panel_update_left::<S>(&mut k_left, &diag_k);
            panel_update_left::<S>(&mut k_right, &diag_k);
            // column panel A(:, k): above and below it
            panel_update_right::<S>(&mut top_k, &diag_k);
            panel_update_right::<S>(&mut bottom_k, &diag_k);
        }

        // ----- MinPlus outer product, i ∉ k and j ∉ k -----
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

/// The band-split OuterUpdate every FW loop here runs: `C ⊕= A ⊗ B` on
/// the four corners of `C` outside one excluded row band and one excluded
/// column band (the strips an iteration has already closed), as up to four
/// corner GEMMs. The corners run column by column, so each half of `B`
/// (left and right of the excluded columns) is packed at most once per
/// update, into the one [`PackedB`] held here, whose allocation every later
/// update reuses; that repack is the update's only copy.
pub(crate) struct QuadrantUpdate<S: Semiring> {
    /// The one packed `B`; the out-of-core driver packs its own operands
    /// into it too, so that its budget pays for one buffer.
    pub(crate) packed: PackedB<S::Elem>,
}

impl<S: Semiring> QuadrantUpdate<S> {
    /// An empty buffer, sized by the first pack.
    pub(crate) fn new() -> Self {
        QuadrantUpdate { packed: PackedB::pack::<S>(&View::from_slice(&[], 0, 0)) }
    }

    /// `c ⊕= a ⊗ b` outside the rows `rows` and the columns `cols` of `c`,
    /// which stay untouched. `a` has `c`'s rows and `b` its columns; both
    /// lie outside `c`. `gemm(corner, a, b)` updates one non-empty corner.
    ///
    /// # Panics
    /// Panics if a range or an operand does not fit `c`.
    pub(crate) fn update<Err>(
        &mut self,
        c: ViewMut<'_, S::Elem>,
        rows: Range<usize>,
        cols: Range<usize>,
        a: &View<'_, S::Elem>,
        b: &View<'_, S::Elem>,
        gemm: impl FnMut(
            &mut ViewMut<'_, S::Elem>,
            &View<'_, S::Elem>,
            &mut BHalf<'_, '_, S>,
        ) -> Result<(), Err>,
    ) -> Result<(), Err> {
        assert_eq!((a.rows(), b.cols()), (c.rows(), c.cols()), "operands must fit the output");
        let [[top_left, _, top_right], _, [bottom_left, _, bottom_right]] =
            bands(c, rows.clone(), cols.clone());
        let (depth, m, n) = (a.cols(), a.rows(), b.cols());
        self.corners(
            [[top_left, top_right], [bottom_left, bottom_right]],
            [a.subview(0, 0, rows.start, depth), a.subview(rows.end, 0, m - rows.end, depth)],
            [b.subview(0, 0, depth, cols.start), b.subview(0, cols.end, depth, n - cols.end)],
            gemm,
        )
    }

    /// [`QuadrantUpdate::update`] on corners [`bands`] has already cut out,
    /// `[[above-left, above-right], [below-left, below-right]]`, with `A`'s
    /// rows beside them (`[above, below]`) and `B`'s columns over them
    /// (`[left, right]`). This is the form for operands that are themselves
    /// bands of the matrix being written, as blocked FW's panels are.
    pub(crate) fn corners<Err>(
        &mut self,
        [[top_left, top_right], [bottom_left, bottom_right]]: [[ViewMut<'_, S::Elem>; 2]; 2],
        [above, below]: [View<'_, S::Elem>; 2],
        [left, right]: [View<'_, S::Elem>; 2],
        mut gemm: impl FnMut(
            &mut ViewMut<'_, S::Elem>,
            &View<'_, S::Elem>,
            &mut BHalf<'_, '_, S>,
        ) -> Result<(), Err>,
    ) -> Result<(), Err> {
        for (view, column) in [
            (left, [top_left, bottom_left]),
            (right, [top_right, bottom_right]),
        ] {
            let mut b = BHalf { view, packed: &mut self.packed, is_packed: false };
            for (mut c, a) in column.into_iter().zip([&above, &below]) {
                if c.rows() > 0 && c.cols() > 0 {
                    gemm(&mut c, a, &mut b)?;
                }
            }
        }
        Ok(())
    }
}

/// One half of a [`QuadrantUpdate`]'s `B` operand: a view, packed into the
/// update's buffer on first use, so an executor that reads views never
/// packs.
pub(crate) struct BHalf<'v, 'p, S: Semiring> {
    view: View<'v, S::Elem>,
    packed: &'p mut PackedB<S::Elem>,
    is_packed: bool,
}

impl<'v, S: Semiring> BHalf<'v, '_, S> {
    /// The half as a view of its source.
    pub(crate) fn view(&self) -> &View<'v, S::Elem> {
        &self.view
    }

    /// The half in the micro-kernel's tiled layout, packed on the first call.
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
    use apsp_graph::generators::{self, WeightKind};
    use srgemm::gemm::gemm_naive;
    use srgemm::semiring::{MaxMin, MinPlusSatU16};
    use srgemm::MinPlusF32;

    fn dense(n: usize, seed: u64) -> Matrix<f32> {
        generators::uniform_dense(n, WeightKind::small_ints(), seed).to_dense()
    }

    /// `fw_blocked_threads` bit for bit against `fw_seq` at ragged n, with
    /// blocks of 1, 7, n − 1, n and n + 5 on 1–3 threads: the quadrants
    /// above and left of block k are empty at k = 0, those below and right
    /// at the last (ragged) block, and b ≥ n is one diagonal block alone.
    /// `edge` maps a hash to an edge value; a third of the pairs get one.
    fn assert_matches_seq<S: Semiring>(edge: impl Fn(u64) -> S::Elem) {
        for n in [2usize, 37, 100] {
            let base = Matrix::from_fn(n, n, |i, j| {
                let h = ((i * n + j) as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                if i != j && h.is_multiple_of(3) { edge(h >> 2) } else { S::zero() }
            });
            let mut want = base.clone();
            fw_seq::<S>(&mut want);
            for b in [1, 7, n - 1, n, n + 5] {
                for threads in 1..=3 {
                    let mut got = base.clone();
                    fw_blocked_threads::<S>(&mut got, b, threads);
                    assert_eq!(
                        got.as_slice(),
                        want.as_slice(),
                        "{} n={n} b={b} threads={threads}",
                        S::NAME
                    );
                }
            }
        }
    }

    #[test]
    fn quadrant_outer_update_matches_sequential_per_semiring() {
        assert_matches_seq::<MinPlusF32>(|h| (h % 100 + 1) as f32);
        assert_matches_seq::<MinPlusSatU16>(|h| (h % 100 + 1) as u16);
        assert_matches_seq::<MaxMin<f32>>(|h| (h % 50) as f32);
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
        let (before, a, b) = (random(m, n, 1), random(m, depth, 2), random(depth, n, 3));
        let mut full = before.clone();
        gemm_naive::<S>(&mut full.view_mut(), &a.view(), &b.view());
        // in blocks of 4: empty (at the start and inside), the first block,
        // the last (ragged) one, a middle one, two blocks wide, everything
        let shapes = |len: usize| [0..0, 5..5, 0..4, len - len % 4..len, 4..8, 4..12, 0..len];
        let mut quadrants = QuadrantUpdate::<S>::new();
        for rows in shapes(m) {
            for cols in shapes(n) {
                for on_views in [false, true] {
                    let mut got = before.clone();
                    let Ok(()) = quadrants.update::<Infallible>(
                        got.view_mut(),
                        rows.clone(),
                        cols.clone(),
                        &a.view(),
                        &b.view(),
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
    fn works_for_max_min_widest_path() {
        type WP = MaxMin<f32>;
        let mut m = Matrix::filled(20, 20, f32::NEG_INFINITY);
        // random capacities
        let mut state = 99u64;
        for i in 0..20 {
            for j in 0..20 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if i != j && state.is_multiple_of(3) {
                    m[(i, j)] = ((state >> 33) % 50) as f32;
                }
            }
        }
        let mut want = m.clone();
        fw_seq::<WP>(&mut want);
        let mut got = m.clone();
        fw_blocked_threads::<WP>(&mut got, 6, 1);
        assert!(want.eq_exact(&got));
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
