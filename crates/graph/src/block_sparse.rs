//! The block-sparse form of a graph's distance matrix, one tile row at a
//! time.
//!
//! A tiled Floyd-Warshall cuts the `n × n` matrix of [`Graph::to_dense`]
//! into `b × b` tiles, and a tile that is all `∞` holds no path yet: it need
//! not exist until fill-in reaches it. [`TileRows`] builds that form
//! straight from the CSR, one `b × n` strip at a time, so the dense matrix
//! is never built.

use srgemm::matrix::{Matrix, View};

use crate::graph::{Graph, INF};

/// The rows of [`Graph::to_dense`], one `b`-row tile row at a time in a
/// reused strip, with the tiles of that row that hold anything but `∞`.
/// Made by [`Graph::tile_rows`].
pub struct TileRows<'g> {
    g: &'g Graph,
    b: usize,
    strip: Matrix<f32>,
    present: Vec<bool>,
}

impl<'g> TileRows<'g> {
    /// # Panics
    /// Panics if `b == 0`.
    pub(crate) fn new(g: &'g Graph, b: usize) -> Self {
        assert!(b > 0, "tile size must be positive");
        let n = g.n();
        TileRows {
            g,
            b,
            strip: Matrix::filled(b.min(n), n, INF),
            present: vec![false; n.div_ceil(b)],
        }
    }

    /// Tiles per side: `⌈n / b⌉`.
    pub fn tiles_per_side(&self) -> usize {
        self.present.len()
    }

    /// Tile row `ti`: rows `ti·b ..` of [`Graph::to_dense`] as a `rows × n`
    /// view (fewer than `b` rows only in a ragged last tile row), and for
    /// each tile column whether that tile holds anything but `∞` — the
    /// diagonal tile always, any other only if a finite edge landed in it.
    ///
    /// # Panics
    /// Panics if `ti ≥ tiles_per_side()`.
    pub fn row(&mut self, ti: usize) -> (View<'_, f32>, &[bool]) {
        assert!(ti < self.tiles_per_side(), "tile row out of range");
        let (n, b) = (self.g.n(), self.b);
        let r0 = ti * b;
        let rows = b.min(n - r0);
        self.present.fill(false);
        self.present[ti] = true;
        for r in 0..rows {
            let row = self.strip.row_mut(r);
            row.fill(INF);
            row[r0 + r] = 0.0;
            // targets ascend, so the tile column only ever moves right
            let (targets, weights) = self.g.out_edges(r0 + r);
            let (mut tj, mut end) = (0, b);
            for (&v, &w) in targets.iter().zip(weights) {
                let v = v as usize;
                while v >= end {
                    (tj, end) = (tj + 1, end + b);
                }
                if w < row[v] {
                    row[v] = w;
                    self.present[tj] = true;
                }
            }
        }
        (self.strip.subview(0, 0, rows, n), &self.present)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};
    use crate::graph::GraphBuilder;

    /// `g`'s tile rows in `b × b` tiles stacked back into one matrix, and
    /// the present flags of the tile grid, row-major.
    fn stacked(g: &Graph, b: usize) -> (Matrix<f32>, Vec<bool>) {
        let n = g.n();
        let mut d = Matrix::filled(n, n, f32::NAN);
        let mut present = Vec::new();
        let mut tile_rows = g.tile_rows(b);
        for ti in 0..tile_rows.tiles_per_side() {
            let (strip, p) = tile_rows.row(ti);
            d.set_block(ti * b, 0, &strip);
            present.extend_from_slice(p);
        }
        (d, present)
    }

    /// Whether each tile of `d` holds anything but `∞`, row-major.
    fn finite_tiles(d: &Matrix<f32>, b: usize) -> Vec<bool> {
        let n = d.rows();
        let nb = n.div_ceil(b);
        (0..nb * nb)
            .map(|t| {
                let (r0, c0) = (t / nb * b, t % nb * b);
                let tile = d.block(r0, c0, b.min(n - r0), b.min(n - c0));
                tile.as_slice().iter().any(|&v| v < INF)
            })
            .collect()
    }

    #[test]
    fn dense_round_trip_preserves_data_and_sparsity() {
        let mut dense = Matrix::filled(9, 9, INF);
        for i in 0..9 {
            dense[(i, i)] = 0.0;
        }
        dense[(2, 7)] = 5.0;
        let (d, present) = stacked(&Graph::from_dense(&dense), 3);
        assert!(d.eq_exact(&dense));
        // the three diagonal tiles and (0,2) → 4 of 9
        assert_eq!(present, [true, false, true, false, true, false, false, false, true]);
    }

    #[test]
    fn ragged_tail_blocks() {
        let mut b = GraphBuilder::new(7);
        b.add_edge(6, 5, 1.0).add_edge(0, 6, 2.0);
        let g = b.build();
        let mut tile_rows = g.tile_rows(3);
        assert_eq!(tile_rows.tiles_per_side(), 3);
        let (strip, present) = tile_rows.row(2);
        assert_eq!((strip.rows(), strip.cols()), (1, 7));
        assert_eq!(strip.row(0), [INF, INF, INF, INF, INF, 1.0, 0.0]);
        assert_eq!(present, [false, true, true]);
        let (_, present) = tile_rows.row(0);
        assert_eq!(present, [true, false, true], "an edge into the 1-wide tail tile");
    }

    // The three `from_entries_*` tests keep the names they had when the
    // block-sparse matrix was built from an entry list; they now check
    // `TileRows`, which replaced it.

    #[test]
    fn from_entries_seeds_every_diagonal_entry() {
        // an edgeless graph: every diagonal entry 0, and only the diagonal
        // tiles present
        let (d, present) = stacked(&GraphBuilder::new(7).build(), 3);
        for i in 0..7 {
            assert_eq!(d[(i, i)], 0.0);
        }
        assert_eq!(d[(0, 6)], INF);
        // all 3 (ragged) diagonal tiles present, nothing else
        assert_eq!(present, [true, false, false, false, true, false, false, false, true]);
    }

    #[test]
    fn from_entries_diagonal_takes_min_with_seed() {
        // the strip's diagonal is min(0, w(i,i)): a positive self-loop never
        // beats the zero seed, a negative one wins, as in Graph::to_dense
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 0, 5.0).add_edge(1, 1, -2.0).add_edge(0, 2, 1.5);
        let (d, present) = stacked(&b.build(), 2);
        assert_eq!(d[(0, 0)], 0.0);
        assert_eq!(d[(1, 1)], -2.0);
        assert_eq!(d[(0, 2)], 1.5);
        assert_eq!(present, [true, true, false, true]);
    }

    #[test]
    fn from_entries_matches_seeded_from_dense() {
        // the stacked strips are element for element what to_dense builds,
        // and the present flags are exactly its tiles that are not all ∞ off
        // the diagonal (an ∞ edge alone in its tile included)
        let mut ring = GraphBuilder::new(29);
        for v in 0..29 {
            ring.add_edge(v, (v + 1) % 29, 1.0 + v as f32);
        }
        ring.add_edge(3, 3, -1.0).add_edge(2, 20, INF);
        let ints = WeightKind::small_ints;
        let graphs = [
            (ring.build(), 8),
            (generators::erdos_renyi(30, 0.1, ints(), 44), 6),
            (generators::erdos_renyi(70, 0.05, ints(), 7), 16),
            (generators::multi_component(24, 3, ints(), 46), 4),
            (generators::uniform_dense(10, ints(), 45), 3),
            (generators::uniform_dense(5, ints(), 1), 1),
            (generators::uniform_dense(5, ints(), 2), 9),
        ];
        for (g, b) in graphs {
            let want = g.to_dense();
            let (d, present) = stacked(&g, b);
            assert!(d.eq_exact(&want), "n={} b={b}", g.n());
            let nb = g.n().div_ceil(b);
            let diagonal = (0..nb * nb).map(|t| t / nb == t % nb);
            let expect: Vec<bool> =
                finite_tiles(&want, b).into_iter().zip(diagonal).map(|(f, d)| f || d).collect();
            assert_eq!(present, expect, "n={} b={b}", g.n());
        }
    }
}
