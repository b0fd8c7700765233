//! Compact weighted digraph in CSR form, plus dense-matrix conversions.

use srgemm::Matrix;

use crate::block_sparse::TileRows;

/// "No edge" marker, also the tropical additive identity.
pub const INF: f32 = f32::INFINITY;

/// Immutable weighted digraph stored in compressed-sparse-row form.
///
/// Vertices are `0..n`. Parallel edges are allowed at build time; CSR keeps
/// the minimum weight per (src, dst) pair, which is the semantics the dense
/// distance-matrix form imposes anyway.
#[derive(Clone, Debug)]
pub struct Graph {
    n: usize,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.targets.len()
    }

    /// Out-neighborhood of `u` as parallel slices `(targets, weights)`.
    #[inline]
    pub fn out_edges(&self, u: usize) -> (&[u32], &[f32]) {
        let lo = self.offsets[u];
        let hi = self.offsets[u + 1];
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Weight of edge `(u, v)` or [`INF`] if absent.
    pub fn weight(&self, u: usize, v: usize) -> f32 {
        let (ts, ws) = self.out_edges(u);
        match ts.binary_search(&(v as u32)) {
            Ok(i) => ws[i],
            Err(_) => INF,
        }
    }

    /// Iterate all edges as `(src, dst, w)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.n).flat_map(move |u| {
            let (ts, ws) = self.out_edges(u);
            ts.iter().zip(ws).map(move |(&t, &w)| (u, t as usize, w))
        })
    }

    /// Dense distance-matrix form used by the Floyd-Warshall kernels:
    /// `D[i][j] = w(i,j)`, `D[i][i] = min(0, w(i,i))`, `∞` elsewhere.
    pub fn to_dense(&self) -> Matrix<f32> {
        let mut d = Matrix::filled(self.n, self.n, INF);
        for i in 0..self.n {
            d[(i, i)] = 0.0;
        }
        for (u, v, w) in self.edges() {
            if w < d[(u, v)] {
                d[(u, v)] = w;
            }
        }
        d
    }

    /// The block-sparse form of [`Graph::to_dense`] in `b × b` tiles, built
    /// one tile row at a time without the `O(n²)` dense detour: each row
    /// says which of its tiles hold anything but `∞`.
    ///
    /// # Panics
    /// Panics if `b == 0`.
    pub fn tile_rows(&self, b: usize) -> TileRows<'_> {
        TileRows::new(self, b)
    }

    /// Rebuild a graph from a dense matrix (entries `< ∞`, off-diagonal,
    /// become edges). Inverse of [`Graph::to_dense`] up to implied zero
    /// diagonals.
    pub fn from_dense(d: &Matrix<f32>) -> Graph {
        assert_eq!(d.rows(), d.cols(), "distance matrix must be square");
        let n = d.rows();
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in 0..n {
                let w = d[(i, j)];
                if i != j && w < INF {
                    b.add_edge(i, j, w);
                }
            }
        }
        b.build()
    }

    /// Total weight stored (used in sanity tests).
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().map(|&w| w as f64).sum()
    }
}

/// Mutable edge-list accumulator; [`GraphBuilder::build`] produces the CSR.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(u32, u32, f32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Add directed edge `u → v` of weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or NaN weight.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f32) -> &mut Self {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert!(!w.is_nan(), "edge weight must not be NaN");
        self.edges.push((u as u32, v as u32, w));
        self
    }

    /// Add both `u → v` and `v → u` with weight `w`.
    pub fn add_undirected(&mut self, u: usize, v: usize, w: f32) -> &mut Self {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w)
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Finalize into CSR. Duplicate `(u, v)` pairs keep the minimum weight.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable_by_key(|a| (a.0, a.1));
        self.edges.dedup_by(|next, kept| {
            if next.0 == kept.0 && next.1 == kept.1 {
                if next.2 < kept.2 {
                    kept.2 = next.2;
                }
                true
            } else {
                false
            }
        });
        let mut offsets = vec![0usize; self.n + 1];
        for &(u, _, _) in &self.edges {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let targets = self.edges.iter().map(|e| e.1).collect();
        let weights = self.edges.iter().map(|e| e.2).collect();
        Graph {
            n: self.n,
            offsets,
            targets,
            weights,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0).add_edge(1, 2, 3.0).add_edge(0, 3, 1.0);
        let g = b.build();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3);
        assert_eq!(g.weight(0, 1), 2.0);
        assert_eq!(g.weight(1, 0), INF);
        let (ts, _) = g.out_edges(0);
        assert_eq!(ts, &[1, 3]);
    }

    #[test]
    fn duplicate_edges_keep_minimum() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 5.0).add_edge(0, 1, 2.0).add_edge(0, 1, 9.0);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.weight(0, 1), 2.0);
    }

    #[test]
    fn dense_round_trip() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.5).add_edge(2, 0, 2.5).add_undirected(1, 2, 0.5);
        let g = b.build();
        let d = g.to_dense();
        assert_eq!(d[(0, 0)], 0.0);
        assert_eq!(d[(0, 1)], 1.5);
        assert_eq!(d[(1, 0)], INF);
        let g2 = Graph::from_dense(&d);
        assert_eq!(g2.m(), g.m());
        assert_eq!(g2.weight(2, 1), 0.5);
    }

    #[test]
    fn isolated_vertices_have_empty_neighborhoods() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.m(), 0);
        for u in 0..5 {
            assert!(g.out_edges(u).0.is_empty());
        }
    }

    #[test]
    fn self_loop_in_dense_takes_min_with_zero() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 5.0); // positive self-loop never beats staying put
        b.add_edge(1, 1, -1.0); // negative self-loop would (kept by min)
        let g = b.build();
        let d = g.to_dense();
        assert_eq!(d[(0, 0)], 0.0);
        assert_eq!(d[(1, 1)], -1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        GraphBuilder::new(2).add_edge(0, 2, 1.0);
    }

    #[test]
    fn block_sparse_form_matches_dense_form() {
        let mut b = GraphBuilder::new(7);
        b.add_edge(0, 6, 4.0).add_edge(6, 1, 2.0).add_undirected(2, 3, 0.5);
        b.add_edge(4, 4, -1.0); // negative self-loop survives the min
        let g = b.build();
        let d = g.to_dense();
        let mut tile_rows = g.tile_rows(3);
        let mut present = Vec::new();
        for ti in 0..tile_rows.tiles_per_side() {
            let (strip, p) = tile_rows.row(ti);
            assert!(strip.to_matrix().eq_exact(&d.block(3 * ti, 0, strip.rows(), 7)), "row {ti}");
            present.extend_from_slice(p);
        }
        assert_eq!(d[(4, 4)], -1.0);
        assert_eq!(d[(5, 0)], INF);
        // diagonal tiles always present; off-diagonal only where edges live
        assert_eq!(present, [true, true, true, true, true, false, true, false, true]);
    }
}
