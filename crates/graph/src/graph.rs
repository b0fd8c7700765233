//! Compact weighted digraph in CSR form, plus dense-matrix conversions.
//!
//! [`GraphBuilder`] accumulates edges in the CSR's own columns. Edges added
//! in strictly increasing `(src, dst)` order, as row loops and
//! [`crate::io::write_dimacs`] files deliver them, become the [`Graph`] with
//! no sort and no copy; any other order is sorted once at
//! [`GraphBuilder::build`], keeping the minimum weight per pair.

use std::cmp::Ordering;

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

/// Where the arcs added so far start from.
#[derive(Clone, Debug)]
enum Sources {
    /// Each arc came strictly after the one before it in `(u, v)` order:
    /// `starts[u]` is the index of source `u`'s first arc, for every `u` up
    /// to the last source seen. These are the CSR's offsets, not yet closed.
    Ordered(Vec<usize>),
    /// Some arc did not: the source of each arc, beside its target and
    /// weight.
    Column(Vec<u32>),
}

/// Mutable edge accumulator; [`GraphBuilder::build`] produces the CSR.
///
/// The edges are kept in the CSR's own columns, targets and weights. While
/// they arrive in strictly increasing `(u, v)` order — as a row-by-row loop
/// adds them and as [`crate::io::write_dimacs`] writes them — the offsets
/// grow with the sources, and `build` moves all three into the [`Graph`]
/// with no sort and no copy. The first edge out of that order turns the
/// offsets into a column of sources, and `build` then sorts.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    sources: Sources,
    targets: Vec<u32>,
    weights: Vec<f32>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Self { n, sources: Sources::Ordered(Vec::new()), targets: Vec::new(), weights: Vec::new() }
    }

    /// Add directed edge `u → v` of weight `w`.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints or NaN weight.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f32) -> &mut Self {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        assert!(!w.is_nan(), "edge weight must not be NaN");
        let m = self.targets.len();
        match &mut self.sources {
            Sources::Ordered(starts) => {
                // `starts` ends at the last source seen
                let ordered = match starts.len().cmp(&(u + 1)) {
                    Ordering::Less => {
                        starts.resize(u + 1, m);
                        true
                    }
                    Ordering::Equal => self.targets.last() < Some(&(v as u32)),
                    Ordering::Greater => false,
                };
                if !ordered {
                    let mut sources = source_column(starts, m);
                    sources.push(u as u32);
                    self.sources = Sources::Column(sources);
                }
            }
            Sources::Column(sources) => sources.push(u as u32),
        }
        self.targets.push(v as u32);
        self.weights.push(w);
        self
    }

    /// Add both `u → v` and `v → u` with weight `w`.
    pub fn add_undirected(&mut self, u: usize, v: usize, w: f32) -> &mut Self {
        self.add_edge(u, v, w);
        self.add_edge(v, u, w)
    }

    /// Number of raw (pre-dedup) edges added so far.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// True if no edges were added.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Lower the vertex count to `n`, for a reader that learns it only
    /// after the last edge. Every endpoint added so far must be below `n`.
    pub(crate) fn shrink_vertices(&mut self, n: usize) {
        debug_assert!(self.targets.iter().all(|&v| (v as usize) < n), "an endpoint is not below {n}");
        assert!(n <= self.n, "the vertex count only shrinks");
        if let Sources::Ordered(starts) = &self.sources {
            assert!(starts.len() <= n, "a source is not below {n}");
        }
        self.n = n;
    }

    /// Finalize into CSR. Duplicate `(u, v)` pairs keep the minimum weight.
    pub fn build(self) -> Graph {
        let n = self.n;
        let (offsets, targets, weights) = match self.sources {
            Sources::Ordered(mut offsets) => {
                offsets.resize(n + 1, self.targets.len());
                let (mut targets, mut weights) = (self.targets, self.weights);
                // the graph keeps no growth slack; a shrinking realloc
                // stays in place
                offsets.shrink_to_fit();
                targets.shrink_to_fit();
                weights.shrink_to_fit();
                (offsets, targets, weights)
            }
            Sources::Column(sources) => sorted_csr(n, sources, self.targets, self.weights),
        };
        Graph { n, offsets, targets, weights }
    }
}

/// The source of each of the first `m` arcs, from the row starts of
/// [`Sources::Ordered`].
fn source_column(starts: &[usize], m: usize) -> Vec<u32> {
    let mut sources = Vec::with_capacity(m + 1);
    for (u, &end) in starts[1..].iter().chain([&m]).enumerate() {
        sources.resize(end, u as u32);
    }
    sources
}

/// The CSR of arcs in any order: a counting sort by source, then each row
/// sorted by target, keeping the minimum weight of each `(u, v)` pair.
fn sorted_csr(
    n: usize,
    sources: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f32>,
) -> (Vec<usize>, Vec<u32>, Vec<f32>) {
    // row sizes, then row starts, then (after the scatter) row ends
    let mut ends = vec![0usize; n + 1];
    for &u in &sources {
        ends[u as usize + 1] += 1;
    }
    for u in 0..n {
        ends[u + 1] += ends[u];
    }
    let mut arcs = vec![(0u32, 0f32); sources.len()];
    for ((u, v), w) in sources.into_iter().zip(targets).zip(weights) {
        let at = &mut ends[u as usize];
        arcs[*at] = (v, w);
        *at += 1;
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut targets = Vec::with_capacity(arcs.len());
    let mut weights = Vec::with_capacity(arcs.len());
    let mut start = 0;
    for &end in &ends[..n] {
        let row = &mut arcs[start..end];
        row.sort_unstable_by_key(|a| a.0);
        for pair in row.chunk_by(|a, b| a.0 == b.0) {
            let min = pair[1..].iter().fold(pair[0].1, |kept, a| if a.1 < kept { a.1 } else { kept });
            targets.push(pair[0].0);
            weights.push(min);
        }
        offsets.push(targets.len());
        start = end;
    }
    (offsets, targets, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn csr(g: &Graph) -> (&[usize], &[u32], Vec<u32>) {
        (&g.offsets, &g.targets, g.weights.iter().map(|w| w.to_bits()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any order of an edge multiset builds one CSR: the model's, which
        /// keeps the minimum weight per pair. Fed in the model's own order
        /// the edges take the ordered path (no sort), shuffled the sorting
        /// one. Weights are whole and half numbers, so no pair holds both
        /// `0.0` and `-0.0`, whose order no sort specifies.
        #[test]
        fn every_order_of_an_edge_multiset_builds_the_same_csr(
            n in 1usize..9,
            picks in proptest::collection::vec((any::<u32>(), any::<u32>(), -6i32..20, any::<u64>()), 40),
            m in 0usize..41,
        ) {
            let edges: Vec<(usize, usize, f32, u64)> = picks[..m]
                .iter()
                .map(|&(u, v, w, key)| (u as usize % n, v as usize % n, w as f32 / 2.0, key))
                .collect();
            let mut model = BTreeMap::new();
            for &(u, v, w, _) in &edges {
                let kept = model.entry((u, v)).or_insert(w);
                if w < *kept {
                    *kept = w;
                }
            }
            let builder = |edges: &mut dyn Iterator<Item = (usize, usize, f32)>| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    b.add_edge(u, v, w);
                }
                b
            };
            let ordered = builder(&mut model.iter().map(|(&(u, v), &w)| (u, v, w)));
            prop_assert!(matches!(ordered.sources, Sources::Ordered(_)));
            let want = ordered.build();
            prop_assert_eq!(want.m(), model.len());
            prop_assert_eq!(want.offsets.len(), n + 1);
            let mut shuffled = edges.clone();
            shuffled.sort_by_key(|e| e.3);
            for order in [&edges, &shuffled] {
                let got = builder(&mut order.iter().map(|&(u, v, w, _)| (u, v, w))).build();
                prop_assert_eq!(csr(&got), csr(&want));
            }
        }
    }

    #[test]
    fn only_the_first_edge_out_of_order_leaves_the_ordered_path() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).add_edge(0, 3, 1.0).add_edge(2, 0, 1.0).add_edge(3, 3, 1.0);
        assert!(matches!(&b.sources, Sources::Ordered(starts) if starts == &[0, 2, 2, 3]));
        for (u, v) in [(3, 3), (3, 2), (1, 0)] {
            let mut b = b.clone();
            b.add_edge(u, v, 1.0);
            assert!(matches!(&b.sources, Sources::Column(s) if s == &[0, 0, 2, 3, u as u32]), "({u}, {v})");
        }
    }

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
