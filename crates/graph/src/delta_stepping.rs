//! Δ-stepping SSSP (Meyer & Sanders) — the Dijkstra/Bellman-Ford hybrid
//! cited in the paper's related work (§6).
//!
//! Vertices are kept in buckets of width Δ; light edges (`w < Δ`) are relaxed
//! inside a bucket's fixpoint, heavy edges once when the bucket settles.
//! [`apsp_by_delta_stepping`] is `auto`'s pick on sparse input, so its sweep
//! allocates nothing per source: the adjacency is split into light and heavy
//! edges once per solve, each worker keeps one bucket workspace from source
//! to source, and every source relaxes straight into its answer row.
//!
//! Any relaxation order gives the same answer, bit for bit: `+` with a
//! non-negative weight is monotone, so every vertex ends at the minimum over
//! all paths of the left-to-right path sum, which is what Dijkstra returns.

use crate::graph::{Graph, INF};

/// Distances from `src` using Δ-stepping with bucket width `delta`.
///
/// # Panics
/// Panics on negative weights or non-positive `delta`.
pub fn delta_stepping(g: &Graph, src: usize, delta: f32) -> Vec<f32> {
    assert!(src < g.n(), "source out of range");
    let adj = SplitAdjacency::new(g, delta);
    let mut dist = vec![INF; g.n()];
    Buckets::default().sweep(&adj, src, &mut dist);
    dist
}

/// All-pairs by one Δ-stepping sweep per source, fanned out over at most
/// `threads` workers (`0` → all cores).
/// Requires non-negative weights and positive `delta`.
pub fn apsp_by_delta_stepping(g: &Graph, delta: f32, threads: usize) -> srgemm::Matrix<f32> {
    let adj = &SplitAdjacency::new(g, delta);
    crate::par_rows(g.n(), threads, || {
        let mut buckets = Buckets::default();
        move |s, row: &mut [f32]| buckets.sweep(adj, s, row)
    })
}

/// The out-edges regrouped once per solve, each vertex's light edges
/// (`w < Δ`) before its heavy ones, so neither phase tests a weight.
struct SplitAdjacency {
    delta: f32,
    /// `bounds[2u]..bounds[2u + 1]` are `u`'s light edges and
    /// `bounds[2u + 1]..bounds[2u + 2]` its heavy ones.
    bounds: Vec<usize>,
    edges: Vec<(u32, f32)>,
}

impl SplitAdjacency {
    fn new(g: &Graph, delta: f32) -> Self {
        assert!(delta > 0.0, "delta must be positive");
        let mut bounds = Vec::with_capacity(2 * g.n() + 1);
        let mut edges = Vec::with_capacity(g.m());
        bounds.push(0);
        for u in 0..g.n() {
            let (ts, ws) = g.out_edges(u);
            let arcs = || ts.iter().copied().zip(ws.iter().copied());
            for (v, w) in arcs() {
                assert!(w >= 0.0, "delta-stepping requires non-negative weights");
                if w < delta {
                    edges.push((v, w));
                }
            }
            bounds.push(edges.len());
            edges.extend(arcs().filter(|&(_, w)| w >= delta));
            bounds.push(edges.len());
        }
        SplitAdjacency { delta, bounds, edges }
    }

    fn light(&self, u: usize) -> &[(u32, f32)] {
        &self.edges[self.bounds[2 * u]..self.bounds[2 * u + 1]]
    }

    fn heavy(&self, u: usize) -> &[(u32, f32)] {
        &self.edges[self.bounds[2 * u + 1]..self.bounds[2 * u + 2]]
    }
}

/// One worker's bucket workspace, kept from source to source: between
/// sources every bucket is empty, and none is dropped.
#[derive(Default)]
struct Buckets {
    /// `buckets[i]` queues the vertices labelled in bucket `i`, `⌊d / Δ⌋`;
    /// only `buckets[..top]` can be non-empty.
    buckets: Vec<Vec<u32>>,
    top: usize,
    /// The vertices the current bucket's light phase settled.
    settled: Vec<u32>,
}

impl Buckets {
    /// Distances from `src` relaxed into `dist`, which arrives all `INF`.
    fn sweep(&mut self, adj: &SplitAdjacency, src: usize, dist: &mut [f32]) {
        self.relax(adj.delta, dist, src as u32, 0.0);
        let mut i = 0;
        while i < self.top {
            // bucket i is scanned in place while it grows; a heavy edge whose
            // label rounds into bucket i sends the scan round again
            let mut next = 0;
            while next < self.buckets[i].len() {
                while next < self.buckets[i].len() {
                    let u = self.buckets[i][next] as usize;
                    next += 1;
                    let du = dist[u];
                    if (du / adj.delta) as usize != i {
                        continue; // stale: relabelled into a lower bucket
                    }
                    self.settled.push(u as u32);
                    for &(v, w) in adj.light(u) {
                        self.relax(adj.delta, dist, v, du + w);
                    }
                }
                for k in 0..self.settled.len() {
                    let u = self.settled[k] as usize;
                    let du = dist[u];
                    for &(v, w) in adj.heavy(u) {
                        self.relax(adj.delta, dist, v, du + w);
                    }
                }
                self.settled.clear();
            }
            self.buckets[i].clear();
            i += 1;
        }
        self.top = 0;
    }

    /// Lowers `v`'s label to `d` and queues it, if `d` is shorter.
    #[inline]
    fn relax(&mut self, delta: f32, dist: &mut [f32], v: u32, d: f32) {
        if d < dist[v as usize] {
            dist[v as usize] = d;
            let i = (d / delta) as usize;
            if i >= self.buckets.len() {
                self.buckets.resize_with(i + 1, Vec::new);
            }
            self.buckets[i].push(v);
            self.top = self.top.max(i + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators::{self, WeightKind};
    use crate::graph::GraphBuilder;

    #[test]
    fn matches_dijkstra_across_deltas() {
        let g = generators::erdos_renyi(40, 0.15, WeightKind::small_ints(), 21);
        let want = dijkstra(&g, 0);
        for delta in [1.0, 5.0, 50.0, 1000.0] {
            assert_eq!(delta_stepping(&g, 0, delta), want, "delta={delta}");
        }
    }

    #[test]
    fn matches_dijkstra_on_dense_graph() {
        let g = generators::uniform_dense(25, WeightKind::small_ints(), 8);
        for s in [0, 12, 24] {
            assert_eq!(delta_stepping(&g, s, 10.0), dijkstra(&g, s));
        }
    }

    #[test]
    fn handles_unreachable_vertices() {
        let g = generators::multi_component(10, 2, WeightKind::small_ints(), 4);
        let d = delta_stepping(&g, 0, 7.0);
        assert_eq!(d[9], INF);
        assert_eq!(d[0], 0.0);
    }

    #[test]
    fn heavy_label_that_rounds_into_the_settling_bucket_is_still_scanned() {
        // Δ = 0.3: vertex 1 settles at 1.5 in bucket ⌊1.5 / 0.3⌋ = 5, and
        // its heavy edge (w = Δ) labels vertex 2 with 1.8, whose f32
        // quotient 5.9999995 puts it in bucket 5 again
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5).add_edge(1, 2, 0.3).add_edge(2, 3, 1.0);
        let g = b.build();
        assert_eq!(((1.5f32 + 0.3) / 0.3) as usize, 5);
        assert_eq!(delta_stepping(&g, 0, 0.3), dijkstra(&g, 0));
        assert!(apsp_by_delta_stepping(&g, 0.3, 1).eq_exact(&crate::dijkstra::apsp_by_dijkstra(&g)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0);
        delta_stepping(&b.build(), 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_delta() {
        let g = generators::unit_ring(3);
        delta_stepping(&g, 0, 0.0);
    }

    #[test]
    fn apsp_sweep_matches_per_source_calls_for_any_thread_count() {
        let g = generators::erdos_renyi(22, 0.25, WeightKind::small_ints(), 13);
        let mut want = srgemm::Matrix::filled(22, 22, INF);
        for s in 0..22 {
            want.row_mut(s).copy_from_slice(&delta_stepping(&g, s, 9.0));
        }
        for threads in [0, 1, 3] {
            assert!(apsp_by_delta_stepping(&g, 9.0, threads).eq_exact(&want), "threads={threads}");
        }
    }
}
