//! Dijkstra single-source shortest paths — the workspace's primary oracle.
//!
//! Binary-heap implementation, `O((m + n) log n)`, valid for non-negative
//! weights. Cited in the paper's related work (§6) as the classic SSSP
//! building block of Johnson's algorithm.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::graph::{Graph, INF};

/// Max-heap entry ordered so the *smallest* distance pops first.
#[derive(PartialEq)]
struct HeapItem {
    dist: f32,
    vertex: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want min-dist first
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.vertex.cmp(&other.vertex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Distances from `src` to every vertex (`∞` for unreachable).
///
/// # Panics
/// Panics if the graph has a negative edge.
pub fn dijkstra(g: &Graph, src: usize) -> Vec<f32> {
    let n = g.n();
    assert!(src < n, "source out of range");
    let mut dist = vec![INF; n];
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(HeapItem { dist: 0.0, vertex: src as u32 });

    while let Some(HeapItem { dist: d, vertex: u }) = heap.pop() {
        let u = u as usize;
        if settled[u] {
            continue;
        }
        settled[u] = true;
        let (ts, ws) = g.out_edges(u);
        for (&v, &w) in ts.iter().zip(ws) {
            assert!(w >= 0.0, "Dijkstra requires non-negative weights");
            let v = v as usize;
            let nd = d + w;
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(HeapItem { dist: nd, vertex: v as u32 });
            }
        }
    }
    dist
}

/// All-pairs by repeated Dijkstra; rows are sources. Quadratic memory —
/// test-scale only.
pub fn apsp_by_dijkstra(g: &Graph) -> srgemm::Matrix<f32> {
    let n = g.n();
    let mut out = srgemm::Matrix::filled(n, n, INF);
    for s in 0..n {
        let d = dijkstra(g, s);
        out.row_mut(s).copy_from_slice(&d);
    }
    out
}

/// [`apsp_by_dijkstra`] with the sources fanned out over at most `threads`
/// workers (`0` → all cores) — the embarrassingly parallel Johnson-style
/// APSP the paper's related work (§6) compares against. Requires
/// non-negative weights. Rows are bit-identical to the serial sweep for any
/// thread count.
pub fn apsp_by_dijkstra_threads(g: &Graph, threads: usize) -> srgemm::Matrix<f32> {
    crate::par_rows(g.n(), threads, || |s, row: &mut [f32]| row.copy_from_slice(&dijkstra(g, s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};
    use crate::graph::GraphBuilder;

    #[test]
    fn line_graph_distances() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0).add_edge(2, 3, 3.0);
        let d = dijkstra(&b.build(), 0);
        assert_eq!(d, vec![0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn prefers_cheaper_indirect_route() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 10.0).add_edge(0, 1, 1.0).add_edge(1, 2, 1.0);
        let d = dijkstra(&b.build(), 0);
        assert_eq!(d[2], 2.0);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let d = dijkstra(&b.build(), 0);
        assert_eq!(d[2], INF);
    }

    #[test]
    fn ring_distances_modular() {
        let g = generators::unit_ring(6);
        let d = dijkstra(&g, 2);
        for (j, &dj) in d.iter().enumerate() {
            assert_eq!(dj, ((j + 6 - 2) % 6) as f32);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_edges() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0);
        dijkstra(&b.build(), 0);
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0).add_edge(1, 2, 0.0);
        let d = dijkstra(&b.build(), 0);
        assert_eq!(d, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn parallel_apsp_matches_serial() {
        let g = generators::erdos_renyi(30, 0.2, WeightKind::small_ints(), 6);
        let serial = apsp_by_dijkstra(&g);
        let parallel = apsp_by_dijkstra_threads(&g, 0);
        assert!(serial.eq_exact(&parallel));
    }

    #[test]
    fn apsp_rows_are_per_source() {
        let g = generators::uniform_dense(12, WeightKind::small_ints(), 5);
        let apsp = apsp_by_dijkstra(&g);
        for s in 0..12 {
            assert_eq!(apsp.row(s), &dijkstra(&g, s)[..]);
            assert_eq!(apsp[(s, s)], 0.0);
        }
    }
}
