//! Johnson's all-pairs shortest paths — the sparse-graph comparator from the
//! paper's related work (§6).
//!
//! Bellman-Ford from a virtual super-source computes a potential `h`, edges
//! are reweighted to `w'(u,v) = w(u,v) + h(u) − h(v) ≥ 0`, then one Dijkstra
//! per source recovers the true distances. `O(mn + n² log n)` — beats dense
//! Floyd-Warshall when `m = O(n)`. Without a negative edge every potential
//! is zero, so the reweighting is skipped and the sweep is plain per-source
//! Dijkstra.

use crate::bellman_ford::{bellman_ford, BellmanFord};
use crate::dijkstra::{apsp_by_dijkstra_threads, dijkstra};
use crate::graph::{Graph, GraphBuilder, INF};
use srgemm::Matrix;

/// Error surface for [`johnson_apsp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JohnsonError {
    /// A negative cycle makes shortest paths undefined.
    NegativeCycle,
}

/// All-pairs distance matrix by Johnson's algorithm (serial).
pub fn johnson_apsp(g: &Graph) -> Result<Matrix<f32>, JohnsonError> {
    johnson_apsp_threads(g, 1)
}

/// [`johnson_apsp`] with the Dijkstra sweep parallelized over sources,
/// capped at `threads` workers (`0` → all cores; callers sharing the
/// machine pass their budget). Every source's row is produced by the
/// same code path in the same float-op order as the serial sweep, so the
/// result is bit-identical for any thread count. On a graph without a
/// negative edge this is [`apsp_by_dijkstra_threads`]: Bellman-Ford and the
/// reweighted copy run only when some edge needs them.
pub fn johnson_apsp_threads(g: &Graph, threads: usize) -> Result<Matrix<f32>, JohnsonError> {
    if !g.edges().any(|(_, _, w)| w < 0.0) {
        return Ok(apsp_by_dijkstra_threads(g, threads));
    }
    let n = g.n();

    // augmented graph: super-source n with zero edges to everyone
    let mut aug = GraphBuilder::new(n + 1);
    for (u, v, w) in g.edges() {
        aug.add_edge(u, v, w);
    }
    for v in 0..n {
        aug.add_edge(n, v, 0.0);
    }
    let h = match bellman_ford(&aug.build(), n) {
        BellmanFord::Distances(h) => h,
        BellmanFord::NegativeCycle => return Err(JohnsonError::NegativeCycle),
    };

    // reweight: w' = w + h[u] - h[v] (≥ 0 by the shortest-path property)
    let mut rw = GraphBuilder::new(n);
    for (u, v, w) in g.edges() {
        let w2 = w + h[u] - h[v];
        debug_assert!(w2 >= -1e-4, "reweighted edge must be non-negative");
        rw.add_edge(u, v, w2.max(0.0));
    }
    let rw = rw.build();

    let rows = crate::par_rows(n, threads, |s| johnson_row(&rw, &h, s));
    let mut out = Matrix::filled(n, n, INF);
    for (s, row) in rows.into_iter().enumerate() {
        out.row_mut(s).copy_from_slice(&row);
    }
    Ok(out)
}

/// One source's distance row: Dijkstra on the reweighted graph, shifted
/// back through the potentials. Shared verbatim by the serial and parallel
/// sweeps (that is what makes them bit-identical).
fn johnson_row(rw: &Graph, h: &[f32], s: usize) -> Vec<f32> {
    let n = rw.n();
    let d = dijkstra(rw, s);
    let mut row = vec![INF; n];
    for t in 0..n {
        if d[t] < INF {
            row[t] = d[t] - h[s] + h[t];
        }
    }
    row[s] = row[s].min(0.0);
    row
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::apsp_by_dijkstra;
    use crate::generators::{self, WeightKind};
    use crate::graph::GraphBuilder;

    #[test]
    fn matches_dijkstra_apsp_on_nonnegative_graphs() {
        let g = generators::erdos_renyi(25, 0.25, WeightKind::small_ints(), 11);
        let want = apsp_by_dijkstra(&g);
        let got = johnson_apsp(&g).unwrap();
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn handles_negative_edges() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0)
            .add_edge(1, 2, -1.0)
            .add_edge(2, 3, 2.0)
            .add_edge(0, 3, 10.0);
        let got = johnson_apsp(&b.build()).unwrap();
        assert_eq!(got[(0, 3)], 3.0); // 2 - 1 + 2
        assert_eq!(got[(0, 2)], 1.0);
        assert_eq!(got[(3, 0)], INF);
    }

    #[test]
    fn rejects_negative_cycles() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0).add_edge(1, 0, -1.0);
        assert_eq!(johnson_apsp(&b.build()), Err(JohnsonError::NegativeCycle));
    }

    #[test]
    fn multi_component_graphs_keep_infinities() {
        let g = generators::multi_component(12, 3, WeightKind::small_ints(), 2);
        let got = johnson_apsp(&g).unwrap();
        assert_eq!(got[(0, 11)], INF);
        assert!(got[(0, 1)] < INF);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        let got = johnson_apsp(&g).unwrap();
        assert_eq!(got.rows(), 0);
    }

    #[test]
    fn parallel_sweep_matches_serial_bit_for_bit() {
        // fractional weights shifted by −1 (negative edges: the potential
        // shift h[s]/h[t] is live) and by 0 (no negative edge: the plain
        // Dijkstra sweep, which must equal `apsp_by_dijkstra`)
        for shift in [-1.0, 0.0] {
            let mut b = GraphBuilder::new(30);
            let mut state = 99u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state
            };
            for i in 0..29 {
                b.add_edge(i, i + 1, ((next() % 100) as f32) / 7.0 + shift);
            }
            for _ in 0..60 {
                let (u, v) = ((next() % 30) as usize, (next() % 30) as usize);
                if u < v {
                    b.add_edge(u, v, ((next() % 100) as f32) / 7.0 + shift);
                }
            }
            let g = b.build();
            let serial = johnson_apsp(&g).unwrap();
            if shift == 0.0 {
                assert!(serial.eq_exact(&apsp_by_dijkstra(&g)));
            }
            for threads in [0, 2, 3, 7] {
                let par = johnson_apsp_threads(&g, threads).unwrap();
                assert!(serial.eq_exact(&par), "shift={shift} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_sweep_propagates_negative_cycle() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, -3.0).add_edge(2, 1, 1.0);
        assert_eq!(johnson_apsp_threads(&b.build(), 4), Err(JohnsonError::NegativeCycle));
    }
}
