//! Δ-stepping SSSP (Meyer & Sanders) — the Dijkstra/Bellman-Ford hybrid
//! cited in the paper's related work (§6).
//!
//! Vertices are kept in buckets of width Δ; light edges (`w < Δ`) are relaxed
//! inside a bucket's fixpoint, heavy edges once when the bucket settles.
//! Sequential implementation — its purpose here is algorithmic fidelity and
//! to serve as yet another independent oracle, not parallel speed.

use crate::graph::{Graph, INF};

/// Distances from `src` using Δ-stepping with bucket width `delta`.
///
/// # Panics
/// Panics on negative weights or non-positive `delta`.
pub fn delta_stepping(g: &Graph, src: usize, delta: f32) -> Vec<f32> {
    let n = g.n();
    assert!(src < n, "source out of range");
    assert!(delta > 0.0, "delta must be positive");

    let mut dist = vec![INF; n];
    let mut buckets: Vec<Vec<u32>> = Vec::new();
    let bucket_of = |d: f32, delta: f32| (d / delta) as usize;

    let place = |buckets: &mut Vec<Vec<u32>>, v: usize, d: f32| {
        let idx = bucket_of(d, delta);
        if buckets.len() <= idx {
            buckets.resize_with(idx + 1, Vec::new);
        }
        buckets[idx].push(v as u32);
    };

    dist[src] = 0.0;
    place(&mut buckets, src, 0.0);

    let mut i = 0;
    while i < buckets.len() {
        // settle bucket i to a fixpoint over light edges
        let mut settled_this_round: Vec<u32> = Vec::new();
        loop {
            let frontier = std::mem::take(&mut buckets[i]);
            if frontier.is_empty() {
                break;
            }
            for &u in &frontier {
                let u = u as usize;
                // stale entry?
                if bucket_of(dist[u], delta) != i {
                    continue;
                }
                settled_this_round.push(u as u32);
                let (ts, ws) = g.out_edges(u);
                for (&v, &w) in ts.iter().zip(ws) {
                    assert!(w >= 0.0, "delta-stepping requires non-negative weights");
                    if w < delta {
                        let nd = dist[u] + w;
                        if nd < dist[v as usize] {
                            dist[v as usize] = nd;
                            place(&mut buckets, v as usize, nd);
                        }
                    }
                }
            }
        }
        // relax heavy edges out of everything settled in bucket i
        for &u in &settled_this_round {
            let u = u as usize;
            let du = dist[u];
            let (ts, ws) = g.out_edges(u);
            for (&v, &w) in ts.iter().zip(ws) {
                if w >= delta {
                    let nd = du + w;
                    if nd < dist[v as usize] {
                        dist[v as usize] = nd;
                        place(&mut buckets, v as usize, nd);
                    }
                }
            }
        }
        i += 1;
    }
    dist
}

/// All-pairs by one Δ-stepping sweep per source, fanned out over at most
/// `threads` workers (`0` → all cores).
/// Requires non-negative weights and positive `delta`.
pub fn apsp_by_delta_stepping(g: &Graph, delta: f32, threads: usize) -> srgemm::Matrix<f32> {
    let n = g.n();
    let rows = crate::par_rows(n, threads, |s| delta_stepping(g, s, delta));
    let mut out = srgemm::Matrix::filled(n, n, INF);
    for (s, row) in rows.into_iter().enumerate() {
        out.row_mut(s).copy_from_slice(&row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use crate::generators::{self, WeightKind};

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
