//! Seidel's algorithm for unweighted undirected APSP — related work §6
//! (\[35\]: "Seidel showed a way to use fast matrix multiplication algorithms
//! … for the solution of the APSP problem by embedding the semiring into a
//! ring").
//!
//! For a *connected, undirected, unweighted* graph: square the graph
//! (Boolean matrix product) until complete, recurse, then recover the exact
//! distances from the halved instance with one *integer* matrix product —
//! the textbook demonstration that APSP reduces to ring matrix
//! multiplication. Built entirely from this workspace's generic GEMM
//! (`BoolOr` for the squaring, `RealArith` for the counting product).

use srgemm::gemm::gemm_packed;
use srgemm::semiring::{BoolOr, RealArith};
use srgemm::Matrix;

use crate::graph::Graph;

/// Errors from [`seidel_apsp`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeidelError {
    /// The adjacency structure is not symmetric.
    NotUndirected,
    /// The graph is not connected (Seidel requires a single component).
    Disconnected,
}

/// Hop-count APSP of a connected undirected graph. Edge weights are
/// ignored (treated as 1).
pub fn seidel_apsp(g: &Graph) -> Result<Matrix<u32>, SeidelError> {
    let n = g.n();
    let mut adj = Matrix::filled(n, n, false);
    for (u, v, _) in g.edges() {
        adj[(u, v)] = true;
    }
    for i in 0..n {
        for j in 0..n {
            if adj[(i, j)] != adj[(j, i)] {
                return Err(SeidelError::NotUndirected);
            }
        }
        adj[(i, i)] = false;
    }
    if n == 0 {
        return Ok(Matrix::filled(0, 0, 0));
    }
    // connectivity check via the Boolean closure of (I ∪ A)
    {
        let mut reach = adj.clone();
        srgemm::closure::fw_closure::<BoolOr>(&mut reach.view_mut());
        for j in 0..n {
            if !reach[(0, j)] {
                return Err(SeidelError::Disconnected);
            }
        }
    }
    Ok(seidel_recurse(&adj))
}

fn seidel_recurse(a: &Matrix<bool>) -> Matrix<u32> {
    let n = a.rows();
    // base: complete graph ⇒ distance 1 everywhere off-diagonal
    let complete = (0..n).all(|i| (0..n).all(|j| i == j || a[(i, j)]));
    if complete {
        return Matrix::from_fn(n, n, |i, j| u32::from(i != j));
    }

    // B = A ∪ A² (boolean squaring: the graph of ≤2-hop reachability)
    let mut b = a.clone();
    gemm_packed::<BoolOr>(&mut b.view_mut(), &a.view(), &a.view());
    for i in 0..n {
        b[(i, i)] = false;
    }

    let d_half = seidel_recurse(&b);

    // S = D' × A over the integers: s[i][j] = Σ_k d'[i][k]·a[k][j]
    let df = Matrix::from_fn(n, n, |i, j| d_half[(i, j)] as f64);
    let af = Matrix::from_fn(n, n, |i, j| f64::from(a[(i, j)]));
    let mut s = Matrix::filled(n, n, 0.0f64);
    gemm_packed::<RealArith<f64>>(&mut s.view_mut(), &df.view(), &af.view());

    // degree of each vertex
    let deg: Vec<f64> = (0..n)
        .map(|j| (0..n).map(|i| f64::from(a[(i, j)])).sum())
        .collect();

    // d[i][j] = 2·d'[i][j] − [ s[i][j] < d'[i][j] · deg(j) ]
    Matrix::from_fn(n, n, |i, j| {
        let twice = 2 * d_half[(i, j)];
        if s[(i, j)] < d_half[(i, j)] as f64 * deg[j] {
            twice - 1
        } else {
            twice
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::apsp_by_bfs;
    use crate::generators::{self, WeightKind};
    use crate::graph::GraphBuilder;

    fn undirected_connected(n: usize, extra: usize, seed: u64) -> Graph {
        // a random tree plus `extra` random chords → connected, undirected
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            let u = (next() % v as u64) as usize;
            b.add_undirected(u, v, 1.0);
        }
        for _ in 0..extra {
            let u = (next() % n as u64) as usize;
            let v = (next() % n as u64) as usize;
            if u != v {
                b.add_undirected(u, v, 1.0);
            }
        }
        b.build()
    }

    #[test]
    fn matches_bfs_on_random_connected_graphs() {
        for (n, extra, seed) in [(8usize, 3usize, 1u64), (17, 10, 2), (33, 20, 3), (24, 0, 4)] {
            let g = undirected_connected(n, extra, seed);
            let want = apsp_by_bfs(&g);
            let got = seidel_apsp(&g).expect("connected undirected");
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(got[(i, j)] as f32, want[(i, j)], "({i},{j}) n={n}");
                }
            }
        }
    }

    #[test]
    fn complete_graph_base_case() {
        let g = generators::uniform_dense(6, WeightKind::Integer { lo: 1, hi: 1 }, 1);
        // uniform_dense is a complete digraph with symmetric structure
        let d = seidel_apsp(&g).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(d[(i, j)], u32::from(i != j));
            }
        }
    }

    #[test]
    fn rejects_directed_graphs() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0); // one-way
        assert_eq!(seidel_apsp(&b.build()), Err(SeidelError::NotUndirected));
    }

    #[test]
    fn rejects_disconnected_graphs() {
        let mut b = GraphBuilder::new(4);
        b.add_undirected(0, 1, 1.0);
        b.add_undirected(2, 3, 1.0);
        assert_eq!(seidel_apsp(&b.build()), Err(SeidelError::Disconnected));
    }

    #[test]
    fn path_graph_distances_are_exact() {
        let mut b = GraphBuilder::new(9);
        for i in 0..8 {
            b.add_undirected(i, i + 1, 1.0);
        }
        let d = seidel_apsp(&b.build()).unwrap();
        assert_eq!(d[(0, 8)], 8);
        assert_eq!(d[(3, 5)], 2);
        assert_eq!(d[(4, 4)], 0);
    }
}
