//! Path length and validation helpers.
//!
//! Used by `apsp route` (which refuses a route that fails the check), the
//! examples, and tests that check not just distances but the realizability
//! of the reported paths. The paths themselves come from one place: the
//! predecessor witnesses of `apsp_core::paths_dist`, which any of the FW
//! solvers carries by running the `MinPlusPred` semiring — distributed
//! shortest-*path* generation, the paper's declared future work (§7).

use crate::graph::{Graph, INF};

/// Sum of edge weights along `path`; `∞` if some edge is missing.
pub fn path_length(g: &Graph, path: &[usize]) -> f32 {
    let mut total = 0.0;
    for win in path.windows(2) {
        let w = g.weight(win[0], win[1]);
        if w == INF {
            return INF;
        }
        total += w;
    }
    total
}

/// Check that `path` starts at `src`, ends at `dst`, uses only existing
/// edges, and has total length `expected` (within `tol`).
pub fn validate_path(g: &Graph, path: &[usize], src: usize, dst: usize, expected: f32, tol: f32) -> bool {
    if path.first() != Some(&src) || path.last() != Some(&dst) {
        return false;
    }
    let len = path_length(g, path);
    if len == INF && expected == INF {
        return true;
    }
    (len - expected).abs() <= tol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn validate_rejects_fake_paths() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, 1.0);
        let g = b.build();
        // 0 -> 2 directly is not an edge
        assert!(!validate_path(&g, &[0, 2], 0, 2, 2.0, 1e-6));
        // wrong total
        assert!(!validate_path(&g, &[0, 1, 2], 0, 2, 5.0, 1e-6));
        // right path, right total
        assert!(validate_path(&g, &[0, 1, 2], 0, 2, 2.0, 1e-6));
    }
}
