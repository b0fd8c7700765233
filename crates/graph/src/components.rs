//! Weakly connected components.
//!
//! The paper (§2.1, §6): "On graphs with multiple components one may use
//! graph connected-components algorithm \[30\], and perform Apsp on each
//! connected component of the graph." No directed path crosses a *weak*
//! component boundary, so the closure is `∞` across components. The solver
//! profile counts them: blocked FW gets the per-component saving without
//! splitting the graph, because fill-in never crosses a component — a
//! block whose rows and columns lie in two different components stays all
//! `∞` and is skipped.

use crate::graph::Graph;

/// Union-find with path halving and union by size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// The representative of `x`'s set.
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; `true` if they were two sets.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Weakly connected components: component id per vertex (ids are dense,
/// `0..count`, in order of first appearance).
pub fn weak_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.n();
    let mut uf = UnionFind::new(n);
    // once a single set is left no edge can merge anything: on a dense graph
    // that is after the first vertex's row, not after all n² edges
    let mut sets = n;
    'edges: for u in 0..n {
        for &v in g.out_edges(u).0 {
            if uf.union(u as u32, v) {
                sets -= 1;
                if sets == 1 {
                    break 'edges;
                }
            }
        }
    }
    let mut ids = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut comp = vec![0usize; n];
    for (v, c) in comp.iter_mut().enumerate() {
        let root = uf.find(v as u32) as usize;
        if ids[root] == usize::MAX {
            ids[root] = next;
            next += 1;
        }
        *c = ids[root];
    }
    (comp, next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};

    #[test]
    fn single_component_is_one_blob() {
        let g = generators::uniform_dense(12, WeightKind::small_ints(), 1);
        let (comp, count) = weak_components(&g);
        assert_eq!(count, 1);
        assert!(comp.iter().all(|&c| c == 0));
    }

    #[test]
    fn isolated_vertices_are_their_own_components() {
        let g = crate::graph::GraphBuilder::new(5).build();
        let (comp, count) = weak_components(&g);
        assert_eq!(count, 5);
        assert_eq!(comp, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn directed_edges_still_merge_weakly() {
        let mut b = crate::graph::GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).add_edge(2, 1, 1.0); // 0→1←2 weakly joined
        let (comp, count) = weak_components(&b.build());
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[0]);
    }
}
