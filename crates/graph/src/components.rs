//! Connected components and component-wise APSP.
//!
//! The paper (§2.1, §6): "On graphs with multiple components one may use
//! graph connected-components algorithm \[30\], and perform Apsp on each
//! connected component of the graph." No directed path crosses a *weak*
//! component boundary, so solving each component independently and leaving
//! `∞` across components is exact — and on a graph with `c` equal
//! components it cuts the `O(n³)` dense cost by `c²`.

use crate::graph::{Graph, GraphBuilder, INF};

/// Union-find with path halving and union by size.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            self.parent[x as usize] = self.parent[self.parent[x as usize] as usize];
            x = self.parent[x as usize];
        }
        x
    }

    /// Merge the sets of `a` and `b`; `true` if they were two sets.
    fn union(&mut self, a: u32, b: u32) -> bool {
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

/// Vertices per component, in ascending vertex order.
pub fn component_members(comp: &[usize], count: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); count];
    for (v, &c) in comp.iter().enumerate() {
        out[c].push(v);
    }
    out
}

/// The induced subgraph on `members`, plus the local→global vertex map.
pub fn induced_subgraph(g: &Graph, members: &[usize]) -> Graph {
    let mut local_of = std::collections::HashMap::new();
    for (li, &v) in members.iter().enumerate() {
        local_of.insert(v, li);
    }
    let mut b = GraphBuilder::new(members.len());
    for &u in members {
        let (ts, ws) = g.out_edges(u);
        for (&v, &w) in ts.iter().zip(ws) {
            if let Some(&lv) = local_of.get(&(v as usize)) {
                b.add_edge(local_of[&u], lv, w);
            }
        }
    }
    b.build()
}

/// Component-wise APSP: decompose into weak components, solve each with
/// `solver` (a dense in-place APSP like blocked FW), and assemble the full
/// matrix with `∞` across components. Returns the matrix and the component
/// count.
pub fn componentwise_apsp(
    g: &Graph,
    mut solver: impl FnMut(&mut srgemm::Matrix<f32>),
) -> (srgemm::Matrix<f32>, usize) {
    let n = g.n();
    let (comp, count) = weak_components(g);
    let members = component_members(&comp, count);
    let mut out = srgemm::Matrix::filled(n, n, INF);
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
    for m in &members {
        let sub = induced_subgraph(g, m);
        let mut d = sub.to_dense();
        solver(&mut d);
        for (li, &gi) in m.iter().enumerate() {
            for (lj, &gj) in m.iter().enumerate() {
                out[(gi, gj)] = d[(li, lj)];
            }
        }
    }
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::apsp_by_dijkstra;
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

    #[test]
    fn componentwise_apsp_matches_global_solve() {
        let g = generators::multi_component(30, 3, WeightKind::small_ints(), 9);
        let want = apsp_by_dijkstra(&g);
        let (got, count) = componentwise_apsp(&g, |d| {
            srgemm::closure::fw_closure::<srgemm::MinPlusF32>(&mut d.view_mut());
        });
        assert_eq!(count, 3);
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn induced_subgraph_preserves_weights() {
        let g = generators::multi_component(9, 3, WeightKind::small_ints(), 2);
        let (comp, count) = weak_components(&g);
        let members = component_members(&comp, count);
        for m in &members {
            let sub = induced_subgraph(&g, m);
            assert_eq!(sub.n(), m.len());
            for (li, &gu) in m.iter().enumerate() {
                for (lj, &gv) in m.iter().enumerate() {
                    assert_eq!(sub.weight(li, lj), g.weight(gu, gv));
                }
            }
        }
    }
}
