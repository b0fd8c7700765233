//! Rank-to-node placement — the paper's §3.4 (*Optimal Rank Ordering*).
//!
//! A `P_r × P_c` MPI grid runs on a `K_r × K_c` grid of *nodes*, each node
//! hosting a `Q_r × Q_c` sub-grid of ranks (`P_r = K_r·Q_r`,
//! `P_c = K_c·Q_c`). Where ranks land decides how much of each broadcast
//! crosses the NIC. Two layouts are provided:
//!
//! * [`Placement::contiguous`] — "typical" MPI default: consecutive world
//!   ranks fill a node (`1 × Q` or `Q × 1` intranode grids, paper §3.4.1);
//! * [`Placement::tiled`] — the paper's optimal layout (Fig. 1): each node
//!   owns a `Q_r × Q_c` *tile* of the process grid so that both its row and
//!   column footprints shrink.

/// Maps world ranks to node ids. Ranks are laid out on a `pr × pc` grid in
/// row-major order (`rank = r·pc + c`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Placement {
    /// node id per world rank
    node_of: Vec<usize>,
}

impl Placement {
    /// Every rank on its own node (the degenerate `Q = 1` case); all traffic
    /// is inter-node. This is the default when no placement is given.
    pub fn one_rank_per_node(p: usize) -> Self {
        Placement { node_of: (0..p).collect() }
    }

    /// All ranks on a single node; no traffic crosses a NIC.
    pub fn single_node(p: usize) -> Self {
        Placement { node_of: vec![0; p] }
    }

    /// Consecutive world ranks share a node, `q` ranks per node. With a
    /// row-major `pr × pc` process grid this produces the `1 × Q` / `Q × 1`
    /// style intranode footprints the paper calls "typical".
    pub fn contiguous(pr: usize, pc: usize, q: usize) -> Self {
        assert!(q > 0 && (pr * pc).is_multiple_of(q), "q must divide P");
        Placement { node_of: (0..pr * pc).map(|r| r / q).collect() }
    }

    /// Paper Fig. 1: node `(kr, kc)` owns the `qr × qc` tile of grid
    /// coordinates `[kr·qr .. (kr+1)·qr) × [kc·qc .. (kc+1)·qc)`.
    ///
    /// # Panics
    /// Panics unless `qr | pr` and `qc | pc`.
    pub fn tiled(pr: usize, pc: usize, qr: usize, qc: usize) -> Self {
        assert!(qr > 0 && qc > 0 && pr.is_multiple_of(qr) && pc.is_multiple_of(qc), "Q grid must tile P grid");
        let kc = pc / qc;
        let node_of = (0..pr * pc)
            .map(|rank| {
                let (r, c) = (rank / pc, rank % pc);
                (r / qr) * kc + (c / qc)
            })
            .collect();
        Placement { node_of }
    }

    /// Node hosting world rank `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        self.node_of[rank]
    }

    /// Total ranks.
    pub fn num_ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of distinct nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_of.iter().copied().max().map_or(0, |m| m + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_packs_consecutive_ranks() {
        let p = Placement::contiguous(4, 6, 6);
        assert_eq!(p.num_nodes(), 4);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(5), 0);
        assert_eq!(p.node_of(6), 1);
        assert_eq!(p.node_of(23), 3);
    }

    #[test]
    fn tiled_matches_figure_1_shape() {
        // paper Fig. 1: K=4 nodes, Q=6 ranks/node, 24 ranks.
        // take P = 4x6 with Q = 2x3 → K = 2x2.
        let p = Placement::tiled(4, 6, 2, 3);
        assert_eq!(p.num_nodes(), 4);
        // rank (0,0) and (1,2) share node 0; (0,3) is node 1; (2,0) is node 2.
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(6 + 2), 0); // grid (1,2)
        assert_eq!(p.node_of(3), 1); // grid (0,3)
        assert_eq!(p.node_of(2 * 6), 2); // grid (2,0)
    }

    #[test]
    fn tiled_every_node_hosts_q_ranks() {
        let p = Placement::tiled(8, 6, 2, 2);
        let mut per_node = vec![0usize; p.num_nodes()];
        for r in 0..p.num_ranks() {
            per_node[p.node_of(r)] += 1;
        }
        assert!(per_node.iter().all(|&c| c == 4));
        assert_eq!(p.num_nodes(), 12);
    }

    #[test]
    fn single_node_has_no_nodes_to_cross() {
        let p = Placement::single_node(12);
        assert_eq!(p.num_nodes(), 1);
        assert!((0..12).all(|r| p.node_of(r) == 0));
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn tiled_requires_divisibility() {
        Placement::tiled(4, 6, 3, 2);
    }
}
