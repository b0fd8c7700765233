//! The paper's performance models and reporting metrics.
//!
//! * Eq. 1 — total ParallelFw cost `2n³/P·t_f + 2(n/b)·t_l + t_w·(n²/P_r + n²/P_c)`.
//! * §3.4.1 — per-node NIC volume lower bound `t_w·(n²·Q_r/P_r + n²·Q_c/P_c)`.
//! * Eq. 4 — the flops of a GPU DiagUpdate by repeated squaring.
//! * §5.1.3 — the effective-bandwidth metric `W_min / t_FW` and flop-rate
//!   normalizations used by every figure harness.

use cluster_sim::MachineSpec;

/// Total semiring flops of Floyd-Warshall on `n` vertices (the paper's
/// `2n³` convention: one ⊕ and one ⊗ per relaxation).
pub fn fw_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Eq. 4: GEMM flops of closing a `b × b` diagonal block on the GPU by
/// repeated squaring — `⌈log₂ b⌉ · 2b³`. The CPU closes it with the `2b³`
/// of [`srgemm::closure::fw_closure`]; only the schedule simulator prices
/// this form.
pub fn closure_squaring_flops(b: usize) -> f64 {
    if b <= 1 {
        return 2.0 * (b as f64).powi(3);
    }
    let rounds = (usize::BITS - (b - 1).leading_zeros()) as f64;
    rounds * 2.0 * (b as f64).powi(3)
}

/// Eq. 1: predicted ParallelFw seconds on `spec` with an `P_r×P_c` grid of
/// `P` ranks, `elem_bytes`-sized elements and block size `b`, **without**
/// overlap (the baseline's bulk-synchronous bound).
pub fn eq1_total_time(
    spec: &MachineSpec,
    n: usize,
    b: usize,
    kr: usize,
    kc: usize,
    elem_bytes: usize,
) -> f64 {
    let t_f = 1.0 / spec.total_flops();
    let t_w = elem_bytes as f64 / spec.nic_bw;
    let t_l = spec.nic_latency;
    let n_f = n as f64;
    let comp = fw_flops(n) * t_f;
    let lat = 2.0 * (n_f / b as f64) * t_l * ((kr.max(kc)) as f64).log2().max(1.0);
    let bw = t_w * (n_f * n_f / kr as f64 + n_f * n_f / kc as f64);
    comp + lat + bw
}

/// §3.4.1: minimum bytes leaving any single node's NIC over the whole run,
/// for a `K_r×K_c` node grid: `elem_bytes · (n²/K_r + n²/K_c)`.
pub fn comm_lower_bound_bytes(n: usize, kr: usize, kc: usize, elem_bytes: usize) -> f64 {
    let n2 = (n as f64) * (n as f64);
    elem_bytes as f64 * (n2 / kr as f64 + n2 / kc as f64)
}

/// §5.1.3 effective bandwidth: `W_min / t_FW`, where `W_min` is the minimum
/// per-node volume **among all placements** for this node count — i.e. the
/// square-node-grid bound — and `t_fw` the measured/simulated total seconds.
/// Bytes/second.
pub fn effective_bandwidth(n: usize, nodes: usize, elem_bytes: usize, t_fw: f64) -> f64 {
    let (kr, kc) = best_node_grid(nodes);
    comm_lower_bound_bytes(n, kr, kc, elem_bytes) / t_fw
}

/// The most-square factorization `K_r × K_c = nodes` with `K_r ≤ K_c`.
pub fn best_node_grid(nodes: usize) -> (usize, usize) {
    assert!(nodes > 0);
    let mut best = (1, nodes);
    let mut r = 1;
    while r * r <= nodes {
        if nodes.is_multiple_of(r) {
            best = (r, nodes / r);
        }
        r += 1;
    }
    best
}

/// Problem-size feasibility for the *in-GPU-memory* variants: every rank's
/// local share (`n²/P` elements) plus the two panels must fit in one GPU.
/// Offload only needs panels + tiles. Returns the largest n (in vertices).
pub fn max_vertices_in_gpu_memory(spec: &MachineSpec, elem_bytes: usize) -> usize {
    // P = nodes × gpus_per_node ranks (1 rank/GPU); local share n²/P bytes
    // must fit alongside panel double-buffers, broadcast staging, and GEMM
    // workspace. The usable fraction is calibrated to the paper's observed
    // feasibility frontier: 300k vertices fit on 16 nodes (Figs. 8-9,
    // 3.75 GB/GPU) but 660k do not fit on 64 (Fig. 7, 4.54 GB/GPU) while
    // 524k do (2.86 GB/GPU). 0.25 · 16 GB = 4 GB/GPU puts the 64-node wall
    // at ≈642k, inside the paper's bracket, and keeps 300k/16-node runs
    // feasible.
    let p = (spec.nodes * spec.gpus_per_node) as f64;
    let usable = 0.25 * spec.gpu_mem_bytes as f64;
    ((usable * p / elem_bytes as f64).sqrt()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fw_flop_convention() {
        assert_eq!(fw_flops(100), 2e6);
    }

    #[test]
    fn squaring_flop_model() {
        assert_eq!(closure_squaring_flops(1), 2.0);
        // b=8: 3 rounds of 2·8³
        assert_eq!(closure_squaring_flops(8), 3.0 * 2.0 * 512.0);
        // b=9: 4 rounds
        assert_eq!(closure_squaring_flops(9), 4.0 * 2.0 * 729.0);
    }

    #[test]
    fn best_node_grid_prefers_square() {
        assert_eq!(best_node_grid(64), (8, 8));
        assert_eq!(best_node_grid(16), (4, 4));
        assert_eq!(best_node_grid(12), (3, 4));
        assert_eq!(best_node_grid(7), (1, 7));
        assert_eq!(best_node_grid(1), (1, 1));
    }

    #[test]
    fn lower_bound_scales_with_grid_shape() {
        // square grid halves the volume of a 16x1 grid at 16 nodes
        let sq = comm_lower_bound_bytes(1000, 4, 4, 4);
        let skinny = comm_lower_bound_bytes(1000, 16, 1, 4);
        assert!(sq < skinny);
        assert_eq!(sq, 4.0 * (1e6 / 4.0 + 1e6 / 4.0));
    }

    #[test]
    fn eq1_compute_term_dominates_large_n() {
        let spec = MachineSpec::summit(64);
        let small = eq1_total_time(&spec, 30_000, 768, 8, 8, 4);
        let large = eq1_total_time(&spec, 500_000, 768, 8, 8, 4);
        let comp_small = fw_flops(30_000) / spec.total_flops();
        let comp_large = fw_flops(500_000) / spec.total_flops();
        // at large n, the total approaches the compute term
        assert!(large / comp_large < 1.2);
        assert!(small / comp_small > 1.5); // bandwidth-dominated
    }

    #[test]
    fn summit_64_nodes_gpu_memory_wall_near_524k() {
        // paper Fig. 7: non-offload variants stop at 524,288 vertices on 64
        // nodes; the capacity model must land in that neighborhood
        let spec = MachineSpec::summit(64);
        let max_n = max_vertices_in_gpu_memory(&spec, 4);
        assert!(
            (400_000..700_000).contains(&max_n),
            "GPU-memory wall at {max_n}, expected ≈524k"
        );
    }

    #[test]
    fn effective_bandwidth_metric_matches_hand_computation() {
        // 4 nodes → K=2x2, W_min = eb·(n²/2+n²/2) = eb·n²
        let bw = effective_bandwidth(1000, 4, 4, 2.0);
        assert_eq!(bw, 4.0 * 1e6 / 2.0);
    }
}
