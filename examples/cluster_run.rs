//! Distributed APSP on the in-process cluster: runs every ParallelFw
//! preset on a thread-backed "MPI" with a 2×3 process grid spread over 3
//! simulated nodes, verifies every result against sequential
//! Floyd-Warshall, and prints the measured NIC traffic per variant —
//! the functional counterpart of the paper's §5.2 experiments.
//!
//! ```text
//! cargo run --release --example cluster_run -- [n]
//! ```

use apsp_core::dist::{distributed_apsp_opts, DistRunOpts, FwConfig, Variant};
use apsp_core::fw_seq::fw_seq;
use apsp_core::model::comm_lower_bound_bytes;
use apsp_core::verify::assert_matrices_equal;
use apsp_graph::generators::{uniform_dense, WeightKind};
use mpi_sim::Placement;
use srgemm::MinPlusF32;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(240);
    let (pr, pc) = (2usize, 3usize);
    println!("== distributed APSP: n = {n}, grid {pr}×{pc}, 6 ranks on 3 nodes ==\n");

    let graph = uniform_dense(n, WeightKind::small_ints(), 11);
    let input = graph.to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);

    // 2 ranks per node, like the paper's 2 MPI ranks per GPU
    let placement = Placement::contiguous(pr, pc, 2);

    println!(
        "{:<10} {:>14} {:>14} {:>14} {:>10}",
        "variant", "NIC bytes", "max node NIC", "intra bytes", "messages"
    );
    for variant in Variant::all() {
        let cfg = FwConfig::new(40, variant);
        let (got, traffic) =
            distributed_apsp_opts::<MinPlusF32>(
                pr, pc, &cfg, &input, Some(placement.clone()), &DistRunOpts::default(),
            )
                .unwrap_or_else(|e| panic!("{}: {e}", variant.legend()));
        assert_matrices_equal(&want, &got, variant.legend());
        println!(
            "{:<10} {:>14} {:>14} {:>14} {:>10}",
            variant.legend(),
            traffic.total_nic_bytes(),
            traffic.max_node_nic_bytes(),
            traffic.total_intra_bytes(),
            traffic.total_msgs
        );
    }

    println!("\nall variants match sequential Floyd-Warshall bit-for-bit ✓");
    let bound = comm_lower_bound_bytes(n, 1, 3, 4);
    println!("§3.4.1 per-node volume lower bound for K=1×3: {bound:.0} bytes");
}
