//! Paper-scale rank counts for the full distributed FW pipeline.
//!
//! The acceptance bar for the event-driven executor: a 1024-rank
//! `distributed_apsp_traced_opts` run (32×32 grid — the paper's Fig. 8/9
//! node scale) completes on one small box with a bounded worker pool and
//! still reproduces sequential Floyd-Warshall bit-for-bit.

use std::time::Duration;

use apsp_core::dist::{distributed_apsp_traced_opts, DistRunOpts, FwConfig, Variant};
use apsp_core::fw_seq::fw_seq;
use apsp_core::verify::assert_matrices_equal;
use apsp_graph::generators::{self, GraphKind, WeightKind};
use mpi_sim::Placement;
use srgemm::MinPlusF32;

#[test]
fn distributed_apsp_runs_at_1024_ranks() {
    let (pr, pc) = (32usize, 32usize); // 1024 ranks
    let n = 64usize; // n/b = 32 block rows/cols → one block per process row

    let g = generators::generate(GraphKind::UniformDense, n, WeightKind::small_ints(), 4242);
    let input = g.to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);

    let mut cfg = FwConfig::new(2, Variant::Baseline);
    // one kernel thread per rank: 1024 ranks must not each try to grab the
    // host's full core budget for their in-core GEMM
    cfg.kernel_threads = Some(1);

    let opts = DistRunOpts {
        // ranks spend nearly all wall-clock parked waiting for one of the
        // few worker slots; that is queueing, not deadlock
        recv_timeout: Some(Duration::from_secs(300)),
        workers: Some(8),
        stack_bytes: Some(512 * 1024),
        ..Default::default()
    };
    // 4 ranks per node × 256 nodes, 2×2 tiles — the paper's Summit layout
    let placement = Placement::tiled(pr, pc, 2, 2);

    let (got, traffic, trace) =
        distributed_apsp_traced_opts::<MinPlusF32>(pr, pc, &cfg, &input, Some(placement), &opts)
            .expect("1024-rank distributed run");
    assert_matrices_equal(&want, &got, "1024 ranks, 32x32 grid");

    // per-phase NIC attribution stays exact at paper scale
    let phase_nic: u64 = trace.phase_traffic().values().map(|t| t.nic_bytes).sum();
    assert_eq!(phase_nic, traffic.total_nic_bytes());
    assert!(traffic.total_nic_bytes() > 0, "a 32x32 grid must exchange panels over the NIC");
}
