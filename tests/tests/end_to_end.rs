//! Workspace-spanning integration tests: graph generators → distributed
//! algorithms over the MPI substrate → offload through the GPU substrate →
//! oracle validation, plus schedule-level consistency with the functional
//! runs.

use apsp_core::dist::{distributed_apsp, FwConfig, Variant};
use apsp_core::fw_blocked::fw_blocked_threads;
use apsp_core::fw_seq::{fw_seq, fw_seq_with_paths, reconstruct_path};
use apsp_core::verify::{assert_matrices_equal, check_apsp_invariants};
use apsp_graph::dijkstra::apsp_by_dijkstra;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::johnson::johnson_apsp;
use apsp_graph::paths::validate_path;
use mpi_sim::Placement;
use srgemm::MinPlusF32;

/// The full pipeline on the paper's workload: generator → every solver in
/// the workspace → exact agreement.
#[test]
fn five_independent_solvers_agree_on_the_paper_workload() {
    let n = 32;
    let g = generators::uniform_dense(n, WeightKind::small_ints(), 2021);
    let input = g.to_dense();

    // oracle 1: repeated Dijkstra
    let dij = apsp_by_dijkstra(&g);
    // oracle 2: Johnson
    let joh = johnson_apsp(&g).expect("no negative cycles");
    // solver 3: sequential FW
    let mut seq = input.clone();
    fw_seq::<MinPlusF32>(&mut seq);
    // solver 4: blocked FW
    let mut blk = input.clone();
    fw_blocked_threads::<MinPlusF32>(&mut blk, 8, 2);
    // solver 5: the full distributed offload pipeline
    let cfg = FwConfig::new(8, Variant::Offload);
    let (dist, _) = distributed_apsp::<MinPlusF32>(2, 2, &cfg, &input, None).expect("run");

    assert_matrices_equal(&dij, &joh, "dijkstra vs johnson");
    assert_matrices_equal(&dij, &seq, "dijkstra vs sequential FW");
    assert_matrices_equal(&dij, &blk, "dijkstra vs blocked FW");
    assert_matrices_equal(&dij, &dist, "dijkstra vs distributed offload FW");
    check_apsp_invariants(&dist, "distributed output");
}

/// Distributed paths extension: distances from the distributed run feed
/// path reconstruction from the sequential predecessor matrix, and the
/// paths are realizable in the original graph.
#[test]
fn distributed_distances_are_realizable_as_paths() {
    let n = 24;
    let g = generators::erdos_renyi(n, 0.3, WeightKind::small_ints(), 31);
    let input = g.to_dense();
    let cfg = FwConfig::new(6, Variant::AsyncRing);
    let (dist, _) = distributed_apsp::<MinPlusF32>(2, 2, &cfg, &input, None).expect("run");

    let mut with_pred = input.clone();
    let pred = fw_seq_with_paths(&mut with_pred);
    assert_matrices_equal(&with_pred, &dist, "pred-run vs distributed");

    for s in 0..n {
        for t in 0..n {
            if s != t && dist[(s, t)].is_finite() {
                let p = reconstruct_path(&pred, s, t).expect("path exists");
                assert!(validate_path(&g, &p, s, t, dist[(s, t)], 1e-3));
            }
        }
    }
}

/// Placement interacts with the algorithms but never with the answer.
#[test]
fn every_placement_yields_identical_answers_different_traffic() {
    let n = 36;
    let input = generators::uniform_dense(n, WeightKind::small_ints(), 8).to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);

    let cfg = FwConfig::new(6, Variant::Pipelined);
    let mut traffics = Vec::new();
    for placement in [
        Placement::one_rank_per_node(6),
        Placement::single_node(6),
        Placement::contiguous(2, 3, 3),
        Placement::tiled(2, 3, 2, 1),
    ] {
        let (got, traffic) =
            distributed_apsp::<MinPlusF32>(2, 3, &cfg, &input, Some(placement)).expect("run");
        assert_matrices_equal(&want, &got, "placement-independence");
        traffics.push(traffic.total_nic_bytes());
    }
    // single-node placement must be the unique zero-NIC configuration
    assert_eq!(traffics[1], 0);
    assert!(traffics[0] > 0);
}

/// Cross-checking the two timing paths: the gpu-sim stream clocks and the
/// analytic §4.5 model agree on stream-scaling direction.
#[test]
fn gpu_sim_and_cost_model_agree_on_overlap_direction() {
    use gpu_sim::cost::OffloadCosts;
    use gpu_sim::{oog_srgemm_model, GpuSpec, OogConfig, SimGpu};
    let spec = GpuSpec::summit_v100();
    let gpu = SimGpu::new(spec);
    let (m, n, k) = (16_384usize, 16_384usize, 256usize);
    let analytic = OffloadCosts::new(&spec, m, n, k, 4);
    let t1 = oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 1), m, n, k, 4).unwrap();
    let t3 = oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 3), m, n, k, 4).unwrap();
    assert!(t3 < t1);
    // both within a factor ~2 of the analytic regime predictions
    assert!(t1 / analytic.predicted_time(1) < 2.0);
    assert!(t3 / analytic.predicted_time(3) < 2.0);
    assert!(analytic.predicted_time(3) / t3 < 2.0);
}

/// The functional NIC counters and the schedule simulator must rank
/// placements the same way (square node grid wins).
#[test]
fn functional_and_simulated_placement_rankings_agree() {
    use apsp_core::schedule::{simulate_unchecked, ScheduleConfig};
    use cluster_sim::MachineSpec;

    // functional: 16 nodes via 8x8 ranks, Q=4
    let n = 64;
    let input = generators::uniform_dense(n, WeightKind::small_ints(), 12).to_dense();
    let cfg = FwConfig::new(8, Variant::AsyncRing);
    let measure = |qr: usize, qc: usize| {
        let (_, t) = distributed_apsp::<MinPlusF32>(
            8,
            8,
            &cfg,
            &input,
            Some(Placement::tiled(8, 8, qr, qc)),
        )
        .expect("run");
        t.max_node_nic_bytes()
    };
    let func_square = measure(2, 2); // K = 4x4
    let func_skewed = measure(1, 4); // K = 8x2

    // simulated at Summit scale, same node-grid shapes. Tree-broadcast
    // variant: the ring's fill latency grows with ring length, which at a
    // small node count can offset the volume gain, while the tree variant
    // ranks placements exactly by the §3.4.1 volume.
    let spec = MachineSpec::summit(16);
    let sim_square = simulate_unchecked(&spec, &ScheduleConfig::new(32_768, Variant::Pipelined, 4, 4)).seconds;
    let sim_skewed = simulate_unchecked(&spec, &ScheduleConfig::new(32_768, Variant::Pipelined, 8, 2)).seconds;

    assert!(func_square < func_skewed, "functional: square wins");
    assert!(sim_square < sim_skewed, "simulated: square wins");
}
