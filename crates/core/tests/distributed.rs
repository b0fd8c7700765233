//! Distributed-variant correctness: every variant × grid shape × graph
//! family must reproduce sequential Floyd-Warshall bit-for-bit — the §5.1
//! validation methodology of the paper.

use apsp_core::dist::{
    distributed_apsp_opts, distributed_apsp_traced_opts, DistError, DistRunOpts, FwConfig,
    PanelBcastAlgo, Variant,
};
use apsp_core::fw_seq::fw_seq;
use apsp_core::verify::assert_matrices_equal;
use apsp_graph::generators::{self, GraphKind, WeightKind};
use mpi_sim::Placement;
use srgemm::{Matrix, MinPlusF32};

fn reference(n: usize, kind: GraphKind, seed: u64) -> (Matrix<f32>, Matrix<f32>) {
    let g = generators::generate(kind, n, WeightKind::small_ints(), seed);
    let input = g.to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);
    (input, want)
}

#[test]
fn all_variants_match_sequential_on_dense_graph() {
    let (input, want) = reference(36, GraphKind::UniformDense, 101);
    for variant in Variant::all() {
        let cfg = FwConfig::new(6, variant);
        let (got, _) = distributed_apsp_opts::<MinPlusF32>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, variant.legend());
    }
}

#[test]
fn all_variants_match_on_sparse_multi_component_graph() {
    // components of 10 at b = 5 sit on block boundaries; components of 15
    // at b = 4 straddle them, so a product of two present blocks can be all
    // ∞, which only each rank's re-read of its panels sees
    for (n, components, b, seed) in [(30, 3, 5, 55), (60, 4, 4, 7)] {
        let (input, want) = reference(n, GraphKind::MultiComponent { components }, seed);
        for (pr, pc) in [(2, 3), (2, 2), (1, 3), (3, 1)] {
            for variant in Variant::all() {
                let cfg = FwConfig::new(b, variant);
                let (got, _) = distributed_apsp_opts::<MinPlusF32>(
                    pr, pc, &cfg, &input, None, &DistRunOpts::default(),
                )
                .expect("run");
                let case = format!("n={n} b={b} {pr}x{pc} {}", variant.legend());
                assert_matrices_equal(&want, &got, &case);
            }
        }
    }
}

#[test]
fn a_non_square_input_or_a_zero_block_is_a_bad_config() {
    let opts = DistRunOpts::default();
    for (input, b) in [(Matrix::filled(4, 6, 0.0), 2), (Matrix::filled(4, 4, 0.0), 0)] {
        let cfg = FwConfig::new(b, Variant::Baseline);
        let got = distributed_apsp_opts::<MinPlusF32>(2, 2, &cfg, &input, None, &opts);
        assert!(matches!(got, Err(DistError::BadConfig { .. })), "{b}: {got:?}");
    }
}

#[test]
fn blocks_wider_than_the_closure_width_close_their_diagonal_in_blocks() {
    // b = 96 on n = 3·96 + 13: every diagonal block but the ragged last one
    // is wider than 64, so DiagUpdate runs blocked FW's loop at width 64
    let (input, want) = reference(301, GraphKind::UniformDense, 96);
    let cfg = FwConfig::new(96, Variant::Pipelined);
    let (got, _) =
        distributed_apsp_opts::<MinPlusF32>(2, 2, &cfg, &input, None, &DistRunOpts::default())
            .expect("run");
    assert_matrices_equal(&want, &got, "b = 96 on 2x2");
}

#[test]
fn rectangular_grids_and_ragged_blocks() {
    // n=29 with b=4 → ragged tail block; grids taller and wider than square.
    // On the 1×4 and 4×1 grids one rank owns both the k-th and the (k+1)-th
    // strips along its one-wide side, so the look-ahead presets skip them in
    // OuterUpdate(k) as one joined range.
    let (input, want) = reference(29, GraphKind::ErdosRenyi { p: 0.2 }, 77);
    for variant in Variant::all() {
        for (pr, pc) in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 2)] {
            let cfg = FwConfig::new(4, variant);
            let (got, _) = distributed_apsp_opts::<MinPlusF32>(
                pr, pc, &cfg, &input, None, &DistRunOpts::default(),
            )
            .expect("run");
            assert_matrices_equal(&want, &got, &format!("{} grid {pr}x{pc}", variant.legend()));
        }
    }
}

#[test]
fn pipelined_handles_every_block_count_parity() {
    // nb ∈ {1, 2, 3, 5} exercises prologue/epilogue boundary cases
    for n in [6, 12, 18, 30] {
        let (input, want) = reference(n, GraphKind::UniformDense, n as u64);
        let cfg = FwConfig::new(6, Variant::Pipelined);
        let (got, _) = distributed_apsp_opts::<MinPlusF32>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, &format!("n={n}"));
    }
}

#[test]
fn async_ring_matches_with_various_chunk_counts() {
    let (input, want) = reference(32, GraphKind::UniformDense, 33);
    for chunks in [1, 2, 7, 64] {
        let mut cfg = FwConfig::new(4, Variant::AsyncRing);
        cfg.bcast = PanelBcastAlgo::Ring { chunks };
        let (got, _) = distributed_apsp_opts::<MinPlusF32>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, &format!("chunks={chunks}"));
    }
}

#[test]
fn offload_matches_with_tiny_tiles_and_single_stream() {
    use gpu_sim::OogConfig;
    let (input, want) = reference(24, GraphKind::UniformDense, 13);
    for streams in [1, 2, 3] {
        let mut cfg = FwConfig::new(4, Variant::Offload);
        cfg.oog = OogConfig::new(5, 3, streams);
        let (got, _) = distributed_apsp_opts::<MinPlusF32>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, &format!("offload s={streams}"));
    }
}

#[test]
fn single_rank_degenerate_grid_works() {
    let (input, want) = reference(20, GraphKind::UniformDense, 21);
    for variant in Variant::all() {
        let cfg = FwConfig::new(7, variant);
        let (got, _) = distributed_apsp_opts::<MinPlusF32>(
            1, 1, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, variant.legend());
    }
}

#[test]
fn more_ranks_than_blocks_leaves_idle_ranks_consistent() {
    // nb = 2 < pr·pc ranks: some ranks own nothing
    let (input, want) = reference(8, GraphKind::UniformDense, 3);
    let cfg = FwConfig::new(4, Variant::Baseline);
    let (got, _) = distributed_apsp_opts::<MinPlusF32>(
        3, 3, &cfg, &input, None, &DistRunOpts::default(),
    )
    .expect("run");
    assert_matrices_equal(&want, &got, "idle ranks");
}

#[test]
fn square_node_grid_reduces_max_node_nic_volume() {
    // §3.4.1's claim is about the *per-node* NIC volume. The effect is
    // asymptotic in the node count (at 4 nodes square and skewed grids move
    // the same per-node volume), so test at 16 nodes: a 16×1 node grid makes
    // every node ingest the full row panel (≈ b·n per iteration) while the
    // 4×4 grid needs only 2·b·n/4. Ring PanelBcast is the bandwidth-optimal
    // collective the volume model assumes.
    let (input, want) = reference(64, GraphKind::UniformDense, 71);
    let cfg = FwConfig::new(4, Variant::AsyncRing);
    let run = |placement: Placement| {
        let (got, traffic) = distributed_apsp_opts::<MinPlusF32>(
            16, 4, &cfg, &input, Some(placement), &DistRunOpts::default(),
        )
        .expect("run");
        assert_matrices_equal(&want, &got, "placement");
        traffic.max_node_nic_bytes()
    };
    let skewed = run(Placement::tiled(16, 4, 1, 4)); // K = 16×1
    let square = run(Placement::tiled(16, 4, 4, 1)); // K = 4×4
    assert!(
        (square as f64) < 0.8 * skewed as f64,
        "square node grid must cut the busiest NIC's volume: {square} vs {skewed}"
    );
}

#[test]
fn measured_nic_volume_respects_the_section_341_lower_bound() {
    // §3.4.1: per-node egress ≥ eb·(n²/Kr + n²/Kc) is a *lower* bound; the
    // measured max-node volume must sit above it but within a small factor
    // (tree broadcasts and diag traffic add overhead).
    let n = 48;
    let (input, _) = reference(n, GraphKind::UniformDense, 5);
    let cfg = FwConfig::new(6, Variant::AsyncRing);
    let placement = Placement::tiled(4, 4, 2, 2); // Kr = Kc = 2
    let (_, traffic) = distributed_apsp_opts::<MinPlusF32>(
        4, 4, &cfg, &input, Some(placement), &DistRunOpts::default(),
    )
    .expect("run");
    let bound = apsp_core::model::comm_lower_bound_bytes(n, 2, 2, 4);
    let measured = traffic.max_node_nic_bytes() as f64;
    assert!(
        measured >= 0.9 * bound,
        "measured {measured} cannot beat the lower bound {bound}"
    );
    assert!(
        measured <= 6.0 * bound,
        "measured {measured} should be within a small factor of {bound}"
    );
}

#[test]
fn works_for_transitive_closure_semiring() {
    use srgemm::semiring::BoolOr;
    // reachability on a ring: everything reaches everything
    let n = 12;
    let mut input = Matrix::filled(n, n, false);
    for i in 0..n {
        input[(i, (i + 1) % n)] = true;
    }
    let mut want = input.clone();
    fw_seq::<BoolOr>(&mut want);
    let cfg = FwConfig::new(3, Variant::Pipelined);
    let (got, _) = distributed_apsp_opts::<BoolOr>(
        2, 2, &cfg, &input, None, &DistRunOpts::default(),
    )
    .expect("run");
    for i in 0..n {
        for j in 0..n {
            assert_eq!(got[(i, j)], want[(i, j)]);
            assert!(got[(i, j)]);
        }
    }
}

#[test]
fn empty_graph_returns_empty_matrix_on_every_grid() {
    // regression: the gather path used to unwrap rank 0's result with an
    // `.expect`; n = 0 must come back as a clean 0×0 matrix instead
    let input = Matrix::from_vec(0, 0, Vec::<f32>::new());
    for (pr, pc) in [(1, 1), (2, 2), (2, 3)] {
        for variant in Variant::all() {
            let cfg = FwConfig::new(4, variant);
            let (got, traffic) = distributed_apsp_opts::<MinPlusF32>(
                pr, pc, &cfg, &input, None, &DistRunOpts::default(),
            )
                .unwrap_or_else(|e| panic!("{} on {pr}x{pc}: {e}", variant.legend()));
            assert_eq!((got.rows(), got.cols()), (0, 0), "{} on {pr}x{pc}", variant.legend());
            assert_eq!(traffic.total_nic_bytes(), 0);
        }
    }
}

#[test]
fn device_oom_surfaces_as_typed_error_not_panic() {
    // a device too small for even one panel pair: preflight must reject the
    // run on every rank and the driver must hand back DeviceOom, not abort
    let (input, _) = reference(24, GraphKind::UniformDense, 17);
    for variant in [Variant::Offload, Variant::CoMe] {
        let mut cfg = FwConfig::new(4, variant);
        cfg.gpu_spec.mem_bytes = 64;
        let err = distributed_apsp_opts::<MinPlusF32>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
            .expect_err("64-byte device cannot fit the panels");
        let DistError::DeviceOom { requested, available } = err else {
            panic!("expected DeviceOom, got {err}");
        };
        assert_eq!(available, 64);
        assert!(requested > available, "requested {requested} must exceed {available}");
    }
}

#[test]
fn come_composes_offload_with_ring_and_lookahead() {
    use apsp_core::dist::{Exec, Schedule};
    let (schedule, bcast, exec) = Variant::CoMe.axes();
    assert_eq!(schedule, Schedule::LookAhead);
    assert!(matches!(bcast, PanelBcastAlgo::Ring { .. }));
    assert_eq!(exec, Exec::GpuOffload);

    let (input, want) = reference(30, GraphKind::UniformDense, 91);
    let cfg = FwConfig::new(4, Variant::CoMe);
    let (got, _) = distributed_apsp_opts::<MinPlusF32>(
        2, 3, &cfg, &input, None, &DistRunOpts::default(),
    )
    .expect("run");
    assert_matrices_equal(&want, &got, "Co+Me");
}

#[test]
fn traffic_is_pinned_for_every_corner_of_the_policy_cube() {
    // Exact message and NIC-byte counts for n = 30 (b = 4: eight block
    // steps, the last one ragged) on a 2×4 grid tiled onto 2×2 nodes.
    // Schedule and exec reorder work but move the same messages; only the
    // panel broadcast changes the traffic. `(untraced)` is the result gather.
    use apsp_core::dist::{Exec, Schedule, DEFAULT_RING_CHUNKS};
    let (input, want) = reference(30, GraphKind::UniformDense, 29);
    let ring = PanelBcastAlgo::Ring {
        chunks: DEFAULT_RING_CHUNKS,
    };
    // (bcast, total msgs, total NIC bytes, PanelBcast NIC bytes, PanelBcast msgs)
    let table = [
        (PanelBcastAlgo::Tree, 119, 14_480, 10_560, 80),
        (ring, 439, 13_248, 9_328, 400),
    ];
    for (bcast, msgs, nic, panel_nic, panel_msgs) in table {
        for schedule in Schedule::all() {
            for exec in Exec::all() {
                let cfg = FwConfig::from_axes(4, schedule, bcast, exec);
                let placement = Placement::tiled(2, 4, 1, 2);
                let (got, t, trace) =
                    distributed_apsp_traced_opts::<MinPlusF32>(
                        2, 4, &cfg, &input, Some(placement), &DistRunOpts::default(),
                    )
                        .expect("run");
                let corner = cfg.legend();
                assert_matrices_equal(&want, &got, &corner);
                assert_eq!(t.total_msgs, msgs, "{corner}");
                assert_eq!(t.total_nic_bytes(), nic, "{corner}");
                let phases: Vec<(&str, u64, u64)> = trace
                    .phase_traffic()
                    .into_iter()
                    .map(|(k, v)| (k, v.nic_bytes, v.msgs))
                    .collect();
                let pinned = [
                    ("(untraced)", 2_576, 7),
                    ("DiagBcast", 1_344, 32),
                    ("PanelBcast", panel_nic, panel_msgs),
                ];
                assert_eq!(phases, pinned, "{corner}");
            }
        }
    }
}

#[test]
fn absent_blocks_are_skipped_end_to_end() {
    // 8 components of 64 at b = 32 on a 2×2 grid, in-core: the map built
    // from the input skips every block across components, so the ranks
    // pack fewer row-panel runs than on a dense input of the same n
    let packs = |kind: GraphKind| {
        let (input, want) = reference(512, kind, 3);
        let cfg = FwConfig::new(32, Variant::Baseline);
        let opts = DistRunOpts::default();
        let run = distributed_apsp_traced_opts::<MinPlusF32>(2, 2, &cfg, &input, None, &opts);
        let (got, _, trace) = run.expect("run");
        assert_matrices_equal(&want, &got, &format!("{kind:?}"));
        trace.timelines.iter().flat_map(|t| &t.spans).filter(|s| s.name == "pack").count()
    };
    let clustered = packs(GraphKind::MultiComponent { components: 8 });
    let dense = packs(GraphKind::UniformDense);
    assert!(clustered < dense, "{clustered} packs on components, {dense} on dense");
}
