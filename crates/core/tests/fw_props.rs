//! Property tests on the Floyd-Warshall solvers: random graphs, random
//! block sizes, random grids — everything must match the oracles, including
//! the negative-edge cases Dijkstra cannot handle.

use proptest::prelude::*;

use apsp_core::dist::{
    distributed_apsp, Exec, FwConfig, PanelBcastAlgo, Schedule, Variant, DEFAULT_RING_CHUNKS,
};
use apsp_core::fw_blocked::{fw_blocked_threads, DiagMethod};
use apsp_core::fw_seq::fw_seq;
use apsp_core::incremental::decrease_edge;
use apsp_graph::dijkstra::apsp_by_dijkstra;
use apsp_graph::generators::{erdos_renyi, WeightKind};
use apsp_graph::graph::GraphBuilder;
use apsp_graph::johnson::johnson_apsp;
use srgemm::MinPlusF32;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_fw_matches_dijkstra(
        n in 2usize..36,
        p in 0.05f64..0.7,
        b in 1usize..40,
        seed in any::<u64>(),
        squaring in any::<bool>(),
    ) {
        let g = erdos_renyi(n, p, WeightKind::small_ints(), seed);
        let want = apsp_by_dijkstra(&g);
        let mut got = g.to_dense();
        let diag = if squaring { DiagMethod::Squaring } else { DiagMethod::FwClosure };
        fw_blocked_threads::<MinPlusF32>(&mut got, b, diag, 1);
        prop_assert!(want.eq_exact(&got));
    }

    #[test]
    fn fw_handles_negative_edges_dijkstra_cannot(n in 2usize..20, seed in any::<u64>()) {
        // forward-only DAG with negative weights: FW vs Johnson
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if next() % 2 == 0 {
                    b.add_edge(i, j, ((next() % 64) as f32) - 8.0);
                }
            }
        }
        let g = b.build();
        let want = johnson_apsp(&g).expect("DAG");
        let mut got = g.to_dense();
        fw_seq::<MinPlusF32>(&mut got);
        for i in 0..n {
            for j in 0..n {
                let (w, x) = (want[(i, j)], got[(i, j)]);
                if w.is_infinite() || x.is_infinite() {
                    prop_assert_eq!(w, x);
                } else {
                    prop_assert!((w - x).abs() < 1e-3, "({i},{j}): {w} vs {x}");
                }
            }
        }
    }

    #[test]
    fn distributed_policy_cube_matches_on_random_configs(
        n in 4usize..28,
        b in 2usize..10,
        grid_pick in 0usize..4,
        schedule_pick in 0usize..2,
        bcast_pick in 0usize..2,
        exec_pick in 0usize..2,
        chunks in 1usize..9,
        seed in any::<u64>(),
    ) {
        // the full 2×2×2 policy cube — every (schedule, bcast, exec) triple,
        // named preset or not, must reproduce fw_seq bit-for-bit
        let (pr, pc) = [(1, 2), (2, 2), (2, 3), (3, 1)][grid_pick];
        let schedule = Schedule::all()[schedule_pick];
        let bcast = [PanelBcastAlgo::Tree, PanelBcastAlgo::Ring { chunks }][bcast_pick];
        let exec = Exec::all()[exec_pick];
        let g = erdos_renyi(n, 0.3, WeightKind::small_ints(), seed);
        let input = g.to_dense();
        let mut want = input.clone();
        fw_seq::<MinPlusF32>(&mut want);
        let cfg = FwConfig::from_axes(b, schedule, bcast, exec);
        let (got, _) = distributed_apsp::<MinPlusF32>(pr, pc, &cfg, &input, None)
            .expect("policy cube run");
        prop_assert!(
            want.eq_exact(&got),
            "{}/{}/{} on {}x{} b={}",
            schedule.name(), bcast.name(), exec.name(), pr, pc, b
        );
    }

    #[test]
    fn presets_round_trip_through_the_axes(variant_pick in 0usize..5, chunks in 1usize..64) {
        let variant = Variant::all()[variant_pick];
        let (schedule, bcast, exec) = variant.axes();
        prop_assert_eq!(Variant::from_axes(schedule, bcast, exec), Some(variant));
        // chunk count is a tuning knob, not part of the preset's identity
        if let PanelBcastAlgo::Ring { .. } = bcast {
            let retuned = PanelBcastAlgo::Ring { chunks };
            prop_assert_eq!(Variant::from_axes(schedule, retuned, exec), Some(variant));
        }
        // unnamed corners of the cube stay unnamed
        let ring = PanelBcastAlgo::Ring { chunks: DEFAULT_RING_CHUNKS };
        prop_assert_eq!(Variant::from_axes(Schedule::BulkSync, ring, Exec::InCoreGemm), None);
    }

    #[test]
    fn incremental_update_equals_recompute(
        n in 3usize..24,
        seed in any::<u64>(),
        u in 0usize..24,
        v in 0usize..24,
        w in 1u32..40,
    ) {
        let (u, v) = (u % n, v % n);
        prop_assume!(u != v);
        let g = erdos_renyi(n, 0.2, WeightKind::small_ints(), seed);
        let mut inc = g.to_dense();
        fw_seq::<MinPlusF32>(&mut inc);
        let _ = decrease_edge::<MinPlusF32>(&mut inc, u, v, w as f32);

        let mut b = GraphBuilder::new(n);
        for (x, y, wt) in g.edges() {
            b.add_edge(x, y, wt);
        }
        b.add_edge(u, v, w as f32);
        let mut full = b.build().to_dense();
        fw_seq::<MinPlusF32>(&mut full);
        prop_assert!(full.eq_exact(&inc));
    }
}
