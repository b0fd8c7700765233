//! Shape checks on the Summit-scale schedules: the qualitative claims of
//! the paper's evaluation must emerge from the simulated task DAGs.

use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn sim(n: usize, variant: Variant, nodes: usize, kr: usize, kc: usize) -> apsp_core::schedule::SimOutcome {
    let spec = MachineSpec::summit(nodes);
    simulate(&spec, &ScheduleConfig::new(n, variant, kr, kc)).expect("feasible")
}

#[test]
fn pipelined_beats_baseline_in_the_bandwidth_bound_regime() {
    // Fig. 4's core claim at small n on many nodes
    let (kr, kc) = default_node_grid(64);
    let base = sim(65_536, Variant::Baseline, 64, kr, kc);
    let pipe = sim(65_536, Variant::Pipelined, 64, kr, kc);
    assert!(
        pipe.seconds < base.seconds,
        "pipelined {} should beat baseline {}",
        pipe.seconds,
        base.seconds
    );
}

#[test]
fn reordering_and_ring_add_further_gains() {
    // deep in the bandwidth-bound regime (Fig. 4's left half), where each
    // optimization is separable
    let (dkr, dkc) = default_node_grid(64);
    let (okr, okc) = best_node_grid(64);
    let n = 32_768;
    let pipe = sim(n, Variant::Pipelined, 64, dkr, dkc);
    let reorder = sim(n, Variant::Pipelined, 64, okr, okc);
    let async_ring = sim(n, Variant::AsyncRing, 64, okr, okc);
    assert!(reorder.seconds < pipe.seconds, "reordering should help");
    assert!(
        async_ring.seconds < reorder.seconds,
        "ring bcast should help further: {} vs {}",
        async_ring.seconds,
        reorder.seconds
    );
}

#[test]
fn optimizations_wash_out_when_compute_bound() {
    // Fig. 7: past ~208k vertices on 64 nodes everything converges
    let (okr, okc) = best_node_grid(64);
    let (dkr, dkc) = default_node_grid(64);
    let n = 400_000;
    let base = sim(n, Variant::Baseline, 64, dkr, dkc);
    let best = sim(n, Variant::AsyncRing, 64, okr, okc);
    let ratio = base.seconds / best.seconds;
    assert!(
        ratio < 1.6,
        "compute-bound regime: variants should converge (ratio {ratio})"
    );
    // and both should run at a healthy fraction of peak
    assert!(best.pflops > 0.5 * MachineSpec::summit(64).total_flops() / 1e15);
}

#[test]
fn gpu_memory_wall_matches_figure_7() {
    let spec = MachineSpec::summit(64);
    let ok = ScheduleConfig::new(524_288, Variant::Baseline, 8, 8);
    assert!(simulate(&spec, &ok).is_ok(), "524k must fit on 64 nodes");
    let too_big = ScheduleConfig::new(660_562, Variant::Baseline, 8, 8);
    let err = simulate(&spec, &too_big).unwrap_err();
    assert!(err.reason.contains("beyond GPU memory"), "{}", err.reason);
    // offload sails past the wall (paper: up to 1.66M)
    let offload = ScheduleConfig::new(1_664_511, Variant::Offload, 8, 8);
    assert!(simulate(&spec, &offload).is_ok(), "offload must handle 1.66M vertices");
}

#[test]
fn strong_scaling_co_parallelfw_gains_grow_with_node_count() {
    // Fig. 8: 1.6× at 16 nodes growing to ~4.6× at 256
    let n = 300_000;
    let ratio_at = |nodes: usize| {
        let (dkr, dkc) = default_node_grid(nodes);
        let (okr, okc) = best_node_grid(nodes);
        let base = sim(n, Variant::Baseline, nodes, dkr, dkc);
        let best = sim(n, Variant::AsyncRing, nodes, okr, okc);
        base.seconds / best.seconds
    };
    let r16 = ratio_at(16);
    let r256 = ratio_at(256);
    assert!(r16 > 1.05, "some gain already at 16 nodes (got {r16})");
    assert!(r256 > r16, "gain must grow with node count ({r16} → {r256})");
    assert!(r256 > 1.8, "large gain at 256 nodes (got {r256})");
}

#[test]
fn weak_scaling_async_is_flatter_than_baseline() {
    // Fig. 9: n³/p constant, from n=300k at 16 nodes
    let runtime_growth = |variant: Variant, reorder: bool| {
        let t = |nodes: usize| {
            let n = (300_000.0f64 * (nodes as f64 / 16.0).cbrt()) as usize;
            let (kr, kc) = if reorder { best_node_grid(nodes) } else { default_node_grid(nodes) };
            sim(n, variant, nodes, kr, kc).seconds
        };
        t(256) / t(16)
    };
    let base_growth = runtime_growth(Variant::Baseline, false);
    let async_growth = runtime_growth(Variant::AsyncRing, true);
    assert!(
        async_growth < base_growth,
        "Co-ParallelFw must weak-scale better: {async_growth} vs {base_growth}"
    );
    assert!(async_growth < 1.6, "near-flat weak scaling (got {async_growth})");
}

#[test]
fn offload_overhead_is_modest_at_large_n() {
    // headline: "2.5× larger graphs with a 20% increase in overall running
    // time" → at the same (large, feasible) n the offload penalty is small
    let (okr, okc) = best_node_grid(64);
    let n = 400_000;
    let incore = sim(n, Variant::Baseline, 64, okr, okc);
    let offload = sim(n, Variant::Offload, 64, okr, okc);
    let penalty = offload.seconds / incore.seconds;
    assert!(
        (1.0..1.6).contains(&penalty),
        "offload penalty should be modest, got {penalty}"
    );
}

#[test]
fn blocked_2d_dominates_the_1d_comparator() {
    // related-work shape: the unblocked 1-D formulation pays n broadcasts
    // and memory-bound rank-1 updates; blocked 2-D Co-ParallelFw crushes it
    use apsp_core::schedule::simulate_oned;
    let spec = MachineSpec::summit(16);
    let n = 65_536;
    let oned = simulate_oned(&spec, n, 4);
    let (kr, kc) = best_node_grid(16);
    let twod = sim(n, Variant::AsyncRing, 16, kr, kc);
    assert!(
        twod.seconds * 3.0 < oned.seconds,
        "2-D ({}) should be ≫ faster than 1-D ({})",
        twod.seconds,
        oned.seconds
    );
}

#[test]
fn node_grid_helpers_factor_correctly() {
    assert_eq!(best_node_grid(64), (8, 8));
    let (r, c) = default_node_grid(64);
    assert_eq!(r * c, 64);
    assert!(r > c, "default grid is skewed");
    let (r1, c1) = default_node_grid(16);
    assert_eq!(r1 * c1, 16);
}
