//! The all-pairs Δ-stepping sweep allocates per worker, not per source:
//! each worker keeps one bucket workspace across its sources, relaxes
//! straight into the answer rows, and the light/heavy split of the
//! adjacency is built once per solve.
//!
//! The counting global allocator of `counting/` counts allocation calls.
//! This file is its own test binary with a single test, so nothing else
//! allocates while a sweep is counted.

mod counting;

use apsp_graph::delta_stepping::{apsp_by_delta_stepping, delta_stepping};
use apsp_graph::generators::{ring_with_chords, WeightKind};

/// Allocation calls `call` makes.
fn allocations<T>(call: impl FnOnce() -> T) -> usize {
    counting::measure(call).3
}

#[test]
fn delta_sweep_allocates_per_worker_not_per_source() {
    for n in [300, 600] {
        let g = ring_with_chords(n, WeightKind::small_ints(), 7);
        // Δ = mean edge weight, as the `delta` solver picks it
        let delta = (g.total_weight() / g.m() as f64) as f32;
        // one source: the split adjacency, the distance vector and one
        // workspace grown to that source's buckets
        let one = allocations(|| delta_stepping(&g, 0, delta));
        for threads in [1, 2, 3] {
            let sweep = allocations(|| apsp_by_delta_stepping(&g, delta, threads));
            let bound = threads * 4 * one;
            assert!(
                sweep <= bound,
                "n = {n}, {threads} threads: the sweep of {n} sources made {sweep} allocations, \
                 one source made {one}; the bound is {bound}"
            );
        }
    }
}
