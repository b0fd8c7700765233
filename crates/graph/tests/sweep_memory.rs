//! The all-pairs SSSP sweeps hold one n×n answer: the rows are written
//! straight into it, never staged beside it.
//!
//! The counting global allocator of `counting/` tracks live heap bytes.
//! This file is its own test binary with a single test, so nothing else
//! allocates while a sweep is measured.

mod counting;

use apsp_graph::delta_stepping::apsp_by_delta_stepping;
use apsp_graph::dijkstra::apsp_by_dijkstra_threads;
use apsp_graph::generators::{ring_with_chords, WeightKind};
use apsp_graph::johnson::johnson_apsp_threads;
use apsp_graph::{Graph, GraphBuilder};
use srgemm::Matrix;

/// Peak heap bytes allocated while `sweep` runs, over what was live before
/// it; the answer it returns is counted (it is live at the end).
fn peak_over_baseline(sweep: impl FnOnce() -> Matrix<f32>) -> usize {
    counting::measure(sweep).2
}

/// `g` with its first edge's weight replaced by −1: every cycle through it
/// still weighs ≥ 0 (the other weights are ≥ 1), so Johnson must reweight.
fn with_one_negative_edge(g: &Graph) -> Graph {
    let mut b = GraphBuilder::new(g.n());
    for (i, (u, v, w)) in g.edges().enumerate() {
        b.add_edge(u, v, if i == 0 { -1.0 } else { w });
    }
    b.build()
}

#[test]
fn sweeps_hold_one_answer_matrix_plus_per_worker_scratch() {
    let n = 300;
    let plain = ring_with_chords(n, WeightKind::small_ints(), 7);
    let negative = with_one_negative_edge(&plain);
    let m = plain.m();
    // Beside the 4n² answer, bounded by 64(n + m) B per worker: Dijkstra's
    // one source's distance vector (4n B), `settled` flags and heap (≤ m + 1
    // pushes of 8 B, capacity ≤ 2×); Δ-stepping has no distance vector of
    // its own (it relaxes into the answer row), keeps one set of buckets per
    // worker across its sources (≤ one per Δ of distance, ~n here, plus
    // ≤ m + 1 queued u32s twice over) and the light/heavy split of the
    // adjacency (8m + 8(2n + 1) B) once per solve. Johnson also keeps the
    // reweighted graph (8(n + 1) + 8m B) and the potentials (4(n + 1) B)
    // through the sweep.
    let answer = 4 * n * n;
    let scratch = 64 * (n + m);
    let johnson_graphs = 8 * (n + 1) + 8 * m + 4 * (n + 1);

    type Sweep<'a> = (&'a str, &'a Graph, Box<dyn Fn(usize) -> Matrix<f32> + 'a>);
    let sweeps: [Sweep; 4] = [
        ("dijkstra", &plain, Box::new(|t| apsp_by_dijkstra_threads(&plain, t))),
        ("delta", &plain, Box::new(|t| apsp_by_delta_stepping(&plain, 30.0, t))),
        ("johnson", &plain, Box::new(|t| johnson_apsp_threads(&plain, t).unwrap())),
        ("johnson, one negative edge", &negative, Box::new(|t| johnson_apsp_threads(&negative, t).unwrap())),
    ];
    for (name, g, sweep) in &sweeps {
        assert_eq!((g.n(), g.m()), (n, m));
        for threads in [1, 2, 3] {
            let peak = peak_over_baseline(|| sweep(threads));
            let bound = answer + threads * scratch + johnson_graphs;
            assert!(
                peak <= bound,
                "{name} at {threads} threads peaked at {peak} B over the baseline; \
                 one {n}×{n} answer is {answer} B and the bound is {bound} B"
            );
        }
    }
}
