#![warn(missing_docs)]

//! # apsp-graph — weighted digraphs, workload generators, and oracles
//!
//! Support crate for the APSP-FW workspace:
//!
//! * [`graph`] — a compact CSR weighted digraph and conversions to/from the
//!   dense distance matrices consumed by the Floyd-Warshall kernels.
//! * [`block_sparse`] — the block-sparse form of the distance matrix, one
//!   tile row at a time, for tiled solvers that skip all-`∞` tiles.
//! * [`generators`] — seeded workload generators. The paper evaluates on
//!   *dense uniform random* matrices (§5.1.4); we add sparse, structured and
//!   multi-component families for correctness tests and the example apps.
//! * [`dijkstra`], [`bellman_ford`], [`johnson`], [`delta_stepping`] —
//!   reference single-source/all-pairs algorithms from the paper's related
//!   work (§6), used as correctness oracles and single-node comparators.
//! * [`paths`] — parent-pointer path extraction and path validation.

pub mod bellman_ford;
pub mod block_sparse;
pub mod components;
pub mod delta_stepping;
pub mod dijkstra;
pub mod generators;
pub mod graph;
pub mod io;
pub mod johnson;
pub mod paths;

pub use graph::{Graph, GraphBuilder, INF};

/// Map `0..n` to rows with at most `threads` workers (`0` → all cores),
/// preserving order. The single shared fan-out for every
/// one-task-per-source APSP sweep (Johnson, Dijkstra, Δ-stepping): `f` runs
/// identically whether the sweep is serial or parallel, so results are
/// bit-identical for any thread count.
pub(crate) fn par_rows<R, F>(n: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        t => t,
    };
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // contiguous near-equal chunks, one per worker, joined in source order
    let (base, extra) = (n / workers, n % workers);
    let start = move |w: usize| w * base + w.min(extra);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || (start(w)..start(w + 1)).map(f).collect::<Vec<R>>()))
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("sweep worker panicked")).collect()
    })
}

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::bellman_ford::bellman_ford;
    pub use crate::components::weak_components;
    pub use crate::delta_stepping::{apsp_by_delta_stepping, delta_stepping};
    pub use crate::dijkstra::{
        apsp_by_dijkstra, apsp_by_dijkstra_threads, dijkstra, dijkstra_with_parents,
    };
    pub use crate::generators::{self, GraphKind};
    pub use crate::graph::{Graph, GraphBuilder, INF};
    pub use crate::johnson::{johnson_apsp, johnson_apsp_threads};
    pub use crate::paths::{extract_path, path_length, validate_path};
}

#[cfg(test)]
mod tests {
    #[test]
    fn par_rows_preserves_order_at_any_thread_count() {
        // empty, fewer items than workers, ragged chunks, `0` → all cores
        for n in [0usize, 1, 2, 7, 64] {
            let want: Vec<usize> = (0..n).map(|i| i * i).collect();
            for threads in [0, 1, 2, 3, 8, 100] {
                assert_eq!(super::par_rows(n, threads, |i| i * i), want, "n={n} threads={threads}");
            }
        }
    }
}
