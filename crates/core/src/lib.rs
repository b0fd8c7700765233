#![warn(missing_docs)]

//! # apsp-core — distributed GPU-offload Floyd-Warshall APSP
//!
//! Reproduction of *Scalable All-pairs Shortest Paths for Huge Graphs on
//! Multi-GPU Clusters* (Sao et al., HPDC 2021) as a Rust library. The
//! paper's algorithms, bottom-up:
//!
//! * [`fw_seq`](mod@fw_seq) — Algorithm 1, the classic `O(n³)` triple loop
//!   (plus a predecessor-tracking variant for path reconstruction).
//! * [`fw_blocked`](mod@fw_blocked) — Algorithm 2: DiagUpdate / PanelUpdate
//!   / MinPlus outer product over `b×b` blocks, with the diagonal closed
//!   either by Floyd-Warshall or by the repeated-squaring Neumann form
//!   (Eq. 4).
//! * [`dist`] — the distributed algorithms over the [`mpi_sim`] runtime,
//!   spanned by three orthogonal policy axes rather than a closed variant
//!   list:
//!   - [`dist::Schedule`] — bulk-synchronous (Algorithm 3) vs look-ahead
//!     pipelined (Algorithm 4),
//!   - [`dist::PanelBcastAlgo`] — binomial tree vs the bandwidth-optimal
//!     pipelined ring `PanelBcast` (§3.3),
//!   - [`dist::Exec`] — in-core GEMM vs `Me-ParallelFw`'s host-resident
//!     offload through a simulated GPU by `ooGSrGemm` (§4.3).
//!
//!   [`dist::Variant`] names the paper's legends as presets over the cube —
//!   `Baseline`, `Pipelined`, `+Async`, `Offload`, and the composed
//!   [`dist::Variant::CoMe`] (`Co+Me`: look-ahead + ring + offload, the
//!   Fig. 7 configuration that reaches n = 1.66M).
//! * [`model`] — the paper's performance models: Eq. 1, the §3.4.1
//!   communication-volume lower bound, Eq. 5, and the §5.1.3 metrics.
//! * [`schedule`] — lowers any policy triple to a [`cluster_sim`] task DAG
//!   at Summit scale; this is what regenerates the paper's Figs. 3–4 and
//!   7–9.
//! * [`serve`] — APSP-as-a-service: an epoch-snapshot query engine over a
//!   solved closure ([`serve::Engine`]), batched point-to-point /
//!   one-to-many / path queries against `Arc`-swapped immutable
//!   [`serve::Snapshot`]s while a single writer streams
//!   [`incremental`](mod@incremental) decrease batches and publishes new
//!   epochs; spoken over a line protocol by `apsp serve`.
//! * [`quant`] — low-precision quantized solves: scale-and-round weights
//!   into `u16`, run blocked FW over the integer min-plus semiring that
//!   saturates at the half-range sentinel 32 767 (twice the SIMD lanes of
//!   `f32` through the same packed kernel, a plain add in the inner
//!   loop), and dequantize under a provable `±eps` bound, with typed
//!   overflow/tolerance rejection ([`quant::QuantError`]) decided before
//!   any work happens.
//! * [`ooc`] — the tiled FW loop over a tile store: out-of-core under a
//!   RAM budget (the disk tier of §4.3–4.5), and block-sparse where tiles
//!   without paths are absent and skipped.
//! * [`solver`] — one [`Solver`] registry over every APSP algorithm in the
//!   workspace, one name per code path (dense FW, the tiled FW loop that is
//!   both out-of-core and block-sparse, Johnson's Dijkstra sweep,
//!   Δ-stepping, the distributed driver), a one-pass [`GraphProfile`], and a
//!   calibrated cost-model planner behind `--algo auto` / `apsp plan` that
//!   picks a solver and explains why — ineligibility is typed
//!   ([`Ineligible`]), never a panic.
//!
//! ## Quickstart
//!
//! ```
//! use apsp_graph::generators::{uniform_dense, WeightKind};
//! use apsp_core::fw_blocked::{fw_blocked_threads, DiagMethod};
//! use srgemm::MinPlusF32;
//!
//! let g = uniform_dense(64, WeightKind::small_ints(), 42);
//! let mut d = g.to_dense();
//! fw_blocked_threads::<MinPlusF32>(&mut d, 16, DiagMethod::FwClosure, 2);
//! // d now holds all-pairs shortest distances.
//! assert_eq!(d[(0, 0)], 0.0);
//! ```

pub mod dc_apsp;
pub mod dist;
pub mod fw_blocked;
pub mod fw_seq;
pub mod incremental;
pub mod model;
pub mod ooc;
pub mod paths_dist;
pub mod quant;
pub mod schedule;
pub mod serve;
pub mod solver;
pub mod verify;

pub use dist::{
    distributed_apsp, distributed_apsp_opts, distributed_apsp_traced,
    distributed_apsp_traced_opts, DistError, DistRunOpts, Exec, FwConfig, PanelBcastAlgo,
    Schedule, Variant,
};
pub use fw_blocked::{fw_blocked, fw_blocked_threads, DiagMethod};
pub use fw_seq::{fw_seq, fw_seq_with_paths};
pub use incremental::{BatchReport, IncrementalError};
pub use serve::{Engine, Snapshot};
pub use solver::{
    GraphProfile, Ineligible, Plan, Registry, Solution, SolveError, SolveOpts, Solver, SolverStats,
};

/// The host's parallelism: what a thread budget left at "all cores" means.
pub(crate) fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

// Block-sparse Floyd-Warshall (the §7 direction, the paper's reference [31])
// is `ooc::ooc_fw` over a store that holds a graph's all-∞ tiles absent; the
// registry runs it as `ooc` (alias `sparse`), on a memory store unless a
// budget forces a file. Its tests, on both store kinds, live here.
#[cfg(test)]
mod fw_sparse {
    pub(crate) mod tests;
}
