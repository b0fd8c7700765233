//! APSP-as-a-service: an epoch-snapshot query engine over a solved
//! closure, with safe streaming updates.
//!
//! The ROADMAP's "millions of users" story: the workspace can *compute*
//! full distance matrices nine different ways, and this module *serves*
//! them. Three pieces:
//!
//! * [`Engine`] — the concurrency core. The current [`Snapshot`] (a
//!   witness-annotated closure plus an epoch number) sits behind an
//!   `Arc`-swap; readers grab it with one refcount bump and answer whole
//!   query batches lock-free against immutable data, while a single
//!   writer absorbs [`crate::incremental`] decrease batches into a copy
//!   and publishes the next epoch with a pointer swap. Readers never
//!   block the writer, the writer never blocks readers, and a batch can
//!   never observe two epochs.
//! * [`proto`] — the line-oriented request/response protocol spoken by
//!   `apsp serve` (stdin or TCP) and the `apsp bench serve-load`
//!   generator. Batch-aware (`dist` takes many pairs per line), and every
//!   failure is a typed response — malformed client input can not kill
//!   the server.
//! * the incremental fixes underneath ([`crate::incremental`]): typed
//!   rejection of negative self-loops / negative cycles / NaN weights /
//!   bad vertices, and witness-carrying updates so path reconstruction
//!   stays correct across epochs.
//!
//! Decrease-only today, matching the incremental updater; increase-type
//! updates (affected-source recompute) are the declared follow-on in the
//! ROADMAP.
//!
//! ```
//! use apsp_core::serve::Engine;
//! use apsp_graph::generators::{uniform_dense, WeightKind};
//!
//! let g = uniform_dense(32, WeightKind::small_ints(), 7);
//! let engine = Engine::solve_from_graph(&g, 16).unwrap();
//! let snap = engine.snapshot();               // epoch 0
//! let d = snap.dist(0, 31).unwrap();
//! engine.apply(&[(0, 31, 0.5)]);              // writer publishes epoch 1
//! assert_eq!(snap.dist(0, 31).unwrap(), d);   // old snapshot: consistent
//! assert!(engine.snapshot().dist(0, 31).unwrap() <= 0.5);
//! ```

pub mod engine;
pub mod proto;

pub use engine::{Engine, QueryError, Snapshot, UpdateOutcome};
pub use proto::{handle_line, Reply, Request};
