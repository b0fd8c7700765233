#![warn(missing_docs)]

//! # cluster-sim — a discrete-event cluster model
//!
//! The paper's headline results (Figs. 3–4 and 7–9) are timings on up to 256
//! Summit nodes. Without that machine, we *simulate* it: each algorithm
//! variant is lowered to a **task DAG** — compute tasks on per-node GPU
//! resources, transfer tasks on per-node NIC resources, host-memory tasks —
//! and a deterministic list-scheduling discrete-event engine executes the
//! DAG on resource timelines. Communication/computation overlap, pipeline
//! depth, and ring-broadcast asynchrony all *emerge* from the schedule, so
//! the figure shapes (who wins, where the crossovers sit) are reproduced
//! rather than asserted.
//!
//! * [`task`] — DAG construction ([`task::TaskGraph`]).
//! * [`engine`] — the event-driven scheduler ([`engine::run`]): a task
//!   starts at `max(deps' finish, resource free)`, each resource runs one
//!   task at a time, ready tasks are picked FIFO with priority tie-break.
//! * [`machine`] — calibrated machine constants
//!   ([`machine::MachineSpec::summit`]) and the [`machine::Cluster`] facade
//!   that maps (node, engine-kind) to resources and durations.

pub mod engine;
pub mod machine;
pub mod task;
pub mod trace;

pub use engine::{run, try_run, try_run_with_faults, EngineError, ResourceFault, Schedule};
pub use trace::chrome_trace;
pub use machine::{Cluster, MachineSpec};
pub use task::{ResourceId, TaskGraph, TaskId};
