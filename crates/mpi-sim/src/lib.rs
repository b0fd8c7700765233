#![warn(missing_docs)]

//! # mpi-sim — an event-driven message-passing runtime
//!
//! Stand-in for MPI (the paper runs IBM Spectrum MPI on Summit): every rank
//! is a cooperatively-scheduled task multiplexed over a bounded worker pool
//! (see [`exec`]), point-to-point messages are tag-matched through per-rank
//! mailboxes, and collectives (binomial-tree broadcast, **pipelined ring
//! broadcast**, barriers, gathers) are built on top of p2p exactly as MPI
//! implementations build theirs. A rank that blocks parks its task and
//! yields its worker slot, so one development box can simulate the paper's
//! 1024+ rank configurations — concurrency is bounded by the pool size
//! ([`Runtime::with_workers`]), not by the rank count.
//!
//! Two features matter for reproducing the paper:
//!
//! * **Ring broadcast (§3.3)** — [`collectives`] implements both the
//!   latency-optimal binomial tree (the "library broadcast") and the
//!   bandwidth-optimal pipelined ring used for `PanelBcast`.
//! * **Traffic accounting (§3.4, §5.1.3)** — a [`placement::Placement`]
//!   assigns ranks to *nodes*; [`counters`] splits every byte sent into
//!   intra-node and inter-node (NIC) traffic, so the communication-volume
//!   lower bound `t_w · (n²·Q_r/P_r + n²·Q_c/P_c)` can be *measured* on real
//!   runs instead of asserted.
//!
//! Failure is fail-fast and typed: receives and collectives return
//! [`error::CommError`] (structured deadlock reports, peer-failure
//! notifications) instead of panicking, [`Runtime::try_run`] reports
//! per-rank outcomes as a [`runtime::RunError`], and the moment one rank
//! fails every blocked peer is woken by mailbox poisoning. A deterministic
//! [`fault::FaultPlan`] can kill a rank or drop/delay one message to
//! exercise exactly those paths.
//!
//! ## Example
//!
//! ```
//! use mpi_sim::Runtime;
//!
//! // 4 ranks: everybody learns rank 0's payload via binomial broadcast.
//! let results = Runtime::new(4).run(|comm| {
//!     let data = if comm.rank() == 0 { Some(vec![1.0f32, 2.0, 3.0]) } else { None };
//!     comm.bcast(0, data).unwrap()
//! });
//! assert!(results.iter().all(|v| v == &[1.0, 2.0, 3.0]));
//! ```

pub mod collectives;
pub mod comm;
pub mod counters;
pub mod error;
pub mod exec;
pub mod fault;
pub mod grid;
pub mod p2p;
pub mod payload;
pub mod placement;
pub mod runtime;
mod trace;

pub use comm::Comm;
pub use counters::TrafficReport;
pub use error::{CommError, DeadlockReport};
pub use exec::ExecStats;
pub use fault::{FaultAction, FaultPlan};
pub use grid::ProcessGrid;
pub use p2p::MatchKey;
pub use payload::Payload;
pub use placement::Placement;
pub use runtime::{FailureKind, RankFailure, RunError, Runtime};
