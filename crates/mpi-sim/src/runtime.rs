//! Runtime: run an SPMD closure with one cooperatively-scheduled task per
//! rank, multiplexed over a bounded worker pool (see [`crate::exec`]).
//!
//! Each rank task owns a dedicated call stack, but only `workers` tasks
//! *execute* at any instant: a rank that blocks in `recv` or a
//! collective parks its task and hands its worker slot to the next runnable
//! rank, and message delivery re-enqueues the waiter. That is what lets one
//! development box simulate 1024+ ranks — concurrency is bounded by the
//! pool, not by `p`. Receive timeouts are deadlines on the scheduler's
//! timer wheel, serviced by a single runtime-scoped timekeeper thread that
//! also performs fault-delayed deliveries (no fire-and-forget helper
//! threads anywhere in the stack).
//!
//! Failure is a first-class outcome: the `try_run*` entry points return a
//! typed [`RunError`] with per-rank failures in the order they happened
//! (first entry = first failure), and the moment any rank fails — returns
//! an error *or* panics — the runtime poisons every mailbox so blocked
//! peers wake immediately with [`crate::CommError::PeerFailed`] instead of
//! burning the full receive timeout. The panic-flavoured `run*` wrappers
//! keep the old ergonomics for tests.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::comm::{Comm, Shared};
use crate::counters::TrafficReport;
use crate::error::CommError;
use crate::exec::ExecStats;
use crate::fault::{FaultPlan, FaultState};
use crate::placement::Placement;

/// Why one rank failed.
#[derive(Clone, PartialEq, Eq)]
pub enum FailureKind<E> {
    /// The rank's closure returned this error.
    App(E),
    /// The rank's closure panicked; the payload rendered as a string.
    Panic(String),
}

impl<E: fmt::Display> fmt::Display for FailureKind<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailureKind::App(e) => fmt::Display::fmt(e, f),
            FailureKind::Panic(msg) => write!(f, "panicked: {msg}"),
        }
    }
}

impl<E: fmt::Display> fmt::Debug for FailureKind<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// One rank's failure.
#[derive(Clone, PartialEq, Eq)]
pub struct RankFailure<E> {
    /// World rank that failed.
    pub rank: usize,
    /// What went wrong on it.
    pub error: FailureKind<E>,
}

/// A failed SPMD run: every rank that failed, in the order the failures
/// were observed — `failures[0]` is the *first* failure, the one that
/// (via mailbox poisoning) usually caused the rest.
#[derive(Clone, PartialEq, Eq)]
pub struct RunError<E> {
    /// Per-rank failures in observation order (never empty).
    pub failures: Vec<RankFailure<E>>,
}

impl<E> RunError<E> {
    /// The first failure — the root cause under first-failure attribution.
    pub fn first(&self) -> &RankFailure<E> {
        &self.failures[0]
    }
}

impl<E: fmt::Display> fmt::Display for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let first = self.first();
        write!(f, "rank {} failed: {}", first.rank, first.error)?;
        if self.failures.len() > 1 {
            write!(f, " ({} more rank(s) failed after it)", self.failures.len() - 1)?;
        }
        Ok(())
    }
}

impl<E: fmt::Display> fmt::Debug for RunError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl<E: fmt::Display> std::error::Error for RunError<E> {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Everything one run produces; the public `run*`/`try_run*` wrappers each
/// expose the slice of this tuple they promise.
type RunOutcome<R, E> = (Result<Vec<R>, RunError<E>>, TrafficReport, ExecStats);

/// Configures and launches an SPMD job. Each rank runs the user closure as
/// a cooperatively-scheduled task with a [`Comm`] world communicator;
/// [`Runtime::with_workers`] bounds how many execute concurrently. A run
/// started on a thread with an `apsp_trace` recorder installed records one
/// track per rank on it.
pub struct Runtime {
    p: usize,
    placement: Placement,
    recv_timeout: Duration,
    faults: FaultPlan,
    workers: Option<usize>,
    stack_bytes: Option<usize>,
}

impl Runtime {
    /// A runtime with `p` ranks, one rank per node (every message is
    /// inter-node), a 30 s deadlock-detection timeout, and a worker pool
    /// sized to the host's available parallelism (capped at `p`).
    pub fn new(p: usize) -> Self {
        assert!(p > 0, "need at least one rank");
        Runtime {
            p,
            placement: Placement::one_rank_per_node(p),
            recv_timeout: Duration::from_secs(30),
            faults: FaultPlan::none(),
            workers: None,
            stack_bytes: None,
        }
    }

    /// Use an explicit rank→node placement (paper §3.4).
    ///
    /// # Panics
    /// Panics if the placement's rank count differs from the runtime's.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        assert_eq!(placement.num_ranks(), self.p, "placement rank count mismatch");
        self.placement = placement;
        self
    }

    /// Override the receive timeout (tests of deadlock behaviour shorten it).
    pub fn with_recv_timeout(mut self, t: Duration) -> Self {
        self.recv_timeout = t;
        self
    }

    /// Attach a deterministic fault-injection plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Bound the worker pool: at most `workers` rank tasks execute
    /// concurrently, regardless of `p`. The default is the host's available
    /// parallelism capped at `p`. Any `workers >= 1` is deadlock-free —
    /// blocked ranks park and release their slot.
    ///
    /// # Panics
    /// Panics if `workers` is zero.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "the worker pool needs at least one slot");
        self.workers = Some(workers);
        self
    }

    /// Override the per-rank stack size in bytes (default: the platform
    /// thread default, ≈2 MiB of lazily-committed address space). Large-`p`
    /// smoke tests with shallow closures can shrink this substantially.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_bytes = Some(bytes);
        self
    }

    fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
                .min(self.p)
                .max(1)
        })
    }

    /// Run the SPMD closure; returns per-rank results in rank order.
    ///
    /// # Panics
    /// Panics with the [`RunError`] report if any rank fails (deadlock
    /// timeout, injected fault, or a panic inside the closure).
    pub fn run<R: Send>(&self, f: impl Fn(Comm) -> R + Send + Sync) -> Vec<R> {
        self.run_traced(f).0
    }

    /// Like [`Runtime::run`] but also returns the traffic report.
    pub fn run_traced<R: Send>(
        &self,
        f: impl Fn(Comm) -> R + Send + Sync,
    ) -> (Vec<R>, TrafficReport) {
        let (out, traffic, _) = self.try_run_inner(move |comm| Ok::<R, CommError>(f(comm)));
        match out {
            Ok(v) => (v, traffic),
            Err(e) => panic!("{e}"),
        }
    }

    /// Run a fallible SPMD closure; returns per-rank results in rank order,
    /// or a [`RunError`] naming every failed rank (first failure first).
    /// The instant any rank fails, all mailboxes are poisoned so the other
    /// ranks fail fast with [`CommError::PeerFailed`] rather than waiting
    /// out their receive timeouts.
    pub fn try_run<R: Send, E: Send>(
        &self,
        f: impl Fn(Comm) -> Result<R, E> + Send + Sync,
    ) -> Result<Vec<R>, RunError<E>> {
        self.try_run_inner(f).0
    }

    /// Like [`Runtime::try_run`] but also returns the traffic report
    /// (counted even for a failed run — the bytes were sent).
    pub fn try_run_traced<R: Send, E: Send>(
        &self,
        f: impl Fn(Comm) -> Result<R, E> + Send + Sync,
    ) -> (Result<Vec<R>, RunError<E>>, TrafficReport) {
        let (out, traffic, _) = self.try_run_inner(f);
        (out, traffic)
    }

    /// Like [`Runtime::try_run_traced`] but additionally returns the
    /// executor's scheduling counters ([`ExecStats`]) — in particular
    /// `peak_running`, which the scale suite asserts never exceeds the
    /// worker-pool size.
    pub fn try_run_with_stats<R: Send, E: Send>(
        &self,
        f: impl Fn(Comm) -> Result<R, E> + Send + Sync,
    ) -> (Result<Vec<R>, RunError<E>>, TrafficReport, ExecStats) {
        self.try_run_inner(f)
    }

    fn try_run_inner<R: Send, E: Send>(
        &self,
        f: impl Fn(Comm) -> Result<R, E> + Send + Sync,
    ) -> RunOutcome<R, E> {
        let faults = (!self.faults.is_empty())
            .then(|| FaultState::new(self.faults.clone(), self.p));
        let shared = Arc::new(Shared::new(
            self.p,
            self.worker_count(),
            self.placement.clone(),
            self.recv_timeout,
            faults,
        ));
        let results: Vec<Mutex<Option<R>>> = (0..self.p).map(|_| Mutex::new(None)).collect();
        let failures: Mutex<Vec<RankFailure<E>>> = Mutex::new(Vec::new());
        let f = &f;
        let failures_ref = &failures;

        std::thread::scope(|scope| {
            // The timekeeper services the deadline wheel (recv
            // timeouts) and performs fault-delayed deliveries. It is scoped
            // to this run: shutdown() below ends it, and any still-pending
            // delayed deliveries are cancelled with it — nothing outlives
            // the runtime.
            let tk_shared = shared.clone();
            std::thread::Builder::new()
                .name("mpi-sim-timer".to_string())
                .spawn_scoped(scope, move || {
                    let deliver_shared = tk_shared.clone();
                    tk_shared.sched.timekeeper_loop(move |dst, key, payload| {
                        deliver_shared.mailboxes[dst].deliver(key, payload);
                        deliver_shared.sched.wake(dst);
                    });
                })
                .expect("spawn timekeeper thread");

            let mut handles = Vec::with_capacity(self.p);
            let tracks = crate::trace::rank_tracks(self.p);
            for ((rank, slot), track) in results.iter().enumerate().zip(tracks) {
                let shared = shared.clone();
                let mut builder =
                    std::thread::Builder::new().name(format!("rank-{rank}"));
                if let Some(bytes) = self.stack_bytes {
                    builder = builder.stack_size(bytes);
                }
                handles.push(
                    builder
                        .spawn_scoped(scope, move || {
                            let _track = track.map(apsp_trace::Track::install);
                            // wait for a worker slot before touching user code
                            shared.sched.register_current(rank);
                            let comm = Comm::world(shared.clone(), rank);
                            // catch_unwind keeps one rank's panic from
                            // unwinding through the scope while peers are
                            // still blocked (the old double-panic abort).
                            match std::panic::catch_unwind(AssertUnwindSafe(|| f(comm))) {
                                Ok(Ok(r)) => *slot.lock() = Some(r),
                                Ok(Err(e)) => {
                                    // record before poisoning so the root
                                    // cause always precedes the PeerFailed
                                    // wakeups it triggers
                                    failures_ref
                                        .lock()
                                        .push(RankFailure { rank, error: FailureKind::App(e) });
                                    shared.poison(rank);
                                }
                                Err(payload) => {
                                    let msg = panic_message(payload.as_ref());
                                    failures_ref
                                        .lock()
                                        .push(RankFailure { rank, error: FailureKind::Panic(msg) });
                                    shared.poison(rank);
                                }
                            }
                            // release the worker slot to the next runnable rank
                            shared.sched.finish(rank);
                        })
                        .expect("spawn rank thread"),
                );
            }
            for h in handles {
                // rank panics are caught above; a join error here would be
                // a bug in the harness itself
                h.join().expect("rank thread infrastructure panicked");
            }
            // all ranks are done — stop the timekeeper (joined by the scope)
            shared.sched.shutdown();
        });

        let failures = failures.into_inner();
        let traffic = shared.counters.snapshot();
        let stats = shared.sched.stats();
        let out = if failures.is_empty() {
            Ok(results
                .into_iter()
                .map(|m| m.into_inner().expect("rank finished without a result"))
                .collect())
        } else {
            Err(RunError { failures })
        };
        (out, traffic, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::time::Instant;

    /// Every rank learns the sum of all ranks: a gather to rank 0, then a
    /// tree broadcast of the total.
    fn rank_sum(comm: &Comm) -> Result<u64, CommError> {
        let total = comm.gather(0, comm.rank() as u64)?.map(|v| v.iter().sum());
        comm.bcast(0, total)
    }

    #[test]
    fn ranks_see_their_ids() {
        let out = Runtime::new(5).run(|comm| (comm.rank(), comm.size()));
        for (i, &(r, s)) in out.iter().enumerate() {
            assert_eq!(r, i);
            assert_eq!(s, 5);
        }
    }

    #[test]
    fn traced_run_counts_internode_bytes() {
        let rt = Runtime::new(2);
        let (_, report) = rt.run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 128]).unwrap();
            } else {
                let _: Vec<u8> = comm.recv(0, 0).unwrap();
            }
        });
        assert_eq!(report.total_nic_bytes(), 128);
        assert_eq!(report.total_msgs, 1);
    }

    #[test]
    fn single_node_placement_reports_zero_nic_traffic() {
        let rt = Runtime::new(2).with_placement(Placement::single_node(2));
        let (_, report) = rt.run_traced(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![0u8; 128]).unwrap();
            } else {
                let _: Vec<u8> = comm.recv(0, 0).unwrap();
            }
        });
        assert_eq!(report.total_nic_bytes(), 0);
        assert_eq!(report.total_intra_bytes(), 128);
    }

    #[test]
    fn traced_run_records_spans_and_messages() {
        let rt = Runtime::new(2);
        let ((_, report), trace) = apsp_trace::record("caller", || {
            rt.run_traced(|comm| {
                let _p = apsp_trace::span("DiagBcast");
                if comm.rank() == 0 {
                    comm.send(1, 0, vec![0u8; 64]).unwrap();
                } else {
                    let _: Vec<u8> = comm.recv(0, 0).unwrap();
                }
            })
        });
        // the caller's track, then one per rank
        assert_eq!(trace.timelines.len(), 3);
        let ranks = &trace.timelines[1..];
        for tl in ranks {
            assert_eq!(tl.spans.len(), 1);
            assert_eq!(tl.spans[0].name, "DiagBcast");
        }
        // only rank 0 sent anything
        assert_eq!(ranks[0].events.len(), 1);
        let e = ranks[0].events[0];
        assert_eq!((e.dst, e.bytes, e.nic, e.phase), (1, 64, true, Some("DiagBcast")));
        assert!(ranks[1].events.is_empty());
        assert_eq!(report.phase_nic_bytes("DiagBcast"), 64);
    }

    #[test]
    #[should_panic(expected = "timed out")]
    fn deadlock_is_converted_to_panic() {
        Runtime::new(1)
            .with_recv_timeout(Duration::from_millis(20))
            .run(|comm| {
                let _: u8 = comm.recv(0, 9).unwrap(); // nobody ever sends
            });
    }

    #[test]
    fn try_run_returns_typed_timeout_instead_of_panicking() {
        let err = Runtime::new(1)
            .with_recv_timeout(Duration::from_millis(20))
            .try_run(|comm| comm.recv::<u8>(0, 9))
            .expect_err("nobody ever sends");
        assert!(matches!(
            err.first().error,
            FailureKind::App(CommError::RecvTimeout(_))
        ));
    }

    #[test]
    fn rank_panic_is_caught_and_peers_fail_fast() {
        // Under the old runtime this was the double-panic scenario: rank 0
        // panics while rank 1 blocks; now rank 1 is woken immediately with
        // PeerFailed and the whole job reports a typed RunError.
        let rt = Runtime::new(2).with_recv_timeout(Duration::from_secs(30));
        let start = Instant::now();
        let err = rt
            .try_run(|comm| -> Result<(), CommError> {
                if comm.rank() == 0 {
                    panic!("rank 0 exploded");
                }
                let _: u8 = comm.recv(0, 1)?;
                Ok(())
            })
            .expect_err("rank 0 panics");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "peers must not burn the 30s recv timeout"
        );
        let first = err.first();
        assert_eq!(first.rank, 0);
        assert!(matches!(&first.error, FailureKind::Panic(m) if m.contains("rank 0 exploded")));
        assert!(err
            .failures
            .iter()
            .any(|f| f.rank == 1
                && matches!(f.error, FailureKind::App(CommError::PeerFailed { rank: 0 }))));
    }

    #[test]
    fn app_error_poisons_blocked_peers() {
        let rt = Runtime::new(3).with_recv_timeout(Duration::from_secs(30));
        let start = Instant::now();
        let err = rt
            .try_run(|comm| -> Result<u8, String> {
                if comm.rank() == 2 {
                    return Err("disk on rank 2 caught fire".to_string());
                }
                comm.recv::<u8>(2, 1).map_err(|e| e.to_string())
            })
            .expect_err("rank 2 fails");
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(err.first().rank, 2);
        assert!(matches!(&err.first().error, FailureKind::App(m) if m.contains("caught fire")));
        // both peers were woken with PeerFailed{2}, stringified by the map_err
        let woken = err
            .failures
            .iter()
            .filter(|f| matches!(&f.error, FailureKind::App(m) if m.contains("peer failure")))
            .count();
        assert_eq!(woken, 2);
        assert!(format!("{err}").contains("2 more rank(s)"), "{err}");
    }

    /// The ordering claim the comment in `try_run_inner` makes — "record
    /// before poisoning so the root cause always precedes the PeerFailed
    /// wakeups" — exercised at high p on a tiny pool, where the poison
    /// fan-out wakes hundreds of parked ranks nearly simultaneously.
    #[test]
    fn root_cause_app_error_precedes_peer_failed_cascade_at_high_p() {
        let p = 256;
        let rt = Runtime::new(p)
            .with_workers(4)
            .with_stack_size(256 * 1024)
            .with_recv_timeout(Duration::from_secs(60));
        let err = rt
            .try_run(move |comm| -> Result<(), CommError> {
                if comm.rank() == 17 {
                    return Err(CommError::Killed { rank: 17 });
                }
                let _: u8 = comm.recv(17, 1)?;
                Ok(())
            })
            .expect_err("rank 17 fails");
        assert_eq!(err.first().rank, 17, "root cause must be the first failure recorded");
        assert!(matches!(err.first().error, FailureKind::App(CommError::Killed { rank: 17 })));
        assert_eq!(err.failures.len(), p, "every peer reports the cascade");
        for f in &err.failures[1..] {
            assert!(
                matches!(f.error, FailureKind::App(CommError::PeerFailed { rank: 17 })),
                "rank {} must blame the root cause, got {:?}",
                f.rank,
                f.error
            );
        }
    }

    #[test]
    fn root_cause_panic_precedes_peer_failed_cascade_at_high_p() {
        let p = 256;
        let rt = Runtime::new(p)
            .with_workers(4)
            .with_stack_size(256 * 1024)
            .with_recv_timeout(Duration::from_secs(60));
        let err = rt
            .try_run(move |comm| -> Result<(), CommError> {
                if comm.rank() == 99 {
                    panic!("rank 99 exploded at scale");
                }
                let _: u8 = comm.recv(99, 1)?;
                Ok(())
            })
            .expect_err("rank 99 panics");
        assert_eq!(err.first().rank, 99);
        assert!(matches!(&err.first().error, FailureKind::Panic(m) if m.contains("exploded")));
        for f in &err.failures[1..] {
            assert!(matches!(f.error, FailureKind::App(CommError::PeerFailed { rank: 99 })));
        }
    }

    #[test]
    fn stats_report_pool_bounds_and_scheduling_activity() {
        let (out, _, stats) =
            Runtime::new(16).with_workers(2).try_run_with_stats(|comm| rank_sum(&comm));
        assert_eq!(out.unwrap(), vec![120; 16]);
        assert_eq!((stats.ranks, stats.workers), (16, 2));
        assert!(stats.peak_running <= 2, "pool of 2 ran {} tasks at once", stats.peak_running);
        assert!(stats.parks > 0, "a gather over 16 ranks must park someone");
        assert!(stats.wakes > 0);
    }

    #[test]
    fn kill_fault_terminates_every_rank_quickly() {
        // kill rank 1 before its very first send: the ring broadcast can
        // never complete, and every rank must come back with a typed error
        // long before the 30 s timeout.
        let rt = Runtime::new(4).with_faults(FaultPlan::kill(1, 0));
        let start = Instant::now();
        let err = rt
            .try_run(|comm| {
                let data = (comm.rank() == 0).then(|| vec![1u8; 64]);
                comm.ring_bcast(0, data, 4)
            })
            .expect_err("the killed rank breaks the ring");
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(err.first().rank, 1);
        assert!(matches!(
            err.first().error,
            FailureKind::App(CommError::Killed { rank: 1 })
        ));
        for f in &err.failures[1..] {
            assert!(
                matches!(f.error, FailureKind::App(CommError::PeerFailed { rank: 1 })),
                "rank {} should fail fast with PeerFailed, got {:?}",
                f.rank,
                f.error
            );
        }
    }

    #[test]
    fn drop_fault_surfaces_as_recv_timeout() {
        // drop rank 0's first send: rank 1 times out with the typed report.
        let rt = Runtime::new(2)
            .with_recv_timeout(Duration::from_millis(50))
            .with_faults(FaultPlan::drop_nth(0, 0));
        let err = rt
            .try_run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, 42u64)?;
                    Ok(0)
                } else {
                    comm.recv::<u64>(0, 7)
                }
            })
            .expect_err("the dropped message never arrives");
        assert_eq!(err.first().rank, 1);
        assert!(matches!(
            err.first().error,
            FailureKind::App(CommError::RecvTimeout(_))
        ));
    }

    #[test]
    fn delay_fault_holds_delivery_but_preserves_the_result() {
        let rt = Runtime::new(2).with_faults(FaultPlan::delay_nth(
            0,
            0,
            Duration::from_millis(50),
        ));
        let start = Instant::now();
        let (out, _, stats) = rt.try_run_with_stats(|comm| -> Result<u64, CommError> {
            if comm.rank() == 0 {
                comm.send(1, 7, 42u64)?;
                Ok(0)
            } else {
                comm.recv::<u64>(0, 7)
            }
        });
        assert_eq!(out.unwrap()[1], 42);
        assert!(start.elapsed() >= Duration::from_millis(45));
        // the delayed message went through the timekeeper's wheel, not a
        // fire-and-forget helper thread
        assert_eq!(stats.timer_deliveries, 1);
    }

    #[test]
    fn fault_free_plan_changes_nothing() {
        let base = Runtime::new(3).run(|comm| rank_sum(&comm).unwrap());
        let with_plan =
            Runtime::new(3).with_faults(FaultPlan::none()).run(|comm| rank_sum(&comm).unwrap());
        assert_eq!(base, with_plan);
    }
}
