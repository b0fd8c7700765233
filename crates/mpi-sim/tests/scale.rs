//! Large-p invariant suite for the event-driven executor.
//!
//! The paper's headline runs use 1024–1536 ranks (Figs. 8/9); under the old
//! thread-per-rank runtime these tests could not even start on a small dev
//! box. Here they pin three things at paper scale: the collectives keep
//! their asymptotic message counts (allgather 2(p-1) total, barrier
//! ⌈log₂p⌉+1 ingress per rank), per-phase NIC accounting stays exact
//! (`phase_nic_bytes_sum == total_nic_bytes`), and the worker pool — not
//! the rank count — bounds concurrently-executing tasks.

use std::time::{Duration, Instant};

use mpi_sim::{CommError, Runtime};

/// Long timeout for large-p runs on small hosts: ranks spend most of their
/// wall-clock parked waiting for a worker slot, which must not be
/// misdiagnosed as a deadlock.
const SCALE_TIMEOUT: Duration = Duration::from_secs(120);

/// Small stacks keep 1024 rank tasks cheap; these closures are shallow.
const SMALL_STACK: usize = 256 * 1024;

#[test]
fn allgather_message_count_stays_linear_at_p512() {
    let p = 512usize;
    let rt = Runtime::new(p).with_recv_timeout(SCALE_TIMEOUT).with_stack_size(SMALL_STACK);
    let (out, report) = rt.run_traced(move |comm| comm.allgather(comm.rank() as u64).unwrap());
    let expect: Vec<u64> = (0..p as u64).collect();
    for v in &out {
        assert_eq!(v, &expect);
    }
    // gather-then-bcast: (p-1) + (p-1) messages — O(p), comfortably inside
    // the O(p log p) budget, and NOT the p(p-1) of naive all-to-all
    assert_eq!(
        report.total_msgs,
        2 * (p as u64 - 1),
        "allgather on {p} ranks must move exactly 2(p-1) messages"
    );
}

#[test]
fn barrier_fan_in_stays_logarithmic_at_p512() {
    let p = 512usize;
    let rt = Runtime::new(p).with_recv_timeout(SCALE_TIMEOUT).with_stack_size(SMALL_STACK);
    let ((_, report), trace) =
        apsp_trace::record("caller", || rt.run_traced(|comm| comm.barrier().unwrap()));
    assert_eq!(
        report.total_msgs,
        2 * (p as u64 - 1),
        "barrier on {p} ranks must move exactly 2(p-1) messages"
    );
    let log2p = p.next_power_of_two().trailing_zeros() as usize;
    let mut ingress = vec![0usize; p];
    for tl in &trace.timelines {
        for e in &tl.events {
            ingress[e.dst] += 1;
        }
    }
    for (r, n) in ingress.into_iter().enumerate() {
        assert!(
            n <= log2p + 1,
            "barrier on {p} ranks: rank {r} received {n} messages, \
             expected at most ⌈log₂ p⌉ + 1 = {}",
            log2p + 1
        );
    }
}

#[test]
fn smoke_1024_ranks_completes_under_wall_clock_cap() {
    let p = 1024usize;
    let workers = 8;
    let start = Instant::now();
    let rt = Runtime::new(p)
        .with_workers(workers)
        .with_stack_size(SMALL_STACK)
        .with_recv_timeout(SCALE_TIMEOUT);
    let (out, report, stats) = rt.try_run_with_stats(move |comm| -> Result<u64, CommError> {
        let got = {
            let _g = apsp_trace::span("DiagBcast");
            let data = (comm.rank() == 0).then(|| vec![42u64; 16]);
            comm.bcast(0, data)?
        };
        comm.barrier()?;
        let sum = {
            let _g = apsp_trace::span("OuterUpdate");
            comm.allreduce(comm.rank() as u64, |a, b| a + b)?
        };
        Ok(got[0] + sum)
    });
    let elapsed = start.elapsed();
    let expect_sum = (p as u64 - 1) * p as u64 / 2;
    assert_eq!(out.expect("1024-rank smoke must succeed"), vec![42 + expect_sum; p]);
    assert!(
        elapsed < Duration::from_secs(90),
        "1024-rank smoke took {elapsed:?} — the executor is not event-driven enough"
    );
    // per-phase NIC accounting must stay exact at scale
    assert_eq!(report.phase_nic_bytes_sum(), report.total_nic_bytes());
    assert!(report.phase_nic_bytes("DiagBcast") > 0);
    // the pool, not the rank count, bounds concurrent execution
    assert_eq!((stats.ranks, stats.workers), (p, workers));
    assert!(
        stats.peak_running <= workers,
        "pool of {workers} ran {} tasks at once",
        stats.peak_running
    );
    assert!(stats.parks > 0, "a 1024-rank collective must park blocked ranks");
}

#[test]
fn worker_pool_bounds_concurrent_execution() {
    // 256 ranks over 4 slots doing a split + sub-communicator broadcast:
    // heavy park/wake traffic through both the mailbox and split paths
    let p = 256usize;
    let workers = 4;
    let rt = Runtime::new(p)
        .with_workers(workers)
        .with_stack_size(SMALL_STACK)
        .with_recv_timeout(SCALE_TIMEOUT);
    let (out, _, stats) = rt.try_run_with_stats(move |comm| -> Result<u64, CommError> {
        let color = (comm.rank() % 16) as u64;
        let sub = comm.split(color, comm.rank() as u64)?;
        let data = (sub.rank() == 0).then(|| vec![color; 4]);
        let got = sub.bcast(0, data)?;
        Ok(got[0])
    });
    let out = out.expect("split + bcast at p=256");
    for (r, &v) in out.iter().enumerate() {
        assert_eq!(v, (r % 16) as u64);
    }
    assert!(
        stats.peak_running <= workers,
        "pool of {workers} ran {} tasks at once across {} parks",
        stats.peak_running,
        stats.parks
    );
    assert_eq!(stats.ranks, p);
}
