//! Large-p invariant suite for the event-driven executor.
//!
//! The paper's headline runs use 1024–1536 ranks (Figs. 8/9); under the old
//! thread-per-rank runtime these tests could not even start on a small dev
//! box. Here they pin three things at paper scale: the collectives
//! ParallelFw uses keep their exact message counts (tree broadcast `p − 1`
//! with at most one receive per rank, gather `p − 1`, ring broadcast
//! `(p − 1)(chunks + 1)`), per-phase NIC accounting stays exact, and the
//! worker pool — not the rank count — bounds concurrently-executing tasks.

use std::time::{Duration, Instant};

use mpi_sim::{CommError, ProcessGrid, Runtime};

/// Long timeout for large-p runs on small hosts: ranks spend most of their
/// wall-clock parked waiting for a worker slot, which must not be
/// misdiagnosed as a deadlock.
const SCALE_TIMEOUT: Duration = Duration::from_secs(120);

/// Small stacks keep 1024 rank tasks cheap; these closures are shallow.
const SMALL_STACK: usize = 256 * 1024;

fn runtime(p: usize) -> Runtime {
    Runtime::new(p).with_recv_timeout(SCALE_TIMEOUT).with_stack_size(SMALL_STACK)
}

#[test]
fn tree_bcast_moves_p_minus_1_messages_at_p512() {
    let p = 512usize;
    let root = 137;
    let rt = runtime(p);
    let ((out, report), trace) = apsp_trace::record("caller", || {
        rt.run_traced(move |comm| {
            comm.bcast(root, (comm.rank() == root).then_some(7u64)).unwrap()
        })
    });
    assert!(out.iter().all(|&v| v == 7));
    assert_eq!(report.total_msgs, p as u64 - 1, "tree bcast on {p} ranks");
    let mut ingress = vec![0usize; p];
    for tl in &trace.timelines {
        for e in &tl.events {
            ingress[e.dst] += 1;
        }
    }
    for (r, n) in ingress.into_iter().enumerate() {
        assert_eq!(n, usize::from(r != root), "rank {r} received {n} messages");
    }
}

#[test]
fn gather_moves_p_minus_1_messages_at_p512() {
    let p = 512usize;
    let (out, report) =
        runtime(p).run_traced(|comm| comm.gather(0, comm.rank() as u64).unwrap());
    assert_eq!(out[0], Some((0..p as u64).collect::<Vec<_>>()));
    assert!(out[1..].iter().all(Option::is_none));
    assert_eq!(report.total_msgs, p as u64 - 1, "gather on {p} ranks");
}

#[test]
fn ring_bcast_moves_p_minus_1_times_chunks_plus_1_messages_at_p512() {
    let p = 512usize;
    let chunks = 4u64;
    let (out, report) = runtime(p).run_traced(move |comm| {
        let data = (comm.rank() == 3).then(|| vec![5u32; 100]);
        comm.ring_bcast(3, data, chunks as usize).unwrap()
    });
    assert!(out.iter().all(|v| v == &vec![5u32; 100]));
    // every hop carries the chunk-count header and each chunk once
    assert_eq!(report.total_msgs, (p as u64 - 1) * (chunks + 1), "ring bcast on {p} ranks");
}

#[test]
fn smoke_1024_ranks_completes_under_wall_clock_cap() {
    let (pr, pc) = (32usize, 32usize);
    let p = pr * pc;
    let workers = 8;
    let start = Instant::now();
    let rt = runtime(p).with_workers(workers);
    let (out, report, stats) = rt.try_run_with_stats(move |comm| -> Result<_, CommError> {
        let g = ProcessGrid::new(comm, pr, pc);
        let (r, c) = g.coords();
        let diag = {
            let _g = apsp_trace::span("DiagBcast");
            g.row.bcast(0, (c == 0).then(|| vec![r as u64; 16]))?
        };
        let panel = {
            let _g = apsp_trace::span("PanelBcast");
            g.col.ring_bcast(0, (r == 0).then(|| vec![c as u64; 64]), 4)?
        };
        g.grid.gather(0, diag[0] * 100 + panel[0])
    });
    let elapsed = start.elapsed();
    let out = out.expect("1024-rank smoke must succeed");
    let expect: Vec<u64> = (0..p as u64).map(|g| g / pc as u64 * 100 + g % pc as u64).collect();
    assert_eq!(out[0].as_ref(), Some(&expect));
    assert!(
        elapsed < Duration::from_secs(90),
        "1024-rank smoke took {elapsed:?} — the executor is not event-driven enough"
    );
    // per-phase NIC accounting is exact at scale (one rank per node, so
    // every hop crosses a NIC): pr row trees of pc − 1 hops, pc column
    // rings of pr − 1 hops (64 u64s in 4 chunks plus the 8-byte header),
    // and p − 1 untraced gather sends
    assert_eq!(report.phase_nic_bytes("DiagBcast"), (pr * (pc - 1) * 16 * 8) as u64);
    assert_eq!(report.phase_nic_bytes("PanelBcast"), (pc * (pr - 1) * (64 * 8 + 8)) as u64);
    assert_eq!(report.per_phase[apsp_trace::UNTRACED].nic_bytes, (p as u64 - 1) * 8);
    assert_eq!(report.phase_nic_bytes_sum(), report.total_nic_bytes());
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
    // 256 ranks over 4 slots, each row of a 16 × 16 grid broadcasting on
    // its own row communicator: heavy park/wake traffic through the mailboxes
    let p = 256usize;
    let workers = 4;
    let rt = runtime(p).with_workers(workers);
    let (out, _, stats) = rt.try_run_with_stats(move |comm| -> Result<u64, CommError> {
        let g = ProcessGrid::new(comm, 16, 16);
        let (r, _) = g.coords();
        let got = g.row.bcast(0, (g.row.rank() == 0).then(|| vec![r as u64; 4]))?;
        Ok(got[0])
    });
    let out = out.expect("row bcasts at p=256");
    for (rank, &v) in out.iter().enumerate() {
        assert_eq!(v, (rank / 16) as u64);
    }
    assert!(
        stats.peak_running <= workers,
        "pool of {workers} ran {} tasks at once across {} parks",
        stats.peak_running,
        stats.parks
    );
    assert_eq!(stats.ranks, p);
}
