//! OS-thread hygiene: nothing the runtime creates may outlive a run.
//!
//! The runtime starts one OS thread per rank and no other: a fault-delayed
//! message waits in its receiver's mailbox until it is due, and a message
//! still waiting when the run ends is dropped with the run, not served by a
//! sleeper thread. This file is a single test on purpose: it counts the
//! process's OS threads via `/proc/self/status`, which only stays
//! deterministic when no sibling test runs concurrently.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use mpi_sim::{CommError, FaultPlan, Runtime};

fn os_threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line in /proc/self/status")
}

#[test]
fn delayed_deliveries_and_timekeeper_die_with_the_runtime() {
    let before = os_threads_now();
    let start = Instant::now();
    // rank 0's only send is delayed by 2 s, but nobody waits for it — the
    // run finishes immediately and the waiting message is dropped with the
    // run, not delivered by a leaked sleeper thread
    let rt = Runtime::new(2).with_faults(FaultPlan::delay_nth(0, 0, Duration::from_secs(2)));
    let out = rt.try_run(|comm| -> Result<(), CommError> {
        if comm.rank() == 0 {
            comm.send(1, 1, 7u64)?;
        }
        Ok(())
    });
    assert!(out.is_ok(), "nothing here fails: {out:?}");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "the run must not wait out the 2 s delayed delivery"
    );
    // scope exit waits for every task to signal completion, but the OS
    // thread needs a moment to fully unwind — poll briefly. The deadline is
    // far below the 2 s delay, so a thread sleeping out the delay still
    // fails this check.
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let now = os_threads_now();
        if now <= before {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{} threads outlive the runtime (baseline {before}): rank tasks \
             and anything serving a delayed message must all be gone",
            now - before
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}
