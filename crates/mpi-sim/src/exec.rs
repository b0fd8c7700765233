//! The cooperative rank scheduler — the event-driven executor behind
//! [`crate::Runtime`].
//!
//! Every rank of an SPMD job is a *task*. A task owns a dedicated (cheap,
//! almost-always-parked) call stack, but its **execution** is multiplexed
//! over a small worker pool: the scheduler hands out `workers` *run slots*,
//! and only a task holding a slot makes progress. A task that blocks in
//! `recv` (and so in every collective built on it) parks itself and
//! releases its slot, so the slot immediately goes to the next runnable
//! rank; message delivery re-enqueues the waiter. That is what lets one box simulate 1024+ ranks:
//! the cost of a blocked rank is a parked stack, not a schedulable OS
//! thread, and the number of ranks *executing* concurrently never exceeds
//! the pool size regardless of `p`.
//!
//! A parked task times itself out: `Scheduler::park` takes the instant to
//! give up at and sleeps on its own thread until then, so no thread serves
//! timeouts and a deadline lives only as long as the park that set it.
//!
//! Scheduling states of a task:
//!
//! ```text
//! Init ──register──▶ Runnable ──slot──▶ Running ──park──▶ Blocked
//!                        ▲                 │ ▲               │
//!                        └──wake/timeout───┘ └──────slot─────┘ (→ Done)
//! ```
//!
//! Wakeups never get lost: waking a task that has not parked yet (it is
//! between its mailbox poll and its park) just sets a `notified` flag that
//! the next `park` consumes without ever giving up the slot.

use std::collections::VecDeque;
use std::thread::Thread;
use std::time::Instant;

use parking_lot::Mutex;

/// Executor counters of one finished run (see
/// [`crate::Runtime::try_run_with_stats`]). The invariant the scale suite
/// pins: `peak_running <= workers` no matter how large the rank count is —
/// the worker pool, not `p`, bounds concurrently-executing rank tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecStats {
    /// Number of rank tasks the run was configured with.
    pub ranks: usize,
    /// Run-slot count of the worker pool.
    pub workers: usize,
    /// Highest number of tasks that ever held run slots simultaneously.
    pub peak_running: usize,
    /// Total park operations (a task releasing its slot to block).
    pub parks: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TaskState {
    /// Spawned but not yet registered with the scheduler.
    Init,
    /// Holds a run slot and is executing.
    Running,
    /// Ready to run, waiting for a slot.
    Runnable,
    /// Parked in a blocking operation; holds no slot.
    Blocked,
    /// Finished (result recorded or failure reported).
    Done,
}

struct Task {
    state: TaskState,
    /// Handle used to unpark the task's stack when it is granted a slot.
    thread: Option<Thread>,
    /// A wake arrived while the task was not parked; the next `park`
    /// consumes it without blocking (lost-wakeup prevention).
    notified: bool,
}

struct Inner {
    workers: usize,
    running: usize,
    runnable: VecDeque<usize>,
    tasks: Vec<Task>,
    // stats
    peak_running: usize,
    parks: u64,
}

/// The run-slot scheduler shared by all ranks of one [`crate::Runtime`]
/// execution.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
}

impl Scheduler {
    pub(crate) fn new(ranks: usize, workers: usize) -> Self {
        assert!(workers >= 1, "the worker pool needs at least one slot");
        Scheduler {
            inner: Mutex::new(Inner {
                workers,
                running: 0,
                runnable: VecDeque::new(),
                tasks: (0..ranks)
                    .map(|_| Task { state: TaskState::Init, thread: None, notified: false })
                    .collect(),
                peak_running: 0,
                parks: 0,
            }),
        }
    }

    /// Hand out free slots to runnable tasks, FIFO.
    fn grant(inner: &mut Inner) {
        while inner.running < inner.workers {
            let Some(t) = inner.runnable.pop_front() else { break };
            let task = &mut inner.tasks[t];
            debug_assert_eq!(task.state, TaskState::Runnable);
            task.state = TaskState::Running;
            inner.running += 1;
            inner.peak_running = inner.peak_running.max(inner.running);
            if let Some(th) = &task.thread {
                th.unpark();
            }
        }
    }

    /// Called once by each rank task on its own stack before running user
    /// code; blocks until the task is granted its first run slot.
    pub(crate) fn register_current(&self, t: usize) {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.tasks[t].state, TaskState::Init);
        inner.tasks[t].thread = Some(std::thread::current());
        if inner.running < inner.workers {
            inner.tasks[t].state = TaskState::Running;
            inner.running += 1;
            inner.peak_running = inner.peak_running.max(inner.running);
            return;
        }
        inner.tasks[t].state = TaskState::Runnable;
        inner.runnable.push_back(t);
        loop {
            drop(inner);
            std::thread::park();
            inner = self.inner.lock();
            if inner.tasks[t].state == TaskState::Running {
                return;
            }
        }
    }

    /// The task is done (result or failure recorded); release its slot.
    pub(crate) fn finish(&self, t: usize) {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.tasks[t].state, TaskState::Running);
        inner.tasks[t].state = TaskState::Done;
        inner.running -= 1;
        Self::grant(&mut inner);
    }

    /// Block the calling task (which must hold a slot) until it is woken or
    /// `until` passes. Releases the slot while parked and holds it again on
    /// return. A task still blocked at `until` makes itself runnable and
    /// queues for a slot like a woken one. A wake that raced ahead of the
    /// park (the `notified` flag) returns immediately *without* releasing
    /// the slot. The caller re-polls either way; the deadline is local to
    /// this call, so it cannot fire into a later park.
    pub(crate) fn park(&self, t: usize, until: Option<Instant>) {
        let mut inner = self.inner.lock();
        inner.parks += 1;
        if inner.tasks[t].notified {
            inner.tasks[t].notified = false;
            return;
        }
        debug_assert_eq!(inner.tasks[t].state, TaskState::Running);
        inner.tasks[t].state = TaskState::Blocked;
        inner.running -= 1;
        Self::grant(&mut inner);
        loop {
            let timeout = match (inner.tasks[t].state, until) {
                (TaskState::Running, _) => return,
                (TaskState::Blocked, Some(at)) => {
                    let now = Instant::now();
                    if now >= at {
                        inner.tasks[t].state = TaskState::Runnable;
                        inner.runnable.push_back(t);
                        Self::grant(&mut inner);
                        continue;
                    }
                    Some(at - now)
                }
                // blocked with no deadline, or runnable and waiting for a slot
                _ => None,
            };
            drop(inner);
            match timeout {
                Some(dur) => std::thread::park_timeout(dur),
                None => std::thread::park(),
            }
            inner = self.inner.lock();
        }
    }

    /// Make `t` runnable (or remember the wake if it is not parked).
    pub(crate) fn wake(&self, t: usize) {
        let mut inner = self.inner.lock();
        Self::wake_locked(&mut inner, t);
    }

    fn wake_locked(inner: &mut Inner, t: usize) {
        match inner.tasks[t].state {
            TaskState::Blocked => {
                inner.tasks[t].notified = false;
                inner.tasks[t].state = TaskState::Runnable;
                inner.runnable.push_back(t);
                Self::grant(inner);
            }
            TaskState::Done => {}
            TaskState::Running | TaskState::Runnable | TaskState::Init => {
                inner.tasks[t].notified = true;
            }
        }
    }

    /// Wake every task — the poison fan-out after a rank failure.
    pub(crate) fn wake_all(&self) {
        let mut inner = self.inner.lock();
        for t in 0..inner.tasks.len() {
            Self::wake_locked(&mut inner, t);
        }
    }

    pub(crate) fn stats(&self) -> ExecStats {
        let inner = self.inner.lock();
        ExecStats {
            ranks: inner.tasks.len(),
            workers: inner.workers,
            peak_running: inner.peak_running,
            parks: inner.parks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Spin until task `t` is parked at `stage` (or has gone past it),
    /// then run `then` under the scheduler lock if it is still parked there.
    fn on_park(sched: &Scheduler, stage: &AtomicUsize, at: usize, then: impl FnOnce(&mut Inner)) {
        loop {
            let mut inner = sched.inner.lock();
            let now = stage.load(Ordering::SeqCst);
            if now > at {
                return;
            }
            if now == at && inner.tasks[0].state == TaskState::Blocked {
                return then(&mut inner);
            }
            drop(inner);
            std::thread::yield_now();
        }
    }

    /// Drive S tasks over a 1-slot pool; each parks once and is woken by
    /// its successor — execution must interleave without ever exceeding
    /// one concurrent runner.
    #[test]
    fn slots_bound_concurrency_and_wakes_chain() {
        let n = 8;
        let sched = Arc::new(Scheduler::new(n, 1));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for t in 0..n {
            let sched = sched.clone();
            let in_flight = in_flight.clone();
            let peak = peak.clone();
            handles.push(std::thread::spawn(move || {
                sched.register_current(t);
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                // wake the previous task (it may not have parked yet — the
                // notified flag absorbs that), then park once ourselves
                if t > 0 {
                    sched.wake(t - 1);
                }
                if t < n - 1 {
                    sched.park(t, None);
                } else {
                    // the last task wakes everyone still parked
                    sched.wake_all();
                }
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                in_flight.fetch_sub(1, Ordering::SeqCst);
                sched.finish(t);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(peak.load(Ordering::SeqCst), 1, "1-slot pool ran two tasks at once");
        let stats = sched.stats();
        assert_eq!(stats.peak_running, 1);
        assert_eq!(stats.workers, 1);
    }

    /// A park whose deadline passes with no waker returns on its own, and
    /// not before the deadline.
    #[test]
    fn deadline_fires_through_the_wheel() {
        let sched = Scheduler::new(1, 1);
        sched.register_current(0);
        let start = Instant::now();
        sched.park(0, Some(start + Duration::from_millis(20)));
        assert!(start.elapsed() >= Duration::from_millis(20));
        sched.finish(0);
    }

    /// The first park's deadline passes while the task is parked a second
    /// time; the second park must return only for its own wake.
    #[test]
    fn stale_deadlines_do_not_fire_into_later_ops() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let stage = Arc::new(AtomicUsize::new(0));
        let released = Arc::new(AtomicBool::new(false));
        let first_deadline = Instant::now() + Duration::from_millis(20);
        let task = {
            let (sched, stage, released) = (sched.clone(), stage.clone(), released.clone());
            std::thread::spawn(move || {
                sched.register_current(0);
                stage.store(1, Ordering::SeqCst);
                sched.park(0, Some(first_deadline));
                stage.store(2, Ordering::SeqCst);
                sched.park(0, None);
                assert!(released.load(Ordering::SeqCst), "second park returned without a wake");
                sched.finish(0);
            })
        };
        // end the first park with a wake, unless its deadline got there first
        on_park(&sched, &stage, 1, |inner| Scheduler::wake_locked(inner, 0));
        on_park(&sched, &stage, 2, |_| {});
        // give a stale deadline every chance to fire into the second park
        while Instant::now() < first_deadline + Duration::from_millis(20) {
            std::thread::yield_now();
        }
        let mut inner = sched.inner.lock();
        let state = inner.tasks[0].state;
        assert_eq!(state, TaskState::Blocked, "a stale deadline ended the second park");
        released.store(true, Ordering::SeqCst);
        Scheduler::wake_locked(&mut inner, 0);
        drop(inner);
        task.join().unwrap();
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let registered = Arc::new(AtomicBool::new(false));
        let woken = Arc::new(AtomicBool::new(false));
        let task = {
            let (sched, registered, woken) = (sched.clone(), registered.clone(), woken.clone());
            std::thread::spawn(move || {
                sched.register_current(0);
                registered.store(true, Ordering::SeqCst);
                // the wake lands while we are Running; the park must consume
                // it instead of blocking until the deadline
                while !woken.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                let start = Instant::now();
                sched.park(0, Some(start + Duration::from_secs(60)));
                sched.finish(0);
                start.elapsed()
            })
        };
        while !registered.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        sched.wake(0);
        woken.store(true, Ordering::SeqCst);
        assert!(task.join().unwrap() < Duration::from_secs(60), "the early wake was lost");
        assert_eq!(sched.stats().parks, 1);
    }
}
