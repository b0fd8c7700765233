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
//! Timeouts are **scheduler deadlines**, not per-thread `Condvar::wait_for`
//! calls: every blocking operation registers an entry in one shared
//! deadline wheel (a min-heap ordered by expiry), and a single runtime-owned
//! timekeeper thread sleeps until the earliest expiry, waking expired tasks
//! with a timed-out verdict. Delayed fault-injected messages ride the same
//! wheel as `TimerEvent::Deliver` entries — there is no longer any
//! fire-and-forget helper thread in the communication layer, so nothing can
//! outlive the runtime scope or bypass poisoning (DESIGN.md §12).
//!
//! Scheduling states of a task:
//!
//! ```text
//! Init ──register──▶ Runnable ──slot──▶ Running ──park──▶ Blocked
//!                        ▲                 │ ▲               │
//!                        └──wake/deadline──┘ └──────slot─────┘ (→ Done)
//! ```
//!
//! Wakeups never get lost: waking a task that has not parked yet (it is
//! between its mailbox poll and its park) just sets a `notified` flag that
//! the next `park` consumes without ever giving up the slot.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::thread::Thread;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::p2p::MatchKey;

/// Why [`Scheduler::park`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Wake {
    /// Something happened (a delivery, a poison, or a spurious neighbour
    /// event) — re-poll the mailbox.
    Notified,
    /// The operation's deadline expired on the scheduler wheel. The caller
    /// must do one final poll (a delivery can race the deadline) before
    /// reporting a timeout.
    TimedOut,
}

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
    /// Total wake notifications (deliveries and poisons).
    pub wakes: u64,
    /// Deadline-wheel entries that fired as timeouts.
    pub expired_deadlines: u64,
    /// Delayed (fault-injected) messages the timekeeper delivered.
    pub timer_deliveries: u64,
}

/// One entry on the deadline wheel.
pub(crate) enum TimerEvent {
    /// A blocking operation's timeout: wake `task` with a timed-out verdict
    /// if it is still parked in the same blocking operation (`gen` guards
    /// against firing into a *later* park of the same task).
    Deadline { task: usize, gen: u64 },
    /// A fault-delayed message: deliver to `dst_world`'s mailbox and wake
    /// it. Cancelled (dropped undelivered) if the run ends first — delayed
    /// delivery must never outlive the runtime scope.
    Deliver {
        /// Destination world rank.
        dst_world: usize,
        /// Mailbox match key.
        key: MatchKey,
        /// The payload itself (wire bytes were charged at send time).
        payload: Box<dyn Any + Send>,
    },
}

struct TimerEntry {
    at: Instant,
    /// Tie-breaker so the heap never compares `TimerEvent`s.
    seq: u64,
    event: TimerEvent,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
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
    /// The wake that granted the slot was a deadline expiry.
    timed_out: bool,
    /// Blocking-operation generation; stale deadline entries (from an
    /// operation that already completed) are ignored by comparing this.
    gen: u64,
}

struct Inner {
    workers: usize,
    running: usize,
    runnable: VecDeque<usize>,
    tasks: Vec<Task>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: u64,
    shutdown: bool,
    // stats
    peak_running: usize,
    parks: u64,
    wakes: u64,
    expired_deadlines: u64,
    timer_deliveries: u64,
}

/// The run-slot scheduler plus deadline wheel shared by all ranks of one
/// [`crate::Runtime`] execution.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    /// Wakes the timekeeper when the earliest wheel entry moves forward or
    /// the run shuts down.
    timer_cv: Condvar,
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
                    .map(|_| Task {
                        state: TaskState::Init,
                        thread: None,
                        notified: false,
                        timed_out: false,
                        gen: 0,
                    })
                    .collect(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
                shutdown: false,
                peak_running: 0,
                parks: 0,
                wakes: 0,
                expired_deadlines: 0,
                timer_deliveries: 0,
            }),
            timer_cv: Condvar::new(),
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
    /// `deadline` expires on the wheel. Releases the slot while parked and
    /// holds it again on return. A wake that raced ahead of the park (the
    /// `notified` flag) returns immediately *without* releasing the slot.
    pub(crate) fn park(&self, t: usize, deadline: Option<Instant>) -> Wake {
        let mut inner = self.inner.lock();
        inner.parks += 1;
        if inner.tasks[t].notified {
            inner.tasks[t].notified = false;
            return Wake::Notified;
        }
        debug_assert_eq!(inner.tasks[t].state, TaskState::Running);
        inner.tasks[t].gen += 1;
        let gen = inner.tasks[t].gen;
        inner.tasks[t].timed_out = false;
        inner.tasks[t].state = TaskState::Blocked;
        inner.running -= 1;
        Self::grant(&mut inner);
        if let Some(at) = deadline {
            Self::push_timer(&mut inner, &self.timer_cv, at, TimerEvent::Deadline { task: t, gen });
        }
        loop {
            drop(inner);
            std::thread::park();
            inner = self.inner.lock();
            if inner.tasks[t].state == TaskState::Running {
                let wake = if inner.tasks[t].timed_out { Wake::TimedOut } else { Wake::Notified };
                inner.tasks[t].timed_out = false;
                return wake;
            }
        }
    }

    /// Make `t` runnable (or remember the wake if it is not parked).
    pub(crate) fn wake(&self, t: usize) {
        let mut inner = self.inner.lock();
        Self::wake_locked(&mut inner, t);
    }

    fn wake_locked(inner: &mut Inner, t: usize) {
        inner.wakes += 1;
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

    /// Schedule a fault-delayed message on the wheel.
    pub(crate) fn schedule_delivery(
        &self,
        at: Instant,
        dst_world: usize,
        key: MatchKey,
        payload: Box<dyn Any + Send>,
    ) {
        let mut inner = self.inner.lock();
        Self::push_timer(
            &mut inner,
            &self.timer_cv,
            at,
            TimerEvent::Deliver { dst_world, key, payload },
        );
    }

    fn push_timer(inner: &mut Inner, cv: &Condvar, at: Instant, event: TimerEvent) {
        // only prod the timekeeper when the earliest expiry moved forward —
        // at high p almost every park pushes a far-future deadline and must
        // not thundering-herd the timer thread
        let earlier = inner.timers.peek().is_none_or(|Reverse(top)| at < top.at);
        let seq = inner.timer_seq;
        inner.timer_seq += 1;
        inner.timers.push(Reverse(TimerEntry { at, seq, event }));
        if earlier {
            cv.notify_all();
        }
    }

    /// End the run: the timekeeper exits and pending wheel entries (stale
    /// deadlines, undelivered delayed messages) are dropped.
    pub(crate) fn shutdown(&self) {
        let mut inner = self.inner.lock();
        inner.shutdown = true;
        inner.timers.clear();
        self.timer_cv.notify_all();
    }

    /// Body of the runtime's timekeeper thread: sleep until the earliest
    /// wheel entry, fire expired deadlines, and hand expired
    /// [`TimerEvent::Deliver`] entries to `deliver` (which must deposit the
    /// message and wake the receiver) outside the scheduler lock.
    pub(crate) fn timekeeper_loop(&self, deliver: impl Fn(usize, MatchKey, Box<dyn Any + Send>)) {
        let mut inner = self.inner.lock();
        loop {
            if inner.shutdown {
                return;
            }
            let now = Instant::now();
            let mut deliveries = Vec::new();
            while let Some(Reverse(top)) = inner.timers.peek() {
                if top.at > now {
                    break;
                }
                let Reverse(entry) = inner.timers.pop().expect("peeked entry");
                match entry.event {
                    TimerEvent::Deadline { task, gen } => {
                        // fire only into the same blocking operation; a
                        // stale entry whose op already completed is ignored
                        if inner.tasks[task].state == TaskState::Blocked
                            && inner.tasks[task].gen == gen
                        {
                            inner.expired_deadlines += 1;
                            inner.tasks[task].timed_out = true;
                            inner.tasks[task].state = TaskState::Runnable;
                            inner.runnable.push_back(task);
                            Self::grant(&mut inner);
                        }
                    }
                    TimerEvent::Deliver { dst_world, key, payload } => {
                        inner.timer_deliveries += 1;
                        deliveries.push((dst_world, key, payload));
                    }
                }
            }
            if !deliveries.is_empty() {
                // mailbox locks are taken outside the scheduler lock, same
                // as the ordinary send path (no nested lock orders exist)
                drop(inner);
                for (dst, key, payload) in deliveries {
                    deliver(dst, key, payload);
                }
                inner = self.inner.lock();
                continue;
            }
            match inner.timers.peek() {
                None => self.timer_cv.wait(&mut inner),
                Some(Reverse(top)) => {
                    let dur = top.at.saturating_duration_since(now);
                    self.timer_cv.wait_for(&mut inner, dur);
                }
            }
        }
    }

    pub(crate) fn stats(&self) -> ExecStats {
        let inner = self.inner.lock();
        ExecStats {
            ranks: inner.tasks.len(),
            workers: inner.workers,
            peak_running: inner.peak_running,
            parks: inner.parks,
            wakes: inner.wakes,
            expired_deadlines: inner.expired_deadlines,
            timer_deliveries: inner.timer_deliveries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

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
                    assert_eq!(sched.park(t, None), Wake::Notified);
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

    #[test]
    fn deadline_fires_through_the_wheel() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let sched_tk = sched.clone();
        let tk = std::thread::spawn(move || {
            sched_tk.timekeeper_loop(|_, _, _| panic!("no deliveries scheduled"));
        });
        let sched_task = sched.clone();
        let task = std::thread::spawn(move || {
            sched_task.register_current(0);
            let w = sched_task.park(0, Some(Instant::now() + Duration::from_millis(20)));
            sched_task.finish(0);
            w
        });
        assert_eq!(task.join().unwrap(), Wake::TimedOut);
        sched.shutdown();
        tk.join().unwrap();
        assert_eq!(sched.stats().expired_deadlines, 1);
    }

    #[test]
    fn stale_deadlines_do_not_fire_into_later_ops() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let sched_tk = sched.clone();
        let tk = std::thread::spawn(move || sched_tk.timekeeper_loop(|_, _, _| {}));
        let sched_task = sched.clone();
        let waker = sched.clone();
        let task = std::thread::spawn(move || {
            sched_task.register_current(0);
            // first op: short deadline, but woken normally before it expires
            let w1 = sched_task.park(0, Some(Instant::now() + Duration::from_millis(30)));
            // second op: long deadline; the first op's stale entry expires
            // during it and must NOT produce a timeout
            let w2 = sched_task.park(0, Some(Instant::now() + Duration::from_millis(200)));
            sched_task.finish(0);
            (w1, w2)
        });
        std::thread::sleep(Duration::from_millis(5));
        waker.wake(0); // completes op 1 before its deadline
        std::thread::sleep(Duration::from_millis(60)); // op-1 deadline expires, stale
        waker.wake(0); // completes op 2 normally
        let (w1, w2) = task.join().unwrap();
        assert_eq!(w1, Wake::Notified);
        assert_eq!(w2, Wake::Notified);
        sched.shutdown();
        tk.join().unwrap();
        assert_eq!(sched.stats().expired_deadlines, 0);
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        let sched = Arc::new(Scheduler::new(1, 1));
        let sched_task = sched.clone();
        let task = std::thread::spawn(move || {
            sched_task.register_current(0);
            // the wake below lands while we are Running; the park must
            // consume it instead of blocking forever (no timekeeper here)
            std::thread::sleep(Duration::from_millis(30));
            let w = sched_task.park(0, None);
            sched_task.finish(0);
            w
        });
        std::thread::sleep(Duration::from_millis(5));
        sched.wake(0);
        assert_eq!(task.join().unwrap(), Wake::Notified);
    }
}
