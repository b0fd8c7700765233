//! Communicators: p2p endpoints plus MPI-style `split`.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::counters::Counters;
use crate::error::{CommError, DeadlockReport};
use crate::exec::{Scheduler, Wake};
use crate::fault::{FaultState, SendFate};
use crate::p2p::{Mailbox, Polled};
use crate::payload::Payload;
use crate::placement::Placement;

/// Tags with the top bit set are reserved for collectives.
pub(crate) const INTERNAL_TAG: u64 = 1 << 63;

/// State shared by all ranks of a runtime.
pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) counters: Counters,
    pub(crate) placement: Placement,
    pub(crate) recv_timeout: Duration,
    pub(crate) faults: Option<FaultState>,
    /// The cooperative rank scheduler: parks blocked tasks, multiplexes the
    /// worker slots, owns the deadline wheel (see [`crate::exec`]).
    pub(crate) sched: Scheduler,
    splits: Mutex<SplitState>,
    ctx_alloc: Mutex<CtxAlloc>,
}

#[derive(Default)]
struct CtxAlloc {
    next: u64,
    by_origin: HashMap<(u64, u64, u64), u64>,
}

#[derive(Default)]
struct SplitState {
    slots: HashMap<(u64, u64), SplitSlot>,
    /// World rank of the first failed rank, once the runtime poisons us —
    /// observed by ranks blocked waiting for peers to reach a `split`.
    poisoned: Option<usize>,
}

#[derive(Default)]
struct SplitSlot {
    /// (color, key, world rank, rank in parent)
    entries: Vec<(u64, u64, usize, usize)>,
}

impl Shared {
    pub(crate) fn new(
        p: usize,
        workers: usize,
        placement: Placement,
        recv_timeout: Duration,
        faults: Option<FaultState>,
    ) -> Self {
        assert_eq!(placement.num_ranks(), p, "placement covers a different rank count");
        Shared {
            mailboxes: (0..p).map(|_| Mailbox::new()).collect(),
            counters: Counters::new(placement.num_nodes()),
            placement,
            recv_timeout,
            faults,
            sched: Scheduler::new(p, workers),
            splits: Mutex::new(SplitState::default()),
            ctx_alloc: Mutex::new(CtxAlloc { next: 1, by_origin: HashMap::new() }),
        }
    }

    /// Deterministic context id for the sub-communicator born from
    /// `(parent ctx, split op, color)` — every member resolves to the same id.
    fn ctx_for(&self, parent: u64, op: u64, color: u64) -> u64 {
        let mut alloc = self.ctx_alloc.lock();
        if let Some(&id) = alloc.by_origin.get(&(parent, op, color)) {
            return id;
        }
        let id = alloc.next;
        alloc.next += 1;
        alloc.by_origin.insert((parent, op, color), id);
        id
    }

    /// Fail-fast fan-out after world rank `rank` failed: poison every
    /// mailbox and the split table, then wake every parked task so blocked
    /// ranks observe [`CommError::PeerFailed`] immediately instead of
    /// burning the full receive timeout. The first failure wins attribution.
    pub(crate) fn poison(&self, rank: usize) {
        for mb in &self.mailboxes {
            mb.poison(rank);
        }
        let mut splits = self.splits.lock();
        if splits.poisoned.is_none() {
            splits.poisoned = Some(rank);
        }
        drop(splits);
        self.sched.wake_all();
    }
}

/// A communicator handle owned by one rank's task.
///
/// `rank`/`size` are relative to this communicator; `members` maps
/// communicator ranks to world ranks. All collectives and `split` must be
/// called by every member in the same order (standard MPI contract).
pub struct Comm {
    pub(crate) ctx: u64,
    rank: usize,
    members: Arc<Vec<usize>>,
    pub(crate) shared: Arc<Shared>,
    op_seq: Cell<u64>,
}

impl Comm {
    pub(crate) fn world(shared: Arc<Shared>, world_rank: usize) -> Self {
        let p = shared.mailboxes.len();
        Comm {
            ctx: 0,
            rank: world_rank,
            members: Arc::new((0..p).collect()),
            shared,
            op_seq: Cell::new(0),
        }
    }

    /// This rank's id within the communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Node hosting communicator member `r` (per the runtime's placement).
    pub fn node_of(&self, r: usize) -> usize {
        self.shared.placement.node_of(self.members[r])
    }

    /// Reserve the next collective-operation sequence number.
    pub(crate) fn next_op(&self) -> u64 {
        let op = self.op_seq.get();
        self.op_seq.set(op + 1);
        op
    }

    /// Buffered (non-blocking) tagged send to communicator rank `dst`.
    ///
    /// Fails only under fault injection ([`CommError::Killed`] when the
    /// plan kills this rank at this send).
    ///
    /// # Panics
    /// Panics if `tag` uses the reserved top bit or `dst` is out of range.
    pub fn send<T: Payload>(&self, dst: usize, tag: u64, msg: T) -> Result<(), CommError> {
        assert!(tag & INTERNAL_TAG == 0, "user tags must not set the top bit");
        self.send_raw(dst, tag, msg)
    }

    pub(crate) fn send_raw<T: Payload>(
        &self,
        dst: usize,
        tag: u64,
        msg: T,
    ) -> Result<(), CommError> {
        let src_world = self.members[self.rank];
        let dst_world = self.members[dst];
        let fate = match &self.shared.faults {
            Some(fs) => fs.decide(src_world, self.ctx, tag),
            None => SendFate::Deliver,
        };
        if fate == SendFate::Kill {
            return Err(CommError::Killed { rank: src_world });
        }
        // Dropped and delayed messages still left this rank: charge them to
        // the traffic counters and the trace like any other send.
        let bytes = msg.size_bytes();
        let phase = apsp_trace::current_phase();
        let nic = self
            .shared
            .counters
            .record(&self.shared.placement, src_world, dst_world, bytes, phase);
        apsp_trace::record_send(dst_world, bytes, nic, phase);
        let key = (self.ctx, self.rank, tag);
        match fate {
            SendFate::Deliver => {
                self.shared.mailboxes[dst_world].deliver(key, Box::new(msg));
                self.shared.sched.wake(dst_world);
            }
            SendFate::Drop => {}
            SendFate::Delay(by) => {
                // delayed delivery rides the scheduler's deadline wheel and
                // is executed by the runtime-scoped timekeeper — no helper
                // thread that could outlive the runtime or dodge poisoning
                self.shared.sched.schedule_delivery(
                    Instant::now() + by,
                    dst_world,
                    key,
                    Box::new(msg),
                );
            }
            SendFate::Kill => unreachable!("kill returns above"),
        }
        Ok(())
    }

    /// Blocking tagged receive from communicator rank `src`.
    ///
    /// Blocking means *parking*: a pending receive releases this rank's
    /// worker slot to another runnable rank and is re-enqueued by message
    /// delivery, poisoning, or its deadline on the scheduler wheel.
    ///
    /// Fails with [`CommError::RecvTimeout`] (structured deadlock report)
    /// when the message never arrives, [`CommError::PeerFailed`] when the
    /// runtime poisons the mailboxes after another rank fails, or
    /// [`CommError::PayloadTypeMismatch`] on a mismatched send/recv pair.
    pub fn recv<T: Payload>(&self, src: usize, tag: u64) -> Result<T, CommError> {
        assert!(tag & INTERNAL_TAG == 0, "user tags must not set the top bit");
        self.recv_raw(src, tag)
    }

    pub(crate) fn recv_raw<T: Payload>(&self, src: usize, tag: u64) -> Result<T, CommError> {
        let my_world = self.members[self.rank];
        let mb = &self.shared.mailboxes[my_world];
        let key = (self.ctx, src, tag);
        let deadline = Instant::now() + self.shared.recv_timeout;
        let mut timed_out = false;
        loop {
            match mb.poll::<T>(key) {
                Polled::Ready(value) => return Ok(value),
                Polled::Poisoned { rank } => return Err(CommError::PeerFailed { rank }),
                Polled::TypeMismatch { expected } => {
                    return Err(CommError::PayloadTypeMismatch {
                        ctx: self.ctx,
                        src,
                        tag: tag & !INTERNAL_TAG,
                        expected,
                    })
                }
                Polled::Pending => {}
            }
            if timed_out {
                // final poll above already ran (a delivery can race the
                // deadline); nothing matched, so report the deadlock
                return Err(CommError::RecvTimeout(Box::new(DeadlockReport {
                    timeout: self.shared.recv_timeout,
                    rank: self.rank,
                    world_rank: my_world,
                    src,
                    src_world: self.members.get(src).copied().unwrap_or(usize::MAX),
                    ctx: self.ctx,
                    tag: tag & !INTERNAL_TAG,
                    phase: apsp_trace::current_phase(),
                    pending: mb.pending_keys(),
                })));
            }
            timed_out = self.shared.sched.park(my_world, Some(deadline)) == Wake::TimedOut;
        }
    }

    /// Combined buffered send + blocking receive — the safe way to do a
    /// pairwise exchange. Because sends are buffered, two ranks calling
    /// `sendrecv` at each other cannot deadlock, and both halves run on this
    /// rank's own scheduled task: a panic anywhere in the exchange is caught
    /// by the runtime and surfaces as a typed `RankFailure` (earlier
    /// revisions used raw helper threads here, which escaped the runtime's
    /// failure accounting entirely).
    pub fn sendrecv<S: Payload, R: Payload>(
        &self,
        dst: usize,
        send_tag: u64,
        msg: S,
        src: usize,
        recv_tag: u64,
    ) -> Result<R, CommError> {
        assert!(
            send_tag & INTERNAL_TAG == 0 && recv_tag & INTERNAL_TAG == 0,
            "user tags must not set the top bit"
        );
        self.send_raw(dst, send_tag, msg)?;
        self.recv_raw(src, recv_tag)
    }

    /// Non-blocking probe for a pending message.
    pub fn probe(&self, src: usize, tag: u64) -> bool {
        let my_world = self.members[self.rank];
        self.shared.mailboxes[my_world].probe((self.ctx, src, tag))
    }

    /// Cooperatively hand this rank's worker slot to the next runnable rank,
    /// if any is waiting. Call this inside [`Comm::probe`] polling loops so
    /// they make progress even when the worker pool is smaller than the
    /// rank count; a no-op when no other rank is waiting for a slot.
    pub fn yield_now(&self) {
        self.shared.sched.yield_now(self.members[self.rank]);
    }

    /// Collective: partition members by `color`; within a color, ranks are
    /// ordered by `(key, parent rank)`. Returns this rank's sub-communicator.
    ///
    /// Fails with [`CommError::SplitTimeout`] when not every member reaches
    /// the call before the receive timeout, or [`CommError::PeerFailed`]
    /// when another rank fails while this one waits.
    pub fn split(&self, color: u64, key: u64) -> Result<Comm, CommError> {
        let op = self.next_op();
        let slot_key = (self.ctx, op);
        let world = self.members[self.rank];
        let parent_size = self.size();
        let deadline = Instant::now() + self.shared.recv_timeout;
        let complete = {
            let mut splits = self.shared.splits.lock();
            if let Some(rank) = splits.poisoned {
                return Err(CommError::PeerFailed { rank });
            }
            let slot = splits.slots.entry(slot_key).or_default();
            slot.entries.push((color, key, world, self.rank));
            slot.entries.len() == parent_size
        };
        if complete {
            // last arriver: every other member has already registered, so
            // wake them all (parked members re-poll; members still running
            // absorb the wake via their notified flag)
            for &m in self.members.iter() {
                if m != world {
                    self.shared.sched.wake(m);
                }
            }
        } else {
            let mut timed_out = false;
            loop {
                let splits = self.shared.splits.lock();
                if splits.slots.get(&slot_key).map(|s| s.entries.len()) == Some(parent_size) {
                    break;
                }
                if let Some(rank) = splits.poisoned {
                    return Err(CommError::PeerFailed { rank });
                }
                if timed_out {
                    let arrived = splits.slots.get(&slot_key).map_or(0, |s| s.entries.len());
                    return Err(CommError::SplitTimeout {
                        ctx: self.ctx,
                        op,
                        arrived,
                        expected: parent_size,
                    });
                }
                drop(splits);
                timed_out = self.shared.sched.park(world, Some(deadline)) == Wake::TimedOut;
            }
        }
        // read phase: slot complete; compute my sub-communicator
        let splits = self.shared.splits.lock();
        let slot = &splits.slots[&slot_key];
        let mut mine: Vec<(u64, usize, usize)> = slot
            .entries
            .iter()
            .filter(|e| e.0 == color)
            .map(|&(_, k, w, pr)| (k, pr, w))
            .collect();
        drop(splits);
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, _, w)| w).collect();
        let my_rank = members.iter().position(|&w| w == world).expect("self in split");
        Ok(Comm {
            ctx: self.shared.ctx_for(self.ctx, op, color),
            rank: my_rank,
            members: Arc::new(members),
            shared: self.shared.clone(),
            op_seq: Cell::new(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::error::CommError;
    use crate::runtime::{FailureKind, Runtime};
    use std::time::Duration;

    #[test]
    fn send_recv_between_ranks() {
        let out = Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, vec![1.0f32, 2.0]).unwrap();
                0.0
            } else {
                let v: Vec<f32> = comm.recv(0, 5).unwrap();
                v.iter().sum::<f32>()
            }
        });
        assert_eq!(out[1], 3.0);
    }

    #[test]
    fn tags_demultiplex_out_of_order_sends() {
        let out = Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 10u64).unwrap();
                comm.send(1, 2, 20u64).unwrap();
                0
            } else {
                // receive in the opposite order of sending
                let b: u64 = comm.recv(0, 2).unwrap();
                let a: u64 = comm.recv(0, 1).unwrap();
                a * 100 + b
            }
        });
        assert_eq!(out[1], 1020);
    }

    #[test]
    fn sendrecv_pairwise_exchange_cannot_deadlock() {
        // every rank sendrecvs with its ring neighbours simultaneously —
        // the classic pattern that deadlocks with unbuffered sends
        let p = 6;
        let out = Runtime::new(p).run(move |comm| {
            let right = (comm.rank() + 1) % p;
            let left = (comm.rank() + p - 1) % p;
            let got: u64 = comm.sendrecv(right, 7, comm.rank() as u64, left, 7).unwrap();
            got
        });
        for (r, &got) in out.iter().enumerate() {
            assert_eq!(got as usize, (r + p - 1) % p, "rank {r} got its left neighbour's value");
        }
    }

    #[test]
    fn yield_now_lets_probe_loops_progress_on_a_tiny_pool() {
        // rank 1 spins on probe() while rank 0 still needs a worker slot to
        // send — with a 1-slot pool this only terminates because the probe
        // loop yields its slot cooperatively
        let out = Runtime::new(2).with_workers(1).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, 41u64).unwrap();
                0
            } else {
                while !comm.probe(0, 9) {
                    comm.yield_now();
                }
                comm.recv::<u64>(0, 9).unwrap() + 1
            }
        });
        assert_eq!(out[1], 42);
    }

    #[test]
    fn split_builds_row_communicators() {
        // 6 ranks → 2 colors of 3; rank order inside = key order
        let out = Runtime::new(6).run(|comm| {
            let color = (comm.rank() / 3) as u64;
            let key = (comm.rank() % 3) as u64;
            let sub = comm.split(color, key).unwrap();
            // member 0 of each sub-communicator names its world rank
            let first = sub
                .bcast(0, (sub.rank() == 0).then(|| comm.rank()))
                .unwrap();
            (sub.size(), sub.rank(), first)
        });
        assert_eq!(out[0], (3, 0, 0));
        assert_eq!(out[4], (3, 1, 3));
        assert_eq!(out[5], (3, 2, 3));
    }

    #[test]
    fn split_subcomm_messages_do_not_leak_across_colors() {
        let out = Runtime::new(4).run(|comm| {
            let color = (comm.rank() % 2) as u64;
            let sub = comm.split(color, comm.rank() as u64).unwrap();
            if sub.rank() == 0 {
                comm.barrier().unwrap(); // let both sends happen before receives
                sub.send(1, 3, (color + 1) * 111).unwrap();
                comm.barrier().unwrap();
                0
            } else {
                comm.barrier().unwrap();
                comm.barrier().unwrap();
                sub.recv::<u64>(0, 3).unwrap()
            }
        });
        // ranks 2 and 3 are rank 1 of their color's subcomm
        assert_eq!(out[2], 111); // color 0
        assert_eq!(out[3], 222); // color 1
    }

    #[test]
    #[should_panic]
    fn user_tag_top_bit_rejected() {
        Runtime::new(1).run(|comm| comm.send(0, 1 << 63, 0u8));
    }

    #[test]
    fn phase_guards_attribute_traffic() {
        let (_, report) = Runtime::new(2).run_traced(|comm| {
            if comm.rank() == 0 {
                {
                    let _p = apsp_trace::span("PanelBcast");
                    comm.send(1, 1, vec![0u8; 256]).unwrap();
                }
                let _: Vec<u8> = comm.recv(1, 2).unwrap();
            } else {
                let _: Vec<u8> = comm.recv(0, 1).unwrap();
                comm.send(0, 2, vec![0u8; 16]).unwrap(); // outside any phase
            }
        });
        assert_eq!(report.phase_nic_bytes("PanelBcast"), 256);
        assert_eq!(report.per_phase[apsp_trace::UNTRACED].nic_bytes, 16);
        assert_eq!(report.phase_nic_bytes_sum(), report.total_nic_bytes());
    }

    #[test]
    fn deadlock_report_names_rank_peer_tag_and_phase() {
        // rank 1 blocks on a message rank 0 never sends; the typed error
        // must name the blocked rank, the peer, the tag and the phase that
        // was open at the time — as a value, not a panic.
        let rt = Runtime::new(2).with_recv_timeout(Duration::from_millis(30));
        let err = rt
            .try_run(|comm| -> Result<(), CommError> {
                if comm.rank() == 1 {
                    let _p = apsp_trace::span("OuterUpdate");
                    let _: u64 = comm.recv(0, 42)?;
                }
                Ok(())
            })
            .expect_err("the deadlocked run must fail");
        let first = err.first();
        assert_eq!(first.rank, 1);
        let FailureKind::App(CommError::RecvTimeout(report)) = &first.error else {
            panic!("expected a recv timeout, got {:?}", first.error)
        };
        assert_eq!(report.timeout, Duration::from_millis(30));
        assert_eq!((report.rank, report.world_rank), (1, 1));
        assert_eq!((report.src, report.src_world), (0, 0));
        assert_eq!(report.tag, 42);
        assert_eq!(report.phase, Some("OuterUpdate"));
        let msg = format!("{err}");
        assert!(msg.contains("recv timed out after 30ms"), "{msg}");
        assert!(msg.contains("during phase OuterUpdate"), "{msg}");
        assert!(msg.contains("distributed deadlock"), "{msg}");
    }

    #[test]
    fn split_timeout_is_a_typed_error() {
        // rank 0 never calls split, so rank 1's split cannot complete.
        let rt = Runtime::new(2).with_recv_timeout(Duration::from_millis(30));
        let err = rt
            .try_run(|comm| -> Result<(), CommError> {
                if comm.rank() == 1 {
                    let _sub = comm.split(0, 0)?;
                }
                Ok(())
            })
            .expect_err("the split must time out");
        let first = err.first();
        let FailureKind::App(CommError::SplitTimeout { arrived, expected, .. }) = &first.error
        else {
            panic!("expected a split timeout, got {:?}", first.error)
        };
        assert_eq!((*arrived, *expected), (1, 2));
        assert!(format!("{err}").contains("split timed out"), "{err}");
    }

    #[test]
    fn type_mismatch_surfaces_as_typed_error() {
        let err = Runtime::new(2)
            .try_run(|comm| -> Result<(), CommError> {
                if comm.rank() == 0 {
                    comm.send(1, 3, 1u32)?;
                } else {
                    let _: f64 = comm.recv(0, 3)?;
                }
                Ok(())
            })
            .expect_err("mismatched send/recv pair");
        let FailureKind::App(CommError::PayloadTypeMismatch { tag, expected, .. }) =
            &err.first().error
        else {
            panic!("expected a type mismatch, got {:?}", err.first().error)
        };
        assert_eq!(*tag, 3);
        assert_eq!(*expected, "f64");
    }
}
