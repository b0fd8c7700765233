//! Communicators: p2p endpoints and the sub-communicators of a process grid.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::counters::Counters;
use crate::error::{CommError, DeadlockReport};
use crate::exec::Scheduler;
use crate::fault::{DroppedMessage, FaultState, SendFate};
use crate::p2p::{Mailbox, Polled};
use crate::payload::Payload;
use crate::placement::Placement;

/// Tags with the top bit set are reserved for collectives.
pub(crate) const INTERNAL_TAG: u64 = 1 << 63;
/// Set beside [`INTERNAL_TAG`] on the ring broadcast's chunk-count header,
/// so the header and the chunks travel on distinct tags.
pub(crate) const RING_HEADER_TAG: u64 = 1 << 62;

/// The tag an error reports: a user tag as sent, a collective's without its
/// internal bits (its operation number).
fn reported_tag(tag: u64) -> u64 {
    if tag & INTERNAL_TAG == 0 {
        tag
    } else {
        tag & !(INTERNAL_TAG | RING_HEADER_TAG)
    }
}

/// State shared by all ranks of a runtime.
pub(crate) struct Shared {
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) counters: Counters,
    pub(crate) placement: Placement,
    pub(crate) recv_timeout: Duration,
    pub(crate) faults: Option<FaultState>,
    /// The cooperative rank scheduler: parks blocked tasks and multiplexes
    /// the worker slots (see [`crate::exec`]).
    pub(crate) sched: Scheduler,
    ctx_alloc: Mutex<CtxAlloc>,
}

#[derive(Default)]
struct CtxAlloc {
    next: u64,
    /// The first context id of each split, by `(parent ctx, op)`.
    bases: HashMap<(u64, u64), u64>,
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
            ctx_alloc: Mutex::new(CtxAlloc { next: 1, bases: HashMap::new() }),
        }
    }

    /// Deterministic context id for the sub-communicator born from
    /// `(parent ctx, op, color)` — every member resolves to the same id,
    /// whichever member asks first. A split of a parent into colors below
    /// `colors` reserves one id per color when its first member arrives;
    /// a parent's splits arrive in its operation order, so the ids of the
    /// world's splits do not depend on how the ranks are scheduled.
    fn ctx_for(&self, parent: u64, op: u64, color: u64, colors: u64) -> u64 {
        assert!(color < colors, "split color {color} is not below {colors}");
        let mut alloc = self.ctx_alloc.lock();
        let CtxAlloc { next, bases } = &mut *alloc;
        let base = *bases.entry((parent, op)).or_insert_with(|| {
            *next += colors;
            *next - colors
        });
        base + color
    }

    /// Fail-fast fan-out after world rank `rank` failed: poison every
    /// mailbox, then wake every parked task so blocked ranks observe
    /// [`CommError::PeerFailed`] immediately instead of burning the full
    /// receive timeout. The first failure wins attribution.
    pub(crate) fn poison(&self, rank: usize) {
        for mb in &self.mailboxes {
            mb.poison(rank);
        }
        self.sched.wake_all();
    }
}

/// A communicator handle owned by one rank's task.
///
/// `rank`/`size` are relative to this communicator; `members` maps
/// communicator ranks to world ranks. All collectives must be called by
/// every member in the same order (standard MPI contract).
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
        let nic = self.shared.counters.record(&self.shared.placement, src_world, dst_world, bytes);
        apsp_trace::record_send(dst_world, bytes, nic, apsp_trace::current_phase());
        let due = match fate {
            SendFate::Deliver => None,
            // a delayed message waits in the receiver's mailbox until it is
            // due; one due past the end of time never arrives, like a drop
            SendFate::Delay(by) => match Instant::now().checked_add(by) {
                Some(at) => Some(at),
                None => return Ok(()),
            },
            SendFate::Drop => {
                if let Some(fs) = &self.shared.faults {
                    fs.record_drop(DroppedMessage { src_world, dst_world, ctx: self.ctx, tag: reported_tag(tag) });
                }
                return Ok(());
            }
            SendFate::Kill => unreachable!("kill returns above"),
        };
        self.shared.mailboxes[dst_world].deliver((self.ctx, self.rank, tag), Box::new(msg), due);
        self.shared.sched.wake(dst_world);
        Ok(())
    }

    /// Blocking tagged receive from communicator rank `src`.
    ///
    /// Blocking means *parking*: a pending receive releases this rank's
    /// worker slot to another runnable rank and is re-enqueued by message
    /// delivery or poisoning, or by itself when its deadline passes.
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
        // a timeout too long to represent has no deadline
        let deadline = Instant::now().checked_add(self.shared.recv_timeout);
        loop {
            let due = match mb.poll::<T>(key) {
                Polled::Ready(value) => return Ok(value),
                Polled::Poisoned { rank } => return Err(CommError::PeerFailed { rank }),
                Polled::TypeMismatch { expected } => {
                    return Err(CommError::PayloadTypeMismatch {
                        ctx: self.ctx,
                        src,
                        tag: reported_tag(tag),
                        expected,
                    })
                }
                Polled::Pending(due) => due,
            };
            if deadline.is_some_and(|at| Instant::now() >= at) {
                // the deadline has passed and the poll above found nothing
                // (a delivery can race the deadline): report the deadlock
                return Err(CommError::RecvTimeout(Box::new(DeadlockReport {
                    timeout: self.shared.recv_timeout,
                    rank: self.rank,
                    world_rank: my_world,
                    src,
                    src_world: self.members.get(src).copied().unwrap_or(usize::MAX),
                    ctx: self.ctx,
                    tag: reported_tag(tag),
                    phase: apsp_trace::current_phase(),
                    pending: mb
                        .pending_keys()
                        .into_iter()
                        .map(|(ctx, src, tag)| (ctx, src, reported_tag(tag)))
                        .collect(),
                    dropped: self.shared.faults.as_ref().map(FaultState::dropped).unwrap_or_default(),
                })));
            }
            // wake for a delayed match when it comes due
            self.shared.sched.park(my_world, [deadline, due].into_iter().flatten().min());
        }
    }

    /// The sub-communicator of parent ranks `ranks`, in that order; this
    /// rank must be one of them. Built locally, without a message or a
    /// wait: every member passes the same `color` (below the parent's size)
    /// and `ranks`, so all resolve the same context id. Like a collective,
    /// it takes the next operation number, so every member of `self` calls
    /// it in the same order.
    pub(crate) fn sub(&self, color: u64, ranks: impl Iterator<Item = usize>) -> Comm {
        let op = self.next_op();
        let members: Vec<usize> = ranks.map(|r| self.members[r]).collect();
        let me = self.members[self.rank];
        let rank = members.iter().position(|&w| w == me).expect("this rank is a member");
        Comm {
            ctx: self.shared.ctx_for(self.ctx, op, color, self.members.len() as u64),
            rank,
            members: Arc::new(members),
            shared: self.shared.clone(),
            op_seq: Cell::new(0),
        }
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
    #[should_panic]
    fn user_tag_top_bit_rejected() {
        Runtime::new(1).run(|comm| comm.send(0, 1 << 63, 0u8));
    }

    #[test]
    fn phase_guards_attribute_traffic() {
        let rt = Runtime::new(2);
        let ((_, report), trace) = apsp_trace::record("caller", || {
            rt.run_traced(|comm| {
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
            })
        });
        let phases = trace.phase_traffic();
        assert_eq!(phases["PanelBcast"].nic_bytes, 256);
        assert_eq!(phases[apsp_trace::UNTRACED].nic_bytes, 16);
        assert_eq!(phases.values().map(|t| t.nic_bytes).sum::<u64>(), report.total_nic_bytes());
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
