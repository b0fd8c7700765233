//! Tag-matched point-to-point mailboxes.
//!
//! Sends are buffered (never block), like MPI eager-protocol sends of the
//! message sizes the FW algorithms use between pipeline stages. The mailbox
//! itself is **poll-based**: `Mailbox::poll` answers instantly with
//! `Polled::Ready` or `Polled::Pending`, and the *scheduler* — not a
//! per-mailbox condvar — decides what a pending receiver does next (park its
//! task and yield its worker slot; see [`crate::exec`]). A fault-delayed
//! message waits in the mailbox until it is due, and `Pending` says when
//! that is, so the receiver parks until then or its own deadline. The
//! *poison* path marks the mailbox so every parked receiver that gets woken
//! by the fail-fast fan-out observes the peer failure immediately instead of
//! burning its full receive timeout.

use std::any::Any;
use std::time::Instant;

use parking_lot::Mutex;

/// Matching key: (communicator context, source rank in that communicator, tag).
pub type MatchKey = (u64, usize, u64);

struct Envelope {
    key: MatchKey,
    /// A fault-delayed message cannot be received before this instant.
    due: Option<Instant>,
    payload: Box<dyn Any + Send>,
}

#[derive(Default)]
struct QueueState {
    queue: Vec<Envelope>,
    /// World rank of the first failed rank, once the runtime poisons us.
    poisoned: Option<usize>,
}

/// Outcome of one non-blocking [`Mailbox::poll`].
#[derive(Debug)]
pub(crate) enum Polled<T> {
    /// A matching message was dequeued.
    Ready(T),
    /// Nothing matching can be received yet (and the mailbox is healthy) —
    /// the caller should park and re-poll when woken, or at the carried
    /// instant, when a delayed match comes due.
    Pending(Option<Instant>),
    /// The runtime poisoned this mailbox because `rank` (world) failed.
    Poisoned {
        rank: usize,
    },
    /// A matching message arrived but its payload was not a `T` — a program
    /// bug, not a deadlock. The mismatched message is consumed.
    TypeMismatch {
        /// `std::any::type_name` of the expected payload type.
        expected: &'static str,
    },
}

/// One rank's incoming-message queue.
#[derive(Default)]
pub(crate) struct Mailbox {
    state: Mutex<QueueState>,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Deposit a message, receivable from `due` on (`None`: at once). Called
    /// by the *sender's* task, which is responsible for waking the
    /// destination task afterwards — the mailbox holds no thread handles.
    pub(crate) fn deliver(
        &self,
        key: MatchKey,
        payload: Box<dyn Any + Send>,
        due: Option<Instant>,
    ) {
        self.state.lock().queue.push(Envelope { key, due, payload });
    }

    /// Mark the mailbox as poisoned by the failure of world rank `rank`.
    /// The first poisoner wins (first-failure attribution); queued messages
    /// still drain before the poison is observed, so ranks that already have
    /// their data can finish. The runtime wakes all parked tasks separately.
    pub(crate) fn poison(&self, rank: usize) {
        let mut q = self.state.lock();
        if q.poisoned.is_none() {
            q.poisoned = Some(rank);
        }
    }

    /// Non-blocking receive attempt for the first message matching `key`.
    /// Messages on one key are received in the order they were sent, so a
    /// delayed one holds back those sent after it (MPI's non-overtaking
    /// rule). A due match is always drained first ([`Polled::Ready`]);
    /// otherwise a poisoned mailbox answers [`Polled::Poisoned`]; otherwise
    /// [`Polled::Pending`] with the match's due time, if one is queued, and
    /// the caller parks on the scheduler.
    pub(crate) fn poll<T: Send + 'static>(&self, key: MatchKey) -> Polled<T> {
        let mut q = self.state.lock();
        let mut due = None;
        if let Some(pos) = q.queue.iter().position(|e| e.key == key) {
            match q.queue[pos].due {
                Some(at) if at > Instant::now() => due = Some(at),
                _ => {
                    let env = q.queue.remove(pos);
                    return match env.payload.downcast::<T>() {
                        Ok(payload) => Polled::Ready(*payload),
                        Err(_) => Polled::TypeMismatch { expected: std::any::type_name::<T>() },
                    };
                }
            }
        }
        if let Some(rank) = q.poisoned {
            return Polled::Poisoned { rank };
        }
        Polled::Pending(due)
    }

    /// Match keys of every queued message that is due — the deadlock
    /// report's "what did arrive while the expected message never did"
    /// listing.
    pub(crate) fn pending_keys(&self) -> Vec<MatchKey> {
        let now = Instant::now();
        let q = self.state.lock();
        q.queue.iter().filter(|e| e.due.is_none_or(|at| at <= now)).map(|e| e.key).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready<T: Send + 'static + std::fmt::Debug>(mb: &Mailbox, key: MatchKey) -> T {
        match mb.poll::<T>(key) {
            Polled::Ready(v) => v,
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn delivers_in_fifo_order_per_key() {
        let mb = Mailbox::new();
        let key = (0, 1, 7);
        mb.deliver(key, Box::new(10u32), None);
        mb.deliver(key, Box::new(20u32), None);
        let a = ready::<u32>(&mb, key);
        let b = ready::<u32>(&mb, key);
        assert_eq!((a, b), (10, 20));
    }

    #[test]
    fn matches_only_requested_key() {
        let mb = Mailbox::new();
        mb.deliver((0, 2, 1), Box::new(99u32), None);
        mb.deliver((0, 1, 1), Box::new(42u32), None);
        let got = ready::<u32>(&mb, (0, 1, 1));
        assert_eq!(got, 42);
        assert_eq!(mb.pending_keys(), vec![(0, 2, 1)]);
    }

    #[test]
    fn poll_is_pending_until_delivery() {
        let mb = Mailbox::new();
        assert!(matches!(mb.poll::<u64>((1, 0, 0)), Polled::Pending(None)));
        mb.deliver((1, 0, 0), Box::new(7u64), None);
        let got = ready::<u64>(&mb, (1, 0, 0));
        assert_eq!(got, 7);
    }

    #[test]
    fn pending_keys_name_what_did_arrive() {
        let mb = Mailbox::new();
        mb.deliver((0, 3, 9), Box::new(1u32), None); // unrelated message
        assert!(matches!(mb.poll::<u32>((0, 0, 0)), Polled::Pending(None)));
        assert_eq!(mb.pending_keys(), vec![(0, 3, 9)]);
    }

    #[test]
    fn type_mismatch_is_a_typed_error() {
        let mb = Mailbox::new();
        mb.deliver((0, 0, 0), Box::new(1u32), None);
        match mb.poll::<f32>((0, 0, 0)) {
            Polled::TypeMismatch { expected } => assert_eq!(expected, "f32"),
            other => panic!("expected type mismatch, got {other:?}"),
        }
    }

    #[test]
    fn poison_is_observed_by_the_next_poll() {
        let mb = Mailbox::new();
        assert!(matches!(mb.poll::<u64>((0, 0, 0)), Polled::Pending(None)));
        mb.poison(5);
        match mb.poll::<u64>((0, 0, 0)) {
            Polled::Poisoned { rank } => assert_eq!(rank, 5),
            other => panic!("expected peer failure, got {other:?}"),
        }
    }

    #[test]
    fn queued_messages_drain_before_poison_is_seen() {
        let mb = Mailbox::new();
        mb.deliver((0, 0, 0), Box::new(11u32), None);
        mb.poison(2);
        let got = ready::<u32>(&mb, (0, 0, 0));
        assert_eq!(got, 11);
        assert!(matches!(mb.poll::<u32>((0, 0, 0)), Polled::Poisoned { rank: 2 }));
    }

    #[test]
    fn first_poisoner_wins() {
        let mb = Mailbox::new();
        mb.poison(1);
        mb.poison(3);
        assert!(matches!(mb.poll::<u32>((0, 0, 0)), Polled::Poisoned { rank: 1 }));
    }

    #[test]
    fn delayed_message_waits_for_its_due_time_and_holds_back_its_key() {
        let mb = Mailbox::new();
        let due = Instant::now() + std::time::Duration::from_secs(60);
        mb.deliver((0, 1, 1), Box::new(1u32), Some(due));
        mb.deliver((0, 1, 1), Box::new(2u32), None);
        mb.deliver((0, 2, 1), Box::new(3u32), None);
        // the later message on the same key does not overtake the delayed one
        assert!(matches!(mb.poll::<u32>((0, 1, 1)), Polled::Pending(Some(at)) if at == due));
        assert_eq!(ready::<u32>(&mb, (0, 2, 1)), 3);
        // the deadlock report lists only what is due
        assert_eq!(mb.pending_keys(), vec![(0, 1, 1)]);
        let past = Instant::now();
        mb.deliver((0, 3, 1), Box::new(4u32), Some(past));
        assert_eq!(ready::<u32>(&mb, (0, 3, 1)), 4);
    }
}
