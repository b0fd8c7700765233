//! Deterministic fault injection — the chaos harness for the runtime.
//!
//! A [`FaultPlan`] is a small script of failures evaluated against the
//! per-rank send streams: kill a rank just before one of its sends, or drop
//! or delay one specific message. Because each rank's sends happen in
//! program order on its own scheduled task, selecting a fault by *(source
//! rank, send index)* is fully deterministic — the same plan produces the
//! same failure on every run, which is what lets the chaos property tests
//! assert exact typed outcomes.
//!
//! Plans attach to a runtime via [`crate::Runtime::with_faults`] and act
//! inside `Comm::send`: a killed rank's send returns
//! [`crate::CommError::Killed`], a dropped message is charged to the
//! traffic counters but never delivered (the receiver sees a typed
//! [`crate::CommError::RecvTimeout`]), and a delayed message waits in the
//! receiver's mailbox until the configured delay has passed. It keeps its
//! place among the sender's messages on its tag, and it is dropped with the
//! run if the run ends first, so no delivery can outlive the runtime.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

/// One injected failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill world rank `rank` just before its `before_send`-th send
    /// (0-based, counted across all of that rank's communicators). Every
    /// send at or past that index fails with [`crate::CommError::Killed`].
    Kill {
        /// World rank to kill.
        rank: usize,
        /// Index of the first send that fails.
        before_send: u64,
    },
    /// Drop the `nth` matching message (0-based) sent by world rank `src`.
    /// The message is charged to the traffic counters (it left the rank)
    /// but never delivered, so the receiver times out with a typed error.
    Drop {
        /// Sending world rank.
        src: usize,
        /// Restrict to one communicator context (`None` = any).
        ctx: Option<u64>,
        /// Restrict to one tag (`None` = any).
        tag: Option<u64>,
        /// Which matching message to drop (0-based).
        nth: u64,
    },
    /// Delay the `nth` matching message sent by `src` by `by` before
    /// delivering it (models a straggling link rather than a failure).
    Delay {
        /// Sending world rank.
        src: usize,
        /// Restrict to one communicator context (`None` = any).
        ctx: Option<u64>,
        /// Restrict to one tag (`None` = any).
        tag: Option<u64>,
        /// Which matching message to delay (0-based).
        nth: u64,
        /// How long to hold the message back.
        by: Duration,
    },
}

/// A deterministic script of injected failures (empty = no faults).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The failures to inject.
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill world rank `rank` before its `before_send`-th send.
    pub fn kill(rank: usize, before_send: u64) -> Self {
        FaultPlan { actions: vec![FaultAction::Kill { rank, before_send }] }
    }

    /// Drop the `nth` message sent by world rank `src` (any ctx/tag).
    pub fn drop_nth(src: usize, nth: u64) -> Self {
        FaultPlan { actions: vec![FaultAction::Drop { src, ctx: None, tag: None, nth }] }
    }

    /// Delay the `nth` message sent by world rank `src` by `by`.
    pub fn delay_nth(src: usize, nth: u64, by: Duration) -> Self {
        FaultPlan { actions: vec![FaultAction::Delay { src, ctx: None, tag: None, nth, by }] }
    }

    /// A seeded single-fault plan over a `p`-rank world: deterministically
    /// picks a victim rank, a send index, and kill-vs-drop from `seed`.
    /// The same `(seed, p)` always yields the same plan.
    pub fn random_single(seed: u64, p: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            // splitmix64: tiny, seedable, and dependency-free
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let rank = (next() % p.max(1) as u64) as usize;
        let point = next() % 6;
        if next() % 2 == 0 {
            Self::kill(rank, point)
        } else {
            Self::drop_nth(rank, point)
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// A message a [`FaultPlan`] dropped: the one a blocked receive waits for,
/// whichever rank's timeout reports the loss first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DroppedMessage {
    /// World rank that sent it.
    pub src_world: usize,
    /// World rank it was sent to.
    pub dst_world: usize,
    /// Communicator context id.
    pub ctx: u64,
    /// Its tag, a collective's without its internal bits (as errors report
    /// tags).
    pub tag: u64,
}

impl fmt::Display for DroppedMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "world {} -> world {} on ctx={} tag={}", self.src_world, self.dst_world, self.ctx, self.tag)
    }
}

/// What should happen to one outgoing message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SendFate {
    /// Deliver normally.
    Deliver,
    /// The sender dies instead of sending.
    Kill,
    /// Count the bytes but never deliver.
    Drop,
    /// Deliver after the given delay.
    Delay(Duration),
}

/// Runtime-side evaluation state for a [`FaultPlan`]: per-rank send
/// counters plus a per-action match counter, all lock-free, and the log of
/// the messages dropped so far.
pub(crate) struct FaultState {
    plan: FaultPlan,
    sends: Vec<AtomicU64>,
    matches: Vec<AtomicU64>,
    dropped: Mutex<Vec<DroppedMessage>>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, p: usize) -> Self {
        let matches = plan.actions.iter().map(|_| AtomicU64::new(0)).collect();
        FaultState {
            plan,
            sends: (0..p).map(|_| AtomicU64::new(0)).collect(),
            matches,
            dropped: Mutex::new(Vec::new()),
        }
    }

    /// Log a message that [`FaultState::decide`] dropped.
    pub(crate) fn record_drop(&self, message: DroppedMessage) {
        self.dropped.lock().push(message);
    }

    /// Every message dropped so far, in the order they were dropped.
    pub(crate) fn dropped(&self) -> Vec<DroppedMessage> {
        self.dropped.lock().clone()
    }

    /// Decide the fate of a message about to be sent by `src_world` on
    /// `(ctx, tag)`. Kill takes priority; the killed send does not count
    /// toward drop/delay match counters.
    pub(crate) fn decide(&self, src_world: usize, ctx: u64, tag: u64) -> SendFate {
        let s = self.sends[src_world].fetch_add(1, Ordering::Relaxed);
        for a in &self.plan.actions {
            if let FaultAction::Kill { rank, before_send } = a {
                if *rank == src_world && s >= *before_send {
                    return SendFate::Kill;
                }
            }
        }
        for (i, a) in self.plan.actions.iter().enumerate() {
            let (asrc, actx, atag, nth, fate) = match a {
                FaultAction::Drop { src, ctx, tag, nth } => (src, ctx, tag, nth, SendFate::Drop),
                FaultAction::Delay { src, ctx, tag, nth, by } => {
                    (src, ctx, tag, nth, SendFate::Delay(*by))
                }
                FaultAction::Kill { .. } => continue,
            };
            if *asrc != src_world
                || actx.is_some_and(|c| c != ctx)
                || atag.is_some_and(|t| t != tag)
            {
                continue;
            }
            let k = self.matches[i].fetch_add(1, Ordering::Relaxed);
            if k == *nth {
                return fate;
            }
        }
        SendFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_fires_on_and_after_the_index() {
        let fs = FaultState::new(FaultPlan::kill(1, 2), 3);
        assert_eq!(fs.decide(1, 0, 0), SendFate::Deliver); // send 0
        assert_eq!(fs.decide(1, 0, 0), SendFate::Deliver); // send 1
        assert_eq!(fs.decide(1, 0, 0), SendFate::Kill); // send 2
        assert_eq!(fs.decide(1, 0, 0), SendFate::Kill); // and onward
        assert_eq!(fs.decide(0, 0, 0), SendFate::Deliver); // other ranks unaffected
    }

    #[test]
    fn drop_fires_exactly_once_on_the_nth_match() {
        let fs = FaultState::new(FaultPlan::drop_nth(0, 1), 2);
        assert_eq!(fs.decide(0, 0, 7), SendFate::Deliver);
        assert_eq!(fs.decide(0, 0, 8), SendFate::Drop);
        assert_eq!(fs.decide(0, 0, 9), SendFate::Deliver);
    }

    #[test]
    fn filters_restrict_matches_to_ctx_and_tag() {
        let plan = FaultPlan {
            actions: vec![FaultAction::Drop { src: 0, ctx: Some(0), tag: Some(5), nth: 0 }],
        };
        let fs = FaultState::new(plan, 2);
        assert_eq!(fs.decide(0, 1, 5), SendFate::Deliver); // wrong ctx
        assert_eq!(fs.decide(0, 0, 4), SendFate::Deliver); // wrong tag
        assert_eq!(fs.decide(0, 0, 5), SendFate::Drop);
    }

    #[test]
    fn random_single_is_deterministic_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::random_single(seed, 4);
            let b = FaultPlan::random_single(seed, 4);
            assert_eq!(a, b);
            match &a.actions[0] {
                FaultAction::Kill { rank, .. } | FaultAction::Drop { src: rank, .. } => {
                    assert!(*rank < 4)
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
    }
}
