//! Typed communication errors — the fail-fast fault model.
//!
//! Every way a rank can fail to communicate is a variant of [`CommError`]
//! instead of a panic, so distributed algorithms can propagate failure as a
//! value (`Result` all the way up to the CLI's exit code) and blocked peers
//! can be woken *immediately* when another rank dies, rather than burning
//! the full receive timeout. The structured deadlock report that used to be
//! a panic string lives on as [`DeadlockReport`].

use std::fmt;
use std::time::Duration;

use crate::fault::DroppedMessage;
use crate::p2p::MatchKey;

/// Everything known about a receive that gave up waiting: who blocked, on
/// whom, on which communicator/tag, in which trace phase, what *did*
/// arrive while the expected message never did, and which messages fault
/// injection dropped (the blocked rank is often a bystander of the loss).
#[derive(Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// The timeout that expired.
    pub timeout: Duration,
    /// Blocked rank, relative to its communicator.
    pub rank: usize,
    /// Blocked rank's world rank.
    pub world_rank: usize,
    /// The peer the blocked rank was waiting on (communicator rank).
    pub src: usize,
    /// The peer's world rank (`usize::MAX` if out of range).
    pub src_world: usize,
    /// Communicator context id.
    pub ctx: u64,
    /// The tag waited on (internal collective bit stripped).
    pub tag: u64,
    /// Innermost open trace phase at the time of the timeout.
    pub phase: Option<&'static str>,
    /// Match keys of every unrelated message pending in the mailbox.
    pub pending: Vec<MatchKey>,
    /// Every message the run's fault plan had dropped by the timeout.
    pub dropped: Vec<DroppedMessage>,
}

impl fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recv timed out after {:?}: rank {} (world {}) blocked waiting for a message \
             from rank {} (world {}) on ctx={} tag={} during phase {}; mailbox holds {} \
             unrelated message(s): {:?} — distributed deadlock?",
            self.timeout,
            self.rank,
            self.world_rank,
            self.src,
            self.src_world,
            self.ctx,
            self.tag,
            self.phase.unwrap_or("(none)"),
            self.pending.len(),
            self.pending,
        )?;
        if !self.dropped.is_empty() {
            let dropped: Vec<String> = self.dropped.iter().map(ToString::to_string).collect();
            write!(f, "; fault injection dropped {} message(s): {}", dropped.len(), dropped.join(", "))?;
        }
        Ok(())
    }
}

impl fmt::Debug for DeadlockReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A typed, fail-fast communication failure.
///
/// `Debug` delegates to `Display` so `.unwrap()` in tests panics with the
/// human-readable report rather than a struct dump.
#[derive(Clone, PartialEq, Eq)]
pub enum CommError {
    /// A receive expired without its message arriving — the structured
    /// distributed-deadlock report.
    RecvTimeout(Box<DeadlockReport>),
    /// Another rank failed (returned an error or panicked) and the runtime
    /// poisoned every mailbox; this rank was woken instead of timing out.
    PeerFailed {
        /// World rank of the first rank that failed.
        rank: usize,
    },
    /// A message arrived on the right `(ctx, src, tag)` but its payload was
    /// a different Rust type than the receiver asked for — a mismatched
    /// send/recv pair (a program bug, not a deadlock).
    PayloadTypeMismatch {
        /// Context id.
        ctx: u64,
        /// Source rank within the communicator.
        src: usize,
        /// Tag (internal collective bit stripped).
        tag: u64,
        /// The type the receiver expected.
        expected: &'static str,
    },
    /// This rank was killed by the fault-injection plan (see
    /// [`crate::FaultPlan`]) before one of its sends.
    Killed {
        /// World rank of the killed rank (this rank).
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::RecvTimeout(report) => fmt::Display::fmt(report, f),
            CommError::PeerFailed { rank } => write!(
                f,
                "peer failure: world rank {rank} failed first; the runtime poisoned all \
                 mailboxes so this rank fails fast instead of waiting out its recv timeout"
            ),
            CommError::PayloadTypeMismatch { ctx, src, tag, expected } => write!(
                f,
                "type mismatch on recv: ctx={ctx} src={src} tag={tag} expected {expected}"
            ),
            CommError::Killed { rank } => {
                write!(f, "fault injection killed rank {rank} before a send")
            }
        }
    }
}

impl fmt::Debug for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlock_report_display_matches_legacy_panic_wording() {
        let r = DeadlockReport {
            timeout: Duration::from_millis(30),
            rank: 1,
            world_rank: 1,
            src: 0,
            src_world: 0,
            ctx: 0,
            tag: 42,
            phase: Some("OuterUpdate"),
            pending: vec![],
            dropped: vec![],
        };
        let msg = CommError::RecvTimeout(Box::new(r)).to_string();
        assert!(msg.contains("recv timed out after 30ms"), "{msg}");
        assert!(msg.contains("rank 1 (world 1)"), "{msg}");
        assert!(msg.contains("from rank 0 (world 0)"), "{msg}");
        assert!(msg.contains("tag=42"), "{msg}");
        assert!(msg.contains("during phase OuterUpdate"), "{msg}");
        assert!(msg.contains("distributed deadlock"), "{msg}");
    }

    #[test]
    fn debug_is_display() {
        let e = CommError::PeerFailed { rank: 3 };
        assert_eq!(format!("{e:?}"), e.to_string());
    }
}
