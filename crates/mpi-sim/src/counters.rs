//! Traffic accounting, split intra-node vs inter-node (NIC).
//!
//! The paper's effective-bandwidth metric (§5.1.3) is
//! `W_min / t_FW` where `W_min` is the theoretical minimum per-node NIC
//! volume. These counters measure the *actual* per-node NIC volume of a
//! functional run, which lets tests validate the §3.4.1 volume model and
//! lets the harness compare placements without any timing model at all.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use apsp_trace::{PhaseTraffic, UNTRACED};
use parking_lot::Mutex;

use crate::placement::Placement;

/// Shared atomic counters; one slot per node.
pub(crate) struct Counters {
    /// bytes leaving each node through the NIC
    nic_egress: Vec<AtomicU64>,
    /// bytes entering each node through the NIC
    nic_ingress: Vec<AtomicU64>,
    /// bytes moved between ranks of the same node
    intra: Vec<AtomicU64>,
    /// inter-node message count per node (egress side)
    nic_msgs: Vec<AtomicU64>,
    total_msgs: AtomicU64,
    /// traffic keyed by the sending rank's open phase
    per_phase: Mutex<BTreeMap<&'static str, PhaseTraffic>>,
}

impl Counters {
    pub(crate) fn new(nodes: usize) -> Self {
        let mk = || (0..nodes).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Counters {
            nic_egress: mk(),
            nic_ingress: mk(),
            intra: mk(),
            nic_msgs: mk(),
            total_msgs: AtomicU64::new(0),
            per_phase: Mutex::new(BTreeMap::new()),
        }
    }

    /// Record one message. `phase` is the *sending* rank's currently-open
    /// span ([`apsp_trace::current_phase`]); `None` lands in the
    /// [`UNTRACED`] bucket so per-phase totals always sum to the run totals.
    /// Returns whether the message crossed node boundaries.
    pub(crate) fn record(
        &self,
        placement: &Placement,
        src: usize,
        dst: usize,
        bytes: usize,
        phase: Option<&'static str>,
    ) -> bool {
        let (sn, dn) = (placement.node_of(src), placement.node_of(dst));
        self.total_msgs.fetch_add(1, Ordering::Relaxed);
        let nic = sn != dn;
        if nic {
            self.nic_egress[sn].fetch_add(bytes as u64, Ordering::Relaxed);
            self.nic_ingress[dn].fetch_add(bytes as u64, Ordering::Relaxed);
            self.nic_msgs[sn].fetch_add(1, Ordering::Relaxed);
        } else {
            self.intra[sn].fetch_add(bytes as u64, Ordering::Relaxed);
        }
        self.per_phase.lock().entry(phase.unwrap_or(UNTRACED)).or_default().add(bytes as u64, nic);
        nic
    }

    pub(crate) fn snapshot(&self) -> TrafficReport {
        let load = |v: &Vec<AtomicU64>| v.iter().map(|a| a.load(Ordering::Relaxed)).collect::<Vec<_>>();
        TrafficReport {
            nic_egress: load(&self.nic_egress),
            nic_ingress: load(&self.nic_ingress),
            intra_node: load(&self.intra),
            nic_msgs: load(&self.nic_msgs),
            total_msgs: self.total_msgs.load(Ordering::Relaxed),
            per_phase: self
                .per_phase
                .lock()
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

/// Immutable traffic summary of a finished run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficReport {
    /// Per-node bytes sent to other nodes.
    pub nic_egress: Vec<u64>,
    /// Per-node bytes received from other nodes.
    pub nic_ingress: Vec<u64>,
    /// Per-node bytes exchanged within the node.
    pub intra_node: Vec<u64>,
    /// Per-node inter-node message count (egress side).
    pub nic_msgs: Vec<u64>,
    /// All messages, any locality.
    pub total_msgs: u64,
    /// Traffic keyed by the sending rank's open span; sends outside any
    /// span land under [`UNTRACED`]. Per-phase values always sum exactly to
    /// the run totals.
    pub per_phase: BTreeMap<String, PhaseTraffic>,
}

impl TrafficReport {
    /// Total bytes that crossed any NIC (each message counted once).
    pub fn total_nic_bytes(&self) -> u64 {
        self.nic_egress.iter().sum()
    }

    /// Total intra-node bytes.
    pub fn total_intra_bytes(&self) -> u64 {
        self.intra_node.iter().sum()
    }

    /// The busiest node's NIC volume, counting both directions — the value
    /// the per-node bandwidth model divides by.
    pub fn max_node_nic_bytes(&self) -> u64 {
        self.nic_egress
            .iter()
            .zip(&self.nic_ingress)
            .map(|(e, i)| e + i)
            .max()
            .unwrap_or(0)
    }

    /// NIC bytes attributed to `phase` (0 if the phase never sent).
    pub fn phase_nic_bytes(&self, phase: &str) -> u64 {
        self.per_phase.get(phase).map_or(0, |t| t.nic_bytes)
    }

    /// Sum of per-phase NIC bytes — equals [`Self::total_nic_bytes`] by
    /// construction (asserted by the integration suite).
    pub fn phase_nic_bytes_sum(&self) -> u64 {
        self.per_phase.values().map(|t| t.nic_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_intra_and_inter() {
        let p = Placement::contiguous(1, 4, 2); // nodes: {0,1}, {2,3}
        let c = Counters::new(2);
        c.record(&p, 0, 1, 100, None); // intra node 0
        c.record(&p, 0, 2, 40, None); // node 0 -> node 1
        c.record(&p, 3, 1, 60, None); // node 1 -> node 0
        let r = c.snapshot();
        assert_eq!(r.intra_node, vec![100, 0]);
        assert_eq!(r.nic_egress, vec![40, 60]);
        assert_eq!(r.nic_ingress, vec![60, 40]);
        assert_eq!(r.total_nic_bytes(), 100);
        assert_eq!(r.max_node_nic_bytes(), 100);
        assert_eq!(r.total_msgs, 3);
        assert_eq!(r.nic_msgs, vec![1, 1]);
    }

    #[test]
    fn attributes_traffic_to_the_senders_phase() {
        let p = Placement::contiguous(1, 4, 2);
        let c = Counters::new(2);
        c.record(&p, 0, 2, 40, Some("PanelBcast"));
        c.record(&p, 2, 0, 25, Some("PanelBcast"));
        c.record(&p, 0, 1, 10, Some("DiagBcast")); // intra
        c.record(&p, 3, 0, 5, None); // untraced
        let r = c.snapshot();
        let pb = &r.per_phase["PanelBcast"];
        assert_eq!((pb.nic_bytes, pb.nic_msgs, pb.msgs), (65, 2, 2));
        let db = &r.per_phase["DiagBcast"];
        assert_eq!((db.nic_bytes, db.intra_bytes), (0, 10));
        assert_eq!(r.per_phase[UNTRACED].nic_bytes, 5);
        assert_eq!(r.phase_nic_bytes_sum(), r.total_nic_bytes());
        assert_eq!(r.phase_nic_bytes("PanelBcast"), 65);
        assert_eq!(r.phase_nic_bytes("OuterUpdate"), 0);
    }
}
