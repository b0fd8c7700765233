//! Traffic accounting, split intra-node vs inter-node (NIC).
//!
//! The paper's effective-bandwidth metric (§5.1.3) is
//! `W_min / t_FW` where `W_min` is the theoretical minimum per-node NIC
//! volume. These counters measure the *actual* per-node NIC volume of a
//! functional run, which lets tests validate the §3.4.1 volume model and
//! lets the harness compare placements without any timing model at all.
//! Traffic per phase is the trace's ([`apsp_trace::Trace::phase_traffic`]):
//! a recorded run makes every send an event carrying the sender's phase.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::placement::Placement;

/// Shared atomic counters; one slot per node.
pub(crate) struct Counters {
    /// bytes leaving each node through the NIC
    nic_egress: Vec<AtomicU64>,
    /// bytes entering each node through the NIC
    nic_ingress: Vec<AtomicU64>,
    /// bytes moved between ranks of the same node
    intra: Vec<AtomicU64>,
    total_msgs: AtomicU64,
}

impl Counters {
    pub(crate) fn new(nodes: usize) -> Self {
        let mk = || (0..nodes).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        Counters {
            nic_egress: mk(),
            nic_ingress: mk(),
            intra: mk(),
            total_msgs: AtomicU64::new(0),
        }
    }

    /// Record one message; returns whether it crossed node boundaries.
    pub(crate) fn record(&self, placement: &Placement, src: usize, dst: usize, bytes: usize) -> bool {
        let (sn, dn) = (placement.node_of(src), placement.node_of(dst));
        self.total_msgs.fetch_add(1, Ordering::Relaxed);
        let nic = sn != dn;
        if nic {
            self.nic_egress[sn].fetch_add(bytes as u64, Ordering::Relaxed);
            self.nic_ingress[dn].fetch_add(bytes as u64, Ordering::Relaxed);
        } else {
            self.intra[sn].fetch_add(bytes as u64, Ordering::Relaxed);
        }
        nic
    }

    pub(crate) fn snapshot(&self) -> TrafficReport {
        let load = |v: &Vec<AtomicU64>| v.iter().map(|a| a.load(Ordering::Relaxed)).collect::<Vec<_>>();
        TrafficReport {
            nic_egress: load(&self.nic_egress),
            nic_ingress: load(&self.nic_ingress),
            intra_node: load(&self.intra),
            total_msgs: self.total_msgs.load(Ordering::Relaxed),
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
    /// All messages, any locality.
    pub total_msgs: u64,
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
}

#[cfg(test)]
mod tests {
    use apsp_trace::{record, span, UNTRACED};

    use super::*;
    use crate::Runtime;

    #[test]
    fn splits_intra_and_inter() {
        let p = Placement::contiguous(1, 4, 2); // nodes: {0,1}, {2,3}
        let c = Counters::new(2);
        c.record(&p, 0, 1, 100); // intra node 0
        c.record(&p, 0, 2, 40); // node 0 -> node 1
        c.record(&p, 3, 1, 60); // node 1 -> node 0
        let r = c.snapshot();
        assert_eq!(r.intra_node, vec![100, 0]);
        assert_eq!(r.nic_egress, vec![40, 60]);
        assert_eq!(r.nic_ingress, vec![60, 40]);
        assert_eq!(r.total_nic_bytes(), 100);
        assert_eq!(r.max_node_nic_bytes(), 100);
        assert_eq!(r.total_msgs, 3);
    }

    #[test]
    fn attributes_traffic_to_the_senders_phase() {
        // nodes {0,1}, {2,3}; the trace books each send to the sender's open
        // span, and its NIC bytes add up to the counters' total
        let rt = Runtime::new(4).with_placement(Placement::contiguous(1, 4, 2));
        let ((_, r), trace) = record("caller", || {
            rt.run_traced(|comm| {
                let send = |phase: Option<&'static str>, dst, bytes| {
                    let _p = phase.map(span);
                    comm.send(dst, 0, vec![0u8; bytes]).unwrap();
                };
                let recv = |src| comm.recv::<Vec<u8>>(src, 0).unwrap();
                match comm.rank() {
                    0 => {
                        send(Some("PanelBcast"), 2, 40);
                        send(Some("DiagBcast"), 1, 10); // intra
                        recv(2);
                        recv(3);
                    }
                    1 => drop(recv(0)),
                    2 => {
                        send(Some("PanelBcast"), 0, 25);
                        recv(0);
                    }
                    _ => send(None, 0, 5), // untraced
                }
            })
        });
        let t = trace.phase_traffic();
        let pb = t["PanelBcast"];
        assert_eq!((pb.nic_bytes, pb.nic_msgs, pb.msgs), (65, 2, 2));
        let db = t["DiagBcast"];
        assert_eq!((db.nic_bytes, db.intra_bytes), (0, 10));
        assert_eq!(t[UNTRACED].nic_bytes, 5);
        assert!(!t.contains_key("OuterUpdate"));
        assert_eq!(t.values().map(|p| p.nic_bytes).sum::<u64>(), r.total_nic_bytes());
        assert_eq!((r.total_nic_bytes(), r.total_intra_bytes(), r.total_msgs), (70, 10, 4));
    }
}
