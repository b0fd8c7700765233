//! Collective operations built on tag-matched p2p — the three that
//! ParallelFw speaks.
//!
//! Two broadcast algorithms, matching the paper's §3.3:
//!
//! * [`Comm::bcast`] — binomial tree, `⌈log₂ p⌉` rounds; latency-optimal.
//!   This is the "library broadcast" used for the small, critical-path
//!   `DiagBcast`.
//! * [`Comm::ring_bcast`] — pipelined ring; every rank sends and receives
//!   each byte exactly once (bandwidth-optimal), the nearer successors of
//!   the root finish early, and consecutive broadcasts from different roots
//!   overlap freely — the asynchrony that lets `Co-ParallelFw` drift across
//!   iterations.
//!
//! [`Comm::gather`] collects one value per rank at a root: the end-of-run
//! result collection.
//!
//! Every collective returns `Result<_, CommError>`: a deadlock, a failed
//! peer, or an injected fault surfaces as a typed error on every
//! participating rank instead of a panic cascade.

use std::sync::Arc;

use crate::comm::{Comm, INTERNAL_TAG, RING_HEADER_TAG};
use crate::error::CommError;
use crate::payload::Payload;

impl Comm {
    /// Binomial-tree broadcast from `root`. The root passes `Some(data)`,
    /// everyone else `None`; all members return the broadcast value.
    ///
    /// The payload travels as one shared allocation: each tree hop forwards
    /// the root's `Arc` by reference count, while the traffic counters still
    /// charge every hop the full `size_bytes()` of the inner value. The one
    /// deep copy a rank may make is of its returned value, and only while
    /// in-flight sends still share it.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn bcast<T: Payload + Clone + Sync>(
        &self,
        root: usize,
        data: Option<T>,
    ) -> Result<T, CommError> {
        let tag = INTERNAL_TAG | self.next_op();
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(
            rank == root,
            data.is_some(),
            "exactly the root must supply the broadcast payload"
        );
        if size == 1 {
            return Ok(data.expect("root payload"));
        }
        let relative = (rank + size - root) % size;

        // receive phase: my parent is relative - lowest_set_bit(relative)
        let mut value = data.map(Arc::new);
        let mut mask = 1usize;
        while mask < size {
            if relative & mask != 0 {
                let src = (relative - mask + root) % size;
                value = Some(self.recv_raw::<Arc<T>>(src, tag)?);
                break;
            }
            mask <<= 1;
        }
        // forward phase: children are relative + mask for decreasing masks;
        // each send bumps the refcount on the one shared allocation
        let value = value.expect("broadcast value must have arrived");
        let mut mask = mask >> 1;
        while mask > 0 {
            if relative + mask < size {
                let dst = (relative + mask + root) % size;
                self.send_raw(dst, tag, Arc::clone(&value))?;
            }
            mask >>= 1;
        }
        Ok(Arc::try_unwrap(value).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Pipelined ring broadcast of a slice-able payload from `root`,
    /// split into `nchunks` chunks (§3.3). Bandwidth-optimal: each rank
    /// receives and forwards every byte exactly once. Returns the
    /// reassembled vector on every rank.
    ///
    /// Chunks travel as [`Arc`]s, so a forwarding rank passes the received
    /// buffer on by reference count — one host copy per rank (the final
    /// reassembly), not two.
    pub fn ring_bcast<T: Copy + Send + Sync + 'static>(
        &self,
        root: usize,
        data: Option<Vec<T>>,
        nchunks: usize,
    ) -> Result<Vec<T>, CommError> {
        let op = self.next_op();
        let tag = INTERNAL_TAG | op;
        let (rank, size) = (self.rank(), self.size());
        assert_eq!(
            rank == root,
            data.is_some(),
            "exactly the root must supply the ring-broadcast payload"
        );
        if size == 1 {
            return Ok(data.expect("root payload"));
        }
        let relative = (rank + size - root) % size;
        let succ = (rank + 1) % size;
        let pred = (rank + size - 1) % size;
        let is_last = relative == size - 1;

        // chunk messages travel on `tag`; the chunk-count header on `hdr`.
        let hdr = tag | RING_HEADER_TAG;
        if rank == root {
            let data = data.expect("root payload");
            let nchunks = nchunks.clamp(1, data.len().max(1));
            let chunk = data.len().div_ceil(nchunks).max(1);
            self.send_raw(succ, hdr, nchunks as u64)?;
            let mut sent = 0;
            for c in 0..nchunks {
                let lo = (c * chunk).min(data.len());
                let hi = ((c + 1) * chunk).min(data.len());
                self.send_raw(succ, tag, Arc::new(data[lo..hi].to_vec()))?;
                sent += 1;
            }
            debug_assert_eq!(sent, nchunks);
            Ok(data)
        } else {
            let nchunks: u64 = self.recv_raw(pred, hdr)?;
            if !is_last {
                self.send_raw(succ, hdr, nchunks)?;
            }
            let mut out = Vec::new();
            for _ in 0..nchunks {
                let chunk: Arc<Vec<T>> = self.recv_raw(pred, tag)?;
                if !is_last {
                    // forward by refcount *before* the local copy-out, so
                    // the successor's receive overlaps our reassembly
                    self.send_raw(succ, tag, chunk.clone())?;
                }
                out.extend_from_slice(&chunk);
            }
            Ok(out)
        }
    }

    /// Gather one value from every rank to `root` (in rank order).
    /// Returns `Some(values)` at the root, `None` elsewhere.
    pub fn gather<T: Payload>(&self, root: usize, value: T) -> Result<Option<Vec<T>>, CommError> {
        let op = self.next_op();
        let tag = INTERNAL_TAG | op;
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_raw(src, tag)?);
                }
            }
            Ok(Some(out.into_iter().map(|v| v.expect("gathered")).collect()))
        } else {
            self.send_raw(root, tag, value)?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::error::CommError;
    use crate::fault::FaultPlan;
    use crate::grid::ProcessGrid;
    use crate::placement::Placement;
    use crate::runtime::{FailureKind, Runtime};

    #[test]
    fn ring_deadlock_report_names_the_collective_tag() {
        // dropping rank 0's first send loses the ring's chunk-count header:
        // rank 1 times out on it with the chunks queued behind, and its
        // report names the world's first operation, tag 0, without the
        // internal or header bits. Rank 2 joins late, so rank 1's timeout
        // is the one that fails the run.
        let rt = Runtime::new(3)
            .with_recv_timeout(Duration::from_millis(50))
            .with_faults(FaultPlan::drop_nth(0, 0));
        let err = rt
            .try_run(|comm| {
                if comm.rank() == 2 {
                    std::thread::sleep(Duration::from_millis(100));
                }
                comm.ring_bcast(0, (comm.rank() == 0).then(|| vec![7u32; 8]), 2)
            })
            .expect_err("the header never arrives");
        let failure = err.failures.iter().find(|f| f.rank == 1).expect("rank 1 fails");
        let FailureKind::App(CommError::RecvTimeout(report)) = &failure.error else {
            panic!("expected a recv timeout, got {:?}", failure.error)
        };
        assert_eq!(report.tag, 0);
        assert!(!report.pending.is_empty(), "the chunks are pending");
        assert!(report.pending.iter().all(|&(_, _, tag)| tag >> 62 == 0), "{:?}", report.pending);
    }

    #[test]
    fn bcast_from_every_root() {
        for root in 0..5 {
            let out = Runtime::new(5).run(move |comm| {
                let data = (comm.rank() == root).then(|| vec![root as u64, 99]);
                comm.bcast(root, data).unwrap()
            });
            for v in out {
                assert_eq!(v, vec![root as u64, 99]);
            }
        }
    }

    #[test]
    fn owned_bcast_still_returns_owned_values() {
        // the Arc plumbing must stay invisible to `bcast` callers: owned
        // values in, owned values out, same wire accounting as before
        let rt = Runtime::new(4);
        let (out, report) = rt.run_traced(move |comm| {
            let data = (comm.rank() == 0).then(|| vec![3u64; 100]);
            comm.bcast(0, data).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![3u64; 100]);
        }
        assert_eq!(report.total_nic_bytes(), 3 * 800);
    }

    #[test]
    fn ring_bcast_delivers_identical_data() {
        for root in [0, 2, 6] {
            let payload: Vec<f32> = (0..1000).map(|i| i as f32).collect();
            let expect = payload.clone();
            let out = Runtime::new(7).run(move |comm| {
                let data = (comm.rank() == root).then(|| payload.clone());
                comm.ring_bcast(root, data, 8).unwrap()
            });
            for v in out {
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn ring_bcast_handles_tiny_and_empty_payloads() {
        let out = Runtime::new(3).run(|comm| {
            let a = comm.ring_bcast(0, (comm.rank() == 0).then(|| vec![5u8]), 16).unwrap();
            let b = comm.ring_bcast(1, (comm.rank() == 1).then(Vec::<u8>::new), 4).unwrap();
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![5u8]);
            assert!(b.is_empty());
        }
    }

    #[test]
    fn ring_bcast_moves_minimal_bytes() {
        // p ranks, one per node: ring broadcast of B bytes must put exactly
        // (p-1)*B data bytes on the wire (each rank receives once) —
        // vs binomial which is the same total but unbalanced per node.
        let payload = vec![0u8; 1024];
        let rt = Runtime::new(4);
        let (_, report) = rt.run_traced(move |comm| {
            let data = (comm.rank() == 0).then(|| payload.clone());
            comm.ring_bcast(0, data, 4).unwrap();
        });
        // each of the 3 forwarding hops moves 1024 data bytes + an 8-byte
        // chunk-count header
        assert_eq!(report.total_nic_bytes(), 3 * (1024 + 8));
        // per-node egress is balanced: every non-tail rank sends once
        let egress = report.nic_egress.clone();
        assert_eq!(egress[0], 1032);
        assert_eq!(egress[1], 1032);
        assert_eq!(egress[2], 1032);
        assert_eq!(egress[3], 0); // ring tail
    }

    #[test]
    fn tiled_placement_cuts_nic_traffic_for_column_bcast() {
        // 4x4 grid, Q=4. Contiguous packs whole rows per node, so a column
        // broadcast crosses NICs on every hop; tiled 2x2 keeps half the
        // column hops in-node.
        let run = |placement: Placement| {
            let rt = Runtime::new(16).with_placement(placement);
            let (_, report) = rt.run_traced(|comm| {
                let col = ProcessGrid::new(comm, 4, 4).col;
                let data = (col.rank() == 0).then(|| vec![0u8; 4096]);
                col.ring_bcast(0, data, 4).unwrap();
            });
            report.total_nic_bytes()
        };
        let contiguous = run(Placement::contiguous(4, 4, 4));
        let tiled = run(Placement::tiled(4, 4, 2, 2));
        assert!(
            tiled < contiguous,
            "tiled ({tiled}) should beat contiguous ({contiguous})"
        );
    }
}
