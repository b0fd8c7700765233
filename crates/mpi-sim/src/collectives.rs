//! Collective operations built on tag-matched p2p.
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
//! Every collective returns `Result<_, CommError>`: a deadlock, a failed
//! peer, or an injected fault surfaces as a typed error on every
//! participating rank instead of a panic cascade.

use std::sync::Arc;

use crate::comm::{Comm, INTERNAL_TAG};
use crate::error::CommError;
use crate::payload::Payload;

impl Comm {
    /// Block until every member of the communicator has entered the barrier.
    ///
    /// Both phases are binomial trees rooted at rank 0 — an `O(log p)`-round
    /// reduction of empty tokens followed by the `O(log p)`-round release
    /// broadcast — `2(p-1)` messages total with no rank receiving more than
    /// `⌈log₂ p⌉` of them (the old linear gather funnelled `p-1` receives
    /// through rank 0).
    pub fn barrier(&self) -> Result<(), CommError> {
        let op = self.next_op();
        let tag = INTERNAL_TAG | op;
        let (rank, size) = (self.rank(), self.size());
        if size == 1 {
            return Ok(());
        }
        // reduce phase: mirror image of the binomial broadcast below — each
        // rank absorbs its subtree's tokens, then reports to its parent.
        let mut mask = 1usize;
        while mask < size {
            if rank & mask != 0 {
                self.send_raw(rank - mask, tag, ())?;
                break;
            }
            if rank + mask < size {
                self.recv_raw::<()>(rank + mask, tag)?;
            }
            mask <<= 1;
        }
        // release: binomial fan-out of an empty token
        self.bcast_internal(0, if rank == 0 { Some(Arc::new(())) } else { None }, tag | (1 << 62))?;
        Ok(())
    }

    /// Binomial-tree broadcast from `root`. The root passes `Some(data)`,
    /// everyone else `None`; all members return the broadcast value.
    ///
    /// Internally the payload travels as one shared allocation (see
    /// [`Comm::bcast_shared`]); the clone here happens only if the caller's
    /// returned copy still shares with in-flight sends, i.e. at most once
    /// per rank and never for the last-to-finish holders. Callers that can
    /// hold an `Arc` should use [`Comm::bcast_shared`] and skip even that.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn bcast<T: Payload + Clone + Sync>(
        &self,
        root: usize,
        data: Option<T>,
    ) -> Result<T, CommError> {
        let shared = self.bcast_shared(root, data.map(Arc::new))?;
        Ok(Arc::try_unwrap(shared).unwrap_or_else(|arc| (*arc).clone()))
    }

    /// Binomial-tree broadcast from `root`, returning the payload by shared
    /// reference: every rank's `Arc` points at the root's single allocation.
    ///
    /// Zero deep copies, deterministically: each tree hop forwards the `Arc`
    /// by reference count (the old implementation deep-cloned the payload
    /// once per child *on the root's critical path*). The traffic counters
    /// still charge every hop the full `size_bytes()` of the inner value —
    /// wire accounting is independent of host-memory sharing.
    ///
    /// # Panics
    /// Panics if the root passes `None` or a non-root passes `Some`.
    pub fn bcast_shared<T: Payload + Sync>(
        &self,
        root: usize,
        data: Option<Arc<T>>,
    ) -> Result<Arc<T>, CommError> {
        let op = self.next_op();
        self.bcast_internal(root, data, INTERNAL_TAG | op)
    }

    fn bcast_internal<T: Payload + Sync>(
        &self,
        root: usize,
        data: Option<Arc<T>>,
        tag: u64,
    ) -> Result<Arc<T>, CommError> {
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
        let mut value = data;
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
        Ok(value)
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
        let hdr = tag | (1 << 62);
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

    /// Every rank contributes one value; every rank gets the full rank-ordered
    /// vector. Implemented as a gather to rank 0 followed by one binomial
    /// broadcast of the assembled vector: `2(p-1)` messages total, vs the
    /// `p` separate broadcasts (`p(p-1)` messages) of the naive formulation.
    /// The `Copy` bound is what gives `Vec<T>` its wire format.
    pub fn allgather<T: Payload + Copy + Sync>(&self, value: T) -> Result<Vec<T>, CommError> {
        let gathered = self.gather(0, value)?;
        self.bcast(0, gathered)
    }

    /// Fold all ranks' values with `op` (applied in rank order) and return
    /// the result on every rank.
    pub fn allreduce<T: Payload + Clone + Sync>(
        &self,
        value: T,
        op: impl Fn(T, T) -> T,
    ) -> Result<T, CommError> {
        let gathered = self.gather(0, value)?;
        let folded = gathered.map(|vs| {
            let mut it = vs.into_iter();
            let first = it.next().expect("non-empty communicator");
            it.fold(first, &op)
        });
        self.bcast(0, folded)
    }
}

#[cfg(test)]
mod tests {
    use crate::placement::Placement;
    use crate::runtime::Runtime;

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
    fn tree_bcast_shares_one_allocation_zero_deep_clones() {
        // Regression: the binomial tree used to deep-clone the payload once
        // per child (`value.clone()` on every forward), putting up to
        // ⌈log₂ p⌉ full copies on the root's critical path. `bcast_shared`
        // forwards the root's single allocation by refcount: a broadcast
        // across 8 ranks must invoke the payload's `Clone` exactly ZERO
        // times, while the wire counters still charge every hop full price.
        use crate::payload::Payload;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        static DEEP_CLONES: AtomicUsize = AtomicUsize::new(0);

        struct CloneCounted(Vec<u8>);
        impl Clone for CloneCounted {
            fn clone(&self) -> Self {
                DEEP_CLONES.fetch_add(1, Ordering::SeqCst);
                CloneCounted(self.0.clone())
            }
        }
        impl Payload for CloneCounted {
            fn size_bytes(&self) -> usize {
                self.0.len()
            }
        }

        DEEP_CLONES.store(0, Ordering::SeqCst);
        let p = 8;
        let rt = Runtime::new(p);
        let (out, report) = rt.run_traced(move |comm| {
            let data = (comm.rank() == 0).then(|| Arc::new(CloneCounted(vec![7u8; 1024])));
            let got = comm.bcast_shared(0, data).unwrap();
            (got.0[0], got.0.len())
        });
        for v in out {
            assert_eq!(v, (7u8, 1024));
        }
        assert_eq!(
            DEEP_CLONES.load(Ordering::SeqCst),
            0,
            "tree bcast must not deep-clone the payload"
        );
        // every rank still receives the full payload once: p-1 hops × 1024
        // wire bytes (one rank per node here, so all hops cross the NIC)
        assert_eq!(report.total_nic_bytes(), (p as u64 - 1) * 1024);
        assert_eq!(report.total_msgs, p as u64 - 1);
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
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static PHASE1: AtomicUsize = AtomicUsize::new(0);
        let out = Runtime::new(6).run(|comm| {
            PHASE1.fetch_add(1, Ordering::SeqCst);
            comm.barrier().unwrap();
            // after the barrier, everyone must have bumped the counter
            PHASE1.load(Ordering::SeqCst)
        });
        for v in out {
            assert_eq!(v, 6);
        }
    }

    #[test]
    fn barrier_uses_logarithmic_fan_in() {
        // binomial-reduction regression pin: 2(p-1) messages total, and —
        // unlike the old linear gather, which funnelled p-1 receives into
        // rank 0 — no rank receives more than ceil(log2 p) messages per
        // phase. The per-rank message events from the trace expose ingress.
        for p in [2usize, 4, 5, 7, 8] {
            let rt = Runtime::new(p);
            let ((_, report), trace) =
                apsp_trace::record("caller", || rt.run_traced(|comm| comm.barrier().unwrap()));
            assert_eq!(
                report.total_msgs,
                2 * (p as u64 - 1),
                "barrier on {p} ranks must move exactly 2(p-1) messages"
            );
            let log2p = p.next_power_of_two().trailing_zeros() as usize;
            let mut ingress = vec![0usize; p];
            for tl in &trace.timelines {
                for e in &tl.events {
                    ingress[e.dst] += 1;
                }
            }
            for (r, n) in ingress.into_iter().enumerate() {
                assert!(
                    n <= log2p + 1,
                    "barrier on {p} ranks: rank {r} received {n} messages, \
                     expected at most ⌈log₂ p⌉ + 1 = {}",
                    log2p + 1
                );
            }
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let out = Runtime::new(4).run(|comm| comm.allgather(comm.rank() as u64 * 10).unwrap());
        for v in out {
            assert_eq!(v, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn allgather_uses_linear_message_count() {
        // gather-then-bcast regression pin: (p-1) gather sends plus (p-1)
        // binomial-broadcast sends = 2(p-1) messages, NOT the p(p-1) of a
        // broadcast-per-contributor formulation.
        for p in [2usize, 4, 7, 8] {
            let rt = Runtime::new(p);
            let (out, report) =
                rt.run_traced(move |comm| comm.allgather(comm.rank() as u64).unwrap());
            for v in out {
                assert_eq!(v, (0..p as u64).collect::<Vec<_>>());
            }
            assert_eq!(
                report.total_msgs,
                2 * (p as u64 - 1),
                "allgather on {p} ranks must move exactly 2(p-1) messages"
            );
        }
    }

    #[test]
    fn allreduce_min_and_sum() {
        let out = Runtime::new(5).run(|comm| {
            let r = comm.rank() as f64;
            let min = comm.allreduce(r, f64::min).unwrap();
            let sum = comm.allreduce(r, |a, b| a + b).unwrap();
            (min, sum)
        });
        for (min, sum) in out {
            assert_eq!(min, 0.0);
            assert_eq!(sum, 10.0);
        }
    }

    #[test]
    fn collectives_work_on_split_subcommunicators() {
        let out = Runtime::new(6).run(|comm| {
            let row = comm.split((comm.rank() / 3) as u64, (comm.rank() % 3) as u64).unwrap();

            row.allreduce(comm.rank() as u64, |a, b| a + b).unwrap()
        });
        assert_eq!(out[0], 1 + 2);
        assert_eq!(out[5], 3 + 4 + 5);
    }

    #[test]
    fn tiled_placement_cuts_nic_traffic_for_column_bcast() {
        // 4x4 grid, Q=4. Contiguous packs whole rows per node, so a column
        // broadcast crosses NICs on every hop; tiled 2x2 keeps half the
        // column hops in-node.
        let run = |placement: Placement| {
            let rt = Runtime::new(16).with_placement(placement);
            let (_, report) = rt.run_traced(|comm| {
                let col = comm.split((comm.rank() % 4) as u64, (comm.rank() / 4) as u64).unwrap();
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
