//! Epoch-snapshot query engine: many concurrent readers over an
//! `Arc`-swapped immutable snapshot, one writer publishing new epochs.
//!
//! Readers call [`Engine::snapshot`] and answer an entire batch of queries
//! against that [`Snapshot`] — the snapshot is immutable, so every answer
//! in the batch is consistent with one epoch by construction (no torn
//! reads, no locks held while answering). The writer applies a batch of
//! edge decreases to a private copy, then publishes it as the next epoch
//! with a single pointer swap; readers pick it up on their *next* batch.
//!
//! The snapshot carries the witness-annotated closure
//! ([`Matrix<DistPred>`]), so path reconstruction reads the same epoch as
//! the distances — predecessor witnesses can never be stale relative to
//! the distances they explain (the bug class this module was built to
//! rule out; see [`crate::incremental`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use apsp_graph::graph::Graph;
use srgemm::matrix::Matrix;

use crate::fw_blocked::{fw_blocked_threads, DiagMethod};
use crate::incremental::{decrease_edges_pred, BatchReport};
use crate::paths_dist::{annotate, reconstruct_path_annotated, split, DistPred, MinPlusPred};

/// A reader-side query failure (the request was understood but cannot be
/// answered on this matrix).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A vertex id is out of range for the served matrix.
    BadVertex {
        /// The offending vertex id.
        v: usize,
        /// The number of vertices in the served matrix.
        n: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::BadVertex { v, n } => {
                write!(f, "vertex {v} out of range (n={n})")
            }
        }
    }
}

/// One immutable published epoch: the witness-annotated closure plus its
/// epoch number. All queries on a snapshot answer from the same matrix, so
/// a batch resolved against one snapshot is internally consistent.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    data: Matrix<DistPred>,
}

impl Snapshot {
    /// The epoch this snapshot was published at (0 = the initial solve).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices served.
    pub fn n(&self) -> usize {
        self.data.rows()
    }

    /// The annotated closure itself (distances + predecessor witnesses).
    pub fn data(&self) -> &Matrix<DistPred> {
        &self.data
    }

    fn check(&self, v: usize) -> Result<(), QueryError> {
        if v >= self.n() {
            return Err(QueryError::BadVertex { v, n: self.n() });
        }
        Ok(())
    }

    /// Point-to-point distance (`f32::INFINITY` when unreachable).
    pub fn dist(&self, s: usize, t: usize) -> Result<f32, QueryError> {
        self.check(s)?;
        self.check(t)?;
        Ok(self.data[(s, t)].d)
    }

    /// Batched point-to-point distances, all answered from this epoch.
    pub fn dist_batch(&self, pairs: &[(usize, usize)]) -> Result<Vec<f32>, QueryError> {
        pairs.iter().map(|&(s, t)| self.dist(s, t)).collect()
    }

    /// One-to-many distances from `s` to each target, from this epoch.
    pub fn one_to_many(&self, s: usize, targets: &[usize]) -> Result<Vec<f32>, QueryError> {
        self.check(s)?;
        targets
            .iter()
            .map(|&t| {
                self.check(t)?;
                Ok(self.data[(s, t)].d)
            })
            .collect()
    }

    /// Shortest path `s → t` with its length, reconstructed from this
    /// epoch's witnesses (`None` when unreachable). The returned path
    /// realizes the returned distance exactly — both come from the same
    /// snapshot.
    pub fn path(&self, s: usize, t: usize) -> Result<Option<(f32, Vec<usize>)>, QueryError> {
        self.check(s)?;
        self.check(t)?;
        let d = self.data[(s, t)].d;
        if s != t && !d.is_finite() {
            return Ok(None);
        }
        Ok(reconstruct_path_annotated(&self.data, s, t).map(|p| (d, p)))
    }

    /// Split into plain distance + predecessor matrices (copies).
    pub fn split(&self) -> (Matrix<f32>, Matrix<u32>) {
        split(&self.data)
    }
}

/// Outcome of one writer batch: the epoch the batch landed in (unchanged
/// when every update was rejected) and the per-update report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// Epoch now current after the batch (== previous epoch if nothing
    /// was accepted, so no snapshot was published).
    pub epoch: u64,
    /// Whether this batch published a new snapshot.
    pub published: bool,
    /// Per-update typed outcomes (see [`crate::incremental::BatchReport`]).
    pub report: BatchReport,
}

/// The query engine: a current-snapshot pointer swapped by the writer,
/// read (briefly) by every reader batch.
///
/// Concurrency contract:
/// * any number of readers may call [`Engine::snapshot`] concurrently —
///   the read lock is held only for the `Arc` clone, never while
///   answering queries;
/// * [`Engine::apply`] may be called from any thread; batches serialize
///   on an internal writer lock (single-writer pipeline);
/// * a reader's batch always observes exactly one epoch; distances for a
///   fixed pair are monotonically non-increasing across epochs (decreases
///   only — the tested invariant).
pub struct Engine {
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<()>,
    latest: AtomicU64,
}

impl Engine {
    /// Serve an already-solved witness-annotated closure (epoch 0).
    pub fn from_annotated(data: Matrix<DistPred>) -> Engine {
        assert_eq!(data.rows(), data.cols(), "served matrix must be square");
        Engine {
            current: RwLock::new(Arc::new(Snapshot { epoch: 0, data })),
            writer: Mutex::new(()),
            latest: AtomicU64::new(0),
        }
    }

    /// Solve `g` (witness-carrying blocked Floyd-Warshall) and serve the
    /// result. `block` is the FW block size (64 is a good default).
    pub fn solve_from_graph(g: &Graph, block: usize) -> Engine {
        let mut annotated = annotate(&g.to_dense());
        let b = block.clamp(1, g.n().max(1));
        fw_blocked_threads::<MinPlusPred>(&mut annotated, b, DiagMethod::FwClosure, 1);
        Engine::from_annotated(annotated)
    }

    /// Number of vertices served.
    pub fn n(&self) -> usize {
        self.snapshot().n()
    }

    /// The current snapshot. Cheap (`Arc` clone under a short read lock);
    /// answer a whole batch of queries against the returned snapshot to
    /// get per-batch epoch consistency.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The most recently *published* epoch — what a freshly-taken snapshot
    /// would see. Readers measure their epoch lag as
    /// `latest_epoch() - snapshot.epoch()`.
    pub fn latest_epoch(&self) -> u64 {
        self.latest.load(Ordering::Acquire)
    }

    /// Apply a batch of edge decreases and publish the next epoch.
    ///
    /// The writer pipeline: take the writer lock (batches serialize),
    /// copy the current snapshot's matrix, run the witness-carrying
    /// non-panicking batch updater over the copy, and — iff at least one
    /// update was accepted — publish the copy as `epoch + 1` with a single
    /// pointer swap. Readers holding older snapshots are unaffected; new
    /// `snapshot()` calls see the new epoch. Rejected updates (bad vertex,
    /// NaN, negative self-loop/cycle, non-decrease) are reported per-entry
    /// and never corrupt, panic, or block the server.
    pub fn apply(&self, updates: &[(usize, usize, f32)]) -> UpdateOutcome {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let base = self.snapshot();
        let mut data = base.data.clone();
        let report = decrease_edges_pred(&mut data, updates);
        if report.applied == 0 {
            return UpdateOutcome { epoch: base.epoch, published: false, report };
        }
        let epoch = base.epoch + 1;
        let next = Arc::new(Snapshot { epoch, data });
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = next;
        self.latest.store(epoch, Ordering::Release);
        UpdateOutcome { epoch, published: true, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fw_seq::fw_seq;
    use crate::incremental::IncrementalError;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::paths::validate_path;
    use srgemm::MinPlusF32;

    fn engine(n: usize, p: f64, seed: u64) -> (Graph, Engine) {
        let g = generators::erdos_renyi(n, p, WeightKind::small_ints(), seed);
        let e = Engine::solve_from_graph(&g, 8);
        (g, e)
    }

    #[test]
    fn epoch_zero_matches_sequential_fw() {
        let (g, e) = engine(24, 0.25, 3);
        let snap = e.snapshot();
        assert_eq!(snap.epoch(), 0);
        let mut want = g.to_dense();
        fw_seq::<MinPlusF32>(&mut want);
        let (d, _) = snap.split();
        assert!(want.eq_exact(&d));
    }

    #[test]
    fn queries_are_bounds_checked_not_panicking() {
        let (_, e) = engine(10, 0.4, 5);
        let snap = e.snapshot();
        assert_eq!(snap.dist(0, 99), Err(QueryError::BadVertex { v: 99, n: 10 }));
        assert_eq!(snap.one_to_many(99, &[0]), Err(QueryError::BadVertex { v: 99, n: 10 }));
        assert_eq!(snap.path(3, 42), Err(QueryError::BadVertex { v: 42, n: 10 }));
        assert!(snap.dist(0, 9).is_ok());
    }

    #[test]
    fn writer_publishes_new_epochs_and_old_snapshots_survive() {
        let (_, e) = engine(16, 0.3, 7);
        let old = e.snapshot();
        let d_before = old.dist(0, 12).unwrap();

        let out = e.apply(&[(0, 12, 0.5)]);
        assert!(out.published);
        assert_eq!(out.epoch, 1);
        assert_eq!(e.latest_epoch(), 1);

        // the old snapshot still answers from epoch 0 (no torn state)
        assert_eq!(old.epoch(), 0);
        assert_eq!(old.dist(0, 12).unwrap(), d_before);

        // the new snapshot sees the decrease
        let new = e.snapshot();
        assert_eq!(new.epoch(), 1);
        assert!(new.dist(0, 12).unwrap() <= 0.5);
    }

    #[test]
    fn rejected_only_batches_do_not_publish() {
        let (_, e) = engine(12, 0.3, 9);
        let out = e.apply(&[(3, 3, -1.0), (99, 0, 1.0), (0, 1, f32::NAN)]);
        assert!(!out.published);
        assert_eq!(out.epoch, 0);
        assert_eq!(e.latest_epoch(), 0);
        assert_eq!(out.report.outcomes[0], Err(IncrementalError::NegativeSelfLoop));
        assert_eq!(out.report.outcomes[1], Err(IncrementalError::BadVertex));
        assert_eq!(out.report.outcomes[2], Err(IncrementalError::NanWeight));
    }

    #[test]
    fn paths_realize_distances_after_update_batches() {
        let (g, e) = engine(20, 0.2, 11);
        e.apply(&[(0, 13, 1.0), (7, 2, 1.0)]);
        let snap = e.snapshot();

        // oracle graph with the accepted edges
        let mut b = apsp_graph::graph::GraphBuilder::new(20);
        for (x, y, w) in g.edges() {
            b.add_edge(x, y, w);
        }
        b.add_edge(0, 13, 1.0).add_edge(7, 2, 1.0);
        let g2 = b.build();

        for s in 0..20 {
            for t in 0..20 {
                if s == t {
                    continue;
                }
                match snap.path(s, t).unwrap() {
                    Some((d, p)) => {
                        assert_eq!(d, snap.dist(s, t).unwrap());
                        assert!(validate_path(&g2, &p, s, t, d, 1e-3), "{s}->{t}");
                    }
                    None => assert_eq!(snap.dist(s, t).unwrap(), f32::INFINITY),
                }
            }
        }
    }

    #[test]
    fn one_to_many_matches_point_queries() {
        let (_, e) = engine(14, 0.3, 13);
        let snap = e.snapshot();
        let targets: Vec<usize> = (0..14).collect();
        let many = snap.one_to_many(5, &targets).unwrap();
        for (t, &d) in targets.iter().zip(&many) {
            assert_eq!(d, snap.dist(5, *t).unwrap());
        }
    }
}
