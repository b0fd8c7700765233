//! The one generic ParallelFw driver loop, parameterized by the policy
//! triple (replacing the hand-rolled baseline/pipelined/offload loops).
//!
//! The [`Schedule`] axis picks between the bulk-synchronous loop of
//! Algorithm 3 and the look-ahead pipeline of Algorithm 4: once the k-th
//! panels are everywhere, the (k+1)-th panels are brought fully up to date
//! first — OuterUpdate(k) restricted to them, then DiagUpdate(k+1),
//! DiagBcast(k+1), PanelUpdate(k+1) and PanelBcast(k+1) — and only then is
//! the big OuterUpdate(k) applied to the rest of the local matrix. In the
//! real system the broadcast of the next panels is in flight *while* the
//! GPU grinds the outer product; functionally the result is identical, and
//! the `cluster-sim` schedule generator turns exactly this reordering into
//! hidden communication time.
//!
//! The [`OuterExec`] trait is the execution axis: [`InCoreGemm`] runs the
//! outer product as one in-memory GEMM; [`GpuOffload`] stages it through a
//! capacity-limited simulated device with `ooGSrGemm` (§4.3), so only the
//! k-th panels plus `s` tile buffers ever live on the device and the
//! feasible problem size is bounded by host memory instead of HBM — the
//! paper's 2.5× head room. Under the look-ahead schedule the strip-level
//! look-ahead updates also flow through the executor, so `Me-ParallelFw`
//! inherits `Co-ParallelFw`'s overlap unchanged (the paper's composed
//! Co+Me system).
//!
//! Device-capacity violations surface as [`DistError::DeviceOom`] — checked
//! up front by [`GpuOffload::preflight`] with rank-independent worst-case
//! arithmetic, so every rank of the grid takes the error path together
//! instead of one rank aborting mid-collective.

use std::cell::OnceCell;

use apsp_trace::span;
use gpu_sim::{oog_srgemm, SimGpu};
use mpi_sim::ProcessGrid;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use super::{diag_and_panels, DistError, DistMatrix, FwConfig, PackedPanels, Schedule};

/// The `B` operand of an OuterUpdate: the row panel (or a slice of it) as a
/// view, plus the slot its packed form lands in the first time an in-core
/// executor asks for it. Every update of an iteration that multiplies
/// against the whole row panel shares one slot, so the panel is packed at
/// most once per iteration — and never for an executor that stages the view
/// through its own pipeline.
pub struct OuterB<'a, T> {
    view: View<'a, T>,
    packed: &'a OnceCell<PackedB<T>>,
}

impl<'a, T: Copy> OuterB<'a, T> {
    /// `view` with `packed` as the slot for its packed form; an occupied
    /// slot must hold the pack of exactly this view.
    pub fn new(view: View<'a, T>, packed: &'a OnceCell<PackedB<T>>) -> Self {
        OuterB { view, packed }
    }

    /// The unpacked operand.
    pub fn view(&self) -> &View<'a, T> {
        &self.view
    }

    /// The operand in the micro-kernel's tiled layout, packed on first use.
    pub fn packed<S: Semiring<Elem = T>>(&self) -> &'a PackedB<T> {
        self.packed.get_or_init(|| PackedB::pack::<S>(&self.view))
    }
}

/// Execution policy for the OuterUpdate phase: applies
/// `C ← C ⊕ A ⊗ B` to a view of the local matrix (the whole matrix for the
/// bulk update, a single strip for look-ahead updates).
pub trait OuterExec<S: Semiring> {
    /// Apply one outer-product update. `c` is any sub-view of this rank's
    /// local matrix; `a`/`b` are the broadcast column/row panels (or slices
    /// of them).
    fn outer_update(
        &mut self,
        c: &mut ViewMut<'_, S::Elem>,
        a: &View<'_, S::Elem>,
        b: &OuterB<'_, S::Elem>,
    ) -> Result<(), DistError>;
}

/// In-core execution: the OuterUpdate is one packed GEMM over the view,
/// row-slab parallel under an explicit thread budget.
///
/// The budget matters because every rank of the mpi-sim grid is already a
/// thread on the same machine: `p` ranks each fanning out to all cores
/// oversubscribes the box `p`-fold and the OuterUpdates *slow down*. The
/// rule is `ranks × kernel threads ≤ cores` (DESIGN.md §10), applied by
/// whoever builds the executor ([`super::run_on_grid`]).
pub struct InCoreGemm {
    threads: usize,
}

impl InCoreGemm {
    /// In-core executor on `threads` kernel threads per OuterUpdate.
    pub fn with_threads(threads: usize) -> Self {
        InCoreGemm { threads }
    }
}

impl<S: Semiring> OuterExec<S> for InCoreGemm {
    fn outer_update(
        &mut self,
        c: &mut ViewMut<'_, S::Elem>,
        a: &View<'_, S::Elem>,
        b: &OuterB<'_, S::Elem>,
    ) -> Result<(), DistError> {
        gemm_packed_threads::<S>(c, a, b.packed::<S>(), self.threads);
        Ok(())
    }
}

/// `Me-ParallelFw` execution: the local matrix is host-resident and every
/// OuterUpdate is staged through the simulated GPU by `ooGSrGemm`.
pub struct GpuOffload {
    gpu: SimGpu,
    oog: gpu_sim::OogConfig,
}

impl GpuOffload {
    /// Build the executor after checking that the worst-case panels plus
    /// tile buffers fit on the device. The bound uses the *maximum* local
    /// panel extents over the whole `pr × pc` grid, computed from
    /// `(n, b, pr, pc)` alone, so all ranks agree on the verdict.
    pub fn preflight<S: Semiring>(
        cfg: &FwConfig,
        n: usize,
        pr: usize,
        pc: usize,
    ) -> Result<Self, DistError> {
        cfg.oog
            .validate()
            .map_err(|e| DistError::BadConfig { detail: e.to_string() })?;
        let b = cfg.block;
        let nb = n.div_ceil(b);
        let dim = |k: usize| b.min(n - k * b);
        let max_extent = |p: usize| {
            (0..p)
                .map(|r| (r..nb).step_by(p).map(dim).sum::<usize>())
                .max()
                .unwrap_or(0)
        };
        let (lrows_max, lcols_max) = (max_extent(pr), max_extent(pc));
        let esz = std::mem::size_of::<S::Elem>() as u64;
        // widest panel: b whenever there are ≥ 2 blocks, else the lone
        // (possibly ragged) block's n columns
        let panel_w = b.min(n);
        let panels = ((lrows_max + lcols_max) * panel_w) as u64 * esz;
        let tiles = (cfg.oog.streams * cfg.oog.mx * cfg.oog.nx) as u64 * esz;
        let need = panels + tiles;
        if need > cfg.gpu_spec.mem_bytes {
            return Err(DistError::DeviceOom { requested: need, available: cfg.gpu_spec.mem_bytes });
        }
        Ok(GpuOffload { gpu: SimGpu::new(cfg.gpu_spec), oog: cfg.oog })
    }
}

impl<S: Semiring> OuterExec<S> for GpuOffload {
    fn outer_update(
        &mut self,
        c: &mut ViewMut<'_, S::Elem>,
        a: &View<'_, S::Elem>,
        b: &OuterB<'_, S::Elem>,
    ) -> Result<(), DistError> {
        if c.rows() == 0 || c.cols() == 0 {
            return Ok(());
        }
        oog_srgemm::<S>(&self.gpu, &self.oog, c, a, b.view()).map_err(|e| match e {
            gpu_sim::OogError::Oom(oom) => {
                DistError::DeviceOom { requested: oom.requested, available: oom.available }
            }
            bad @ gpu_sim::OogError::InvalidConfig { .. } => {
                DistError::BadConfig { detail: bad.to_string() }
            }
        })?;
        Ok(())
    }
}

/// Run the configured schedule on this rank's share with the given
/// executor. Collective over `grid`.
pub fn run<S: Semiring, E: OuterExec<S>>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    cfg: &FwConfig,
    exec: &mut E,
) -> Result<(), DistError> {
    assert!(
        S::IDEMPOTENT_ADD,
        "distributed FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    if a.nb == 0 {
        return Ok(());
    }
    match cfg.schedule {
        Schedule::BulkSync => run_bulk_sync::<S, E>(grid, a, cfg, exec),
        Schedule::LookAhead => run_look_ahead::<S, E>(grid, a, cfg, exec),
    }
}

/// Algorithm 3 shape: each iteration's five phases run to completion before
/// the next starts — the next iteration's broadcasts cannot complete until
/// every rank reaches them, an implicit bulk-synchronous barrier.
fn run_bulk_sync<S: Semiring, E: OuterExec<S>>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    cfg: &FwConfig,
    exec: &mut E,
) -> Result<(), DistError> {
    for k in 0..a.nb {
        let panels = diag_and_panels::<S>(grid, a, k, cfg.diag, cfg.bcast)?;
        // OuterUpdate(k): whole local matrix (re-touching the freshly-updated
        // k-th strips is a no-op — see `fw_blocked`'s module docs)
        let _p = span("OuterUpdate");
        exec.outer_update(&mut a.local.view_mut(), &panels.col_panel.view(), &panels.row_b())?;
    }
    Ok(())
}

/// Algorithm 4 shape: look-ahead pipeline. The (k+1)-th strips are relaxed
/// with the k-th panels and broadcast before the bulk OuterUpdate(k).
fn run_look_ahead<S: Semiring, E: OuterExec<S>>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    cfg: &FwConfig,
    exec: &mut E,
) -> Result<(), DistError> {
    // Prime the pipeline: diag/panel work for k = 0. Each panel set is
    // packed at most once, by the first in-core update that multiplies
    // against it, and the same packed copy then serves the look-ahead row
    // strip *and* the bulk OuterUpdate of its iteration.
    let mut panels = diag_and_panels::<S>(grid, a, 0, cfg.diag, cfg.bcast)?;

    for k in 0..a.nb {
        let next = if k + 1 < a.nb {
            // ---- look-ahead: apply OuterUpdate(k) to the (k+1)-th strips only ----
            {
                let _p = span("OuterUpdate");
                lookahead_update::<S, E>(a, k + 1, &panels, exec)?;
            }
            // ---- then the full (k+1) diag/panel phase, overlapping the big
            //      OuterUpdate(k) in the schedule model ----
            Some(diag_and_panels::<S>(grid, a, k + 1, cfg.diag, cfg.bcast)?)
        } else {
            None
        };

        // ---- OuterUpdate(k) over the whole local matrix ----
        // (the k+1 strips were already relaxed with these same panels, and
        // min-plus relaxation is monotone, so re-touching them is a no-op)
        let _p = span("OuterUpdate");
        exec.outer_update(&mut a.local.view_mut(), &panels.col_panel.view(), &panels.row_b())?;

        if let Some(p) = next {
            panels = p;
        }
    }
    Ok(())
}

/// OuterUpdate(k-panels only): relax the (k+1)-th block row and column with
/// the k-th panels, so DiagUpdate(k+1)/PanelUpdate(k+1) can run before the
/// bulk OuterUpdate(k) finishes. Flows through the executor so the offload
/// policy stages the strips through the device like any other update.
fn lookahead_update<S: Semiring, E: OuterExec<S>>(
    a: &mut DistMatrix<S::Elem>,
    next: usize,
    panels: &PackedPanels<S::Elem>,
    exec: &mut E,
) -> Result<(), DistError> {
    // row strip `next`: A(next, :) ⊕= A(next, k) ⊗ A(k, :) — the B operand
    // is the *whole* row panel, so the iteration's packed copy is reused
    if a.owns_row(next) {
        let r0 = a.local_row_start(next);
        let bk1 = a.block_dim(next);
        let col_slice = panels.col_panel.subview(r0, 0, bk1, panels.col_panel.cols());
        exec.outer_update(&mut a.row_strip_mut(next), &col_slice, &panels.row_b())?;
    }
    // column strip `next`: A(:, next) ⊕= A(:, k) ⊗ A(k, next) — the B
    // operand is a b×b column *slice* of the row panel, which does not
    // coincide with packed-tile boundaries, so this small update brings a
    // slot of its own (it is O(n·b²) against the O(n²·b) bulk update)
    if a.owns_col(next) {
        let c0 = a.local_col_start(next);
        let bk1 = a.block_dim(next);
        let row_slice = panels.row_panel.subview(0, c0, panels.row_panel.rows(), bk1);
        let slot = OnceCell::new();
        let b = OuterB::new(row_slice, &slot);
        exec.outer_update(&mut a.col_strip_mut(next), &panels.col_panel.view(), &b)?;
    }
    Ok(())
}
