//! The one ParallelFw driver loop, parameterized by the policy triple.
//!
//! Algorithm 4 is Algorithm 3 with one change, and so is this loop: the
//! panels of k = 0 are primed, then each iteration
//!
//! 1. under [`Schedule::LookAhead`] only, relaxes the (k+1)-th block row and
//!    column with the k-th panels and runs DiagUpdate, DiagBcast,
//!    PanelUpdate and PanelBcast for k+1;
//! 2. applies OuterUpdate(k) to the whole local matrix;
//! 3. under [`Schedule::BulkSync`], runs the (k+1) diag/panel phases only
//!    now, after it.
//!
//! In the real system the look-ahead broadcast is in flight *while* the GPU
//! grinds the outer product; functionally the result is identical, and the
//! `cluster-sim` schedule generator turns exactly this reordering into
//! hidden communication time.
//!
//! The execution axis is a private enum built from [`FwConfig::exec`]: the
//! in-core executor runs each OuterUpdate as one packed GEMM; the offload
//! executor stages it through a capacity-limited simulated device with
//! `ooGSrGemm` (§4.3), so only the k-th panels plus `s` tile buffers ever
//! live on the device. The look-ahead strip updates go through the same
//! executor, so `Me-ParallelFw` inherits `Co-ParallelFw`'s overlap unchanged
//! (the paper's composed Co+Me system). A device too small for the panels
//! is a [`DistError::DeviceOom`] from the executor's constructor, decided
//! by rank-independent worst-case arithmetic, so every rank of the grid
//! takes the error path together instead of one rank aborting
//! mid-collective.

use apsp_trace::span;
use gpu_sim::{oog_srgemm, OogConfig, SimGpu};
use mpi_sim::ProcessGrid;
use srgemm::gemm::{gemm_packed_threads, PackedB};
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use super::{diag_and_panels, DistError, DistMatrix, Exec, FwConfig, Panels, Schedule};

/// Where this rank's OuterUpdates run.
enum Outer {
    /// One packed GEMM over the view on `threads` kernel threads. Every rank
    /// of the mpi-sim grid is already a thread on the same machine, so the
    /// budget follows `ranks × kernel threads ≤ cores` (DESIGN.md §10).
    InCore { threads: usize },
    /// `Me-ParallelFw`: the local matrix is host-resident and every update
    /// is staged through the simulated GPU by `ooGSrGemm`.
    Offload { gpu: SimGpu, oog: OogConfig },
}

impl Outer {
    /// The executor `cfg.exec` names for an `n`-vertex run on a `pr × pc`
    /// grid. The offload executor first checks that the worst-case panels
    /// plus tile buffers fit on the device; the bound uses the *maximum*
    /// local panel extents over the whole grid, computed from
    /// `(n, b, pr, pc)` alone, so all ranks agree on the verdict.
    fn new<S: Semiring>(cfg: &FwConfig, n: usize, pr: usize, pc: usize) -> Result<Self, DistError> {
        if cfg.exec == Exec::InCoreGemm {
            let threads =
                cfg.kernel_threads.unwrap_or_else(|| (crate::host_threads() / (pr * pc)).max(1));
            return Ok(Outer::InCore { threads });
        }
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
        Ok(Outer::Offload { gpu: SimGpu::new(cfg.gpu_spec), oog: cfg.oog })
    }

    /// `b` in the micro-kernel's tiled layout, for the in-core executor
    /// only (the offload executor stages the view through its own pipeline).
    fn pack<S: Semiring>(&self, b: &View<'_, S::Elem>) -> Option<PackedB<S::Elem>> {
        matches!(self, Outer::InCore { .. }).then(|| PackedB::pack::<S>(b))
    }

    /// `c ← c ⊕ a ⊗ b` on any sub-view `c` of the local matrix; `packed`
    /// is [`Outer::pack`] of `b` when the caller already holds it.
    fn update<S: Semiring>(
        &self,
        c: &mut ViewMut<'_, S::Elem>,
        a: &View<'_, S::Elem>,
        b: &View<'_, S::Elem>,
        packed: Option<&PackedB<S::Elem>>,
    ) -> Result<(), DistError> {
        match self {
            Outer::InCore { threads } => match packed {
                Some(pb) => gemm_packed_threads::<S>(c, a, pb, *threads),
                None => gemm_packed_threads::<S>(c, a, &PackedB::pack::<S>(b), *threads),
            },
            Outer::Offload { .. } if c.rows() == 0 || c.cols() == 0 => {}
            Outer::Offload { gpu, oog } => {
                oog_srgemm::<S>(gpu, oog, c, a, b).map_err(|e| match e {
                    gpu_sim::OogError::Oom(oom) => {
                        DistError::DeviceOom { requested: oom.requested, available: oom.available }
                    }
                    bad @ gpu_sim::OogError::InvalidConfig { .. } => {
                        DistError::BadConfig { detail: bad.to_string() }
                    }
                })?;
            }
        }
        Ok(())
    }
}

/// Run the configured policy triple on this rank's share. Collective over
/// `grid`.
pub(super) fn run<S: Semiring>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    cfg: &FwConfig,
) -> Result<(), DistError> {
    assert!(
        S::IDEMPOTENT_ADD,
        "distributed FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    if a.nb == 0 {
        return Ok(());
    }
    let outer = Outer::new::<S>(cfg, a.n, a.pr, a.pc)?;
    let phases =
        |a: &mut DistMatrix<S::Elem>, k| diag_and_panels::<S>(grid, a, k, cfg.diag, cfg.bcast);

    let mut panels = phases(a, 0)?;
    for k in 0..a.nb {
        let next = k + 1 < a.nb;
        let look_ahead = next && cfg.schedule == Schedule::LookAhead;
        // The row panel is the B operand of every update of this iteration
        // but the look-ahead column strip: it is packed once, in the
        // iteration's first OuterUpdate span.
        let mut packed = None;
        let mut ahead = None;
        if look_ahead {
            {
                let _p = span("OuterUpdate");
                packed = outer.pack::<S>(&panels.row_panel.view());
                lookahead_update::<S>(a, k + 1, &panels, &outer, packed.as_ref())?;
            }
            ahead = Some(phases(a, k + 1)?);
        }
        {
            // OuterUpdate(k) over the whole local matrix (re-touching the
            // k-th strips, and under look-ahead the (k+1)-th ones relaxed
            // with these same panels, is a no-op in an idempotent semiring
            // once the diagonal block is closed)
            let _p = span("OuterUpdate");
            if !look_ahead {
                packed = outer.pack::<S>(&panels.row_panel.view());
            }
            let (col, row) = (panels.col_panel.view(), panels.row_panel.view());
            outer.update::<S>(&mut a.local.view_mut(), &col, &row, packed.as_ref())?;
        }
        if next {
            panels = match ahead {
                Some(p) => p,
                None => phases(a, k + 1)?,
            };
        }
    }
    Ok(())
}

/// OuterUpdate(k) on the (k+1)-th strips only, so DiagUpdate(k+1) and
/// PanelUpdate(k+1) can run before the bulk OuterUpdate(k). `packed` is the
/// iteration's packed row panel.
fn lookahead_update<S: Semiring>(
    a: &mut DistMatrix<S::Elem>,
    next: usize,
    panels: &Panels<S::Elem>,
    outer: &Outer,
    packed: Option<&PackedB<S::Elem>>,
) -> Result<(), DistError> {
    let bk1 = a.block_dim(next);
    // row strip: A(next, :) ⊕= A(next, k) ⊗ A(k, :) — B is the whole row panel
    if a.owns_row(next) {
        let r0 = a.local_row_start(next);
        let col_slice = panels.col_panel.subview(r0, 0, bk1, panels.col_panel.cols());
        let row = panels.row_panel.view();
        outer.update::<S>(&mut a.row_strip_mut(next), &col_slice, &row, packed)?;
    }
    // column strip: A(:, next) ⊕= A(:, k) ⊗ A(k, next) — B is a b×b column
    // slice of the row panel, which does not line up with packed-tile
    // boundaries, so this O(n·b²) update packs its own
    if a.owns_col(next) {
        let c0 = a.local_col_start(next);
        let row_slice = panels.row_panel.subview(0, c0, panels.row_panel.rows(), bk1);
        let col = panels.col_panel.view();
        outer.update::<S>(&mut a.col_strip_mut(next), &col, &row_slice, None)?;
    }
    Ok(())
}
