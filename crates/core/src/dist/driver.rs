//! The one ParallelFw driver loop, parameterized by the policy triple.
//!
//! Algorithm 4 is Algorithm 3 with one change, and so is this loop: the
//! panels of k = 0 are primed, then each iteration
//!
//! 1. under [`Schedule::LookAhead`] only, relaxes the (k+1)-th block row and
//!    column with the k-th panels and runs DiagUpdate, DiagBcast,
//!    PanelUpdate and PanelBcast for k+1;
//! 2. applies OuterUpdate(k) to the local matrix outside the strips already
//!    closed: the owned k-th ones and, under look-ahead, the (k+1)-th ones
//!    (a no-op there in an idempotent semiring, so it is skipped);
//! 3. under [`Schedule::BulkSync`], runs the (k+1) diag/panel phases only
//!    now, after it.
//!
//! In the real system the look-ahead broadcast is in flight *while* the GPU
//! grinds the outer product; functionally the result is identical, and the
//! `cluster-sim` schedule generator turns exactly this reordering into
//! hidden communication time.
//!
//! Every update is one [`QuadrantUpdate::update`] call, the band-split
//! OuterUpdate blocked FW runs too: GEMMs on the four corners around one
//! excluded row range and one excluded column range, over the present row
//! blocks of the column panel × the present column blocks of the row panel.
//! Presence comes from the solve's one [`BlockPresence`] map. Every rank
//! keeps a copy: at each iteration it re-reads the set blocks of the
//! panels it received, clearing the all-zero ones, then closes the map.
//! Local block `l` of process row `r` is map block `r + l·P_r`, and so for
//! columns. A block it holds clear is neither multiplied nor packed; what
//! is broadcast does not change. The re-read books under the iteration's
//! first OuterUpdate span, before the look-ahead strips.
//!
//! The execution axis is a private enum built from [`FwConfig::exec`]: the
//! in-core executor runs each corner as one packed GEMM; the offload
//! executor stages it through a capacity-limited simulated device with
//! `ooGSrGemm` (§4.3), so only the k-th panels plus `s` tile buffers ever
//! live on the device. The look-ahead strip updates go through the same
//! executor, so `Me-ParallelFw` inherits `Co-ParallelFw`'s overlap unchanged
//! (the paper's composed Co+Me system). A device too small for the panels
//! is a [`DistError::DeviceOom`] from the executor's constructor, decided
//! by rank-independent worst-case arithmetic, so every rank of the grid
//! takes the error path together instead of one rank aborting
//! mid-collective.

use std::ops::Range;

use apsp_trace::span;
use gpu_sim::{oog_srgemm, GpuSpec, OogConfig};
use mpi_sim::ProcessGrid;
use srgemm::gemm::gemm_packed_threads;
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use super::{diag_and_panels, DistError, DistMatrix, Exec, FwConfig, Panels, Schedule};
use crate::fw_blocked::{QuadrantUpdate, CLOSURE_WIDTH};
use crate::presence::BlockPresence;

/// Where this rank's OuterUpdates run.
enum Outer {
    /// One packed GEMM over the view on `threads` kernel threads. Every rank
    /// of the mpi-sim grid is already a thread on the same machine, so the
    /// budget follows `ranks × kernel threads ≤ cores` (DESIGN.md §10).
    InCore { threads: usize },
    /// `Me-ParallelFw`: the local matrix is host-resident and every update
    /// is staged through the simulated GPU by `ooGSrGemm`.
    Offload { gpu: GpuSpec, oog: OogConfig },
}

impl Outer {
    /// The executor `cfg.exec` names for an `n`-vertex run on a `pr × pc`
    /// grid, in-core on `threads` kernel threads. The offload executor
    /// first checks that the worst-case panels plus tile buffers fit on the
    /// device; the bound uses the *maximum* local panel extents over the
    /// whole grid, computed from `(n, b, pr, pc)` alone, so all ranks agree
    /// on the verdict.
    fn new<S: Semiring>(
        cfg: &FwConfig,
        threads: usize,
        n: usize,
        pr: usize,
        pc: usize,
    ) -> Result<Self, DistError> {
        if cfg.exec == Exec::InCoreGemm {
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
        Ok(Outer::Offload { gpu: cfg.gpu_spec, oog: cfg.oog })
    }

    /// `c ⊕= a ⊗ b` (`operands` `[a, b]`) outside the rows `rows` and
    /// columns `cols` of `c`, a sub-view of the local matrix, through
    /// `quadrants`, skipping the blocks `present` holds false: the in-core
    /// executor streams each present run's packed `B`, the offload executor
    /// stages each piece and its operand views through the device.
    fn update<S: Semiring>(
        &self,
        quadrants: &mut QuadrantUpdate<S>,
        c: ViewMut<'_, S::Elem>,
        rows: Range<usize>,
        cols: Range<usize>,
        operands: [&View<'_, S::Elem>; 2],
        present: [&[bool]; 2],
    ) -> Result<(), DistError> {
        quadrants.update(c, rows, cols, operands, present, |c, a, b| match self {
            Outer::InCore { threads } => {
                gemm_packed_threads::<S>(c, a, b.packed(), *threads);
                Ok(())
            }
            Outer::Offload { gpu, oog } => match oog_srgemm::<S>(gpu, oog, c, a, b.view()) {
                Ok(_) => Ok(()),
                Err(gpu_sim::OogError::Oom(oom)) => {
                    Err(DistError::DeviceOom { requested: oom.requested, available: oom.available })
                }
                Err(bad @ gpu_sim::OogError::InvalidConfig { .. }) => {
                    Err(DistError::BadConfig { detail: bad.to_string() })
                }
            },
        })
    }
}

/// Run the configured policy triple on this rank's share, skipping what
/// `blocks`, the whole matrix's map, holds clear. Collective over `grid`.
pub(super) fn run<S: Semiring>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    cfg: &FwConfig,
    mut blocks: BlockPresence,
) -> Result<(), DistError> {
    assert!(
        S::IDEMPOTENT_ADD,
        "distributed FW relies on an idempotent ⊕ ({} is not)",
        S::NAME
    );
    if a.nb == 0 {
        return Ok(());
    }
    let threads =
        cfg.kernel_threads.unwrap_or_else(|| (crate::host_threads() / (a.pr * a.pc)).max(1));
    let outer = Outer::new::<S>(cfg, threads, a.n, a.pr, a.pc)?;
    let mut inner = QuadrantUpdate::<S>::new(CLOSURE_WIDTH);
    let mut phases = |a: &mut DistMatrix<S::Elem>, k| {
        diag_and_panels::<S>(grid, a, k, cfg.bcast, threads, &mut inner)
    };

    let mut quadrants = QuadrantUpdate::<S>::new(a.b);
    let mut panels = phases(a, 0)?;
    let mut present = [Vec::new(), Vec::new()];
    let (my_r, pr, my_c, pc) = (a.my_r, a.pr, a.my_c, a.pc);
    for k in 0..a.nb {
        let next = k + 1 < a.nb;
        let look_ahead = next && cfg.schedule == Schedule::LookAhead;
        let (col, row) = (panels.col_panel.view(), panels.row_panel.view());
        {
            // the k-th panels' local blocks, mapped as the module doc says
            let _p = span("OuterUpdate");
            let [col_k, row_k] = &mut present;
            let (h, w) = (col.cols(), row.rows());
            let col_cut = |r: Range<usize>| col.subview(r.start, 0, r.len(), h);
            let row_cut = |c: Range<usize>| row.subview(0, c.start, w, c.len());
            blocks.refine::<S>(col_k, (col.rows(), a.b), |l| (my_r + l * pr, k), col_cut);
            blocks.refine::<S>(row_k, (row.cols(), a.b), |l| (k, my_c + l * pc), row_cut);
            blocks.close(k);
            if look_ahead {
                lookahead_update::<S>(a, k, &panels, &outer, &mut quadrants, &present)?;
            }
        }
        let ahead = if look_ahead { Some(phases(a, k + 1)?) } else { None };
        {
            // OuterUpdate(k) outside the strips already closed: the owned
            // k-th ones, which PanelUpdate(k) finished, and under look-ahead
            // the (k+1)-th ones, relaxed with these same panels before
            // PanelUpdate(k+1) finished them. On a one-wide grid side one
            // rank owns both, side by side, so each side stays one range.
            let _p = span("OuterUpdate");
            let closed = k..k + 1 + usize::from(look_ahead);
            let (rows, cols) = (a.local_rows(closed.clone()), a.local_cols(closed));
            let [col_k, row_k] = &present;
            let c = a.local.view_mut();
            outer.update::<S>(&mut quadrants, c, rows, cols, [&col, &row], [col_k, row_k])?;
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
/// PanelUpdate(k+1) can run before the bulk OuterUpdate(k). Each strip
/// skips what needs no update: the row strip the k-th columns, the column
/// strip the k-th rows (both final since PanelUpdate(k)) and the
/// (k+1, k+1) block, which the row strip has just updated. `present` is
/// the presence of the k-th panels' local blocks, column panel first.
fn lookahead_update<S: Semiring>(
    a: &mut DistMatrix<S::Elem>,
    k: usize,
    panels: &Panels<S::Elem>,
    outer: &Outer,
    quadrants: &mut QuadrantUpdate<S>,
    [col_k, row_k]: &[Vec<bool>; 2],
) -> Result<(), DistError> {
    let next = k + 1;
    let bk1 = a.block_dim(next);
    let (col, row) = (panels.col_panel.view(), panels.row_panel.view());
    // row strip: A(next, :) ⊕= A(next, k) ⊗ A(k, :)
    if a.owns_row(next) {
        let col_slice = col.subview(a.local_row_start(next), 0, bk1, col.cols());
        let a_k = &col_k[next / a.pr..][..1];
        let cols = a.local_cols(k..next);
        let c = a.row_strip_mut(next);
        outer.update::<S>(quadrants, c, 0..0, cols, [&col_slice, &row], [a_k, row_k])?;
    }
    // column strip: A(:, next) ⊕= A(:, k) ⊗ A(k, next)
    if a.owns_col(next) {
        let row_slice = row.subview(0, a.local_col_start(next), row.rows(), bk1);
        let b_k = &row_k[next / a.pc..][..1];
        let rows = a.local_rows(k..next + 1);
        let c = a.col_strip_mut(next);
        outer.update::<S>(quadrants, c, rows, 0..0, [&col, &row_slice], [col_k, b_k])?;
    }
    Ok(())
}
