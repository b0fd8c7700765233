//! Distributed Floyd-Warshall over the `mpi-sim` runtime.
//!
//! The distributed algorithm space is spanned by **three orthogonal policy
//! axes** rather than a closed list of variants:
//!
//! * [`Schedule`] — how iterations are ordered: bulk-synchronous
//!   (Algorithm 3) or look-ahead pipelined (Algorithm 4, §3.1–3.2).
//! * [`PanelBcastAlgo`] — how the k-th panels travel: binomial tree or the
//!   bandwidth-optimal pipelined ring (§3.3).
//! * [`Exec`] — where the OuterUpdate runs: in-core GEMM or staged through
//!   a capacity-limited simulated GPU by `ooGSrGemm` (§4.3).
//!
//! One driver loop (the private `driver` module) consumes the triple: the
//! look-ahead schedule is the bulk-synchronous loop with the next panels
//! moved ahead of the OuterUpdate. The paper's named systems are thin
//! presets over it:
//!
//! | Preset | Schedule | PanelBcast | Exec |
//! |---|---|---|---|
//! | [`Variant::Baseline`] | BulkSync (Alg. 3) | Tree | InCoreGemm |
//! | [`Variant::Pipelined`] | LookAhead (Alg. 4) | Tree | InCoreGemm |
//! | [`Variant::AsyncRing`] | LookAhead | Ring (§3.3) | InCoreGemm |
//! | [`Variant::Offload`] | BulkSync | Tree | GpuOffload (§4.3) |
//! | [`Variant::CoMe`] | LookAhead | Ring | GpuOffload |
//!
//! `CoMe` is the paper's full composed system — `Me-ParallelFw` inheriting
//! `Co-ParallelFw`'s pipelined schedule and ring PanelBcast — the
//! configuration behind the Fig. 7 run at n = 1.66M. The remaining corners
//! of the 2×2×2 cube (e.g. BulkSync+Ring) are unnamed but fully supported;
//! the cross-variant property tests sweep all eight.
//!
//! Every point of the cube produces bit-identical results to sequential
//! Floyd-Warshall; the axes only change communication structure and memory
//! residency, which the `cluster-sim` schedules turn into time.

mod driver;
pub mod layout;

pub use layout::DistMatrix;

use std::time::Duration;

use apsp_trace::{span, Trace};
use gpu_sim::{GpuSpec, OogConfig};
use mpi_sim::{
    Comm, CommError, FailureKind, FaultPlan, Placement, ProcessGrid, RunError, Runtime,
    TrafficReport,
};
use srgemm::matrix::Matrix;
use srgemm::semiring::Semiring;

use crate::fw_blocked::DiagMethod;

/// Iteration-ordering axis: how OuterUpdate(k) relates to the (k+1)-th
/// diag/panel phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Algorithm 3: each iteration runs its five phases to completion
    /// before the next starts.
    BulkSync,
    /// Algorithm 4: the (k+1)-th panels are brought up to date and
    /// broadcast *before* the bulk OuterUpdate(k), so the broadcast is in
    /// flight while the outer product grinds (§3.1–3.2).
    LookAhead,
}

impl Schedule {
    /// Both schedules, bulk-synchronous first.
    pub fn all() -> [Schedule; 2] {
        [Schedule::BulkSync, Schedule::LookAhead]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::BulkSync => "BulkSync",
            Schedule::LookAhead => "LookAhead",
        }
    }
}

/// Panel-broadcast axis: how the k-th panels travel along the process
/// rows/columns. The latency-critical DiagBcast always uses the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelBcastAlgo {
    /// Binomial tree (the library broadcast of Algorithm 3).
    Tree,
    /// Pipelined ring split into `chunks` pieces (§3.3) — bandwidth-optimal
    /// for the large panels, and lets iterations drift apart.
    Ring {
        /// Number of chunks each panel is split into.
        chunks: usize,
    },
}

impl PanelBcastAlgo {
    /// Short display name (chunk count elided).
    pub fn name(&self) -> &'static str {
        match self {
            PanelBcastAlgo::Tree => "Tree",
            PanelBcastAlgo::Ring { .. } => "Ring",
        }
    }
}

/// Outer-product execution axis: where the driver runs each OuterUpdate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// The local matrix stays in (simulated GPU) core and the OuterUpdate
    /// is one in-memory packed GEMM.
    InCoreGemm,
    /// The local matrix is host-resident and the OuterUpdate is staged
    /// through the capacity-limited device by `ooGSrGemm` (§4.3) —
    /// `Me-ParallelFw`'s memory model.
    GpuOffload,
}

impl Exec {
    /// Both execution policies, in-core first.
    pub fn all() -> [Exec; 2] {
        [Exec::InCoreGemm, Exec::GpuOffload]
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Exec::InCoreGemm => "InCore",
            Exec::GpuOffload => "GpuOffload",
        }
    }
}

/// Why a distributed run could not complete. Returned (never panicked)
/// through [`distributed_apsp_on`] and the convenience drivers so callers —
/// the CLI in particular — can report the failure and exit cleanly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DistError {
    /// The offload executor's panels plus tile buffers exceed simulated
    /// device memory — the hard wall `Me-ParallelFw` hits when the block
    /// size is chosen absurdly large (shrink `b` or the oog tile buffers).
    DeviceOom {
        /// Bytes the device would need to hold.
        requested: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// A communication primitive failed on some rank: a structured deadlock
    /// report, a peer-failure notification, a split timeout, or an injected
    /// fault (see [`mpi_sim::CommError`]).
    Comm(CommError),
    /// The offload configuration itself is invalid (zero tile dims or
    /// stream count reaching the executor via literal construction).
    BadConfig {
        /// Human-readable description of the offending knob.
        detail: String,
    },
    /// A rank's closure panicked; the runtime caught the unwind and peers
    /// were failed fast, so the panic surfaces as data instead of an abort.
    RankPanicked {
        /// World rank whose closure panicked.
        rank: usize,
        /// The panic payload, rendered as a string.
        message: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::DeviceOom { requested, available } => write!(
                f,
                "offload panels do not fit on the device: need {requested} B, \
                 have {available} B (shrink the block size or the oog tile buffers)"
            ),
            DistError::BadConfig { detail } => write!(f, "bad offload config: {detail}"),
            DistError::Comm(e) => write!(f, "communication failed: {e}"),
            DistError::RankPanicked { rank, message } => {
                write!(f, "rank {rank} panicked: {message}")
            }
        }
    }
}

impl From<CommError> for DistError {
    fn from(e: CommError) -> Self {
        DistError::Comm(e)
    }
}

impl std::error::Error for DistError {}

/// Runtime knobs for the convenience drivers ([`distributed_apsp_opts`] and
/// friends): the deadlock-detection deadline, an optional deterministic
/// fault-injection plan, and the executor's worker-pool / stack sizing for
/// paper-scale rank counts.
#[derive(Clone, Debug, Default)]
pub struct DistRunOpts {
    /// Override the receive timeout used for deadlock detection
    /// (`None` → the runtime's 30 s default). Large-`p` simulations on few
    /// cores should *lengthen* this: ranks spend most of their wall-clock
    /// parked waiting for a worker slot, not deadlocked.
    pub recv_timeout: Option<Duration>,
    /// Deterministic fault-injection plan (empty = no faults).
    pub faults: FaultPlan,
    /// Bound on concurrently-executing rank tasks
    /// ([`mpi_sim::Runtime::with_workers`]; `None` → host parallelism).
    pub workers: Option<usize>,
    /// Per-rank stack size in bytes ([`mpi_sim::Runtime::with_stack_size`];
    /// `None` → platform default). 1024-rank smokes shrink this.
    pub stack_bytes: Option<usize>,
}

/// Collapse a failed SPMD run into the single error the caller reports:
/// first-failure attribution picks the root cause, app errors pass through
/// typed (a deterministic [`DistError::DeviceOom`] stays a `DeviceOom`), and
/// a caught panic becomes [`DistError::RankPanicked`].
fn flatten_failure(err: RunError<DistError>) -> DistError {
    let first = err.failures.into_iter().next().expect("RunError is never empty");
    match first.error {
        FailureKind::App(e) => e,
        FailureKind::Panic(message) => DistError::RankPanicked { rank: first.rank, message },
    }
}

/// Default ring chunk count for the functional (test-scale) runs; the
/// Summit-scale schedules use deeper pipelining (see
/// [`crate::schedule::ScheduleConfig`]).
pub const DEFAULT_RING_CHUNKS: usize = 4;

/// Named presets over the policy cube, in the paper's legend order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Algorithm 3: BulkSync + Tree + InCoreGemm.
    Baseline,
    /// Algorithm 4: LookAhead + Tree + InCoreGemm.
    Pipelined,
    /// `Co-ParallelFw`'s `+Async` legend: LookAhead + Ring + InCoreGemm.
    AsyncRing,
    /// `Me-ParallelFw` as published standalone: BulkSync + Tree + GpuOffload.
    Offload,
    /// The composed Co+Me system: LookAhead + Ring + GpuOffload — the
    /// configuration that reaches n = 1.66M at ~50% of peak in Fig. 7.
    CoMe,
}

impl Variant {
    /// All presets, in the paper's legend order.
    pub fn all() -> [Variant; 5] {
        [Variant::Baseline, Variant::Pipelined, Variant::AsyncRing, Variant::Offload, Variant::CoMe]
    }

    /// Legend string used in the figure harnesses.
    pub fn legend(&self) -> &'static str {
        match self {
            Variant::Baseline => "Baseline",
            Variant::Pipelined => "Pipelined",
            Variant::AsyncRing => "+Async",
            Variant::Offload => "Offload",
            Variant::CoMe => "Co+Me",
        }
    }

    /// The (schedule, bcast, exec) triple this preset names. Ring presets
    /// get [`DEFAULT_RING_CHUNKS`]; override the chunk count on the config.
    pub fn axes(&self) -> (Schedule, PanelBcastAlgo, Exec) {
        let ring = PanelBcastAlgo::Ring { chunks: DEFAULT_RING_CHUNKS };
        match self {
            Variant::Baseline => (Schedule::BulkSync, PanelBcastAlgo::Tree, Exec::InCoreGemm),
            Variant::Pipelined => (Schedule::LookAhead, PanelBcastAlgo::Tree, Exec::InCoreGemm),
            Variant::AsyncRing => (Schedule::LookAhead, ring, Exec::InCoreGemm),
            Variant::Offload => (Schedule::BulkSync, PanelBcastAlgo::Tree, Exec::GpuOffload),
            Variant::CoMe => (Schedule::LookAhead, ring, Exec::GpuOffload),
        }
    }

    /// The preset naming an axis triple, if any (chunk counts are ignored).
    /// Three corners of the 2×2×2 cube are unnamed and return `None`.
    pub fn from_axes(schedule: Schedule, bcast: PanelBcastAlgo, exec: Exec) -> Option<Variant> {
        let ring = matches!(bcast, PanelBcastAlgo::Ring { .. });
        match (schedule, ring, exec) {
            (Schedule::BulkSync, false, Exec::InCoreGemm) => Some(Variant::Baseline),
            (Schedule::LookAhead, false, Exec::InCoreGemm) => Some(Variant::Pipelined),
            (Schedule::LookAhead, true, Exec::InCoreGemm) => Some(Variant::AsyncRing),
            (Schedule::BulkSync, false, Exec::GpuOffload) => Some(Variant::Offload),
            (Schedule::LookAhead, true, Exec::GpuOffload) => Some(Variant::CoMe),
            _ => None,
        }
    }

    /// Legend for an arbitrary axis triple: the preset legend when one
    /// exists, otherwise the composed `Schedule+Bcast+Exec` form.
    pub fn legend_for(schedule: Schedule, bcast: PanelBcastAlgo, exec: Exec) -> String {
        match Variant::from_axes(schedule, bcast, exec) {
            Some(v) => v.legend().to_string(),
            None => format!("{}+{}+{}", schedule.name(), bcast.name(), exec.name()),
        }
    }
}

/// Configuration for a distributed APSP run: the three policy axes plus the
/// layout/kernel knobs they parameterize.
#[derive(Clone, Copy, Debug)]
pub struct FwConfig {
    /// Block size `b` of the block-cyclic distribution.
    pub block: usize,
    /// Iteration-ordering axis.
    pub schedule: Schedule,
    /// Panel-broadcast axis.
    pub bcast: PanelBcastAlgo,
    /// Outer-product execution axis.
    pub exec: Exec,
    /// How diagonal blocks are closed.
    pub diag: DiagMethod,
    /// Kernel threads each rank's in-core OuterUpdate may use.
    /// `None` → `available_parallelism / (pr·pc)`, floor 1, so ranks ×
    /// kernel threads never exceeds the machine (DESIGN.md §10); the solver
    /// layer fills it from [`crate::solver::SolveOpts::threads`] instead.
    pub kernel_threads: Option<usize>,
    /// Device spec for the GpuOffload executor (each rank gets one GPU).
    pub gpu_spec: GpuSpec,
    /// ooGSrGemm tiling for the GpuOffload executor.
    pub oog: OogConfig,
}

impl FwConfig {
    /// Preset constructor. Defaults: 4-chunk ring (where the preset uses
    /// one), FW-closure diagonals, and a tiny test GPU with 64×64 tile
    /// buffers on 3 streams (sized to fit [`GpuSpec::test_tiny`]; production
    /// harnesses override both).
    pub fn new(block: usize, variant: Variant) -> Self {
        let (schedule, bcast, exec) = variant.axes();
        FwConfig::from_axes(block, schedule, bcast, exec)
    }

    /// Construct directly from an axis triple (any corner of the cube,
    /// named or not).
    pub fn from_axes(block: usize, schedule: Schedule, bcast: PanelBcastAlgo, exec: Exec) -> Self {
        FwConfig {
            block,
            schedule,
            bcast,
            exec,
            diag: DiagMethod::FwClosure,
            kernel_threads: None,
            gpu_spec: GpuSpec::test_tiny(),
            oog: OogConfig::new(64, 64, 3),
        }
    }

    /// Legend string for this configuration's axis triple.
    pub fn legend(&self) -> String {
        Variant::legend_for(self.schedule, self.bcast, self.exec)
    }
}

/// Broadcast a row-major `rows × cols` block over `comm` from `root`;
/// `mine` is `Some(elements)` at the root. Returns the block on every rank,
/// or the communication error that broke the collective.
pub(crate) fn bcast_matrix<S: Semiring>(
    comm: &Comm,
    root: usize,
    mine: Option<Vec<S::Elem>>,
    rows: usize,
    cols: usize,
    how: PanelBcastAlgo,
) -> Result<Matrix<S::Elem>, CommError> {
    let data = match how {
        PanelBcastAlgo::Tree => comm.bcast(root, mine)?,
        PanelBcastAlgo::Ring { chunks } => comm.ring_bcast(root, mine, chunks)?,
    };
    assert_eq!(data.len(), rows * cols, "broadcast panel size mismatch");
    Ok(Matrix::from_vec(rows, cols, data))
}

/// The k-th panels every rank holds after [`diag_and_panels`]: the operands
/// of iteration k's OuterUpdates. The row panel is the `B` operand of every
/// GEMM of the iteration, the column panel the `A` operand.
pub(crate) struct Panels<T> {
    /// `local_rows × b_k` column panel (`A(:,k)` restricted to my rows).
    pub col_panel: Matrix<T>,
    /// `b_k × local_cols` row panel (`A(k,:)` restricted to my cols).
    pub row_panel: Matrix<T>,
}

/// DiagUpdate + DiagBcast + PanelUpdate + PanelBcast for iteration `k` —
/// identical at every point of the policy cube (only the panel broadcast
/// algorithm differs). On success the k-th strips of `a` are updated in
/// place and every rank holds the broadcast panels; a broken broadcast
/// surfaces as [`DistError::Comm`] on every participating rank.
pub(crate) fn diag_and_panels<S: Semiring>(
    grid: &ProcessGrid,
    a: &mut DistMatrix<S::Elem>,
    k: usize,
    diag_method: DiagMethod,
    how: PanelBcastAlgo,
) -> Result<Panels<S::Elem>, DistError> {
    use srgemm::closure::{fw_closure, fw_closure_squaring};
    use srgemm::panel::{panel_update_left, panel_update_right};

    let bk = a.block_dim(k);
    let kr = k % a.pr;
    let kc = k % a.pc;

    // Phase guards open unconditionally on every rank (even ranks with no
    // work in the phase), so every rank's timeline shows the full five-phase
    // iteration structure and idle time is visible as near-zero spans.

    // DiagUpdate at the owner
    {
        let _p = span("DiagUpdate");
        if a.owns_row(k) && a.owns_col(k) {
            let mut d = a.diag_block_mut(k);
            match diag_method {
                DiagMethod::FwClosure => fw_closure::<S>(&mut d),
                DiagMethod::Squaring => fw_closure_squaring::<S>(&mut d, 1),
            }
        }
    }

    // DiagBcast along the k-th process row and column (tree: small, latency-
    // critical — the paper keeps the library broadcast here even in +Async)
    let mut diag_row: Option<Matrix<S::Elem>> = None;
    let mut diag_col: Option<Matrix<S::Elem>> = None;
    {
        let _p = span("DiagBcast");
        if a.owns_row(k) {
            let mine = a.owns_col(k).then(|| a.diag_block(k).to_vec());
            diag_row = Some(bcast_matrix::<S>(&grid.row, kc, mine, bk, bk, PanelBcastAlgo::Tree)?);
        }
        if a.owns_col(k) {
            let mine = a.owns_row(k).then(|| a.diag_block(k).to_vec());
            diag_col = Some(bcast_matrix::<S>(&grid.col, kr, mine, bk, bk, PanelBcastAlgo::Tree)?);
        }
    }

    // PanelUpdate on the owning strips (includes the diagonal block itself,
    // where D ⊕ D⊗D = D is a no-op)
    {
        let _p = span("PanelUpdate");
        if let Some(d) = &diag_row {
            let mut strip = a.row_strip_mut(k);
            panel_update_left::<S>(&mut strip, &d.view());
        }
        if let Some(d) = &diag_col {
            let mut strip = a.col_strip_mut(k);
            panel_update_right::<S>(&mut strip, &d.view());
        }
    }

    // PanelBcast: row panel down each process column, column panel across
    // each process row
    let _p = span("PanelBcast");
    let lcols = a.local.cols();
    let lrows = a.local.rows();
    let row_panel = bcast_matrix::<S>(
        &grid.col,
        kr,
        a.owns_row(k).then(|| a.row_strip(k).to_vec()),
        bk,
        lcols,
        how,
    )?;
    let col_panel = bcast_matrix::<S>(
        &grid.row,
        kc,
        a.owns_col(k).then(|| a.col_strip(k).to_vec()),
        lrows,
        bk,
        how,
    )?;
    Ok(Panels { col_panel, row_panel })
}

/// Run distributed APSP on an existing communicator (one call per rank,
/// SPMD). `global` must be identical on every rank; each rank slices its
/// own share. The result is gathered to grid rank 0 (`Ok(Some)` there,
/// `Ok(None)` elsewhere).
pub fn distributed_apsp_on<S: Semiring>(
    comm: Comm,
    pr: usize,
    pc: usize,
    cfg: &FwConfig,
    global: &Matrix<S::Elem>,
) -> Result<Option<Matrix<S::Elem>>, DistError> {
    let grid = ProcessGrid::new(comm, pr, pc)?;
    let (my_r, my_c) = grid.coords();
    let mut a = DistMatrix::from_global(global, cfg.block, pr, pc, my_r, my_c);
    driver::run::<S>(&grid, &mut a, cfg)?;
    Ok(a.gather(&grid)?)
}

/// Fold the per-rank results of a successful SPMD run into the root's
/// matrix; a run in which no rank gathered anything (possible only for
/// degenerate inputs) yields the empty matrix instead of aborting.
fn collect_root<S: Semiring>(results: Vec<Option<Matrix<S::Elem>>>) -> Matrix<S::Elem> {
    results
        .into_iter()
        .flatten()
        .next()
        .unwrap_or_else(|| Matrix::from_vec(0, 0, Vec::new()))
}

/// Build the runtime for a convenience driver from placement + run options.
fn build_runtime(p: usize, placement: Option<Placement>, opts: &DistRunOpts) -> Runtime {
    let mut rt = Runtime::new(p);
    if let Some(pl) = placement {
        rt = rt.with_placement(pl);
    }
    if let Some(t) = opts.recv_timeout {
        rt = rt.with_recv_timeout(t);
    }
    if !opts.faults.is_empty() {
        rt = rt.with_faults(opts.faults.clone());
    }
    if let Some(w) = opts.workers {
        rt = rt.with_workers(w);
    }
    if let Some(bytes) = opts.stack_bytes {
        rt = rt.with_stack_size(bytes);
    }
    rt
}

/// Convenience driver: spin up `pr·pc` ranks, run
/// [`distributed_apsp_on`], and return the gathered matrix plus the traffic
/// report (for the §5.1.3 effective-bandwidth metric).
///
/// Any rank failure — deadlock timeout, injected fault, device OOM, or a
/// caught panic — comes back as a typed [`DistError`] (first failure wins);
/// nothing in this path panics the caller.
pub fn distributed_apsp<S: Semiring>(
    pr: usize,
    pc: usize,
    cfg: &FwConfig,
    global: &Matrix<S::Elem>,
    placement: Option<Placement>,
) -> Result<(Matrix<S::Elem>, TrafficReport), DistError> {
    distributed_apsp_opts::<S>(pr, pc, cfg, global, placement, &DistRunOpts::default())
}

/// [`distributed_apsp`] with explicit [`DistRunOpts`] (receive timeout,
/// fault injection).
pub fn distributed_apsp_opts<S: Semiring>(
    pr: usize,
    pc: usize,
    cfg: &FwConfig,
    global: &Matrix<S::Elem>,
    placement: Option<Placement>,
    opts: &DistRunOpts,
) -> Result<(Matrix<S::Elem>, TrafficReport), DistError> {
    let rt = build_runtime(pr * pc, placement, opts);
    let cfg = *cfg;
    let (out, traffic) =
        rt.try_run_traced(move |comm| distributed_apsp_on::<S>(comm, pr, pc, &cfg, global));
    match out {
        Ok(results) => Ok((collect_root::<S>(results), traffic)),
        Err(e) => Err(flatten_failure(e)),
    }
}

/// Like [`distributed_apsp`] but additionally returns the run's [`Trace`]:
/// the calling thread's track, then one per rank carrying the five paper
/// phase names once per iteration.
pub fn distributed_apsp_traced<S: Semiring>(
    pr: usize,
    pc: usize,
    cfg: &FwConfig,
    global: &Matrix<S::Elem>,
    placement: Option<Placement>,
) -> Result<(Matrix<S::Elem>, TrafficReport, Trace), DistError> {
    distributed_apsp_traced_opts::<S>(pr, pc, cfg, global, placement, &DistRunOpts::default())
}

/// [`distributed_apsp_traced`] with explicit [`DistRunOpts`]:
/// [`distributed_apsp_opts`] under a recorder of its own.
pub fn distributed_apsp_traced_opts<S: Semiring>(
    pr: usize,
    pc: usize,
    cfg: &FwConfig,
    global: &Matrix<S::Elem>,
    placement: Option<Placement>,
    opts: &DistRunOpts,
) -> Result<(Matrix<S::Elem>, TrafficReport, Trace), DistError> {
    let (out, trace) = apsp_trace::record("caller", || {
        distributed_apsp_opts::<S>(pr, pc, cfg, global, placement, opts)
    });
    let (d, traffic) = out?;
    Ok((d, traffic, trace))
}
