//! Summit-scale schedule generation: each ParallelFw variant, lowered to a
//! `cluster-sim` task DAG at *node* granularity.
//!
//! This is the timing side of the reproduction. The functional side
//! ([`crate::dist`]) proves the algorithms correct at test scale; this
//! module replays their exact communication/computation structure on the
//! calibrated Summit model ([`cluster_sim::MachineSpec::summit`]) at the
//! paper's problem sizes (up to 1.66M vertices, 256 nodes), which is what
//! regenerates Figs. 3–4 and 7–9.
//!
//! Granularity: one GPU-pool, NIC-egress, intra-fabric and host-memory
//! resource per *node*; ranks within a node are aggregated (their intranode
//! traffic rides the intra fabric, their compute the shared GPU pool). The
//! rank→node placement enters through the node-grid shape `K_r × K_c`,
//! exactly the quantity §3.4.1 shows the NIC volume depends on.

use cluster_sim::{chrome_trace, Cluster, EngineError, MachineSpec, Schedule, TaskId};
use gpu_sim::OffloadCosts;

use crate::dist::{Exec, PanelBcastAlgo, Schedule as FwSchedule, Variant};
use crate::model;

/// Priorities: look-ahead work preempts (among simultaneously-ready tasks)
/// the bulk outer product — §3.2's "prioritizing the OuterUpdate on the
/// k+1 panels".
const PRI_LOOKAHEAD: u32 = 0;
const PRI_PANEL: u32 = 1;
const PRI_OUTER: u32 = 10;

/// Ring chunk count of the Summit-scale schedules where none was given:
/// the ring's bandwidth optimality needs chunk_count ≫ ring length to
/// amortize the fill latency (the functional runs default to
/// [`crate::dist::DEFAULT_RING_CHUNKS`]).
pub const SUMMIT_RING_CHUNKS: usize = 16;

/// One simulated configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Vertices.
    pub n: usize,
    /// Block size `b` (the paper tunes 768).
    pub block: usize,
    /// Iteration-schedule axis (Algorithm 3 vs Algorithm 4).
    pub schedule: FwSchedule,
    /// PanelBcast algorithm axis (tree vs pipelined ring).
    pub bcast: PanelBcastAlgo,
    /// OuterUpdate execution axis (in-core vs host-resident offload).
    pub exec: Exec,
    /// Node-grid shape (`K_r`, `K_c`) — the placement's fingerprint.
    pub kr: usize,
    /// Node-grid shape.
    pub kc: usize,
    /// Element size (4 for the paper's f32).
    pub elem_bytes: usize,
    /// Streams available to the offload pipeline (GpuOffload exec only).
    pub oog_streams: usize,
}

impl ScheduleConfig {
    /// Paper-default tuning for a named preset: `b = 768`, rings of
    /// [`SUMMIT_RING_CHUNKS`] chunks, 3 offload streams.
    pub fn new(n: usize, variant: Variant, kr: usize, kc: usize) -> Self {
        let (schedule, mut bcast, exec) = variant.axes();
        if let PanelBcastAlgo::Ring { chunks } = &mut bcast {
            *chunks = SUMMIT_RING_CHUNKS;
        }
        Self::with_axes(n, schedule, bcast, exec, kr, kc)
    }

    /// Build directly from a policy triple (same tuning defaults as
    /// [`ScheduleConfig::new`]); a `Ring` keeps the chunk count it carries.
    pub fn with_axes(
        n: usize,
        schedule: FwSchedule,
        bcast: PanelBcastAlgo,
        exec: Exec,
        kr: usize,
        kc: usize,
    ) -> Self {
        ScheduleConfig {
            n,
            block: 768,
            schedule,
            bcast,
            exec,
            kr,
            kc,
            elem_bytes: 4,
            oog_streams: 3,
        }
    }

    /// Paper legend for this configuration's policy triple.
    pub fn legend(&self) -> String {
        Variant::legend_for(self.schedule, self.bcast, self.exec)
    }
}

/// Outcome of a simulated run.
#[derive(Clone, Copy, Debug)]
pub struct SimOutcome {
    /// End-to-end simulated seconds.
    pub seconds: f64,
    /// `2n³` semiring flops (the paper's normalization).
    pub flops: f64,
    /// Flop rate in Pflop/s.
    pub pflops: f64,
    /// §5.1.3 effective bandwidth, bytes/s per node.
    pub effective_bw: f64,
    /// Mean GPU-pool utilization across nodes.
    pub gpu_utilization: f64,
}

/// A whole-node failure stalling a simulated run: the discrete-event
/// counterpart of `mpi_sim`'s structured deadlock report. Produced by
/// [`simulate_node_fault`] when the dead node's tasks gate the rest of the
/// schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStall {
    /// Node whose GPU pool, NIC, intra fabric and host engine all died.
    pub node: usize,
    /// Simulated second at which the node died.
    pub died_at: f64,
    /// Tasks that finished before progress stopped.
    pub completed: usize,
    /// Total tasks in the DAG.
    pub total: usize,
    /// Simulated second of the last task completion — progress stops here.
    pub stalled_at: f64,
    /// When the survivors *notice*: `stalled_at + recv_timeout`. Blocked
    /// peers time out instead of waiting forever, mirroring
    /// `Comm::recv_raw`'s receive timeout in the functional runtime.
    pub detected_at: f64,
}

impl std::fmt::Display for SimStall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "node {} died at {:.3} s: schedule stalled at {:.3} s with {}/{} tasks complete; \
             surviving nodes detect the failure at {:.3} s (recv timeout)",
            self.node, self.died_at, self.stalled_at, self.completed, self.total, self.detected_at
        )
    }
}

/// What a fault-injected simulation produced: either the run survived the
/// fault (it fired after every task the dead node gated had finished) or the
/// schedule stalled.
#[derive(Clone, Debug)]
pub enum FaultedOutcome {
    /// The fault never bit; normal outcome.
    Completed(SimOutcome),
    /// The dead node wedged the schedule.
    Stalled(SimStall),
}

/// Why a configuration cannot run (the paper's "Beyond GPU Memory" wall).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Infeasible {
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for Infeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.reason)
    }
}

/// A "typical" contiguous-rank node grid: the factor pair with aspect ratio
/// closest to the skew a `1×Q` intranode layout produces on a near-square
/// process grid (≈8:1 on Summit's 12-rank nodes). Used for the Baseline and
/// Pipelined legends, which run without rank reordering.
pub fn default_node_grid(nodes: usize) -> (usize, usize) {
    let mut best = (nodes, 1);
    let mut best_err = f64::INFINITY;
    let mut r = 1;
    while r <= nodes {
        if nodes.is_multiple_of(r) {
            let c = nodes / r;
            if r >= c {
                let err = ((r as f64 / c as f64).ln() - 8.0f64.ln()).abs();
                if err < best_err {
                    best_err = err;
                    best = (r, c);
                }
            }
        }
        r += 1;
    }
    best
}

/// Simulate one configuration on `spec`. Fails with [`Infeasible`] when the
/// in-GPU-memory variants exceed device capacity (or offload exceeds host
/// memory).
pub fn simulate(spec: &MachineSpec, cfg: &ScheduleConfig) -> Result<SimOutcome, Infeasible> {
    check_memory(spec, cfg)?;
    Ok(simulate_unchecked(spec, cfg))
}

/// [`simulate`] without the memory-feasibility gate. For communication
/// experiments (the Fig. 3 placement sweep) where the paper exercises
/// configurations whose capacity accounting is orthogonal to the question
/// being asked.
pub fn simulate_unchecked(spec: &MachineSpec, cfg: &ScheduleConfig) -> SimOutcome {
    run_sim(spec, cfg).0
}

/// [`simulate`], additionally exporting the finished schedule as Chrome
/// trace_events JSON (the writer recorded solves use,
/// `apsp_trace::Trace::to_chrome_json`): one timeline per node resource
/// (`gpu{i}`, `nic{i}`, …), each task named by its phase (DiagUpdate …
/// OuterUpdate, Sync barriers).
pub fn simulate_with_trace(spec: &MachineSpec, cfg: &ScheduleConfig) -> Result<(SimOutcome, String), Infeasible> {
    check_memory(spec, cfg)?;
    let (outcome, cl, sched) = run_sim(spec, cfg);
    let json = chrome_trace(&cl.dag, &sched, &cl.resource_names());
    Ok((outcome, json))
}

/// [`simulate`] under a whole-node failure: every resource of `node` stops
/// starting tasks at simulated second `died_at`. If tasks the dead node
/// gates remain, the run comes back as a typed [`SimStall`] whose
/// `detected_at` adds `recv_timeout` seconds — the point at which blocked
/// survivors would time out and report, rather than hang.
pub fn simulate_node_fault(
    spec: &MachineSpec,
    cfg: &ScheduleConfig,
    node: usize,
    died_at: f64,
    recv_timeout: f64,
) -> Result<FaultedOutcome, Infeasible> {
    check_memory(spec, cfg)?;
    if node >= spec.nodes {
        return Err(Infeasible {
            reason: format!("fault names node {node}, but the machine has only {} nodes", spec.nodes),
        });
    }
    let nodes = cfg.kr * cfg.kc;
    assert_eq!(nodes, spec.nodes, "node grid must cover the machine");

    let mut cl = Cluster::new(*spec);
    build_dag(&mut cl, cfg);
    match cl.try_run_with_faults(&cl.node_fault(node, died_at)) {
        Ok(sched) => Ok(FaultedOutcome::Completed(summarize(cfg, &cl, &sched))),
        Err(EngineError::Stalled { completed, total, stalled_at, .. }) => {
            Ok(FaultedOutcome::Stalled(SimStall {
                node,
                died_at,
                completed,
                total,
                stalled_at,
                detected_at: stalled_at + recv_timeout,
            }))
        }
    }
}

/// Build the DAG for `cfg`, run it, and summarize — keeping the cluster and
/// schedule alive for trace export.
fn run_sim(spec: &MachineSpec, cfg: &ScheduleConfig) -> (SimOutcome, Cluster, Schedule) {
    let nodes = cfg.kr * cfg.kc;
    assert_eq!(nodes, spec.nodes, "node grid must cover the machine");

    let mut cl = Cluster::new(*spec);
    build_dag(&mut cl, cfg);
    let sched = cl.run();
    let outcome = summarize(cfg, &cl, &sched);
    (outcome, cl, sched)
}

/// Summarize a finished schedule into the paper's reporting quantities.
fn summarize(cfg: &ScheduleConfig, cl: &Cluster, sched: &Schedule) -> SimOutcome {
    let nodes = cfg.kr * cfg.kc;
    let flops = model::fw_flops(cfg.n);
    let seconds = sched.makespan;
    let gpu_util = (0..nodes)
        .map(|nd| sched.busy[cl.gpu_resource(nd).index()] / seconds.max(1e-30))
        .sum::<f64>()
        / nodes as f64;
    SimOutcome {
        seconds,
        flops,
        pflops: flops / seconds / 1e15,
        effective_bw: model::effective_bandwidth(cfg.n, nodes, cfg.elem_bytes, seconds),
        gpu_utilization: gpu_util,
    }
}

/// Simulate the 1-D row-partitioned Floyd-Warshall of Jenq & Sahni (the
/// pre-blocked distributed formulation of the paper's §6) on `spec`: rows
/// dealt cyclically over the nodes, `n` scalar iterations,
/// each a pivot-row tree broadcast over all nodes followed by a rank-1
/// relaxation. The relaxation has O(1) arithmetic intensity, so it runs at
/// memory bandwidth, not at the GEMM rate — the §6 observation that
/// outer-product (BLAS-2) formulations "will not be as efficient as
/// BlockedFw on GPUs".
pub fn simulate_oned(spec: &MachineSpec, n: usize, elem_bytes: usize) -> SimOutcome {
    let nodes = spec.nodes;
    let mut cl = Cluster::new(*spec);
    let members: Vec<usize> = (0..nodes).collect();
    let eb = elem_bytes as f64;
    let mut barrier: Vec<TaskId> = Vec::new();
    // model a constant per-node row share n/nodes
    let rows_per_node = n as f64 / nodes as f64;
    for k in 0..n {
        let owner = k % nodes;
        cl.set_phase("PanelBcast");
        let arr = tree_bcast(&mut cl, &members, owner, n as f64 * eb, PRI_PANEL, &barrier);
        cl.set_phase("OuterUpdate");
        let mut updates = Vec::with_capacity(nodes);
        for (nd, &arrived) in arr.iter().enumerate() {
            // rank-1 relaxation: 3 touches per element at DRAM bandwidth;
            // expressed as a host-memory task
            let bytes = 3.0 * rows_per_node * n as f64 * eb;
            updates.push(cl.host_task(nd, bytes, PRI_OUTER, &[arrived]));
        }
        cl.set_phase("Sync");
        let b = cl.send_task(0, 0, 0.0, PRI_PANEL, &updates);
        barrier = vec![b];
    }
    let sched = cl.run();
    let flops = model::fw_flops(n);
    SimOutcome {
        seconds: sched.makespan,
        flops,
        pflops: flops / sched.makespan / 1e15,
        effective_bw: model::effective_bandwidth(n, nodes, elem_bytes, sched.makespan),
        gpu_utilization: 0.0, // the 1-D formulation cannot use the GPUs
    }
}

/// Memory feasibility (paper Fig. 7's wall).
fn check_memory(spec: &MachineSpec, cfg: &ScheduleConfig) -> Result<(), Infeasible> {
    let n2 = cfg.n as f64 * cfg.n as f64;
    match cfg.exec {
        Exec::GpuOffload => {
            // host-resident: local share must fit in node DRAM
            let per_node = n2 * cfg.elem_bytes as f64 / spec.nodes as f64;
            let usable = 0.9 * spec.host_mem_bytes as f64;
            if per_node > usable {
                return Err(Infeasible {
                    reason: format!(
                        "offload: {:.0} GB/node exceeds host memory ({:.0} GB usable)",
                        per_node / 1e9,
                        usable / 1e9
                    ),
                });
            }
        }
        Exec::InCoreGemm => {
            let max_n = model::max_vertices_in_gpu_memory(spec, cfg.elem_bytes);
            if cfg.n > max_n {
                return Err(Infeasible {
                    reason: format!(
                        "beyond GPU memory: n={} exceeds the in-device limit of {} on {} nodes",
                        cfg.n, max_n, spec.nodes
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Node id of grid coordinate `(r, c)`.
fn node_at(cfg: &ScheduleConfig, r: usize, c: usize) -> usize {
    r * cfg.kc + c
}

/// Binomial-tree broadcast among `members` (node ids), rooted at index
/// `root_idx`. Returns the per-member arrival task. The root's "arrival" is
/// a zero-length marker depending on `dep`.
fn tree_bcast(cl: &mut Cluster, members: &[usize], root_idx: usize, bytes: f64, pri: u32, dep: &[TaskId]) -> Vec<TaskId> {
    let k = members.len();
    let mut arrival: Vec<Option<TaskId>> = vec![None; k];
    let marker = cl.send_task(members[root_idx], members[root_idx], 0.0, pri, dep);
    arrival[root_idx] = Some(marker);
    let rel = |i: usize| members[(root_idx + i) % k];
    let mut rel_arrival: Vec<Option<TaskId>> = vec![None; k];
    rel_arrival[0] = Some(marker);
    let mut mask = 1;
    while mask < k {
        for r in 0..mask {
            let dst = r + mask;
            if dst < k {
                let src_task = rel_arrival[r].expect("binomial parent arrived");
                let t = cl.send_task(rel(r), rel(dst), bytes, pri, &[src_task]);
                rel_arrival[dst] = Some(t);
            }
        }
        mask <<= 1;
    }
    for i in 0..k {
        arrival[(root_idx + i) % k] = rel_arrival[i];
    }
    arrival.into_iter().map(|a| a.expect("all members reached")).collect()
}

/// Pipelined ring broadcast among `members`, rooted at `root_idx`, split
/// into `chunks`. Returns the per-member arrival of the **last** chunk.
fn ring_bcast(cl: &mut Cluster, members: &[usize], root_idx: usize, bytes: f64, chunks: usize, pri: u32, dep: &[TaskId]) -> Vec<TaskId> {
    let k = members.len();
    let chunks = chunks.max(1);
    let chunk_bytes = bytes / chunks as f64;
    let marker = cl.send_task(members[root_idx], members[root_idx], 0.0, pri, dep);
    let mut arrival = vec![marker; k];
    if k == 1 {
        return arrival;
    }
    let rel = |i: usize| members[(root_idx + i) % k];
    // hop[i] carries the arrival of the current chunk at relative node i
    let mut last_chunk_arrival: Vec<TaskId> = vec![marker; k];
    for _c in 0..chunks {
        let mut prev = marker;
        for (i, slot) in last_chunk_arrival.iter_mut().enumerate().skip(1) {
            // chunk c leaves rel(i-1) once it has arrived there; the NIC
            // resource serializes chunks naturally
            let dep_task = if i == 1 { marker } else { prev };
            let t = cl.send_task(rel(i - 1), rel(i), chunk_bytes, pri, &[dep_task]);
            prev = t;
            *slot = t;
        }
    }
    for i in 0..k {
        arrival[(root_idx + i) % k] = last_chunk_arrival[i];
    }
    arrival
}

/// Panel broadcast arrivals for iteration `k`: the row panel travels down
/// every node column, the column panel across every node row. Returns
/// per-node `(row_arrival, col_arrival)` pairs, flattened by node id.
fn panel_bcasts(
    cl: &mut Cluster,
    cfg: &ScheduleConfig,
    k: usize,
    row_panel_ready: &[TaskId],
    col_panel_ready: &[TaskId],
) -> (Vec<TaskId>, Vec<TaskId>) {
    cl.set_phase("PanelBcast");
    let nodes = cfg.kr * cfg.kc;
    let eb = cfg.elem_bytes as f64;
    let krow = k % cfg.kr;
    let kcol = k % cfg.kc;
    // per-node panel shares
    let row_share = cfg.block as f64 * (cfg.n as f64 / cfg.kc as f64) * eb;
    let col_share = cfg.block as f64 * (cfg.n as f64 / cfg.kr as f64) * eb;
    let ring_chunks = match cfg.bcast {
        PanelBcastAlgo::Ring { chunks } => Some(chunks),
        PanelBcastAlgo::Tree => None,
    };

    let mut row_arrival = vec![None; nodes];
    for c in 0..cfg.kc {
        let members: Vec<usize> = (0..cfg.kr).map(|r| node_at(cfg, r, c)).collect();
        let dep = [row_panel_ready[c]];
        let arr = if let Some(chunks) = ring_chunks {
            ring_bcast(cl, &members, krow, row_share, chunks, PRI_PANEL, &dep)
        } else {
            tree_bcast(cl, &members, krow, row_share, PRI_PANEL, &dep)
        };
        for (r, t) in arr.into_iter().enumerate() {
            row_arrival[node_at(cfg, r, c)] = Some(t);
        }
    }
    let mut col_arrival = vec![None; nodes];
    for r in 0..cfg.kr {
        let members: Vec<usize> = (0..cfg.kc).map(|c| node_at(cfg, r, c)).collect();
        let dep = [col_panel_ready[r]];
        let arr = if let Some(chunks) = ring_chunks {
            ring_bcast(cl, &members, kcol, col_share, chunks, PRI_PANEL, &dep)
        } else {
            tree_bcast(cl, &members, kcol, col_share, PRI_PANEL, &dep)
        };
        for (c, t) in arr.into_iter().enumerate() {
            col_arrival[node_at(cfg, r, c)] = Some(t);
        }
    }
    (
        row_arrival.into_iter().map(|t| t.expect("row panel delivered")).collect(),
        col_arrival.into_iter().map(|t| t.expect("col panel delivered")).collect(),
    )
}

/// Diag update + diag broadcast + panel updates for iteration `k`.
/// Returns (`row_panel_ready` per node column root, `col_panel_ready` per
/// node row root).
#[allow(clippy::too_many_arguments)]
fn diag_and_panel_phase(
    cl: &mut Cluster,
    cfg: &ScheduleConfig,
    k: usize,
    diag_dep: &[TaskId],
    row_deps: &[Vec<TaskId>],
    col_deps: &[Vec<TaskId>],
    pri: u32,
) -> (Vec<TaskId>, Vec<TaskId>) {
    let eb = cfg.elem_bytes as f64;
    let b = cfg.block as f64;
    let krow = k % cfg.kr;
    let kcol = k % cfg.kc;
    let diag_node = node_at(cfg, krow, kcol);

    // DiagUpdate (§4.2: on the GPU either way; squaring costs log₂b GEMMs)
    cl.set_phase("DiagUpdate");
    let diag_flops = model::closure_squaring_flops(cfg.block);
    let t_diag = cl.gpu_task(diag_node, diag_flops, pri, diag_dep);

    // DiagBcast: tree along the k-th node row and node column
    cl.set_phase("DiagBcast");
    let row_members: Vec<usize> = (0..cfg.kc).map(|c| node_at(cfg, krow, c)).collect();
    let col_members: Vec<usize> = (0..cfg.kr).map(|r| node_at(cfg, r, kcol)).collect();
    let diag_bytes = b * b * eb;
    let diag_to_row = tree_bcast(cl, &row_members, kcol, diag_bytes, pri, &[t_diag]);
    let diag_to_col = tree_bcast(cl, &col_members, krow, diag_bytes, pri, &[t_diag]);

    // PanelUpdate on the owning node row/column
    cl.set_phase("PanelUpdate");
    let row_panel_flops = 2.0 * b * b * (cfg.n as f64 / cfg.kc as f64);
    let col_panel_flops = 2.0 * b * b * (cfg.n as f64 / cfg.kr as f64);
    let mut row_ready = Vec::with_capacity(cfg.kc);
    for c in 0..cfg.kc {
        let node = node_at(cfg, krow, c);
        let mut deps = vec![diag_to_row[c]];
        deps.extend_from_slice(&row_deps[c]);
        row_ready.push(cl.gpu_task(node, row_panel_flops, pri, &deps));
    }
    let mut col_ready = Vec::with_capacity(cfg.kr);
    for r in 0..cfg.kr {
        let node = node_at(cfg, r, kcol);
        let mut deps = vec![diag_to_col[r]];
        deps.extend_from_slice(&col_deps[r]);
        col_ready.push(cl.gpu_task(node, col_panel_flops, pri, &deps));
    }
    (row_ready, col_ready)
}

/// Per-node OuterUpdate duration in flops-equivalent: in-core variants run
/// at the GPU pool rate; the offload variant takes §4.5's
/// [`OffloadCosts::predicted_time`] of its streams (0 counts as 1).
fn outer_task(cl: &mut Cluster, cfg: &ScheduleConfig, node: usize, deps: &[TaskId]) -> TaskId {
    cl.set_phase("OuterUpdate");
    let m_loc = cfg.n as f64 / cfg.kr as f64;
    let n_loc = cfg.n as f64 / cfg.kc as f64;
    let b = cfg.block as f64;
    let flops = 2.0 * m_loc * n_loc * b;
    match cfg.exec {
        Exec::GpuOffload => {
            // §4.5 pipeline bound at node granularity
            let spec = cl.spec;
            let eb = cfg.elem_bytes as f64;
            let gpu_rate = spec.gpu_flops * spec.gpus_per_node as f64;
            let hd_rate = spec.hd_bw * spec.gpus_per_node as f64;
            let costs = OffloadCosts {
                t0: flops / gpu_rate,
                t1: (m_loc * n_loc + (m_loc + n_loc) * b) * eb / hd_rate,
                t2: 3.0 * m_loc * n_loc * eb / spec.host_mem_bw,
                t3: 0.0,
            };
            let dur = costs.predicted_time(cfg.oog_streams.max(1));
            // charge the equivalent flops so utilization stays meaningful
            cl.gpu_task(node, dur * gpu_rate, PRI_OUTER, deps)
        }
        Exec::InCoreGemm => cl.gpu_task(node, flops, PRI_OUTER, deps),
    }
}

/// Build the full DAG for `cfg` into `cl`.
fn build_dag(cl: &mut Cluster, cfg: &ScheduleConfig) {
    let nodes = cfg.kr * cfg.kc;
    let nb = cfg.n.div_ceil(cfg.block);
    let bulk_sync = cfg.schedule == FwSchedule::BulkSync;

    if bulk_sync {
        // ---- Algorithm 3 shape: strict phases with an iteration barrier ----
        let mut barrier: Vec<TaskId> = Vec::new();
        for k in 0..nb {
            let diag_dep: Vec<TaskId> = barrier.clone();
            let row_deps: Vec<Vec<TaskId>> = (0..cfg.kc).map(|_| barrier.clone()).collect();
            let col_deps: Vec<Vec<TaskId>> = (0..cfg.kr).map(|_| barrier.clone()).collect();
            let (row_ready, col_ready) =
                diag_and_panel_phase(cl, cfg, k, &diag_dep, &row_deps, &col_deps, PRI_PANEL);
            let (row_arr, col_arr) = panel_bcasts(cl, cfg, k, &row_ready, &col_ready);
            let mut outers = Vec::with_capacity(nodes);
            for nd in 0..nodes {
                let deps = [row_arr[nd], col_arr[nd]];
                outers.push(outer_task(cl, cfg, nd, &deps));
            }
            // synthetic barrier: a zero-duration intra task on node 0
            cl.set_phase("Sync");
            let b = cl.send_task(0, 0, 0.0, PRI_PANEL, &outers);
            barrier = vec![b];
        }
    } else {
        // ---- Algorithm 4 shape: look-ahead pipeline, no global barrier ----
        // per-node "last outer update" (carried between iterations)
        let mut last_outer: Vec<Vec<TaskId>> = vec![Vec::new(); nodes];
        let no_deps: Vec<Vec<TaskId>> = vec![Vec::new(); cfg.kr.max(cfg.kc)];
        // prologue: k = 0 panels
        let (row_ready, col_ready) =
            diag_and_panel_phase(cl, cfg, 0, &[], &no_deps[..cfg.kc], &no_deps[..cfg.kr], PRI_PANEL);
        let (mut row_arr, mut col_arr) = panel_bcasts(cl, cfg, 0, &row_ready, &col_ready);

        for k in 0..nb {
            let mut next_arr = None;
            if k + 1 < nb {
                // look-ahead: relax the (k+1) strips with the k panels,
                // then run the (k+1) diag/panel phase
                let b = cfg.block as f64;
                let nrow = (k + 1) % cfg.kr;
                let ncol = (k + 1) % cfg.kc;
                let la_row_flops = 2.0 * b * b * (cfg.n as f64 / cfg.kc as f64);
                let la_col_flops = 2.0 * b * b * (cfg.n as f64 / cfg.kr as f64);
                cl.set_phase("OuterUpdate"); // look-ahead = OuterUpdate(k) on the k+1 strips
                let mut la_row: Vec<Vec<TaskId>> = Vec::with_capacity(cfg.kc);
                for c in 0..cfg.kc {
                    let node = node_at(cfg, nrow, c);
                    let t = cl.gpu_task(node, la_row_flops, PRI_LOOKAHEAD, &[row_arr[node], col_arr[node]]);
                    la_row.push(vec![t]);
                }
                let mut la_col: Vec<Vec<TaskId>> = Vec::with_capacity(cfg.kr);
                for r in 0..cfg.kr {
                    let node = node_at(cfg, r, ncol);
                    let t = cl.gpu_task(node, la_col_flops, PRI_LOOKAHEAD, &[row_arr[node], col_arr[node]]);
                    la_col.push(vec![t]);
                }
                let diag_node = node_at(cfg, nrow, ncol);
                let diag_dep = vec![row_arr[diag_node], col_arr[diag_node]];
                let (rr, cr) =
                    diag_and_panel_phase(cl, cfg, k + 1, &diag_dep, &la_row, &la_col, PRI_LOOKAHEAD);
                next_arr = Some(panel_bcasts(cl, cfg, k + 1, &rr, &cr));
            }
            // bulk OuterUpdate(k) per node — overlaps the (k+1) broadcasts
            for nd in 0..nodes {
                let mut deps = vec![row_arr[nd], col_arr[nd]];
                deps.extend_from_slice(&last_outer[nd]);
                let t = outer_task(cl, cfg, nd, &deps);
                last_outer[nd] = vec![t];
            }
            if let Some((ra, ca)) = next_arr {
                row_arr = ra;
                col_arr = ca;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_export_carries_all_phase_names() {
        let spec = MachineSpec::summit(4);
        for variant in Variant::all() {
            let cfg = ScheduleConfig::new(40_000, variant, 2, 2);
            let (outcome, json) = simulate_with_trace(&spec, &cfg).expect("feasible");
            assert!(outcome.seconds > 0.0);
            assert_eq!(json.matches('{').count(), json.matches('}').count());
            for phase in ["DiagUpdate", "DiagBcast", "PanelUpdate", "PanelBcast", "OuterUpdate"] {
                assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{variant:?} missing {phase}");
            }
            assert!(json.contains("\"gpu0\"") && json.contains("\"nic3\""), "resource names");
        }
    }

    #[test]
    fn come_hides_panel_bcast_behind_outer_update() {
        // Beyond the in-GPU-memory wall, only the offload execs are
        // feasible; composing look-ahead + ring onto offload (Co+Me) must
        // strictly beat bulk-synchronous offload because PanelBcast(k+1)
        // now overlaps OuterUpdate(k) instead of extending the critical
        // path.
        let spec = MachineSpec::summit(4);
        let n = 400_000;
        assert!(n > model::max_vertices_in_gpu_memory(&spec, 4), "test must sit beyond the memory wall");
        let ofl = simulate(&spec, &ScheduleConfig::new(n, Variant::Offload, 2, 2)).expect("offload feasible");
        let come = simulate(&spec, &ScheduleConfig::new(n, Variant::CoMe, 2, 2)).expect("Co+Me feasible");
        assert!(
            come.seconds < ofl.seconds,
            "Co+Me ({:.2}s) should beat bulk-sync offload ({:.2}s)",
            come.seconds,
            ofl.seconds
        );
        // and the in-core schedules must remain infeasible here
        assert!(simulate(&spec, &ScheduleConfig::new(n, Variant::Pipelined, 2, 2)).is_err());
    }

    #[test]
    fn node_fault_stalls_the_simulation_with_a_typed_report() {
        let spec = MachineSpec::summit(4);
        let cfg = ScheduleConfig::new(40_000, Variant::Pipelined, 2, 2);
        let clean = simulate(&spec, &cfg).expect("feasible");

        // node 1 dying at t=0 wedges the schedule: the typed report carries
        // progress, the stall time, and the detection time
        let out = simulate_node_fault(&spec, &cfg, 1, 0.0, 30.0).expect("feasible");
        let FaultedOutcome::Stalled(stall) = out else { panic!("expected a stall, got {out:?}") };
        assert_eq!(stall.node, 1);
        assert!(stall.completed < stall.total, "{}/{}", stall.completed, stall.total);
        assert!(stall.stalled_at < clean.seconds);
        assert!((stall.detected_at - (stall.stalled_at + 30.0)).abs() < 1e-12);
        let report = stall.to_string();
        assert!(report.contains("node 1 died") && report.contains("recv timeout"), "{report}");

        // a fault after the makespan never bites: identical outcome
        let out = simulate_node_fault(&spec, &cfg, 1, clean.seconds + 1.0, 30.0).expect("feasible");
        let FaultedOutcome::Completed(done) = out else { panic!("late fault must not stall") };
        assert_eq!(done.seconds, clean.seconds);

        // naming a node the machine does not have is an input error
        assert!(simulate_node_fault(&spec, &cfg, 99, 0.0, 30.0).is_err());
    }

    #[test]
    fn trace_outcome_matches_untraced_simulation() {
        let spec = MachineSpec::summit(4);
        let cfg = ScheduleConfig::new(40_000, Variant::Pipelined, 2, 2);
        let (traced, _) = simulate_with_trace(&spec, &cfg).expect("feasible");
        let plain = simulate(&spec, &cfg).expect("feasible");
        assert_eq!(traced.seconds, plain.seconds);
        assert_eq!(traced.pflops, plain.pflops);
    }
}
