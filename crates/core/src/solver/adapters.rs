//! [`Solver`] adapters: every APSP algorithm in the workspace wrapped
//! behind the common trait. Each adapter owns its eligibility rules, its
//! cost model (constants in [`super::planner`]), and the translation from the
//! algorithm's native error type into [`SolveError`].

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use apsp_graph::delta_stepping::apsp_by_delta_stepping;
use apsp_graph::johnson::{johnson_apsp_threads, JohnsonError};
use apsp_graph::Graph;
use srgemm::{Matrix, MinPlusF32};

use crate::dist::distributed_apsp_opts;
use crate::fw_blocked::fw_blocked_threads;
use crate::fw_seq::fw_seq;
use crate::model::fw_flops;
use crate::ooc::{
    choose_tile, solve_in_store, staged_budget_floor, FileStore, OocConfig, OocError, TileStore,
};
use crate::quant::{self, QuantDtype, QuantPlan};

use super::planner::{
    delta_sweep_seconds, sssp_sweep_seconds, T_DISK, T_FLOP_PACKED, T_FLOP_SEQ,
    T_QUANT_U16, T_RELAX, T_SIM_RANK,
};
use super::{
    Estimate, GraphProfile, Ineligible, Solution, SolveError, SolveOpts, Solver, SolverStats,
};

/// All adapters, in presentation order (the order `apsp plan` lists
/// ineligible rows and `--help` lists names).
pub fn all() -> Vec<Box<dyn Solver>> {
    vec![
        Box::new(Blocked),
        Box::new(Quant),
        Box::new(FwSeq),
        Box::new(Ooc),
        Box::new(Johnson),
        Box::new(DeltaStepping),
        Box::new(Dist),
    ]
}

fn solution(dist: Matrix<f32>, solver: &'static str, threads: usize) -> Solution {
    Solution { dist, solver, stats: SolverStats { threads, ..Default::default() } }
}

/// [`Graph::to_dense`] under a `to_dense` span: the `n × n` matrix a dense
/// solver starts from.
fn to_dense(g: &Graph) -> Matrix<f32> {
    let _s = apsp_trace::span("to_dense");
    g.to_dense()
}

/// Packed register-tiled blocked Floyd-Warshall (the paper's single-node
/// engine), parallel over block rows.
struct Blocked;

impl Solver for Blocked {
    fn name(&self) -> &'static str {
        "blocked"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["dense", "packed", "sparse", "block-sparse"]
    }
    fn description(&self) -> &'static str {
        "packed register-tiled blocked FW (all-∞ blocks skipped; multicore engine)"
    }
    /// The matrix and the one repacked row panel, `b·(n − b)` elements
    /// (block row k outside the diagonal block).
    fn working_set_bytes(&self, profile: &GraphProfile, opts: &SolveOpts) -> u64 {
        let b = opts.block.max(1);
        profile.dense_bytes + (b * profile.n.saturating_sub(b) * 4) as u64
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        let t = opts.effective_threads();
        Estimate {
            seconds: fw_flops(profile.n) * T_FLOP_PACKED / t as f64,
            detail: "2n³ · t_packed / threads".into(),
        }
    }
    fn solve(
        &self,
        g: &Graph,
        _profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let threads = opts.effective_threads();
        let mut d = to_dense(g);
        fw_blocked_threads::<MinPlusF32>(&mut d, opts.block.max(1), threads);
        Ok(solution(d, self.name(), threads))
    }
}

/// Quantized integer blocked FW: weights scaled-and-rounded into `u16`
/// min-plus lanes that saturate at the half-range sentinel 32 767 (twice
/// the SIMD width of `f32` through the same packed kernel, and a plain add
/// in the inner loop), dequantized under a provable `±eps` bound.
/// Opt-in via [`SolveOpts::error_tolerance`] — never silently substituted
/// for the exact `f32` path.
struct Quant;

impl Quant {
    /// The quantization plan for this profile, or the typed reason there
    /// is none. Without an `error_tolerance` opt-in the answer is always
    /// [`Ineligible::NeedsTolerance`], carrying the bound a quantized
    /// solve *could* achieve here.
    fn quant_plan(profile: &GraphProfile, opts: &SolveOpts) -> Result<QuantPlan, Ineligible> {
        let attempt = |tol: f64| {
            quant::plan(
                profile.n,
                profile.min_weight,
                profile.max_weight,
                profile.integral_weights,
                tol,
            )
        };
        match opts.error_tolerance {
            Some(tol) => attempt(tol).map_err(Ineligible::Quant),
            None => match attempt(f64::INFINITY) {
                Ok(p) => Err(Ineligible::NeedsTolerance { eps: p.eps }),
                Err(e) => Err(Ineligible::Quant(e)),
            },
        }
    }
}

impl Solver for Quant {
    fn name(&self) -> &'static str {
        "quant"
    }
    fn description(&self) -> &'static str {
        "quantized integer blocked FW (u16 saturating lanes, ±eps bound)"
    }
    fn check(
        &self,
        profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<(), Ineligible> {
        Self::quant_plan(profile, opts).map(|_| ())
    }
    fn working_set_bytes(&self, profile: &GraphProfile, opts: &SolveOpts) -> u64 {
        let ebytes = QuantDtype::U16.bytes() as u64;
        let (n, b) = (profile.n as u64, opts.block.max(1) as u64);
        // quantized matrix + dequantized f32 result + the repacked row panel
        n * n * ebytes + profile.dense_bytes + b * n.saturating_sub(b) * ebytes
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        let t = opts.effective_threads();
        Estimate {
            seconds: fw_flops(profile.n) * T_QUANT_U16 / t as f64,
            detail: "2n³ · t_quant(u16) / threads".into(),
        }
    }
    fn solve(
        &self,
        g: &Graph,
        profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let ineligible = |reason| SolveError::Ineligible { solver: self.name(), reason };
        let plan = Self::quant_plan(profile, opts).map_err(ineligible)?;
        let threads = opts.effective_threads();
        let d = quant::solve_quantized(g, &plan, opts.block.max(1), threads)
            .map_err(|e| ineligible(Ineligible::Quant(e)))?;
        let mut sol = solution(d, self.name(), threads);
        sol.stats.notes.push(format!(
            "quant: {} lanes, scale {}, {}",
            plan.dtype.name(),
            plan.scale,
            if plan.exact {
                "bit-exact".to_string()
            } else {
                format!("|error| <= {:.3e}", plan.eps)
            }
        ));
        Ok(sol)
    }
}

/// Sequential triple-loop FW: the reference everything else is verified
/// against.
struct FwSeq;

impl Solver for FwSeq {
    fn name(&self) -> &'static str {
        "fw"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["seq"]
    }
    fn description(&self) -> &'static str {
        "sequential triple-loop FW (reference oracle)"
    }
    fn working_set_bytes(&self, profile: &GraphProfile, _opts: &SolveOpts) -> u64 {
        profile.dense_bytes
    }
    fn estimate(&self, profile: &GraphProfile, _opts: &SolveOpts) -> Estimate {
        Estimate {
            seconds: fw_flops(profile.n) * T_FLOP_SEQ,
            detail: "2n³ · t_seq, serial".into(),
        }
    }
    fn solve(
        &self,
        g: &Graph,
        _profile: &dyn Deref<Target = GraphProfile>,
        _opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let mut d = to_dense(g);
        fw_seq::<MinPlusF32>(&mut d);
        Ok(solution(d, self.name(), 1))
    }
}

/// Out-of-core blocked FW: the matrix lives in a file store of dense,
/// checksummed tiles, and the driver walks the blocked-FW schedule under
/// `--memory-budget` at the largest tile whose working set fits it. An
/// off-diagonal tile without an edge is absent — never stored, skipped as
/// an operand — until fill-in materializes it. The only dense solver that
/// stays eligible when the budget is below the dense matrix size, and
/// without a budget a typed refusal ([`Ineligible::NeedsBudget`]).
struct Ooc;

impl Ooc {
    /// A temp-dir path no other staged solve of this process has drawn:
    /// concurrent solves of equal `(n, tile)` must not collide on the name
    /// while each creates its store file.
    fn staging_path(n: usize, tile: usize) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir()
            .join(format!("apsp-ooc-{}-{seq}-{n}x{tile}.tiles", std::process::id()))
    }
}

impl Solver for Ooc {
    fn name(&self) -> &'static str {
        "ooc"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["out-of-core", "staged"]
    }
    fn description(&self) -> &'static str {
        "tiled FW staged to disk under a RAM budget (all-∞ tiles skipped)"
    }
    fn check(
        &self,
        _profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<(), Ineligible> {
        opts.memory_budget.map(|_| ()).ok_or(Ineligible::NeedsBudget)
    }
    fn working_set_bytes(&self, profile: &GraphProfile, opts: &SolveOpts) -> u64 {
        let tile = opts.memory_budget.and_then(|budget| choose_tile::<f32>(profile.n, budget));
        // nothing fits: report the smallest possible floor, which exceeds
        // the budget and turns into a typed MemoryBudget row
        staged_budget_floor::<f32>(tile.unwrap_or(8.min(profile.n.max(1))))
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        let t = opts.effective_threads();
        let compute = fw_flops(profile.n) * T_FLOP_PACKED * 1.15 / t as f64;
        let budget = opts.memory_budget.unwrap_or(u64::MAX);
        let tile = choose_tile::<f32>(profile.n, budget).unwrap_or(8);
        let passes = profile.n.div_ceil(tile.max(1)) as f64;
        // each block iteration re-reads and re-writes ~the matrix
        let disk = passes * 2.0 * profile.dense_bytes as f64 * T_DISK;
        Estimate {
            seconds: compute + disk,
            detail: format!("2n³·1.15·t_packed/threads + ⌈n/{tile}⌉·2n²·4B·t_disk staged"),
        }
    }
    /// Ingest `g` into a file store, run the tiled FW loop, export, and
    /// leave the note: `ooc: file store, tile …, P of N² tiles
    /// materialized, G of D outer tile GEMMs, peak resident … of budget …`.
    fn solve(
        &self,
        g: &Graph,
        _profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let (n, threads) = (g.n(), opts.effective_threads());
        let budget = opts.memory_budget.ok_or(SolveError::Ineligible {
            solver: self.name(),
            reason: Ineligible::NeedsBudget,
        })?;
        if n == 0 {
            return Ok(solution(Matrix::from_vec(0, 0, Vec::new()), self.name(), threads));
        }
        let tile = choose_tile::<f32>(n, budget).ok_or_else(|| {
            SolveError::Ooc(OocError::BudgetTooSmall {
                required: staged_budget_floor::<f32>(8.min(n)),
                budget,
            })
        })?;
        // exclusive create, unlinked at once: no exit path leaves a file
        let mut store = FileStore::<f32>::create(&Self::staging_path(n, tile), n, tile)
            .map_err(|e| SolveError::Ooc(e.into()))?;
        let cfg = OocConfig { budget_bytes: budget, threads };
        let (d, stats, blocks) = solve_in_store(g, &mut store, &cfg).map_err(SolveError::Ooc)?;
        let nb = store.tiles_per_side() as u64;
        let mut sol = solution(d, self.name(), threads);
        sol.stats.notes.push(format!(
            "ooc: file store, tile {} ({nb}×{nb} tiles), {} of {} tiles materialized, \
             {} of {} outer tile GEMMs, peak resident {} of budget {}",
            store.tile(),
            blocks.count(),
            nb * nb,
            stats.outer_gemms,
            nb * (nb - 1) * (nb - 1),
            super::profile::human_bytes(stats.peak_resident_bytes),
            super::profile::human_bytes(budget),
        ));
        Ok(sol)
    }
}

/// Johnson's algorithm: one Dijkstra per source, parallel over sources,
/// after Bellman-Ford potentials reweight the edges when some are negative
/// (not negative cycles). Without a negative edge it is the plain sweep.
struct Johnson;

impl Solver for Johnson {
    fn name(&self) -> &'static str {
        "johnson"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["dijkstra"]
    }
    fn description(&self) -> &'static str {
        "Johnson APSP (per-source Dijkstra sweep, BF reweight on negative edges)"
    }
    fn working_set_bytes(&self, profile: &GraphProfile, _opts: &SolveOpts) -> u64 {
        profile.dense_bytes + 12 * profile.m as u64
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        let sweep = sssp_sweep_seconds(profile, opts.effective_threads());
        let detail = "n sweeps (m·t_relax + n·log₂n·t_heap)/threads";
        if !profile.has_negative() {
            return Estimate { seconds: sweep, detail: detail.into() };
        }
        Estimate {
            seconds: profile.n as f64 * profile.m as f64 * T_RELAX + sweep,
            detail: format!("n·m·t_relax BF + {detail}"),
        }
    }
    fn solve(
        &self,
        g: &Graph,
        _profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let threads = opts.effective_threads();
        let d = johnson_apsp_threads(g, threads).map_err(|e| match e {
            JohnsonError::NegativeCycle => SolveError::NegativeCycle,
        })?;
        Ok(solution(d, self.name(), threads))
    }
}

/// One Δ-stepping sweep per source with Δ = mean edge weight.
struct DeltaStepping;

impl Solver for DeltaStepping {
    fn name(&self) -> &'static str {
        "delta"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["delta-stepping"]
    }
    fn description(&self) -> &'static str {
        "per-source Δ-stepping sweep (non-negative weights)"
    }
    fn check(
        &self,
        profile: &dyn Deref<Target = GraphProfile>,
        _opts: &SolveOpts,
    ) -> Result<(), Ineligible> {
        if profile.has_negative() {
            return Err(Ineligible::NegativeWeights {
                count: profile.negative_edges,
                min: profile.min_weight,
            });
        }
        Ok(())
    }
    fn working_set_bytes(&self, profile: &GraphProfile, _opts: &SolveOpts) -> u64 {
        profile.dense_bytes + 16 * profile.m as u64
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        Estimate {
            seconds: delta_sweep_seconds(profile, opts.effective_threads()),
            detail: "n sweeps · m·t_bucket_relax / threads (no heap term)".into(),
        }
    }
    fn solve(
        &self,
        g: &Graph,
        profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        // Δ = mean edge weight: one bucket ≈ one expected hop
        let mean = profile.mean_weight as f32;
        let delta = if mean > 0.0 { mean } else { 1.0 };
        let threads = opts.effective_threads();
        let mut sol = solution(apsp_by_delta_stepping(g, delta, threads), self.name(), threads);
        sol.stats.notes.push(format!("Δ = {delta:.3} (mean edge weight)"));
        Ok(sol)
    }
}

/// The distributed driver on the in-process simulated runtime. Correct on
/// any graph, but it *simulates* a cluster on one machine — the planner
/// never auto-selects it.
struct Dist;

impl Dist {
    /// How a budget of `threads` is spent on `ranks` simulated ranks:
    /// `(workers, kernel_threads)` — at most `threads` ranks execute at a
    /// time, and each one's kernel gets what is left of the budget, so that
    /// running ranks × kernel threads ≤ `threads` (floor 1 each).
    fn thread_split(threads: usize, ranks: usize) -> (usize, usize) {
        let ranks = ranks.max(1);
        (threads.clamp(1, ranks), (threads / ranks).max(1))
    }
}

impl Solver for Dist {
    fn name(&self) -> &'static str {
        "dist"
    }
    fn description(&self) -> &'static str {
        "distributed blocked FW on the simulated mpi runtime"
    }
    fn auto_excluded(&self) -> Option<&'static str> {
        Some("in-process cluster simulation — benchmarking/validation target")
    }
    fn working_set_bytes(&self, profile: &GraphProfile, opts: &SolveOpts) -> u64 {
        let p = (opts.grid.0 * opts.grid.1).max(1) as u64;
        (p + 2) * profile.dense_bytes / p.max(1) + profile.dense_bytes
    }
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate {
        let p = (opts.grid.0 * opts.grid.1).max(1) as f64;
        let rounds = profile.n.div_ceil(opts.block.max(1)) as f64;
        let seconds = fw_flops(profile.n) * T_FLOP_PACKED / opts.effective_threads() as f64
            + p * T_SIM_RANK
            + rounds * p * 1e-4;
        Estimate { seconds, detail: "2n³·t_packed/threads + simulated-runtime overhead".into() }
    }
    fn solve(
        &self,
        g: &Graph,
        _profile: &dyn Deref<Target = GraphProfile>,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        let (pr, pc) = opts.grid;
        let threads = opts.effective_threads();
        let (workers, kernel_threads) = Self::thread_split(threads, pr * pc);
        let mut cfg = opts.dist;
        cfg.block = opts.block.max(1);
        cfg.kernel_threads.get_or_insert(kernel_threads);
        let mut run = opts.dist_run.clone();
        run.workers.get_or_insert(workers);
        let (d, _) = distributed_apsp_opts::<MinPlusF32>(pr, pc, &cfg, &to_dense(g), None, &run)
            .map_err(SolveError::Dist)?;
        let mut sol = solution(d, self.name(), threads);
        sol.stats.notes.push(format!(
            "dist: {} on a {pr}x{pc} simulated grid, b = {}",
            cfg.legend(),
            cfg.block
        ));
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{GraphProfile, Registry, SolveError, SolveOpts};
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::GraphBuilder;

    /// Connected, undirected, unit-weight graph: every solver is eligible.
    fn unit_fixture(n: usize, extra: usize, seed: u64) -> Graph {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut b = GraphBuilder::new(n);
        for v in 1..n {
            b.add_undirected((next() % v as u64) as usize, v, 1.0);
        }
        for _ in 0..extra {
            let (u, v) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
            if u != v {
                b.add_undirected(u, v, 1.0);
            }
        }
        b.build()
    }

    fn reference(g: &Graph) -> Matrix<f32> {
        let mut d = g.to_dense();
        fw_seq::<MinPlusF32>(&mut d);
        d
    }

    #[test]
    fn every_registered_solver_agrees_on_a_universally_eligible_graph() {
        let reg = Registry::with_all();
        let g = unit_fixture(24, 14, 9);
        let want = reference(&g);
        // tolerance and budget opt-ins so the quantized and out-of-core
        // solvers are eligible too (unit weights make quant bit-exact, so
        // eq_exact still applies)
        let opts = SolveOpts {
            block: 4,
            error_tolerance: Some(0.0),
            memory_budget: Some(1 << 30),
            ..Default::default()
        };
        for name in reg.names() {
            let sol = reg.solve(name, &g, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(sol.dist.eq_exact(&want), "{name} disagrees with fw_seq");
            assert_eq!(sol.solver, name);
            assert!(sol.stats.wall_s > 0.0, "{name}: wall clock not stamped");
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_solver() {
        let reg = Registry::with_all();
        for (alias, canonical) in
            [("dense", "blocked"), ("packed", "blocked"), ("seq", "fw"), ("sparse", "blocked"), ("block-sparse", "blocked"), ("dijkstra", "johnson"), ("delta-stepping", "delta"), ("out-of-core", "ooc"), ("staged", "ooc")]
        {
            assert_eq!(reg.get(alias).unwrap().name(), canonical, "{alias}");
        }
    }

    #[test]
    fn unknown_solver_lists_known_names() {
        let reg = Registry::with_all();
        match reg.get("magic") {
            Err(SolveError::UnknownSolver { name, known }) => {
                assert_eq!(name, "magic");
                assert!(known.contains(&"blocked") && known.contains(&"delta"));
            }
            other => panic!("expected UnknownSolver, got {:?}", other.map(|s| s.name())),
        }
    }

    #[test]
    fn johnson_surfaces_negative_cycles_as_typed_error() {
        let reg = Registry::with_all();
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, -3.0).add_edge(2, 1, 1.0);
        match reg.solve("johnson", &b.build(), &SolveOpts::default()) {
            Err(SolveError::NegativeCycle) => {}
            other => panic!("expected NegativeCycle, got {other:?}"),
        }
    }

    #[test]
    fn negative_cycle_is_a_typed_error_from_every_solver() {
        let reg = Registry::with_all();
        // the 2 ⇄ 3 cycle of weight −2 behind one edge, and a −1 cycle around
        // a ring of six that no single 2×2 block contains
        let mut small = GraphBuilder::new(3);
        small.add_edge(0, 1, 1.0).add_edge(1, 2, -3.0).add_edge(2, 1, 1.0);
        let mut ring = GraphBuilder::new(6);
        for v in 0..6 {
            ring.add_edge(v, (v + 1) % 6, if v == 4 { -6.0 } else { 1.0 });
        }
        for (g, block) in [(small.build(), 64), (ring.build(), 2)] {
            let opts = SolveOpts {
                block,
                error_tolerance: Some(1.0),
                memory_budget: Some(1 << 30),
                ..Default::default()
            };
            for name in reg.names().into_iter().chain(["auto"]) {
                match reg.solve(name, &g, &opts) {
                    Err(SolveError::NegativeCycle) => {}
                    Err(SolveError::Ineligible { solver, .. }) => {
                        assert!(["delta", "quant"].contains(&solver), "{name}")
                    }
                    other => panic!("{name}, block {block}: {:?}", other.map(|s| s.solver)),
                }
            }
        }
    }

    /// A solve profiles the graph only when something reads the profile,
    /// and then once: `quant`'s and `delta`'s checks read the weights, the
    /// budget screen reads the working set, `auto` and `plan` score on it.
    #[test]
    fn a_solve_profiles_once_and_only_when_the_profile_is_read() {
        let reg = Registry::with_all();
        let g = unit_fixture(24, 14, 9);
        let opts = SolveOpts { block: 4, error_tolerance: Some(0.0), ..Default::default() };
        let budget = SolveOpts { memory_budget: Some(1 << 30), ..opts.clone() };
        let profiles = |trace: apsp_trace::Trace| {
            trace.timelines.iter().flat_map(|t| &t.spans).filter(|s| s.name == "profile").count()
        };
        let solve = |name: &str, opts: &SolveOpts| {
            let (sol, trace) = apsp_trace::record("main", || reg.solve(name, &g, opts));
            sol.unwrap_or_else(|e| panic!("{name}: {e}"));
            profiles(trace)
        };
        for name in ["blocked", "dist", "fw", "johnson"] {
            assert_eq!(solve(name, &opts), 0, "{name}");
        }
        for name in ["quant", "delta", "auto"] {
            assert_eq!(solve(name, &opts), 1, "{name}");
        }
        for name in reg.names().into_iter().chain(["auto"]) {
            assert_eq!(solve(name, &budget), 1, "{name} under a budget");
        }
        assert_eq!(profiles(apsp_trace::record("main", || reg.plan(&g, &opts)).1), 1, "plan");
        // delta still refuses a negative edge it has to profile to see
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0).add_edge(1, 2, -1.0);
        match reg.solve("delta", &b.build(), &opts) {
            Err(SolveError::Ineligible {
                solver: "delta",
                reason: Ineligible::NegativeWeights { count: 1, min },
            }) => assert_eq!(min, -1.0),
            other => panic!("expected NegativeWeights, got {:?}", other.map(|s| s.solver)),
        }
    }

    #[test]
    fn memory_budget_zero_makes_everything_ineligible() {
        let reg = Registry::with_all();
        let g = unit_fixture(12, 4, 3);
        // tolerance opt-in so even quant reaches the uniform budget screen
        let opts = SolveOpts {
            memory_budget: Some(0),
            error_tolerance: Some(1.0),
            ..Default::default()
        };
        let plan = reg.plan(&g, &opts);
        assert!(plan.chosen.is_none());
        assert!(plan
            .entries
            .iter()
            .all(|e| matches!(e.outcome, Err(Ineligible::MemoryBudget { .. }))));
        match reg.solve_auto(&g, &opts) {
            Err(SolveError::NoEligibleSolver) => {}
            other => panic!("expected NoEligibleSolver, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn memory_budget_below_dense_flips_the_planner_to_out_of_core() {
        let reg = Registry::with_all();
        // complete-ish dense graph: the sparse/SSSP families are all priced
        // out by density, and dense_bytes = 96²·4 = 36 864
        let g = generators::uniform_dense(96, WeightKind::small_ints(), 21);
        let want = reference(&g);
        let budget = 30 * 1024; // below dense_bytes, above the tile-24 floor
        let opts = SolveOpts { memory_budget: Some(budget as u64), ..Default::default() };
        let plan = reg.plan(&g, &opts);
        assert_eq!(plan.chosen, Some("ooc"), "\n{}", plan.render());
        // every in-RAM dense solver must be priced out by the budget
        for e in &plan.entries {
            if ["blocked", "fw"].contains(&e.solver) {
                assert!(
                    matches!(e.outcome, Err(Ineligible::MemoryBudget { .. })),
                    "{} should be budget-ineligible",
                    e.solver
                );
            }
        }
        // and the staged solve itself is exact, through a file, under the
        // budget it was handed (that the driver keeps its peak under a
        // budget and spills below one is `budget_sweep_never_exceeds_the_budget`
        // and `store_traffic_is_pinned_for_a_fixed_configuration` in
        // tests/ooc.rs)
        let sol = reg.solve("ooc", &g, &opts).unwrap();
        assert!(sol.dist.eq_exact(&want));
        let of_budget = format!("of budget {}", super::super::profile::human_bytes(budget as u64));
        assert!(
            sol.stats.notes.iter().any(|n| n.contains("file store") && n.contains(&of_budget)),
            "{:?}",
            sol.stats.notes
        );
    }

    /// Without `--memory-budget` the matrix fits in RAM, so `ooc` refuses
    /// with the flag it needs, forced or planned, and `auto` never picks it.
    #[test]
    fn out_of_core_without_budget_is_a_typed_refusal() {
        let reg = Registry::with_all();
        let g = unit_fixture(32, 20, 17);
        let opts = SolveOpts { block: 8, ..Default::default() };
        match reg.solve("ooc", &g, &opts) {
            Err(SolveError::Ineligible { solver: "ooc", reason: Ineligible::NeedsBudget }) => {}
            other => panic!("expected NeedsBudget, got {:?}", other.map(|s| s.solver)),
        }
        let plan = reg.plan(&g, &opts);
        assert!(matches!(plan.entry("ooc").unwrap().outcome, Err(Ineligible::NeedsBudget)));
        let refusal = "ooc       ineligible: out-of-core solve needs --memory-budget";
        assert!(plan.render().contains(refusal), "{}", plan.render());
        assert_ne!(plan.chosen, Some("ooc"));
    }

    #[test]
    fn impossible_budget_is_a_typed_ooc_error() {
        let reg = Registry::with_all();
        let g = unit_fixture(48, 10, 23);
        // above zero (so the registry reaches the solver when forced) but
        // below the smallest staged floor (2 872 B at tile 8)
        let opts = SolveOpts { memory_budget: Some(2048), ..Default::default() };
        match reg.solve("ooc", &g, &opts) {
            Err(SolveError::Ineligible { solver: "ooc", reason: Ineligible::MemoryBudget { .. } }) => {}
            Err(SolveError::Ooc(e)) => {
                assert!(matches!(e, crate::ooc::OocError::BudgetTooSmall { .. }), "{e:?}")
            }
            other => panic!("expected a budget error, got {:?}", other.map(|_| ())),
        }
    }

    /// The registry rule (DESIGN.md §13): a solver stays registered only if
    /// `auto` picks it on some input, or it is the oracle (`fw`) or excluded
    /// from auto-selection (`dist`). Clock-free: estimates at one thread.
    #[test]
    fn census_every_registered_solver_is_the_planners_pick_somewhere() {
        let reg = Registry::with_all();
        let block = 64;
        let ints = WeightKind::small_ints;
        let of = |g: &Graph| GraphProfile::compute(g, block);
        // uniform dense, synthesized: building n² edges in a debug test is
        // pointless
        let dense = |n: usize, max_weight: f32| GraphProfile {
            n,
            m: n * (n - 1),
            density: 1.0,
            min_weight: 1.0,
            max_weight,
            mean_weight: (1.0 + max_weight as f64) / 2.0,
            negative_edges: 0,
            integral_weights: true,
            dense_bytes: (n * n * 4) as u64,
        };
        let grid = of(&generators::grid(64, 64, ints(), 2));
        let one_negative_edge = GraphProfile { negative_edges: 1, min_weight: -1.0, ..grid.clone() };
        let multi = of(&generators::multi_component(2048, 16, ints(), 5));
        // family (n, density, weights and sign are the profile's), memory
        // budget, error tolerance → the planner's pick
        let rows = [
            // below the crossover (n ≈ 4k) dense FW wins even on grids
            ("grid 16×16", of(&generators::grid(16, 16, ints(), 2)), None, None, "blocked"),
            // road-like n = 4096: an SSSP sweep beats cubic work
            ("grid 64×64", grid, None, None, "johnson"),
            ("grid 64×64, a negative edge", one_negative_edge, None, None, "johnson"),
            // sparsest family: Δ-stepping's heap-free sweep (measured 4.9× at n = 4096)
            ("ring + chords 4096", of(&generators::ring_with_chords(4096, ints(), 3)), None, None, "delta"),
            // the benchmark's `sparse-auto` shape: delta 132.7 ms vs blocked 159.5
            ("ring + chords 1536", of(&generators::ring_with_chords(1536, ints(), 3)), None, None, "delta"),
            // blocked skips the absent blocks but is priced dense (ROADMAP
            // item 7)…
            ("16 components 2048", multi.clone(), None, None, "blocked"),
            // …and staged under a budget below the matrix
            ("16 components 2048, budget 1 MiB", multi, Some(1 << 20), None, "ooc"),
            ("dense 4096", dense(4096, 9.0), None, None, "blocked"),
            // 4095 · 8 = 32 760 is below the lanes' sentinel 32 767; 9 is not
            ("dense 4096, weights fit u16", dense(4096, 8.0), None, Some(0.0), "quant"),
            ("dense 4096, weights overflow u16", dense(4096, 100.0), None, Some(0.0), "blocked"),
            // the matrix fits and blocked's one repacked b × (n − b) row
            // panel beside it (240 KiB) does not, so the staged solve beats
            // fw's serial triple loop
            ("dense 1024, budget = matrix", dense(1024, 9.0), Some(4 << 20), None, "ooc"),
            ("dense 1024, budget = matrix / 2", dense(1024, 9.0), Some(2 << 20), None, "ooc"),
        ];
        for (row, profile, memory_budget, error_tolerance, want) in rows.clone() {
            let opts =
                SolveOpts { block, threads: 1, memory_budget, error_tolerance, ..Default::default() };
            let plan = reg.plan_for_profile(profile, &opts);
            assert_eq!(plan.chosen, Some(want), "{row}\n{}", plan.render());
            if want == "ooc" {
                let est = &plan.entry("ooc").unwrap().outcome.as_ref().unwrap().detail;
                assert!(est.ends_with("t_disk staged"), "{row}: {est}");
            }
        }
        for s in reg.solvers() {
            assert!(
                rows.iter().any(|r| r.4 == s.name()) || s.name() == "fw" || s.auto_excluded().is_some(),
                "no census row picks '{}': give it one, or do not register it",
                s.name()
            );
        }
    }

    #[test]
    fn quant_is_opt_in_and_exact_on_integral_weights() {
        let reg = Registry::with_all();
        let g = generators::uniform_dense(32, WeightKind::small_ints(), 13);
        // without --error-tolerance: typed NeedsTolerance, never auto-chosen
        match reg.solve("quant", &g, &SolveOpts::default()) {
            Err(SolveError::Ineligible {
                solver: "quant",
                reason: Ineligible::NeedsTolerance { eps },
            }) => assert_eq!(eps, 0.0, "integral weights are exactly quantizable"),
            other => panic!("expected NeedsTolerance, got {:?}", other.map(|s| s.solver)),
        }
        assert_ne!(reg.plan(&g, &SolveOpts::default()).chosen, Some("quant"));
        // with the opt-in: eligible, bit-exact, and cheap enough that the
        // planner learns the new tradeoff and auto-selects it
        let opts = SolveOpts { error_tolerance: Some(1e-3), ..Default::default() };
        let sol = reg.solve("quant", &g, &opts).unwrap();
        assert!(sol.dist.eq_exact(&reference(&g)));
        // the note prints "bit-exact" exactly when the plan is exact, whose
        // eps is then 0 (the plan the adapter makes from this profile)
        let notes = &sol.stats.notes;
        assert!(notes.iter().any(|n| n == "quant: u16 lanes, scale 1, bit-exact"), "{notes:?}");
        let plan = Quant::quant_plan(&GraphProfile::compute(&g, opts.block), &opts).unwrap();
        assert!(plan.exact && plan.eps == 0.0, "{plan:?}");
        let plan = reg.plan(&g, &opts);
        assert_eq!(plan.chosen, Some("quant"), "\n{}", plan.render());
    }

    #[test]
    fn quant_overflow_and_tolerance_misses_are_typed() {
        let reg = Registry::with_all();
        // integral weights on a path of n vertices: the longest distance is
        // (n − 1)·w. 32 767 is the lanes' sentinel itself → typed Overflow
        // naming it; 32 766 is the last value below it → bit-exact
        let opts = SolveOpts { error_tolerance: Some(1.0), ..Default::default() };
        for (n, w, fits) in [(3, 16383.0, true), (2, 32766.0, true), (2, 32767.0, false), (4, 10923.0, false)] {
            let mut b = GraphBuilder::new(n);
            for v in 1..n {
                b.add_edge(v - 1, v, w);
            }
            let g = b.build();
            match reg.solve("quant", &g, &opts) {
                Ok(sol) if fits => {
                    assert!(sol.stats.notes.iter().any(|n| n.contains("bit-exact")), "{n} x {w}");
                    assert!(sol.dist.eq_exact(&reference(&g)), "{n} x {w}");
                }
                Err(SolveError::Ineligible {
                    solver: "quant",
                    reason: Ineligible::Quant(quant::QuantError::Overflow { sentinel, .. }),
                }) if !fits => assert_eq!(sentinel, 32_767),
                other => panic!("{n} x {w}: got {:?}", other.map(|s| s.solver)),
            }
        }
        // fractional weights + an impossible tolerance: typed Tolerance miss
        // carrying the bound u16 lanes can achieve here…
        let g = generators::uniform_dense(16, WeightKind::Real { lo: 0.0, hi: 1.0 }, 3);
        let tight = SolveOpts { error_tolerance: Some(0.0), ..Default::default() };
        let eps = match reg.solve("quant", &g, &tight) {
            Err(SolveError::Ineligible {
                solver: "quant",
                reason: Ineligible::Quant(quant::QuantError::Tolerance { eps, .. }),
            }) => eps,
            other => panic!("expected Tolerance, got {:?}", other.map(|s| s.solver)),
        };
        assert!(eps > 0.0 && eps <= 4e-3, "15 hops at scale 2048: {eps}");
        // …and exactly that tolerance admits a solve within it
        let loose = SolveOpts { error_tolerance: Some(eps), ..Default::default() };
        let sol = reg.solve("quant", &g, &loose).unwrap();
        let want = reference(&g);
        for i in 0..g.n() {
            for j in 0..g.n() {
                let (a, b) = (sol.dist[(i, j)], want[(i, j)]);
                assert!((a - b).abs() as f64 <= eps + 1e-6, "({i},{j}): |{a} - {b}|");
            }
        }
    }

    #[test]
    fn plan_render_explains_eligibility_and_choice() {
        let reg = Registry::with_all();
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 2.0).add_edge(1, 2, -1.5).add_edge(2, 3, 2.0).add_edge(3, 0, 5.0);
        let plan = reg.plan(&b.build(), &SolveOpts::default());
        let text = plan.render();
        assert!(text.contains("graph profile"), "{text}");
        assert!(text.contains("delta     ineligible: negative weights"), "{text}");
        assert!(text.contains("never auto-selected"), "{text}"); // dist row
        assert!(text.contains("chosen: "), "{text}");
        // negative weights: only the FW family and johnson remain eligible
        assert!(["blocked", "fw", "ooc", "johnson"].contains(&plan.chosen.unwrap()));
    }

    #[test]
    fn solve_auto_returns_plan_and_matching_solution() {
        let reg = Registry::with_all();
        let g = generators::grid(6, 6, WeightKind::small_ints(), 11);
        let (plan, sol) = reg.solve_auto(&g, &SolveOpts { block: 8, ..Default::default() }).unwrap();
        assert_eq!(Some(sol.solver), plan.chosen);
        assert!(sol.dist.eq_exact(&reference(&g)));
        // registry.solve("auto", ...) is the same path
        let sol2 = reg.solve("auto", &g, &SolveOpts { block: 8, ..Default::default() }).unwrap();
        assert_eq!(sol2.solver, sol.solver);
    }

    #[test]
    fn thread_cap_is_respected_by_dense_solvers() {
        // correctness under an explicit cap: same matrix, any thread count
        let g = generators::uniform_dense(96, WeightKind::small_ints(), 5);
        let want = reference(&g);
        let reg = Registry::with_all();
        let base = SolveOpts { block: 8, ..Default::default() };
        // solver, its options beyond the cap, and a note the run must leave.
        // 64 KiB is above the tile-32 staging floor and below the matrix.
        let tile32 = SolveOpts { block: 32, ..base.clone() };
        let rows = [
            ("blocked", base.clone(), None),
            ("johnson", base.clone(), None),
            ("delta", base.clone(), None),
            ("quant", SolveOpts { error_tolerance: Some(0.0), ..base.clone() }, Some("bit-exact")),
            ("ooc", SolveOpts { memory_budget: Some(64 << 10), ..tile32 }, Some("file store, tile 32")),
            ("dist", base.clone(), Some("2x2 simulated grid")),
        ];
        for threads in [1, 2, 3] {
            for (name, opts, note) in &rows {
                let opts = SolveOpts { threads, ..opts.clone() };
                let sol = reg.solve(name, &g, &opts).unwrap();
                assert!(sol.dist.eq_exact(&want), "{name} threads={threads}");
                assert_eq!(sol.stats.threads, threads);
                if let Some(note) = note {
                    let notes = &sol.stats.notes;
                    assert!(notes.iter().any(|n| n.contains(note)), "{name}: {notes:?}");
                }
            }
        }
    }

    #[test]
    fn dist_spends_the_thread_budget_on_workers_then_kernel_threads() {
        // (threads, ranks) → (workers, kernel_threads): --serial on a 4x4
        // grid is one running rank with a serial kernel, not host / ranks
        for (threads, ranks, want) in
            [(1, 16, (1, 1)), (2, 16, (2, 1)), (8, 4, (4, 2)), (64, 4, (4, 16))]
        {
            assert_eq!(Dist::thread_split(threads, ranks), want, "({threads}, {ranks})");
        }
    }

    #[test]
    fn concurrent_staged_solves_do_not_share_a_store_file() {
        assert_ne!(Ooc::staging_path(128, 24), Ooc::staging_path(128, 24));
        // eight staged solves of one (n, tile) at a time, each on its own
        // graph: under a shared file name they truncate, overwrite and
        // delete one another's store
        let n = 128;
        let inputs: Vec<(Graph, Matrix<f32>)> = (0..8)
            .map(|t| {
                let g = generators::uniform_dense(n, WeightKind::small_ints(), 29 + t);
                let want = reference(&g);
                (g, want)
            })
            .collect();
        let opts = SolveOpts { memory_budget: Some((n * n * 4 / 2) as u64), ..Default::default() };
        let reg = Registry::with_all();
        let start = std::sync::Barrier::new(inputs.len());
        for round in 0..3 {
            std::thread::scope(|scope| {
                for (t, (g, want)) in inputs.iter().enumerate() {
                    let (opts, reg, start) = (&opts, &reg, &start);
                    scope.spawn(move || {
                        start.wait();
                        let sol = reg
                            .solve("ooc", g, opts)
                            .unwrap_or_else(|e| panic!("round {round} thread {t}: {e}"));
                        assert!(sol.stats.notes.iter().any(|n| n.contains("file store")));
                        assert!(sol.dist.eq_exact(want), "round {round} thread {t}");
                    });
                }
            });
        }
    }
}
