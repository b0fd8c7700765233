//! Unified solver layer: every APSP algorithm in the workspace behind one
//! trait, one registry, and one planner.
//!
//! The paper's pipeline is a single dense engine; real workloads are not
//! uniformly dense. This module gives each algorithm — dense packed FW,
//! divide-and-conquer FW, the tiled FW loop (out-of-core and block-sparse in
//! one), Johnson's per-source Dijkstra, Δ-stepping sweeps, and the
//! simulated distributed driver — one registered name per code path and a
//! common [`Solver`] surface: a typed eligibility `check`
//! ([`Ineligible`]), a cost `estimate` fed by a one-pass [`GraphProfile`],
//! and a `solve` returning a [`Solution`] with per-solver stats. The
//! [`planner`] scores every registered solver and returns an explainable
//! [`Plan`] (`apsp plan`, `--algo auto`). See DESIGN.md §13.

pub mod adapters;
pub mod planner;
pub mod profile;

use std::time::Instant;

use apsp_graph::Graph;
use srgemm::Matrix;

use crate::dist::{DistError, DistRunOpts, FwConfig, Variant};

pub use planner::{Plan, PlanEntry};
pub use profile::GraphProfile;

/// Shared knobs every solver draws from. One `SolveOpts` is built per CLI
/// invocation (or per test) and handed unchanged to profile, planner, and
/// solver, so all three agree on block size and thread budget.
#[derive(Clone, Debug)]
pub struct SolveOpts {
    /// Block size for the tiled solvers (blocked/dc/ooc/dist).
    pub block: usize,
    /// Thread budget of the solve; `0` → all cores. Every solver spends
    /// its kernel threads, source sweeps or simulated ranks out of this
    /// one number (DESIGN.md §10).
    pub threads: usize,
    /// Optional working-set ceiling in bytes; solvers whose estimated
    /// working set exceeds it become [`Ineligible::MemoryBudget`].
    pub memory_budget: Option<u64>,
    /// `(pr, pc)` process grid for the distributed solver.
    pub grid: (usize, usize),
    /// Policy axes for the distributed solver (its `block` field is
    /// overridden by [`SolveOpts::block`] at solve time).
    pub dist: FwConfig,
    /// Simulated-runtime knobs (faults, recv timeout) for the distributed
    /// solver.
    pub dist_run: DistRunOpts,
    /// Opt-in to low-precision solves (`--error-tolerance`): the largest
    /// acceptable `±eps` on any finite distance. `None` (the default)
    /// keeps the quantized solver ineligible — approximation is never
    /// silently substituted for the exact `f32` path.
    pub error_tolerance: Option<f64>,
}

impl Default for SolveOpts {
    fn default() -> Self {
        SolveOpts {
            block: 64,
            threads: 0,
            memory_budget: None,
            grid: (2, 2),
            dist: FwConfig::new(64, Variant::Pipelined),
            dist_run: DistRunOpts::default(),
            error_tolerance: None,
        }
    }
}

impl SolveOpts {
    /// The concrete thread budget: `threads`, or the host's parallelism
    /// when it is `0`.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => crate::host_threads(),
            t => t,
        }
    }

    /// These options with the thread budget made concrete, so that planner
    /// and solver agree on it and one solve asks the OS once.
    fn resolved(&self) -> SolveOpts {
        SolveOpts { threads: self.effective_threads(), ..self.clone() }
    }
}

/// Why a solver refuses a particular graph — typed, so callers (and the
/// planner's rendering) can react to the reason rather than parse a string.
#[derive(Clone, Debug, PartialEq)]
pub enum Ineligible {
    /// The algorithm requires non-negative weights (Δ-stepping).
    NegativeWeights {
        /// How many negative edges the profile counted.
        count: usize,
        /// The most negative weight seen.
        min: f32,
    },
    /// Estimated working set exceeds [`SolveOpts::memory_budget`].
    MemoryBudget {
        /// Bytes the solver would need.
        required: u64,
        /// The configured ceiling.
        budget: u64,
    },
    /// The quantized solver cannot meet its precision contract on this
    /// graph (overflow, tolerance, sign — see [`crate::quant::QuantError`]).
    Quant(crate::quant::QuantError),
    /// A low-precision solver needs an explicit `--error-tolerance` opt-in;
    /// carries the `±eps` bound it could achieve on this graph.
    NeedsTolerance {
        /// Best achievable error bound (`0.0` when provably exact).
        eps: f64,
    },
}

impl std::fmt::Display for Ineligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ineligible::NegativeWeights { count, min } => {
                write!(f, "negative weights ({count} edges, min {min})")
            }
            Ineligible::MemoryBudget { required, budget } => write!(
                f,
                "working set {} exceeds budget {}",
                profile::human_bytes(*required),
                profile::human_bytes(*budget)
            ),
            Ineligible::Quant(e) => write!(f, "{e}"),
            Ineligible::NeedsTolerance { eps } => write!(
                f,
                "low-precision solve needs --error-tolerance (achievable +-{eps:.3e})"
            ),
        }
    }
}

/// Errors out of the solver layer.
#[derive(Debug)]
pub enum SolveError {
    /// The named solver cannot handle this graph, and why.
    Ineligible {
        /// Solver that refused.
        solver: &'static str,
        /// The typed reason.
        reason: Ineligible,
    },
    /// A negative cycle makes shortest paths undefined.
    NegativeCycle,
    /// The simulated distributed runtime failed.
    Dist(DistError),
    /// The out-of-core tile-store driver failed (I/O, corruption, budget).
    Ooc(crate::ooc::OocError),
    /// No registered solver answers to this name.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// Every canonical name the registry does know.
        known: Vec<&'static str>,
    },
    /// The planner found no eligible solver (e.g. the memory budget
    /// excludes everything).
    NoEligibleSolver,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Ineligible { solver, reason } => {
                write!(f, "{solver}: ineligible, {reason}")
            }
            SolveError::NegativeCycle => write!(f, "graph contains a negative cycle"),
            SolveError::Dist(e) => write!(f, "dist: {e}"),
            SolveError::Ooc(e) => write!(f, "ooc: {e}"),
            SolveError::UnknownSolver { name, known } => {
                write!(f, "unknown algorithm '{name}' (known: {}, auto)", known.join(", "))
            }
            SolveError::NoEligibleSolver => write!(f, "no eligible solver for this graph"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The negative-cycle screen of every APSP entry point: a closure whose
/// diagonal entry `diag(i)` is negative for some `i < n` — which only a
/// negative cycle through `i` can produce — is [`SolveError::NegativeCycle`].
pub fn screen_negative_cycle(n: usize, diag: impl Fn(usize) -> f32) -> Result<(), SolveError> {
    if (0..n).any(|i| diag(i) < 0.0) {
        return Err(SolveError::NegativeCycle);
    }
    Ok(())
}

/// What a solver reports about its own run.
#[derive(Clone, Debug, Default)]
pub struct SolverStats {
    /// Wall-clock seconds of the `solve` call (filled by the registry).
    pub wall_s: f64,
    /// Workers the solver actually used (1 for serial solvers).
    pub threads: usize,
    /// Human-readable detail lines for the CLI to print.
    pub notes: Vec<String>,
}

/// A solved instance: the distance matrix plus provenance.
#[derive(Clone, Debug)]
pub struct Solution {
    /// All-pairs distances; `INF` where unreachable.
    pub dist: Matrix<f32>,
    /// Canonical name of the solver that produced it.
    pub solver: &'static str,
    /// Run statistics.
    pub stats: SolverStats,
}

/// A cost forecast from [`Solver::estimate`].
#[derive(Clone, Debug)]
pub struct Estimate {
    /// Predicted wall-clock seconds.
    pub seconds: f64,
    /// The formula behind the number, for `apsp plan`.
    pub detail: String,
}

/// One APSP algorithm behind the common surface. Implementations live in
/// [`adapters`]; user code goes through [`Registry`].
pub trait Solver: Send + Sync {
    /// Canonical name (`--algo` value).
    fn name(&self) -> &'static str;

    /// Alternate `--algo` spellings that resolve to this solver.
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// One-line description for `apsp plan` and help text.
    fn description(&self) -> &'static str;

    /// Algorithmic eligibility on this graph (shape/sign requirements).
    /// Memory-budget screening is layered on top by [`Solver::eligible`].
    fn check(&self, _profile: &GraphProfile, _opts: &SolveOpts) -> Result<(), Ineligible> {
        Ok(())
    }

    /// Estimated peak bytes the solver touches on this graph.
    fn working_set_bytes(&self, profile: &GraphProfile, opts: &SolveOpts) -> u64;

    /// Cost forecast from the profile (never runs the solver).
    fn estimate(&self, profile: &GraphProfile, opts: &SolveOpts) -> Estimate;

    /// `Some(reason)` if the planner must never auto-select this solver
    /// even when eligible (e.g. the simulated distributed runtime).
    fn auto_excluded(&self) -> Option<&'static str> {
        None
    }

    /// Run the algorithm. `profile` is `g`'s at `opts.block`, the one
    /// [`Solver::eligible`] has just passed on: a solver that needs a graph
    /// feature reads it there instead of walking the edges again.
    /// `stats.wall_s` is filled by the caller.
    fn solve(
        &self,
        g: &Graph,
        profile: &GraphProfile,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError>;

    /// [`Solver::check`] plus the uniform memory-budget screen.
    fn eligible(&self, profile: &GraphProfile, opts: &SolveOpts) -> Result<(), Ineligible> {
        self.check(profile, opts)?;
        if let Some(budget) = opts.memory_budget {
            let required = self.working_set_bytes(profile, opts);
            if required > budget {
                return Err(Ineligible::MemoryBudget { required, budget });
            }
        }
        Ok(())
    }
}

/// [`GraphProfile::compute`] as a `profile` span.
fn profile(g: &Graph, block: usize) -> GraphProfile {
    let _s = apsp_trace::span("profile");
    GraphProfile::compute(g, block)
}

/// The set of known solvers; the single dispatch point for the CLI, the
/// benchmark, and the oracle tests.
pub struct Registry {
    solvers: Vec<Box<dyn Solver>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_all()
    }
}

impl Registry {
    /// Every solver in the workspace, in presentation order.
    pub fn with_all() -> Registry {
        Registry { solvers: adapters::all() }
    }

    /// Iterate the registered solvers.
    pub fn solvers(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.solvers.iter().map(|s| s.name()).collect()
    }

    /// Resolve a name or alias.
    pub fn get(&self, name: &str) -> Result<&dyn Solver, SolveError> {
        self.solvers()
            .find(|s| s.name() == name || s.aliases().contains(&name))
            .ok_or_else(|| SolveError::UnknownSolver { name: name.to_string(), known: self.names() })
    }

    /// Profile the graph, check eligibility, run the named solver, and
    /// stamp the wall clock. `"auto"` delegates to [`Registry::solve_auto`].
    /// The profile pass and the run are `profile` and `solve` spans on the
    /// calling thread's `apsp_trace` recorder.
    pub fn solve(&self, name: &str, g: &Graph, opts: &SolveOpts) -> Result<Solution, SolveError> {
        if name == "auto" {
            return self.solve_auto(g, opts).map(|(_, sol)| sol);
        }
        let solver = self.get(name)?;
        self.solve_profiled(solver, &profile(g, opts.block), g, &opts.resolved())
    }

    /// The shared tail of [`Registry::solve`] and [`Registry::solve_auto`]:
    /// eligibility against a profile already in hand, the run, the wall
    /// clock, and [`screen_negative_cycle`] (skipped on a graph without
    /// negative edges, which cannot fail it). `profile` must be
    /// `g`'s at `opts.block`.
    fn solve_profiled(
        &self,
        solver: &dyn Solver,
        profile: &GraphProfile,
        g: &Graph,
        opts: &SolveOpts,
    ) -> Result<Solution, SolveError> {
        solver
            .eligible(profile, opts)
            .map_err(|reason| SolveError::Ineligible { solver: solver.name(), reason })?;
        let t0 = Instant::now();
        let mut sol = {
            let _s = apsp_trace::span("solve");
            solver.solve(g, profile, opts)?
        };
        sol.stats.wall_s = t0.elapsed().as_secs_f64();
        if profile.has_negative() {
            screen_negative_cycle(profile.n, |i| sol.dist[(i, i)])?;
        }
        Ok(sol)
    }

    /// Score every solver on this graph and return the explainable plan
    /// (`profile`, then `plan` spans).
    pub fn plan(&self, g: &Graph, opts: &SolveOpts) -> Plan {
        self.plan_for_profile(profile(g, opts.block), opts)
    }

    /// [`Registry::plan`] when the profile is already in hand.
    pub fn plan_for_profile(&self, profile: GraphProfile, opts: &SolveOpts) -> Plan {
        let _s = apsp_trace::span("plan");
        planner::plan(self, profile, &opts.resolved())
    }

    /// Plan, then run the chosen solver against the plan's own profile (one
    /// profile pass per solve). Errors with
    /// [`SolveError::NoEligibleSolver`] when the plan is empty.
    pub fn solve_auto(&self, g: &Graph, opts: &SolveOpts) -> Result<(Plan, Solution), SolveError> {
        let opts = &opts.resolved();
        let plan = self.plan(g, opts);
        let chosen = plan.chosen.ok_or(SolveError::NoEligibleSolver)?;
        let sol = self.solve_profiled(self.get(chosen)?, &plan.profile, g, opts)?;
        Ok((plan, sol))
    }
}
