//! Every call into the program under test lives in this file, so a change to
//! the repo's API meets the benchmark in one place.
//!
//! It uses only the CLI's documented flags and the long-lived library surface:
//! `Registry`/`SolveOpts`/`GraphProfile`/`Plan`/`Solution`, `fw_blocked`,
//! `fw_seq`, `gemm_packed(_with_b)`, `PackedB::pack`, `quant::{plan_for_graph,
//! quantize_*, dequantize_*}`, `distributed_apsp(_traced)_opts` with
//! `TrafficReport`/`RunTrace::phase_wall_us`, `io::{read,write}_dimacs`, the
//! generators and `Graph::to_dense`. It stays away from what ROADMAP slates
//! for removal (`gemm_blocked`, `GemmAlgo`, the `gemm_parallel*` fan, any
//! `*Stats` field), because the change that removes those may not edit this.

use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::process::Command;

use apsp_core::dist::Variant;
use apsp_core::quant::{self, QuantDtype};
use apsp_core::{
    distributed_apsp_opts, distributed_apsp_traced_opts, fw_blocked, fw_seq, DiagMethod,
    DistRunOpts, FwConfig, GraphProfile, Plan, Registry, SolveOpts,
};
use apsp_graph::generators::{ring_with_chords, uniform_dense, WeightKind};
use apsp_graph::io::{read_dimacs, write_dimacs};
use srgemm::gemm::{gemm_packed, gemm_packed_with_b, Isa, PackedB};
use srgemm::{Matrix, MinPlusF32, MinPlusSatU16, Semiring};

use crate::spec::Workload;

pub type Graph = apsp_graph::Graph;
/// An all-pairs distance matrix, `+∞` where unreachable.
pub type Dist = Matrix<f32>;

/// Block size of every tiled solve, the CLI's default.
pub const BLOCK: usize = 64;
/// Process grid of the distributed workloads: 16 simulated ranks.
const GRID: (usize, usize) = (4, 4);
/// The solvers that leave `srgemm` idle; `sparse-auto` must get one of them.
const SSSP_SOLVERS: [&str; 3] = ["johnson", "dijkstra", "delta"];

/// The two seeded inputs. Both have integer weights, so every distance is
/// exact in `f32` and every solver must match `fw_seq` bit for bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InputKind {
    /// The paper's workload: a dense uniform random digraph, weights 1..15
    /// (`(n − 1) · 15` stays below the `u16` sentinel up to n = 4369).
    Dense,
    /// A directed ring with `n / 4` chords, weights 1..100: sparse enough that
    /// the planner prefers an SSSP sweep from n ≈ 1300 up.
    Sparse,
}

impl InputKind {
    pub fn name(self) -> &'static str {
        match self {
            InputKind::Dense => "dense",
            InputKind::Sparse => "sparse",
        }
    }
}

pub fn generate(kind: InputKind, n: usize, seed: u64) -> Graph {
    match kind {
        InputKind::Dense => uniform_dense(n, WeightKind::Integer { lo: 1, hi: 15 }, seed),
        InputKind::Sparse => ring_with_chords(n, WeightKind::Integer { lo: 1, hi: 100 }, seed),
    }
}

/// Write `g` as a DIMACS `.gr` file, buffered (`apsp generate` is not).
pub fn write_input(g: &Graph, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut w = BufWriter::new(file);
    write_dimacs(g, &mut w).map_err(|e| format!("write {}: {e}", path.display()))?;
    w.flush()
        .map_err(|e| format!("flush {}: {e}", path.display()))
}

/// Parse a DIMACS file the way `apsp solve --input` does.
pub fn read_input(path: &Path) -> Result<Graph, String> {
    let file = File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    read_dimacs(file).map_err(|e| format!("read {}: {e}", path.display()))
}

pub fn to_dense(g: &Graph) -> Dist {
    g.to_dense()
}

/// The reference every output is held to: sequential Floyd-Warshall.
pub fn oracle(g: &Graph) -> Dist {
    let mut d = g.to_dense();
    fw_seq::<MinPlusF32>(&mut d);
    d
}

/// The bytes `apsp solve --out` writes for `d`: tab-separated rows of `{}`
/// formatted `f32`s.
pub fn tsv(d: &Dist) -> Vec<u8> {
    let mut out = Vec::with_capacity(d.rows() * d.cols() * 4);
    for i in 0..d.rows() {
        for (j, v) in d.row(i).iter().enumerate() {
            if j > 0 {
                out.push(b'\t');
            }
            write!(out, "{v}").expect("writing to a Vec cannot fail");
        }
        out.push(b'\n');
    }
    out
}

pub fn same(a: &Dist, b: &Dist) -> bool {
    a.eq_exact(b)
}

/// How the program is asked to solve: one per workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Config {
    Blocked,
    /// `auto` under a byte budget of half the dense matrix.
    OocAuto,
    Quant,
    DistCo,
    DistCoMe,
    Auto,
}

impl Config {
    pub fn of(w: Workload) -> Config {
        match w {
            Workload::DenseBlocked => Config::Blocked,
            Workload::DenseOocAuto => Config::OocAuto,
            Workload::DenseQuant => Config::Quant,
            Workload::DistCo => Config::DistCo,
            Workload::DistCoMe => Config::DistCoMe,
            Workload::SparseAuto => Config::Auto,
        }
    }

    pub fn input(self) -> InputKind {
        match self {
            Config::Auto => InputKind::Sparse,
            _ => InputKind::Dense,
        }
    }

    fn algo(self) -> &'static str {
        match self {
            Config::Blocked => "blocked",
            Config::OocAuto | Config::Auto => "auto",
            Config::Quant => "quant",
            Config::DistCo | Config::DistCoMe => "dist",
        }
    }

    fn memory_budget(self, n: usize) -> Option<u64> {
        (self == Config::OocAuto).then_some((n * n * 4 / 2) as u64)
    }

    fn variant(self) -> Option<(&'static str, Variant)> {
        match self {
            Config::DistCo => Some(("async", Variant::AsyncRing)),
            Config::DistCoMe => Some(("come", Variant::CoMe)),
            _ => None,
        }
    }

    /// The flags after `apsp solve --input F --out O` for an `n`-vertex input.
    pub fn cli_flags(self, n: usize) -> Vec<String> {
        let mut flags = vec!["--algo".to_string(), self.algo().to_string()];
        let mut push = |k: &str, v: String| flags.extend([k.to_string(), v]);
        match self {
            Config::Blocked => push("--block", BLOCK.to_string()),
            Config::Quant => push("--error-tolerance", "0".to_string()),
            _ => {}
        }
        if let Some(bytes) = self.memory_budget(n) {
            push("--memory-budget", bytes.to_string());
        }
        if let Some((name, _)) = self.variant() {
            push("--pr", GRID.0.to_string());
            push("--pc", GRID.1.to_string());
            push("--variant", name.to_string());
        }
        flags
    }

    /// The `SolveOpts` those flags make the CLI build.
    fn opts(self, n: usize) -> SolveOpts {
        let mut opts = SolveOpts {
            block: BLOCK,
            memory_budget: self.memory_budget(n),
            error_tolerance: (self == Config::Quant).then_some(0.0),
            ..SolveOpts::default()
        };
        if let Some((_, variant)) = self.variant() {
            opts.grid = GRID;
            opts.dist = FwConfig::new(BLOCK, variant);
        }
        opts
    }
}

pub fn cli_solve(apsp: &Path, config: Config, n: usize, input: &Path, out: &Path) -> Command {
    let mut cmd = Command::new(apsp);
    cmd.arg("solve")
        .arg("--input")
        .arg(input)
        .args(config.cli_flags(n))
        .arg("--out")
        .arg(out);
    cmd
}

/// One in-process solve, as a library user gets it.
pub struct Solved {
    pub dist: Dist,
    /// The solver that ran.
    pub solver: &'static str,
    /// What the planner chose, when it was asked.
    pub chosen: Option<&'static str>,
}

/// `Registry::solve`, or `Registry::solve_auto` for the `auto` configs.
pub fn solve(config: Config, g: &Graph) -> Result<Solved, String> {
    let reg = Registry::with_all();
    let opts = config.opts(g.n());
    if config.algo() == "auto" {
        let (plan, sol) = reg.solve_auto(g, &opts).map_err(|e| e.to_string())?;
        Ok(Solved {
            dist: sol.dist,
            solver: sol.solver,
            chosen: plan.chosen,
        })
    } else {
        let sol = reg
            .solve(config.algo(), g, &opts)
            .map_err(|e| e.to_string())?;
        Ok(Solved {
            dist: sol.dist,
            solver: sol.solver,
            chosen: None,
        })
    }
}

/// `Registry::solve` of a solver by name, with default options.
pub fn solve_forced(solver: &str, g: &Graph) -> Result<Solved, String> {
    let sol = Registry::with_all()
        .solve(
            solver,
            g,
            &SolveOpts {
                block: BLOCK,
                ..SolveOpts::default()
            },
        )
        .map_err(|e| e.to_string())?;
    Ok(Solved {
        dist: sol.dist,
        solver: sol.solver,
        chosen: None,
    })
}

/// What the workload's input must satisfy before anything is timed.
pub fn check_input(config: Config, g: &Graph) -> Result<(), String> {
    if config == Config::Quant {
        let plan = quant::plan_for_graph(g, 0.0).map_err(|e| format!("quant plan: {e}"))?;
        if plan.dtype != QuantDtype::U16 || !plan.exact {
            return Err(format!(
                "quant would run {} lanes, exact = {}; the workload needs bit-exact u16",
                plan.dtype.name(),
                plan.exact
            ));
        }
    }
    Ok(())
}

/// The path a timed solve must have taken; a miss means the run timed
/// something else than the workload names.
pub fn check_solved(config: Config, solved: &Solved) -> Result<(), String> {
    let expect = |want: &str| {
        if solved.solver == want {
            Ok(())
        } else {
            Err(format!(
                "solver '{}' ran where the workload needs '{want}'",
                solved.solver
            ))
        }
    };
    match config {
        Config::Blocked => expect("blocked"),
        Config::Quant => expect("quant"),
        Config::DistCo | Config::DistCoMe => expect("dist"),
        Config::OocAuto => match solved.chosen {
            Some("ooc") => expect("ooc"),
            other => Err(format!(
                "planner chose {other:?} under the byte budget, not 'ooc'"
            )),
        },
        Config::Auto => match solved.chosen {
            Some(s) if SSSP_SOLVERS.contains(&s) => expect(s),
            other => Err(format!(
                "planner chose {other:?}, not one of {SSSP_SOLVERS:?}"
            )),
        },
    }
}

/// The same check on a CLI run. The child's decisions show only in what it
/// prints, so this is the one place the benchmark reads the CLI's prose.
pub fn check_cli_stdout(config: Config, stdout: &str, chosen: Option<&str>) -> Result<(), String> {
    let needs: Vec<String> = match config {
        Config::OocAuto => vec!["picked 'ooc'".into(), "file store".into()],
        Config::Quant => vec!["u16 lanes".into(), "bit-exact".into()],
        Config::Auto => vec![format!("picked '{}'", chosen.unwrap_or("?"))],
        Config::Blocked | Config::DistCo | Config::DistCoMe => vec![],
    };
    match needs
        .iter()
        .find(|needle| !stdout.contains(needle.as_str()))
    {
        None => Ok(()),
        Some(missing) => Err(format!("CLI output lacks \"{missing}\"")),
    }
}

pub fn profile(g: &Graph) -> GraphProfile {
    GraphProfile::compute(g, BLOCK)
}

/// `Registry::plan` on a profile already in hand, under `config`'s options.
pub fn plan(config: Config, profile: GraphProfile) -> Plan {
    let opts = config.opts(profile.n);
    Registry::with_all().plan_for_profile(profile, &opts)
}

/// The planner's forecast, in seconds, for `solver` (if it was eligible).
pub fn forecast_s(plan: &Plan, solver: &str) -> Option<f64> {
    plan.entry(solver)
        .and_then(|e| e.outcome.as_ref().ok())
        .map(|est| est.seconds)
}

/// Direct `fw_blocked` on a dense matrix, bypassing the solver layer.
pub fn fw_blocked_f32(d: &mut Dist, parallel: bool) {
    fw_blocked::<MinPlusF32>(d, BLOCK, DiagMethod::FwClosure, parallel);
}

/// Operands for timing the packed kernel at one shape and element type.
pub struct GemmProbe<S: Semiring> {
    a: Matrix<S::Elem>,
    b: Matrix<S::Elem>,
    c: Matrix<S::Elem>,
    packed_b: PackedB<S::Elem>,
}

pub type GemmProbeF32 = GemmProbe<MinPlusF32>;
pub type GemmProbeU16 = GemmProbe<MinPlusSatU16>;

impl<S: Semiring> GemmProbe<S> {
    /// `C (m×n) ← C ⊕ A (m×k) ⊗ B (k×n)` with small positive entries made by
    /// `elem`; min-plus timing does not depend on the values.
    pub fn new(m: usize, n: usize, k: usize, elem: impl Fn(u16) -> S::Elem) -> Self {
        let value = |i: usize, j: usize| elem(1 + ((i * 31 + j * 17) % 15) as u16);
        let b = Matrix::from_fn(k, n, value);
        let packed_b = PackedB::pack::<S>(&b.view());
        GemmProbe {
            a: Matrix::from_fn(m, k, value),
            b,
            c: Matrix::filled(m, n, S::zero()),
            packed_b,
        }
    }

    /// Semiring flops of one call: an ⊕ and an ⊗ per inner step.
    pub fn flops(&self) -> f64 {
        2.0 * self.c.rows() as f64 * self.c.cols() as f64 * self.a.cols() as f64
    }

    pub fn b_bytes(&self) -> f64 {
        (self.b.rows() * self.b.cols() * std::mem::size_of::<S::Elem>()) as f64
    }

    /// `gemm_packed`: packs `B`, then multiplies (one thread).
    pub fn packed(&mut self) {
        gemm_packed::<S>(&mut self.c.view_mut(), &self.a.view(), &self.b.view());
        black_box(&self.c);
    }

    /// `gemm_packed_with_b` on the already packed `B` (one thread).
    pub fn with_packed_b(&mut self) {
        gemm_packed_with_b::<S>(&mut self.c.view_mut(), &self.a.view(), &self.packed_b);
        black_box(&self.c);
    }

    /// `PackedB::pack` of `B` alone.
    pub fn pack_b(&mut self) {
        self.packed_b = PackedB::pack::<S>(&black_box(&self.b).view());
    }
}

/// The quantization the `quant` solver would use on `g`, bytes per element.
pub fn quant_plan(g: &Graph) -> Result<(f64, usize), String> {
    let plan = quant::plan_for_graph(g, 0.0).map_err(|e| e.to_string())?;
    Ok((plan.scale, plan.dtype.bytes()))
}

pub fn quantize_u16(g: &Graph, scale: f64) -> Matrix<u16> {
    quant::quantize_u16(g, scale)
}

pub fn dequantize_u16(q: &Matrix<u16>, scale: f64) -> Dist {
    quant::dequantize_u16(q, scale)
}

/// One run of the distributed driver as `dist-co` configures it.
pub struct DistRun {
    pub dist: Dist,
    pub nic_bytes: u64,
    pub total_msgs: u64,
    /// Rank-microseconds per phase; empty for an untraced run.
    pub phase_wall_us: Vec<(String, u64)>,
}

pub fn dist_co(seed_matrix: &Dist, traced: bool) -> Result<DistRun, String> {
    let cfg = FwConfig::new(BLOCK, Variant::AsyncRing);
    let (pr, pc) = GRID;
    let run_opts = DistRunOpts::default();
    if traced {
        let (dist, traffic, trace) =
            distributed_apsp_traced_opts::<MinPlusF32>(pr, pc, &cfg, seed_matrix, None, &run_opts)
                .map_err(|e| e.to_string())?;
        let phase_wall_us = trace
            .phase_wall_us()
            .into_iter()
            .map(|(name, us)| (name.to_string(), us))
            .collect();
        Ok(DistRun {
            dist,
            nic_bytes: traffic.total_nic_bytes(),
            total_msgs: traffic.total_msgs,
            phase_wall_us,
        })
    } else {
        let (dist, traffic) =
            distributed_apsp_opts::<MinPlusF32>(pr, pc, &cfg, seed_matrix, None, &run_opts)
                .map_err(|e| e.to_string())?;
        Ok(DistRun {
            dist,
            nic_bytes: traffic.total_nic_bytes(),
            total_msgs: traffic.total_msgs,
            phase_wall_us: Vec::new(),
        })
    }
}

/// The vector width the packed kernel dispatches to on this machine.
pub fn dispatched_isa() -> String {
    format!("{:?}", Isa::detect())
}
