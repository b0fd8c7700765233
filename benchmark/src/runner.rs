//! Runs one workload: set-up, the untraced pass that gives the end-to-end
//! metrics, and the traced pass that gives the per-layer metrics.
//!
//! The load generator is one thread and closed-loop. It and the program under
//! test, as a child process and in this process, are confined to one CPU (see
//! [`child::Pin`]); on it the program uses its own defaults.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::child;
use crate::layers::{self, Config, Dist, Graph, InputKind};
use crate::span::Recorder;
use crate::spec::{self, Workload};
use crate::stats::{median, Summary};

/// A child that runs longer than this counts as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Rounds of the measuring loop, at least: one timed CLI run and one or more
/// timed in-process solves each. The loop then goes on until `--seconds` is used.
const MIN_REPS: usize = 7;
/// Set-up is repeated so that `setup_s` is a median too.
const SETUPS: usize = 3;
/// Shape of the square kernel probe and its repetitions.
const KERNEL_N: usize = 512;
const KERNEL_REPS: usize = 9;

/// Input sizes. The full sizes make one run fit the driver's time budget
/// (about 15 s with set-up); `--quick` is a smoke test. The sparse input stays
/// at full size even then: below n ≈ 1300 the planner prefers dense FW on it
/// and the `sparse-auto` precondition could not hold.
#[derive(Clone, Copy)]
pub struct Sizes {
    pub dense_n: usize,
    pub sparse_n: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dense_n: 1024,
        sparse_n: 1536,
    };
    pub const QUICK: Sizes = Sizes {
        dense_n: 256,
        sparse_n: 1536,
    };

    pub fn n(self, kind: InputKind) -> usize {
        match kind {
            InputKind::Dense => self.dense_n,
            InputKind::Sparse => self.sparse_n,
        }
    }
}

#[derive(Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// How long the untraced pass measures; the traced pass scales its
    /// repetitions with it.
    pub seconds: f64,
    pub quick: bool,
}

/// One reported number, with the samples behind it when it summarises some.
pub struct Metric {
    pub value: f64,
    pub summary: Option<Summary>,
}

/// Operations attempted and failed. An operation is one CLI run or one
/// in-process solve; it fails on a bad exit, a timeout, output that differs
/// from the oracle, or a missed workload precondition.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    failed: u64,
    precondition_missed: bool,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    fn note(&mut self, what: &str, why: String) {
        if self.messages.len() < 8 {
            self.messages.push(format!("{what}: {why}"));
        }
    }

    /// Count one operation: `outcome` is its exit and oracle result,
    /// `precondition` whether it took the path the workload names.
    fn operation(
        &mut self,
        what: &str,
        outcome: Result<(), String>,
        precondition: Result<(), String>,
    ) -> bool {
        self.attempted += 1;
        let ok = outcome.is_ok() && precondition.is_ok();
        if !ok {
            self.failed += 1;
        }
        if let Err(why) = outcome {
            self.note(what, why);
        }
        if let Err(why) = precondition {
            self.precondition(what, Err(why));
        }
        ok
    }

    fn precondition(&mut self, what: &str, result: Result<(), String>) {
        if let Err(why) = result {
            self.precondition_missed = true;
            self.note(what, format!("precondition missed: {why}"));
        }
    }

    /// A missed precondition fails every run of the workload: the benchmark
    /// never reports times of a path the workload does not name.
    pub fn failed(&self) -> u64 {
        if self.precondition_missed {
            self.attempted
        } else {
            self.failed
        }
    }
}

/// What one pass over one workload produced.
pub struct Pass {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, Metric>,
    /// The solver that ran, for the record (`solver.chosen`).
    pub solver: String,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            tally: Tally::default(),
            metrics: BTreeMap::new(),
            solver: String::new(),
        }
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(
            name,
            Metric {
                value,
                summary: None,
            },
        );
    }

    fn put_summary(&mut self, name: &'static str, samples: &[f64], pick: fn(&Summary) -> f64) {
        let summary = Summary::of(samples);
        let value = summary.as_ref().map_or(f64::NAN, pick);
        self.metrics.insert(name, Metric { value, summary });
    }

    fn put_median(&mut self, name: &'static str, samples: &[f64]) {
        self.put_summary(name, samples, |s| s.median);
    }

    /// Report the fast decile of `samples` (see [`Summary::p10`]).
    fn put_p10(&mut self, name: &'static str, samples: &[f64]) {
        self.put_summary(name, samples, |s| s.p10);
    }
}

/// A generated input with everything needed to judge outputs against it.
struct Prepared {
    path: PathBuf,
    file_bytes: u64,
    /// The input as the program sees it: parsed back from the file.
    graph: Graph,
    oracle: Dist,
    oracle_tsv: Vec<u8>,
}

pub struct Runner<'a> {
    apsp: &'a Path,
    run_dir: &'a Path,
    pin: &'a child::Pin,
    settings: Settings,
    sizes: Sizes,
    /// Inputs already set up in this process, so that a traced pass after an
    /// untraced one, or a second workload on the same input, does not redo it.
    prepared: HashMap<InputKind, Rc<Prepared>>,
}

impl<'a> Runner<'a> {
    pub fn new(
        apsp: &'a Path,
        run_dir: &'a Path,
        pin: &'a child::Pin,
        settings: Settings,
    ) -> Runner<'a> {
        let sizes = if settings.quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        };
        Runner {
            apsp,
            run_dir,
            pin,
            settings,
            sizes,
            prepared: HashMap::new(),
        }
    }

    pub fn sizes(&self) -> Sizes {
        self.sizes
    }

    /// Generate the input from the seed, write its file, and compute the
    /// oracle and the bytes a correct `--out` file holds. Returns the seconds
    /// that took: this is `setup_s`.
    fn set_up(&mut self, kind: InputKind) -> Result<f64, String> {
        let n = self.sizes.n(kind);
        let path = self.run_dir.join(format!(
            "{}-n{n}-seed{}.gr",
            kind.name(),
            self.settings.seed
        ));
        let t0 = Instant::now();
        let generated = layers::generate(kind, n, self.settings.seed);
        layers::write_input(&generated, &path)?;
        let oracle = layers::oracle(&generated);
        let oracle_tsv = layers::tsv(&oracle);
        let secs = t0.elapsed().as_secs_f64();
        drop(generated);
        let file_bytes = std::fs::metadata(&path)
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        let graph = layers::read_input(&path)?;
        self.prepared.insert(
            kind,
            Rc::new(Prepared {
                path,
                file_bytes,
                graph,
                oracle,
                oracle_tsv,
            }),
        );
        Ok(secs)
    }

    fn prepared(&mut self, kind: InputKind) -> Result<Rc<Prepared>, String> {
        if !self.prepared.contains_key(&kind) {
            self.set_up(kind)?;
        }
        Ok(Rc::clone(&self.prepared[&kind]))
    }

    /// One `apsp solve --input F <flags> --out O`, judged: exit, output bytes
    /// against the oracle, and the path it says it took.
    fn cli_run(
        &self,
        config: Config,
        input: &Prepared,
        chosen: Option<&str>,
        tally: &mut Tally,
    ) -> Result<Option<child::Exit>, String> {
        let out = self.run_dir.join("out.tsv");
        let _ = std::fs::remove_file(&out);
        let mut cmd = layers::cli_solve(self.apsp, config, input.graph.n(), &input.path, &out);
        // the out-of-core store goes to the temp dir: keep it in the checkout
        cmd.env("TMPDIR", self.run_dir);
        let exit = child::run(&mut cmd, &self.run_dir.join("stdout.txt"), CHILD_TIMEOUT)?;
        let outcome = if !exit.ok {
            Err(format!(
                "exited badly or timed out after {:.1} s",
                exit.wall_s
            ))
        } else if std::fs::read(&out).map_or(true, |bytes| bytes != input.oracle_tsv) {
            Err("--out file differs from the oracle's".to_string())
        } else {
            Ok(())
        };
        let ok = tally.operation(
            "cli",
            outcome,
            layers::check_cli_stdout(config, &exit.stdout, chosen),
        );
        Ok(ok.then_some(exit))
    }

    /// One in-process solve, judged element-wise against the oracle.
    fn judged(
        tally: &mut Tally,
        what: &str,
        solved: Result<layers::Solved, String>,
        oracle: &Dist,
        precondition: Option<Config>,
    ) -> Option<layers::Solved> {
        match solved {
            Err(why) => {
                tally.operation(what, Err(why), Ok(()));
                None
            }
            Ok(solved) => {
                let outcome = if layers::same(&solved.dist, oracle) {
                    Ok(())
                } else {
                    Err("distances differ from the oracle".to_string())
                };
                let pre =
                    precondition.map_or(Ok(()), |config| layers::check_solved(config, &solved));
                tally.operation(what, outcome, pre).then_some(solved)
            }
        }
    }

    /// The untraced pass: every end-to-end metric of `workload`.
    pub fn untraced(&mut self, workload: Workload) -> Result<Pass, String> {
        let config = Config::of(workload);
        let kind = config.input();
        let mut pass = Pass::new();

        // Set-up is timed before, halfway through and after the measuring
        // loop: three set-ups back to back sit inside one burst of machine
        // noise, and their median then moves by 30–50 % from run to run.
        let setups = if self.settings.quick { 1 } else { SETUPS };
        let mut setup_samples = vec![self.set_up(kind)?];
        let input = self.prepared(kind)?;
        pass.tally
            .precondition("input", layers::check_input(config, &input.graph));
        let chosen = layers::plan(config, layers::profile(&input.graph)).chosen;

        let min_reps = if self.settings.quick { 2 } else { MIN_REPS };

        // one warm-up each, judged like the rest but not timed
        self.cli_run(config, &input, chosen, &mut pass.tally)?;
        Self::judged(
            &mut pass.tally,
            "solve",
            layers::solve(config, &input.graph),
            &input.oracle,
            Some(config),
        );

        // CLI runs and library solves alternate until `--seconds` is used, so
        // that the samples of both metrics span the whole window and a burst
        // of machine noise cannot land on one metric alone
        let (mut e2e, mut rss, mut solve) = (Vec::new(), Vec::new(), Vec::new());
        let window = Duration::from_secs_f64(self.settings.seconds);
        let t0 = Instant::now();
        let mut rounds = 0;
        while rounds < min_reps || t0.elapsed() < window {
            if setup_samples.len() == 1 && setups > 2 && t0.elapsed() >= window / 2 {
                setup_samples.push(self.set_up(kind)?);
            }
            // file to file: the child process, spawn to exit
            let t_cli = Instant::now();
            if let Some(exit) = self.cli_run(config, &input, chosen, &mut pass.tally)? {
                e2e.push(exit.wall_s);
                rss.extend(exit.peak_rss_mb);
            }
            // the library solve on the already loaded graph, the paper's own
            // time-to-solution: as many as fit the time the CLI run took
            let budget = t_cli.elapsed();
            let t_solves = Instant::now();
            loop {
                let t = Instant::now();
                let solved = layers::solve(config, &input.graph);
                let secs = t.elapsed().as_secs_f64();
                if let Some(solved) = Self::judged(
                    &mut pass.tally,
                    "solve",
                    solved,
                    &input.oracle,
                    Some(config),
                ) {
                    solve.push(secs);
                    pass.solver = solved.solver.to_string();
                }
                if t_solves.elapsed() >= budget {
                    break;
                }
            }
            rounds += 1;
        }
        while setup_samples.len() < setups {
            setup_samples.push(self.set_up(kind)?);
        }
        pass.put_median(spec::SETUP_S, &setup_samples);
        pass.put_p10(spec::E2E_S, &e2e);
        pass.put_p10(spec::PEAK_RSS_MB, &rss);
        pass.put_p10(spec::SOLVE_S, &solve);
        Ok(pass)
    }

    /// The traced pass: every per-layer metric, and the spans behind them.
    pub fn traced(&mut self, workload: Workload) -> Result<(Pass, Recorder), String> {
        let mut pass = Pass::new();
        let mut rec = Recorder::new(workload.name());
        let reps = if self.settings.quick {
            1
        } else {
            ((self.settings.seconds / 2.0) as usize).clamp(3, 9)
        };
        let dense = self.prepared(InputKind::Dense)?;
        let sparse = self.prepared(InputKind::Sparse)?;
        let own = self.prepared(Config::of(workload).input())?;
        let root = format!("workload:{}", workload.name());
        let (result, _) = rec.span(&root, |rec| -> Result<(), String> {
            self.pipeline(workload, &own, reps, rec, &mut pass)?;
            rec.span("probes", |rec| -> Result<(), String> {
                let kernel_gflops = probe_kernel(self.sizes.dense_n, rec, &mut pass);
                probe_fw_blocked(&dense, reps, kernel_gflops, self.pin, rec, &mut pass)?;
                probe_solvers(&dense, reps, rec, &mut pass);
                probe_quant(&dense, reps, rec, &mut pass)?;
                probe_dist(&dense, reps, rec, &mut pass);
                probe_sparse(&sparse, reps, rec, &mut pass);
                Ok(())
            })
            .0
        });
        result?;
        Ok((pass, rec))
    }

    /// The workload's own path in pieces: the CLI run as a whole, then the
    /// calls it is made of. Pipeline repetitions alternate between a recording
    /// and a silent recorder; their ratio is the tracing overhead.
    fn pipeline(
        &self,
        workload: Workload,
        input: &Prepared,
        reps: usize,
        rec: &mut Recorder,
        pass: &mut Pass,
    ) -> Result<(), String> {
        let config = Config::of(workload);
        pass.tally
            .precondition("input", layers::check_input(config, &input.graph));
        let chosen = layers::plan(config, layers::profile(&input.graph)).chosen;

        let mut e2e = Vec::new();
        for rep in 0..=reps.min(3) {
            let (exit, _) = rec.span("cli.solve", |_| {
                self.cli_run(config, input, chosen, &mut pass.tally)
            });
            // rep 0 warms the page cache
            if let (Some(exit), true) = (exit?, rep > 0) {
                e2e.push(exit.wall_s);
            }
        }

        let mut stages: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut overhead = Vec::new();
        let mut forecast = f64::NAN;
        for rep in 0..reps {
            let mut wall = [0.0; 2];
            // alternate which side of the pair goes first
            for side in [rep % 2, 1 - rep % 2] {
                let tracing = side == 1;
                rec.set_enabled(tracing);
                let (run, secs) = rec.span("pipeline", |rec| -> Result<_, String> {
                    let (graph, read) =
                        rec.span("graph.read_dimacs", |_| layers::read_input(&input.path));
                    let graph = graph?;
                    let (profile, profile_s) =
                        rec.span("solver.profile", |_| layers::profile(&graph));
                    let (plan, plan_s) = rec.span("solver.plan", |_| layers::plan(config, profile));
                    let (_, to_dense) =
                        rec.span("graph.to_dense", |_| black_box(layers::to_dense(&graph)));
                    let (solved, solve) = rec.span("solve", |_| layers::solve(config, &graph));
                    Ok((
                        plan,
                        solved,
                        [
                            ("read", read),
                            ("profile", profile_s),
                            ("plan", plan_s),
                            ("to_dense", to_dense),
                            ("solve", solve),
                        ],
                    ))
                });
                rec.set_enabled(true);
                wall[side] = secs;
                let (plan, solved, timings) = run?;
                let solved = Self::judged(
                    &mut pass.tally,
                    "solve",
                    solved,
                    &input.oracle,
                    Some(config),
                );
                if let (Some(solved), true) = (solved, tracing) {
                    for (stage, secs) in timings {
                        stages.entry(stage).or_default().push(secs);
                    }
                    forecast = layers::forecast_s(&plan, solved.solver).unwrap_or(f64::NAN);
                    pass.solver = solved.solver.to_string();
                }
            }
            overhead.push(wall[1] / wall[0] - 1.0);
        }
        let stage = |name: &str| stages.get(name).map_or(f64::NAN, |s| median(s));
        let (read, solve) = (stage("read"), stage("solve"));
        pass.put("cli.other_s", median(&e2e) - read - solve);
        pass.put("cli.out_mb", input.oracle_tsv.len() as f64 / 1e6);
        pass.put("graph.read_dimacs_s", read);
        pass.put("graph.read_mb_per_s", input.file_bytes as f64 / 1e6 / read);
        pass.put("graph.to_dense_s", stage("to_dense"));
        pass.put("solver.profile_s", stage("profile"));
        pass.put("solver.plan_s", stage("plan"));
        pass.put(
            "solver.profile_plan_frac",
            (stage("profile") + stage("plan")) / solve,
        );
        pass.put("solver.forecast_err_frac", (forecast - solve).abs() / solve);
        pass.put_median("trace.overhead_frac", &overhead);
        Ok(())
    }
}

/// Median seconds of `reps` calls of `f`, each inside a span, after one
/// unrecorded warm-up call.
fn timed(rec: &mut Recorder, name: &str, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps).map(|_| rec.span(name, |_| f()).1).collect();
    median(&samples)
}

/// The packed kernel alone, on one thread: square f32 and u16 products, the
/// rank-`BLOCK` shape of FW's OuterUpdate, and packing that update's panel.
/// Returns the square f32 rate, the yardstick for `fw_blocked.kernel_frac`.
fn probe_kernel(dense_n: usize, rec: &mut Recorder, pass: &mut Pass) -> f64 {
    let n = KERNEL_N;
    let mut square = layers::GemmProbeF32::new(n, n, n, f32::from);
    let gflops = square.flops()
        / timed(rec, "srgemm.gemm_packed.f32", KERNEL_REPS, || {
            square.packed()
        })
        / 1e9;
    pass.put("srgemm.packed_f32_gflops", gflops);

    let mut square = layers::GemmProbeU16::new(n, n, n, |x| x);
    let secs = timed(rec, "srgemm.gemm_packed.u16", KERNEL_REPS, || {
        square.packed()
    });
    pass.put("srgemm.packed_u16_gflops", square.flops() / secs / 1e9);

    let mut outer = layers::GemmProbeF32::new(dense_n, dense_n, layers::BLOCK, f32::from);
    let secs = timed(rec, "srgemm.gemm_packed_with_b.outer", KERNEL_REPS, || {
        outer.with_packed_b()
    });
    pass.put("srgemm.outer_f32_gflops", outer.flops() / secs / 1e9);
    // one pack takes tens of microseconds: time batches of them
    const BATCH: usize = 64;
    let secs = timed(rec, "srgemm.pack_b", KERNEL_REPS, || {
        (0..BATCH).for_each(|_| outer.pack_b())
    });
    pass.put(
        "srgemm.pack_b_gbps",
        outer.b_bytes() * BATCH as f64 / secs / 1e9,
    );
    gflops
}

/// Direct `fw_blocked`, serial against parallel in alternation, and the
/// serial run's flop rate as a share of the kernel's. The only probe that
/// leaves the one CPU: a parallel speed-up needs the others.
fn probe_fw_blocked(
    dense: &Prepared,
    reps: usize,
    kernel_gflops: f64,
    pin: &child::Pin,
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<(), String> {
    let seed_matrix = layers::to_dense(&dense.graph);
    let (mut serial, mut speedup) = (Vec::new(), Vec::new());
    pin.released(|| {
        for _ in 0..reps {
            let mut run = |name: &str, par: bool| {
                let mut d = seed_matrix.clone();
                let (_, secs) = rec.span(name, |_| layers::fw_blocked_f32(&mut d, par));
                let outcome = if layers::same(&d, &dense.oracle) {
                    Ok(())
                } else {
                    Err("distances differ from the oracle".to_string())
                };
                pass.tally.operation(name, outcome, Ok(()));
                secs
            };
            let s = run("fw_blocked.serial", false);
            let p = run("fw_blocked.parallel", true);
            serial.push(s);
            speedup.push(s / p);
        }
    })?;
    let n = dense.graph.n() as f64;
    let serial_s = median(&serial);
    pass.put("fw_blocked.serial_s", serial_s);
    pass.put("fw_blocked.par_speedup", median(&speedup));
    pass.put(
        "fw_blocked.kernel_frac",
        2.0 * n * n * n / serial_s / 1e9 / kernel_gflops,
    );
    Ok(())
}

/// Every dense solver configuration against in-memory blocked FW, timed as
/// interleaved sets in one loop so that each ratio is same-run.
fn probe_solvers(dense: &Prepared, reps: usize, rec: &mut Recorder, pass: &mut Pass) {
    let g = &dense.graph;
    let direct = |g: &Graph| {
        let mut d = layers::to_dense(g);
        // confined to one CPU, the solver layer runs `fw_blocked` serially too
        layers::fw_blocked_f32(&mut d, false);
        Ok(layers::Solved {
            dist: d,
            solver: "fw_blocked",
            chosen: None,
        })
    };
    type Run<'a> = (
        &'static str,
        Box<dyn Fn(&Graph) -> Result<layers::Solved, String> + 'a>,
    );
    let runs: [Run; 6] = [
        ("blocked", Box::new(|g| layers::solve(Config::Blocked, g))),
        ("direct", Box::new(direct)),
        ("ooc", Box::new(|g| layers::solve(Config::OocAuto, g))),
        ("quant", Box::new(|g| layers::solve(Config::Quant, g))),
        ("dist_co", Box::new(|g| layers::solve(Config::DistCo, g))),
        (
            "dist_come",
            Box::new(|g| layers::solve(Config::DistCoMe, g)),
        ),
    ];
    let mut secs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for rep in 0..reps {
        // rotate the order so that no configuration always follows the same one
        for i in 0..runs.len() {
            let (name, run) = &runs[(i + rep) % runs.len()];
            let (solved, s) = rec.span(&format!("solve.{name}"), |_| run(g));
            Runner::judged(&mut pass.tally, name, solved, &dense.oracle, None);
            secs.entry(name).or_default().push(s);
        }
    }
    let ratio = |num: &str, den: &str| {
        let pairs: Vec<f64> = secs[num]
            .iter()
            .zip(&secs[den])
            .map(|(a, b)| a / b)
            .collect();
        median(&pairs)
    };
    pass.put(
        "solver.adapter_overhead_frac",
        ratio("blocked", "direct") - 1.0,
    );
    pass.put("ooc.vs_blocked", ratio("ooc", "blocked"));
    pass.put("quant.vs_blocked", ratio("quant", "blocked"));
    pass.put("dist.vs_blocked", ratio("dist_co", "blocked"));
    pass.put("gpu_sim.offload_vs_incore", ratio("dist_come", "dist_co"));
}

/// The steps the `quant` solver adds around the u16 kernel.
fn probe_quant(
    dense: &Prepared,
    reps: usize,
    rec: &mut Recorder,
    pass: &mut Pass,
) -> Result<(), String> {
    let g = &dense.graph;
    let (scale, elem_bytes) = layers::quant_plan(g)?;
    pass.put(
        "quant.plan_s",
        timed(rec, "quant.plan", reps, || {
            drop(black_box(layers::quant_plan(g)))
        }),
    );
    pass.put(
        "quant.quantize_s",
        timed(rec, "quant.quantize", reps, || {
            drop(black_box(layers::quantize_u16(g, scale)))
        }),
    );
    let q = layers::quantize_u16(g, scale);
    pass.put(
        "quant.dequantize_s",
        timed(rec, "quant.dequantize", reps, || {
            drop(black_box(layers::dequantize_u16(&q, scale)))
        }),
    );
    pass.put("quant.elem_bytes", elem_bytes as f64);
    Ok(())
}

/// The distributed driver, traced against untraced: where its rank time
/// goes by phase, what tracing costs, and the exact traffic counts.
fn probe_dist(dense: &Prepared, reps: usize, rec: &mut Recorder, pass: &mut Pass) {
    let seed_matrix = layers::to_dense(&dense.graph);
    let mut overhead = Vec::new();
    let mut counts: Option<(u64, u64)> = None;
    let mut phases: Vec<(String, u64)> = Vec::new();
    for _ in 0..reps {
        let mut wall = [0.0; 2];
        for traced in [false, true] {
            let name = if traced {
                "dist.traced"
            } else {
                "dist.untraced"
            };
            let (run, secs) = rec.span(name, |_| layers::dist_co(&seed_matrix, traced));
            wall[traced as usize] = secs;
            let outcome = run.and_then(|run| {
                if traced {
                    phases = run.phase_wall_us;
                }
                let these = (run.nic_bytes, run.total_msgs);
                if !layers::same(&run.dist, &dense.oracle) {
                    Err("distances differ from the oracle".to_string())
                } else if *counts.get_or_insert(these) != these {
                    Err(format!(
                        "traffic counts changed between runs: {counts:?} then {these:?}"
                    ))
                } else {
                    Ok(())
                }
            });
            pass.tally.operation(name, outcome, Ok(()));
        }
        overhead.push(wall[1] / wall[0] - 1.0);
    }
    let total: u64 = phases
        .iter()
        .filter(|(name, _)| spec::DIST_PHASES.contains(&name.as_str()))
        .map(|(_, us)| us)
        .sum();
    for m in spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("dist.phase_frac."))
    {
        let phase = &m.name["dist.phase_frac.".len()..];
        let us = phases
            .iter()
            .find(|(name, _)| name == phase)
            .map_or(0, |(_, us)| *us);
        pass.put(m.name, us as f64 / total as f64);
    }
    pass.put_median("dist.trace_overhead_frac", &overhead);
    let (nic_bytes, total_msgs) = counts.unwrap_or((0, 0));
    pass.put("mpi_sim.nic_bytes", nic_bytes as f64);
    pass.put("mpi_sim.total_msgs", total_msgs as f64);
}

/// `auto` on the sparse input against the solver it picks, forced: what the
/// profile and the plan cost where the solve itself is shortest.
fn probe_sparse(sparse: &Prepared, reps: usize, rec: &mut Recorder, pass: &mut Pass) {
    let g = &sparse.graph;
    let Some(pick) = layers::plan(Config::Auto, layers::profile(g)).chosen else {
        pass.tally.operation(
            "plan",
            Err("the planner chose nothing on the sparse input".to_string()),
            Ok(()),
        );
        return;
    };
    let (mut forced, mut overhead) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let mut wall = [0.0; 2];
        for side in [rep % 2, 1 - rep % 2] {
            let (name, solved, secs) = if side == 1 {
                let (solved, secs) = rec.span("solve.auto", |_| layers::solve(Config::Auto, g));
                ("solve.auto", solved, secs)
            } else {
                let (solved, secs) = rec.span("solve.forced", |_| layers::solve_forced(pick, g));
                ("solve.forced", solved, secs)
            };
            wall[side] = secs;
            Runner::judged(&mut pass.tally, name, solved, &sparse.oracle, None);
        }
        forced.push(wall[0]);
        overhead.push(wall[1] / wall[0] - 1.0);
    }
    pass.put_median("solver.auto_overhead_frac", &overhead);
    pass.put("graph.sssp_sources_per_s", g.n() as f64 / median(&forced));
}
