//! The repo's benchmark. One command builds the CLI, makes the inputs from a
//! seed, runs the workloads, checks every output against an oracle, and
//! prints every metric by name with its unit. See `benchmark/README.md`.

mod child;
mod env;
mod json;
mod layers;
mod runner;
mod span;
mod spec;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use json::Json;
use runner::{Metric, Pass, Runner, Settings};
use spec::{Better, Workload};

const USAGE: &str = "\
usage: apsp-benchmark run          [--workload W] [--seed S] [--seconds T] [--trace 0|1] [--quick]
       apsp-benchmark check-repeat [--seed S] [--seconds T] [--quick]

run            without --trace: both passes of every workload (or of W), every
               metric printed, benchmark/out/results.json and one Chrome trace per
               workload written.
               with --trace (needs --workload): one pass, and as the last line of
               standard output one JSON object with the end-to-end metrics
               (--trace 0) or the per-layer metrics (--trace 1).
check-repeat   runs the suite twice; fails if an end-to-end median moves by more
               than its bound or an exact count differs.
--seed S       regenerates the inputs (default 1)
--seconds T    how long the untraced pass measures per workload (default 10; with
               --quick only the minimum repetitions)
--quick        smoke test on small inputs; its numbers are not comparable";

struct Args {
    command: String,
    workload: Option<Workload>,
    seed: u64,
    /// `None`: 10 s, or only the minimum repetitions with `--quick`.
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let command = argv.first().cloned().ok_or("missing command")?;
    if command != "run" && command != "check-repeat" {
        return Err(format!("unknown command '{command}'"));
    }
    let mut args = Args {
        command,
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        quick: false,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--quick" => args.quick = true,
            "--workload" => {
                let name = value()?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                args.workload =
                    Some(Workload::from_name(name).ok_or_else(|| {
                        format!("unknown workload '{name}' (known: {})", known())
                    })?);
            }
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                let seconds: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                })
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if args.trace.is_some() && (args.workload.is_none() || args.command != "run") {
        return Err("--trace goes with `run --workload W`".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match execute(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark could not run: {why}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` when the benchmark ran but an output was wrong, a precondition
/// was missed or a repeat disagreed; `Err` when it could not run at all.
fn execute(args: &Args) -> Result<bool, String> {
    let root = env::repo_root();
    env::check_profile_parity(&root)?;
    let apsp = env::build_cli(&root)?;
    let run_dir = env::RunDir::create(&root)?;
    // the out-of-core solver stages its tiles in the temp dir: keep that, for
    // the in-process solves too, inside the checkout
    std::env::set_var("TMPDIR", run_dir.path());
    // after the build, which may use every CPU, and before anything is timed
    let pin = child::Pin::to_one_cpu()?;
    let seconds = args.seconds.unwrap_or(if args.quick { 0.0 } else { 10.0 });
    let settings = Settings {
        seed: args.seed,
        seconds,
        quick: args.quick,
    };
    let session = Session {
        root: &root,
        runner: Runner::new(&apsp, run_dir.path(), &pin, settings),
        settings,
        pin: &pin,
    };
    if args.quick {
        println!("*** --quick: a smoke test on small inputs; these numbers are NOT comparable with a full run ***");
    }
    match (args.command.as_str(), args.trace) {
        ("check-repeat", _) => check_repeat(session),
        (_, Some(traced)) => {
            let workload = args
                .workload
                .expect("parse_args ties --trace to --workload");
            driver_run(session, workload, traced)
        }
        _ => {
            let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            let mut session = session;
            Ok(session
                .run_suite(&workloads)?
                .iter()
                .all(WorkloadResult::correct))
        }
    }
}

/// The passes run on one workload: both for a person, one for the driver.
struct WorkloadResult {
    workload: Workload,
    untraced: Option<Pass>,
    traced: Option<Pass>,
}

impl WorkloadResult {
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        self.untraced.iter().chain(&self.traced)
    }

    fn attempted(&self) -> u64 {
        self.passes().map(|p| p.tally.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.passes().map(|p| p.tally.failed()).sum()
    }

    fn correct(&self) -> bool {
        self.failed() == 0
    }

    fn metric(&self, name: &str) -> Option<&Metric> {
        self.passes().find_map(|p| p.metrics.get(name))
    }
}

struct Session<'a> {
    root: &'a Path,
    runner: Runner<'a>,
    settings: Settings,
    pin: &'a child::Pin,
}

impl Session<'_> {
    fn out_path(&self, file: &str) -> std::path::PathBuf {
        self.root.join("benchmark/out").join(file)
    }

    fn write(&self, file: &str, json: &Json) -> Result<(), String> {
        let path = self.out_path(file);
        std::fs::write(&path, json.render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// Run the asked passes of one workload; the traced pass leaves its
    /// Chrome trace in `benchmark/out/trace-<workload>.json`.
    fn run_workload(
        &mut self,
        workload: Workload,
        untraced: bool,
        traced: bool,
    ) -> Result<WorkloadResult, String> {
        let untraced = untraced
            .then(|| self.runner.untraced(workload))
            .transpose()?;
        let traced = match traced {
            false => None,
            true => {
                let (pass, rec) = self.runner.traced(workload)?;
                self.write(
                    &format!("trace-{}.json", workload.name()),
                    &rec.to_chrome_json(),
                )?;
                Some(pass)
            }
        };
        Ok(WorkloadResult {
            workload,
            untraced,
            traced,
        })
    }

    /// The human-facing run: both passes of each workload, everything printed.
    fn run_suite(&mut self, workloads: &[Workload]) -> Result<Vec<WorkloadResult>, String> {
        let mut results = Vec::new();
        for &workload in workloads {
            println!(
                "\n== {} (seed {}) ==\n   {}",
                workload.name(),
                self.settings.seed,
                workload.why()
            );
            let result = self.run_workload(workload, true, true)?;
            print_workload(&result, self.runner.sizes());
            results.push(result);
        }
        self.write("results.json", &self.results_json(&results))?;
        println!(
            "\nwrote {} and one trace-<workload>.json per workload beside it",
            self.out_path("results.json").display()
        );
        Ok(results)
    }

    fn results_json(&self, results: &[WorkloadResult]) -> Json {
        let workloads = results.iter().map(|r| {
            Json::obj([
                ("name", Json::str(r.workload.name())),
                ("correct", Json::Bool(r.correct())),
                ("attempted", Json::Num(r.attempted() as f64)),
                ("failed", Json::Num(r.failed() as f64)),
                (
                    "failed_frac",
                    Json::Num(r.failed() as f64 / r.attempted().max(1) as f64),
                ),
                (
                    "solver.chosen",
                    Json::str(r.passes().map(|p| p.solver.as_str()).next().unwrap_or("")),
                ),
                (
                    "end_to_end",
                    r.untraced
                        .as_ref()
                        .map_or(Json::obj::<&str>([]), |p| metrics_json(&p.metrics)),
                ),
                (
                    "per_layer",
                    r.traced
                        .as_ref()
                        .map_or(Json::obj::<&str>([]), |p| metrics_json(&p.metrics)),
                ),
            ])
        });
        Json::obj([
            ("schema", Json::str("apsp-benchmark/1")),
            (
                "fingerprint",
                env::fingerprint(self.root, layers::dispatched_isa(), self.pin),
            ),
            ("seed", Json::Num(self.settings.seed as f64)),
            ("seconds", Json::Num(self.settings.seconds)),
            ("quick", Json::Bool(self.settings.quick)),
            ("workloads", Json::Arr(workloads.collect())),
        ])
    }
}

fn print_metric(name: &str, unit: &str, metric: &Metric) {
    match &metric.summary {
        Some(s) => println!(
            "  {name:<30} {:>14.6} {unit:<8} min {:.6}  p10 {:.6}  q1 {:.6}  median {:.6}  q3 {:.6}  max {:.6}  n {}",
            metric.value, s.min, s.p10, s.q1, s.median, s.q3, s.max, s.samples.len()
        ),
        None => println!("  {name:<30} {:>14.6} {unit}", metric.value),
    }
}

fn print_workload(result: &WorkloadResult, sizes: runner::Sizes) {
    println!("  -- end to end (untraced pass) --");
    for m in &spec::END_TO_END {
        if let Some(metric) = result.metric(m.name) {
            print_metric(m.name, m.unit, metric);
        }
    }
    let failed_frac = result.failed() as f64 / result.attempted().max(1) as f64;
    println!(
        "  {:<30} {failed_frac:>14.6} {:<8} {} of {} operations",
        "failed_frac",
        "ratio",
        result.failed(),
        result.attempted()
    );
    if let (Some(solve), Some(pass)) = (result.metric(spec::SOLVE_S), &result.untraced) {
        let n = sizes.n(layers::Config::of(result.workload).input()) as f64;
        println!(
            "  (n = {n}, solver '{}', {:.2} Gflop/s FW-equivalent = 2n^3 / solve_s)",
            pass.solver,
            2.0 * n * n * n / solve.value / 1e9
        );
    }
    println!("  -- per layer (traced pass) --");
    for m in &spec::PER_LAYER {
        if let Some(metric) = result.metric(m.name) {
            print_metric(m.name, m.unit, metric);
        }
    }
    for msg in result.passes().flat_map(|p| &p.tally.messages) {
        println!("  FAILED {msg}");
    }
}

fn metrics_json(metrics: &BTreeMap<&'static str, Metric>) -> Json {
    Json::obj(metrics.iter().map(|(name, m)| {
        let (unit, better) = spec::unit_and_direction(name);
        let mut fields = vec![
            ("value".to_string(), Json::Num(m.value)),
            ("unit".to_string(), Json::str(unit)),
            ("better".to_string(), Json::str(better.as_str())),
        ];
        if let Some(Json::Obj(summary)) = m.summary.as_ref().map(|s| s.to_json()) {
            fields.extend(summary);
        }
        (*name, Json::Obj(fields))
    }))
}

/// The run the driver asks for: one workload, one pass, and as the last line
/// of standard output the result object.
fn driver_run(mut session: Session, workload: Workload, traced: bool) -> Result<bool, String> {
    let result = session.run_workload(workload, !traced, traced)?;
    session.write(
        "results.json",
        &session.results_json(std::slice::from_ref(&result)),
    )?;
    for msg in result.passes().flat_map(|p| &p.tally.messages) {
        eprintln!("FAILED {msg}");
    }
    let names: Vec<&str> = if traced {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut metrics = Vec::new();
    for name in names {
        let value = result
            .metric(name)
            .map(|m| m.value)
            .filter(|v| v.is_finite());
        let value = value.ok_or_else(|| {
            format!(
                "{}: no measurement of {name} (all its operations failed?)",
                workload.name()
            )
        })?;
        metrics.push((
            name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(spec::unit_and_direction(name).0)),
            ]),
        ));
    }
    let line = Json::obj([
        ("correct", Json::Bool(result.correct())),
        ("attempted", Json::Num(result.attempted() as f64)),
        ("failed", Json::Num(result.failed() as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", line.render());
    Ok(result.correct())
}

/// Two runs of the suite on the same code must agree: every end-to-end
/// median within its own bound, the exact counts bit for bit.
fn check_repeat(mut session: Session) -> Result<bool, String> {
    let first = session.run_suite(&Workload::ALL)?;
    let second = session.run_suite(&Workload::ALL)?;
    let mut agree = first.iter().chain(&second).all(WorkloadResult::correct);
    println!("\n== check-repeat: second run against first ==");
    for (a, b) in first.iter().zip(&second) {
        for m in &spec::END_TO_END {
            let (Some(x), Some(y)) = (a.metric(m.name), b.metric(m.name)) else {
                continue;
            };
            let worse = match m.better {
                Better::Lower => y.value / x.value - 1.0,
                Better::Higher => x.value / y.value - 1.0,
            };
            // either run may be the slow one: the check is symmetric
            let moved = worse.max(1.0 / (1.0 + worse) - 1.0);
            let ok = moved <= m.bound;
            agree &= ok;
            println!(
                "  {:<16} {:<12} {:>11.6} -> {:>11.6} {:<3} moved {:>5.1} % (bound {:.0} %) {}",
                a.workload.name(),
                m.name,
                x.value,
                y.value,
                m.unit,
                moved * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "DISAGREES" }
            );
        }
        for name in spec::EXACT_COUNTS {
            let (Some(x), Some(y)) = (a.metric(name), b.metric(name)) else {
                continue;
            };
            let ok = x.value == y.value;
            agree &= ok;
            println!(
                "  {:<16} {:<12} {} -> {} {}",
                a.workload.name(),
                name,
                x.value,
                y.value,
                if ok { "ok" } else { "DIFFERS" }
            );
        }
    }
    println!(
        "{}",
        if agree {
            "check-repeat: the two runs agree"
        } else {
            "check-repeat: the two runs DISAGREE"
        }
    );
    Ok(agree)
}
