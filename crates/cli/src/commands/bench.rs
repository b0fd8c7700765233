//! `apsp bench` — run the wall-clock perf suite or diff two suite files.
//!
//! Thin passthrough to `apsp_bench::perf`: the same engine behind the
//! standalone `perf_suite` binary, reachable from the one CLI users already
//! have on their path.

use apsp_bench::json::Json;
use apsp_bench::perf::{self, Mode, Report};

const HELP: &str = "apsp bench — wall-clock perf suite and regression comparator

USAGE:
    apsp bench run [--quick] [--reps N] [--out FILE]
    apsp bench compare <OLD.json> <NEW.json> [--threshold PCT] [--report-only]
    apsp bench serve-load [--n N] [--readers R] [--batch B] [--batches K]
                          [--update-batch U] [--bad-input] [--seed S]
                          [--connect ADDR] [--out FILE]

RUN OPTIONS:
    --quick          CI-smoke sizes (seconds); default is the full suite
    --reps N         repetitions per entry, wall_s is the minimum [default: 3]
    --out FILE       output path [default: BENCH_PR10.json]; '-' for stdout

COMPARE OPTIONS:
    --threshold PCT  regression threshold in percent [default: 15]
    --report-only    print the diff but never fail the exit code

SERVE-LOAD OPTIONS:
    --n N            vertices for the in-process engine [default: 256]
    --readers R      concurrent reader threads/connections [default: 4]
    --batch B        queries per dist batch [default: 32]
    --batches K      batches per reader [default: 200]
    --update-batch U edge decreases per writer batch [default: 4]
    --bad-input      mix malformed updates in; require typed rejections
    --seed S         traffic RNG seed [default: 42]
    --connect ADDR   drive a running 'apsp serve --listen ADDR' over TCP
                     instead of an in-process engine
    --out FILE       write serve/* entries as apsp-bench-perf/1 JSON

The suite measures the GEMM kernels (naive/blocked/packed/parallel x
f32/f64), the headline packed-vs-blocked GEMM (baseline_wall_s vs wall_s),
the quantized u16 packed lanes against packed f32, blocked
Floyd-Warshall, the quantized end-to-end solve against f32 blocked FW,
distributed_apsp at all 8 corners of the (schedule x bcast x exec) cube,
the headline distributed run with its serial-OuterUpdate baseline
(baseline_wall_s vs wall_s), the solver planner picks, and the serve-layer
load generator (p50/p99 batched-query latency and epoch lag under update
pressure). Entries record their element dtype; the comparator refuses
cross-dtype joins.";

/// Entry point for `apsp bench`.
pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("run") => run_suite(&args[1..]),
        Some("compare") => run_compare(&args[1..]),
        Some("serve-load") => run_serve_load(&args[1..]),
        _ => Err("usage: apsp bench <run|compare|serve-load> (see 'apsp bench --help')".to_string()),
    }
}

fn run_suite(args: &[String]) -> Result<(), String> {
    let mut mode = Mode::Full;
    let mut reps = 3usize;
    let mut out = "BENCH_PR10.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--reps needs a positive integer")?;
            }
            "--out" => out = it.next().ok_or("--out needs a path")?.clone(),
            other => return Err(format!("unknown option '{other}' for bench run")),
        }
    }
    let report = perf::run_suite(mode, reps);
    let text = report.to_json().pretty();
    if out == "-" {
        print!("{text}");
    } else {
        std::fs::write(&out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("[perf] wrote {} entries to {out}", report.entries.len());
    }
    Ok(())
}

fn run_serve_load(argv: &[String]) -> Result<(), String> {
    use apsp_bench::serve_load::{self, LoadCfg};
    let args = crate::args::Args::parse(argv)?;
    let cfg = LoadCfg {
        n: args.opt("n", 256)?,
        readers: args.opt("readers", 4)?,
        batch: args.opt("batch", 32)?,
        batches_per_reader: args.opt("batches", 200)?,
        update_batch: args.opt("update-batch", 4)?,
        bad_input: args.has_flag("bad-input"),
        seed: args.opt("seed", 42)?,
    };
    if cfg.readers == 0 || cfg.batch == 0 || cfg.batches_per_reader == 0 {
        return Err("--readers, --batch and --batches must be positive".into());
    }
    let (report, suffix) = match args.opt_str("connect") {
        Some(addr) => (serve_load::run_tcp(addr, &cfg)?, "/tcp"),
        None => (serve_load::run_inproc(&cfg), ""),
    };
    eprint!("{}", report.render());
    if let Some(out) = args.opt_str("out") {
        let text = report.to_json(suffix).pretty();
        if out == "-" {
            print!("{text}");
        } else {
            std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("serve-load: wrote {out}");
        }
    }
    Ok(())
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Report::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(args: &[String]) -> Result<(), String> {
    let mut threshold = perf::DEFAULT_THRESHOLD;
    let mut report_only = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let pct: f64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number (percent)")?;
                threshold = pct / 100.0;
            }
            "--report-only" => report_only = true,
            other if !other.starts_with('-') => files.push(other.to_string()),
            other => return Err(format!("unknown option '{other}' for bench compare")),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return Err("bench compare needs exactly two suite files".to_string());
    };
    let cmp = perf::compare(&load(old_path)?, &load(new_path)?, threshold)?;
    print!("{}", cmp.render());
    if cmp.has_regressions() && !report_only {
        return Err(format!("regressions beyond {:.0}% detected", threshold * 100.0));
    }
    if cmp.has_regressions() {
        eprintln!(
            "bench: regressions beyond {:.0}% detected (report-only: not failing)",
            threshold * 100.0
        );
    }
    Ok(())
}
