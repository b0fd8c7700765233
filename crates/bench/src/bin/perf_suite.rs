//! Wall-clock perf suite runner + regression comparator.
//!
//! ```text
//! perf_suite run [--quick] [--reps N] [--out FILE]
//! perf_suite compare OLD.json NEW.json [--threshold PCT] [--report-only]
//! ```
//!
//! `run` measures the GEMM kernels (incl. the headline packed-vs-blocked
//! entry and the quantized u16 packed lanes), blocked FW, the 2×2×2
//! distributed policy cube, the headline baseline-vs-budgeted distributed
//! run, and the quantized end-to-end solve, and writes the
//! `apsp-bench-perf/1` JSON to `--out` (default `BENCH_PR10.json`; `-` for
//! stdout). Progress goes to stderr.
//!
//! `compare` diffs two suite files by entry name and exits non-zero when
//! any benchmark regressed by more than the threshold (default 15%), unless
//! `--report-only` is given (CI smoke uses that to validate the artifact
//! without gating on a noisy runner).

use std::process::ExitCode;

use apsp_bench::json::Json;
use apsp_bench::perf::{self, Mode, Report};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  perf_suite run [--quick] [--reps N] [--out FILE]\n  \
         perf_suite compare OLD.json NEW.json [--threshold PCT] [--report-only]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => usage(),
    }
}

fn run(args: &[String]) -> ExitCode {
    let mut mode = Mode::Full;
    let mut reps = 3usize;
    let mut out = "BENCH_PR10.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => mode = Mode::Quick,
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => reps = v,
                None => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out = v.clone(),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let report = perf::run_suite(mode, reps);
    let text = report.to_json().pretty();
    if out == "-" {
        print!("{text}");
    } else if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("perf_suite: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    } else {
        eprintln!("[perf] wrote {} entries to {out}", report.entries.len());
    }
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Report::from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

fn compare(args: &[String]) -> ExitCode {
    let mut threshold = perf::DEFAULT_THRESHOLD;
    let mut report_only = false;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(pct) => threshold = pct / 100.0,
                None => return usage(),
            },
            "--report-only" => report_only = true,
            other if !other.starts_with('-') => files.push(other.to_string()),
            _ => return usage(),
        }
    }
    let [old_path, new_path] = files.as_slice() else {
        return usage();
    };
    let (old, new) = match (load(old_path), load(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cmp = match perf::compare(&old, &new, threshold) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", cmp.render());
    if cmp.has_regressions() {
        eprintln!(
            "perf_suite: regressions beyond {:.0}% detected{}",
            threshold * 100.0,
            if report_only { " (report-only: not failing)" } else { "" }
        );
        if !report_only {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
