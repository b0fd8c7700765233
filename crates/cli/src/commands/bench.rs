//! `apsp bench` — the serve-layer load generator.
//!
//! Timings of the solvers and kernels come from the standalone package
//! under `benchmark/` (declared by `BENCHMARK.json`), not from this command.

const HELP: &str = "apsp bench — load generator for 'apsp serve'

USAGE:
    apsp bench serve-load [--n N] [--readers R] [--batch B] [--batches K]
                          [--update-batch U] [--bad-input] [--seed S]
                          [--connect ADDR] [--out FILE]

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
    --out FILE       write the report as one flat JSON object; '-' for stdout

Solver and kernel timings come from the benchmark package:
    cargo run --release --manifest-path benchmark/Cargo.toml -- run";

/// Entry point for `apsp bench`.
pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    match args.first().map(String::as_str) {
        Some("serve-load") => run_serve_load(&args[1..]),
        _ => Err("usage: apsp bench serve-load [OPTIONS] (see 'apsp bench --help'); timings come from \
                  'cargo run --release --manifest-path benchmark/Cargo.toml -- run'"
            .to_string()),
    }
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
    let (report, transport) = match args.opt_str("connect") {
        Some(addr) => (serve_load::run_tcp(addr, &cfg)?, "tcp"),
        None => (serve_load::run_inproc(&cfg), "inproc"),
    };
    eprint!("{}", report.render());
    if let Some(out) = args.opt_str("out") {
        let text = report.to_json(transport);
        if out == "-" {
            print!("{text}");
        } else {
            std::fs::write(out, &text).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("serve-load: wrote {out}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::run;

    #[test]
    fn the_retired_suite_verbs_are_usage_errors_that_say_where_timings_come_from() {
        for argv in [&["run"][..], &["compare", "a", "b"][..], &[][..]] {
            let args: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let err = run(&args).expect_err("not a subcommand");
            assert!(err.contains("serve-load") && err.contains("benchmark/"), "{err}");
        }
    }
}
