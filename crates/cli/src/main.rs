//! `apsp` — command-line front end for the APSP-FW workspace.
//!
//! ```text
//! apsp generate --kind dense --n 512 --seed 7 --out g.gr
//! apsp solve    --input g.gr --algo auto --block 64 --out dist.tsv
//! apsp plan     --input g.gr
//! apsp route    --input g.gr --from 0 --to 99
//! apsp serve    --input g.gr --listen 127.0.0.1:4711
//! apsp simulate --nodes 64 --n 300000 --variant async
//! apsp info     --input g.gr
//! apsp bench    serve-load --n 256 --readers 4 --out serve.json
//! ```
//!
//! Run `apsp help` (or any subcommand with `--help`) for details.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let cmd = argv.first().map(String::as_str).unwrap_or("help");
    let rest = &argv[1.min(argv.len())..];
    match cmd {
        "generate" => commands::generate::run(rest),
        "solve" => commands::solve::run(rest),
        "plan" => commands::plan::run(rest),
        "route" => commands::route::run(rest),
        "serve" => commands::serve::run(rest),
        "simulate" => commands::simulate::run(rest),
        "info" => commands::info::run(rest),
        "bench" => commands::bench::run(rest),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command '{other}' (try 'apsp help')")),
    }
}

fn print_help() {
    println!(
        "apsp — all-pairs shortest paths (HPDC'21 Floyd-Warshall reproduction)

USAGE:
    apsp <COMMAND> [OPTIONS]

COMMANDS:
    generate   create a graph (dense/er/grid/ring/geometric) and write it to a file
    solve      compute APSP distances with a chosen algorithm (or --algo auto)
    plan       profile a graph and explain which solver 'auto' would pick
    route      print the shortest route between two vertices
    serve      serve distance/path queries with streaming updates (stdin/TCP)
    simulate   predict a run on the calibrated Summit model
    info       print statistics of a graph file
    bench      drive load against the serve layer (serve-load)
    help       this message

Graph files: DIMACS .gr ('--format dimacs', default for *.gr) or
0-based edge lists ('--format edges'). See 'apsp <cmd> --help'."
    );
}
