//! `apsp solve` — compute all-pairs shortest distances.
//!
//! Dispatch goes through the [`apsp_core::Registry`]: every algorithm is a
//! [`apsp_core::Solver`] adapter, `--algo auto` lets the planner pick, and
//! eligibility failures surface as typed, explained errors. `--trace` runs
//! the same command with an `apsp_trace` recorder installed on this thread,
//! from reading the input to writing `--out`.

use std::io::Write;
use std::time::Instant;

use apsp_core::model::fw_flops;
use apsp_core::{Registry, SolveOpts};

use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!(
            "apsp solve --input <FILE> [--algo {}|auto]
  --algo auto        profile the graph and let the planner pick (see 'apsp plan')
  --block <N>        block size for blocked/dc/ooc/dist (default 64)
  --threads <N>      cap worker threads (0 = all cores)
  --serial           shorthand for --threads 1
  --memory-budget <BYTES[k|m|g]>  working-set ceiling for planner eligibility
  --error-tolerance <EPS>  opt in to low-precision solves (--algo quant):
                     accept distances within ±EPS of exact (0 = only
                     provably exact quantizations)
  --out <FILE>       write the distance matrix as TSV (careful: n² values)
  --format <dimacs|edges>
  --trace <FILE>     record the command from read to --out: write Chrome
                     trace_events JSON (one track per thread; --algo dist
                     adds one per rank) and print the per-phase summary
  --pr <N> --pc <N>  process grid for --algo dist (default 2x2)
  --variant <baseline|pipelined|async|offload|come>  dist preset (default pipelined)
  --schedule <bulksync|lookahead>   override the iteration-schedule axis
  --bcast <tree|ring|ring:CHUNKS>   override the PanelBcast axis
  --exec <incore|offload>           override the OuterUpdate execution axis
  --recv-timeout <SECS>  deadlock-detection timeout for --algo dist receives
  --fault <SPEC>         inject a deterministic fault into the --algo dist run:
                         kill:<rank>@<send> | drop:<rank>@<n> |
                         delay:<rank>@<n>:<ms> | random:<seed>",
            Registry::with_all().names().join("|")
        );
        return Ok(());
    }
    let args = Args::parse(tokens)?;
    let Some(path) = args.opt_str("trace") else {
        return solve(&args);
    };
    let (solved, trace) = apsp_trace::record("main", || solve(&args));
    solved?;
    print!("{}", trace.summary());
    std::fs::write(path, trace.to_chrome_json()).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote trace to {path} (open in chrome://tracing or Perfetto)");
    Ok(())
}

/// The command itself: read, solve, report, write `--out` — under `read`,
/// the registry's spans and `write` when a recorder is installed.
fn solve(args: &Args) -> Result<(), String> {
    let algo: String = args.opt("algo", "blocked".to_string())?;
    if algo != "dist" && (args.opt_str("fault").is_some() || args.opt_str("recv-timeout").is_some()) {
        return Err(format!("--fault/--recv-timeout act on the simulated runtime, which only --algo dist uses (got '{algo}')"));
    }
    let mut opts: SolveOpts = super::build_solve_opts(args)?;
    if let Some(spec) = args.opt_str("fault") {
        opts.dist_run.faults = super::parse_fault_plan(spec, opts.grid.0 * opts.grid.1)?;
        println!("fault injection: {spec}");
    }

    let input = args.opt_str("input").ok_or("missing required option --input")?;
    let g = {
        let _s = apsp_trace::span("read");
        super::load_graph(input, args.opt_str("format"))?
    };
    println!("loaded {} vertices, {} edges from {input}", g.n(), g.m());
    let n = g.n();
    if n == 0 {
        return Err("graph is empty".into());
    }

    let t0 = Instant::now();
    let reg = Registry::with_all();
    let sol = if algo == "auto" {
        let (plan, sol) = reg.solve_auto(&g, &opts).map_err(|e| e.to_string())?;
        let chosen = plan.chosen.unwrap_or("?");
        match plan.entry(chosen).and_then(|e| e.outcome.as_ref().ok()) {
            Some(est) => println!(
                "auto: picked '{chosen}' (est {}); run 'apsp plan' for the full table",
                apsp_core::solver::planner::human_seconds(est.seconds)
            ),
            None => println!("auto: picked '{chosen}'"),
        }
        sol
    } else {
        reg.solve(&algo, &g, &opts).map_err(|e| e.to_string())?
    };
    let secs = t0.elapsed().as_secs_f64();
    for note in &sol.stats.notes {
        println!("{note}");
    }
    println!("solved in {:.3} s ({:.2} Gflop/s FW-equivalent)", secs, fw_flops(n) / secs / 1e9);
    let dist = sol.dist;

    // summary statistics
    let mut finite = 0u64;
    let mut total = 0f64;
    let mut max = 0f32;
    for i in 0..n {
        for j in 0..n {
            let d = dist[(i, j)];
            if i != j && d.is_finite() {
                finite += 1;
                total += d as f64;
                max = max.max(d);
            }
        }
    }
    let pairs = (n * n - n) as u64;
    println!(
        "reachable pairs: {finite}/{pairs}; mean distance {:.3}; diameter {max}",
        total / finite.max(1) as f64
    );

    if let Some(out) = args.opt_str("out") {
        let _s = apsp_trace::span("write");
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?,
        );
        apsp_graph::io::write_tsv(&dist, &mut f).map_err(|e| format!("write {out}: {e}"))?;
        f.flush().map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {n}×{n} distance matrix to {out}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn fixture() -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("apsp-solve-{}-{:?}", std::process::id(), std::thread::current().id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.gr");
        let g = apsp_graph::generators::erdos_renyi(
            15,
            0.3,
            apsp_graph::generators::WeightKind::small_ints(),
            4,
        );
        crate::commands::save_graph(&g, input.to_str().unwrap(), None).unwrap();
        (dir, input)
    }

    #[test]
    fn every_algorithm_solves_and_agrees() {
        let (dir, input) = fixture();
        // solve with each algorithm that needs no further option (and auto),
        // dump TSVs, compare; the fixtures have non-negative weights
        let solve_all = |input: &std::path::Path| -> Vec<String> {
            ["fw", "blocked", "dc", "sparse", "johnson", "dijkstra", "delta", "dist", "auto"]
                .iter()
                .map(|algo| {
                    let out = dir.join(format!("{algo}.tsv"));
                    let cmd = format!(
                        "--input {} --algo {algo} --block 4 --out {}",
                        input.display(),
                        out.display()
                    );
                    run(&toks(&cmd)).unwrap_or_else(|e| panic!("{algo}: {e}"));
                    std::fs::read_to_string(&out).unwrap()
                })
                .collect()
        };
        let outputs = solve_all(&input);
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
        // and against bytes no writer of this build produced: a committed
        // TSV with `inf`, fractions and a distance of 2²⁴ (see the .gr header)
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/testdata/disconnected");
        let want = std::fs::read_to_string(format!("{golden}.tsv")).unwrap();
        for o in solve_all(std::path::Path::new(&format!("{golden}.gr"))) {
            assert_eq!(o, want);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn aliases_and_typed_ineligibility_surface_through_the_cli() {
        let (dir, input) = fixture();
        // alias: --algo dense resolves to the blocked solver
        let out = dir.join("dense.tsv");
        run(&toks(&format!("--input {} --algo dense --block 4 --out {}", input.display(), out.display())))
            .unwrap();
        // a budget below the smallest staging floor is an explained refusal
        let err = run(&toks(&format!("--input {} --algo staged --memory-budget 64", input.display())))
            .unwrap_err();
        assert!(err.contains("ooc: ineligible, working set"), "{err}");
        assert!(err.contains("exceeds budget 64 B"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn threads_cap_and_serial_flag_agree_with_default() {
        let (dir, input) = fixture();
        let mut outputs = Vec::new();
        let traced = format!("--serial --trace {}", dir.join("t.json").display());
        for extra in ["", "--serial", "--threads 2", &traced] {
            let out = dir.join(format!("t{}.tsv", outputs.len()));
            let cmd = format!(
                "--input {} --algo blocked --block 4 {extra} --out {}",
                input.display(),
                out.display()
            );
            run(&toks(&cmd)).unwrap();
            outputs.push(std::fs::read_to_string(&out).unwrap());
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quantized_solve_is_opt_in_and_matches_fw_on_integer_weights() {
        let (dir, input) = fixture();
        // without --error-tolerance the quantized solver refuses, typed
        let err = run(&toks(&format!("--input {} --algo quant", input.display()))).unwrap_err();
        assert!(err.contains("quant: ineligible"), "{err}");
        assert!(err.contains("--error-tolerance"), "{err}");
        // with the opt-in: exact on the small-integer fixture
        let want = dir.join("fw.tsv");
        run(&toks(&format!("--input {} --algo fw --out {}", input.display(), want.display())))
            .unwrap();
        let want = std::fs::read_to_string(&want).unwrap();
        let out = dir.join("quant.tsv");
        let cmd = |algo: &str| {
            format!(
                "--input {} --algo {algo} --block 4 --error-tolerance 0 --out {}",
                input.display(),
                out.display()
            )
        };
        run(&toks(&cmd("quant"))).unwrap();
        assert_eq!(std::fs::read_to_string(&out).unwrap(), want);
        // one lane leaves no dtype to spell: the old alias is an unknown name
        let err = run(&toks(&cmd("q16"))).unwrap_err();
        assert!(err.contains("unknown algorithm 'q16'"), "{err}");
        assert!(err.contains("quant") && err.contains("auto"), "{err}");
        // junk tolerances are rejected before any solving happens
        for bad in ["--error-tolerance pi", "--error-tolerance -0.5"] {
            let cmd = format!("--input {} --algo quant {bad}", input.display());
            assert!(run(&toks(&cmd)).is_err(), "{bad} should be rejected");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quant_overflow_surfaces_as_a_typed_cli_error() {
        let dir = std::env::temp_dir().join(format!(
            "apsp-solve-overflow-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("huge.gr");
        // a 3e9 edge weight cannot fit below the u16 sentinel at any scale
        let mut b = apsp_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 3.0e9).add_edge(1, 2, 1.0);
        crate::commands::save_graph(&b.build(), input.to_str().unwrap(), None).unwrap();
        let cmd = format!("--input {} --algo quant --error-tolerance 1", input.display());
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(err.contains("quant: ineligible"), "{err}");
        assert!(err.contains("overflow"), "{err}");
        // the boundary: one hop of 32 766 is the last distance below the
        // lanes' sentinel and solves like fw; 32 767 is the sentinel itself
        let (tsv, want) = (dir.join("q.tsv"), dir.join("fw.tsv"));
        for (w, fits) in [(32_766.0, true), (32_767.0, false)] {
            let mut b = apsp_graph::GraphBuilder::new(2);
            b.add_edge(0, 1, w);
            crate::commands::save_graph(&b.build(), input.to_str().unwrap(), None).unwrap();
            let quant = run(&toks(&format!("{cmd} --out {}", tsv.display())));
            if fits {
                quant.unwrap();
                let fw = format!("--input {} --algo fw --out {}", input.display(), want.display());
                run(&toks(&fw)).unwrap();
                assert_eq!(std::fs::read(&tsv).unwrap(), std::fs::read(&want).unwrap());
            } else {
                let err = quant.unwrap_err();
                assert!(err.contains("cannot fit below the u16 sentinel 32767"), "{err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_budget_starves_auto_into_a_typed_error() {
        let (dir, input) = fixture();
        let cmd = format!("--input {} --algo auto --memory-budget 1", input.display());
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(err.contains("no eligible solver"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dist_axis_overrides_and_come_preset_agree_with_fw() {
        let (dir, input) = fixture();
        let want = dir.join("fw.tsv");
        run(&toks(&format!("--input {} --algo fw --out {}", input.display(), want.display())))
            .unwrap();
        let want = std::fs::read_to_string(&want).unwrap();
        for (i, extra) in [
            "--variant come",
            "--variant baseline --bcast ring:2",
            "--variant pipelined --exec offload --schedule bulksync",
        ]
        .iter()
        .enumerate()
        {
            let out = dir.join(format!("axes{i}.tsv"));
            let cmd = format!(
                "--input {} --algo dist --block 4 {extra} --out {}",
                input.display(),
                out.display()
            );
            run(&toks(&cmd)).unwrap();
            assert_eq!(std::fs::read_to_string(&out).unwrap(), want, "{extra}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_axis_values_are_reported() {
        let (dir, input) = fixture();
        for extra in ["--schedule eager", "--bcast ring:0", "--exec tpu"] {
            let cmd = format!("--input {} --algo dist {extra}", input.display());
            assert!(run(&toks(&cmd)).is_err(), "{extra} should be rejected");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_works_for_every_algo_and_leaves_the_output_unchanged() {
        let (dir, input) = fixture();
        let (plain, traced, json) = (dir.join("plain.tsv"), dir.join("traced.tsv"), dir.join("t.json"));
        for algo in Registry::with_all().names().into_iter().chain(["auto"]) {
            let cmd = |out: &std::path::Path| {
                format!(
                    "--input {} --algo {algo} --block 4 --error-tolerance 0 --out {}",
                    input.display(),
                    out.display()
                )
            };
            run(&toks(&cmd(&plain))).unwrap_or_else(|e| panic!("{algo}: {e}"));
            run(&toks(&format!("{} --trace {}", cmd(&traced), json.display())))
                .unwrap_or_else(|e| panic!("{algo} traced: {e}"));
            assert_eq!(std::fs::read(&traced).unwrap(), std::fs::read(&plain).unwrap(), "{algo}");
            let json = std::fs::read_to_string(&json).unwrap();
            assert!(json.starts_with("{\"traceEvents\":[") && json.ends_with("]}"), "{algo}");
            assert_eq!(json.matches('{').count(), json.matches('}').count(), "{algo}");
            for span in ["read", "solve", "write"] {
                assert!(json.contains(&format!("\"name\":\"{span}\"")), "{algo}: no {span}");
            }
            if ["blocked", "dc", "fw", "dist"].contains(&algo) {
                assert!(json.contains("\"name\":\"to_dense\""), "{algo}: no to_dense");
            }
            if ["blocked", "quant", "ooc", "dist"].contains(&algo) {
                for phase in ["DiagUpdate", "PanelUpdate", "OuterUpdate"] {
                    assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{algo}: no {phase}");
                }
            }
            if algo == "dist" {
                // the calling thread, then the four ranks of the default 2x2 grid
                let tracks = json.matches("\"ph\":\"M\"").count();
                assert_eq!(tracks, 5, "{json}");
                assert!(json.contains("\"name\":\"rank 3\"") && json.contains("\"cat\":\"msg\""));
            }
        }
        // --input stays required with --trace: there is no demo graph
        let err = run(&toks(&format!("--trace {}", json.display()))).unwrap_err();
        assert!(err.contains("--input"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_injected_dist_run_fails_with_a_typed_error_not_a_panic() {
        let (dir, input) = fixture();
        // rank 0 killed before its first send: the whole run must come back
        // as a typed Err (→ non-zero process exit), not a panic/abort
        let cmd = format!("--input {} --algo dist --block 4 --fault kill:0@0", input.display());
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(
            err.contains("fault injection killed rank 0") || err.contains("peer failure"),
            "{err}"
        );
        // a dropped message surfaces as the structured deadlock report once
        // the (shortened) recv timeout expires
        let cmd = format!(
            "--input {} --algo dist --block 4 --fault drop:0@1 --recv-timeout 1",
            input.display()
        );
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(err.contains("timed out") || err.contains("peer failure"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_free_run_with_recv_timeout_matches_fw() {
        let (dir, input) = fixture();
        let want = dir.join("fw.tsv");
        run(&toks(&format!("--input {} --algo fw --out {}", input.display(), want.display())))
            .unwrap();
        let out = dir.join("dist-timeout.tsv");
        let cmd = format!(
            "--input {} --algo dist --block 4 --recv-timeout 10 --out {}",
            input.display(),
            out.display()
        );
        run(&toks(&cmd)).unwrap();
        assert_eq!(
            std::fs::read_to_string(&out).unwrap(),
            std::fs::read_to_string(&want).unwrap()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_flags_reject_non_dist_algos_and_bad_specs() {
        let (dir, input) = fixture();
        let cmd = format!("--input {} --algo fw --fault kill:0@0", input.display());
        assert!(run(&toks(&cmd)).unwrap_err().contains("--algo dist"));
        for bad in ["explode:1", "kill:9@0", "delay:0@1", "random:x"] {
            let cmd = format!("--input {} --algo dist --fault {bad}", input.display());
            assert!(run(&toks(&cmd)).is_err(), "{bad} should be rejected");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_algo_is_an_error() {
        let (dir, input) = fixture();
        let cmd = format!("--input {} --algo magic", input.display());
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(err.contains("unknown algorithm 'magic'"), "{err}");
        assert!(err.contains("blocked"), "should list known names: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_process_grid_dimension_is_an_input_error() {
        let (dir, input) = fixture();
        let cmd = format!("--input {} --algo dist --pr 0 --pc 2", input.display());
        let err = run(&toks(&cmd)).unwrap_err();
        assert!(err.contains("--pr and --pc must be positive"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
