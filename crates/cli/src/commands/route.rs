//! `apsp route` — shortest route between two vertices, with the full
//! vertex sequence. It runs the witness-carrying blocked Floyd-Warshall
//! that `apsp serve` runs at startup (`Engine::solve_from_graph`, same
//! block size) and answers through the snapshot query behind serve's
//! `path` verb, so the two commands print the same route.

use std::io::Write;

use apsp_core::serve::Engine;
use apsp_graph::graph::Graph;
use apsp_graph::paths::validate_path;

use super::serve::DEFAULT_BLOCK;
use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!(
            "apsp route --input <FILE> --from <V> --to <V>
  --format <dimacs|edges>
Prints the shortest route and its length. Runs the witness-carrying blocked
Floyd-Warshall that 'serve' runs (an all-pairs solve under the hood), so
repeated queries on the same graph should use 'serve' instead."
        );
        return Ok(());
    }
    let args = Args::parse(tokens)?;
    let input: String = args.req("input")?;
    let from: usize = args.req("from")?;
    let to: usize = args.req("to")?;

    let g = super::load_graph(&input, args.opt_str("format"))?;
    if from >= g.n() || to >= g.n() {
        return Err(format!("vertices must be < {}", g.n()));
    }

    let snap = Engine::solve_from_graph(&g, DEFAULT_BLOCK).map_err(|e| e.to_string())?.snapshot();
    let route = snap.path(from, to).map_err(|e| format!("internal: {e}"))?;
    write_route(&mut std::io::stdout().lock(), &g, from, to, route)
}

/// Print `route` (as [`apsp_core::Snapshot::path`] returns it) after
/// checking that it realizes its distance in `g`. A failed write, such as
/// a closed pipe, is the command's error.
fn write_route(
    out: &mut impl Write,
    g: &Graph,
    from: usize,
    to: usize,
    route: Option<(f32, Vec<usize>)>,
) -> Result<(), String> {
    let stdout_err = |e: std::io::Error| format!("stdout: {e}");
    let Some((d, path)) = route else {
        return writeln!(out, "{from} → {to}: unreachable").map_err(stdout_err);
    };
    // the path's own sum rounds in another order than the solve's: allow
    // for that relative to the distance
    if !validate_path(g, &path, from, to, d, 1e-3 * d.abs().max(1.0)) {
        return Err(format!("internal: route {path:?} does not realize distance {d}"));
    }
    writeln!(out, "{from} → {to}: distance {d}, {} hop(s)", path.len() - 1).map_err(stdout_err)?;
    for win in path.windows(2) {
        writeln!(out, "  {:>6} → {:<6} ({})", win[0], win[1], g.weight(win[0], win[1])).map_err(stdout_err)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn routes_on_a_line_graph() {
        let dir = std::env::temp_dir().join(format!("apsp-route-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("line.edges");
        std::fs::write(&input, "0 1 1.0\n1 2 2.0\n2 3 3.0\n").unwrap();
        let cmd = format!("--input {} --from 0 --to 3", input.display());
        run(&toks(&cmd)).unwrap();
        // out-of-range vertex
        let bad = format!("--input {} --from 0 --to 9", input.display());
        assert!(run(&toks(&bad)).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_negative_cycle_is_refused_not_routed() {
        let dir = std::env::temp_dir().join(format!("apsp-route-neg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("neg.gr");
        std::fs::write(&input, "p sp 3 3\na 1 2 -1\na 2 1 -1\na 2 3 1\n").unwrap();
        // 1 → 1 runs the cycle; 0 → 2 is a route its walk could shorten
        for (from, to) in [(1, 1), (0, 2)] {
            let cmd = format!("--input {} --from {from} --to {to}", input.display());
            let got = run(&toks(&cmd));
            assert_eq!(got, Err("graph contains a negative cycle".to_string()), "{from} → {to}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_closed_stdout_is_an_error_not_a_panic() {
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut b = apsp_graph::graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0);
        let g = b.build();
        for route in [Some((3.0, vec![0, 1, 2])), None] {
            let got = write_route(&mut BrokenPipe, &g, 0, 2, route);
            assert!(got.as_ref().is_err_and(|e| e.starts_with("stdout: ")), "{got:?}");
        }
        // a route that does not realize its distance is refused, not printed
        let mut sink = Vec::new();
        let got = write_route(&mut sink, &g, 0, 2, Some((2.0, vec![0, 1, 2])));
        assert!(got.is_err_and(|e| e.starts_with("internal: ")));
        assert!(sink.is_empty());
        write_route(&mut sink, &g, 0, 2, Some((3.0, vec![0, 1, 2]))).unwrap();
        let text = String::from_utf8(sink).unwrap();
        assert!(text.starts_with("0 → 2: distance 3, 2 hop(s)\n"), "{text}");
    }
}
