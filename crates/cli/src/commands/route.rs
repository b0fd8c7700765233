//! `apsp route` — shortest route between two vertices, with the full
//! vertex sequence (predecessor-tracking Floyd-Warshall).

use apsp_core::fw_seq::{fw_seq_with_paths, reconstruct_path};
use apsp_core::solver::screen_negative_cycle;
use apsp_graph::paths::validate_path;

use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!(
            "apsp route --input <FILE> --from <V> --to <V>
  --format <dimacs|edges>
Prints the shortest route and its length (all-pairs solve under the hood,
so repeated queries on the same graph should use 'solve --out' instead)."
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

    let mut dist = g.to_dense();
    let pred = fw_seq_with_paths(&mut dist);
    screen_negative_cycle(g.n(), |i| dist[(i, i)]).map_err(|e| e.to_string())?;
    let d = dist[(from, to)];
    if !d.is_finite() {
        println!("{from} → {to}: unreachable");
        return Ok(());
    }
    let path = reconstruct_path(&pred, from, to).ok_or("internal: missing path")?;
    debug_assert!(validate_path(&g, &path, from, to, d, 1e-3));
    println!("{from} → {to}: distance {d}, {} hop(s)", path.len() - 1);
    for win in path.windows(2) {
        println!("  {:>6} → {:<6} ({})", win[0], win[1], g.weight(win[0], win[1]));
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
}
