//! `apsp info` — structural statistics of a graph file.

use apsp_core::GraphProfile;
use apsp_graph::Graph;

use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!("apsp info --input <FILE> [--format <dimacs|edges>]");
        return Ok(());
    }
    let args = Args::parse(tokens)?;
    let input: String = args.req("input")?;
    let g = super::load_graph(&input, args.opt_str("format"))?;
    print!("{}", report(&input, &g));
    Ok(())
}

/// The lines `info` prints: the counts, then — for a non-empty graph — the
/// planner's profile (density as `apsp plan` reports it, `m / (n·(n−1))`,
/// and the weight range and mean), the out-degrees, and the dense matrix.
fn report(input: &str, g: &Graph) -> String {
    let (n, m) = (g.n(), g.m());
    let mut out = format!("file      : {input}\nvertices  : {n}\nedges     : {m}\n");
    if n > 0 {
        // the block argument is unused
        let p = GraphProfile::compute(g, 0);
        out += &format!("density   : {:.4}\n", p.density);
        if m > 0 {
            out += &format!(
                "weights   : min {}, max {}, mean {:.3}\n",
                p.min_weight, p.max_weight, p.mean_weight
            );
        }
        let dmax = (0..n).map(|u| g.out_edges(u).0.len()).max().unwrap_or(0);
        out += &format!("out-degree: max {dmax}, mean {:.2}\n", m as f64 / n as f64);
        // memory footprints the paper's reader cares about
        out += &format!("dense distance matrix: {:.3} GB (f32)\n", p.dense_bytes as f64 / 1e9);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn prints_stats_without_error() {
        let dir = std::env::temp_dir().join(format!("apsp-info-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("g.edges");
        std::fs::write(&input, "0 1 2.5\n1 2 1.0\n").unwrap();
        run(&toks(&format!("--input {}", input.display()))).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reports_the_profiles_density_and_weights() {
        let mut b = apsp_graph::GraphBuilder::new(3);
        b.add_edge(0, 1, 2.5).add_edge(1, 2, 1.0);
        assert_eq!(
            report("g.edges", &b.build()),
            "file      : g.edges\nvertices  : 3\nedges     : 2\n\
             density   : 0.3333\n\
             weights   : min 1, max 2.5, mean 1.750\n\
             out-degree: max 1, mean 0.67\n\
             dense distance matrix: 0.000 GB (f32)\n"
        );
        // no edges: no weights line
        let edgeless = report("e.gr", &apsp_graph::GraphBuilder::new(2).build());
        assert!(edgeless.contains("density   : 0.0000\n"), "{edgeless}");
        assert!(!edgeless.contains("weights"), "{edgeless}");
    }

    #[test]
    fn info_rejects_missing_input() {
        assert!(run(&toks("")).unwrap_err().contains("--input"));
    }
}
