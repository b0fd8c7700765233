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
/// profile header `apsp plan` prints, and the out-degrees.
fn report(input: &str, g: &Graph) -> String {
    let (n, m) = (g.n(), g.m());
    let mut out = format!("file      : {input}\nvertices  : {n}\nedges     : {m}\n");
    if n > 0 {
        // the block argument is unused
        out += &GraphProfile::compute(g, 0).render();
        let dmax = (0..n).map(|u| g.out_edges(u).0.len()).max().unwrap_or(0);
        out += &format!("out-degree: max {dmax}, mean {:.2}\n", m as f64 / n as f64);
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
             graph profile\n  n = 3  m = 2  density 33.333%\n\
             \x20 weights: [1, 2.5]  mean 1.75  non-negative\n\
             \x20 dense working set: 36 B\n\
             out-degree: max 1, mean 0.67\n"
        );
        // the header `apsp plan` prints, and no profile without vertices
        let edgeless = apsp_graph::GraphBuilder::new(2).build();
        assert!(report("e.gr", &edgeless).contains(&GraphProfile::compute(&edgeless, 0).render()));
        let empty = report("z.gr", &apsp_graph::GraphBuilder::new(0).build());
        assert_eq!(empty, "file      : z.gr\nvertices  : 0\nedges     : 0\n");
    }

    #[test]
    fn info_rejects_missing_input() {
        assert!(run(&toks("")).unwrap_err().contains("--input"));
    }
}
