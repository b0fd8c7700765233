//! `apsp generate` — create a workload graph and write it to a file.

use apsp_graph::generators::{self, GraphKind, WeightKind};

use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!(
            "apsp generate --kind <dense|er|grid|ring|geometric|multi> --n <N> --out <FILE>
  --seed <u64>       RNG seed (default 42)
  --p <f64>          edge probability for 'er' (default 0.1)
  --width <N>        grid width (default ⌈√n⌉)
  --components <N>   component count for 'multi' (default 4)
  --wmin/--wmax <u32> integer weight range (default 1..100)
  --format <dimacs|edges>"
        );
        return Ok(());
    }
    let args = Args::parse(tokens)?;
    let n: usize = args.req("n")?;
    let out: String = args.req("out")?;
    let seed: u64 = args.opt("seed", 42)?;
    let kind_name: String = args.opt("kind", "dense".to_string())?;
    let wmin: u32 = args.opt("wmin", 1)?;
    let wmax: u32 = args.opt("wmax", 100)?;
    if wmin > wmax {
        return Err("--wmin must not exceed --wmax".into());
    }
    let weights = WeightKind::Integer { lo: wmin, hi: wmax };

    let g = match kind_name.as_str() {
        "dense" => generators::generate(GraphKind::UniformDense, n, weights, seed),
        "er" => {
            let p: f64 = args.opt("p", 0.1)?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--p must be a probability in [0, 1], got {p}"));
            }
            generators::generate(GraphKind::ErdosRenyi { p }, n, weights, seed)
        }
        "grid" => {
            let width: usize = args.opt("width", (n as f64).sqrt().ceil() as usize)?;
            generators::generate(GraphKind::Grid { width }, n, weights, seed)
        }
        "ring" => generators::generate(GraphKind::Ring, n, weights, seed),
        "multi" => {
            let components: usize = args.opt("components", 4)?;
            if components == 0 {
                return Err("--components must be positive".into());
            }
            generators::generate(GraphKind::MultiComponent { components }, n, weights, seed)
        }
        "geometric" => generators::geometric(n, 0.15, seed).0,
        other => return Err(format!("unknown kind '{other}'")),
    };

    super::save_graph(&g, &out, args.opt_str("format"))?;
    println!("wrote {} vertices, {} edges to {out}", g.n(), g.m());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn generates_and_writes() {
        let dir = std::env::temp_dir().join(format!("apsp-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("t.gr");
        let cmd = format!("--kind er --n 12 --p 0.3 --seed 1 --out {}", out.display());
        run(&toks(&cmd)).unwrap();
        let g = crate::commands::load_graph(out.to_str().unwrap(), None).unwrap();
        assert_eq!(g.n(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_kind() {
        assert!(run(&toks("--kind nope --n 5 --out /tmp/x.gr")).is_err());
    }

    #[test]
    fn rejects_inverted_weight_range() {
        assert!(run(&toks("--kind dense --n 5 --wmin 9 --wmax 2 --out /tmp/x.gr")).is_err());
    }

    #[test]
    fn zero_components_is_an_input_error() {
        let err = run(&toks("--kind multi --n 10 --components 0 --out /tmp/x.gr")).unwrap_err();
        assert!(err.contains("--components must be positive"), "{err}");
    }

    #[test]
    fn edge_probability_outside_the_unit_interval_is_an_input_error() {
        for p in ["2", "-0.5", "NaN"] {
            let cmd = format!("--kind er --n 10 --p {p} --out /tmp/x.gr");
            let err = run(&toks(&cmd)).unwrap_err();
            assert!(err.contains("--p must be a probability in [0, 1]"), "{p}: {err}");
        }
    }
}
