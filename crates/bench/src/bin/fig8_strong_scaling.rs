//! Fig. 8 — strong scaling at n = 300,000 vertices, 16 → 256 nodes.
//!
//! Expected shape (paper §5.5.1): Co-ParallelFw (+Async on the reordered
//! grid) is ~1.6× over Baseline at 16 nodes growing to ~4.6× at 256, where
//! it reaches 8.1 PF/s ≈ 70% of theoretical peak / ~80% parallel
//! efficiency; Offload tracks the Baseline.

use apsp_bench::{arg, arg_str, execute_functional_scale, Csv, Table};
use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    // `--execute-p 1024` swaps the analytic Summit model for a *functional*
    // run: the real pipeline on the event-driven simulator at paper-scale
    // rank counts, NIC bytes checked against §3.4.1 (`--execute-n` sizes it)
    if let Some(p) = arg_str("--execute-p") {
        let p: usize = p.parse().expect("--execute-p takes a rank count");
        execute_functional_scale(p, arg("--execute-n", 64));
        return;
    }
    let n: usize = arg("--n", 300_000);
    println!("== Fig. 8: strong scaling, n = {n} ==\n");
    let table = Table::new(&[
        ("nodes", 6),
        ("Offload", 8),
        ("Baseline", 9),
        ("Pipelined", 10),
        ("+Reorder", 9),
        ("+Async", 8),
        ("Co+Me", 8),
        ("perfect", 8),
        ("speedup", 8),
        ("par.eff", 8),
    ]);

    let mut csv = Csv::from_args(&[
        "nodes", "offload", "baseline", "pipelined", "reorder", "async", "come", "perfect", "speedup",
        "pareff",
    ]);
    let mut async16 = None;
    for nodes in [16usize, 32, 64, 128, 256] {
        let spec = MachineSpec::summit(nodes);
        let (dkr, dkc) = default_node_grid(nodes);
        let (okr, okc) = best_node_grid(nodes);
        let run = |variant, kr, kc| -> Option<f64> {
            simulate(&spec, &ScheduleConfig::new(n, variant, kr, kc))
                .ok()
                .map(|o| o.pflops)
        };
        let fmt = |v: Option<f64>| v.map_or("—".into(), |p| format!("{p:.2}"));
        let base = run(Variant::Baseline, dkr, dkc);
        let asyn = run(Variant::AsyncRing, okr, okc);
        if nodes == 16 {
            async16 = asyn;
        }
        // perfect scaling from the 16-node Co-ParallelFw point
        let perfect = async16.map(|p| p * nodes as f64 / 16.0);
        let speedup = match (base, asyn) {
            (Some(b), Some(a)) => format!("{:.1}x", a / b),
            _ => "—".into(),
        };
        let pareff = match (asyn, perfect) {
            (Some(a), Some(p)) => format!("{:.0}%", 100.0 * a / p),
            _ => "—".into(),
        };
        let row = vec![
            nodes.to_string(),
            fmt(run(Variant::Offload, okr, okc)),
            fmt(base),
            fmt(run(Variant::Pipelined, dkr, dkc)),
            fmt(run(Variant::Pipelined, okr, okc)),
            fmt(asyn),
            fmt(run(Variant::CoMe, okr, okc)),
            fmt(perfect),
            speedup,
            pareff,
        ];
        csv.row(&row);
        table.row(&row);
    }
    println!("\npaper: 1.6x over Baseline at 16 nodes → 4.6x at 256; 8.1 PF/s at 256 nodes");
}
