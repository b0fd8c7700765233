//! Fig. 9 — weak scaling: workload n³/p held constant from n = 300,000 at
//! 16 nodes up to 256 nodes; y-axis is runtime in seconds.
//!
//! Expected shape (paper §5.5.2): Co-ParallelFw stays nearly flat;
//! Baseline and Offload grow with node count because they do not hide
//! communication.

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
    let n16: usize = arg("--n16", 300_000);
    println!("== Fig. 9: weak scaling, n³/p constant from n = {n16} at 16 nodes ==\n");
    let table = Table::new(&[
        ("nodes", 6),
        ("vertices", 9),
        ("Offload", 9),
        ("Baseline", 9),
        ("Pipelined", 10),
        ("+Reorder", 9),
        ("+Async", 9),
        ("Co+Me", 9),
    ]);

    let mut csv = Csv::from_args(&[
        "nodes", "vertices", "offload", "baseline", "pipelined", "reorder", "async", "come",
    ]);
    for nodes in [16usize, 32, 64, 128, 256] {
        let n = (n16 as f64 * (nodes as f64 / 16.0).cbrt()).round() as usize;
        let spec = MachineSpec::summit(nodes);
        let (dkr, dkc) = default_node_grid(nodes);
        let (okr, okc) = best_node_grid(nodes);
        let run = |variant, kr, kc| -> String {
            simulate(&spec, &ScheduleConfig::new(n, variant, kr, kc))
                .map(|o| format!("{:.1}", o.seconds))
                .unwrap_or_else(|_| "—".into())
        };
        let row = vec![
            nodes.to_string(),
            n.to_string(),
            run(Variant::Offload, okr, okc),
            run(Variant::Baseline, dkr, dkc),
            run(Variant::Pipelined, dkr, dkc),
            run(Variant::Pipelined, okr, okc),
            run(Variant::AsyncRing, okr, okc),
            run(Variant::CoMe, okr, okc),
        ];
        csv.row(&row);
        table.row(&row);
    }
    println!("\npaper: Co-ParallelFw shows perfect weak scaling; Baseline and Offload drift upward");
}
