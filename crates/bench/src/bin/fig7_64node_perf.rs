//! Fig. 7 — end-to-end ParallelFw performance on 64 nodes across the full
//! vertex sweep 16,384 … 1,664,511, all variants.
//!
//! Expected shape (paper §5.4): the communication-optimized variants win
//! below ~208k vertices (bandwidth-bound); past that everything converges
//! toward the compute roofline; every in-GPU-memory variant dies at the
//! "Beyond GPU Memory" wall after 524k; only the offload execs continue to
//! 1.66M — bulk-synchronous Offload at roughly half the throughput of its
//! in-core peak, and the composed Co+Me system (look-ahead + ring + offload)
//! recovering ~50% of sustained peak there (§5.4).
//!
//! `--max-n <N>` truncates the sweep (used by the CI smoke run).

use apsp_bench::{arg, paper_vertex_sweep, write_schedule_traces, Csv, Table};
use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    let nodes: usize = arg("--nodes", 64);
    let max_n: usize = arg("--max-n", usize::MAX);
    let spec = MachineSpec::summit(nodes);
    let (dkr, dkc) = default_node_grid(nodes);
    let (okr, okc) = best_node_grid(nodes);
    let peak_pf = spec.total_flops() / 1e15;

    println!("== Fig. 7: ParallelFw Pflop/s on {nodes} nodes (sustained peak {peak_pf:.2} PF/s) ==\n");
    let table = Table::new(&[
        ("vertices", 9),
        ("Baseline", 9),
        ("Pipelined", 10),
        ("+Async", 9),
        ("Offload", 9),
        ("Co+Me", 9),
    ]);
    let mut csv = Csv::from_args(&["vertices", "baseline", "pipelined", "async", "offload", "come"]);

    for n in paper_vertex_sweep().into_iter().filter(|&n| n <= max_n) {
        let run = |variant, kr, kc| -> String {
            let cfg = ScheduleConfig::new(n, variant, kr, kc);
            match simulate(&spec, &cfg) {
                Ok(out) => format!("{:.3}", out.pflops),
                Err(_) => "—".into(), // beyond GPU memory
            }
        };
        let row = vec![
            n.to_string(),
            run(Variant::Baseline, dkr, dkc),
            run(Variant::Pipelined, dkr, dkc),
            run(Variant::AsyncRing, okr, okc),
            run(Variant::Offload, okr, okc),
            run(Variant::CoMe, okr, okc),
        ];
        csv.row(&row);
        table.row(&row);
    }
    println!("\npaper: in-memory variants stop after 524,288 (\"Beyond GPU Memory\");");
    println!("       Offload reaches 1,664,511 vertices at ~50% of theoretical throughput;");
    println!("       Co+Me composes the look-ahead schedule and ring bcast onto offload");

    // --trace <prefix>: per-legend schedule traces at --trace-n vertices
    write_schedule_traces(
        &spec,
        &[
            ("baseline", Variant::Baseline, dkr, dkc),
            ("pipelined", Variant::Pipelined, dkr, dkc),
            ("async", Variant::AsyncRing, okr, okc),
            ("offload", Variant::Offload, okr, okc),
            ("come", Variant::CoMe, okr, okc),
        ],
    );
}
