//! Fig. 4 — communication-optimization ablation on 64 nodes: effective
//! bandwidth of Baseline / Pipelined / +Rank Reordering / +Async across the
//! vertex sweep 26k…524k.
//!
//! Expected shape (paper §5.2.2): in the bandwidth-bound regime (n below
//! ~120k, the theoretical compute-bound boundary on 64 nodes) each
//! optimization adds effective bandwidth, up to ~4× over Baseline; past the
//! boundary the execution is compute-dominated and the gap closes.

use apsp_bench::{arg, paper_vertex_sweep, write_schedule_traces, Csv, Table};
use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    let nodes: usize = arg("--nodes", 64);
    let spec = MachineSpec::summit(nodes);
    let (dkr, dkc) = default_node_grid(nodes);
    let (okr, okc) = best_node_grid(nodes);

    println!("== Fig. 4: effective bandwidth (GB/s) of communication strategies, {nodes} nodes ==");
    println!("   legends: Baseline/Pipelined on the default K={dkr}x{dkc}; +Reordering/+Async on K={okr}x{okc}\n");

    let table = Table::new(&[
        ("vertices", 9),
        ("Baseline", 9),
        ("Pipelined", 10),
        ("+Reorder", 9),
        ("+Async", 9),
        ("Co+Me", 9),
        ("regime", 14),
    ]);
    let mut csv =
        Csv::from_args(&["vertices", "baseline", "pipelined", "reorder", "async", "come", "regime"]);

    // Fig. 4's x-axis: 26,008 … 524,288
    let sweep: Vec<usize> = paper_vertex_sweep()
        .into_iter()
        .filter(|&n| (26_008..=524_288).contains(&n))
        .collect();

    for n in sweep {
        let run = |variant, kr, kc| -> String {
            let cfg = ScheduleConfig::new(n, variant, kr, kc);
            match simulate(&spec, &cfg) {
                Ok(out) => format!("{:.2}", out.effective_bw / 1e9),
                Err(_) => "n/a".into(),
            }
        };
        // theoretical compute-bound boundary: comm time < compute time
        let comp = apsp_core::model::fw_flops(n) / spec.total_flops();
        let comm = apsp_core::model::comm_lower_bound_bytes(n, okr, okc, 4) / spec.nic_bw;
        let regime = if comp > comm { "compute-bound" } else { "bandwidth-bound" };
        let row = vec![
            n.to_string(),
            run(Variant::Baseline, dkr, dkc),
            run(Variant::Pipelined, dkr, dkc),
            run(Variant::Pipelined, okr, okc),
            run(Variant::AsyncRing, okr, okc),
            run(Variant::CoMe, okr, okc),
            regime.to_string(),
        ];
        csv.row(&row);
        table.row(&row);
    }
    println!("\npaper: ~4x effective-bandwidth gain from all optimizations in the bandwidth-bound regime;");
    println!("       the compute-bound boundary sits near 120k vertices on 64 nodes");

    // --trace <prefix>: per-legend schedule traces at --trace-n vertices
    write_schedule_traces(
        &spec,
        &[
            ("baseline", Variant::Baseline, dkr, dkc),
            ("pipelined", Variant::Pipelined, dkr, dkc),
            ("reorder", Variant::Pipelined, okr, okc),
            ("async", Variant::AsyncRing, okr, okc),
            ("come", Variant::CoMe, okr, okc),
        ],
    );
}
