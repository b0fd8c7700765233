//! Block-size ablation at Summit scale — the tuning knob behind Eq. 1 and
//! Eq. 5 (DESIGN.md §7). Small blocks raise the latency term `2(n/b)·t_l`
//! and starve the offload pipeline (Eq. 5 floor at 624); huge blocks
//! coarsen the pipeline and inflate the diagonal/panel critical path. The
//! paper settles on b = 768.

use apsp_bench::{arg, Table};
use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    let nodes: usize = arg("--nodes", 64);
    let n: usize = arg("--n", 131_072);
    let spec = MachineSpec::summit(nodes);
    let (kr, kc) = best_node_grid(nodes);

    println!("== block-size ablation: n = {n}, {nodes} nodes, K = {kr}x{kc} ==\n");
    let table = Table::new(&[
        ("block", 6),
        ("+Async s", 10),
        ("Offload s", 10),
        ("+Async PF/s", 12),
        ("Offload PF/s", 13),
    ]);

    for b in [128usize, 256, 512, 768, 1024, 2048, 4096] {
        let mut cfg_a = ScheduleConfig::new(n, Variant::AsyncRing, kr, kc);
        cfg_a.block = b;
        let mut cfg_o = ScheduleConfig::new(n, Variant::Offload, kr, kc);
        cfg_o.block = b;
        let a = simulate(&spec, &cfg_a).expect("feasible");
        let o = simulate(&spec, &cfg_o).expect("feasible");
        table.row(&[
            b.to_string(),
            format!("{:.2}", a.seconds),
            format!("{:.2}", o.seconds),
            format!("{:.3}", a.pflops),
            format!("{:.3}", o.pflops),
        ]);
    }
    println!("\npaper tuning: b = 768 — above the Eq. 5 offload floor (624), small enough to pipeline");
}
