//! Related-work comparator: the unblocked 1-D row-partitioned
//! Floyd-Warshall (Jenq & Sahni, §6) vs the paper's blocked 2-D
//! Co-ParallelFw, on the calibrated Summit model. Shows *why* the blocked
//! formulation exists: n-vs-n/b broadcast counts and GEMM-vs-BLAS-2
//! arithmetic intensity.

use apsp_bench::{arg, Table};
use apsp_core::dist::Variant;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{simulate, simulate_oned, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    let nodes: usize = arg("--nodes", 64);
    let spec = MachineSpec::summit(nodes);
    let (kr, kc) = best_node_grid(nodes);
    println!("== 1-D unblocked vs 2-D blocked Co-ParallelFw, {nodes} nodes ==\n");
    let table = Table::new(&[
        ("vertices", 9),
        ("1-D s", 10),
        ("2-D s", 10),
        ("speedup", 8),
    ]);
    for n in [16_384usize, 32_768, 65_536, 131_072] {
        let oned = simulate_oned(&spec, n, 4);
        let twod = simulate(&spec, &ScheduleConfig::new(n, Variant::AsyncRing, kr, kc))
            .expect("feasible");
        table.row(&[
            n.to_string(),
            format!("{:.2}", oned.seconds),
            format!("{:.2}", twod.seconds),
            format!("{:.0}x", oned.seconds / twod.seconds),
        ]);
    }
    println!("\nthe blocked 2-D algorithm's advantage grows with n: fewer, larger messages and GEMM-rate updates");
}
