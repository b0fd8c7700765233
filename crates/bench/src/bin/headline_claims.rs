//! Headline claims — the abstract/§1 numbers, paper vs this reproduction,
//! in one table. Derived from the same simulations as Figs. 7–8.

use apsp_bench::Table;
use apsp_core::dist::Variant;
use apsp_core::model::{best_node_grid, max_vertices_in_gpu_memory};
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;
use gpu_sim::cost::min_block_size;
use gpu_sim::GpuSpec;

fn main() {
    println!("== headline claims: paper vs reproduction ==\n");
    let table = Table::new(&[("claim", 46), ("paper", 12), ("ours", 12)]);

    // 1. speedup over baseline on 256 nodes (n = 300k)
    let spec256 = MachineSpec::summit(256);
    let (dkr, dkc) = default_node_grid(256);
    let (okr, okc) = best_node_grid(256);
    let base = simulate(&spec256, &ScheduleConfig::new(300_000, Variant::Baseline, dkr, dkc)).expect("feasible");
    let co = simulate(&spec256, &ScheduleConfig::new(300_000, Variant::AsyncRing, okr, okc)).expect("feasible");
    table.row(&[
        "Co-ParallelFw speedup over Baseline, 256 nodes".into(),
        "4.6x".into(),
        format!("{:.1}x", base.seconds / co.seconds),
    ]);

    // 2. absolute rate and fraction of peak at 256 nodes
    table.row(&[
        "Co-ParallelFw rate on 256 nodes".into(),
        "8.1 PF/s".into(),
        format!("{:.1} PF/s", co.pflops),
    ]);
    let theo_peak = 256.0 * 6.0 * 7.8e12 / 1e15;
    table.row(&[
        "fraction of theoretical (no-FMA) peak".into(),
        "70%".into(),
        format!("{:.0}%", 100.0 * co.pflops / theo_peak),
    ]);

    // 3. largest problem: offload vs in-memory on 64 nodes
    let spec64 = MachineSpec::summit(64);
    let wall = max_vertices_in_gpu_memory(&spec64, 4);
    let ratio_vertices = 1_664_511.0 / wall as f64;
    table.row(&[
        "offload problem-size gain over in-memory (64 nodes)".into(),
        "2.5x".into(),
        format!("{ratio_vertices:.1}x"),
    ]);

    // 4. offload overhead at an in-memory-feasible size
    let (o64r, o64c) = best_node_grid(64);
    let incore = simulate(&spec64, &ScheduleConfig::new(524_288, Variant::AsyncRing, o64r, o64c)).expect("feasible");
    let off = simulate(&spec64, &ScheduleConfig::new(524_288, Variant::Offload, o64r, o64c)).expect("feasible");
    table.row(&[
        "offload runtime overhead".into(),
        "+20%".into(),
        format!("{:+.0}%", 100.0 * (off.seconds / incore.seconds - 1.0)),
    ]);

    // 5. the 1.66M-vertex run and its footprint
    let big = simulate(&spec64, &ScheduleConfig::new(1_664_511, Variant::Offload, o64r, o64c)).expect("feasible");
    table.row(&[
        "1.66M vertices on 64 nodes (output footprint)".into(),
        "~10 TB".into(),
        format!("{:.1} TB", 1_664_511f64 * 1_664_511f64 * 4.0 / 1e12),
    ]);
    table.row(&[
        "  …at fraction of 64-node theoretical peak".into(),
        "50%".into(),
        format!("{:.0}%", 100.0 * big.pflops * 1e15 / (64.0 * 6.0 * 7.8e12)),
    ]);

    // 6. Eq. 5 minimum offload block size
    table.row(&[
        "Eq. 5 minimum offload block size".into(),
        "624".into(),
        format!("{:.0}", min_block_size(&GpuSpec::summit_v100(), 4)),
    ]);
}
