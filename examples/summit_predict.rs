//! Summit-at-scale prediction: replay the paper's headline configurations
//! on the calibrated discrete-event model and print paper-vs-simulated
//! numbers — a one-screen summary of what the full figure harnesses
//! (`apsp-bench`) regenerate.
//!
//! ```text
//! cargo run --release --example summit_predict
//! ```

use apsp_core::dist::Variant;
use apsp_core::model::{best_node_grid, max_vertices_in_gpu_memory};
use apsp_core::schedule::{default_node_grid, simulate, ScheduleConfig};
use cluster_sim::MachineSpec;

fn main() {
    println!("== Summit model: headline configurations ==\n");

    // 1. the 8.1 PF/s claim: Co-ParallelFw, 256 nodes, n = 300k (Fig. 8)
    {
        let spec = MachineSpec::summit(256);
        let (kr, kc) = best_node_grid(256);
        let co = simulate(&spec, &ScheduleConfig::new(300_000, Variant::AsyncRing, kr, kc)).expect("feasible");
        let (dkr, dkc) = default_node_grid(256);
        let base = simulate(&spec, &ScheduleConfig::new(300_000, Variant::Baseline, dkr, dkc)).expect("feasible");
        println!("256 nodes, n=300,000 (Fig. 8):");
        println!("  Co-ParallelFw : {:7.2} s  {:5.2} PF/s  ({:.0}% of sustained peak)",
            co.seconds, co.pflops, 100.0 * co.pflops * 1e15 / spec.total_flops());
        println!("  Baseline      : {:7.2} s  {:5.2} PF/s", base.seconds, base.pflops);
        println!("  speedup       : {:.1}x   (paper: 4.6x, 8.1 PF/s ≈ 70% of peak)\n", base.seconds / co.seconds);
    }

    // 2. the GPU memory wall and the offload escape (Fig. 7)
    {
        let spec = MachineSpec::summit(64);
        let wall = max_vertices_in_gpu_memory(&spec, 4);
        println!("64 nodes (Fig. 7):");
        println!("  in-GPU-memory limit : {wall} vertices (paper: between 524,288 and 660,562)");
        let (kr, kc) = best_node_grid(64);
        let big = simulate(&spec, &ScheduleConfig::new(1_664_511, Variant::Offload, kr, kc)).expect("offload feasible");
        let footprint = 1_664_511f64 * 1_664_511f64 * 4.0 / 1e12;
        println!(
            "  offload at n=1,664,511: {:6.0} s at {:4.2} PF/s  (output footprint {footprint:.1} TB; paper: ~10 TB, 50% of peak)",
            big.seconds, big.pflops
        );
        let at_wall = simulate(&spec, &ScheduleConfig::new(524_288, Variant::AsyncRing, kr, kc)).expect("feasible");
        let off_wall = simulate(&spec, &ScheduleConfig::new(524_288, Variant::Offload, kr, kc)).expect("feasible");
        println!(
            "  offload overhead at n=524,288: {:+.0}%  (paper: ~20%)\n",
            100.0 * (off_wall.seconds / at_wall.seconds - 1.0)
        );
    }

    // 3. Eq. 5 block-size floor
    {
        let spec = gpu_sim::GpuSpec::summit_v100();
        let k = gpu_sim::cost::min_block_size(&spec, 4);
        println!("Eq. 5 minimum offload block size: {k:.0} (paper's estimate: 624; observed knee at 768)");
    }
}
