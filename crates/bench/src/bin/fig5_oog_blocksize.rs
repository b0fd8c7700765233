//! Fig. 5 — out-of-GPU SRGEMM throughput vs block size `k`, for tile
//! buffers m_x ∈ {512, 1k, 2k, 4k} (paper §5.3.1), on the simulated V100.
//!
//! Expected shape: throughput climbs with the block size and saturates near
//! the 6.8 TF/s SRGEMM rate once `k` crosses the Eq. 5 floor (624 predicted,
//! 768 observed); tiny blocks are transfer/host-update bound.

use apsp_bench::{arg, Table};
use gpu_sim::cost::min_block_size;
use gpu_sim::{oog_srgemm_model, GpuSpec, OogConfig};

fn main() {
    let n: usize = arg("--n", 32_768);
    let spec = GpuSpec::summit_v100();
    println!("== Fig. 5: ooGSrGemm Gflop/s vs block size (m = n = {n}, 4 streams) ==\n");
    println!(
        "Eq. 5 predicted minimum block size: {:.0}; theoretical SRGEMM peak {:.0} Gflop/s\n",
        min_block_size(&spec, 4),
        spec.srgemm_flops / 1e9
    );

    let buffers = [512usize, 1024, 2048, 4096];
    let table = Table::new(&[
        ("block", 6),
        ("mx=512", 9),
        ("mx=1k", 9),
        ("mx=2k", 9),
        ("mx=4k", 9),
        ("%peak@2k", 9),
    ]);

    for k in [128usize, 256, 512, 768, 1024, 2048] {
        let mut cells = vec![k.to_string()];
        let mut at2k = 0.0;
        for &mx in &buffers {
            let cfg = OogConfig::new(mx, mx, 4);
            let secs = oog_srgemm_model(&spec, &cfg, n, n, k, 4).expect("fits on device");
            let gf = 2.0 * n as f64 * n as f64 * k as f64 / secs / 1e9;
            if mx == 2048 {
                at2k = gf;
            }
            cells.push(format!("{gf:.0}"));
        }
        cells.push(format!("{:.0}%", 100.0 * at2k * 1e9 / spec.srgemm_flops));
        table.row(&cells);
    }
    println!("\npaper: \"for block size > 768 ooGSrGemm performs very close to the peak for all m_x\"");
}
