//! Fig. 6 — out-of-GPU SRGEMM throughput heatmap: operand size (vertices)
//! × tile-buffer dimension m_x, block size fixed at the paper's b = 768.
//!
//! Expected shape (paper §5.3.1): performance is close to peak even for
//! 2k×2k buffers when n is large; small operands with huge buffers waste
//! the pipeline (bottom-right corner of the paper's heatmap dips to
//! ~2.2 Tflop/s).

use apsp_bench::{arg, Table};
use gpu_sim::{oog_srgemm_model, GpuSpec, OogConfig};

fn main() {
    let b: usize = arg("--block", 768);
    let spec = GpuSpec::summit_v100();
    println!("== Fig. 6: ooGSrGemm Gflop/s, vertices × buffer dimension (block = {b}, 3 streams) ==\n");

    let buffers = [1024usize, 2048, 4096, 8192];
    let vertices = [65_536usize, 32_768, 16_384, 8_192, 4_096]; // paper's row order
    let table = Table::new(&[
        ("vertices", 9),
        ("mx=1k", 9),
        ("mx=2k", 9),
        ("mx=4k", 9),
        ("mx=8k", 9),
    ]);

    for &n in &vertices {
        let mut cells = vec![n.to_string()];
        for &mx in &buffers {
            let cfg = OogConfig::new(mx, mx, 3);
            match oog_srgemm_model(&spec, &cfg, n, n, b, 4) {
                Ok(secs) => {
                    let gflops = 2.0 * n as f64 * n as f64 * b as f64 / secs / 1e9;
                    cells.push(format!("{gflops:.1e}"));
                }
                Err(_) => cells.push("oom".into()),
            }
        }
        table.row(&cells);
    }
    println!("\npaper: ≈6.2e3 Gflop/s at 64k×1k-2k buffers, dropping to ≈2.2e3 at 4k vertices × 8k buffers");
}
