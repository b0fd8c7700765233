//! Offload engine benchmark: functional ooGSrGemm (real data through the
//! simulated device) vs the in-core GEMM, and the stream-count ablation
//! from §4.5 (1 stream = serialized pipeline, ≥3 = fully overlapped).
//! Wall-clock here measures the *engine overhead*; the simulated-time
//! behaviour is covered by the fig5/fig6 harnesses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpu_sim::{oog_srgemm, GpuSpec, OogConfig, SimGpu};
use srgemm::gemm::gemm;
use srgemm::{Matrix, MinPlusF32};

fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 1024) as f32
    })
}

fn bench_oog(c: &mut Criterion) {
    let mut g = c.benchmark_group("oog_srgemm");
    g.sample_size(10);
    let (m, n, k) = (512usize, 512usize, 96usize);
    let a = lcg(m, k, 1);
    let b = lcg(k, n, 2);
    let c0 = lcg(m, n, 3);

    g.bench_function("in_core_gemm", |bch| {
        bch.iter(|| {
            let mut cm = c0.clone();
            gemm::<MinPlusF32>(&mut cm.view_mut(), &a.view(), &b.view());
            cm
        })
    });
    for &streams in &[1usize, 2, 3, 4] {
        g.bench_with_input(BenchmarkId::new("oog_streams", streams), &streams, |bch, &s| {
            let gpu = SimGpu::new(GpuSpec::summit_v100());
            let cfg = OogConfig::new(128, 128, s);
            bch.iter(|| {
                let mut cm = c0.clone();
                oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut cm.view_mut(), &a.view(), &b.view())
                    .expect("fits");
                cm
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_oog);
criterion_main!(benches);
