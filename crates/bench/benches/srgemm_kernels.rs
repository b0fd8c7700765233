//! SRGEMM kernel benchmarks: the naive oracle vs the packed/register-tiled
//! kernel vs its rayon-parallel form, plus a packing ablation
//! (packed-with-shared-B vs packing per call) for the per-iteration panel
//! reuse in the FW drivers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use srgemm::gemm::{
    gemm_flops, gemm_naive, gemm_packed, gemm_packed_with_b, gemm_parallel, PackedB,
};
use srgemm::{Matrix, MinPlusF32};

fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 1024) as f32
    })
}

fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("srgemm");
    g.sample_size(10);
    for &n in &[128usize, 256] {
        let a = lcg(n, n, 1);
        let b = lcg(n, n, 2);
        let c0 = lcg(n, n, 3);
        g.throughput(Throughput::Elements(gemm_flops(n, n, n) as u64));
        g.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = c0.clone();
                gemm_naive::<MinPlusF32>(&mut c.view_mut(), &a.view(), &b.view());
                c
            })
        });
        g.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = c0.clone();
                gemm_packed::<MinPlusF32>(&mut c.view_mut(), &a.view(), &b.view());
                c
            })
        });
        g.bench_with_input(BenchmarkId::new("parallel", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = c0.clone();
                gemm_parallel::<MinPlusF32>(&mut c.view_mut(), &a.view(), &b.view());
                c
            })
        });
        // panel-reuse ablation: B packed once outside the timed loop, the
        // shape of the FW drivers' per-iteration reuse
        let pb = PackedB::pack::<MinPlusF32>(&b.view());
        g.bench_with_input(BenchmarkId::new("packed_shared_b", n), &n, |bch, _| {
            bch.iter(|| {
                let mut c = c0.clone();
                gemm_packed_with_b::<MinPlusF32>(&mut c.view_mut(), &a.view(), &pb);
                c
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
