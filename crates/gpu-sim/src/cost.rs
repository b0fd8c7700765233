//! Closed-form offload cost model (paper §4.5).
//!
//! For `C ← C ⊕ A ⊗ B` with `A ∈ R^{m×k}`, `B ∈ R^{k×n}` staged through the
//! GPU in tiles:
//!
//! * `t0 = 2mnk · t_f` — SRGEMM flops,
//! * `t1 = (mn + nk + mk) · t_hd` — host↔device traffic,
//! * `t2 = 3mn · t_m` — hostUpdate DRAM traffic,
//!
//! and the achievable total depends on how many CUDA streams are available
//! to overlap the three: 1 stream ⇒ `t0+t1+t2`; 2 streams ⇒ best pairing;
//! ≥3 streams ⇒ `max(t0, t1, t2)`. Peak throughput requires
//! `t0 ≥ max(t1, t2)`, i.e. Eq. 5's minimum block size
//! `k ≥ max(t_hd/2t_f, 3t_m/2t_f)`.
//!
//! The host-level out-of-core tier adds a **fourth engine**: when the
//! operand lives on disk and is staged through host RAM (`apsp_core::ooc`),
//! `t3 = (2mn + nk + mk) · t_disk` models the tile traffic — `C` tiles read
//! *and* written back each pass, `A`/`B` panels read once. `t3 = 0`
//! recovers the three-engine device model exactly. The same Eq. 5 analysis
//! applied to the disk tier ([`min_block_size_disk`]) predicts the tile
//! size at which the packed-GEMM cores outrun the disk.

use crate::spec::GpuSpec;

/// The §4.5 cost terms, in seconds, plus the out-of-core disk term.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffloadCosts {
    /// SRGEMM compute time.
    pub t0: f64,
    /// Host↔device transfer time.
    pub t1: f64,
    /// hostUpdate (DRAM) time.
    pub t2: f64,
    /// Disk↔RAM tile traffic time (0 when no out-of-core tier is in play).
    pub t3: f64,
}

impl OffloadCosts {
    /// Evaluate the model for an `m×n×k` product of `elem_bytes`-sized
    /// elements on `spec`. No disk tier: `t3 = 0`.
    pub fn new(spec: &GpuSpec, m: usize, n: usize, k: usize, elem_bytes: usize) -> Self {
        let (m, n, k, eb) = (m as f64, n as f64, k as f64, elem_bytes as f64);
        let t_f = 1.0 / spec.srgemm_flops;
        let t_hd = eb / spec.h2d_bw;
        let t_m = eb / spec.host_mem_bw;
        OffloadCosts {
            t0: 2.0 * m * n * k * t_f,
            t1: (m * n + n * k + m * k) * t_hd,
            t2: 3.0 * m * n * t_m,
            t3: 0.0,
        }
    }

    /// [`OffloadCosts::new`] with the out-of-core disk tier engaged:
    /// `C` tiles cross the disk twice (read + write-back) and the `A`/`B`
    /// panels once, at `disk_bw` bytes/s.
    pub fn with_disk(
        spec: &GpuSpec,
        m: usize,
        n: usize,
        k: usize,
        elem_bytes: usize,
        disk_bw: f64,
    ) -> Self {
        let mut c = Self::new(spec, m, n, k, elem_bytes);
        let (m, n, k, eb) = (m as f64, n as f64, k as f64, elem_bytes as f64);
        c.t3 = (2.0 * m * n + n * k + m * k) * eb / disk_bw;
        c
    }

    /// Predicted wall time with `s` streams: the best assignment of the
    /// four engine terms to `s` concurrent lanes (minimize the slowest
    /// lane's serialized sum). 1 lane ⇒ full sum; ≥4 ⇒ every term overlaps,
    /// `max(t0..t3)`. With `t3 = 0` this reproduces the paper's
    /// three-engine regimes exactly.
    pub fn predicted_time(&self, s: usize) -> f64 {
        let ops = [self.t0, self.t1, self.t2, self.t3];
        match s {
            0 => f64::INFINITY,
            1 => ops.iter().sum(),
            s if s >= 4 => ops.iter().fold(0.0_f64, |m, &t| m.max(t)),
            s => {
                // 4 terms over 2 or 3 lanes: s⁴ ≤ 81 assignments — enumerate.
                let mut best = f64::INFINITY;
                for mut assign in 0..s.pow(4) {
                    let mut lane = [0.0_f64; 4];
                    for &t in &ops {
                        lane[assign % s] += t;
                        assign /= s;
                    }
                    best = best.min(lane[..s].iter().fold(0.0_f64, |m, &t| m.max(t)));
                }
                best
            }
        }
    }

    /// Is the pipeline compute-bound (`t0 ≥ max(t1, t2, t3)`) — the
    /// condition for running at the SRGEMM rate once every stage overlaps?
    pub fn compute_bound(&self) -> bool {
        self.t0 >= self.t1.max(self.t2).max(self.t3)
    }
}

/// Eq. 5: the smallest inner (block) dimension `k` for which the offload
/// pipeline is compute-bound, `k ≥ max(t_hd/2t_f, 3t_m/2t_f)`, evaluated
/// with the theoretical peak flop rate as the paper does ("we estimate
/// minimum block size of 624").
pub fn min_block_size(spec: &GpuSpec, elem_bytes: usize) -> f64 {
    let eb = elem_bytes as f64;
    let t_f = 1.0 / spec.peak_flops;
    let t_hd = eb / spec.h2d_bw;
    let t_m = eb / spec.host_mem_bw;
    (t_hd / (2.0 * t_f)).max(3.0 * t_m / (2.0 * t_f))
}

/// Eq. 5 transposed to the disk tier of the out-of-core FW driver: with
/// `m = n` large, the dominant disk term is the `C` tile's read + write-back
/// (`2mn · t_disk` per pass), against `2mnk · t_f` of packed-GEMM work, so
/// the pipeline is compute-bound once the inner (tile) dimension satisfies
/// `k ≥ t_disk / t_f = flops · elem_bytes / disk_bw`. `flops` is the
/// sustained rate of the host GEMM engine (cores, not the device).
pub fn min_block_size_disk(flops: f64, elem_bytes: usize, disk_bw: f64) -> f64 {
    flops * elem_bytes as f64 / disk_bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_min_block_size_reproduces_paper_estimate() {
        // paper §5.3.1: "we estimate minimum block size of 624"
        let k = min_block_size(&GpuSpec::summit_v100(), 4);
        assert!((k - 624.0).abs() < 1.0, "got {k}");
    }

    #[test]
    fn large_k_is_compute_bound_small_k_is_not() {
        let spec = GpuSpec::summit_v100();
        let big = OffloadCosts::new(&spec, 8192, 8192, 768, 4);
        assert!(big.compute_bound());
        let small = OffloadCosts::new(&spec, 8192, 8192, 128, 4);
        assert!(!small.compute_bound());
    }

    #[test]
    fn stream_count_regimes_are_ordered() {
        let spec = GpuSpec::summit_v100();
        let c = OffloadCosts::new(&spec, 4096, 4096, 512, 4);
        let s1 = c.predicted_time(1);
        let s2 = c.predicted_time(2);
        let s3 = c.predicted_time(3);
        let s4 = c.predicted_time(4);
        assert!(s1 > s2);
        assert!(s2 >= s3);
        assert_eq!(s3, s4);
        assert_eq!(s3, c.t0.max(c.t1).max(c.t2));
    }

    #[test]
    fn two_stream_pairing_picks_the_best() {
        let c = OffloadCosts { t0: 10.0, t1: 2.0, t2: 3.0, t3: 0.0 };
        // best: overlap t0 with (t1+t2)=5 → 10
        assert_eq!(c.predicted_time(2), 10.0);
        let c = OffloadCosts { t0: 4.0, t1: 5.0, t2: 6.0, t3: 0.0 };
        // pairings: max(4, 11)=11, max(5,10)=10, max(6,9)=9 → 9
        assert_eq!(c.predicted_time(2), 9.0);
    }

    #[test]
    fn fourth_engine_partitions_work_across_lanes() {
        let c = OffloadCosts { t0: 6.0, t1: 4.0, t2: 3.0, t3: 5.0 };
        // 1 lane: everything serialized
        assert_eq!(c.predicted_time(1), 18.0);
        // 2 lanes: best split is {6,3} vs {4,5} → 9
        assert_eq!(c.predicted_time(2), 9.0);
        // 3 lanes: {6} {5} {4,3} → 7
        assert_eq!(c.predicted_time(3), 7.0);
        // ≥4 lanes: full overlap → max
        assert_eq!(c.predicted_time(4), 6.0);
        assert_eq!(c.predicted_time(7), 6.0);
        assert!(c.compute_bound()); // t0 dominates every other engine
        let slow_disk = OffloadCosts { t3: 9.0, ..c };
        assert!(!slow_disk.compute_bound());
        assert_eq!(slow_disk.predicted_time(4), 9.0);
    }

    #[test]
    fn zero_disk_term_reduces_to_the_three_engine_model() {
        let spec = GpuSpec::summit_v100();
        let base = OffloadCosts::new(&spec, 4096, 4096, 512, 4);
        // infinite disk bandwidth ⇒ t3 = 0 ⇒ identical predictions
        let disk = OffloadCosts::with_disk(&spec, 4096, 4096, 512, 4, f64::INFINITY);
        for s in 1..6 {
            assert_eq!(base.predicted_time(s), disk.predicted_time(s), "s={s}");
        }
    }

    #[test]
    fn disk_tier_crossover_behaves_like_eq5() {
        // ~45 Gflop/s packed cores, 2 GB/s disk, f32 ⇒ k_min = 45e9·4/2e9 = 90
        let k_min = min_block_size_disk(45e9, 4, 2e9);
        assert!((k_min - 90.0).abs() < 1e-9, "got {k_min}");
        // a spec whose srgemm rate matches the cores: tiles above k_min are
        // compute-bound w.r.t. the disk term, below are disk-bound
        let host = GpuSpec { srgemm_flops: 45e9, ..GpuSpec::summit_v100() };
        let above = OffloadCosts::with_disk(&host, 8192, 8192, 256, 4, 2e9);
        assert!(above.t0 >= above.t3, "k=256 > k_min must be disk-compute-bound");
        let below = OffloadCosts::with_disk(&host, 8192, 8192, 32, 4, 2e9);
        assert!(below.t0 < below.t3, "k=32 < k_min must be disk-bound");
    }
}
