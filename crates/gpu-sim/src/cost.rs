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

use crate::spec::GpuSpec;

/// The §4.5 cost terms, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OffloadCosts {
    /// SRGEMM compute time.
    pub t0: f64,
    /// Host↔device transfer time.
    pub t1: f64,
    /// hostUpdate (DRAM) time.
    pub t2: f64,
}

impl OffloadCosts {
    /// Evaluate the model for an `m×n×k` product of `elem_bytes`-sized
    /// elements on `spec`.
    pub fn new(spec: &GpuSpec, m: usize, n: usize, k: usize, elem_bytes: usize) -> Self {
        let (m, n, k, eb) = (m as f64, n as f64, k as f64, elem_bytes as f64);
        let t_f = 1.0 / spec.srgemm_flops;
        let t_hd = eb / spec.h2d_bw;
        let t_m = eb / spec.host_mem_bw;
        OffloadCosts {
            t0: 2.0 * m * n * k * t_f,
            t1: (m * n + n * k + m * k) * t_hd,
            t2: 3.0 * m * n * t_m,
        }
    }

    /// Predicted wall time with `s` streams: 1 ⇒ the full sum; 2 ⇒ the
    /// best pairing (one engine alone, the other two sharing a stream);
    /// ≥3 ⇒ every term overlaps, `max(t0, t1, t2)`.
    pub fn predicted_time(&self, s: usize) -> f64 {
        let OffloadCosts { t0, t1, t2 } = *self;
        match s {
            0 => f64::INFINITY,
            1 => t0 + t1 + t2,
            2 => t0.max(t1 + t2).min(t1.max(t0 + t2)).min(t2.max(t0 + t1)),
            _ => t0.max(t1).max(t2),
        }
    }

    /// Is the pipeline compute-bound (`t0 ≥ max(t1, t2)`) — the condition
    /// for running at the SRGEMM rate once every stage overlaps?
    pub fn compute_bound(&self) -> bool {
        self.t0 >= self.t1.max(self.t2)
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
        let c = OffloadCosts { t0: 10.0, t1: 2.0, t2: 3.0 };
        // best: overlap t0 with (t1+t2)=5 → 10
        assert_eq!(c.predicted_time(2), 10.0);
        let c = OffloadCosts { t0: 4.0, t1: 5.0, t2: 6.0 };
        // pairings: max(4, 11)=11, max(5,10)=10, max(6,9)=9 → 9
        assert_eq!(c.predicted_time(2), 9.0);
    }
}
