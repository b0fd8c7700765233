//! Device specifications (calibration constants).

/// Performance/capacity constants of one GPU plus its host link.
///
/// [`GpuSpec::summit_v100`] is calibrated from the paper:
/// §5.1.1 (16 GB HBM2, NVLink-2, V100 peaks) and §4.1 (measured 6.8 TF/s
/// SRGEMM, 7.8 TF/s no-FMA ceiling). The host-memory bandwidth is chosen so
/// Eq. 5 reproduces the paper's minimum-block-size estimate of 624
/// (`3·t_m/2·t_f = 624` ⇒ ≈75 GB/s effective DRAM bandwidth per GPU's host
/// share).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuSpec {
    /// Device memory capacity in bytes.
    pub mem_bytes: u64,
    /// Sustained SRGEMM rate, flop/s (the paper's measured 6.8 TF/s).
    pub srgemm_flops: f64,
    /// Theoretical no-FMA peak, flop/s (used for "percent of peak" labels).
    pub peak_flops: f64,
    /// Host→device bandwidth, bytes/s (one NVLink direction).
    pub h2d_bw: f64,
    /// Device→host bandwidth, bytes/s.
    pub d2h_bw: f64,
    /// Host CPU↔DRAM bandwidth available to this GPU's hostUpdate, bytes/s.
    pub host_mem_bw: f64,
    /// Fixed overhead per kernel launch or transfer, seconds.
    pub op_latency: f64,
}

impl GpuSpec {
    /// One NVIDIA V100 of a Summit node, per the paper's calibration.
    pub fn summit_v100() -> Self {
        GpuSpec {
            mem_bytes: 16 * (1 << 30),
            srgemm_flops: 6.8e12,
            peak_flops: 7.8e12,
            h2d_bw: 50e9,
            d2h_bw: 50e9,
            host_mem_bw: 75e9,
            op_latency: 10e-6,
        }
    }

    /// A deliberately tiny device for unit tests: 1 MB of memory, round
    /// numbers for the rates so analytic expectations are simple.
    pub fn test_tiny() -> Self {
        GpuSpec {
            mem_bytes: 1 << 20,
            srgemm_flops: 1e9,
            peak_flops: 1e9,
            h2d_bw: 1e9,
            d2h_bw: 1e9,
            host_mem_bw: 1e9,
            op_latency: 0.0,
        }
    }

    /// Seconds to run `flops` on the SRGEMM engine.
    pub fn gemm_time(&self, flops: f64) -> f64 {
        self.op_latency + flops / self.srgemm_flops
    }

    /// Seconds to move `bytes` host→device.
    pub fn h2d_time(&self, bytes: f64) -> f64 {
        self.op_latency + bytes / self.h2d_bw
    }

    /// Seconds to move `bytes` device→host.
    pub fn d2h_time(&self, bytes: f64) -> f64 {
        self.op_latency + bytes / self.d2h_bw
    }

    /// Seconds for the host to ⊕-accumulate an `elems`-element tile:
    /// 2 reads + 1 write per element (paper §4.5's `3mn·t_m`).
    pub fn host_update_time(&self, elems: f64, elem_bytes: f64) -> f64 {
        3.0 * elems * elem_bytes / self.host_mem_bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summit_spec_matches_paper_numbers() {
        let s = GpuSpec::summit_v100();
        assert_eq!(s.mem_bytes, 17_179_869_184);
        assert_eq!(s.srgemm_flops, 6.8e12);
        // Eq. 5 check lives in cost.rs; here just sanity on time helpers.
        let t = s.gemm_time(6.8e12);
        assert!((t - 1.0).abs() < 1e-3);
    }

    #[test]
    fn time_helpers_scale_linearly() {
        let s = GpuSpec::test_tiny();
        assert_eq!(s.h2d_time(1e9), 1.0);
        assert_eq!(s.d2h_time(5e8), 0.5);
        // 3 touches × (1e9/12) elems × 4 B / 1e9 B/s = 1 s
        assert_eq!(s.host_update_time(1e9 / 12.0, 4.0), 1.0);
    }
}
