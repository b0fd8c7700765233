//! The simulated device is its [`GpuSpec`](crate::GpuSpec): a memory
//! capacity and the rates of its engines. It holds no data and no clocks —
//! the offload computes from host memory and keeps its engine clocks for one
//! call — so capacity is decided by the offload's preflight against
//! [`GpuSpec::mem_bytes`](crate::GpuSpec::mem_bytes).

/// The device is out of memory. Carries the request and the device size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Oom {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes the device holds.
    pub available: u64,
}

impl std::fmt::Display for Oom {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for Oom {}

#[cfg(test)]
mod tests {
    use crate::oog::{oog_srgemm_model, OogConfig};
    use crate::spec::GpuSpec;

    #[test]
    fn clocks_start_at_zero() {
        // an empty product on an idle device (no op latency) ends at 0 s
        let cfg = OogConfig::new(8, 8, 2);
        assert_eq!(oog_srgemm_model(&GpuSpec::test_tiny(), &cfg, 0, 0, 8, 4), Ok(0.0));
    }
}
