//! The simulated device: a memory capacity and engine clocks. It holds no
//! data — the offload computes from host memory — so capacity is decided by
//! the offload's preflight against [`GpuSpec::mem_bytes`].

use std::sync::Arc;

use parking_lot::Mutex;

use crate::spec::GpuSpec;

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

pub(crate) struct Engines {
    /// SRGEMM compute engine clock (seconds).
    pub gemm: f64,
    /// Host→device copy engine clock.
    pub h2d: f64,
    /// Device→host copy engine clock.
    pub d2h: f64,
    /// Host-memory (hostUpdate) engine clock.
    pub host: f64,
}

const IDLE: Engines = Engines { gemm: 0.0, h2d: 0.0, d2h: 0.0, host: 0.0 };

/// A simulated GPU: a spec and its engine clocks. Cheap to clone (shared
/// clocks).
#[derive(Clone)]
pub struct SimGpu {
    pub(crate) spec: GpuSpec,
    pub(crate) engines: Arc<Mutex<Engines>>,
}

impl SimGpu {
    /// A device with the given spec, all engines at time zero.
    pub fn new(spec: GpuSpec) -> Self {
        SimGpu { spec, engines: Arc::new(Mutex::new(IDLE)) }
    }

    /// The device's spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Simulated wall-clock so far: the furthest-ahead engine.
    pub fn now(&self) -> f64 {
        let e = self.engines.lock();
        e.gemm.max(e.h2d).max(e.d2h).max(e.host)
    }

    /// Reset all engine clocks. Benches reuse one device across
    /// measurements.
    pub fn reset_clocks(&self) {
        *self.engines.lock() = IDLE;
    }

    /// Advance the host engine to at least `t` and charge `dur` seconds of
    /// host-memory work; returns the completion time. Used by the offload
    /// engine's `hostUpdate`.
    pub(crate) fn host_work(&self, ready_at: f64, dur: f64) -> f64 {
        let mut e = self.engines.lock();
        e.host = e.host.max(ready_at) + dur;
        e.host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_start_at_zero() {
        let gpu = SimGpu::new(GpuSpec::test_tiny());
        assert_eq!(gpu.now(), 0.0);
    }
}
