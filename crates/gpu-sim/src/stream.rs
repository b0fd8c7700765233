//! Streams: in-order op queues with engine-overlap timing.
//!
//! Ops issued to one stream are serialized (their simulated intervals never
//! overlap); ops on different streams overlap freely except where they
//! compete for the same engine (SRGEMM unit, H2D copy engine, D2H copy
//! engine). This is the `cudaStream` semantics §4.3 relies on: "In a single
//! cudaStream all the tasks will be performed sequentially but cudaStreams
//! are asynchronous to each other."
//!
//! An op moves no data: it advances the clocks of a V100-class device. The
//! offload computes on the host (see [`crate::oog`]), so results are exact
//! while timings reflect the device.

use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use crate::device::{Engines, SimGpu};

/// Completion timestamp of a stream op, usable for host-side waits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Event {
    /// Simulated completion time, seconds.
    pub at: f64,
}

/// An in-order operation queue on a [`SimGpu`].
pub(crate) struct Stream {
    gpu: SimGpu,
    cursor: f64,
}

impl SimGpu {
    /// Create a stream. Streams are independent op queues; make several to
    /// model multi-stream overlap (§4.4).
    pub(crate) fn stream(&self) -> Stream {
        Stream { gpu: self.clone(), cursor: 0.0 }
    }
}

impl Stream {
    /// Have the stream wait until simulated time `t` (used to model the host
    /// handing work to a stream only after some host-side event).
    pub fn wait_until(&mut self, t: f64) {
        self.cursor = self.cursor.max(t);
    }

    fn run_on_engine(&mut self, pick: impl FnOnce(&mut Engines) -> &mut f64, dur: f64) -> Event {
        let mut engines = self.gpu.engines.lock();
        let engine = pick(&mut engines);
        let start = engine.max(self.cursor);
        let end = start + dur;
        *engine = end;
        self.cursor = end;
        Event { at: end }
    }

    /// h2dXfer of `bytes` on the H2D copy engine.
    pub fn h2d_timed(&mut self, bytes: f64) -> Event {
        let dur = self.gpu.spec.h2d_time(bytes);
        self.run_on_engine(|e| &mut e.h2d, dur)
    }

    /// d2hXfer of `bytes` on the D2H copy engine.
    pub fn d2h_timed(&mut self, bytes: f64) -> Event {
        let dur = self.gpu.spec.d2h_time(bytes);
        self.run_on_engine(|e| &mut e.d2h, dur)
    }

    /// SRGEMM of `flops` on the SRGEMM engine.
    pub fn srgemm_timed(&mut self, flops: f64) -> Event {
        let dur = self.gpu.spec.gemm_time(flops);
        self.run_on_engine(|e| &mut e.gemm, dur)
    }
}

/// Host-side ⊕-accumulate (`hostUpdate`): `C_tile ← C_tile ⊕ X`, row by
/// row. Its time is [`host_update_timed`]'s.
pub(crate) fn host_update<S: Semiring>(c_tile: &mut ViewMut<'_, S::Elem>, x: &View<'_, S::Elem>) {
    for i in 0..c_tile.rows() {
        for (cv, &xv) in c_tile.row_mut(i).iter_mut().zip(x.row(i)) {
            *cv = S::add(*cv, xv);
        }
    }
}

/// The time of a `hostUpdate` of `elems` elements: charged to the
/// host-memory engine starting no earlier than `ready` (the d2h event);
/// returns the completion event.
pub(crate) fn host_update_timed(gpu: &SimGpu, ready: Event, elems: f64, elem_bytes: f64) -> Event {
    let dur = gpu.spec.host_update_time(elems, elem_bytes);
    Event { at: gpu.host_work(ready.at, dur) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oog::{oog_srgemm, OogConfig};
    use crate::spec::GpuSpec;
    use srgemm::{Matrix, MinPlusF32};

    fn tiny() -> SimGpu {
        SimGpu::new(GpuSpec::test_tiny()) // all rates 1e9, latency 0
    }

    #[test]
    fn ops_on_one_stream_serialize() {
        let gpu = tiny();
        let mut s = gpu.stream();
        let e1 = s.h2d_timed(1000.0); // 1000 B / 1e9 B/s = 1 µs
        let e2 = s.d2h_timed(1000.0); // different engine, but same stream
        assert!((e1.at - 1e-6).abs() < 1e-12);
        assert!((e2.at - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let gpu = tiny();
        let mut s1 = gpu.stream();
        let mut s2 = gpu.stream();
        let e1 = s1.h2d_timed(1000.0);
        let e2 = s2.d2h_timed(1000.0); // d2h engine is free → starts at 0
        assert_eq!(e1.at, e2.at); // perfect overlap
    }

    #[test]
    fn same_engine_contention_serializes_across_streams() {
        let gpu = tiny();
        let mut s1 = gpu.stream();
        let mut s2 = gpu.stream();
        let e1 = s1.h2d_timed(1000.0);
        let e2 = s2.h2d_timed(1000.0); // same engine → queued behind
        assert!(e2.at > e1.at);
    }

    #[test]
    fn srgemm_computes_and_charges_time() {
        // the offload computes its one 2×2 tile from the host operands ...
        let gpu = tiny();
        let a = Matrix::from_rows(&[&[1.0f32, 2.0], &[4.0, 1.0]]);
        let b = Matrix::from_rows(&[&[0.0f32, 5.0], &[1.0, 0.0]]);
        let mut c = Matrix::filled(2, 2, f32::INFINITY);
        let cfg = OogConfig::new(2, 2, 1);
        oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view()).unwrap();
        assert_eq!(c.as_slice(), [1.0, 2.0, 2.0, 1.0]);
        // ... and its SrGemm charges 2·2·2·2 = 16 flops at 1e9 flop/s
        gpu.reset_clocks();
        let e = gpu.stream().srgemm_timed(16.0);
        assert!((e.at - 16.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn host_update_accumulates_and_charges_host_engine() {
        let gpu = tiny();
        let mut c = Matrix::from_rows(&[&[5.0f32, 1.0]]);
        let x = Matrix::from_rows(&[&[3.0f32, 2.0]]);
        host_update::<MinPlusF32>(&mut c.view_mut(), &x.view());
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 1.0);
        // starts at ready=1.0, duration = 3*2*4/1e9
        let e = host_update_timed(&gpu, Event { at: 1.0 }, 2.0, 4.0);
        assert!((e.at - (1.0 + 24.0 / 1e9)).abs() < 1e-12);
    }
}
