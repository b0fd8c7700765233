//! Streams: in-order op queues with engine-overlap timing.
//!
//! Ops issued to one stream are serialized (their simulated intervals never
//! overlap); ops on different streams overlap freely except where they
//! compete for the same engine (SRGEMM unit, H2D copy engine, D2H copy
//! engine). This is the `cudaStream` semantics §4.3 relies on: "In a single
//! cudaStream all the tasks will be performed sequentially but cudaStreams
//! are asynchronous to each other."
//!
//! Functionally, each op executes immediately on the caller's thread; the
//! clock model runs alongside, so results are exact while timings reflect a
//! V100-class device.

use srgemm::gemm::{gemm_packed_with_scratch, PackedA, PackedB};
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use crate::device::{DeviceBuffer, SimGpu};

/// Completion timestamp of a stream op, usable for host-side waits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Simulated completion time, seconds.
    pub at: f64,
}

/// An in-order operation queue on a [`SimGpu`].
pub struct Stream {
    gpu: SimGpu,
    cursor: f64,
}

impl SimGpu {
    /// Create a stream. Streams are independent op queues; make several to
    /// model multi-stream overlap (§4.4).
    pub fn stream(&self) -> Stream {
        Stream { gpu: self.clone(), cursor: 0.0 }
    }
}

impl Stream {
    /// Current stream cursor (time the last enqueued op completes).
    pub fn now(&self) -> f64 {
        self.cursor
    }

    /// Have the stream wait until simulated time `t` (used to model the host
    /// handing work to a stream only after some host-side event).
    pub fn wait_until(&mut self, t: f64) {
        self.cursor = self.cursor.max(t);
    }

    fn run_on_engine(&mut self, pick: impl FnOnce(&mut crate::device::Engines) -> &mut f64, dur: f64) -> Event {
        let mut st = self.gpu.state.lock();
        let engine = pick(&mut st.engines);
        let start = engine.max(self.cursor);
        let end = start + dur;
        *engine = end;
        self.cursor = end;
        Event { at: end }
    }

    /// Copy host data into a device buffer (h2dXfer).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn h2d<T: Copy>(&mut self, dst: &DeviceBuffer<T>, src: &[T]) -> Event {
        self.h2d_view(dst, &View::from_slice(src, 1, src.len()))
    }

    /// h2dXfer of a host matrix window (a row or column slab of a larger
    /// matrix): its rows go straight into the device buffer, row-major and
    /// contiguous, with no host-side copy in between.
    ///
    /// # Panics
    /// Panics if the buffer does not hold exactly `rows × cols` elements.
    pub fn h2d_view<T: Copy>(&mut self, dst: &DeviceBuffer<T>, src: &View<'_, T>) -> Event {
        let (rows, cols) = (src.rows(), src.cols());
        {
            let mut data = dst.data.lock();
            assert_eq!(data.len(), rows * cols, "h2d length mismatch");
            ViewMut::from_slice(&mut data, rows, cols).copy_from(src);
        }
        self.h2d_timed((rows * cols * std::mem::size_of::<T>()) as f64)
    }

    /// Copy a device buffer back to host memory (d2hXfer).
    pub fn d2h<T: Copy>(&mut self, src: &DeviceBuffer<T>, dst: &mut [T]) -> Event {
        {
            let data = src.data.lock();
            assert!(dst.len() <= data.len(), "d2h longer than source buffer");
            dst.copy_from_slice(&data[..dst.len()]);
        }
        self.d2h_timed(std::mem::size_of_val(dst) as f64)
    }

    /// Stage the row-major `k×n` operand in `b` the way the kernel reads it
    /// (its shared-memory layout on a real device). A caller that launches
    /// many products against one resident `B` slab stages it once and hands
    /// the result to [`Stream::srgemm_staged`]. No simulated time: the
    /// modelled SRGEMM rate already contains the kernel's own staging.
    pub fn stage_b<S: Semiring>(
        &self,
        b: &DeviceBuffer<S::Elem>,
        k: usize,
        n: usize,
    ) -> PackedB<S::Elem> {
        PackedB::pack::<S>(&View::from_slice(&b.data.lock(), k, n))
    }

    /// Launch `X ← A ⊗ B` (`init = true`: X is first filled with 0̄) or
    /// `X ← X ⊕ A ⊗ B` (`init = false`) on the SRGEMM engine, against an
    /// operand staged by [`Stream::stage_b`]. Buffers hold row-major `m×k`
    /// and `m×n` data. The kernel runs in place on the device buffers, `A`
    /// staged through the caller's `pa`, so a tile loop allocates nothing
    /// per launch. Charged `2·m·n·k` flops.
    pub fn srgemm_staged<S: Semiring>(
        &mut self,
        x: &DeviceBuffer<S::Elem>,
        a: &DeviceBuffer<S::Elem>,
        pb: &PackedB<S::Elem>,
        m: usize,
        init: bool,
        pa: &mut PackedA<S::Elem>,
    ) -> Event {
        let (k, n) = (pb.rows(), pb.cols());
        {
            let a_data = a.data.lock();
            let mut x_data = x.data.lock();
            let mut xv = ViewMut::from_slice(&mut x_data, m, n);
            if init {
                xv.fill(S::zero());
            }
            gemm_packed_with_scratch::<S>(&mut xv, &View::from_slice(&a_data, m, k), pb, pa);
        }
        self.srgemm_timed(2.0 * m as f64 * n as f64 * k as f64)
    }

    /// Timing-only h2dXfer of `bytes`: advances the clocks, moves no data.
    /// Each data-moving op charges its engine through the timing-only op of
    /// that engine; the Summit-scale figure harnesses call these alone.
    pub fn h2d_timed(&mut self, bytes: f64) -> Event {
        let dur = self.gpu.spec.h2d_time(bytes);
        self.run_on_engine(|e| &mut e.h2d, dur)
    }

    /// Timing-only d2h (see [`Stream::h2d_timed`]).
    pub fn d2h_timed(&mut self, bytes: f64) -> Event {
        let dur = self.gpu.spec.d2h_time(bytes);
        self.run_on_engine(|e| &mut e.d2h, dur)
    }

    /// Timing-only SRGEMM of `flops` (see [`Stream::h2d_timed`]).
    pub fn srgemm_timed(&mut self, flops: f64) -> Event {
        let dur = self.gpu.spec.gemm_time(flops);
        self.run_on_engine(|e| &mut e.gemm, dur)
    }
}

/// Host-side ⊕-accumulate (`hostUpdate`): `C_tile ← C_tile ⊕ X`, straight
/// from a row-major staging slice — the d2h destination itself — so the tile
/// loop accumulates into `C` with zero intermediate copies. Charged to the
/// host-memory engine starting no earlier than `ready` (the d2h event);
/// returns the completion event.
///
/// # Panics
/// Panics if `x.len() != c_tile.rows() * c_tile.cols()`.
pub fn host_update_slice<S: Semiring>(
    gpu: &SimGpu,
    ready: Event,
    c_tile: &mut ViewMut<'_, S::Elem>,
    x: &[S::Elem],
) -> Event {
    let (rows, cols) = (c_tile.rows(), c_tile.cols());
    assert_eq!(x.len(), rows * cols, "staging slice does not match tile shape");
    for i in 0..rows {
        let crow = c_tile.row_mut(i);
        let xrow = &x[i * cols..(i + 1) * cols];
        for (cv, &xv) in crow.iter_mut().zip(xrow) {
            *cv = S::add(*cv, xv);
        }
    }
    host_update_timed(gpu, ready, (rows * cols) as f64, std::mem::size_of::<S::Elem>() as f64)
}

/// Timing-only host update.
pub fn host_update_timed(gpu: &SimGpu, ready: Event, elems: f64, elem_bytes: f64) -> Event {
    let dur = gpu.spec.host_update_time(elems, elem_bytes);
    Event { at: gpu.host_work(ready.at, dur) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;
    use srgemm::MinPlusF32;

    fn tiny() -> SimGpu {
        SimGpu::new(GpuSpec::test_tiny()) // all rates 1e9, latency 0
    }

    #[test]
    fn h2d_d2h_round_trip_preserves_data() {
        let gpu = tiny();
        let buf = gpu.alloc::<f32>(4, 0.0).unwrap();
        let mut s = gpu.stream();
        s.h2d(&buf, &[1.0, 2.0, 3.0, 4.0]);
        let mut out = [0.0f32; 4];
        s.d2h(&buf, &mut out);
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn ops_on_one_stream_serialize() {
        let gpu = tiny();
        let buf = gpu.alloc::<u8>(1000, 0).unwrap();
        let mut s = gpu.stream();
        let e1 = s.h2d(&buf, &vec![0u8; 1000]); // 1000 B / 1e9 B/s = 1 µs
        let mut sink = vec![0u8; 1000];
        let e2 = s.d2h(&buf, &mut sink); // different engine, but same stream
        assert!((e1.at - 1e-6).abs() < 1e-12);
        assert!((e2.at - 2e-6).abs() < 1e-12);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let gpu = tiny();
        let a = gpu.alloc::<u8>(1000, 0).unwrap();
        let b = gpu.alloc::<u8>(1000, 0).unwrap();
        let mut s1 = gpu.stream();
        let mut s2 = gpu.stream();
        let e1 = s1.h2d(&a, &vec![0u8; 1000]);
        let mut sink = vec![0u8; 1000];
        let e2 = s2.d2h(&b, &mut sink); // d2h engine is free → starts at 0
        assert_eq!(e1.at, e2.at); // perfect overlap
    }

    #[test]
    fn same_engine_contention_serializes_across_streams() {
        let gpu = tiny();
        let a = gpu.alloc::<u8>(1000, 0).unwrap();
        let b = gpu.alloc::<u8>(1000, 0).unwrap();
        let mut s1 = gpu.stream();
        let mut s2 = gpu.stream();
        let e1 = s1.h2d(&a, &vec![0u8; 1000]);
        let e2 = s2.h2d(&b, &vec![0u8; 1000]); // same engine → queued behind
        assert!(e2.at > e1.at);
    }

    #[test]
    fn srgemm_computes_and_charges_time() {
        let gpu = tiny();
        let a = gpu.alloc::<f32>(4, 0.0).unwrap();
        let b = gpu.alloc::<f32>(4, 0.0).unwrap();
        let x = gpu.alloc::<f32>(4, 0.0).unwrap();
        let mut s = gpu.stream();
        s.h2d(&a, &[1.0, 2.0, 4.0, 1.0]);
        s.h2d(&b, &[0.0, 5.0, 1.0, 0.0]);
        let pb = s.stage_b::<MinPlusF32>(&b, 2, 2);
        let e = s.srgemm_staged::<MinPlusF32>(&x, &a, &pb, 2, true, &mut PackedA::new());
        let mut out = [0.0f32; 4];
        s.d2h(&x, &mut out);
        assert_eq!(out, [1.0, 2.0, 2.0, 1.0]);
        // 2*2*2*2 = 16 flops at 1e9 flop/s
        assert!(e.at > 16.0 / 1e9);
    }

    #[test]
    fn h2d_view_uploads_a_strided_window_row_major() {
        let gpu = tiny();
        let host = srgemm::Matrix::from_fn(4, 5, |i, j| (i * 5 + j) as f32);
        let buf = gpu.alloc::<f32>(6, 0.0).unwrap();
        let mut s = gpu.stream();
        let e = s.h2d_view(&buf, &host.subview(1, 2, 3, 2));
        let mut out = [0.0f32; 6];
        s.d2h(&buf, &mut out);
        assert_eq!(out, [7.0, 8.0, 12.0, 13.0, 17.0, 18.0]);
        // charged for the window's 24 bytes, like a contiguous h2d
        assert!((e.at - 24.0 / 1e9).abs() < 1e-15);
    }

    #[test]
    fn one_staged_b_serves_several_launches_and_init_false_accumulates() {
        let gpu = tiny();
        let a = gpu.alloc::<f32>(4, 0.0).unwrap();
        let b = gpu.alloc::<f32>(4, 0.0).unwrap();
        let x = gpu.alloc::<f32>(4, 0.0).unwrap();
        let mut s = gpu.stream();
        s.h2d(&b, &[0.0, 5.0, 1.0, 0.0]);
        let pb = s.stage_b::<MinPlusF32>(&b, 2, 2);
        let mut pa = PackedA::new();
        let mut out = [0.0f32; 4];

        s.h2d(&a, &[1.0, 2.0, 4.0, 1.0]);
        s.srgemm_staged::<MinPlusF32>(&x, &a, &pb, 2, true, &mut pa);
        s.d2h(&x, &mut out);
        assert_eq!(out, [1.0, 2.0, 2.0, 1.0]);

        // a second A against the same staged B, ⊕-ed into the standing X
        s.h2d(&a, &[0.5, 9.0, 9.0, 9.0]);
        let before = s.now();
        let e = s.srgemm_staged::<MinPlusF32>(&x, &a, &pb, 2, false, &mut pa);
        s.d2h(&x, &mut out);
        assert_eq!(out, [0.5, 2.0, 2.0, 1.0]);
        assert!((e.at - before - 16.0 / 1e9).abs() < 1e-15, "2·2·2·2 flops at 1e9 flop/s");
    }

    #[test]
    fn host_update_slice_matches_view_form() {
        // the slice form ⊕-accumulates a 2×2 tile exactly like an
        // element-wise min over the two views, and costs what the
        // timing-only form charges for the same tile
        let gpu = tiny();
        let mut c = srgemm::Matrix::from_rows(&[&[5.0f32, 1.0], &[0.5, 9.0]]);
        let x = srgemm::Matrix::from_rows(&[&[3.0f32, 2.0], &[4.0, 0.25]]);
        let want = srgemm::Matrix::from_fn(2, 2, |i, j| c[(i, j)].min(x[(i, j)]));
        let e1 = host_update_slice::<MinPlusF32>(
            &gpu,
            Event { at: 1.0 },
            &mut c.view_mut(),
            x.as_slice(),
        );
        gpu.reset_clocks();
        let e2 = host_update_timed(&gpu, Event { at: 1.0 }, 4.0, 4.0);
        assert!(c.eq_exact(&want));
        assert_eq!(e1.at, e2.at);
    }

    #[test]
    fn host_update_accumulates_and_charges_host_engine() {
        let gpu = tiny();
        let mut c = srgemm::Matrix::from_rows(&[&[5.0f32, 1.0]]);
        let x = srgemm::Matrix::from_rows(&[&[3.0f32, 2.0]]);
        let e = host_update_slice::<MinPlusF32>(&gpu, Event { at: 1.0 }, &mut c.view_mut(), x.as_slice());
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 1.0);
        // starts at ready=1.0, duration = 3*2*4/1e9
        assert!((e.at - (1.0 + 24.0 / 1e9)).abs() < 1e-12);
    }
}
