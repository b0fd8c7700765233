//! Streams and engines as clocks.
//!
//! Ops issued to one stream are serialized (their simulated intervals never
//! overlap); ops on different streams overlap freely except where they
//! compete for the same engine (SRGEMM unit, H2D copy engine, D2H copy
//! engine, host memory). This is the `cudaStream` semantics §4.3 relies on:
//! "In a single cudaStream all the tasks will be performed sequentially but
//! cudaStreams are asynchronous to each other."
//!
//! A stream is its cursor and an engine its clock, both plain seconds that
//! the offload's tile loop keeps as locals (see [`crate::oog`]); an op moves
//! no data.

/// Start an op of `dur` seconds on a stream whose cursor is `cursor` and an
/// engine whose clock is `engine`: it begins at the later of the two, and
/// both advance to its end, which is returned.
pub(crate) fn issue(engine: &mut f64, cursor: &mut f64, dur: f64) -> f64 {
    let end = engine.max(*cursor) + dur;
    *engine = end;
    *cursor = end;
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oog::{oog_srgemm, OogConfig};
    use crate::spec::GpuSpec;
    use srgemm::{Matrix, MinPlusF32};

    // 1000 B at the tiny device's 1e9 B/s
    const US: f64 = 1000.0 / 1e9;

    #[test]
    fn ops_on_one_stream_serialize() {
        let (mut h2d, mut d2h, mut s) = (0.0, 0.0, 0.0);
        let e1 = issue(&mut h2d, &mut s, US);
        let e2 = issue(&mut d2h, &mut s, US); // different engine, but same stream
        assert_eq!(e1, 1e-6);
        assert_eq!(e2, 2e-6);
    }

    #[test]
    fn different_streams_overlap_on_different_engines() {
        let (mut h2d, mut d2h, mut s1, mut s2) = (0.0, 0.0, 0.0, 0.0);
        let e1 = issue(&mut h2d, &mut s1, US);
        let e2 = issue(&mut d2h, &mut s2, US); // d2h engine is free → starts at 0
        assert_eq!(e1, e2); // perfect overlap
    }

    #[test]
    fn same_engine_contention_serializes_across_streams() {
        let (mut h2d, mut s1, mut s2) = (0.0, 0.0, 0.0);
        let e1 = issue(&mut h2d, &mut s1, US);
        let e2 = issue(&mut h2d, &mut s2, US); // same engine → queued behind
        assert_eq!((e1, e2), (1e-6, 2e-6));
    }

    /// One 2×2×2 tile on one stream of the tiny device (every rate 1e9,
    /// no op latency): uploads of A and B (16 B each), SrGemm, d2hXfer and
    /// hostUpdate run back to back.
    fn one_tile(c: &mut Matrix<f32>) -> f64 {
        let a = Matrix::from_rows(&[&[1.0f32, 2.0], &[4.0, 1.0]]);
        let b = Matrix::from_rows(&[&[0.0f32, 5.0], &[1.0, 0.0]]);
        let cfg = OogConfig::new(2, 2, 1);
        oog_srgemm::<MinPlusF32>(&GpuSpec::test_tiny(), &cfg, &mut c.view_mut(), &a.view(), &b.view())
            .unwrap()
    }

    #[test]
    fn srgemm_computes_and_charges_time() {
        // the offload computes its one 2×2 tile from the host operands ...
        let mut c = Matrix::filled(2, 2, f32::INFINITY);
        let secs = one_tile(&mut c);
        assert_eq!(c.as_slice(), [1.0, 2.0, 2.0, 1.0]);
        // ... and its SrGemm charges 2·2·2·2 = 16 flops at 1e9 flop/s
        // between the 32 B of uploads and the 16 B d2hXfer, before the
        // hostUpdate's 3·4·4 B
        let srgemm_end = 32e-9 + 16e-9;
        assert_eq!(secs, (srgemm_end + 16e-9) + 48e-9);
    }

    #[test]
    fn host_update_accumulates_and_charges_host_engine() {
        // hostUpdate ⊕-accumulates the tile [1 2; 2 1] into C: each entry
        // keeps the smaller of the two
        let mut c = Matrix::from_rows(&[&[5.0f32, 1.0], &[3.0, 0.5]]);
        let secs = one_tile(&mut c);
        assert_eq!(c.as_slice(), [1.0, 1.0, 2.0, 0.5]);
        // it starts when the d2hXfer ends and touches each of the 4
        // elements 3 times at 4 B each
        let d2h_end = (32e-9 + 16e-9) + 16e-9;
        assert_eq!(secs, d2h_end + 48e-9);
    }
}
