//! Out-of-GPU semiring matrix multiplication (`ooGSrGemm`, paper §4.3–4.4).
//!
//! Computes `C ← C ⊕ A ⊗ B` where `C` (m×n) lives in *host* memory and may
//! exceed device capacity; only `A` (m×k), `B` (k×n) and `s` tile buffers of
//! `m_x × n_x` must fit on the device. One tile loop round-robins output
//! tiles over `s` streams; `A_i` row-slabs and `B_j` column-slabs are
//! uploaded once, when first touched (the §4.4 input pipelining); the host
//! consumes finished tiles in initiation order and ⊕-accumulates them into
//! `C` (`hostUpdate`). SRGEMM, d2hXfer and hostUpdate overlap across streams
//! — the execution order of the paper's Fig. 2.
//!
//! The device holds no data. [`oog_srgemm`] computes each tile straight
//! from the host operands at the tile's SrGemm point; [`oog_srgemm_model`]
//! runs the same loop with nothing to compute. Both charge the same clocks.

use srgemm::gemm::{gemm_packed_with_scratch, PackedA, PackedB};
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use crate::device::{Oom, SimGpu};
use crate::stream::{host_update, host_update_timed, Event, Stream};

/// Tiling and stream configuration for [`oog_srgemm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OogConfig {
    /// Output tile rows (`m_x`).
    pub mx: usize,
    /// Output tile cols (`n_x`).
    pub nx: usize,
    /// Number of CUDA streams (`s`). 1 = fully serialized; ≥3 overlaps all
    /// three pipeline stages (§4.5).
    pub streams: usize,
}

impl OogConfig {
    /// Paper-flavored default: 2k×2k tiles on 3 streams ("performance is
    /// close to peak even for buffers of dimension 2k×2k", §5.3.1).
    pub fn new(mx: usize, nx: usize, streams: usize) -> Self {
        assert!(mx > 0 && nx > 0 && streams > 0, "tile dims and stream count must be positive");
        OogConfig { mx, nx, streams }
    }

    /// Typed form of `new`'s positivity contract. The fields are `pub`, so a
    /// literal construction can carry zeros past the constructor assert;
    /// both offload entry points call this before touching the tiling
    /// arithmetic (`div_ceil(0)` panics).
    pub fn validate(&self) -> Result<(), OogError> {
        if self.mx == 0 || self.nx == 0 || self.streams == 0 {
            return Err(OogError::InvalidConfig { mx: self.mx, nx: self.nx, streams: self.streams });
        }
        Ok(())
    }
}

/// Typed failure out of the offload entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OogError {
    /// A zero tile dimension or stream count reached the entry point
    /// (literal [`OogConfig`] construction bypassing `new`'s assert).
    InvalidConfig {
        /// Offending tile rows.
        mx: usize,
        /// Offending tile cols.
        nx: usize,
        /// Offending stream count.
        streams: usize,
    },
    /// The full device requirement — `A` + `B` slabs *and* the `s` tile
    /// buffers, reported together — exceeds device memory.
    Oom(Oom),
}

impl std::fmt::Display for OogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OogError::InvalidConfig { mx, nx, streams } => write!(
                f,
                "offload config invalid: tile dims and stream count must be positive \
                 (mx={mx}, nx={nx}, streams={streams})"
            ),
            OogError::Oom(oom) => oom.fmt(f),
        }
    }
}

impl std::error::Error for OogError {}

impl From<Oom> for OogError {
    fn from(oom: Oom) -> Self {
        OogError::Oom(oom)
    }
}

/// The preflight both entry points run before the tile loop: validate the
/// config, then check the complete requirement — `A` (m×k) + `B` (k×n)
/// slabs plus the `s` tile buffers — against the device's memory. A
/// borderline configuration passes both entry points or fails both with the
/// same [`Oom`] numbers.
fn oog_preflight(
    gpu: &SimGpu,
    cfg: &OogConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
) -> Result<(), OogError> {
    cfg.validate()?;
    let need = ((m * k + k * n + cfg.streams * cfg.mx * cfg.nx) * elem_bytes) as u64;
    let available = gpu.spec.mem_bytes;
    if need > available {
        return Err(Oom { requested: need, available }.into());
    }
    Ok(())
}

/// The one ooGSrGemm schedule for an `m×n×k` product of `elem_bytes`-element
/// data, run after the preflight. Charges each tile's first-touch uploads,
/// SrGemm, d2hXfer and hostUpdate on the device clocks, calling
/// `srgemm(i0, j0, ib, jb)` at the SrGemm point of the `ib × jb` tile at
/// `(i0, j0)`. Returns the simulated seconds until the last hostUpdate.
fn pipeline(
    gpu: &SimGpu,
    cfg: &OogConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
    mut srgemm: impl FnMut(usize, usize, usize, usize),
) -> f64 {
    gpu.reset_clocks();
    let eb = elem_bytes as f64;
    let mb = m.div_ceil(cfg.mx).max(1);
    let nb = n.div_ceil(cfg.nx).max(1);
    let s = cfg.streams;

    let mut streams: Vec<Stream> = (0..s).map(|_| gpu.stream()).collect();
    // host-consumption event per stream: the next SrGemm on that stream must
    // not overwrite its tile buffer before the host has read the previous tile
    let mut host_free = vec![Event { at: 0.0 }; s];
    let mut a_up: Vec<Option<Event>> = vec![None; mb];
    let mut b_up: Vec<Option<Event>> = vec![None; nb];

    for (i, a_slab) in a_up.iter_mut().enumerate() {
        let i0 = i * cfg.mx;
        let ib = cfg.mx.min(m - i0);
        for (j, b_slab) in b_up.iter_mut().enumerate() {
            let j0 = j * cfg.nx;
            let jb = cfg.nx.min(n - j0);
            let r = (i * nb + j) % s;
            let st = &mut streams[r];

            // pipelined input uploads: first touch sends the slab
            let a_ev = *a_slab.get_or_insert_with(|| st.h2d_timed((ib * k) as f64 * eb));
            let b_ev = *b_slab.get_or_insert_with(|| st.h2d_timed((k * jb) as f64 * eb));

            // the tile's SrGemm waits for its inputs and for the host to
            // have consumed this stream's previous tile
            st.wait_until(a_ev.at.max(b_ev.at).max(host_free[r].at));
            srgemm(i0, j0, ib, jb);
            st.srgemm_timed(2.0 * ib as f64 * jb as f64 * k as f64);
            let d2h_ev = st.d2h_timed((ib * jb) as f64 * eb);
            // hostUpdate: serialized on the host-memory engine, in
            // initiation order
            host_free[r] = host_update_timed(gpu, d2h_ev, (ib * jb) as f64, eb);
        }
    }
    gpu.now()
}

/// Functional + timed offload GEMM: `C ← C ⊕ A ⊗ B`. Returns the simulated
/// seconds.
///
/// Returns a typed [`OogError`] if the config carries zero tile dims or
/// streams, or if `A`, `B` and the `s` tile buffers do not fit on the device
/// together (the caller — `Me-ParallelFw` — picks `m_x`, `n_x` accordingly).
/// Each tile is the paper's SrGemm → d2hXfer → hostUpdate, computed on the
/// host: `X = A_i ⊗ B_j` into one reused buffer filled with 0̄, then
/// `C_ij ← C_ij ⊕ X`, tile by tile in initiation order.
pub fn oog_srgemm<S: Semiring>(
    gpu: &SimGpu,
    cfg: &OogConfig,
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    b: &View<'_, S::Elem>,
) -> Result<f64, OogError> {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    assert_eq!(a.rows(), m, "A rows must match C rows");
    assert_eq!(b.rows(), k, "B rows must match A cols");
    assert_eq!(b.cols(), n, "B cols must match C cols");
    let eb = std::mem::size_of::<S::Elem>();
    oog_preflight(gpu, cfg, m, n, k, eb)?;

    // each B_j is packed on first touch and serves every tile of its column
    let mut packed: Vec<Option<PackedB<S::Elem>>> =
        std::iter::repeat_with(|| None).take(n.div_ceil(cfg.nx).max(1)).collect();
    let mut x = vec![S::zero(); cfg.mx * cfg.nx];
    let mut pa = PackedA::new();
    Ok(pipeline(gpu, cfg, m, n, k, eb, |i0, j0, ib, jb| {
        let pb = packed[j0 / cfg.nx]
            .get_or_insert_with(|| PackedB::pack::<S>(&b.subview(0, j0, k, jb)));
        let mut xv = ViewMut::from_slice(&mut x, ib, jb);
        xv.fill(S::zero());
        gemm_packed_with_scratch::<S>(&mut xv, &a.subview(i0, 0, ib, k), pb, &mut pa);
        host_update::<S>(&mut c.subview_mut(i0, j0, ib, jb), &xv.as_view());
    }))
}

/// Timing-only run of the [`oog_srgemm`] schedule for an `m×n×k` product of
/// `elem_bytes`-element data: the same tile loop with nothing to compute.
/// Returns the simulated seconds. Used by the Fig. 5/6 harnesses at Summit
/// scale.
pub fn oog_srgemm_model(
    gpu: &SimGpu,
    cfg: &OogConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
) -> Result<f64, OogError> {
    oog_preflight(gpu, cfg, m, n, k, elem_bytes)?;
    Ok(pipeline(gpu, cfg, m, n, k, elem_bytes, |_, _, _, _| {}))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OffloadCosts;
    use crate::spec::GpuSpec;
    use proptest::prelude::*;
    use srgemm::gemm::gemm_naive;
    use srgemm::{Matrix, MinPlusF32};

    fn lcg(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 256) as f32
        })
    }

    #[test]
    fn oog_matches_in_core_gemm() {
        let gpu = SimGpu::new(GpuSpec::test_tiny());
        let (m, n, k) = (37, 29, 11);
        let a = lcg(m, k, 1);
        let b = lcg(k, n, 2);
        let mut want = lcg(m, n, 3);
        let mut got = want.clone();
        gemm_naive::<MinPlusF32>(&mut want.view_mut(), &a.view(), &b.view());
        let cfg = OogConfig::new(8, 8, 3);
        let secs =
            oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view()).unwrap();
        assert!(want.eq_exact(&got));
        assert!(secs > 0.0);
    }

    #[test]
    fn oog_single_stream_matches_too() {
        let gpu = SimGpu::new(GpuSpec::test_tiny());
        let a = lcg(16, 8, 4);
        let b = lcg(8, 16, 5);
        let mut want = Matrix::filled(16, 16, f32::INFINITY);
        let mut got = want.clone();
        gemm_naive::<MinPlusF32>(&mut want.view_mut(), &a.view(), &b.view());
        let cfg = OogConfig::new(5, 7, 1);
        oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view()).unwrap();
        assert!(want.eq_exact(&got));
    }

    #[test]
    fn ragged_shapes_match_naive_for_one_and_three_streams() {
        // m, n, k multiples of neither tile dim: ragged last tile row and
        // column, a packed B slab narrower than n_x, and (k = 300 > KC) a
        // reduction spanning two packed tiles
        for (m, n, k, mx, nx) in [(37, 29, 11, 8, 8), (23, 41, 300, 7, 16), (5, 3, 2, 9, 9)] {
            let a = lcg(m, k, 21);
            let b = lcg(k, n, 22);
            let c0 = lcg(m, n, 23);
            let mut want = c0.clone();
            gemm_naive::<MinPlusF32>(&mut want.view_mut(), &a.view(), &b.view());
            for streams in [1, 3] {
                let gpu = SimGpu::new(GpuSpec::test_tiny());
                let cfg = OogConfig::new(mx, nx, streams);
                let mut got = c0.clone();
                oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view())
                    .unwrap();
                assert!(want.eq_exact(&got), "({m},{n},{k}) tiles {mx}x{nx}, {streams} streams");
            }
        }
    }

    #[test]
    fn gflops_is_zero_not_nan_for_degenerate_products() {
        // m = 0: no flops, but the B slabs still upload, so the throughput
        // a caller computes is 0, not 0/0 = NaN. With n = 0 too nothing
        // moves at all (the tiny device has no op latency): 0 s.
        let gpu = SimGpu::new(GpuSpec::test_tiny());
        let a = lcg(0, 8, 6);
        let b = lcg(8, 16, 7);
        let mut c = Matrix::filled(0, 16, f32::INFINITY);
        let cfg = OogConfig::new(8, 8, 2);
        let secs =
            oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view()).unwrap();
        assert_eq!(secs, (8 * 16 * 4) as f64 / 1e9);
        assert_eq!(0.0 / secs, 0.0);
        assert_eq!(oog_srgemm_model(&gpu, &cfg, 0, 0, 8, 4), Ok(0.0));
    }

    #[test]
    fn oog_fails_with_oom_when_operands_exceed_device() {
        let gpu = SimGpu::new(GpuSpec::test_tiny()); // 1 MiB
        let n = 512; // A+B = 2*512*512*4 B = 2 MiB > capacity
        let a = Matrix::filled(n, n, 1.0f32);
        let b = a.clone();
        let mut c = a.clone();
        let cfg = OogConfig::new(64, 64, 2);
        let err = oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view());
        assert!(err.is_err());
    }

    #[test]
    fn literal_zero_config_yields_typed_error_not_panic() {
        // `pub` fields let a literal construction skip `new`'s assert; the
        // entry points must catch it before `div_ceil(0)` panics.
        let gpu = SimGpu::new(GpuSpec::test_tiny());
        let a = lcg(8, 8, 1);
        let b = lcg(8, 8, 2);
        for cfg in [
            OogConfig { mx: 0, nx: 8, streams: 2 },
            OogConfig { mx: 8, nx: 0, streams: 2 },
            OogConfig { mx: 8, nx: 8, streams: 0 },
        ] {
            let mut c = lcg(8, 8, 3);
            let got = oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view());
            assert_eq!(
                got.unwrap_err(),
                OogError::InvalidConfig { mx: cfg.mx, nx: cfg.nx, streams: cfg.streams }
            );
            let got = oog_srgemm_model(&gpu, &cfg, 8, 8, 8, 4);
            assert_eq!(
                got.unwrap_err(),
                OogError::InvalidConfig { mx: cfg.mx, nx: cfg.nx, streams: cfg.streams }
            );
        }
    }

    #[test]
    fn oom_reports_full_requirement_before_any_allocation() {
        // A+B alone fit, but A+B+tiles do not: the error must carry the
        // complete requirement and the device's size — not a figure with
        // the tile buffers already deducted.
        let gpu = SimGpu::new(GpuSpec::test_tiny()); // 1 MiB
        let n = 256; // A+B = 2·256·256·4 = 512 KiB
        let cfg = OogConfig::new(320, 320, 2); // tiles = 2·320·320·4 = 800 KiB
        let a = Matrix::filled(n, n, 1.0f32);
        let b = a.clone();
        let mut c = a.clone();
        let want = ((n * n * 2 + cfg.streams * cfg.mx * cfg.nx) * 4) as u64;
        let got = oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view());
        assert_eq!(
            got.unwrap_err(),
            OogError::Oom(Oom { requested: want, available: gpu.spec().mem_bytes })
        );
    }

    #[test]
    fn functional_and_model_preflights_agree_at_the_capacity_boundary() {
        // Sweep tile sizes across the exact fits/doesn't-fit boundary: the
        // two entry points must agree on every configuration, and when they
        // refuse they must refuse with identical numbers.
        let n = 128;
        let a = lcg(n, n, 11);
        let b = lcg(n, n, 12);
        for mx in [32, 64, 96, 128, 160, 192] {
            let cfg = OogConfig::new(mx, mx, 3);
            let need = ((2 * n * n + 3 * mx * mx) * 4) as u64;
            for mem in [need - 4, need, need + 4] {
                let spec = GpuSpec { mem_bytes: mem, ..GpuSpec::test_tiny() };
                let gpu_f = SimGpu::new(spec);
                let gpu_m = SimGpu::new(spec);
                let mut c = lcg(n, n, 13);
                let f = oog_srgemm::<MinPlusF32>(&gpu_f, &cfg, &mut c.view_mut(), &a.view(), &b.view());
                let m = oog_srgemm_model(&gpu_m, &cfg, n, n, n, 4);
                match (f, m) {
                    (Ok(fs), Ok(ms)) => {
                        assert!(mem >= need, "mx={mx} mem={mem}: both passed below the boundary");
                        assert!((fs - ms).abs() < 1e-12);
                    }
                    (Err(fe), Err(me)) => {
                        assert!(mem < need, "mx={mx} mem={mem}: both refused above the boundary");
                        assert_eq!(fe, me, "mx={mx} mem={mem}");
                        assert_eq!(fe, OogError::Oom(Oom { requested: need, available: mem }));
                    }
                    (f, m) => panic!("mx={mx} mem={mem}: preflights disagree: {f:?} vs {m:?}"),
                }
            }
        }
    }

    #[test]
    fn more_streams_cut_simulated_time() {
        let gpu = SimGpu::new(GpuSpec::summit_v100());
        // k small → transfer/host bound → overlap helps
        let run = |s| {
            oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, s), 16384, 16384, 256, 4).unwrap()
        };
        let t1 = run(1);
        let t3 = run(3);
        assert!(t3 < t1, "3 streams ({t3}) must beat 1 ({t1})");
    }

    #[test]
    fn third_stream_overlaps_all_three_stages() {
        // Pins OogConfig's claim that "≥3 overlaps all three pipeline
        // stages": with 2 streams at most two of {srgemm, d2hXfer,
        // hostUpdate} run concurrently — a stream cannot start its next
        // srgemm until the host consumed its previous tile — so adding the
        // third stream must strictly cut simulated time in a regime where
        // every stage has comparable weight (small k → transfer/host bound).
        let gpu = SimGpu::new(GpuSpec::summit_v100());
        let run = |s| {
            oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, s), 16384, 16384, 256, 4).unwrap()
        };
        let t2 = run(2);
        let t3 = run(3);
        assert!(t3 < t2, "3 streams ({t3}) must beat 2 ({t2})");
        // and a 4th stream adds (almost) nothing: the three engines are the
        // bottleneck, not stream count
        let t4 = run(4);
        assert!(t4 > 0.95 * t3, "4 streams ({t4}) should not beat 3 ({t3}) by much");
    }

    #[test]
    fn model_tracks_analytic_cost_for_three_streams() {
        // with ≥3 streams and k ≥ k_min the pipeline should run at ~t0
        let gpu = SimGpu::new(GpuSpec::summit_v100());
        let (m, n, k) = (32768, 32768, 768);
        let secs = oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 3), m, n, k, 4).unwrap();
        let analytic = OffloadCosts::new(gpu.spec(), m, n, k, 4);
        assert!(analytic.compute_bound());
        let ratio = secs / analytic.t0;
        assert!((0.95..1.35).contains(&ratio), "sim {secs} vs t0 {} (ratio {ratio})", analytic.t0);
    }

    #[test]
    fn small_block_sizes_fall_off_peak() {
        // Fig. 5's shape: block size below the Eq. 5 threshold ⇒ well under
        // peak; above it ⇒ close to peak.
        let gpu = SimGpu::new(GpuSpec::summit_v100());
        let n = 32768;
        let run = |k: usize| {
            let secs = oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 4), n, n, k, 4).unwrap();
            2.0 * (n * n * k) as f64 / secs / 1e9
        };
        let peak = gpu.spec().srgemm_flops / 1e9;
        let lo = run(128);
        let hi = run(1024);
        assert!(lo < 0.55 * peak, "k=128 should be far from peak: {lo} vs {peak}");
        assert!(hi > 0.8 * peak, "k=1024 should be near peak: {hi} vs {peak}");
    }

    #[test]
    fn functional_and_model_clocks_agree() {
        let gpu1 = SimGpu::new(GpuSpec::test_tiny());
        let gpu2 = SimGpu::new(GpuSpec::test_tiny());
        let (m, n, k) = (24, 24, 8);
        let a = lcg(m, k, 7);
        let b = lcg(k, n, 8);
        let mut c = lcg(m, n, 9);
        let cfg = OogConfig::new(8, 8, 2);
        let f = oog_srgemm::<MinPlusF32>(&gpu1, &cfg, &mut c.view_mut(), &a.view(), &b.view()).unwrap();
        let t = oog_srgemm_model(&gpu2, &cfg, m, n, k, 4).unwrap();
        assert!((f - t).abs() < 1e-12, "{f} vs {t}");
    }

    #[test]
    fn model_seconds_are_pinned() {
        // exact simulated seconds of the schedule: 1, 2 and 3 streams, a
        // ragged shape with k = 300 > KC, and the Fig. 5 point at m_x = 2048
        let (summit, tiny) = (GpuSpec::summit_v100(), GpuSpec::test_tiny());
        let cases = [
            (summit, (16384, 16384, 256), (2048, 2048, 1), 0.08602000632470586),
            (summit, (16384, 16384, 256), (2048, 2048, 2), 0.04373303484235293),
            (summit, (16384, 16384, 256), (2048, 2048, 3), 0.043724909778823505),
            (tiny, (23, 41, 300), (7, 16, 3), 0.0005936880000000001),
            (summit, (32768, 32768, 768), (2048, 2048, 4), 0.24638762085646942),
        ];
        for (spec, (m, n, k), (mx, nx, s), want) in cases {
            let got = oog_srgemm_model(&SimGpu::new(spec), &OogConfig::new(mx, nx, s), m, n, k, 4);
            assert_eq!(got, Ok(want), "{m}x{n}x{k}, tiles {mx}x{nx}, {s} streams");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn functional_offload_matches_naive_and_model_at_the_boundary(
            (m, n, k) in (1usize..70, 1usize..70, 1usize..70),
            (mx, nx, s) in (1usize..70, 1usize..70, 1usize..5),
            seed in any::<u64>(),
        ) {
            let a = lcg(m, k, seed);
            let b = lcg(k, n, seed ^ 1);
            let c0 = lcg(m, n, seed ^ 2);
            let mut want = c0.clone();
            gemm_naive::<MinPlusF32>(&mut want.view_mut(), &a.view(), &b.view());
            let cfg = OogConfig::new(mx, nx, s);
            let need = ((m * k + k * n + s * mx * nx) * 4) as u64;
            for mem in [need - 1, need] {
                let spec = GpuSpec { mem_bytes: mem, ..GpuSpec::test_tiny() };
                let mut got = c0.clone();
                let gpu = SimGpu::new(spec);
                let f = oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view());
                let model = oog_srgemm_model(&SimGpu::new(spec), &cfg, m, n, k, 4);
                prop_assert_eq!(f, model);
                if mem < need {
                    prop_assert_eq!(f, Err(OogError::Oom(Oom { requested: need, available: mem })));
                } else {
                    prop_assert!(f.is_ok());
                    prop_assert!(want.eq_exact(&got));
                }
            }
        }
    }
}
