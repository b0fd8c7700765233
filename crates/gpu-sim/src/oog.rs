//! Out-of-GPU semiring matrix multiplication (`ooGSrGemm`, paper §4.3–4.4).
//!
//! Computes `C ← C ⊕ A ⊗ B` where `C` (m×n) lives in *host* memory and may
//! exceed device capacity; only `A` (m×k), `B` (k×n) and `s` tile buffers of
//! `m_x × n_x` reside on the device. The tile loop round-robins output tiles
//! over `s` streams; `A_i` row-slabs and `B_j` column-slabs are uploaded
//! once, when first touched (the §4.4 input pipelining); the host consumes
//! finished tiles in initiation order and ⊕-accumulates them into `C`
//! (`hostUpdate`). SRGEMM, d2hXfer and hostUpdate overlap across streams —
//! the execution order of the paper's Fig. 2.

use srgemm::gemm::{PackedA, PackedB};
use srgemm::matrix::{View, ViewMut};
use srgemm::semiring::Semiring;

use crate::device::{DeviceBuffer, Oom, SimGpu};
use crate::stream::{host_update_slice, host_update_timed, Event, Stream};

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
    /// every offload entry point calls this before touching the tiling
    /// arithmetic (`div_ceil(0)` panics), and the host-level out-of-core
    /// driver reuses the same check for its own tile/depth knobs.
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
    /// buffers, reported together, before anything is allocated — exceeds
    /// free device memory.
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

/// The one preflight both the functional and the model entry points run,
/// **before any allocation**: validate the config, then check the complete
/// requirement — `A` (m×k) + `B` (k×n) slabs plus the `s` tile buffers —
/// against the device's current free bytes. Returns the requirement so the
/// model can report it as its `device_bytes` high-water mark.
///
/// Keeping this a single helper is what pins the "functional and model
/// clocks agree" contract: a borderline configuration either passes both
/// entry points or fails both with the same [`Oom`] numbers.
pub fn oog_preflight(
    gpu: &SimGpu,
    cfg: &OogConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
) -> Result<u64, OogError> {
    cfg.validate()?;
    let need = ((m * k + k * n + cfg.streams * cfg.mx * cfg.nx) * elem_bytes) as u64;
    let available = gpu.free_bytes();
    if need > available {
        return Err(Oom { requested: need, available }.into());
    }
    Ok(need)
}

/// Outcome of an offload GEMM: simulated time and throughput.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OogStats {
    /// End-to-end simulated seconds (until the last hostUpdate).
    pub sim_time: f64,
    /// Semiring flops performed (2mnk).
    pub flops: f64,
    /// Output tiles processed.
    pub tiles: usize,
    /// Device bytes held at the high-water mark.
    pub device_bytes: u64,
}

impl OogStats {
    /// Simulated throughput in Gflop/s. A degenerate product (`m`, `n` or
    /// `k` of zero) takes no simulated time and does no flops; report 0
    /// instead of the `0/0 = NaN` (or `x/0 = inf`) a bare division yields.
    pub fn gflops(&self) -> f64 {
        if self.sim_time == 0.0 {
            return 0.0;
        }
        self.flops / self.sim_time / 1e9
    }
}

/// Functional + timed offload GEMM: `C ← C ⊕ A ⊗ B`.
///
/// Returns a typed [`OogError`] if the config carries zero tile dims or
/// streams, or if `A`, `B` and the `s` tile buffers do not fit on the device
/// together (the caller — `Me-ParallelFw` — picks `m_x`, `n_x` accordingly).
/// The preflight runs before any allocation, so an `Oom` always reports the
/// complete requirement against the device's true free bytes.
// Slab/tile loops below walk `0..mb × 0..nb` with explicit tile-origin
// arithmetic; iterator forms would hide the `i0 = i*mx` windows.
#[allow(clippy::needless_range_loop)]
pub fn oog_srgemm<S: Semiring>(
    gpu: &SimGpu,
    cfg: &OogConfig,
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    b: &View<'_, S::Elem>,
) -> Result<OogStats, OogError> {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    assert_eq!(a.rows(), m, "A rows must match C rows");
    assert_eq!(b.rows(), k, "B rows must match A cols");
    assert_eq!(b.cols(), n, "B cols must match C cols");
    oog_preflight(gpu, cfg, m, n, k, std::mem::size_of::<S::Elem>())?;
    gpu.reset_clocks();

    let mb = m.div_ceil(cfg.mx).max(1);
    let nb = n.div_ceil(cfg.nx).max(1);
    let s = cfg.streams;

    // Device residency: row slabs of A, column slabs of B, s tile buffers.
    // A resident slab is its device buffer and upload-done event; a B slab
    // also keeps the kernel's staged copy, made once on upload and streamed
    // by every tile of its column.
    type ASlab<E> = Option<(DeviceBuffer<E>, Event)>;
    type BSlab<E> = Option<(DeviceBuffer<E>, Event, PackedB<E>)>;
    let mut a_slabs: Vec<ASlab<S::Elem>> = (0..mb).map(|_| None).collect();
    let mut b_slabs: Vec<BSlab<S::Elem>> = (0..nb).map(|_| None).collect();
    let mut x_bufs = Vec::with_capacity(s);
    for _ in 0..s {
        x_bufs.push(gpu.alloc::<S::Elem>(cfg.mx * cfg.nx, S::zero())?);
    }

    let mut streams: Vec<Stream> = (0..s).map(|_| gpu.stream()).collect();
    // host-consumption event per stream: next srgemm on that stream must not
    // overwrite X before the host has read the previous tile
    let mut host_free: Vec<Event> = vec![Event { at: 0.0 }; s];
    let mut staging = vec![S::zero(); cfg.mx * cfg.nx];
    let mut a_staging = PackedA::new();
    let mut tiles = 0usize;
    let mut high_water = gpu.used_bytes();

    for i in 0..mb {
        let i0 = i * cfg.mx;
        let ib = cfg.mx.min(m - i0);
        for j in 0..nb {
            let j0 = j * cfg.nx;
            let jb = cfg.nx.min(n - j0);
            let r = tiles % s;
            let st = &mut streams[r];

            // pipelined input uploads: first touch sends the slab
            if a_slabs[i].is_none() {
                let buf = gpu.alloc::<S::Elem>(ib * k, S::zero())?;
                let ev = st.h2d_view(&buf, &a.subview(i0, 0, ib, k));
                a_slabs[i] = Some((buf, ev));
            }
            if b_slabs[j].is_none() {
                let buf = gpu.alloc::<S::Elem>(k * jb, S::zero())?;
                let ev = st.h2d_view(&buf, &b.subview(0, j0, k, jb));
                let staged = st.stage_b::<S>(&buf, k, jb);
                b_slabs[j] = Some((buf, ev, staged));
            }
            high_water = high_water.max(gpu.used_bytes());

            let (a_buf, a_ev) = a_slabs[i].as_ref().expect("A slab resident");
            let (_, b_ev, b_staged) = b_slabs[j].as_ref().expect("B slab resident");

            // the tile's srgemm waits for its inputs and for the host to
            // have consumed this stream's previous tile
            st.wait_until(a_ev.at.max(b_ev.at).max(host_free[r].at));
            st.srgemm_staged::<S>(&x_bufs[r], a_buf, b_staged, ib, true, &mut a_staging);
            let d2h_ev = st.d2h(&x_bufs[r], &mut staging[..ib * jb]);

            // hostUpdate: serialized on the host-memory engine, in initiation
            // order, accumulating straight from the d2h staging slice (no
            // per-tile allocation or copy)
            let mut c_tile = c.subview_mut(i0, j0, ib, jb);
            let done = host_update_slice::<S>(gpu, d2h_ev, &mut c_tile, &staging[..ib * jb]);
            host_free[r] = done;
            tiles += 1;
        }
    }

    Ok(OogStats {
        sim_time: gpu.now(),
        flops: 2.0 * m as f64 * n as f64 * k as f64,
        tiles,
        device_bytes: high_water,
    })
}

/// Timing-only replay of the [`oog_srgemm`] schedule for an `m×n×k` product
/// of `elem_bytes`-element data: identical clock arithmetic, no data. Used
/// by the Fig. 5/6 harnesses at Summit scale.
#[allow(clippy::needless_range_loop)]
pub fn oog_srgemm_model(
    gpu: &SimGpu,
    cfg: &OogConfig,
    m: usize,
    n: usize,
    k: usize,
    elem_bytes: usize,
) -> Result<OogStats, OogError> {
    let need = oog_preflight(gpu, cfg, m, n, k, elem_bytes)?;
    gpu.reset_clocks();
    let eb = elem_bytes as f64;
    let mb = m.div_ceil(cfg.mx).max(1);
    let nb = n.div_ceil(cfg.nx).max(1);
    let s = cfg.streams;

    let mut streams: Vec<Stream> = (0..s).map(|_| gpu.stream()).collect();
    let mut host_free: Vec<Event> = vec![Event { at: 0.0 }; s];
    let mut a_up: Vec<Option<Event>> = vec![None; mb];
    let mut b_up: Vec<Option<Event>> = vec![None; nb];
    let mut tiles = 0usize;

    for i in 0..mb {
        let i0 = i * cfg.mx;
        let ib = cfg.mx.min(m - i0);
        for j in 0..nb {
            let j0 = j * cfg.nx;
            let jb = cfg.nx.min(n - j0);
            let r = tiles % s;
            let st = &mut streams[r];

            if a_up[i].is_none() {
                a_up[i] = Some(st.h2d_timed((ib * k) as f64 * eb));
            }
            if b_up[j].is_none() {
                b_up[j] = Some(st.h2d_timed((k * jb) as f64 * eb));
            }
            let a_ev = a_up[i].expect("A slab uploaded");
            let b_ev = b_up[j].expect("B slab uploaded");

            st.wait_until(a_ev.at.max(b_ev.at).max(host_free[r].at));
            st.srgemm_timed(2.0 * ib as f64 * jb as f64 * k as f64);
            let d2h_ev = st.d2h_timed((ib * jb) as f64 * eb);
            host_free[r] = host_update_timed(gpu, d2h_ev, (ib * jb) as f64, eb);
            tiles += 1;
        }
    }

    Ok(OogStats {
        sim_time: gpu.now(),
        flops: 2.0 * m as f64 * n as f64 * k as f64,
        tiles,
        device_bytes: need,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::OffloadCosts;
    use crate::spec::GpuSpec;
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
        let stats =
            oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view()).unwrap();
        assert!(want.eq_exact(&got));
        assert_eq!(stats.tiles, 5 * 4);
        assert!(stats.sim_time > 0.0);
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
        // column, a staged B slab narrower than n_x, and (k = 300 > KC) a
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
                let stats =
                    oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut got.view_mut(), &a.view(), &b.view())
                        .unwrap();
                assert!(want.eq_exact(&got), "({m},{n},{k}) tiles {mx}x{nx}, {streams} streams");
                assert_eq!(stats.tiles, m.div_ceil(mx) * n.div_ceil(nx));
                assert_eq!(gpu.used_bytes(), 0, "every device buffer released");
            }
        }
    }

    #[test]
    fn gflops_is_zero_not_nan_for_degenerate_products() {
        // m = 0 (or n = 0): no tiles, no flops, no simulated time — the
        // throughput must be 0, not 0/0 = NaN or x/0 = inf.
        let stats = OogStats { sim_time: 0.0, flops: 0.0, tiles: 0, device_bytes: 0 };
        assert_eq!(stats.gflops(), 0.0);

        let gpu = SimGpu::new(GpuSpec::test_tiny());
        let a = lcg(0, 8, 6);
        let b = lcg(8, 16, 7);
        let mut c = Matrix::filled(0, 16, f32::INFINITY);
        let cfg = OogConfig::new(8, 8, 2);
        let stats =
            oog_srgemm::<MinPlusF32>(&gpu, &cfg, &mut c.view_mut(), &a.view(), &b.view()).unwrap();
        assert!(stats.gflops().is_finite());
        assert_eq!(stats.gflops(), 0.0);
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
        // complete requirement and the device's true free bytes — not a
        // figure with the tile buffers already deducted.
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
        assert_eq!(gpu.used_bytes(), 0, "preflight must not leave allocations behind");
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
                        assert!((fs.sim_time - ms.sim_time).abs() < 1e-12);
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
            oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, s), 16384, 16384, 256, 4)
                .unwrap()
                .sim_time
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
            oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, s), 16384, 16384, 256, 4)
                .unwrap()
                .sim_time
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
        let stats = oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 3), m, n, k, 4).unwrap();
        let analytic = OffloadCosts::new(gpu.spec(), m, n, k, 4);
        assert!(analytic.compute_bound());
        let ratio = stats.sim_time / analytic.t0;
        assert!(
            (0.95..1.35).contains(&ratio),
            "sim {} vs t0 {} (ratio {ratio})",
            stats.sim_time,
            analytic.t0
        );
    }

    #[test]
    fn small_block_sizes_fall_off_peak() {
        // Fig. 5's shape: block size below the Eq. 5 threshold ⇒ well under
        // peak; above it ⇒ close to peak.
        let gpu = SimGpu::new(GpuSpec::summit_v100());
        let run = |k: usize| {
            oog_srgemm_model(&gpu, &OogConfig::new(2048, 2048, 4), 32768, 32768, k, 4)
                .unwrap()
                .gflops()
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
        assert!((f.sim_time - t.sim_time).abs() < 1e-12, "{} vs {}", f.sim_time, t.sim_time);
        assert_eq!(f.tiles, t.tiles);
    }
}
