//! BLIS-style operand packing and the register-tiled packed micro-kernel.
//!
//! This is the workspace's one production SRGEMM: every solver, the
//! simulated device and the Boolean/ring products of the related-work
//! solvers run it; [`gemm_naive`](super::gemm_naive) is kept as the test
//! oracle only. Instead of reading `A` and `B` through strided views on
//! every tile pass, it copies each operand once into a contiguous,
//! cache-aligned staging buffer shaped for the micro-kernel, mirroring how
//! the paper's Cutlass SRGEMM stages global-memory tiles through shared
//! memory before the MMA loop:
//!
//! * **`A` micro-panels** ([`PackedA`]): an `MC × KC` slab of `A` is stored
//!   as `⌈ib/MR⌉` panels of `MR` rows each, **column-major within the
//!   panel** (`panel[l*MR + r] = A[i0+p*MR+r][k0+l]`), so the micro-kernel
//!   reads one contiguous `MR`-column per reduction step. Ragged tail panels
//!   are padded to `MR` rows with `S::zero()`.
//! * **`B` panels** ([`PackedB`]): the whole operand is stored as a grid of
//!   `KC × NC` tiles, each tile **row-major contiguous** with its rows
//!   padded to the element-width-derived [`pad_quantum`] stride (128 bytes
//!   worth of elements), so the inner `⊕/⊗` loop streams `B`
//!   with stride 1 regardless of the parent view's stride. A `PackedB` is
//!   immutable after packing and [`Sync`], which is what lets one packed
//!   copy be shared across all row slabs of a parallel GEMM and across all
//!   strip/bulk updates of one Floyd-Warshall `k`-iteration. Its layout does
//!   not depend on the micro-tile shape, so one packed copy serves every
//!   ISA variant.
//!
//! Both pads are `S::zero()` — the `⊕`-identity, which is also the
//! `⊗`-annihilator — so an FMA against a padded lane leaves the accumulator
//! unchanged. That lets even ragged `MR`/`NR` tails run the full-width
//! register-tiled loop (`micro_tile_padded`); the dead accumulator lanes
//! are simply never loaded from or stored back to `C`.
//!
//! The micro-kernel (`micro_tile_full`) computes an `MR × NR` block of `C`
//! in a fixed-size lane array `[[S::Elem; NR]; MR]`. Because `MR`/`NR` are
//! compile-time constants and the accumulators live in an array small enough
//! to stay in registers, LLVM unrolls and autovectorizes the `⊕/⊗` update
//! without any explicit SIMD — each reduction step costs `MR + NR` loads for
//! `MR·NR` semiring FMAs. `C` itself is touched only twice per `KC`-tile
//! (load + store), not once per reduction step.
//!
//! On x86-64 the kernel is compiled at three vector widths from the same
//! generic source — SSE2 (baseline), AVX2, AVX-512 — by instantiating it
//! inside `#[target_feature]` wrappers, and dispatched once per slab pass
//! via `is_x86_feature_detected!`. Each width gets the micro-tile shape
//! that fills (without spilling) its register file; see [`Isa`].
//!
//! Reduction order is preserved exactly: every variant folds `k` in
//! ascending order per output element, so the packed path is
//! **bit-identical** to [`gemm_naive`](super::gemm_naive) for every semiring
//! (including non-idempotent floating-point `RealArith`) on every ISA. The
//! unchecked-access safety argument is spelled out in DESIGN.md §11.

use crate::matrix::{View, ViewMut};
use crate::semiring::Semiring;

/// Rows of the `C`/`A` slab packed per pass and held in L2.
pub const MC: usize = 64;
/// Inner (reduction) tile; a `KC`-row tile of packed `B` stays in L1/L2.
pub const KC: usize = 256;
/// Columns of a packed `B`/`C` tile.
pub const NC: usize = 512;

/// Cache-line alignment target for packed buffers, in bytes.
const ALIGN: usize = 64;

/// Byte quantum for packed-`B` tile-row padding: every tile row spans a
/// multiple of this many **bytes**, which is the widest `NR` lane (in bytes)
/// any [`Isa`] variant reads — two ZMM registers. The element-count pad
/// stride follows from the element width via [`pad_quantum`], so a u16
/// semiring pads to 64 elements while f32 pads to 32 and f64 to 16; in
/// every case each variant's `NR` divides the pad, so one packed layout
/// serves every ISA. Since `⊕`-identity is the `⊗`-annihilator in a
/// semiring, an FMA against a padded column leaves the accumulator
/// untouched — ragged column tails run the same register-tiled loop as
/// interior tiles instead of a scalar fallback.
const PAD_BYTES: usize = 128;

/// Pad-stride quantum in **elements** for element type `E` — the row stride
/// multiple every [`PackedB`] tile uses: `PAD_BYTES` (128) worth of
/// power-of-two-sized elements, or the legacy 32-element quantum for exotic
/// element sizes (which only the baseline shapes, whose `NR` divides 32,
/// ever run at full width). Derived from the element width, not a global
/// constant: a packed operand's footprint therefore differs per dtype.
#[inline]
pub const fn pad_quantum<E>() -> usize {
    match std::mem::size_of::<E>() {
        size @ (1 | 2 | 4 | 8) => PAD_BYTES / size,
        _ => 32,
    }
}

/// Vector ISA selected for the micro-kernel, fixing its micro-tile shape.
///
/// The shapes were tuned empirically and match register-file arithmetic: an
/// `MR × NR` f32 accumulator block occupies `MR·NR/16` ZMM, `MR·NR/8` YMM,
/// or `MR·NR/4` XMM registers, and the kernel needs spare registers for the
/// `A` broadcast and `B` row loads. Oversized tiles fall off a spill cliff
/// (measured >5× slowdown at MR=12 on AVX-512), so each width gets the
/// largest power-of-two shape that stays resident.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512: 32 vector registers → 8×32 f32 tile = 16 ZMM accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2: 16 vector registers → 4×16 f32 tile = 8 YMM accumulators.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// Baseline autovectorization (SSE2 on x86-64, NEON on aarch64, …):
    /// 2×16 tile = 8 XMM accumulators.
    Baseline,
}

impl Isa {
    /// Detect the widest supported variant (cheap cached lookup; called once
    /// per GEMM invocation, not per tile).
    ///
    /// The AVX-512 variant requires `avx512bw` (without it there are no
    /// 512-bit 16-bit-element min/add instructions, so the u16
    /// semiring would fall apart into spilling 128-bit code) and `avx512vl`
    /// (so narrower ops can still use all 32 registers). Every server part
    /// since Skylake-SP has all three; a hypothetical F-only CPU falls back
    /// to AVX2 rather than compiling a width it can't execute well.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vl")
            {
                return Isa::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Baseline
    }

    /// `(MR, NR)` micro-tile shape used by this variant's kernel for an
    /// element of `elem_size` bytes. `NR` is a fixed **byte** width per
    /// variant (two ZMM / two YMM / two XMM registers per accumulator row),
    /// so narrower elements get proportionally more lanes: u16 runs a 64-wide
    /// `NR` on AVX-512 where f32 runs 32 and f64 runs 16. The one exception
    /// is u16 on AVX2, below. Every shape's `NR` divides the [`pad_quantum`]
    /// stride of an element of that size.
    pub fn micro_shape(self, elem_size: usize) -> (usize, usize) {
        let (mr, nr_bytes) = match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => (8, 128),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => (4, 64),
            Isa::Baseline => (2, 64),
        };
        match elem_size {
            // u16 on AVX2 trades rows for lanes, 2×64 for 4×32: the same
            // eight accumulator registers and the same loads per step, but a
            // 64-lane row is a loop LLVM vectorises, as on AVX-512. At 32
            // lanes it unrolls the row first, then vectorises the integer
            // min-reduction over `k` and spills 128 accumulator vectors
            // (58 against 105 Gflop/s, DESIGN.md §16).
            #[cfg(target_arch = "x86_64")]
            2 if self == Isa::Avx2 => (2, 64),
            1 | 2 | 4 | 8 => (mr, nr_bytes / elem_size),
            // exotic element sizes fall back to the pre-quantization shapes,
            // which divide the legacy 32-element pad quantum
            _ => (mr, if nr_bytes == 128 { 32 } else { 16 }),
        }
    }
}

/// A reusable element buffer whose payload starts on (a best-effort) 64-byte
/// boundary. `Vec` only guarantees `align_of::<E>()`, so we over-allocate by
/// one cache line and skip elements until the payload is aligned; for the
/// power-of-two element sizes used here the skip is always exact.
#[derive(Debug, Default)]
struct AlignedBuf<E> {
    raw: Vec<E>,
    offset: usize,
    len: usize,
}

impl<E: Copy> AlignedBuf<E> {
    fn new() -> Self {
        Self { raw: Vec::new(), offset: 0, len: 0 }
    }

    /// Resize so that `len` aligned elements are available, filling any newly
    /// grown region with `fill`. Reuses the existing allocation when large
    /// enough (the point of keeping `PackedA`/`PackedB` across iterations).
    fn ensure(&mut self, len: usize, fill: E) {
        let esz = std::mem::size_of::<E>().max(1);
        let pad = if esz >= ALIGN { 0 } else { ALIGN / esz };
        if self.raw.len() < len + pad {
            self.raw.resize(len + pad, fill);
        }
        let addr = self.raw.as_ptr() as usize;
        let rem = addr % ALIGN;
        self.offset = if rem == 0 || esz >= ALIGN {
            0
        } else {
            // For power-of-two esz < 64 this division is exact (rem is a
            // multiple of the element alignment); otherwise it rounds down,
            // which only costs alignment, never correctness.
            (ALIGN - rem) / esz
        };
        self.len = len;
    }

    #[inline]
    fn packed(&self) -> &[E] {
        &self.raw[self.offset..self.offset + self.len]
    }

    #[inline]
    fn packed_mut(&mut self) -> &mut [E] {
        &mut self.raw[self.offset..self.offset + self.len]
    }
}

/// A whole `B` operand packed as a grid of [`KC`]` × `[`NC`] tiles, each
/// row-major contiguous. Immutable after packing; share by reference
/// (`&PackedB`) across row slabs / FW strip updates to pack once and stream
/// many times.
#[derive(Debug)]
pub struct PackedB<E> {
    buf: AlignedBuf<E>,
    rows: usize,
    cols: usize,
    /// Element offset of tile `(kt, jt)` at `tile_off[kt * jt_count + jt]`.
    tile_off: Vec<usize>,
    /// Number of [`KC`]-tiles along the reduction dimension.
    kt_count: usize,
    /// Number of [`NC`]-tiles along the column dimension.
    jt_count: usize,
}

impl<E: Copy> PackedB<E> {
    /// Pack `b`.
    pub fn pack<S: Semiring<Elem = E>>(b: &View<'_, E>) -> Self {
        let mut packed = Self {
            buf: AlignedBuf::new(),
            rows: 0,
            cols: 0,
            tile_off: Vec::new(),
            kt_count: 0,
            jt_count: 0,
        };
        packed.repack::<S>(b);
        packed
    }

    /// Re-pack a (possibly differently shaped) `b` into this buffer, reusing
    /// the allocation. This is what the FW drivers call once per `k`
    /// iteration on the freshly broadcast row panel.
    pub fn repack<S: Semiring<Elem = E>>(&mut self, b: &View<'_, E>) {
        let (k, n) = (b.rows(), b.cols());
        self.rows = k;
        self.cols = n;
        self.kt_count = k.div_ceil(KC);
        self.jt_count = n.div_ceil(NC);
        // Total capacity with every tile row padded to the pad-quantum stride.
        let padded_cols: usize =
            (0..self.jt_count).map(|jt| self.padded_tile_width(jt)).sum();
        self.buf.ensure(k * padded_cols, S::zero());
        self.tile_off.clear();
        self.tile_off.reserve(self.kt_count * self.jt_count);

        let dst = self.buf.packed_mut();
        let mut off = 0;
        for kt in 0..self.kt_count {
            let k0 = kt * KC;
            let kb = KC.min(k - k0);
            for jt in 0..self.jt_count {
                let j0 = jt * NC;
                let jb = NC.min(n - j0);
                let stride = jb.next_multiple_of(pad_quantum::<E>());
                self.tile_off.push(off);
                for l in 0..kb {
                    let row = &mut dst[off + l * stride..off + l * stride + stride];
                    row[..jb].copy_from_slice(&b.row(k0 + l)[j0..j0 + jb]);
                    // Explicitly re-zero the pad: the buffer is reused across
                    // repacks, so stale values may be present, and the kernel
                    // relies on padded columns being the ⊗-annihilator.
                    row[jb..].fill(S::zero());
                }
                off += kb * stride;
            }
        }
        debug_assert_eq!(off, k * padded_cols);
    }

    /// Logical row count (`k` of the original operand).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count (`n` of the original operand).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(k0, kb)` extent of reduction tile `kt`.
    #[inline]
    fn row_range(&self, kt: usize) -> (usize, usize) {
        let k0 = kt * KC;
        (k0, KC.min(self.rows - k0))
    }

    /// `(j0, jb)` extent of column tile `jt`.
    #[inline]
    fn col_range(&self, jt: usize) -> (usize, usize) {
        let j0 = jt * NC;
        (j0, NC.min(self.cols - j0))
    }

    /// Row stride of tile column `jt`: its logical width `jb` rounded up to
    /// the element-width-derived [`pad_quantum`]; the pad region is
    /// `S::zero()`-filled.
    #[inline]
    fn padded_tile_width(&self, jt: usize) -> usize {
        let (_, jb) = self.col_range(jt);
        jb.next_multiple_of(pad_quantum::<E>())
    }

    /// The row-major contiguous `kb × padded_tile_width(jt)` tile `(kt, jt)`;
    /// only the first `jb` elements of each row are live.
    #[inline]
    fn tile(&self, kt: usize, jt: usize) -> &[E] {
        let (_, kb) = self.row_range(kt);
        let stride = self.padded_tile_width(jt);
        let off = self.tile_off[kt * self.jt_count + jt];
        &self.buf.packed()[off..off + kb * stride]
    }
}

/// Reusable packing buffer for one `MC × KC` slab of `A`, stored as
/// `mr`-row column-major micro-panels (see module docs). One lives per
/// worker thread; `pack_slab` is called per `(kc, ic)` tile pass with the
/// `mr` of the dispatched kernel.
#[derive(Debug)]
pub struct PackedA<E> {
    buf: AlignedBuf<E>,
    panels: usize,
    mr: usize,
    kb: usize,
}

impl<E: Copy> PackedA<E> {
    /// An empty buffer; allocates on first `pack_slab`.
    pub fn new() -> Self {
        Self { buf: AlignedBuf::new(), panels: 0, mr: 0, kb: 0 }
    }

    /// Pack the `ib × kb` slab of `a` at `(i0, k0)` into `mr`-row
    /// micro-panels, padding the last panel's missing rows with `S::zero()`.
    ///
    /// # Panics
    /// Panics if `mr` is zero.
    pub fn pack_slab<S: Semiring<Elem = E>>(
        &mut self,
        a: &View<'_, E>,
        i0: usize,
        k0: usize,
        ib: usize,
        kb: usize,
        mr: usize,
    ) {
        assert!(mr > 0, "micro-panel height must be positive");
        self.panels = ib.div_ceil(mr);
        self.mr = mr;
        self.kb = kb;
        self.buf.ensure(self.panels * mr * kb, S::zero());
        let dst = self.buf.packed_mut();
        for p in 0..self.panels {
            let r0 = p * mr;
            let live = mr.min(ib - r0);
            let base = p * mr * kb;
            for r in 0..live {
                let a_row = &a.row(i0 + r0 + r)[k0..k0 + kb];
                for (l, &v) in a_row.iter().enumerate() {
                    dst[base + l * mr + r] = v;
                }
            }
            // Explicitly zero padded lanes: the buffer is reused across
            // slabs, so stale values from a previous pack may be present.
            for r in live..mr {
                for l in 0..kb {
                    dst[base + l * mr + r] = S::zero();
                }
            }
        }
    }

    /// Micro-panel `p` as a `kb × mr` column-major slice.
    #[inline]
    pub fn panel(&self, p: usize) -> &[E] {
        let base = p * self.mr * self.kb;
        &self.buf.packed()[base..base + self.mr * self.kb]
    }
}

impl<E: Copy> Default for PackedA<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// `C ← C ⊕ A ⊗ B` via the packed register-tiled kernel. Packs `B` once
/// internally; use [`gemm_packed_with_b`] to amortize that pack across calls.
pub fn gemm_packed<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    b: &View<'_, S::Elem>,
) {
    super::check_shapes(c, a, b);
    let pb = PackedB::pack::<S>(b);
    gemm_packed_with_b::<S>(c, a, &pb);
}

/// `C ← C ⊕ A ⊗ B` where `B` is already packed. The caller packs once and
/// may share `pb` across row slabs, threads, and FW strip updates.
///
/// # Panics
/// Panics if operand shapes disagree (`a.cols() != pb.rows()` etc.).
pub fn gemm_packed_with_b<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    pb: &PackedB<S::Elem>,
) {
    gemm_packed_with_scratch::<S>(c, a, pb, &mut PackedA::new());
}

/// [`gemm_packed_with_b`] staging `A` through the caller's `pa`, so a loop of
/// small products (one per output tile of an offload GEMM) allocates the
/// staging buffer once instead of once per product.
///
/// # Panics
/// Panics if operand shapes disagree (`a.cols() != pb.rows()` etc.).
pub fn gemm_packed_with_scratch<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    a: &View<'_, S::Elem>,
    pb: &PackedB<S::Elem>,
    pa: &mut PackedA<S::Elem>,
) {
    assert_eq!(a.cols(), pb.rows(), "gemm: inner dimensions disagree");
    assert_eq!(c.rows(), a.rows(), "gemm: C rows != A rows");
    assert_eq!(c.cols(), pb.cols(), "gemm: C cols != B cols");
    let m = c.rows();
    if m == 0 || pb.cols() == 0 {
        return;
    }
    let isa = Isa::detect();
    let (mr, _) = isa.micro_shape(std::mem::size_of::<S::Elem>());
    // BLIS loop order jc → pc → ic: the packed B tile (kt, jt) is streamed
    // by every MC row slab before moving on; A slabs are repacked per tile
    // pass into the caller's `pa`. For a fixed C element the reduction
    // tiles arrive in ascending k, and each tile folds k ascending, so the
    // overall ⊕-order matches gemm_naive exactly.
    for jt in 0..pb.jt_count {
        let (j0, jb) = pb.col_range(jt);
        let stride = pb.padded_tile_width(jt);
        for kt in 0..pb.kt_count {
            let (k0, kb) = pb.row_range(kt);
            let b_tile = pb.tile(kt, jt);
            let mut i0 = 0;
            while i0 < m {
                let ib = MC.min(m - i0);
                pa.pack_slab::<S>(a, i0, k0, ib, kb, mr);
                slab_times_tile::<S>(isa, c, pa, b_tile, i0, ib, j0, jb, stride, kb);
                i0 += ib;
            }
        }
    }
}

/// Multiply one packed `A` slab (`ib` rows at `i0`) by one packed `B` tile
/// (`kb` rows of `stride` elements, `jb` live, at column `j0`), walking the
/// slab in micro-tiles of the `isa`-specific shape. The caller must have
/// packed `pa` with the matching `mr` ([`Isa::micro_shape`]).
///
/// One generic source kernel is instantiated at three vector widths (the
/// `#[target_feature]` wrappers below); dispatch never changes results —
/// every variant runs the identical ⊕-ascending reduction.
#[allow(clippy::too_many_arguments)]
fn slab_times_tile<S: Semiring>(
    isa: Isa,
    c: &mut ViewMut<'_, S::Elem>,
    pa: &PackedA<S::Elem>,
    b_tile: &[S::Elem],
    i0: usize,
    ib: usize,
    j0: usize,
    jb: usize,
    stride: usize,
    kb: usize,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Isa::detect` only returns this variant after verifying
        // avx512f+avx512bw+avx512vl at runtime (tests construct it the
        // same way).
        Isa::Avx512 => unsafe {
            slab_times_tile_avx512::<S>(c, pa, b_tile, i0, ib, j0, jb, stride, kb)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe {
            slab_times_tile_avx2::<S>(c, pa, b_tile, i0, ib, j0, jb, stride, kb)
        },
        Isa::Baseline => match std::mem::size_of::<S::Elem>() {
            1 => slab_times_tile_generic::<S, 2, 64>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
            2 => slab_times_tile_generic::<S, 2, 32>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
            4 => slab_times_tile_generic::<S, 2, 16>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
            8 => slab_times_tile_generic::<S, 2, 8>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
            _ => slab_times_tile_generic::<S, 2, 16>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        },
    }
}

/// AVX-512 instantiations, one per element width ([`Isa::micro_shape`]): an
/// accumulator row is always two ZMM registers (128 B), so the 8-row tile
/// uses 16 of the 32 available — 32 f32 lanes, 64 u16 lanes, 16 f64
/// lanes per row. `avx512bw` is what gives the 16-bit-element zmm ops the
/// u16 semiring compiles to (`vpminuw`/`vpaddw`); `avx512vl` lets the
/// compiler keep using registers 16–31 for any narrower helper ops.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vl")]
#[allow(clippy::too_many_arguments)]
fn slab_times_tile_avx512<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    pa: &PackedA<S::Elem>,
    b_tile: &[S::Elem],
    i0: usize,
    ib: usize,
    j0: usize,
    jb: usize,
    stride: usize,
    kb: usize,
) {
    match std::mem::size_of::<S::Elem>() {
        1 => slab_times_tile_generic::<S, 8, 128>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        2 => slab_times_tile_generic::<S, 8, 64>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        4 => slab_times_tile_generic::<S, 8, 32>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        8 => slab_times_tile_generic::<S, 8, 16>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        _ => slab_times_tile_generic::<S, 8, 32>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
    }
}

/// AVX2 instantiations: an accumulator row is two YMM registers (64 B), the
/// 4-row tile 8 of the 16 — 16 f32 lanes per row. The u16 tile is two rows
/// of four registers, 64 lanes each ([`Isa::micro_shape`] says why).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn slab_times_tile_avx2<S: Semiring>(
    c: &mut ViewMut<'_, S::Elem>,
    pa: &PackedA<S::Elem>,
    b_tile: &[S::Elem],
    i0: usize,
    ib: usize,
    j0: usize,
    jb: usize,
    stride: usize,
    kb: usize,
) {
    match std::mem::size_of::<S::Elem>() {
        1 => slab_times_tile_generic::<S, 4, 64>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        2 => slab_times_tile_generic::<S, 2, 64>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        4 => slab_times_tile_generic::<S, 4, 16>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        8 => slab_times_tile_generic::<S, 4, 8>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
        _ => slab_times_tile_generic::<S, 4, 16>(c, pa, b_tile, i0, ib, j0, jb, stride, kb),
    }
}

/// Width-agnostic slab×tile walk; `#[inline(always)]` (here and on the
/// micro-kernels) so the whole loop nest inlines into each
/// `#[target_feature]` wrapper above and is vectorized at that width.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn slab_times_tile_generic<S: Semiring, const MR: usize, const NR: usize>(
    c: &mut ViewMut<'_, S::Elem>,
    pa: &PackedA<S::Elem>,
    b_tile: &[S::Elem],
    i0: usize,
    ib: usize,
    j0: usize,
    jb: usize,
    stride: usize,
    kb: usize,
) {
    debug_assert_eq!(b_tile.len(), kb * stride);
    debug_assert!(jb <= stride && stride.is_multiple_of(NR));
    debug_assert_eq!(pa.mr, MR);
    for p in 0..ib.div_ceil(MR) {
        let a_panel = pa.panel(p);
        let ri = i0 + p * MR;
        let live = MR.min(ib - p * MR);
        let mut jj = 0;
        while jj < jb {
            let nr = NR.min(jb - jj);
            if live == MR && nr == NR {
                micro_tile_full::<S, MR, NR>(c, a_panel, b_tile, ri, j0 + jj, jj, stride, kb);
            } else {
                micro_tile_padded::<S, MR, NR>(
                    c,
                    a_panel,
                    b_tile,
                    ri,
                    j0 + jj,
                    jj,
                    stride,
                    kb,
                    live,
                    nr,
                );
            }
            jj += nr;
        }
    }
}

/// The register-tiled micro-kernel: a full `MR × NR` block of `C` held in a
/// fixed-size lane array. `j0` is the absolute `C` column, `jj` the column
/// offset inside the packed tile, `stride` the tile's padded row length.
///
/// # Safety argument (bounds-check elimination)
/// `a_panel` has exactly `MR * kb` elements (`PackedA::panel` slices it so,
/// checked), and every index is `l * MR + r` with `l < kb`, `r < MR`.
/// `b_tile` has `kb * stride` elements and every index is
/// `l * stride + jj + j` with `l < kb` and `jj + NR ≤ stride` (`jj` steps by
/// `NR` below `jb ≤ stride`, and `stride` is a multiple of `NR` by the
/// [`pad_quantum`] padding, asserted in `slab_times_tile_generic`). The `C` rows
/// are sliced *checked* to `NR` outside the loop. All invariants are
/// re-verified by `debug_assert!`s in debug builds; see DESIGN.md §11.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile_full<S: Semiring, const MR: usize, const NR: usize>(
    c: &mut ViewMut<'_, S::Elem>,
    a_panel: &[S::Elem],
    b_tile: &[S::Elem],
    ri: usize,
    j0: usize,
    jj: usize,
    stride: usize,
    kb: usize,
) {
    debug_assert_eq!(a_panel.len(), MR * kb);
    debug_assert!(jj + NR <= stride && b_tile.len() == kb * stride);
    debug_assert!(ri + MR <= c.rows() && j0 + NR <= c.cols());

    let z = S::zero();
    let mut acc = [[z; NR]; MR];
    for (r, lane) in acc.iter_mut().enumerate() {
        lane.copy_from_slice(&c.row(ri + r)[j0..j0 + NR]);
    }
    for l in 0..kb {
        // SAFETY: l < kb, so l*MR+MR ≤ a_panel.len() and
        // l*stride + jj + NR ≤ b_tile.len() (debug_asserts above).
        let (a_col, b_row) = unsafe {
            (
                a_panel.get_unchecked(l * MR..l * MR + MR),
                b_tile.get_unchecked(l * stride + jj..l * stride + jj + NR),
            )
        };
        for (r, lane) in acc.iter_mut().enumerate() {
            // SAFETY: r < MR = a_col.len().
            let ar = unsafe { *a_col.get_unchecked(r) };
            for (aj, &bj) in lane.iter_mut().zip(b_row.iter()) {
                *aj = S::fma(*aj, ar, bj);
            }
        }
    }
    for (r, lane) in acc.iter().enumerate() {
        c.row_mut(ri + r)[j0..j0 + NR].copy_from_slice(lane);
    }
}

/// Edge micro-kernel for ragged `MR`/`NR` tails — same full-width
/// register-tiled loop as [`micro_tile_full`], not a scalar fallback. It can
/// read the full `NR` lane even past `jb` because packed `B` rows are padded
/// to the [`pad_quantum`] stride with `S::zero()`, and padded `A` lanes are
/// `S::zero()` too; the `⊕`-identity annihilates under `⊗`, so dead lanes
/// fold to no-ops. Only `live` rows × `nr` columns of the accumulator are
/// loaded from / stored to `C`; the dead lanes start at `S::zero()` and are
/// discarded. Reduction still folds `k` ascending per live element.
///
/// The bounds argument matches [`micro_tile_full`]: `jj + NR ≤ stride`
/// because `jj < jb ≤ stride`, `jj ≡ 0 (mod NR)`, and `NR | stride`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn micro_tile_padded<S: Semiring, const MR: usize, const NR: usize>(
    c: &mut ViewMut<'_, S::Elem>,
    a_panel: &[S::Elem],
    b_tile: &[S::Elem],
    ri: usize,
    j0: usize,
    jj: usize,
    stride: usize,
    kb: usize,
    live: usize,
    nr: usize,
) {
    debug_assert_eq!(a_panel.len(), MR * kb);
    debug_assert!(live <= MR && nr <= NR);
    debug_assert!(jj + NR <= stride && b_tile.len() == kb * stride);
    debug_assert!(ri + live <= c.rows() && j0 + nr <= c.cols());

    let z = S::zero();
    let mut acc = [[z; NR]; MR];
    for (r, lane) in acc.iter_mut().enumerate().take(live) {
        lane[..nr].copy_from_slice(&c.row(ri + r)[j0..j0 + nr]);
    }
    for l in 0..kb {
        // SAFETY: identical to micro_tile_full — l < kb bounds both slices
        // (debug_asserts above).
        let (a_col, b_row) = unsafe {
            (
                a_panel.get_unchecked(l * MR..l * MR + MR),
                b_tile.get_unchecked(l * stride + jj..l * stride + jj + NR),
            )
        };
        for (r, lane) in acc.iter_mut().enumerate() {
            // SAFETY: r < MR = a_col.len().
            let ar = unsafe { *a_col.get_unchecked(r) };
            for (aj, &bj) in lane.iter_mut().zip(b_row.iter()) {
                *aj = S::fma(*aj, ar, bj);
            }
        }
    }
    for (r, lane) in acc.iter().enumerate().take(live) {
        c.row_mut(ri + r)[j0..j0 + nr].copy_from_slice(&lane[..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use crate::matrix::Matrix;
    use crate::semiring::{BoolOr, MinPlus, MinPlusSatU16, RealArith};

    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f32 / 8.0
        })
    }

    #[test]
    fn packed_matches_naive_on_micro_tile_edges() {
        // straddle every dispatchable MR (2/4/8) and NR (16/32) boundary
        for &m in &[1, 3, 4, 5, 8, 13, 17] {
            for &n in &[1, 15, 16, 17, 31, 32, 33] {
                for &k in &[0, 1, 5, 17] {
                    let a = lcg_matrix(m, k, 1);
                    let b = lcg_matrix(k, n, 2);
                    let mut c1 = lcg_matrix(m, n, 3);
                    let mut c2 = c1.clone();
                    gemm_naive::<MinPlus<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
                    gemm_packed::<MinPlus<f32>>(&mut c2.view_mut(), &a.view(), &b.view());
                    assert!(c1.eq_exact(&c2), "mismatch at ({m},{n},{k})");
                }
            }
        }
    }

    #[test]
    fn packed_is_bit_identical_to_naive_for_float_sums() {
        // non-idempotent semiring with rounding: identical ⊕-order means
        // identical bits, which pins the ascending-k claim in the module docs
        let (m, n, k) = (37, 29, 300); // k > KC exercises multi-tile reduction
        let a = lcg_matrix(m, k, 11);
        let b = lcg_matrix(k, n, 12);
        let mut c1 = Matrix::filled(m, n, 0.0f32);
        let mut c2 = c1.clone();
        gemm_naive::<RealArith<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<RealArith<f32>>(&mut c2.view_mut(), &a.view(), &b.view());
        assert!(c1.eq_exact(&c2));
    }

    /// The slab walk at each width this machine supports against
    /// `gemm_naive` on the same operands; unsupported widths cannot run and
    /// are skipped.
    fn assert_every_isa_matches_naive<S: Semiring>(elem: impl Fn(f32) -> S::Elem) {
        let (m, n, k) = (21, 37, 40);
        let mk = |rows, cols, seed| {
            let f = lcg_matrix(rows, cols, seed);
            Matrix::from_fn(rows, cols, |i, j| elem(f[(i, j)]))
        };
        let (a, b, c0) = (mk(m, k, 61), mk(k, n, 62), mk(m, n, 63));
        let pb = PackedB::pack::<S>(&b.view());
        let mut oracle = c0.clone();
        gemm_naive::<S>(&mut oracle.view_mut(), &a.view(), &b.view());

        let mut variants: Vec<Isa> = vec![Isa::Baseline];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                variants.push(Isa::Avx2);
            }
            if is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("avx512vl")
            {
                variants.push(Isa::Avx512);
            }
        }
        for isa in variants {
            let (mr, _) = isa.micro_shape(std::mem::size_of::<S::Elem>());
            let mut c = c0.clone();
            let mut pa = PackedA::new();
            {
                let mut cv = c.view_mut();
                let av = a.view();
                for kt in 0..pb.kt_count {
                    let (k0, kb) = pb.row_range(kt);
                    pa.pack_slab::<S>(&av, 0, k0, m, kb, mr);
                    let stride = pb.padded_tile_width(0);
                    slab_times_tile::<S>(isa, &mut cv, &pa, pb.tile(kt, 0), 0, m, 0, n, stride, kb);
                }
            }
            assert!(oracle.eq_exact(&c), "{} mismatch for {isa:?}", S::NAME);
        }
    }

    #[test]
    fn every_isa_variant_is_bit_identical() {
        assert_every_isa_matches_naive::<MinPlus<f32>>(|x| x);
        // the u16 shapes (2×64 on AVX2, not 4×32): whole values below 1000,
        // every seventh one the sentinel
        assert_every_isa_matches_naive::<MinPlusSatU16>(|x| {
            let q = (x * 8.0) as u16;
            if q.is_multiple_of(7) { MinPlusSatU16::SENTINEL } else { q }
        });
    }

    #[test]
    fn packed_matches_naive_for_quantized_semirings() {
        // straddle the *widened* NR boundaries (u16 runs NR=64 on AVX-512)
        // and mix in the sentinel so saturation paths execute inside the
        // register-tiled loop
        for &m in &[1, 5, 8, 13] {
            for &n in &[1, 31, 33, 63, 64, 65, 129] {
                for &k in &[0, 1, 17] {
                    let inf = MinPlusSatU16::SENTINEL;
                    let au = Matrix::from_fn(m, k, |i, j| {
                        if (i + j) % 7 == 0 { inf } else { ((i * 31 + j * 7) % 999) as u16 }
                    });
                    let bu = Matrix::from_fn(k, n, |i, j| {
                        if (i * j) % 5 == 4 { inf } else { ((i * 13 + j * 3) % 999) as u16 }
                    });
                    let mut c1 = Matrix::filled(m, n, inf);
                    let mut c2 = c1.clone();
                    gemm_naive::<MinPlusSatU16>(&mut c1.view_mut(), &au.view(), &bu.view());
                    gemm_packed::<MinPlusSatU16>(&mut c2.view_mut(), &au.view(), &bu.view());
                    assert!(c1.eq_exact(&c2), "u16 mismatch at ({m},{n},{k})");
                }
            }
        }
    }

    #[test]
    fn pad_stride_is_derived_from_element_width() {
        assert_eq!(pad_quantum::<u16>(), 64);
        assert_eq!(pad_quantum::<f32>(), 32);
        assert_eq!(pad_quantum::<i32>(), 32);
        assert_eq!(pad_quantum::<f64>(), 16);
        // every ISA's NR divides the pad quantum of the same element size
        let variants = [
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2,
            Isa::Baseline,
        ];
        let pads = [
            (1usize, pad_quantum::<u8>()),
            (2, pad_quantum::<u16>()),
            (4, pad_quantum::<f32>()),
            (8, pad_quantum::<f64>()),
            (3, pad_quantum::<[u8; 3]>()),
        ];
        for isa in variants {
            for (esz, pad) in pads {
                let (_, nr) = isa.micro_shape(esz);
                assert_eq!(pad % nr, 0, "{isa:?} NR={nr} must divide pad {pad} for esz={esz}");
            }
        }
        // the stride a real packed operand uses honors the quantum: 33 u16
        // columns pad to 64, 33 f32 columns pad to 64 too but in *32s*
        let bu = Matrix::filled(4usize, 33usize, 0u16);
        let pu = PackedB::pack::<MinPlusSatU16>(&bu.view());
        assert_eq!(pu.padded_tile_width(0), 64);
        let bf = Matrix::filled(4usize, 33usize, 0.0f32);
        let pf = PackedB::pack::<MinPlus<f32>>(&bf.view());
        assert_eq!(pf.padded_tile_width(0), 64);
        let bd = Matrix::filled(4usize, 33usize, 0.0f64);
        let pd = PackedB::pack::<MinPlus<f64>>(&bd.view());
        assert_eq!(pd.padded_tile_width(0), 48);
    }

    #[test]
    fn packed_works_on_strided_subviews() {
        let pa = lcg_matrix(30, 30, 6);
        let pb = lcg_matrix(30, 30, 7);
        let mut pc = lcg_matrix(30, 30, 8);
        let mut pc2 = pc.clone();
        let a = pa.subview(2, 3, 9, 11);
        let b = pb.subview(1, 4, 11, 7);
        gemm_naive::<MinPlus<f32>>(&mut pc.subview_mut(3, 3, 9, 7), &a, &b);
        gemm_packed::<MinPlus<f32>>(&mut pc2.subview_mut(3, 3, 9, 7), &a, &b);
        assert!(pc.eq_exact(&pc2));
    }

    #[test]
    fn shared_packed_b_reused_across_calls() {
        let b = lcg_matrix(40, 24, 21);
        let pb = PackedB::pack::<MinPlus<f32>>(&b.view());
        for seed in 0..4 {
            let a = lcg_matrix(10, 40, 30 + seed);
            let mut c1 = Matrix::filled(10, 24, f32::INFINITY);
            let mut c2 = c1.clone();
            gemm_naive::<MinPlus<f32>>(&mut c1.view_mut(), &a.view(), &b.view());
            gemm_packed_with_b::<MinPlus<f32>>(&mut c2.view_mut(), &a.view(), &pb);
            assert!(c1.eq_exact(&c2), "mismatch at seed={seed}");
        }
    }

    #[test]
    fn repack_reuses_buffer_across_shapes() {
        let b1 = lcg_matrix(20, 16, 41);
        let b2 = lcg_matrix(8, 24, 42);
        let mut pb = PackedB::pack::<MinPlus<f32>>(&b1.view());
        pb.repack::<MinPlus<f32>>(&b2.view());
        let a = lcg_matrix(6, 8, 43);
        let mut c1 = Matrix::filled(6, 24, f32::INFINITY);
        let mut c2 = c1.clone();
        gemm_naive::<MinPlus<f32>>(&mut c1.view_mut(), &a.view(), &b2.view());
        gemm_packed_with_b::<MinPlus<f32>>(&mut c2.view_mut(), &a.view(), &pb);
        assert!(c1.eq_exact(&c2));
    }

    #[test]
    fn packed_handles_bool_semiring() {
        let a = Matrix::from_fn(9, 13, |i, j| (i * 7 + j) % 3 == 0);
        let b = Matrix::from_fn(13, 10, |i, j| (i + j * 5) % 4 == 0);
        let mut c1 = Matrix::filled(9, 10, false);
        let mut c2 = c1.clone();
        gemm_naive::<BoolOr>(&mut c1.view_mut(), &a.view(), &b.view());
        gemm_packed::<BoolOr>(&mut c2.view_mut(), &a.view(), &b.view());
        assert!(c1.eq_exact(&c2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn packed_shape_mismatch_panics() {
        let a = Matrix::filled(2, 3, 0.0f32);
        let b = Matrix::filled(2, 2, 0.0f32);
        let mut c = Matrix::filled(2, 2, 0.0f32);
        gemm_packed::<MinPlus<f32>>(&mut c.view_mut(), &a.view(), &b.view());
    }

    // A zero tile size would make the tile-advance loops spin forever; it is
    // rejected loudly where the tiling enters.
    #[test]
    fn aligned_buf_is_cache_line_aligned_for_floats() {
        let b = lcg_matrix(33, 17, 50);
        let pb = PackedB::pack::<MinPlus<f32>>(&b.view());
        let addr = pb.tile(0, 0).as_ptr() as usize;
        assert_eq!(addr % ALIGN, 0, "packed B payload not 64B-aligned");
    }
}
