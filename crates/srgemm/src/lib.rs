#![warn(missing_docs)]

//! # srgemm — semiring algebra and semiring matrix multiplication
//!
//! This crate is the compute substrate of the APSP-FW workspace. It stands in
//! for the cuASR/Cutlass GPU SRGEMM kernels used by the HPDC'21 paper
//! *Scalable All-pairs Shortest Paths for Huge Graphs on Multi-GPU Clusters*:
//! the same algebra (the tropical **min-plus** semiring), the same kernel
//! contract (`C ← C ⊕ A ⊗ B`), and the same blocked data-access structure,
//! executed on the CPU with cache tiling and row-slab threads.
//!
//! ## Layout
//!
//! * [`semiring`] — the [`Semiring`] trait and instances ([`MinPlus`],
//!   [`MaxMin`], [`BoolOr`], [`RealArith`], and the quantized
//!   integer tropical semiring [`MinPlusSatU16`], which runs twice the
//!   SIMD lanes of `f32` per vector).
//! * [`matrix`] — dense row-major [`Matrix`] plus borrowed strided
//!   [`View`]/[`ViewMut`] blocks.
//! * [`gemm`](mod@gemm) — the `C ← C ⊕ A ⊗ B` kernel: BLIS-style
//!   packed/register-tiled, serial or on row-slab threads sharing one packed
//!   `B`, plus the naive triple loop the tests use as oracle.
//! * [`closure`] — in-place Floyd-Warshall closure of a block (the paper's
//!   *DiagUpdate*), the one DiagUpdate kernel of every FW path.
//! * [`panel`] — the paper's *PanelUpdate* kernels (left/right multiply by a
//!   closed diagonal block).
//!
//! ## Quick example
//!
//! ```
//! use srgemm::prelude::*;
//!
//! // 2x2 min-plus multiply: C = C ⊕ A ⊗ B.
//! let a = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[4.0, 1.0]]);
//! let b = Matrix::<f32>::from_rows(&[&[0.0, 5.0], &[1.0, 0.0]]);
//! let mut c = Matrix::filled(2, 2, MinPlusF32::zero());
//! gemm_packed::<MinPlusF32>(&mut c.view_mut(), &a.view(), &b.view());
//! assert_eq!(c[(0, 0)], 1.0); // min(1+0, 2+1)
//! ```

pub mod closure;
pub mod gemm;
pub mod matrix;
pub mod panel;
pub mod semiring;

pub use gemm::{gemm_naive, gemm_packed, gemm_packed_threads, PackedB};
pub use matrix::{Matrix, View, ViewMut};
pub use semiring::{BoolOr, MaxMin, MinPlus, MinPlusSatU16, RealArith, Semiring};

/// The paper's semiring: single-precision tropical (min, +).
pub type MinPlusF32 = MinPlus<f32>;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::closure::fw_closure;
    pub use crate::gemm::{gemm_naive, gemm_packed, gemm_packed_threads, PackedB};
    pub use crate::matrix::{Matrix, View, ViewMut};
    pub use crate::panel::{panel_update_left, panel_update_right};
    pub use crate::semiring::{BoolOr, MaxMin, MinPlus, MinPlusSatU16, RealArith, Semiring};
    pub use crate::MinPlusF32;
}
