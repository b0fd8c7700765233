#![warn(missing_docs)]

//! # gpu-sim — a simulated CUDA device for the offload algorithms
//!
//! The paper's `Me-ParallelFw` keeps the distance matrix in host memory and
//! stages work through the GPU (§4.3–4.5). This crate reproduces the three
//! properties of the device that the algorithm depends on:
//!
//! 1. **Finite device memory** — a [`device::SimGpu`] has a capacity
//!    ([`GpuSpec::mem_bytes`]); an offload whose operands and tile buffers
//!    exceed it fails with [`device::Oom`] before it starts, which is the
//!    "Beyond GPU Memory" wall of the paper's Fig. 7.
//! 2. **Engine clocks with stream overlap** — the SRGEMM engine, the H2D and
//!    D2H copy engines, and the host-memory engine each have their own
//!    timeline, and an op on a stream starts at the max of its stream cursor
//!    and its engine cursor. Overlap between `SrGemm`, `d2hXfer` and
//!    `hostUpdate` (paper Fig. 2) *emerges* from this model rather than
//!    being asserted. The device holds no data; clocks and a capacity are
//!    all it keeps.
//! 3. **The out-of-GPU SRGEMM** — one tile loop cuts `C ← C ⊕ A ⊗ B` into
//!    `m_x × n_x` tiles round-robined over `s` streams with pipelined
//!    `A_i`/`B_j` uploads, exactly the §4.3–4.4 procedure.
//!    [`oog::oog_srgemm`] computes each tile from the host operands at its
//!    SrGemm point (real data, real results); [`oog::oog_srgemm_model`] runs
//!    the same loop timing-only so the paper's Summit-scale sweeps
//!    (Figs. 5–6) can run without materializing terabytes.
//!
//! [`cost`] holds the closed-form §4.5 model (`t0`, `t1`, `t2`, Eq. 5) used
//! to validate the event-level clocks.

pub mod cost;
pub mod device;
pub mod oog;
pub mod spec;
mod stream;

pub use device::{Oom, SimGpu};
pub use cost::{min_block_size, min_block_size_disk, OffloadCosts};
pub use oog::{oog_srgemm, oog_srgemm_model, OogConfig, OogError};
pub use spec::GpuSpec;
