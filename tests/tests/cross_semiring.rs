//! Cross-crate semiring generality: the distributed machinery is not
//! min-plus-specific — it computes closures over any idempotent semiring,
//! which is how GraphBLAS-style stacks (paper §6) use one code path for
//! many graph problems.

use apsp_core::dist::{distributed_apsp_opts, DistRunOpts, FwConfig, Variant};
use apsp_core::fw_seq::fw_seq;
use apsp_graph::generators::{self, WeightKind};
use srgemm::semiring::{MaxMin, Semiring};
use srgemm::Matrix;

/// Widest-path (max-min) APSP, distributed, vs sequential.
#[test]
fn distributed_widest_path_matches_sequential() {
    type WP = MaxMin<f32>;
    let n = 24;
    // capacities: dense random
    let g = generators::uniform_dense(n, WeightKind::Integer { lo: 1, hi: 50 }, 77);
    let mut input = Matrix::filled(n, n, WP::zero());
    for (u, v, w) in g.edges() {
        input[(u, v)] = w;
    }
    let mut want = input.clone();
    fw_seq::<WP>(&mut want);
    for variant in [Variant::Baseline, Variant::Pipelined, Variant::AsyncRing] {
        let cfg = FwConfig::new(6, variant);
        let (got, _) = distributed_apsp_opts::<WP>(
            2, 2, &cfg, &input, None, &DistRunOpts::default(),
        )
        .expect("run");
        assert!(want.eq_exact(&got), "{:?}", variant);
    }
}

/// Widest-path outputs dominate direct capacities and are symmetric-free
/// (directed) — sanity on the semantics, not just self-consistency.
#[test]
fn widest_path_semantics() {
    type WP = MaxMin<f32>;
    let mut input = Matrix::filled(3, 3, WP::zero());
    // 0 -10-> 1 -7-> 2 and a direct thin pipe 0 -2-> 2
    input[(0, 1)] = 10.0;
    input[(1, 2)] = 7.0;
    input[(0, 2)] = 2.0;
    let mut d = input.clone();
    fw_seq::<WP>(&mut d);
    assert_eq!(d[(0, 2)], 7.0); // via 1: min(10,7) beats direct 2
    assert_eq!(d[(2, 0)], f32::NEG_INFINITY); // no reverse path
}
