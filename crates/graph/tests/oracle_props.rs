//! Cross-equivalence of the SSSP/APSP oracles on random graphs: four
//! independent algorithms must agree exactly on integer-weighted inputs,
//! and Δ-stepping must equal Dijkstra bit for bit on real weights too.

use proptest::prelude::*;

use apsp_graph::bellman_ford::{bellman_ford, BellmanFord};
use apsp_graph::delta_stepping::{apsp_by_delta_stepping, delta_stepping};
use apsp_graph::dijkstra::dijkstra;
use apsp_graph::generators::{erdos_renyi, WeightKind};
use apsp_graph::graph::{GraphBuilder, INF};
use apsp_graph::johnson::johnson_apsp;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn four_sssp_algorithms_agree(
        n in 2usize..40,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        delta_exp in 0u32..8,
    ) {
        let g = erdos_renyi(n, p, WeightKind::small_ints(), seed);
        let src = (seed as usize) % n;
        let want = dijkstra(&g, src);
        match bellman_ford(&g, src) {
            BellmanFord::Distances(bf) => prop_assert_eq!(&bf, &want),
            BellmanFord::NegativeCycle => prop_assert!(false, "non-negative graph"),
        }
        let ds = delta_stepping(&g, src, (1 << delta_exp) as f32);
        prop_assert_eq!(&ds, &want);
        let j = johnson_apsp(&g).expect("no negative cycles");
        prop_assert_eq!(j.row(src), &want[..]);
    }

    #[test]
    fn delta_stepping_is_dijkstra_bit_for_bit(
        n in 2usize..40,
        p in 0.05f64..0.4,
        seed in any::<u64>(),
        delta in 0.05f32..8.0,
    ) {
        // real weights; every fifth arc weighs exactly Δ (the light/heavy
        // boundary), every seventh 0 and every eleventh ∞; the last three
        // vertices have out-arcs only, so no other source reaches them
        let base = erdos_renyi(n, p, WeightKind::Real { lo: 0.0, hi: 10.0 }, seed);
        let mut b = GraphBuilder::new(n + 3);
        for (i, (u, v, w)) in base.edges().enumerate() {
            let w = match i {
                _ if i % 5 == 0 => delta,
                _ if i % 7 == 0 => 0.0,
                _ if i % 11 == 0 => INF,
                _ => w,
            };
            b.add_edge(u, v, w);
        }
        for u in n..n + 3 {
            b.add_edge(u, u - n, 1.0);
        }
        let g = b.build();
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut want = Vec::new();
        for s in 0..g.n() {
            let d = dijkstra(&g, s);
            prop_assert_eq!(bits(&delta_stepping(&g, s, delta)), bits(&d), "source {}", s);
            want.extend(d);
        }
        for threads in 1..=3 {
            let got = apsp_by_delta_stepping(&g, delta, threads);
            prop_assert!(bits(got.as_slice()) == bits(&want), "threads={}", threads);
        }
    }

    #[test]
    fn johnson_handles_random_negative_dags(n in 2usize..25, seed in any::<u64>()) {
        // edges only forward (i < j) with weights in [-10, 90]: a DAG, so no
        // cycles at all, negative edges allowed
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut b = GraphBuilder::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if next() % 3 == 0 {
                    b.add_edge(i, j, ((next() % 100) as f32) - 10.0);
                }
            }
        }
        let g = b.build();
        let apsp = johnson_apsp(&g).expect("DAG has no cycles");
        // validate every row against Bellman-Ford (which tolerates negatives)
        for s in 0..n {
            match bellman_ford(&g, s) {
                BellmanFord::Distances(bf) => {
                    for t in 0..n {
                        let (a, b_) = (apsp[(s, t)], bf[t]);
                        if a == INF || b_ == INF {
                            prop_assert_eq!(a, b_);
                        } else {
                            prop_assert!((a - b_).abs() < 1e-3, "({s},{t}): {a} vs {b_}");
                        }
                    }
                }
                BellmanFord::NegativeCycle => prop_assert!(false, "DAG cannot have cycles"),
            }
        }
    }

    #[test]
    fn parallel_johnson_is_bit_identical_to_serial(
        n in 2usize..40,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        threads in 1usize..9,
    ) {
        // real (non-integer) weights on purpose: bit-identity must come from
        // running the same float ops in the same order per source, not from
        // integer exactness
        let g = erdos_renyi(n, p, WeightKind::Real { lo: 0.1, hi: 10.0 }, seed);
        let serial = johnson_apsp(&g).expect("non-negative");
        let parallel = apsp_graph::johnson::johnson_apsp_threads(&g, threads)
            .expect("non-negative");
        prop_assert!(serial.eq_exact(&parallel), "threads={}", threads);
    }

    #[test]
    fn distances_satisfy_triangle_inequality(n in 2usize..30, p in 0.1f64..0.7, seed in any::<u64>()) {
        let g = erdos_renyi(n, p, WeightKind::small_ints(), seed);
        let apsp = johnson_apsp(&g).expect("non-negative");
        for i in 0..n {
            prop_assert_eq!(apsp[(i, i)], 0.0);
            for j in 0..n {
                for k in 0..n {
                    prop_assert!(apsp[(i, j)] <= apsp[(i, k)] + apsp[(k, j)] + 1e-3);
                }
            }
        }
    }
}
