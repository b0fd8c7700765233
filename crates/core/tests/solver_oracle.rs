//! Cross-solver oracle: every generator family × every eligible solver
//! must agree with sequential Floyd-Warshall (the §5.1 baseline).
//!
//! Tolerance policy: on small-integer weights every f32 path sum is exact,
//! so **every** eligible solver must match `fw_seq` bit for bit. On
//! real-valued weights each algorithm associates the per-path additions
//! differently (blocked closure order, Dijkstra relaxation order, Johnson's
//! potential shift), so all solvers are held to a `1e-3` max-abs-diff
//! tolerance instead — the same bound the repo's distributed suites use.

use apsp_core::verify::max_abs_diff;
use apsp_core::quant::QuantError;
use apsp_core::solver::Ineligible;
use apsp_core::{Registry, SolveError, SolveOpts};
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::{Graph, GraphBuilder};

/// Connected, undirected, unit-weight graph (tree + chords): hop counts,
/// the family where every path sum is a small exact integer.
fn unit_connected(n: usize, extra: usize, seed: u64) -> Graph {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state
    };
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.add_undirected((next() % v as u64) as usize, v, 1.0);
    }
    for _ in 0..extra {
        let (u, v) = ((next() % n as u64) as usize, (next() % n as u64) as usize);
        if u != v {
            b.add_undirected(u, v, 1.0);
        }
    }
    b.build()
}

/// Every generator family the workspace ships, at test-friendly sizes.
/// The bool marks integer weights (exact f32 arithmetic end to end).
fn families() -> Vec<(&'static str, Graph, bool)> {
    vec![
        ("uniform_dense", generators::uniform_dense(40, WeightKind::small_ints(), 1), true),
        ("erdos_renyi", generators::erdos_renyi(45, 0.15, WeightKind::small_ints(), 2), true),
        ("grid", generators::grid(7, 6, WeightKind::small_ints(), 3), true),
        ("ring_with_chords", generators::ring_with_chords(40, WeightKind::small_ints(), 4), true),
        ("multi_component", generators::multi_component(36, 3, WeightKind::small_ints(), 5), true),
        ("unit_undirected", unit_connected(30, 12, 6), true),
        ("geometric", generators::geometric(40, 0.35, 7).0, false),
        (
            "er_real_weights",
            generators::erdos_renyi(32, 0.3, WeightKind::Real { lo: 0.1, hi: 10.0 }, 8),
            false,
        ),
    ]
}

#[test]
fn every_family_times_every_eligible_solver_agrees_with_fw_seq() {
    let reg = Registry::with_all();
    let opts = SolveOpts { block: 8, ..Default::default() };
    for (family, g, integer_weights) in families() {
        let want = reg.solve("fw", &g, &opts).expect("fw is always eligible").dist;
        let mut eligible = 0;
        for name in reg.names() {
            match reg.solve(name, &g, &opts) {
                Ok(sol) => {
                    eligible += 1;
                    if integer_weights {
                        assert!(
                            sol.dist.eq_exact(&want),
                            "{family}/{name}: not bit-identical to fw_seq \
                             (max diff {})",
                            max_abs_diff(&sol.dist, &want)
                        );
                    } else {
                        let diff = max_abs_diff(&sol.dist, &want);
                        assert!(diff <= 1e-3, "{family}/{name}: max diff {diff} > 1e-3");
                    }
                }
                Err(SolveError::Ineligible { solver, reason }) => {
                    assert_eq!(solver, name, "{family}: error names the wrong solver");
                    // the refusal must be explainable, not a debug dump
                    assert!(!reason.to_string().is_empty());
                }
                Err(other) => panic!("{family}/{name}: unexpected error {other}"),
            }
        }
        // the FW family is eligible everywhere: at least fw/blocked/dc/sparse/dist
        assert!(eligible >= 5, "{family}: only {eligible} solvers eligible");
    }
}

#[test]
fn auto_is_correct_on_every_family() {
    let reg = Registry::with_all();
    let opts = SolveOpts { block: 8, ..Default::default() };
    for (family, g, _) in families() {
        let want = reg.solve("fw", &g, &opts).unwrap().dist;
        let (plan, sol) = reg.solve_auto(&g, &opts).unwrap_or_else(|e| panic!("{family}: {e}"));
        assert_eq!(Some(sol.solver), plan.chosen, "{family}");
        let diff = max_abs_diff(&sol.dist, &want);
        assert!(diff <= 1e-3, "{family}/auto={}: max diff {diff}", sol.solver);
        // the planner must never auto-pick the simulated distributed driver
        assert_ne!(sol.solver, "dist", "{family}");
    }
}

/// The quantized solver against the f32 oracle on every generator family:
/// bit-exact on integral weights; on real weights `1e-3` is beyond what
/// `u16` lanes can promise at these sizes, so the answer is the typed
/// refusal carrying the achievable `±eps`, and a solve at exactly that
/// tolerance stays within it.
#[test]
fn quant_stays_within_its_documented_eps_on_every_family() {
    let reg = Registry::with_all();
    let opts = SolveOpts { block: 8, error_tolerance: Some(1e-3), ..Default::default() };
    for (family, g, integer_weights) in families() {
        let want = reg.solve("fw", &g, &opts).expect("fw is always eligible").dist;
        if integer_weights {
            let sol = reg.solve("quant", &g, &opts).unwrap_or_else(|e| panic!("{family}: {e}"));
            assert!(
                sol.stats.notes.iter().any(|n| n.ends_with("bit-exact")),
                "{family}: integral weights must be exact: {:?}",
                sol.stats.notes
            );
            assert!(
                sol.dist.eq_exact(&want),
                "{family}: exact quantized solve diverged (max diff {})",
                max_abs_diff(&sol.dist, &want)
            );
            continue;
        }
        let eps = match reg.solve("quant", &g, &opts) {
            Err(SolveError::Ineligible {
                solver: "quant",
                reason: Ineligible::Quant(QuantError::Tolerance { eps, tolerance }),
            }) => {
                assert!(tolerance == 1e-3 && eps > tolerance, "{family}: {eps} vs {tolerance}");
                eps
            }
            other => panic!("{family}: expected Tolerance, got {:?}", other.map(|s| s.solver)),
        };
        let loosest = SolveOpts { error_tolerance: Some(eps), ..opts.clone() };
        let sol = reg.solve("quant", &g, &loosest).unwrap_or_else(|e| panic!("{family}: {e}"));
        // the solve ran at the carried bound, which its note prints
        let bound = format!("|error| <= {eps:.3e}");
        assert!(sol.stats.notes.iter().any(|n| n.ends_with(&bound)), "{family}: {:?}", sol.stats.notes);
        let diff = max_abs_diff(&sol.dist, &want);
        assert!(diff as f64 <= eps + 1e-6, "{family}: max diff {diff} > documented eps {eps}");
    }
}
