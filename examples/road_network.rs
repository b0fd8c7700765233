//! Road-network routing: APSP with path reconstruction on a random
//! geometric graph (the "traffic routing and simulation" application the
//! paper's introduction motivates).
//!
//! ```text
//! cargo run --release --example road_network -- [n]
//! ```
//!
//! Generates `n` intersections on the unit square, connects nearby ones,
//! solves it with the witness-carrying blocked Floyd-Warshall that `apsp
//! serve` and `apsp route` run, and prints turn-by-turn routes plus network
//! statistics (diameter, mean distance, unreachable pairs).

use apsp_core::serve::Engine;
use apsp_graph::generators::geometric;
use apsp_graph::paths::validate_path;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(300);
    println!("== road network: {n} intersections on the unit square ==\n");

    let (graph, points) = geometric(n, 0.12, 7);
    println!("road segments (directed): {}", graph.m());

    let snap = Engine::solve_from_graph(&graph, 64).expect("road weights are positive").snapshot();
    let dist = snap.distances();

    // network statistics
    let mut finite = 0u64;
    let mut total = 0.0f64;
    let mut diameter = 0.0f32;
    let mut far_pair = (0, 0);
    for i in 0..n {
        for j in 0..n {
            let d = dist[(i, j)];
            if i != j && d < f32::INFINITY {
                finite += 1;
                total += d as f64;
                if d > diameter {
                    diameter = d;
                    far_pair = (i, j);
                }
            }
        }
    }
    let pairs = (n * n - n) as u64;
    println!("reachable pairs : {finite} / {pairs} ({:.1}%)", 100.0 * finite as f64 / pairs as f64);
    println!("mean distance   : {:.4}", total / finite.max(1) as f64);
    println!("diameter        : {:.4}  (between {} and {})", diameter, far_pair.0, far_pair.1);

    // the longest shortest route, turn by turn
    let (s, t) = far_pair;
    if let Ok(Some((_, route))) = snap.path(s, t) {
        assert!(validate_path(&graph, &route, s, t, dist[(s, t)], 1e-3));
        println!("\nlongest route ({} hops, length {:.4}):", route.len() - 1, dist[(s, t)]);
        for leg in route.windows(2) {
            let (a, b) = (leg[0], leg[1]);
            println!(
                "  {:3} ({:.3},{:.3}) → {:3} ({:.3},{:.3})   {:.4}",
                a, points[a].0, points[a].1, b, points[b].0, points[b].1,
                graph.weight(a, b)
            );
        }
    }

    // closest facility query: nearest of 5 "depots" from every intersection
    let depots: Vec<usize> = (0..5).map(|i| i * n / 5).collect();
    let mut worst: (usize, f32) = (0, 0.0);
    for v in 0..n {
        let best = depots
            .iter()
            .map(|&d| dist[(d, v)])
            .fold(f32::INFINITY, f32::min);
        if best < f32::INFINITY && best > worst.1 {
            worst = (v, best);
        }
    }
    println!(
        "\nfacility coverage: the worst-served reachable intersection is {} at distance {:.4}",
        worst.0, worst.1
    );
}
