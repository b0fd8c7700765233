//! Knowledge-graph relationship mining — the paper's headline application
//! ("in knowledge graph analytics, the relationship mining problems become
//! computing APSP in a large and dense graph", §1, citing Kannan et al.'s
//! 136-Pflop/s knowledge-graph run).
//!
//! ```text
//! cargo run --release --example knowledge_graph -- [entities]
//! ```
//!
//! Entities are connected by weighted "relatedness" scores in (0, 1]. The
//! strongest relation chain between two entities maximizes the *product* of
//! scores, which under `w = -ln(score)` becomes a shortest path in the
//! min-plus semiring — exactly the transform used in practice. We run
//! blocked Floyd-Warshall and mine the top indirect relationships.

use apsp_core::fw_blocked::{fw_blocked_threads, DiagMethod};
use apsp_graph::graph::GraphBuilder;
use rand::prelude::*;
use rand::rngs::StdRng;
use srgemm::MinPlusF32;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    println!("== knowledge graph: {n} entities, relationship mining by APSP ==\n");

    // synthetic KG: a few dense "communities" plus sparse cross links
    let mut rng = StdRng::seed_from_u64(2021);
    let communities = 8;
    let per = n / communities;
    let mut b = GraphBuilder::new(n);
    let mut direct_edges = 0u64;
    for u in 0..n {
        for v in 0..n {
            if u == v {
                continue;
            }
            let same = u / per == v / per;
            let p = if same { 0.30 } else { 0.01 };
            if rng.random_bool(p) {
                // relatedness score in (0, 1]; stronger inside a community
                let score: f32 = if same {
                    rng.random_range(0.5..1.0)
                } else {
                    rng.random_range(0.05..0.4)
                };
                b.add_edge(u, v, -score.ln());
                direct_edges += 1;
            }
        }
    }
    let graph = b.build();
    println!("direct relations: {direct_edges}");

    let mut d = graph.to_dense();
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    fw_blocked_threads::<MinPlusF32>(&mut d, 64, DiagMethod::FwClosure, threads);

    // mine: strongest *indirect* relations (no direct edge, high end-to-end
    // relatedness = exp(-dist))
    let mut mined: Vec<(f32, usize, usize)> = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v && graph.weight(u, v).is_infinite() && d[(u, v)].is_finite() {
                mined.push((d[(u, v)], u, v));
            }
        }
    }
    mined.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
    println!("indirect entity pairs discovered: {}", mined.len());
    println!("\ntop 10 mined relationships (no direct edge):");
    println!("{:>6} {:>6} {:>12} {:>12}", "from", "to", "distance", "relatedness");
    for &(dist, u, v) in mined.iter().take(10) {
        println!("{u:>6} {v:>6} {dist:>12.4} {:>12.4}", (-dist).exp());
    }

    // community-level relatedness matrix: mean exp(-dist) between blocks
    println!("\ncommunity relatedness (mean over pairs):");
    for ci in 0..communities {
        let row: Vec<String> = (0..communities)
            .map(|cj| {
                let mut acc = 0.0f64;
                let mut cnt = 0u64;
                for u in ci * per..(ci + 1) * per {
                    for v in cj * per..(cj + 1) * per {
                        if u != v && d[(u, v)].is_finite() {
                            acc += (-d[(u, v)]).exp() as f64;
                            cnt += 1;
                        }
                    }
                }
                format!("{:5.2}", acc / cnt.max(1) as f64)
            })
            .collect();
        println!("  c{ci}: {}", row.join(" "));
    }
}
