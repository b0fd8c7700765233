//! Quickstart: all-pairs shortest paths on a dense random graph.
//!
//! ```text
//! cargo run --release --example quickstart -- [n]
//! ```
//!
//! Builds the paper's workload (a dense uniform random digraph), solves APSP
//! three ways — sequential Floyd-Warshall, blocked Floyd-Warshall
//! (Algorithm 2, multi-threaded), and Johnson's algorithm — checks they
//! agree, and prints throughput numbers.

use std::time::Instant;

use apsp_core::fw_blocked::{fw_blocked_threads, DiagMethod};
use apsp_core::fw_seq::fw_seq;
use apsp_core::model::fw_flops;
use apsp_core::verify::assert_matrices_equal;
use apsp_graph::generators::{uniform_dense, WeightKind};
use apsp_graph::johnson::johnson_apsp;
use srgemm::MinPlusF32;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    println!("== APSP quickstart: dense uniform random graph, n = {n} ==\n");

    let graph = uniform_dense(n, WeightKind::small_ints(), 42);
    println!("graph: {} vertices, {} edges", graph.n(), graph.m());

    // 1. sequential Floyd-Warshall (Algorithm 1) — the correctness anchor
    let mut d_seq = graph.to_dense();
    let t = Instant::now();
    fw_seq::<MinPlusF32>(&mut d_seq);
    let t_seq = t.elapsed().as_secs_f64();
    println!("sequential FW   : {:8.3} s  ({:6.2} Gflop/s)", t_seq, fw_flops(n) / t_seq / 1e9);

    // 2. blocked Floyd-Warshall (Algorithm 2), its GEMMs on every core
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut d_blk = graph.to_dense();
    let t = Instant::now();
    fw_blocked_threads::<MinPlusF32>(&mut d_blk, 64, DiagMethod::FwClosure, threads);
    let t_blk = t.elapsed().as_secs_f64();
    println!(
        "blocked FW (par): {:8.3} s  ({:6.2} Gflop/s, {:.1}x)",
        t_blk,
        fw_flops(n) / t_blk / 1e9,
        t_seq / t_blk
    );

    // 3. Johnson's algorithm — the related-work comparator (§6)
    let t = Instant::now();
    let d_johnson = johnson_apsp(&graph).expect("no negative cycles");
    let t_j = t.elapsed().as_secs_f64();
    println!("Johnson         : {:8.3} s", t_j);

    assert_matrices_equal(&d_seq, &d_blk, "blocked vs sequential");
    assert_matrices_equal(&d_seq, &d_johnson, "Johnson vs sequential");
    println!("\nall three agree bit-for-bit ✓");

    println!("\nsample distances:");
    for (s, t_) in [(0usize, 1usize), (0, n / 2), (n / 3, n - 1)] {
        println!("  dist({s:4} → {t_:4}) = {}", d_seq[(s, t_)]);
    }
}
