//! Dynamic traffic served live: the epoch-snapshot query engine over a
//! road network under streaming updates.
//!
//! ```text
//! cargo run --release --example dynamic_traffic -- [n]
//! ```
//!
//! Builds a road-like grid, stands up [`apsp_core::serve::Engine`] over
//! it (one blocked-FW solve, witness-annotated), then runs the serving
//! scenario end to end: navigation clients query routes concurrently
//! while "traffic improved" events (new expressway segments) stream
//! through the `O(n²)` incremental updater (paper §7 future work) and
//! publish new epochs. Every route is validated edge-by-edge against the
//! *current* road network, and the final epoch is compared against a
//! from-scratch re-solve — the consistency story, not just the speedup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use apsp_core::model::fw_flops;
use apsp_core::serve::Engine;
use apsp_core::verify::assert_matrices_equal;
use apsp_graph::generators::{grid, WeightKind};
use apsp_graph::graph::GraphBuilder;
use apsp_graph::paths::validate_path;
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let n: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    let width = (n as f64).sqrt().ceil() as usize;
    println!("== dynamic traffic, served: {width}x{} road grid ==\n", n.div_ceil(width));

    let roads = grid(width, n.div_ceil(width), WeightKind::Integer { lo: 5, hi: 30 }, 11);
    let n = roads.n();

    // stand up the service: one annotated solve, epoch 0 published
    let t = Instant::now();
    let engine = Arc::new(Engine::solve_from_graph(&roads, 64).expect("road weights are positive"));
    let t_solve = t.elapsed().as_secs_f64();
    println!(
        "initial APSP solve: {:.3} s ({:.2} Gflop/s); serving epoch 0",
        t_solve,
        fw_flops(n) / t_solve / 1e9
    );

    // the road network as the writer evolves it, for route validation —
    // keyed by epoch so a reader can validate against the matching roads
    let networks = Arc::new(Mutex::new(vec![roads.clone()]));
    let done = Arc::new(AtomicBool::new(false));

    // navigation clients: query random routes, validate each one
    // edge-by-edge against the epoch's own road network
    let clients: Vec<_> = (0..4)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let networks = Arc::clone(&networks);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + c as u64);
                let mut routes = 0usize;
                while !done.load(Ordering::Acquire) || routes < 50 {
                    let (s, t) = (rng.random_range(0..n), rng.random_range(0..n));
                    let snap = engine.snapshot();
                    let Ok(Some((d, route))) = snap.path(s, t) else { continue };
                    // the writer records each epoch's road network right
                    // after publishing; in the tiny window before that,
                    // skip validation rather than check the wrong graph
                    let g = {
                        let nets = networks.lock().unwrap();
                        match nets.get(snap.epoch() as usize) {
                            Some(g) => g.clone(),
                            None => continue,
                        }
                    };
                    assert!(
                        validate_path(&g, &route, s, t, d, 1e-3),
                        "client {c}: route {s}->{t} at epoch {} does not realize {d}",
                        snap.epoch()
                    );
                    routes += 1;
                }
                routes
            })
        })
        .collect();

    // traffic control: stream expressway openings in batches
    let mut rng = StdRng::seed_from_u64(3);
    let mut accepted: Vec<(usize, usize, f32)> = Vec::new();
    let t = Instant::now();
    for wave in 0..5 {
        let batch: Vec<(usize, usize, f32)> = (0..2)
            .map(|_| (rng.random_range(0..n), rng.random_range(0..n), 1.0f32))
            .collect();
        let out = engine.apply(&batch);
        let wave_accepted: Vec<_> = batch
            .iter()
            .enumerate()
            .filter(|(i, _)| out.report.outcomes[*i].is_ok())
            .map(|(_, &u)| u)
            .collect();
        println!(
            "  wave {wave}: {} segments, {} accepted, {} pairs improved -> epoch {}",
            batch.len(),
            wave_accepted.len(),
            out.report.improved,
            out.epoch
        );
        if out.published {
            // record the road network this epoch corresponds to
            accepted.extend(&wave_accepted);
            let mut b = GraphBuilder::new(n);
            for (x, y, w) in roads.edges() {
                b.add_edge(x, y, w);
            }
            for &(u, v, w) in &accepted {
                b.add_edge(u, v, w);
            }
            let mut nets = networks.lock().unwrap();
            while nets.len() < out.epoch as usize {
                let prev = nets.last().unwrap().clone();
                nets.push(prev);
            }
            nets.push(b.build());
        }
        std::thread::yield_now();
    }
    let t_inc = t.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);

    let routes: usize = clients.into_iter().map(|h| h.join().expect("client")).sum();
    println!(
        "\n{} expressway segments absorbed in {:.4} s while {} routes were served \
         ({:.0}x faster than re-solving per wave)",
        accepted.len(),
        t_inc,
        routes,
        t_solve * 5.0 / t_inc.max(1e-9)
    );

    // the final epoch must equal a from-scratch re-solve with every
    // accepted segment added
    let mut b = GraphBuilder::new(n);
    for (x, y, w) in roads.edges() {
        b.add_edge(x, y, w);
    }
    for &(u, v, w) in &accepted {
        b.add_edge(u, v, w);
    }
    let mut want = b.build().to_dense();
    apsp_core::fw_blocked::fw_blocked_threads::<srgemm::MinPlusF32>(&mut want, 64, 1);
    let got = engine.snapshot().distances();
    assert_matrices_equal(&want, &got, "served epoch vs re-solve");
    println!(
        "final epoch {} matches a from-scratch re-solve bit-for-bit; \
         every served route realized its distance ✓",
        engine.latest_epoch()
    );
}
