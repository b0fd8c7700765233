//! Reading a DIMACS file holds little beside the graph it returns: the arcs
//! go straight into the CSR's columns, never staged as edge tuples.
//!
//! The counting global allocator of `counting/` tracks live heap bytes.
//! This file is its own test binary with a single test, so nothing else
//! allocates while the read is measured.

mod counting;

use apsp_graph::generators::{uniform_dense, WeightKind};
use apsp_graph::io::{read_dimacs, write_dimacs};

#[test]
fn reading_a_dense_file_peaks_near_the_graph_it_returns() {
    let g = uniform_dense(512, WeightKind::small_ints(), 1);
    let mut text = Vec::new();
    write_dimacs(&g, &mut text).unwrap();
    let (read, graph, peak, _) = counting::measure(|| read_dimacs(&text[..]).unwrap());
    assert_eq!(read.edges().collect::<Vec<_>>(), g.edges().collect::<Vec<_>>());
    // the graph holds 8 B per arc and 8 B per vertex; beside it the reader
    // keeps one 64 KiB chunk and the growth of its columns
    assert!(graph >= 8 * g.m(), "the graph holds {graph} B for {} arcs", g.m());
    let bound = graph + graph * 3 / 5 + 64 * 1024;
    assert!(peak <= bound, "the read peaked at {peak} B for a graph of {graph} B (bound {bound} B)");
}
