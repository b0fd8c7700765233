//! Graph feature profile: everything the planner needs to pick a solver,
//! computed in one pass over the edge weights.

use apsp_graph::Graph;

/// Structural and numeric features of a graph, extracted once and shared by
/// every solver's eligibility check and cost estimate. All edge-derived
/// fields come from a single `O(m)` sweep over the CSR weights.
#[derive(Clone, Debug)]
pub struct GraphProfile {
    /// Vertex count.
    pub n: usize,
    /// Directed edge count (after CSR dedup).
    pub m: usize,
    /// `m / (n·(n−1))` — fraction of possible directed edges present.
    pub density: f64,
    /// Smallest edge weight (`0` when there are no edges).
    pub min_weight: f32,
    /// Largest edge weight (`0` when there are no edges).
    pub max_weight: f32,
    /// Mean edge weight (`0` when there are no edges).
    pub mean_weight: f64,
    /// Any `w < 0` edge present — disqualifies Δ-stepping and makes
    /// Johnson pay its Bellman-Ford pass.
    pub negative_edges: usize,
    /// Every weight is a whole number — quantization (`--algo quant`) can
    /// be bit-exact instead of merely `eps`-bounded.
    pub integral_weights: bool,
    /// Bytes of one dense `n×n` f32 distance matrix.
    pub dense_bytes: u64,
}

impl GraphProfile {
    /// Profile `g`. `_block` is unused: it stays only because
    /// `benchmark/src/layers.rs` calls `compute(g, BLOCK)`, and goes with
    /// the next `[benchmark]` PR, as the unused [`DiagMethod`] argument of
    /// [`crate::fw_blocked::fw_blocked`] does.
    ///
    /// [`DiagMethod`]: crate::fw_blocked::DiagMethod
    pub fn compute(g: &Graph, _block: usize) -> GraphProfile {
        let (n, m) = (g.n(), g.m());
        let mut weights = WeightSweep::new();
        for u in 0..n {
            weights.row(g.out_edges(u).1);
        }
        let (min_weight, max_weight) = weights.range();
        GraphProfile {
            n,
            m,
            density: if n > 1 { m as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 },
            min_weight,
            max_weight,
            mean_weight: if m > 0 { weights.sum / m as f64 } else { 0.0 },
            negative_edges: weights.negative,
            integral_weights: weights.integral,
            dense_bytes: (n as u64) * (n as u64) * 4,
        }
    }

    /// Any negative-weight edge?
    pub fn has_negative(&self) -> bool {
        self.negative_edges > 0
    }

    /// Human-readable multi-line summary (the header of `apsp plan`).
    pub fn render(&self) -> String {
        let sign = if self.has_negative() {
            format!("{} negative edges", self.negative_edges)
        } else {
            "non-negative".to_string()
        };
        format!(
            "graph profile\n  n = {}  m = {}  density {:.3}%\n  weights: [{}, {}]  mean {:.2}  \
             {sign}\n  dense working set: {}\n",
            self.n,
            self.m,
            self.density * 100.0,
            self.min_weight,
            self.max_weight,
            self.mean_weight,
            human_bytes(self.dense_bytes),
        )
    }
}

/// What one pass over the edge weights learns. [`GraphProfile::compute`]
/// folds every CSR row through it; `quant::plan_for_graph`, which needs the
/// range and the integrality and nothing else of the profile, does the same.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WeightSweep {
    edges: usize,
    min: f32,
    max: f32,
    /// Sum of the weights in CSR order, in `f64`.
    pub sum: f64,
    /// Edges with `w < 0`.
    pub negative: usize,
    /// Every weight so far is a whole number.
    pub integral: bool,
}

impl WeightSweep {
    pub fn new() -> WeightSweep {
        WeightSweep {
            edges: 0,
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            sum: 0.0,
            negative: 0,
            integral: true,
        }
    }

    /// Fold one row's weights in.
    #[inline]
    pub fn row(&mut self, weights: &[f32]) {
        // running values in locals: through `&mut self` the compiler keeps
        // some of them in memory across edges (`plan_for_graph` 2.3 vs 1.6 ms)
        let WeightSweep { edges, mut min, mut max, mut sum, mut negative, mut integral } = *self;
        for &w in weights {
            // `f32::min` / `max` with the NaN fix-up they need left out: the
            // running values are never NaN and a NaN weight compares false,
            // so one `minss` / `maxss` each instead of a five-instruction chain
            if w < min {
                min = w;
            }
            if w > max {
                max = w;
            }
            sum += w as f64;
            negative += usize::from(w < 0.0);
            integral &= is_whole(w);
        }
        *self = WeightSweep { edges: edges + weights.len(), min, max, sum, negative, integral };
    }

    /// `(smallest, largest)` weight seen, `(0, 0)` when there were none.
    pub fn range(&self) -> (f32, f32) {
        if self.edges == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        }
    }
}

/// `w.fract() == 0.0`, which the baseline x86-64 target can only compute
/// through a libm `truncf` call per edge: below 2²³ the `i32` round trip
/// truncates exactly, from 2²³ up every finite `f32` is whole.
fn is_whole(w: f32) -> bool {
    if w.abs() < 8_388_608.0 {
        (w as i32) as f32 == w
    } else {
        w.is_finite()
    }
}

/// `1536 → "1.5 KiB"` — for profile and plan rendering.
pub fn human_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.1} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use apsp_graph::GraphBuilder;

    #[test]
    fn dense_uniform_profile() {
        let g = generators::uniform_dense(32, WeightKind::small_ints(), 3);
        let p = GraphProfile::compute(&g, 8);
        assert_eq!(p.n, 32);
        assert_eq!(p.m, 32 * 31);
        assert!((p.density - 1.0).abs() < 1e-9);
        assert!(!p.has_negative());
        assert!(p.integral_weights); // small_ints are whole numbers
        assert_eq!(p.dense_bytes, 32 * 32 * 4);
    }

    #[test]
    fn grid_profile_is_sparse_symmetric_and_banded() {
        let g = generators::grid(8, 8, WeightKind::small_ints(), 5);
        let p = GraphProfile::compute(&g, 16);
        assert!(p.density < 0.06, "grid density {}", p.density);
    }

    /// The profile spelled out edge by edge: a `fract` per edge.
    fn profile_edge_by_edge(g: &Graph) -> GraphProfile {
        let (n, m) = (g.n(), g.m());
        let edges: Vec<_> = g.edges().collect();
        let weights = || edges.iter().map(|e| e.2);
        GraphProfile {
            n,
            m,
            density: if n > 1 { m as f64 / (n as f64 * (n as f64 - 1.0)) } else { 0.0 },
            min_weight: if m == 0 { 0.0 } else { weights().fold(f32::INFINITY, f32::min) },
            max_weight: if m == 0 { 0.0 } else { weights().fold(f32::NEG_INFINITY, f32::max) },
            mean_weight: if m == 0 { 0.0 } else { weights().fold(0.0, |s, w| s + w as f64) / m as f64 },
            negative_edges: weights().filter(|&w| w < 0.0).count(),
            integral_weights: weights().all(|w| w.fract() == 0.0),
            dense_bytes: (n * n * 4) as u64,
        }
    }

    #[test]
    fn every_field_matches_the_edge_by_edge_profile() {
        let ints = WeightKind::small_ints;
        let mut lopsided = GraphBuilder::new(7);
        // one-way, two-way with unequal weights, and undirected edges
        lopsided.add_edge(0, 5, 2.0).add_edge(5, 0, 3.0).add_undirected(1, 2, 0.25);
        lopsided.add_edge(6, 3, -1.5).add_edge(3, 3, f32::INFINITY).add_edge(4, 6, 3.0e9);
        let graphs = [
            generators::uniform_dense(33, ints(), 1),
            generators::erdos_renyi(40, 0.1, WeightKind::Real { lo: -1.0, hi: 1.0 }, 2),
            generators::grid(5, 7, ints(), 3),
            generators::ring_with_chords(41, ints(), 4),
            generators::multi_component(30, 3, ints(), 5),
            generators::unit_ring(9),
            generators::geometric(25, 0.3, 6).0,
            lopsided.build(),
            GraphBuilder::new(9).build(),
            GraphBuilder::new(0).build(),
        ];
        for g in &graphs {
            // Debug prints every field, floats to the last bit
            let (got, want) = (GraphProfile::compute(g, 64), profile_edge_by_edge(g));
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "n={}", g.n());
        }
    }

    #[test]
    fn is_whole_is_a_zero_fract() {
        let big = 8_388_608.0f32; // 2²³
        for w in [0.0, -0.0, 1.0, -7.0, 0.5, -2.5, 1e-7, big - 0.5, big - 1.0, big, -big, 2.0 * big + 2.0] {
            assert_eq!(is_whole(w), w.fract() == 0.0, "{w}");
        }
        for w in [3.0e9, -3.0e9, f32::MAX, f32::MIN_POSITIVE, f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert_eq!(is_whole(w), w.fract() == 0.0, "{w}");
        }
    }

    #[test]
    fn negative_and_unit_weight_detection() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).add_edge(1, 2, -2.5).add_edge(2, 3, 1.0);
        let p = GraphProfile::compute(&b.build(), 2);
        assert_eq!(p.negative_edges, 1);
        assert!(p.has_negative());
        assert!(!p.integral_weights); // -2.5 has a fractional part
        assert_eq!(p.min_weight, -2.5);

        let p = GraphProfile::compute(&generators::unit_ring(6), 2);
        assert!(!p.has_negative() && p.integral_weights);
        assert_eq!((p.min_weight, p.max_weight), (1.0, 1.0));
    }

    #[test]
    fn empty_and_edgeless_graphs_do_not_divide_by_zero() {
        let p = GraphProfile::compute(&GraphBuilder::new(0).build(), 8);
        assert_eq!((p.n, p.density, p.dense_bytes), (0, 0.0, 0));
        let p = GraphProfile::compute(&GraphBuilder::new(5).build(), 8);
        assert_eq!(p.m, 0);
        assert_eq!((p.min_weight, p.max_weight, p.mean_weight), (0.0, 0.0, 0.0));
        assert!(!p.render().is_empty());
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(4 * 1024 * 1024), "4.0 MiB");
    }
}
