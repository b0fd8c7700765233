//! Cost-model planner: score every registered solver on a [`GraphProfile`]
//! and pick the cheapest eligible one, keeping the whole scoring table so
//! the choice is explainable (`apsp plan`).
//!
//! The constants below are single-machine calibration points, not physics:
//! they only need to rank solvers correctly around the density crossover.
//! What keeps the *ranking* honest is the clock-free census table in
//! `adapters.rs` (every registered solver must be `auto`'s pick on some
//! profile); what measures the *values* is the benchmark's
//! `solver.forecast_err_frac` and the forced-solver census in
//! EXPERIMENTS.md.
//!
//! The literals date from an earlier dev box and are stale where the kernel
//! has since improved: the packed dense kernel now measures ≈ 71 G
//! semiring-flop/s on one core (1.4e-11 s/flop against `T_FLOP_PACKED` =
//! 2.2e-11). `blocked` is priced dense although it skips all-∞
//! blocks: on 16 components at n = 2048 it runs ~20× under its price, and a
//! price that credits the skip needs a workload on each side of the flip it
//! would cause (`sparse-auto` among them). A Dijkstra sweep costs ~3
//! ns/relaxation + ~9 ns/heap op and a Δ-stepping sweep ~45 ns/edge (it
//! measures ~30) with no heap term, which is why Δ-stepping overtakes
//! dense FW first on very sparse graphs (ring n = 4096: 0.77 s vs 3.78 s
//! measured on one CPU) while Dijkstra's n²·log n heap bill delays its
//! crossover.
//!
//! They are nevertheless frozen until a `[benchmark]` PR re-derives them
//! together with the workload that depends on them: `sparse-auto` (ring
//! with chords, n = 1536) passes its precondition only because `delta` is
//! estimated at 132.7 ms against `blocked` at 159.5 ms, and moving
//! `T_FLOP_PACKED` alone to the measured 1.4e-11 would put `blocked` at
//! 101 ms, flip `auto`, and fail every operation of that workload.

use super::profile::human_bytes;
use super::{Estimate, GraphProfile, Ineligible, Registry, SolveOpts};

/// Seconds per semiring FLOP of the packed register-tiled dense kernel
/// (per worker thread).
pub const T_FLOP_PACKED: f64 = 2.2e-11;
/// Seconds per semiring FLOP of a quantized solve on `u16` lanes (32 per
/// AVX-512 register against 16 for `f32`), quantize and dequantize
/// included: 2n³ · 1.2e-11 = 25.8 ms at n = 1024, and since PR 23 (plain
/// add in the inner loop, one profile pass, row-wise quantize) that is
/// what `dense-quant` costs — `solver.forecast_err_frac` reads ≤ 0.10
/// where it read 0.36–0.48. The value did not move; the solve did. Frozen
/// with the rest (module header).
pub const T_QUANT_U16: f64 = 1.2e-11;
/// Seconds per FLOP of the sequential triple loop.
pub const T_FLOP_SEQ: f64 = 1.55e-10;
/// Seconds per edge relaxation in the pointer-chasing SSSP algorithms.
pub const T_RELAX: f64 = 3.0e-9;
/// Seconds per binary-heap operation (push/pop amortized).
pub const T_HEAP: f64 = 9.0e-9;
/// Seconds per edge visit of one Δ-stepping sweep (bucket scans and
/// light-edge re-relaxations folded in; grows on wide weight ranges,
/// which only widens dense FW's win there). The sweep measures ≈ 3.0e-8
/// on `sparse-auto`'s input (n = 1536, m = 1920: `solve_s` 0.088 s on a
/// 2-vCPU AVX-512 Xeon, one CPU). Frozen with the rest (module header):
/// `sparse-auto`'s precondition is priced with this value, and at 3.0e-8
/// the census row "grid 64×64" flips from `johnson` to `delta`, a pick
/// that only a measured re-derivation of every constant should move.
pub const T_BUCKET_RELAX: f64 = 4.5e-8;
/// Seconds per byte of tile-store disk traffic in the out-of-core solver
/// (~2 GB/s sustained sequential file I/O). The `ooc` price adds it to the
/// compute term: the file store moves its tiles on the solving thread, so
/// the I/O does not overlap the GEMM.
pub const T_DISK: f64 = 5.0e-10;
/// Per-rank overhead of the simulated distributed runtime (thread spawn,
/// mailbox traffic, scheduling) — keeps `dist` estimates honest about the
/// fact that it simulates a cluster rather than using one.
pub const T_SIM_RANK: f64 = 2.0e-3;

/// One SSSP sweep per source: `n · (m·t_relax + n·log₂n·t_heap) / threads`.
pub fn sssp_sweep_seconds(p: &GraphProfile, threads: usize) -> f64 {
    let n = p.n as f64;
    let m = p.m as f64;
    n * (m * T_RELAX + n * n.max(2.0).log2() * T_HEAP) / threads.max(1) as f64
}

/// One Δ-stepping sweep per source: `n · m · t_bucket_relax / threads`.
/// No heap term — that absence is Δ-stepping's whole edge over Dijkstra
/// on very sparse graphs.
pub fn delta_sweep_seconds(p: &GraphProfile, threads: usize) -> f64 {
    let n = p.n as f64;
    let m = p.m as f64;
    n * m * T_BUCKET_RELAX / threads.max(1) as f64
}

/// One solver's row in the plan table.
#[derive(Clone, Debug)]
pub struct PlanEntry {
    /// Canonical solver name.
    pub solver: &'static str,
    /// One-line solver description.
    pub description: &'static str,
    /// The cost forecast, or the typed reason the solver refused.
    pub outcome: Result<Estimate, Ineligible>,
    /// Estimated peak working set in bytes.
    pub working_set: u64,
    /// `Some(reason)` when the solver is never auto-selected.
    pub auto_excluded: Option<&'static str>,
}

/// The planner's full, explainable output: profile, scoring table (eligible
/// rows first, cheapest first), and the chosen solver.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The profile everything was scored against.
    pub profile: GraphProfile,
    /// Worker count the estimates assumed.
    pub threads: usize,
    /// Block size the estimates assumed ([`SolveOpts::block`]).
    pub block: usize,
    /// All solvers, sorted: eligible by ascending cost, then ineligible.
    pub entries: Vec<PlanEntry>,
    /// Cheapest eligible, auto-selectable solver (None if nothing is).
    pub chosen: Option<&'static str>,
}

impl Plan {
    /// The entry for `solver`, if registered.
    pub fn entry(&self, solver: &str) -> Option<&PlanEntry> {
        self.entries.iter().find(|e| e.solver == solver)
    }

    /// Human-readable report: profile header, scoring table, choice.
    pub fn render(&self) -> String {
        let mut out = self.profile.render();
        out.push_str(&format!(
            "plan (threads = {}, block = {})\n",
            self.threads, self.block
        ));
        for e in &self.entries {
            let marker = if Some(e.solver) == self.chosen { "->" } else { "  " };
            match &e.outcome {
                Ok(est) => {
                    out.push_str(&format!(
                        "{marker} {:<9} est {:>10}  ws {:>9}  {}\n",
                        e.solver,
                        human_seconds(est.seconds),
                        human_bytes(e.working_set),
                        est.detail,
                    ));
                    if let Some(why) = e.auto_excluded {
                        out.push_str(&format!("   {:<9} [never auto-selected: {why}]\n", ""));
                    }
                }
                Err(reason) => {
                    out.push_str(&format!("   {:<9} ineligible: {reason}\n", e.solver));
                }
            }
        }
        match self.chosen {
            Some(name) => {
                let desc = self.entry(name).map(|e| e.description).unwrap_or("");
                out.push_str(&format!("chosen: {name} — {desc}\n"));
            }
            None => out.push_str("chosen: none (no eligible solver)\n"),
        }
        out
    }
}

/// `0.00321 → "3.21 ms"`.
pub fn human_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Score every solver in `reg` against `profile` and pick the cheapest
/// eligible one that is not excluded from auto-selection.
pub fn plan(reg: &Registry, profile: GraphProfile, opts: &SolveOpts) -> Plan {
    let threads = opts.effective_threads();
    let mut entries: Vec<PlanEntry> = reg
        .solvers()
        .map(|s| PlanEntry {
            solver: s.name(),
            description: s.description(),
            outcome: match s.eligible(&&profile, opts) {
                Ok(()) => Ok(s.estimate(&profile, opts)),
                Err(reason) => Err(reason),
            },
            working_set: s.working_set_bytes(&profile, opts),
            auto_excluded: s.auto_excluded(),
        })
        .collect();
    entries.sort_by(|a, b| match (&a.outcome, &b.outcome) {
        (Ok(x), Ok(y)) => x.seconds.total_cmp(&y.seconds),
        (Ok(_), Err(_)) => std::cmp::Ordering::Less,
        (Err(_), Ok(_)) => std::cmp::Ordering::Greater,
        (Err(_), Err(_)) => std::cmp::Ordering::Equal,
    });
    let chosen = entries
        .iter()
        .find(|e| e.outcome.is_ok() && e.auto_excluded.is_none())
        .map(|e| e.solver);
    Plan { profile, threads, block: opts.block, entries, chosen }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_seconds_units() {
        assert_eq!(human_seconds(2.5), "2.50 s");
        assert_eq!(human_seconds(0.0032), "3.20 ms");
        assert_eq!(human_seconds(4.2e-5), "42.0 µs");
    }

    #[test]
    fn sweep_cost_scales_with_edges_and_threads() {
        let mk = |n: usize, m: usize| GraphProfile {
            n,
            m,
            density: 0.0,
            min_weight: 1.0,
            max_weight: 1.0,
            mean_weight: 1.0,
            negative_edges: 0,
            integral_weights: true,
            dense_bytes: (n * n * 4) as u64,
        };
        let sparse = mk(1000, 4000);
        let dense = mk(1000, 999_000);
        assert!(sssp_sweep_seconds(&sparse, 1) < sssp_sweep_seconds(&dense, 1));
        assert!(sssp_sweep_seconds(&sparse, 8) < sssp_sweep_seconds(&sparse, 1));
        // threads=0 must not divide by zero
        assert!(sssp_sweep_seconds(&sparse, 0).is_finite());
    }
}
