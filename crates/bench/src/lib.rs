#![warn(missing_docs)]

//! # apsp-bench — paper-figure regeneration harnesses and the serve load generator
//!
//! One binary per data figure of the paper (see DESIGN.md §4 for the full
//! index):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig3_rank_placement` | Fig. 3 — effective bandwidth vs (K_r, K_c) per node count |
//! | `fig4_comm_strategies` | Fig. 4 — Baseline/Pipelined/+Reordering/+Async vs n, 64 nodes |
//! | `fig5_oog_blocksize` | Fig. 5 — ooGSrGemm Gflop/s vs block size per buffer size |
//! | `fig6_oog_buffer` | Fig. 6 — ooGSrGemm Gflop/s heatmap, vertices × buffer |
//! | `fig7_64node_perf` | Fig. 7 — end-to-end PF/s vs n on 64 nodes, all variants |
//! | `fig8_strong_scaling` | Fig. 8 — strong scaling 16…256 nodes at n = 300k |
//! | `fig9_weak_scaling` | Fig. 9 — weak scaling, n³/p constant |
//! | `headline_claims` | §1/§5 headline numbers, paper vs simulated |
//! | `comm_volume_validation` | §5.2.2 — functional byte-count validation of §3.4.1 |
//!
//! Wall-clock numbers for the *real* CPU kernels of this reproduction on
//! this machine come from `benchmark/` at the repository root, the only
//! source of timings, complementing the simulated Summit numbers above.
//! [`serve_load`] is the traffic generator behind `apsp bench serve-load`.

pub mod serve_load;

/// Simple fixed-width table printer shared by the figure binaries.
pub struct Table {
    widths: Vec<usize>,
}

impl Table {
    /// Start a table and print its header row.
    pub fn new(headers: &[(&str, usize)]) -> Self {
        let widths: Vec<usize> = headers.iter().map(|h| h.1).collect();
        let row: Vec<String> = headers.iter().map(|(h, w)| format!("{h:>w$}")).collect();
        println!("{}", row.join("  "));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        Table { widths }
    }

    /// Print one row of already-formatted cells.
    pub fn row(&self, cells: &[String]) {
        let row: Vec<String> = cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", row.join("  "));
    }
}

/// The paper's Fig. 4/7 vertex sweep: 16,384 → 1,664,511 in ×1.26 steps
/// (every point in the published x-axes).
pub fn paper_vertex_sweep() -> Vec<usize> {
    vec![
        16_384, 20_643, 26_008, 32_768, 41_285, 52_016, 65_536, 82_570, 104_032, 131_072,
        165_140, 208_064, 262_144, 330_281, 416_128, 524_288, 660_562, 832_255, 1_048_576,
        1_321_124, 1_664_511,
    ]
}

/// Optional CSV sink: when `--csv <path>` is on the command line, every
/// table row is mirrored to the file (comma-separated, one header row).
pub struct Csv {
    file: Option<std::io::BufWriter<std::fs::File>>,
}

impl Csv {
    /// Open the sink if `--csv` was given; write the header.
    pub fn from_args(headers: &[&str]) -> Csv {
        use std::io::Write;
        let path: String = arg("--csv", String::new());
        if path.is_empty() {
            return Csv { file: None };
        }
        let mut f = std::io::BufWriter::new(
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("create {path}: {e}")),
        );
        writeln!(f, "{}", headers.join(",")).expect("write csv header");
        Csv { file: Some(f) }
    }

    /// Append one row.
    pub fn row(&mut self, cells: &[String]) {
        use std::io::Write;
        if let Some(f) = &mut self.file {
            writeln!(f, "{}", cells.join(",")).expect("write csv row");
        }
    }
}

/// Parse `--flag value` style overrides from argv.
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A `--flag value` string option with no default (`None` when absent).
pub fn arg_str(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Shared `--trace <prefix>` handling for the figure binaries: write one
/// Chrome trace_events JSON per legend entry at the `--trace-n` vertex count
/// (default 65,536 — a bandwidth-bound sweep point), named
/// `<prefix>_<legend>.json`.
pub fn write_schedule_traces(
    spec: &cluster_sim::MachineSpec,
    legends: &[(&str, apsp_core::dist::Variant, usize, usize)],
) {
    let Some(prefix) = arg_str("--trace") else { return };
    let tn: usize = arg("--trace-n", 65_536);
    for &(legend, variant, kr, kc) in legends {
        let cfg = apsp_core::schedule::ScheduleConfig::new(tn, variant, kr, kc);
        match apsp_core::schedule::simulate_with_trace(spec, &cfg) {
            Ok((_, json)) => {
                let path = format!("{prefix}_{legend}.json");
                std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
                println!("wrote {legend} schedule trace (n = {tn}) to {path}");
            }
            Err(e) => println!("trace {legend}: infeasible at n = {tn} ({e})"),
        }
    }
}

/// Shared `--execute-p <ranks>` mode for the Fig. 8/9 harnesses: instead of
/// the analytic Summit model, run the *real* distributed pipeline on the
/// event-driven simulator at paper-scale rank counts (1024+ on one box) and
/// check the measured NIC bytes against the §3.4.1 communication model.
///
/// Every number printed is counted, not modeled: the run moves actual
/// panels through the simulated mailboxes, the output is verified
/// bit-for-bit against sequential Floyd–Warshall, and per-phase NIC
/// attribution is required to be exact. `n` is deliberately small — the
/// point is the rank count and the byte accounting, not the flop rate.
pub fn execute_functional_scale(p: usize, n: usize) {
    use std::time::{Duration, Instant};

    use apsp_core::dist::{
        distributed_apsp_opts, DistRunOpts, Exec, FwConfig, PanelBcastAlgo, Schedule,
    };
    use apsp_core::fw_seq::fw_seq;
    use apsp_core::model::comm_lower_bound_bytes;
    use apsp_core::verify::assert_matrices_equal;
    use apsp_graph::generators::{uniform_dense, WeightKind};
    use mpi_sim::Placement;
    use srgemm::MinPlusF32;

    // squarest factoring of p — the paper's rank-reordering rule favors
    // near-square process grids
    let pr =
        (1..=p).filter(|d| p.is_multiple_of(*d)).take_while(|d| d * d <= p).last().unwrap_or(1);
    let pc = p / pr;
    // 2×2 intranode tiles (4 ranks/node, the Summit layout) when the grid
    // allows it, otherwise one rank per node
    let (qr, qc) = if pr.is_multiple_of(2) && pc.is_multiple_of(2) { (2, 2) } else { (1, 1) };
    let (kr, kc) = (pr / qr, pc / qc);
    let block = (n / pr.max(pc)).max(1);
    let workers: usize = arg("--workers", 8);

    println!(
        "== functional execution: p = {p} ranks ({pr}x{pc} grid, {qr}x{qc} tiles -> \
         {kr}x{kc} = {} nodes), n = {n}, b = {block}, {workers} workers ==\n",
        kr * kc
    );

    let input = uniform_dense(n, WeightKind::small_ints(), 8).to_dense();
    let mut want = input.clone();
    fw_seq::<MinPlusF32>(&mut want);

    let table = Table::new(&[
        ("bcast", 8),
        ("seconds", 8),
        ("NIC B", 10),
        ("busiest B", 10),
        ("bound B", 10),
        ("ratio", 6),
    ]);
    let bound = comm_lower_bound_bytes(n, kr, kc, 4);

    for (name, bcast) in [("Tree", PanelBcastAlgo::Tree), ("Ring", PanelBcastAlgo::Ring { chunks: 3 })]
    {
        let schedule = if name == "Tree" { Schedule::BulkSync } else { Schedule::LookAhead };
        let mut cfg = FwConfig::from_axes(block, schedule, bcast, Exec::InCoreGemm);
        // one kernel thread per rank: p ranks must not each grab the host's
        // full core budget for their in-core GEMM
        cfg.kernel_threads = Some(1);
        let opts = DistRunOpts {
            // parked-waiting-for-a-slot is queueing, not deadlock
            recv_timeout: Some(Duration::from_secs(300)),
            workers: Some(workers),
            stack_bytes: Some(512 * 1024),
            ..Default::default()
        };
        let placement = Placement::tiled(pr, pc, qr, qc);
        let t0 = Instant::now();
        let (got, traffic) =
            distributed_apsp_opts::<MinPlusF32>(pr, pc, &cfg, &input, Some(placement), &opts)
                .unwrap_or_else(|e| panic!("functional {p}-rank run ({name}): {e}"));
        let secs = t0.elapsed().as_secs_f64();
        assert_matrices_equal(&want, &got, "functional at-scale run");
        assert_eq!(
            traffic.phase_nic_bytes_sum(),
            traffic.total_nic_bytes(),
            "per-phase NIC attribution must stay exact at p = {p}"
        );
        let measured = traffic.max_node_nic_bytes() as f64;
        table.row(&[
            name.to_string(),
            format!("{secs:.2}"),
            traffic.total_nic_bytes().to_string(),
            format!("{measured:.0}"),
            format!("{bound:.0}"),
            format!("{:.2}", measured / bound),
        ]);
    }
    println!(
        "\nevery run matched sequential Floyd-Warshall bit-for-bit; busiest-NIC volume \
         sits above the \u{a7}3.4.1 bound (ratio \u{2265} 1 up to broadcast overheads)"
    );
    println!("functional scale run OK: p = {p} ranks completed with a bounded worker pool");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_monotone_and_covers_the_paper_range() {
        let s = paper_vertex_sweep();
        assert_eq!(*s.first().unwrap(), 16_384);
        assert_eq!(*s.last().unwrap(), 1_664_511);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.contains(&524_288)); // the Fig. 7 memory wall
        assert!(s.contains(&208_064)); // the Fig. 7 compute-bound knee
    }
}
