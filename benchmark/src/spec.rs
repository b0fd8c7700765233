//! What the benchmark runs and reports: the workloads, every metric with its
//! unit and direction, and the regression bound of each end-to-end metric.
//! `BENCHMARK.json` at the repo root states the same; a test keeps them equal.

/// One benchmark input and the flags the program is run with on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DenseBlocked,
    DenseOocAuto,
    DenseQuant,
    DistCo,
    DistCoMe,
    SparseAuto,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::DenseBlocked,
        Workload::DenseOocAuto,
        Workload::DenseQuant,
        Workload::DistCo,
        Workload::DistCoMe,
        Workload::SparseAuto,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseBlocked => "dense-blocked",
            Workload::DenseOocAuto => "dense-ooc-auto",
            Workload::DenseQuant => "dense-quant",
            Workload::DistCo => "dist-co",
            Workload::DistCoMe => "dist-come",
            Workload::SparseAuto => "sparse-auto",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: the layers it loads and the ones it leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::DenseBlocked => "The paper's single-node Algorithm 2: fw_blocked on the packed kernel does nearly all of solve_s; planner, ooc, quant, dist and SSSP layers idle.",
            Workload::DenseOocAuto => "Same dense input under a byte budget of half the matrix: auto must flip to ooc (file store), so stored packed tiles plus profile and plan cost show.",
            Workload::DenseQuant => "Same kernel at u16 element width, bit-exact, plus quantize and dequantize; a kernel change that helps f32 and hurts u16 shows here.",
            Workload::DistCo => "The paper's Co-ParallelFw (look-ahead, ring bcast, in-core) on 16 simulated ranks: the dist driver and mpi-sim sit around the packed kernel.",
            Workload::DistCoMe => "As dist-co, but OuterUpdate goes through gpu-sim's ooGSrGemm: the only workload where gpu-sim does most of the work.",
            Workload::SparseAuto => "Sparse ring with chords under auto: planner must pick an SSSP solver, srgemm idles; the control for kernel or FW changes, and where auto overhead is largest.",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the program sees, with the share of the parent's median
/// by which it may get worse before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer; it locates a change and has no bound.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const E2E_S: &str = "e2e_s";
pub const SOLVE_S: &str = "solve_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
pub const SETUP_S: &str = "setup_s";

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: E2E_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: SOLVE_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The five phases of the paper's distributed iteration, as mpi-sim names them.
pub const DIST_PHASES: [&str; 5] = [
    "DiagUpdate",
    "DiagBcast",
    "PanelUpdate",
    "PanelBcast",
    "OuterUpdate",
];

pub const PER_LAYER: [PerLayer; 36] = [
    // the workload's own pipeline, on its own input file
    layer("cli.other_s", "s", Better::Lower),
    layer("cli.out_mb", "MB", Better::Lower),
    layer("graph.read_dimacs_s", "s", Better::Lower),
    layer("graph.read_mb_per_s", "MB/s", Better::Higher),
    layer("graph.to_dense_s", "s", Better::Lower),
    layer("solver.profile_s", "s", Better::Lower),
    layer("solver.plan_s", "s", Better::Lower),
    layer("solver.profile_plan_frac", "ratio", Better::Lower),
    layer("solver.forecast_err_frac", "ratio", Better::Lower),
    layer("trace.overhead_frac", "ratio", Better::Lower),
    // layer probes, the same in every workload's traced pass
    layer("srgemm.packed_f32_gflops", "Gflop/s", Better::Higher),
    layer("srgemm.outer_f32_gflops", "Gflop/s", Better::Higher),
    layer("srgemm.packed_u16_gflops", "Gflop/s", Better::Higher),
    layer("srgemm.pack_b_gbps", "GB/s", Better::Higher),
    layer("fw_blocked.serial_s", "s", Better::Lower),
    layer("fw_blocked.par_speedup", "ratio", Better::Higher),
    layer("fw_blocked.kernel_frac", "ratio", Better::Higher),
    layer("solver.adapter_overhead_frac", "ratio", Better::Lower),
    layer("ooc.vs_blocked", "ratio", Better::Lower),
    layer("quant.vs_blocked", "ratio", Better::Lower),
    layer("quant.plan_s", "s", Better::Lower),
    layer("quant.quantize_s", "s", Better::Lower),
    layer("quant.dequantize_s", "s", Better::Lower),
    layer("quant.elem_bytes", "count", Better::Lower),
    layer("dist.vs_blocked", "ratio", Better::Lower),
    layer("dist.phase_frac.DiagUpdate", "ratio", Better::Lower),
    layer("dist.phase_frac.DiagBcast", "ratio", Better::Lower),
    layer("dist.phase_frac.PanelUpdate", "ratio", Better::Lower),
    layer("dist.phase_frac.PanelBcast", "ratio", Better::Lower),
    layer("dist.phase_frac.OuterUpdate", "ratio", Better::Lower),
    layer("dist.trace_overhead_frac", "ratio", Better::Lower),
    layer("mpi_sim.nic_bytes", "count", Better::Lower),
    layer("mpi_sim.total_msgs", "count", Better::Lower),
    layer("gpu_sim.offload_vs_incore", "ratio", Better::Lower),
    layer("solver.auto_overhead_frac", "ratio", Better::Lower),
    layer("graph.sssp_sources_per_s", "1/s", Better::Higher),
];

/// Unit and direction of a metric of either table.
pub fn unit_and_direction(name: &str) -> (&'static str, Better) {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.better))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)))
        .find(|(n, _, _)| *n == name)
        .map_or(("", Better::Lower), |(_, unit, better)| (unit, better))
}

/// Counts that must repeat bit for bit between two runs of the same code.
pub const EXACT_COUNTS: [&str; 2] = ["mpi_sim.nic_bytes", "mpi_sim.total_msgs"];

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_stay_inside_the_limits() {
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit}");
        }
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}: why too long",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert!(!name_ok("") && !name_ok("-x") && !name_ok("a b") && !name_ok(&"x".repeat(65)));
    }

    #[test]
    fn bounds_are_shares_and_setup_has_the_largest() {
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == SETUP_S)
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER
                .iter()
                .any(|m| m.name == name && m.unit == "count"));
        }
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the tables
    /// above without the benchmark needing a JSON reader.
    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = text.split_whitespace().collect::<Vec<_>>().join(" ");
        for w in Workload::ALL {
            let entry = format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name(), w.why());
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for m in &END_TO_END {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}", "bound": {}}}"#,
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                r#"{{"name": "{}", "unit": "{}", "better": "{}"}}"#,
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(flat.contains(&entry), "missing or different: {entry}");
        }
        let listed = flat.matches(r#"{"name": "#).count();
        assert_eq!(
            listed,
            Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
