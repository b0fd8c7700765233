//! `apsp simulate` — predict a run on the calibrated Summit model.

use apsp_core::dist::PanelBcastAlgo;
use apsp_core::model::best_node_grid;
use apsp_core::schedule::{
    default_node_grid, simulate, simulate_node_fault, simulate_with_trace, FaultedOutcome,
    ScheduleConfig, SUMMIT_RING_CHUNKS,
};
use cluster_sim::MachineSpec;

use crate::args::Args;

/// Entry point.
pub fn run(tokens: &[String]) -> Result<(), String> {
    if tokens.iter().any(|t| t == "--help") {
        println!(
            "apsp simulate --nodes <N> --n <VERTICES>
  --variant <baseline|pipelined|async|offload|come>  preset (default async)
  --schedule <bulksync|lookahead>                override the schedule axis
  --bcast <tree|ring|ring:CHUNKS>                override the PanelBcast axis
                                                 (a ring with no count: 16 chunks)
  --exec <incore|offload>                        override the execution axis
  --block <N>                                    (default 768)
  --reorder / --no-reorder                       node-grid placement
  --trace <FILE>                                 write the simulated schedule
                                                 as Chrome trace_events JSON
  --fault node:<ID>@<SECS>                       kill every resource of node
                                                 <ID> at simulated second <SECS>
  --recv-timeout <SECS>                          failure-detection delay added
                                                 to a stall report (default 30)
Prints predicted seconds, Pflop/s, effective bandwidth, GPU utilization."
        );
        return Ok(());
    }
    let args = Args::parse(tokens)?;
    let (spec, cfg) = config(&args)?;
    let (nodes, n, kr, kc) = (spec.nodes, cfg.n, cfg.kr, cfg.kc);

    if let Some(spec_str) = args.opt_str("fault") {
        let recv_timeout = super::parse_recv_timeout(&args)?
            .map(|d| d.as_secs_f64())
            .unwrap_or(30.0);
        let (node, died_at) = parse_node_fault(spec_str)?;
        if args.opt_str("trace").is_some() {
            return Err("--fault and --trace cannot be combined (a stalled schedule has no complete trace)".into());
        }
        return match simulate_node_fault(&spec, &cfg, node, died_at, recv_timeout) {
            Err(e) => Err(format!("infeasible: {e}")),
            Ok(FaultedOutcome::Completed(out)) => {
                println!(
                    "fault node:{node}@{died_at}s never bites: schedule completes at {:.2} s",
                    out.seconds
                );
                Ok(())
            }
            Ok(FaultedOutcome::Stalled(stall)) => Err(format!("fault: {stall}")),
        };
    }

    let (sim, trace_json) = if let Some(path) = args.opt_str("trace") {
        let (out, json) = simulate_with_trace(&spec, &cfg).map_err(|e| format!("infeasible: {e}"))?;
        (Ok(out), Some((path.to_string(), json)))
    } else {
        (simulate(&spec, &cfg), None)
    };
    match sim {
        Ok(out) => {
            println!("{} on {nodes} Summit nodes (K = {kr}x{kc}), n = {n}, b = {}:", cfg.legend(), cfg.block);
            println!("  time                {:>12.2} s", out.seconds);
            println!("  rate                {:>12.3} Pflop/s", out.pflops);
            println!(
                "  fraction of peak    {:>12.1} %",
                100.0 * out.pflops * 1e15 / spec.total_flops()
            );
            println!("  effective bandwidth {:>12.2} GB/s/node", out.effective_bw / 1e9);
            println!("  GPU utilization     {:>12.1} %", 100.0 * out.gpu_utilization);
            if let Some((path, json)) = trace_json {
                std::fs::write(&path, json).map_err(|e| format!("write {path}: {e}"))?;
                println!("wrote schedule trace to {path} (open in chrome://tracing or Perfetto)");
            }
            Ok(())
        }
        Err(e) => Err(format!("infeasible: {e}")),
    }
}

/// The machine and schedule the flags describe. A ring whose chunk count
/// was not spelled out (`ring:<chunks>`) — a preset's or a bare `ring` —
/// gets the Summit-scale depth [`SUMMIT_RING_CHUNKS`].
fn config(args: &Args) -> Result<(MachineSpec, ScheduleConfig), String> {
    let nodes: usize = args.req("nodes")?;
    let n: usize = args.req("n")?;
    let (schedule, mut bcast, exec) = super::resolve_axes(args, "async")?;
    let counted = args
        .opt_str("bcast")
        .is_some_and(|b| b.starts_with("ring:"));
    if let (PanelBcastAlgo::Ring { chunks }, false) = (&mut bcast, counted) {
        *chunks = SUMMIT_RING_CHUNKS;
    }
    let (kr, kc) = if args.has_flag("no-reorder") {
        default_node_grid(nodes)
    } else {
        best_node_grid(nodes)
    };
    let mut cfg = ScheduleConfig::with_axes(n, schedule, bcast, exec, kr, kc);
    cfg.block = args.opt("block", 768)?;
    Ok((MachineSpec::summit(nodes), cfg))
}

/// Parse a `simulate --fault` spec: `node:<id>@<seconds>`.
fn parse_node_fault(spec: &str) -> Result<(usize, f64), String> {
    let err = || format!("bad fault spec '{spec}' (node:<id>@<seconds>)");
    let rest = spec.strip_prefix("node:").ok_or_else(err)?;
    let (node, at) = rest.split_once('@').ok_or_else(err)?;
    let node: usize = node.parse().map_err(|_| err())?;
    let at: f64 = at.parse().map_err(|_| err())?;
    if !(at >= 0.0 && at.is_finite()) {
        return Err(err());
    }
    Ok((node, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn simulates_a_feasible_config() {
        run(&toks("--nodes 16 --n 100000 --variant async")).unwrap();
    }

    #[test]
    fn reports_the_memory_wall() {
        let err = run(&toks("--nodes 64 --n 1664511 --variant baseline")).unwrap_err();
        assert!(err.contains("beyond GPU memory"));
        // …but offload gets through (the paper's 1.66M-vertex run)
        run(&toks("--nodes 64 --n 1664511 --variant offload")).unwrap();
    }

    #[test]
    fn trace_flag_writes_schedule_json() {
        let dir = std::env::temp_dir().join(format!("apsp-sim-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("sched.json");
        run(&toks(&format!("--nodes 4 --n 50000 --variant pipelined --trace {}", out.display()))).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"PanelBcast\"") && json.contains("\"gpu0\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_unknown_variant() {
        assert!(run(&toks("--nodes 4 --n 1000 --variant warp")).is_err());
    }

    #[test]
    fn node_fault_reports_a_typed_stall_and_fails_the_command() {
        let err =
            run(&toks("--nodes 4 --n 50000 --variant pipelined --fault node:1@0.0")).unwrap_err();
        assert!(err.contains("node 1 died") && err.contains("recv timeout"), "{err}");
        // --recv-timeout shifts the reported detection time
        let err = run(&toks(
            "--nodes 4 --n 50000 --variant pipelined --fault node:1@0.0 --recv-timeout 5",
        ))
        .unwrap_err();
        assert!(err.contains("detect the failure"), "{err}");
        // a fault after the makespan completes cleanly
        run(&toks("--nodes 4 --n 50000 --variant pipelined --fault node:1@1e9")).unwrap();
        // malformed specs and impossible nodes are input errors
        assert!(run(&toks("--nodes 4 --n 50000 --fault gpu:1@0")).is_err());
        assert!(run(&toks("--nodes 4 --n 50000 --fault node:9@0")).is_err());
    }

    #[test]
    fn come_preset_clears_the_memory_wall() {
        // the composed system keeps offload's host-memory residency, so the
        // paper's 1.66M-vertex configuration stays feasible
        run(&toks("--nodes 64 --n 1664511 --variant come")).unwrap();
    }

    #[test]
    fn axis_overrides_compose_with_presets() {
        // baseline preset pushed onto the offload exec axis clears the wall
        run(&toks("--nodes 64 --n 1664511 --variant baseline --exec offload")).unwrap();
        // and an explicit ring depth parses
        run(&toks("--nodes 16 --n 100000 --bcast ring:32 --schedule lookahead")).unwrap();
    }

    #[test]
    fn explicit_ring_chunk_count_is_simulated_as_given() {
        let seconds = |flags: &str| {
            let args = Args::parse(&toks(&format!(
                "--nodes 16 --n 100000 --variant async {flags}"
            )))
            .unwrap();
            let (spec, cfg) = config(&args).unwrap();
            (cfg.bcast, simulate(&spec, &cfg).unwrap().seconds)
        };
        let (ring4, t4) = seconds("--bcast ring:4");
        let (ring16, t16) = seconds("--bcast ring:16");
        assert_eq!(ring4, PanelBcastAlgo::Ring { chunks: 4 });
        assert_ne!(t4, t16, "ring:4 and ring:16 must be different schedules");
        // no count given: the preset's ring and a bare `ring` are 16 deep
        assert_eq!(seconds(""), (ring16, t16));
        assert_eq!(seconds("--bcast ring"), (ring16, t16));
    }
}
