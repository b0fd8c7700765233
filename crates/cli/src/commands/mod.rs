//! Subcommand implementations.

pub mod bench;
pub mod generate;
pub mod info;
pub mod plan;
pub mod route;
pub mod serve;
pub mod simulate;
pub mod solve;

use std::io::Write;

use apsp_graph::graph::Graph;
use apsp_graph::io;

/// Parse a `--variant` preset name (shared by `simulate` and
/// `solve --algo dist`).
pub fn parse_variant(name: &str) -> Result<apsp_core::dist::Variant, String> {
    use apsp_core::dist::Variant;
    match name {
        "baseline" => Ok(Variant::Baseline),
        "pipelined" => Ok(Variant::Pipelined),
        "async" => Ok(Variant::AsyncRing),
        "offload" => Ok(Variant::Offload),
        "come" | "co+me" => Ok(Variant::CoMe),
        other => Err(format!("unknown variant '{other}' (baseline|pipelined|async|offload|come)")),
    }
}

/// Parse a `--schedule` axis value.
pub fn parse_schedule(name: &str) -> Result<apsp_core::dist::Schedule, String> {
    use apsp_core::dist::Schedule;
    match name {
        "bulksync" | "bulk-sync" => Ok(Schedule::BulkSync),
        "lookahead" | "look-ahead" => Ok(Schedule::LookAhead),
        other => Err(format!("unknown schedule '{other}' (bulksync|lookahead)")),
    }
}

/// Parse a `--bcast` axis value (`tree`, `ring`, or `ring:<chunks>`).
pub fn parse_bcast(name: &str) -> Result<apsp_core::dist::PanelBcastAlgo, String> {
    use apsp_core::dist::{PanelBcastAlgo, DEFAULT_RING_CHUNKS};
    match name {
        "tree" => Ok(PanelBcastAlgo::Tree),
        "ring" => Ok(PanelBcastAlgo::Ring { chunks: DEFAULT_RING_CHUNKS }),
        other => match other.strip_prefix("ring:") {
            Some(c) => {
                let chunks: usize =
                    c.parse().map_err(|_| format!("bad ring chunk count '{c}'"))?;
                if chunks == 0 {
                    return Err("ring chunk count must be positive".into());
                }
                Ok(PanelBcastAlgo::Ring { chunks })
            }
            None => Err(format!("unknown bcast '{other}' (tree|ring|ring:<chunks>)")),
        },
    }
}

/// Parse an `--exec` axis value.
pub fn parse_exec(name: &str) -> Result<apsp_core::dist::Exec, String> {
    use apsp_core::dist::Exec;
    match name {
        "incore" | "in-core" => Ok(Exec::InCoreGemm),
        "offload" | "gpu-offload" => Ok(Exec::GpuOffload),
        other => Err(format!("unknown exec '{other}' (incore|offload)")),
    }
}

/// Parse a `solve --fault` spec into a deterministic [`mpi_sim::FaultPlan`]
/// over a `p`-rank grid. Grammar:
///
/// * `kill:<rank>@<send>` — rank dies before its `<send>`-th send;
/// * `drop:<rank>@<n>` — rank's `<n>`-th send is silently lost;
/// * `delay:<rank>@<n>:<ms>` — rank's `<n>`-th send is delayed `<ms>` ms;
/// * `random:<seed>` — a seed-derived single fault (any of the above).
pub fn parse_fault_plan(spec: &str, p: usize) -> Result<mpi_sim::FaultPlan, String> {
    use mpi_sim::FaultPlan;
    let err = || {
        format!(
            "bad fault spec '{spec}' \
             (kill:<rank>@<send> | drop:<rank>@<n> | delay:<rank>@<n>:<ms> | random:<seed>)"
        )
    };
    let (kind, rest) = spec.split_once(':').ok_or_else(err)?;
    let rank = |s: &str| -> Result<usize, String> {
        let r: usize = s.parse().map_err(|_| err())?;
        if r >= p {
            return Err(format!("fault names rank {r}, but the grid has only {p} ranks"));
        }
        Ok(r)
    };
    match kind {
        "random" => Ok(FaultPlan::random_single(rest.parse().map_err(|_| err())?, p)),
        "kill" => {
            let (r, s) = rest.split_once('@').ok_or_else(err)?;
            Ok(FaultPlan::kill(rank(r)?, s.parse().map_err(|_| err())?))
        }
        "drop" => {
            let (r, n) = rest.split_once('@').ok_or_else(err)?;
            Ok(FaultPlan::drop_nth(rank(r)?, n.parse().map_err(|_| err())?))
        }
        "delay" => {
            let (r, tail) = rest.split_once('@').ok_or_else(err)?;
            let (n, ms) = tail.split_once(':').ok_or_else(err)?;
            let by = std::time::Duration::from_millis(ms.parse().map_err(|_| err())?);
            Ok(FaultPlan::delay_nth(rank(r)?, n.parse().map_err(|_| err())?, by))
        }
        _ => Err(err()),
    }
}

/// Parse a `--recv-timeout <secs>` value (fractional seconds allowed).
pub fn parse_recv_timeout(args: &crate::args::Args) -> Result<Option<std::time::Duration>, String> {
    match args.opt_str("recv-timeout") {
        None => Ok(None),
        Some(s) => {
            let secs: f64 = s.parse().map_err(|_| format!("bad --recv-timeout '{s}'"))?;
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!("--recv-timeout must be a positive number of seconds, got '{s}'"));
            }
            Ok(Some(std::time::Duration::from_secs_f64(secs)))
        }
    }
}

/// Resolve the policy triple from `--variant` (preset, default
/// `default_variant`) with per-axis `--schedule` / `--bcast` / `--exec`
/// overrides layered on top.
pub fn resolve_axes(
    args: &crate::args::Args,
    default_variant: &str,
) -> Result<
    (apsp_core::dist::Schedule, apsp_core::dist::PanelBcastAlgo, apsp_core::dist::Exec),
    String,
> {
    let variant = parse_variant(&args.opt("variant", default_variant.to_string())?)?;
    let (mut schedule, mut bcast, mut exec) = variant.axes();
    if let Some(s) = args.opt_str("schedule") {
        schedule = parse_schedule(s)?;
    }
    if let Some(b) = args.opt_str("bcast") {
        bcast = parse_bcast(b)?;
    }
    if let Some(e) = args.opt_str("exec") {
        exec = parse_exec(e)?;
    }
    Ok((schedule, bcast, exec))
}

/// Parse a byte-size string: plain bytes or a `k`/`m`/`g` suffix
/// (powers of 1024), e.g. `--memory-budget 512m`.
pub fn parse_byte_size(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.as_bytes().last() {
        Some(b'k') => (&t[..t.len() - 1], 1u64 << 10),
        Some(b'm') => (&t[..t.len() - 1], 1u64 << 20),
        Some(b'g') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t.as_str(), 1),
    };
    let n: u64 = digits.parse().map_err(|_| format!("bad byte size '{s}' (e.g. 4096, 64k, 512m, 2g)"))?;
    n.checked_mul(mult).ok_or_else(|| format!("byte size '{s}' overflows"))
}

/// Build the shared [`apsp_core::SolveOpts`] from CLI flags (`--block`,
/// `--threads`/`--serial`, `--memory-budget`, `--pr`/`--pc`, the dist axes,
/// `--recv-timeout`). Used identically by `apsp solve` and `apsp plan` so
/// the plan describes exactly the run `solve` would perform.
pub fn build_solve_opts(args: &crate::args::Args) -> Result<apsp_core::SolveOpts, String> {
    let block: usize = args.opt("block", 64)?;
    if block == 0 {
        return Err("--block must be positive".into());
    }
    let threads: usize =
        if args.has_flag("serial") { 1 } else { args.opt("threads", 0)? };
    let memory_budget = args.opt_str("memory-budget").map(parse_byte_size).transpose()?;
    let error_tolerance = args
        .opt_str("error-tolerance")
        .map(|s| {
            s.parse::<f64>().map_err(|_| format!("--error-tolerance: '{s}' is not a number"))
        })
        .transpose()?;
    if let Some(t) = error_tolerance {
        if !t.is_finite() || t < 0.0 {
            return Err("--error-tolerance must be a non-negative finite number".into());
        }
    }
    let (schedule, bcast, exec) = resolve_axes(args, "pipelined")?;
    Ok(apsp_core::SolveOpts {
        block,
        threads,
        memory_budget,
        error_tolerance,
        grid: (args.opt("pr", 2)?, args.opt("pc", 2)?),
        dist: apsp_core::FwConfig::from_axes(block, schedule, bcast, exec),
        dist_run: apsp_core::DistRunOpts {
            recv_timeout: parse_recv_timeout(args)?,
            ..Default::default()
        },
    })
}

/// Load a graph from `path`, inferring format from the extension unless
/// `format` overrides (`dimacs` | `edges`).
pub fn load_graph(path: &str, format: Option<&str>) -> Result<Graph, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    match resolved_format(path, format)? {
        "dimacs" => io::read_dimacs(file).map_err(|e| e.to_string()),
        "edges" => io::read_edge_list(file, None).map_err(|e| e.to_string()),
        _ => unreachable!(),
    }
}

/// Write a graph to `path` in the resolved format.
pub fn save_graph(g: &Graph, path: &str, format: Option<&str>) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    match resolved_format(path, format)? {
        "dimacs" => io::write_dimacs(g, &mut w),
        "edges" => io::write_edge_list(g, &mut w),
        _ => unreachable!(),
    }
    .map_err(|e| e.to_string())?;
    w.flush().map_err(|e| format!("write {path}: {e}"))
}

fn resolved_format<'a>(path: &str, format: Option<&'a str>) -> Result<&'a str, String> {
    match format {
        Some("dimacs") => Ok("dimacs"),
        Some("edges") => Ok("edges"),
        Some(other) => Err(format!("unknown format '{other}' (dimacs|edges)")),
        None => {
            if path.ends_with(".gr") {
                Ok("dimacs")
            } else {
                Ok("edges")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{uniform_dense, WeightKind};

    #[test]
    fn save_and_load_round_trip_both_formats() {
        let dir = std::env::temp_dir().join(format!("apsp-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let g = uniform_dense(8, WeightKind::small_ints(), 1);
        for name in ["g.gr", "g.edges"] {
            let path = dir.join(name);
            let path = path.to_str().unwrap();
            save_graph(&g, path, None).unwrap();
            let back = load_graph(path, None).unwrap();
            assert_eq!(back.n(), 8);
            assert_eq!(back.m(), g.m());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_sizes_parse_with_suffixes() {
        assert_eq!(parse_byte_size("4096").unwrap(), 4096);
        assert_eq!(parse_byte_size("64k").unwrap(), 64 << 10);
        assert_eq!(parse_byte_size("512M").unwrap(), 512 << 20);
        assert_eq!(parse_byte_size("2g").unwrap(), 2 << 30);
        assert!(parse_byte_size("lots").is_err());
    }

    #[test]
    fn format_resolution() {
        assert_eq!(resolved_format("x.gr", None).unwrap(), "dimacs");
        assert_eq!(resolved_format("x.tsv", None).unwrap(), "edges");
        assert_eq!(resolved_format("x.gr", Some("edges")).unwrap(), "edges");
        assert!(resolved_format("x", Some("bogus")).is_err());
    }
}
