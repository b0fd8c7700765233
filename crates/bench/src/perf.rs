//! Wall-clock perf suite with a stable JSON schema and a regression
//! comparator.
//!
//! Unlike the figure binaries (which report *simulated* Summit time), this
//! module measures the real kernels of the reproduction on the machine it
//! runs on: the GEMM kernel (serial, parallel) and its naive oracle ×
//! element widths, a headline GEMM entry recording the packed kernel
//! against the oracle at a larger size
//! (`baseline_wall_s`/`speedup` carried in the artifact), blocked
//! Floyd-Warshall, end-to-end `distributed_apsp` at every corner of the
//! 2×2×2 policy cube, and a headline distributed run recorded twice — once
//! with the pre-PR serial OuterUpdate (`baseline_wall_s`) and once with the
//! thread-budgeted kernel (`wall_s`) — so the speedup claims are carried
//! *in* the artifact rather than asserted in prose. The `solver/*` entries
//! do the same for the planner: each generator family records the
//! planner-chosen solver against forced dense-blocked.
//!
//! The `gemm/packed/minplus_u16` entry runs the same packed kernel over
//! the saturating `u16` semiring at the f32 headline size (baseline =
//! packed f32), and `quant/solve_vs_f32` records the quantized end-to-end
//! solve against f32 blocked FW.
//!
//! Schema (`apsp-bench-perf/1`): a top-level object with `schema`, `mode`,
//! `reps`, `available_parallelism`, and `entries`; each entry has `name`
//! (stable across runs — sizes live in `params`), `group`, `params`
//! (numeric), `wall_s` (minimum over `reps`), and optionally `dtype`
//! (element type; the comparator refuses cross-dtype joins), `gflops`,
//! `baseline_wall_s`, `speedup`. Entry names are the comparator's join key.

use std::time::Instant;

use apsp_core::{
    distributed_apsp, fw_blocked_threads, DiagMethod, Exec, FwConfig, PanelBcastAlgo, Schedule,
};
use apsp_graph::generators::{self, WeightKind};
use srgemm::gemm::{gemm_flops, gemm_naive, gemm_packed, gemm_packed_threads, PackedB};
use srgemm::{Matrix, MinPlus, MinPlusSatU16, Semiring};

use crate::json::Json;

/// Schema identifier written into (and required from) every suite file.
pub const SCHEMA: &str = "apsp-bench-perf/1";

/// Default regression threshold for the comparator: a benchmark slower by
/// more than this fraction of its old time is flagged.
pub const DEFAULT_THRESHOLD: f64 = 0.15;

/// One measured benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry {
    /// Stable identity (comparator join key); sizes go in `params`.
    pub name: String,
    /// Coarse grouping: `gemm`, `fw`, `dist`, `dist_e2e`, `solver`, `quant`,
    /// `ooc`, `serve`.
    pub group: String,
    /// Numeric parameters of the run (n, block, grid, …).
    pub params: Vec<(String, f64)>,
    /// Best (minimum) wall-clock seconds over the suite's repetitions.
    pub wall_s: f64,
    /// Element dtype the kernel ran over (`f32`, `f64`, `u16`),
    /// when one is defined. The comparator refuses to join two entries
    /// whose dtypes differ: a quantized `u16` run is 2–4× wider in SIMD
    /// lanes than the `f32` baseline and must never silently diff
    /// against it.
    pub dtype: Option<String>,
    /// Throughput at `wall_s`, when a flop count is defined.
    pub gflops: Option<f64>,
    /// Wall-clock of the pre-PR configuration, for entries that carry
    /// their own baseline (the headline distributed run).
    pub baseline_wall_s: Option<f64>,
    /// `baseline_wall_s / wall_s`, when a baseline exists.
    pub speedup: Option<f64>,
}

/// A full suite result.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Always [`SCHEMA`].
    pub schema: String,
    /// `full` or `quick` (CI smoke); comparing across modes is refused.
    pub mode: String,
    /// Repetitions per entry (`wall_s` is the minimum).
    pub reps: usize,
    /// `std::thread::available_parallelism()` on the measuring machine.
    pub available_parallelism: usize,
    /// The measurements, in suite order.
    pub entries: Vec<Entry>,
}

impl Report {
    /// Serialize to the stable JSON schema.
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("group".to_string(), Json::Str(e.group.clone())),
                    (
                        "params".to_string(),
                        Json::Obj(
                            e.params.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect(),
                        ),
                    ),
                    ("wall_s".to_string(), Json::Num(e.wall_s)),
                ];
                if let Some(d) = &e.dtype {
                    fields.push(("dtype".to_string(), Json::Str(d.clone())));
                }
                if let Some(g) = e.gflops {
                    fields.push(("gflops".to_string(), Json::Num(g)));
                }
                if let Some(b) = e.baseline_wall_s {
                    fields.push(("baseline_wall_s".to_string(), Json::Num(b)));
                }
                if let Some(s) = e.speedup {
                    fields.push(("speedup".to_string(), Json::Num(s)));
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(self.schema.clone())),
            ("mode".to_string(), Json::Str(self.mode.clone())),
            ("reps".to_string(), Json::Num(self.reps as f64)),
            (
                "available_parallelism".to_string(),
                Json::Num(self.available_parallelism as f64),
            ),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    /// Parse and validate a suite file. Rejects unknown schemas and entries
    /// missing required fields, with a field-level message.
    pub fn from_json(doc: &Json) -> Result<Report, String> {
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing `schema`")?
            .to_string();
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let mode = doc.get("mode").and_then(Json::as_str).ok_or("missing `mode`")?.to_string();
        let reps = doc.get("reps").and_then(Json::as_f64).ok_or("missing `reps`")? as usize;
        let available_parallelism = doc
            .get("available_parallelism")
            .and_then(Json::as_f64)
            .ok_or("missing `available_parallelism`")? as usize;
        let raw = doc.get("entries").and_then(Json::as_arr).ok_or("missing `entries`")?;
        let mut entries = Vec::with_capacity(raw.len());
        for (i, e) in raw.iter().enumerate() {
            let name = e
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("entry {i}: missing `name`"))?
                .to_string();
            let group = e
                .get("group")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("entry `{name}`: missing `group`"))?
                .to_string();
            let wall_s = e
                .get("wall_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry `{name}`: missing `wall_s`"))?;
            let params = match e.get("params") {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|x| (k.clone(), x))
                            .ok_or_else(|| format!("entry `{name}`: param `{k}` not a number"))
                    })
                    .collect::<Result<Vec<_>, _>>()?,
                Some(_) => return Err(format!("entry `{name}`: `params` not an object")),
                None => Vec::new(),
            };
            entries.push(Entry {
                name,
                group,
                params,
                wall_s,
                dtype: e.get("dtype").and_then(Json::as_str).map(String::from),
                gflops: e.get("gflops").and_then(Json::as_f64),
                baseline_wall_s: e.get("baseline_wall_s").and_then(Json::as_f64),
                speedup: e.get("speedup").and_then(Json::as_f64),
            });
        }
        Ok(Report { schema, mode, reps, available_parallelism, entries })
    }
}

/// How one benchmark moved between two suite files.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Slower by more than the threshold.
    Regression,
    /// Faster by more than the threshold.
    Improvement,
    /// Within the threshold either way.
    Unchanged,
}

/// Old-vs-new comparison for one shared entry name.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Entry name (present in both files).
    pub name: String,
    /// `wall_s` in the old file.
    pub old_wall_s: f64,
    /// `wall_s` in the new file.
    pub new_wall_s: f64,
    /// `new / old`; > 1 means slower.
    pub ratio: f64,
    /// Classification at the comparator's threshold.
    pub kind: DeltaKind,
}

/// Result of comparing two suite files.
#[derive(Clone, Debug)]
pub struct CompareReport {
    /// Entries present in both files, in new-file order.
    pub deltas: Vec<Delta>,
    /// Names only in the new file.
    pub added: Vec<String>,
    /// Names only in the old file.
    pub removed: Vec<String>,
    /// Threshold the deltas were classified at.
    pub threshold: f64,
}

impl CompareReport {
    /// Any regression beyond the threshold?
    pub fn has_regressions(&self) -> bool {
        self.deltas.iter().any(|d| d.kind == DeltaKind::Regression)
    }

    /// Human-readable summary, one line per delta plus added/removed names.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            let tag = match d.kind {
                DeltaKind::Regression => "REGRESSION",
                DeltaKind::Improvement => "improved",
                DeltaKind::Unchanged => "ok",
            };
            out.push_str(&format!(
                "{:<52} {:>10.6}s -> {:>10.6}s  x{:.3}  {}\n",
                d.name, d.old_wall_s, d.new_wall_s, d.ratio, tag
            ));
        }
        for name in &self.added {
            out.push_str(&format!("{name:<52} (new benchmark)\n"));
        }
        for name in &self.removed {
            out.push_str(&format!("{name:<52} (removed benchmark)\n"));
        }
        out
    }
}

/// Compare two suite reports by entry name. Refuses to compare different
/// modes (quick-vs-full timings are not commensurable) and refuses any
/// per-entry join across element dtypes (a u16 run must never silently
/// diff against an f32 baseline).
pub fn compare(old: &Report, new: &Report, threshold: f64) -> Result<CompareReport, String> {
    if old.mode != new.mode {
        return Err(format!(
            "refusing to compare `{}` against `{}` suites (sizes differ)",
            old.mode, new.mode
        ));
    }
    let mut deltas = Vec::new();
    let mut added = Vec::new();
    for e in &new.entries {
        match old.entries.iter().find(|o| o.name == e.name) {
            Some(o) => {
                if o.dtype != e.dtype {
                    let show = |d: &Option<String>| d.clone().unwrap_or_else(|| "none".into());
                    return Err(format!(
                        "refusing to compare `{}`: element dtype `{}` vs `{}` \
                         (lane widths differ; timings are not commensurable)",
                        e.name,
                        show(&o.dtype),
                        show(&e.dtype)
                    ));
                }
                let ratio = if o.wall_s > 0.0 { e.wall_s / o.wall_s } else { f64::INFINITY };
                let kind = if ratio > 1.0 + threshold {
                    DeltaKind::Regression
                } else if ratio < 1.0 / (1.0 + threshold) {
                    DeltaKind::Improvement
                } else {
                    DeltaKind::Unchanged
                };
                deltas.push(Delta {
                    name: e.name.clone(),
                    old_wall_s: o.wall_s,
                    new_wall_s: e.wall_s,
                    ratio,
                    kind,
                });
            }
            None => added.push(e.name.clone()),
        }
    }
    let removed = old
        .entries
        .iter()
        .filter(|o| !new.entries.iter().any(|e| e.name == o.name))
        .map(|o| o.name.clone())
        .collect();
    Ok(CompareReport { deltas, added, removed, threshold })
}

/// Suite sizing: `full` produces the committed `BENCH_PR10.json`; `quick`
/// is the CI smoke (seconds, not minutes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Committed-artifact sizes.
    Full,
    /// CI smoke sizes.
    Quick,
}

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::Full => "full",
            Mode::Quick => "quick",
        }
    }
}

struct Sizes {
    gemm_n: usize,
    gemm_headline_n: usize,
    fw_n: usize,
    fw_b: usize,
    dist_n: usize,
    dist_b: usize,
    headline_n: usize,
    headline_b: usize,
    solver_grid_side: usize,
    solver_ring_n: usize,
    solver_dense_n: usize,
    solver_b: usize,
    serve_n: usize,
    serve_batches: usize,
    ooc_n: usize,
    ooc_tile: usize,
}

fn sizes(mode: Mode) -> Sizes {
    match mode {
        Mode::Full => Sizes {
            gemm_n: 256,
            gemm_headline_n: 512,
            fw_n: 256,
            fw_b: 64,
            dist_n: 192,
            dist_b: 48,
            headline_n: 1024,
            headline_b: 128,
            solver_grid_side: 64,
            solver_ring_n: 4096,
            solver_dense_n: 512,
            solver_b: 64,
            serve_n: 256,
            serve_batches: 5000,
            ooc_n: 768,
            ooc_tile: 128,
        },
        Mode::Quick => Sizes {
            gemm_n: 64,
            gemm_headline_n: 128,
            fw_n: 64,
            fw_b: 16,
            dist_n: 48,
            dist_b: 16,
            headline_n: 96,
            headline_b: 32,
            solver_grid_side: 16,
            solver_ring_n: 256,
            solver_dense_n: 128,
            solver_b: 16,
            serve_n: 64,
            serve_batches: 40,
            ooc_n: 192,
            ooc_tile: 48,
        },
    }
}

/// Minimum wall-clock over `reps` runs of `f` (each run gets fresh state
/// from `setup`).
fn time_min<T>(reps: usize, mut setup: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let state = setup();
        let t0 = Instant::now();
        f(state);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn lcg_matrix_f32(n: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % 1000) as f32 / 8.0
    })
}

/// A `C ← C ⊕ A ⊗ B` kernel over element type `E`.
type GemmFn<'f, E> =
    &'f dyn Fn(&mut srgemm::ViewMut<'_, E>, &srgemm::View<'_, E>, &srgemm::View<'_, E>);

fn gemm_suite<S>(
    elem: &str,
    n: usize,
    reps: usize,
    threads: usize,
    mk: impl Fn(u64) -> Matrix<S::Elem>,
) -> Vec<Entry>
where
    S: Semiring,
{
    let a = mk(11);
    let b = mk(22);
    let c0 = mk(33);
    let flops = gemm_flops(n, n, n);
    // pack + multiply on `threads` row slabs: the packed entry's work, split
    let parallel = |c: &mut srgemm::ViewMut<'_, S::Elem>,
                    a: &srgemm::View<'_, S::Elem>,
                    b: &srgemm::View<'_, S::Elem>| {
        gemm_packed_threads::<S>(c, a, &PackedB::pack::<S>(b), threads)
    };
    let algos: [(&str, GemmFn<S::Elem>); 3] =
        [("naive", &gemm_naive::<S>), ("packed", &gemm_packed::<S>), ("parallel", &parallel)];
    algos
        .iter()
        .map(|(algo, kernel)| {
            let wall_s = time_min(
                reps,
                || c0.clone(),
                |mut c| kernel(&mut c.view_mut(), &a.view(), &b.view()),
            );
            eprintln!("  gemm/{algo}/minplus_{elem}: {wall_s:.6}s");
            Entry {
                name: format!("gemm/{algo}/minplus_{elem}"),
                group: "gemm".to_string(),
                params: vec![("n".to_string(), n as f64)],
                wall_s,
                dtype: Some(elem.to_string()),
                gflops: Some(flops / wall_s / 1e9),
                baseline_wall_s: None,
                speedup: None,
            }
        })
        .collect()
}

/// Run the whole suite and return the report (also logged to stderr as it
/// goes; stdout stays clean for the JSON).
pub fn run_suite(mode: Mode, reps: usize) -> Report {
    let sz = sizes(mode);
    let mut entries = Vec::new();
    // the thread budget of every multi-threaded entry, read once
    let host = std::thread::available_parallelism().map_or(1, usize::from);

    // --- GEMM kernels: naive/packed/parallel × MinPlus f32/f64 -----------
    eprintln!("[perf] gemm kernels, n = {}", sz.gemm_n);
    let n = sz.gemm_n;
    entries.extend(gemm_suite::<MinPlus<f32>>("f32", n, reps, host, |seed| {
        lcg_matrix_f32(n, seed)
    }));
    entries.extend(gemm_suite::<MinPlus<f64>>("f64", n, reps, host, |seed| {
        let mut state = seed | 1;
        Matrix::from_fn(n, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) % 1000) as f64 / 8.0
        })
    }));

    // --- headline GEMM: packed vs naive at a larger size ------------------
    // The per-kernel entries above share one (small) n; this entry records
    // the packed kernel's win over the triple-loop oracle at a size where
    // the register-tiled micro-kernel's arithmetic density dominates,
    // carrying the speedup in the artifact like the distributed headline
    // below.
    eprintln!("[perf] gemm headline (packed vs naive), n = {}", sz.gemm_headline_n);
    let packed_f32_wall_s = {
        let n = sz.gemm_headline_n;
        let a = lcg_matrix_f32(n, 55);
        let b = lcg_matrix_f32(n, 66);
        let c0 = lcg_matrix_f32(n, 77);
        let baseline_wall_s = time_min(
            reps,
            || c0.clone(),
            |mut c| gemm_naive::<MinPlus<f32>>(&mut c.view_mut(), &a.view(), &b.view()),
        );
        let wall_s = time_min(
            reps,
            || c0.clone(),
            |mut c| gemm_packed::<MinPlus<f32>>(&mut c.view_mut(), &a.view(), &b.view()),
        );
        let flops = gemm_flops(n, n, n);
        eprintln!(
            "  gemm/packed/headline_minplus_f32: naive {baseline_wall_s:.6}s, packed {wall_s:.6}s, x{:.3}",
            baseline_wall_s / wall_s
        );
        entries.push(Entry {
            name: "gemm/packed/headline_minplus_f32".to_string(),
            group: "gemm".to_string(),
            params: vec![("n".to_string(), n as f64)],
            wall_s,
            dtype: Some("f32".to_string()),
            gflops: Some(flops / wall_s / 1e9),
            baseline_wall_s: Some(baseline_wall_s),
            speedup: Some(baseline_wall_s / wall_s),
        });
        wall_s
    };

    // --- quantized packed kernel: u16 saturating lanes vs packed f32 -------
    // Same packed kernel, same n as the f32 headline above; the only change
    // is the element width, so `speedup` here is exactly the lane-width win
    // (elements retired per second relative to the f32 datapath): u16 packs
    // 2× the lanes of f32 per vector register and measures ≈ 1.6× on this
    // box (DESIGN.md §16).
    eprintln!("[perf] gemm quantized lanes (u16 vs packed f32), n = {}", sz.gemm_headline_n);
    {
        let n = sz.gemm_headline_n;
        let mk_u16 = |seed: u64| {
            let mut state = seed | 1;
            Matrix::from_fn(n, n, |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) % 1000) as u16
            })
        };
        let (a, b, c0) = (mk_u16(55), mk_u16(66), mk_u16(77));
        let wall_s = time_min(
            reps,
            || c0.clone(),
            |mut c| gemm_packed::<MinPlusSatU16>(&mut c.view_mut(), &a.view(), &b.view()),
        );
        eprintln!(
            "  gemm/packed/minplus_u16: {wall_s:.6}s, x{:.3} vs packed f32",
            packed_f32_wall_s / wall_s
        );
        entries.push(Entry {
            name: "gemm/packed/minplus_u16".to_string(),
            group: "gemm".to_string(),
            params: vec![("n".to_string(), n as f64)],
            wall_s,
            dtype: Some("u16".to_string()),
            gflops: Some(gemm_flops(n, n, n) / wall_s / 1e9),
            baseline_wall_s: Some(packed_f32_wall_s),
            speedup: Some(packed_f32_wall_s / wall_s),
        });
    }

    // --- Blocked Floyd-Warshall ------------------------------------------
    eprintln!("[perf] fw_blocked, n = {}, b = {}", sz.fw_n, sz.fw_b);
    {
        let d0 = lcg_matrix_f32(sz.fw_n, 44);
        let wall_s = time_min(
            reps,
            || d0.clone(),
            |mut d| fw_blocked_threads::<MinPlus<f32>>(&mut d, sz.fw_b, DiagMethod::FwClosure, host),
        );
        let flops = 2.0 * (sz.fw_n as f64).powi(3);
        eprintln!("  fw/blocked/minplus_f32: {wall_s:.6}s");
        entries.push(Entry {
            name: "fw/blocked/minplus_f32".to_string(),
            group: "fw".to_string(),
            params: vec![
                ("n".to_string(), sz.fw_n as f64),
                ("block".to_string(), sz.fw_b as f64),
            ],
            wall_s,
            dtype: Some("f32".to_string()),
            gflops: Some(flops / wall_s / 1e9),
            baseline_wall_s: None,
            speedup: None,
        });
    }

    // --- distributed_apsp across the 2×2×2 policy cube --------------------
    eprintln!("[perf] distributed_apsp cube, n = {}, b = {}, 2x2 grid", sz.dist_n, sz.dist_b);
    {
        let g = generators::erdos_renyi(sz.dist_n, 0.05, WeightKind::small_ints(), 7);
        let input = g.to_dense();
        for schedule in Schedule::all() {
            for bcast in [PanelBcastAlgo::Tree, PanelBcastAlgo::Ring { chunks: 4 }] {
                for exec in Exec::all() {
                    let mut cfg = FwConfig::from_axes(sz.dist_b, schedule, bcast, exec);
                    cfg.oog = gpu_sim::OogConfig::new(32, 32, 3);
                    let name = format!(
                        "dist/{}/{}/{}",
                        schedule.name().to_lowercase(),
                        bcast.name().to_lowercase(),
                        exec.name().to_lowercase()
                    );
                    let wall_s = time_min(
                        reps,
                        || input.clone(),
                        |m| {
                            distributed_apsp::<MinPlus<f32>>(2, 2, &cfg, &m, None)
                                .expect("suite dist run");
                        },
                    );
                    eprintln!("  {name}: {wall_s:.6}s");
                    entries.push(Entry {
                        name,
                        group: "dist".to_string(),
                        params: vec![
                            ("n".to_string(), sz.dist_n as f64),
                            ("block".to_string(), sz.dist_b as f64),
                            ("pr".to_string(), 2.0),
                            ("pc".to_string(), 2.0),
                        ],
                        wall_s,
                        dtype: Some("f32".to_string()),
                        gflops: None,
                        baseline_wall_s: None,
                        speedup: None,
                    });
                }
            }
        }
    }

    // --- headline: serial-OuterUpdate baseline vs thread-budgeted ---------
    eprintln!(
        "[perf] headline dist run, n = {}, b = {}, 2x2 grid (baseline vs budgeted)",
        sz.headline_n, sz.headline_b
    );
    {
        let g = generators::erdos_renyi(sz.headline_n, 0.02, WeightKind::small_ints(), 9);
        let input = g.to_dense();
        let mut cfg =
            FwConfig::from_axes(sz.headline_b, Schedule::BulkSync, PanelBcastAlgo::Tree, Exec::InCoreGemm);

        cfg.kernel_threads = Some(1); // pre-PR behavior: serial OuterUpdate
        let baseline_wall_s = time_min(
            reps,
            || input.clone(),
            |m| {
                distributed_apsp::<MinPlus<f32>>(2, 2, &cfg, &m, None).expect("headline baseline");
            },
        );

        cfg.kernel_threads = None; // budgeted: cores / (pr*pc), floor 1
        let wall_s = time_min(
            reps,
            || input.clone(),
            |m| {
                distributed_apsp::<MinPlus<f32>>(2, 2, &cfg, &m, None).expect("headline budgeted");
            },
        );

        let flops = 2.0 * (sz.headline_n as f64).powi(3);
        eprintln!(
            "  dist/headline/bulksync_tree_incore: baseline {baseline_wall_s:.6}s, budgeted {wall_s:.6}s, x{:.3}",
            baseline_wall_s / wall_s
        );
        entries.push(Entry {
            name: "dist/headline/bulksync_tree_incore".to_string(),
            group: "dist_e2e".to_string(),
            params: vec![
                ("n".to_string(), sz.headline_n as f64),
                ("block".to_string(), sz.headline_b as f64),
                ("pr".to_string(), 2.0),
                ("pc".to_string(), 2.0),
            ],
            wall_s,
            dtype: Some("f32".to_string()),
            gflops: Some(flops / wall_s / 1e9),
            baseline_wall_s: Some(baseline_wall_s),
            speedup: Some(baseline_wall_s / wall_s),
        });
    }

    // --- solver layer: planner's pick vs forced dense-blocked -------------
    // Three generator families spanning the density crossover. Each entry
    // records the planner-chosen solver (`wall_s`, planning cost included)
    // against the always-dense blocked engine (`baseline_wall_s`), so the
    // claim "the planner beats always-dense on sparse inputs" is carried in
    // the artifact. On dense families auto re-picks blocked, paying only the
    // one-time O(m) profile pass — visible at bench sizes, noise at real ones.
    eprintln!(
        "[perf] solver planner picks: grid {0}x{0}, ring {1}, dense {2}",
        sz.solver_grid_side, sz.solver_ring_n, sz.solver_dense_n
    );
    {
        use apsp_core::{Registry, SolveOpts};
        let reg = Registry::with_all();
        let families = [
            (
                "grid",
                generators::grid(sz.solver_grid_side, sz.solver_grid_side, WeightKind::small_ints(), 31),
            ),
            ("ring_chords", generators::ring_with_chords(sz.solver_ring_n, WeightKind::small_ints(), 32)),
            ("uniform_dense", generators::uniform_dense(sz.solver_dense_n, WeightKind::small_ints(), 33)),
        ];
        for (family, g) in families {
            let opts = SolveOpts::with_block(sz.solver_b);
            let chosen = reg.plan(&g, &opts).chosen.expect("an eligible solver");
            let baseline_wall_s = time_min(
                reps,
                || (),
                |()| {
                    reg.solve("blocked", &g, &opts).expect("forced dense-blocked");
                },
            );
            let wall_s = time_min(
                reps,
                || (),
                |()| {
                    // plan + solve, so the planner's own cost is charged
                    reg.solve("auto", &g, &opts).expect("planner pick");
                },
            );
            eprintln!(
                "  solver/auto/{family}: picked '{chosen}' {wall_s:.6}s, forced blocked {baseline_wall_s:.6}s, x{:.3}",
                baseline_wall_s / wall_s
            );
            entries.push(Entry {
                name: format!("solver/auto/{family}"),
                group: "solver".to_string(),
                params: vec![
                    ("n".to_string(), g.n() as f64),
                    ("m".to_string(), g.m() as f64),
                    ("block".to_string(), sz.solver_b as f64),
                ],
                wall_s,
                dtype: Some("f32".to_string()),
                gflops: None,
                baseline_wall_s: Some(baseline_wall_s),
                speedup: Some(baseline_wall_s / wall_s),
            });
        }
    }

    // --- quantized end-to-end solve vs f32 blocked FW ---------------------
    // The headline for the low-precision path: quantize → integer blocked
    // FW in saturating u16 lanes → dequantize, measured end to end
    // (quantize and dequantize passes charged to `wall_s`), against the
    // same blocked FW over f32 on the same graph. Integral small-int
    // weights make the quantized result bit-exact here, so the speedup is
    // pure lane-width win, not an accuracy trade.
    eprintln!(
        "[perf] quant solve vs f32 blocked, n = {}, b = {}",
        sz.headline_n, sz.headline_b
    );
    {
        use apsp_core::quant;
        // weights 1..15: (n − 1)·15 stays below the u16 sentinel at every mode's n
        let g = generators::erdos_renyi(sz.headline_n, 0.02, WeightKind::Integer { lo: 1, hi: 15 }, 9);
        let plan = quant::plan_for_graph(&g, 0.0).expect("small-int weights quantize exactly");
        let input = g.to_dense();
        let baseline_wall_s = time_min(
            reps,
            || input.clone(),
            |mut d| {
                fw_blocked_threads::<MinPlus<f32>>(&mut d, sz.headline_b, DiagMethod::FwClosure, host)
            },
        );
        let wall_s = time_min(
            reps,
            || (),
            |()| {
                quant::solve_quantized(&g, &plan, sz.headline_b, host)
                    .expect("the plan was made for this graph");
            },
        );
        let flops = 2.0 * (sz.headline_n as f64).powi(3);
        eprintln!(
            "  quant/solve_vs_f32: f32 {baseline_wall_s:.6}s, {} {wall_s:.6}s, x{:.3}",
            plan.dtype.name(),
            baseline_wall_s / wall_s
        );
        entries.push(Entry {
            name: "quant/solve_vs_f32".to_string(),
            group: "quant".to_string(),
            params: vec![
                ("n".to_string(), sz.headline_n as f64),
                ("block".to_string(), sz.headline_b as f64),
                ("scale".to_string(), plan.scale),
                ("eps".to_string(), plan.eps),
            ],
            wall_s,
            dtype: Some(plan.dtype.name().to_string()),
            gflops: Some(flops / wall_s / 1e9),
            baseline_wall_s: Some(baseline_wall_s),
            speedup: Some(baseline_wall_s / wall_s),
        });
    }

    // --- out-of-core: staged (file store, tight budget) vs in-memory ------
    // Same driver, same tile size, same slot format; the only
    // difference is whether the store is a Vec of slots or a file behind the
    // background I/O thread, with the budget sized to force spilling. The
    // speedup field records the staging cost (expected < 1; the acceptance
    // bar is staying within 2x of in-memory).
    eprintln!("[perf] ooc staged vs in-memory, n = {}, tile = {}", sz.ooc_n, sz.ooc_tile);
    {
        use apsp_core::ooc::{
            solve_in_store, staged_budget_floor, tile_bytes, FileStore, MemStore, OocConfig,
        };
        let (n, tile) = (sz.ooc_n, sz.ooc_tile);
        let input = generators::uniform_dense(n, WeightKind::small_ints(), 34).to_dense();
        // floor + one row of tiles of cache: heavy eviction traffic without
        // being degenerate
        let budget = staged_budget_floor::<f32>(tile)
            + (n.div_ceil(tile) as u64 + 2) * tile_bytes::<f32>(tile, tile);
        let baseline_wall_s = time_min(
            reps,
            || input.clone(),
            |mut m| {
                let mut store = MemStore::new::<f32>(n, tile);
                let cfg = OocConfig { threads: host, ..OocConfig::unbounded() };
                solve_in_store::<MinPlus<f32>>(&mut m, &mut store, &cfg)
                    .expect("in-memory ooc solve");
            },
        );
        let path = std::env::temp_dir()
            .join(format!("apsp-bench-ooc-{}-{n}.tiles", std::process::id()));
        let wall_s = time_min(
            reps,
            || input.clone(),
            |mut m| {
                let mut store =
                    FileStore::create::<f32>(&path, n, tile).expect("create tile store");
                let cfg = OocConfig { threads: host, ..OocConfig::with_budget(budget) };
                solve_in_store::<MinPlus<f32>>(&mut m, &mut store, &cfg)
                    .expect("staged ooc solve");
                // `create` is exclusive: each rep needs the path free again
                drop(store);
                let _ = std::fs::remove_file(&path);
            },
        );
        eprintln!(
            "  ooc/staged_vs_inmem/f32: staged {wall_s:.6}s, in-memory {baseline_wall_s:.6}s, x{:.3}",
            baseline_wall_s / wall_s
        );
        entries.push(Entry {
            name: "ooc/staged_vs_inmem/f32".to_string(),
            group: "ooc".to_string(),
            params: vec![
                ("n".to_string(), n as f64),
                ("tile".to_string(), tile as f64),
                ("budget".to_string(), budget as f64),
            ],
            wall_s,
            dtype: Some("f32".to_string()),
            gflops: Some(2.0 * (n as f64).powi(3) / wall_s / 1e9),
            baseline_wall_s: Some(baseline_wall_s),
            speedup: Some(baseline_wall_s / wall_s),
        });
    }

    // --- serve layer: batched-query latency under update pressure ---------
    // The load generator drives its own reader/writer threads and asserts
    // epoch consistency while measuring, so these entries come from one run
    // (reps would re-randomize the traffic, not re-time the same work).
    eprintln!("[perf] serve load, n = {}, {} batches/reader", sz.serve_n, sz.serve_batches);
    {
        let cfg = crate::serve_load::LoadCfg {
            n: sz.serve_n,
            readers: 4,
            batch: 32,
            batches_per_reader: sz.serve_batches,
            update_batch: 4,
            bad_input: false,
            seed: 42,
        };
        let r = crate::serve_load::run_inproc(&cfg);
        eprintln!(
            "  serve/load: p50 {:.1}us p99 {:.1}us, {} q/s, {} epochs, lag max {}",
            r.p50_us, r.p99_us, r.qps as u64, r.epochs_published, r.epoch_lag_max
        );
        entries.extend(r.to_entries(""));
    }

    Report {
        schema: SCHEMA.to_string(),
        mode: mode.name().to_string(),
        reps,
        available_parallelism: host,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str, wall_s: f64) -> Entry {
        Entry {
            name: name.to_string(),
            group: "gemm".to_string(),
            params: vec![("n".to_string(), 64.0)],
            wall_s,
            dtype: Some("f32".to_string()),
            gflops: Some(1.0),
            baseline_wall_s: None,
            speedup: None,
        }
    }

    fn report(entries: Vec<Entry>) -> Report {
        Report {
            schema: SCHEMA.to_string(),
            mode: "full".to_string(),
            reps: 3,
            available_parallelism: 8,
            entries,
        }
    }

    #[test]
    fn schema_round_trips_through_text() {
        // serialize → pretty-print → parse → deserialize → identical
        let mut headline = entry("dist/headline/x", 2.0);
        headline.baseline_wall_s = Some(3.5);
        headline.speedup = Some(1.75);
        headline.group = "dist_e2e".to_string();
        let r = report(vec![entry("gemm/naive/minplus_f32", 0.25), headline]);
        let text = r.to_json().pretty();
        let back = Report::from_json(&Json::parse(&text).expect("parses")).expect("validates");
        assert_eq!(back, r);
    }

    #[test]
    fn from_json_rejects_wrong_schema_and_missing_fields() {
        let mut doc = report(vec![]).to_json();
        // wrong schema string
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::Str("somebody-else/9".to_string());
        }
        assert!(Report::from_json(&doc).unwrap_err().contains("unsupported schema"));
        // entry without wall_s
        let doc = Json::parse(
            r#"{"schema":"apsp-bench-perf/1","mode":"full","reps":1,
                "available_parallelism":1,
                "entries":[{"name":"x","group":"gemm"}]}"#,
        )
        .unwrap();
        assert!(Report::from_json(&doc).unwrap_err().contains("wall_s"));
    }

    #[test]
    fn comparator_classifies_improvement_regression_unchanged() {
        let old = report(vec![entry("a", 1.0), entry("b", 1.0), entry("c", 1.0)]);
        let new = report(vec![entry("a", 0.5), entry("b", 1.5), entry("c", 1.05)]);
        let cmp = compare(&old, &new, 0.15).expect("same mode");
        assert_eq!(cmp.deltas.len(), 3);
        assert_eq!(cmp.deltas[0].kind, DeltaKind::Improvement);
        assert_eq!(cmp.deltas[1].kind, DeltaKind::Regression);
        assert_eq!(cmp.deltas[2].kind, DeltaKind::Unchanged);
        assert!(cmp.has_regressions());
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn comparator_reports_added_and_removed_keys() {
        let old = report(vec![entry("kept", 1.0), entry("dropped", 1.0)]);
        let new = report(vec![entry("kept", 1.0), entry("fresh", 1.0)]);
        let cmp = compare(&old, &new, 0.15).unwrap();
        assert_eq!(cmp.added, vec!["fresh".to_string()]);
        assert_eq!(cmp.removed, vec!["dropped".to_string()]);
        assert!(!cmp.has_regressions());
    }

    #[test]
    fn comparator_refuses_cross_mode_comparison() {
        let old = report(vec![]);
        let mut new = report(vec![]);
        new.mode = "quick".to_string();
        assert!(compare(&old, &new, 0.15).is_err());
    }

    #[test]
    fn comparator_refuses_cross_dtype_joins() {
        // same entry name, different element dtype: a u16 run must never
        // silently diff against an f32 baseline
        let old = report(vec![entry("gemm/packed/minplus", 1.0)]);
        let mut quant = entry("gemm/packed/minplus", 0.4);
        quant.dtype = Some("u16".to_string());
        let new = report(vec![quant]);
        let err = compare(&old, &new, 0.15).unwrap_err();
        assert!(err.contains("dtype"), "err: {err}");
        assert!(err.contains("f32") && err.contains("u16"), "err: {err}");
        // a missing dtype is also not joinable against a recorded one
        let mut untyped = entry("gemm/packed/minplus", 1.0);
        untyped.dtype = None;
        let old = report(vec![untyped]);
        assert!(compare(&old, &new, 0.15).is_err());
        // matching dtypes (both None, both Some) still join fine
        let both_none = |w| {
            let mut e = entry("x", w);
            e.dtype = None;
            report(vec![e])
        };
        assert!(compare(&both_none(1.0), &both_none(1.1), 0.15).is_ok());
    }

    #[test]
    fn dtype_survives_the_json_round_trip_and_stays_optional() {
        let mut typed = entry("gemm/packed/minplus_u16", 0.5);
        typed.dtype = Some("u16".to_string());
        let mut untyped = entry("serve/load", 1.0);
        untyped.dtype = None;
        let r = report(vec![typed, untyped]);
        let text = r.to_json().pretty();
        assert!(text.contains("\"dtype\""));
        let back = Report::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
        // pre-dtype artifacts (no `dtype` key anywhere) still parse
        let legacy = Json::parse(
            r#"{"schema":"apsp-bench-perf/1","mode":"full","reps":1,
                "available_parallelism":1,
                "entries":[{"name":"x","group":"gemm","wall_s":1.0}]}"#,
        )
        .unwrap();
        let legacy = Report::from_json(&legacy).unwrap();
        assert_eq!(legacy.entries[0].dtype, None);
    }

    #[test]
    fn threshold_is_symmetric_in_ratio_space() {
        // 15% threshold: ratio 1.15 exactly is NOT a regression; 1/1.15 is
        // NOT an improvement — strict inequalities both ways.
        let old = report(vec![entry("edge_up", 1.0), entry("edge_down", 1.0)]);
        let new = report(vec![entry("edge_up", 1.15), entry("edge_down", 1.0 / 1.15)]);
        let cmp = compare(&old, &new, 0.15).unwrap();
        assert_eq!(cmp.deltas[0].kind, DeltaKind::Unchanged);
        assert_eq!(cmp.deltas[1].kind, DeltaKind::Unchanged);
    }
}
