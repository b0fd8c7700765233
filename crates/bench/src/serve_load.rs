//! Load generator for the serve layer: mixed query/update traffic against
//! an [`apsp_core::serve::Engine`], reporting p50/p99 batched-query
//! latency and epoch lag under update pressure.
//!
//! Two transports, one traffic loop. A connection is one function from a
//! request line of the `apsp serve` protocol to its reply line:
//!
//! * **in-process** ([`run_inproc`]) — each line goes through
//!   [`proto::handle_line`] on a shared engine (no socket noise; a 32-query
//!   batch is about as cheap as the two `Instant::now()` calls around it,
//!   so use it for the consistency checks and throughput, not for
//!   latency);
//! * **TCP** ([`run_tcp`]) — each line goes over a socket to a running
//!   server; this is what CI's `serve-smoke` drives against a real server
//!   process, including a bad-input mix to prove typed rejections don't
//!   kill the server.
//!
//! Both modes *check* epoch consistency while measuring: every reader
//! batch must be internally consistent (one epoch per response line),
//! epochs must be monotone per reader, and distances for a repeated pair
//! must never increase across epochs. A torn read ends the run with an
//! `Err` instead of skewing a percentile.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use apsp_core::serve::{proto, Engine};
use apsp_graph::generators::{self, WeightKind};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Traffic shape for one load-generator run.
#[derive(Clone, Debug)]
pub struct LoadCfg {
    /// Vertices in the served graph (in-process mode solves it; TCP mode
    /// queries whatever the server loaded and learns `n` via `info`).
    pub n: usize,
    /// Concurrent reader connections/threads.
    pub readers: usize,
    /// Point-to-point queries per batch (one `dist` line in TCP mode).
    pub batch: usize,
    /// Batches each reader resolves before finishing.
    pub batches_per_reader: usize,
    /// Edge decreases per writer batch (one `update` line).
    pub update_batch: usize,
    /// Mix deliberately malformed updates (out-of-range vertices) into the
    /// writer stream; the run then *requires* typed rejections to appear.
    pub bad_input: bool,
    /// RNG seed for the whole run.
    pub seed: u64,
}

/// Measured result of a load run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Vertices served.
    pub n: usize,
    /// Reader count.
    pub readers: usize,
    /// Queries per batch.
    pub batch: usize,
    /// Total reader batches resolved.
    pub total_batches: usize,
    /// Total point-to-point queries answered.
    pub total_queries: usize,
    /// Wall-clock of the mixed phase, seconds.
    pub duration_s: f64,
    /// Queries per second across all readers.
    pub qps: f64,
    /// Median batched-query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile batched-query latency, microseconds.
    pub p99_us: f64,
    /// Worst batched-query latency, microseconds.
    pub max_us: f64,
    /// Epochs the writer published during the run.
    pub epochs_published: u64,
    /// Accepted updates.
    pub updates_applied: usize,
    /// Typed per-update rejections observed.
    pub updates_rejected: usize,
    /// Worst observed reader epoch lag (published - answered-from).
    pub epoch_lag_max: u64,
    /// Mean observed reader epoch lag.
    pub epoch_lag_mean: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 * p).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx]
}

/// Generate one writer batch; with `bad_input`, the first triple of every
/// fourth batch is out of range (a typed `badvertex` rejection downstream).
fn writer_batch(rng: &mut StdRng, n: usize, k: usize, bad: bool, seq: usize) -> Vec<(usize, usize, f32)> {
    let mut edge = || (rng.random_range(0..n), rng.random_range(0..n), rng.random_range(1..8) as f32 * 0.5);
    let mut batch: Vec<_> = (0..k).map(|_| edge()).collect();
    if bad && seq.is_multiple_of(4) {
        batch[0] = (n + seq, 0, 1.0);
    }
    batch
}

/// One connection: sends a request line, returns the reply line.
type Conn<'a> = Box<dyn FnMut(&str) -> Result<String, String> + 'a>;

/// Where a run sends its traffic.
enum Transport<'a> {
    /// [`proto::handle_line`] on an engine in this process.
    InProc(&'a Engine),
    /// A running `apsp serve --listen` at this address.
    Tcp(&'a str),
}

impl Transport<'_> {
    fn connect(&self) -> Result<Conn<'_>, String> {
        match *self {
            Transport::InProc(engine) => Ok(Box::new(move |line| {
                proto::handle_line(engine, line)
                    .map(|reply| reply.text)
                    .ok_or_else(|| format!("no reply to '{line}'"))
            })),
            Transport::Tcp(addr) => {
                let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut rd = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                Ok(Box::new(move |line| {
                    stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
                    let mut resp = String::new();
                    rd.read_line(&mut resp).map_err(|e| format!("recv: {e}"))?;
                    if resp.is_empty() {
                        return Err("server closed the connection".into());
                    }
                    Ok(resp.trim_end().to_string())
                }))
            }
        }
    }
}

/// Reader `r`: `batches_per_reader` `dist` batches over a fixed pool of
/// pairs (so monotonicity is repeatedly observable), each reply checked
/// against the ones before it. Returns per-batch latencies and epoch lags.
fn reader(
    transport: &Transport<'_>,
    cfg: &LoadCfg,
    r: usize,
    newest: &AtomicU64,
) -> Result<(Vec<f64>, Vec<u64>), String> {
    let mut send = transport.connect()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5eed + r as u64));
    let mut lat_us = Vec::with_capacity(cfg.batches_per_reader);
    let mut lags = Vec::with_capacity(cfg.batches_per_reader);
    let mut last_epoch = 0u64;
    let pool: Vec<(usize, usize)> =
        (0..64).map(|_| (rng.random_range(0..cfg.n), rng.random_range(0..cfg.n))).collect();
    let mut history: Vec<(u64, f32)> = vec![(0, f32::INFINITY); pool.len()];
    for _ in 0..cfg.batches_per_reader {
        let slots: Vec<usize> = (0..cfg.batch).map(|_| rng.random_range(0..pool.len())).collect();
        let mut line = String::from("dist");
        for &slot in &slots {
            let (s, t) = pool[slot];
            line.push_str(&format!(" {s} {t}"));
        }
        let t = Instant::now();
        let resp = send(&line)?;
        lat_us.push(t.elapsed().as_secs_f64() * 1e6);

        let (epoch, vals) = proto::parse_ok(&resp)?;
        if vals.len() != slots.len() {
            return Err(format!("short response: {} of {}", vals.len(), slots.len()));
        }
        if epoch < last_epoch {
            return Err(format!("epoch went backwards {last_epoch} -> {epoch}"));
        }
        last_epoch = epoch;
        for (&slot, tok) in slots.iter().zip(&vals) {
            let d = proto::parse_dist_tok(tok)?;
            let ((s, t), (e0, d0)) = (pool[slot], history[slot]);
            if epoch > e0 {
                if d > d0 {
                    return Err(format!("dist({s},{t}) grew {d0} -> {d}"));
                }
                history[slot] = (epoch, d);
            } else if epoch == e0 && d.to_bits() != d0.to_bits() && !d0.is_infinite() {
                return Err(format!("torn read at epoch {epoch}: {d0} vs {d}"));
            }
        }
        lags.push(newest.load(Ordering::Acquire).saturating_sub(epoch));
        newest.fetch_max(epoch, Ordering::AcqRel);
    }
    let _ = send("quit");
    Ok((lat_us, lags))
}

/// The writer: `update` batches until `done`, requiring the typed
/// `badvertex` rejection wherever the bad-input mix put one. Returns
/// (applied, rejected, last epoch).
fn writer(
    transport: &Transport<'_>,
    cfg: &LoadCfg,
    newest: &AtomicU64,
    done: &AtomicBool,
) -> Result<(usize, usize, u64), String> {
    let mut send = transport.connect()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7772_6974);
    let (mut applied, mut rejected, mut seq) = (0usize, 0usize, 0usize);
    // `done` is read after the batch, not before: the readers may finish
    // before this thread is first scheduled, and the run still needs one
    // batch (seq 0 carries the bad update)
    let epoch = loop {
        let mut line = String::from("update");
        for (u, v, w) in writer_batch(&mut rng, cfg.n, cfg.update_batch, cfg.bad_input, seq) {
            line.push_str(&format!(" {u} {v} {w}"));
        }
        let resp = send(&line)?;
        let (epoch, toks) = proto::parse_ok(&resp)?;
        newest.fetch_max(epoch, Ordering::AcqRel);
        for tok in &toks {
            if let Some(v) = tok.strip_prefix("applied=") {
                applied += v.parse::<usize>().unwrap_or(0);
            } else if let Some(v) = tok.strip_prefix("rejected=") {
                rejected += v.parse::<usize>().unwrap_or(0);
            }
        }
        if cfg.bad_input && seq.is_multiple_of(4) && !resp.contains("reject@0=badvertex") {
            return Err(format!("expected typed badvertex rejection, got '{resp}'"));
        }
        seq += 1;
        if done.load(Ordering::Acquire) {
            break epoch;
        }
    };
    let _ = send("quit");
    Ok((applied, rejected, epoch))
}

/// Drive the mixed traffic over `transport`: learn `n` and the starting
/// epoch from `info`, run the readers and the writer until every reader
/// has resolved its batches, and summarize. `cfg.n` is replaced by the
/// served `n`.
fn run(transport: &Transport<'_>, cfg: &LoadCfg) -> Result<LoadReport, String> {
    let mut probe = transport.connect()?;
    let resp = probe("info")?;
    let (epoch0, rest) = proto::parse_ok(&resp)?;
    let n: usize = rest
        .first()
        .and_then(|t| t.strip_prefix("n="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad info response '{resp}'"))?;
    if n == 0 {
        return Err("the served graph has no vertices (n=0): nothing to query".into());
    }
    let _ = probe("quit");
    let cfg = LoadCfg { n, ..cfg.clone() };

    let newest = AtomicU64::new(epoch0);
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let (readers, written) = std::thread::scope(|s| {
        let (cfg, newest, done) = (&cfg, &newest, &done);
        let readers: Vec<_> =
            (0..cfg.readers).map(|r| s.spawn(move || reader(transport, cfg, r, newest))).collect();
        let writer = s.spawn(move || writer(transport, cfg, newest, done));
        let readers: Vec<_> = readers.into_iter().map(|h| h.join().expect("reader thread")).collect();
        done.store(true, Ordering::Release);
        (readers, writer.join().expect("writer thread"))
    });
    let duration_s = t0.elapsed().as_secs_f64();
    let (updates_applied, updates_rejected, last_epoch) = written?;
    let (mut lat_us, mut lags) = (Vec::new(), Vec::new());
    for res in readers {
        let (l, g) = res.map_err(|e| format!("reader failed: {e}"))?;
        lat_us.extend(l);
        lags.extend(g);
    }
    if cfg.bad_input && updates_rejected == 0 {
        return Err("bad-input mix produced no typed rejections".into());
    }
    lat_us.sort_by(|a, b| a.total_cmp(b));
    let total_queries = lat_us.len() * cfg.batch;
    Ok(LoadReport {
        n,
        readers: cfg.readers,
        batch: cfg.batch,
        total_batches: lat_us.len(),
        total_queries,
        duration_s,
        qps: total_queries as f64 / duration_s.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        max_us: lat_us.last().copied().unwrap_or(0.0),
        epochs_published: last_epoch.max(newest.load(Ordering::Acquire)),
        updates_applied,
        updates_rejected,
        epoch_lag_max: lags.iter().copied().max().unwrap_or(0),
        epoch_lag_mean: if lags.is_empty() { 0.0 } else { lags.iter().sum::<u64>() as f64 / lags.len() as f64 },
    })
}

/// Drive mixed traffic against an in-process engine serving an
/// Erdős–Rényi graph of `cfg.n` vertices. Readers resolve
/// `batches_per_reader` batches each while the writer continuously applies
/// decrease batches; the writer stops when the readers finish.
pub fn run_inproc(cfg: &LoadCfg) -> Result<LoadReport, String> {
    let g = generators::erdos_renyi(cfg.n, (8.0 / cfg.n as f64).min(1.0), WeightKind::small_ints(), cfg.seed);
    let engine = Engine::solve_from_graph(&g, 64).map_err(|e| e.to_string())?;
    run(&Transport::InProc(&engine), cfg)
}

/// Drive the same mixed traffic over TCP against a running `apsp serve
/// --listen` process. Learns `n` from the server (`info`), so `cfg.n` is
/// ignored for query generation. Latency here is request round-trip.
pub fn run_tcp(addr: &str, cfg: &LoadCfg) -> Result<LoadReport, String> {
    run(&Transport::Tcp(addr), cfg)
}

impl LoadReport {
    /// Human-readable one-screen summary.
    pub fn render(&self) -> String {
        format!(
            "serve-load: n={} readers={} batch={}\n\
             {} batches / {} queries in {:.3} s ({:.0} q/s)\n\
             batched-query latency: p50 {:.1} us, p99 {:.1} us, max {:.1} us\n\
             writer: {} epochs published, {} updates applied, {} rejected (typed)\n\
             epoch lag: max {}, mean {:.2}\n",
            self.n,
            self.readers,
            self.batch,
            self.total_batches,
            self.total_queries,
            self.duration_s,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.max_us,
            self.epochs_published,
            self.updates_applied,
            self.updates_rejected,
            self.epoch_lag_max,
            self.epoch_lag_mean,
        )
    }

    /// The report as one flat JSON object, for `apsp bench serve-load
    /// --out`; `transport` is `"inproc"` or `"tcp"`. A non-finite number is
    /// written `null`.
    pub fn to_json(&self, transport: &str) -> String {
        let num = |x: f64| if x.is_finite() { x.to_string() } else { "null".to_string() };
        format!(
            "{{\n  \"transport\": \"{transport}\",\n  \"n\": {},\n  \"readers\": {},\n  \"batch\": {},\n  \
             \"queries\": {},\n  \"qps\": {},\n  \"p50_us\": {},\n  \"p99_us\": {},\n  \"max_us\": {},\n  \
             \"duration_s\": {},\n  \"epochs\": {},\n  \"updates_applied\": {},\n  \"updates_rejected\": {},\n  \
             \"epoch_lag_max\": {},\n  \"epoch_lag_mean\": {}\n}}\n",
            self.n,
            self.readers,
            self.batch,
            self.total_queries,
            num(self.qps),
            num(self.p50_us),
            num(self.p99_us),
            num(self.max_us),
            num(self.duration_s),
            self.epochs_published,
            self.updates_applied,
            self.updates_rejected,
            self.epoch_lag_max,
            num(self.epoch_lag_mean),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inproc_load_reports_percentiles_and_consistency() {
        let cfg = LoadCfg {
            n: 48,
            readers: 2,
            batch: 8,
            batches_per_reader: 20,
            update_batch: 2,
            bad_input: true,
            seed: 7,
        };
        let r = run_inproc(&cfg).unwrap();
        assert_eq!(r.total_batches, 40);
        assert_eq!(r.total_queries, 320);
        assert!(r.p50_us > 0.0 && r.p99_us >= r.p50_us && r.max_us >= r.p99_us);
        assert!(r.updates_rejected > 0, "bad-input mix must be rejected");
        let json = r.to_json("inproc");
        assert!(json.contains("\"transport\": \"inproc\""), "{json}");
        let keys = "transport n readers batch queries qps p50_us p99_us max_us duration_s epochs \
                    updates_applied updates_rejected epoch_lag_max epoch_lag_mean";
        for key in keys.split(' ') {
            assert_eq!(json.matches(&format!("\"{key}\": ")).count(), 1, "{key} in {json}");
        }
        let nan = LoadReport { epoch_lag_mean: f64::NAN, qps: f64::INFINITY, ..r };
        let json = nan.to_json("tcp");
        assert!(json.contains("\"qps\": null") && json.contains("\"epoch_lag_mean\": null"), "{json}");
    }

    #[test]
    fn a_server_with_no_vertices_is_an_error_not_a_panic() {
        let g = generators::erdos_renyi(0, 1.0, WeightKind::small_ints(), 1);
        let engine = Engine::solve_from_graph(&g, 64).unwrap();
        let cfg = LoadCfg {
            n: 48,
            readers: 1,
            batch: 4,
            batches_per_reader: 5,
            update_batch: 1,
            bad_input: false,
            seed: 7,
        };
        let err = run(&Transport::InProc(&engine), &cfg).expect_err("n=0 has nothing to query");
        assert!(err.contains("n=0"), "{err}");
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
