//! Load generator for the serve layer: mixed query/update traffic against
//! an [`apsp_core::serve::Engine`], reporting p50/p99 batched-query
//! latency and epoch lag under update pressure.
//!
//! Two transports, one traffic shape:
//!
//! * **in-process** ([`run_inproc`]) — readers call the engine directly
//!   (no socket noise; a 32-query batch is about as cheap as the two
//!   `Instant::now()` calls around it, so use it for the consistency
//!   assertions and throughput, not for latency);
//! * **TCP** ([`run_tcp`]) — readers and the writer speak the
//!   `apsp serve` line protocol over sockets; this is what CI's
//!   `serve-smoke` drives against a real server process, including a
//!   bad-input mix to prove typed rejections don't kill the server.
//!
//! Both modes *assert* epoch consistency while measuring: every reader
//! batch must be internally consistent (one epoch per response line /
//! snapshot), epochs must be monotone per reader, and distances for a
//! repeated pair must never increase across epochs. A torn read fails the
//! run loudly instead of skewing a percentile.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

fn summarize(
    cfg: &LoadCfg,
    mut lat_us: Vec<f64>,
    lags: Vec<u64>,
    duration_s: f64,
    epochs_published: u64,
    updates_applied: usize,
    updates_rejected: usize,
) -> LoadReport {
    lat_us.sort_by(|a, b| a.total_cmp(b));
    let total_batches = lat_us.len();
    let total_queries = total_batches * cfg.batch;
    let lag_max = lags.iter().copied().max().unwrap_or(0);
    let lag_mean = if lags.is_empty() {
        0.0
    } else {
        lags.iter().sum::<u64>() as f64 / lags.len() as f64
    };
    LoadReport {
        n: cfg.n,
        readers: cfg.readers,
        batch: cfg.batch,
        total_batches,
        total_queries,
        duration_s,
        qps: total_queries as f64 / duration_s.max(1e-9),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        max_us: lat_us.last().copied().unwrap_or(0.0),
        epochs_published,
        updates_applied,
        updates_rejected,
        epoch_lag_max: lag_max,
        epoch_lag_mean: lag_mean,
    }
}

/// Generate one writer batch; with `bad_input`, the first triple of every
/// fourth batch is out of range (a typed `badvertex` rejection downstream).
fn writer_batch(rng: &mut StdRng, n: usize, k: usize, bad: bool, seq: usize) -> Vec<(usize, usize, f32)> {
    let mut batch: Vec<(usize, usize, f32)> = (0..k)
        .map(|_| {
            (
                rng.random_range(0..n),
                rng.random_range(0..n),
                rng.random_range(1..8) as f32 * 0.5,
            )
        })
        .collect();
    if bad && seq.is_multiple_of(4) {
        batch[0] = (n + seq, 0, 1.0);
    }
    batch
}

/// Drive mixed traffic against an in-process engine serving an
/// Erdős–Rényi graph of `cfg.n` vertices. Readers resolve
/// `batches_per_reader` batches each while the writer continuously applies
/// decrease batches; the writer stops when the readers finish.
pub fn run_inproc(cfg: &LoadCfg) -> LoadReport {
    let g = generators::erdos_renyi(cfg.n, (8.0 / cfg.n as f64).min(1.0), WeightKind::small_ints(), cfg.seed);
    let engine = Arc::new(Engine::solve_from_graph(&g, 64).expect("small_ints weights are positive"));
    let done = Arc::new(AtomicBool::new(false));

    let t0 = Instant::now();
    let readers: Vec<_> = (0..cfg.readers)
        .map(|r| {
            let engine = Arc::clone(&engine);
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5eed + r as u64));
                let mut lat_us = Vec::with_capacity(cfg.batches_per_reader);
                let mut lags = Vec::with_capacity(cfg.batches_per_reader);
                let mut last_epoch = 0u64;
                // fixed pool of pairs so monotonicity is repeatedly observable
                let pool: Vec<(usize, usize)> = (0..64)
                    .map(|_| (rng.random_range(0..cfg.n), rng.random_range(0..cfg.n)))
                    .collect();
                let mut history: Vec<(u64, f32)> = vec![(0, f32::INFINITY); pool.len()];
                for _ in 0..cfg.batches_per_reader {
                    let pairs: Vec<(usize, usize)> = (0..cfg.batch)
                        .map(|_| pool[rng.random_range(0..pool.len())])
                        .collect();
                    let t = Instant::now();
                    let snap = engine.snapshot();
                    let answers = snap.dist_batch(&pairs).expect("pool is in range");
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);

                    // consistency: monotone epochs per reader, monotone
                    // non-increasing distances per pair across epochs
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch();
                    for (&(s, t_), &d) in pairs.iter().zip(&answers) {
                        let slot = pool.iter().position(|&p| p == (s, t_)).unwrap();
                        let (e0, d0) = history[slot];
                        if snap.epoch() > e0 {
                            assert!(d <= d0, "dist({s},{t_}) grew across epochs");
                            history[slot] = (snap.epoch(), d);
                        } else if snap.epoch() == e0 {
                            assert!(d.to_bits() == d0.to_bits() || d0.is_infinite());
                        }
                    }
                    lags.push(engine.latest_epoch().saturating_sub(snap.epoch()));
                }
                (lat_us, lags)
            })
        })
        .collect();

    // writer: continuous update pressure until the readers are done
    let writer = {
        let engine = Arc::clone(&engine);
        let done = Arc::clone(&done);
        let cfg = cfg.clone();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7772_6974);
            let (mut applied, mut rejected, mut seq) = (0usize, 0usize, 0usize);
            // `done` is read after the batch, not before: the readers may
            // finish before this thread is first scheduled, and the run
            // still needs one batch (seq 0 carries the bad update)
            loop {
                let batch = writer_batch(&mut rng, cfg.n, cfg.update_batch, cfg.bad_input, seq);
                let out = engine.apply(&batch);
                applied += out.report.applied;
                rejected += out.report.rejected();
                seq += 1;
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            (applied, rejected)
        })
    };

    let mut lat_us = Vec::new();
    let mut lags = Vec::new();
    for h in readers {
        let (l, g) = h.join().expect("reader thread");
        lat_us.extend(l);
        lags.extend(g);
    }
    done.store(true, Ordering::Release);
    let (applied, rejected) = writer.join().expect("writer thread");
    let duration_s = t0.elapsed().as_secs_f64();

    if cfg.bad_input {
        assert!(rejected > 0, "bad-input mix must surface typed rejections");
    }
    summarize(cfg, lat_us, lags, duration_s, engine.latest_epoch(), applied, rejected)
}

fn send_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Result<String, String> {
    stream
        .write_all(line.as_bytes())
        .and_then(|_| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    let mut resp = String::new();
    reader.read_line(&mut resp).map_err(|e| format!("recv: {e}"))?;
    if resp.is_empty() {
        return Err("server closed the connection".into());
    }
    Ok(resp.trim_end().to_string())
}

fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    let rd = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok((stream, rd))
}

/// Drive the same mixed traffic over TCP against a running `apsp serve
/// --listen` process. Learns `n` from the server (`info`), so `cfg.n` is
/// ignored for query generation. Latency here is request round-trip.
pub fn run_tcp(addr: &str, cfg: &LoadCfg) -> Result<LoadReport, String> {
    // learn the matrix size + starting epoch
    let (mut probe, mut probe_rd) = connect(addr)?;
    let resp = send_line(&mut probe, &mut probe_rd, "info")?;
    let (epoch0, rest) = proto::parse_ok(&resp)?;
    let n: usize = rest
        .first()
        .and_then(|t| t.strip_prefix("n="))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad info response '{resp}'"))?;
    let _ = send_line(&mut probe, &mut probe_rd, "quit");
    let mut cfg = cfg.clone();
    cfg.n = n;

    let newest = Arc::new(AtomicU64::new(epoch0));
    let done = Arc::new(AtomicBool::new(false));
    let t0 = Instant::now();

    let readers: Vec<_> = (0..cfg.readers)
        .map(|r| {
            let addr = addr.to_string();
            let cfg = cfg.clone();
            let newest = Arc::clone(&newest);
            std::thread::spawn(move || -> Result<(Vec<f64>, Vec<u64>), String> {
                let (mut stream, mut rd) = connect(&addr)?;
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ (0x5eed + r as u64));
                let mut lat_us = Vec::with_capacity(cfg.batches_per_reader);
                let mut lags = Vec::with_capacity(cfg.batches_per_reader);
                let mut last_epoch = 0u64;
                let pool: Vec<(usize, usize)> = (0..64)
                    .map(|_| (rng.random_range(0..n), rng.random_range(0..n)))
                    .collect();
                let mut history: Vec<(u64, f32)> = vec![(0, f32::INFINITY); pool.len()];
                for _ in 0..cfg.batches_per_reader {
                    let pairs: Vec<(usize, usize)> = (0..cfg.batch)
                        .map(|_| pool[rng.random_range(0..pool.len())])
                        .collect();
                    let mut line = String::from("dist");
                    for &(s, t) in &pairs {
                        line.push_str(&format!(" {s} {t}"));
                    }
                    let t = Instant::now();
                    let resp = send_line(&mut stream, &mut rd, &line)?;
                    lat_us.push(t.elapsed().as_secs_f64() * 1e6);

                    let (epoch, vals) = proto::parse_ok(&resp)?;
                    if vals.len() != pairs.len() {
                        return Err(format!("short response: {} of {}", vals.len(), pairs.len()));
                    }
                    if epoch < last_epoch {
                        return Err(format!("epoch went backwards {last_epoch} -> {epoch}"));
                    }
                    last_epoch = epoch;
                    for ((s, t_), tok) in pairs.iter().zip(&vals) {
                        let d = proto::parse_dist_tok(tok)?;
                        let slot = pool.iter().position(|p| p == &(*s, *t_)).unwrap();
                        let (e0, d0) = history[slot];
                        if epoch > e0 {
                            if d > d0 {
                                return Err(format!("dist({s},{t_}) grew {d0} -> {d}"));
                            }
                            history[slot] = (epoch, d);
                        } else if epoch == e0 && d.to_bits() != d0.to_bits() && !d0.is_infinite() {
                            return Err(format!("torn read at epoch {epoch}: {d0} vs {d}"));
                        }
                    }
                    lags.push(newest.load(Ordering::Acquire).saturating_sub(epoch));
                    newest.fetch_max(epoch, Ordering::AcqRel);
                }
                let _ = send_line(&mut stream, &mut rd, "quit");
                Ok((lat_us, lags))
            })
        })
        .collect();

    // writer connection: continuous update pressure
    let writer = {
        let addr = addr.to_string();
        let cfg = cfg.clone();
        let newest = Arc::clone(&newest);
        let done = Arc::clone(&done);
        std::thread::spawn(move || -> Result<(usize, usize, u64), String> {
            let (mut stream, mut rd) = connect(&addr)?;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7772_6974);
            let (mut applied, mut rejected, mut seq) = (0usize, 0usize, 0usize);
            let mut epoch;
            // at least one batch, as in `run_inproc`
            loop {
                let batch = writer_batch(&mut rng, n, cfg.update_batch, cfg.bad_input, seq);
                let mut line = String::from("update");
                for &(u, v, w) in &batch {
                    line.push_str(&format!(" {u} {v} {w}"));
                }
                let resp = send_line(&mut stream, &mut rd, &line)?;
                let (e, toks) = proto::parse_ok(&resp)?;
                epoch = e;
                newest.fetch_max(e, Ordering::AcqRel);
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
                    break;
                }
            }
            let _ = send_line(&mut stream, &mut rd, "quit");
            Ok((applied, rejected, epoch))
        })
    };

    let mut lat_us = Vec::new();
    let mut lags = Vec::new();
    let mut reader_err = None;
    for h in readers {
        match h.join().expect("reader thread") {
            Ok((l, g)) => {
                lat_us.extend(l);
                lags.extend(g);
            }
            Err(e) => reader_err = Some(e),
        }
    }
    done.store(true, Ordering::Release);
    let (applied, rejected, last_epoch) = writer.join().expect("writer thread")?;
    if let Some(e) = reader_err {
        return Err(format!("reader failed: {e}"));
    }
    let duration_s = t0.elapsed().as_secs_f64();
    if cfg.bad_input && rejected == 0 {
        return Err("bad-input mix produced no typed rejections".into());
    }
    Ok(summarize(
        &cfg,
        lat_us,
        lags,
        duration_s,
        last_epoch.max(newest.load(Ordering::Acquire)),
        applied,
        rejected,
    ))
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
        let r = run_inproc(&cfg);
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
    fn percentile_picks_nearest_rank() {
        let v = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
