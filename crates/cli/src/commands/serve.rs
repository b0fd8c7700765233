//! `apsp serve` — stand up the epoch-snapshot query engine over a graph
//! and speak the line protocol on stdin or TCP.
//!
//! The graph is solved once at startup (witness-annotated closure, so
//! `path` queries work); after that every line is a batched request
//! answered against a consistent epoch. Malformed input gets a typed
//! `err …` line, never a crash — CI's `serve-smoke` job feeds this
//! command garbage on purpose.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

use apsp_core::serve::{handle_line, Engine, Reply};

use crate::args::Args;

const HELP: &str = "apsp serve — serve APSP queries over a solved graph

USAGE:
    apsp serve --input FILE [--format dimacs|edges] [--block N] [--listen ADDR]

OPTIONS:
    --input FILE     graph file to solve and serve (required)
    --format FMT     file format override (default: by extension)
    --block N        blocked-FW tile size for the startup solve [default: 64]
    --listen ADDR    serve TCP on ADDR (e.g. 127.0.0.1:4711) instead of stdin

PROTOCOL (one request per line; '#' starts a comment):
    dist s t [s t ...]      batched point-to-point distances
    many s t1 t2 ...        one source to many targets
    path s t                distance plus the reconstructed route
    update u v w [u v w..]  decrease-only edge batch; publishes a new epoch
    epoch | info            current epoch / matrix size
    quit                    close this connection (or stdin session)
    shutdown                stop the whole server

Replies are 'ok <epoch> …' or 'err <kind>: …'; rejected updates come back
in-line as 'reject@<i>=<kind>' tokens. Bad input never kills the server.";

/// Entry point for `apsp serve`.
pub fn run(argv: &[String]) -> Result<(), String> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let args = Args::parse(argv)?;
    let input: String = args.req("input")?;
    let block: usize = args.opt("block", 64)?;
    if block == 0 {
        return Err("--block must be positive".into());
    }

    let g = super::load_graph(&input, args.opt_str("format"))?;
    let t0 = Instant::now();
    let engine = Arc::new(Engine::solve_from_graph(&g, block).map_err(|e| e.to_string())?);
    eprintln!(
        "serve: solved {} (n = {}, m = {}) in {:.3} s; epoch 0 published",
        input,
        g.n(),
        g.m(),
        t0.elapsed().as_secs_f64()
    );

    match args.opt_str("listen") {
        Some(addr) => {
            let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            serve_tcp(engine, listener)
        }
        None => serve_stdin(&engine),
    }
}

/// Longest request line a session accepts, newline excluded. A 32-pair
/// `dist` line is under 1 KiB; `many s t1 … tn` at n = 10⁵ is about 0.6 MB.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One request/response session — stdin/stdout, or one TCP connection.
/// Returns whether the peer asked for the whole server to stop.
///
/// A line is read through a `MAX_LINE_BYTES + 1` window, so a peer that
/// never sends a newline costs one buffer of that size and one typed reply,
/// and loses its session.
fn session(engine: &Engine, mut reader: impl BufRead, mut writer: impl Write) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    loop {
        buf.clear();
        if reader.by_ref().take(MAX_LINE_BYTES as u64 + 1).read_until(b'\n', &mut buf)? == 0 {
            return Ok(false);
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        }
        let mut reply = if buf.len() > MAX_LINE_BYTES {
            Reply { text: format!("err parse: line exceeds {MAX_LINE_BYTES} bytes"), close: true, shutdown: false }
        } else {
            // bytes that are not UTF-8 become U+FFFD, which no request token
            // accepts: they come back as `err parse:` like any other typo
            match handle_line(engine, &String::from_utf8_lossy(&buf)) {
                Some(reply) => reply,
                None => continue,
            }
        };
        // one write per reply: a TCP peer gets the line in one segment
        reply.text.push('\n');
        writer.write_all(reply.text.as_bytes())?;
        writer.flush()?;
        if reply.close || reply.shutdown {
            return Ok(reply.shutdown);
        }
    }
}

fn serve_stdin(engine: &Engine) -> Result<(), String> {
    session(engine, std::io::stdin().lock(), std::io::stdout().lock()).map_err(|e| format!("stdio: {e}"))?;
    eprintln!("serve: session closed");
    Ok(())
}

/// Accept connections on `listener`, one session thread each, until a peer
/// sends `shutdown`. Then the read side of every connection still open is
/// shut down, which ends its session as if the peer had closed, and every
/// session thread is joined: an idle peer cannot keep the server running.
fn serve_tcp(engine: Arc<Engine>, listener: TcpListener) -> Result<(), String> {
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    eprintln!("serve: listening on {local}");
    let stop = Arc::new(AtomicBool::new(false));

    // each session thread, beside a handle to its connection that lives
    // only as long as the session holds the connection
    let mut workers: Vec<(Weak<TcpStream>, std::thread::JoinHandle<()>)> = Vec::new();
    for conn in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("serve: accept: {e}");
                continue;
            }
        };
        let engine = Arc::clone(&engine);
        let conn_stop = Arc::clone(&stop);
        workers.retain(|(_, w)| !w.is_finished());
        let handle = Arc::downgrade(&stream);
        let worker = std::thread::spawn(move || match serve_conn(&engine, &stream) {
            Ok(true) => {
                conn_stop.store(true, Ordering::Release);
                // wake the accept loop so it can observe the stop flag
                TcpStream::connect(local).ok();
            }
            Ok(false) => {}
            Err(e) => eprintln!("serve: connection: {e}"),
        });
        workers.push((handle, worker));
        // a shutdown handled on the connection we just spawned may have
        // raced past the top-of-loop check; re-check before blocking in
        // accept again (the handler wakes us with a dummy connection)
        if stop.load(Ordering::Acquire) {
            break;
        }
    }
    for (conn, w) in workers {
        if let Some(conn) = conn.upgrade() {
            conn.shutdown(Shutdown::Read).ok();
        }
        w.join().ok();
    }
    eprintln!("serve: shut down");
    Ok(())
}

fn serve_conn(engine: &Engine, stream: &TcpStream) -> std::io::Result<bool> {
    stream.set_nodelay(true).ok();
    session(engine, BufReader::new(stream), stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};

    fn engine() -> Engine {
        Engine::solve_from_graph(&generators::erdos_renyi(16, 0.3, WeightKind::small_ints(), 5), 8).unwrap()
    }

    /// Counts the bytes `session` consumes from the reader it wraps.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: BufRead> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for Counting<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }
        fn consume(&mut self, amt: usize) {
            self.consumed += amt;
            self.inner.consume(amt);
        }
    }

    fn replies(out: &[u8]) -> Vec<&str> {
        std::str::from_utf8(out).expect("replies are UTF-8").split_terminator('\n').collect()
    }

    #[test]
    fn a_negative_cycle_is_refused_before_serving() {
        let path = std::env::temp_dir().join(format!("apsp-serve-neg-{}.gr", std::process::id()));
        std::fs::write(&path, "p sp 3 3\na 1 2 -1\na 2 1 -1\na 2 3 1\n").unwrap();
        let argv: Vec<String> = ["--input", path.to_str().unwrap()].map(String::from).into();
        let got = run(&argv);
        std::fs::remove_file(&path).ok();
        assert_eq!(got, Err("graph contains a negative cycle".to_string()));
    }

    #[test]
    fn invalid_utf8_gets_a_typed_reply_and_the_session_goes_on() {
        let mut out = Vec::new();
        let shutdown = session(&engine(), &b"dist 0 1\n\xff\xfe\ndist 0 2\nquit\n"[..], &mut out).unwrap();
        assert!(!shutdown);
        let lines = replies(&out);
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert!(lines[0].starts_with("ok 0 "), "{lines:?}");
        assert!(lines[1].starts_with("err parse:"), "{lines:?}");
        assert!(lines[2].starts_with("ok 0 "), "{lines:?}");
        assert_eq!(lines[3], "bye");
    }

    #[test]
    fn an_endless_line_ends_the_session_after_one_bounded_read() {
        let mut reader = Counting { inner: BufReader::new(std::io::repeat(b'a')), consumed: 0 };
        let mut out = Vec::new();
        let shutdown = session(&engine(), &mut reader, &mut out).unwrap();
        assert!(!shutdown);
        assert_eq!(replies(&out), [format!("err parse: line exceeds {MAX_LINE_BYTES} bytes")]);
        assert!(reader.consumed <= MAX_LINE_BYTES + 1, "pulled {} bytes", reader.consumed);
    }

    #[test]
    fn a_line_of_exactly_the_cap_is_still_handled() {
        // a comment line owes no reply, so the only replies are the ones
        // around it: the line was parsed, not refused
        let mut input = b"#".repeat(MAX_LINE_BYTES);
        input.extend_from_slice(b"\nepoch\n");
        let mut out = Vec::new();
        session(&engine(), &input[..], &mut out).unwrap();
        assert_eq!(replies(&out), ["ok 0"]);

        // one byte more is refused and closes the session before `epoch`
        let mut input = b"#".repeat(MAX_LINE_BYTES + 1);
        input.extend_from_slice(b"\nepoch\n");
        let mut out = Vec::new();
        session(&engine(), &input[..], &mut out).unwrap();
        assert_eq!(replies(&out), [format!("err parse: line exceeds {MAX_LINE_BYTES} bytes")]);
    }

    #[test]
    fn shutdown_is_reported_to_the_caller_and_quit_is_not() {
        let mut out = Vec::new();
        assert!(session(&engine(), &b"shutdown\nepoch\n"[..], &mut out).unwrap());
        assert_eq!(replies(&out).len(), 1);
        assert!(!session(&engine(), &b"quit\n"[..], &mut Vec::new()).unwrap());
    }

    #[test]
    fn shutdown_stops_the_server_while_another_connection_sits_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done, stopped) = std::sync::mpsc::channel();
        let server = std::thread::spawn(move || done.send(serve_tcp(Arc::new(engine()), listener)));
        // a peer that connects and never sends a byte…
        let idle = TcpStream::connect(addr).unwrap();
        // …and one that asks the whole server to stop
        let mut peer = TcpStream::connect(addr).unwrap();
        peer.write_all(b"shutdown\n").unwrap();
        let mut reply = String::new();
        BufReader::new(&peer).read_line(&mut reply).unwrap();
        assert_eq!(reply, "bye\n");
        // the deadline only bounds how long a hang takes to report: the
        // server must return while `idle` is still open
        let stopped = stopped.recv_timeout(std::time::Duration::from_secs(60));
        assert!(matches!(stopped, Ok(Ok(()))), "server still running: {stopped:?}");
        server.join().unwrap().unwrap();
        drop(idle);
    }
}
