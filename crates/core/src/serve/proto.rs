//! Line-oriented request/response protocol for `apsp serve`.
//!
//! One request per line (whitespace-separated tokens, case-insensitive
//! command word; blank lines and `#` comments are ignored), one response
//! line per request. Batch-aware by construction: `dist` and `update`
//! carry any number of pairs/triples in a single line, and every answer in
//! the line comes from a single epoch.
//!
//! ```text
//! request                          response
//! -------                          --------
//! dist <s> <t> [<s> <t> …]         ok <epoch> <d> [<d> …]
//! many <s> <t1> [<t2> …]           ok <epoch> <d1> [<d2> …]
//! path <s> <t>                     ok <epoch> <d> via <v0> <v1> … <vk>
//!                                  ok <epoch> unreachable
//! update <u> <v> <w> [<u> <v> <w> …]
//!                                  ok <epoch> applied=<a> rejected=<r> improved=<p>
//!                                     [reject@<i>=<kind> …]
//! epoch                            ok <epoch>
//! info                             ok <epoch> n=<n>
//! quit                             bye            (closes this connection)
//! shutdown                         bye            (stops the whole server)
//! ```
//!
//! Failures never kill the connection: an unparseable line answers
//! `err parse: …`, an out-of-range query vertex answers
//! `err badvertex: …`, and malformed *updates* come back inside the `ok`
//! line as typed per-entry rejections (`reject@<i>=<badvertex|negselfloop|
//! negcycle|nanweight|notadecrease>`) — the server keeps serving, which is
//! what the CI smoke asserts.
//!
//! Distances print as shortest-roundtrip floats; unreachable is `inf`.

use super::engine::Engine;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Batched point-to-point distance queries.
    Dist(Vec<(usize, usize)>),
    /// One source, many targets.
    Many {
        /// Source vertex.
        src: usize,
        /// Target vertices.
        targets: Vec<usize>,
    },
    /// Shortest path with vertex sequence.
    Path {
        /// Source vertex.
        src: usize,
        /// Destination vertex.
        dst: usize,
    },
    /// A writer batch of edge decreases.
    Update(Vec<(usize, usize, f32)>),
    /// Current epoch number.
    Epoch,
    /// Epoch plus matrix size.
    Info,
    /// Close this connection.
    Quit,
    /// Stop the server process.
    Shutdown,
}

/// A response plus connection-control flags.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The response line (no trailing newline).
    pub text: String,
    /// Close this client connection after sending.
    pub close: bool,
    /// Stop the whole server after sending.
    pub shutdown: bool,
}

impl Reply {
    fn line(text: String) -> Reply {
        Reply { text, close: false, shutdown: false }
    }
}

fn parse_usize(tok: &str, what: &str) -> Result<usize, String> {
    tok.parse().map_err(|_| format!("bad {what} '{tok}'"))
}

fn parse_f32(tok: &str) -> Result<f32, String> {
    tok.parse().map_err(|_| format!("bad weight '{tok}'"))
}

/// Parse one request line. `Ok(None)` for blank lines and `#` comments.
pub fn parse(line: &str) -> Result<Option<Request>, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    let Some((&cmd, args)) = toks.split_first() else {
        return Ok(None);
    };
    if cmd.starts_with('#') {
        return Ok(None);
    }
    let req = match cmd.to_ascii_lowercase().as_str() {
        "dist" => {
            if args.is_empty() || !args.len().is_multiple_of(2) {
                return Err("dist needs pairs: dist <s> <t> [<s> <t> ...]".into());
            }
            let pairs = args
                .chunks(2)
                .map(|c| Ok((parse_usize(c[0], "vertex")?, parse_usize(c[1], "vertex")?)))
                .collect::<Result<Vec<_>, String>>()?;
            Request::Dist(pairs)
        }
        "many" => {
            if args.len() < 2 {
                return Err("many needs a source and targets: many <s> <t1> [<t2> ...]".into());
            }
            let src = parse_usize(args[0], "vertex")?;
            let targets = args[1..]
                .iter()
                .map(|t| parse_usize(t, "vertex"))
                .collect::<Result<Vec<_>, String>>()?;
            Request::Many { src, targets }
        }
        "path" => {
            if args.len() != 2 {
                return Err("path needs exactly two vertices: path <s> <t>".into());
            }
            Request::Path {
                src: parse_usize(args[0], "vertex")?,
                dst: parse_usize(args[1], "vertex")?,
            }
        }
        "update" => {
            if args.is_empty() || !args.len().is_multiple_of(3) {
                return Err("update needs triples: update <u> <v> <w> [<u> <v> <w> ...]".into());
            }
            let triples = args
                .chunks(3)
                .map(|c| {
                    Ok((
                        parse_usize(c[0], "vertex")?,
                        parse_usize(c[1], "vertex")?,
                        parse_f32(c[2])?,
                    ))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Request::Update(triples)
        }
        "epoch" => Request::Epoch,
        "info" => Request::Info,
        "quit" => Request::Quit,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown command '{other}'")),
    };
    Ok(Some(req))
}

fn fmt_dist(d: f32) -> String {
    if d.is_infinite() {
        "inf".to_string()
    } else {
        format!("{d}")
    }
}

/// Handle one request line end-to-end: parse, execute against `engine`,
/// render. Returns `None` for blank/comment lines (no response is owed).
/// Never panics on malformed input — every failure renders as an `err …`
/// or typed in-line rejection.
pub fn handle_line(engine: &Engine, line: &str) -> Option<Reply> {
    let req = match parse(line) {
        Ok(Some(req)) => req,
        Ok(None) => return None,
        Err(msg) => return Some(Reply::line(format!("err parse: {msg}"))),
    };
    Some(handle(engine, &req))
}

/// Execute a parsed request against the engine and render the response.
pub fn handle(engine: &Engine, req: &Request) -> Reply {
    match req {
        Request::Dist(pairs) => {
            let snap = engine.snapshot();
            match snap.dist_batch(pairs) {
                Ok(ds) => {
                    let vals: Vec<String> = ds.iter().map(|&d| fmt_dist(d)).collect();
                    Reply::line(format!("ok {} {}", snap.epoch(), vals.join(" ")))
                }
                Err(e) => Reply::line(format!("err badvertex: {e}")),
            }
        }
        Request::Many { src, targets } => {
            let snap = engine.snapshot();
            match snap.one_to_many(*src, targets) {
                Ok(ds) => {
                    let vals: Vec<String> = ds.iter().map(|&d| fmt_dist(d)).collect();
                    Reply::line(format!("ok {} {}", snap.epoch(), vals.join(" ")))
                }
                Err(e) => Reply::line(format!("err badvertex: {e}")),
            }
        }
        Request::Path { src, dst } => {
            let snap = engine.snapshot();
            match snap.path(*src, *dst) {
                Ok(Some((d, path))) => {
                    let verts: Vec<String> = path.iter().map(|v| v.to_string()).collect();
                    Reply::line(format!(
                        "ok {} {} via {}",
                        snap.epoch(),
                        fmt_dist(d),
                        verts.join(" ")
                    ))
                }
                Ok(None) => Reply::line(format!("ok {} unreachable", snap.epoch())),
                Err(e) => Reply::line(format!("err badvertex: {e}")),
            }
        }
        Request::Update(triples) => {
            let out = engine.apply(triples);
            let mut text = format!(
                "ok {} applied={} rejected={} improved={}",
                out.epoch,
                out.report.applied,
                out.report.rejected(),
                out.report.improved
            );
            for (i, e) in out.report.rejections() {
                text.push_str(&format!(" reject@{i}={e}"));
            }
            Reply::line(text)
        }
        Request::Epoch => Reply::line(format!("ok {}", engine.latest_epoch())),
        Request::Info => {
            let snap = engine.snapshot();
            Reply::line(format!("ok {} n={}", snap.epoch(), snap.n()))
        }
        Request::Quit => Reply { text: "bye".into(), close: true, shutdown: false },
        Request::Shutdown => Reply { text: "bye".into(), close: true, shutdown: true },
    }
}

/// Parse an `ok <epoch> …` response line into (epoch, payload tokens).
/// The load generator uses this to check per-batch epoch consistency from
/// the wire format alone.
pub fn parse_ok(line: &str) -> Result<(u64, Vec<String>), String> {
    let mut toks = line.split_whitespace();
    match toks.next() {
        Some("ok") => {}
        _ => return Err(format!("expected 'ok …', got '{line}'")),
    }
    let epoch = toks
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("missing epoch in '{line}'"))?;
    Ok((epoch, toks.map(String::from).collect()))
}

/// Parse a distance token as rendered by the server (`inf` or a float).
pub fn parse_dist_tok(tok: &str) -> Result<f32, String> {
    if tok == "inf" {
        return Ok(f32::INFINITY);
    }
    tok.parse().map_err(|_| format!("bad distance token '{tok}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apsp_graph::generators::{self, WeightKind};
    use proptest::prelude::*;

    fn engine() -> Engine {
        let g = generators::erdos_renyi(16, 0.3, WeightKind::small_ints(), 5);
        Engine::solve_from_graph(&g, 8)
    }

    #[test]
    fn parses_the_full_grammar() {
        assert_eq!(
            parse("dist 0 1 2 3").unwrap().unwrap(),
            Request::Dist(vec![(0, 1), (2, 3)])
        );
        assert_eq!(
            parse("MANY 4 1 2").unwrap().unwrap(),
            Request::Many { src: 4, targets: vec![1, 2] }
        );
        assert_eq!(parse("path 0 5").unwrap().unwrap(), Request::Path { src: 0, dst: 5 });
        assert_eq!(
            parse("update 0 1 2.5").unwrap().unwrap(),
            Request::Update(vec![(0, 1, 2.5)])
        );
        assert_eq!(parse("epoch").unwrap().unwrap(), Request::Epoch);
        assert_eq!(parse("info").unwrap().unwrap(), Request::Info);
        assert_eq!(parse("quit").unwrap().unwrap(), Request::Quit);
        assert_eq!(parse("shutdown").unwrap().unwrap(), Request::Shutdown);
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("# comment").unwrap(), None);
        assert!(parse("dist 0").is_err()); // odd pair count
        assert!(parse("update 0 1").is_err()); // incomplete triple
        assert!(parse("frobnicate").is_err());
    }

    #[test]
    fn dist_and_path_answers_carry_one_epoch() {
        let e = engine();
        let r = handle_line(&e, "dist 0 1 1 2 2 3").unwrap();
        let (epoch, vals) = parse_ok(&r.text).unwrap();
        assert_eq!(epoch, 0);
        assert_eq!(vals.len(), 3);
        for v in &vals {
            parse_dist_tok(v).unwrap();
        }
        let r = handle_line(&e, "path 0 7").unwrap();
        assert!(r.text.starts_with("ok 0 "));
    }

    #[test]
    fn bad_input_is_a_typed_error_not_a_crash() {
        let e = engine();
        // unparseable line
        let r = handle_line(&e, "dist zero one").unwrap();
        assert!(r.text.starts_with("err parse:"), "{}", r.text);
        // out-of-range query
        let r = handle_line(&e, "dist 0 9999").unwrap();
        assert!(r.text.starts_with("err badvertex:"), "{}", r.text);
        // out-of-range update: typed in-line rejection, epoch unchanged
        let r = handle_line(&e, "update 0 9999 1.0").unwrap();
        assert_eq!(r.text, "ok 0 applied=0 rejected=1 improved=0 reject@0=badvertex");
        // negative self-loop and NaN
        let r = handle_line(&e, "update 3 3 -1 0 1 NaN").unwrap();
        assert!(r.text.contains("reject@0=negselfloop"), "{}", r.text);
        assert!(r.text.contains("reject@1=nanweight"), "{}", r.text);
        // the server still answers queries afterwards
        let r = handle_line(&e, "info").unwrap();
        assert_eq!(r.text, "ok 0 n=16");
        assert!(!r.close && !r.shutdown);
    }

    #[test]
    fn updates_advance_the_epoch_and_later_queries_see_it() {
        let e = engine();
        let r = handle_line(&e, "update 0 9 0.5").unwrap();
        assert!(r.text.starts_with("ok 1 applied=1"), "{}", r.text);
        let r = handle_line(&e, "dist 0 9").unwrap();
        let (epoch, vals) = parse_ok(&r.text).unwrap();
        assert_eq!(epoch, 1);
        assert!(parse_dist_tok(&vals[0]).unwrap() <= 0.5);
        let r = handle_line(&e, "epoch").unwrap();
        assert_eq!(r.text, "ok 1");
    }

    #[test]
    fn quit_and_shutdown_set_their_flags() {
        let e = engine();
        let q = handle_line(&e, "quit").unwrap();
        assert!(q.close && !q.shutdown);
        let s = handle_line(&e, "shutdown").unwrap();
        assert!(s.close && s.shutdown);
    }

    /// First words of a hostile line: every verb, other spellings, junk.
    const VERBS: [&str; 14] = [
        "dist", "many", "path", "update", "epoch", "info", "quit", "shutdown", "DIST", "Update",
        "frob", "#", "", "ü",
    ];
    /// Arguments besides the small vertices `0..=16` (16 is out of range):
    /// huge, negative, signed zero, non-finite, beyond `f32`, fractional,
    /// empty and non-ASCII.
    const HOSTILE: [&str; 20] = [
        "4294967296", "18446744073709551615", "18446744073709551616", "-1", "-7", "-0", "nan",
        "NaN", "inf", "-inf", "1e40", "-1e40", "0.5", "2.25", "1e-40", "", "ü", "∞", "٣", "𝟙",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn hostile_lines_get_a_typed_reply_and_never_panic(
            verb in 0..VERBS.len(),
            args in prop_oneof![2 => 0usize..7, 1 => 0usize..41].prop_flat_map(|len| {
                let token = prop_oneof![
                    2 => (0usize..17).prop_map(|v| v.to_string()),
                    1 => (0..HOSTILE.len()).prop_map(|i| HOSTILE[i].to_string()),
                ];
                proptest::collection::vec(token, len)
            }),
        ) {
            // one engine across cases, so accepted updates pile up as they
            // would on a long-lived server
            static ENGINE: std::sync::OnceLock<Engine> = std::sync::OnceLock::new();
            let e = ENGINE.get_or_init(engine);
            let words: Vec<String> = std::iter::once(VERBS[verb].to_string()).chain(args).collect();
            let line = words.join(" ");
            match handle_line(e, &line) {
                Some(r) => prop_assert!(
                    (r.text == "bye" || r.text.starts_with("ok ") || r.text.starts_with("err "))
                        && !r.text.contains('\n'),
                    "{line:?} -> {:?}",
                    r.text
                ),
                None => prop_assert!(
                    line.split_whitespace().next().is_none_or(|w| w.starts_with('#')),
                    "{line:?} got no reply"
                ),
            }
        }
    }
}
