//! Graph file I/O: the DIMACS shortest-path `.gr` format (the de-facto
//! interchange format of the 9th DIMACS challenge, used by most SSSP/APSP
//! tooling), a plain edge-list format, and the TSV distance matrix that
//! `apsp solve --out` writes.
//!
//! Both text directions work on bytes (DESIGN.md §17). Input goes through one
//! streaming scanner over fixed-size chunks. An arc record in the common
//! spelling (the tag, then three runs of up to seven digits after blanks) is
//! parsed in one pass, eight digits at a time, and pushed straight into the
//! [`GraphBuilder`]'s columns; any other line is split on `\n` in place and
//! into tokens on ASCII blanks, numbers of up to seven digits parsed by hand
//! and every other spelling by `str::parse`. Output goes through one number
//! formatter, [`write_weight`], into a buffer reused per row. Both parsers are
//! strict about structure but tolerant about blanks; errors carry line
//! numbers.

use std::io::{ErrorKind, Read, Write};
use std::str::FromStr;

use srgemm::Matrix;

use crate::graph::{Graph, GraphBuilder};

/// Parse / write failure with location.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Syntax or semantic problem at 1-based `line`.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        msg: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse { line, msg: msg.into() }
}

/// The CSR stores vertex ids as `u32`; a file naming more vertices than that
/// is refused instead of truncated.
const MAX_VERTICES: usize = u32::MAX as usize;

/// Bytes the scanner asks its source for at a time. Together with the carry
/// buffer (one line at most) this is all the input side holds of the file.
const CHUNK: usize = 64 * 1024;

/// One line as the scanner hands it over.
enum Line<'a> {
    /// A line in the common spelling of an arc record (see [`quick_arc`]),
    /// already parsed: source, target and weight as written.
    Arc([u32; 3]),
    /// Any other line, without its `\n`.
    Text(&'a [u8]),
}

/// Hand every line of `r` to `record` with its 1-based number, without its
/// `\n`; the last line needs none. A line inside one chunk that
/// [`quick_arc`] reads, with `tag` as its record tag, is handed over parsed;
/// any other line inside one chunk as a slice of that chunk. Only the line
/// that straddles a chunk boundary is copied, into `carry`: between chunks
/// `carry` holds exactly the bytes of the unfinished line seen so far, so a
/// line of any length, delivered in pieces of any size, reaches `record`
/// whole.
fn scan_lines(
    mut r: impl Read,
    tag: &[u8],
    mut record: impl FnMut(usize, Line) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut chunk = vec![0u8; CHUNK];
    let mut carry: Vec<u8> = Vec::new();
    let mut line = 0usize;
    loop {
        let len = match r.read(&mut chunk) {
            Ok(0) => break,
            Ok(len) => len,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let mut rest = &chunk[..len];
        loop {
            if carry.is_empty() {
                if let Some((arc, used)) = quick_arc(rest, tag) {
                    line += 1;
                    record(line, Line::Arc(arc))?;
                    rest = &rest[used..];
                    continue;
                }
            }
            let Some(nl) = find_newline(rest) else { break };
            line += 1;
            if carry.is_empty() {
                record(line, Line::Text(&rest[..nl]))?;
            } else {
                carry.extend_from_slice(&rest[..nl]);
                record(line, Line::Text(&carry))?;
                carry.clear();
            }
            rest = &rest[nl + 1..];
        }
        carry.extend_from_slice(rest);
    }
    if !carry.is_empty() {
        record(line + 1, Line::Text(&carry))?;
    }
    Ok(())
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// `s.iter().position(|&b| b == b'\n')`, eight bytes at a step: a word XORed
/// with eight `\n`s has a zero byte where the line ends, and
/// `(v - 0x01…) & !v & 0x80…` marks the lowest zero byte of `v` exactly (what
/// it may mark above that one is never read). Lines here are a dozen bytes, so
/// this is two steps, not twelve, per line: 59 → 50 ms on a 12.8 MB file.
fn find_newline(s: &[u8]) -> Option<usize> {
    let mut words = s.chunks_exact(8);
    let mut at = 0;
    for word in words.by_ref() {
        let v = u64::from_le_bytes(word.try_into().expect("chunks_exact(8) yields 8 bytes"))
            ^ (ONES * u64::from(b'\n'));
        let zero = v.wrapping_sub(ONES) & !v & HIGHS;
        if zero != 0 {
            return Some(at + (zero.trailing_zeros() / 8) as usize);
        }
        at += 8;
    }
    words.remainder().iter().position(|&b| b == b'\n').map(|i| at + i)
}

/// What separates tokens and may pad a line: the ASCII members of
/// `char::is_whitespace` other than `\n` (so `\r\n` line ends cost nothing).
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// The blank-separated tokens of one line.
struct Tokens<'a>(&'a [u8]);

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let start = self.0.iter().position(|&b| !is_blank(b))?;
        let rest = &self.0[start..];
        let end = rest.iter().position(|&b| is_blank(b)).unwrap_or(rest.len());
        self.0 = &rest[end..];
        Some(&rest[..end])
    }
}

/// The value of a token of one to seven ASCII digits. It is below 10⁷ < 2²⁴,
/// so it is exact as a vertex id and as an `f32` weight alike, and equals
/// what `str::parse` returns for the same token.
fn small_uint(tok: &[u8]) -> Option<u32> {
    if tok.is_empty() || tok.len() > 7 {
        return None;
    }
    tok.iter().try_fold(0u32, |v, &b| {
        let d = b.wrapping_sub(b'0');
        (d <= 9).then(|| v * 10 + u32::from(d))
    })
}

/// The value and length of the run of one to seven ASCII digits that
/// `word` starts with, or `None` if it starts with eight digits or none.
/// The digits are read all at once (SWAR). Byte by byte, `d = b ^ b'0'` is
/// below 10 exactly for a digit, and `(d & 0x7f) + 0x76 | d` has its high
/// bit set exactly when `d ≥ 10`, with no carry into the next byte, so the
/// lowest marked byte ends the run. Shifted to the top of the word, the run
/// is an eight-digit number with leading zeros, folded in three multiplies:
/// neighbouring digits into pairs, then the pairs into the value. That value
/// is what [`small_uint`] returns for the same bytes.
fn swar_digits(word: [u8; 8]) -> Option<(u32, usize)> {
    let d = u64::from_le_bytes(word) ^ (ONES * u64::from(b'0'));
    let non_digit = (((d & !HIGHS) + ONES * 0x76) | d) & HIGHS;
    let len = (non_digit.trailing_zeros() / 8) as usize;
    if len == 0 || len == 8 {
        return None;
    }
    let digits = d << (64 - 8 * len);
    let pairs = digits * 10 + (digits >> 8);
    const EVERY_FOURTH: u64 = 0x0000_00FF_0000_00FF;
    let value = (pairs & EVERY_FOURTH)
        .wrapping_mul(100 + (1_000_000 << 32))
        .wrapping_add(((pairs >> 16) & EVERY_FOURTH).wrapping_mul(1 + (10_000 << 32)))
        >> 32;
    Some((value as u32, len))
}

/// The arc that `s` starts with, and its length with the `\n`, if its first
/// line is spelled the common way: `tag`, then three runs of one to seven
/// ASCII digits, each after blanks (the first right at the start when `tag`
/// is empty), then blanks or nothing, then `\n`. Every run must also have
/// eight bytes of `s` from its start on. Any other line is left to
/// [`Tokens`], which reads a line spelled this way to the same numbers
/// ([`small_uint`] on each token), so this decides nothing but speed.
fn quick_arc(s: &[u8], tag: &[u8]) -> Option<([u32; 3], usize)> {
    let skip_blanks = |mut at: usize| {
        while s.get(at).copied().is_some_and(is_blank) {
            at += 1;
        }
        at
    };
    let mut at = s.strip_prefix(tag).map(|_| tag.len())?;
    let mut arc = [0u32; 3];
    for (i, slot) in arc.iter_mut().enumerate() {
        if i > 0 || !tag.is_empty() {
            let run = skip_blanks(at);
            if run == at {
                return None;
            }
            at = run;
        }
        let word = s.get(at..at + 8)?.try_into().expect("a slice of eight bytes");
        let (value, len) = swar_digits(word)?;
        *slot = value;
        at += len;
    }
    at = skip_blanks(at);
    (s.get(at) == Some(&b'\n')).then_some((arc, at + 1))
}

/// Every spelling [`small_uint`] declines (sign, point, exponent, `inf`,
/// eight digits and more) is `str::parse`'s to accept or refuse.
fn parse_std<T: FromStr>(tok: &[u8]) -> Option<T> {
    std::str::from_utf8(tok).ok()?.parse().ok()
}

fn parse_id(tok: &[u8]) -> Option<usize> {
    small_uint(tok).map(|v| v as usize).or_else(|| parse_std(tok))
}

fn parse_weight(tok: &[u8]) -> Option<f32> {
    small_uint(tok).map(|v| v as f32).or_else(|| parse_std(tok))
}

fn end_of_record(line: usize, toks: &mut Tokens) -> Result<(), IoError> {
    match toks.next() {
        None => Ok(()),
        Some(_) => Err(parse_err(line, "trailing tokens")),
    }
}

/// A comment is free text, but still text.
fn check_comment(line: usize, bytes: &[u8]) -> Result<(), IoError> {
    std::str::from_utf8(bytes).map(drop).map_err(|_| parse_err(line, "invalid UTF-8"))
}

/// `<src> <dst> <weight>` and nothing after it: the body of a DIMACS `a`
/// record and the whole of an edge-list record. Ids are as written.
fn parse_arc(line: usize, toks: &mut Tokens) -> Result<(usize, usize, f32), IoError> {
    let u = toks.next().and_then(parse_id).ok_or_else(|| parse_err(line, "bad source"))?;
    let v = toks.next().and_then(parse_id).ok_or_else(|| parse_err(line, "bad target"))?;
    let w = toks.next().and_then(parse_weight).ok_or_else(|| parse_err(line, "bad weight"))?;
    end_of_record(line, toks)?;
    Ok((u, v, w))
}

/// What [`GraphBuilder::add_edge`] asserts, as a typed error carrying the
/// line: both ids (as written in the file, `first` being the lowest valid
/// one) name one of at most `n` vertices, and the weight is a number.
fn check_arc(line: usize, (u, v, w): (usize, usize, f32), first: usize, n: usize) -> Result<(), IoError> {
    for id in [u, v] {
        if id < first || id - first >= n {
            return Err(parse_err(line, format!("vertex {id} exceeds the {n} vertices allowed (numbered from {first})")));
        }
    }
    if w.is_nan() {
        return Err(parse_err(line, "weight is NaN"));
    }
    Ok(())
}

/// Read a DIMACS `.gr` file:
///
/// ```text
/// c comment
/// p sp <n> <m>
/// a <src> <dst> <weight>     # vertices are 1-based
/// ```
pub fn read_dimacs(r: impl Read) -> Result<Graph, IoError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;

    scan_lines(r, b"a", |line, record| {
        let arc = match record {
            Line::Arc([u, v, w]) => Ok((u as usize, v as usize, w as f32)),
            Line::Text(bytes) => {
                let mut toks = Tokens(bytes);
                let Some(tag) = toks.next() else { return Ok(()) };
                match tag {
                    // a parse error here ranks below a missing problem line
                    b"a" => parse_arc(line, &mut toks),
                    b"p" => {
                        if builder.is_some() {
                            return Err(parse_err(line, "duplicate problem line"));
                        }
                        let kind = toks.next().ok_or_else(|| parse_err(line, "missing problem kind"))?;
                        if kind != b"sp" {
                            let kind = String::from_utf8_lossy(kind);
                            return Err(parse_err(line, format!("unsupported problem kind '{kind}'")));
                        }
                        n = toks
                            .next()
                            .and_then(parse_id)
                            .filter(|&n| n <= MAX_VERTICES)
                            .ok_or_else(|| parse_err(line, "bad vertex count"))?;
                        declared_edges =
                            toks.next().and_then(parse_id).ok_or_else(|| parse_err(line, "bad edge count"))?;
                        end_of_record(line, &mut toks)?;
                        // the declared count is checked at the end and sizes
                        // nothing: a hostile `p` line cannot make the reader
                        // allocate
                        builder = Some(GraphBuilder::new(n));
                        return Ok(());
                    }
                    _ if tag[0] == b'c' => return check_comment(line, bytes),
                    _ => {
                        let tag = String::from_utf8_lossy(tag);
                        return Err(parse_err(line, format!("unknown record '{tag}'")));
                    }
                }
            }
        };
        let b = builder.as_mut().ok_or_else(|| parse_err(line, "arc before problem line"))?;
        let (u, v, w) = arc?;
        if u == 0 || v == 0 {
            return Err(parse_err(line, "DIMACS vertices are 1-based"));
        }
        check_arc(line, (u, v, w), 1, n)?;
        b.add_edge(u - 1, v - 1, w);
        seen_edges += 1;
        Ok(())
    })?;
    let b = builder.ok_or_else(|| parse_err(0, "missing problem line"))?;
    if seen_edges != declared_edges {
        return Err(parse_err(
            0,
            format!("problem line declared {declared_edges} arcs, file has {seen_edges}"),
        ));
    }
    Ok(b.build())
}

/// Read a whitespace-separated edge list: `src dst weight` per line
/// (0-based vertices), `#` comments. Vertex count is `1 + max id`, or the
/// `n` override.
pub fn read_edge_list(r: impl Read, n: Option<usize>) -> Result<Graph, IoError> {
    let limit = n.unwrap_or(MAX_VERTICES);
    // sized by the override or the u32 CSR's limit until the last edge is in
    let mut b = GraphBuilder::new(limit);
    let mut max_v = 0usize;
    scan_lines(r, b"", |line, record| {
        let (u, v, w) = match record {
            Line::Arc([u, v, w]) => (u as usize, v as usize, w as f32),
            Line::Text(bytes) => {
                match bytes.iter().find(|&&b| !is_blank(b)) {
                    None => return Ok(()),
                    Some(b'#') => return check_comment(line, bytes),
                    Some(_) => {}
                }
                parse_arc(line, &mut Tokens(bytes))?
            }
        };
        check_arc(line, (u, v, w), 0, limit)?;
        max_v = max_v.max(u).max(v);
        b.add_edge(u, v, w);
        Ok(())
    })?;
    if n.is_none() {
        b.shrink_vertices(if b.is_empty() { 0 } else { max_v + 1 });
    }
    Ok(b.build())
}

fn write_uint(out: &mut Vec<u8>, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `w` exactly as `format!("{w}")` spells it, without the formatting
/// machinery for the common case. A whole number of magnitude below 2²⁴ is
/// exactly an integer that `Display` prints digit for digit, so its digits
/// are written directly; everything else (`inf`, NaN, `-0`, fractions, 2²⁴
/// and above, where `Display` prints the shortest digits that round-trip,
/// not the exact integer) goes through `Display` itself.
pub fn write_weight(out: &mut Vec<u8>, w: f32) {
    let a = w.abs();
    if a < 16_777_216.0 && a == (a as u32) as f32 && (a != 0.0 || w.is_sign_positive()) {
        if w < 0.0 {
            out.push(b'-');
        }
        write_uint(out, a as usize);
    } else {
        write!(out, "{w}").expect("writing to a Vec cannot fail");
    }
}

/// Every edge as `<tag><src> <dst> <weight>\n`, ids counted from `first`: one
/// `write_all` per source vertex, so `w` should be buffered.
fn write_arcs(g: &Graph, w: &mut impl Write, tag: &[u8], first: usize) -> Result<(), IoError> {
    let mut records = Vec::new();
    for u in 0..g.n() {
        let (targets, weights) = g.out_edges(u);
        records.clear();
        for (&v, &wt) in targets.iter().zip(weights) {
            records.extend_from_slice(tag);
            write_uint(&mut records, u + first);
            records.push(b' ');
            write_uint(&mut records, v as usize + first);
            records.push(b' ');
            write_weight(&mut records, wt);
            records.push(b'\n');
        }
        w.write_all(&records)?;
    }
    Ok(())
}

/// Write a graph in DIMACS `.gr` form (1-based vertices).
pub fn write_dimacs(g: &Graph, mut w: impl Write) -> Result<(), IoError> {
    writeln!(w, "c generated by apsp-fw")?;
    writeln!(w, "p sp {} {}", g.n(), g.m())?;
    write_arcs(g, &mut w, b"a ", 1)
}

/// Write a 0-based edge list.
pub fn write_edge_list(g: &Graph, mut w: impl Write) -> Result<(), IoError> {
    writeln!(w, "# apsp-fw edge list: src dst weight ({} vertices)", g.n())?;
    write_arcs(g, &mut w, b"", 0)
}

/// Write a matrix as TSV, one line per row, each value as `format!("{}")`
/// spells it (`inf` where unreachable): what `apsp solve --out` produces.
/// One `write_all` per row, from a buffer of one row.
pub fn write_tsv(d: &Matrix<f32>, mut w: impl Write) -> Result<(), IoError> {
    let mut row = Vec::new();
    for i in 0..d.rows() {
        row.clear();
        for &v in d.row(i) {
            write_weight(&mut row, v);
            row.push(b'\t');
        }
        row.pop();
        row.push(b'\n');
        w.write_all(&row)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};
    use proptest::prelude::*;

    /// A source that yields one byte per `read`, so that every line reaches
    /// the parser through the carry buffer.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.0.split_first(), buf.first_mut()) {
                (Some((&b, rest)), Some(slot)) => {
                    *slot = b;
                    self.0 = rest;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    /// What a read came to: vertex count and edges, or the parse error's
    /// line and message.
    type Outcome = Result<(usize, Vec<(usize, usize, f32)>), (usize, String)>;

    fn outcome(r: Result<Graph, IoError>) -> Outcome {
        match r {
            Ok(g) => Ok((g.n(), g.edges().collect())),
            Err(IoError::Parse { line, msg }) => Err((line, msg)),
            Err(IoError::Io(e)) => panic!("an in-memory read cannot fail: {e}"),
        }
    }

    /// Parse `text` whole and one byte at a time; both must agree.
    fn dimacs(text: &[u8]) -> Outcome {
        let whole = outcome(read_dimacs(text));
        assert_eq!(whole, outcome(read_dimacs(Trickle(text))), "chunking changed the result");
        whole
    }

    fn edge_list(text: &[u8], n: Option<usize>) -> Outcome {
        let whole = outcome(read_edge_list(text, n));
        assert_eq!(whole, outcome(read_edge_list(Trickle(text), n)), "chunking changed the result");
        whole
    }

    fn assert_rejected(got: Outcome, line: usize, needle: &str, text: &[u8]) {
        let text = String::from_utf8_lossy(text);
        match got {
            Err((at, msg)) => {
                assert_eq!(at, line, "{text:?}: {msg}");
                assert!(msg.contains(needle), "{text:?}: '{msg}' lacks '{needle}'");
            }
            Ok(g) => panic!("{text:?} parsed as {g:?}"),
        }
    }

    #[test]
    fn find_newline_is_position() {
        // beside `\n`: the 0x0b whose XOR with it is the 0x01 that the
        // zero-byte trick may flag above a real hit, and a high-bit byte,
        // which the `& !v` term has to clear
        let alphabet = [b'\n', 0x0b, 0xff, b'x'];
        for seed in 0..4096usize {
            let bytes: Vec<u8> = (0..11).map(|i| alphabet[(seed >> (2 * (i % 6))) % 4]).collect();
            for from in 0..bytes.len() {
                let s = &bytes[from..];
                assert_eq!(find_newline(s), s.iter().position(|&b| b == b'\n'), "{s:?}");
            }
        }
        assert_eq!(find_newline(b""), None);
    }

    #[test]
    fn swar_digits_is_small_uint_on_every_run_length_and_stop_byte() {
        // every length, leading zeros included, a spread of values, and
        // after the run each kind of byte that ends one
        for len in 1..=8usize {
            let top = 10u64.pow(len as u32);
            for value in (0..top).step_by((top / 4000).max(1) as usize).chain([top - 1]) {
                let digits = format!("{value:0len$}");
                for stop in [b' ', b'\n', b'x', b'/', b':', 0x80, 0xff, b'0' ^ 0x80] {
                    let mut word = [stop; 8];
                    word[..len].copy_from_slice(digits.as_bytes());
                    let want = small_uint(digits.as_bytes()).map(|v| (v, len));
                    assert_eq!(swar_digits(word), want, "{digits:?} then {stop:#x}");
                }
            }
        }
        assert_eq!(swar_digits(*b" 1234567"), None);
        assert_eq!(swar_digits(*b"12345678"), None);
    }

    /// Picks from a proptest sample, each below its bound.
    struct Picks(std::vec::IntoIter<u32>);

    impl Picks {
        fn below(&mut self, bound: u32) -> u32 {
            self.0.next().expect("enough picks") % bound
        }
        fn one<'a, T>(&mut self, of: &'a [T]) -> &'a T {
            &of[self.below(of.len() as u32) as usize]
        }
    }

    /// One arc line without its tag: mostly the common spelling of ids in
    /// `1..=9`, with leading zeros, every blank kind, trailing blanks and
    /// `\r\n`; now and then a run of up to nine digits, a sign, a point,
    /// `inf`, non-ASCII, a missing blank, or a token too few or too many.
    fn arc_body(p: &mut Picks) -> Vec<u8> {
        const BLANKS: [u8; 5] = [b' ', b'\t', b'\r', 0x0b, 0x0c];
        const ODD: [&str; 12] = ["+3", "-1", "2.0", "2e0", "inf", "1x", "x", "\u{e9}", "\u{a0}1", ".5", "3.", "nan"];
        let tokens = match p.below(16) {
            0 => 2,
            1 => 4,
            _ => 3,
        };
        let mut line = Vec::new();
        for _ in 0..tokens {
            // mostly one blank, now and then two, or none (tokens run together)
            let blanks = match p.below(16) {
                0 => 0,
                1..=3 => 2,
                _ => 1,
            };
            for _ in 0..blanks {
                line.push(*p.one(&BLANKS));
            }
            match p.below(12) {
                0 => line.extend_from_slice(p.one(&ODD).as_bytes()),
                1 => {
                    for _ in 0..1 + p.below(9) {
                        line.push(b'0' + p.below(10) as u8);
                    }
                }
                _ => {
                    line.extend(std::iter::repeat_n(b'0', p.below(8) as usize / 3));
                    line.push(b'1' + p.below(9) as u8);
                }
            }
        }
        for _ in 0..p.below(6) / 3 {
            line.push(*p.one(&BLANKS));
        }
        if p.below(4) == 0 {
            line.push(b'\r');
        }
        line
    }

    /// `arc_body` is in the common spelling: three runs of one to seven
    /// digits, each after blanks, then blanks.
    fn common_spelling(body: &[u8]) -> bool {
        let runs: Vec<&[u8]> = Tokens(body).collect();
        body.first().is_some_and(|&b| is_blank(b))
            && runs.len() == 3
            && runs.iter().all(|t| (1..=7).contains(&t.len()) && t.iter().all(u8::is_ascii_digit))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fast path takes exactly the lines of the common spelling and
        /// reads them as the tokenizer does; whole files read the same
        /// through a slice, where the fast path takes those lines, and one
        /// byte per `read`, where every line is carried and tokenized.
        #[test]
        fn the_arc_fast_path_and_the_tokenizer_agree(picks in proptest::collection::vec(any::<u32>(), 400)) {
            let mut p = Picks(picks.into_iter());
            let bodies: Vec<Vec<u8>> = (0..1 + p.below(6)).map(|_| arc_body(&mut p)).collect();
            // after every line, at least eight bytes for the last word load
            let pad = b"c padding\n";
            for body in &bodies {
                let line = [b"a".as_slice(), body, b"\n", pad].concat();
                let quick = quick_arc(&line, b"a");
                prop_assert_eq!(quick.is_some(), common_spelling(body), "{:?}", String::from_utf8_lossy(&line));
                if let Some((arc, used)) = quick {
                    prop_assert_eq!(used, body.len() + 2);
                    let mut toks = Tokens(body);
                    let slow = parse_arc(1, &mut toks).expect("the tokenizer reads it too");
                    prop_assert_eq!((arc[0] as usize, arc[1] as usize, arc[2] as f32), slow);
                }
                // the same line as an edge list record, whose first run
                // takes no blank before it
                if is_blank(body[0]) {
                    let edge = [&body[1..], b"\n", pad].concat();
                    let want = quick.filter(|_| !is_blank(body[1])).map(|(arc, used)| (arc, used - 2));
                    prop_assert_eq!(quick_arc(&edge, b""), want);
                }
            }
            let mut gr = format!("p sp 9 {}\n", bodies.len()).into_bytes();
            let mut edges = Vec::new();
            for body in &bodies {
                gr.extend_from_slice(&[b"a".as_slice(), body, b"\n"].concat());
                edges.extend_from_slice(&[&body[1..], b"\n"].concat());
            }
            gr.extend_from_slice(pad);
            // each helper asserts that the two sources agree
            let _ = dimacs(&gr);
            let _ = edge_list(&edges, Some(10));
        }
    }

    #[test]
    fn blanks_comments_and_line_ends_follow_the_grammar() {
        let one_arc = Ok((2, vec![(0, 1, 3.0)]));
        let long = CHUNK + 100;
        let cases: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
            ("plain", b"p sp 2 1\na 1 2 3\n".to_vec(), b"0 1 3\n".to_vec()),
            ("CRLF", b"p sp 2 1\r\na 1 2 3\r\n".to_vec(), b"0 1 3\r\n".to_vec()),
            ("tabs", b"p\tsp\t2\t1\na\t1\t2\t3\n".to_vec(), b"0\t1\t3\n".to_vec()),
            ("VT and FF", b"p\x0bsp\x0c2 1\na 1\x0b2\x0c3\n".to_vec(), b"0\x0b1\x0c3\n".to_vec()),
            ("leading and trailing blanks", b"  p sp 2 1 \n \t a 1 2 3\t\n".to_vec(), b" \t 0 1 3  \n".to_vec()),
            (
                "comment and empty lines",
                b"c hi\n\n   \nc\np sp 2 1\ncomments need no blank after the c\na 1 2 3\n".to_vec(),
                b"# hi\n\n  \n#\n  # indented\n0 1 3\n".to_vec(),
            ),
            ("no trailing newline", b"p sp 2 1\na 1 2 3".to_vec(), b"0 1 3".to_vec()),
            (
                "a comment longer than a chunk",
                [b"c".repeat(long), b"\np sp 2 1\na 1 2 3\n".to_vec()].concat(),
                [b"#".repeat(long), b"\n0 1 3\n".to_vec()].concat(),
            ),
            (
                "a record longer than a chunk",
                [b"p sp 2 1\na 1".to_vec(), b" ".repeat(long), b"2 3\n".to_vec()].concat(),
                [b"0 1".to_vec(), b" ".repeat(long), b"3\n".to_vec()].concat(),
            ),
        ];
        for (name, gr, edges) in cases {
            assert_eq!(dimacs(&gr), one_arc, "{name} (DIMACS)");
            assert_eq!(edge_list(&edges, None), one_arc, "{name} (edge list)");
        }
    }

    #[test]
    fn a_record_that_straddles_a_chunk_boundary_is_read_whole_and_numbered_right() {
        // a slice hands the scanner exactly CHUNK bytes first: put the
        // boundary inside the third line, for a good and for a bad record
        for (record, want) in [
            ("a 12 34 56.5\n", Ok((40, vec![(11, 33, 56.5)]))),
            ("a 12 3x 56.5\n", Err((3, "bad target".to_string()))),
        ] {
            for inside in 1..record.len() {
                let head = b"p sp 40 1\nc";
                let filler = CHUNK - inside - head.len() - 1;
                let text = [head.to_vec(), b"x".repeat(filler), b"\n".to_vec(), record.into()].concat();
                assert_eq!(text.len(), CHUNK - inside + record.len());
                assert_eq!(dimacs(&text), want, "{inside} bytes of the record in the first chunk");
            }
        }
    }

    #[test]
    fn weight_and_id_spellings_parse_as_std_parses_them() {
        let weights: [(&str, f32); 14] = [
            ("7", 7.0),
            ("0007", 7.0),
            ("0", 0.0),
            ("9999999", 9_999_999.0), // seven digits: the last by hand
            ("12345678", 12_345_678.0), // eight: std
            ("00000001", 1.0),
            ("16777217", 16_777_216.0), // std rounds to nearest even
            ("+5", 5.0),
            ("-3", -3.0),
            ("1e3", 1000.0),
            (".5", 0.5),
            ("4.5", 4.5),
            ("inf", f32::INFINITY),
            ("-0", -0.0),
        ];
        for (text, want) in weights {
            assert_eq!(text.parse::<f32>().unwrap().to_bits(), want.to_bits(), "{text}: the table itself");
            let got = dimacs(format!("p sp 2 1\na 1 2 {text}\n").as_bytes()).unwrap().1[0].2;
            assert_eq!(got.to_bits(), want.to_bits(), "DIMACS weight {text}");
            let got = edge_list(format!("0 1 {text}\n").as_bytes(), None).unwrap().1[0].2;
            assert_eq!(got.to_bits(), want.to_bits(), "edge-list weight {text}");
        }
        for (text, want) in [("3", 3), ("003", 3), ("+3", 3), ("00000003", 3)] {
            let got = dimacs(format!("p sp {text} 1\na {text} 1 1\n").as_bytes());
            assert_eq!(got, Ok((3, vec![(want - 1, 0, 1.0)])), "DIMACS id {text}");
            let got = edge_list(format!("{text} 0 1\n").as_bytes(), None);
            assert_eq!(got, Ok((4, vec![(want, 0, 1.0)])), "edge-list id {text}");
        }
        // ids of eight digits go through std as well (read back from the
        // error, which costs no ten-million-vertex graph)
        let text = b"12345678 0 1\n";
        assert_rejected(edge_list(text, Some(4)), 1, "vertex 12345678 exceeds", text);
    }

    #[test]
    fn malformed_dimacs_is_a_parse_error_at_its_line() {
        let cases: [(&[u8], usize, &str); 27] = [
            (b"p sp 2 1\na x 2 1\n", 2, "bad source"),
            (b"p sp 2 1\na 1 y 1\n", 2, "bad target"),
            (b"c\np sp 2 1\na 1 2 z\n", 3, "bad weight"),
            (b"p sp 2 1\na 1 2\n", 2, "bad weight"),
            (b"p sp 2 1\na -1 2 1\n", 2, "bad source"),
            (b"p sp 2 1\na 1 1.0 1\n", 2, "bad target"),
            (b"p sp 2 1\na 0 1 1\n", 2, "1-based"),
            (b"p sp 2 1\na 5 1 1.0\n", 2, "vertex 5 exceeds"),
            (b"c x\np sp 2 1\na 1 3 1.0\n", 3, "vertex 3 exceeds"),
            // parses as a float, so "bad weight" never fires
            (b"p sp 2 1\na 1 2 nan\n", 2, "NaN"),
            (b"a 1 2 3\n", 1, "arc before problem line"),
            // a bad record before the problem line is reported as early
            (b"a x 2 3\n", 1, "arc before problem line"),
            (b"p sp 2 0\n\np sp 2 0\n", 3, "duplicate problem line"),
            (b"p sp 2 5\na 1 2 1\n", 0, "declared 5 arcs, file has 1"),
            (b"c only\n", 0, "missing problem line"),
            (b"p sp 1 0\nz nonsense\n", 2, "unknown record 'z'"),
            (b"p\n", 1, "missing problem kind"),
            (b"p max 2 1\n", 1, "unsupported problem kind 'max'"),
            (b"p sp\n", 1, "bad vertex count"),
            // a vertex count the u32 CSR cannot index
            (b"p sp 4294967296 0\n", 1, "bad vertex count"),
            (b"p sp 2\n", 1, "bad edge count"),
            (b"p sp 2 1 9\n", 1, "trailing tokens"),
            (b"p sp 2 1\na 1 2 3 4\n", 2, "trailing tokens"),
            (b"p sp 2 1\na 1 2 \xff\n", 2, "bad weight"),
            (b"p sp 2 1\na 1 2 3 \xff\n", 2, "trailing tokens"),
            (b"p sp 1 0\nc caf\xe9\n", 2, "invalid UTF-8"),
            // the declared count is compared at the end and sizes nothing,
            // so a hostile one costs an error message, not memory
            (b"p sp 4 18446744073709551615\n", 0, "declared 18446744073709551615 arcs, file has 0"),
        ];
        for (text, line, needle) in cases {
            assert_rejected(dimacs(text), line, needle, text);
        }
    }

    #[test]
    fn malformed_edge_lists_are_parse_errors_at_their_line() {
        let cases: [(&[u8], Option<usize>, usize, &str); 11] = [
            (b"0 1 1\nx 1 1\n", None, 2, "bad source"),
            (b"0 1 1\n\n0 y 1\n", None, 3, "bad target"),
            (b"0 1 z\n", None, 1, "bad weight"),
            (b"0 1\n", None, 1, "bad weight"),
            (b"0 1 1 1\n", None, 1, "trailing tokens"),
            (b"0 1 1\n1 0 NaN\n", None, 2, "NaN"),
            (b"0 1 1\n0 7 1\n", Some(4), 2, "vertex 7 exceeds"),
            // an id that would wrap `1 + max id` or truncate in the u32 CSR
            (b"18446744073709551615 0 1\n", None, 1, "exceeds"),
            (b"0 4294967295 1\n", None, 1, "exceeds"),
            (b"0 1 \xff\n", None, 1, "bad weight"),
            (b"0 1 1\n# caf\xe9\n", None, 2, "invalid UTF-8"),
        ];
        for (text, n, line, needle) in cases {
            assert_rejected(edge_list(text, n), line, needle, text);
        }
    }

    #[test]
    fn duplicate_arcs_keep_the_minimum_weight() {
        let got = dimacs(b"p sp 2 3\na 1 2 5\na 1 2 2\na 1 2 9\n");
        assert_eq!(got, Ok((2, vec![(0, 1, 2.0)])));
    }

    fn display(w: f32) -> String {
        let mut out = Vec::new();
        write_weight(&mut out, w);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn write_weight_spells_numbers_as_display_does() {
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            15.0,
            -16_777_215.0,
            16_777_215.0,
            16_777_216.0,
            16_777_217.0,
            16_777_218.0,
            1e10,
            -3.0e9,
            0.5,
            -2.5,
            1e-7,
            f32::MAX,
            f32::MIN_POSITIVE,
            f32::from_bits(1), // the smallest subnormal
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for w in values {
            assert_eq!(display(w), format!("{w}"), "bits {:#010x}", w.to_bits());
        }
        assert_eq!(display(16_777_215.0), "16777215");
        assert_eq!(display(-0.0), "-0");
        assert_eq!(display(f32::INFINITY), "inf");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn write_weight_is_display_on_any_bit_pattern_and_any_whole_number(
            bits in any::<u32>(),
            whole in 0u32..(1 << 25),
            quarters in 0u32..(1 << 12),
            negative in any::<bool>(),
        ) {
            let sign = if negative { -1.0 } else { 1.0 };
            for w in [f32::from_bits(bits), sign * whole as f32, sign * quarters as f32 / 4.0] {
                prop_assert_eq!(display(w), format!("{w}"));
            }
        }
    }

    #[test]
    fn tsv_is_tab_separated_display_values_one_line_per_row() {
        let d = Matrix::from_vec(2, 3, vec![0.0, f32::INFINITY, 0.5, 12.0, -0.0, 16_777_216.0]);
        let mut out = Vec::new();
        write_tsv(&d, &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "0\tinf\t0.5\n12\t-0\t16777216\n");
        let mut out = Vec::new();
        write_tsv(&Matrix::filled(0, 0, 0.0), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn writers_spell_records_as_the_format_macros_did() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 4.5).add_edge(2, 0, 7.0).add_edge(1, 2, f32::INFINITY);
        let g = b.build();
        let mut out = Vec::new();
        write_dimacs(&g, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "c generated by apsp-fw\np sp 3 3\na 1 2 4.5\na 2 3 inf\na 3 1 7\n"
        );
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# apsp-fw edge list: src dst weight (3 vertices)\n0 1 4.5\n1 2 inf\n2 0 7\n"
        );
    }

    #[test]
    fn round_trips_are_exact_for_whole_and_fractional_weights() {
        let graphs = [
            generators::erdos_renyi(20, 0.2, WeightKind::small_ints(), 3),
            generators::erdos_renyi(20, 0.2, WeightKind::Real { lo: 0.0, hi: 1e-3 }, 4),
            generators::grid(4, 3, WeightKind::Real { lo: -5.0, hi: 3.0e7 }, 2),
        ];
        for g in &graphs {
            let want: Vec<_> = g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect();
            let mut buf = Vec::new();
            write_dimacs(g, &mut buf).unwrap();
            let back = read_dimacs(&buf[..]).unwrap();
            assert_eq!(back.n(), g.n());
            assert_eq!(back.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect::<Vec<_>>(), want);
            let mut buf = Vec::new();
            write_edge_list(g, &mut buf).unwrap();
            let back = read_edge_list(&buf[..], Some(g.n())).unwrap();
            assert_eq!(back.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn dimacs_parses_reference_example() {
        let text = "c example\np sp 3 2\na 1 2 4.5\na 2 3 1\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 3);
        assert_eq!(g.weight(0, 1), 4.5);
        assert_eq!(g.weight(1, 2), 1.0);
    }

    #[test]
    fn edge_list_respects_n_override() {
        let text = "0 1 2.0\n";
        let g = read_edge_list(text.as_bytes(), Some(5)).unwrap();
        assert_eq!(g.n(), 5);
        let err = read_edge_list(text.as_bytes(), Some(1)).unwrap_err();
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn empty_edge_list_is_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes(), None).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
    }
}
