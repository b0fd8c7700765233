//! Graph file I/O: the DIMACS shortest-path `.gr` format (the de-facto
//! interchange format of the 9th DIMACS challenge, used by most SSSP/APSP
//! tooling) and a plain tab/space-separated edge-list format.
//!
//! Both parsers are strict about structure but tolerant about whitespace;
//! errors carry line numbers.

use std::io::{BufRead, BufReader, Read, Write};

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

/// What [`GraphBuilder::add_edge`] asserts, as a typed error carrying the
/// line: `id` (as written in the file, `first` being the lowest valid id)
/// names one of at most `n` vertices.
fn check_vertex(line: usize, id: usize, first: usize, n: usize) -> Result<(), IoError> {
    if id < first || id - first >= n {
        return Err(parse_err(line, format!("vertex {id} exceeds the {n} vertices allowed (numbered from {first})")));
    }
    Ok(())
}

fn check_weight(line: usize, w: f32) -> Result<(), IoError> {
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
    let reader = BufReader::new(r);
    let mut builder: Option<GraphBuilder> = None;
    let mut n = 0usize;
    let mut declared_edges = 0usize;
    let mut seen_edges = 0usize;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(parse_err(lineno, "duplicate problem line"));
                }
                let kind = it.next().ok_or_else(|| parse_err(lineno, "missing problem kind"))?;
                if kind != "sp" {
                    return Err(parse_err(lineno, format!("unsupported problem kind '{kind}'")));
                }
                n = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .filter(|&n: &usize| n <= MAX_VERTICES)
                    .ok_or_else(|| parse_err(lineno, "bad vertex count"))?;
                declared_edges = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad edge count"))?;
                builder = Some(GraphBuilder::new(n));
            }
            Some("a") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "arc before problem line"))?;
                let u: usize = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad source"))?;
                let v: usize = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad target"))?;
                let w: f32 = it
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad weight"))?;
                if u == 0 || v == 0 {
                    return Err(parse_err(lineno, "DIMACS vertices are 1-based"));
                }
                check_vertex(lineno, u, 1, n)?;
                check_vertex(lineno, v, 1, n)?;
                check_weight(lineno, w)?;
                b.add_edge(u - 1, v - 1, w);
                seen_edges += 1;
            }
            Some(tok) => return Err(parse_err(lineno, format!("unknown record '{tok}'"))),
            None => {}
        }
    }
    let b = builder.ok_or_else(|| parse_err(0, "missing problem line"))?;
    if seen_edges != declared_edges {
        return Err(parse_err(
            0,
            format!("problem line declared {declared_edges} arcs, file has {seen_edges}"),
        ));
    }
    Ok(b.build())
}

/// Write a graph in DIMACS `.gr` form (1-based vertices).
pub fn write_dimacs(g: &Graph, mut w: impl Write) -> Result<(), IoError> {
    writeln!(w, "c generated by apsp-fw")?;
    writeln!(w, "p sp {} {}", g.n(), g.m())?;
    for (u, v, wt) in g.edges() {
        writeln!(w, "a {} {} {}", u + 1, v + 1, wt)?;
    }
    Ok(())
}

/// Read a whitespace-separated edge list: `src dst weight` per line
/// (0-based vertices), `#` comments. Vertex count is `1 + max id`, or the
/// `n` override.
pub fn read_edge_list(r: impl Read, n: Option<usize>) -> Result<Graph, IoError> {
    let reader = BufReader::new(r);
    let mut edges: Vec<(usize, usize, f32)> = Vec::new();
    let mut max_v = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad source"))?;
        let v: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad target"))?;
        let w: f32 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad weight"))?;
        if it.next().is_some() {
            return Err(parse_err(lineno, "trailing tokens"));
        }
        check_vertex(lineno, u, 0, n.unwrap_or(MAX_VERTICES))?;
        check_vertex(lineno, v, 0, n.unwrap_or(MAX_VERTICES))?;
        check_weight(lineno, w)?;
        max_v = max_v.max(u).max(v);
        edges.push((u, v, w));
    }
    let n = match n {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                max_v + 1
            }
        }
    };
    let mut b = GraphBuilder::new(n);
    for (u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    Ok(b.build())
}

/// Write a 0-based edge list.
pub fn write_edge_list(g: &Graph, mut w: impl Write) -> Result<(), IoError> {
    writeln!(w, "# apsp-fw edge list: src dst weight ({} vertices)", g.n())?;
    for (u, v, wt) in g.edges() {
        writeln!(w, "{u} {v} {wt}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightKind};

    #[test]
    fn dimacs_round_trip() {
        let g = generators::erdos_renyi(20, 0.2, WeightKind::small_ints(), 3);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let back = read_dimacs(&buf[..]).unwrap();
        assert_eq!(back.n(), g.n());
        assert_eq!(back.m(), g.m());
        for (u, v, w) in g.edges() {
            assert_eq!(back.weight(u, v), w);
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
    fn dimacs_rejects_arc_count_mismatch() {
        let text = "p sp 2 5\na 1 2 1\n";
        let err = read_dimacs(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("declared 5"));
    }

    #[test]
    fn dimacs_rejects_zero_based_vertices() {
        let text = "p sp 2 1\na 0 1 1\n";
        assert!(read_dimacs(text.as_bytes()).is_err());
    }

    #[test]
    fn hostile_arcs_are_typed_errors_with_their_line_not_panics() {
        let line_of = |r: Result<Graph, IoError>| match r {
            Err(IoError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        // vertex beyond the declared count, on either end
        let (line, msg) = line_of(read_dimacs("p sp 2 1\na 5 1 1.0\n".as_bytes()));
        assert_eq!(line, 2);
        assert!(msg.contains("vertex 5 exceeds"), "{msg}");
        let (line, _) = line_of(read_dimacs("c x\np sp 2 1\na 1 3 1.0\n".as_bytes()));
        assert_eq!(line, 3);
        // NaN weight (parses as a float, so "bad weight" never fires)
        let (line, msg) = line_of(read_dimacs("p sp 2 1\na 1 2 nan\n".as_bytes()));
        assert_eq!(line, 2);
        assert!(msg.contains("NaN"), "{msg}");
        // a vertex count the u32 CSR cannot index
        let (line, _) = line_of(read_dimacs("p sp 4294967296 0\n".as_bytes()));
        assert_eq!(line, 1);

        let (line, msg) = line_of(read_edge_list("0 1 1\n1 0 NaN\n".as_bytes(), None));
        assert_eq!(line, 2);
        assert!(msg.contains("NaN"), "{msg}");
        let (line, _) = line_of(read_edge_list("0 1 1\n0 7 1\n".as_bytes(), Some(4)));
        assert_eq!(line, 2);
        // an id that would wrap `1 + max id` or truncate in the u32 CSR
        let (line, _) = line_of(read_edge_list("18446744073709551615 0 1\n".as_bytes(), None));
        assert_eq!(line, 1);
        let (line, _) = line_of(read_edge_list("0 4294967295 1\n".as_bytes(), None));
        assert_eq!(line, 1);
    }

    #[test]
    fn dimacs_rejects_unknown_records() {
        let text = "p sp 1 0\nz nonsense\n";
        let err = read_dimacs(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown record"));
    }

    #[test]
    fn edge_list_round_trip_and_comments() {
        let g = generators::grid(4, 3, WeightKind::small_ints(), 2);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..], None).unwrap();
        assert_eq!(back.n(), g.n());
        assert_eq!(back.m(), g.m());
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
