//! Plain-text graph serialization.
//!
//! Two simple line-oriented formats, so generated surrogate datasets can be
//! cached on disk and real SNAP-style edge lists can be loaded if available:
//!
//! * **edge list** — one `u v` pair per line; `#`-prefixed lines are
//!   comments (SNAP convention), and tokens after `u v` are ignored;
//! * **label list** — one `u l1 l2 …` line per labeled node.
//!
//! Both readers share one record scanner. It walks the lines inside the
//! reader's own buffer, copying only a line split across two fills, and
//! tokenizes and parses an ASCII line as bytes; a line holding any other
//! byte goes through `str` (`trim`, `split_whitespace`, `parse::<u32>`).
//! Either way a line reads exactly as `BufRead::lines` and those `str`
//! calls read it:
//!
//! * whitespace is whatever `char::is_whitespace` accepts (`\x0B`
//!   included), and a `\r` is stripped only before `\n`;
//! * blank lines, and lines whose first non-blank character is `#`, are
//!   skipped;
//! * an id is a decimal `u32`, optionally `+`-prefixed; anything else (a
//!   negative id, one past `u32::MAX`) is [`IoError::Parse`] with the
//!   1-based line number and the line's text;
//! * invalid UTF-8 is [`IoError::Io`] of kind `InvalidData`, at its line;
//! * the first error in file order wins.
//!
//! [`load_graph`] builds the adjacency CSR once: edges are parsed straight
//! into the pair buffer the build sorts and packs, and the labels, read as
//! `(node, label)` pairs, are packed into a label CSR and attached to that
//! adjacency without rebuilding it.
//!
//! The edge list sets `|V|` to the largest id + 1, so when the last node
//! `v = |V| − 1` has no edges [`write_edge_list`] ends with the line `v v`:
//! the reader drops the self-loop but keeps the node.

use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;

use crate::builder::pack_adjacency;
use crate::csr::LabelCsr;
use crate::labels::pack_labels;
use crate::{LabelId, LabeledGraph, NodeId};

/// Errors produced by the readers.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line that could not be parsed (1-based line number, content).
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, text) => write!(f, "parse error at line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io(e) => Some(e),
            IoError::Parse(..) => None,
        }
    }
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Whether `b` is whitespace to `char::is_whitespace` (unlike
/// `u8::is_ascii_whitespace`, this includes `\x0B`).
fn is_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// Splits the next word off the rest of an ASCII line and parses it as
/// `str::parse::<u32>` would: decimal digits after an optional `+`. `None`
/// if the line has no word left; `Some(None)` if the word is not an id.
fn next_id(rest: &mut &[u8]) -> Option<Option<u32>> {
    let start = rest.iter().position(|&b| !is_space(b))?;
    let word = &rest[start..];
    let digits = word.strip_prefix(b"+").unwrap_or(word);
    // Saturates at 2^32, which no `u32` reaches.
    let mut id = 0u64;
    let mut len = 0;
    for &b in digits {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        id = (id * 10 + u64::from(digit)).min(1 << 32);
        len += 1;
    }
    let tail = &digits[len..];
    let junk = tail.iter().position(|&b| is_space(b)).unwrap_or(tail.len());
    *rest = &tail[junk..];
    Some(u32::try_from(id).ok().filter(|_| len > 0 && junk == 0))
}

/// The index of the first `\n` in `bytes`, and whether every byte before it
/// is ASCII; `None` if there is no `\n`.
fn line_end(bytes: &[u8]) -> Option<(usize, bool)> {
    let mut seen = 0u8;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            return Some((i, seen.is_ascii()));
        }
        seen |= b;
    }
    None
}

/// The tokens of one record line, each parsed as an id (`None` if it is
/// not one).
enum Tokens<'a> {
    /// The rest of an ASCII line.
    Bytes(&'a [u8]),
    /// The rest of any other line.
    Text(std::str::SplitWhitespace<'a>),
}

impl Iterator for Tokens<'_> {
    type Item = Option<u32>;

    fn next(&mut self) -> Option<Option<u32>> {
        match self {
            Tokens::Bytes(rest) => next_id(rest),
            Tokens::Text(words) => words.next().map(|word| word.parse().ok()),
        }
    }
}

/// The record scanner both readers share: hands the tokens of each line of
/// `reader` that is neither blank nor a comment to `record`, in file order.
/// `record` returns `None` to reject its line as unparsable.
fn scan<R: BufRead>(
    mut reader: R,
    mut record: impl FnMut(&mut Tokens<'_>) -> Option<()>,
) -> Result<(), IoError> {
    let mut lineno = 0;
    // The head of a line split across two fills of the buffer.
    let mut split = Vec::new();
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        if buf.is_empty() {
            // A last line without `\n` keeps a trailing `\r`.
            if !split.is_empty() {
                scan_line(&split, split.is_ascii(), lineno + 1, &mut record)?;
            }
            return Ok(());
        }
        let len = buf.len();
        let mut rest = buf;
        while let Some((end, ascii)) = line_end(rest) {
            lineno += 1;
            let (line, ascii) = if split.is_empty() {
                (&rest[..end], ascii)
            } else {
                split.extend_from_slice(&rest[..end]);
                (&split[..], split.is_ascii())
            };
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            scan_line(line, ascii, lineno, &mut record)?;
            split.clear();
            rest = &rest[end + 1..];
        }
        split.extend_from_slice(rest);
        reader.consume(len);
    }
}

/// Scans one line (`\n` and the `\r` before it already stripped), which is
/// all ASCII if `ascii`.
fn scan_line(
    line: &[u8],
    ascii: bool,
    lineno: usize,
    record: &mut impl FnMut(&mut Tokens<'_>) -> Option<()>,
) -> Result<(), IoError> {
    let mut tokens = if ascii {
        match line.iter().position(|&b| !is_space(b)) {
            Some(start) if line[start] != b'#' => Tokens::Bytes(&line[start..]),
            _ => return Ok(()),
        }
    } else {
        let text = std::str::from_utf8(line).map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "stream did not contain valid UTF-8",
            )
        })?;
        let text = text.trim();
        if text.is_empty() || text.starts_with('#') {
            return Ok(());
        }
        Tokens::Text(text.split_whitespace())
    };
    record(&mut tokens)
        .ok_or_else(|| IoError::Parse(lineno, String::from_utf8_lossy(line).into_owned()))
}

/// Reads an edge list from a reader. Node ids may be sparse; they are kept
/// as-is, with `num_nodes = max id + 1`. Self-loops and duplicates are
/// removed.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<LabeledGraph, IoError> {
    let mut edges = Vec::new();
    let mut max_id = None;
    scan(reader, |tokens| {
        let (u, v) = (tokens.next()??, tokens.next()??);
        max_id = max_id.max(Some(u.max(v)));
        if u != v {
            edges.push((NodeId(u.min(v)), NodeId(u.max(v))));
        }
        Some(())
    })?;
    let n = max_id.map_or(0, |id| id as usize + 1);
    let (offsets, adjacency) = pack_adjacency(n, edges);
    Ok(LabeledGraph::from_parts(
        offsets,
        adjacency,
        pack_labels(n, std::iter::empty()),
    ))
}

/// Reads a label list for an `n`-node graph into its label CSR.
fn read_label_csr<R: BufRead>(reader: R, n: usize) -> Result<LabelCsr, IoError> {
    let mut pairs = Vec::new();
    scan(reader, |tokens| {
        let u = tokens.next()??;
        if u as usize >= n {
            return None;
        }
        for t in tokens {
            pairs.push((u, LabelId(t?)));
        }
        Some(())
    })?;
    Ok(pack_labels(n, pairs.iter().map(|&(u, t)| (u as usize, t))))
}

/// Reads a label list (`u l1 l2 …` per line) and applies it to `g`,
/// returning a relabeled graph. Unlisted nodes keep empty label sets.
pub fn read_labels<R: BufRead>(reader: R, g: &LabeledGraph) -> Result<LabeledGraph, IoError> {
    Ok(g.with_label_csr(read_label_csr(reader, g.num_nodes())?))
}

/// Writes the edge list of `g` (one `u v` line per undirected edge, `u < v`,
/// then `v v` if the last node `v` has no edges).
pub fn write_edge_list<W: Write>(g: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# labelcount edge list |V|={} |E|={}",
        g.num_nodes(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    // The reader sets |V| to the largest id + 1: name a last node with no
    // edges as a self-loop, which it drops.
    if let Some(last) = g.num_nodes().checked_sub(1).map(NodeId::from_index) {
        if g.degree(last) == 0 {
            writeln!(w, "{0} {0}", last.0)?;
        }
    }
    w.flush()
}

/// Writes the label list of `g` (nodes with empty label sets are skipped).
pub fn write_labels<W: Write>(g: &LabeledGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# labelcount labels")?;
    for u in g.nodes() {
        let ls = g.labels(u);
        if ls.is_empty() {
            continue;
        }
        write!(w, "{}", u.0)?;
        for l in ls {
            write!(w, " {}", l.0)?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Convenience: load a graph from an edge-list file and an optional label
/// file. The labels are attached to the edge list's adjacency, which is
/// built once.
pub fn load_graph(edges_path: &Path, labels_path: Option<&Path>) -> Result<LabeledGraph, IoError> {
    let f = std::fs::File::open(edges_path)?;
    let g = read_edge_list(io::BufReader::new(f))?;
    match labels_path {
        Some(p) => {
            let f = std::fs::File::open(p)?;
            let labels = read_label_csr(io::BufReader::new(f), g.num_nodes())?;
            Ok(g.into_label_csr(labels))
        }
        None => Ok(g),
    }
}

/// Convenience: persist a graph as `<stem>.edges` + `<stem>.labels`.
pub fn save_graph(g: &LabeledGraph, stem: &Path) -> io::Result<()> {
    let edges = stem.with_extension("edges");
    let labels = stem.with_extension("labels");
    write_edge_list(g, std::fs::File::create(edges)?)?;
    write_labels(g, std::fs::File::create(labels)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use std::io::Cursor;

    #[test]
    fn edge_list_roundtrip() {
        let input = "# comment\n0 1\n1 2\n2 0\n";
        let g = read_edge_list(Cursor::new(input)).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);

        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        let g2 = read_edge_list(Cursor::new(out)).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(g2.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    fn labels_roundtrip() {
        let g = read_edge_list(Cursor::new("0 1\n1 2\n")).unwrap();
        let g = read_labels(Cursor::new("0 5\n2 5 7\n"), &g).unwrap();
        assert_eq!(g.labels(NodeId(0)), &[LabelId(5)]);
        assert!(g.labels(NodeId(1)).is_empty());
        assert_eq!(g.labels(NodeId(2)), &[LabelId(5), LabelId(7)]);

        let mut out = Vec::new();
        write_labels(&g, &mut out).unwrap();
        let g2 = read_labels(Cursor::new(out), &g).unwrap();
        for u in g.nodes() {
            assert_eq!(g2.labels(u), g.labels(u));
        }
    }

    #[test]
    fn blank_lines_and_whitespace_tolerated() {
        let g = read_edge_list(Cursor::new("\n  0   1  \n\n# x\n1 2\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn blank_lines_accepted_in_edge_and_label_lists() {
        // Pass: blank and whitespace-only lines are skipped in both
        // formats, never parsed as records.
        let g = read_edge_list(Cursor::new("0 1\n\n   \n\t\n1 2\n\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
        let g = read_labels(Cursor::new("\n0 7\n   \n2 8\n\n"), &g).unwrap();
        assert_eq!(g.labels(NodeId(0)), &[LabelId(7)]);
        assert_eq!(g.labels(NodeId(2)), &[LabelId(8)]);
    }

    #[test]
    fn duplicate_edges_collapse_to_one() {
        // Pass: duplicates (either orientation, repeated) load as a
        // single undirected edge — SNAP dumps list both directions.
        let g = read_edge_list(Cursor::new("0 1\n1 0\n0 1\n0 1\n1 2\n")).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.degree(NodeId(1)), 2);
    }

    #[test]
    fn self_loops_are_dropped() {
        // Pass-with-cleanup: self-loop lines are accepted but never
        // become edges (the paper's graphs are simple).
        let g = read_edge_list(Cursor::new("0 0\n0 1\n1 1\n")).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1)]);
        assert!(!g.has_edge(NodeId(0), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)));
        // A file of only self-loops still isolates the ids it names.
        let g = read_edge_list(Cursor::new("3 3\n")).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn out_of_range_edge_id_rejected() {
        // Reject: node ids beyond u32 cannot index the CSR — the line is
        // reported, nothing is silently truncated.
        let err = read_edge_list(Cursor::new("0 1\n4294967296 2\n")).unwrap_err();
        match err {
            IoError::Parse(line, text) => {
                assert_eq!(line, 2);
                assert!(text.contains("4294967296"));
            }
            other => panic!("expected parse error, got {other}"),
        }
        // Negative ids are equally out of range for the unsigned format.
        assert!(read_edge_list(Cursor::new("-1 2\n")).is_err());
    }

    #[test]
    fn out_of_range_label_ids_rejected() {
        let g = read_edge_list(Cursor::new("0 1\n")).unwrap();
        // Reject: a label record for a node the graph does not have.
        let err = read_labels(Cursor::new("0 1\n5 2\n"), &g).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        // Reject: a label value beyond u32.
        assert!(read_labels(Cursor::new("0 4294967296\n"), &g).is_err());
    }

    #[test]
    fn malformed_edge_reports_line() {
        let err = read_edge_list(Cursor::new("0 1\nnot numbers\n")).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn label_for_unknown_node_is_error() {
        let g = read_edge_list(Cursor::new("0 1\n")).unwrap();
        assert!(read_labels(Cursor::new("7 1\n"), &g).is_err());
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list(Cursor::new("")).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn trailing_isolated_nodes_survive_a_roundtrip() {
        let roundtrip = |g: &LabeledGraph| {
            let (mut edges, mut labels) = (Vec::new(), Vec::new());
            write_edge_list(g, &mut edges).unwrap();
            write_labels(g, &mut labels).unwrap();
            let g2 = read_edge_list(Cursor::new(edges)).unwrap();
            read_labels(Cursor::new(labels), &g2).unwrap()
        };
        // Five nodes, one edge: the three edgeless nodes past it are kept.
        let mut b = GraphBuilder::new(5);
        b.add_edge(NodeId(0), NodeId(1));
        let g = roundtrip(&b.build());
        assert_eq!((g.num_nodes(), g.num_edges()), (5, 1));
        // A path 0–1–2 plus a labeled isolated node 3: its label loads.
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_label(NodeId(3), LabelId(1));
        let g = roundtrip(&b.build());
        assert_eq!((g.num_nodes(), g.num_edges()), (4, 2));
        assert_eq!(g.labels(NodeId(3)), &[LabelId(1)]);
        // A graph whose last node has edges gets no extra line.
        let g = read_edge_list(Cursor::new("0 1\n1 2\n")).unwrap();
        let mut out = Vec::new();
        write_edge_list(&g, &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().ends_with("\n1 2\n"));
    }

    #[test]
    fn save_and_load_files() {
        let dir = std::env::temp_dir().join("labelcount_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let stem = dir.join("tiny");

        let g = read_edge_list(Cursor::new("0 1\n1 2\n")).unwrap();
        let g = read_labels(Cursor::new("0 3\n1 4\n2 3\n"), &g).unwrap();
        save_graph(&g, &stem).unwrap();

        let loaded = load_graph(
            &stem.with_extension("edges"),
            Some(&stem.with_extension("labels")),
        )
        .unwrap();
        assert_eq!(loaded.num_edges(), 2);
        assert_eq!(loaded.labels(NodeId(1)), &[LabelId(4)]);
    }
}
