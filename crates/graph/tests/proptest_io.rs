//! Mutation property tests for the edge- and label-list readers: on random
//! token soup, on mutated valid files and on buffers of 1–16 bytes, the
//! readers must return exactly what the line-by-line `str` readers they
//! replaced return — the same graph or the same error, never a panic.

use std::io::{BufRead, BufReader, Cursor};

use labelcount_graph::io::{
    load_graph, read_edge_list, read_labels, write_edge_list, write_labels, IoError,
};
use labelcount_graph::{GraphBuilder, LabelId, LabeledGraph, NodeId};
use proptest::prelude::*;

/// The edge-list reader as it was before the byte-level scanner, kept
/// verbatim as the reference.
fn reference_read_edge_list<R: BufRead>(reader: R) -> Result<LabeledGraph, IoError> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32, IoError> {
            tok.and_then(|t| t.parse().ok())
                .ok_or_else(|| IoError::Parse(lineno + 1, line.clone()))
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_id as usize + 1
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    Ok(b.build())
}

/// The label-list reader as it was before the byte-level scanner, kept
/// verbatim as the reference.
fn reference_read_labels<R: BufRead>(reader: R, g: &LabeledGraph) -> Result<LabeledGraph, IoError> {
    let mut labels: Vec<Vec<LabelId>> = vec![Vec::new(); g.num_nodes()];
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u: u32 = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| IoError::Parse(lineno + 1, line.clone()))?;
        if u as usize >= g.num_nodes() {
            return Err(IoError::Parse(lineno + 1, line.clone()));
        }
        for tok in it {
            let l: u32 = tok
                .parse()
                .map_err(|_| IoError::Parse(lineno + 1, line.clone()))?;
            labels[u as usize].push(LabelId(l));
        }
    }
    Ok(reference_with_labels(g, &labels))
}

/// `labels::with_labels` as it was before it reused the given adjacency,
/// kept verbatim as the reference.
fn reference_with_labels(g: &LabeledGraph, labels: &[Vec<LabelId>]) -> LabeledGraph {
    assert_eq!(labels.len(), g.num_nodes(), "one label set per node");
    let mut b = GraphBuilder::with_capacity(g.num_nodes(), g.num_edges());
    for (u, v) in g.edges() {
        b.add_edge(u, v);
    }
    for (i, ls) in labels.iter().enumerate() {
        b.set_labels(NodeId::from_index(i), ls);
    }
    b.build()
}

/// Ids at or past this make a reader allocate `|V|`-sized arrays; cases
/// whose text could parse one are skipped.
const ID_LIMIT: u32 = 1 << 20;

/// Whether every token of `text` that parses as a `u32` is below
/// [`ID_LIMIT`]. Invalid UTF-8 becomes U+FFFD, which no id contains.
fn ids_are_small(text: &[u8]) -> bool {
    String::from_utf8_lossy(text)
        .split_whitespace()
        .filter_map(|word| word.parse::<u32>().ok())
        .all(|id| id < ID_LIMIT)
}

/// Checks that two reads ended the same way: the same graph (`|V|`, every
/// neighbor list and label set, `num_labels`), or the same error (the same
/// `ErrorKind` for `Io`, the same line number and text for `Parse`).
fn same_outcome(
    got: &Result<LabeledGraph, IoError>,
    want: &Result<LabeledGraph, IoError>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            prop_assert_eq!(g.num_nodes(), w.num_nodes());
            prop_assert_eq!(g.num_edges(), w.num_edges());
            prop_assert_eq!(g.num_labels(), w.num_labels());
            for u in w.nodes() {
                prop_assert_eq!(g.neighbors(u), w.neighbors(u));
                prop_assert_eq!(g.labels(u), w.labels(u));
            }
        }
        (Err(IoError::Io(g)), Err(IoError::Io(w))) => prop_assert_eq!(g.kind(), w.kind()),
        (Err(IoError::Parse(gl, gt)), Err(IoError::Parse(wl, wt))) => {
            prop_assert_eq!((gl, gt), (wl, wt));
        }
        (got, want) => prop_assert!(false, "got {got:?}, want {want:?}"),
    }
    Ok(())
}

/// Reads `edges`, then `labels` onto the result, through `capacity`-byte
/// buffers, and checks both reads against the references.
fn check_pair(edges: &[u8], labels: &[u8], capacity: usize) -> Result<(), TestCaseError> {
    let got = read_edge_list(BufReader::with_capacity(capacity, edges));
    let want = reference_read_edge_list(Cursor::new(edges));
    same_outcome(&got, &want)?;
    // The label list applies to the graph its edge list loads, and to a
    // fixed graph whose 1 000 nodes hold every id the soup writes.
    let fixed = reference_read_edge_list(Cursor::new("0 1\n999 999\n")).unwrap();
    for g in want.iter().chain([&fixed]) {
        let got = read_labels(BufReader::with_capacity(capacity, labels), g);
        let want = reference_read_labels(Cursor::new(labels), g);
        same_outcome(&got, &want)?;
    }
    Ok(())
}

/// The pieces token soup is made of besides runs of digits, the non-ASCII
/// ones last.
const PIECES: [&[u8]; 14] = [
    b" ",
    b"\t",
    b"\x0B",
    b"\x0C",
    b"\r",
    b"\n",
    b"\r\n",
    b"#",
    b"+",
    b"-",
    b"x",
    "\u{A0}".as_bytes(),
    "\u{85}".as_bytes(),
    b"\xFF",
];

/// Strategy: random token soup, digit runs and separators weighted up so
/// that many lines are records, and half the cases all ASCII (a non-ASCII
/// line takes the `str` path, and a lone `0xFF` ends the read). Two digit
/// runs never touch, so every id stays below 1 000.
fn soup() -> impl Strategy<Value = Vec<u8>> {
    any::<bool>()
        .prop_flat_map(|unicode| {
            let kinds = if unicode { 30 } else { 27 };
            proptest::collection::vec((0usize..kinds, 0u32..1_000), 0..80)
        })
        .prop_map(|pieces| {
            let mut text = Vec::new();
            for (k, number) in pieces {
                match k {
                    0..=9 => {
                        if text.last().is_some_and(u8::is_ascii_digit) {
                            text.push(b' ');
                        }
                        text.extend_from_slice(number.to_string().as_bytes());
                    }
                    10..=13 => text.push(b' '),
                    14..=15 => text.push(b'\n'),
                    k => text.extend_from_slice(PIECES[k - 16]),
                }
            }
            text
        })
}

/// Strategy: a valid edge- and label-list pair, as written from a small
/// arbitrary graph.
fn valid_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (1usize..24).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..40);
        let labels = proptest::collection::vec((0..n as u32, 0u32..5), 0..30);
        (Just(n), edges, labels).prop_map(|(n, edges, labels)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.add_edge(NodeId(u), NodeId(v));
            }
            for (u, l) in labels {
                b.add_label(NodeId(u), LabelId(l));
            }
            let g = b.build();
            let (mut edges, mut labels) = (Vec::new(), Vec::new());
            write_edge_list(&g, &mut edges).unwrap();
            write_labels(&g, &mut labels).unwrap();
            (edges, labels)
        })
    })
}

/// Applies mutation `kind` at `at` (a position taken modulo the length) to
/// `text`: overwrite one byte with `byte`, truncate, or duplicate the line
/// holding that position.
fn mutate(text: &mut Vec<u8>, kind: usize, at: usize, byte: u8) {
    if text.is_empty() {
        return;
    }
    let at = at % text.len();
    match kind {
        0 => text[at] = byte,
        1 => text.truncate(at),
        _ => {
            let start = text[..at]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = text[at..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(text.len(), |i| at + i + 1);
            let line = text[start..end].to_vec();
            text.splice(start..start, line);
        }
    }
}

/// Strategy: a byte worth writing into a file, mostly from the soup's
/// alphabet.
fn mutation_byte() -> impl Strategy<Value = u8> {
    (0usize..24, 0u8..=255).prop_map(|(k, any)| match k {
        0..=9 => b'0' + k as u8,
        10 => b' ',
        11 => b'\t',
        12 => b'\x0B',
        13 => b'\r',
        14 => b'\n',
        15 => b'#',
        16 => b'+',
        17 => b'-',
        18 => 0xC2,
        19 => 0xFF,
        _ => any,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn token_soup_reads_as_the_str_readers_read_it(
        edges in soup(),
        labels in soup(),
        capacity in 1usize..=16,
    ) {
        prop_assume!(ids_are_small(&edges));
        check_pair(&edges, &labels, capacity)?;
        // The default buffer holds every test file in one fill.
        check_pair(&edges, &labels, 8 * 1024)?;
    }

    #[test]
    fn mutated_files_read_as_the_str_readers_read_them(
        pair in valid_pair(),
        edge_mutation in (0usize..3, any::<usize>(), mutation_byte()),
        label_mutation in (0usize..3, any::<usize>(), mutation_byte()),
        capacity in 1usize..=16,
    ) {
        let (mut edges, mut labels) = pair;
        // The unmutated pair reads the same way first.
        check_pair(&edges, &labels, capacity)?;
        let (kind, at, byte) = edge_mutation;
        mutate(&mut edges, kind, at, byte);
        let (kind, at, byte) = label_mutation;
        mutate(&mut labels, kind, at, byte);
        prop_assume!(ids_are_small(&edges));
        check_pair(&edges, &labels, capacity)?;
    }

    #[test]
    fn load_graph_reads_files_as_the_str_readers_read_them(
        pair in valid_pair(),
        edge_mutation in (0usize..3, any::<usize>(), mutation_byte()),
        case in any::<u64>(),
    ) {
        let (mut edges, labels) = pair;
        let (kind, at, byte) = edge_mutation;
        mutate(&mut edges, kind, at, byte);
        prop_assume!(ids_are_small(&edges));
        let dir = std::env::temp_dir().join(format!(
            "labelcount_proptest_io_{}_{case:x}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let (edge_path, label_path) = (dir.join("g.edges"), dir.join("g.labels"));
        std::fs::write(&edge_path, &edges).unwrap();
        std::fs::write(&label_path, &labels).unwrap();
        let got = load_graph(&edge_path, Some(&label_path));
        std::fs::remove_dir_all(&dir).unwrap();
        let want = reference_read_edge_list(Cursor::new(&edges))
            .and_then(|g| reference_read_labels(Cursor::new(&labels), &g));
        same_outcome(&got, &want)?;
    }
}

#[test]
fn edge_cases_read_as_the_str_readers_read_them() {
    // Edge cases of `BufRead::lines`, `str::trim`, `split_whitespace` and
    // `parse::<u32>` the byte scanner must mirror exactly.
    let cases: [&[u8]; 18] = [
        b"+1 +2\n",
        b"1 2\x0B\n3\x0B4\n",
        b"1\x0C2\r\n",
        b"1 2\r\r\nx\r\n",
        b"1 2\nx\r\r\n",
        b"1 2\rx\n",
        b"1 2\r",
        b"  # 7 8\n\t#\n1 2 trailing words\n",
        b"1\n",
        b"+ 1 2\n",
        b"1 -2\n",
        b"1 4294967296\n",
        b"7x 1\n",
        b"1 2#\n",
        "1\u{A0}2\n3\u{85}4\n".as_bytes(),
        "\u{A0}# comment\n1 2\n".as_bytes(),
        b"1 2\n# \xFF\n3 4\n",
        b"1 2\nx\n\xC2\n",
    ];
    for edges in cases {
        for capacity in [1, 2, 3, 5, 8, 1024] {
            let labels: &[u8] = b"1 +3 4\x0B5\r\n#\n 2 7\n3 8x";
            if let Err(e) = check_pair(edges, labels, capacity) {
                panic!(
                    "{:?} at capacity {capacity}: {e:?}",
                    String::from_utf8_lossy(edges)
                );
            }
        }
    }
}
