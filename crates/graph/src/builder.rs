//! Mutable construction of [`LabeledGraph`]s.
//!
//! The paper's preprocessing (§5.1): *"In each network, we remove the
//! directions of edges, self-loops and multi-edges."* [`GraphBuilder`]
//! performs exactly that — edges are added as unordered pairs, self-loops are
//! dropped, and duplicates collapse to a single undirected edge at
//! [`GraphBuilder::build`] time.

use crate::csr::LabeledGraph;
use crate::{LabelId, NodeId};

/// Incremental builder for [`LabeledGraph`].
///
/// ```
/// use labelcount_graph::{GraphBuilder, NodeId, LabelId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(0)); // duplicate: collapsed
/// b.add_edge(NodeId(1), NodeId(1)); // self-loop: dropped
/// b.add_edge(NodeId(1), NodeId(2));
/// b.set_labels(NodeId(0), &[LabelId(1)]);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Edge list with endpoints normalized so `e.0 <= e.1`; self-loops are
    /// filtered at insertion, duplicates at build.
    edges: Vec<(NodeId, NodeId)>,
    /// Per-node label sets (unsorted until build).
    labels: Vec<Vec<LabelId>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes (ids
    /// `0..num_nodes`) and no edges.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::new(),
            labels: vec![Vec::new(); num_nodes],
        }
    }

    /// Creates a builder pre-sized for `num_edges` edge insertions.
    pub fn with_capacity(num_nodes: usize, num_edges: usize) -> Self {
        GraphBuilder {
            num_nodes,
            edges: Vec::with_capacity(num_edges),
            labels: vec![Vec::new(); num_nodes],
        }
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Adds the undirected edge `(u, v)`. Self-loops are silently dropped;
    /// duplicate edges are collapsed at [`GraphBuilder::build`] time.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            u.index() < self.num_nodes && v.index() < self.num_nodes,
            "edge ({u}, {v}) out of range for {} nodes",
            self.num_nodes
        );
        if u == v {
            return;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.push(e);
    }

    /// Whether the edge has already been inserted (linear scan; intended for
    /// tests and small generators — prefer generator-local dedup for bulk
    /// construction).
    pub fn contains_edge(&self, u: NodeId, v: NodeId) -> bool {
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.contains(&e)
    }

    /// Adds a single label to node `u` (duplicates collapse at build).
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn add_label(&mut self, u: NodeId, t: LabelId) {
        self.labels[u.index()].push(t);
    }

    /// Replaces the label set of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    pub fn set_labels(&mut self, u: NodeId, ts: &[LabelId]) {
        let slot = &mut self.labels[u.index()];
        slot.clear();
        slot.extend_from_slice(ts);
    }

    /// Finalizes into an immutable CSR graph: sorts, deduplicates, and packs
    /// adjacency and label lists.
    pub fn build(self) -> LabeledGraph {
        let (offsets, adjacency) = pack_adjacency(self.num_nodes, self.edges);
        let labels = crate::labels::pack_labels(
            self.num_nodes,
            self.labels
                .iter()
                .enumerate()
                .flat_map(|(u, ls)| ls.iter().map(move |&t| (u, t))),
        );
        LabeledGraph::from_parts(offsets, adjacency, labels)
    }
}

/// Packs undirected edges on `n` nodes, each normalized so `u < v`, into
/// CSR offsets and adjacency, deduplicating them.
///
/// Once the edges are sorted, the fill needs no per-node sort: node `x`
/// receives its neighbors below it (from edges `(w, x)`, in ascending `w`)
/// before its neighbors above it (from edges `(x, v)`, in ascending `v`),
/// because every edge `(w, x)` with `w < x` sorts before every `(x, v)`.
pub(crate) fn pack_adjacency(
    n: usize,
    mut edges: Vec<(NodeId, NodeId)>,
) -> (Vec<usize>, Vec<NodeId>) {
    edges.sort_unstable();
    edges.dedup();
    bucket(
        n,
        edges
            .iter()
            .flat_map(|&(u, v)| [(u.index(), v), (v.index(), u)]),
    )
}

/// Counting sort of `(bucket, value)` entries into CSR form: offsets of
/// length `n + 1`, and the values grouped by bucket, each bucket's in entry
/// order. `entries` is walked twice, once to count and once to place.
///
/// # Panics
/// Panics if an entry's bucket is not below `n`.
pub(crate) fn bucket<T, I>(n: usize, entries: I) -> (Vec<usize>, Vec<T>)
where
    T: Copy + Default,
    I: Iterator<Item = (usize, T)> + Clone,
{
    // `offsets[b + 2]` counts bucket `b`; after the prefix sum,
    // `offsets[b + 1]` is `b`'s start and serves as its write cursor,
    // which leaves it at `b`'s end, i.e. `b + 1`'s start.
    let mut offsets = vec![0usize; n + 2];
    for (b, _) in entries.clone() {
        offsets[b + 2] += 1;
    }
    for i in 2..offsets.len() {
        offsets[i] += offsets[i - 1];
    }
    let mut values = vec![T::default(); offsets[n + 1]];
    for (b, value) in entries {
        let cursor = &mut offsets[b + 1];
        values[*cursor] = value;
        *cursor += 1;
    }
    offsets.pop();
    (offsets, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_nodes() {
        let g = GraphBuilder::new(5).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        for u in g.nodes() {
            assert_eq!(g.degree(u), 0);
            assert!(g.labels(u).is_empty());
        }
    }

    #[test]
    fn self_loops_dropped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(0));
        b.add_edge(NodeId(1), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn multi_edges_collapsed_regardless_of_direction() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(0), NodeId(1));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(NodeId(0)), 1);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn duplicate_labels_collapsed() {
        let mut b = GraphBuilder::new(1);
        b.add_label(NodeId(0), LabelId(3));
        b.add_label(NodeId(0), LabelId(3));
        b.add_label(NodeId(0), LabelId(1));
        let g = b.build();
        assert_eq!(g.labels(NodeId(0)), &[LabelId(1), LabelId(3)]);
        assert_eq!(g.num_labels(), 4); // ids 0..=3
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(2));
    }

    #[test]
    fn contains_edge_is_direction_insensitive() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(2), NodeId(1));
        assert!(b.contains_edge(NodeId(1), NodeId(2)));
        assert!(b.contains_edge(NodeId(2), NodeId(1)));
        assert!(!b.contains_edge(NodeId(0), NodeId(1)));
    }

    #[test]
    fn build_produces_valid_csr_on_star() {
        let mut b = GraphBuilder::new(6);
        for i in 1..6 {
            b.add_edge(NodeId(0), NodeId(i));
        }
        let g = b.build();
        assert!(g.validate().is_ok());
        assert_eq!(g.degree(NodeId(0)), 5);
        assert_eq!(g.num_edges(), 5);
    }
}
