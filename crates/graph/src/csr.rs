//! Compressed-sparse-row storage for an undirected labeled graph.
//!
//! [`LabeledGraph`] is the immutable product of [`crate::GraphBuilder`].
//! It stores:
//!
//! * the adjacency structure in CSR form (`offsets` + `adjacency`), with each
//!   undirected edge appearing twice (once per endpoint) and neighbor lists
//!   sorted ascending, and
//! * node labels in a second CSR (`label_offsets` + `label_data`), so a node
//!   may carry any number of labels.
//!
//! All random-walk and estimation code observes the graph through
//! `labelcount-osn`'s restricted API, but ground-truth computation, mixing
//! time, and the theoretical bounds read this structure directly.

use crate::{LabelId, NodeId};

/// The label half of a [`LabeledGraph`], built apart from its adjacency by
/// [`crate::labels::pack_labels`]: offsets of length `num_nodes + 1`, each
/// node's labels sorted and deduplicated, and `num_labels` the largest
/// label + 1 (0 if there are none).
pub(crate) struct LabelCsr {
    pub(crate) offsets: Vec<usize>,
    pub(crate) data: Vec<LabelId>,
    pub(crate) num_labels: usize,
}

/// An immutable undirected graph with labeled nodes, in CSR layout.
///
/// Invariants (upheld by [`crate::GraphBuilder`] and checked by
/// [`LabeledGraph::validate`]):
///
/// * no self-loops, no duplicate edges;
/// * symmetry: `v ∈ N(u)` ⇔ `u ∈ N(v)`;
/// * neighbor lists and per-node label lists sorted ascending;
/// * `offsets.len() == num_nodes + 1` and `adjacency.len() == 2 * num_edges`.
#[derive(Clone, Debug)]
pub struct LabeledGraph {
    /// CSR offsets into `adjacency`; length `num_nodes + 1`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists; length `2 * num_edges`.
    adjacency: Vec<NodeId>,
    /// CSR offsets into `label_data`; length `num_nodes + 1`.
    label_offsets: Vec<usize>,
    /// Concatenated sorted label lists.
    label_data: Vec<LabelId>,
    /// Number of distinct labels (`max label id + 1`, or 0 if unlabeled).
    num_labels: usize,
}

impl LabeledGraph {
    /// Constructs a graph from raw CSR parts.
    ///
    /// Intended for use by [`crate::GraphBuilder`] and the readers in
    /// [`crate::io`]; prefer the builder unless you already have validated
    /// CSR data.
    ///
    /// # Panics
    /// Panics (in debug builds) if the parts violate the CSR invariants.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        adjacency: Vec<NodeId>,
        labels: LabelCsr,
    ) -> Self {
        let g = LabeledGraph {
            offsets,
            adjacency,
            label_offsets: labels.offsets,
            label_data: labels.data,
            num_labels: labels.num_labels,
        };
        debug_assert!(g.validate().is_ok(), "invalid CSR parts");
        g
    }

    /// A copy of this graph's adjacency carrying `labels` instead of its
    /// own.
    pub(crate) fn with_label_csr(&self, labels: LabelCsr) -> Self {
        Self::from_parts(self.offsets.clone(), self.adjacency.clone(), labels)
    }

    /// This graph's adjacency, moved, carrying `labels` instead of its own.
    pub(crate) fn into_label_csr(self, labels: LabelCsr) -> Self {
        Self::from_parts(self.offsets, self.adjacency, labels)
    }

    /// Number of nodes `|V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `|E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// Number of distinct label ids (`max id + 1`); 0 for unlabeled graphs.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Degree `d(u)` of node `u` — the number of the user's friends.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let i = u.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Sorted neighbor list of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let i = u.index();
        &self.adjacency[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The `j`-th neighbor of `u` (0-based, in sorted order).
    ///
    /// # Panics
    /// Panics if `j >= degree(u)`.
    #[inline]
    pub fn neighbor(&self, u: NodeId, j: usize) -> NodeId {
        self.neighbors(u)[j]
    }

    /// Sorted label list of `u`.
    #[inline]
    pub fn labels(&self, u: NodeId) -> &[LabelId] {
        let i = u.index();
        &self.label_data[self.label_offsets[i]..self.label_offsets[i + 1]]
    }

    /// Whether node `u` carries label `t`.
    #[inline]
    pub fn has_label(&self, u: NodeId, t: LabelId) -> bool {
        self.labels(u).binary_search(&t).is_ok()
    }

    /// Whether the undirected edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search the shorter list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..num_nodes`.
    ///
    /// # Panics
    /// Panics if the node count exceeds the `u32` id space — a bare
    /// `num_nodes as u32` here would silently truncate the iteration on
    /// ≥ 2^32-node graphs, visiting only `n mod 2^32` nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.num_nodes();
        assert!(
            n <= (u32::MAX as usize) + 1,
            "node count {n} exceeds the u32 id space"
        );
        (0..n as u64).map(|i| NodeId(i as u32))
    }

    /// Iterator over each undirected edge exactly once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of degrees, `2|E|` — the normalizing constant of the simple
    /// random walk's stationary distribution `π(u) = d(u) / 2|E|`.
    #[inline]
    pub fn degree_sum(&self) -> usize {
        self.adjacency.len()
    }

    /// Checks all CSR invariants, returning a description of the first
    /// violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.is_empty() {
            return Err("offsets must have at least one entry".into());
        }
        if self.offsets.len() - 1 > (u32::MAX as usize) + 1 {
            return Err("node count exceeds the u32 id space".into());
        }
        if *self.offsets.last().unwrap() != self.adjacency.len() {
            return Err("last offset must equal adjacency length".into());
        }
        if self.label_offsets.len() != self.offsets.len() {
            return Err("label offsets must parallel node offsets".into());
        }
        if *self.label_offsets.last().unwrap() != self.label_data.len() {
            return Err("last label offset must equal label data length".into());
        }
        let n = self.num_nodes();
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err("offsets must be non-decreasing".into());
            }
        }
        for w in self.label_offsets.windows(2) {
            if w[0] > w[1] {
                return Err("label offsets must be non-decreasing".into());
            }
        }
        for u in self.nodes() {
            let ns = self.neighbors(u);
            for w in ns.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {u} not strictly sorted"));
                }
            }
            for &v in ns {
                if v.index() >= n {
                    return Err(format!("neighbor {v} of {u} out of range"));
                }
                if v == u {
                    return Err(format!("self-loop at {u}"));
                }
                if self.neighbors(v).binary_search(&u).is_err() {
                    return Err(format!("edge ({u}, {v}) not symmetric"));
                }
            }
            let ls = self.labels(u);
            for w in ls.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("labels of {u} not strictly sorted"));
                }
            }
            for &l in ls {
                if l.index() >= self.num_labels {
                    return Err(format!("label {l} of {u} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> LabeledGraph {
        // 0-1, 1-2, 2-0 (triangle), 2-3 (tail)
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        b.add_edge(NodeId(2), NodeId(3));
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.set_labels(NodeId(1), &[LabelId(2)]);
        b.set_labels(NodeId(2), &[LabelId(1), LabelId(2)]);
        b.set_labels(NodeId(3), &[LabelId(2)]);
        b.build()
    }

    #[test]
    fn counts_and_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree_sum(), 8);
        assert_eq!(g.degree(NodeId(0)), 2);
        assert_eq!(g.degree(NodeId(2)), 3);
        assert_eq!(g.degree(NodeId(3)), 1);
    }

    #[test]
    fn neighbors_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(NodeId(2)), &[NodeId(0), NodeId(1), NodeId(3)]);
        assert!(g.has_edge(NodeId(0), NodeId(2)));
        assert!(g.has_edge(NodeId(2), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(!g.has_edge(NodeId(1), NodeId(1)));
    }

    #[test]
    fn labels_queryable() {
        let g = triangle_plus_tail();
        assert!(g.has_label(NodeId(0), LabelId(1)));
        assert!(!g.has_label(NodeId(0), LabelId(2)));
        assert!(g.has_label(NodeId(2), LabelId(1)));
        assert!(g.has_label(NodeId(2), LabelId(2)));
        assert_eq!(g.num_labels(), 3); // ids 0..=2 ⇒ 3 slots
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle_plus_tail();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), g.num_edges());
        assert!(es.contains(&(NodeId(0), NodeId(1))));
        assert!(es.contains(&(NodeId(2), NodeId(3))));
        for (u, v) in es {
            assert!(u < v);
        }
    }

    #[test]
    fn validate_accepts_builder_output() {
        assert!(triangle_plus_tail().validate().is_ok());
    }

    #[test]
    fn neighbor_indexing_matches_neighbor_list() {
        let g = triangle_plus_tail();
        for u in g.nodes() {
            for (j, &v) in g.neighbors(u).iter().enumerate() {
                assert_eq!(g.neighbor(u, j), v);
            }
        }
    }
}
