//! Property-based tests for the graph substrate: CSR invariants, ground
//! truth identities, component structure, and serialization round-trips on
//! arbitrary graphs.

use labelcount_graph::components::{connected_components, largest_component};
use labelcount_graph::ground_truth::{all_pair_counts, GroundTruth, TargetLabel};
use labelcount_graph::io::{read_edge_list, read_labels, write_edge_list, write_labels};
use labelcount_graph::{GraphBuilder, LabelId, LabeledGraph, NodeId};
use proptest::prelude::*;

/// Strategy: an arbitrary small labeled graph (possibly with self-loops
/// and duplicate insertions, which the builder must clean up).
fn arb_graph() -> impl Strategy<Value = LabeledGraph> {
    let n = 1usize..24;
    n.prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..60);
        let labels = proptest::collection::vec((0..n as u32, 0u32..5), 0..30);
        (Just(n), edges, labels).prop_map(|(n, edges, labels)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                b.add_edge(NodeId(u), NodeId(v));
            }
            for (u, l) in labels {
                b.add_label(NodeId(u), LabelId(l));
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn builder_output_is_always_valid_csr(g in arb_graph()) {
        prop_assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_sum_is_twice_edge_count(g in arb_graph()) {
        let sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(sum, 2 * g.num_edges());
        prop_assert_eq!(sum, g.degree_sum());
    }

    #[test]
    fn edges_iterator_matches_has_edge(g in arb_graph()) {
        let listed: Vec<_> = g.edges().collect();
        prop_assert_eq!(listed.len(), g.num_edges());
        for (u, v) in &listed {
            prop_assert!(g.has_edge(*u, *v));
            prop_assert!(g.has_edge(*v, *u));
            prop_assert!(u < v);
        }
    }

    #[test]
    fn t_sum_is_twice_f_for_every_pair(g in arb_graph()) {
        for (pair, count) in all_pair_counts(&g) {
            let gt = GroundTruth::compute(&g, pair);
            prop_assert_eq!(gt.f, count);
            prop_assert_eq!(gt.t_sum(), 2 * gt.f);
        }
    }

    #[test]
    fn f_matches_naive_edge_scan(g in arb_graph(), a in 0u32..5, b in 0u32..5) {
        let target = TargetLabel::new(LabelId(a), LabelId(b));
        let gt = GroundTruth::compute(&g, target);
        let naive = g
            .edges()
            .filter(|&(u, v)| target.matches(&g, u, v))
            .count();
        prop_assert_eq!(gt.f, naive);
    }

    #[test]
    fn component_sizes_partition_nodes(g in arb_graph()) {
        let c = connected_components(&g);
        prop_assert_eq!(c.sizes.iter().sum::<usize>(), g.num_nodes());
        for u in g.nodes() {
            for &v in g.neighbors(u) {
                prop_assert_eq!(c.assignment[u.index()], c.assignment[v.index()]);
            }
        }
    }

    #[test]
    fn largest_component_is_connected_and_no_larger(g in arb_graph()) {
        if let Some(ex) = largest_component(&g) {
            let inner = connected_components(&ex.graph);
            prop_assert!(inner.count() <= 1 || ex.graph.num_nodes() == 0);
            prop_assert!(ex.graph.num_nodes() <= g.num_nodes());
            prop_assert!(ex.graph.num_edges() <= g.num_edges());
            // Mapping preserves degrees and labels.
            for (new_u, &old_u) in ex.original.iter().enumerate() {
                let new_u = NodeId(new_u as u32);
                prop_assert_eq!(ex.graph.degree(new_u), g.degree(old_u));
                prop_assert_eq!(ex.graph.labels(new_u), g.labels(old_u));
            }
        }
    }

    #[test]
    fn io_roundtrip_preserves_graph(g in arb_graph()) {
        let mut edges = Vec::new();
        write_edge_list(&g, &mut edges).unwrap();
        let mut labels = Vec::new();
        write_labels(&g, &mut labels).unwrap();
        let g2 = read_edge_list(std::io::Cursor::new(&edges)).unwrap();
        let g2 = read_labels(std::io::Cursor::new(&labels), &g2).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.num_labels(), g.num_labels());
        for u in g.nodes() {
            prop_assert_eq!(g2.neighbors(u), g.neighbors(u));
            prop_assert_eq!(g2.labels(u), g.labels(u));
        }
    }

    #[test]
    fn target_label_symmetry(a in 0u32..9, b in 0u32..9) {
        let x = TargetLabel::new(LabelId(a), LabelId(b));
        let y = TargetLabel::new(LabelId(b), LabelId(a));
        prop_assert_eq!(x, y);
        prop_assert!(x.first() <= x.second());
    }
}
