//! `MutableGraph::apply` against a model, property-tested.
//!
//! Random small graphs take random streams of edge inserts, edge deletes
//! and label flips, among them out-of-range nodes, duplicate inserts,
//! self-loops, deletes of absent edges and repeated flips. The model is
//! one `BTreeSet` per node for friends and for labels, plus the epoch
//! counters the events should have bumped. After every event the graph
//! must agree with it: every list sorted and equal to the model's,
//! adjacency symmetric, `|E|`, the monotone degree bound and the flip
//! count equal, `apply` returning `true` exactly when the model changed,
//! and only the touched regions' matching epochs bumped.

use std::collections::BTreeSet;

use labelcount_graph::{ChurnEvent, Epoch, GraphBuilder, LabelId, MutableGraph, NodeId};
use proptest::prelude::*;

/// The graph as plain sets, with the epochs every event should leave.
struct Model {
    adj: Vec<BTreeSet<NodeId>>,
    labels: Vec<BTreeSet<LabelId>>,
    edge_epochs: Vec<Epoch>,
    label_epochs: Vec<Epoch>,
    region_shift: u32,
    max_degree_bound: usize,
    flips: u64,
}

impl Model {
    fn region(&self, u: NodeId) -> usize {
        (u.0 >> self.region_shift) as usize
    }

    fn in_range(&self, u: NodeId) -> bool {
        u.index() < self.adj.len()
    }

    fn num_edges(&self) -> usize {
        self.adj.iter().map(BTreeSet::len).sum::<usize>() / 2
    }

    /// Applies `event`; returns whether the graph changed.
    fn apply(&mut self, event: ChurnEvent) -> bool {
        match event {
            ChurnEvent::InsertEdge(u, v) => {
                if u == v || !self.in_range(u) || !self.in_range(v) {
                    return false;
                }
                if !self.adj[u.index()].insert(v) {
                    return false;
                }
                self.adj[v.index()].insert(u);
                self.max_degree_bound = self
                    .max_degree_bound
                    .max(self.adj[u.index()].len())
                    .max(self.adj[v.index()].len());
                self.bump_edges(u, v);
                true
            }
            ChurnEvent::DeleteEdge(u, v) => {
                if !self.in_range(u) || !self.in_range(v) || !self.adj[u.index()].remove(&v) {
                    return false;
                }
                self.adj[v.index()].remove(&u);
                self.bump_edges(u, v);
                true
            }
            ChurnEvent::FlipLabel(u, t) => {
                if !self.in_range(u) {
                    return false;
                }
                let labels = &mut self.labels[u.index()];
                if !labels.remove(&t) {
                    labels.insert(t);
                }
                let r = self.region(u);
                self.label_epochs[r] = self.label_epochs[r].next();
                self.flips += 1;
                true
            }
        }
    }

    /// An edge event bumps each endpoint's region once, so a region
    /// holding both endpoints moves by two.
    fn bump_edges(&mut self, u: NodeId, v: NodeId) {
        for w in [u, v] {
            let r = self.region(w);
            self.edge_epochs[r] = self.edge_epochs[r].next();
        }
    }

    /// Checks `m` against the model, node by node.
    fn check(&self, m: &MutableGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!(m.num_nodes(), self.adj.len());
        prop_assert_eq!(m.num_edges(), self.num_edges());
        prop_assert_eq!(m.max_degree_bound(), self.max_degree_bound);
        prop_assert_eq!(m.avoided_neighbor_invalidations(), self.flips);
        for (i, (friends, labels)) in self.adj.iter().zip(&self.labels).enumerate() {
            let u = NodeId(i as u32);
            let ns = m.neighbors(u);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "{:?} unsorted", u);
            prop_assert!(friends.iter().eq(ns.iter()), "{:?}: {:?}", u, ns);
            for &v in ns.iter() {
                prop_assert!(m.has_edge(v, u), "{:?} lists {:?} but not back", u, v);
            }
            prop_assert!(ns.len() <= m.max_degree_bound());
            let ls = m.labels(u);
            prop_assert!(ls.windows(2).all(|w| w[0] < w[1]), "{:?} unsorted", u);
            prop_assert!(labels.iter().eq(ls.iter()), "{:?}: {:?}", u, ls);
            prop_assert_eq!(m.epoch_of(u), self.edge_epochs[self.region(u)]);
            prop_assert_eq!(m.label_epoch_of(u), self.label_epochs[self.region(u)]);
        }
        Ok(())
    }
}

/// A graph on `n` nodes from `edges` and `labels` (the builder drops
/// self-loops and duplicates), with its model.
fn build(
    n: usize,
    edges: &[(u32, u32)],
    labels: &[(u32, u32)],
    region_shift: u32,
) -> (MutableGraph, Model) {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    for &(u, t) in labels {
        b.add_label(NodeId(u), LabelId(t));
    }
    let g = b.build();
    let regions = (n >> region_shift) + 1;
    let model = Model {
        adj: g
            .nodes()
            .map(|u| g.neighbors(u).iter().copied().collect())
            .collect(),
        labels: g
            .nodes()
            .map(|u| g.labels(u).iter().copied().collect())
            .collect(),
        edge_epochs: vec![Epoch::STATIC; regions],
        label_epochs: vec![Epoch::STATIC; regions],
        region_shift,
        max_degree_bound: g.nodes().map(|u| g.degree(u)).max().unwrap_or(0),
        flips: 0,
    };
    (MutableGraph::new(&g, region_shift), model)
}

/// Event kinds 0–1 insert, 2–3 delete, 4 flips. Node ids run two past the
/// last node, so out-of-range events occur; on graphs this small,
/// duplicates, self-loops, absent edges and repeated flips are common.
fn event(kind: u8, u: u32, v: u32, t: u32) -> ChurnEvent {
    match kind {
        0 | 1 => ChurnEvent::InsertEdge(NodeId(u), NodeId(v)),
        2 | 3 => ChurnEvent::DeleteEdge(NodeId(u), NodeId(v)),
        _ => ChurnEvent::FlipLabel(NodeId(u), LabelId(t)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn apply_tracks_a_set_model_event_by_event(
        case in (1usize..14, 0u32..3).prop_flat_map(|(n, region_shift)| {
            let node = 0..n as u32;
            let any_node = 0..n as u32 + 2;
            (
                Just(n),
                Just(region_shift),
                proptest::collection::vec((node.clone(), node.clone()), 0..30),
                proptest::collection::vec((node, 0u32..4), 0..20),
                proptest::collection::vec((0u8..5, any_node.clone(), any_node, 0u32..4), 1..80),
            )
        }),
    ) {
        let (n, region_shift, edges, labels, events) = case;
        let (mut m, mut model) = build(n, &edges, &labels, region_shift);
        model.check(&m)?;
        for (i, &(kind, u, v, t)) in events.iter().enumerate() {
            let e = event(kind, u, v, t);
            let changed = model.apply(e);
            prop_assert_eq!(m.apply(e), changed, "event {} {:?}", i, e);
            model.check(&m)?;
        }
    }
}

/// The sweep reaches every branch: applied and no-op inserts, deletes and
/// flips, a bound left above every current degree, and a region holding
/// both endpoints of an edge event.
#[test]
fn a_fixed_stream_reaches_every_branch() {
    let (mut m, mut model) = build(6, &[(0, 1), (0, 2), (0, 3), (4, 5)], &[(1, 2)], 1);
    let stream = [
        (ChurnEvent::InsertEdge(NodeId(0), NodeId(4)), true),
        (ChurnEvent::InsertEdge(NodeId(4), NodeId(0)), false), // duplicate
        (ChurnEvent::InsertEdge(NodeId(3), NodeId(3)), false), // self-loop
        (ChurnEvent::InsertEdge(NodeId(2), NodeId(6)), false), // out of range
        (ChurnEvent::DeleteEdge(NodeId(1), NodeId(0)), true),
        (ChurnEvent::DeleteEdge(NodeId(0), NodeId(1)), false), // absent
        (ChurnEvent::DeleteEdge(NodeId(7), NodeId(0)), false), // out of range
        (ChurnEvent::DeleteEdge(NodeId(5), NodeId(4)), true),  // one region
        (ChurnEvent::FlipLabel(NodeId(1), LabelId(2)), true),
        (ChurnEvent::FlipLabel(NodeId(1), LabelId(2)), true), // repeat
        (ChurnEvent::FlipLabel(NodeId(6), LabelId(2)), false), // out of range
    ];
    for (e, changed) in stream {
        assert_eq!(model.apply(e), changed, "{e:?}");
        assert_eq!(m.apply(e), changed, "{e:?}");
        model
            .check(&m)
            .unwrap_or_else(|err| panic!("{e:?}: {err:?}"));
    }
    assert_eq!(m.max_degree_bound(), 4);
    assert_eq!(m.degree(NodeId(0)), 3, "the bound stays above the hub");
    assert_eq!(m.epoch_of(NodeId(4)), Epoch(3), "region 2 moved 1 + 2");
}
