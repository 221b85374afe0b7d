//! Dynamic graphs: a seeded, deterministic churn stream over a mutable
//! copy of a CSR graph, with per-node-region generation stamps
//! ([`Epoch`]s) that caches use to invalidate stale entries.
//!
//! The paper's estimators assume a frozen OSN, but real social graphs
//! mutate under the crawler. This module models that drift without giving
//! up the workspace's determinism contract:
//!
//! * [`MutableGraph`] — a copy-on-write view of a
//!   [`LabeledGraph`]: per-node adjacency and label
//!   lists behind `Arc`s, so readers holding a fetched list keep a
//!   consistent snapshot while a mutation swaps in a fresh list.
//! * [`ChurnEvent`] — the three mutations real OSNs exhibit: edge insert
//!   (new friendship), edge delete (unfriending), label flip (a profile
//!   attribute toggles).
//! * [`ChurnSchedule`] — a seeded batch generator on a **virtual-tick**
//!   timetable: batch `i` falls due at tick `(i + 1) ·
//!   batch_interval_ticks`, and its events are drawn from
//!   `StdRng::seed_from_u64(replication_seed(seed, i))`. Given the same
//!   seed and the same sequence of `advance_to` ticks, two runs apply the
//!   identical event stream — epochs advance on virtual ticks, never wall
//!   time.
//! * [`Epoch`] — a `u32` generation stamp per node *region* (nodes
//!   sharing `node_id >> region_shift`). Every applied event bumps the
//!   region(s) of the node(s) it touched with a wrapping increment;
//!   staleness is defined as `stored != current`, so wraparound can delay
//!   an *eviction* by one lap but can never manufacture a false *hit*.
//!
//! The cache layers in `labelcount-osn` stamp each entry with the epoch
//! it was filled at and treat a mismatched stamp as a miss.

use std::iter;
use std::sync::Arc;

use labelcount_stats::replication_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::csr::LabeledGraph;
use crate::ids::{LabelId, NodeId};

/// A generation stamp for a node region: bumped (wrapping) every time a
/// churn event touches the region.
///
/// Cache entries store the epoch they were filled at; an entry is **stale**
/// exactly when its stored epoch differs from the region's current one
/// ([`Epoch::is_stale_vs`]). Inequality — not ordering — is the test, so a
/// wrapped-around counter can never masquerade as fresh.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Epoch(pub u32);

impl Epoch {
    /// The epoch every static (never-churning) backend reports. A cache
    /// entry stamped `STATIC` over a backend that always answers `STATIC`
    /// is never stale — the pre-churn behavior.
    pub const STATIC: Epoch = Epoch(0);

    /// The successor epoch (wrapping at `u32::MAX`).
    #[must_use = "returns the bumped epoch"]
    pub fn next(self) -> Epoch {
        Epoch(self.0.wrapping_add(1))
    }

    /// Whether a cache entry stamped `self` is stale against the region's
    /// `current` epoch. Any difference is staleness: after 2³² bumps the
    /// counter laps, which costs one spurious refetch, never a false hit.
    pub fn is_stale_vs(self, current: Epoch) -> bool {
        self != current
    }
}

/// One mutation of the served graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A new friendship `{u, v}`. No-op if the edge exists, `u == v`, or
    /// either endpoint is out of range.
    InsertEdge(NodeId, NodeId),
    /// An unfriending of `{u, v}`. No-op if the edge does not exist.
    DeleteEdge(NodeId, NodeId),
    /// Toggles label `t` on `u`'s profile: removed if present, added if
    /// absent.
    FlipLabel(NodeId, LabelId),
}

/// A mutable copy-on-write view of a [`LabeledGraph`] with per-region
/// epoch stamps.
///
/// Per-node adjacency and label lists live behind `Arc`s: applying an
/// event clones only the touched node's list, so concurrent readers that
/// already fetched a list keep a consistent (possibly stale) snapshot and
/// the epoch stamp is what tells downstream caches to refetch.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    adj: Vec<Arc<[NodeId]>>,
    labels: Vec<Arc<[LabelId]>>,
    /// Per-endpoint epochs, one per node region (`node_id >>
    /// region_shift`): edge events bump `edge_epochs`, label flips bump
    /// `label_epochs`. The split keeps a label-only flip from
    /// invalidating cached *neighbor lists* of the whole region (and vice
    /// versa) — see [`MutableGraph::avoided_neighbor_invalidations`].
    edge_epochs: Vec<Epoch>,
    label_epochs: Vec<Epoch>,
    region_shift: u32,
    num_edges: usize,
    /// Monotone upper bound on the maximum degree: raised by inserts,
    /// deliberately not lowered by deletes (a bound must only stay valid).
    max_degree_bound: usize,
    num_labels: usize,
    /// Label flips applied — each one a region whose neighbor-list stamp
    /// survived where a shared epoch would have evicted it.
    avoided_neighbor_invalidations: u64,
}

impl MutableGraph {
    /// Builds a mutable view of `graph` with one epoch per `1 <<
    /// region_shift` consecutive node ids. `region_shift == 0` stamps
    /// every node individually (finest invalidation, most epoch storage);
    /// larger shifts trade precision for footprint.
    pub fn new(graph: &LabeledGraph, region_shift: u32) -> MutableGraph {
        assert!(region_shift < 32, "region_shift must leave node bits");
        let n = graph.num_nodes();
        let regions = (n >> region_shift) + 1;
        MutableGraph {
            adj: graph
                .nodes()
                .map(|u| Arc::from(graph.neighbors(u)))
                .collect(),
            labels: graph.nodes().map(|u| Arc::from(graph.labels(u))).collect(),
            edge_epochs: vec![Epoch::STATIC; regions.max(1)],
            label_epochs: vec![Epoch::STATIC; regions.max(1)],
            region_shift,
            num_edges: graph.num_edges(),
            max_degree_bound: graph.nodes().map(|u| graph.degree(u)).max().unwrap_or(0),
            num_labels: graph.num_labels(),
            avoided_neighbor_invalidations: 0,
        }
    }

    /// `|V|` (fixed: churn mutates edges and labels, never the node set).
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// `|E|` of the current snapshot.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Distinct label ids the label models assigned (fixed under churn —
    /// flips toggle existing labels, they don't mint new ones).
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Upper bound on the maximum degree, valid for every snapshot served
    /// so far.
    pub fn max_degree_bound(&self) -> usize {
        self.max_degree_bound
    }

    /// The current sorted friend list of `u` (shared, clone-free).
    pub fn neighbors(&self, u: NodeId) -> &Arc<[NodeId]> {
        &self.adj[u.index()]
    }

    /// The current sorted profile labels of `u` (shared, clone-free).
    pub fn labels(&self, u: NodeId) -> &Arc<[LabelId]> {
        &self.labels[u.index()]
    }

    /// Degree of `u` in the current snapshot.
    pub fn degree(&self, u: NodeId) -> usize {
        self.adj[u.index()].len()
    }

    /// The region index of `u`.
    fn region(&self, u: NodeId) -> usize {
        (u.0 >> self.region_shift) as usize
    }

    /// The current *edge* (neighbor-list) epoch of `u`'s region — what
    /// neighbor-list cache entries are stamped and compared with.
    pub fn epoch_of(&self, u: NodeId) -> Epoch {
        self.edge_epochs[self.region(u)]
    }

    /// The current *label* epoch of `u`'s region — what label-set cache
    /// entries are stamped and compared with. Bumped only by label flips,
    /// so edge churn never invalidates cached label sets.
    pub fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.label_epochs[self.region(u)]
    }

    /// Neighbor-list invalidations the epoch split avoided: one per
    /// applied label flip, whose region's edge epoch stayed intact where
    /// the old shared stamp would have evicted every cached neighbor list
    /// in the region.
    pub fn avoided_neighbor_invalidations(&self) -> u64 {
        self.avoided_neighbor_invalidations
    }

    /// Bumps the edge epoch of `u`'s region (wrapping).
    fn bump_edges(&mut self, u: NodeId) {
        let r = self.region(u);
        self.edge_epochs[r] = self.edge_epochs[r].next();
    }

    /// Bumps the label epoch of `u`'s region (wrapping).
    fn bump_labels(&mut self, u: NodeId) {
        let r = self.region(u);
        self.label_epochs[r] = self.label_epochs[r].next();
    }

    /// Overrides both epochs of `u`'s region — a test hook for exercising
    /// wraparound without 2³² bumps.
    #[doc(hidden)]
    pub fn set_region_epoch(&mut self, u: NodeId, epoch: Epoch) {
        let r = self.region(u);
        self.edge_epochs[r] = epoch;
        self.label_epochs[r] = epoch;
    }

    /// Whether the current snapshot contains the edge `{u, v}`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Materializes the current snapshot as an immutable [`LabeledGraph`]
    /// — how evaluation code computes *fresh* ground truth against a
    /// churned graph (estimators never see this; they read through the
    /// OSN API).
    pub fn to_labeled_graph(&self) -> LabeledGraph {
        let mut b = crate::builder::GraphBuilder::new(self.num_nodes());
        for (i, ns) in self.adj.iter().enumerate() {
            let u = NodeId(i as u32);
            for &v in ns.iter() {
                if u < v {
                    b.add_edge(u, v);
                }
            }
        }
        for (i, ls) in self.labels.iter().enumerate() {
            b.set_labels(NodeId(i as u32), ls);
        }
        b.build()
    }

    // Both rebuilds collect an exact-size iterator straight into the
    // `Arc`: one allocation and one copy per rebuilt list.
    fn with_inserted<T: Copy>(list: &[T], x: T, at: usize) -> Arc<[T]> {
        let (head, tail) = list.split_at(at);
        head.iter()
            .copied()
            .chain(iter::once(x))
            .chain(tail.iter().copied())
            .collect()
    }

    fn with_removed<T: Copy>(list: &[T], at: usize) -> Arc<[T]> {
        list[..at].iter().chain(&list[at + 1..]).copied().collect()
    }

    /// Applies one event. Returns `true` if the graph changed (and the
    /// touched regions' epochs were bumped); no-op events leave every
    /// epoch untouched so they can never cause spurious invalidation.
    pub fn apply(&mut self, event: ChurnEvent) -> bool {
        match event {
            ChurnEvent::InsertEdge(u, v) => {
                if u == v || u.index() >= self.num_nodes() || v.index() >= self.num_nodes() {
                    return false;
                }
                let (Err(iu), Err(iv)) = (
                    self.adj[u.index()].binary_search(&v),
                    self.adj[v.index()].binary_search(&u),
                ) else {
                    return false;
                };
                self.adj[u.index()] = Self::with_inserted(&self.adj[u.index()], v, iu);
                self.adj[v.index()] = Self::with_inserted(&self.adj[v.index()], u, iv);
                self.num_edges += 1;
                self.max_degree_bound = self
                    .max_degree_bound
                    .max(self.degree(u))
                    .max(self.degree(v));
                self.bump_edges(u);
                self.bump_edges(v);
                true
            }
            ChurnEvent::DeleteEdge(u, v) => {
                if u.index() >= self.num_nodes() || v.index() >= self.num_nodes() {
                    return false;
                }
                let (Ok(iu), Ok(iv)) = (
                    self.adj[u.index()].binary_search(&v),
                    self.adj[v.index()].binary_search(&u),
                ) else {
                    return false;
                };
                self.adj[u.index()] = Self::with_removed(&self.adj[u.index()], iu);
                self.adj[v.index()] = Self::with_removed(&self.adj[v.index()], iv);
                self.num_edges -= 1;
                self.bump_edges(u);
                self.bump_edges(v);
                true
            }
            ChurnEvent::FlipLabel(u, t) => {
                if u.index() >= self.num_nodes() {
                    return false;
                }
                match self.labels[u.index()].binary_search(&t) {
                    Ok(at) => {
                        self.labels[u.index()] = Self::with_removed(&self.labels[u.index()], at)
                    }
                    Err(at) => {
                        self.labels[u.index()] = Self::with_inserted(&self.labels[u.index()], t, at)
                    }
                }
                // Label-only: the region's edge epoch is left alone, so
                // cached neighbor lists survive — that's the invalidation
                // the split buys, made countable.
                self.bump_labels(u);
                self.avoided_neighbor_invalidations += 1;
                true
            }
        }
    }
}

/// The shape of a churn stream: seed, batch size, and the virtual-tick
/// timetable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnConfig {
    /// Base seed of the event stream; batch `i` draws from
    /// `replication_seed(seed, i)`.
    pub seed: u64,
    /// Events drawn per batch (no-op draws still count — the *stream* is
    /// fixed-size, the applied mutations may be fewer).
    pub events_per_batch: usize,
    /// Virtual ticks between batches: batch `i` (0-based) falls due at
    /// tick `(i + 1) · batch_interval_ticks`. Tick 0 is always pre-churn.
    pub batch_interval_ticks: u64,
    /// Epoch granularity: nodes sharing `id >> region_shift` share a
    /// stamp.
    pub region_shift: u32,
}

impl ChurnConfig {
    /// A churn stream sized from a per-batch *rate* (events per batch as a
    /// fraction of `|V|`, the same normalization the paper uses for call
    /// budgets). `rate <= 0` yields zero events per batch — the static
    /// graph, bit-identical to never churning at all.
    pub fn from_rate(seed: u64, rate: f64, num_nodes: usize, interval_ticks: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            events_per_batch: events_for_rate(rate, num_nodes),
            batch_interval_ticks: interval_ticks,
            region_shift: DEFAULT_REGION_SHIFT,
        }
    }
}

/// Default epoch granularity: regions of 16 consecutive node ids —
/// coarse enough that the epoch array is 1/16th of a per-node array, fine
/// enough that one event invalidates a sliver of the cache, not all of it.
pub const DEFAULT_REGION_SHIFT: u32 = 4;

/// Events per batch for a churn `rate` quoted as a fraction of `|V|`:
/// `max(1, round(rate · n))` when the rate is positive, else 0.
pub fn events_for_rate(rate: f64, num_nodes: usize) -> usize {
    if rate <= 0.0 || num_nodes == 0 {
        0
    } else {
        ((rate * num_nodes as f64).round() as usize).max(1)
    }
}

/// Stream id for churn seed derivations (documented alongside the perf
/// harness's other stream ids).
const STREAM_EVENT_KIND: u64 = 0xC0A1_0001;

/// A deterministic virtual-tick batch schedule over a [`MutableGraph`].
///
/// `advance_to(tick)` applies every batch due at or before `tick`, in
/// batch order. The generator is *state-dependent* (deletes pick an
/// existing edge, flips pick an existing node), which is safe because
/// batches apply at serial control points only — the stream is a pure
/// function of `(config, the graph state it has produced so far)`.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    cfg: ChurnConfig,
    next_batch: u64,
}

/// Running totals of what a schedule has applied so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnStats {
    /// Batches applied.
    pub batches: u64,
    /// Events drawn (including no-op draws).
    pub events_drawn: u64,
    /// Edges actually inserted.
    pub edges_inserted: u64,
    /// Edges actually deleted.
    pub edges_deleted: u64,
    /// Labels actually flipped.
    pub labels_flipped: u64,
}

impl ChurnStats {
    /// Mutations that actually changed the graph.
    pub fn events_applied(&self) -> u64 {
        self.edges_inserted + self.edges_deleted + self.labels_flipped
    }
}

impl ChurnSchedule {
    /// A schedule at batch 0 (nothing applied yet).
    pub fn new(cfg: ChurnConfig) -> ChurnSchedule {
        ChurnSchedule { cfg, next_batch: 0 }
    }

    /// The schedule's configuration.
    pub fn config(&self) -> &ChurnConfig {
        &self.cfg
    }

    /// The virtual tick at which the next unapplied batch falls due, or
    /// `None` for a schedule that never fires (zero events or interval).
    pub fn next_due_tick(&self) -> Option<u64> {
        (self.cfg.events_per_batch > 0 && self.cfg.batch_interval_ticks > 0)
            .then(|| (self.next_batch + 1).saturating_mul(self.cfg.batch_interval_ticks))
    }

    /// Applies every batch due at or before `tick` to `graph`, updating
    /// `stats`. Ticks never run backwards: a `tick` below everything due
    /// is a no-op, so callers can pass their current virtual clock
    /// unconditionally.
    pub fn advance_to(&mut self, graph: &mut MutableGraph, tick: u64, stats: &mut ChurnStats) {
        while let Some(due) = self.next_due_tick() {
            if due > tick {
                break;
            }
            self.apply_batch(graph, stats);
        }
    }

    /// Applies exactly one batch (the next in sequence) regardless of
    /// ticks — the hook for callers that drive churn per control point
    /// rather than per clock.
    pub fn apply_batch(&mut self, graph: &mut MutableGraph, stats: &mut ChurnStats) {
        let batch = self.next_batch;
        self.next_batch += 1;
        if self.cfg.events_per_batch == 0 || graph.num_nodes() == 0 {
            stats.batches += 1;
            return;
        }
        let mut rng = StdRng::seed_from_u64(replication_seed(
            replication_seed(self.cfg.seed, STREAM_EVENT_KIND),
            batch,
        ));
        let n = graph.num_nodes() as u32;
        for _ in 0..self.cfg.events_per_batch {
            stats.events_drawn += 1;
            // 40% inserts, 30% deletes, 30% flips: mild densification,
            // matching the "friendships accrete faster than they dissolve"
            // shape of real OSN snapshots.
            let kind = rng.gen_range(0u32..10);
            let event = if kind < 4 {
                let u = NodeId(rng.gen_range(0..n));
                let v = NodeId(rng.gen_range(0..n));
                ChurnEvent::InsertEdge(u, v)
            } else if kind < 7 {
                // Delete an *existing* edge when one is reachable in a few
                // seeded probes; whiff (a no-op draw) otherwise.
                let mut picked = None;
                for _ in 0..4 {
                    let u = NodeId(rng.gen_range(0..n));
                    let deg = graph.degree(u);
                    if deg > 0 {
                        let v = graph.neighbors(u)[rng.gen_range(0..deg)];
                        picked = Some(ChurnEvent::DeleteEdge(u, v));
                        break;
                    }
                }
                match picked {
                    Some(ev) => ev,
                    None => continue,
                }
            } else {
                let u = NodeId(rng.gen_range(0..n));
                // Flip within the assigned label-id space (ids start at 1
                // in every label model; id 0 is never used as a target).
                let t = LabelId(rng.gen_range(1..graph.num_labels().max(2) as u32));
                ChurnEvent::FlipLabel(u, t)
            };
            if graph.apply(event) {
                match event {
                    ChurnEvent::InsertEdge(..) => stats.edges_inserted += 1,
                    ChurnEvent::DeleteEdge(..) => stats.edges_deleted += 1,
                    ChurnEvent::FlipLabel(..) => stats.labels_flipped += 1,
                }
            }
        }
        stats.batches += 1;
    }
}

#[cfg(test)]
impl MutableGraph {
    /// Test fingerprint: every adjacency/label list plus both epoch
    /// arrays.
    #[allow(clippy::type_complexity)]
    fn nodes_fingerprint(&self) -> (Vec<Vec<NodeId>>, Vec<Vec<LabelId>>, Vec<Epoch>, Vec<Epoch>) {
        (
            self.adj.iter().map(|a| a.to_vec()).collect(),
            self.labels.iter().map(|l| l.to_vec()).collect(),
            self.edge_epochs.clone(),
            self.label_epochs.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn small() -> LabeledGraph {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        for u in 0..6u32 {
            b.set_labels(NodeId(u), &[LabelId(1 + (u % 2))]);
        }
        b.build()
    }

    #[test]
    fn construction_mirrors_the_csr_graph() {
        let g = small();
        let m = MutableGraph::new(&g, 0);
        assert_eq!(m.num_nodes(), g.num_nodes());
        assert_eq!(m.num_edges(), g.num_edges());
        for u in g.nodes() {
            assert_eq!(&m.neighbors(u)[..], g.neighbors(u));
            assert_eq!(&m.labels(u)[..], g.labels(u));
            assert_eq!(m.epoch_of(u), Epoch::STATIC);
            assert_eq!(m.label_epoch_of(u), Epoch::STATIC);
        }
        assert_eq!(m.avoided_neighbor_invalidations(), 0);
    }

    #[test]
    fn insert_bumps_both_endpoint_regions_and_keeps_lists_sorted() {
        let g = small();
        let mut m = MutableGraph::new(&g, 0);
        assert!(m.apply(ChurnEvent::InsertEdge(NodeId(0), NodeId(5))));
        assert_eq!(m.num_edges(), g.num_edges() + 1);
        assert_eq!(m.epoch_of(NodeId(0)), Epoch(1));
        assert_eq!(m.epoch_of(NodeId(5)), Epoch(1));
        assert_eq!(m.epoch_of(NodeId(3)), Epoch(0));
        // Edge events leave label epochs alone: cached label sets survive.
        assert_eq!(m.label_epoch_of(NodeId(0)), Epoch(0));
        assert_eq!(m.label_epoch_of(NodeId(5)), Epoch(0));
        assert!(m.neighbors(NodeId(0)).windows(2).all(|w| w[0] < w[1]));
        // Duplicate insert and self-loop are epoch-preserving no-ops.
        assert!(!m.apply(ChurnEvent::InsertEdge(NodeId(0), NodeId(5))));
        assert!(!m.apply(ChurnEvent::InsertEdge(NodeId(2), NodeId(2))));
        assert_eq!(m.epoch_of(NodeId(0)), Epoch(1));
    }

    #[test]
    fn delete_and_flip_bump_only_what_they_touch() {
        let g = small();
        let mut m = MutableGraph::new(&g, 0);
        assert!(m.apply(ChurnEvent::DeleteEdge(NodeId(0), NodeId(1))));
        assert_eq!(m.num_edges(), g.num_edges() - 1);
        assert!(!m.apply(ChurnEvent::DeleteEdge(NodeId(0), NodeId(1))));
        assert!(m.apply(ChurnEvent::FlipLabel(NodeId(4), LabelId(2))));
        assert!(m.apply(ChurnEvent::FlipLabel(NodeId(4), LabelId(2))));
        // Two flips restore the label set but not the label epoch — the
        // cache must refetch to *learn* nothing changed. The *edge* epoch
        // of the flipped region stays put: each flip is a neighbor-list
        // invalidation avoided.
        assert_eq!(&m.labels(NodeId(4))[..], g.labels(NodeId(4)));
        assert_eq!(m.label_epoch_of(NodeId(4)), Epoch(2));
        assert_eq!(m.epoch_of(NodeId(4)), Epoch(0));
        assert_eq!(m.avoided_neighbor_invalidations(), 2);
        // And the delete left the label epoch of its endpoints alone.
        assert_eq!(m.label_epoch_of(NodeId(0)), Epoch(0));
    }

    #[test]
    fn snapshots_held_by_readers_survive_mutation() {
        let g = small();
        let mut m = MutableGraph::new(&g, 0);
        let before = Arc::clone(m.neighbors(NodeId(0)));
        m.apply(ChurnEvent::InsertEdge(NodeId(0), NodeId(5)));
        assert_eq!(&before[..], g.neighbors(NodeId(0)), "held snapshot mutated");
        assert_ne!(m.neighbors(NodeId(0)).len(), before.len());
    }

    #[test]
    fn epoch_wraparound_is_stale_never_fresh() {
        assert_eq!(Epoch(u32::MAX).next(), Epoch(0));
        assert!(Epoch(u32::MAX).is_stale_vs(Epoch(0)));
        assert!(Epoch(0).is_stale_vs(Epoch(u32::MAX)));
        assert!(!Epoch(7).is_stale_vs(Epoch(7)));
        let g = small();
        let mut m = MutableGraph::new(&g, 0);
        m.set_region_epoch(NodeId(0), Epoch(u32::MAX));
        m.apply(ChurnEvent::FlipLabel(NodeId(0), LabelId(2)));
        assert_eq!(m.label_epoch_of(NodeId(0)), Epoch(0), "bump must wrap");
        // The flip never touched the edge epoch, so the override value
        // is still there.
        assert_eq!(m.epoch_of(NodeId(0)), Epoch(u32::MAX));
    }

    #[test]
    fn region_shift_coarsens_stamps() {
        let g = small();
        let mut m = MutableGraph::new(&g, 2);
        m.apply(ChurnEvent::FlipLabel(NodeId(1), LabelId(2)));
        // Nodes 0..4 share region 0 under shift 2; nodes 4.. are region 1.
        assert_eq!(m.label_epoch_of(NodeId(0)), Epoch(1));
        assert_eq!(m.label_epoch_of(NodeId(3)), Epoch(1));
        assert_eq!(m.label_epoch_of(NodeId(4)), Epoch(0));
        // Neighbor-list stamps of the shared region are untouched.
        assert_eq!(m.epoch_of(NodeId(0)), Epoch(0));
    }

    #[test]
    fn schedule_is_deterministic_and_tick_driven() {
        let g = small();
        let cfg = ChurnConfig {
            seed: 11,
            events_per_batch: 3,
            batch_interval_ticks: 10,
            region_shift: 0,
        };
        let run = |ticks: &[u64]| {
            let mut m = MutableGraph::new(&g, cfg.region_shift);
            let mut s = ChurnSchedule::new(cfg);
            let mut st = ChurnStats::default();
            for &t in ticks {
                s.advance_to(&mut m, t, &mut st);
            }
            (m.nodes_fingerprint(), st)
        };
        // One jump to tick 35 and stepwise advance through the same ticks
        // apply the same 3 batches.
        let (a, sa) = run(&[35]);
        let (b, sb) = run(&[5, 10, 20, 30, 35]);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.batches, 3);
        assert_eq!(sa.events_drawn, (3 * cfg.events_per_batch) as u64);
        // Tick 9 is pre-churn.
        let (c, sc) = run(&[9]);
        assert_eq!(c, MutableGraph::new(&g, 0).nodes_fingerprint());
        assert_eq!(sc.batches, 0);
    }

    #[test]
    fn zero_rate_schedules_never_fire() {
        let cfg = ChurnConfig::from_rate(5, 0.0, 1_000, 10);
        assert_eq!(cfg.events_per_batch, 0);
        let g = small();
        let mut m = MutableGraph::new(&g, cfg.region_shift);
        let mut s = ChurnSchedule::new(cfg);
        let mut st = ChurnStats::default();
        s.advance_to(&mut m, u64::MAX, &mut st);
        assert_eq!(st, ChurnStats::default());
        assert_eq!(s.next_due_tick(), None);
        assert_eq!(
            events_for_rate(0.0001, 1_000),
            1,
            "positive rates floor at 1"
        );
        assert_eq!(events_for_rate(0.05, 1_000), 50);
    }

    #[test]
    fn churn_on_empty_and_isolated_graphs_is_safe() {
        // Empty graph: zero nodes, schedule draws nothing.
        let empty = GraphBuilder::new(0).build();
        let mut m = MutableGraph::new(&empty, 4);
        let mut s = ChurnSchedule::new(ChurnConfig {
            seed: 3,
            events_per_batch: 5,
            batch_interval_ticks: 1,
            region_shift: 4,
        });
        let mut st = ChurnStats::default();
        s.advance_to(&mut m, 10, &mut st);
        assert_eq!(st.events_drawn, 0);
        assert_eq!(st.batches, 10);
        assert_eq!(m.num_edges(), 0);

        // Isolated nodes: no edges to delete, inserts and flips still land.
        let iso = GraphBuilder::new(4).build();
        let mut m = MutableGraph::new(&iso, 0);
        let mut s = ChurnSchedule::new(ChurnConfig {
            seed: 4,
            events_per_batch: 8,
            batch_interval_ticks: 1,
            region_shift: 0,
        });
        let mut st = ChurnStats::default();
        s.advance_to(&mut m, 5, &mut st);
        assert_eq!(st.batches, 5);
        assert!(st.events_drawn > 0);
        assert!(
            st.edges_deleted <= st.edges_inserted,
            "an initially edgeless graph can only delete what churn inserted"
        );
        assert_eq!(
            m.num_edges(),
            (st.edges_inserted - st.edges_deleted) as usize
        );
        for u in 0..4u32 {
            assert!(m.neighbors(NodeId(u)).windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn to_labeled_graph_round_trips_the_snapshot() {
        let g = {
            let mut b = GraphBuilder::new(5);
            b.add_edge(NodeId(0), NodeId(1));
            b.add_edge(NodeId(1), NodeId(2));
            b.add_edge(NodeId(3), NodeId(4));
            b.set_labels(NodeId(0), &[LabelId(1)]);
            b.set_labels(NodeId(2), &[LabelId(1), LabelId(2)]);
            b.build()
        };
        let mut m = MutableGraph::new(&g, 0);
        // Pristine round trip first.
        let back = m.to_labeled_graph();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.num_edges(), g.num_edges());
        for u in (0..5u32).map(NodeId) {
            assert_eq!(back.neighbors(u), &**m.neighbors(u));
            assert_eq!(back.labels(u), &**m.labels(u));
        }
        // Mutate, then materialize the churned snapshot.
        assert!(m.apply(ChurnEvent::InsertEdge(NodeId(0), NodeId(4))));
        assert!(m.apply(ChurnEvent::DeleteEdge(NodeId(1), NodeId(2))));
        assert!(m.apply(ChurnEvent::FlipLabel(NodeId(1), LabelId(2))));
        let churned = m.to_labeled_graph();
        assert_eq!(churned.num_edges(), m.num_edges());
        for u in (0..5u32).map(NodeId) {
            assert_eq!(churned.neighbors(u), &**m.neighbors(u), "node {u:?}");
            assert_eq!(churned.labels(u), &**m.labels(u), "node {u:?}");
        }
    }
}
