//! A dynamic (churning) OSN backend, [`ChurnOsn`], and its per-slice read
//! view, [`ChurnView`].
//!
//! Every other backend in the crate serves a frozen graph — the paper's
//! standing assumption. [`ChurnOsn`] drops that assumption: it owns a
//! [`MutableGraph`] plus a seeded [`ChurnSchedule`] and mutates the served
//! graph whenever its virtual clock is advanced ([`ChurnOsn::advance_to`]),
//! bumping per-region [`Epoch`] stamps as it goes. Downstream caches
//! ([`crate::CachedOsn`] L2 entries, [`crate::OsnSession`] L1 slots,
//! [`crate::SliceSession`] entries) store the epoch they were filled at
//! and treat a changed stamp as a miss, so invalidation rides the
//! existing read path — no callbacks, no subscription machinery, just
//! generation stamps (the same protocol hardware caches and MVCC storage
//! engines use).
//!
//! # Determinism
//!
//! Churn advances on **virtual ticks only** — `advance_to` is the one
//! mutation entry point, and callers invoke it at serial control points
//! (between scheduler slices, between experiment phases). Between two
//! `advance_to` calls the backend is effectively immutable, so concurrent
//! readers at any thread count observe one well-defined snapshot and every
//! derived number is bit-identical across thread/shard/worker counts. With
//! `events_per_batch == 0` (churn rate 0) the schedule never fires and the
//! backend behaves exactly like a static [`crate::GraphOsn`] over the seed
//! graph.
//!
//! # Views: one lock per slice
//!
//! Every fetch through [`ChurnOsn`]'s own [`OsnBackend`] impl takes the
//! read lock and clones the node's `Arc` out, so the caller may keep the
//! list across later batches ([`crate::CachedOsn`] L2 entries do). A
//! caller that reads many times between two `advance_to` calls opens a
//! [`ChurnView`] instead ([`ChurnOsn::view`]): it holds the read guard, so
//! its reads borrow the current lists and take no further lock and no
//! refcount. The scheduler runs each churned query slice on one view, so
//! a slice takes one read lock in all, not one per logical call and miss.
//! Between two `advance_to` calls both paths read the same bytes and the
//! same epochs.
//!
//! The lock discipline: a view blocks [`ChurnOsn::advance_to`] until it
//! is dropped, and a `std` `RwLock` may deadlock or panic when the thread
//! holding a read guard asks for the write lock. So scope a view to the
//! reads between two `advance_to` calls, and call none of [`ChurnOsn`]'s
//! own methods while it lives.
//!
//! # Stale-read mode
//!
//! [`ChurnOsn::set_report_epochs`]`(false)` keeps the churn but hides the
//! stamps: `epoch_of` answers [`Epoch::STATIC`] forever, so caches keep
//! serving filled entries however stale they get. That is the *control
//! arm* of the `staleness` experiment — the measured gap between the
//! invalidating and stale-read runs is exactly what epoch invalidation
//! buys. Views honour the setting too.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use labelcount_graph::{
    ChurnConfig, ChurnSchedule, ChurnStats, Epoch, LabelId, LabeledGraph, MutableGraph, NodeId,
};

use crate::api::OsnBackend;
use crate::guard::SliceRef;

/// The mutable state: one lock covers graph, schedule, and counters so a
/// batch application is atomic with respect to readers.
struct Inner {
    graph: MutableGraph,
    schedule: ChurnSchedule,
    stats: ChurnStats,
}

/// An [`OsnBackend`] over a churning graph (see the [module docs](self)).
///
/// `Sync`: readers take the inner `RwLock` in read mode, so fetches from
/// many threads proceed in parallel; only [`ChurnOsn::advance_to`] takes
/// the write lock. Each fetch through this type locks once and hands out
/// the node's own `Arc`, which stays valid across later batches; a
/// [`ChurnView`] locks once for many reads and lends the lists instead.
pub struct ChurnOsn {
    inner: RwLock<Inner>,
    report_epochs: bool,
}

impl ChurnOsn {
    /// Wraps a snapshot of `graph` with the churn stream described by
    /// `cfg` (the graph itself is copied into a [`MutableGraph`]; the
    /// original is not touched).
    pub fn new(graph: &LabeledGraph, cfg: ChurnConfig) -> ChurnOsn {
        ChurnOsn {
            inner: RwLock::new(Inner {
                graph: MutableGraph::new(graph, cfg.region_shift),
                schedule: ChurnSchedule::new(cfg),
                stats: ChurnStats::default(),
            }),
            report_epochs: true,
        }
    }

    /// Toggles epoch reporting. `true` (the default) reports live region
    /// stamps, so epoch-aware caches invalidate; `false` pins
    /// [`OsnBackend::epoch_of`] at [`Epoch::STATIC`], so caches serve
    /// stale entries forever — the control arm of the staleness
    /// experiment.
    #[must_use = "returns the modified backend"]
    pub fn set_report_epochs(mut self, report: bool) -> ChurnOsn {
        self.report_epochs = report;
        self
    }

    /// Whether live epochs are reported (see
    /// [`ChurnOsn::set_report_epochs`]).
    pub fn reports_epochs(&self) -> bool {
        self.report_epochs
    }

    /// Opens a read view of the current snapshot: one read lock held until
    /// the view drops (see the module docs' [lock
    /// discipline](self#views-one-lock-per-slice)).
    #[inline]
    pub fn view(&self) -> ChurnView<'_> {
        ChurnView {
            inner: self.read(),
            report_epochs: self.report_epochs,
        }
    }

    #[inline]
    fn read(&self) -> RwLockReadGuard<'_, Inner> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies every churn batch due at or before virtual `tick`. Call at
    /// serial control points only (between scheduler slices, between
    /// experiment phases), with no [`ChurnView`] of this backend open;
    /// ticks are the scheduler's virtual time, never wall time, which is
    /// what keeps churned runs bit-identical across thread counts.
    pub fn advance_to(&self, tick: u64) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let Inner {
            graph,
            schedule,
            stats,
        } = &mut *inner;
        schedule.advance_to(graph, tick, stats);
    }

    /// The next virtual tick at which a batch is due, or `None` when the
    /// stream is empty (churn rate 0).
    pub fn next_due_tick(&self) -> Option<u64> {
        self.read().schedule.next_due_tick()
    }

    /// Snapshot of the churn accounting so far.
    pub fn churn_stats(&self) -> ChurnStats {
        self.read().stats
    }

    /// The churn configuration in force.
    pub fn churn_config(&self) -> ChurnConfig {
        *self.read().schedule.config()
    }

    /// Neighbor-list invalidations the per-endpoint epoch split avoided
    /// so far (one per applied label flip — see
    /// [`MutableGraph::avoided_neighbor_invalidations`]).
    pub fn avoided_neighbor_invalidations(&self) -> u64 {
        self.read().graph.avoided_neighbor_invalidations()
    }

    /// Materializes the current snapshot as an immutable
    /// [`LabeledGraph`] — evaluation-side only, for computing *fresh*
    /// ground truth against the churned graph. Estimators must not use
    /// this.
    pub fn ground_truth_snapshot(&self) -> LabeledGraph {
        self.read().graph.to_labeled_graph()
    }
}

/// Each call opens a view, reads, and drops it: one read lock per call,
/// and fetched lists are the node's own `Arc`s, valid after later batches.
impl OsnBackend for ChurnOsn {
    fn num_nodes(&self) -> usize {
        self.view().num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.view().num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        self.view().max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        SliceRef::Shared(Arc::clone(self.view().neighbors(u)))
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        SliceRef::Shared(Arc::clone(self.view().labels(u)))
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        self.view().epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.view().label_epoch_of(u)
    }
}

/// A read view of a [`ChurnOsn`]'s current snapshot, from
/// [`ChurnOsn::view`].
///
/// It holds the backend's read guard, so its reads take no lock, and
/// fetches return [`SliceRef::Borrowed`] borrows of the current lists: no
/// refcount is touched. While it lives no batch can land, so every read
/// sees one snapshot.
///
/// Scope a view to the reads between two [`ChurnOsn::advance_to`] calls
/// and call none of the [`ChurnOsn`]'s own methods while it lives: with
/// the read lock held, a write lock on the same thread may deadlock or
/// panic, and so may a second read lock when a writer waits.
pub struct ChurnView<'a> {
    inner: RwLockReadGuard<'a, Inner>,
    report_epochs: bool,
}

impl ChurnView<'_> {
    /// The current friend list of `u`: the node's own `Arc`.
    fn neighbors(&self, u: NodeId) -> &Arc<[NodeId]> {
        self.inner.graph.neighbors(u)
    }

    /// The current profile labels of `u`: the node's own `Arc`.
    fn labels(&self, u: NodeId) -> &Arc<[LabelId]> {
        self.inner.graph.labels(u)
    }
}

impl OsnBackend for ChurnView<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        // Prior knowledge tracks the live graph: the OSN owner republishes
        // |E| as it drifts.
        self.inner.graph.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        // Monotone: raised by inserts, never lowered, so a bound handed to
        // a running estimator stays valid across batches.
        self.inner.graph.max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        SliceRef::Borrowed(self.neighbors(u))
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        SliceRef::Borrowed(self.labels(u))
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        if !self.report_epochs {
            return Epoch::STATIC;
        }
        self.inner.graph.epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        if !self.report_epochs {
            return Epoch::STATIC;
        }
        self.inner.graph.label_epoch_of(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{AdversarialOsn, FaultConfig, RetryPolicy};
    use crate::cached::{CachedOsn, GraphOsn};
    use crate::slice::SliceSession;
    use crate::OsnApi;
    use labelcount_graph::{ChurnEvent, GraphBuilder};

    fn ring(n: u32) -> LabeledGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n {
            b.add_edge(NodeId(i), NodeId((i + 1) % n));
        }
        for i in 0..n {
            b.set_labels(NodeId(i), &[LabelId(1 + (i % 2))]);
        }
        b.build()
    }

    fn cfg(seed: u64, events: usize, interval: u64) -> ChurnConfig {
        ChurnConfig {
            seed,
            events_per_batch: events,
            batch_interval_ticks: interval,
            region_shift: 0,
        }
    }

    fn assert_sync<T: Sync>(_: &T) {}

    #[test]
    fn churn_osn_is_sync() {
        let g = ring(8);
        let osn = ChurnOsn::new(&g, cfg(1, 2, 10));
        assert_sync(&osn);
    }

    #[test]
    fn zero_rate_matches_static_backend() {
        let g = ring(16);
        let churn = ChurnOsn::new(&g, cfg(1, 0, 10));
        let staticb = GraphOsn::new(&g);
        churn.advance_to(1_000_000);
        assert_eq!(churn.num_edges(), staticb.num_edges());
        assert_eq!(churn.next_due_tick(), None);
        for u in (0..16u32).map(NodeId) {
            assert_eq!(&*churn.fetch_neighbors(u), &*staticb.fetch_neighbors(u));
            assert_eq!(&*churn.fetch_labels(u), &*staticb.fetch_labels(u));
            assert_eq!(churn.epoch_of(u), Epoch::STATIC);
        }
        assert_eq!(churn.churn_stats().events_drawn, 0);
    }

    #[test]
    fn advance_is_idempotent_and_monotone() {
        let g = ring(16);
        let osn = ChurnOsn::new(&g, cfg(7, 3, 5));
        osn.advance_to(20); // batches at 5, 10, 15, 20
        let s1 = osn.churn_stats();
        assert_eq!(s1.batches, 4);
        osn.advance_to(20); // nothing new due
        osn.advance_to(12); // going "back" is a no-op, not a rewind
        assert_eq!(osn.churn_stats(), s1);
        osn.advance_to(25);
        assert_eq!(osn.churn_stats().batches, 5);
    }

    #[test]
    fn epochs_drive_cache_invalidation_end_to_end() {
        let g = ring(32);
        let osn = ChurnOsn::new(&g, cfg(11, 20, 10));
        let cache = CachedOsn::new(osn);
        let s = cache.session();
        // Warm every node at epoch 0.
        for u in (0..32u32).map(NodeId) {
            s.neighbors(u);
            s.labels(u);
        }
        drop(s);
        assert_eq!(cache.stats().misses(), 64);

        cache.backend().advance_to(10); // one batch of 20 events
        let st = cache.backend().churn_stats();
        assert!(st.events_applied() > 0, "20 draws on a ring must land some");

        let s = cache.session();
        for u in (0..32u32).map(NodeId) {
            s.neighbors(u);
            s.labels(u);
        }
        drop(s);
        let cs = cache.stats();
        // Every touched region was refetched (L2 stale evictions); the
        // rest were honest hits.
        assert!(cs.l2_stale_evictions > 0, "churn must invalidate something");
        assert_eq!(
            cs.misses(),
            64 + cs.l2_stale_evictions,
            "refetches must equal stale discoveries exactly"
        );
    }

    #[test]
    fn label_flips_leave_cached_neighbor_lists_alone() {
        let g = ring(8);
        // A schedule that never fires: we drive flips by hand through the
        // backend's own clock-free surface to isolate the epoch split.
        let osn = ChurnOsn::new(&g, cfg(1, 0, 10));
        let cache = CachedOsn::new(osn);
        let s = cache.session();
        for u in (0..8u32).map(NodeId) {
            s.neighbors(u);
            s.labels(u);
        }
        drop(s);
        assert_eq!(cache.stats().misses(), 16);

        // Flip a label on every node — under the old shared epoch this
        // invalidated every cached neighbor list too.
        {
            let mut inner = cache.backend().inner.write().unwrap();
            for u in (0..8u32).map(NodeId) {
                assert!(inner.graph.apply(ChurnEvent::FlipLabel(u, LabelId(1))));
            }
        }
        assert_eq!(cache.backend().avoided_neighbor_invalidations(), 8);

        let s = cache.session();
        for u in (0..8u32).map(NodeId) {
            s.neighbors(u); // all honest hits: edge epochs untouched
            s.labels(u); // all stale: label epochs bumped
        }
        drop(s);
        let cs = cache.stats();
        assert_eq!(cs.l2_stale_evictions, 8, "only label entries invalidate");
        assert_eq!(cs.misses(), 16 + 8);
    }

    #[test]
    fn stale_read_mode_hides_churn_from_caches() {
        let g = ring(32);
        let osn = ChurnOsn::new(&g, cfg(11, 20, 10)).set_report_epochs(false);
        assert!(!osn.reports_epochs());
        let cache = CachedOsn::new(osn);
        let s = cache.session();
        for u in (0..32u32).map(NodeId) {
            s.neighbors(u);
        }
        drop(s);
        cache.backend().advance_to(10);
        assert!(cache.backend().churn_stats().events_applied() > 0);
        let s = cache.session();
        for u in (0..32u32).map(NodeId) {
            s.neighbors(u); // stale L2 hits: the control arm
        }
        drop(s);
        let cs = cache.stats();
        assert_eq!(cs.misses(), 32, "no refetches in stale-read mode");
        assert_eq!(cs.stale_evictions(), 0);
    }

    #[test]
    fn deterministic_across_reader_thread_counts() {
        let g = ring(64);
        let run = |threads: usize| -> (Vec<Vec<NodeId>>, ChurnStats) {
            let osn = ChurnOsn::new(&g, cfg(3, 10, 5));
            osn.advance_to(25); // 5 batches at a serial control point
            let cache = CachedOsn::new(&osn);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let s = cache.session();
                        for u in (0..64u32).map(NodeId) {
                            s.neighbors(u);
                        }
                    });
                }
            });
            let snapshot = (0..64u32)
                .map(|u| osn.fetch_neighbors(NodeId(u)).to_vec())
                .collect();
            (snapshot, osn.churn_stats())
        };
        let (g1, s1) = run(1);
        let (g8, s8) = run(8);
        assert_eq!(g1, g8, "churned data must not depend on reader threads");
        assert_eq!(s1, s8);
    }

    #[test]
    fn ground_truth_snapshot_tracks_the_live_graph() {
        let g = ring(16);
        let osn = ChurnOsn::new(&g, cfg(9, 8, 10));
        let before = osn.ground_truth_snapshot();
        assert_eq!(before.num_edges(), g.num_edges());
        osn.advance_to(50);
        let after = osn.ground_truth_snapshot();
        assert_eq!(after.num_edges(), osn.num_edges());
        let st = osn.churn_stats();
        assert_eq!(
            after.num_edges() as i64 - g.num_edges() as i64,
            st.edges_inserted as i64 - st.edges_deleted as i64
        );
    }

    fn star(n: u32) -> LabeledGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(0), NodeId(i));
            b.set_labels(NodeId(i), &[LabelId(1 + i % 2)]);
        }
        b.build()
    }

    #[test]
    fn a_session_over_a_view_lends_the_nodes_own_lists_untouched() {
        let churn = ChurnOsn::new(&ring(16), cfg(5, 6, 10));
        churn.advance_to(40);
        assert!(churn.churn_stats().events_applied() > 0);
        let u = NodeId(3);
        let (SliceRef::Shared(adj), SliceRef::Shared(labels)) =
            (churn.fetch_neighbors(u), churn.fetch_labels(u))
        else {
            panic!("a per-call fetch hands out the node's own Arc");
        };
        // Ours and the graph's.
        assert_eq!(
            (Arc::strong_count(&adj), Arc::strong_count(&labels)),
            (2, 2)
        );
        let view = churn.view();
        let session = SliceSession::new(AdversarialOsn::new(
            &view,
            FaultConfig::hostile(3, 0.4),
            RetryPolicy::default(),
        ));
        for _ in 0..3 {
            let n = session.neighbors(u);
            let l = session.labels(u);
            assert!(std::ptr::eq(n.as_ptr(), adj.as_ptr()));
            assert!(std::ptr::eq(l.as_ptr(), labels.as_ptr()));
            assert_eq!(
                (Arc::strong_count(&adj), Arc::strong_count(&labels)),
                (2, 2)
            );
        }
    }

    /// `|V|`, `|E|`, the degree bound and every node's epochs, as `b`
    /// reports them.
    fn reads(b: &dyn OsnBackend) -> (usize, usize, usize, Vec<(Epoch, Epoch)>) {
        let epochs = (0..b.num_nodes() as u32)
            .map(NodeId)
            .map(|u| (b.epoch_of(u), b.label_epoch_of(u)))
            .collect();
        (b.num_nodes(), b.num_edges(), b.max_degree_bound(), epochs)
    }

    #[test]
    fn a_view_reads_the_live_edges_bound_and_epochs() {
        for report in [true, false] {
            let churn = ChurnOsn::new(&star(16), cfg(11, 6, 10)).set_report_epochs(report);
            churn.advance_to(50);
            let want = {
                let mut inner = churn.inner.write().unwrap();
                // Shrink the hub below the bound it set.
                for v in 1..4 {
                    inner
                        .graph
                        .apply(ChurnEvent::DeleteEdge(NodeId(0), NodeId(v)));
                }
                let g = &inner.graph;
                let max_degree = (0..16u32).map(|u| g.degree(NodeId(u))).max();
                assert!(Some(g.max_degree_bound()) > max_degree);
                let epochs = (0..16u32)
                    .map(NodeId)
                    .map(|u| match report {
                        true => (g.epoch_of(u), g.label_epoch_of(u)),
                        false => (Epoch::STATIC, Epoch::STATIC),
                    })
                    .collect();
                (g.num_nodes(), g.num_edges(), g.max_degree_bound(), epochs)
            };
            let st = churn.churn_stats();
            assert!(st.edges_deleted > 0 && st.edges_inserted > 0, "{st:?}");
            let view = churn.view();
            let seen = reads(&view);
            drop(view);
            assert_eq!(seen, want, "report_epochs {report}");
            assert_eq!(reads(&churn), want, "report_epochs {report}");
            let moved = want.3.iter().any(|&e| e != (Epoch::STATIC, Epoch::STATIC));
            assert_eq!(moved, report, "report_epochs {report}");
        }
    }
}
