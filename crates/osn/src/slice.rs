//! One query slice's private access cache: [`SliceSession`].
//!
//! The paper bills an estimator per API call, and a caching crawler pays
//! only for a node's first fetch. A cache that is private to one slice
//! therefore only has to remember *which* nodes it fetched and under
//! which [`Epoch`]; it does not need its own copy of their bytes. A
//! [`SliceSession`] keeps, per endpoint, one node-keyed map of the
//! [`SliceRef`] guards the shared backend returned — a borrow of the CSR
//! for [`crate::GraphOsn`] or of the current list for a
//! [`crate::ChurnView`], the backend's own `Arc` for
//! [`crate::PagedGraphOsn`] and a bare [`crate::ChurnOsn`] — so a miss
//! copies nothing and a hit is one hash probe with no lock and no copy
//! (an `Arc`-backed entry adds one uncontended refcount bump).
//!
//! This works because the session borrows the backend for the slice's
//! whole life (`&'s B`): the data is read straight from it, and the fault
//! layer ([`AdversarialOsn`]) only bills the fetch
//! ([`AdversarialOsn::bill_neighbors`], [`AdversarialOsn::bill_labels`]).
//! [`crate::CachedOsn`], which owns its backend, cannot keep such a
//! borrow and must copy borrowed lists.
//!
//! # Equivalence with the shared-cache stack
//!
//! A slice session bills exactly what an [`crate::OsnSession`] over an
//! unbounded, serve-stale-aware [`crate::CachedOsn`] over the same fault
//! layer bills: the same fetches reach the backend in the same order, and
//! every logical call reads the epoch and the endpoint's degradation
//! before its lookup. A fresh entry is a hit and charges nothing. A stale
//! entry is served (and counted in [`SliceSession::stale_served`]) while
//! serve-stale is on and the endpoint is degraded, and is otherwise
//! refetched, billed, and restamped. An absent entry is fetched and
//! billed. `crates/core/tests/proptest_slice_session.rs` holds the two
//! stacks to that, bit for bit.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use labelcount_graph::{Epoch, LabelId, NodeId};

use crate::accounting::SessionAccounting;
use crate::adversarial::AdversarialOsn;
use crate::api::{EndpointKind, FetchCost, OsnApi, OsnBackend};
use crate::cached::NodeKeyHasher;
use crate::guard::SliceRef;

/// A cached answer: the guard the backend returned and the epoch it was
/// fetched under.
struct Entry<'s, T> {
    epoch: Epoch,
    value: SliceRef<'s, T>,
}

type EntryMap<'s, T> = HashMap<u32, Entry<'s, T>, BuildHasherDefault<NodeKeyHasher>>;

fn entry_map<'s, T>(capacity: usize) -> RefCell<EntryMap<'s, T>> {
    RefCell::new(EntryMap::with_capacity_and_hasher(
        capacity,
        Default::default(),
    ))
}

/// One slice's private, unbounded access cache over a shared backend,
/// billed through a per-slice fault layer (see the [module docs](self)).
///
/// It carries the same per-session accounting as [`crate::OsnSession`]:
/// logical calls, retry charges, latency ticks, an optional hard budget
/// on charged neighbor-list calls, and an optional tick ceiling. Like
/// `OsnSession` it is neither `Send` nor `Sync`; build one per slice.
///
/// ```
/// use labelcount_graph::{GraphBuilder, NodeId};
/// use labelcount_osn::{AdversarialOsn, FaultConfig, GraphOsn, OsnApi, RetryPolicy, SliceSession};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
/// let osn = GraphOsn::new(&g);
///
/// let session = SliceSession::new(AdversarialOsn::new(
///     &osn,
///     FaultConfig::hostile(7, 0.3),
///     RetryPolicy::default(),
/// ));
/// let first = session.neighbors(NodeId(1)); // miss: fetched and billed
/// let again = session.neighbors(NodeId(1)); // hit: free
/// // Both guards point into the graph's own adjacency: nothing was copied.
/// assert!(std::ptr::eq(first.as_ptr(), g.neighbors(NodeId(1)).as_ptr()));
/// assert!(std::ptr::eq(again.as_ptr(), first.as_ptr()));
/// assert_eq!(session.api_calls(), 2);
/// assert_eq!(session.backend().fault_stats().retries, session.retry_charges());
/// ```
pub struct SliceSession<'s, B> {
    faults: AdversarialOsn<&'s B>,
    serve_stale: bool,
    neighbors: RefCell<EntryMap<'s, NodeId>>,
    labels: RefCell<EntryMap<'s, LabelId>>,
    stale_served: Cell<u64>,
    acct: SessionAccounting,
}

impl<'s, B: OsnBackend> SliceSession<'s, B> {
    /// Opens an empty session billed through `faults`. Stale entries may
    /// be served during an endpoint's degraded window when the fault
    /// layer's [`crate::ResilienceConfig::serve_stale`] is set.
    pub fn new(faults: AdversarialOsn<&'s B>) -> Self {
        SliceSession::with_capacity(faults, 0, 0)
    }

    /// Opens an empty session, as [`SliceSession::new`], whose neighbor
    /// and label maps hold at least `neighbors` and `labels` entries
    /// before they first grow.
    pub fn with_capacity(faults: AdversarialOsn<&'s B>, neighbors: usize, labels: usize) -> Self {
        SliceSession {
            serve_stale: faults.resilience_config().serve_stale,
            faults,
            neighbors: entry_map(neighbors),
            labels: entry_map(labels),
            stale_served: Cell::new(0),
            acct: SessionAccounting::default(),
        }
    }

    /// The fault layer this session bills its misses through (its
    /// [`AdversarialOsn::fault_stats`] are this slice's fault counts).
    pub fn backend(&self) -> &AdversarialOsn<&'s B> {
        &self.faults
    }

    /// Sets a hard budget on charged neighbor-list calls (logical calls
    /// plus retry charges), as [`crate::OsnSession::set_budget`].
    pub fn set_budget(&self, calls: u64) {
        self.acct.set_budget(Some(calls));
    }

    /// Remaining charged neighbor-list calls under the budget, if one is
    /// set.
    pub fn budget_remaining(&self) -> Option<u64> {
        self.acct.budget_remaining()
    }

    /// Sets a ceiling on this session's latency ticks, as
    /// [`crate::OsnSession::set_tick_ceiling`].
    pub fn set_tick_ceiling(&self, ticks: u64) {
        self.acct.set_tick_ceiling(Some(ticks));
    }

    /// Whether the tick ceiling (if any) has been reached.
    pub fn ticks_exceeded(&self) -> bool {
        self.acct.ticks_exceeded()
    }

    /// Extra billable attempts this session's misses cost beyond their
    /// logical calls.
    pub fn retry_charges(&self) -> u64 {
        self.acct.retry_charges()
    }

    /// Latency ticks this session's misses spent (hits are tick-free).
    pub fn latency_ticks(&self) -> u64 {
        self.acct.latency_ticks()
    }

    /// Stale-epoch entries served as answers during degraded windows.
    pub fn stale_served(&self) -> u64 {
        self.stale_served.get()
    }

    /// Answers one logical call for `u` from `map`, fetching and billing
    /// through `fetch` on a miss or a refetched stale entry.
    fn lookup<T: Clone>(
        &self,
        map: &RefCell<EntryMap<'s, T>>,
        u: NodeId,
        current: Epoch,
        degraded: bool,
        fetch: impl FnOnce() -> (SliceRef<'s, T>, FetchCost),
    ) -> SliceRef<'s, T> {
        let refill = || {
            let (value, cost) = fetch();
            self.acct.charge(cost);
            Entry {
                epoch: current,
                value,
            }
        };
        let mut map = map.borrow_mut();
        let e = match map.entry(u.0) {
            MapEntry::Vacant(miss) => miss.insert(refill()),
            MapEntry::Occupied(hit) => {
                let e = hit.into_mut();
                if e.epoch.is_stale_vs(current) {
                    if degraded {
                        // Served with its old stamp, so the first call
                        // after the endpoint recovers still refetches it.
                        self.stale_served.set(self.stale_served.get() + 1);
                    } else {
                        *e = refill();
                    }
                }
                e
            }
        };
        e.value.clone()
    }
}

impl<'s, B: OsnBackend> OsnApi for SliceSession<'s, B> {
    fn num_nodes(&self) -> usize {
        self.faults.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.faults.num_edges()
    }

    fn neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        self.acct.count_neighbor_call();
        // Epoch and degradation are read before the lookup, as in
        // `OsnSession`: an entry is only judged against an epoch at least
        // as old as itself.
        let current = self.faults.epoch_of(u);
        let degraded = self.serve_stale && self.faults.endpoint_degraded(EndpointKind::Neighbors);
        let shared: &'s B = self.faults.inner();
        self.lookup(&self.neighbors, u, current, degraded, || {
            let value = shared.fetch_neighbors(u);
            let cost = self.faults.bill_neighbors(u, value.len());
            (value, cost)
        })
    }

    fn labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        self.acct.count_label_call();
        let current = self.faults.label_epoch_of(u);
        let degraded = self.serve_stale && self.faults.endpoint_degraded(EndpointKind::Labels);
        let shared: &'s B = self.faults.inner();
        self.lookup(&self.labels, u, current, degraded, || {
            let value = shared.fetch_labels(u);
            (value, self.faults.bill_labels(u))
        })
    }

    fn max_degree_bound(&self) -> usize {
        self.faults.max_degree_bound()
    }

    fn api_calls(&self) -> u64 {
        self.acct.api_calls()
    }

    fn budget_exhausted(&self) -> bool {
        self.acct.budget_exhausted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::{FaultConfig, RetryPolicy};
    use crate::{ChurnOsn, GraphOsn};
    use labelcount_graph::{ChurnConfig, GraphBuilder, LabeledGraph};

    fn star(n: u32) -> LabeledGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(0), NodeId(i));
            b.set_labels(NodeId(i), &[LabelId(1 + i % 2)]);
        }
        b.build()
    }

    fn hostile<B: OsnBackend>(shared: &B) -> SliceSession<'_, B> {
        SliceSession::new(AdversarialOsn::new(
            shared,
            FaultConfig::hostile(3, 0.4),
            RetryPolicy::default(),
        ))
    }

    #[test]
    fn every_guard_over_an_in_ram_graph_points_into_its_csr() {
        let g = star(9);
        let osn = GraphOsn::new(&g);
        let session = hostile(&osn);
        for _ in 0..3 {
            for u in g.nodes() {
                let n = session.neighbors(u);
                let l = session.labels(u);
                assert!(std::ptr::eq(n.as_ptr(), g.neighbors(u).as_ptr()), "{u:?}");
                assert!(std::ptr::eq(l.as_ptr(), g.labels(u).as_ptr()), "{u:?}");
            }
        }
        assert_eq!(session.api_calls(), 3 * 2 * 9);
        // Only the first round fetched: 9 friend lists and 9 profiles.
        let faults = session.backend().fault_stats();
        assert_eq!(faults.attempts - faults.retries - faults.extra_pages, 18);
    }

    #[test]
    fn a_repeat_call_over_a_churned_graph_returns_the_first_allocation() {
        let g = star(9);
        let churn = ChurnOsn::new(
            &g,
            ChurnConfig {
                seed: 1,
                events_per_batch: 0,
                batch_interval_ticks: 1,
                region_shift: 0,
            },
        );
        let session = hostile(&churn);
        let own = churn.fetch_neighbors(NodeId(0));
        let first = session.neighbors(NodeId(0));
        let again = session.neighbors(NodeId(0));
        assert!(std::ptr::eq(first.as_ptr(), own.as_ptr()));
        assert!(std::ptr::eq(again.as_ptr(), first.as_ptr()));
        let first = session.labels(NodeId(3));
        let again = session.labels(NodeId(3));
        assert!(std::ptr::eq(again.as_ptr(), first.as_ptr()));
    }
}
