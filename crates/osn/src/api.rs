//! The restricted OSN access traits.

use labelcount_graph::{Epoch, LabelId, NodeId};
use rand::Rng;

use crate::guard::SliceRef;

/// Access to an online social network restricted to what real OSN APIs
/// provide (paper §3):
///
/// * retrieve the friend list of a known user ([`OsnApi::neighbors`]);
/// * read a known user's profile labels ([`OsnApi::labels`]);
/// * prior knowledge of `|V|` and `|E|` ([`OsnApi::num_nodes`],
///   [`OsnApi::num_edges`]) — the paper assumes these are published by the
///   OSN owner or estimated with existing methods.
///
/// Deliberately absent: edge enumeration, node iteration, global label
/// statistics. Estimators that only hold an `OsnApi` handle are statically
/// prevented from cheating.
///
/// The trait is **object-safe**: every estimator entry point takes
/// `&dyn OsnApi`, so the same compiled code runs against the direct
/// [`crate::SimulatedOsn`], a thread-safe [`crate::OsnSession`] over a
/// [`crate::CachedOsn`], or any future backend. Generic conveniences that
/// need a sized `Rng` ([`OsnApiExt::random_node`],
/// [`OsnApiExt::sample_neighbor`]) live on the blanket extension trait
/// [`OsnApiExt`].
///
/// `neighbors`/`labels` return [`SliceRef`] guards rather than plain
/// borrows so a caching implementation can hand out shared cache entries
/// without leaking or copying; direct backends return
/// [`SliceRef::Borrowed`] and pay nothing.
pub trait OsnApi {
    /// Prior knowledge: the number of users `|V|`.
    fn num_nodes(&self) -> usize;

    /// Prior knowledge: the number of friendships `|E|`.
    fn num_edges(&self) -> usize;

    /// The friend list of `u` (sorted by node id). Each invocation models
    /// one neighbor-list API call.
    fn neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId>;

    /// The profile labels of `u` (sorted). Each invocation models one
    /// profile API call.
    fn labels(&self, u: NodeId) -> SliceRef<'_, LabelId>;

    /// Degree of `u`, via its friend list.
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Whether `u` carries label `t`, via the profile.
    #[inline]
    fn has_label(&self, u: NodeId, t: LabelId) -> bool {
        self.labels(u).binary_search(&t).is_ok()
    }

    /// An upper bound on the maximum degree, required by the
    /// maximum-degree random-walk baselines. Defaults to `|V| − 1` (always
    /// valid); [`crate::SimulatedOsn`] overrides it with the true maximum,
    /// matching the baselines' assumption that the bound is known.
    fn max_degree_bound(&self) -> usize {
        self.num_nodes().saturating_sub(1)
    }

    /// *Logical* API calls issued through this handle so far
    /// (neighbor-list + profile). This is the currency of the paper's
    /// evaluation: sample-size budgets are quoted as API calls (a share of
    /// `|V|`), and every estimator pays per logical call — whether or not
    /// a cache absorbed the backend fetch. Budget-driven stopping rules
    /// therefore behave identically with and without a cache.
    fn api_calls(&self) -> u64;

    /// Whether a hard budget on neighbor-list calls (if any) has been
    /// exhausted. Handles without budget support always answer `false`.
    fn budget_exhausted(&self) -> bool {
        false
    }
}

/// Generic conveniences over any [`OsnApi`] (sized or `dyn`): random seed
/// users and uniform friend draws, the only places estimators need an RNG
/// against the API itself.
pub trait OsnApiExt: OsnApi {
    /// Draws a uniformly random user id to seed a walk — used only to seed
    /// random walks (real crawlers use an arbitrary seed user; the burn-in
    /// makes the choice irrelevant). Free of API-call cost.
    fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        assert!(self.num_nodes() > 0, "cannot sample from an empty OSN");
        NodeId(rng.gen_range(0..self.num_nodes() as u32))
    }

    /// Samples a uniformly random friend of `u`, or `None` if `u` has no
    /// friends. One neighbor-list call.
    fn sample_neighbor<R: Rng + ?Sized>(&self, u: NodeId, rng: &mut R) -> Option<NodeId> {
        let ns = self.neighbors(u);
        if ns.is_empty() {
            None
        } else {
            Some(ns[rng.gen_range(0..ns.len())])
        }
    }
}

impl<A: OsnApi + ?Sized> OsnApiExt for A {}

/// The realized cost of one backend fetch: how many billable API attempts
/// it took and how many simulated latency ticks it spent (attempt
/// latencies plus backoff and retry-after waits).
///
/// Well-behaved backends answer in one attempt and zero ticks; adversarial
/// backends ([`crate::AdversarialOsn`]) report the pages, retries, and
/// waits their fault model forced. Surfacing the cost **per fetch** — not
/// just in aggregate counters — is what lets a virtual-time scheduler
/// advance its clock by exactly the ticks each fetch billed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchCost {
    /// Billable API attempts (`>= 1` for a fetch that happened).
    pub attempts: u64,
    /// Simulated latency ticks the fetch spent.
    pub ticks: u64,
}

impl FetchCost {
    /// The cost of a clean, unpaginated fetch: one attempt, zero ticks.
    pub fn clean() -> FetchCost {
        FetchCost {
            attempts: 1,
            ticks: 0,
        }
    }

    /// Attempts beyond the first — what a budgeted caller is charged on
    /// top of the logical call itself.
    pub fn extra_attempts(&self) -> u64 {
        self.attempts.saturating_sub(1)
    }
}

/// The two API endpoints a restricted OSN crawl exercises. Fault and
/// resilience machinery ([`crate::AdversarialOsn`]'s outage bursts and
/// circuit breakers) is keyed per endpoint: a friend-list outage does not
/// imply a profile outage, matching how real OSN APIs degrade.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EndpointKind {
    /// The friend-list (neighbor) endpoint.
    Neighbors,
    /// The profile-label endpoint.
    Labels,
}

/// A raw fetch-only backend: what the remote OSN itself answers, with no
/// accounting and no budget. [`crate::CachedOsn`] wraps one of these and
/// adds the shared cache plus [`crate::CallStats`] accounting; sessions
/// ([`crate::OsnSession`]) layer per-query logical-call accounting on top.
///
/// Implemented by [`crate::SimulatedOsn`] (fetches are its counted raw
/// calls, so wrapping a simulation in a cache leaves the simulation
/// counting exactly the backend traffic) and by [`crate::GraphOsn`] (a
/// pure, `Sync` graph view with zero interior mutability — the backend
/// the multi-threaded `labelcount_core::engine::Engine` uses).
pub trait OsnBackend {
    /// `|V|`.
    fn num_nodes(&self) -> usize;

    /// `|E|`.
    fn num_edges(&self) -> usize;

    /// Upper bound on the maximum degree.
    fn max_degree_bound(&self) -> usize;

    /// Fetches the sorted friend list of `u`. One backend API call.
    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId>;

    /// Fetches the sorted profile labels of `u`. One backend API call.
    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId>;

    /// Fetches the friend list of `u` together with the number of billable
    /// API attempts it took (`>= 1`). Well-behaved backends answer in one
    /// attempt; adversarial backends ([`crate::AdversarialOsn`]) report the
    /// pages fetched and the retries their fault model forced, so callers
    /// can charge the *realized* cost against a query budget.
    fn fetch_neighbors_attempts(&self, u: NodeId) -> (SliceRef<'_, NodeId>, u64) {
        (self.fetch_neighbors(u), 1)
    }

    /// Fetches the profile labels of `u` together with the number of
    /// billable API attempts it took (`>= 1`). See
    /// [`OsnBackend::fetch_neighbors_attempts`].
    fn fetch_labels_attempts(&self, u: NodeId) -> (SliceRef<'_, LabelId>, u64) {
        (self.fetch_labels(u), 1)
    }

    /// Fetches the friend list of `u` together with its full realized
    /// [`FetchCost`] — attempts *and* latency ticks. Well-behaved backends
    /// answer at [`FetchCost::clean`]; adversarial backends report what
    /// their fault model billed, per fetch, so callers can advance a
    /// virtual clock in step with the cost.
    fn fetch_neighbors_cost(&self, u: NodeId) -> (SliceRef<'_, NodeId>, FetchCost) {
        let (data, attempts) = self.fetch_neighbors_attempts(u);
        (data, FetchCost { attempts, ticks: 0 })
    }

    /// Fetches the profile labels of `u` together with its full realized
    /// [`FetchCost`]. See [`OsnBackend::fetch_neighbors_cost`].
    fn fetch_labels_cost(&self, u: NodeId) -> (SliceRef<'_, LabelId>, FetchCost) {
        let (data, attempts) = self.fetch_labels_attempts(u);
        (data, FetchCost { attempts, ticks: 0 })
    }

    /// The current [`Epoch`] of `u`'s node region — the generation stamp
    /// cache layers compare against the stamp stored on an entry to decide
    /// staleness (`stored != current` means stale).
    ///
    /// Static backends (every pre-churn backend in the workspace) keep the
    /// default: a constant [`Epoch::STATIC`], under which no entry is ever
    /// stale and cache behavior is bit-identical to a world without
    /// epochs. Dynamic backends (`crate::ChurnOsn`) report the live
    /// per-region stamp of `labelcount_graph::MutableGraph`.
    fn epoch_of(&self, _u: NodeId) -> Epoch {
        Epoch::STATIC
    }

    /// The current label [`Epoch`] of `u`'s node region — the stamp cache
    /// layers compare for *profile* entries. Splitting label stamps from
    /// neighbor-list stamps lets a label-only flip invalidate profiles
    /// without touching cached friend lists.
    ///
    /// Defaults to [`OsnBackend::epoch_of`], so backends with a single
    /// shared stamp (and every static backend) behave exactly as before.
    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.epoch_of(u)
    }

    /// Whether `kind` is currently degraded — an open circuit-breaker
    /// window, during which cache layers may opt into serving stale-epoch
    /// entries instead of refetching. Backends without a breaker (every
    /// non-adversarial backend) always answer `false`, which keeps the
    /// degradation path dead code for them.
    fn endpoint_degraded(&self, _kind: EndpointKind) -> bool {
        false
    }
}

/// Backends pass through shared references, so one `Sync` backend (e.g. a
/// [`crate::GraphOsn`] over the served graph) can sit under many
/// independent decorator stacks — every query slice runs its own
/// [`crate::SliceSession`] over an `AdversarialOsn<&B>` this way.
impl<B: OsnBackend + ?Sized> OsnBackend for &B {
    fn num_nodes(&self) -> usize {
        (**self).num_nodes()
    }

    fn num_edges(&self) -> usize {
        (**self).num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        (**self).max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        (**self).fetch_neighbors(u)
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        (**self).fetch_labels(u)
    }

    fn fetch_neighbors_attempts(&self, u: NodeId) -> (SliceRef<'_, NodeId>, u64) {
        (**self).fetch_neighbors_attempts(u)
    }

    fn fetch_labels_attempts(&self, u: NodeId) -> (SliceRef<'_, LabelId>, u64) {
        (**self).fetch_labels_attempts(u)
    }

    fn fetch_neighbors_cost(&self, u: NodeId) -> (SliceRef<'_, NodeId>, FetchCost) {
        (**self).fetch_neighbors_cost(u)
    }

    fn fetch_labels_cost(&self, u: NodeId) -> (SliceRef<'_, LabelId>, FetchCost) {
        (**self).fetch_labels_cost(u)
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        (**self).epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        (**self).label_epoch_of(u)
    }

    fn endpoint_degraded(&self, kind: EndpointKind) -> bool {
        (**self).endpoint_degraded(kind)
    }
}
