//! # labelcount-osn
//!
//! Restricted-access simulation of an online social network.
//!
//! The paper's core assumption (§3) is that the graph `G(V, E)` is *not*
//! fully accessible: the only operations are per-user API calls that return
//! a user's friend list (and the labels in the user's public profile), plus
//! prior knowledge of `|V|` and `|E|`. This crate enforces that access
//! pattern in code:
//!
//! * [`OsnApi`] — the object-safe trait every estimator works against.
//!   There is no way to enumerate edges or scan nodes through it; generic
//!   RNG conveniences live on the blanket [`OsnApiExt`].
//! * [`SimulatedOsn`] — wraps a [`labelcount_graph::LabeledGraph`] behind
//!   the API with full call accounting ([`AccessStats`]) and an optional
//!   call budget, so experiments can report exactly how many API calls an
//!   estimate consumed (the paper quotes budgets as a percentage of `|V|`).
//! * [`CachedOsn`] / [`OsnSession`] — the thread-safe two-level caching
//!   access layer: a shared sharded-lock LRU **L2** over any
//!   [`OsnBackend`] (e.g. the pure, `Sync` [`GraphOsn`]), front-run by a
//!   private, lock- and atomic-free direct-mapped **L1** inside every
//!   session, with [`CallStats`] separating *logical* calls from backend
//!   *misses* (the paper's "distinct API calls" metric made first-class)
//!   and counting L1 hits. Cached runs are bit-identical to uncached
//!   runs, with the L1 enabled or disabled.
//! * [`AdversarialOsn`] — a deterministic, seeded fault-injecting
//!   decorator over any [`OsnBackend`] (rate-limit windows with
//!   retry-after, transient errors, simulated latency ticks, paginated
//!   neighbor lists), retried under a [`RetryPolicy`]; composes under
//!   [`CachedOsn`], with the realized attempt cost charged to session
//!   budgets as [`OsnSession::retry_charges`].
//! * [`SliceSession`] — one query slice's private access cache: an
//!   unbounded node-keyed map per endpoint holding the [`SliceRef`]
//!   guards a shared backend returned (a CSR borrow, or the backend's own
//!   `Arc`), billed through the slice's [`AdversarialOsn`]. A miss copies
//!   nothing; it bills exactly what an [`OsnSession`] over an unbounded
//!   [`CachedOsn`] would. `labelcount_core::QueryStack` runs every query
//!   slice on one.
//! * [`PagedGraphOsn`] — the out-of-core sibling of [`GraphOsn`]: an
//!   [`OsnBackend`] over an on-disk paged CSR file served through a
//!   pinned-page buffer pool (`labelcount_graph::paged`), bit-identical
//!   to the in-RAM backend at any frame budget.
//! * [`ChurnOsn`] — a *dynamic* backend: a seeded, deterministic churn
//!   stream mutates the served graph on virtual ticks
//!   ([`ChurnOsn::advance_to`]), bumping per-region
//!   [`labelcount_graph::Epoch`] stamps that the cache layers compare via
//!   [`OsnBackend::epoch_of`] to invalidate stale L1/L2 entries. A
//!   [`ChurnView`] ([`ChurnOsn::view`]) holds its read lock across the
//!   reads between two batches and lends the current lists, so a query
//!   slice over it takes one lock in all and touches no refcount.
//! * [`SliceRef`] — the borrow-or-share guard `neighbors`/`labels` return,
//!   so caching implementations neither leak nor copy.
//! * [`linegraph`] — the implicit transformed graph `G'` of §5.1 (one node
//!   per edge of `G`, adjacency = shared endpoint), through which the five
//!   baseline algorithms of Li et al. run. `G'` is never materialized; its
//!   operations are translated to `OsnApi` calls on `G`.

#![warn(missing_docs)]

mod accounting;
pub mod adversarial;
pub mod api;
pub mod cached;
pub mod churn;
pub mod guard;
pub mod linegraph;
pub mod paged;
pub mod simulated;
pub mod slice;

pub use adversarial::{
    AdversarialOsn, BreakerConfig, BurstConfig, FaultConfig, FaultStats, ResilienceConfig,
    RetryPolicy,
};
pub use api::{EndpointKind, FetchCost, OsnApi, OsnApiExt, OsnBackend};
pub use cached::{
    CacheConfig, CacheConfigBuilder, CachedOsn, CallStats, GraphOsn, OsnSession, DEFAULT_L1_SLOTS,
};
pub use churn::{ChurnOsn, ChurnView};
pub use guard::SliceRef;
pub use linegraph::{LineGraphView, LineNode};
pub use paged::PagedGraphOsn;
pub use simulated::{AccessStats, SimulatedOsn};
pub use slice::SliceSession;
