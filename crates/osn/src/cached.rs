//! Thread-safe caching OSN access: [`CachedOsn`] + [`OsnSession`], a
//! two-level cache hierarchy.
//!
//! The paper's cost model is API calls, and a walk revisits nodes
//! constantly — on the smoke perf matrix a large fraction of raw calls are
//! repeats a real crawler would memoize. This module makes the paper's
//! "distinct API calls" metric first-class:
//!
//! * [`GraphOsn`] — a pure, `Sync` graph view implementing
//!   [`OsnBackend`]: no interior mutability, so one instance can serve any
//!   number of threads.
//! * [`CachedOsn`] — the shared **L2**: wraps any [`OsnBackend`] with
//!   sharded-lock LRU caches for neighbor lists and label sets, plus
//!   [`CallStats`] accounting that distinguishes *logical* calls (what
//!   estimators issue and pay their budgets in) from *misses* (what
//!   actually reaches the backend). `Sync` whenever the backend is.
//! * [`OsnSession`] — a lightweight per-query handle implementing
//!   [`OsnApi`]: it counts its own logical calls and carries its own
//!   budget (so concurrent queries never corrupt each other's stopping
//!   rules) while sharing the L2 underneath — and front-runs the L2 with
//!   a private **L1** (below). Sessions are cheap to create — one per
//!   replicate/query is the intended pattern.
//!
//! # The memory hierarchy
//!
//! Since the cache absorbs ~97% of logical calls on replicated workloads,
//! wall-clock cost per logical call is dominated by the *hit* path, and a
//! shared cache's hit path cannot avoid synchronization (a lock acquire
//! plus atomic `Arc` refcount traffic). The fix is the same one hardware
//! uses: put a small private cache in front of the shared one.
//!
//! | layer | scope | storage | hit cost |
//! |-------|-------|---------|----------|
//! | L1 | one session (one thread) | direct-mapped `Rc` slots | zero locks, zero atomics |
//! | L2 | all sessions | sharded-lock LRU slabs | `RwLock` read + `Arc` clone |
//! | backend | — | graph / remote API | the paper's "API call" |
//!
//! A session's first lookup of a node goes through the L2 (filling it on
//! a backend miss), copies the entry into its L1 slot, and every repeat
//! lookup — the common case for every Table-2 walk, which parks on hubs —
//! is served from the L1 with plain (non-atomic) reference counting.
//! `Arc` refcounts are only touched on the first L1 fill; the L2's lock
//! is only taken on an L1 miss.
//!
//! # Determinism
//!
//! Cache hits return exactly the bytes the backend would have returned, so
//! an estimator run against a session is **bit-identical** (same
//! estimates, same RNG stream, same logical-call sequence) to a run
//! against the uncached backend — enforced by the
//! `proptest_cached_equivalence` and `proptest_l1` suites, with the L1
//! enabled or disabled. Misses are counted under the shard lock (the
//! backend fetch happens while the lock is held), so with unbounded
//! capacity the total miss count equals the number of distinct nodes
//! requested per endpoint, independent of thread interleaving; the L1 is
//! session-private, so its hit counts are a pure function of the
//! session's own call sequence and flush into [`CallStats`] on drop —
//! totals stay interleaving-independent.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

use labelcount_graph::{Epoch, LabelId, LabeledGraph, NodeId};

use crate::accounting::SessionAccounting;
use crate::api::{EndpointKind, FetchCost, OsnApi, OsnBackend};
use crate::guard::SliceRef;

/// A [`LabeledGraph`] exposed as a raw [`OsnBackend`]: no counters, no
/// budget, no cells — just borrows. `Sync`, so a [`CachedOsn<GraphOsn>`]
/// can fan queries across threads.
///
/// This type deliberately does **not** implement [`OsnApi`]: handing it
/// directly to an estimator would break budget accounting. Estimators
/// reach it through [`OsnSession`]s.
pub struct GraphOsn<'g> {
    graph: &'g LabeledGraph,
    max_degree: usize,
}

impl<'g> GraphOsn<'g> {
    /// Wraps a graph as a raw backend.
    pub fn new(graph: &'g LabeledGraph) -> Self {
        let max_degree = graph.nodes().map(|u| graph.degree(u)).max().unwrap_or(0);
        GraphOsn { graph, max_degree }
    }

    /// Evaluation-side escape hatch: the underlying graph, for
    /// ground-truth computation. Estimators must not use this.
    pub fn ground_truth_graph(&self) -> &'g LabeledGraph {
        self.graph
    }
}

impl OsnBackend for GraphOsn<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        self.max_degree
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        SliceRef::Borrowed(self.graph.neighbors(u))
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        SliceRef::Borrowed(self.graph.labels(u))
    }
}

/// Default [`CacheConfig::l1_slots`]: 512 direct-mapped slots per endpoint
/// kind (8 KiB of slot metadata per session) — enough to hold the working
/// set of a Table-2 walk at smoke scale while keeping sessions cheap to
/// create.
pub const DEFAULT_L1_SLOTS: usize = 512;

/// Sizing knobs for [`CachedOsn`].
///
/// Construct through [`CacheConfig::builder`] (the same `#[must_use]`
/// builder idiom as `Workload::builder()`); read through the accessor
/// methods.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    capacity: Option<usize>,
    shards: usize,
    l1_slots: usize,
    serve_stale: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            capacity: None,
            shards: 64,
            l1_slots: DEFAULT_L1_SLOTS,
            serve_stale: false,
        }
    }
}

impl CacheConfig {
    /// Starts a builder at the defaults (unbounded, 64 shards,
    /// [`DEFAULT_L1_SLOTS`] L1 slots).
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder {
            cfg: CacheConfig::default(),
        }
    }

    /// Target cached entries **per endpoint kind** (neighbor lists and
    /// label sets each get this many). `None` = unbounded (every distinct
    /// node is fetched from the backend exactly once). The effective cap
    /// is rounded **up** to a multiple of the shard count (at least one
    /// entry per shard), so the cache may hold up to `shards − 1` more
    /// entries than configured — rounding up rather than down keeps the
    /// configured value a lower bound and no shard starved, even when the
    /// configured capacity is smaller than the shard count.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Number of lock shards per endpoint kind (rounded up to a power of
    /// two, minimum 1). More shards = less contention under parallel
    /// replication.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Direct-mapped **L1 slots per endpoint kind** in every session
    /// opened on this cache (rounded up to a power of two). `0` disables
    /// the session L1: every logical call then takes the shared L2 path —
    /// the configuration the determinism suites compare against. The L1
    /// only changes *where* bytes come from and what a hit costs; data,
    /// estimates, RNG streams, and (for unbounded caches) miss counts are
    /// bit-identical either way.
    pub fn l1_slots(&self) -> usize {
        self.l1_slots
    }

    /// Graceful-degradation opt-in: while the backend reports an endpoint
    /// degraded ([`OsnBackend::endpoint_degraded`], e.g. an open circuit
    /// breaker), L1 and L2 may serve **stale-epoch** entries instead of
    /// refetching, each counted in [`CallStats::stale_served`]. Off by
    /// default; with it off (or against backends that are never degraded)
    /// behavior is bit-identical to a world without this knob.
    pub fn serve_stale(&self) -> bool {
        self.serve_stale
    }
}

/// Builder for [`CacheConfig`] — the one supported construction path
/// (mirrors `Workload::builder()`).
///
/// ```
/// use labelcount_osn::CacheConfig;
///
/// let cfg = CacheConfig::builder().capacity(512).l1_slots(0).build();
/// assert_eq!(cfg.capacity(), Some(512));
/// assert_eq!(cfg.l1_slots(), 0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CacheConfigBuilder {
    cfg: CacheConfig,
}

impl CacheConfigBuilder {
    /// Bounds the cache at `capacity` entries per endpoint kind.
    #[must_use = "returns the modified builder"]
    pub fn capacity(mut self, capacity: usize) -> CacheConfigBuilder {
        self.cfg.capacity = Some(capacity);
        self
    }

    /// Removes the entry bound (the default).
    #[must_use = "returns the modified builder"]
    pub fn unbounded(mut self) -> CacheConfigBuilder {
        self.cfg.capacity = None;
        self
    }

    /// Sets the lock-shard count per endpoint kind.
    #[must_use = "returns the modified builder"]
    pub fn shards(mut self, shards: usize) -> CacheConfigBuilder {
        self.cfg.shards = shards;
        self
    }

    /// Sets the session L1 size (`0` disables the L1).
    #[must_use = "returns the modified builder"]
    pub fn l1_slots(mut self, slots: usize) -> CacheConfigBuilder {
        self.cfg.l1_slots = slots;
        self
    }

    /// Opts into serving stale entries while an endpoint is degraded (see
    /// [`CacheConfig::serve_stale`]).
    #[must_use = "returns the modified builder"]
    pub fn serve_stale(mut self, serve_stale: bool) -> CacheConfigBuilder {
        self.cfg.serve_stale = serve_stale;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> CacheConfig {
        self.cfg
    }
}

/// Snapshot of a cache's call accounting.
///
/// *Logical* calls are what estimators issue (and spend budget on);
/// *misses* are the subset that reached the backend. The paper's "distinct
/// API calls" metric is exactly the miss count of an unbounded cache.
/// L1 hits are the subset of hits served by a session's private cache
/// without touching the shared L2 (no lock, no atomics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Logical neighbor-list calls issued through sessions.
    pub logical_neighbor_calls: u64,
    /// Logical profile (label) calls issued through sessions.
    pub logical_label_calls: u64,
    /// Neighbor-list calls that missed the cache and hit the backend.
    pub neighbor_misses: u64,
    /// Profile calls that missed the cache and hit the backend.
    pub label_misses: u64,
    /// Neighbor-list calls served by sessions' private L1 caches.
    pub l1_neighbor_hits: u64,
    /// Profile calls served by sessions' private L1 caches.
    pub l1_label_hits: u64,
    /// L1 entries whose fill-time [`Epoch`] no longer matched the
    /// backend's current stamp when probed — each counted once, at the
    /// probe that discovered it, and served as a miss instead of a hit.
    /// Always `0` against static backends.
    pub l1_stale_evictions: u64,
    /// L2 entries discovered stale (fill-time epoch ≠ current epoch) and
    /// refetched under the shard write lock. Counted under the lock, so
    /// the total is interleaving-independent. Always `0` against static
    /// backends.
    pub l2_stale_evictions: u64,
    /// Stale-epoch entries (either layer) served *as answers* during a
    /// degraded-endpoint window under [`CacheConfig::serve_stale`] —
    /// graceful degradation made visible. Always `0` with the knob off.
    pub stale_served: u64,
}

impl CallStats {
    /// Total logical calls of both kinds.
    pub fn logical_calls(&self) -> u64 {
        self.logical_neighbor_calls + self.logical_label_calls
    }

    /// Total backend (miss) calls of both kinds — what a caching crawler
    /// actually pays.
    pub fn misses(&self) -> u64 {
        self.neighbor_misses + self.label_misses
    }

    /// Logical calls absorbed by the cache hierarchy (L1 + L2).
    pub fn hits(&self) -> u64 {
        self.logical_calls().saturating_sub(self.misses())
    }

    /// Logical calls absorbed by sessions' private L1 caches — hits that
    /// paid neither a lock nor an atomic refcount bump.
    pub fn l1_hits(&self) -> u64 {
        self.l1_neighbor_hits + self.l1_label_hits
    }

    /// Entries of either layer discovered stale and refilled — the
    /// invalidation traffic a churning backend induces.
    pub fn stale_evictions(&self) -> u64 {
        self.l1_stale_evictions + self.l2_stale_evictions
    }

    /// Fraction of logical calls absorbed by the cache (`0.0` when no
    /// logical call has been issued yet).
    pub fn hit_rate(&self) -> f64 {
        let logical = self.logical_calls();
        if logical == 0 {
            0.0
        } else {
            self.hits() as f64 / logical as f64
        }
    }
}

/// A multiply-shift [`Hasher`] for the 4-byte node keys the cache indexes
/// by. The default `HashMap` hasher (SipHash) costs more than the rest of
/// the hit path combined; node ids need no DoS resistance, so a Fibonacci
/// multiply gives full avalanche on the high bits at ~1 cycle.
#[derive(Default)]
pub(crate) struct NodeKeyHasher(u64);

impl Hasher for NodeKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by the u32 keys below, but required for
        // completeness): fold bytes through the same multiply.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    #[inline]
    fn write_u32(&mut self, key: u32) {
        // Fibonacci hashing: multiply by 2^64/φ and keep the high bits,
        // which HashMap's length-masking then consumes.
        let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h.rotate_left(32);
    }
}

type NodeKeyMap = HashMap<u32, u32, BuildHasherDefault<NodeKeyHasher>>;

/// Slot index sentinel for "no entry". Slots are `u32` so the recency
/// links pack twice as densely as pointer-sized ones.
const NIL: u32 = u32::MAX;

/// One LRU shard in struct-of-arrays layout: parallel slabs for keys,
/// values, and the doubly-linked recency list, indexed by a
/// multiply-shift-hashed map. All operations are O(1), and the recency
/// relink touches only the two dense `u32` link arrays — no per-slot
/// structs to pointer-chase, no SipHash in the index.
struct LruShard<T> {
    index: NodeKeyMap,
    keys: Vec<u32>,
    values: Vec<Arc<[T]>>,
    /// Fill-time epoch stamp per slot, parallel to `values`. An entry
    /// whose stamp differs from the backend's current epoch is stale and
    /// must be served as a miss (see [`Lookup::Stale`]).
    epochs: Vec<Epoch>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

/// Outcome of an epoch-checked shard lookup. `Stale` and `Absent` both
/// normally fall through to the backend; they are separated so the caller
/// can count stale evictions — and, under serve-stale degradation, answer
/// from the stale value instead of refetching (which is why `Stale`
/// carries it).
enum Lookup<T> {
    Hit(Arc<[T]>),
    Stale(Arc<[T]>),
    Absent,
}

impl<T> LruShard<T> {
    fn new(capacity: usize) -> Self {
        LruShard {
            index: NodeKeyMap::default(),
            keys: Vec::new(),
            values: Vec::new(),
            epochs: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Unlinks slot `i` from the recency list.
    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.prev[i as usize], self.next[i as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Links slot `i` at the head (most recently used).
    fn link_front(&mut self, i: u32) {
        self.prev[i as usize] = NIL;
        self.next[i as usize] = self.head;
        if self.head != NIL {
            self.prev[self.head as usize] = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key` without touching recency — the read-lock fast path
    /// for unbounded shards, where eviction (and hence recency) never
    /// happens. A stale entry answers `None` (the caller falls through to
    /// the write path, which counts and refills it).
    fn peek(&self, key: u32, current: Epoch) -> Option<Arc<[T]>> {
        self.index.get(&key).and_then(|&i| {
            (self.epochs[i as usize] == current).then(|| Arc::clone(&self.values[i as usize]))
        })
    }

    /// Epoch-*ignoring* peek for degraded (serve-stale) reads: answers the
    /// resident entry regardless of its stamp, plus whether it is stale vs
    /// `current`. Like [`LruShard::peek`], never touches recency.
    fn peek_any(&self, key: u32, current: Epoch) -> Option<(Arc<[T]>, bool)> {
        self.index.get(&key).map(|&i| {
            (
                Arc::clone(&self.values[i as usize]),
                self.epochs[i as usize].is_stale_vs(current),
            )
        })
    }

    /// Looks up `key`, refreshing its recency on a fresh hit. A resident
    /// entry stamped with a different epoch answers [`Lookup::Stale`]; the
    /// caller refetches and [`LruShard::insert`] refills the slot in
    /// place.
    fn get(&mut self, key: u32, current: Epoch) -> Lookup<T> {
        let Some(&i) = self.index.get(&key) else {
            return Lookup::Absent;
        };
        if self.epochs[i as usize].is_stale_vs(current) {
            return Lookup::Stale(Arc::clone(&self.values[i as usize]));
        }
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        Lookup::Hit(Arc::clone(&self.values[i as usize]))
    }

    /// Inserts `key → value` stamped at `epoch`, evicting the least
    /// recently used entry when the shard is full. A resident (stale)
    /// entry under the same key is refilled in place.
    fn insert(&mut self, key: u32, value: Arc<[T]>, epoch: Epoch) {
        let i = if let Some(&i) = self.index.get(&key) {
            // Stale refill: reuse the slot, no index churn.
            self.values[i as usize] = value;
            self.epochs[i as usize] = epoch;
            if self.head != i {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        } else if self.keys.len() < self.capacity {
            self.keys.push(key);
            self.values.push(value);
            self.epochs.push(epoch);
            self.prev.push(NIL);
            self.next.push(NIL);
            (self.keys.len() - 1) as u32
        } else {
            // Reuse the LRU slot (capacity >= 1, so tail exists).
            let i = self.tail;
            self.unlink(i);
            self.index.remove(&self.keys[i as usize]);
            self.keys[i as usize] = key;
            self.values[i as usize] = value;
            self.epochs[i as usize] = epoch;
            i
        };
        self.index.insert(key, i);
        self.link_front(i);
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
        self.values.clear();
        self.epochs.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A thread-safe, call-counting, caching wrapper around an
/// [`OsnBackend`] — the shared **L2** of the session/shared cache
/// hierarchy (see the module docs).
///
/// Neighbor lists and label sets get independent sharded-lock LRU caches;
/// [`CallStats`] separates logical calls from backend misses. Queries run
/// through [`OsnSession`]s ([`CachedOsn::session`]), which add per-query
/// logical accounting, budgets, and a private lock-free L1 on top of the
/// shared cache.
///
/// ```
/// use labelcount_graph::{GraphBuilder, NodeId};
/// use labelcount_osn::{CachedOsn, GraphOsn, OsnApi};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
///
/// let cache = CachedOsn::new(GraphOsn::new(&g));
/// let session = cache.session();
/// session.neighbors(NodeId(1)); // miss: fetched from the backend
/// session.neighbors(NodeId(1)); // hit: served lock-free from the session L1
/// assert_eq!(session.api_calls(), 2); // budgets are paid in logical calls
/// drop(session); // logical totals flush into the shared stats
/// let stats = cache.stats();
/// assert_eq!(stats.logical_neighbor_calls, 2);
/// assert_eq!(stats.neighbor_misses, 1);
/// assert_eq!(stats.l1_neighbor_hits, 1);
/// ```
pub struct CachedOsn<B> {
    backend: B,
    neighbor_shards: Box<[RwLock<LruShard<NodeId>>]>,
    label_shards: Box<[RwLock<LruShard<LabelId>>]>,
    shard_mask: usize,
    unbounded: bool,
    l1_slots: usize,
    serve_stale: bool,
    logical_neighbor: AtomicU64,
    logical_label: AtomicU64,
    neighbor_misses: AtomicU64,
    label_misses: AtomicU64,
    l1_neighbor_hits: AtomicU64,
    l1_label_hits: AtomicU64,
    l1_stale_evictions: AtomicU64,
    l2_stale_evictions: AtomicU64,
    stale_served: AtomicU64,
}

impl<B: OsnBackend> CachedOsn<B> {
    /// Wraps `backend` with an unbounded cache (default shard count and
    /// session-L1 size).
    pub fn new(backend: B) -> Self {
        CachedOsn::with_config(backend, CacheConfig::default())
    }

    /// Wraps `backend` with explicit capacity/sharding/L1 sizing.
    pub fn with_config(backend: B, cfg: CacheConfig) -> Self {
        let shards = cfg.shards().max(1).next_power_of_two();
        let per_shard = match cfg.capacity() {
            // Ceil division: the effective total is the configured value
            // rounded up to a shard multiple (see `CacheConfig::capacity`),
            // so a capacity smaller than the shard count still gives every
            // shard one live slot instead of rounding down to zero.
            Some(total) => total.max(1).div_ceil(shards),
            None => usize::MAX,
        };
        let make_neighbor = || RwLock::new(LruShard::new(per_shard));
        let make_label = || RwLock::new(LruShard::new(per_shard));
        CachedOsn {
            backend,
            neighbor_shards: (0..shards).map(|_| make_neighbor()).collect(),
            label_shards: (0..shards).map(|_| make_label()).collect(),
            shard_mask: shards - 1,
            unbounded: cfg.capacity().is_none(),
            l1_slots: if cfg.l1_slots() == 0 {
                0
            } else {
                cfg.l1_slots().next_power_of_two()
            },
            serve_stale: cfg.serve_stale(),
            logical_neighbor: AtomicU64::new(0),
            logical_label: AtomicU64::new(0),
            neighbor_misses: AtomicU64::new(0),
            label_misses: AtomicU64::new(0),
            l1_neighbor_hits: AtomicU64::new(0),
            l1_label_hits: AtomicU64::new(0),
            l1_stale_evictions: AtomicU64::new(0),
            l2_stale_evictions: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Opens a per-query session (its own logical-call counters, budget,
    /// and private L1 at the configured [`CacheConfig::l1_slots`]; shared
    /// L2 underneath).
    pub fn session(&self) -> OsnSession<'_, B> {
        self.session_with_l1(self.l1_slots)
    }

    /// Opens a session with an explicit L1 size (`0` disables the L1 —
    /// every logical call then takes the shared L2 path). Data and
    /// estimates are identical at any size; only the hit cost changes.
    pub fn session_with_l1(&self, l1_slots: usize) -> OsnSession<'_, B> {
        OsnSession {
            cache: self,
            l1: (l1_slots > 0).then(|| SessionL1::new(l1_slots.next_power_of_two())),
            acct: SessionAccounting::default(),
            l2_stale_served: Cell::new(0),
        }
    }

    /// Snapshot of the shared call accounting, aggregated over all
    /// sessions.
    pub fn stats(&self) -> CallStats {
        CallStats {
            logical_neighbor_calls: self.logical_neighbor.load(Ordering::Relaxed),
            logical_label_calls: self.logical_label.load(Ordering::Relaxed),
            neighbor_misses: self.neighbor_misses.load(Ordering::Relaxed),
            label_misses: self.label_misses.load(Ordering::Relaxed),
            l1_neighbor_hits: self.l1_neighbor_hits.load(Ordering::Relaxed),
            l1_label_hits: self.l1_label_hits.load(Ordering::Relaxed),
            l1_stale_evictions: self.l1_stale_evictions.load(Ordering::Relaxed),
            l2_stale_evictions: self.l2_stale_evictions.load(Ordering::Relaxed),
            stale_served: self.stale_served.load(Ordering::Relaxed),
        }
    }

    /// Resets the call accounting. Cached entries are kept — use
    /// [`CachedOsn::clear`] to drop them too.
    pub fn reset_stats(&self) {
        self.logical_neighbor.store(0, Ordering::Relaxed);
        self.logical_label.store(0, Ordering::Relaxed);
        self.neighbor_misses.store(0, Ordering::Relaxed);
        self.label_misses.store(0, Ordering::Relaxed);
        self.l1_neighbor_hits.store(0, Ordering::Relaxed);
        self.l1_label_hits.store(0, Ordering::Relaxed);
        self.l1_stale_evictions.store(0, Ordering::Relaxed);
        self.l2_stale_evictions.store(0, Ordering::Relaxed);
        self.stale_served.store(0, Ordering::Relaxed);
    }

    /// Drops every cached L2 entry (counters are kept; live sessions keep
    /// their private L1 contents, which hold the same bytes).
    ///
    /// Shard locks recover from poisoning (like the shared fetch paths):
    /// a panicking estimator on another thread must not take maintenance
    /// down with it.
    pub fn clear(&self) {
        for s in self.neighbor_shards.iter() {
            s.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
        for s in self.label_shards.iter() {
            s.write().unwrap_or_else(PoisonError::into_inner).clear();
        }
    }

    /// Cached L2 entries currently held (neighbor lists, label sets).
    pub fn cached_entries(&self) -> (usize, usize) {
        let n = self
            .neighbor_shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum();
        let l = self
            .label_shards
            .iter()
            .map(|s| s.read().unwrap_or_else(PoisonError::into_inner).len())
            .sum();
        (n, l)
    }

    /// Fibonacci-hash shard index, so clustered node ids spread evenly.
    #[inline]
    fn shard_of(&self, u: NodeId) -> usize {
        (u.0 as usize).wrapping_mul(0x9E37_79B9) >> 7 & self.shard_mask
    }

    /// Cache-through neighbor fetch. Returns the data plus the backend
    /// fetch's realized cost on a miss ([`FetchCost::default`], which
    /// charges nothing, on a hit) — how an adversarial backend's retries,
    /// pagination, and simulated latency reach the calling session's
    /// budget and tick accounting.
    /// Hits are fault-free *and tick-free*: a caching crawler pays the
    /// remote API's latency only when it actually goes to the network.
    ///
    /// Unbounded shards never evict, so hits take the shard's **read**
    /// lock (concurrent hits don't serialize — the parallel-replication
    /// hot path). Bounded shards need the write lock even on hits to
    /// refresh LRU recency. Misses fetch from the backend under the write
    /// lock with a re-check, so concurrent first requests for one node
    /// produce exactly one miss — miss counts are
    /// interleaving-independent.
    ///
    /// Because the miss path calls the backend *under the write lock*, a
    /// panicking backend (or an estimator unwinding through a fetch)
    /// poisons the shard. The shard's own state is consistent at every
    /// panic point — the map is only mutated after a successful fetch —
    /// so poisoning is recovered with [`PoisonError::into_inner`] rather
    /// than cascading the panic to every other query on the shard.
    /// Entries are compared and re-stamped against `current`, the
    /// backend's epoch for `u` as observed by the calling session at the
    /// top of the logical call — a stamp mismatch is served as a miss and
    /// counted as an L2 stale eviction (under the write lock, so the
    /// count is interleaving-independent: of N concurrent probes of one
    /// stale entry, exactly the first discovers it stale).
    ///
    /// With `degraded` set (serve-stale opted in *and* the endpoint
    /// currently degraded), a resident stale entry is *answered* instead
    /// of refetched — returned with the third element `true` so the
    /// session can count it and skip re-stamping its L1. The entry keeps
    /// its old stamp: the next probe after recovery still sees it stale
    /// and refetches.
    fn neighbors_shared(
        &self,
        u: NodeId,
        current: Epoch,
        degraded: bool,
    ) -> (Arc<[NodeId]>, FetchCost, bool) {
        let hit_cost = FetchCost::default();
        let lock = &self.neighbor_shards[self.shard_of(u)];
        if self.unbounded {
            let shard = lock.read().unwrap_or_else(PoisonError::into_inner);
            if degraded {
                if let Some((hit, stale)) = shard.peek_any(u.0, current) {
                    return (hit, hit_cost, stale);
                }
            } else if let Some(hit) = shard.peek(u.0, current) {
                return (hit, hit_cost, false);
            }
        }
        let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
        match shard.get(u.0, current) {
            Lookup::Hit(hit) => return (hit, hit_cost, false),
            Lookup::Stale(v) => {
                if degraded {
                    return (v, hit_cost, true);
                }
                self.l2_stale_evictions.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Absent => {}
        }
        self.neighbor_misses.fetch_add(1, Ordering::Relaxed);
        let (fetched, cost) = self.backend.fetch_neighbors_cost(u);
        let value = into_arc(fetched);
        shard.insert(u.0, Arc::clone(&value), current);
        (value, cost, false)
    }

    /// Cache-through label fetch (same locking discipline, staleness,
    /// degradation, and cost contract as [`CachedOsn::neighbors_shared`]).
    fn labels_shared(
        &self,
        u: NodeId,
        current: Epoch,
        degraded: bool,
    ) -> (Arc<[LabelId]>, FetchCost, bool) {
        let hit_cost = FetchCost::default();
        let lock = &self.label_shards[self.shard_of(u)];
        if self.unbounded {
            let shard = lock.read().unwrap_or_else(PoisonError::into_inner);
            if degraded {
                if let Some((hit, stale)) = shard.peek_any(u.0, current) {
                    return (hit, hit_cost, stale);
                }
            } else if let Some(hit) = shard.peek(u.0, current) {
                return (hit, hit_cost, false);
            }
        }
        let mut shard = lock.write().unwrap_or_else(PoisonError::into_inner);
        match shard.get(u.0, current) {
            Lookup::Hit(hit) => return (hit, hit_cost, false),
            Lookup::Stale(v) => {
                if degraded {
                    return (v, hit_cost, true);
                }
                self.l2_stale_evictions.fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Absent => {}
        }
        self.label_misses.fetch_add(1, Ordering::Relaxed);
        let (fetched, cost) = self.backend.fetch_labels_cost(u);
        let value = into_arc(fetched);
        shard.insert(u.0, Arc::clone(&value), current);
        (value, cost, false)
    }
}

/// The shared handle an L2 entry keeps: the backend's own `Arc` when it
/// handed one out (a paged decode, a churned graph's per-node list),
/// otherwise a copy of the borrowed bytes. An `Arc<[T]>` cannot change
/// while it is shared, so keeping the backend's handle serves the bytes
/// of the fetch; a churned node gets a new `Arc` and a new epoch.
fn into_arc<T: Clone>(fetched: SliceRef<'_, T>) -> Arc<[T]> {
    match fetched {
        SliceRef::Shared(a) => a,
        other => Arc::from(&*other),
    }
}

/// One endpoint kind's direct-mapped session L1: a power-of-two slot
/// array keyed by node id. A probe is one multiply-shift, one compare,
/// and (on a hit) one non-atomic `Rc` clone — no locks, no atomics, no
/// probing loops.
///
/// Slot conflicts use a **second-chance** policy: entries enter
/// *protected*, a conflicting miss demotes a protected incumbent (one
/// boolean write — no allocation, no copy) and only replaces an already
/// demoted one, and every hit re-protects. Two hot keys ping-ponging on
/// one slot therefore settle into one L1-resident key (hitting) and one
/// L2-served key, instead of paying an O(degree) slice copy per lookup;
/// dead entries still age out after two conflicting misses. Collisions
/// cost time, never correctness — the displaced key's next lookup falls
/// back to the L2 and returns identical bytes.
struct L1Cache<T> {
    slots: RefCell<Box<[L1Slot<T>]>>,
    mask: usize,
    hits: Cell<u64>,
    stale: Cell<u64>,
    served_stale: Cell<u64>,
}

/// One direct-mapped slot.
type L1Slot<T> = Option<L1Entry<T>>;

/// A resident entry: the key, its second-chance protection bit, the
/// fill-time [`Epoch`] stamp, and the session-private copy of the data.
struct L1Entry<T> {
    key: u32,
    protected: bool,
    epoch: Epoch,
    value: Rc<[T]>,
}

impl<T: Clone> L1Cache<T> {
    /// `slots` must be a power of two.
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        L1Cache {
            slots: RefCell::new((0..slots).map(|_| None).collect()),
            mask: slots - 1,
            hits: Cell::new(0),
            stale: Cell::new(0),
            served_stale: Cell::new(0),
        }
    }

    #[inline]
    fn slot_of(&self, key: u32) -> usize {
        (key as usize).wrapping_mul(0x9E37_79B9) >> 7 & self.mask
    }

    /// Epoch-checked probe: a resident key stamped with a different epoch
    /// is evicted on the spot (counted once) and answers as a miss — the
    /// caller falls through to the L2, whose refill re-populates this
    /// slot via [`L1Cache::insert`].
    ///
    /// With `accept_stale` (serve-stale degradation in effect), a stale
    /// entry is *served* instead — counted separately, kept resident with
    /// its old stamp (not re-protected, not re-stamped), so the first
    /// probe after the endpoint recovers evicts it normally.
    #[inline]
    fn get(&self, key: u32, current: Epoch, accept_stale: bool) -> Option<Rc<[T]>> {
        let mut slots = self.slots.borrow_mut();
        let slot = &mut slots[self.slot_of(key)];
        match slot {
            Some(e) if e.key == key => {
                if e.epoch.is_stale_vs(current) {
                    if accept_stale {
                        self.served_stale.set(self.served_stale.get() + 1);
                        return Some(Rc::clone(&e.value));
                    }
                    *slot = None;
                    self.stale.set(self.stale.get() + 1);
                    return None;
                }
                e.protected = true;
                self.hits.set(self.hits.get() + 1);
                Some(Rc::clone(&e.value))
            }
            _ => None,
        }
    }

    /// Offers `value` for the key's slot after an L1 miss, stamped with
    /// the epoch it was fetched under. A protected incumbent under a
    /// different key survives (demoted); otherwise the slot takes a fresh
    /// protected copy of `value`. The copy de-atomizes every later hit:
    /// the slot owns a private `Rc` whose refcount is plain memory, so
    /// repeat lookups never touch the `Arc` the L2 handed out.
    fn insert(&self, key: u32, value: &[T], epoch: Epoch) {
        let slot = self.slot_of(key);
        let mut slots = self.slots.borrow_mut();
        match &mut slots[slot] {
            Some(e) if e.key != key && e.protected => e.protected = false,
            e => {
                *e = Some(L1Entry {
                    key,
                    protected: true,
                    epoch,
                    value: Rc::from(value),
                })
            }
        }
    }
}

/// The session-private L1: one direct-mapped cache per endpoint kind.
struct SessionL1 {
    neighbors: L1Cache<NodeId>,
    labels: L1Cache<LabelId>,
}

impl SessionL1 {
    fn new(slots: usize) -> Self {
        SessionL1 {
            neighbors: L1Cache::new(slots),
            labels: L1Cache::new(slots),
        }
    }
}

/// One query's view of a [`CachedOsn`]: implements [`OsnApi`] with
/// per-session logical-call accounting, an optional per-session hard
/// budget (mirroring [`crate::SimulatedOsn`]'s budget semantics, so
/// estimators behave identically against either), and a private
/// direct-mapped L1 cache that serves repeat lookups without touching the
/// shared L2's locks or atomics.
///
/// Sessions are intentionally neither `Sync` nor `Send` (plain `Cell`
/// counters, `Rc`-held L1 entries) — create one per thread/replicate; the
/// shared cache behind them is thread-safe.
pub struct OsnSession<'c, B> {
    cache: &'c CachedOsn<B>,
    l1: Option<SessionL1>,
    acct: SessionAccounting,
    l2_stale_served: Cell<u64>,
}

impl<'c, B: OsnBackend> OsnSession<'c, B> {
    /// The cache this session runs against.
    pub fn cache(&self) -> &'c CachedOsn<B> {
        self.cache
    }

    /// Sets a hard budget on *charged neighbor-list calls* (logical calls
    /// plus retry charges; the same contract as `SimulatedOsn::set_budget`
    /// against a well-behaved backend, where the two coincide).
    pub fn set_budget(&self, calls: u64) {
        self.acct.set_budget(Some(calls));
    }

    /// Removes the budget.
    pub fn clear_budget(&self) {
        self.acct.set_budget(None);
    }

    /// Remaining charged neighbor-list calls under the budget, if one is
    /// set.
    pub fn budget_remaining(&self) -> Option<u64> {
        self.acct.budget_remaining()
    }

    /// Extra billable attempts this session's misses cost beyond their
    /// logical calls (0 against a well-behaved backend).
    pub fn retry_charges(&self) -> u64 {
        self.acct.retry_charges()
    }

    /// Simulated latency ticks this session's misses spent (0 against a
    /// well-behaved backend; cache hits are tick-free). This is the
    /// session's share of the backend's virtual time — the currency a
    /// deadline scheduler advances its clock in.
    pub fn latency_ticks(&self) -> u64 {
        self.acct.latency_ticks()
    }

    /// Sets a ceiling on this session's simulated latency ticks. Once
    /// [`OsnSession::latency_ticks`] reaches it, [`OsnApi::budget_exhausted`]
    /// answers `true` — so every estimator's existing step-boundary budget
    /// poll doubles as a cooperative *cancellation* yield point: a
    /// deadline scheduler grants each execution slice `deadline − clock`
    /// ticks and the estimator stops at the next step boundary after the
    /// allowance runs out, without any estimator-side changes.
    pub fn set_tick_ceiling(&self, ticks: u64) {
        self.acct.set_tick_ceiling(Some(ticks));
    }

    /// Removes the tick ceiling.
    pub fn clear_tick_ceiling(&self) {
        self.acct.set_tick_ceiling(None);
    }

    /// Whether the tick ceiling (if any) has been reached — distinguishes
    /// a deadline cut from an ordinary call-budget exhaustion when both
    /// feed [`OsnApi::budget_exhausted`].
    pub fn ticks_exceeded(&self) -> bool {
        self.acct.ticks_exceeded()
    }

    /// Logical calls this session served from its private L1 (no lock, no
    /// atomics). Always `0` when the L1 is disabled.
    pub fn l1_hits(&self) -> u64 {
        self.l1
            .as_ref()
            .map(|l1| l1.neighbors.hits.get() + l1.labels.hits.get())
            .unwrap_or(0)
    }

    /// L1 entries this session discovered stale (fill-time epoch ≠
    /// current) and evicted. Always `0` when the L1 is disabled or the
    /// backend is static.
    pub fn l1_stale_evictions(&self) -> u64 {
        self.l1
            .as_ref()
            .map(|l1| l1.neighbors.stale.get() + l1.labels.stale.get())
            .unwrap_or(0)
    }

    /// Stale-epoch entries this session served as answers (either cache
    /// layer) during degraded-endpoint windows under
    /// [`CacheConfig::serve_stale`]. Always `0` with the knob off or
    /// against never-degraded backends.
    pub fn stale_served(&self) -> u64 {
        self.l2_stale_served.get()
            + self
                .l1
                .as_ref()
                .map(|l1| l1.neighbors.served_stale.get() + l1.labels.served_stale.get())
                .unwrap_or(0)
    }

    /// Total charged API calls of both kinds: logical calls plus retry
    /// charges — the realized cost a billed crawler pays.
    pub fn charged_calls(&self) -> u64 {
        self.acct.charged_calls()
    }
}

impl<B: OsnBackend> OsnApi for OsnSession<'_, B> {
    fn num_nodes(&self) -> usize {
        self.cache.backend.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.cache.backend.num_edges()
    }

    fn neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        self.acct.count_neighbor_call();
        // One epoch read per logical call, shared by both cache layers —
        // a constant for every static backend, a lock-free region stamp
        // for churning ones. Reading it before the lookup (not after)
        // means an entry can only be judged against an epoch at least as
        // old as itself — stale verdicts may be conservative, never
        // falsely fresh.
        let current = self.cache.backend.epoch_of(u);
        // Graceful degradation: with serve-stale opted in and the backend
        // reporting this endpoint degraded (e.g. an open circuit breaker),
        // both cache layers may answer from stale-epoch entries instead of
        // refetching into the outage.
        let degraded = self.cache.serve_stale
            && self
                .cache
                .backend
                .endpoint_degraded(EndpointKind::Neighbors);
        if let Some(l1) = &self.l1 {
            // The de-atomized hot path: repeat lookups within this query
            // resolve here without a lock or an `Arc` refcount bump.
            if let Some(hit) = l1.neighbors.get(u.0, current, degraded) {
                return SliceRef::Local(hit);
            }
        }
        let (value, cost, served_stale) = self.cache.neighbors_shared(u, current, degraded);
        self.acct.charge(cost);
        if served_stale {
            // Not refilled into the L1: stamping the stale bytes with
            // `current` would launder them into fresh ones after recovery.
            self.l2_stale_served.set(self.l2_stale_served.get() + 1);
            return SliceRef::Shared(value);
        }
        if let Some(l1) = &self.l1 {
            l1.neighbors.insert(u.0, &value, current);
        }
        SliceRef::Shared(value)
    }

    fn labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        self.acct.count_label_call();
        // Label reads compare against the *label* epoch, so backends that
        // split per-endpoint epochs (label-only churn) don't needlessly
        // invalidate this session's neighbor entries — and vice versa.
        let current = self.cache.backend.label_epoch_of(u);
        let degraded =
            self.cache.serve_stale && self.cache.backend.endpoint_degraded(EndpointKind::Labels);
        if let Some(l1) = &self.l1 {
            if let Some(hit) = l1.labels.get(u.0, current, degraded) {
                return SliceRef::Local(hit);
            }
        }
        let (value, cost, served_stale) = self.cache.labels_shared(u, current, degraded);
        self.acct.charge(cost);
        if served_stale {
            self.l2_stale_served.set(self.l2_stale_served.get() + 1);
            return SliceRef::Shared(value);
        }
        if let Some(l1) = &self.l1 {
            l1.labels.insert(u.0, &value, current);
        }
        SliceRef::Shared(value)
    }

    fn max_degree_bound(&self) -> usize {
        self.cache.backend.max_degree_bound()
    }

    fn api_calls(&self) -> u64 {
        self.acct.api_calls()
    }

    fn budget_exhausted(&self) -> bool {
        self.acct.budget_exhausted()
    }
}

/// Logical-call and L1-hit totals flush into the shared [`CallStats`]
/// when the session ends — a handful of atomic adds per query instead of
/// one per call, so parallel replicates never contend on a shared counter
/// cache line. ([`CachedOsn::stats`] therefore aggregates *finished*
/// sessions; a live session's calls are visible through its own
/// [`OsnApi::api_calls`] / [`OsnSession::l1_hits`].) The flushed totals
/// are a pure function of the session's own call sequence, so the shared
/// stats stay interleaving-independent.
impl<B> Drop for OsnSession<'_, B> {
    fn drop(&mut self) {
        let n = self.acct.neighbor_calls();
        if n > 0 {
            self.cache.logical_neighbor.fetch_add(n, Ordering::Relaxed);
        }
        let l = self.acct.label_calls();
        if l > 0 {
            self.cache.logical_label.fetch_add(l, Ordering::Relaxed);
        }
        if let Some(l1) = &self.l1 {
            let nh = l1.neighbors.hits.get();
            if nh > 0 {
                self.cache.l1_neighbor_hits.fetch_add(nh, Ordering::Relaxed);
            }
            let lh = l1.labels.hits.get();
            if lh > 0 {
                self.cache.l1_label_hits.fetch_add(lh, Ordering::Relaxed);
            }
            let st = l1.neighbors.stale.get() + l1.labels.stale.get();
            if st > 0 {
                self.cache
                    .l1_stale_evictions
                    .fetch_add(st, Ordering::Relaxed);
            }
        }
        let served = self.l2_stale_served.get()
            + self
                .l1
                .as_ref()
                .map(|l1| l1.neighbors.served_stale.get() + l1.labels.served_stale.get())
                .unwrap_or(0);
        if served > 0 {
            self.cache.stale_served.fetch_add(served, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulated::SimulatedOsn;
    use labelcount_graph::GraphBuilder;

    fn path4() -> LabeledGraph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(3));
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.build()
    }

    /// A config with the session L1 disabled — the L2-only layout all the
    /// pre-hierarchy accounting tests were written against.
    fn no_l1(capacity: Option<usize>, shards: usize) -> CacheConfig {
        let b = CacheConfig::builder().shards(shards).l1_slots(0);
        match capacity {
            Some(c) => b.capacity(c),
            None => b.unbounded(),
        }
        .build()
    }

    fn assert_sync<T: Sync>(_: &T) {}

    #[test]
    fn cached_graph_backend_is_sync() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        assert_sync(&cache);
    }

    #[test]
    fn hits_and_misses_are_separated() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let s = cache.session();
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        s.labels(NodeId(0));
        s.labels(NodeId(0));
        s.labels(NodeId(1));
        drop(s); // logical totals flush at session end
        let st = cache.stats();
        assert_eq!(st.logical_neighbor_calls, 2);
        assert_eq!(st.neighbor_misses, 1);
        assert_eq!(st.logical_label_calls, 3);
        assert_eq!(st.label_misses, 2);
        assert_eq!(st.logical_calls(), 5);
        assert_eq!(st.misses(), 3);
        assert_eq!(st.hits(), 2);
        // Both repeats were absorbed by the session's L1 (the default).
        assert_eq!(st.l1_neighbor_hits, 1);
        assert_eq!(st.l1_label_hits, 1);
        assert_eq!(st.l1_hits(), 2);
        assert!((st.hit_rate() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn l1_disabled_sessions_hit_the_l2_instead() {
        let g = path4();
        let cache = CachedOsn::with_config(GraphOsn::new(&g), no_l1(None, 64));
        let s = cache.session();
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(s.l1_hits(), 0);
        drop(s);
        let st = cache.stats();
        // Identical logical/miss accounting, no L1 hits.
        assert_eq!(st.logical_neighbor_calls, 2);
        assert_eq!(st.neighbor_misses, 1);
        assert_eq!(st.l1_hits(), 0);
        assert_eq!(st.hits(), 1); // the repeat was an L2 hit instead
    }

    #[test]
    fn l1_hits_never_touch_the_shared_l2() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let s = cache.session();
        s.neighbors(NodeId(1)); // L2 miss, fills both layers
        cache.clear(); // drop every L2 entry
                       // The repeat is served from the session's private L1 even though
                       // the L2 is empty — proof the hot path never takes the shard lock.
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(s.l1_hits(), 1);
        assert_eq!(cache.cached_entries(), (0, 0));
    }

    #[test]
    fn l1_collisions_fall_back_to_l2_with_identical_data() {
        let g = path4();
        // A 1-slot L1: every distinct node collides with every other.
        let cache = CachedOsn::with_config(
            GraphOsn::new(&g),
            CacheConfig::builder().l1_slots(1).build(),
        );
        let s = cache.session();
        for round in 0..3 {
            for u in 0..4u32 {
                assert_eq!(
                    &*s.neighbors(NodeId(u)),
                    g.neighbors(NodeId(u)),
                    "round {round} node {u}"
                );
            }
        }
        drop(s);
        let st = cache.stats();
        // The L2 is unbounded: misses still equal distinct nodes no matter
        // how often the tiny L1 thrashed.
        assert_eq!(st.neighbor_misses, 4);
        assert_eq!(st.logical_neighbor_calls, 12);
    }

    #[test]
    fn sessions_account_independently_but_share_the_cache() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let a = cache.session();
        let b = cache.session();
        a.neighbors(NodeId(0));
        b.neighbors(NodeId(0)); // L2 hit: a already pulled it in (L1s are private)
        assert_eq!(a.api_calls(), 1);
        assert_eq!(b.api_calls(), 1);
        drop(a);
        drop(b);
        let st = cache.stats();
        assert_eq!(st.logical_neighbor_calls, 2);
        assert_eq!(st.neighbor_misses, 1);
        assert_eq!(st.l1_hits(), 0, "first lookups never hit an L1");
    }

    #[test]
    fn unbounded_misses_equal_distinct_requests() {
        let g = path4();
        let cache = CachedOsn::new(SimulatedOsn::new(&g));
        let s = cache.session();
        for _ in 0..5 {
            for u in 0..4u32 {
                s.neighbors(NodeId(u));
                s.labels(NodeId(u));
            }
        }
        drop(s);
        let st = cache.stats();
        assert_eq!(st.neighbor_misses, 4);
        assert_eq!(st.label_misses, 4);
        // Every repeat round was absorbed by the session L1.
        assert_eq!(st.l1_neighbor_hits, 16);
        assert_eq!(st.l1_label_hits, 16);
        // The wrapped simulation saw exactly the miss traffic.
        let inner = cache.backend().stats();
        assert_eq!(inner.neighbor_calls, st.neighbor_misses);
        assert_eq!(inner.label_calls, st.label_misses);
        assert_eq!(inner.distinct_neighbor_calls, 4);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let g = path4();
        // capacity 2, one shard, no L1: deterministic L2 eviction order.
        let cache = CachedOsn::with_config(GraphOsn::new(&g), no_l1(Some(2), 1));
        let s = cache.session();
        s.neighbors(NodeId(0)); // miss {0}
        s.neighbors(NodeId(1)); // miss {0,1}
        s.neighbors(NodeId(0)); // hit, refreshes 0 -> LRU is 1
        s.neighbors(NodeId(2)); // miss, evicts 1 -> {0,2}
        s.neighbors(NodeId(0)); // hit
        s.neighbors(NodeId(1)); // miss again (was evicted)
        drop(s);
        let st = cache.stats();
        assert_eq!(st.neighbor_misses, 4);
        assert_eq!(st.logical_neighbor_calls, 6);
        assert_eq!(cache.cached_entries().0, 2);
    }

    #[test]
    fn bounded_cache_still_returns_correct_data() {
        let g = path4();
        let cache = CachedOsn::with_config(GraphOsn::new(&g), no_l1(Some(1), 1));
        let s = cache.session();
        for round in 0..3 {
            for u in 0..4u32 {
                let got = s.neighbors(NodeId(u));
                assert_eq!(&*got, g.neighbors(NodeId(u)), "round {round} node {u}");
            }
        }
    }

    /// Regression test: a bounded capacity *smaller than the shard count*
    /// must round up to one slot per shard, not down to zero-capacity
    /// shards — the configured capacity is a lower bound, and a cache that
    /// silently stored nothing would turn every logical call into a
    /// backend miss.
    #[test]
    fn tiny_capacity_with_many_shards_still_caches() {
        let g = path4();
        for capacity in [1usize, 2, 3] {
            let cache = CachedOsn::with_config(GraphOsn::new(&g), no_l1(Some(capacity), 64));
            let s = cache.session();
            for u in 0..4u32 {
                s.neighbors(NodeId(u));
            }
            // Re-visit: with >= 1 slot per shard and 4 nodes spread over 64
            // shards, every entry must still be resident — zero new misses.
            for u in 0..4u32 {
                s.neighbors(NodeId(u));
            }
            drop(s);
            let st = cache.stats();
            assert_eq!(
                st.neighbor_misses, 4,
                "capacity {capacity}: repeats must be hits, not refetches"
            );
            assert_eq!(cache.cached_entries().0, 4, "capacity {capacity}");
        }
    }

    #[test]
    fn session_budget_tracks_logical_neighbor_calls() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let s = cache.session();
        s.set_budget(2);
        assert!(!s.budget_exhausted());
        assert_eq!(s.budget_remaining(), Some(2));
        s.neighbors(NodeId(0));
        s.neighbors(NodeId(0)); // a cache hit still costs a logical call
        assert!(s.budget_exhausted());
        assert_eq!(s.budget_remaining(), Some(0));
        s.clear_budget();
        assert!(!s.budget_exhausted());
    }

    #[test]
    fn reset_and_clear_are_independent() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let s = cache.session();
        s.neighbors(NodeId(0));
        drop(s);
        cache.reset_stats();
        assert_eq!(cache.stats(), CallStats::default());
        assert_eq!(cache.cached_entries().0, 1); // entry survives reset
        let s2 = cache.session();
        s2.neighbors(NodeId(0));
        drop(s2);
        assert_eq!(cache.stats().neighbor_misses, 0); // still cached

        cache.clear();
        assert_eq!(cache.cached_entries(), (0, 0));
        let s3 = cache.session();
        s3.neighbors(NodeId(0));
        drop(s3);
        assert_eq!(cache.stats().neighbor_misses, 1); // refetched
    }

    #[test]
    fn parallel_sessions_produce_deterministic_totals() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let s = cache.session();
                    for _ in 0..50 {
                        for u in 0..4u32 {
                            s.neighbors(NodeId(u));
                            s.labels(NodeId(u));
                        }
                    }
                    assert_eq!(s.api_calls(), 400);
                    // 49 repeat rounds per endpoint, all L1-absorbed.
                    assert_eq!(s.l1_hits(), 2 * 49 * 4);
                });
            }
        });
        let st = cache.stats();
        assert_eq!(st.logical_neighbor_calls, 800);
        assert_eq!(st.logical_label_calls, 800);
        // Fetch-under-lock: distinct requests == misses, regardless of
        // interleaving.
        assert_eq!(st.neighbor_misses, 4);
        assert_eq!(st.label_misses, 4);
        // L1 hits are per-session functions, so their sum is too.
        assert_eq!(st.l1_hits(), 4 * 2 * 49 * 4);
    }

    #[test]
    fn guard_survives_eviction_of_its_entry() {
        let g = path4();
        let cache = CachedOsn::with_config(GraphOsn::new(&g), no_l1(Some(1), 1));
        let s = cache.session();
        let guard = s.neighbors(NodeId(1));
        s.neighbors(NodeId(2)); // evicts node 1's entry
        assert_eq!(guard, &[NodeId(0), NodeId(2)]); // still readable
    }

    #[test]
    fn l1_guard_survives_slot_replacement() {
        let g = path4();
        let cache = CachedOsn::with_config(
            GraphOsn::new(&g),
            CacheConfig::builder().l1_slots(1).build(),
        );
        let s = cache.session();
        s.neighbors(NodeId(1));
        let guard = s.neighbors(NodeId(1)); // L1 hit: a Local guard
        s.neighbors(NodeId(2)); // conflicting miss: demotes node 1's entry
        s.neighbors(NodeId(2)); // second miss: evicts it for node 2
        assert_eq!(s.l1_hits(), 1, "node 1's entry must be gone by now");
        assert_eq!(guard, &[NodeId(0), NodeId(2)]); // Rc keeps it alive
    }

    /// Second-chance regression test: two hot keys ping-ponging on one L1
    /// slot must settle into one resident (hitting) key instead of
    /// copy-thrashing — a protected incumbent survives a conflicting miss
    /// and every hit re-protects it.
    #[test]
    fn l1_collision_ping_pong_keeps_one_resident_key() {
        let g = path4();
        let cache = CachedOsn::with_config(
            GraphOsn::new(&g),
            CacheConfig::builder().l1_slots(1).build(),
        );
        let s = cache.session();
        let rounds = 10u64;
        for _ in 0..rounds {
            s.neighbors(NodeId(0)); // resident: hits from its 2nd visit on
            s.neighbors(NodeId(1)); // challenger: demote-only, L2-served
        }
        assert_eq!(s.l1_hits(), rounds - 1);
        drop(s);
        // Both keys stayed correct throughout: unbounded L2, 2 distinct
        // nodes, 2 misses total.
        assert_eq!(cache.stats().neighbor_misses, 2);
        assert_eq!(cache.stats().logical_neighbor_calls, 2 * rounds);
    }

    #[test]
    fn session_latency_ticks_bill_misses_only() {
        use crate::adversarial::{AdversarialOsn, FaultConfig, RetryPolicy};
        let g = path4();
        // Latency-only hostility: no faults, but every attempt costs base
        // latency, so ticks are deterministic (= 1 per miss).
        let cfg = FaultConfig {
            base_latency_ticks: 1,
            ..FaultConfig::clean(5)
        };
        let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
        let cache = CachedOsn::new(adv);
        let s = cache.session();
        s.neighbors(NodeId(0)); // miss: 1 tick
        s.neighbors(NodeId(0)); // L1 hit: tick-free
        s.neighbors(NodeId(1)); // miss: 1 tick
        s.labels(NodeId(0)); // miss: 1 tick
        assert_eq!(s.latency_ticks(), 3);
        // The backend's aggregate agrees with the session's share (one
        // session, so they coincide).
        assert_eq!(cache.backend().fault_stats().latency_ticks, 3);
    }

    #[test]
    fn tick_ceiling_feeds_budget_exhausted() {
        use crate::adversarial::{AdversarialOsn, FaultConfig, RetryPolicy};
        let g = path4();
        let cfg = FaultConfig {
            base_latency_ticks: 2,
            ..FaultConfig::clean(7)
        };
        let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
        let cache = CachedOsn::new(adv);
        let s = cache.session();
        s.set_tick_ceiling(3);
        assert!(!s.budget_exhausted());
        s.neighbors(NodeId(0)); // 2 ticks: still under
        assert!(!s.budget_exhausted());
        assert!(!s.ticks_exceeded());
        s.neighbors(NodeId(1)); // 4 ticks: ceiling reached
        assert!(s.budget_exhausted());
        assert!(s.ticks_exceeded());
        // Disambiguation: the call budget is untouched.
        assert_eq!(s.budget_remaining(), None);
        s.clear_tick_ceiling();
        assert!(!s.budget_exhausted());
        assert!(!s.ticks_exceeded());
    }

    #[test]
    fn max_degree_bound_forwards_to_backend() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        assert_eq!(cache.session().max_degree_bound(), 2);
        assert_eq!(cache.stats().logical_calls(), 0); // prior knowledge is free
    }

    /// A backend whose first neighbor fetch panics — the estimator-blows-up
    /// scenario. The unwind happens while `neighbors_shared` holds the
    /// shard's write lock, poisoning it.
    struct PanickyBackend<'g> {
        inner: GraphOsn<'g>,
        armed: std::sync::atomic::AtomicBool,
    }

    impl OsnBackend for PanickyBackend<'_> {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }

        fn num_edges(&self) -> usize {
            self.inner.num_edges()
        }

        fn max_degree_bound(&self) -> usize {
            self.inner.max_degree_bound()
        }

        fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
            if self.armed.swap(false, Ordering::SeqCst) {
                panic!("injected backend panic");
            }
            self.inner.fetch_neighbors(u)
        }

        fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
            self.inner.fetch_labels(u)
        }
    }

    #[test]
    fn poisoned_shard_locks_recover_instead_of_cascading() {
        let g = path4();
        let cache = CachedOsn::with_config(
            PanickyBackend {
                inner: GraphOsn::new(&g),
                armed: std::sync::atomic::AtomicBool::new(true),
            },
            no_l1(None, 1), // one shard: the poisoned lock is the only lock
        );

        // First fetch panics under the shard's write lock.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.session().neighbors(NodeId(1));
        }));
        assert!(caught.is_err(), "the injected panic must propagate");

        // The shard lock is now poisoned; every path over it must recover
        // rather than cascade the panic.
        let s = cache.session();
        assert_eq!(s.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(s.labels(NodeId(0)), &[LabelId(1)]);
        drop(s);
        let (n, l) = cache.cached_entries();
        assert_eq!((n, l), (1, 1));
        cache.clear();
        assert_eq!(cache.cached_entries(), (0, 0));
    }

    /// A static graph backend whose reported epoch is externally settable —
    /// the minimal churn stand-in for exercising the stale-miss paths.
    struct EpochBackend<'g> {
        inner: GraphOsn<'g>,
        epoch: std::sync::atomic::AtomicU32,
        /// Per-endpoint degradation flags (bit 0 = neighbors, bit 1 =
        /// labels) for exercising the serve-stale paths.
        degraded: std::sync::atomic::AtomicU8,
    }

    impl<'g> EpochBackend<'g> {
        fn new(g: &'g LabeledGraph, epoch: u32) -> Self {
            EpochBackend {
                inner: GraphOsn::new(g),
                epoch: std::sync::atomic::AtomicU32::new(epoch),
                degraded: std::sync::atomic::AtomicU8::new(0),
            }
        }

        fn set_epoch(&self, e: u32) {
            self.epoch.store(e, Ordering::SeqCst);
        }

        fn set_degraded(&self, kind: EndpointKind, on: bool) {
            let bit = 1u8 << (kind as u8);
            if on {
                self.degraded.fetch_or(bit, Ordering::SeqCst);
            } else {
                self.degraded.fetch_and(!bit, Ordering::SeqCst);
            }
        }
    }

    impl OsnBackend for EpochBackend<'_> {
        fn num_nodes(&self) -> usize {
            self.inner.num_nodes()
        }

        fn num_edges(&self) -> usize {
            self.inner.num_edges()
        }

        fn max_degree_bound(&self) -> usize {
            self.inner.max_degree_bound()
        }

        fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
            self.inner.fetch_neighbors(u)
        }

        fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
            self.inner.fetch_labels(u)
        }

        fn epoch_of(&self, _u: NodeId) -> Epoch {
            Epoch(self.epoch.load(Ordering::SeqCst))
        }

        fn endpoint_degraded(&self, kind: EndpointKind) -> bool {
            self.degraded.load(Ordering::SeqCst) & (1 << kind as u8) != 0
        }
    }

    #[test]
    fn epoch_bump_invalidates_both_layers() {
        let g = path4();
        let backend = EpochBackend::new(&g, 0);
        let cache = CachedOsn::new(backend);
        let s = cache.session();
        s.neighbors(NodeId(1)); // miss: fills L2 + L1 at epoch 0
        s.neighbors(NodeId(1)); // L1 hit
        assert_eq!(s.l1_hits(), 1);
        assert_eq!(s.l1_stale_evictions(), 0);

        cache.backend().set_epoch(1);
        // The L1 entry is stamped 0: stale, evicted, falls to the L2 —
        // whose entry is also stamped 0: stale too, refetched.
        s.neighbors(NodeId(1));
        assert_eq!(s.l1_stale_evictions(), 1);
        assert_eq!(s.l1_hits(), 1, "a stale probe is not a hit");
        // Refilled at epoch 1: hits again.
        s.neighbors(NodeId(1));
        assert_eq!(s.l1_hits(), 2);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.neighbor_misses, 2, "one cold miss, one stale refetch");
        assert_eq!(st.l1_stale_evictions, 1);
        assert_eq!(st.l2_stale_evictions, 1);
        assert_eq!(st.stale_evictions(), 2);
    }

    #[test]
    fn l2_only_stale_path_counts_and_refetches() {
        let g = path4();
        let backend = EpochBackend::new(&g, 0);
        let cache = CachedOsn::with_config(backend, no_l1(None, 1));
        let s = cache.session();
        s.labels(NodeId(0));
        s.labels(NodeId(0)); // L2 hit (read-lock peek path: unbounded)
        cache.backend().set_epoch(7);
        s.labels(NodeId(0)); // stale: refetch
        s.labels(NodeId(0)); // fresh again
        drop(s);
        let st = cache.stats();
        assert_eq!(st.label_misses, 2);
        assert_eq!(st.l2_stale_evictions, 1);
        assert_eq!(st.l1_stale_evictions, 0);
        // Entry was refilled in place, not duplicated.
        assert_eq!(cache.cached_entries().1, 1);
    }

    #[test]
    fn bounded_shard_stale_path_refills_in_place() {
        let g = path4();
        let backend = EpochBackend::new(&g, 3);
        // Bounded single shard: the write-lock `get` path does the check.
        let cache = CachedOsn::with_config(backend, no_l1(Some(2), 1));
        let s = cache.session();
        s.neighbors(NodeId(0));
        s.neighbors(NodeId(1));
        cache.backend().set_epoch(4);
        s.neighbors(NodeId(0)); // stale: refilled in place
        s.neighbors(NodeId(1)); // stale: refilled in place
        s.neighbors(NodeId(0)); // fresh hit
        drop(s);
        let st = cache.stats();
        assert_eq!(st.neighbor_misses, 4);
        assert_eq!(st.l2_stale_evictions, 2);
        assert_eq!(cache.cached_entries().0, 2, "no growth past capacity");
    }

    /// Epoch wraparound: a stamp of `u32::MAX` versus a current epoch that
    /// wrapped to 0 must read as stale — staleness is inequality, not
    /// ordering, so wraparound can never manufacture a false hit.
    #[test]
    fn epoch_wraparound_is_stale_never_a_false_hit() {
        let g = path4();
        let backend = EpochBackend::new(&g, u32::MAX);
        let cache = CachedOsn::new(backend);
        let s = cache.session();
        s.neighbors(NodeId(2)); // fills both layers at MAX
        cache.backend().set_epoch(Epoch(u32::MAX).next().0); // wraps to 0
        assert_eq!(Epoch(u32::MAX).next(), Epoch(0));
        s.neighbors(NodeId(2));
        assert_eq!(s.l1_stale_evictions(), 1);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.neighbor_misses, 2, "wrapped epoch must refetch");
        assert_eq!(st.l2_stale_evictions, 1);
    }

    #[test]
    fn static_backends_never_report_stale() {
        let g = path4();
        let cache = CachedOsn::new(GraphOsn::new(&g));
        let s = cache.session();
        for _ in 0..3 {
            for u in 0..4u32 {
                s.neighbors(NodeId(u));
                s.labels(NodeId(u));
            }
        }
        assert_eq!(s.l1_stale_evictions(), 0);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.stale_evictions(), 0);
    }

    #[test]
    fn cache_config_builder_matches_field_construction() {
        let built = CacheConfig::builder()
            .capacity(128)
            .shards(8)
            .l1_slots(16)
            .build();
        assert_eq!(built.capacity(), Some(128));
        assert_eq!(built.shards(), 8);
        assert_eq!(built.l1_slots(), 16);
        let unbounded = CacheConfig::builder().capacity(9).unbounded().build();
        assert_eq!(unbounded.capacity(), None);
        let defaults = CacheConfig::builder().build();
        assert_eq!(defaults.capacity(), None);
        assert_eq!(defaults.shards(), 64);
        assert_eq!(defaults.l1_slots(), DEFAULT_L1_SLOTS);
        assert!(!defaults.serve_stale());
        let degradable = CacheConfig::builder().serve_stale(true).build();
        assert!(degradable.serve_stale());
    }

    /// Serve-stale degradation: with the knob on and the backend reporting
    /// the endpoint degraded, stale entries answer from both layers
    /// (counted, no refetch) — and the first probe after recovery evicts
    /// and refetches exactly as without the knob.
    #[test]
    fn degraded_endpoint_serves_stale_then_recovers() {
        let g = path4();
        let backend = EpochBackend::new(&g, 0);
        let cfg = CacheConfig::builder().serve_stale(true).build();
        let cache = CachedOsn::with_config(backend, cfg);
        let s = cache.session();
        let fresh: Vec<NodeId> = s.neighbors(NodeId(1)).to_vec();
        assert_eq!(s.stale_served(), 0);

        cache.backend().set_epoch(1);
        cache.backend().set_degraded(EndpointKind::Neighbors, true);
        // L1 entry is stamped 0 (stale) but the endpoint is degraded:
        // served as-is, twice, kept resident.
        assert_eq!(&*s.neighbors(NodeId(1)), &fresh[..]);
        assert_eq!(&*s.neighbors(NodeId(1)), &fresh[..]);
        assert_eq!(s.stale_served(), 2);
        assert_eq!(s.l1_stale_evictions(), 0, "served, not evicted");
        // A node never cached still fetches (degradation only widens what
        // a cache hit means; absent entries go to the backend as usual).
        s.neighbors(NodeId(3));

        cache.backend().set_degraded(EndpointKind::Neighbors, false);
        s.neighbors(NodeId(1)); // recovery: stale evicted + refetched
        assert_eq!(s.l1_stale_evictions(), 1);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.stale_served, 2);
        assert_eq!(st.neighbor_misses, 3, "cold, uncached node, recovery");
        assert_eq!(st.l2_stale_evictions, 1);
    }

    /// The L2-only degraded paths: the unbounded read-lock `peek_any` and
    /// the bounded write-lock `Lookup::Stale` serve, with per-endpoint
    /// degradation respected (labels degraded ≠ neighbors degraded).
    #[test]
    fn l2_serves_stale_per_endpoint_without_l1() {
        let g = path4();
        let backend = EpochBackend::new(&g, 0);
        let cfg = CacheConfig::builder()
            .unbounded()
            .shards(1)
            .l1_slots(0)
            .serve_stale(true)
            .build();
        let cache = CachedOsn::with_config(backend, cfg);
        let s = cache.session();
        s.labels(NodeId(0));
        s.neighbors(NodeId(0));
        cache.backend().set_epoch(5);
        cache.backend().set_degraded(EndpointKind::Labels, true);
        s.labels(NodeId(0)); // unbounded peek_any: served stale
        s.neighbors(NodeId(0)); // neighbors NOT degraded: stale refetch
        assert_eq!(s.stale_served(), 1);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.stale_served, 1);
        assert_eq!(st.label_misses, 1, "no refetch while degraded");
        assert_eq!(st.neighbor_misses, 2, "non-degraded endpoint refetches");
        assert_eq!(st.l2_stale_evictions, 1);

        // Bounded shards take the write-lock `get` path instead.
        let backend2 = EpochBackend::new(&g, 0);
        let cfg2 = CacheConfig::builder()
            .capacity(8)
            .shards(1)
            .l1_slots(0)
            .serve_stale(true)
            .build();
        let cache2 = CachedOsn::with_config(backend2, cfg2);
        let s2 = cache2.session();
        s2.labels(NodeId(2));
        cache2.backend().set_epoch(9);
        cache2.backend().set_degraded(EndpointKind::Labels, true);
        s2.labels(NodeId(2));
        drop(s2);
        assert_eq!(cache2.stats().stale_served, 1);
        assert_eq!(cache2.stats().label_misses, 1);
    }

    /// With the knob off, a degraded backend changes nothing: stale
    /// entries still evict and refetch, and `stale_served` stays 0 —
    /// the bit-identity half of the degradation contract.
    #[test]
    fn serve_stale_off_ignores_degradation() {
        let g = path4();
        let backend = EpochBackend::new(&g, 0);
        let cache = CachedOsn::new(backend);
        let s = cache.session();
        s.neighbors(NodeId(1));
        cache.backend().set_epoch(1);
        cache.backend().set_degraded(EndpointKind::Neighbors, true);
        s.neighbors(NodeId(1));
        assert_eq!(s.stale_served(), 0);
        assert_eq!(s.l1_stale_evictions(), 1);
        drop(s);
        let st = cache.stats();
        assert_eq!(st.stale_served, 0);
        assert_eq!(st.neighbor_misses, 2);
        assert_eq!(st.l2_stale_evictions, 1);
    }

    #[test]
    fn a_miss_keeps_the_backends_own_arc() {
        let g = path4();
        let churn = crate::ChurnOsn::new(
            &g,
            labelcount_graph::ChurnConfig {
                seed: 1,
                events_per_batch: 0,
                batch_interval_ticks: 1,
                region_shift: 0,
            },
        );
        let cache = CachedOsn::new(churn);
        let own_neighbors = cache.backend().fetch_neighbors(NodeId(1));
        let own_labels = cache.backend().fetch_labels(NodeId(0));
        let session = cache.session();
        // Misses, answered from the L2 entry the fetch just filled.
        let neighbors = session.neighbors(NodeId(1));
        let labels = session.labels(NodeId(0));
        assert_eq!(cache.stats().misses(), 2);
        assert!(std::ptr::eq(neighbors.as_ptr(), own_neighbors.as_ptr()));
        assert!(std::ptr::eq(labels.as_ptr(), own_labels.as_ptr()));
    }
}
