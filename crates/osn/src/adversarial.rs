//! Adversarial OSN backend: a deterministic, seeded fault model.
//!
//! Every backend the workspace had so far ([`crate::GraphOsn`],
//! [`crate::SimulatedOsn`]) answers instantly and never fails — a fantasy
//! no real crawl API grants. [`AdversarialOsn`] decorates any
//! [`OsnBackend`] with the hostile behaviors of a production OSN API:
//!
//! * **rate-limit windows** — a fetch attempt can be rejected with a
//!   `retry-after` delay, modeling HTTP 429;
//! * **transient errors** — a fetch attempt can fail outright (HTTP 5xx,
//!   connection reset), forcing a retry;
//! * **simulated latency** — every attempt costs latency *ticks* (an
//!   abstract unit of simulated time), with seeded jitter;
//! * **paginated neighbor lists** — a friend list larger than the page
//!   size costs one attempt *per page*, the way real endpoints return at
//!   most a few hundred friends per call.
//!
//! The decorator still implements [`OsnBackend`], so it composes under
//! [`crate::CachedOsn`]: `CachedOsn<AdversarialOsn<B>>` retries faults on
//! cache *misses* and serves hits fault-free, exactly like a caching
//! crawler in front of a flaky API. Retries are driven by a
//! [`RetryPolicy`] (bounded exponential backoff with jittered-but-seeded
//! delays), and the realized attempt count propagates to
//! [`crate::OsnSession`] budgets via
//! [`OsnBackend::fetch_neighbors_attempts`].
//!
//! # Determinism
//!
//! Every fault decision is a **pure hash** of `(fault seed, endpoint,
//! node, page, attempt)` — there is no shared mutable RNG stream. The
//! fault pattern a node sees is therefore independent of when (or on which
//! thread) the fetch happens, so a workload over an adversarial backend is
//! bit-identical at any worker count, matching the engine's determinism
//! bar. The *data* returned is always bit-identical to the inner backend:
//! faults delay and charge, they never corrupt. With a fault rate of zero
//! and pagination disabled the decorator is a strict pass-through —
//! estimates, RNG streams, and call accounting all match the undecorated
//! backend bit for bit (enforced by `proptest_adversarial`).

use std::sync::atomic::{AtomicU64, Ordering};

use labelcount_graph::{Epoch, LabelId, NodeId};

use crate::api::{EndpointKind, FetchCost, OsnBackend};
use crate::guard::SliceRef;

/// A seeded two-state (healthy / outage) correlated burst process for one
/// endpoint, advanced on the virtual tick clock.
///
/// Time is cut into fixed windows of [`BurstConfig::window_ticks`]. Each
/// window may *start* a burst (probability [`BurstConfig::start_rate`]),
/// whose length in windows is geometrically distributed around
/// [`BurstConfig::mean_burst_windows`] and capped at
/// [`BurstConfig::max_burst_windows`]. A window is in outage iff some
/// burst started at most `max_burst_windows − 1` windows ago and still
/// covers it — so deciding "is window `w` down?" is a pure hash of
/// `(seed, endpoint, window)` over a bounded lookback, with no mutable
/// chain state. The fault pattern therefore stays placement-independent:
/// it depends on where the fetch lands on the virtual clock, never on
/// which thread issued it.
///
/// During an outage window every attempt additionally fails with
/// probability [`BurstConfig::outage_fault_rate`]; `1.0` is allowed and
/// models a hard outage (every attempt fails until the retry policy forces
/// the final one).
#[derive(Clone, Copy, Debug)]
pub struct BurstConfig {
    /// Width of one outage-process window, in ticks (`>= 1`).
    pub window_ticks: u64,
    /// Per-window probability that a new burst starts.
    pub start_rate: f64,
    /// Mean burst length, in windows (`>= 1`).
    pub mean_burst_windows: f64,
    /// Hard cap on burst length, in windows (`>= 1`); also bounds the
    /// lookback of the pure-hash outage test.
    pub max_burst_windows: u32,
    /// Per-attempt failure probability *during* an outage window, in
    /// `[0, 1]`; `1.0` = hard outage.
    pub outage_fault_rate: f64,
}

impl BurstConfig {
    /// Short, frequent outages: bursts of ~2 windows starting in 8% of
    /// windows, hard failures while down.
    pub fn short() -> Self {
        BurstConfig {
            window_ticks: 32,
            start_rate: 0.08,
            mean_burst_windows: 2.0,
            max_burst_windows: 4,
            outage_fault_rate: 1.0,
        }
    }

    /// Long, rarer outages: bursts of ~8 windows starting in 3% of
    /// windows, hard failures while down.
    pub fn long() -> Self {
        BurstConfig {
            window_ticks: 32,
            start_rate: 0.03,
            mean_burst_windows: 8.0,
            max_burst_windows: 16,
            outage_fault_rate: 1.0,
        }
    }
}

/// Circuit-breaker knobs of one endpoint (closed / open / half-open on
/// the virtual clock).
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive retry-exhausted page fetches that trip the breaker
    /// (`>= 1`).
    pub failure_threshold: u32,
    /// How long a tripped breaker stays open, in ticks.
    pub open_ticks: u64,
    /// Successful probe fetches required to close again from half-open
    /// (`>= 1`).
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_ticks: 256,
            half_open_probes: 2,
        }
    }
}

/// The reactive resilience knobs of an [`AdversarialOsn`] stack. The
/// default is everything **off**, under which the decorator behaves
/// bit-identically to a stack without this struct.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResilienceConfig {
    /// Per-endpoint circuit breaker; `None` = never trip.
    pub breaker: Option<BreakerConfig>,
    /// Session-wide retry budget: the total number of retry attempts all
    /// fetches through this decorator may spend, so retry storms cannot
    /// amplify an outage burst. `None` = unlimited (the per-page
    /// [`RetryPolicy`] still bounds each fetch).
    pub retry_budget: Option<u64>,
    /// Whether cache layers over this backend may serve stale-epoch
    /// entries while an endpoint's breaker is open (graceful
    /// degradation). The flag lives here so one config travels with the
    /// stack; [`crate::CacheConfig::serve_stale`] must also opt in.
    pub serve_stale: bool,
}

/// Knobs of the seeded fault model.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed of the fault hash; two backends with the same seed and knobs
    /// inject identical faults.
    pub seed: u64,
    /// Probability that an attempt fails with a transient error.
    pub transient_rate: f64,
    /// Probability that an attempt is rejected by the rate limiter.
    pub rate_limit_rate: f64,
    /// `retry-after` returned with a rate-limit rejection, in ticks.
    pub retry_after_ticks: u64,
    /// Base simulated latency of every attempt, in ticks.
    pub base_latency_ticks: u64,
    /// Upper bound on the seeded per-attempt latency jitter, in ticks.
    pub latency_jitter_ticks: u64,
    /// Neighbor-list page size: a list of `d` friends costs
    /// `ceil(d / page_size)` attempts. `None` = unpaginated (one attempt
    /// returns the whole list, like the in-memory backends).
    pub page_size: Option<usize>,
    /// Profile-endpoint override of [`FaultConfig::transient_rate`].
    /// `None` (the default everywhere) keeps both endpoints at the shared
    /// rate, reproducing every pre-split seed bit-identically; `Some`
    /// lets a calibrated model make the profile endpoint flakier or
    /// steadier than the friend-list endpoint.
    pub label_transient_rate: Option<f64>,
    /// Profile-endpoint override of [`FaultConfig::rate_limit_rate`]
    /// (same `None` = shared-rate default as
    /// [`FaultConfig::label_transient_rate`]).
    pub label_rate_limit_rate: Option<f64>,
    /// Correlated outage bursts layered on top of the per-call rates.
    /// `None` (the default everywhere) disables the process entirely,
    /// reproducing every pre-burst seed bit-identically.
    pub burst: Option<BurstConfig>,
}

impl FaultConfig {
    /// A fault-free configuration: no errors, no rate limits, no latency,
    /// no pagination. `AdversarialOsn` under this config is a strict
    /// pass-through.
    pub fn clean(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            rate_limit_rate: 0.0,
            retry_after_ticks: 0,
            base_latency_ticks: 0,
            latency_jitter_ticks: 0,
            page_size: None,
            label_transient_rate: None,
            label_rate_limit_rate: None,
            burst: None,
        }
    }

    /// A representative hostile API: `rate` split evenly between transient
    /// errors and rate-limit rejections, 1-tick base latency with up to
    /// 3 ticks of jitter, 25-tick retry-after, 200-friend pages.
    pub fn hostile(seed: u64, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "fault rate must be in [0, 1)");
        FaultConfig {
            seed,
            transient_rate: rate / 2.0,
            rate_limit_rate: rate / 2.0,
            retry_after_ticks: 25,
            base_latency_ticks: 1,
            latency_jitter_ticks: 3,
            page_size: Some(200),
            label_transient_rate: None,
            label_rate_limit_rate: None,
            burst: None,
        }
    }

    /// Layers a correlated outage burst process on top of the per-call
    /// rates.
    #[must_use = "returns the modified config"]
    pub fn with_burst(mut self, burst: BurstConfig) -> Self {
        self.burst = Some(burst);
        self
    }

    /// Overrides the profile endpoint's fault rates, leaving the
    /// friend-list endpoint at the shared rates.
    #[must_use = "returns the modified config"]
    pub fn with_label_rates(mut self, transient: f64, rate_limit: f64) -> Self {
        self.label_transient_rate = Some(transient);
        self.label_rate_limit_rate = Some(rate_limit);
        self
    }

    /// Total per-attempt fault probability of the friend-list endpoint
    /// (the shared rates).
    pub fn fault_rate(&self) -> f64 {
        self.transient_rate + self.rate_limit_rate
    }

    /// The `(transient, rate-limit)` rates in force for `kind` — the
    /// shared rates, unless the profile endpoint carries an override.
    fn rates_for(&self, kind: u64) -> (f64, f64) {
        if kind == KIND_LABELS {
            (
                self.label_transient_rate.unwrap_or(self.transient_rate),
                self.label_rate_limit_rate.unwrap_or(self.rate_limit_rate),
            )
        } else {
            (self.transient_rate, self.rate_limit_rate)
        }
    }

    /// Total per-attempt fault probability of endpoint `kind`.
    fn fault_rate_for(&self, kind: u64) -> f64 {
        let (t, r) = self.rates_for(kind);
        t + r
    }
}

/// Bounded exponential backoff with seeded jitter.
///
/// Attempt `a` (0-based) that fails waits
/// `min(max_delay, base_delay << a) + jitter` ticks before attempt `a+1`,
/// where `jitter` is a deterministic hash in `[0, delay/2]`; a rate-limit
/// rejection waits at least its `retry-after`. `max_attempts` bounds the
/// loop: the final attempt always succeeds (the backend trait is
/// infallible), and a final attempt that *would* have failed is counted in
/// [`FaultStats::retries_exhausted`] so callers can see the policy was too
/// tight for the fault rate.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per page fetch (`>= 1`).
    pub max_attempts: u32,
    /// First-retry backoff delay, ticks.
    pub base_delay_ticks: u64,
    /// Backoff ceiling, ticks.
    pub max_delay_ticks: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base_delay_ticks: 2,
            max_delay_ticks: 64,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay (before jitter and retry-after) after failed
    /// attempt `attempt` (0-based).
    pub fn backoff_ticks(&self, attempt: u32) -> u64 {
        if self.base_delay_ticks == 0 {
            return 0;
        }
        // Saturating doubling: once the shift would push significant bits
        // out of a u64, the ceiling has long since taken over anyway.
        let doubled = if attempt >= self.base_delay_ticks.leading_zeros() {
            u64::MAX
        } else {
            self.base_delay_ticks << attempt
        };
        doubled.min(self.max_delay_ticks)
    }
}

/// Aggregate fault accounting of an [`AdversarialOsn`] (atomics, so the
/// decorator stays `Sync` when its inner backend is).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total fetch attempts, including first attempts, extra pages, and
    /// retries — the *realized* API cost a crawler pays.
    pub attempts: u64,
    /// Attempts beyond the first per page — what the fault model cost on
    /// top of the clean backend.
    pub retries: u64,
    /// Attempts rejected by the rate limiter.
    pub rate_limited: u64,
    /// Attempts that failed with a transient error.
    pub transient_errors: u64,
    /// Pages fetched beyond the first per neighbor list.
    pub extra_pages: u64,
    /// Page fetches whose final allowed attempt would also have failed
    /// (the policy forced success; a real crawler would have surfaced an
    /// error).
    pub retries_exhausted: u64,
    /// Total simulated latency, ticks (attempt latencies + backoff +
    /// retry-after waits).
    pub latency_ticks: u64,
    /// Distinct outage bursts this stack observed (a pure function of the
    /// seed and of where its fetches landed on the virtual clock).
    pub bursts: u64,
    /// Times a circuit breaker tripped open (including re-opens from a
    /// failed half-open probe).
    pub breaker_opens: u64,
    /// Page fetches answered fail-fast under an open breaker: one forced
    /// attempt, no retry loop. A real client would surface an error here;
    /// the infallible backend trait degrades to forced data instead, and
    /// stale-serving caches avoid even reaching this path.
    pub breaker_fast_fails: u64,
}

/// Endpoint discriminants mixed into the fault hash so neighbor-list and
/// profile fetches of one node fault independently.
const KIND_NEIGHBORS: u64 = 0x4E45_4947; // "NEIG"
const KIND_LABELS: u64 = 0x4C41_4245; // "LABE"

/// Salts of the per-coordinate hash draws. 0–2 predate the burst process
/// and must keep their values so old seeds reproduce bit-identically.
const SALT_OUTCOME: u64 = 0;
const SALT_LATENCY: u64 = 1;
const SALT_BACKOFF: u64 = 2;
const SALT_BURST_START: u64 = 16;
const SALT_BURST_LEN: u64 = 17;
const SALT_OUTAGE: u64 = 18;

/// Dense index of an endpoint kind into per-endpoint state arrays.
fn kind_index(kind: u64) -> usize {
    usize::from(kind == KIND_LABELS)
}

/// Circuit-breaker states, stored in an atomic per endpoint so the
/// decorator stays `Sync`.
const BREAKER_CLOSED: u64 = 0;
const BREAKER_OPEN: u64 = 1;
const BREAKER_HALF_OPEN: u64 = 2;

/// Per-endpoint breaker cell: the state machine flattened into atomics.
struct BreakerCell {
    state: AtomicU64,
    consec_failures: AtomicU64,
    open_until: AtomicU64,
    probes_left: AtomicU64,
}

impl BreakerCell {
    fn new() -> Self {
        BreakerCell {
            state: AtomicU64::new(BREAKER_CLOSED),
            consec_failures: AtomicU64::new(0),
            open_until: AtomicU64::new(0),
            probes_left: AtomicU64::new(0),
        }
    }
}

/// What the breaker lets the current page fetch do.
enum BreakerMode {
    Closed,
    Open,
    HalfOpen,
}

/// SplitMix64 finalizer over the packed call coordinates — the same
/// avalanche construction as `labelcount_stats::replication_seed`, local
/// so the osn crate keeps its dependency surface.
fn fault_hash(seed: u64, kind: u64, node: u32, page: u64, attempt: u32, salt: u64) -> u64 {
    let mut z = seed
        ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ page.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93)
        ^ salt.wrapping_mul(0xA076_1D64_78BD_642F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform `f64` in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// What one attempt did.
enum Attempt {
    Ok,
    Transient,
    RateLimited,
}

/// A deterministic fault-injecting decorator over any [`OsnBackend`].
///
/// Data is always forwarded bit-identically from the inner backend; the
/// decorator only adds *cost* (attempts, retries, simulated latency). See
/// the [module docs](self) for the determinism argument.
///
/// ```
/// use labelcount_graph::{GraphBuilder, NodeId};
/// use labelcount_osn::{AdversarialOsn, CachedOsn, FaultConfig, GraphOsn, OsnApi, RetryPolicy};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1));
/// b.add_edge(NodeId(1), NodeId(2));
/// let g = b.build();
///
/// let hostile = AdversarialOsn::new(
///     GraphOsn::new(&g),
///     FaultConfig::hostile(7, 0.3),
///     RetryPolicy::default(),
/// );
/// let cache = CachedOsn::new(hostile);
/// let session = cache.session();
/// // The data is exactly what the clean backend would return …
/// assert_eq!(session.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// // … but the fetch may have cost retries, charged to the session.
/// let stats = cache.backend().fault_stats();
/// assert_eq!(stats.retries, session.retry_charges());
/// ```
pub struct AdversarialOsn<B> {
    inner: B,
    cfg: FaultConfig,
    policy: RetryPolicy,
    resilience: ResilienceConfig,
    attempts: AtomicU64,
    retries: AtomicU64,
    rate_limited: AtomicU64,
    transient_errors: AtomicU64,
    extra_pages: AtomicU64,
    retries_exhausted: AtomicU64,
    latency_ticks: AtomicU64,
    /// Offset added to the accumulated latency when reading the virtual
    /// clock — a scheduler driving this stack in slices aligns the burst
    /// process with its own loop clock via [`AdversarialOsn::set_clock_base`].
    clock_base: AtomicU64,
    /// Remaining session retry budget (`u64::MAX` when unlimited).
    retry_budget: AtomicU64,
    bursts: AtomicU64,
    breaker_opens: AtomicU64,
    breaker_fast_fails: AtomicU64,
    /// Start window of the last counted burst per endpoint, for
    /// deduplicated burst counting (`u64::MAX` = none yet).
    last_burst: [AtomicU64; 2],
    breakers: [BreakerCell; 2],
}

impl<B: OsnBackend> AdversarialOsn<B> {
    /// Decorates `inner` with the fault model `cfg` retried under
    /// `policy`, with every reactive resilience knob off.
    pub fn new(inner: B, cfg: FaultConfig, policy: RetryPolicy) -> Self {
        Self::with_resilience(inner, cfg, policy, ResilienceConfig::default())
    }

    /// Decorates `inner` with the fault model `cfg` retried under
    /// `policy`, reacting per `resilience`. With the default (all-off)
    /// resilience config this is exactly [`AdversarialOsn::new`].
    pub fn with_resilience(
        inner: B,
        cfg: FaultConfig,
        policy: RetryPolicy,
        resilience: ResilienceConfig,
    ) -> Self {
        assert!(policy.max_attempts >= 1, "retry policy needs >= 1 attempt");
        for kind in [KIND_NEIGHBORS, KIND_LABELS] {
            let (t, r) = cfg.rates_for(kind);
            assert!(
                t + r < 1.0 && t >= 0.0 && r >= 0.0,
                "per-attempt fault probability must stay in [0, 1) for every endpoint"
            );
        }
        if let Some(b) = cfg.burst {
            assert!(b.window_ticks >= 1, "burst windows need >= 1 tick");
            assert!(
                (0.0..=1.0).contains(&b.start_rate),
                "burst start rate must be in [0, 1]"
            );
            assert!(
                b.mean_burst_windows >= 1.0,
                "mean burst length must be >= 1 window"
            );
            assert!(b.max_burst_windows >= 1, "burst cap must be >= 1 window");
            assert!(
                (0.0..=1.0).contains(&b.outage_fault_rate),
                "outage fault rate must be in [0, 1]"
            );
        }
        if let Some(bc) = resilience.breaker {
            assert!(bc.failure_threshold >= 1, "breaker threshold must be >= 1");
            assert!(bc.half_open_probes >= 1, "breaker needs >= 1 probe");
        }
        AdversarialOsn {
            inner,
            cfg,
            policy,
            resilience,
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            rate_limited: AtomicU64::new(0),
            transient_errors: AtomicU64::new(0),
            extra_pages: AtomicU64::new(0),
            retries_exhausted: AtomicU64::new(0),
            latency_ticks: AtomicU64::new(0),
            clock_base: AtomicU64::new(0),
            retry_budget: AtomicU64::new(resilience.retry_budget.unwrap_or(u64::MAX)),
            bursts: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_fast_fails: AtomicU64::new(0),
            last_burst: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            breakers: [BreakerCell::new(), BreakerCell::new()],
        }
    }

    /// Aligns the virtual clock this stack reads (burst windows, breaker
    /// open-until deadlines) with an external loop clock: subsequent
    /// fetches see `base + accumulated latency ticks`.
    pub fn set_clock_base(&self, base: u64) {
        self.clock_base.store(base, Ordering::Relaxed);
    }

    /// The resilience knobs in force.
    pub fn resilience_config(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The virtual tick clock the burst process and breaker deadlines
    /// read: the clock base plus all latency this stack has billed.
    fn clock(&self) -> u64 {
        self.clock_base
            .load(Ordering::Relaxed)
            .saturating_add(self.latency_ticks.load(Ordering::Relaxed))
    }

    /// The decorated backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Snapshot of the aggregate fault accounting.
    pub fn fault_stats(&self) -> FaultStats {
        FaultStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            rate_limited: self.rate_limited.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            extra_pages: self.extra_pages.load(Ordering::Relaxed),
            retries_exhausted: self.retries_exhausted.load(Ordering::Relaxed),
            latency_ticks: self.latency_ticks.load(Ordering::Relaxed),
            bursts: self.bursts.load(Ordering::Relaxed),
            breaker_opens: self.breaker_opens.load(Ordering::Relaxed),
            breaker_fast_fails: self.breaker_fast_fails.load(Ordering::Relaxed),
        }
    }

    /// Whether a burst starts in window `window` of endpoint `kind` — a
    /// pure hash of the coordinates.
    fn burst_starts(&self, b: &BurstConfig, kind: u64, window: u64) -> bool {
        unit(fault_hash(
            self.cfg.seed,
            kind,
            0,
            window,
            0,
            SALT_BURST_START,
        )) < b.start_rate
    }

    /// Length in windows of the burst starting at `window` (geometric
    /// around the mean, capped) — a pure hash of the coordinates.
    fn burst_len(&self, b: &BurstConfig, kind: u64, window: u64) -> u64 {
        let cap = b.max_burst_windows as u64;
        if b.mean_burst_windows <= 1.0 {
            return 1;
        }
        let q = 1.0 - 1.0 / b.mean_burst_windows; // continue probability
        let u = unit(fault_hash(
            self.cfg.seed,
            kind,
            0,
            window,
            0,
            SALT_BURST_LEN,
        ));
        // Inverse-CDF geometric draw; `u < 1` keeps the logs finite.
        let len = 1 + ((1.0 - u).ln() / q.ln()).floor() as u64;
        len.min(cap)
    }

    /// If window `window` of endpoint `kind` is in outage, the start
    /// window of the (most recent) covering burst. Bounded lookback of
    /// `max_burst_windows` windows keeps this O(cap) with no chain state.
    fn burst_covering(&self, b: &BurstConfig, kind: u64, window: u64) -> Option<u64> {
        let cap = b.max_burst_windows as u64;
        let lo = window.saturating_sub(cap.saturating_sub(1));
        (lo..=window).rev().find(|&s| {
            self.burst_starts(b, kind, s) && s.saturating_add(self.burst_len(b, kind, s)) > window
        })
    }

    /// The outage state of endpoint `kind` at the current virtual clock:
    /// `(config, current window, covering burst's start window)` when
    /// down. Also counts newly observed bursts (deduplicated per start
    /// window).
    fn outage_state(&self, kind: u64) -> Option<(BurstConfig, u64, u64)> {
        let b = self.cfg.burst?;
        let window = self.clock() / b.window_ticks;
        let start = self.burst_covering(&b, kind, window)?;
        if self.last_burst[kind_index(kind)].swap(start, Ordering::Relaxed) != start {
            self.bursts.fetch_add(1, Ordering::Relaxed);
        }
        Some((b, window, start))
    }

    /// Spends one token of the session retry budget; `false` means the
    /// budget is dry and the fetch must stop retrying.
    fn take_retry_token(&self) -> bool {
        if self.resilience.retry_budget.is_none() {
            return true;
        }
        self.retry_budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Reads (and, on open-window expiry, advances) the breaker state of
    /// endpoint `kidx`.
    fn breaker_mode(&self, kidx: usize, bc: &BreakerConfig) -> BreakerMode {
        let cell = &self.breakers[kidx];
        match cell.state.load(Ordering::Relaxed) {
            BREAKER_OPEN => {
                if self.clock() >= cell.open_until.load(Ordering::Relaxed) {
                    cell.state.store(BREAKER_HALF_OPEN, Ordering::Relaxed);
                    cell.probes_left
                        .store(bc.half_open_probes as u64, Ordering::Relaxed);
                    BreakerMode::HalfOpen
                } else {
                    BreakerMode::Open
                }
            }
            BREAKER_HALF_OPEN => BreakerMode::HalfOpen,
            _ => BreakerMode::Closed,
        }
    }

    /// Feeds one finished page fetch (`failed` = its retries were
    /// exhausted) back into the breaker of endpoint `kidx`.
    fn record_breaker_result(&self, kidx: usize, bc: &BreakerConfig, failed: bool) {
        let cell = &self.breakers[kidx];
        let state = cell.state.load(Ordering::Relaxed);
        if failed {
            let trip = match state {
                BREAKER_HALF_OPEN => true, // a failed probe re-opens immediately
                BREAKER_CLOSED => {
                    cell.consec_failures.fetch_add(1, Ordering::Relaxed) + 1
                        >= bc.failure_threshold as u64
                }
                _ => false,
            };
            if trip {
                cell.state.store(BREAKER_OPEN, Ordering::Relaxed);
                cell.consec_failures.store(0, Ordering::Relaxed);
                cell.open_until.store(
                    self.clock().saturating_add(bc.open_ticks),
                    Ordering::Relaxed,
                );
                self.breaker_opens.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            match state {
                BREAKER_HALF_OPEN => {
                    let left = cell.probes_left.load(Ordering::Relaxed);
                    if left <= 1 {
                        cell.state.store(BREAKER_CLOSED, Ordering::Relaxed);
                        cell.consec_failures.store(0, Ordering::Relaxed);
                    } else {
                        cell.probes_left.store(left - 1, Ordering::Relaxed);
                    }
                }
                _ => cell.consec_failures.store(0, Ordering::Relaxed),
            }
        }
    }

    /// The outcome of attempt `attempt` of page `page` of `(kind, node)`,
    /// under outage state `outage` — a pure function of the coordinates
    /// and the burst window.
    fn attempt_outcome(
        &self,
        kind: u64,
        node: u32,
        page: u64,
        attempt: u32,
        outage: Option<&(BurstConfig, u64, u64)>,
    ) -> Attempt {
        if let Some((b, window, _)) = outage {
            // The outage dominates: its failure draw is keyed on the
            // window too, so the pattern shifts with the burst, not the
            // call site.
            let down = b.outage_fault_rate >= 1.0 || {
                let salt = SALT_OUTAGE ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                unit(fault_hash(self.cfg.seed, kind, node, page, attempt, salt))
                    < b.outage_fault_rate
            };
            if down {
                return Attempt::Transient;
            }
        }
        let (transient, rate_limit) = self.cfg.rates_for(kind);
        let rate = transient + rate_limit;
        if rate <= 0.0 {
            return Attempt::Ok;
        }
        let x = unit(fault_hash(
            self.cfg.seed,
            kind,
            node,
            page,
            attempt,
            SALT_OUTCOME,
        ));
        if x < transient {
            Attempt::Transient
        } else if x < rate {
            Attempt::RateLimited
        } else {
            Attempt::Ok
        }
    }

    /// Seeded per-attempt latency: base plus jitter in
    /// `[0, latency_jitter_ticks]`.
    fn attempt_latency(&self, kind: u64, node: u32, page: u64, attempt: u32) -> u64 {
        let bound = self.cfg.latency_jitter_ticks;
        let jitter = if bound == 0 {
            0
        } else {
            let h = fault_hash(self.cfg.seed, kind, node, page, attempt, SALT_LATENCY);
            // `bound + 1` a power of two (every preset's jitter is 3), or
            // 2^64: the modulus is a mask, and no division is needed.
            if bound & bound.wrapping_add(1) == 0 {
                h & bound
            } else {
                h % (bound + 1)
            }
        };
        self.cfg.base_latency_ticks.saturating_add(jitter)
    }

    /// Seeded backoff jitter in `[0, delay/2]` after failed `attempt`.
    fn backoff_jitter(&self, kind: u64, node: u32, page: u64, attempt: u32, delay: u64) -> u64 {
        if delay == 0 {
            0
        } else {
            fault_hash(self.cfg.seed, kind, node, page, attempt, SALT_BACKOFF) % (delay / 2 + 1)
        }
    }

    /// Simulates fetching one page: retries under the policy until an
    /// attempt succeeds (the last allowed attempt is forced to succeed).
    /// Returns `(attempts consumed, latency ticks spent)`; both also
    /// accumulate into the shared stats alongside the fault counters.
    fn simulate_page(&self, kind: u64, node: u32, page: u64) -> (u64, u64) {
        let outage = self.outage_state(kind);

        // The hot path of a clean endpoint: one branch, two adds. Only
        // valid when neither the burst process nor the breaker can
        // interfere.
        if self.cfg.fault_rate_for(kind) <= 0.0
            && outage.is_none()
            && self.resilience.breaker.is_none()
        {
            self.attempts.fetch_add(1, Ordering::Relaxed);
            let lat = self.attempt_latency(kind, node, page, 0);
            if lat > 0 {
                self.latency_ticks.fetch_add(lat, Ordering::Relaxed);
            }
            return (1, lat);
        }

        let kidx = kind_index(kind);
        if let Some(bc) = &self.resilience.breaker {
            if let BreakerMode::Open = self.breaker_mode(kidx, bc) {
                // Fail fast under an open breaker: one forced attempt, no
                // fault draws, no retry loop — retry storms cannot feed
                // an outage the breaker already diagnosed.
                self.breaker_fast_fails.fetch_add(1, Ordering::Relaxed);
                self.attempts.fetch_add(1, Ordering::Relaxed);
                let lat = self.attempt_latency(kind, node, page, 0);
                if lat > 0 {
                    self.latency_ticks.fetch_add(lat, Ordering::Relaxed);
                }
                return (1, lat);
            }
        }

        let mut attempts = 0u64;
        let mut latency = 0u64;
        let mut exhausted = false;
        let last = self.policy.max_attempts - 1;
        for attempt in 0..self.policy.max_attempts {
            attempts += 1;
            latency = latency.saturating_add(self.attempt_latency(kind, node, page, attempt));
            let outcome = self.attempt_outcome(kind, node, page, attempt, outage.as_ref());
            let forced = attempt == last;
            match outcome {
                Attempt::Ok => break,
                Attempt::Transient => {
                    self.transient_errors.fetch_add(1, Ordering::Relaxed);
                    if forced || !self.take_retry_token() {
                        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        exhausted = true;
                        break;
                    }
                    let delay = self.policy.backoff_ticks(attempt);
                    latency = latency
                        .saturating_add(delay)
                        .saturating_add(self.backoff_jitter(kind, node, page, attempt, delay));
                }
                Attempt::RateLimited => {
                    self.rate_limited.fetch_add(1, Ordering::Relaxed);
                    if forced || !self.take_retry_token() {
                        self.retries_exhausted.fetch_add(1, Ordering::Relaxed);
                        exhausted = true;
                        break;
                    }
                    let delay = self.policy.backoff_ticks(attempt);
                    let wait = delay
                        .saturating_add(self.backoff_jitter(kind, node, page, attempt, delay))
                        .max(self.cfg.retry_after_ticks);
                    latency = latency.saturating_add(wait);
                }
            }
        }
        self.attempts.fetch_add(attempts, Ordering::Relaxed);
        if attempts > 1 {
            self.retries.fetch_add(attempts - 1, Ordering::Relaxed);
        }
        if latency > 0 {
            self.latency_ticks.fetch_add(latency, Ordering::Relaxed);
        }
        if let Some(bc) = &self.resilience.breaker {
            // Recorded after the latency lands, so an open window starts
            // at the clock the caller observes after this fetch.
            self.record_breaker_result(kidx, bc, exhausted);
        }
        (attempts, latency)
    }

    /// Bills one fetch of `u`'s friend list of `len` entries: simulates
    /// every page of the (possibly paginated) fetch under the fault model
    /// and returns its realized cost. The fault counters and the virtual
    /// clock advance as for [`OsnBackend::fetch_neighbors_cost`], which is
    /// the inner backend's fetch followed by this call; a cache that reads
    /// the data from the inner backend itself bills through here.
    pub fn bill_neighbors(&self, u: NodeId, len: usize) -> FetchCost {
        let pages = match self.cfg.page_size {
            // An empty list still costs one (empty) page.
            Some(p) if p > 0 => len.div_ceil(p).max(1) as u64,
            _ => 1,
        };
        if pages > 1 {
            self.extra_pages.fetch_add(pages - 1, Ordering::Relaxed);
        }
        let mut cost = FetchCost::default();
        for page in 0..pages {
            let (attempts, ticks) = self.simulate_page(KIND_NEIGHBORS, u.0, page);
            cost.attempts += attempts;
            cost.ticks = cost.ticks.saturating_add(ticks);
        }
        cost
    }

    /// Bills one fetch of `u`'s profile labels (see
    /// [`AdversarialOsn::bill_neighbors`]). Profiles are one document:
    /// never paginated.
    pub fn bill_labels(&self, u: NodeId) -> FetchCost {
        let (attempts, ticks) = self.simulate_page(KIND_LABELS, u.0, 0);
        FetchCost { attempts, ticks }
    }
}

impl<B: OsnBackend> OsnBackend for AdversarialOsn<B> {
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
        self.fetch_neighbors_attempts(u).0
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        self.fetch_labels_attempts(u).0
    }

    fn fetch_neighbors_attempts(&self, u: NodeId) -> (SliceRef<'_, NodeId>, u64) {
        let (data, cost) = self.fetch_neighbors_cost(u);
        (data, cost.attempts)
    }

    fn fetch_labels_attempts(&self, u: NodeId) -> (SliceRef<'_, LabelId>, u64) {
        let (data, cost) = self.fetch_labels_cost(u);
        (data, cost.attempts)
    }

    fn fetch_neighbors_cost(&self, u: NodeId) -> (SliceRef<'_, NodeId>, FetchCost) {
        let data = self.inner.fetch_neighbors(u);
        let cost = self.bill_neighbors(u, data.len());
        (data, cost)
    }

    fn fetch_labels_cost(&self, u: NodeId) -> (SliceRef<'_, LabelId>, FetchCost) {
        let data = self.inner.fetch_labels(u);
        let cost = self.bill_labels(u);
        (data, cost)
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        // Faults delay and charge; they never change what generation of
        // the data the inner backend serves.
        self.inner.epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.inner.label_epoch_of(u)
    }

    fn endpoint_degraded(&self, kind: EndpointKind) -> bool {
        if self.resilience.breaker.is_none() {
            return false;
        }
        let kidx = match kind {
            EndpointKind::Neighbors => 0,
            EndpointKind::Labels => 1,
        };
        let cell = &self.breakers[kidx];
        cell.state.load(Ordering::Relaxed) == BREAKER_OPEN
            && self.clock() < cell.open_until.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cached::{CachedOsn, GraphOsn};
    use crate::OsnApi;
    use labelcount_graph::{GraphBuilder, LabeledGraph};

    fn star(n: u32) -> LabeledGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 1..n {
            b.add_edge(NodeId(0), NodeId(i));
        }
        b.set_labels(NodeId(0), &[LabelId(1)]);
        b.build()
    }

    fn assert_sync<T: Sync>(_: &T) {}

    #[test]
    fn adversarial_over_sync_backend_is_sync() {
        let g = star(4);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(1, 0.2),
            RetryPolicy::default(),
        );
        assert_sync(&adv);
    }

    #[test]
    fn clean_config_is_a_pass_through() {
        let g = star(5);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::clean(9),
            RetryPolicy::default(),
        );
        let (data, attempts) = adv.fetch_neighbors_attempts(NodeId(0));
        assert_eq!(&*data, g.neighbors(NodeId(0)));
        assert_eq!(attempts, 1);
        let (labels, attempts) = adv.fetch_labels_attempts(NodeId(0));
        assert_eq!(&*labels, g.labels(NodeId(0)));
        assert_eq!(attempts, 1);
        let s = adv.fault_stats();
        assert_eq!(s.attempts, 2);
        assert_eq!(s.retries, 0);
        assert_eq!(s.latency_ticks, 0);
        assert_eq!(s.retries_exhausted, 0);
    }

    #[test]
    fn faults_charge_retries_but_never_corrupt_data() {
        let g = star(8);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(3, 0.6),
            RetryPolicy::default(),
        );
        let mut total = 0;
        for u in 0..8u32 {
            let (data, attempts) = adv.fetch_neighbors_attempts(NodeId(u));
            assert_eq!(&*data, g.neighbors(NodeId(u)), "node {u}");
            assert!(attempts >= 1);
            total += attempts;
        }
        let s = adv.fault_stats();
        assert_eq!(s.attempts, total);
        assert_eq!(s.retries, s.attempts - 8); // 8 fetches, 1 page each
        assert!(s.retries > 0, "rate 0.6 over 8 fetches must retry: {s:?}");
        assert!(s.latency_ticks > 0);
        assert_eq!(
            s.rate_limited + s.transient_errors,
            s.retries + s.retries_exhausted
        );
    }

    #[test]
    fn fault_pattern_is_deterministic_per_seed() {
        let g = star(16);
        let run = |seed: u64| {
            let adv = AdversarialOsn::new(
                GraphOsn::new(&g),
                FaultConfig::hostile(seed, 0.4),
                RetryPolicy::default(),
            );
            // Fetch in two different orders: per-node attempts must match.
            let fwd: Vec<u64> = (0..16u32)
                .map(|u| adv.fetch_neighbors_attempts(NodeId(u)).1)
                .collect();
            (fwd, adv.fault_stats())
        };
        let (a, sa) = run(5);
        let (b, sb) = run(5);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        let (c, _) = run(6);
        assert_ne!(a, c, "different fault seeds must change the pattern");
    }

    #[test]
    fn fault_order_independence() {
        let g = star(16);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(11, 0.4),
            RetryPolicy::default(),
        );
        let fwd: Vec<u64> = (0..16u32)
            .map(|u| adv.fetch_neighbors_attempts(NodeId(u)).1)
            .collect();
        let rev: Vec<u64> = (0..16u32)
            .rev()
            .map(|u| adv.fetch_neighbors_attempts(NodeId(u)).1)
            .collect();
        let rev_fwd: Vec<u64> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd, "fault cost must not depend on fetch order");
    }

    #[test]
    fn pagination_charges_per_page() {
        let g = star(401); // hub degree 400
        let cfg = FaultConfig {
            page_size: Some(100),
            ..FaultConfig::clean(1)
        };
        let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
        let (_, attempts) = adv.fetch_neighbors_attempts(NodeId(0)); // 400 friends
        assert_eq!(attempts, 4);
        let (_, attempts) = adv.fetch_neighbors_attempts(NodeId(1)); // 1 friend
        assert_eq!(attempts, 1);
        assert_eq!(adv.fault_stats().extra_pages, 3);
        // Labels are never paginated.
        let (_, attempts) = adv.fetch_labels_attempts(NodeId(0));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn retries_are_bounded_by_the_policy() {
        let g = star(64);
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(2, 0.9), // pathological API
            policy,
        );
        for u in 0..64u32 {
            let (_, attempts) = adv.fetch_neighbors_attempts(NodeId(u));
            assert!(attempts <= 3, "node {u} took {attempts} attempts");
        }
        // At 90% fault rate over 64 fetches capped at 3 attempts, some
        // final attempts must have been forced.
        assert!(adv.fault_stats().retries_exhausted > 0);
    }

    #[test]
    fn backoff_is_bounded_and_monotone() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay_ticks: 2,
            max_delay_ticks: 64,
        };
        assert_eq!(p.backoff_ticks(0), 2);
        assert_eq!(p.backoff_ticks(1), 4);
        assert_eq!(p.backoff_ticks(5), 64);
        assert_eq!(p.backoff_ticks(63), 64); // saturates, no overflow
        assert_eq!(p.backoff_ticks(200), 64);
    }

    #[test]
    fn composes_under_cached_osn_with_retry_charges() {
        let g = star(32);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(4, 0.5),
            RetryPolicy::default(),
        );
        let cache = CachedOsn::new(adv);
        let s = cache.session();
        s.set_budget(1_000);
        for u in 0..32u32 {
            s.neighbors(NodeId(u));
        }
        // Hits are fault-free: re-reading adds logical calls, no attempts.
        let attempts_after_cold = cache.backend().fault_stats().attempts;
        for u in 0..32u32 {
            s.neighbors(NodeId(u));
        }
        assert_eq!(cache.backend().fault_stats().attempts, attempts_after_cold);
        assert_eq!(s.api_calls(), 64);
        assert_eq!(s.retry_charges(), cache.backend().fault_stats().retries);
        assert!(s.charged_calls() > s.api_calls(), "retries must be billed");
    }

    #[test]
    fn reference_backend_composes() {
        // &GraphOsn is itself a backend — the per-query stack the workload
        // service builds.
        let g = star(6);
        let shared = GraphOsn::new(&g);
        let adv = AdversarialOsn::new(
            &shared,
            FaultConfig::hostile(1, 0.2),
            RetryPolicy::default(),
        );
        let cache = CachedOsn::new(adv);
        let s = cache.session();
        assert_eq!(s.neighbors(NodeId(2)), &[NodeId(0)]);
        assert_eq!(s.num_nodes(), 6);
    }

    #[test]
    fn per_fetch_cost_sums_to_aggregate_stats() {
        let g = star(32);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(9, 0.4),
            RetryPolicy::default(),
        );
        let mut attempts = 0u64;
        let mut ticks = 0u64;
        for u in 0..32u32 {
            let (_, c) = adv.fetch_neighbors_cost(NodeId(u));
            assert!(c.attempts >= 1);
            attempts += c.attempts;
            ticks += c.ticks;
            let (_, c) = adv.fetch_labels_cost(NodeId(u));
            attempts += c.attempts;
            ticks += c.ticks;
        }
        let s = adv.fault_stats();
        assert_eq!(s.attempts, attempts, "per-fetch attempts must sum up");
        assert_eq!(s.latency_ticks, ticks, "per-fetch ticks must sum up");
        assert!(ticks > 0, "a hostile API must bill latency");
    }

    #[test]
    fn per_endpoint_rates_default_to_the_shared_rate() {
        let g = star(24);
        let base = FaultConfig::hostile(13, 0.5);
        // Explicitly pinning the label rates to the shared values must be
        // byte-for-byte the same fault pattern as the None default.
        let pinned = base.with_label_rates(base.transient_rate, base.rate_limit_rate);
        let run = |cfg: FaultConfig| {
            let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
            let costs: Vec<(u64, u64, u64, u64)> = (0..24u32)
                .map(|u| {
                    let (_, n) = adv.fetch_neighbors_cost(NodeId(u));
                    let (_, l) = adv.fetch_labels_cost(NodeId(u));
                    (n.attempts, n.ticks, l.attempts, l.ticks)
                })
                .collect();
            (costs, adv.fault_stats())
        };
        let (a, sa) = run(base);
        let (b, sb) = run(pinned);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn label_rate_override_leaves_neighbor_costs_untouched() {
        let g = star(24);
        let base = FaultConfig::hostile(17, 0.4);
        let split = base.with_label_rates(0.0, 0.0); // clean profiles only
        let neighbor_costs = |cfg: FaultConfig| -> Vec<u64> {
            let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
            (0..24u32)
                .map(|u| adv.fetch_neighbors_cost(NodeId(u)).1.attempts)
                .collect()
        };
        assert_eq!(neighbor_costs(base), neighbor_costs(split));
        // And the clean-profile endpoint really is clean: one attempt each.
        let adv = AdversarialOsn::new(GraphOsn::new(&g), split, RetryPolicy::default());
        for u in 0..24u32 {
            assert_eq!(adv.fetch_labels_cost(NodeId(u)).1.attempts, 1);
        }
    }

    #[test]
    #[should_panic(expected = "every endpoint")]
    fn label_rate_override_is_validated() {
        let g = star(3);
        let cfg = FaultConfig::clean(1).with_label_rates(0.7, 0.5); // sums past 1
        let _ = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
    }

    #[test]
    fn epoch_passes_through_the_fault_layer() {
        let g = star(4);
        let adv = AdversarialOsn::new(
            GraphOsn::new(&g),
            FaultConfig::hostile(5, 0.3),
            RetryPolicy::default(),
        );
        assert_eq!(adv.epoch_of(NodeId(2)), Epoch::STATIC);
    }

    #[test]
    fn unit_interval_is_well_formed() {
        for h in [0u64, 1, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let x = unit(h);
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    /// A burst config that keeps the stack inside window 0 forever, with
    /// window 0 in hard outage: every attempt fails until the policy (or
    /// breaker) steps in.
    fn permanent_outage() -> BurstConfig {
        BurstConfig {
            window_ticks: 1 << 40,
            start_rate: 1.0,
            mean_burst_windows: 1.0,
            max_burst_windows: 1,
            outage_fault_rate: 1.0,
        }
    }

    #[test]
    fn default_resilience_with_no_burst_matches_new() {
        let g = star(16);
        let run = |resilient: bool| {
            let cfg = FaultConfig::hostile(21, 0.4);
            let adv = if resilient {
                AdversarialOsn::with_resilience(
                    GraphOsn::new(&g),
                    cfg,
                    RetryPolicy::default(),
                    ResilienceConfig::default(),
                )
            } else {
                AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default())
            };
            let costs: Vec<(u64, u64)> = (0..16u32)
                .map(|u| {
                    let (_, c) = adv.fetch_neighbors_cost(NodeId(u));
                    (c.attempts, c.ticks)
                })
                .collect();
            (costs, adv.fault_stats())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn hard_outage_fails_every_attempt_and_counts_one_burst() {
        let g = star(8);
        let cfg = FaultConfig {
            burst: Some(permanent_outage()),
            ..FaultConfig::clean(3)
        };
        let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
        for u in 0..8u32 {
            let (_, c) = adv.fetch_neighbors_cost(NodeId(u));
            assert_eq!(c.attempts, 6, "hard outage must exhaust the policy");
        }
        let s = adv.fault_stats();
        assert_eq!(s.retries_exhausted, 8);
        assert_eq!(s.bursts, 1, "one covering burst, counted once");
        assert_eq!(s.transient_errors, s.retries + s.retries_exhausted);
    }

    #[test]
    fn burst_pattern_is_deterministic_and_seed_sensitive() {
        let g = star(32);
        let run = |seed: u64| {
            let cfg = FaultConfig::hostile(seed, 0.2).with_burst(BurstConfig::short());
            let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
            let costs: Vec<u64> = (0..32u32)
                .map(|u| adv.fetch_neighbors_cost(NodeId(u)).1.ticks)
                .collect();
            (costs, adv.fault_stats())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn breaker_trips_fast_fails_and_reopens_on_failed_probe() {
        let g = star(16);
        let cfg = FaultConfig {
            burst: Some(permanent_outage()),
            ..FaultConfig::clean(5)
        };
        let resilience = ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                open_ticks: 1 << 30,
                half_open_probes: 1,
            }),
            ..ResilienceConfig::default()
        };
        let adv = AdversarialOsn::with_resilience(
            GraphOsn::new(&g),
            cfg,
            RetryPolicy::default(),
            resilience,
        );
        assert!(!adv.endpoint_degraded(EndpointKind::Neighbors));
        // Two exhausted fetches trip the breaker …
        assert_eq!(adv.fetch_neighbors_cost(NodeId(1)).1.attempts, 6);
        assert_eq!(adv.fetch_neighbors_cost(NodeId(2)).1.attempts, 6);
        assert!(adv.endpoint_degraded(EndpointKind::Neighbors));
        assert!(!adv.endpoint_degraded(EndpointKind::Labels));
        assert_eq!(adv.fault_stats().breaker_opens, 1);
        // … after which fetches fail fast: one attempt, no retry loop.
        assert_eq!(adv.fetch_neighbors_cost(NodeId(3)).1.attempts, 1);
        assert_eq!(adv.fault_stats().breaker_fast_fails, 1);
        // Clock past the open window: the half-open probe runs a real
        // fetch, still fails (hard outage), and re-opens the breaker.
        adv.set_clock_base(1 << 31);
        assert_eq!(adv.fetch_neighbors_cost(NodeId(4)).1.attempts, 6);
        assert_eq!(adv.fault_stats().breaker_opens, 2);
    }

    #[test]
    fn breaker_closes_again_after_successful_probes() {
        let g = star(8);
        // Zero-latency stack (no backoff, no attempt latency): the clock
        // is exactly the clock base, so the test can place fetches in
        // chosen burst windows.
        let cfg = FaultConfig {
            burst: Some(BurstConfig {
                window_ticks: 64,
                start_rate: 0.5,
                mean_burst_windows: 1.0,
                max_burst_windows: 1,
                outage_fault_rate: 1.0,
            }),
            ..FaultConfig::clean(9)
        };
        let flat = RetryPolicy {
            max_attempts: 6,
            base_delay_ticks: 0,
            max_delay_ticks: 0,
        };
        // Map the seeded outage pattern with a breaker-less scout.
        let scout = AdversarialOsn::new(GraphOsn::new(&g), cfg, flat);
        let is_down = |w: u64| {
            let before = scout.fault_stats().retries_exhausted;
            scout.set_clock_base(w * 64);
            scout.fetch_neighbors_cost(NodeId(1));
            scout.fault_stats().retries_exhausted > before
        };
        let down = (0..64).find(|&w| is_down(w)).expect("some window is down");
        let clean = (down + 4..down + 64)
            .find(|&w| !is_down(w))
            .expect("some later window is clean");

        let resilience = ResilienceConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                open_ticks: 100,
                half_open_probes: 2,
            }),
            ..ResilienceConfig::default()
        };
        let adv = AdversarialOsn::with_resilience(GraphOsn::new(&g), cfg, flat, resilience);
        adv.set_clock_base(down * 64);
        adv.fetch_neighbors_cost(NodeId(1)); // exhausts → trips
        assert_eq!(adv.fault_stats().breaker_opens, 1);
        assert!(adv.endpoint_degraded(EndpointKind::Neighbors));
        // A clean window past the open deadline: two successful probes
        // close the breaker; later fetches run normally.
        adv.set_clock_base(clean * 64);
        assert!(!adv.endpoint_degraded(EndpointKind::Neighbors));
        for _ in 0..3 {
            assert_eq!(adv.fetch_neighbors_cost(NodeId(2)).1.attempts, 1);
        }
        let s = adv.fault_stats();
        assert_eq!(s.breaker_opens, 1, "clean probes must not re-open");
        assert_eq!(s.breaker_fast_fails, 0, "no fetch ran against open state");
    }

    #[test]
    fn retry_budget_caps_total_retries() {
        let g = star(64);
        let resilience = ResilienceConfig {
            retry_budget: Some(5),
            ..ResilienceConfig::default()
        };
        let adv = AdversarialOsn::with_resilience(
            GraphOsn::new(&g),
            FaultConfig::hostile(2, 0.9),
            RetryPolicy::default(),
            resilience,
        );
        for u in 0..64u32 {
            adv.fetch_neighbors_cost(NodeId(u));
        }
        let s = adv.fault_stats();
        assert!(s.retries <= 5, "budget of 5 but {} retries", s.retries);
        assert!(
            s.retries_exhausted > 0,
            "a dry budget must cut fetches short"
        );
        // The accounting identity survives budget cuts.
        assert_eq!(
            s.rate_limited + s.transient_errors,
            s.retries + s.retries_exhausted
        );
    }

    #[test]
    fn extreme_delay_knobs_saturate_instead_of_overflowing() {
        // Regression: `delay + jitter` and the latency accumulator used
        // to overflow u64 when the policy ceiling sits near u64::MAX.
        let g = star(4);
        let cfg = FaultConfig {
            transient_rate: 0.9,
            retry_after_ticks: u64::MAX,
            base_latency_ticks: u64::MAX,
            latency_jitter_ticks: u64::MAX,
            ..FaultConfig::clean(1)
        };
        let policy = RetryPolicy {
            max_attempts: 6,
            base_delay_ticks: u64::MAX,
            max_delay_ticks: u64::MAX,
        };
        let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, policy);
        let (_, cost) = adv.fetch_neighbors_cost(NodeId(0));
        assert_eq!(cost.ticks, u64::MAX, "latency must saturate, not wrap");
        assert!(cost.attempts >= 1);
    }

    #[test]
    fn latency_jitter_is_the_hash_modulo_bound_plus_one() {
        let g = star(4);
        for bound in [1, 2, 3, 4, 5, 7, 8, 1000, 1023, u64::MAX - 1, u64::MAX] {
            let cfg = FaultConfig {
                latency_jitter_ticks: bound,
                ..FaultConfig::clean(9)
            };
            let adv = AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default());
            for (node, attempt) in (0..4).flat_map(|n| (0..3).map(move |a| (n, a))) {
                let h = fault_hash(9, KIND_LABELS, node, 2, attempt, SALT_LATENCY);
                let want = bound.checked_add(1).map_or(h, |m| h % m);
                let got = adv.attempt_latency(KIND_LABELS, node, 2, attempt);
                assert_eq!(got, want, "bound {bound}, node {node}, attempt {attempt}");
            }
        }
    }

    #[test]
    fn burst_config_is_validated() {
        let g = star(3);
        let cfg = FaultConfig {
            burst: Some(BurstConfig {
                window_ticks: 0,
                ..BurstConfig::short()
            }),
            ..FaultConfig::clean(1)
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            AdversarialOsn::new(GraphOsn::new(&g), cfg, RetryPolicy::default())
        }));
        assert!(r.is_err(), "zero-tick burst windows must be rejected");
    }
}
