//! The sharded multi-graph service: registration, routing, admission, and
//! deterministic multi-tenant workload execution.
//!
//! [`ShardedService`] is the long-lived process model: many registered
//! graphs, each owned by exactly one shard (consistent hashing over the
//! [`GraphKey`]), one [`Engine`] — and therefore one shared L2 cache —
//! per graph inside its owning shard. Shards share nothing at run time:
//! a graph's loop touches only its own engine, whichever worker runs it.
//!
//! [`ServiceWorkload`] is the multi-tenant request stream. Running it
//! ([`ShardedService::run_scheduled`], the service's one executor) has
//! three phases:
//!
//! 1. **admission** — serial, in `(arrival tick, id)` order, against one
//!    modelled queue per registered graph plus per-tenant quotas and rate
//!    limits ([`crate::admission`]);
//! 2. **execution** — admitted requests become per-graph task lists; each
//!    graph runs one serial virtual-time loop ([`crate::scheduler`]) over
//!    its engine's backend. The loops run on one
//!    [`replicate`](fn@labelcount_stats::replicate) pool of up to
//!    `workers` workers per shard (no more than the shard's loops), the
//!    calling thread among them; any worker takes any shard's waiting
//!    loop, and a call that touches one graph spawns no thread;
//! 3. **report** — outcomes re-assembled in request-id order, with
//!    **anytime answers** for shed / quota-rejected requests taken from
//!    their graph's deterministic summary.

use labelcount_core::{Engine, QueryOutcome, QuerySpec, RunConfig, Schedule};
use labelcount_graph::{LabeledGraph, TargetLabel};
use labelcount_osn::{
    CacheConfig, ChurnOsn, FaultConfig, PagedGraphOsn, ResilienceConfig, RetryPolicy,
};
use labelcount_stats::{replication_seed, RunningStats};

use crate::admission::{unit_hash, AdmissionConfig, QuotaPolicy, RateLimitPolicy};
use crate::router::{GraphKey, ShardRouter, TenantId};
use crate::scheduler::{SchedulePolicy, SchedulingCounters};

/// Stream ids for the service's internal seed derivations.
mod stream {
    pub const TENANT_COIN: u64 = 0x5e13;
    pub const TENANT_PICK: u64 = 0x5e14;
    pub const REQUEST_RNG: u64 = 0x5e15;
}

/// One request of a multi-tenant service workload: an embedded
/// [`QuerySpec`] — the *same* type the single-graph workload runner
/// consumes, scheduling fields included — plus the two routing coordinates
/// only the serving layer knows about (who asks, against which graph).
///
/// The request's id is its query's id ([`ServiceRequest::id`]); `From`
/// impls convert both ways: stripping a request to its query drops the
/// routing coordinates, and lifting a bare query makes a single-tenant
/// request against [`GraphKey`]`(0)`.
pub struct ServiceRequest {
    /// The tenant paying for the request (quota accounting, fairness).
    pub tenant: TenantId,
    /// The graph the query runs against.
    pub graph: GraphKey,
    /// The query itself: estimator, target, budgets, seed, and — for
    /// scheduled runs — its arrival tick, deadline, and priority.
    pub query: QuerySpec,
}

impl ServiceRequest {
    /// Globally unique request id (the embedded query's id); the report is
    /// assembled in id order.
    pub fn id(&self) -> u64 {
        self.query.id
    }
}

/// Lifts a bare query into a single-tenant request: tenant 0 against
/// [`GraphKey`]`(0)` — the convenience for services serving one graph to
/// one caller.
impl From<QuerySpec> for ServiceRequest {
    fn from(query: QuerySpec) -> ServiceRequest {
        ServiceRequest {
            tenant: TenantId(0),
            graph: GraphKey(0),
            query,
        }
    }
}

/// Strips a request to its query, dropping the routing coordinates.
impl From<ServiceRequest> for QuerySpec {
    fn from(req: ServiceRequest) -> QuerySpec {
        req.query
    }
}

/// A multi-tenant request stream plus the service-level knobs.
pub struct ServiceWorkload {
    /// The requests, in strictly increasing id order.
    pub requests: Vec<ServiceRequest>,
    /// Base seed: shed coins and per-graph fault seeds derive from it.
    pub seed: u64,
    /// Shared run parameters (burn-in, thinning).
    pub run_config: RunConfig,
    /// Fault model decorating every query's backend stack (seed re-derived
    /// per query slice).
    pub faults: FaultConfig,
    /// Retry policy for fault recovery.
    pub retry: RetryPolicy,
    /// Modelled submission-queue tuning.
    pub admission: AdmissionConfig,
    /// Per-tenant quotas on charged neighbor calls.
    pub quotas: QuotaPolicy,
    /// Per-tenant token-bucket rate limits shared by all concurrent
    /// queries of a tenant.
    pub rate_limits: RateLimitPolicy,
    /// Reactive resilience knobs (circuit breaker, retry budget, stale
    /// serving) decorating every admitted query's stack.
    pub resilience: ResilienceConfig,
    /// Scheduling policy of the run ([`ShardedService::run_scheduled`]);
    /// `None` until [`ServiceWorkloadBuilder::schedule`] stamps one. An
    /// unstamped workload runs as [`SchedulePolicy::batch`].
    pub scheduling: Option<SchedulePolicy>,
}

impl ServiceWorkload {
    /// A mixed multi-tenant stream: `n` requests cycling through the
    /// paper's Table-2 roster, spread round-robin over `graphs` and
    /// assigned to one of `tenants` tenants by a seeded skewed draw —
    /// with probability `tenant_skew` the request belongs to tenant 0
    /// (the heavy hitter), otherwise to a uniformly drawn tenant. Every
    /// request is hard-budgeted at `6 × (budget + burn-in)` charged calls,
    /// mirroring [`labelcount_core::Workload::mixed`].
    #[allow(clippy::too_many_arguments)] // mirrors Workload::mixed plus the tenancy axes
    pub fn mixed_multi_tenant(
        n: usize,
        graphs: &[GraphKey],
        tenants: usize,
        tenant_skew: f64,
        target: TargetLabel,
        budget: usize,
        seed: u64,
        run_config: RunConfig,
    ) -> ServiceWorkload {
        assert!(!graphs.is_empty(), "a service workload needs graphs");
        assert!(tenants >= 1, "a service workload needs tenants");
        assert!(
            (0.0..=1.0).contains(&tenant_skew),
            "tenant_skew must be in [0, 1]"
        );
        let hard_budget = 6 * (budget as u64 + run_config.burn_in as u64);
        let coin_seed = replication_seed(seed, stream::TENANT_COIN);
        let pick_seed = replication_seed(seed, stream::TENANT_PICK);
        let mut pool: std::collections::VecDeque<Box<dyn labelcount_core::Algorithm>> =
            std::collections::VecDeque::new();
        let mut requests = Vec::with_capacity(n);
        for id in 0..n as u64 {
            if pool.is_empty() {
                pool.extend(labelcount_core::algorithms::all_paper(0.2, 0.5));
            }
            let tenant = if unit_hash(coin_seed, id) < tenant_skew {
                TenantId(0)
            } else {
                TenantId((unit_hash(pick_seed, id) * tenants as f64) as u64)
            };
            requests.push(ServiceRequest {
                tenant,
                graph: graphs[id as usize % graphs.len()],
                query: QuerySpec {
                    id,
                    algorithm: pool.pop_front().expect("roster is non-empty"),
                    target,
                    budget,
                    hard_budget: Some(hard_budget),
                    seed: replication_seed(seed, stream::REQUEST_RNG + (id << 8)),
                    schedule: Schedule::default(),
                },
            });
        }
        ServiceWorkload {
            requests,
            seed,
            run_config,
            faults: FaultConfig::clean(seed),
            retry: RetryPolicy::default(),
            admission: AdmissionConfig::default(),
            quotas: QuotaPolicy::unmetered(),
            rate_limits: RateLimitPolicy::unlimited(),
            resilience: ResilienceConfig::default(),
            scheduling: None,
        }
    }

    /// Wraps this workload in a [`ServiceWorkloadBuilder`] to override the
    /// service-level knobs builder-style. Mirrors
    /// [`labelcount_core::WorkloadBuilder`]: every knob starts at the
    /// constructor's checked default; each setter replaces exactly one.
    pub fn builder(self) -> ServiceWorkloadBuilder {
        ServiceWorkloadBuilder { inner: self }
    }

    /// The virtual-time arrival order admission decides in: request
    /// indices sorted by `(arrival_tick, id)`. With unstamped schedules
    /// (all arrivals at tick 0) this degenerates to id order.
    pub fn scheduled_arrival_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.requests.len()).collect();
        order.sort_by_key(|&i| {
            let q = &self.requests[i].query;
            (q.schedule.arrival_tick, q.id)
        });
        order
    }
}

/// Builder over a fully-formed [`ServiceWorkload`] — the serving-layer
/// sibling of [`labelcount_core::WorkloadBuilder`]. Every knob starts at
/// the compile-time-checked default the constructor produced; each setter
/// replaces exactly one. Supersedes the deprecated `with_*` methods.
#[must_use = "builders do nothing until `.build()` is called"]
pub struct ServiceWorkloadBuilder {
    inner: ServiceWorkload,
}

impl ServiceWorkloadBuilder {
    /// Replaces the fault model and retry policy.
    pub fn faults(mut self, faults: FaultConfig, retry: RetryPolicy) -> ServiceWorkloadBuilder {
        self.inner.faults = faults;
        self.inner.retry = retry;
        self
    }

    /// Replaces the admission tuning.
    pub fn admission(mut self, admission: AdmissionConfig) -> ServiceWorkloadBuilder {
        self.inner.admission = admission;
        self
    }

    /// Replaces the quota policy.
    pub fn quotas(mut self, quotas: QuotaPolicy) -> ServiceWorkloadBuilder {
        self.inner.quotas = quotas;
        self
    }

    /// Replaces the per-tenant rate-limit policy.
    pub fn rate_limits(mut self, rate_limits: RateLimitPolicy) -> ServiceWorkloadBuilder {
        self.inner.rate_limits = rate_limits;
        self
    }

    /// Replaces the reactive resilience knobs (breaker, retry budget,
    /// stale serving).
    pub fn resilience(mut self, resilience: ResilienceConfig) -> ServiceWorkloadBuilder {
        self.inner.resilience = resilience;
        self
    }

    /// Stamps a deadline-aware schedule onto every request (seeded
    /// interarrival gaps, priorities, and deadlines — see
    /// [`SchedulePolicy::stamp`]) and stores the policy for
    /// [`ShardedService::run_scheduled`].
    pub fn schedule(mut self, policy: SchedulePolicy) -> ServiceWorkloadBuilder {
        policy.stamp(&mut self.inner);
        self.inner.scheduling = Some(policy);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ServiceWorkload {
        self.inner
    }
}

/// What the service did with one request.
#[derive(Clone, Debug)]
pub enum ServiceStatus {
    /// Admitted and executed; the full per-query outcome.
    Completed(QueryOutcome),
    /// Shed by the modelled queue. `anytime` is the deterministic anytime
    /// answer: the mean over the request's graph's completed estimates
    /// (`None` when that graph completed nothing).
    Shed {
        /// Modelled backlog of the graph's queue at arrival time.
        backlog: usize,
        /// Anytime answer from the graph's deterministic summary.
        anytime: Option<f64>,
    },
    /// Rejected because the tenant's quota cannot cover the request; the
    /// same anytime answer as for shed requests.
    QuotaExhausted {
        /// Anytime answer from the graph's deterministic summary.
        anytime: Option<f64>,
    },
    /// Rejected because the tenant's shared token bucket was empty at
    /// arrival (transient, unlike quota exhaustion); the same anytime
    /// answer as for shed requests.
    Throttled {
        /// Anytime answer from the graph's deterministic summary.
        anytime: Option<f64>,
    },
    /// Admitted to a scheduled run but cancelled when its deadline passed
    /// on the virtual clock; the service converts the cancellation into an
    /// **anytime answer** — the running estimate (± confidence) from the
    /// replicates that did finish, falling back to the graph's live
    /// partial estimate when none did.
    DeadlineAnytime {
        /// Replicate slices that ran to an outcome before cancellation.
        completed_replicates: u64,
        /// The anytime answer: mean over this query's completed replicate
        /// estimates, else the graph's partial estimate at cancellation
        /// time, else `None`.
        anytime: Option<f64>,
        /// Halfwidth of the 95% confidence interval around `anytime` when
        /// it came from this query's own replicates (0 otherwise).
        ci_halfwidth: f64,
        /// Virtual tick the deadline fired at.
        cancelled_at_tick: u64,
    },
    /// The request named a graph the service does not serve.
    UnknownGraph,
}

/// One request's routed, decided, and (possibly) executed record.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The request's id.
    pub id: u64,
    /// The tenant that issued it.
    pub tenant: TenantId,
    /// The graph it targeted.
    pub graph: GraphKey,
    /// The shard that owns (or would own) that graph.
    pub shard: usize,
    /// What happened.
    pub status: ServiceStatus,
}

/// Deterministic serving counters, aggregated over one service run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServingCounters {
    /// Shards the service was configured with (config echo — the one
    /// field that legitimately varies across shard counts).
    pub shards: u64,
    /// Requests submitted (including unknown-graph rejects).
    pub submitted: u64,
    /// Requests admitted and executed.
    pub admitted: u64,
    /// Requests shed by the modelled queue.
    pub shed: u64,
    /// Requests rejected on tenant quota.
    pub quota_exhausted: u64,
    /// Requests rejected on an empty tenant token bucket.
    pub quota_throttled: u64,
    /// Per-tenant fairness: max admitted over min admitted (floored at 1)
    /// across tenants with at least one submission; `1.0` when no tenant
    /// submitted anything.
    pub tenant_fairness: f64,
}

/// The deterministic result of a service run: outcomes in request-id
/// order, a summary over completed estimates, and serving counters.
///
/// Bit-identical at any shard count and any worker count (the `shards`
/// config echo in [`ServingCounters`] aside).
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-request outcomes, in **request-id order**.
    pub outcomes: Vec<ServiceOutcome>,
    /// Summary over completed finite estimates, accumulated in id order.
    pub summary: RunningStats,
    /// Admission and fairness counters.
    pub serving: ServingCounters,
    /// Deadline-scheduler counters; every [`ShardedService::run_scheduled`]
    /// report carries them.
    pub scheduling: Option<SchedulingCounters>,
}

impl ServiceReport {
    /// Outcomes with a completed estimate.
    pub fn completed(&self) -> impl Iterator<Item = (&ServiceOutcome, &QueryOutcome)> {
        self.outcomes.iter().filter_map(|o| match &o.status {
            ServiceStatus::Completed(q) => Some((o, q)),
            _ => None,
        })
    }

    /// Total charged neighbor calls (logical + retry charges) per tenant,
    /// in ascending tenant order — the bill the quota machinery metered.
    pub fn charged_calls_by_tenant(&self) -> Vec<(TenantId, u64)> {
        let mut bill: Vec<(TenantId, u64)> = Vec::new();
        for (o, q) in self.completed() {
            match bill.iter_mut().find(|(t, _)| *t == o.tenant) {
                Some((_, c)) => *c += q.charged_calls(),
                None => bill.push((o.tenant, q.charged_calls())),
            }
        }
        bill.sort_by_key(|(t, _)| *t);
        bill
    }
}

/// One registered graph's engine: in-RAM (borrowing the caller's
/// [`LabeledGraph`]), out-of-core (owning a [`PagedGraphOsn`] whose
/// residency the buffer pool bounds), or churned. All run the identical
/// query stack; the serving layer only dispatches on the variant where it
/// must hand the scheduler a concrete backend.
pub(crate) enum AnyEngine<'g> {
    /// In-RAM backend over a borrowed graph.
    Ram(Engine<'g>),
    /// Out-of-core backend over a paged CSR file. Boxed: the paged
    /// engine embeds the pool handle and is ~3x the in-RAM variant's
    /// size, and `graphs` holds one entry per registered graph.
    Paged(Box<Engine<'g, PagedGraphOsn>>),
    /// Dynamic backend over a churned snapshot: the [`ChurnOsn`] owns its
    /// mutable graph and epoch stamps; the scheduler advances its churn
    /// schedule on the virtual clock between slices. Boxed for the same
    /// size reason as `Paged`.
    Churn(Box<Engine<'g, ChurnOsn>>),
}

/// A long-lived multi-graph service: consistent-hash routing to
/// shared-nothing per-shard engines, with deterministic admission.
pub struct ShardedService<'g> {
    pub(crate) router: ShardRouter,
    seed: u64,
    /// `(key, owning shard, engine)`, in registration order. The engine —
    /// and its shared L2 cache — belongs to the owning shard; run-time
    /// execution never touches another shard's entries.
    pub(crate) graphs: Vec<(GraphKey, usize, AnyEngine<'g>)>,
}

impl<'g> ShardedService<'g> {
    /// An empty service with `shards` shards and a placement seed.
    pub fn new(shards: usize, seed: u64) -> ShardedService<'g> {
        ShardedService {
            router: ShardRouter::new(shards, seed),
            seed,
            graphs: Vec::new(),
        }
    }

    /// Registers a graph under `key`, returning the shard that owns it.
    ///
    /// # Panics
    /// Panics if `key` is already registered — a served graph has exactly
    /// one engine.
    pub fn register(&mut self, key: GraphKey, graph: &'g LabeledGraph) -> usize {
        assert!(
            !self.graphs.iter().any(|(k, _, _)| *k == key),
            "graph key {key:?} registered twice"
        );
        let shard = self.router.route(key);
        self.graphs
            .push((key, shard, AnyEngine::Ram(Engine::new(graph))));
        shard
    }

    /// Registers an out-of-core graph under `key`, returning the shard
    /// that owns it. The engine's shared L2 is sized by `cache` — pair a
    /// paged backend with a *bounded* cache so total residency (pool
    /// frames + L2 entries) stays capped; an unbounded L2 would slowly
    /// re-materialize the graph in RAM.
    ///
    /// # Panics
    /// Panics if `key` is already registered.
    pub fn register_paged(
        &mut self,
        key: GraphKey,
        backend: PagedGraphOsn,
        cache: CacheConfig,
    ) -> usize {
        assert!(
            !self.graphs.iter().any(|(k, _, _)| *k == key),
            "graph key {key:?} registered twice"
        );
        let shard = self.router.route(key);
        self.graphs.push((
            key,
            shard,
            AnyEngine::Paged(Box::new(Engine::on_backend_with_config(backend, cache))),
        ));
        shard
    }

    /// Registers a dynamic (churned) graph under `key`, returning the
    /// shard that owns it. The [`ChurnOsn`] owns its mutable snapshot; the
    /// scheduler's virtual-time loop advances its churn schedule between
    /// slices and runs each slice on one [`labelcount_osn::ChurnView`] of
    /// the snapshot, whose session keeps borrows of the current lists.
    /// Scheduled slices never read the engine's shared cache (`cache`
    /// configures it); [`ShardedService::churn_engine`] sessions do, and
    /// its epoch-stamped entries invalidate when their node region
    /// churned since the fill.
    ///
    /// # Panics
    /// Panics if `key` is already registered.
    pub fn register_churn(
        &mut self,
        key: GraphKey,
        backend: ChurnOsn,
        cache: CacheConfig,
    ) -> usize {
        assert!(
            !self.graphs.iter().any(|(k, _, _)| *k == key),
            "graph key {key:?} registered twice"
        );
        let shard = self.router.route(key);
        self.graphs.push((
            key,
            shard,
            AnyEngine::Churn(Box::new(Engine::on_backend_with_config(backend, cache))),
        ));
        shard
    }

    /// The routing seed the service was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.router.shards()
    }

    /// Number of registered graphs.
    pub fn num_graphs(&self) -> usize {
        self.graphs.len()
    }

    /// Registered graph keys, in registration order.
    pub fn graph_keys(&self) -> Vec<GraphKey> {
        self.graphs.iter().map(|(k, _, _)| *k).collect()
    }

    /// The shard that owns (or would own) `key`.
    pub fn shard_of(&self, key: GraphKey) -> usize {
        self.router.route(key)
    }

    /// The in-RAM engine serving `key`, if registered via
    /// [`ShardedService::register`]. Paged registrations answer `None`
    /// here — reach them through [`ShardedService::paged_engine`].
    pub fn engine(&self, key: GraphKey) -> Option<&Engine<'g>> {
        self.graphs
            .iter()
            .find(|(k, _, _)| *k == key)
            .and_then(|(_, _, e)| match e {
                AnyEngine::Ram(e) => Some(e),
                _ => None,
            })
    }

    /// The out-of-core engine serving `key`, if registered via
    /// [`ShardedService::register_paged`].
    pub fn paged_engine(&self, key: GraphKey) -> Option<&Engine<'g, PagedGraphOsn>> {
        self.graphs
            .iter()
            .find(|(k, _, _)| *k == key)
            .and_then(|(_, _, e)| match e {
                AnyEngine::Paged(e) => Some(e.as_ref()),
                _ => None,
            })
    }

    /// The dynamic-graph engine serving `key`, if registered via
    /// [`ShardedService::register_churn`].
    pub fn churn_engine(&self, key: GraphKey) -> Option<&Engine<'g, ChurnOsn>> {
        self.graphs
            .iter()
            .find(|(k, _, _)| *k == key)
            .and_then(|(_, _, e)| match e {
                AnyEngine::Churn(e) => Some(e.as_ref()),
                _ => None,
            })
    }

    pub(crate) fn graph_index(&self, key: GraphKey) -> Option<usize> {
        self.graphs.iter().position(|(k, _, _)| *k == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fixture(seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(250, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    fn target() -> TargetLabel {
        TargetLabel::new(1.into(), 2.into())
    }

    fn cfg() -> RunConfig {
        RunConfig {
            burn_in: 25,
            thinning_frac: 0.0,
        }
    }

    fn keys(n: u64) -> Vec<GraphKey> {
        (0..n).map(GraphKey).collect()
    }

    #[test]
    fn registration_routes_and_rejects_duplicates() {
        let g = fixture(1);
        let mut svc = ShardedService::new(4, 7);
        for k in keys(6) {
            let shard = svc.register(k, &g);
            assert_eq!(shard, svc.shard_of(k));
            assert!(shard < 4);
            assert!(svc.engine(k).is_some());
        }
        assert_eq!(svc.num_graphs(), 6);
        assert!(svc.engine(GraphKey(99)).is_none());
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            svc.register(GraphKey(0), &g)
        }));
        assert!(dup.is_err(), "duplicate registration must panic");
    }

    #[test]
    fn friendly_workload_completes_everything_in_id_order() {
        let g = fixture(2);
        let mut svc = ShardedService::new(2, 3);
        let gks = keys(3);
        for &k in &gks {
            svc.register(k, &g);
        }
        let wl = ServiceWorkload::mixed_multi_tenant(12, &gks, 3, 0.3, target(), 60, 11, cfg());
        let report = svc.run_scheduled(wl, 2);
        assert_eq!(report.outcomes.len(), 12);
        assert_eq!(report.serving.submitted, 12);
        assert_eq!(report.serving.admitted, 12);
        assert_eq!(report.serving.shed, 0);
        assert_eq!(report.serving.quota_exhausted, 0);
        assert_eq!(report.serving.shards, 2);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i as u64);
            assert_eq!(o.shard, svc.shard_of(o.graph));
            match &o.status {
                ServiceStatus::Completed(q) => {
                    assert_eq!(q.id, o.id);
                    assert!(q.estimate.is_ok());
                }
                other => panic!("request {i} not completed: {other:?}"),
            }
        }
        assert!(report.summary.count() > 0);
        assert!(!report.charged_calls_by_tenant().is_empty());
    }

    #[test]
    fn unknown_graph_is_reported_not_panicked() {
        let g = fixture(3);
        let mut svc = ShardedService::new(2, 5);
        svc.register(GraphKey(0), &g);
        let mut wl =
            ServiceWorkload::mixed_multi_tenant(4, &keys(1), 1, 0.0, target(), 40, 13, cfg());
        wl.requests[2].graph = GraphKey(77); // never registered
        let report = svc.run_scheduled(wl, 1);
        assert!(matches!(
            report.outcomes[2].status,
            ServiceStatus::UnknownGraph
        ));
        assert_eq!(report.serving.admitted, 3);
        assert_eq!(report.serving.submitted, 4);
    }

    #[test]
    fn tight_admission_sheds_with_anytime_answers() {
        let g = fixture(4);
        let mut svc = ShardedService::new(2, 9);
        let gks = keys(2);
        for &k in &gks {
            svc.register(k, &g);
        }
        let wl = ServiceWorkload::mixed_multi_tenant(24, &gks, 2, 0.5, target(), 50, 17, cfg())
            .builder()
            .admission(AdmissionConfig {
                queue_capacity: 3,
                drain_every: 3,
                shed_start: 0.4,
                ..AdmissionConfig::default()
            })
            .build();
        let report = svc.run_scheduled(wl, 2);
        assert!(report.serving.shed > 0, "tight queue never shed");
        assert!(report.serving.admitted > 0, "tight queue admitted nothing");
        for o in &report.outcomes {
            if let ServiceStatus::Shed { backlog, anytime } = &o.status {
                assert!(*backlog <= 3);
                // Both graphs complete work under this config, so every
                // shed request gets a finite anytime answer.
                let a = anytime.expect("anytime answer available");
                assert!(a.is_finite());
            }
        }
    }

    #[test]
    fn quotas_exhaust_per_tenant_and_fairness_reflects_it() {
        let g = fixture(5);
        let mut svc = ShardedService::new(1, 2);
        let gks = keys(1);
        svc.register(gks[0], &g);
        // Tenant 0 hogs most requests; a tight uniform quota exhausts it
        // while lighter tenants keep being admitted.
        let wl = ServiceWorkload::mixed_multi_tenant(20, &gks, 4, 0.7, target(), 50, 19, cfg())
            .builder()
            .quotas(QuotaPolicy::uniform(900))
            .build();
        let report = svc.run_scheduled(wl, 1);
        assert!(report.serving.quota_exhausted > 0, "quota never exhausted");
        assert!(report.serving.admitted > 0);
        assert!(report.serving.tenant_fairness >= 1.0);
        // Every completed query's charged calls stayed within its
        // admission-reserved budget.
        for (_, q) in report.completed() {
            assert!(q.charged_calls() <= 900);
        }
        // The heavy tenant must be among the rejected.
        let heavy_rejected = report.outcomes.iter().any(|o| {
            o.tenant == TenantId(0) && matches!(o.status, ServiceStatus::QuotaExhausted { .. })
        });
        assert!(heavy_rejected, "the hog tenant was never quota-limited");
    }

    #[test]
    fn report_bits_are_stable_across_reruns() {
        let g = fixture(7);
        let build = || {
            ServiceWorkload::mixed_multi_tenant(10, &keys(2), 3, 0.4, target(), 45, 29, cfg())
                .builder()
                .admission(AdmissionConfig {
                    queue_capacity: 4,
                    drain_every: 2,
                    shed_start: 0.5,
                    ..AdmissionConfig::default()
                })
                .build()
        };
        let mut svc = ShardedService::new(3, 8);
        for &k in &keys(2) {
            svc.register(k, &g);
        }
        let a = svc.run_scheduled(build(), 2);
        let b = svc.run_scheduled(build(), 4);
        assert_eq!(a.serving, b.serving);
        assert_eq!(a.summary.mean().to_bits(), b.summary.mean().to_bits());
    }
}
