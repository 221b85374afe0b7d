//! A replay of scheduled queries through the scheduler's per-slice query
//! stack, rebuilt from the same public constructors the scheduler uses:
//! `AdversarialOsn::with_resilience` → `CachedOsn::with_config` →
//! session → `Algorithm::estimate`.
//!
//! The serving path creates and drops its per-slice caches inside
//! `ShardedService::run_scheduled`, so their L1/L2 counts are not
//! observable from outside. The replay rebuilds them, optionally with
//! the timing decorators of [`crate::trace`] in place. Whether it mirrors
//! the service is checked, not assumed: its per-query logical calls and
//! estimates are compared with the service report.

use std::time::Instant;

use labelcount_core::{QuerySpec, RunConfig};
use labelcount_osn::{
    AdversarialOsn, CacheConfig, CachedOsn, FaultConfig, FaultStats, OsnApi, OsnBackend,
    ResilienceConfig, RetryPolicy,
};
use labelcount_serve::GraphKey;
use labelcount_stats::{replication_seed, RunningStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::{Spans, TimedApi, TimedBackend};

/// The scheduler's seed stream for per-graph fault seeds
/// (`labelcount_serve::scheduler`). The replay must derive the same
/// per-slice fault seeds to mirror the service.
const SCHEDULER_GRAPH_FAULT_STREAM: u64 = 0x5c1d_0001;

/// The service-level knobs every slice of a workload shares.
#[derive(Clone, Copy)]
pub struct Knobs {
    pub faults: FaultConfig,
    pub retry: RetryPolicy,
    pub resilience: ResilienceConfig,
    pub run_config: RunConfig,
    pub replicates: u64,
}

/// The base of the per-slice fault seeds of graph `key` in a workload
/// seeded `workload_seed`.
pub fn fault_base(workload_seed: u64, key: GraphKey) -> u64 {
    replication_seed(
        replication_seed(workload_seed, SCHEDULER_GRAPH_FAULT_STREAM),
        key.0,
    )
}

/// The boundaries a traced replay records spans at.
#[derive(Default)]
pub struct ReplaySpans {
    /// Logical calls, around the session (L1 + L2 + everything below).
    pub api: Spans,
    /// Fetches into the fault layer (fault layer + backend).
    pub faults: Spans,
    /// Fetches into the backend itself.
    pub backend: Spans,
}

/// Counts accumulated over every replayed slice.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counts {
    pub slices: u64,
    pub logical: u64,
    pub l1_hits: u64,
    pub misses: u64,
    pub l1_stale: u64,
    pub l2_stale: u64,
    pub stale_served: u64,
    pub retry_charges: u64,
    pub faults: FaultTotals,
    /// Wall nanoseconds spent inside `Algorithm::estimate`.
    pub estimate_ns: u64,
}

impl Counts {
    /// The cache counts scaled by `factor` (a sample's counts projected
    /// onto the whole stream); timings and fault totals are left out.
    pub fn scaled(&self, factor: f64) -> Counts {
        let s = |x: u64| (x as f64 * factor).round() as u64;
        Counts {
            slices: s(self.slices),
            logical: s(self.logical),
            l1_hits: s(self.l1_hits),
            misses: s(self.misses),
            l1_stale: s(self.l1_stale),
            l2_stale: s(self.l2_stale),
            stale_served: s(self.stale_served),
            retry_charges: s(self.retry_charges),
            faults: FaultTotals::default(),
            estimate_ns: 0,
        }
    }
}

/// [`FaultStats`] summed over slices.
#[derive(Clone, Copy, Default, Debug)]
pub struct FaultTotals {
    pub attempts: u64,
    pub rate_limited: u64,
    pub transient_errors: u64,
    pub bursts: u64,
    pub breaker_opens: u64,
}

impl FaultTotals {
    fn add(&mut self, f: FaultStats) {
        self.attempts += f.attempts;
        self.rate_limited += f.rate_limited;
        self.transient_errors += f.transient_errors;
        self.bursts += f.bursts;
        self.breaker_opens += f.breaker_opens;
    }
}

/// What one replayed query produced, in the report's terms.
pub struct Replayed {
    pub logical_calls: u64,
    /// Mean of the finite replicate estimates, as the scheduler forms a
    /// completed query's estimate.
    pub estimate: Option<f64>,
}

/// Replays one query's replicate slices over `backend`.
///
/// `clock_base` aligns the fault layer's virtual clock as the scheduler
/// does for a slice starting at that tick. With `spans`, the stack runs
/// with timing decorators at the session, fault-layer and backend
/// boundaries.
#[allow(clippy::too_many_arguments)] // the slice's full coordinates
pub fn replay_query<B: OsnBackend>(
    backend: &B,
    spec: &QuerySpec,
    hard_budget: Option<u64>,
    clock_base: u64,
    knobs: &Knobs,
    fault_base: u64,
    spans: Option<&ReplaySpans>,
    counts: &mut Counts,
) -> Replayed {
    let mut stats = RunningStats::new();
    let mut logical_calls = 0;
    for rep in 0..knobs.replicates {
        let faults = FaultConfig {
            seed: replication_seed(replication_seed(fault_base, spec.id), rep),
            ..knobs.faults
        };
        let slice = Slice {
            spec,
            hard_budget,
            knobs,
            rng_seed: replication_seed(spec.seed, rep),
        };
        let (calls, estimate) = match spans {
            None => {
                let adv =
                    AdversarialOsn::with_resilience(backend, faults, knobs.retry, knobs.resilience);
                adv.set_clock_base(clock_base);
                slice.run(adv, |a| a.fault_stats(), None, counts)
            }
            Some(s) => {
                let adv = AdversarialOsn::with_resilience(
                    TimedBackend::new(backend, &s.backend),
                    faults,
                    knobs.retry,
                    knobs.resilience,
                );
                adv.set_clock_base(clock_base);
                slice.run(
                    TimedBackend::new(adv, &s.faults),
                    |t| t.inner().fault_stats(),
                    Some(&s.api),
                    counts,
                )
            }
        };
        logical_calls += calls;
        if let Ok(e) = estimate {
            if e.is_finite() {
                stats.push(e);
            }
        }
    }
    Replayed {
        logical_calls,
        estimate: (stats.count() > 0).then(|| stats.mean()),
    }
}

struct Slice<'q> {
    spec: &'q QuerySpec,
    hard_budget: Option<u64>,
    knobs: &'q Knobs,
    rng_seed: u64,
}

impl Slice<'_> {
    fn run<C: OsnBackend>(
        &self,
        backend: C,
        fault_stats: impl Fn(&C) -> FaultStats,
        api: Option<&Spans>,
        counts: &mut Counts,
    ) -> (u64, Result<f64, labelcount_core::EstimateError>) {
        let cache = CachedOsn::with_config(
            backend,
            CacheConfig::builder()
                .serve_stale(self.knobs.resilience.serve_stale)
                .build(),
        );
        let session = cache.session();
        if let Some(b) = self.hard_budget {
            session.set_budget(b);
        }
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let spec = self.spec;
        let run = &self.knobs.run_config;
        let start = Instant::now();
        let estimate = match api {
            Some(spans) => {
                let timed = TimedApi::new(&session, spans);
                spec.algorithm
                    .estimate(&timed, spec.target, spec.budget, run, &mut rng)
            }
            None => spec
                .algorithm
                .estimate(&session, spec.target, spec.budget, run, &mut rng),
        };
        counts.estimate_ns += start.elapsed().as_nanos() as u64;
        let calls = session.api_calls();
        counts.slices += 1;
        counts.logical += calls;
        counts.l1_hits += session.l1_hits();
        counts.retry_charges += session.retry_charges();
        counts.stale_served += session.stale_served();
        drop(session);
        let stats = cache.stats();
        counts.misses += stats.misses();
        counts.l1_stale += stats.l1_stale_evictions;
        counts.l2_stale += stats.l2_stale_evictions;
        counts.faults.add(fault_stats(cache.backend()));
        (calls, estimate)
    }
}
