//! The multi-query workload service: N concurrent estimation queries over
//! one graph, scheduled across a worker pool, optionally through a
//! hostile (fault-injecting) API.
//!
//! [`Engine`](crate::Engine) (PR 3) serves *replicates of one query*
//! through a shared cache. A production deployment instead sees a
//! **workload**: a stream of independent queries — different algorithms,
//! different budgets, different seeds — arriving in some order and
//! competing for workers. [`Workload`] models that stream and
//! [`run_workload`] executes it:
//!
//! * queries arrive in a **seeded arrival order** (a Fisher–Yates shuffle
//!   of the query list under the workload seed);
//! * up to `workers` threads take queries off the arrival queue
//!   dynamically ([`replicate`](fn@replicate)), so stragglers never idle a
//!   whole worker;
//! * every query gets its **own access stack** — a [`QueryStack`]
//!   (a `SliceSession` over `AdversarialOsn<&B>`) over the shared
//!   backend — so per-query budgets, retry charges, and fault patterns are
//!   fully isolated, like one crawler client per query against the same
//!   remote OSN.
//!
//! # Determinism
//!
//! Every fault decision is a pure hash of per-query coordinates
//! ([`labelcount_osn::AdversarialOsn`]) and every query owns its RNG and
//! its cache, so the [`WorkloadReport`] — estimates, retry counts, latency
//! ticks, budget verdicts, and the summary statistics (accumulated in
//! query-id order) — is **bit-identical at any worker count**.

use labelcount_graph::TargetLabel;
use labelcount_osn::{FaultConfig, OsnBackend, ResilienceConfig, RetryPolicy};
use labelcount_stats::{replicate, replication_seed, RunningStats};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::algorithm::{algorithms, Algorithm, RunConfig};
use crate::request::Schedule;
pub use crate::request::{QueryOutcome, QuerySpec};
use crate::stack::{QueryStack, Slice};

/// Stream ids for deriving the workload's internal seeds.
mod stream {
    pub const ARRIVAL: u64 = 1;
    pub const QUERY_RNG: u64 = 2;
    pub const QUERY_FAULT: u64 = 3;
}

/// A batch of queries plus the service-level knobs.
pub struct Workload {
    /// The queries, in id order.
    pub queries: Vec<QuerySpec>,
    /// Base seed: arrival order and per-query fault seeds derive from it.
    pub seed: u64,
    /// Shared run parameters (burn-in, thinning).
    pub run_config: RunConfig,
    /// The fault model every query's backend stack is decorated with
    /// (`FaultConfig::clean` for a well-behaved API). The configured seed
    /// is re-derived per query, so queries fault independently.
    pub faults: FaultConfig,
    /// Retry policy for fault recovery.
    pub retry: RetryPolicy,
    /// Reactive resilience knobs (circuit breaker, retry budget, stale
    /// serving) decorating every query's stack. The all-off default
    /// reproduces pre-resilience runs bit-identically.
    pub resilience: ResilienceConfig,
}

impl Workload {
    /// A mixed workload: `n` queries cycling through the paper's Table-2
    /// roster (`algorithms::all_paper`), all with the same target and
    /// sample budget, hard-budgeted at `6 × (budget + burn-in)` charged
    /// calls so a hostile API degrades queries instead of hanging them,
    /// while a well-behaved API completes every query. The burn-in
    /// allowance matters: burn-in is budget-*free* under the sample budget
    /// but charged against hard budgets (a real crawler is billed for its
    /// mixing walk too), and the line-graph baselines spend ~3 charged
    /// calls per burn-in step — without the allowance, a long burn-in
    /// alone would exhaust every query before sampling begins; the 6×
    /// headroom covers the hungriest Table-2 call profile plus moderate
    /// retry pressure.
    pub fn mixed(
        n: usize,
        target: TargetLabel,
        budget: usize,
        seed: u64,
        run_config: RunConfig,
    ) -> Workload {
        let hard_budget = 6 * (budget as u64 + run_config.burn_in as u64);
        let mut queries = Vec::with_capacity(n);
        // One boxed roster per ten queries, drained round-robin (the
        // roster order is the paper's Table 2).
        let mut pool: std::collections::VecDeque<Box<dyn Algorithm>> =
            std::collections::VecDeque::new();
        for id in 0..n as u64 {
            if pool.is_empty() {
                pool.extend(algorithms::all_paper(0.2, 0.5));
            }
            let algorithm = pool.pop_front().expect("roster is non-empty");
            queries.push(QuerySpec {
                id,
                algorithm,
                target,
                budget,
                hard_budget: Some(hard_budget),
                seed: replication_seed(seed, stream::QUERY_RNG + (id << 8)),
                schedule: Schedule::default(),
            });
        }
        Workload {
            queries,
            seed,
            run_config,
            faults: FaultConfig::clean(seed),
            retry: RetryPolicy::default(),
            resilience: ResilienceConfig::default(),
        }
    }

    /// Wraps this workload in a [`WorkloadBuilder`] to override the
    /// service-level knobs (fault model, retry policy) builder-style.
    pub fn builder(self) -> WorkloadBuilder {
        WorkloadBuilder { inner: self }
    }

    /// The seeded arrival order: query indices shuffled under the
    /// workload seed. Deterministic, independent of worker count.
    pub fn arrival_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.queries.len()).collect();
        let mut rng = StdRng::seed_from_u64(replication_seed(self.seed, stream::ARRIVAL));
        order.shuffle(&mut rng);
        order
    }
}

/// Builder over a fully-formed [`Workload`]: every knob starts at the
/// compile-time-checked default the constructor produced
/// ([`FaultConfig::clean`], [`RetryPolicy::default`]) and each setter
/// replaces exactly one of them. The serving layer's
/// `ServiceWorkloadBuilder` extends the same shape with admission, quota,
/// and scheduling knobs — one builder idiom across both layers, replacing
/// the scattered `with_*` methods.
///
/// ```
/// # use labelcount_core::{algorithm::RunConfig, workload::Workload};
/// # use labelcount_graph::TargetLabel;
/// # use labelcount_osn::{FaultConfig, RetryPolicy};
/// let w = Workload::mixed(8, TargetLabel::new(1.into(), 2.into()), 100, 7,
///                         RunConfig::default())
///     .builder()
///     .faults(FaultConfig::hostile(7, 0.2), RetryPolicy::default())
///     .build();
/// assert_eq!(w.queries.len(), 8);
/// ```
#[must_use = "builders do nothing until `.build()` is called"]
pub struct WorkloadBuilder {
    inner: Workload,
}

impl WorkloadBuilder {
    /// Replaces the fault model and retry policy.
    pub fn faults(mut self, faults: FaultConfig, retry: RetryPolicy) -> WorkloadBuilder {
        self.inner.faults = faults;
        self.inner.retry = retry;
        self
    }

    /// Replaces the reactive resilience knobs (breaker, retry budget,
    /// stale serving).
    pub fn resilience(mut self, resilience: ResilienceConfig) -> WorkloadBuilder {
        self.inner.resilience = resilience;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Workload {
        self.inner
    }
}

/// The deterministic result of a workload run.
#[derive(Clone, Debug)]
pub struct WorkloadReport {
    /// Per-query outcomes, in **query-id order** (not completion order).
    pub outcomes: Vec<QueryOutcome>,
    /// Summary over the successful estimates, accumulated in id order.
    pub summary: RunningStats,
}

impl WorkloadReport {
    /// Queries whose hard budget ran out.
    pub fn budget_exhausted_queries(&self) -> u64 {
        self.outcomes.iter().filter(|o| o.budget_exhausted).count() as u64
    }

    /// Total retry charges across all queries.
    pub fn total_retry_charges(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retry_charges).sum()
    }

    /// Total logical API calls across all queries.
    pub fn total_logical_calls(&self) -> u64 {
        self.outcomes.iter().map(|o| o.logical_calls).sum()
    }

    /// Total realized backend attempts across all queries.
    pub fn total_backend_attempts(&self) -> u64 {
        self.outcomes.iter().map(|o| o.backend_attempts).sum()
    }

    /// The `q`-th percentile of per-query simulated latency ticks
    /// (deterministic: a sorted multiset does not depend on completion
    /// order). `None` for an empty workload.
    pub fn latency_ticks_percentile(&self, q: f64) -> Option<f64> {
        if self.outcomes.is_empty() {
            return None;
        }
        let ticks: Vec<f64> = self
            .outcomes
            .iter()
            .map(|o| o.latency_ticks as f64)
            .collect();
        Some(labelcount_stats::percentile(&ticks, q))
    }
}

/// Runs `workload` over any shared [`OsnBackend`] — the in-RAM
/// [`GraphOsn`](labelcount_osn::GraphOsn), the out-of-core
/// `labelcount_osn::PagedGraphOsn`, or any decorator over them — on up to
/// `workers` threads. See the [module docs](self) for the execution and
/// determinism model.
///
/// Every query runs once through its own [`QueryStack`] over `backend`, so
/// a backend that serves identical bytes yields a bit-identical report.
pub fn run_workload<B: OsnBackend + Sync>(
    backend: &B,
    workload: &Workload,
    workers: usize,
) -> WorkloadReport {
    let order = workload.arrival_order();
    let stack = QueryStack {
        run_config: workload.run_config,
        faults: workload.faults,
        retry: workload.retry,
        resilience: workload.resilience,
    };
    let fault_root = replication_seed(workload.seed, stream::QUERY_FAULT);

    // Positions in the arrival order are handed out dynamically. Each
    // query's seeds derive from its own id, so `replicate`'s per-index
    // seed goes unused.
    let mut outcomes = replicate(order.len(), workers, 0, |pos, _| {
        let q = &workload.queries[order[pos]];
        let slice = Slice {
            fault_seed: replication_seed(fault_root, q.id),
            rng_seed: q.seed,
            ..Slice::default()
        };
        stack.run(backend, q, slice).outcome
    });

    outcomes.sort_by_key(|o| o.id);
    let mut summary = RunningStats::new();
    for o in &outcomes {
        if let Ok(e) = o.estimate {
            if e.is_finite() {
                summary.push(e);
            }
        }
    }
    WorkloadReport { outcomes, summary }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EstimateError;
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use labelcount_graph::LabeledGraph;
    use labelcount_osn::GraphOsn;

    fn fixture(seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(300, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    fn target() -> TargetLabel {
        TargetLabel::new(1.into(), 2.into())
    }

    fn cfg() -> RunConfig {
        RunConfig {
            burn_in: 30,
            thinning_frac: 0.0,
        }
    }

    fn mixed(n: usize, seed: u64, rate: f64) -> Workload {
        Workload::mixed(n, target(), 100, seed, cfg())
            .builder()
            .faults(FaultConfig::hostile(seed, rate), RetryPolicy::default())
            .build()
    }

    #[test]
    fn builder_replaces_the_fault_knobs() {
        // The builder is the only fault-configuration path now that the
        // deprecated `with_faults` has completed its one-release grace
        // period and is gone.
        let w = Workload::mixed(4, target(), 50, 9, cfg())
            .builder()
            .faults(FaultConfig::hostile(9, 0.3), RetryPolicy::default())
            .build();
        assert_eq!(w.faults.seed, 9);
        assert!(w.faults.transient_rate > 0.0);
        assert_eq!(w.retry.max_attempts, RetryPolicy::default().max_attempts);
    }

    #[test]
    fn mixed_workload_covers_the_roster_and_shuffles_arrivals() {
        let w = mixed(12, 5, 0.2);
        assert_eq!(w.queries.len(), 12);
        let abbrevs: Vec<&str> = w.queries.iter().map(|q| q.algorithm.abbrev()).collect();
        // 12 queries over a 10-strong roster: first ten distinct.
        let mut distinct = abbrevs[..10].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 10);
        let order = w.arrival_order();
        assert_eq!(order.len(), 12);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
        assert_ne!(
            order,
            (0..12).collect::<Vec<_>>(),
            "arrival order must shuffle"
        );
        assert_eq!(order, w.arrival_order(), "arrival order must be stable");
    }

    #[test]
    fn report_is_in_id_order_with_sound_accounting() {
        let g = fixture(1);
        let report = run_workload(&GraphOsn::new(&g), &mixed(10, 7, 0.3), 2);
        assert_eq!(report.outcomes.len(), 10);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.id, i as u64);
            assert!(o.logical_calls > 0, "query {i} did no work");
            // Realized cost is at least the misses that reached the
            // backend; charges are exactly the extra attempts.
            assert!(o.backend_attempts >= o.retry_charges);
            assert!(o.latency_ticks > 0, "hostile API must cost latency");
        }
        assert!(report.total_retry_charges() > 0, "rate 0.3 must retry");
        assert!(report.total_backend_attempts() > 0);
        let p50 = report.latency_ticks_percentile(50.0).unwrap();
        let p95 = report.latency_ticks_percentile(95.0).unwrap();
        assert!(p50 <= p95);
        assert!(report.summary.count() > 0);
    }

    #[test]
    fn clean_faults_charge_nothing() {
        let g = fixture(2);
        let w = Workload::mixed(6, target(), 80, 3, cfg());
        let report = run_workload(&GraphOsn::new(&g), &w, 3);
        assert_eq!(report.total_retry_charges(), 0);
        assert_eq!(report.budget_exhausted_queries(), 0);
        for o in &report.outcomes {
            assert!(o.estimate.is_ok());
            assert_eq!(o.latency_ticks, 0);
            assert_eq!(o.rate_limited, 0);
            assert_eq!(o.transient_errors, 0);
        }
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        let g = fixture(3);
        let w = mixed(9, 11, 0.35);
        let baseline = run_workload(&GraphOsn::new(&g), &w, 1);
        for workers in [2usize, 4, 8] {
            let r = run_workload(&GraphOsn::new(&g), &w, workers);
            assert_eq!(r.outcomes.len(), baseline.outcomes.len());
            for (a, b) in baseline.outcomes.iter().zip(&r.outcomes) {
                assert_eq!(a.id, b.id);
                assert_eq!(
                    a.estimate.as_ref().map(|e| e.to_bits()),
                    b.estimate.as_ref().map(|e| e.to_bits()),
                    "query {} estimate diverged at {workers} workers",
                    a.id
                );
                assert_eq!(a.retry_charges, b.retry_charges, "query {}", a.id);
                assert_eq!(a.latency_ticks, b.latency_ticks, "query {}", a.id);
                assert_eq!(a.backend_attempts, b.backend_attempts, "query {}", a.id);
                assert_eq!(a.budget_exhausted, b.budget_exhausted, "query {}", a.id);
            }
            assert_eq!(
                baseline.summary.mean().to_bits(),
                r.summary.mean().to_bits(),
                "summary diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn hostile_api_exhausts_tight_budgets() {
        let g = fixture(4);
        let mut w = mixed(8, 13, 0.5);
        for q in &mut w.queries {
            q.hard_budget = Some(60); // far below the 100-call sample budget
            q.budget = 1_000;
        }
        let report = run_workload(&GraphOsn::new(&g), &w, 2);
        assert!(
            report.budget_exhausted_queries() > 0,
            "a 0.5-fault-rate API under a 60-call budget must exhaust"
        );
        for o in &report.outcomes {
            if o.budget_exhausted {
                assert!(
                    matches!(o.estimate, Err(EstimateError::BudgetExhausted { .. })),
                    "query {}: exhaustion must surface as an error",
                    o.id
                );
            }
        }
    }

    #[test]
    fn fault_rate_raises_realized_cost() {
        let g = fixture(6);
        let clean = run_workload(&GraphOsn::new(&g), &mixed(8, 19, 0.0), 2);
        let hostile = run_workload(&GraphOsn::new(&g), &mixed(8, 19, 0.4), 2);
        assert!(
            hostile.total_backend_attempts() > clean.total_backend_attempts(),
            "faults must raise the realized API cost: {} vs {}",
            hostile.total_backend_attempts(),
            clean.total_backend_attempts()
        );
        // Identical logical demand: faults delay and charge, never alter
        // the estimator's call sequence.
        assert_eq!(clean.total_logical_calls(), hostile.total_logical_calls());
    }
}
