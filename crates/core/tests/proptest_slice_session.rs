//! `QueryStack` against the stack it replaced, property-tested.
//!
//! Every slice used to run `AdversarialOsn::with_resilience` →
//! `CachedOsn::with_config` (one shard, unbounded, stale serving as the
//! resilience knobs say) → `OsnSession` (hard budget, tick ceiling) → the
//! estimator. `QueryStack::run` now runs the fault layer under one
//! `SliceSession`, which keeps the guards the shared backend returned
//! instead of copying them. This suite holds the new stack to the old one,
//! bit for bit, for all ten Table-2 algorithms under a hostile fault model
//! (outage bursts, a circuit breaker, a retry budget, stale serving on and
//! off), with and without a hard budget and a tick ceiling, over three
//! backends:
//!
//! * the in-RAM `GraphOsn`;
//! * a `PagedGraphOsn` on a two-frame pool, whose paging counters must
//!   match too;
//! * a `ChurnOsn` that applies a churn batch every few fetches, so cached
//!   entries go stale in the middle of a slice and are refetched or,
//!   while a breaker is open, served stale. The five line-graph baselines
//!   assume that `u` lists `v` whenever `v` lists `u` (a `debug_assert` in
//!   `LineGraphView::sample_neighbor`), which lists fetched at different
//!   epochs of a graph churning mid-walk do not give (the scheduler only
//!   churns between slices). For them the backend keeps serving the seed
//!   graph's friend lists while the churn still bumps every epoch and
//!   changes the profiles, so their entries go stale all the same.
//!
//! Compared per run: every `QueryOutcome` field (the estimate as bits),
//! the tick-ceiling verdict, the fault layer's full `FaultStats`, the
//! estimator RNG's next draw, and the backend's own counters.

use std::cell::Cell;
use std::fmt::Debug;
use std::path::PathBuf;

use labelcount_core::{
    algorithms, EstimateError, QueryOutcome, QuerySpec, QueryStack, RunConfig, Schedule, Slice,
};
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::paged::{EvictionPolicy, PagedCsrWriter, PoolConfig};
use labelcount_graph::{Epoch, LabelId, LabeledGraph, NodeId, TargetLabel};
use labelcount_osn::{
    AdversarialOsn, BreakerConfig, BurstConfig, CacheConfig, CachedOsn, CallStats, ChurnOsn,
    FaultConfig, FaultStats, GraphOsn, OsnApi, OsnBackend, PagedGraphOsn, ResilienceConfig,
    RetryPolicy, SliceRef,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn labeled_ba(n: usize, m: usize, seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(n.max(m + 1), m, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, 0.5, &mut rng);
    with_labels(&g, &labels)
}

/// Every field of a [`QueryOutcome`], with the estimate as bits.
#[derive(Debug, PartialEq)]
struct OutcomeBits {
    id: u64,
    abbrev: &'static str,
    estimate: Result<u64, EstimateError>,
    logical_calls: u64,
    retry_charges: u64,
    backend_attempts: u64,
    rate_limited: u64,
    transient_errors: u64,
    latency_ticks: u64,
    budget_exhausted: bool,
    bursts: u64,
    breaker_opens: u64,
    stale_served: u64,
}

impl From<&QueryOutcome> for OutcomeBits {
    fn from(o: &QueryOutcome) -> Self {
        OutcomeBits {
            id: o.id,
            abbrev: o.abbrev,
            estimate: o.estimate.clone().map(f64::to_bits),
            logical_calls: o.logical_calls,
            retry_charges: o.retry_charges,
            backend_attempts: o.backend_attempts,
            rate_limited: o.rate_limited,
            transient_errors: o.transient_errors,
            latency_ticks: o.latency_ticks,
            budget_exhausted: o.budget_exhausted,
            bursts: o.bursts,
            breaker_opens: o.breaker_opens,
            stale_served: o.stale_served,
        }
    }
}

/// What one run of the old stack produced.
struct Reference {
    outcome: OutcomeBits,
    ticks_exceeded: bool,
    faults: FaultStats,
    next_draw: u64,
    stats: CallStats,
}

/// The stack every slice ran before `SliceSession`, built by hand from
/// the public constructors.
fn reference<B: OsnBackend>(
    shared: &B,
    stack: &QueryStack,
    q: &QuerySpec,
    slice: Slice,
) -> Reference {
    let faults = FaultConfig {
        seed: slice.fault_seed,
        ..stack.faults
    };
    let faults = AdversarialOsn::with_resilience(shared, faults, stack.retry, stack.resilience);
    faults.set_clock_base(slice.start_tick);
    let cache = CachedOsn::with_config(
        faults,
        CacheConfig::builder()
            .shards(1)
            .serve_stale(stack.resilience.serve_stale)
            .build(),
    );
    let session = cache.session();
    if let Some(b) = q.hard_budget {
        session.set_budget(b);
    }
    if let Some(t) = slice.tick_ceiling {
        session.set_tick_ceiling(t);
    }
    let mut rng = StdRng::seed_from_u64(slice.rng_seed);
    let estimate = q
        .algorithm
        .estimate(&session, q.target, q.budget, &stack.run_config, &mut rng);
    let fs = cache.backend().fault_stats();
    let outcome = QueryOutcome {
        id: q.id,
        abbrev: q.algorithm.abbrev(),
        estimate,
        logical_calls: session.api_calls(),
        retry_charges: session.retry_charges(),
        backend_attempts: fs.attempts,
        rate_limited: fs.rate_limited,
        transient_errors: fs.transient_errors,
        latency_ticks: session.latency_ticks(),
        budget_exhausted: session.budget_remaining() == Some(0),
        bursts: fs.bursts,
        breaker_opens: fs.breaker_opens,
        stale_served: session.stale_served(),
    };
    let ticks_exceeded = session.ticks_exceeded();
    drop(session);
    Reference {
        outcome: OutcomeBits::from(&outcome),
        ticks_exceeded,
        faults: fs,
        next_draw: rng.next_u64(),
        stats: cache.stats(),
    }
}

/// Runs `q` through the reference stack, through [`QueryStack::run`], and
/// through [`QueryStack::session`] with the estimator driven by hand, each
/// over its own `fresh()` backend, and asserts they agree. `probe` reads
/// the backend's own counters after each run.
fn assert_equivalent<B: OsnBackend, P: PartialEq + Debug>(
    fresh: impl Fn() -> B,
    probe: impl Fn(&B) -> P,
    stack: &QueryStack,
    q: &QuerySpec,
    slice: Slice,
) -> Result<Reference, TestCaseError> {
    let abbrev = q.algorithm.abbrev();
    let (old, run, open) = (fresh(), fresh(), fresh());
    let want = reference(&old, stack, q, slice);

    let got = stack.run(&run, q, slice);
    prop_assert_eq!(
        &want.outcome,
        &OutcomeBits::from(&got.outcome),
        "{}",
        abbrev
    );
    prop_assert_eq!(want.ticks_exceeded, got.ticks_exceeded, "{}", abbrev);

    let session = stack.session(&open, q, slice);
    let mut rng = StdRng::seed_from_u64(slice.rng_seed);
    let estimate = q
        .algorithm
        .estimate(&session, q.target, q.budget, &stack.run_config, &mut rng);
    prop_assert_eq!(
        &want.outcome.estimate,
        &estimate.map(f64::to_bits),
        "{}",
        abbrev
    );
    prop_assert_eq!(want.faults, session.backend().fault_stats(), "{}", abbrev);
    prop_assert_eq!(
        want.next_draw,
        rng.next_u64(),
        "{}: RNG streams diverged",
        abbrev
    );
    drop(session);

    let probed = probe(&old);
    prop_assert_eq!(
        &probed,
        &probe(&run),
        "{}: backend counters diverged",
        abbrev
    );
    prop_assert_eq!(
        &probed,
        &probe(&open),
        "{}: backend counters diverged",
        abbrev
    );
    Ok(want)
}

/// A [`ChurnOsn`] that applies its next churn batch on every `every`-th
/// fetch, so a slice's cached entries go stale while it runs. With
/// `static_adjacency` set, friend lists (and `|E|`) come from the seed
/// graph instead, and only epochs and profiles churn.
struct ChurnEvery<'g> {
    osn: ChurnOsn,
    static_adjacency: Option<&'g LabeledGraph>,
    every: u64,
    fetches: Cell<u64>,
}

impl<'g> ChurnEvery<'g> {
    fn new(g: &'g LabeledGraph, seed: u64, every: u64, static_adjacency: bool) -> Self {
        let cfg = ChurnConfig {
            seed,
            events_per_batch: 2,
            batch_interval_ticks: 1,
            region_shift: 2,
        };
        ChurnEvery {
            osn: ChurnOsn::new(g, cfg),
            static_adjacency: static_adjacency.then_some(g),
            every,
            fetches: Cell::new(0),
        }
    }

    fn count_fetch(&self) {
        let n = self.fetches.get() + 1;
        self.fetches.set(n);
        if n.is_multiple_of(self.every) {
            self.osn.advance_to(n / self.every);
        }
    }
}

impl OsnBackend for ChurnEvery<'_> {
    fn num_nodes(&self) -> usize {
        self.osn.num_nodes()
    }

    fn num_edges(&self) -> usize {
        match self.static_adjacency {
            Some(g) => g.num_edges(),
            None => self.osn.num_edges(),
        }
    }

    fn max_degree_bound(&self) -> usize {
        self.osn.max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        let data = match self.static_adjacency {
            Some(g) => SliceRef::Borrowed(g.neighbors(u)),
            None => self.osn.fetch_neighbors(u),
        };
        self.count_fetch();
        data
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        let data = self.osn.fetch_labels(u);
        self.count_fetch();
        data
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        self.osn.epoch_of(u)
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        self.osn.label_epoch_of(u)
    }
}

/// The knobs of one case.
#[derive(Clone, Copy, Debug)]
struct Case {
    graph_seed: u64,
    nodes: usize,
    seed: u64,
    fault_pct: u32,
    breaker: bool,
    retry_budget: Option<u64>,
    serve_stale: bool,
    hard_budget: Option<u64>,
    tick_ceiling: Option<u64>,
    start_tick: u64,
    churn_every: u64,
}

/// Totals over a case's churned reference runs, to show which paths ran.
#[derive(Default)]
struct Coverage {
    stale_served: u64,
    stale_refetched: u64,
    breaker_opens: u64,
    budget_cuts: u64,
    tick_cuts: u64,
}

fn temp_paged(tag: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "labelcount_slice_session_{}_{tag}.paged",
        std::process::id()
    ))
}

fn check_case(c: Case) -> Result<Coverage, TestCaseError> {
    // Minimum degree 6, so the few edge deletions a slice's churn
    // applies do not leave a walk standing on an isolated node.
    let g = labeled_ba(c.nodes, 6, c.graph_seed);
    let burst = BurstConfig {
        window_ticks: 16,
        start_rate: 0.25,
        mean_burst_windows: 2.0,
        max_burst_windows: 4,
        outage_fault_rate: 1.0,
    };
    let stack = QueryStack {
        run_config: RunConfig {
            burn_in: 20,
            ..RunConfig::default()
        },
        faults: FaultConfig::hostile(0, c.fault_pct as f64 / 100.0).with_burst(burst),
        retry: RetryPolicy::default(),
        resilience: ResilienceConfig {
            breaker: c.breaker.then_some(BreakerConfig {
                failure_threshold: 1,
                open_ticks: 200,
                half_open_probes: 1,
            }),
            retry_budget: c.retry_budget,
            serve_stale: c.serve_stale,
        },
    };
    let path = temp_paged(c.seed);
    PagedCsrWriter::with_page_size(256)
        .write(&g, &path)
        .expect("write paged CSR file");

    let mut cov = Coverage::default();
    let walk_g = algorithms::proposed().into_iter().map(|a| (a, false));
    let walk_line_graph = algorithms::baselines(0.2, 0.5)
        .into_iter()
        .map(|a| (a, true));
    for (ai, (algorithm, static_adjacency)) in walk_g.chain(walk_line_graph).enumerate() {
        let ai = ai as u64;
        let q = QuerySpec {
            id: ai,
            algorithm,
            target: TargetLabel::new(1.into(), 2.into()),
            budget: 60,
            hard_budget: c.hard_budget,
            seed: 0,
            schedule: Schedule::default(),
        };
        let slice = Slice {
            fault_seed: c.seed ^ ai,
            rng_seed: c.seed.wrapping_add(ai),
            start_tick: c.start_tick,
            tick_ceiling: c.tick_ceiling,
        };
        assert_equivalent(|| GraphOsn::new(&g), |_| (), &stack, &q, slice)?;
        assert_equivalent(
            || {
                PagedGraphOsn::open(&path, PoolConfig::bounded(2, EvictionPolicy::Lru))
                    .expect("open the paged CSR file")
            },
            |p| p.paging_stats(),
            &stack,
            &q,
            slice,
        )?;
        let churned = assert_equivalent(
            || ChurnEvery::new(&g, c.graph_seed, c.churn_every, static_adjacency),
            |b| (b.fetches.get(), b.osn.churn_stats()),
            &stack,
            &q,
            slice,
        )?;
        cov.stale_served += churned.outcome.stale_served;
        cov.stale_refetched += churned.stats.l2_stale_evictions;
        cov.breaker_opens += churned.outcome.breaker_opens;
        cov.budget_cuts += churned.outcome.budget_exhausted as u64;
        cov.tick_cuts += churned.ticks_exceeded as u64;
    }
    std::fs::remove_file(&path).ok();
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn query_stack_bills_exactly_what_the_shared_cache_stack_bills(
        graph_seed in any::<u64>(),
        nodes in 20usize..60,
        seed in any::<u64>(),
        fault_pct in 0u32..60,
        breaker in any::<bool>(),
        budgeted_retries in any::<bool>(),
        retry_budget in 0u64..40,
        serve_stale in any::<bool>(),
        budgeted in any::<bool>(),
        hard_budget in 5u64..200,
        capped in any::<bool>(),
        tick_ceiling in 10u64..3_000,
        start_tick in 0u64..10_000,
        churn_every in 2u64..8,
    ) {
        check_case(Case {
            graph_seed,
            nodes,
            seed,
            fault_pct,
            breaker,
            retry_budget: budgeted_retries.then_some(retry_budget),
            serve_stale,
            hard_budget: budgeted.then_some(hard_budget),
            tick_ceiling: capped.then_some(tick_ceiling),
            start_tick,
            churn_every,
        })?;
    }
}

/// The sweep above is only as strong as the paths it reaches. With the
/// breaker and stale serving on, churned entries are both refetched and
/// served stale, and the budget and the tick ceiling each cut runs short.
#[test]
fn fixed_cases_reach_stale_serving_refetching_and_both_cuts() {
    let mut cov = Coverage::default();
    for seed in 0..4u64 {
        let c = Case {
            graph_seed: seed,
            nodes: 40,
            seed,
            fault_pct: 30,
            breaker: true,
            retry_budget: Some(20),
            serve_stale: true,
            hard_budget: seed.is_multiple_of(2).then_some(40),
            tick_ceiling: (!seed.is_multiple_of(2)).then_some(150),
            start_tick: 1_000 * seed,
            churn_every: 3,
        };
        let got = check_case(c).unwrap_or_else(|e| panic!("{c:?}: {e:?}"));
        cov.stale_served += got.stale_served;
        cov.stale_refetched += got.stale_refetched;
        cov.breaker_opens += got.breaker_opens;
        cov.budget_cuts += got.budget_cuts;
        cov.tick_cuts += got.tick_cuts;
    }
    assert!(cov.breaker_opens > 0, "no breaker opened");
    assert!(cov.stale_served > 0, "no stale entry was served");
    assert!(cov.stale_refetched > 0, "no stale entry was refetched");
    assert!(cov.budget_cuts > 0, "no run hit its hard budget");
    assert!(cov.tick_cuts > 0, "no run hit its tick ceiling");
}
