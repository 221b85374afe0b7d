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
//!
//! A sibling property holds a `ChurnView` to the per-call reads of the
//! `ChurnOsn` it views. The scheduler runs each churned slice on one view,
//! which lends the current lists under one read lock, where per-call reads
//! lock and clone an `Arc` each time. Between random clock advances, with
//! live epochs reported or hidden, every algorithm's run over the view
//! must match its run over the backend and over a `MutableGraph` churned
//! in lock step, in the same fields; the runs must not churn; and the view
//! must read the snapshot's `|V|`, `|E|`, degree bound, lists and epochs.

use std::cell::Cell;
use std::fmt::Debug;
use std::path::PathBuf;

use labelcount_core::{
    algorithms, Algorithm, EstimateError, QueryOutcome, QuerySpec, QueryStack, RunConfig, Schedule,
    Slice,
};
use labelcount_graph::churn::{ChurnConfig, ChurnSchedule, ChurnStats, MutableGraph};
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

/// The case's stack: a hostile fault model with outage bursts, under the
/// case's breaker, retry budget and stale serving.
fn stack_of(c: &Case) -> QueryStack {
    let burst = BurstConfig {
        window_ticks: 16,
        start_rate: 0.25,
        mean_burst_windows: 2.0,
        max_burst_windows: 4,
        outage_fault_rate: 1.0,
    };
    QueryStack {
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
    }
}

/// Algorithm `ai`'s query and slice under case `c`.
fn query_of(c: &Case, ai: u64, algorithm: Box<dyn Algorithm>) -> (QuerySpec, Slice) {
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
    (q, slice)
}

/// Checks case `c` on all three backends; the churned one applies a batch
/// every `churn_every` fetches.
fn check_case(c: Case, churn_every: u64) -> Result<Coverage, TestCaseError> {
    // Minimum degree 6, so the few edge deletions a slice's churn
    // applies do not leave a walk standing on an isolated node.
    let g = labeled_ba(c.nodes, 6, c.graph_seed);
    let stack = stack_of(&c);
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
        let (q, slice) = query_of(&c, ai as u64, algorithm);
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
            || ChurnEvery::new(&g, c.graph_seed, churn_every, static_adjacency),
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
        }, churn_every)?;
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
        };
        let got = check_case(c, 3).unwrap_or_else(|e| panic!("{c:?}: {e:?}"));
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

/// One run of a query: what [`QueryStack::run`] reports, and the estimate,
/// fault counters and next RNG draw of the same run on
/// [`QueryStack::session`], driven by hand.
#[derive(Debug, PartialEq)]
struct Run {
    outcome: OutcomeBits,
    ticks_exceeded: bool,
    estimate: Result<u64, EstimateError>,
    faults: FaultStats,
    next_draw: u64,
}

fn run_on<B: OsnBackend>(shared: &B, stack: &QueryStack, q: &QuerySpec, slice: Slice) -> Run {
    let got = stack.run(shared, q, slice);
    let session = stack.session(shared, q, slice);
    let mut rng = StdRng::seed_from_u64(slice.rng_seed);
    let estimate = q
        .algorithm
        .estimate(&session, q.target, q.budget, &stack.run_config, &mut rng);
    Run {
        outcome: OutcomeBits::from(&got.outcome),
        ticks_exceeded: got.ticks_exceeded,
        estimate: estimate.map(f64::to_bits),
        faults: session.backend().fault_stats(),
        next_draw: rng.next_u64(),
    }
}

/// Everything a backend tells a slice: `|V|`, `|E|`, the degree bound,
/// and every node's lists and epochs.
#[derive(Debug, PartialEq)]
struct Reads {
    num_nodes: usize,
    num_edges: usize,
    max_degree_bound: usize,
    nodes: Vec<(Vec<NodeId>, Vec<LabelId>, Epoch, Epoch)>,
}

fn reads<B: OsnBackend>(b: &B) -> Reads {
    Reads {
        num_nodes: b.num_nodes(),
        num_edges: b.num_edges(),
        max_degree_bound: b.max_degree_bound(),
        nodes: (0..b.num_nodes() as u32)
            .map(NodeId)
            .map(|u| {
                (
                    b.fetch_neighbors(u).to_vec(),
                    b.fetch_labels(u).to_vec(),
                    b.epoch_of(u),
                    b.label_epoch_of(u),
                )
            })
            .collect(),
    }
}

/// Totals over a view case's runs, to show which paths ran.
#[derive(Default)]
struct ViewCoverage {
    edges_deleted: u64,
    /// Comparisons at which the degree bound exceeded every current
    /// degree, so a view reporting the current maximum would differ.
    bound_above_max: u64,
    /// Comparisons at which some epoch had moved off `Epoch::STATIC`.
    epochs_moved: u64,
    breaker_opens: u64,
    budget_cuts: u64,
    tick_cuts: u64,
}

/// The snapshot a `ChurnOsn` should serve, read straight off a
/// `MutableGraph` churned in lock step with it: the oracle for the reads
/// a view and the per-call path share.
struct Snapshot<'m> {
    graph: &'m MutableGraph,
    report_epochs: bool,
}

impl OsnBackend for Snapshot<'_> {
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn max_degree_bound(&self) -> usize {
        self.graph.max_degree_bound()
    }

    fn fetch_neighbors(&self, u: NodeId) -> SliceRef<'_, NodeId> {
        SliceRef::Borrowed(self.graph.neighbors(u))
    }

    fn fetch_labels(&self, u: NodeId) -> SliceRef<'_, LabelId> {
        SliceRef::Borrowed(self.graph.labels(u))
    }

    fn epoch_of(&self, u: NodeId) -> Epoch {
        match self.report_epochs {
            true => self.graph.epoch_of(u),
            false => Epoch::STATIC,
        }
    }

    fn label_epoch_of(&self, u: NodeId) -> Epoch {
        match self.report_epochs {
            true => self.graph.label_epoch_of(u),
            false => Epoch::STATIC,
        }
    }
}

/// Runs every algorithm of case `c` over one `ChurnOsn`, advancing its
/// clock by the next of `advances` before each, once over a view and once
/// per call, and checks that both match the lock-stepped snapshot.
fn check_view_case(
    c: Case,
    report_epochs: bool,
    advances: &[u64],
) -> Result<ViewCoverage, TestCaseError> {
    let g = labeled_ba(c.nodes, 6, c.graph_seed);
    let stack = stack_of(&c);
    let cfg = ChurnConfig {
        seed: c.graph_seed,
        events_per_batch: (c.nodes / 4).max(1),
        batch_interval_ticks: 1,
        region_shift: 2,
    };
    let churn = ChurnOsn::new(&g, cfg).set_report_epochs(report_epochs);
    let mut graph = MutableGraph::new(&g, cfg.region_shift);
    let mut schedule = ChurnSchedule::new(cfg);
    let mut stats = ChurnStats::default();
    let mut cov = ViewCoverage::default();
    let mut tick = 0;
    for (ai, algorithm) in algorithms::all_paper(0.2, 0.5).into_iter().enumerate() {
        tick += advances[ai % advances.len()];
        churn.advance_to(tick);
        schedule.advance_to(&mut graph, tick, &mut stats);
        prop_assert_eq!(churn.churn_stats(), stats);
        let snapshot = Snapshot {
            graph: &graph,
            report_epochs,
        };
        let (q, slice) = query_of(&c, ai as u64, algorithm);
        let abbrev = q.algorithm.abbrev();

        let want = run_on(&snapshot, &stack, &q, slice);
        let viewed = run_on(&churn.view(), &stack, &q, slice);
        let per_call = run_on(&churn, &stack, &q, slice);
        prop_assert_eq!(&viewed, &per_call, "{}", abbrev);
        prop_assert_eq!(&viewed, &want, "{}", abbrev);
        prop_assert_eq!(churn.churn_stats(), stats, "{}: a run churned", abbrev);

        let view = churn.view();
        let seen = reads(&view);
        drop(view);
        let truth = reads(&snapshot);
        prop_assert_eq!(&seen, &truth, "{}", abbrev);
        prop_assert_eq!(&reads(&churn), &truth, "{}", abbrev);

        let max_degree = truth.nodes.iter().map(|n| n.0.len()).max().unwrap_or(0);
        cov.bound_above_max += u64::from(truth.max_degree_bound > max_degree);
        cov.epochs_moved += u64::from(
            truth
                .nodes
                .iter()
                .any(|n| n.2 != Epoch::STATIC || n.3 != Epoch::STATIC),
        );
        cov.breaker_opens += want.outcome.breaker_opens;
        cov.budget_cuts += u64::from(want.outcome.budget_exhausted);
        cov.tick_cuts += u64::from(want.ticks_exceeded);
    }
    cov.edges_deleted = stats.edges_deleted;
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_churn_view_runs_exactly_what_per_call_reads_run(
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
        report_epochs in any::<bool>(),
        advances in proptest::collection::vec(0u64..4, 1..10),
    ) {
        check_view_case(Case {
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
        }, report_epochs, &advances)?;
    }
}

/// The view property is only as strong as the states it compares: churn
/// deletes edges, leaves the degree bound above every current degree
/// (where a recomputed maximum would differ), and moves epochs; the
/// breaker opens, and the budget and the tick ceiling each cut runs.
#[test]
fn fixed_view_cases_reach_deletes_a_stale_bound_and_both_cuts() {
    let mut cov = ViewCoverage::default();
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
        };
        let got =
            check_view_case(c, seed < 2, &[1, 2, 0, 3]).unwrap_or_else(|e| panic!("{c:?}: {e:?}"));
        cov.edges_deleted += got.edges_deleted;
        cov.bound_above_max += got.bound_above_max;
        cov.epochs_moved += got.epochs_moved;
        cov.breaker_opens += got.breaker_opens;
        cov.budget_cuts += got.budget_cuts;
        cov.tick_cuts += got.tick_cuts;
    }
    assert!(cov.edges_deleted > 0, "no edge was deleted");
    assert!(
        cov.bound_above_max > 0,
        "the bound never exceeded the maximum"
    );
    assert!(cov.epochs_moved > 0, "no epoch moved");
    assert!(cov.breaker_opens > 0, "no breaker opened");
    assert!(cov.budget_cuts > 0, "no run hit its hard budget");
    assert!(cov.tick_cuts > 0, "no run hit its tick ceiling");
}
