//! `interactive-paged`: one client in a closed loop (the next query goes
//! out when the previous one returns) against an `Engine` that lives for
//! a pass of the query stream, over the paged graph in a tight buffer
//! pool, with a bounded shared L2.
//! The shared L2, `PagedGraphOsn` and the `BufferPool` do the work; the
//! scheduler and admission are not on the path. A latency-only fault
//! layer under the L2 bills OSN ticks per backend fetch and injects no
//! faults.

use std::path::Path;
use std::time::Instant;

use labelcount_core::{algorithms, Algorithm, Engine, EstimateError, RunConfig};
use labelcount_graph::io::load_graph;
use labelcount_graph::{EvictionPolicy, LabeledGraph, PagedCsrWriter, PoolConfig};
use labelcount_osn::{
    AdversarialOsn, CacheConfig, CachedOsn, GraphOsn, OsnApi, PagedGraphOsn, ResilienceConfig,
    RetryPolicy,
};
use labelcount_stats::replication_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{latency_only, stream, target, write_graph, WorkDir};
use crate::ladder::{self, Rung};
use crate::measure::{percentile, roster_nrmse};
use crate::output::{Metrics, RunResult};
use crate::pricing::UnitCosts;
use crate::procfs::{self, ThreadSampler, Window};
use crate::replay::{Counts, Knobs};
use crate::scheduled::Setup;
use crate::trace::{self, Spans, TimedApi, TimedBackend};
use crate::{pricing, probes, Args};

struct Params {
    nodes: usize,
    m: usize,
    /// Buffer-pool frames (4 KiB pages).
    frames: usize,
    /// Shared L2 entries per endpoint kind.
    l2_capacity: usize,
    budget: usize,
    burn_in: usize,
    /// Queries in one pass of the closed loop; every pass sends them all.
    det_queries: usize,
    setups: usize,
    /// Queries re-run on an in-RAM engine to check the paged answers.
    check_sample: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            nodes: 3_000,
            m: 3,
            frames: 16,
            l2_capacity: 512,
            budget: 100,
            burn_in: 50,
            det_queries: 30,
            setups: 2,
            check_sample: 4,
        }
    } else {
        Params {
            nodes: 200_000,
            m: 6,
            frames: 16,
            l2_capacity: 16_384,
            budget: 1_000,
            burn_in: 200,
            det_queries: 1_100,
            setups: 7,
            check_sample: 16,
        }
    }
}

type Stack = AdversarialOsn<PagedGraphOsn>;

fn run_config(p: &Params) -> RunConfig {
    RunConfig {
        burn_in: p.burn_in,
        thinning_frac: 0.0,
    }
}

fn pool(p: &Params) -> PoolConfig {
    PoolConfig::bounded(p.frames, EvictionPolicy::Lru)
}

fn l2(p: &Params) -> CacheConfig {
    CacheConfig::builder().capacity(p.l2_capacity).build()
}

fn open_paged(path: &Path, p: &Params) -> Result<PagedGraphOsn, String> {
    PagedGraphOsn::open(path, pool(p)).map_err(|e| format!("opening the paged graph: {e:?}"))
}

fn open_stack(path: &Path, p: &Params, seed: u64) -> Result<Stack, String> {
    Ok(AdversarialOsn::new(
        open_paged(path, p)?,
        latency_only(seed),
        RetryPolicy::default(),
    ))
}

/// The `i`-th query of the stream: an estimator of the Table-2 roster
/// and its RNG seed.
fn query(roster: &[Box<dyn Algorithm>], seed: u64, i: usize) -> (&dyn Algorithm, u64) {
    (
        roster[i % roster.len()].as_ref(),
        replication_seed(replication_seed(seed, stream::REQUESTS), i as u64),
    )
}

/// One pass of the stream: each query's result, billed ticks and logical
/// calls.
#[derive(Default)]
struct Pass {
    results: Vec<Result<f64, EstimateError>>,
    ticks: Vec<f64>,
    logical: Vec<u64>,
}

impl Pass {
    fn same_as(&self, other: &Pass) -> bool {
        self.results
            .iter()
            .map(bits)
            .eq(other.results.iter().map(bits))
            && self.logical == other.logical
            && self.ticks == other.ticks
    }
}

/// What the closed loop saw.
struct Loop {
    /// Each query's fastest pass, in milliseconds.
    wall_ms: Vec<f64>,
    /// The first pass; every later pass must equal it.
    first: Pass,
    passes_agree: bool,
    /// Queries sent over all passes.
    queries: usize,
    wall_s: f64,
    cpu_s: f64,
    threads: u64,
}

/// Sends the stream of `det_queries` queries in passes until `window_s`
/// has passed and at least `min_passes` ran. Each pass runs on a fresh
/// engine, so every pass does the same work (checked), and each query
/// keeps its fastest pass: a query that waited for a CPU the machine
/// gave to someone else is timed by another pass. Returns the last
/// pass's engine with the loop.
fn closed_loop(
    path: &Path,
    p: &Params,
    seed: u64,
    window_s: f64,
    min_passes: usize,
) -> Result<(Loop, Engine<'static, Stack>), String> {
    let roster = algorithms::all_paper(0.2, 0.5);
    let cfg = run_config(p);
    let mut l = Loop {
        wall_ms: vec![f64::INFINITY; p.det_queries],
        first: Pass::default(),
        passes_agree: true,
        queries: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        threads: 0,
    };
    let (mut passes, mut engine) = (0, None);
    let sampler = ThreadSampler::start();
    let started = Instant::now();
    while passes < min_passes || started.elapsed().as_secs_f64() < window_s {
        drop(engine.take()); // one engine in memory at a time
        let e = Engine::on_backend_with_config(open_stack(path, p, seed)?, l2(p));
        let mut pass = Pass::default();
        let window = Window::start();
        for (i, fastest) in l.wall_ms.iter_mut().enumerate() {
            let (alg, qseed) = query(&roster, seed, i);
            let ticks0 = e.backend().fault_stats().latency_ticks;
            let calls0 = e.stats().logical_calls();
            let t = Instant::now();
            let r = e.estimate(alg, target(), p.budget, &cfg, qseed);
            *fastest = fastest.min(t.elapsed().as_secs_f64() * 1e3);
            pass.ticks
                .push((e.backend().fault_stats().latency_ticks - ticks0) as f64);
            pass.logical.push(e.stats().logical_calls() - calls0);
            pass.results.push(r);
        }
        let (wall, cpu) = window.stop();
        l.wall_s += wall;
        l.cpu_s += cpu;
        l.queries += p.det_queries;
        if passes == 0 {
            l.first = pass;
        } else {
            l.passes_agree &= pass.same_as(&l.first);
        }
        passes += 1;
        engine = Some(e);
    }
    l.threads = sampler.finish();
    eprintln!("closed loop: {} queries x {passes} passes", p.det_queries);
    Ok((l, engine.expect("at least one pass ran")))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let p = params(args.tiny);
    let dir = WorkDir::create("interactive-paged").map_err(|e| e.to_string())?;
    let files = write_graph(dir.path(), args.seed, p.nodes, p.m).map_err(|e| e.to_string())?;
    let paged_path = dir.path().join("graph.paged");

    // Set-up: load the edge list, write the paged file, open it under the
    // tight pool, build the engine. The in-RAM graph is dropped once the
    // paged file exists; serving never touches it. The closed loop builds
    // its own engines.
    let mut setup = Setup::default();
    for _ in 0..p.setups {
        let t = Instant::now();
        let g = load_graph(&files.edges, Some(&files.labels)).map_err(|e| e.to_string())?;
        let load = t.elapsed().as_secs_f64();
        let t = Instant::now();
        PagedCsrWriter::new()
            .write(&g, &paged_path)
            .map_err(|e| e.to_string())?;
        let write = t.elapsed().as_secs_f64();
        drop(g);
        let t = Instant::now();
        let engine =
            Engine::on_backend_with_config(open_stack(&paged_path, &p, args.seed)?, l2(&p));
        setup.push(load, write, t.elapsed().as_secs_f64());
        drop(engine);
    }
    // Set-up held the whole graph in RAM; the peak that matters here is
    // the serving one, over the pool and the L2.
    procfs::reset_peak_rss();

    let mut m = Metrics::default();
    if !args.trace {
        let (l, engine) = closed_loop(&paged_path, &p, args.seed, args.seconds, 2)?;
        let peak_rss = procfs::peak_rss_mb();
        drop(engine);
        let roster = algorithms::all_paper(0.2, 0.5);
        let ok: Vec<(&'static str, f64)> = l
            .first
            .results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let e = r.as_ref().ok().copied().filter(|e| e.is_finite())?;
                Some((roster[i % roster.len()].abbrev(), e))
            })
            .collect();
        let results = &l.first.results;
        let errors = results.len() - ok.len();
        let queries = l.queries as f64;
        setup.put(&mut m);
        m.put("queries_per_s", queries / l.wall_s);
        m.put("cpu_ms_per_query", l.cpu_s * 1e3 / queries);
        m.put("query_wall_ms_p50", percentile(&l.wall_ms, 0.5, 0)?);
        m.put(
            "query_wall_ms_p99",
            percentile(&l.wall_ms, 0.99, args.min_tail())?,
        );
        m.put("latency_ticks_p50", percentile(&l.first.ticks, 0.5, 0)?);
        m.put(
            "latency_ticks_p99",
            percentile(&l.first.ticks, 0.99, args.min_tail())?,
        );
        m.put("completed_ratio", ok.len() as f64 / results.len() as f64);
        m.put(
            "charged_calls_per_query",
            l.first.logical.iter().sum::<u64>() as f64 / ok.len().max(1) as f64,
        );
        m.put("nrmse", roster_nrmse(&ok, files.truth));
        m.put("peak_rss_mb", peak_rss);

        // The paged answers must be the in-RAM answers, bit for bit.
        let g = load_graph(&files.edges, Some(&files.labels)).map_err(|e| e.to_string())?;
        let same = same_as_in_ram(&g, &p, args.seed, results);
        let sampled = p.check_sample.min(results.len());
        eprintln!(
            "checks: passes agree {}, {same}/{sampled} sampled answers equal the in-RAM engine's, {errors} errors",
            l.passes_agree
        );
        return Ok(RunResult {
            correct: l.passes_agree && same == sampled,
            attempted: l.queries as u64,
            failed: errors as u64,
            metrics: m,
            untrusted: procfs::verdict(l.cpu_s / l.wall_s, l.threads),
        });
    }

    // Traced run: the untraced loop sets the phase time and the counts,
    // the traced loop over a fresh stack prices the layers.
    let (l, engine) = closed_loop(&paged_path, &p, args.seed, 0.0, 1)?;
    let calls = engine.stats();
    let faults = engine.backend().fault_stats();
    let paging = engine.backend().inner().paging_stats();
    drop(engine);
    let spans = TraceSpans::default();
    let traced = traced_loop(&paged_path, &p, args.seed, &spans)?;
    let untraced = &l.first;
    let matched = traced
        .results
        .iter()
        .zip(untraced.results.iter().zip(&untraced.logical))
        .filter(|((r, calls), (u, ucalls))| bits(r) == bits(u) && calls == *ucalls)
        .count();
    let mirrored = matched == untraced.results.len();
    eprintln!(
        "checks: traced loop reproduces {matched}/{} queries",
        untraced.results.len()
    );

    let g = load_graph(&files.edges, Some(&files.labels)).map_err(|e| e.to_string())?;
    let osn = GraphOsn::new(&g);
    let k = Knobs {
        faults: latency_only(args.seed),
        retry: RetryPolicy::default(),
        resilience: ResilienceConfig::default(),
        run_config: run_config(&p),
        replicates: 1,
    };
    let warm = CachedOsn::with_config(open_stack(&paged_path, &p, args.seed)?, l2(&p));
    let probe_paged = open_paged(&paged_path, &p)?;
    let costs = UnitCosts {
        l1_hit: probes::l1_hit_ns(&warm),
        l2_hit: probes::l2_hit_ns(&warm),
        l2_miss: probes::l2_miss_ns(&osn, l2(&p), args.seed),
        fault_fetch: probes::fault_fetch_ns(&osn, &k, args.seed),
        ram_fetch: probes::fetch_ns(&osn, args.seed),
        decide: 0.0,
        slice_stack: 0.0,
        span_overhead: trace::span_overhead_ns(),
    };
    let paged_fetch = probes::paged_fetch_ns(&probe_paged);
    let pool_fault = probes::pool_fault_ns(&probe_paged, p.frames);
    let counts = Counts {
        logical: calls.logical_calls(),
        l1_hits: calls.l1_hits(),
        misses: calls.misses(),
        l1_stale: calls.l1_stale_evictions,
        l2_stale: calls.l2_stale_evictions,
        ..Counts::default()
    };
    let self_ns = pricing::self_ns_per_call(traced.estimate_ns, &spans.api, costs.span_overhead);
    let mut rungs = pricing::rungs(&costs, &counts, self_ns, 0, 0);
    rungs.push(Rung::new(
        "paged_fetch",
        counts.misses as f64,
        paged_fetch - costs.ram_fetch,
    ));
    rungs.push(Rung::new(
        "page_fault",
        paging.page_reads as f64,
        pool_fault,
    ));
    let phase_ms = l.cpu_s * 1e3;
    ladder::show(&rungs, phase_ms);
    let settled = ladder::settle(&rungs, phase_ms);

    for name in [
        "admission.decisions",
        "admission.shed",
        "admission.quota_exhausted",
        "admission.throttled",
        "scheduler.slices",
        "scheduler.tasks_per_loop_max",
        "scheduler.cancellations",
        "scheduler.deadline_hits",
        "scheduler.priority_inversions",
        "faults.retry_charges",
        "faults.rate_limited",
        "faults.transient_errors",
        "faults.bursts",
        "faults.breaker_opens",
        "faults.stale_served",
        "backend.churn_fetch_ns",
        "churn.batches",
        "churn.events",
        "churn.avoided_invalidations",
        "churn.apply_ns_per_event",
    ] {
        m.put(name, 0.0);
    }
    setup.put(&mut m);
    pricing::put_layers(&mut m, &costs, &counts, self_ns, faults.attempts, &settled);
    m.put(
        "estimator.logical_calls_per_query",
        counts.logical as f64 / l.queries as f64,
    );
    m.put("walk.step_ns", probes::walk_step_ns(&warm, args.seed));
    m.put("faults.backend_attempts", faults.attempts as f64);
    m.put("backend.paged_fetch_ns", paged_fetch);
    m.put("pool.page_reads", paging.page_reads as f64);
    m.put("pool.hits", paging.pool_hits as f64);
    m.put("pool.hit_ratio", paging.hit_rate());
    m.put("pool.evictions", paging.evictions as f64);
    m.put("pool.pinned_peak", paging.pinned_peak as f64);
    m.put("pool.fault_ns", pool_fault);
    m.put("process.cpu_util", l.cpu_s / l.wall_s);
    m.put("process.threads", l.threads as f64);
    m.put("ladder.explained_ratio", settled.explained_ratio);
    m.put(
        "trace.overhead_ratio",
        traced.wall_s / l.wall_s.max(f64::MIN_POSITIVE) - 1.0,
    );
    m.put(
        "replay.logical_match_ratio",
        matched as f64 / l.queries.max(1) as f64,
    );
    Ok(RunResult {
        correct: mirrored,
        attempted: l.queries as u64,
        failed: 0,
        metrics: m,
        untrusted: None,
    })
}

fn bits(r: &Result<f64, EstimateError>) -> Option<u64> {
    r.as_ref().ok().map(|e| e.to_bits())
}

/// How many of the first sampled answers an in-RAM engine reproduces.
fn same_as_in_ram(
    g: &LabeledGraph,
    p: &Params,
    seed: u64,
    paged: &[Result<f64, EstimateError>],
) -> usize {
    let roster = algorithms::all_paper(0.2, 0.5);
    let engine = Engine::new(g);
    let cfg = run_config(p);
    paged
        .iter()
        .take(p.check_sample)
        .enumerate()
        .filter(|(i, r)| {
            let (alg, qseed) = query(&roster, seed, *i);
            let ram = engine.estimate(alg, target(), p.budget, &cfg, qseed);
            bits(&ram) == bits(r) && ram.is_ok() == r.is_ok()
        })
        .count()
}

/// Spans of the traced loop, one per boundary.
#[derive(Default)]
struct TraceSpans {
    api: Spans,
    faults: Spans,
    backend: Spans,
}

/// What the traced loop returns besides its spans.
struct Traced {
    /// Each query's result and logical calls.
    results: Vec<(Result<f64, EstimateError>, u64)>,
    /// Wall nanoseconds inside `Algorithm::estimate`.
    estimate_ns: u64,
    wall_s: f64,
}

/// The first `det_queries` queries again, on a fresh engine whose stack
/// carries timing decorators at the fault-layer and backend boundaries,
/// each query's session wrapped in [`TimedApi`]. The engine's own
/// `estimate` is `session()` + a seeded `StdRng` + `Algorithm::estimate`,
/// which this loop spells out to reach the session.
fn traced_loop(path: &Path, p: &Params, seed: u64, spans: &TraceSpans) -> Result<Traced, String> {
    let backend = TimedBackend::new(
        AdversarialOsn::new(
            TimedBackend::new(open_paged(path, p)?, &spans.backend),
            latency_only(seed),
            RetryPolicy::default(),
        ),
        &spans.faults,
    );
    let engine = Engine::on_backend_with_config(backend, l2(p));
    let roster = algorithms::all_paper(0.2, 0.5);
    let cfg = run_config(p);
    let mut estimate_ns = 0;
    let started = Instant::now();
    let results = (0..p.det_queries)
        .map(|i| {
            let (alg, qseed) = query(&roster, seed, i);
            let session = engine.session();
            let mut rng = StdRng::seed_from_u64(qseed);
            let t = Instant::now();
            let r = alg.estimate(
                &TimedApi::new(&session, &spans.api),
                target(),
                p.budget,
                &cfg,
                &mut rng,
            );
            estimate_ns += t.elapsed().as_nanos() as u64;
            (r, session.api_calls())
        })
        .collect();
    Ok(Traced {
        results,
        estimate_ns,
        wall_s: started.elapsed().as_secs_f64(),
    })
}
