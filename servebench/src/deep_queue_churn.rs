//! `deep-queue-churn`: one churned graph key on one shard and one worker,
//! fed thousands of small-budget requests from skewed tenants faster than
//! the OSN bills them, so a backlog builds. Deadlines, priorities,
//! per-tenant quotas and token buckets, hostile faults with short bursts,
//! a circuit breaker, a retry budget and stale serving are all on. The
//! scheduler's per-slice scans over the growing task list do most of the
//! work; admission, resilience and churn ride along; each query's own
//! estimator work is small.

use std::time::Instant;

use labelcount_core::RunConfig;
use labelcount_graph::io::load_graph;
use labelcount_graph::{ChurnConfig, GroundTruth, LabeledGraph};
use labelcount_osn::{
    BreakerConfig, BurstConfig, CacheConfig, CachedOsn, ChurnOsn, FaultConfig, GraphOsn,
    ResilienceConfig, RetryPolicy,
};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy, SchedulePolicy,
    ServiceWorkload, ShardedService,
};
use labelcount_stats::replication_seed;

use crate::inputs::{stream, target, write_graph, WorkDir};
use crate::ladder::{self, Rung};
use crate::measure::report_digest;
use crate::output::{Metrics, RunResult};
use crate::pricing::{self, UnitCosts};
use crate::replay::{Knobs, ReplaySpans};
use crate::scheduled::{self, Setup};
use crate::{probes, procfs, trace, Args};

struct Params {
    nodes: usize,
    m: usize,
    requests: usize,
    solo: usize,
    /// Times the solo stream is sent: its requests are short, so more
    /// passes than `batch-ram` to span a comparable stretch of time.
    solo_passes: usize,
    budget: usize,
    burn_in: usize,
    replicates: u64,
    /// Mean virtual ticks between arrivals, well under a query's bill.
    gap: u64,
    /// Relative deadline of every request, in ticks.
    deadline: u64,
    /// Fraction of `|V|` churned per batch, and the batch interval.
    churn_rate: f64,
    churn_interval: u64,
    tenants: usize,
    /// Charged calls each tenant may spend over the stream.
    quota: u64,
    rate_limit: RateLimit,
    admission: AdmissionConfig,
    setups: usize,
    /// Completed queries the traced run replays to price the caches.
    replay_sample: usize,
}

fn params(tiny: bool) -> Params {
    let admission = AdmissionConfig {
        queue_capacity: 64,
        drain_every: 1,
        shed_start: 0.75,
        service_ticks_per_item: 1_600,
        max_wait_ticks: Some(30_000),
    };
    if tiny {
        Params {
            nodes: 2_000,
            m: 3,
            requests: 60,
            solo: 12,
            solo_passes: 3,
            budget: 40,
            burn_in: 20,
            replicates: 2,
            gap: 100,
            deadline: 3_000,
            churn_rate: 0.05,
            churn_interval: 1_000,
            tenants: 4,
            quota: 2_000,
            rate_limit: RateLimit {
                capacity: 2_000,
                refill_interval_ticks: 1,
            },
            admission,
            setups: 2,
            replay_sample: 10,
        }
    } else {
        Params {
            nodes: 50_000,
            m: 6,
            requests: 3_500,
            solo: 1_100,
            solo_passes: 9,
            budget: 200,
            burn_in: 50,
            replicates: 4,
            gap: 1_500,
            deadline: 20_000,
            churn_rate: 0.05,
            churn_interval: 100_000,
            tenants: 8,
            quota: 6_000_000,
            rate_limit: RateLimit {
                capacity: 3_000,
                refill_interval_ticks: 2,
            },
            admission,
            setups: 7,
            replay_sample: 300,
        }
    }
}

const KEY: GraphKey = GraphKey(1);
/// Share of requests from the heaviest tenant.
const TENANT_SKEW: f64 = 0.5;
/// Priority mix: 25% high, 50% normal, 25% low.
const HIGH: f64 = 0.25;
const LOW: f64 = 0.25;

fn knobs(p: &Params, seed: u64) -> Knobs {
    Knobs {
        faults: FaultConfig::hostile(replication_seed(seed, stream::FAULTS), 0.1)
            .with_burst(BurstConfig::short()),
        retry: RetryPolicy::default(),
        resilience: ResilienceConfig {
            breaker: Some(BreakerConfig::default()),
            retry_budget: Some(64),
            serve_stale: true,
        },
        run_config: RunConfig {
            burn_in: p.burn_in,
            thinning_frac: 0.0,
        },
        replicates: p.replicates,
    }
}

fn churn_config(p: &Params, seed: u64) -> ChurnConfig {
    ChurnConfig::from_rate(
        replication_seed(seed, stream::CHURN),
        p.churn_rate,
        p.nodes,
        p.churn_interval,
    )
}

fn workload(p: &Params, k: &Knobs, seed: u64, n: usize) -> ServiceWorkload {
    ServiceWorkload::mixed_multi_tenant(
        n,
        &[KEY],
        p.tenants,
        TENANT_SKEW,
        target(),
        p.budget,
        replication_seed(seed, stream::REQUESTS),
        k.run_config,
    )
    .builder()
    .faults(k.faults, k.retry)
    .resilience(k.resilience)
    .admission(p.admission)
    .quotas(QuotaPolicy::uniform(p.quota))
    .rate_limits(RateLimitPolicy::uniform(p.rate_limit))
    .schedule(
        SchedulePolicy::default()
            .with_interarrival(p.gap)
            .with_deadline(p.deadline)
            .with_priorities(HIGH, LOW)
            .with_replicates(p.replicates as usize),
    )
    .build()
}

fn service(g: &LabeledGraph, cfg: ChurnConfig, shards: usize) -> ShardedService<'static> {
    let mut s = ShardedService::new(shards, 0);
    s.register_churn(KEY, ChurnOsn::new(g, cfg), CacheConfig::default());
    s
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let p = params(args.tiny);
    let k = knobs(&p, args.seed);
    let cfg = churn_config(&p, args.seed);
    let dir = WorkDir::create("deep-queue-churn").map_err(|e| e.to_string())?;
    let files = write_graph(dir.path(), args.seed, p.nodes, p.m).map_err(|e| e.to_string())?;
    procfs::reset_peak_rss();

    let mut setup = Setup::default();
    let mut graph = None;
    for _ in 0..p.setups {
        drop(graph.take());
        let t = Instant::now();
        let g = load_graph(&files.edges, Some(&files.labels)).map_err(|e| e.to_string())?;
        let load = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(service(&g, cfg, 1));
        setup.push(load, 0.0, t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up ran");

    // Churn is stateful, so every batch gets a freshly registered service.
    let make_service = || service(&g, cfg, 1);
    let make_workload = || workload(&p, &k, args.seed, p.requests);
    let (window_s, min_timed) = if args.trace {
        (0.0, 1)
    } else {
        (args.seconds * 0.7, 2)
    };
    let batches = scheduled::run_batches(&make_service, &make_workload, true, window_s, min_timed);
    let report = &batches.first;
    let summary = scheduled::summarize(report, p.replicates);
    let churned = batches
        .service
        .churn_engine(KEY)
        .expect("the key is registered as churned")
        .backend();
    let churn_stats = churned.churn_stats();
    let avoided = churned.avoided_neighbor_invalidations();
    let mut correct = batches.digests_agree && summary.statuses_add_up;
    let mut m = Metrics::default();

    if !args.trace {
        // Exact F of the snapshot the stream ends on.
        let truth = GroundTruth::compute(&churned.ground_truth_snapshot(), target()).f as f64;
        let solo = scheduled::solo_ms(
            &batches.service,
            &|| workload(&p, &k, args.seed, p.solo),
            p.solo_passes,
        );
        scheduled::end_to_end(
            &mut m,
            &setup,
            &batches,
            &solo,
            &summary,
            truth,
            args.min_tail(),
        )?;
        // Placement must not change the answer: two shards.
        let sharded = service(&g, cfg, 2).run_scheduled(make_workload(), 1);
        let same_at_two_shards = report_digest(&sharded) == report_digest(report);
        correct &= same_at_two_shards;
        eprintln!(
            "checks: batches agree {}, statuses add up {}, 2-shard digest equal {}",
            batches.digests_agree, summary.statuses_add_up, same_at_two_shards
        );
        return Ok(RunResult {
            correct,
            attempted: batches.submitted + (p.solo * p.solo_passes) as u64,
            failed: summary.unanswered,
            metrics: m,
            // The main thread waits in `run_scheduled` while the shard
            // thread works.
            untrusted: procfs::verdict(batches.cpu_util, batches.threads.saturating_sub(1)),
        });
    }

    // Traced run. The deadlines, quotas and churn timing of the service
    // path cannot be replayed exactly, so a sample of completed queries
    // is replayed on a fresh churned snapshot (advanced to each arrival)
    // and its cache counts are scaled to the report's finished slices. The
    // match ratio says how closely the sample reproduces the service.
    let wl = make_workload();
    let replay_osn = ChurnOsn::new(&g, cfg);
    let t = Instant::now();
    let plain = pricing::mirror(
        &replay_osn,
        Some(&replay_osn),
        &wl,
        report,
        &k,
        p.replay_sample,
        None,
    );
    let plain_s = t.elapsed().as_secs_f64();
    let replay_osn = ChurnOsn::new(&g, cfg);
    let spans = ReplaySpans::default();
    let t = Instant::now();
    let traced = pricing::mirror(
        &replay_osn,
        Some(&replay_osn),
        &wl,
        report,
        &k,
        p.replay_sample,
        Some(&spans),
    );
    let traced_s = t.elapsed().as_secs_f64();
    // Tracing must not change what the replay computes.
    correct &= traced.matched == plain.matched && traced.counts.logical == plain.counts.logical;
    eprintln!(
        "checks: batches agree {}, statuses add up {}, replay reproduces {}/{}",
        batches.digests_agree, summary.statuses_add_up, traced.matched, traced.checked
    );

    let osn = GraphOsn::new(&g);
    let probe_churn = ChurnOsn::new(&g, cfg);
    let warm = CachedOsn::with_config(&probe_churn, CacheConfig::default());
    let costs = UnitCosts {
        l1_hit: probes::l1_hit_ns(&warm),
        l2_hit: probes::l2_hit_ns(&warm),
        l2_miss: probes::l2_miss_ns(&osn, CacheConfig::default(), args.seed),
        fault_fetch: probes::fault_fetch_ns(&osn, &k, args.seed),
        ram_fetch: probes::fetch_ns(&osn, args.seed),
        decide: probes::admission_ns(
            &pricing::arrivals(&wl, &[KEY]),
            1,
            p.admission,
            &QuotaPolicy::uniform(p.quota),
            &RateLimitPolicy::uniform(p.rate_limit),
            wl.seed,
        ),
        slice_stack: probes::slice_stack_ns(&osn, &k),
        span_overhead: trace::span_overhead_ns(),
    };
    let churn_fetch = probes::fetch_ns(&probe_churn, args.seed);
    let apply_ns = probes::churn_apply_ns(&g, cfg, churn_stats.batches.max(1));
    // Per-slice costs spread over every finished slice, those of queries a
    // deadline later cancelled included: their work is in the phase time.
    let scale = summary.slices as f64 / traced.counts.slices.max(1) as f64;
    let counts = traced.counts.scaled(scale);
    let self_ns = pricing::estimator_self_ns(&traced.counts, &spans, costs.span_overhead);
    let mut rungs = pricing::rungs(&costs, &counts, self_ns, summary.submitted, summary.slices);
    rungs.push(Rung::new(
        "churn_fetch",
        counts.misses as f64,
        churn_fetch - costs.ram_fetch,
    ));
    rungs.push(Rung::new(
        "churn_apply",
        churn_stats.events_drawn as f64,
        apply_ns,
    ));
    let phase_ms = batches.phase_cpu_ms;
    ladder::show(&rungs, phase_ms);
    let settled = ladder::settle(&rungs, phase_ms);

    for name in [
        "backend.paged_fetch_ns",
        "pool.page_reads",
        "pool.hits",
        "pool.hit_ratio",
        "pool.evictions",
        "pool.pinned_peak",
        "pool.fault_ns",
    ] {
        m.put(name, 0.0);
    }
    scheduled::report_layers(&mut m, report, &summary);
    setup.put(&mut m);
    pricing::put_layers(
        &mut m,
        &costs,
        &counts,
        self_ns,
        summary.backend_attempts,
        &settled,
    );
    m.put("walk.step_ns", probes::walk_step_ns(&warm, args.seed));
    m.put("backend.churn_fetch_ns", churn_fetch);
    m.put("churn.batches", churn_stats.batches as f64);
    m.put("churn.events", churn_stats.events_drawn as f64);
    m.put("churn.avoided_invalidations", avoided as f64);
    m.put("churn.apply_ns_per_event", apply_ns);
    m.put("process.cpu_util", batches.cpu_util);
    m.put("process.threads", batches.threads as f64);
    m.put("trace.overhead_ratio", traced_s / plain_s - 1.0);
    m.put("replay.logical_match_ratio", traced.match_ratio());
    correct &= traced.checked > 0;
    Ok(RunResult {
        correct,
        attempted: batches.submitted,
        failed: summary.unanswered,
        metrics: m,
        untrusted: None,
    })
}
