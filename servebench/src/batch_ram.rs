//! `batch-ram`: one large in-RAM graph under eight graph keys on two
//! shards, fed whole request streams at a large per-query budget. The
//! estimators, the walks, the session L1 and the per-slice L2 do the work;
//! admission and scheduling see few tasks per graph loop, and there is no
//! pool and no churn.

use std::time::Instant;

use labelcount_core::RunConfig;
use labelcount_graph::io::load_graph;
use labelcount_graph::LabeledGraph;
use labelcount_osn::{CacheConfig, CachedOsn, GraphOsn, ResilienceConfig, RetryPolicy};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimitPolicy, SchedulePolicy, ServiceWorkload,
    ShardedService,
};
use labelcount_stats::replication_seed;

use crate::inputs::{latency_only, stream, target, write_graph, WorkDir};
use crate::ladder;
use crate::measure::report_digest;
use crate::output::{Metrics, RunResult};
use crate::pricing::{self, UnitCosts};
use crate::replay::{Counts, Knobs, ReplaySpans};
use crate::scheduled::{self, Setup};
use crate::{probes, procfs, trace, Args};

struct Params {
    nodes: usize,
    m: usize,
    keys: u64,
    shards: usize,
    requests: usize,
    solo: usize,
    /// Times the solo stream is sent (see `scheduled::solo_ms`).
    solo_passes: usize,
    budget: usize,
    burn_in: usize,
    replicates: u64,
    gap: u64,
    setups: usize,
    /// Completed queries the untraced run replays to check the mirror.
    mirror_sample: usize,
}

fn params(tiny: bool) -> Params {
    if tiny {
        Params {
            nodes: 3_000,
            m: 3,
            keys: 8,
            shards: 2,
            requests: 40,
            solo: 12,
            solo_passes: 3,
            budget: 150,
            burn_in: 50,
            replicates: 1,
            gap: 50,
            setups: 2,
            mirror_sample: 8,
        }
    } else {
        Params {
            nodes: 200_000,
            m: 6,
            keys: 8,
            shards: 2,
            requests: 1_200,
            solo: 1_100,
            solo_passes: 5,
            budget: 200_000 / 20,
            burn_in: 200,
            replicates: 1,
            gap: 50,
            setups: 7,
            mirror_sample: 24,
        }
    }
}

/// Tenants of the stream, and the share of requests from the heaviest.
const TENANTS: usize = 4;
const TENANT_SKEW: f64 = 0.3;

fn knobs(p: &Params, seed: u64) -> Knobs {
    Knobs {
        faults: latency_only(seed),
        retry: RetryPolicy::default(),
        resilience: ResilienceConfig::default(),
        run_config: RunConfig {
            burn_in: p.burn_in,
            thinning_frac: 0.0,
        },
        replicates: p.replicates,
    }
}

fn workload(p: &Params, k: &Knobs, seed: u64, keys: &[GraphKey], n: usize) -> ServiceWorkload {
    ServiceWorkload::mixed_multi_tenant(
        n,
        keys,
        TENANTS,
        TENANT_SKEW,
        target(),
        p.budget,
        replication_seed(seed, stream::REQUESTS),
        k.run_config,
    )
    .builder()
    .faults(k.faults, k.retry)
    .schedule(
        SchedulePolicy::default()
            .with_interarrival(p.gap)
            .with_replicates(p.replicates as usize),
    )
    .build()
}

fn service<'g>(g: &'g LabeledGraph, keys: &[GraphKey], shards: usize) -> ShardedService<'g> {
    let mut s = ShardedService::new(shards, scheduled::balanced_placement(keys, shards));
    for &k in keys {
        s.register(k, g);
    }
    s
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let p = params(args.tiny);
    let k = knobs(&p, args.seed);
    let keys: Vec<GraphKey> = (1..=p.keys).map(GraphKey).collect();
    let dir = WorkDir::create("batch-ram").map_err(|e| e.to_string())?;
    let files = write_graph(dir.path(), args.seed, p.nodes, p.m).map_err(|e| e.to_string())?;
    procfs::reset_peak_rss();

    let mut setup = Setup::default();
    let mut graph = None;
    for _ in 0..p.setups {
        drop(graph.take()); // one graph in memory at a time
        let t = Instant::now();
        let g = load_graph(&files.edges, Some(&files.labels)).map_err(|e| e.to_string())?;
        let load = t.elapsed().as_secs_f64();
        let t = Instant::now();
        drop(service(&g, &keys, p.shards));
        setup.push(load, 0.0, t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let g = graph.expect("at least one set-up ran");

    let make_service = || service(&g, &keys, p.shards);
    let make_workload = || workload(&p, &k, args.seed, &keys, p.requests);
    // Half the run times batches; the solo passes take most of the rest.
    let (window_s, min_timed) = if args.trace {
        (0.0, 1)
    } else {
        (args.seconds * 0.5, 2)
    };
    let batches = scheduled::run_batches(&make_service, &make_workload, false, window_s, min_timed);
    let report = &batches.first;
    let summary = scheduled::summarize(report, p.replicates);
    let mut correct = batches.digests_agree && summary.statuses_add_up;
    let mut m = Metrics::default();
    let osn = GraphOsn::new(&g);

    if !args.trace {
        let solo = scheduled::solo_ms(
            &batches.service,
            &|| workload(&p, &k, args.seed, &keys, p.solo),
            p.solo_passes,
        );
        scheduled::end_to_end(
            &mut m,
            &setup,
            &batches,
            &solo,
            &summary,
            files.truth,
            args.min_tail(),
        )?;
        // Placement must not change the answer: one shard, one worker.
        let single = service(&g, &keys, 1).run_scheduled(make_workload(), 1);
        let same_at_one_shard = report_digest(&single) == report_digest(report);
        let mirror = pricing::mirror(
            &osn,
            None,
            &make_workload(),
            report,
            &k,
            p.mirror_sample,
            None,
        );
        correct &= same_at_one_shard && mirror.exact();
        eprintln!(
            "checks: batches agree {}, statuses add up {}, 1-shard digest equal {}, replay mirrors {}/{}",
            batches.digests_agree, summary.statuses_add_up, same_at_one_shard, mirror.matched, mirror.checked
        );
        return Ok(RunResult {
            correct,
            attempted: batches.submitted + (p.solo * p.solo_passes) as u64,
            failed: summary.unanswered,
            metrics: m,
            // The main thread waits in `run_scheduled` while the shard
            // threads work.
            untrusted: procfs::verdict(batches.cpu_util, batches.threads.saturating_sub(1)),
        });
    }

    // Traced run: an untraced replay (for the tracing overhead), then the
    // traced replay that counts and times the layers, then the probes.
    let t = Instant::now();
    let plain = pricing::mirror(&osn, None, &make_workload(), report, &k, usize::MAX, None);
    let plain_s = t.elapsed().as_secs_f64();
    let spans = ReplaySpans::default();
    let t = Instant::now();
    let traced = pricing::mirror(
        &osn,
        None,
        &make_workload(),
        report,
        &k,
        usize::MAX,
        Some(&spans),
    );
    let traced_s = t.elapsed().as_secs_f64();
    let mirrored = traced.exact() && plain.exact();
    correct &= mirrored;
    eprintln!(
        "checks: statuses add up {}, replay mirrors {}/{}",
        summary.statuses_add_up, traced.matched, traced.checked
    );

    let warm = CachedOsn::with_config(&osn, CacheConfig::default());
    let wl = make_workload();
    let costs = UnitCosts {
        l1_hit: probes::l1_hit_ns(&warm),
        l2_hit: probes::l2_hit_ns(&warm),
        l2_miss: probes::l2_miss_ns(&osn, CacheConfig::default(), args.seed),
        fault_fetch: probes::fault_fetch_ns(&osn, &k, args.seed),
        ram_fetch: probes::fetch_ns(&osn, args.seed),
        decide: probes::admission_ns(
            &pricing::arrivals(&wl, &keys),
            keys.len(),
            AdmissionConfig::default(),
            &QuotaPolicy::unmetered(),
            &RateLimitPolicy::unlimited(),
            wl.seed,
        ),
        slice_stack: probes::slice_stack_ns(&osn, &k),
        span_overhead: trace::span_overhead_ns(),
    };
    m.put("walk.step_ns", probes::walk_step_ns(&warm, args.seed));
    for name in [
        "backend.paged_fetch_ns",
        "backend.churn_fetch_ns",
        "pool.page_reads",
        "pool.hits",
        "pool.hit_ratio",
        "pool.evictions",
        "pool.pinned_peak",
        "pool.fault_ns",
        "churn.batches",
        "churn.events",
        "churn.avoided_invalidations",
        "churn.apply_ns_per_event",
    ] {
        m.put(name, 0.0);
    }
    scheduled::report_layers(&mut m, report, &summary);
    setup.put(&mut m);
    // The replay's counts are the service's own only when it mirrors.
    let counts = if mirrored {
        traced.counts
    } else {
        Counts::default()
    };
    let self_ns = pricing::estimator_self_ns(&traced.counts, &spans, costs.span_overhead);
    let rungs = pricing::rungs(&costs, &counts, self_ns, summary.submitted, summary.slices);
    let phase_ms = batches.phase_cpu_ms;
    ladder::show(&rungs, phase_ms);
    let settled = ladder::settle(&rungs, phase_ms);
    pricing::put_layers(
        &mut m,
        &costs,
        &counts,
        self_ns,
        summary.backend_attempts,
        &settled,
    );
    m.put("process.cpu_util", batches.cpu_util);
    m.put("process.threads", batches.threads as f64);
    m.put("trace.overhead_ratio", traced_s / plain_s - 1.0);
    m.put("replay.logical_match_ratio", traced.match_ratio());
    Ok(RunResult {
        correct,
        attempted: batches.submitted,
        failed: summary.unanswered,
        metrics: m,
        untrusted: None,
    })
}
