//! The serving layer's headline contract, property-tested: a
//! [`ServiceReport`] is **bit-identical at any shard count and any worker
//! count** — sharding and parallelism decide *where* and *when* work
//! runs, never *what* it answers — and admission (shedding + quotas)
//! decides identically across interleavings because it is a pure function
//! of the virtual-time arrival sequence.

use labelcount_core::{Priority, RunConfig};
use labelcount_graph::churn::{ChurnConfig, ChurnSchedule, ChurnStats, MutableGraph};
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::{LabeledGraph, TargetLabel};
use labelcount_osn::{
    BreakerConfig, BurstConfig, CacheConfig, ChurnOsn, FaultConfig, ResilienceConfig, RetryPolicy,
};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy, SchedulePolicy,
    ServiceReport, ServiceStatus, ServiceWorkload, ShardRouter, ShardedService,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = barabasi_albert(200, 3, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, 0.4, &mut rng);
    with_labels(&g, &labels)
}

fn target() -> TargetLabel {
    TargetLabel::new(1.into(), 2.into())
}

fn cfg() -> RunConfig {
    RunConfig {
        burn_in: 20,
        thinning_frac: 0.0,
    }
}

fn graph_keys(n: u64) -> Vec<GraphKey> {
    (0..n).map(GraphKey).collect()
}

/// A contested workload: hostile faults, a tight modelled queue, and a
/// uniform tenant quota — every admission path (admit, shed, quota) is
/// exercised.
fn contested(seed: u64, n: usize, graphs: &[GraphKey]) -> ServiceWorkload {
    ServiceWorkload::mixed_multi_tenant(n, graphs, 3, 0.5, target(), 40, seed, cfg())
        .builder()
        .faults(FaultConfig::hostile(seed, 0.2), RetryPolicy::default())
        .admission(AdmissionConfig {
            queue_capacity: 4,
            drain_every: 3,
            shed_start: 0.4,
            ..AdmissionConfig::default()
        })
        .quotas(QuotaPolicy::uniform(2_000))
        .build()
}

/// A deadline-scheduled workload over a latency-only fault model (ticks
/// flow, estimates never error), stamped by `policy`.
fn scheduled(seed: u64, n: usize, graphs: &[GraphKey], policy: SchedulePolicy) -> ServiceWorkload {
    ServiceWorkload::mixed_multi_tenant(n, graphs, 3, 0.5, target(), 40, seed, cfg())
        .builder()
        .faults(
            FaultConfig {
                base_latency_ticks: 1,
                latency_jitter_ticks: 3,
                ..FaultConfig::clean(seed)
            },
            RetryPolicy::default(),
        )
        .schedule(policy)
        .build()
}

/// Asserts two service reports are bit-identical, except for the
/// `serving.shards` config echo (which names the topology, not the
/// answer).
fn assert_reports_identical(a: &ServiceReport, b: &ServiceReport, ctx: &str) {
    assert_eq!(a.outcomes.len(), b.outcomes.len(), "{ctx}: outcome count");
    for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
        assert_eq!(x.id, y.id, "{ctx}");
        assert_eq!(x.tenant, y.tenant, "{ctx}: request {}", x.id);
        assert_eq!(x.graph, y.graph, "{ctx}: request {}", x.id);
        match (&x.status, &y.status) {
            (ServiceStatus::Completed(p), ServiceStatus::Completed(q)) => {
                assert_eq!(
                    p.estimate.as_ref().map(|e| e.to_bits()).ok(),
                    q.estimate.as_ref().map(|e| e.to_bits()).ok(),
                    "{ctx}: request {} estimate bits",
                    x.id
                );
                assert_eq!(p.logical_calls, q.logical_calls, "{ctx}: request {}", x.id);
                assert_eq!(p.retry_charges, q.retry_charges, "{ctx}: request {}", x.id);
                assert_eq!(
                    p.backend_attempts, q.backend_attempts,
                    "{ctx}: request {}",
                    x.id
                );
                assert_eq!(p.latency_ticks, q.latency_ticks, "{ctx}: request {}", x.id);
                assert_eq!(
                    p.budget_exhausted, q.budget_exhausted,
                    "{ctx}: request {}",
                    x.id
                );
                assert_eq!(p.bursts, q.bursts, "{ctx}: request {} bursts", x.id);
                assert_eq!(
                    p.breaker_opens, q.breaker_opens,
                    "{ctx}: request {} breaker opens",
                    x.id
                );
                assert_eq!(
                    p.stale_served, q.stale_served,
                    "{ctx}: request {} stale served",
                    x.id
                );
            }
            (
                ServiceStatus::Shed {
                    backlog: bp,
                    anytime: ap,
                },
                ServiceStatus::Shed {
                    backlog: bq,
                    anytime: aq,
                },
            ) => {
                assert_eq!(bp, bq, "{ctx}: request {} backlog", x.id);
                assert_eq!(
                    ap.map(f64::to_bits),
                    aq.map(f64::to_bits),
                    "{ctx}: request {} anytime bits",
                    x.id
                );
            }
            (
                ServiceStatus::QuotaExhausted { anytime: ap },
                ServiceStatus::QuotaExhausted { anytime: aq },
            ) => {
                assert_eq!(
                    ap.map(f64::to_bits),
                    aq.map(f64::to_bits),
                    "{ctx}: request {} anytime bits",
                    x.id
                );
            }
            (
                ServiceStatus::Throttled { anytime: ap },
                ServiceStatus::Throttled { anytime: aq },
            ) => {
                assert_eq!(
                    ap.map(f64::to_bits),
                    aq.map(f64::to_bits),
                    "{ctx}: request {} anytime bits",
                    x.id
                );
            }
            (
                ServiceStatus::DeadlineAnytime {
                    completed_replicates: rp,
                    anytime: ap,
                    ci_halfwidth: cp,
                    cancelled_at_tick: tp,
                },
                ServiceStatus::DeadlineAnytime {
                    completed_replicates: rq,
                    anytime: aq,
                    ci_halfwidth: cq,
                    cancelled_at_tick: tq,
                },
            ) => {
                assert_eq!(rp, rq, "{ctx}: request {} replicates", x.id);
                assert_eq!(
                    ap.map(f64::to_bits),
                    aq.map(f64::to_bits),
                    "{ctx}: request {} anytime bits",
                    x.id
                );
                assert_eq!(
                    cp.to_bits(),
                    cq.to_bits(),
                    "{ctx}: request {} ci bits",
                    x.id
                );
                assert_eq!(tp, tq, "{ctx}: request {} cancellation tick", x.id);
            }
            (ServiceStatus::UnknownGraph, ServiceStatus::UnknownGraph) => {}
            (p, q) => panic!("{ctx}: request {} status diverged: {p:?} vs {q:?}", x.id),
        }
    }
    assert_eq!(
        a.summary.mean().to_bits(),
        b.summary.mean().to_bits(),
        "{ctx}: summary mean"
    );
    assert_eq!(a.summary.count(), b.summary.count(), "{ctx}: summary count");
    assert_eq!(a.serving.submitted, b.serving.submitted, "{ctx}");
    assert_eq!(a.serving.admitted, b.serving.admitted, "{ctx}");
    assert_eq!(a.serving.shed, b.serving.shed, "{ctx}");
    assert_eq!(
        a.serving.quota_exhausted, b.serving.quota_exhausted,
        "{ctx}"
    );
    assert_eq!(
        a.serving.quota_throttled, b.serving.quota_throttled,
        "{ctx}"
    );
    assert_eq!(
        a.serving.tenant_fairness.to_bits(),
        b.serving.tenant_fairness.to_bits(),
        "{ctx}: fairness"
    );
    match (&a.scheduling, &b.scheduling) {
        (None, None) => {}
        (Some(p), Some(q)) => {
            assert_eq!(p.deadline_hits, q.deadline_hits, "{ctx}: deadline hits");
            assert_eq!(p.cancellations, q.cancellations, "{ctx}: cancellations");
            assert_eq!(
                p.mean_slack_ticks.to_bits(),
                q.mean_slack_ticks.to_bits(),
                "{ctx}: slack bits"
            );
            assert_eq!(
                p.priority_inversions, q.priority_inversions,
                "{ctx}: inversions"
            );
        }
        (p, q) => panic!("{ctx}: scheduling counters diverged: {p:?} vs {q:?}"),
    }
}

#[test]
fn report_is_bit_identical_across_shard_and_worker_counts() {
    let g0 = fixture(1);
    let g1 = fixture(2);
    let g2 = fixture(3);
    let graphs = [&g0, &g1, &g2];
    let gks = graph_keys(3);

    let run = |shards: usize, workers: usize| -> ServiceReport {
        let mut svc = ShardedService::new(shards, 77);
        for (i, &k) in gks.iter().enumerate() {
            svc.register(k, graphs[i]);
        }
        svc.run_scheduled(contested(31, 30, &gks), workers)
    };

    let baseline = run(1, 1);
    assert!(baseline.serving.shed > 0, "contested workload never shed");
    assert!(
        baseline.serving.quota_exhausted > 0,
        "contested workload never hit quota"
    );
    assert!(baseline.serving.admitted > 0);
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 8] {
            let r = run(shards, workers);
            assert_eq!(r.serving.shards, shards as u64);
            assert_reports_identical(&baseline, &r, &format!("shards={shards} workers={workers}"));
        }
    }
}

#[test]
fn quota_exhaustion_sheds_identically_across_interleavings() {
    // A hog tenant under a tight quota: the set of quota-rejected request
    // ids must be identical at every shard/worker combination — the
    // reservation order is the arrival order, not execution order.
    let g = fixture(4);
    let gks = graph_keys(2);
    let build = || {
        ServiceWorkload::mixed_multi_tenant(24, &gks, 4, 0.7, target(), 50, 41, cfg())
            .builder()
            .quotas(QuotaPolicy::uniform(1_200))
            .build()
    };
    let rejected = |shards: usize, workers: usize| -> Vec<u64> {
        let mut svc = ShardedService::new(shards, 9);
        for &k in &gks {
            svc.register(k, &g);
        }
        svc.run_scheduled(build(), workers)
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, ServiceStatus::QuotaExhausted { .. }))
            .map(|o| o.id)
            .collect()
    };
    let baseline = rejected(1, 1);
    assert!(!baseline.is_empty(), "quota never exhausted");
    for (shards, workers) in [(2, 1), (2, 8), (8, 4)] {
        assert_eq!(
            baseline,
            rejected(shards, workers),
            "quota rejections diverged at shards={shards} workers={workers}"
        );
    }
}

#[test]
fn shards_share_nothing_through_workload_runs() {
    // Service runs give every query slice its own access stack; the
    // per-graph engines' shared caches stay untouched, so one shard's
    // traffic is invisible in another shard's accounting.
    let g0 = fixture(5);
    let g1 = fixture(6);
    let gks = graph_keys(2);
    let mut svc = ShardedService::new(2, 13);
    svc.register(gks[0], &g0);
    svc.register(gks[1], &g1);
    let report = svc.run_scheduled(
        ServiceWorkload::mixed_multi_tenant(8, &gks, 2, 0.3, target(), 40, 43, cfg()),
        4,
    );
    assert_eq!(report.serving.admitted, 8);
    for &k in &gks {
        let stats = svc.engine(k).unwrap().stats();
        assert_eq!(
            stats.logical_calls(),
            0,
            "workload runs must not touch engine {k:?}'s shared cache"
        );
    }
    // Direct engine traffic lands only on the targeted graph's engine.
    let alg = labelcount_core::NsHansenHurwitz;
    svc.engine(gks[0])
        .unwrap()
        .estimate(&alg, target(), 50, &cfg(), 99)
        .unwrap();
    assert!(svc.engine(gks[0]).unwrap().stats().logical_calls() > 0);
    assert_eq!(svc.engine(gks[1]).unwrap().stats().logical_calls(), 0);
}

#[test]
fn anytime_answers_equal_the_graph_summary_mean() {
    let g = fixture(7);
    let gks = graph_keys(1);
    let mut svc = ShardedService::new(1, 3);
    svc.register(gks[0], &g);
    let report = svc.run_scheduled(contested(53, 20, &gks), 2);
    assert!(report.serving.shed + report.serving.quota_exhausted > 0);
    // One graph: the deterministic summary over completed estimates IS
    // the anytime answer every rejected request received.
    let expected = (report.summary.count() > 0).then(|| report.summary.mean());
    for o in &report.outcomes {
        let anytime = match &o.status {
            ServiceStatus::Shed { anytime, .. } => anytime,
            ServiceStatus::QuotaExhausted { anytime } => anytime,
            _ => continue,
        };
        assert_eq!(
            anytime.map(f64::to_bits),
            expected.map(f64::to_bits),
            "request {} anytime answer diverged from the graph summary",
            o.id
        );
    }
}

#[test]
fn scheduled_report_is_bit_identical_across_shard_and_worker_counts() {
    let g0 = fixture(11);
    let g1 = fixture(12);
    let g2 = fixture(13);
    let graphs = [&g0, &g1, &g2];
    let gks = graph_keys(3);
    let policy = SchedulePolicy::default()
        .with_interarrival(8)
        .with_deadline(400)
        .with_priorities(0.25, 0.25);

    let run = |shards: usize, workers: usize| -> ServiceReport {
        let mut svc = ShardedService::new(shards, 77);
        for (i, &k) in gks.iter().enumerate() {
            svc.register(k, graphs[i]);
        }
        svc.run_scheduled(scheduled(31, 24, &gks, policy.clone()), workers)
    };

    let baseline = run(1, 1);
    let sched = baseline
        .scheduling
        .expect("scheduled runs report scheduling counters");
    assert!(sched.cancellations > 0, "no deadline ever fired");
    let completed = baseline
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, ServiceStatus::Completed(_)))
        .count();
    assert!(completed > 0, "every query was cancelled");
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 8] {
            let r = run(shards, workers);
            assert_eq!(r.serving.shards, shards as u64);
            assert_reports_identical(
                &baseline,
                &r,
                &format!("scheduled shards={shards} workers={workers}"),
            );
        }
    }
}

#[test]
fn deadline_zero_cancels_at_arrival_into_an_immediate_anytime_answer() {
    let g = fixture(14);
    let gks = graph_keys(1);
    let mut svc = ShardedService::new(1, 5);
    svc.register(gks[0], &g);
    let policy = SchedulePolicy::default()
        .with_interarrival(4)
        .with_deadline(0);
    let report = svc.run_scheduled(scheduled(61, 6, &gks, policy.clone()), 2);
    let sched = report.scheduling.unwrap();
    assert_eq!(sched.cancellations, report.serving.admitted);
    assert_eq!(sched.deadline_hits, 0);
    assert_eq!(report.serving.admitted, 6);
    // The stamped arrival ticks are reproducible: rebuild the workload to
    // know where each request's zero-width deadline sat.
    let arrivals: Vec<u64> = scheduled(61, 6, &gks, policy)
        .requests
        .iter()
        .map(|r| r.query.schedule.arrival_tick)
        .collect();
    for o in &report.outcomes {
        match &o.status {
            ServiceStatus::DeadlineAnytime {
                completed_replicates,
                anytime,
                ci_halfwidth,
                cancelled_at_tick,
            } => {
                assert_eq!(*completed_replicates, 0, "request {} ran a slice", o.id);
                assert!(anytime.is_none(), "request {} conjured an estimate", o.id);
                assert_eq!(*ci_halfwidth, 0.0);
                assert_eq!(*cancelled_at_tick, arrivals[o.id as usize]);
            }
            other => panic!("request {} not cancelled: {other:?}", o.id),
        }
    }
}

#[test]
fn deadline_on_the_final_replicate_boundary_completes_with_zero_slack() {
    let g = fixture(15);
    let gks = graph_keys(1);
    let mut svc = ShardedService::new(1, 7);
    svc.register(gks[0], &g);
    // First run unconstrained to learn the query's exact total tick bill...
    let free = svc.run_scheduled(scheduled(67, 1, &gks, SchedulePolicy::default()), 1);
    let total = match &free.outcomes[0].status {
        ServiceStatus::Completed(q) => {
            assert!(q.estimate.is_ok());
            q.latency_ticks
        }
        other => panic!("unconstrained run did not complete: {other:?}"),
    };
    assert!(total > 0, "latency model billed nothing");
    // ...then set the deadline to exactly that bill: the final replicate
    // finishes exactly as the clock reaches the deadline — a hit with zero
    // slack, not a cancellation.
    let exact = svc.run_scheduled(
        scheduled(67, 1, &gks, SchedulePolicy::default().with_deadline(total)),
        1,
    );
    match &exact.outcomes[0].status {
        ServiceStatus::Completed(q) => assert_eq!(q.latency_ticks, total),
        other => panic!("exact-boundary deadline did not complete: {other:?}"),
    }
    let sched = exact.scheduling.unwrap();
    assert_eq!(sched.deadline_hits, 1);
    assert_eq!(sched.cancellations, 0);
    assert_eq!(sched.mean_slack_ticks, 0.0);
}

#[test]
fn all_cancelled_reports_are_bit_identical_across_worker_counts() {
    let g0 = fixture(16);
    let g1 = fixture(17);
    let gks = graph_keys(2);
    let run = |workers: usize| -> ServiceReport {
        let mut svc = ShardedService::new(2, 9);
        svc.register(gks[0], &g0);
        svc.register(gks[1], &g1);
        svc.run_scheduled(
            scheduled(71, 12, &gks, SchedulePolicy::default().with_deadline(1)),
            workers,
        )
    };
    let baseline = run(1);
    let sched = baseline.scheduling.unwrap();
    assert!(baseline.serving.admitted > 0);
    assert_eq!(
        sched.cancellations, baseline.serving.admitted,
        "a 1-tick deadline must cancel everything admitted"
    );
    assert!(baseline
        .outcomes
        .iter()
        .all(|o| !matches!(o.status, ServiceStatus::Completed(_))));
    assert_reports_identical(&baseline, &run(8), "all-cancelled workers=8");
}

/// Priorities are not decorative: at every slice boundary the loop picks
/// the best (priority, arrival, id) task, so hand-stamping one starved
/// task High must let it jump the FIFO queue — running strictly more
/// replicates before its deadline — and must charge a priority inversion
/// for arriving while a lower-priority slice held the loop.
#[test]
fn high_priority_jumps_the_fifo_queue() {
    let g = fixture(23);
    let gks = graph_keys(1);
    let mut svc = ShardedService::new(1, 5);
    svc.register(gks[0], &g);

    // Calibrate a deadline every task could meet in isolation: queueing,
    // not its own bill, is what starves the tail.
    let free = svc.run_scheduled(
        scheduled(91, 8, &gks, SchedulePolicy::default().with_interarrival(4)),
        1,
    );
    let max_bill = free
        .completed()
        .map(|(_, q)| q.latency_ticks)
        .max()
        .expect("latency-only faults complete everything");
    let policy = SchedulePolicy::default()
        .with_interarrival(4)
        .with_deadline(max_bill + 1);

    let reps_of = |report: &ServiceReport, id: u64| -> Option<u64> {
        report
            .outcomes
            .iter()
            .find(|o| o.id == id)
            .map(|o| match &o.status {
                ServiceStatus::Completed(_) => u64::MAX, // finished every replicate
                ServiceStatus::DeadlineAnytime {
                    completed_replicates,
                    ..
                } => *completed_replicates,
                other => panic!("unexpected status under a latency-only schedule: {other:?}"),
            })
    };

    let baseline = svc.run_scheduled(scheduled(91, 8, &gks, policy.clone()), 1);
    // The victim: the earliest-arriving cancelled task (ids are stamped
    // in arrival order). All-Normal FIFO starved it.
    let victim = baseline
        .outcomes
        .iter()
        .filter(|o| matches!(o.status, ServiceStatus::DeadlineAnytime { .. }))
        .map(|o| o.id)
        .min()
        .expect("a deadline of max bill + 1 must starve the queued tail");
    let victim_reps = reps_of(&baseline, victim).unwrap();

    let mut boosted_wl = scheduled(91, 8, &gks, policy);
    for r in &mut boosted_wl.requests {
        if r.query.id == victim {
            r.query.schedule.priority = Priority::High;
        }
    }
    let boosted = svc.run_scheduled(boosted_wl, 1);
    assert!(
        reps_of(&boosted, victim).unwrap() > victim_reps,
        "a High stamp must buy the starved task strictly more replicates"
    );
    assert!(
        boosted.scheduling.unwrap().priority_inversions > 0,
        "the High arrival landed mid-slice and must charge an inversion"
    );
    assert_eq!(
        baseline.scheduling.unwrap().priority_inversions,
        0,
        "an all-Normal stream has no inversions to charge"
    );
}

#[test]
fn churned_scheduled_report_is_bit_identical_across_shard_and_worker_counts() {
    // Dynamic graphs under the scheduler: churn batches land at
    // deterministic virtual ticks inside each graph's serial loop, so the
    // report stays bit-identical no matter which OS thread hosts which
    // loop. Every run gets a fresh ChurnOsn from the same seed — the
    // churned trajectory is part of the workload, not shared state.
    let g0 = fixture(18);
    let g1 = fixture(19);
    let graphs = [&g0, &g1];
    let gks = graph_keys(2);
    let policy = SchedulePolicy::default()
        .with_interarrival(8)
        .with_deadline(400);
    let run = |shards: usize, workers: usize| -> ServiceReport {
        let mut svc = ShardedService::new(shards, 77);
        for (i, &k) in gks.iter().enumerate() {
            let churn = ChurnConfig {
                seed: 100 + i as u64,
                events_per_batch: 8,
                batch_interval_ticks: 25,
                region_shift: 2,
            };
            svc.register_churn(
                k,
                ChurnOsn::new(graphs[i], churn),
                CacheConfig::builder().capacity(128).build(),
            );
        }
        svc.run_scheduled(scheduled(31, 16, &gks, policy.clone()), workers)
    };
    let baseline = run(1, 1);
    assert!(baseline.serving.admitted > 0);
    for shards in [1usize, 2, 8] {
        for workers in [1usize, 8] {
            assert_reports_identical(
                &baseline,
                &run(shards, workers),
                &format!("churned shards={shards} workers={workers}"),
            );
        }
    }
}

#[test]
fn zero_churn_scheduled_report_matches_the_static_backend() {
    // A zero-event churn schedule is the static graph: the churn
    // registration path must be bit-identical to the plain in-RAM one.
    let g = fixture(20);
    let gks = graph_keys(1);
    let policy = SchedulePolicy::default()
        .with_interarrival(6)
        .with_deadline(300);

    let mut svc_ram = ShardedService::new(1, 7);
    svc_ram.register(gks[0], &g);
    let want = svc_ram.run_scheduled(scheduled(43, 8, &gks, policy.clone()), 2);

    let churn = ChurnConfig {
        seed: 9,
        events_per_batch: 0,
        batch_interval_ticks: 10,
        region_shift: 4,
    };
    let mut svc_churn = ShardedService::new(1, 7);
    svc_churn.register_churn(
        gks[0],
        ChurnOsn::new(&g, churn),
        CacheConfig::builder().build(),
    );
    let got = svc_churn.run_scheduled(scheduled(43, 8, &gks, policy), 2);
    assert_reports_identical(&want, &got, "zero churn vs static");
    let stats = svc_churn
        .churn_engine(gks[0])
        .expect("registered as a churn graph")
        .backend()
        .churn_stats();
    assert_eq!(
        stats.events_applied(),
        0,
        "zero-event schedule mutated the graph"
    );
}

#[test]
fn churn_batch_on_a_slice_boundary_lands_before_the_slice() {
    // The boundary contract: a batch falling due at exactly the virtual
    // tick a slice starts on is applied *before* that slice reads a byte.
    // One query arrives at tick 100; the first (and only) batch falls due
    // at tick 100. The scheduled run over the live ChurnOsn must be
    // bit-identical to a run over an identical ChurnOsn hand-advanced to
    // tick 100 *before* serving — i.e. the loop's own advance at the
    // boundary is indistinguishable from churning first and reading after.
    // (A materialized static snapshot is NOT a valid reference here: its
    // max-degree is recomputed exactly, while the live backend's bound is
    // deliberately monotone under deletes.)
    let g = fixture(21);
    let gks = graph_keys(1);
    let churn = ChurnConfig {
        seed: 13,
        events_per_batch: 30,
        batch_interval_ticks: 100,
        region_shift: 0,
    };
    let mk_wl = || {
        let mut wl = scheduled(83, 1, &gks, SchedulePolicy::default());
        wl.requests[0].query.schedule.arrival_tick = 100;
        wl
    };

    // The event stream due at tick 100 genuinely mutates the graph.
    let mut m = MutableGraph::new(&g, churn.region_shift);
    let mut sched = ChurnSchedule::new(churn);
    let mut st = ChurnStats::default();
    sched.advance_to(&mut m, 100, &mut st);
    assert_eq!(
        st.batches, 1,
        "exactly the boundary batch is due at tick 100"
    );
    assert!(st.events_applied() > 0, "the boundary batch was all no-ops");

    // Reference: an identical ChurnOsn, churned by hand before serving.
    let pre_advanced = ChurnOsn::new(&g, churn);
    pre_advanced.advance_to(100);
    assert_eq!(
        pre_advanced.churn_stats(),
        st,
        "hand advance applied a different stream"
    );
    let mut svc_ref = ShardedService::new(1, 7);
    svc_ref.register_churn(gks[0], pre_advanced, CacheConfig::builder().build());
    let want = svc_ref.run_scheduled(mk_wl(), 1);

    // Live: the loop idles to tick 100, drains the batch due exactly
    // there, then runs the slice against the churned bytes.
    let mut svc = ShardedService::new(1, 7);
    svc.register_churn(
        gks[0],
        ChurnOsn::new(&g, churn),
        CacheConfig::builder().build(),
    );
    let got = svc.run_scheduled(mk_wl(), 1);
    assert_reports_identical(&want, &got, "slice-boundary churn");
    // Later replicate slices push the clock past later due ticks, so more
    // batches may land between slices — but both loops must have applied
    // the identical batch sequence at the identical virtual ticks.
    let stats = svc.churn_engine(gks[0]).unwrap().backend().churn_stats();
    assert!(stats.batches >= 1, "the boundary batch never landed");
    assert_eq!(
        stats,
        svc_ref
            .churn_engine(gks[0])
            .unwrap()
            .backend()
            .churn_stats(),
        "live and pre-advanced loops churned differently"
    );

    // And the batch genuinely changed what the slice read: the same query
    // against the pre-churn graph answers differently.
    let mut svc_pre = ShardedService::new(1, 7);
    svc_pre.register(gks[0], &g);
    let pre = svc_pre.run_scheduled(mk_wl(), 1);
    let observed = |r: &ServiceReport| match &r.outcomes[0].status {
        ServiceStatus::Completed(q) => (
            q.estimate.as_ref().map(|e| e.to_bits()).ok(),
            q.latency_ticks,
        ),
        other => panic!("latency-only faults must complete the query: {other:?}"),
    };
    assert_ne!(
        observed(&pre),
        observed(&got),
        "the boundary batch left the slice's reads untouched"
    );
}

#[test]
fn shared_rate_limit_throttles_concurrent_tenant_queries() {
    let g = fixture(21);
    let gks = graph_keys(1);
    let mut svc = ShardedService::new(1, 9);
    svc.register(gks[0], &g);
    // An unstamped workload puts every arrival at tick 0, so the bucket
    // never refills: each tenant's queries drain one shared bucket until
    // it runs dry and the rest are throttled.
    let wl = ServiceWorkload::mixed_multi_tenant(12, &gks, 3, 0.3, target(), 40, 23, cfg())
        .builder()
        .rate_limits(RateLimitPolicy::uniform(RateLimit {
            capacity: 500,
            refill_interval_ticks: 1_000_000,
        }))
        .build();
    let report = svc.run_scheduled(wl, 2);
    assert!(report.serving.quota_throttled > 0, "bucket never ran dry");
    assert!(report.serving.admitted > 0, "nothing admitted");
    assert_eq!(report.serving.shed, 0);
    assert_eq!(
        report.serving.admitted + report.serving.quota_throttled,
        report.serving.submitted
    );
    // Throttling is transient back-pressure, not a quota violation.
    assert_eq!(report.serving.quota_exhausted, 0);
    for o in &report.outcomes {
        if let ServiceStatus::Throttled { anytime } = &o.status {
            assert!(anytime.expect("anytime answer available").is_finite());
        }
    }
}

#[test]
fn burst_resilience_report_is_bit_identical_and_observes_bursts() {
    let g0 = fixture(24);
    let g1 = fixture(25);
    let graphs = [&g0, &g1];
    let gks = graph_keys(2);
    let resilience = ResilienceConfig {
        breaker: Some(BreakerConfig::default()),
        retry_budget: Some(64),
        serve_stale: true,
    };
    let run = |shards: usize, workers: usize| -> ServiceReport {
        let mut svc = ShardedService::new(shards, 55);
        for (i, &k) in gks.iter().enumerate() {
            svc.register(k, graphs[i]);
        }
        let wl = ServiceWorkload::mixed_multi_tenant(16, &gks, 3, 0.5, target(), 40, 29, cfg())
            .builder()
            .faults(
                FaultConfig {
                    base_latency_ticks: 1,
                    latency_jitter_ticks: 3,
                    ..FaultConfig::clean(29)
                }
                .with_burst(BurstConfig::short()),
                RetryPolicy::default(),
            )
            .schedule(SchedulePolicy::default().with_interarrival(6))
            .resilience(resilience)
            .build();
        svc.run_scheduled(wl, workers)
    };
    let baseline = run(1, 1);
    let total_bursts: u64 = baseline
        .outcomes
        .iter()
        .filter_map(|o| match &o.status {
            ServiceStatus::Completed(q) => Some(q.bursts),
            _ => None,
        })
        .sum();
    assert!(total_bursts > 0, "no query ever saw a burst window");
    for (shards, workers) in [(2usize, 1usize), (2, 4)] {
        let r = run(shards, workers);
        assert_reports_identical(
            &baseline,
            &r,
            &format!("burst shards={shards} workers={workers}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn consistent_hashing_only_remaps_removed_shards(
        seed in any::<u64>(),
        shards in 2usize..12,
    ) {
        // Dropping the highest shard moves only that shard's keys; every
        // other key keeps its owner. (Consistent hashing's defining
        // property, for any seed and fleet size.)
        let big = ShardRouter::new(shards, seed);
        let small = ShardRouter::new(shards - 1, seed);
        for k in 0..600u64 {
            let key = GraphKey(k);
            let before = big.route(key);
            if before == shards - 1 {
                prop_assert!(small.route(key) < shards - 1);
            } else {
                prop_assert_eq!(small.route(key), before, "key {} moved without cause", k);
            }
        }
    }

    #[test]
    fn seeded_runs_are_reproducible_for_any_seed(
        seed in any::<u64>(),
        shards in 1usize..6,
        workers in 1usize..5,
    ) {
        let g = fixture(8);
        let gks = graph_keys(2);
        let run = || {
            let mut svc = ShardedService::new(shards, seed);
            for &k in &gks {
                svc.register(k, &g);
            }
            svc.run_scheduled(contested(seed, 12, &gks), workers)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.summary.mean().to_bits(), b.summary.mean().to_bits());
        prop_assert_eq!(a.serving.admitted, b.serving.admitted);
        prop_assert_eq!(a.serving.shed, b.serving.shed);
        prop_assert_eq!(a.serving.quota_exhausted, b.serving.quota_exhausted);
    }

    #[test]
    fn scheduled_runs_are_reproducible_for_any_seed(
        seed in any::<u64>(),
        shards in 1usize..6,
        workers in 1usize..5,
    ) {
        let g = fixture(9);
        let gks = graph_keys(2);
        let policy = SchedulePolicy::default()
            .with_interarrival(6)
            .with_deadline(80)
            .with_priorities(0.3, 0.3);
        let run = || {
            let mut svc = ShardedService::new(shards, seed);
            for &k in &gks {
                svc.register(k, &g);
            }
            svc.run_scheduled(scheduled(seed, 8, &gks, policy.clone()), workers)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.summary.mean().to_bits(), b.summary.mean().to_bits());
        prop_assert_eq!(a.serving.admitted, b.serving.admitted);
        prop_assert_eq!(a.scheduling, b.scheduling);
    }
}
