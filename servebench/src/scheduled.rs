//! What the two scheduled workloads share: set-up timing, the timed
//! batches through `ShardedService::run_scheduled`, the closed-loop solo
//! phase, and the metrics read off a `ServiceReport`.

use std::hint::black_box;
use std::time::Instant;

use labelcount_serve::{GraphKey, ServiceReport, ServiceStatus, ServiceWorkload, ShardedService};
use labelcount_stats as stats;

use crate::measure::{percentile, report_digest, roster_nrmse};
use crate::output::Metrics;
use crate::procfs::{self, ThreadSampler, Window};

/// Set-up timings, one entry per repetition.
#[derive(Default)]
pub struct Setup {
    pub load_s: Vec<f64>,
    pub paged_write_s: Vec<f64>,
    pub register_s: Vec<f64>,
}

impl Setup {
    pub fn push(&mut self, load_s: f64, paged_write_s: f64, register_s: f64) {
        self.load_s.push(load_s);
        self.paged_write_s.push(paged_write_s);
        self.register_s.push(register_s);
    }

    pub fn put(&self, m: &mut Metrics) {
        let totals: Vec<f64> = (0..self.load_s.len())
            .map(|i| self.load_s[i] + self.paged_write_s[i] + self.register_s[i])
            .collect();
        m.put("setup_s", stats::percentile(&totals, 50.0));
        m.put("setup.load_s", stats::percentile(&self.load_s, 50.0));
        m.put(
            "setup.paged_write_s",
            stats::percentile(&self.paged_write_s, 50.0),
        );
        m.put(
            "setup.register_s",
            stats::percentile(&self.register_s, 50.0),
        );
    }
}

/// The timed batches of one run.
pub struct Batches<'g> {
    /// The first batch's report; every later batch must match it.
    pub first: ServiceReport,
    /// The service that ran the first batch.
    pub service: ShardedService<'g>,
    pub queries_per_s: Vec<f64>,
    pub cpu_ms_per_query: Vec<f64>,
    /// Median CPU milliseconds of one timed call: the phase time the
    /// ladder explains.
    pub phase_cpu_ms: f64,
    pub digests_agree: bool,
    pub cpu_util: f64,
    pub threads: u64,
    pub submitted: u64,
}

/// Runs whole request streams through `run_scheduled` (one worker per
/// shard). The first batch warms caches and the allocator and is left
/// out of the timings (its report is the one published); timed batches
/// follow until `window_s` has passed, at least `min_timed` of them.
/// Only the call itself is timed; workloads, and with `fresh` services,
/// are built outside it.
pub fn run_batches<'g>(
    make_service: &dyn Fn() -> ShardedService<'g>,
    make_workload: &dyn Fn() -> ServiceWorkload,
    fresh: bool,
    window_s: f64,
    min_timed: usize,
) -> Batches<'g> {
    let service = make_service();
    let mut first: Option<ServiceReport> = None;
    let (mut qps, mut cpu_ms) = (Vec::new(), Vec::new());
    let (mut wall_sum, mut cpu_sum) = (0.0, 0.0);
    let (mut digests_agree, mut submitted) = (true, 0u64);
    let sampler = ThreadSampler::start();
    let window = Instant::now();
    loop {
        let workload = make_workload();
        let n = workload.requests.len() as f64;
        let rebuilt;
        let svc = if fresh && first.is_some() {
            rebuilt = make_service();
            &rebuilt
        } else {
            &service
        };
        let call = Window::start();
        let report = svc.run_scheduled(workload, 1);
        let (wall, cpu) = call.stop();
        submitted += n as u64;
        eprintln!("batch: {n} requests in {wall:.3} s wall, {cpu:.2} s CPU");
        match &first {
            None => {
                eprintln!(
                    "report: {:?}\nreport: {:?}",
                    report.serving, report.scheduling
                );
                first = Some(report);
            }
            Some(f) => {
                digests_agree &= report_digest(f) == report_digest(&report);
                qps.push(n / wall);
                cpu_ms.push(cpu * 1e3 / n);
                wall_sum += wall;
                cpu_sum += cpu;
            }
        }
        if qps.len() >= min_timed && window.elapsed().as_secs_f64() >= window_s {
            break;
        }
    }
    let n = submitted as f64 / (qps.len() + 1) as f64;
    Batches {
        first: first.expect("at least one batch ran"),
        service,
        phase_cpu_ms: stats::percentile(&cpu_ms, 50.0) * n,
        queries_per_s: qps,
        cpu_ms_per_query: cpu_ms,
        digests_agree,
        cpu_util: cpu_sum / wall_sum,
        threads: sampler.finish(),
        submitted,
    }
}

/// Closed-loop solo latencies: each request of the stream alone in its
/// own `run_scheduled` call, the next sent when the previous returns.
/// The stream is sent `passes` times and each request keeps its fastest
/// pass: on a shared machine whose speed swings from second to second,
/// the fastest of several passes spread over the phase is the request's
/// own cost, while a median would carry the swings of the run. What
/// stays is the spread of the requests' costs. Returns milliseconds per
/// request.
pub fn solo_ms(
    service: &ShardedService<'_>,
    make: &dyn Fn() -> ServiceWorkload,
    passes: usize,
) -> Vec<f64> {
    let mut runs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..passes {
        let ServiceWorkload {
            requests,
            seed,
            run_config,
            faults,
            retry,
            admission,
            quotas,
            rate_limits,
            resilience,
            scheduling,
        } = make();
        let pass = requests
            .into_iter()
            .map(|req| {
                let one = ServiceWorkload {
                    requests: vec![req],
                    seed,
                    run_config,
                    faults,
                    retry,
                    admission,
                    quotas: quotas.clone(),
                    rate_limits: rate_limits.clone(),
                    resilience,
                    scheduling: scheduling.clone(),
                };
                let t = Instant::now();
                let report = service.run_scheduled(one, 1);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                black_box(report.outcomes.len());
                ms
            })
            .collect();
        runs.push(pass);
    }
    (0..runs[0].len())
        .map(|i| runs.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// What a report says, in the benchmark's terms.
#[derive(Default)]
pub struct Summary {
    pub submitted: u64,
    /// Requests with a finite in-deadline estimate.
    pub completed_ok: u64,
    /// Requests that got no answer at all (unknown graph).
    pub unanswered: u64,
    /// Completed estimates with the estimator that produced them.
    pub estimates: Vec<(&'static str, f64)>,
    pub ticks: Vec<f64>,
    pub charged: u64,
    pub logical: u64,
    pub slices: u64,
    pub tasks_per_loop_max: u64,
    pub statuses_add_up: bool,
    pub backend_attempts: u64,
    pub retry_charges: u64,
    pub rate_limited: u64,
    pub transient_errors: u64,
    pub bursts: u64,
    pub breaker_opens: u64,
    pub stale_served: u64,
}

/// Reads a report. `replicates` is the slices a completed query ran.
pub fn summarize(r: &ServiceReport, replicates: u64) -> Summary {
    let mut s = Summary {
        submitted: r.serving.submitted,
        ..Summary::default()
    };
    let (mut completed, mut cancelled, mut rejected) = (0u64, 0u64, 0u64);
    let mut admitted_by_graph: Vec<(GraphKey, u64)> = Vec::new();
    for o in &r.outcomes {
        let admitted = match &o.status {
            ServiceStatus::Completed(q) => {
                completed += 1;
                s.slices += replicates;
                s.logical += q.logical_calls;
                s.backend_attempts += q.backend_attempts;
                s.retry_charges += q.retry_charges;
                s.rate_limited += q.rate_limited;
                s.transient_errors += q.transient_errors;
                s.bursts += q.bursts;
                s.breaker_opens += q.breaker_opens;
                s.stale_served += q.stale_served;
                if let Ok(e) = q.estimate {
                    if e.is_finite() {
                        s.completed_ok += 1;
                        s.estimates.push((q.abbrev, e));
                        s.ticks.push(q.latency_ticks as f64);
                        s.charged += q.charged_calls();
                    }
                }
                true
            }
            ServiceStatus::DeadlineAnytime {
                completed_replicates,
                ..
            } => {
                cancelled += 1;
                s.slices += completed_replicates;
                true
            }
            ServiceStatus::Shed { .. }
            | ServiceStatus::QuotaExhausted { .. }
            | ServiceStatus::Throttled { .. } => {
                rejected += 1;
                false
            }
            ServiceStatus::UnknownGraph => {
                s.unanswered += 1;
                false
            }
        };
        if admitted {
            match admitted_by_graph.iter_mut().find(|(k, _)| *k == o.graph) {
                Some((_, c)) => *c += 1,
                None => admitted_by_graph.push((o.graph, 1)),
            }
        }
    }
    s.tasks_per_loop_max = admitted_by_graph.iter().map(|(_, c)| *c).max().unwrap_or(0);
    let v = &r.serving;
    s.statuses_add_up = r.outcomes.len() as u64 == v.submitted
        && completed + cancelled + rejected + s.unanswered == v.submitted
        && completed + cancelled == v.admitted
        && rejected == v.shed + v.quota_exhausted + v.quota_throttled;
    s
}

/// The end-to-end metrics every scheduled workload reports.
pub fn end_to_end(
    m: &mut Metrics,
    setup: &Setup,
    b: &Batches<'_>,
    solo: &[f64],
    s: &Summary,
    truth: f64,
    min_tail: usize,
) -> Result<(), String> {
    setup.put(m);
    m.put("queries_per_s", stats::percentile(&b.queries_per_s, 50.0));
    m.put(
        "cpu_ms_per_query",
        stats::percentile(&b.cpu_ms_per_query, 50.0),
    );
    m.put("query_wall_ms_p50", percentile(solo, 0.5, 0)?);
    m.put("query_wall_ms_p99", percentile(solo, 0.99, min_tail)?);
    m.put("latency_ticks_p50", percentile(&s.ticks, 0.5, 0)?);
    m.put("latency_ticks_p99", percentile(&s.ticks, 0.99, min_tail)?);
    m.put(
        "completed_ratio",
        s.completed_ok as f64 / s.submitted as f64,
    );
    m.put(
        "charged_calls_per_query",
        s.charged as f64 / s.completed_ok.max(1) as f64,
    );
    m.put("nrmse", roster_nrmse(&s.estimates, truth));
    m.put("peak_rss_mb", procfs::peak_rss_mb());
    Ok(())
}

/// Per-layer counts read straight off the report.
pub fn report_layers(m: &mut Metrics, r: &ServiceReport, s: &Summary) {
    let v = &r.serving;
    m.put("admission.decisions", v.submitted as f64);
    m.put("admission.shed", v.shed as f64);
    m.put("admission.quota_exhausted", v.quota_exhausted as f64);
    m.put("admission.throttled", v.quota_throttled as f64);
    let c = r
        .scheduling
        .expect("scheduled runs report scheduling counters");
    m.put("scheduler.slices", s.slices as f64);
    m.put("scheduler.tasks_per_loop_max", s.tasks_per_loop_max as f64);
    m.put("scheduler.cancellations", c.cancellations as f64);
    m.put("scheduler.deadline_hits", c.deadline_hits as f64);
    m.put(
        "scheduler.priority_inversions",
        c.priority_inversions as f64,
    );
    m.put(
        "estimator.logical_calls_per_query",
        s.logical as f64 / s.completed_ok.max(1) as f64,
    );
    m.put("faults.backend_attempts", s.backend_attempts as f64);
    m.put("faults.retry_charges", s.retry_charges as f64);
    m.put("faults.rate_limited", s.rate_limited as f64);
    m.put("faults.transient_errors", s.transient_errors as f64);
    m.put("faults.bursts", s.bursts as f64);
    m.put("faults.breaker_opens", s.breaker_opens as f64);
    m.put("faults.stale_served", s.stale_served as f64);
}

/// A service placement seed under which `keys` spread over `shards` as
/// evenly as possible. Fixed by the key set alone, so the input seed
/// never changes how much parallelism a run gets.
pub fn balanced_placement(keys: &[GraphKey], shards: usize) -> u64 {
    let spread = |seed: u64| {
        let probe = ShardedService::new(shards, seed);
        let mut load = vec![0usize; shards];
        for k in keys {
            load[probe.shard_of(*k)] += 1;
        }
        load.iter().max().copied().unwrap_or(0) - load.iter().min().copied().unwrap_or(0)
    };
    (0..1024u64)
        .min_by_key(|&seed| spread(seed))
        .expect("the seed range is not empty")
}
