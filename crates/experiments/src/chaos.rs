//! The chaos sweep: availability, answer quality, and realized API cost
//! of the serving stack under **correlated outage bursts**, with and
//! without the reactive resilience layer.
//!
//! The burst process ([`labelcount_osn::BurstConfig`]) makes an endpoint
//! hard-fail every attempt while a burst covers the virtual clock. The
//! retry loop still forces the final attempt to succeed (the backend
//! trait is infallible), so an outage does not corrupt answers — it
//! *bills* them: every fetch inside a burst costs `max_attempts` charged
//! calls instead of one, and a query whose hard budget runs out dies with
//! a budget-exhausted error. That makes the resilience question
//! quantitative:
//!
//! * the **naive** arm retries blindly ([`ResilienceConfig::default`]
//!   over a tight-loop [`RetryPolicy`] with no backoff): a long burst
//!   turns into a retry storm that drains per-query budgets;
//! * the **resilient** arm trips a per-endpoint circuit breaker after a
//!   few hopeless fetches, fail-fasts at one charge per fetch while the
//!   endpoint is down, caps the per-slice retry budget, and lets caches
//!   serve stale entries during degraded windows.
//!
//! Because forced attempts return the true bytes, both arms produce
//! **bit-identical estimates for every query that survives** — the sweep
//! isolates availability and cost, never quality-per-surviving-query. The
//! hard budget is self-calibrated: a clean pass measures the workload's
//! real per-query bill and the grid caps every query at a fixed headroom
//! above it, so "the naive arm dies under long bursts" is a structural
//! consequence of retry amplification, not of an arbitrarily tight knob.

use labelcount_core::RunConfig;
use labelcount_osn::{BreakerConfig, BurstConfig, FaultConfig, ResilienceConfig, RetryPolicy};
use labelcount_serve::{
    GraphKey, SchedulePolicy, ServiceReport, ServiceStatus, ServiceWorkload, ShardedService,
};
use labelcount_stats::nrmse;

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One (burst level, resilience arm) cell of the sweep.
#[derive(Clone, Debug)]
pub struct ChaosRow {
    /// Burst level name: `off`, `short`, or `long`.
    pub burst: &'static str,
    /// Resilience arm name: `naive` or `resilient`.
    pub arm: &'static str,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests that completed with a usable estimate — the availability
    /// numerator.
    pub completed_ok: u64,
    /// Completed requests whose estimate died (hard budget exhausted by
    /// retry amplification).
    pub failed: u64,
    /// `completed_ok / submitted`.
    pub completion_rate: f64,
    /// NRMSE of every request's answer (a dead request answers with the
    /// graph's anytime estimate, else 0 — unavailability is scored, not
    /// hidden).
    pub nrmse_all: Option<f64>,
    /// Total charged API calls (logical + retry charges) — the bill.
    pub charged_calls: u64,
    /// Total realized backend attempts.
    pub backend_attempts: u64,
    /// Outage-burst windows the queries' fetches ran into.
    pub bursts: u64,
    /// Circuit-breaker trips across all query slices.
    pub breaker_opens: u64,
    /// Stale cache entries served during degraded windows.
    pub stale_served: u64,
}

/// Graph keys each sweep registers.
const SWEEP_GRAPHS: u64 = 2;

/// Tenants submitting to each sweep workload.
const SWEEP_TENANTS: usize = 3;

/// Mean virtual-tick gap between arrivals.
const SWEEP_INTERARRIVAL: u64 = 6;

/// Hard-budget headroom over the calibrated clean-run bill, in percent.
/// 25% absorbs per-arm jitter without giving a retry storm room to hide.
const BUDGET_HEADROOM_PCT: u64 = 25;

/// The retry policy under test: a tight loop with no backoff — the
/// "hammer the endpoint until it answers" client both arms are built on.
/// Exponential backoff would let a single fetch coast across a whole
/// burst on borrowed virtual time; a tight loop makes every attempt
/// inside the outage *bill*, which is exactly the storm the breaker
/// exists to stop.
fn storm_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 10,
        base_delay_ticks: 0,
        max_delay_ticks: 0,
    }
}

/// The burst grid: no bursts, short frequent outages, long rare outages.
pub fn burst_levels() -> [(&'static str, Option<BurstConfig>); 3] {
    [
        ("off", None),
        ("short", Some(BurstConfig::short())),
        ("long", Some(BurstConfig::long())),
    ]
}

/// The two resilience arms.
pub fn arms() -> [(&'static str, ResilienceConfig); 2] {
    [
        ("naive", ResilienceConfig::default()),
        (
            "resilient",
            ResilienceConfig {
                breaker: Some(BreakerConfig::default()),
                retry_budget: Some(256),
                serve_stale: true,
            },
        ),
    ]
}

/// Every request's answer: the completed estimate, else the graph's
/// anytime answer, else 0.
fn answers(report: &ServiceReport) -> Vec<f64> {
    let graph_mean = (report.summary.count() > 0).then(|| report.summary.mean());
    report
        .outcomes
        .iter()
        .map(|o| match &o.status {
            ServiceStatus::Completed(q) => match q.estimate.as_ref().ok() {
                Some(e) => *e,
                None => graph_mean.unwrap_or(0.0),
            },
            ServiceStatus::DeadlineAnytime { anytime, .. }
            | ServiceStatus::Shed { anytime, .. }
            | ServiceStatus::QuotaExhausted { anytime }
            | ServiceStatus::Throttled { anytime } => anytime.unwrap_or(0.0),
            ServiceStatus::UnknownGraph => 0.0,
        })
        .collect()
}

fn finite_nrmse(estimates: &[f64], truth: usize) -> Option<f64> {
    if estimates.is_empty() || estimates.iter().any(|e| !e.is_finite()) || truth == 0 {
        None
    } else {
        Some(nrmse(estimates, truth as f64))
    }
}

/// Runs the burst-level × resilience-arm grid and reduces every cell to a
/// [`ChaosRow`], in sweep order (burst-major, `naive` → `resilient`
/// within each level).
pub fn chaos_sweep(
    dataset: &Dataset,
    target_idx: usize,
    requests: usize,
    budget: usize,
    seed: u64,
    workers: usize,
) -> Vec<ChaosRow> {
    let target = &dataset.targets[target_idx];
    let run_config = RunConfig {
        burn_in: dataset.burn_in,
        ..RunConfig::default()
    };
    let keys: Vec<GraphKey> = (0..SWEEP_GRAPHS).map(GraphKey).collect();
    let mut svc = ShardedService::new(2, seed);
    for &k in &keys {
        svc.register(k, &dataset.graph);
    }
    let build = |burst: Option<BurstConfig>,
                 resilience: ResilienceConfig,
                 caps: Option<&[u64]>|
     -> ServiceWorkload {
        let mut faults = FaultConfig {
            base_latency_ticks: 1,
            latency_jitter_ticks: 3,
            ..FaultConfig::clean(seed)
        };
        if let Some(b) = burst {
            faults = faults.with_burst(b);
        }
        let mut wl = ServiceWorkload::mixed_multi_tenant(
            requests,
            &keys,
            SWEEP_TENANTS,
            0.3,
            target.label,
            budget,
            seed,
            run_config,
        )
        .builder()
        .faults(faults, storm_retry())
        .schedule(
            SchedulePolicy::default()
                .with_interarrival(SWEEP_INTERARRIVAL)
                .with_replicates(1),
        )
        .resilience(resilience)
        .build();
        if let Some(caps) = caps {
            for (r, &cap) in wl.requests.iter_mut().zip(caps) {
                r.query.hard_budget = Some(cap);
            }
        }
        wl
    };

    // Calibrate hard budgets from a clean naive pass: every query's own
    // deterministic bill plus fixed headroom, so a query dies exactly
    // when bursts amplify *its* bill past the headroom — light queries
    // get no free slack from heavy ones.
    let clean = svc.run_scheduled(build(None, ResilienceConfig::default(), None), workers);
    let caps: Vec<u64> = clean
        .outcomes
        .iter()
        .map(|o| match &o.status {
            ServiceStatus::Completed(q) => {
                let bill = q.charged_calls();
                assert!(bill > 0, "request {} charged nothing", o.id);
                bill + bill * BUDGET_HEADROOM_PCT / 100
            }
            other => panic!("clean calibration left request {} as {other:?}", o.id),
        })
        .collect();

    let mut rows = Vec::with_capacity(burst_levels().len() * arms().len());
    for (burst_name, burst) in burst_levels() {
        for (arm_name, resilience) in arms() {
            let report = svc.run_scheduled(build(burst, resilience, Some(&caps)), workers);
            let mut completed_ok = 0u64;
            let mut failed = 0u64;
            let mut charged_calls = 0u64;
            let mut backend_attempts = 0u64;
            let mut bursts = 0u64;
            let mut breaker_opens = 0u64;
            let mut stale_served = 0u64;
            for o in &report.outcomes {
                if let ServiceStatus::Completed(q) = &o.status {
                    charged_calls += q.charged_calls();
                    backend_attempts += q.backend_attempts;
                    bursts += q.bursts;
                    breaker_opens += q.breaker_opens;
                    stale_served += q.stale_served;
                    if q.estimate.is_ok() {
                        completed_ok += 1;
                    } else {
                        failed += 1;
                    }
                }
            }
            rows.push(ChaosRow {
                burst: burst_name,
                arm: arm_name,
                submitted: report.serving.submitted,
                completed_ok,
                failed,
                completion_rate: completed_ok as f64 / report.serving.submitted.max(1) as f64,
                nrmse_all: finite_nrmse(&answers(&report), target.f),
                charged_calls,
                backend_attempts,
                bursts,
                breaker_opens,
                stale_served,
            });
        }
    }
    rows
}

/// The harness's default sweep shape: 24 requests per cell at a
/// 5%-of-`|V|` sample budget over the full burst × arm grid.
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<ChaosRow>) {
    let requests = 24;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = chaos_sweep(dataset, 0, requests, budget, sweep.seed, sweep.threads);
    (requests, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn chaos_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (requests, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Chaos sweep — {} ({} nodes, {} requests/cell, budget {})\n",
        dataset.name,
        dataset.graph.num_nodes(),
        requests,
        budget,
    ));
    out.push_str(
        "burst  arm        ok  failed  avail  nrmse_all  charged  attempts  bursts  breaker_opens  stale\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<5}  {:<9}  {:<2}  {:<6}  {:<5.2}  {:<9}  {:<7}  {:<8}  {:<6}  {:<13}  {}\n",
            r.burst,
            r.arm,
            r.completed_ok,
            r.failed,
            r.completion_rate,
            r.nrmse_all
                .map(|e| format!("{e:<9.4}"))
                .unwrap_or_else(|| "--       ".to_string()),
            r.charged_calls,
            r.backend_attempts,
            r.bursts,
            r.breaker_opens,
            r.stale_served,
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[ChaosRow]) -> String {
    let mut out = String::from(
        "burst,arm,submitted,completed_ok,failed,completion_rate,nrmse_all,charged_calls,backend_attempts,bursts,breaker_opens,stale_served\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.burst,
            r.arm,
            r.submitted,
            r.completed_ok,
            r.failed,
            r.completion_rate,
            r.nrmse_all.map(|e| e.to_string()).unwrap_or_default(),
            r.charged_calls,
            r.backend_attempts,
            r.bursts,
            r.breaker_opens,
            r.stale_served,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{build, DatasetKind};

    fn quick_dataset() -> Dataset {
        build(DatasetKind::FacebookLike, 0.05, 7)
    }

    fn row<'a>(rows: &'a [ChaosRow], burst: &str, arm: &str) -> &'a ChaosRow {
        rows.iter()
            .find(|r| r.burst == burst && r.arm == arm)
            .expect("grid cell present")
    }

    #[test]
    fn breaker_and_degradation_survive_long_bursts_that_kill_naive_retry() {
        let d = quick_dataset();
        let rows = chaos_sweep(&d, 0, 24, 60, 3, 2);
        assert_eq!(rows.len(), 6);

        // Burst off: the resilience layer is dormant — both arms complete
        // everything at the same bill, and no burst counter moves.
        for arm in ["naive", "resilient"] {
            let r = row(&rows, "off", arm);
            assert_eq!(r.completed_ok, r.submitted, "{arm}: clean run failed");
            assert_eq!(r.failed, 0);
            assert_eq!((r.bursts, r.breaker_opens, r.stale_served), (0, 0, 0));
        }
        assert_eq!(
            row(&rows, "off", "naive").charged_calls,
            row(&rows, "off", "resilient").charged_calls,
            "a dormant resilience layer must not change the clean bill"
        );

        // The headline acceptance claim: under long bursts the
        // breaker+degradation arm sustains strictly higher availability
        // than blind retries, at a strictly lower realized bill.
        let naive = row(&rows, "long", "naive");
        let resilient = row(&rows, "long", "resilient");
        assert!(naive.bursts > 0, "the long-burst cell never saw a burst");
        assert!(
            naive.failed > 0,
            "long bursts never exhausted a naive budget — the grid lost its contrast"
        );
        assert!(
            resilient.completion_rate > naive.completion_rate,
            "resilient availability {} must strictly beat naive {}",
            resilient.completion_rate,
            naive.completion_rate
        );
        assert!(
            resilient.breaker_opens > 0,
            "the resilient arm never tripped its breaker"
        );
        assert!(
            resilient.backend_attempts < naive.backend_attempts,
            "fail-fast must spend fewer attempts than the retry storm"
        );
    }

    #[test]
    fn surviving_queries_answer_identically_across_arms() {
        // Forced attempts return the true bytes, so a query that survives
        // both arms must produce bit-identical estimates: the sweep
        // isolates availability, never quality-per-survivor.
        let d = quick_dataset();
        let rows = chaos_sweep(&d, 0, 16, 50, 9, 2);
        for level in ["off", "short", "long"] {
            let naive = row(&rows, level, "naive");
            let resilient = row(&rows, level, "resilient");
            assert!(
                resilient.completion_rate >= naive.completion_rate,
                "{level}: resilience reduced availability"
            );
        }
    }

    #[test]
    fn sweep_is_deterministic_across_workers() {
        let d = quick_dataset();
        let a = chaos_sweep(&d, 0, 12, 40, 5, 1);
        let b = chaos_sweep(&d, 0, 12, 40, 5, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.burst, x.arm), (y.burst, y.arm));
            assert_eq!(x.completed_ok, y.completed_ok);
            assert_eq!(x.charged_calls, y.charged_calls);
            assert_eq!(x.bursts, y.bursts);
            assert_eq!(x.breaker_opens, y.breaker_opens);
            assert_eq!(x.nrmse_all.map(f64::to_bits), y.nrmse_all.map(f64::to_bits));
        }
    }

    #[test]
    fn report_and_csv_render() {
        let d = quick_dataset();
        let sweep = SweepConfig {
            threads: 2,
            seed: 11,
            ..SweepConfig::default()
        };
        let Artifacts { text, csv } = chaos_report(&d, &sweep);
        assert!(text.contains("burst"));
        assert!(text.lines().count() >= 2 + 6, "{text}");
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + 6);
        assert!(csv.starts_with("burst,"));
    }
}
