//! The deadline sweep: anytime-answer quality of the scheduled service as
//! deadlines tighten, across priority mixes.
//!
//! The scheduler ([`labelcount_serve::scheduler`]) cancels queries whose
//! virtual-time deadline passes and converts them into **anytime
//! answers** — the running estimate over the replicates that finished.
//! This sweep quantifies the price of that conversion:
//!
//! 1. run the workload **unconstrained** (no deadlines) and calibrate the
//!    tightness grid from the completed queries' own tick bills — the p95
//!    and p50 of per-query `latency_ticks`;
//! 2. re-run the *same* stamped workload at each tightness level
//!    (`inf`, `p95`, `p50`) and score every request's answer — the
//!    completed estimate where the deadline was met, the anytime answer
//!    where it was not (a missing answer scores as 0) — as NRMSE against
//!    exact ground truth.
//!
//! Because the virtual clock and every tick bill are pure functions of the
//! seed, tightening the deadline is the **only** change between rows:
//! answers of queries that still complete are bit-identical to the
//! unconstrained run's, so any quality difference is the causal effect of
//! cancellation alone. Per-seed NRMSE is *not* monotone in the tightness —
//! an anytime answer can happen to land closer to truth than the full
//! estimate it replaced — so the tests enforce the structural contract
//! (cancellations grow as deadlines tighten, completed answers are
//! untouched, every row scores) and the CSV artifact records the per-row
//! quality for the expectation-level degradation claim.

use labelcount_core::RunConfig;
use labelcount_osn::{FaultConfig, RetryPolicy};
use labelcount_serve::{
    GraphKey, SchedulePolicy, ServiceReport, ServiceStatus, ServiceWorkload, ShardedService,
};
use labelcount_stats::{nrmse, percentile};

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One (tightness, priority-mix) row of the sweep.
#[derive(Clone, Debug)]
pub struct DeadlineRow {
    /// Tightness level name: `inf`, `p95`, or `p50`.
    pub tightness: &'static str,
    /// The relative deadline this level resolved to (`None` = no
    /// deadline).
    pub deadline_ticks: Option<u64>,
    /// Fraction of requests stamped High priority.
    pub high_frac: f64,
    /// Fraction of requests stamped Low priority.
    pub low_frac: f64,
    /// Requests that completed all replicates in time.
    pub completed: u64,
    /// Requests cancelled into anytime answers.
    pub cancelled: u64,
    /// Deadline-carrying completions at or before their deadline.
    pub deadline_hits: u64,
    /// Mean slack over the deadline hits, ticks.
    pub mean_slack_ticks: f64,
    /// Priority inversions charged by the non-preemptive loop.
    pub priority_inversions: u64,
    /// NRMSE of the completed estimates alone (`None` when nothing
    /// completed).
    pub nrmse_completed: Option<f64>,
    /// NRMSE of **every** request's answer — completed estimate, else
    /// anytime answer, else 0 — the headline anytime-quality metric.
    pub nrmse_all: Option<f64>,
}

/// The default priority mixes: all-normal, and a contended 30/30 split.
pub const DEFAULT_PRIORITY_MIXES: [(f64, f64); 2] = [(0.0, 0.0), (0.3, 0.3)];

/// Graph keys each sweep registers.
const SWEEP_GRAPHS: u64 = 2;

/// Tenants submitting to each sweep workload.
const SWEEP_TENANTS: usize = 3;

/// Mean virtual-tick gap between arrivals.
const SWEEP_INTERARRIVAL: u64 = 6;

/// Every request's answer under the anytime contract: the completed
/// estimate, else the anytime answer, else 0 (an unanswered request is
/// maximally wrong — the score must not hide it).
fn answers(report: &ServiceReport) -> Vec<f64> {
    report
        .outcomes
        .iter()
        .map(|o| match &o.status {
            ServiceStatus::Completed(q) => q.estimate.as_ref().ok().copied().unwrap_or(0.0),
            ServiceStatus::DeadlineAnytime { anytime, .. } => anytime.unwrap_or(0.0),
            ServiceStatus::Shed { anytime, .. } => anytime.unwrap_or(0.0),
            ServiceStatus::QuotaExhausted { anytime } => anytime.unwrap_or(0.0),
            ServiceStatus::Throttled { anytime } => anytime.unwrap_or(0.0),
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

/// Runs the deadline-tightness × priority-mix grid and reduces every cell
/// to a [`DeadlineRow`], in sweep order (mix-major, `inf` → `p95` → `p50`
/// within each mix).
///
/// The fault model is latency-only (seeded per-fetch ticks, no errors), so
/// the virtual clock advances and estimates never fail for backend
/// reasons — quality loss is attributable to cancellation alone.
#[allow(clippy::too_many_arguments)] // sweep plumbing: every argument is a distinct experiment axis
pub fn deadline_sweep(
    dataset: &Dataset,
    target_idx: usize,
    requests: usize,
    budget: usize,
    mixes: &[(f64, f64)],
    seed: u64,
    workers: usize,
) -> Vec<DeadlineRow> {
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
    let build = |policy: SchedulePolicy| -> ServiceWorkload {
        ServiceWorkload::mixed_multi_tenant(
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
    };

    let mut rows = Vec::with_capacity(mixes.len() * 3);
    for &(high, low) in mixes {
        let base = SchedulePolicy::default()
            .with_interarrival(SWEEP_INTERARRIVAL)
            .with_priorities(high, low);
        // Calibrate the tightness grid from the unconstrained run's own
        // per-query tick bills.
        let free = svc.run_scheduled(build(base.clone()), workers);
        let bills: Vec<f64> = free
            .completed()
            .map(|(_, q)| q.latency_ticks as f64)
            .collect();
        assert!(
            !bills.is_empty(),
            "calibration run completed nothing — latency-only faults cannot error"
        );
        let p95 = percentile(&bills, 95.0).ceil() as u64;
        let p50 = percentile(&bills, 50.0).ceil() as u64;
        let levels: [(&'static str, Option<u64>); 3] =
            [("inf", None), ("p95", Some(p95)), ("p50", Some(p50))];
        for (name, deadline) in levels {
            let report = match deadline {
                None => free.clone(),
                Some(d) => svc.run_scheduled(build(base.clone().with_deadline(d)), workers),
            };
            let sched = report
                .scheduling
                .expect("scheduled runs report scheduling counters");
            let completed_estimates: Vec<f64> = report
                .completed()
                .filter_map(|(_, q)| q.estimate.as_ref().ok().copied())
                .collect();
            rows.push(DeadlineRow {
                tightness: name,
                deadline_ticks: deadline,
                high_frac: high,
                low_frac: low,
                completed: completed_estimates.len() as u64,
                cancelled: sched.cancellations,
                deadline_hits: sched.deadline_hits,
                mean_slack_ticks: sched.mean_slack_ticks,
                priority_inversions: sched.priority_inversions,
                nrmse_completed: finite_nrmse(&completed_estimates, target.f),
                nrmse_all: finite_nrmse(&answers(&report), target.f),
            });
        }
    }
    rows
}

/// The harness's default sweep shape: 24 requests per cell at a
/// 5%-of-`|V|` sample budget over [`DEFAULT_PRIORITY_MIXES`] ×
/// {`inf`, `p95`, `p50`}.
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<DeadlineRow>) {
    let requests = 24;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = deadline_sweep(
        dataset,
        0,
        requests,
        budget,
        &DEFAULT_PRIORITY_MIXES,
        sweep.seed,
        sweep.threads,
    );
    (requests, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn deadlines_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (requests, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Deadline sweep — {} ({} nodes, {} requests/cell, budget {})\n",
        dataset.name,
        dataset.graph.num_nodes(),
        requests,
        budget,
    ));
    out.push_str(
        "tightness  deadline  high  low   completed  cancelled  hits  mean_slack  inversions  nrmse_completed  nrmse_all\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<9}  {:<8}  {:<4.2}  {:<4.2}  {:<9}  {:<9}  {:<4}  {:<10.1}  {:<10}  {:<15}  {}\n",
            r.tightness,
            r.deadline_ticks
                .map(|d| d.to_string())
                .unwrap_or_else(|| "--".to_string()),
            r.high_frac,
            r.low_frac,
            r.completed,
            r.cancelled,
            r.deadline_hits,
            r.mean_slack_ticks,
            r.priority_inversions,
            r.nrmse_completed
                .map(|e| format!("{e:<15.4}"))
                .unwrap_or_else(|| "       --      ".to_string()),
            r.nrmse_all
                .map(|e| format!("{e:.4}"))
                .unwrap_or_else(|| "--".to_string()),
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[DeadlineRow]) -> String {
    let mut out = String::from(
        "tightness,deadline_ticks,high_frac,low_frac,completed,cancelled,deadline_hits,mean_slack_ticks,priority_inversions,nrmse_completed,nrmse_all\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            r.tightness,
            r.deadline_ticks.map(|d| d.to_string()).unwrap_or_default(),
            r.high_frac,
            r.low_frac,
            r.completed,
            r.cancelled,
            r.deadline_hits,
            r.mean_slack_ticks,
            r.priority_inversions,
            r.nrmse_completed.map(|e| e.to_string()).unwrap_or_default(),
            r.nrmse_all.map(|e| e.to_string()).unwrap_or_default(),
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

    #[test]
    fn tightening_deadlines_cancels_monotonically_and_scores_every_row() {
        let d = quick_dataset();
        let rows = deadline_sweep(&d, 0, 24, 60, &[(0.0, 0.0)], 3, 2);
        assert_eq!(rows.len(), 3);
        let [inf, p95, p50] = [&rows[0], &rows[1], &rows[2]];
        assert_eq!(inf.tightness, "inf");
        assert_eq!(inf.cancelled, 0, "no deadline, no cancellation");
        assert!(p50.deadline_ticks < p95.deadline_ticks);
        assert!(p50.cancelled >= p95.cancelled);
        assert!(p95.cancelled > 0, "a p95 deadline must cancel the tail");
        // The p95 deadline is calibrated from the unconstrained run's own
        // tick bills, so it must be *reachable*: guards against percentile
        // misuse (q is in [0, 100]) that would silently cancel everything.
        assert!(
            p95.completed > 0,
            "a p95 deadline must still complete the head of the stream"
        );
        assert!(p95.deadline_hits > 0, "p95 row recorded no deadline hits");
        assert!(inf.completed >= p95.completed);
        // Every row scores: cancelled queries fall back to anytime
        // answers, never to missing data.
        for r in [inf, p95, p50] {
            let e = r.nrmse_all.expect("every row scores nrmse_all");
            assert!(e.is_finite() && e >= 0.0, "{}: nrmse_all={e}", r.tightness);
        }
    }

    /// The causal-isolation contract behind the sweep: a deadline can only
    /// change the answers of the queries it cancels. Every query that
    /// still completes under the tight policy returns a bit-identical
    /// estimate to the unconstrained run.
    #[test]
    fn cancellation_only_changes_cancelled_answers() {
        let d = quick_dataset();
        let target = &d.targets[0];
        let run_config = RunConfig {
            burn_in: d.burn_in,
            ..RunConfig::default()
        };
        let keys: Vec<GraphKey> = (0..SWEEP_GRAPHS).map(GraphKey).collect();
        let mut svc = ShardedService::new(2, 3);
        for &k in &keys {
            svc.register(k, &d.graph);
        }
        let build = |policy: SchedulePolicy| {
            ServiceWorkload::mixed_multi_tenant(
                24,
                &keys,
                SWEEP_TENANTS,
                0.3,
                target.label,
                60,
                3,
                run_config,
            )
            .builder()
            .faults(
                FaultConfig {
                    base_latency_ticks: 1,
                    latency_jitter_ticks: 3,
                    ..FaultConfig::clean(3)
                },
                RetryPolicy::default(),
            )
            .schedule(policy)
            .build()
        };
        let base = SchedulePolicy::default().with_interarrival(SWEEP_INTERARRIVAL);
        let free = svc.run_scheduled(build(base.clone()), 2);
        let bills: Vec<f64> = free
            .completed()
            .map(|(_, q)| q.latency_ticks as f64)
            .collect();
        let d95 = percentile(&bills, 95.0).ceil() as u64;
        let tight = svc.run_scheduled(build(base.with_deadline(d95)), 2);

        let free_bits: std::collections::HashMap<u64, Option<u64>> = free
            .completed()
            .map(|(o, q)| (o.id, q.estimate.as_ref().ok().map(|e| e.to_bits())))
            .collect();
        let mut survived = 0u64;
        let mut cancelled = 0u64;
        for o in &tight.outcomes {
            match &o.status {
                ServiceStatus::Completed(q) => {
                    survived += 1;
                    assert_eq!(
                        q.estimate.as_ref().ok().map(|e| e.to_bits()),
                        free_bits[&o.id],
                        "request {} completed under the deadline but its answer drifted",
                        o.id
                    );
                }
                ServiceStatus::DeadlineAnytime { .. } => cancelled += 1,
                other => panic!("unexpected status under a latency-only schedule: {other:?}"),
            }
        }
        assert!(survived > 0, "the p95 deadline completed nothing");
        assert!(cancelled > 0, "the p95 deadline cancelled nothing");
    }

    #[test]
    fn sweep_is_deterministic_across_workers() {
        let d = quick_dataset();
        let a = deadline_sweep(&d, 0, 16, 50, &[(0.3, 0.3)], 9, 1);
        let b = deadline_sweep(&d, 0, 16, 50, &[(0.3, 0.3)], 9, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.deadline_ticks, y.deadline_ticks);
            assert_eq!(x.completed, y.completed);
            assert_eq!(x.cancelled, y.cancelled);
            assert_eq!(x.priority_inversions, y.priority_inversions);
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
        let Artifacts { text, csv } = deadlines_report(&d, &sweep);
        assert!(text.contains("tightness"));
        assert!(
            text.lines().count() >= 2 + 3 * DEFAULT_PRIORITY_MIXES.len(),
            "{text}"
        );
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + 3 * DEFAULT_PRIORITY_MIXES.len());
        assert!(csv.starts_with("tightness,"));
    }
}
