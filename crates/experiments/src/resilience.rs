//! The resilience sweep: estimation quality and realized API cost as the
//! OSN turns hostile.
//!
//! The paper evaluates its estimators against an API that always answers.
//! Real crawl APIs throttle, fail, and paginate — the
//! [`labelcount_osn::AdversarialOsn`] fault model. This module sweeps the
//! fault rate and, per rate, runs a mixed Table-2 workload through
//! [`labelcount_core::workload`], reducing to:
//!
//! * **NRMSE** of the completed queries' estimates against exact ground
//!   truth — faults must *not* move this (they delay and charge, never
//!   corrupt), except where tight budgets start killing queries;
//! * **realized API cost** — backend attempts (first tries + pages +
//!   retries) vs. the logical calls a fantasy-world crawler would pay;
//! * **degradation** — queries whose hard budget was exhausted by retry
//!   charges before the estimator finished.

use labelcount_core::workload::{run_workload, Workload};
use labelcount_core::RunConfig;
use labelcount_osn::{FaultConfig, GraphOsn, RetryPolicy};
use labelcount_stats::nrmse;

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One fault-rate row of the sweep.
#[derive(Clone, Debug)]
pub struct ResilienceRow {
    /// Per-attempt fault probability of this row.
    pub fault_rate: f64,
    /// NRMSE of the completed queries against ground truth (`None` when
    /// every query died or some estimate was non-finite).
    pub nrmse: Option<f64>,
    /// Queries that completed (produced an estimate).
    pub completed: u64,
    /// Queries whose hard budget ran out.
    pub budget_exhausted: u64,
    /// Logical API calls across all queries (the clean-world cost).
    pub logical_calls: u64,
    /// Realized backend attempts across all queries (what the hostile API
    /// actually billed).
    pub backend_attempts: u64,
    /// Retry charges across all queries.
    pub retry_charges: u64,
    /// Median per-query simulated latency, ticks.
    pub latency_p50: f64,
    /// 95th-percentile per-query simulated latency, ticks.
    pub latency_p95: f64,
}

impl ResilienceRow {
    /// Realized cost per logical call — 1.0 against a perfect API.
    pub fn cost_inflation(&self) -> f64 {
        if self.logical_calls == 0 {
            0.0
        } else {
            self.backend_attempts as f64 / self.logical_calls as f64
        }
    }
}

/// The default fault-rate grid: clean, mild, moderate, rough, hostile.
pub const DEFAULT_FAULT_RATES: [f64; 5] = [0.0, 0.05, 0.15, 0.3, 0.5];

/// Runs one mixed workload per fault rate and reduces each to a
/// [`ResilienceRow`].
///
/// `queries` queries cycle through the Table-2 roster; every query's
/// sample budget is `budget` and its hard budget `4 × budget` charged
/// calls, so rising fault rates eventually exhaust budgets instead of
/// stretching runtimes without bound.
#[allow(clippy::too_many_arguments)] // sweep plumbing: every argument is a distinct experiment axis
pub fn resilience_sweep(
    dataset: &Dataset,
    target_idx: usize,
    queries: usize,
    budget: usize,
    fault_rates: &[f64],
    seed: u64,
    workers: usize,
) -> Vec<ResilienceRow> {
    let target = &dataset.targets[target_idx];
    let run_config = RunConfig {
        burn_in: dataset.burn_in,
        ..RunConfig::default()
    };
    fault_rates
        .iter()
        .map(|&rate| {
            let workload = Workload::mixed(queries, target.label, budget, seed, run_config)
                .builder()
                .faults(
                    if rate > 0.0 {
                        FaultConfig::hostile(seed, rate)
                    } else {
                        FaultConfig::clean(seed)
                    },
                    RetryPolicy::default(),
                )
                .build();
            let report = run_workload(&GraphOsn::new(&dataset.graph), &workload, workers);
            let estimates: Vec<f64> = report
                .outcomes
                .iter()
                .filter_map(|o| o.estimate.as_ref().ok().copied())
                .collect();
            let row_nrmse = if estimates.is_empty()
                || estimates.iter().any(|e| !e.is_finite())
                || target.f == 0
            {
                None
            } else {
                Some(nrmse(&estimates, target.f as f64))
            };
            ResilienceRow {
                fault_rate: rate,
                nrmse: row_nrmse,
                completed: estimates.len() as u64,
                budget_exhausted: report.budget_exhausted_queries(),
                logical_calls: report.total_logical_calls(),
                backend_attempts: report.total_backend_attempts(),
                retry_charges: report.total_retry_charges(),
                latency_p50: report.latency_ticks_percentile(50.0).unwrap_or(0.0),
                latency_p95: report.latency_ticks_percentile(95.0).unwrap_or(0.0),
            }
        })
        .collect()
}

/// The harness's default sweep shape: 20 mixed queries per row at a
/// 5%-of-`|V|` sample budget over [`DEFAULT_FAULT_RATES`].
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<ResilienceRow>) {
    let queries = 20;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = resilience_sweep(
        dataset,
        0,
        queries,
        budget,
        &DEFAULT_FAULT_RATES,
        sweep.seed,
        sweep.threads,
    );
    (queries, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn resilience_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (queries, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Resilience sweep — {} ({} nodes, {} queries/row, budget {})\n",
        dataset.name,
        dataset.graph.num_nodes(),
        queries,
        budget
    ));
    out.push_str(
        "fault_rate  nrmse     completed  exhausted  logical  attempts  inflation  p50_ticks  p95_ticks\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<10.2}  {}  {:<9}  {:<9}  {:<7}  {:<8}  {:<9.3}  {:<9.0}  {:<9.0}\n",
            r.fault_rate,
            r.nrmse
                .map(|e| format!("{e:<8.4}"))
                .unwrap_or_else(|| "   --   ".to_string()),
            r.completed,
            r.budget_exhausted,
            r.logical_calls,
            r.backend_attempts,
            r.cost_inflation(),
            r.latency_p50,
            r.latency_p95,
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[ResilienceRow]) -> String {
    let mut out = String::from(
        "fault_rate,nrmse,completed,budget_exhausted,logical_calls,backend_attempts,cost_inflation,latency_p50,latency_p95\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.fault_rate,
            r.nrmse.map(|e| e.to_string()).unwrap_or_default(),
            r.completed,
            r.budget_exhausted,
            r.logical_calls,
            r.backend_attempts,
            r.cost_inflation(),
            r.latency_p50,
            r.latency_p95,
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
    fn clean_row_has_no_fault_cost() {
        let d = quick_dataset();
        let rows = resilience_sweep(&d, 0, 10, 60, &[0.0], 3, 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.retry_charges, 0);
        // Clean config, unpaginated: attempts == misses <= logical calls.
        assert!(r.backend_attempts <= r.logical_calls);
        assert!(
            (r.cost_inflation() - r.backend_attempts as f64 / r.logical_calls as f64).abs() < 1e-12
        );
        assert!(r.nrmse.is_some());
        assert_eq!(r.completed, 10);
    }

    #[test]
    fn cost_inflates_with_the_fault_rate() {
        let d = quick_dataset();
        let rows = resilience_sweep(&d, 0, 8, 60, &[0.0, 0.4], 5, 2);
        assert!(rows[1].backend_attempts > rows[0].backend_attempts);
        assert!(rows[1].retry_charges > 0);
        assert!(rows[1].latency_p95 >= rows[1].latency_p50);
        assert!(rows[1].latency_p50 > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let d = quick_dataset();
        let a = resilience_sweep(&d, 0, 8, 50, &[0.2], 9, 1);
        let b = resilience_sweep(&d, 0, 8, 50, &[0.2], 9, 4);
        assert_eq!(a[0].nrmse.map(f64::to_bits), b[0].nrmse.map(f64::to_bits));
        assert_eq!(a[0].backend_attempts, b[0].backend_attempts);
        assert_eq!(a[0].retry_charges, b[0].retry_charges);
    }

    #[test]
    fn report_and_csv_render() {
        let d = quick_dataset();
        let sweep = SweepConfig {
            threads: 2,
            seed: 11,
            ..SweepConfig::default()
        };
        let Artifacts { text, csv } = resilience_report(&d, &sweep);
        assert!(text.contains("fault_rate"));
        assert!(text.lines().count() >= 2 + DEFAULT_FAULT_RATES.len());
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + DEFAULT_FAULT_RATES.len());
        assert!(csv.starts_with("fault_rate,"));
    }
}
