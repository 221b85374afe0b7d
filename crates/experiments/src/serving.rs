//! The serving sweep: multi-tenant admission behaviour of the sharded
//! service as the tenant mix skews toward a heavy hitter.
//!
//! The paper's estimators answer one query; a deployment answers a
//! stream of them, for many tenants, across a shard fleet
//! ([`labelcount_serve`]). This module sweeps the heavy-hitter
//! probability and, per skew, runs the same contested multi-tenant
//! workload at every shard count in a grid, reducing to:
//!
//! * **admission split** — admitted / shed / quota-exhausted counts under
//!   a tight modelled queue and a per-tenant quota sized for three
//!   fully-budgeted requests;
//! * **fairness** — the max/min ratio of admitted requests per tenant
//!   (1.0 is perfectly even; quota capping of the hog pushes it up);
//! * **NRMSE** of the completed queries against exact ground truth —
//!   admission must shape *who* runs, never corrupt *what* they answer;
//! * **shard invariance** — whether every shard count in the grid
//!   produced bit-identical counters and estimates (the serving layer's
//!   headline determinism contract, recorded per row rather than assumed).

use labelcount_core::RunConfig;
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, ServiceReport, ServiceStatus, ServiceWorkload,
    ShardedService, TenantId,
};
use labelcount_stats::nrmse;

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One tenant-skew row of the sweep.
#[derive(Clone, Debug)]
pub struct ServingRow {
    /// Heavy-hitter probability of this row (tenant 0's share of the
    /// request stream beyond its uniform slice).
    pub tenant_skew: f64,
    /// Requests admitted and executed.
    pub admitted: u64,
    /// Requests shed by the modelled queue.
    pub shed: u64,
    /// Requests rejected because their tenant's quota could not cover
    /// them.
    pub quota_exhausted: u64,
    /// Max/min admitted requests per tenant (tenants that submitted at
    /// least once).
    pub fairness: f64,
    /// Requests admitted for the heavy hitter (tenant 0).
    pub hog_admitted: u64,
    /// NRMSE of the completed queries against ground truth (`None` when
    /// nothing completed or an estimate was non-finite).
    pub nrmse: Option<f64>,
    /// Whether every shard count in the grid produced bit-identical
    /// counters and estimates.
    pub shard_invariant: bool,
}

/// The default heavy-hitter grid: even, mild, skewed, hog-dominated.
pub const DEFAULT_TENANT_SKEWS: [f64; 4] = [0.0, 0.3, 0.6, 0.9];

/// The default shard-fleet grid each row is replayed across.
pub const DEFAULT_SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Graph keys each sweep registers (the dataset graph served as a
/// four-dataset fleet sharing one topology).
const SWEEP_GRAPHS: u64 = 4;

/// Tenants submitting to each sweep workload.
const SWEEP_TENANTS: usize = 4;

fn counters_of(r: &ServiceReport) -> (u64, u64, u64, u64) {
    (
        r.serving.admitted,
        r.serving.shed,
        r.serving.quota_exhausted,
        r.serving.tenant_fairness.to_bits(),
    )
}

fn estimate_bits(r: &ServiceReport) -> Vec<Option<u64>> {
    r.outcomes
        .iter()
        .map(|o| match &o.status {
            ServiceStatus::Completed(q) => q.estimate.as_ref().ok().map(|e| e.to_bits()),
            _ => None,
        })
        .collect()
}

/// Runs one contested multi-tenant workload per skew, replayed at every
/// shard count, and reduces each skew to a [`ServingRow`].
///
/// Every request's sample budget is `budget`; its hard budget is the
/// service default (`6 × (budget + burn-in)` charged calls), and each
/// tenant's quota covers exactly three fully-budgeted requests — so a
/// skewed stream exhausts the hog's quota while the modelled queue
/// (capacity 2, one drain per five arrivals) sheds overload.
#[allow(clippy::too_many_arguments)] // sweep plumbing: every argument is a distinct experiment axis
pub fn serving_sweep(
    dataset: &Dataset,
    target_idx: usize,
    requests: usize,
    budget: usize,
    tenant_skews: &[f64],
    shard_counts: &[usize],
    seed: u64,
    workers: usize,
) -> Vec<ServingRow> {
    assert!(!shard_counts.is_empty(), "shard grid must be non-empty");
    let target = &dataset.targets[target_idx];
    let run_config = RunConfig {
        burn_in: dataset.burn_in,
        ..RunConfig::default()
    };
    let keys: Vec<GraphKey> = (0..SWEEP_GRAPHS).map(GraphKey).collect();
    let quota = 3 * 6 * (budget as u64 + dataset.burn_in as u64);
    tenant_skews
        .iter()
        .map(|&skew| {
            let build = || {
                ServiceWorkload::mixed_multi_tenant(
                    requests,
                    &keys,
                    SWEEP_TENANTS,
                    skew,
                    target.label,
                    budget,
                    seed,
                    run_config,
                )
                .builder()
                .admission(AdmissionConfig {
                    queue_capacity: 2,
                    drain_every: 5,
                    shed_start: 0.75,
                    ..AdmissionConfig::default()
                })
                .quotas(QuotaPolicy::uniform(quota))
                .build()
            };
            let run = |shards: usize| {
                let mut svc = ShardedService::new(shards, seed);
                for &k in &keys {
                    svc.register(k, &dataset.graph);
                }
                svc.run_scheduled(build(), workers)
            };
            let reference = run(shard_counts[0]);
            let shard_invariant = shard_counts[1..].iter().all(|&s| {
                let r = run(s);
                counters_of(&r) == counters_of(&reference)
                    && estimate_bits(&r) == estimate_bits(&reference)
            });
            let estimates: Vec<f64> = reference
                .completed()
                .filter_map(|(_, q)| q.estimate.as_ref().ok().copied())
                .collect();
            let row_nrmse = if estimates.is_empty()
                || estimates.iter().any(|e| !e.is_finite())
                || target.f == 0
            {
                None
            } else {
                Some(nrmse(&estimates, target.f as f64))
            };
            let hog_admitted = reference
                .outcomes
                .iter()
                .filter(|o| {
                    o.tenant == TenantId(0) && matches!(o.status, ServiceStatus::Completed(_))
                })
                .count() as u64;
            ServingRow {
                tenant_skew: skew,
                admitted: reference.serving.admitted,
                shed: reference.serving.shed,
                quota_exhausted: reference.serving.quota_exhausted,
                fairness: reference.serving.tenant_fairness,
                hog_admitted,
                nrmse: row_nrmse,
                shard_invariant,
            }
        })
        .collect()
}

/// The harness's default sweep shape: 32 requests per row at a
/// 5%-of-`|V|` sample budget over [`DEFAULT_TENANT_SKEWS`] ×
/// [`DEFAULT_SHARD_COUNTS`].
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<ServingRow>) {
    let requests = 32;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = serving_sweep(
        dataset,
        0,
        requests,
        budget,
        &DEFAULT_TENANT_SKEWS,
        &DEFAULT_SHARD_COUNTS,
        sweep.seed,
        sweep.threads,
    );
    (requests, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn serving_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (requests, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Serving sweep — {} ({} nodes, {} requests/row, budget {}, shards {:?})\n",
        dataset.name,
        dataset.graph.num_nodes(),
        requests,
        budget,
        DEFAULT_SHARD_COUNTS,
    ));
    out.push_str(
        "tenant_skew  admitted  shed  quota_exhausted  hog_admitted  fairness  nrmse     shard_invariant\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<11.2}  {:<8}  {:<4}  {:<15}  {:<12}  {:<8.2}  {}  {}\n",
            r.tenant_skew,
            r.admitted,
            r.shed,
            r.quota_exhausted,
            r.hog_admitted,
            r.fairness,
            r.nrmse
                .map(|e| format!("{e:<8.4}"))
                .unwrap_or_else(|| "   --   ".to_string()),
            r.shard_invariant,
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[ServingRow]) -> String {
    let mut out = String::from(
        "tenant_skew,admitted,shed,quota_exhausted,hog_admitted,fairness,nrmse,shard_invariant\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.tenant_skew,
            r.admitted,
            r.shed,
            r.quota_exhausted,
            r.hog_admitted,
            r.fairness,
            r.nrmse.map(|e| e.to_string()).unwrap_or_default(),
            r.shard_invariant,
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
    fn contested_rows_exercise_every_admission_path() {
        let d = quick_dataset();
        let rows = serving_sweep(&d, 0, 32, 60, &[0.6], &[1, 4], 3, 2);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(r.admitted + r.shed + r.quota_exhausted, 32);
        assert!(r.admitted > 0, "nothing admitted");
        assert!(r.shed > 0, "nothing shed");
        assert!(r.quota_exhausted > 0, "no quota rejection");
        assert!(r.shard_invariant, "shard counts diverged");
        assert!(r.nrmse.is_some());
        // The hog's quota covers three fully-budgeted requests.
        assert!(r.hog_admitted <= 3);
    }

    #[test]
    fn skew_concentrates_rejections_on_the_hog() {
        let d = quick_dataset();
        let rows = serving_sweep(&d, 0, 32, 60, &[0.0, 0.9], &[2], 5, 2);
        // A hog-dominated stream funnels most requests into one tenant's
        // three-request quota, so far more are quota-rejected.
        assert!(rows[1].quota_exhausted > rows[0].quota_exhausted);
        // And fairness degrades: the hog is capped while light tenants
        // keep flowing.
        assert!(rows[1].fairness >= rows[0].fairness);
    }

    #[test]
    fn sweep_is_deterministic_across_workers() {
        let d = quick_dataset();
        let a = serving_sweep(&d, 0, 24, 50, &[0.5], &[1, 2, 8], 9, 1);
        let b = serving_sweep(&d, 0, 24, 50, &[0.5], &[1, 2, 8], 9, 4);
        assert_eq!(a[0].admitted, b[0].admitted);
        assert_eq!(a[0].shed, b[0].shed);
        assert_eq!(a[0].quota_exhausted, b[0].quota_exhausted);
        assert_eq!(a[0].nrmse.map(f64::to_bits), b[0].nrmse.map(f64::to_bits));
        assert!(a[0].shard_invariant && b[0].shard_invariant);
    }

    #[test]
    fn report_and_csv_render() {
        let d = quick_dataset();
        let sweep = SweepConfig {
            threads: 2,
            seed: 11,
            ..SweepConfig::default()
        };
        let Artifacts { text, csv } = serving_report(&d, &sweep);
        assert!(text.contains("tenant_skew"));
        assert!(text.lines().count() >= 2 + DEFAULT_TENANT_SKEWS.len());
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + DEFAULT_TENANT_SKEWS.len());
        assert!(csv.starts_with("tenant_skew,"));
    }
}
