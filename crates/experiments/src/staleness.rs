//! The staleness sweep: dynamic-graph churn against epoch-stamped cache
//! invalidation.
//!
//! The paper's estimators assume a static graph behind the OSN API; real
//! OSNs churn — friendships form and dissolve, profile labels flip. This
//! module serves a seeded churn stream (`labelcount_osn::ChurnOsn`)
//! through the full L1 + L2 cache stack and measures, per (churn rate ×
//! cache depth) cell:
//!
//! * **invalidating arm** — epochs reported, so every cache layer treats
//!   an entry whose node region churned as a miss: NRMSE of a replicated
//!   estimation workload against the *fresh* ground truth of the churned
//!   snapshot, plus the stale-eviction counters that paid for it;
//! * **stale arm** — the identical backend with epoch reporting turned
//!   off: warm caches keep serving pre-churn bytes, and the same NRMSE
//!   column prices the error of reading stale data;
//! * **session probe** — one long-lived session that reads a node set,
//!   lets churn advance, and reads it again: its private L1 must discover
//!   the staleness itself (`l1_stale_evictions`).
//!
//! Expected shape: at churn rate 0 the arms are bit-identical and every
//! stale counter reads 0; as the rate grows, the invalidating arm tracks
//! fresh truth at the cost of stale evictions while the stale arm's error
//! inflates. Every column is **bit-identical at any thread count** —
//! churn advances at serial control points, never mid-replication, and
//! the bounded-L2 arm runs its replicates on one thread (which entries
//! its evictions keep depends on how concurrent replicates interleave).

use labelcount_core::{Engine, NsHansenHurwitz, RunConfig};
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::{GroundTruth, NodeId};
use labelcount_osn::{CacheConfig, ChurnOsn, OsnApi};
use labelcount_stats::nrmse;

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One (churn rate × cache depth) cell of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct StalenessRow {
    /// Fraction of `|V|` drawn as churn events per batch.
    pub churn_rate: f64,
    /// Cache-depth label (`l1+l2`, `l2-only`, `bounded-l2`).
    pub cache: &'static str,
    /// Churn batches applied between the warm and measure phases.
    pub batches: u64,
    /// Events that actually mutated the graph (no-op draws excluded).
    pub events_applied: u64,
    /// NRMSE vs the churned snapshot's fresh ground truth, with
    /// epoch-stamped invalidation active.
    pub nrmse_invalidating: f64,
    /// The same NRMSE with epoch reporting off — caches serve stale bytes.
    pub nrmse_stale: f64,
    /// Shared-L2 entries discovered stale and refetched (invalidating arm).
    pub l2_stale_evictions: u64,
    /// Session-L1 slots discovered stale by the serial session probe.
    pub l1_stale_evictions: u64,
}

/// The cache-depth grid: the default two-level stack, the L1 disabled,
/// and a bounded L2 under eviction pressure.
pub fn cache_grid() -> [(&'static str, CacheConfig); 3] {
    [
        ("l1+l2", CacheConfig::builder().build()),
        ("l2-only", CacheConfig::builder().l1_slots(0).build()),
        ("bounded-l2", CacheConfig::builder().capacity(256).build()),
    ]
}

/// The default churn-rate grid: static, gentle, heavy.
pub const DEFAULT_CHURN_RATES: [f64; 3] = [0.0, 0.02, 0.1];

/// Churn batches applied between the warm and the measure phase.
const CHURN_TICKS: u64 = 8;

/// Nodes the session probe touches before and after the second advance.
const PROBE_NODES: u32 = 64;

/// One arm's NRMSE: warm the engine's caches pre-churn, advance the
/// schedule, re-estimate, and score against the fresh snapshot's truth.
/// Returns `(nrmse, l2_stale_evictions, batches, events_applied,
/// l1_stale_from_probe)`.
#[allow(clippy::too_many_arguments)] // sweep plumbing: every argument is a distinct experiment axis
fn run_arm(
    dataset: &Dataset,
    churn_cfg: ChurnConfig,
    cache: CacheConfig,
    report_epochs: bool,
    replicates: usize,
    budget: usize,
    sweep: &SweepConfig,
) -> (f64, u64, u64, u64, u64) {
    let target = dataset.targets[0].label;
    let run_config = RunConfig {
        burn_in: dataset.burn_in,
        ..RunConfig::default()
    };
    let alg = NsHansenHurwitz;
    // A bounded L2 evicts in the order concurrent replicates reach it, so
    // its arm runs them serially to keep its rows thread-independent.
    let threads = if cache.capacity().is_some() {
        1
    } else {
        sweep.threads
    };
    let backend = ChurnOsn::new(&dataset.graph, churn_cfg).set_report_epochs(report_epochs);
    let engine = Engine::on_backend_with_config(backend, cache);

    // Warm phase: the pre-churn workload fills the shared L2 (and, per
    // replication, a private L1). Its estimates are not scored.
    let _ = engine.estimate_replicated(
        &alg,
        target,
        budget,
        &run_config,
        sweep.seed,
        replicates,
        threads,
    );

    // Churn: the only mutation point, serial by construction.
    engine.backend().advance_to(CHURN_TICKS / 2);

    // Session probe: a long-lived session fills its L1, churn advances
    // underneath it, and the re-read must discover the staleness in the
    // L1 itself (the shared L2 is refreshed by the same pass).
    let probe = engine.session();
    let n = dataset.graph.num_nodes() as u32;
    for u in 0..PROBE_NODES.min(n) {
        probe.neighbors(NodeId(u));
    }
    engine.backend().advance_to(CHURN_TICKS);
    for u in 0..PROBE_NODES.min(n) {
        probe.neighbors(NodeId(u));
    }
    let l1_stale = probe.l1_stale_evictions();
    drop(probe);

    // Measure phase: identical seeds, post-churn graph. Score against the
    // churned snapshot's *fresh* ground truth.
    engine.reset_stats();
    let estimates: Vec<f64> = engine
        .estimate_replicated(
            &alg,
            target,
            budget,
            &run_config,
            sweep.seed,
            replicates,
            threads,
        )
        .into_iter()
        .map(|r| r.expect("unbudgeted estimation cannot fail"))
        .collect();
    let fresh = engine.backend().ground_truth_snapshot();
    let f_true = GroundTruth::compute(&fresh, target).f;
    let err = if f_true > 0 {
        nrmse(&estimates, f_true as f64)
    } else {
        f64::INFINITY // churn deleted every target edge; flag, don't hide
    };
    let stats = engine.stats();
    let churn_stats = engine.backend().churn_stats();
    (
        err,
        stats.l2_stale_evictions,
        churn_stats.batches,
        churn_stats.events_applied(),
        l1_stale,
    )
}

/// Runs the full churn-rate × cache-depth sweep.
pub fn staleness_sweep(
    dataset: &Dataset,
    rates: &[f64],
    replicates: usize,
    budget: usize,
    sweep: &SweepConfig,
) -> Vec<StalenessRow> {
    let n = dataset.graph.num_nodes();
    let mut rows = Vec::new();
    for &rate in rates {
        let churn_cfg = ChurnConfig::from_rate(sweep.seed ^ 0xC0A1, rate, n, 1);
        for (label, cache) in cache_grid() {
            let (inv, l2_stale, batches, events, l1_stale) =
                run_arm(dataset, churn_cfg, cache, true, replicates, budget, sweep);
            let (stale, ..) = run_arm(dataset, churn_cfg, cache, false, replicates, budget, sweep);
            rows.push(StalenessRow {
                churn_rate: rate,
                cache: label,
                batches,
                events_applied: events,
                nrmse_invalidating: inv,
                nrmse_stale: stale,
                l2_stale_evictions: l2_stale,
                l1_stale_evictions: l1_stale,
            });
        }
    }
    rows
}

/// The harness's default sweep shape: 16 replicates at a 5%-of-`|V|`
/// sample budget over [`DEFAULT_CHURN_RATES`] × [`cache_grid`].
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<StalenessRow>) {
    let replicates = 16;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = staleness_sweep(dataset, &DEFAULT_CHURN_RATES, replicates, budget, sweep);
    (replicates, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn staleness_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (replicates, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Staleness sweep — {} ({} nodes, {} replicates/cell, budget {}, {} churn ticks)\n",
        dataset.name,
        dataset.graph.num_nodes(),
        replicates,
        budget,
        CHURN_TICKS,
    ));
    out.push_str(
        "churn_rate  cache       batches  events  nrmse_invalidating  nrmse_stale  l2_stale  l1_stale\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<10}  {:<10}  {:<7}  {:<6}  {:<18.4}  {:<11.4}  {:<8}  {}\n",
            r.churn_rate,
            r.cache,
            r.batches,
            r.events_applied,
            r.nrmse_invalidating,
            r.nrmse_stale,
            r.l2_stale_evictions,
            r.l1_stale_evictions,
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[StalenessRow]) -> String {
    let mut out = String::from(
        "churn_rate,cache,batches,events_applied,nrmse_invalidating,nrmse_stale,l2_stale_evictions,l1_stale_evictions\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.churn_rate,
            r.cache,
            r.batches,
            r.events_applied,
            r.nrmse_invalidating,
            r.nrmse_stale,
            r.l2_stale_evictions,
            r.l1_stale_evictions,
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

    fn quick_sweep(threads: usize) -> SweepConfig {
        SweepConfig {
            threads,
            seed: 11,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn zero_churn_arms_agree_and_invalidate_nothing() {
        let d = quick_dataset();
        let rows = staleness_sweep(&d, &[0.0], 4, 60, &quick_sweep(2));
        assert_eq!(rows.len(), cache_grid().len());
        for r in &rows {
            assert_eq!(
                r.nrmse_invalidating.to_bits(),
                r.nrmse_stale.to_bits(),
                "{}: a static graph cannot distinguish the arms",
                r.cache
            );
            assert_eq!(r.events_applied, 0);
            assert_eq!(
                r.l2_stale_evictions, 0,
                "{}: spurious invalidation",
                r.cache
            );
            assert_eq!(
                r.l1_stale_evictions, 0,
                "{}: spurious L1 staleness",
                r.cache
            );
        }
    }

    #[test]
    fn nonzero_churn_invalidates_and_the_report_is_thread_independent() {
        let d = quick_dataset();
        let rows1 = staleness_sweep(&d, &[0.1], 4, 60, &quick_sweep(1));
        for r in &rows1 {
            assert!(r.events_applied > 0, "{}: churn never landed", r.cache);
            assert!(
                r.l2_stale_evictions > 0,
                "{}: heavy churn must invalidate L2 entries",
                r.cache
            );
        }
        // The default stack's long-lived probe session must catch stale
        // L1 slots itself.
        let l1_row = rows1.iter().find(|r| r.cache == "l1+l2").unwrap();
        assert!(
            l1_row.l1_stale_evictions > 0,
            "the session probe never saw L1 staleness"
        );
        // Bit-identical at any thread count: churn advances serially. The
        // second graph has more nodes than the bounded L2 holds entries, so
        // that arm evicts, and concurrent replicates would reorder the
        // evictions.
        let evicting = build(DatasetKind::FacebookLike, 0.1, 7);
        let bound = cache_grid()[2].1.capacity().expect("a bounded arm");
        assert!(evicting.graph.num_nodes() > bound);
        for (d, reps, budget) in [(&d, 4, 60), (&evicting, 16, 100)] {
            let rows1 = staleness_sweep(d, &[0.1], reps, budget, &quick_sweep(1));
            for threads in [2usize, 8, 2, 8] {
                let rows_t = staleness_sweep(d, &[0.1], reps, budget, &quick_sweep(threads));
                assert_eq!(rows1, rows_t, "report diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn report_and_csv_render() {
        let d = quick_dataset();
        let sweep = quick_sweep(2);
        let Artifacts { text, csv } = staleness_report(&d, &sweep);
        assert!(text.contains("churn_rate"));
        assert!(text.contains("l1+l2"));
        let cells = DEFAULT_CHURN_RATES.len() * cache_grid().len();
        assert!(text.lines().count() >= 2 + cells);
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + cells);
        assert!(csv.starts_with("churn_rate,"));
    }
}
