//! The eviction sweep: buffer-pool behaviour of the out-of-core paged-CSR
//! backend as the replacement policy and frame budget vary.
//!
//! The paper's estimators assume the graph is reachable behind an API;
//! `labelcount_osn::PagedGraphOsn` makes that API serve a paged CSR file
//! through a pinned-page buffer pool instead of RAM. This module writes a
//! dataset to the on-disk format once, then replays the same replicated
//! estimation workload at every (policy × frame budget) cell, reducing
//! each cell to:
//!
//! * **paging counters** — page reads (misses), pool hits, the hit rate,
//!   evictions, and the pinned-frame high-water mark;
//! * **bit identity** — whether the paged run's estimates match the
//!   in-RAM reference bit for bit (the out-of-core determinism contract:
//!   the pool moves bytes, never changes them — recorded per row rather
//!   than assumed).
//!
//! Expected shape: LRU and second-chance degrade gracefully as the budget
//! tightens; CLOCK approximates LRU with cheaper bookkeeping; and the
//! `bit_identical` column is `true` in every cell or the backend is
//! broken.

use std::path::PathBuf;

use labelcount_core::{Engine, NsHansenHurwitz, RunConfig};
use labelcount_graph::paged::{EvictionPolicy, PagedCsrWriter, PagingStats, PoolConfig};
use labelcount_osn::{CacheConfig, PagedGraphOsn};

use crate::datasets::Dataset;
use crate::report::Artifacts;
use crate::runner::SweepConfig;

/// One (policy × frame budget) cell of the sweep.
#[derive(Clone, Debug)]
pub struct EvictionRow {
    /// Replacement policy name (`lru`, `second-chance`, `clock`).
    pub policy: &'static str,
    /// Frame budget of the pool (`None` = unbounded).
    pub frames: Option<usize>,
    /// Pages read from disk (pool misses).
    pub page_reads: u64,
    /// Pin requests served from a resident frame.
    pub pool_hits: u64,
    /// `pool_hits / (pool_hits + page_reads)`.
    pub hit_rate: f64,
    /// Frames whose page was replaced to make room.
    pub evictions: u64,
    /// High-water mark of simultaneously pinned frames.
    pub pinned_peak: u64,
    /// Whether the paged run's estimates matched the in-RAM reference bit
    /// for bit.
    pub bit_identical: bool,
}

/// The default frame-budget grid: starved, tight, comfortable, unbounded.
pub const DEFAULT_FRAME_BUDGETS: [Option<usize>; 4] = [Some(4), Some(16), Some(64), None];

fn frames_label(frames: Option<usize>) -> String {
    frames
        .map(|f| f.to_string())
        .unwrap_or_else(|| "unbounded".to_string())
}

fn sweep_file(dataset: &Dataset, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "labelcount_exp_eviction_{}_{}_{}.paged",
        dataset.name,
        seed,
        std::process::id()
    ))
}

/// Writes the dataset to a paged CSR file, replays one replicated
/// estimation workload per (policy × frame budget) cell over it, and
/// reduces each cell to an [`EvictionRow`].
///
/// Every cell runs the identical workload at the identical seed, so the
/// paging counters isolate the policy/budget axes; the in-RAM reference
/// runs once and its bit pattern is the yardstick for every cell.
pub fn eviction_sweep(
    dataset: &Dataset,
    target_idx: usize,
    replicates: usize,
    budget: usize,
    frame_budgets: &[Option<usize>],
    seed: u64,
) -> Vec<EvictionRow> {
    let target = dataset.targets[target_idx].label;
    let run_config = RunConfig {
        burn_in: dataset.burn_in,
        ..RunConfig::default()
    };
    let alg = NsHansenHurwitz;
    // A bounded L2 keeps traffic flowing to the pool (an unbounded cache
    // would absorb every repeat fetch and starve the sweep's subject) and
    // caps out-of-core residency the way production pairings should.
    let cache = CacheConfig::builder().capacity(256).build();

    let reference: Vec<Option<u64>> = Engine::new(&dataset.graph)
        .estimate_replicated(&alg, target, budget, &run_config, seed, replicates, 1)
        .into_iter()
        .map(|r| r.ok().map(f64::to_bits))
        .collect();

    let path = sweep_file(dataset, seed);
    PagedCsrWriter::new()
        .write(&dataset.graph, &path)
        .expect("write the eviction sweep's paged CSR file");

    let mut rows = Vec::new();
    for policy in EvictionPolicy::all() {
        for &frames in frame_budgets {
            let pool = match frames {
                None => PoolConfig::unbounded(),
                Some(k) => PoolConfig::bounded(k, policy),
            };
            let backend =
                PagedGraphOsn::open(&path, pool).expect("reopen the paged CSR file just written");
            let engine: Engine<'_, PagedGraphOsn> = Engine::on_backend_with_config(backend, cache);
            let bits: Vec<Option<u64>> = engine
                .estimate_replicated(&alg, target, budget, &run_config, seed, replicates, 1)
                .into_iter()
                .map(|r| r.ok().map(f64::to_bits))
                .collect();
            let stats: PagingStats = engine.backend().paging_stats();
            rows.push(EvictionRow {
                policy: policy.name(),
                frames,
                page_reads: stats.page_reads,
                pool_hits: stats.pool_hits,
                hit_rate: stats.hit_rate(),
                evictions: stats.evictions,
                pinned_peak: stats.pinned_peak,
                bit_identical: bits == reference,
            });
        }
    }
    let _ = std::fs::remove_file(&path);
    rows
}

/// The harness's default sweep shape: 16 replicates at a 5%-of-`|V|`
/// sample budget over every policy × [`DEFAULT_FRAME_BUDGETS`].
pub fn default_rows(dataset: &Dataset, sweep: &SweepConfig) -> (usize, usize, Vec<EvictionRow>) {
    let replicates = 16;
    let budget = (dataset.graph.num_nodes() / 20).max(100);
    let rows = eviction_sweep(
        dataset,
        0,
        replicates,
        budget,
        &DEFAULT_FRAME_BUDGETS,
        sweep.seed,
    );
    (replicates, budget, rows)
}

/// Runs the default sweep once and renders it twice: as the experiment
/// harness's text artifact and as CSV for plotting pipelines.
pub fn eviction_report(dataset: &Dataset, sweep: &SweepConfig) -> Artifacts {
    let (replicates, budget, rows) = default_rows(dataset, sweep);
    let mut out = String::new();
    out.push_str(&format!(
        "Eviction sweep — {} ({} nodes, {} replicates/cell, budget {})\n",
        dataset.name,
        dataset.graph.num_nodes(),
        replicates,
        budget,
    ));
    out.push_str(
        "policy         frames     page_reads  pool_hits  hit_rate  evictions  pinned_peak  bit_identical\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "{:<13}  {:<9}  {:<10}  {:<9}  {:<8.4}  {:<9}  {:<11}  {}\n",
            r.policy,
            frames_label(r.frames),
            r.page_reads,
            r.pool_hits,
            r.hit_rate,
            r.evictions,
            r.pinned_peak,
            r.bit_identical,
        ));
    }
    Artifacts::with_csv(out, render_csv(&rows))
}

/// CSV form of the sweep for plotting pipelines.
fn render_csv(rows: &[EvictionRow]) -> String {
    let mut out = String::from(
        "policy,frames,page_reads,pool_hits,hit_rate,evictions,pinned_peak,bit_identical\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.policy,
            frames_label(r.frames),
            r.page_reads,
            r.pool_hits,
            r.hit_rate,
            r.evictions,
            r.pinned_peak,
            r.bit_identical,
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
    fn every_cell_is_bit_identical_to_the_in_ram_reference() {
        let d = quick_dataset();
        let rows = eviction_sweep(&d, 0, 4, 60, &[Some(2), Some(32), None], 3);
        assert_eq!(rows.len(), EvictionPolicy::all().len() * 3);
        for r in &rows {
            assert!(
                r.bit_identical,
                "policy {} at {} frames diverged from the in-RAM reference",
                r.policy,
                frames_label(r.frames)
            );
            assert!(r.page_reads > 0, "{}: no pages read", r.policy);
            assert!(r.pinned_peak >= 1, "{}: nothing pinned", r.policy);
        }
    }

    #[test]
    fn tighter_budgets_evict_more_and_hit_less() {
        let d = quick_dataset();
        let rows = eviction_sweep(&d, 0, 4, 60, &[Some(2), None], 5);
        for pair in rows.chunks(2) {
            let (starved, unbounded) = (&pair[0], &pair[1]);
            assert!(
                starved.evictions > 0,
                "{}: a 2-frame pool must evict",
                starved.policy
            );
            assert_eq!(unbounded.evictions, 0, "an unbounded pool must never evict");
            assert!(
                starved.page_reads >= unbounded.page_reads,
                "{}: starving the pool cannot reduce disk reads",
                starved.policy
            );
            assert!(starved.hit_rate <= unbounded.hit_rate);
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
        let Artifacts { text, csv } = eviction_report(&d, &sweep);
        assert!(text.contains("policy"));
        assert!(text.contains("lru"));
        assert!(text.contains("second-chance"));
        assert!(text.contains("clock"));
        let cells = EvictionPolicy::all().len() * DEFAULT_FRAME_BUDGETS.len();
        assert!(text.lines().count() >= 2 + cells);
        let csv = csv.expect("the sweep renders a CSV form");
        assert_eq!(csv.lines().count(), 1 + cells);
        assert!(csv.starts_with("policy,"));
    }
}
