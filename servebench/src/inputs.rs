//! Seeded input generation: the BA graph with binary labels written as
//! edge and label lists, and the per-run work directory holding them.
//! The system under test only ever sees these files.

use std::path::{Path, PathBuf};

use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::io::save_graph;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::{GroundTruth, LabelId, TargetLabel};
use labelcount_osn::FaultConfig;
use labelcount_stats::replication_seed;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed streams, so each input is independent of the others.
pub mod stream {
    pub const GRAPH: u64 = 0xbe5c_0001;
    pub const REQUESTS: u64 = 0xbe5c_0002;
    pub const FAULTS: u64 = 0xbe5c_0004;
    pub const CHURN: u64 = 0xbe5c_0005;
    pub const PROBES: u64 = 0xbe5c_0006;
}

/// Share of nodes carrying label 1; the rest carry label 2. The target
/// pair (1, 2) then covers about `2 · 0.3 · 0.7 = 42%` of edges.
const LABEL_ONE_SHARE: f64 = 0.3;

/// The label pair every query counts.
pub fn target() -> TargetLabel {
    TargetLabel::new(LabelId(1), LabelId(2))
}

/// A per-run directory under the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(name: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".servebench-work").join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The written graph files and the exact target-edge count `F`.
pub struct GraphFiles {
    pub edges: PathBuf,
    pub labels: PathBuf,
    pub truth: f64,
}

/// Generates a BA graph on `nodes` nodes with `m` edges per arrival and
/// binary labels, writes it to `dir`, and returns the file paths with
/// the exact `F`. The in-memory graph is dropped before returning.
pub fn write_graph(dir: &Path, seed: u64, nodes: usize, m: usize) -> std::io::Result<GraphFiles> {
    let mut rng = StdRng::seed_from_u64(replication_seed(seed, stream::GRAPH));
    let g = barabasi_albert(nodes, m, &mut rng);
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, LABEL_ONE_SHARE, &mut rng);
    let g = with_labels(&g, &labels);
    let truth = GroundTruth::compute(&g, target()).f as f64;
    let stem = dir.join("graph");
    save_graph(&g, &stem)?;
    Ok(GraphFiles {
        edges: stem.with_extension("edges"),
        labels: stem.with_extension("labels"),
        truth,
    })
}

/// An OSN that bills latency and nothing else: 1 tick per attempt plus
/// up to 3 ticks of seeded jitter, no errors, no rate limits, no pages.
pub fn latency_only(seed: u64) -> FaultConfig {
    FaultConfig {
        base_latency_ticks: 1,
        latency_jitter_ticks: 3,
        ..FaultConfig::clean(replication_seed(seed, stream::FAULTS))
    }
}
