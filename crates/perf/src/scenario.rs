//! The scenario matrix and its runner.
//!
//! A scenario is one (graph family × scale tier) cell; running it exercises
//! every algorithm of the paper's Table 2 plus the motif and graph-size
//! extensions, and measures the walk substrate itself (per-step vs batched
//! stepping, line-graph stepping through the O(1) neighbor sampler, serial
//! vs parallel ground truth). Everything seeded is deterministic: two runs
//! of the same scenario at the same seed produce identical `counters`
//! sections (the wall-clock `measured` section is machine-dependent).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use labelcount_core::algorithms::all_paper;
use labelcount_core::{
    motifs, run_workload, size, Engine, NsHansenHurwitz, RunConfig, Workload, WorkloadReport,
};
use labelcount_graph::churn::ChurnConfig;
use labelcount_graph::components::largest_component;
use labelcount_graph::gen::{barabasi_albert, erdos_renyi_gnm};
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::motifs::{count_labeled_triangles, count_labeled_wedges, TargetTriple};
use labelcount_graph::paged::{
    EvictionPolicy, PagedCsrWriter, PagingStats, PoolConfig, StorageFaultConfig,
};
use labelcount_graph::{GroundTruth, LabeledGraph, NodeId, TargetLabel};
use labelcount_osn::{
    AdversarialOsn, BreakerConfig, BurstConfig, CacheConfig, CachedOsn, ChurnOsn, FaultConfig,
    GraphOsn, LineGraphView, OsnApi, OsnApiExt, OsnBackend, PagedGraphOsn, ResilienceConfig,
    RetryPolicy, SimulatedOsn,
};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy, SchedulePolicy,
    ServiceReport, ServiceStatus, ServiceWorkload, ServiceWorkloadBuilder, ShardedService,
};
use labelcount_stats::{nrmse, percentile, replication_seed};
use labelcount_walk::mixing::default_burn_in;
use labelcount_walk::{SimpleWalk, Walker};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::alloc_track;
use crate::json::Json;
use crate::report::{Report, ScenarioMeta, SCHEMA_VERSION};

/// Graph family axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Barabási–Albert preferential attachment (heavy-tailed degrees, the
    /// paper's dominant regime).
    Ba,
    /// Erdős–Rényi `G(n, m)` (near-uniform degrees — the walks' easy case).
    Er,
    /// A generated graph persisted as an edge list + label list and loaded
    /// back through `labelcount_graph::io` (exercises the loader path real
    /// snapshots would take).
    Loaded,
    /// The same generated graph persisted as a **paged CSR file** and
    /// served out-of-core through a pinned-page buffer pool
    /// (`labelcount_osn::PagedGraphOsn`). The engine, workload, serving,
    /// and scheduler phases re-run their serial passes over the paged
    /// backend and assert bit-identity against the in-RAM results; the
    /// pool's paging counters land in `counters.paging`.
    LoadedPaged,
}

impl Family {
    /// All families, matrix order.
    pub fn all() -> [Family; 4] {
        [Family::Ba, Family::Er, Family::Loaded, Family::LoadedPaged]
    }

    /// Stable lowercase name (file-name stem component).
    pub fn name(self) -> &'static str {
        match self {
            Family::Ba => "ba",
            Family::Er => "er",
            Family::Loaded => "loaded",
            Family::LoadedPaged => "loaded-paged",
        }
    }

    /// Parses a family name.
    pub fn parse(s: &str) -> Option<Family> {
        Family::all().into_iter().find(|f| f.name() == s)
    }
}

/// Scale-tier axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// ~2k nodes; seconds even in debug builds. The CI gate runs this.
    Smoke,
    /// ~200k nodes; tens of seconds in release builds.
    Standard,
    /// ~2M nodes; minutes and gigabytes — run deliberately.
    Stress,
}

impl Tier {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Smoke => "smoke",
            Tier::Standard => "standard",
            Tier::Stress => "stress",
        }
    }

    /// Parses a tier name.
    pub fn parse(s: &str) -> Option<Tier> {
        [Tier::Smoke, Tier::Standard, Tier::Stress]
            .into_iter()
            .find(|t| t.name() == s)
    }

    /// Target node count before largest-component extraction.
    pub fn nodes(self) -> usize {
        match self {
            Tier::Smoke => 2_000,
            Tier::Standard => 200_000,
            Tier::Stress => 2_000_000,
        }
    }

    /// Estimator replications per algorithm.
    pub fn reps(self) -> usize {
        match self {
            Tier::Smoke => 5,
            Tier::Standard => 3,
            Tier::Stress => 1,
        }
    }

    /// Replicates fanned through the query engine's shared cache — sized
    /// so the serial pass is long enough that the parallel pass's thread
    /// spawns amortize.
    pub fn engine_reps(self) -> usize {
        match self {
            Tier::Smoke => 64,
            Tier::Standard => 16,
            Tier::Stress => 8,
        }
    }

    /// Queries of the mixed workload phase (the multi-query service over
    /// the adversarial backend). At least one full pass over the Table-2
    /// roster at every tier.
    pub fn workload_queries(self) -> usize {
        match self {
            Tier::Smoke => 16,
            Tier::Standard => 12,
            Tier::Stress => 10,
        }
    }

    /// Requests of the serving phase (the sharded multi-graph service
    /// under a skewed multi-tenant stream). Sized so the contested
    /// admission model provably sheds at every tier: requests round-robin
    /// over four modelled graph queues, and any queue's third
    /// quota-passing arrival hard-sheds under the phase's tight config.
    pub fn serving_requests(self) -> usize {
        match self {
            Tier::Smoke => 32,
            Tier::Standard => 24,
            Tier::Stress => 16,
        }
    }

    /// Steps for the walk-throughput measurement. Sized so the timed
    /// window is tens of milliseconds even in release builds — per-step
    /// costs are ~10ns, and the regression gate needs windows large enough
    /// that scheduler noise cannot fake a 2.5× cliff.
    pub fn walk_steps(self) -> usize {
        match self {
            Tier::Smoke => 2_000_000,
            Tier::Standard => 5_000_000,
            Tier::Stress => 10_000_000,
        }
    }
}

/// Deadline tightness of the scheduler phase: how the scheduled run's
/// relative deadline is derived from the *unconstrained* run's own
/// per-query tick bills. Calibrating from the workload's own latency
/// distribution keeps the axis meaningful at every tier — a fixed tick
/// count would be trivially loose at smoke scale and impossible at stress
/// scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeadlineTightness {
    /// No deadline: every request runs to completion (zero cancellations).
    Inf,
    /// Deadline at the p95 of the unconstrained completed tick bills —
    /// cancels the tail while most requests still complete. The default,
    /// so every committed baseline exercises both completion and
    /// cancellation.
    P95,
    /// Deadline at the p50 — cancels roughly half the stream into anytime
    /// answers.
    P50,
}

impl DeadlineTightness {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DeadlineTightness::Inf => "inf",
            DeadlineTightness::P95 => "p95",
            DeadlineTightness::P50 => "p50",
        }
    }

    /// Parses a tightness name.
    pub fn parse(s: &str) -> Option<DeadlineTightness> {
        [
            DeadlineTightness::Inf,
            DeadlineTightness::P95,
            DeadlineTightness::P50,
        ]
        .into_iter()
        .find(|d| d.name() == s)
    }
}

/// Frame budget of the paged scenario's buffer pool — the
/// [`Family::LoadedPaged`] axis the nightly matrix sweeps. The budget only
/// changes *where* bytes come from (disk vs resident frames) and the
/// paging counters; estimates, RNG streams, and every other deterministic
/// counter are bit-identical at any budget (the pool overcommits rather
/// than deadlock when every frame is pinned, so even `tight` is always
/// sufficient).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolFrames {
    /// 16 frames (64 KiB at the default 4 KiB page size) — a working set
    /// far smaller than any tier's graph, so eviction runs hot. The
    /// default, so every committed baseline exercises the eviction path.
    Tight,
    /// 1024 frames (4 MiB) — most smoke-scale pages stay resident.
    Comfortable,
    /// No budget: frames are appended and never evicted.
    Unbounded,
    /// An explicit frame count (`--pool-frames N`).
    Fixed(usize),
}

impl PoolFrames {
    /// The pool's frame budget; `None` = unbounded.
    pub fn frames(self) -> Option<usize> {
        match self {
            PoolFrames::Tight => Some(16),
            PoolFrames::Comfortable => Some(1024),
            PoolFrames::Unbounded => None,
            PoolFrames::Fixed(n) => Some(n.max(1)),
        }
    }

    /// Display label (`tight`, `comfortable`, `unbounded`, or the count).
    pub fn label(self) -> String {
        match self {
            PoolFrames::Tight => "tight".to_string(),
            PoolFrames::Comfortable => "comfortable".to_string(),
            PoolFrames::Unbounded => "unbounded".to_string(),
            PoolFrames::Fixed(n) => n.to_string(),
        }
    }

    /// Parses `tight`, `comfortable`, `unbounded`, or an explicit count.
    pub fn parse(s: &str) -> Option<PoolFrames> {
        match s {
            "tight" => Some(PoolFrames::Tight),
            "comfortable" => Some(PoolFrames::Comfortable),
            "unbounded" => Some(PoolFrames::Unbounded),
            other => other.parse::<usize>().ok().map(PoolFrames::Fixed),
        }
    }
}

/// Outage-burst level of the faults phase — the `--burst` axis the
/// nightly matrix sweeps. `off` disables the phase entirely (every
/// `counters.faults` field is zero and the scenario is bit-identical to a
/// stack without the burst process); `short`/`long` pick the
/// [`BurstConfig`] presets of the adversarial backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BurstLevel {
    /// No burst process; the faults phase is skipped.
    Off,
    /// Short, frequent outages ([`BurstConfig::short`]). The default, so
    /// every committed baseline exercises the breaker and degradation
    /// paths.
    Short,
    /// Long, rarer outages ([`BurstConfig::long`]).
    Long,
}

impl BurstLevel {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            BurstLevel::Off => "off",
            BurstLevel::Short => "short",
            BurstLevel::Long => "long",
        }
    }

    /// Parses a burst level name.
    pub fn parse(s: &str) -> Option<BurstLevel> {
        [BurstLevel::Off, BurstLevel::Short, BurstLevel::Long]
            .into_iter()
            .find(|b| b.name() == s)
    }

    /// The burst process this level injects; `None` = off.
    pub fn config(self) -> Option<BurstConfig> {
        match self {
            BurstLevel::Off => None,
            BurstLevel::Short => Some(BurstConfig::short()),
            BurstLevel::Long => Some(BurstConfig::long()),
        }
    }
}

/// One cell of the matrix plus its run parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpec {
    /// Graph family.
    pub family: Family,
    /// Scale tier.
    pub tier: Tier,
    /// Base seed; every internal RNG derives from it via
    /// [`labelcount_stats::replication_seed`].
    pub seed: u64,
    /// Per-attempt fault probability of the workload phase's adversarial
    /// backend. Part of the deterministic counters (it changes retry and
    /// latency counts), so runs at a non-default rate drift from committed
    /// baselines — by design: the nightly fault-injection matrix compares
    /// them warn-only.
    pub fault_rate: f64,
    /// Probability that a serving-phase request belongs to the
    /// heavy-hitter tenant (tenant 0). Part of the deterministic serving
    /// counters — a skewed stream exhausts the hog's quota while lighter
    /// tenants keep flowing. The nightly serving matrix sweeps it.
    pub tenant_skew: f64,
    /// Deadline tightness of the scheduler phase. Part of the
    /// deterministic scheduling counters (it changes which requests cancel
    /// into anytime answers). The nightly deadline matrix sweeps it.
    pub deadline: DeadlineTightness,
    /// Buffer-pool frame budget of the [`Family::LoadedPaged`] scenario
    /// (ignored by the in-RAM families). Part of the deterministic
    /// `counters.paging` section — a different budget changes page reads,
    /// hits, and evictions (warn-only drift) but never estimates. The
    /// nightly matrix sweeps it.
    pub pool_frames: PoolFrames,
    /// Churn rate of the dynamic-graph phase: the fraction of nodes whose
    /// neighborhood one seeded churn batch perturbs. Part of the
    /// deterministic `counters.invalidation` section (a different rate
    /// changes batches, events, and stale evictions — warn-only drift). At
    /// `0.0` the churned stack must be bit-identical to the static engine
    /// pass, which the runner asserts. The nightly matrix sweeps it.
    pub churn_rate: f64,
    /// Outage-burst level of the faults phase. Part of the deterministic
    /// `counters.faults` section (a different level changes burst,
    /// breaker, and degradation counts — warn-only drift). At
    /// [`BurstLevel::Off`] the phase is skipped and every faults counter
    /// is zero. The nightly matrix sweeps it.
    pub burst: BurstLevel,
}

impl ScenarioSpec {
    /// A spec at the default fault rate, tenant skew, deadline tightness,
    /// and pool frame budget.
    pub fn new(family: Family, tier: Tier, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            family,
            tier,
            seed,
            fault_rate: DEFAULT_FAULT_RATE,
            tenant_skew: DEFAULT_TENANT_SKEW,
            deadline: DEFAULT_DEADLINE,
            pool_frames: DEFAULT_POOL_FRAMES,
            churn_rate: DEFAULT_CHURN_RATE,
            burst: DEFAULT_BURST,
        }
    }
}

/// Default base seed (the paper's year, like the bench fixtures).
pub const DEFAULT_SEED: u64 = 2018;

/// Default fault rate of the workload phase: hostile enough that retries,
/// rate limits, and latency ticks are all nonzero in every committed
/// baseline, mild enough that no query's hard budget dies at smoke scale.
pub const DEFAULT_FAULT_RATE: f64 = 0.15;

/// Default tenant skew of the serving phase: hot enough that the
/// heavy-hitter tenant exhausts its quota in every committed baseline,
/// while the remaining tenants stay admitted.
pub const DEFAULT_TENANT_SKEW: f64 = 0.6;

/// Default deadline tightness of the scheduler phase: tight enough that
/// the tail of the stream cancels into anytime answers in every committed
/// baseline, loose enough that most requests complete.
pub const DEFAULT_DEADLINE: DeadlineTightness = DeadlineTightness::P95;

/// Default buffer-pool frame budget of the paged scenario: tight, so every
/// committed baseline exercises eviction and keeps the out-of-core
/// residency far below the in-RAM families'.
pub const DEFAULT_POOL_FRAMES: PoolFrames = PoolFrames::Tight;

/// Default churn rate of the dynamic-graph phase: high enough that every
/// committed baseline applies churn batches and evicts stale L1 and L2
/// entries, low enough that the perturbed graph stays connected in
/// practice at smoke scale.
pub const DEFAULT_CHURN_RATE: f64 = 0.05;

/// Default outage-burst level of the faults phase: short bursts, hostile
/// enough that every committed baseline observes bursts, trips the
/// breaker, serves stale entries, and throttles the shared tenant rate
/// limit — while surviving queries stay bit-identical across shard and
/// worker counts.
pub const DEFAULT_BURST: BurstLevel = BurstLevel::Short;

/// Internal stream ids for [`replication_seed`] derivation, so no two
/// measurement phases share an RNG stream.
mod stream {
    pub const GRAPH: u64 = 1;
    pub const WALK: u64 = 2;
    pub const LINE_WALK: u64 = 3;
    pub const ALGO_BASE: u64 = 100;
    pub const EXT_WEDGES: u64 = 900;
    pub const EXT_TRIANGLES: u64 = 901;
    pub const EXT_SIZE: u64 = 902;
    pub const ENGINE: u64 = 950;
    pub const WORKLOAD: u64 = 960;
    pub const SERVING: u64 = 970;
    pub const SCHEDULER: u64 = 980;
    pub const CHURN: u64 = 990;
    pub const FAULTS: u64 = 995;
}

impl ScenarioSpec {
    /// `<family>_<tier>` — report name and file stem.
    pub fn name(&self) -> String {
        format!("{}_{}", self.family.name(), self.tier.name())
    }
}

/// A temp-file stem that no other call, in this process or another, gets:
/// the pid separates processes and the counter separates calls, so two
/// same-seed runs at once cannot delete each other's files.
fn temp_stem(spec: &ScenarioSpec) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "labelcount_perf_{}_{}_{}_{}",
        spec.name(),
        spec.seed,
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Builds the scenario's graph: generate (or generate + save + load for
/// [`Family::Loaded`]), assign binary labels, keep the largest component.
pub fn build_graph(spec: &ScenarioSpec) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(replication_seed(spec.seed, stream::GRAPH));
    let n = spec.tier.nodes();
    let g = match spec.family {
        Family::Ba => barabasi_albert(n, 8, &mut rng),
        // Same average degree as the BA cell so throughput numbers compare
        // across families.
        Family::Er => erdos_renyi_gnm(n, 4 * n, &mut rng),
        // Same generator and degree for both loaded families, so the
        // in-RAM `loaded` cell and the out-of-core `loaded-paged` cell
        // measure the identical graph and their residency peaks compare
        // one to one.
        Family::Loaded | Family::LoadedPaged => barabasi_albert(n, 6, &mut rng),
    };
    let mut labels = vec![Vec::new(); g.num_nodes()];
    assign_binary_labels(&mut labels, 0.45, &mut rng);
    let g = with_labels(&g, &labels);
    let g = largest_component(&g)
        .expect("generated graph is non-empty")
        .graph;

    if spec.family == Family::Loaded {
        // Round-trip through the on-disk formats, then continue with the
        // loaded copy — the whole point of this family is to measure and
        // exercise the loader.
        let stem = temp_stem(spec);
        labelcount_graph::io::save_graph(&g, &stem).expect("write scenario graph");
        let loaded = labelcount_graph::io::load_graph(
            &stem.with_extension("edges"),
            Some(&stem.with_extension("labels")),
        )
        .expect("reload scenario graph");
        let _ = std::fs::remove_file(stem.with_extension("edges"));
        let _ = std::fs::remove_file(stem.with_extension("labels"));
        assert_eq!(loaded.num_edges(), g.num_edges(), "lossy graph round-trip");
        loaded
    } else {
        g
    }
}

/// The target edge label every scenario estimates: the cross pair of the
/// binary label model.
pub fn scenario_target() -> TargetLabel {
    TargetLabel::new(1.into(), 2.into())
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with the wall time it took,
/// milliseconds: every timed window of a phase is one call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0))
}

/// Measures a fixed machine-speed proxy: dependent pseudo-random loads
/// over a 4 MiB table — the same cache-missy pointer-chasing profile as a
/// random walk over a CSR graph. The regression gate divides every timing
/// metric by this before thresholding, so committed baselines survive
/// moves between machine generations (a uniformly 2× slower CI runner
/// scores ~2× lower here too, and the normalized ratios cancel); only
/// *algorithmic* cliffs relative to machine speed trip the gate.
pub fn calibration_ops_per_sec() -> f64 {
    const SLOTS: usize = 1 << 19; // 4 MiB of u64
    const OPS: usize = 4_000_000;
    let mut table = vec![0u64; SLOTS];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for slot in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *slot = x;
    }
    let t0 = Instant::now();
    let mut idx = 0usize;
    let mut acc = 0u64;
    for _ in 0..OPS {
        let v = table[idx];
        acc = acc.wrapping_add(v);
        idx = (v ^ acc) as usize & (SLOTS - 1);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);
    OPS as f64 / elapsed.max(1e-9)
}

fn rate(steps: usize, elapsed_ms: f64) -> f64 {
    if elapsed_ms <= 0.0 {
        0.0
    } else {
        steps as f64 / (elapsed_ms / 1e3)
    }
}

/// JSON has no Inf/NaN; non-finite estimates (e.g. a collision-free size
/// estimate) are stored as this sentinel so counters stay comparable.
pub const NON_FINITE_SENTINEL: f64 = -1.0;

fn sanitize(e: f64) -> f64 {
    if e.is_finite() {
        e
    } else {
        NON_FINITE_SENTINEL
    }
}

fn finite_nrmse(estimates: &[f64], truth: f64) -> Option<f64> {
    if truth <= 0.0 || estimates.is_empty() || estimates.iter().any(|e| !e.is_finite()) {
        None
    } else {
        Some(nrmse(estimates, truth))
    }
}

fn int(x: u64) -> Json {
    Json::Num(x as f64)
}

fn floats(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())
}

/// An object of integer counters, in the given key order.
fn counts(pairs: &[(&str, u64)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|&(k, n)| (k.to_string(), int(n)))
            .collect(),
    )
}

/// One algorithm's `counters.algorithms` entry.
fn algorithm_counters(abbrev: &str, estimates: &[f64], api_calls: u64, nrmse: Option<f64>) -> Json {
    Json::obj(vec![
        // Table 2 abbreviation, or the extension name.
        ("abbrev", Json::Str(abbrev.to_string())),
        // The per-replication estimates, in replication order.
        ("estimates", floats(estimates)),
        // Total raw API calls across all replications.
        ("api_calls", int(api_calls)),
        // NRMSE of the estimates against exact ground truth; null when
        // the ground truth is not computed at this tier.
        ("nrmse", nrmse.map_or(Json::Null, Json::Num)),
    ])
}

/// An estimate vector's bit patterns: what the bit-identity checks
/// compare.
fn bits(estimates: &[f64]) -> Vec<u64> {
    estimates.iter().map(|e| e.to_bits()).collect()
}

/// A workload's per-query estimate bits, query-id order (`None` for a
/// query that failed).
fn workload_bits(r: &WorkloadReport) -> Vec<Option<u64>> {
    r.outcomes
        .iter()
        .map(|o| o.estimate.as_ref().ok().map(|e| e.to_bits()))
        .collect()
}

/// A service run's per-request answer bits: a completed request's
/// estimate, any other request's anytime answer.
fn service_bits(r: &ServiceReport) -> Vec<(u64, Option<u64>)> {
    r.outcomes
        .iter()
        .map(|o| {
            let bits = match &o.status {
                ServiceStatus::Completed(q) => q.estimate.as_ref().ok().map(|e| e.to_bits()),
                ServiceStatus::DeadlineAnytime { anytime, .. } => anytime.map(f64::to_bits),
                ServiceStatus::Shed { anytime, .. } => anytime.map(f64::to_bits),
                ServiceStatus::QuotaExhausted { anytime } => anytime.map(f64::to_bits),
                ServiceStatus::Throttled { anytime } => anytime.map(f64::to_bits),
                ServiceStatus::UnknownGraph => None,
            };
            (o.id, bits)
        })
        .collect()
}

/// Adds one pool's paging counters into a running total.
fn absorb(total: &mut PagingStats, s: PagingStats) {
    total.page_reads += s.page_reads;
    total.pool_hits += s.pool_hits;
    total.evictions += s.evictions;
    total.pinned_peak = total.pinned_peak.max(s.pinned_peak);
}

/// Graph keys of the serving fleet: the scenario graph registered four
/// times (a four-dataset fleet sharing one topology).
const SERVING_GRAPHS: u64 = 4;
/// Tenants of the serving phases' request streams.
const SERVING_TENANTS: usize = 4;

/// The paged-CSR copy of the scenario graph that the
/// [`Family::LoadedPaged`] scenario's paged twins read (see
/// [`Ctx::paged_twin`]). The paging phase, its last reader, removes it.
struct PagedFile {
    path: PathBuf,
    /// The spec's frame budget.
    pool: PoolConfig,
    /// A paged backend pairs with a *bounded* L2: an unbounded cache
    /// would quietly re-materialize the whole graph in RAM and the
    /// residency comparison against the in-RAM `loaded` cell would
    /// measure nothing.
    cache: CacheConfig,
}

impl PagedFile {
    fn write(spec: &ScenarioSpec, g: &LabeledGraph) -> PagedFile {
        let path = temp_stem(spec).with_extension("paged");
        PagedCsrWriter::new()
            .write(g, &path)
            .expect("write paged CSR file");
        PagedFile {
            path,
            pool: match spec.pool_frames.frames() {
                None => PoolConfig::unbounded(),
                Some(k) => PoolConfig::bounded(k, EvictionPolicy::Lru),
            },
            cache: CacheConfig::builder().capacity(512).build(),
        }
    }

    /// A fresh pool over the file at the spec's frame budget.
    fn open(&self) -> PagedGraphOsn {
        PagedGraphOsn::open(&self.path, self.pool).expect("reopen the paged CSR file just written")
    }
}

/// What every phase reads: the spec, its graph, and the run parameters
/// derived from them. Seeds come from [`Ctx::seed`], one per `stream`.
struct Ctx<'g> {
    spec: &'g ScenarioSpec,
    g: &'g LabeledGraph,
    n: usize,
    target: TargetLabel,
    budget: usize,
    cfg: RunConfig,
    threads: usize,
    serving_keys: Vec<GraphKey>,
    /// Warm probes touch nodes `0..probe_nodes`.
    probe_nodes: u32,
    /// The paged copy of the graph; `None` for the in-RAM families.
    paged: Option<PagedFile>,
}

impl<'g> Ctx<'g> {
    fn new(spec: &'g ScenarioSpec, g: &'g LabeledGraph) -> Ctx<'g> {
        let n = g.num_nodes();
        Ctx {
            spec,
            g,
            n,
            target: scenario_target(),
            budget: (n / 20).max(100),
            cfg: RunConfig {
                burn_in: default_burn_in(n),
                ..RunConfig::default()
            },
            threads: std::thread::available_parallelism()
                .map(|t| t.get())
                .unwrap_or(4),
            serving_keys: (0..SERVING_GRAPHS).map(GraphKey).collect(),
            probe_nodes: n.min(256) as u32,
            paged: (spec.family == Family::LoadedPaged).then(|| PagedFile::write(spec, g)),
        }
    }

    /// The seed of one measurement stream (`stream::*`).
    fn seed(&self, stream: u64) -> u64 {
        replication_seed(self.spec.seed, stream)
    }

    /// `reps` replicates of one estimator, each on a fresh `SimulatedOsn`
    /// seeded `seed(stream) + rep`: its `counters.algorithms` entry.
    fn replicates(
        &self,
        abbrev: &str,
        stream: u64,
        truth: Option<f64>,
        estimate: impl Fn(&SimulatedOsn<'_>, &mut StdRng) -> f64,
    ) -> Json {
        let reps = self.spec.tier.reps();
        let mut estimates = Vec::with_capacity(reps);
        let mut api_calls = 0u64;
        for rep in 0..reps {
            let osn = SimulatedOsn::new(self.g);
            let mut rng = StdRng::seed_from_u64(self.seed(stream).wrapping_add(rep as u64));
            estimates.push(sanitize(estimate(&osn, &mut rng)));
            api_calls += osn.api_calls();
        }
        algorithm_counters(
            abbrev,
            &estimates,
            api_calls,
            truth.and_then(|t| finite_nrmse(&estimates, t)),
        )
    }

    /// The engine phase's replicated query on `engine` across `threads`
    /// threads: NS-HH with a heavy 100%-|V| budget per replicate, its
    /// estimates in replication order.
    fn replicated<B: OsnBackend + Sync>(&self, engine: &Engine<'_, B>, threads: usize) -> Vec<f64> {
        engine
            .estimate_replicated(
                &NsHansenHurwitz,
                self.target,
                self.n,
                &self.cfg,
                self.seed(stream::ENGINE),
                self.spec.tier.engine_reps(),
                threads,
            )
            .into_iter()
            .map(|r| sanitize(r.expect("unbudgeted estimation on a connected component")))
            .collect()
    }

    /// The spec's hostile fault model, or a clean one at rate 0.
    fn faults(&self, seed: u64) -> FaultConfig {
        if self.spec.fault_rate > 0.0 {
            FaultConfig::hostile(seed, self.spec.fault_rate)
        } else {
            FaultConfig::clean(seed)
        }
    }

    /// The serving phases' skewed multi-tenant request stream.
    fn requests(&self, seed: u64) -> ServiceWorkloadBuilder {
        ServiceWorkload::mixed_multi_tenant(
            self.spec.tier.serving_requests(),
            &self.serving_keys,
            SERVING_TENANTS,
            self.spec.tenant_skew,
            self.target,
            self.budget,
            seed,
            self.cfg,
        )
        .builder()
    }

    /// A `shards`-shard service with every serving key registered: over
    /// the in-RAM graph, or each key over its own pool on `paged` (a
    /// four-dataset fleet sharing one on-disk snapshot).
    fn fleet(&self, shards: usize, seed: u64, paged: Option<&PagedFile>) -> ShardedService<'g> {
        let mut svc = ShardedService::new(shards, seed);
        for &k in &self.serving_keys {
            match paged {
                None => svc.register(k, self.g),
                Some(p) => svc.register_paged(k, p.open(), p.cache),
            };
        }
        svc
    }

    /// Fetches the neighbor lists of the probe nodes once each.
    fn warm<A: OsnApi>(&self, api: &A) {
        for u in 0..self.probe_nodes {
            std::hint::black_box(api.neighbors(NodeId(u)).len());
        }
    }

    /// The paged twin of a phase's serial pass, for
    /// [`Family::LoadedPaged`] only: `pass` re-runs it over pools opened
    /// on the paged file and returns its answer bits and the pools'
    /// paging counters. The bits must equal the in-RAM pass's — the pool
    /// changes where bytes live, never which bytes a fetch returns — and
    /// the counters add into `paging`. Only serial passes are twinned:
    /// single-threaded access order makes the paging counters
    /// deterministic, while a parallel pass would make them
    /// interleaving-dependent without proving anything the in-RAM
    /// parallel asserts haven't.
    fn paged_twin<T: PartialEq + std::fmt::Debug>(
        &self,
        paging: &mut PagingStats,
        in_ram: &T,
        msg: &str,
        pass: impl FnOnce(&PagedFile) -> (T, PagingStats),
    ) {
        if let Some(file) = &self.paged {
            let (paged, stats) = pass(file);
            assert_eq!(in_ram, &paged, "{msg}");
            absorb(paging, stats);
        }
    }

    /// One serial pass of `wl` on a single-shard fleet over the paged
    /// file: its answer bits and its pools' summed paging counters.
    fn paged_fleet_pass(
        &self,
        file: &PagedFile,
        seed: u64,
        wl: ServiceWorkload,
    ) -> (Vec<(u64, Option<u64>)>, PagingStats) {
        let svc = self.fleet(1, seed, Some(file));
        let report = svc.run_scheduled(wl, 1);
        let mut stats = PagingStats::default();
        for &k in &self.serving_keys {
            absorb(
                &mut stats,
                svc.paged_engine(k)
                    .expect("key was registered paged")
                    .backend()
                    .paging_stats(),
            );
        }
        (service_bits(&report), stats)
    }
}

/// What a phase hands to the phases after it.
#[derive(Default)]
struct Carry {
    /// Exact target-edge count `F`, for the algorithms' NRMSE.
    gt_f: u64,
    /// The serial engine pass's estimate bits, for the churn-rate-0 check.
    engine_bits: Vec<u64>,
    /// Paging counters of the paged twins, for `counters.paging`.
    paging: PagingStats,
    /// Storage reads retried by the storage-fault probe, for
    /// `counters.faults`.
    storage_retries: u64,
}

/// A phase's share of the report.
struct Section {
    /// The phase's `counters` section.
    counters: Json,
    /// The phase's `measured` entries.
    measured: Vec<(&'static str, f64)>,
}

type Phase = fn(&Ctx<'_>, &mut Carry) -> Section;

/// The scenario's phases in run order, each under the key of its
/// `counters` section.
const PHASES: [(&str, Phase); 10] = [
    ("ground_truth_f", ground_truth),
    ("walk", walk),
    ("algorithms", algorithms),
    ("engine", engine),
    ("workload", workload),
    ("serving", serving),
    ("scheduling", scheduling),
    ("paging", paging),
    ("invalidation", invalidation),
    ("faults", faults),
];

/// Runs one scenario end to end and assembles its [`Report`].
pub fn run_scenario(spec: &ScenarioSpec) -> Report {
    let scenario_start = Instant::now();
    let alloc_before = alloc_track::begin_window();

    let g = build_graph(spec);
    let cx = Ctx::new(spec, &g);
    let mut carry = Carry::default();
    let mut counters = Vec::with_capacity(PHASES.len());
    let mut measured = Vec::new();
    for (key, phase) in PHASES {
        let section = phase(&cx, &mut carry);
        counters.push((key, section.counters));
        measured.extend(section.measured);
    }
    // Ground truth runs first, but `ground_truth_f` closes the section.
    counters.rotate_left(1);
    let alloc = alloc_track::delta(alloc_before, alloc_track::snapshot());

    let meta = ScenarioMeta {
        name: spec.name(),
        family: spec.family.name().to_string(),
        tier: spec.tier.name().to_string(),
        seed: spec.seed,
        nodes: cx.n as u64,
        edges: g.num_edges() as u64,
        budget: cx.budget as u64,
        burn_in: cx.cfg.burn_in as u64,
        reps: spec.tier.reps() as u64,
        threads: cx.threads as u64,
    };
    let counters = Json::obj(counters);
    // Whole-scenario wall time, milliseconds.
    measured.insert(0, ("total_ms", ms(scenario_start)));
    // The machine-speed proxy the gate normalizes timings by.
    measured.push(("calibration_ops_per_sec", calibration_ops_per_sec()));
    let mut measured: Vec<(&str, Json)> = measured
        .into_iter()
        .map(|(k, x)| (k, Json::Num(x)))
        .collect();
    measured.push((
        // Allocator traffic over the scenario (see `alloc_track`).
        "alloc",
        Json::obj(vec![
            ("peak_bytes", int(alloc.peak_bytes)),
            ("allocs", int(alloc.allocs)),
            ("measured", Json::Bool(alloc.measured)),
        ]),
    ));
    Report {
        schema_version: SCHEMA_VERSION,
        meta,
        counters,
        measured: Json::obj(measured),
    }
}

/// Ground truth: parallel (used) timed against serial (reference).
fn ground_truth(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let (serial, gt_serial_ms) = timed(|| GroundTruth::compute(cx.g, cx.target));
    let (gt, gt_parallel_ms) = timed(|| GroundTruth::compute_parallel(cx.g, cx.target, cx.threads));
    assert_eq!(gt.f, serial.f, "parallel ground truth must agree");
    carry.gt_f = gt.f as u64;
    Section {
        // Exact target-edge count `F`.
        counters: int(carry.gt_f),
        measured: vec![
            // Serial and parallel `GroundTruth` wall times, milliseconds.
            ("gt_serial_ms", gt_serial_ms),
            ("gt_parallel_ms", gt_parallel_ms),
        ],
    }
}

/// Walk substrate throughput: per-step vs batched on the OSN, and the
/// line graph through the exact O(1) neighbor sampler. The batched path
/// replays the identical RNG stream, so matching end states double as a
/// correctness check.
fn walk(cx: &Ctx<'_>, _: &mut Carry) -> Section {
    let steps = cx.spec.tier.walk_steps();
    let walk_seed = cx.seed(stream::WALK);

    let osn = SimulatedOsn::new(cx.g);
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
    let (per_step_end, per_step_ms) = timed(|| {
        let mut end = Walker::<SimulatedOsn>::current(&w);
        for _ in 0..steps {
            end = w.step(&osn, &mut rng);
        }
        end
    });

    let osn = SimulatedOsn::new(cx.g);
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
    let mut buf = vec![NodeId(0); 4_096];
    let (batched_end, batched_ms) = timed(|| {
        let mut end = Walker::<SimulatedOsn>::current(&w);
        let mut remaining = steps;
        while remaining > 0 {
            let take = remaining.min(buf.len());
            w.steps_into(&osn, &mut buf[..take], &mut rng);
            end = buf[take - 1];
            remaining -= take;
        }
        end
    });
    assert_eq!(
        per_step_end, batched_end,
        "batched stepping must replay the per-step RNG stream"
    );

    let line_steps = (steps / 4).max(1);
    let osn = SimulatedOsn::new(cx.g);
    let lg = LineGraphView::new(&osn);
    let mut rng = StdRng::seed_from_u64(cx.seed(stream::LINE_WALK));
    let mut lw = SimpleWalk::new(lg.random_start(&mut rng));
    let (line_end, line_ms) = timed(|| {
        let mut end = Walker::<LineGraphView<'_, SimulatedOsn>>::current(&lw);
        for _ in 0..line_steps {
            end = lw.step(&lg, &mut rng);
        }
        end
    });
    Section {
        counters: Json::obj(vec![
            // Steps taken on each stepping path (per-step OSN, batched OSN);
            // the line-graph walk takes a quarter as many.
            ("steps", int(steps as u64)),
            // Final node index after the per-step OSN walk.
            ("per_step_end", int(per_step_end.index() as u64)),
            // Final node index after the batched OSN walk (equal to
            // `per_step_end`: both paths consume identical RNG streams).
            ("batched_end", int(batched_end.index() as u64)),
            // Final line-node endpoints after the line-graph walk.
            (
                "line_end",
                Json::Arr(vec![
                    int(line_end.u().index() as u64),
                    int(line_end.v().index() as u64),
                ]),
            ),
            // Raw API calls consumed by the line-graph walk: the O(1)
            // `sample_neighbor` pays exactly 2 neighbor-list calls per step.
            ("line_api_calls", int(osn.api_calls())),
        ]),
        measured: vec![
            // Walk throughput, steps/second: per-step, batched
            // (`steps_into`), and line-graph stepping.
            ("per_step_steps_per_sec", rate(steps, per_step_ms)),
            ("batched_steps_per_sec", rate(steps, batched_ms)),
            ("line_steps_per_sec", rate(line_steps, line_ms)),
        ],
    }
}

/// The paper's ten algorithms, then the extensions: label-refined motifs
/// and graph-size estimation. Exact motif counts are only computed at
/// smoke scale (the exact counters are quadratic in hub degrees); larger
/// tiers report the estimates with `nrmse: null`.
fn algorithms(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let mut algo_counters = Vec::new();
    for (ai, alg) in all_paper(0.2, 0.5).iter().enumerate() {
        algo_counters.push(cx.replicates(
            alg.abbrev(),
            stream::ALGO_BASE + ai as u64,
            Some(carry.gt_f as f64),
            |osn, rng| {
                alg.estimate(osn, cx.target, cx.budget, &cx.cfg, rng)
                    .expect("unbudgeted estimation on a connected component")
            },
        ));
    }

    let (budget, burn_in) = (cx.budget, cx.cfg.burn_in);
    let triple = TargetTriple::new(1.into(), 2.into(), 1.into());
    let motif_truth = (cx.spec.tier == Tier::Smoke).then(|| {
        (
            count_labeled_wedges(cx.g, triple),
            count_labeled_triangles(cx.g, triple),
        )
    });
    algo_counters.push(cx.replicates(
        "ext-wedges",
        stream::EXT_WEDGES,
        motif_truth.map(|(w, _)| w as f64),
        |osn, rng| {
            motifs::estimate_labeled_wedges(osn, triple, budget, burn_in, rng)
                .expect("unbudgeted motif estimation")
        },
    ));
    algo_counters.push(cx.replicates(
        "ext-triangles",
        stream::EXT_TRIANGLES,
        motif_truth.map(|(_, t)| t as f64),
        |osn, rng| {
            motifs::estimate_labeled_triangles(osn, triple, budget, burn_in, rng)
                .expect("unbudgeted motif estimation")
        },
    ));
    algo_counters.push(cx.replicates(
        "ext-size-nodes",
        stream::EXT_SIZE,
        Some(cx.n as f64),
        |osn, rng| {
            size::estimate_graph_size(osn, budget, burn_in, rng)
                .expect("unbudgeted size estimation")
                .num_nodes
        },
    ));
    Section {
        // Table 2 order, then the extensions.
        counters: Json::Arr(algo_counters),
        measured: vec![],
    }
}

/// Query engine: the shared-cache access layer under a replicated load.
/// One serial pass (threads = 1) provides the deterministic counters —
/// logical calls are what the uncached baseline would pay the backend,
/// misses are what the cache actually paid — then the same workload fans
/// across all cores on a second cold-cache engine. The two estimate
/// vectors must match bit for bit: the cache and the thread pool may
/// change timings, never results.
fn engine(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let engine = Engine::new(cx.g);
    let (estimates, engine_serial_ms) = timed(|| cx.replicated(&engine, 1));
    let stats = engine.stats();

    // Hit-path latency probe: steady-state cost of one logical call on a
    // fully warm cache — the path ~97% of logical calls take, and the one
    // the session-L1 hierarchy exists to shrink. The serial pass above
    // left the engine's shared L2 warm; a fresh session warms its private
    // L1 with one pass over the probe set, then pure repeat lookups are
    // timed. (Probe nodes 0..K hash to distinct-or-colliding L1 slots
    // exactly as production traffic would; collisions fall back to the
    // L2, so the measurement reflects the real hit mix, not a best case.)
    let probe_rounds: u32 = 4_000; // ~1M timed lookups at smoke scale
    let probe = engine.session();
    cx.warm(&probe);
    let ((), probe_ms) = timed(|| {
        for _ in 0..probe_rounds {
            cx.warm(&probe);
        }
    });
    let hit_path_ns = probe_ms * 1e6 / (probe_rounds as u64 * cx.probe_nodes as u64) as f64;
    drop(probe);
    // The serial engine's warm L2 holds every fetched list — graph-scale
    // state that would otherwise stay live through the parallel pass and
    // inflate the alloc window.
    drop(engine);

    let engine_cold = Engine::new(cx.g);
    let (parallel, engine_parallel_ms) = timed(|| cx.replicated(&engine_cold, cx.threads));
    let serial_bits = bits(&estimates);
    assert_eq!(
        serial_bits,
        bits(&parallel),
        "parallel replication must be bit-identical to the serial loop"
    );
    drop(engine_cold);

    cx.paged_twin(
        &mut carry.paging,
        &serial_bits,
        "paged engine replication must be bit-identical to the in-RAM pass",
        |file| {
            let engine = Engine::on_backend_with_config(file.open(), file.cache);
            (
                bits(&cx.replicated(&engine, 1)),
                engine.backend().paging_stats(),
            )
        },
    );
    carry.engine_bits = serial_bits;

    Section {
        counters: Json::obj(vec![
            // Replicates fanned through the engine.
            ("replicates", int(cx.spec.tier.engine_reps() as u64)),
            // Per-replicate estimates, replication order (identical for every
            // thread count).
            ("estimates", floats(&estimates)),
            // Logical API calls issued by all replicates — exactly what the
            // uncached baseline pays against the backend.
            ("logical_api_calls", int(stats.logical_calls())),
            // Cache-miss API calls — what actually reached the backend:
            // `miss <= 0.7 * logical` on every committed smoke baseline.
            ("miss_api_calls", int(stats.misses())),
            // Logical calls served by sessions' private L1 caches (no lock,
            // no atomic refcount traffic). Deterministic: each session's L1
            // hit count is a pure function of its own call sequence.
            ("l1_hits", int(stats.l1_hits())),
            // `1 - miss/logical`.
            ("hit_rate", Json::Num(stats.hit_rate())),
        ]),
        measured: vec![
            // The engine's replicated run on one thread, then fanned across
            // all available threads (cold cache for both), milliseconds.
            ("engine_serial_ms", engine_serial_ms),
            ("engine_parallel_ms", engine_parallel_ms),
            // `engine_serial_ms / engine_parallel_ms` — > 1 on multi-core
            // runners.
            (
                "engine_parallel_speedup",
                if engine_parallel_ms > 0.0 {
                    engine_serial_ms / engine_parallel_ms
                } else {
                    0.0
                },
            ),
            // Steady-state cost of one logical call on a fully warm cache,
            // nanoseconds: the ~97%-of-calls hot path the L1 hierarchy
            // optimizes.
            ("hit_path_ns", hit_path_ns),
        ],
    }
}

/// Workload: the multi-query service under fire. A mixed Table-2
/// workload runs through per-query adversarial stacks (seeded faults:
/// rate limits, transient errors, latency ticks, pagination) once on a
/// single worker (the deterministic counters) and once fanned across all
/// cores — the reports must match bit for bit, faults included.
fn workload(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let queries = cx.spec.tier.workload_queries();
    let seed = cx.seed(stream::WORKLOAD);
    let wl = Workload::mixed(queries, cx.target, cx.budget, seed, cx.cfg)
        .builder()
        .faults(cx.faults(seed), RetryPolicy::default())
        .build();
    let g_osn = GraphOsn::new(cx.g);
    let (serial, workload_serial_ms) = timed(|| run_workload(&g_osn, &wl, 1));
    let (parallel, workload_parallel_ms) = timed(|| run_workload(&g_osn, &wl, cx.threads));
    let serial_bits = workload_bits(&serial);
    assert_eq!(
        serial_bits,
        workload_bits(&parallel),
        "parallel workload must be bit-identical to the serial pass"
    );
    assert_eq!(
        serial.total_retry_charges(),
        parallel.total_retry_charges(),
        "workload retry charges must be worker-count independent"
    );
    drop(parallel);

    cx.paged_twin(
        &mut carry.paging,
        &serial_bits,
        "paged workload must be bit-identical to the in-RAM pass, faults included",
        |file| {
            let backend = file.open();
            let report = run_workload(&backend, &wl, 1);
            (workload_bits(&report), backend.paging_stats())
        },
    );

    let estimates: Vec<f64> = serial
        .outcomes
        .iter()
        .map(|o| sanitize(o.estimate.as_ref().ok().copied().unwrap_or(f64::NAN)))
        .collect();
    Section {
        counters: Json::obj(vec![
            // Queries in the workload.
            ("queries", int(queries as u64)),
            // Per-attempt fault probability of the adversarial backend.
            ("fault_rate", Json::Num(cx.spec.fault_rate)),
            // Per-query estimates in query-id order; a query that failed (e.g.
            // budget exhausted under fault pressure) stores the non-finite
            // sentinel.
            ("estimates", floats(&estimates)),
            // Logical API calls across all queries — the clean-world cost.
            ("logical_api_calls", int(serial.total_logical_calls())),
            // Realized backend attempts (first tries + pages + retries) — what
            // the hostile API billed.
            ("backend_attempts", int(serial.total_backend_attempts())),
            // Retry charges billed against query budgets.
            ("retry_charges", int(serial.total_retry_charges())),
            // Rate-limit rejections absorbed.
            (
                "rate_limited",
                int(serial.outcomes.iter().map(|o| o.rate_limited).sum()),
            ),
            // Transient errors absorbed.
            (
                "transient_errors",
                int(serial.outcomes.iter().map(|o| o.transient_errors).sum()),
            ),
            // Queries whose hard budget ran out.
            (
                "budget_exhausted_queries",
                int(serial.budget_exhausted_queries()),
            ),
            // Median and 95th-percentile per-query simulated latency, ticks.
            (
                "latency_ticks_p50",
                Json::Num(serial.latency_ticks_percentile(50.0).unwrap_or(0.0)),
            ),
            (
                "latency_ticks_p95",
                Json::Num(serial.latency_ticks_percentile(95.0).unwrap_or(0.0)),
            ),
        ]),
        measured: vec![
            // The workload phase on one worker, then on all available
            // workers, milliseconds; and the parallel pass's queries/second.
            ("workload_serial_ms", workload_serial_ms),
            ("workload_parallel_ms", workload_parallel_ms),
            (
                "workload_queries_per_sec",
                rate(queries, workload_parallel_ms),
            ),
        ],
    }
}

/// Serving: the sharded multi-graph service under a skewed multi-tenant
/// stream. The scenario graph is registered under four graph keys (a
/// four-dataset fleet sharing one topology), four tenants submit through
/// a tight modelled admission queue per graph, and the heavy-hitter
/// tenant carries a quota sized for exactly three fully-budgeted requests
/// — so every committed baseline has nonzero admitted, shed, and
/// quota_exhausted counters. The stream carries no schedule, so the
/// service runs it as a plain batch (every request at tick 0, one slice
/// per admitted query). The phase runs once on a single-shard
/// single-worker service (the deterministic reference) and once on a
/// four-shard fleet across all cores; the two reports must match bit for
/// bit, which is the serving layer's headline contract.
fn serving(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let seed = cx.seed(stream::SERVING);
    // Per-request hard budget is 6 × (budget + burn_in) charged calls
    // (mirroring Workload::mixed); admission reserves it in full, so this
    // quota admits exactly three requests per tenant before exhausting.
    let quota = 3 * 6 * (cx.budget as u64 + cx.cfg.burn_in as u64);
    let wl = || {
        cx.requests(seed)
            .faults(cx.faults(seed), RetryPolicy::default())
            // Tight enough that a queue's third quota-passing arrival
            // hard-sheds: capacity 2, one drain per five arrivals.
            .admission(AdmissionConfig {
                queue_capacity: 2,
                drain_every: 5,
                shed_start: 0.75,
                ..AdmissionConfig::default()
            })
            .quotas(QuotaPolicy::uniform(quota))
            .build()
    };
    let run = |shards: usize, workers: usize| {
        let svc = cx.fleet(shards, seed, None);
        timed(|| svc.run_scheduled(wl(), workers))
    };
    let (serial, serving_serial_ms) = run(1, 1);
    let (parallel, serving_parallel_ms) = run(SERVING_GRAPHS as usize, cx.threads);
    let serial_bits = service_bits(&serial);
    assert_eq!(
        serial_bits,
        service_bits(&parallel),
        "sharded service must be bit-identical to the single-shard pass"
    );
    let s = &serial.serving;
    let p = &parallel.serving;
    assert_eq!(
        (s.admitted, s.shed, s.quota_exhausted),
        (p.admitted, p.shed, p.quota_exhausted),
        "admission decisions must be shard- and worker-count independent"
    );
    drop(parallel);

    cx.paged_twin(
        &mut carry.paging,
        &serial_bits,
        "paged serving must be bit-identical to the in-RAM pass",
        |file| cx.paged_fleet_pass(file, seed, wl()),
    );

    Section {
        counters: Json::obj(vec![
            // Shards of the fleet pass.
            ("shards", int(SERVING_GRAPHS)),
            // Tenants issuing requests.
            ("tenants", int(SERVING_TENANTS as u64)),
            // Requests submitted.
            ("requests", int(cx.spec.tier.serving_requests() as u64)),
            // Requests admitted and executed.
            ("admitted", int(s.admitted)),
            // Requests shed by the modelled admission queues.
            ("shed", int(s.shed)),
            // Requests rejected on tenant quota.
            ("quota_exhausted", int(s.quota_exhausted)),
            // Per-tenant fairness: max admitted over min admitted (floored at
            // 1) across tenants with at least one submission.
            ("tenant_fairness", Json::Num(s.tenant_fairness)),
        ]),
        measured: vec![
            // The serving phase on one shard with one worker, then across
            // the full shard fleet with all available workers,
            // milliseconds.
            ("serving_serial_ms", serving_serial_ms),
            ("serving_parallel_ms", serving_parallel_ms),
        ],
    }
}

/// Scheduler: the same multi-tenant stream replayed through the
/// virtual-time event loop under a calibrated deadline. The fault model
/// is latency-only (seeded ticks, no errors), so the virtual clock
/// advances and any quality loss is attributable to cancellation alone.
/// An unconstrained run calibrates the deadline from its own completed
/// tick bills (spec.deadline picks the percentile); the constrained run
/// then executes once on a single-shard single-worker service (timed —
/// the deterministic reference) and once across the shard fleet with all
/// cores, and the two reports must match bit for bit, anytime answers and
/// scheduling counters included.
fn scheduling(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let seed = cx.seed(stream::SCHEDULER);
    let policy = SchedulePolicy::default()
        .with_interarrival(6)
        .with_priorities(0.25, 0.25);
    let wl = |policy: SchedulePolicy| {
        cx.requests(seed)
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
    let run = |shards: usize, workers: usize, policy: SchedulePolicy| {
        cx.fleet(shards, seed, None)
            .run_scheduled(wl(policy), workers)
    };
    let (free, free_ms) = timed(|| run(1, 1, policy.clone()));
    let bills: Vec<f64> = free
        .completed()
        .map(|(_, q)| q.latency_ticks as f64)
        .collect();
    assert!(
        !bills.is_empty(),
        "unconstrained scheduled run completed nothing — latency-only faults cannot error"
    );
    let deadline_ticks = match cx.spec.deadline {
        DeadlineTightness::Inf => None,
        DeadlineTightness::P95 => Some(percentile(&bills, 95.0).ceil() as u64),
        DeadlineTightness::P50 => Some(percentile(&bills, 50.0).ceil() as u64),
    };
    let (serial, scheduler_ms, policy) = match deadline_ticks {
        None => (free, free_ms, policy),
        Some(d) => {
            drop(free);
            let policy = policy.with_deadline(d);
            let (r, ms) = timed(|| run(1, 1, policy.clone()));
            (r, ms, policy)
        }
    };
    let parallel = run(SERVING_GRAPHS as usize, cx.threads, policy.clone());
    let serial_bits = service_bits(&serial);
    assert_eq!(
        serial_bits,
        service_bits(&parallel),
        "scheduled fleet run must be bit-identical to the single-shard pass"
    );
    assert_eq!(
        serial.scheduling, parallel.scheduling,
        "scheduling counters must be shard- and worker-count independent"
    );
    drop(parallel);

    cx.paged_twin(
        &mut carry.paging,
        &serial_bits,
        "paged scheduled run must be bit-identical to the in-RAM pass",
        |file| cx.paged_fleet_pass(file, seed, wl(policy)),
    );

    let sched = serial
        .scheduling
        .expect("scheduled runs report scheduling counters");
    Section {
        counters: Json::obj(vec![
            // Deadline-carrying requests that completed at or before their
            // deadline.
            ("deadline_hits", int(sched.deadline_hits)),
            // Requests cancelled into anytime answers when their deadline
            // passed.
            ("cancellations", int(sched.cancellations)),
            // Mean slack over the deadline hits, virtual ticks.
            ("mean_slack_ticks", Json::Num(sched.mean_slack_ticks)),
            // Priority inversions charged by the non-preemptive loop (a
            // higher-priority arrival while a lower-priority slice ran).
            ("priority_inversions", int(sched.priority_inversions)),
        ]),
        measured: vec![
            // The deadline-constrained scheduled run on one shard with one
            // worker, milliseconds.
            ("scheduler_ms", scheduler_ms),
        ],
    }
}

/// Out-of-core: the paged-CSR backend behind the buffer pool. The
/// engine, workload, serving, and scheduler phases re-ran their serial
/// passes over it ([`Ctx::paged_twin`]); this phase reports what those
/// passes paged and probes the pool's fault path.
fn paging(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let mut page_fault_ns = 0.0;
    if let Some(file) = &cx.paged {
        // Page-fault latency probe: a fresh single-frame pool makes every
        // distinct page touch a miss, so elapsed / page_reads is the cost
        // of one fault (read + decode + frame bookkeeping). A fixed node
        // stride walks the record pages end to end deterministically.
        let stride = (cx.n / 256).max(1);
        let probe = PagedGraphOsn::open(&file.path, PoolConfig::bounded(1, EvictionPolicy::Lru))
            .expect("reopen the paged CSR file just written");
        let ((), probe_ms) = timed(|| {
            for u in (0..cx.n).step_by(stride) {
                std::hint::black_box(probe.graph().neighbors(NodeId(u as u32)).len());
            }
        });
        let reads = probe.paging_stats().page_reads;
        if reads > 0 {
            page_fault_ns = probe_ms * 1e6 / reads as f64;
        }
        drop(probe);

        // Storage-fault probe (burst knob on): the same stride walk over a
        // store injecting seeded read errors and torn pages. The pool's
        // bounded retry + checksum recovery must hand back the identical
        // bytes — only `storage_retries` records that the reads fought for
        // them.
        if cx.spec.burst.config().is_some() {
            let faulty = PagedGraphOsn::open_with_faults(
                &file.path,
                PoolConfig::bounded(1, EvictionPolicy::Lru),
                StorageFaultConfig {
                    read_error_rate: 0.25,
                    torn_page_rate: 0.05,
                    ..StorageFaultConfig::clean(cx.seed(stream::FAULTS))
                },
            )
            .expect("reopen the paged CSR file with storage faults");
            let mut faulty_degrees = 0u64;
            let mut ram_degrees = 0u64;
            for u in (0..cx.n).step_by(stride) {
                faulty_degrees += faulty.graph().neighbors(NodeId(u as u32)).len() as u64;
                ram_degrees += cx.g.neighbors(NodeId(u as u32)).len() as u64;
            }
            assert_eq!(
                faulty_degrees, ram_degrees,
                "storage faults may cost retries, never change bytes"
            );
            carry.storage_retries = faulty.paging_stats().storage_retries;
        }
        let _ = std::fs::remove_file(&file.path);
    }
    let pool = carry.paging;
    Section {
        // Aggregated over the serial paged passes only (parallel passes share
        // the pool and would make the counts interleaving-dependent); all zero
        // for the in-RAM families, which never touch a pool.
        counters: counts(&[
            // Pages read from disk (pool misses).
            ("page_reads", pool.page_reads),
            // Pin requests served from resident frames.
            ("pool_hits", pool.pool_hits),
            // Frames replaced to make room.
            ("evictions", pool.evictions),
            // High-water mark of simultaneously pinned frames.
            ("pinned_peak", pool.pinned_peak),
        ]),
        measured: vec![
            // Steady cost of one buffer-pool page fault on a fresh
            // tight-budget pool, nanoseconds; zero for in-RAM families.
            ("page_fault_ns", page_fault_ns),
        ],
    }
}

/// Dynamic graphs: the engine's replicated load re-run over a churned
/// backend whose seeded schedule is advanced at serial control points,
/// with every cache layer invalidating on epoch-stamp mismatch. A warm
/// pass fills both cache levels; at churn rate 0 it must be bit-identical
/// to the static engine pass (asserted — the same contract the core
/// proptests pin for all ten algorithms). An L1 probe session then
/// straddles an epoch bump (fresh per-replicate sessions start empty, so
/// only a session living across a bump can observe L1 staleness), and a
/// second replicated pass over the bumped epochs counts the L2 entries
/// evicted as stale. All counters are single-threaded and therefore
/// deterministic.
fn invalidation(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let churn_cfg = ChurnConfig::from_rate(cx.seed(stream::CHURN), cx.spec.churn_rate, cx.n, 1);
    let engine_churn: Engine<'_, ChurnOsn> =
        Engine::on_backend_with_config(ChurnOsn::new(cx.g, churn_cfg), CacheConfig::default());
    let warm = cx.replicated(&engine_churn, 1);
    if cx.spec.churn_rate == 0.0 {
        assert_eq!(
            carry.engine_bits,
            bits(&warm),
            "churn rate 0 must be bit-identical to the static engine pass"
        );
    }
    drop(warm);

    let probe = engine_churn.session();
    cx.warm(&probe);
    engine_churn.backend().advance_to(4);
    cx.warm(&probe);
    drop(probe); // flushes the session's L1 stale count into stats

    engine_churn.backend().advance_to(8);
    cx.replicated(&engine_churn, 1);

    let stats = engine_churn.stats();
    let churn = engine_churn.backend().churn_stats();
    let invalidation = [
        // Churn batches applied by the schedule over the phase.
        ("churn_batches", churn.batches),
        // Individual churn events (edge inserts/deletes, label flips)
        // applied across those batches.
        ("churn_events", churn.events_applied()),
        // Session-private L1 slots discarded because their fill-time
        // epoch went stale.
        ("l1_stale_evictions", stats.l1_stale_evictions),
        // Shared L2 entries discarded because their fill-time epoch
        // went stale (counted once, by the first prober, under the
        // shard lock).
        ("l2_stale_evictions", stats.l2_stale_evictions),
        // Neighbor-list invalidations avoided by the split edge/label
        // epochs: label flips that bumped only the label epoch,
        // leaving cached neighbor lists warm.
        (
            "avoided_invalidations",
            engine_churn.backend().avoided_neighbor_invalidations(),
        ),
    ];
    if cx.spec.churn_rate == 0.0 {
        assert!(
            invalidation.iter().all(|&(_, n)| n == 0),
            "churn rate 0 must apply no batches and evict nothing: {invalidation:?}"
        );
    }
    Section {
        counters: counts(&invalidation),
        measured: vec![],
    }
}

/// Faults: the resilience layer under correlated outage bursts. The
/// multi-tenant stream replays through the virtual-time scheduler with
/// the burst process raging (hard outages on the loop's shared clock),
/// the circuit breaker + retry budget + stale-degradation reactive stack
/// on, and a shared per-tenant token-bucket rate limit drained by every
/// query of a tenant. One single-shard single-worker pass provides the
/// deterministic counters; a shard-fleet pass across all cores must
/// match it bit for bit — outages move *when* queries pay, never what
/// surviving queries answer. A separate degradation probe (a session
/// whose warm entries go stale across an epoch bump, re-probed under a
/// breaker-opening storm) pins `stale_served` structurally rather than
/// hoping the stream aligns bursts with churn.
fn faults(cx: &Ctx<'_>, carry: &mut Carry) -> Section {
    let (bursts, breaker_opens, stale_served, quota_throttled) = match cx.spec.burst.config() {
        None => (0, 0, 0, 0),
        Some(burst) => {
            let seed = cx.seed(stream::FAULTS);
            let resilience = ResilienceConfig {
                breaker: Some(BreakerConfig::default()),
                retry_budget: Some(256),
                serve_stale: true,
            };
            // Capacity covers two fully-budgeted requests per tenant
            // (mirroring `mixed_multi_tenant`'s hard budget); the refill
            // interval outlasts the stream, so a tenant's third
            // concurrent request throttles on the shared bucket.
            let rate_limit = RateLimit {
                capacity: 2 * 6 * (cx.budget as u64 + cx.cfg.burn_in as u64),
                refill_interval_ticks: 1_000_000,
            };
            let run = |shards: usize, workers: usize| {
                let wl = cx
                    .requests(seed)
                    .faults(
                        FaultConfig {
                            base_latency_ticks: 1,
                            latency_jitter_ticks: 3,
                            ..FaultConfig::clean(seed)
                        }
                        .with_burst(burst),
                        RetryPolicy::default(),
                    )
                    .rate_limits(RateLimitPolicy::uniform(rate_limit))
                    .resilience(resilience)
                    .schedule(SchedulePolicy::default().with_interarrival(6))
                    .build();
                cx.fleet(shards, seed, None).run_scheduled(wl, workers)
            };
            let serial = run(1, 1);
            let fleet = run(SERVING_GRAPHS as usize, cx.threads);
            assert_eq!(
                service_bits(&serial),
                service_bits(&fleet),
                "burst-time fleet run must be bit-identical to the single-shard pass"
            );
            drop(fleet);
            let mut bursts = 0u64;
            let mut breaker_opens = 0u64;
            let mut stale_served = 0u64;
            for (_, q) in serial.completed() {
                bursts += q.bursts;
                breaker_opens += q.breaker_opens;
                stale_served += q.stale_served;
            }
            let quota_throttled = serial.serving.quota_throttled;
            drop(serial);

            // Degradation probe: warm a session, bump the churn epochs,
            // then re-probe under a permanent storm (every window down)
            // so the breaker opens and stays open — stale entries must
            // answer from the cache instead of refetching.
            let storm = BurstConfig {
                window_ticks: 32,
                start_rate: 1.0,
                mean_burst_windows: 8.0,
                max_burst_windows: 16,
                outage_fault_rate: 1.0,
            };
            let churned = ChurnOsn::new(cx.g, ChurnConfig::from_rate(seed, 0.5, cx.n, 1));
            let adv = AdversarialOsn::with_resilience(
                &churned,
                FaultConfig {
                    base_latency_ticks: 1,
                    ..FaultConfig::clean(seed)
                }
                .with_burst(storm),
                RetryPolicy::default(),
                resilience,
            );
            let cache =
                CachedOsn::with_config(adv, CacheConfig::builder().serve_stale(true).build());
            let session = cache.session();
            cx.warm(&session);
            churned.advance_to(1);
            cx.warm(&session);
            stale_served += session.stale_served();
            drop(session);
            let storm_stats = cache.backend().fault_stats();
            bursts += storm_stats.bursts;
            breaker_opens += storm_stats.breaker_opens;

            (bursts, breaker_opens, stale_served, quota_throttled)
        }
    };
    Section {
        // All zero with the burst knob off, where the scenario must be
        // bit-identical to the fault-free stack.
        counters: counts(&[
            // Distinct outage bursts the queries' fetches ran into.
            ("bursts", bursts),
            // Circuit-breaker trips (closed → open, including re-opens).
            ("breaker_opens", breaker_opens),
            // Stale cache entries served during degraded windows.
            ("stale_served", stale_served),
            // Storage read attempts retried by the paged buffer pool (in-RAM
            // families never read pages, so this stays zero there).
            ("storage_retries", carry.storage_retries),
            // Requests throttled on the shared per-tenant rate limit.
            ("quota_throttled", quota_throttled),
        ]),
        measured: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_parsing_round_trip() {
        for f in Family::all() {
            assert_eq!(Family::parse(f.name()), Some(f));
        }
        for t in [Tier::Smoke, Tier::Standard, Tier::Stress] {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Family::parse("nope"), None);
        assert_eq!(Tier::parse("huge"), None);
        for d in [
            DeadlineTightness::Inf,
            DeadlineTightness::P95,
            DeadlineTightness::P50,
        ] {
            assert_eq!(DeadlineTightness::parse(d.name()), Some(d));
        }
        assert_eq!(DeadlineTightness::parse("p99"), None);
        assert_eq!(Family::parse("loaded-paged"), Some(Family::LoadedPaged));
        assert_eq!(PoolFrames::parse("tight"), Some(PoolFrames::Tight));
        assert_eq!(
            PoolFrames::parse("comfortable"),
            Some(PoolFrames::Comfortable)
        );
        assert_eq!(PoolFrames::parse("unbounded"), Some(PoolFrames::Unbounded));
        assert_eq!(PoolFrames::parse("48"), Some(PoolFrames::Fixed(48)));
        assert_eq!(PoolFrames::parse("lots"), None);
        assert_eq!(PoolFrames::Tight.frames(), Some(16));
        assert_eq!(PoolFrames::Unbounded.frames(), None);
        assert_eq!(PoolFrames::Fixed(0).frames(), Some(1));
        assert_eq!(PoolFrames::Fixed(48).label(), "48");
        let spec = ScenarioSpec::new(Family::Er, Tier::Smoke, 1);
        assert_eq!(spec.name(), "er_smoke");
        assert_eq!(spec.deadline, DEFAULT_DEADLINE);
        assert_eq!(spec.pool_frames, DEFAULT_POOL_FRAMES);
        for b in [BurstLevel::Off, BurstLevel::Short, BurstLevel::Long] {
            assert_eq!(BurstLevel::parse(b.name()), Some(b));
        }
        assert_eq!(BurstLevel::parse("storm"), None);
        assert!(BurstLevel::Off.config().is_none());
        assert!(BurstLevel::Short.config().is_some());
        assert_eq!(spec.burst, DEFAULT_BURST);
    }

    #[test]
    fn graphs_build_deterministically_per_family() {
        for family in Family::all() {
            let spec = ScenarioSpec::new(family, Tier::Smoke, 11);
            let a = build_graph(&spec);
            let b = build_graph(&spec);
            assert_eq!(a.num_nodes(), b.num_nodes(), "{family:?}");
            assert_eq!(a.num_edges(), b.num_edges(), "{family:?}");
            for u in a.nodes() {
                assert_eq!(a.neighbors(u), b.neighbors(u), "{family:?}");
                assert_eq!(a.labels(u), b.labels(u), "{family:?}");
            }
            // The cross target must exist, or NRMSE is meaningless.
            let f = GroundTruth::compute(&a, scenario_target()).f;
            assert!(f > 0, "{family:?} has no target edges");
        }
    }

    #[test]
    fn concurrent_builds_of_one_loaded_graph_do_not_collide() {
        // Each build saves, reloads, and deletes its edge and label files;
        // four same-seed builds at once must not delete each other's.
        let spec = ScenarioSpec::new(Family::Loaded, Tier::Smoke, 17);
        let start = std::sync::Barrier::new(4);
        let graphs: Vec<LabeledGraph> = std::thread::scope(|s| {
            let builds: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        build_graph(&spec)
                    })
                })
                .collect();
            builds
                .into_iter()
                .map(|b| b.join().expect("build_graph panicked"))
                .collect()
        });
        for g in &graphs[1..] {
            assert_eq!(g.num_nodes(), graphs[0].num_nodes());
            assert_eq!(g.num_edges(), graphs[0].num_edges());
            for u in g.nodes() {
                assert_eq!(g.neighbors(u), graphs[0].neighbors(u));
                assert_eq!(g.labels(u), graphs[0].labels(u));
            }
        }
    }

    #[test]
    fn sanitize_maps_non_finite_to_sentinel() {
        assert_eq!(sanitize(f64::INFINITY), NON_FINITE_SENTINEL);
        assert_eq!(sanitize(f64::NAN), NON_FINITE_SENTINEL);
        assert_eq!(sanitize(2.5), 2.5);
        assert_eq!(finite_nrmse(&[1.0, NON_FINITE_SENTINEL], 0.0), None);
        assert!(finite_nrmse(&[90.0, 110.0], 100.0).is_some());
    }
}
