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

use labelcount_core::{
    algorithms, motifs, run_workload, size, Engine, NsHansenHurwitz, RunConfig, Workload,
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
    GraphOsn, LineGraphView, OsnApi, OsnApiExt, PagedGraphOsn, ResilienceConfig, RetryPolicy,
    SimulatedOsn,
};
use labelcount_serve::{
    AdmissionConfig, GraphKey, QuotaPolicy, RateLimit, RateLimitPolicy, SchedulePolicy,
    ServiceReport, ServiceStatus, ServiceWorkload, ShardedService,
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

/// Runs one scenario end to end and assembles its [`Report`].
pub fn run_scenario(spec: &ScenarioSpec) -> Report {
    let scenario_start = Instant::now();
    let alloc_before = alloc_track::begin_window();

    let g = build_graph(spec);
    let n = g.num_nodes();
    let target = scenario_target();
    let budget = (n / 20).max(100);
    let burn_in = default_burn_in(n);
    let reps = spec.tier.reps();

    // --- Ground truth: parallel (used) timed against serial (reference).
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(4);
    let t0 = Instant::now();
    let gt_serial = GroundTruth::compute(&g, target);
    let gt_serial_ms = ms(t0);
    let t0 = Instant::now();
    let gt = GroundTruth::compute_parallel(&g, target, threads);
    let gt_parallel_ms = ms(t0);
    assert_eq!(gt.f, gt_serial.f, "parallel ground truth must agree");

    // --- Walk substrate throughput: per-step vs batched on the OSN, and
    // the line graph through the exact O(1) neighbor sampler. The batched
    // path replays the identical RNG stream, so matching end states double
    // as a correctness check.
    let steps = spec.tier.walk_steps();
    let walk_seed = replication_seed(spec.seed, stream::WALK);

    let osn = SimulatedOsn::new(&g);
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
    let t0 = Instant::now();
    let mut per_step_end = Walker::<SimulatedOsn>::current(&w);
    for _ in 0..steps {
        per_step_end = w.step(&osn, &mut rng);
    }
    let per_step_ms = ms(t0);

    let osn = SimulatedOsn::new(&g);
    let mut rng = StdRng::seed_from_u64(walk_seed);
    let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
    let mut buf = vec![NodeId(0); 4_096];
    let t0 = Instant::now();
    let mut batched_end = Walker::<SimulatedOsn>::current(&w);
    let mut remaining = steps;
    while remaining > 0 {
        let take = remaining.min(buf.len());
        w.steps_into(&osn, &mut buf[..take], &mut rng);
        batched_end = buf[take - 1];
        remaining -= take;
    }
    let batched_ms = ms(t0);
    assert_eq!(
        per_step_end, batched_end,
        "batched stepping must replay the per-step RNG stream"
    );

    let line_steps = (steps / 4).max(1);
    let osn = SimulatedOsn::new(&g);
    let lg = LineGraphView::new(&osn);
    let mut rng = StdRng::seed_from_u64(replication_seed(spec.seed, stream::LINE_WALK));
    let mut lw = SimpleWalk::new(lg.random_start(&mut rng));
    let t0 = Instant::now();
    let mut line_end = Walker::<LineGraphView<'_, SimulatedOsn>>::current(&lw);
    for _ in 0..line_steps {
        line_end = lw.step(&lg, &mut rng);
    }
    let line_ms = ms(t0);
    let walk = Json::obj(vec![
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
    ]);

    // --- The paper's ten algorithms.
    let cfg = RunConfig {
        burn_in,
        ..RunConfig::default()
    };
    let mut algo_counters = Vec::new();
    for (ai, alg) in algorithms::all_paper(0.2, 0.5).iter().enumerate() {
        let mut estimates = Vec::with_capacity(reps);
        let mut api_calls = 0u64;
        for rep in 0..reps {
            let rep_seed =
                replication_seed(spec.seed, stream::ALGO_BASE + ai as u64).wrapping_add(rep as u64);
            let osn = SimulatedOsn::new(&g);
            let mut rng = StdRng::seed_from_u64(rep_seed);
            let e = alg
                .estimate(&osn, target, budget, &cfg, &mut rng)
                .expect("unbudgeted estimation on a connected component");
            estimates.push(sanitize(e));
            api_calls += osn.api_calls();
        }
        algo_counters.push(algorithm_counters(
            alg.abbrev(),
            &estimates,
            api_calls,
            finite_nrmse(&estimates, gt.f as f64),
        ));
    }

    // --- Extensions: label-refined motifs and graph-size estimation.
    // Exact motif counts are only computed at smoke scale (the exact
    // counters are quadratic in hub degrees); larger tiers report the
    // estimates with `nrmse: null`.
    let triple = TargetTriple::new(1.into(), 2.into(), 1.into());
    let motif_truth = (spec.tier == Tier::Smoke).then(|| {
        (
            count_labeled_wedges(&g, triple),
            count_labeled_triangles(&g, triple),
        )
    });

    let ext = |abbrev: &str,
               stream_id: u64,
               truth: Option<f64>,
               f: &dyn Fn(&SimulatedOsn<'_>, &mut StdRng) -> f64| {
        let mut estimates = Vec::with_capacity(reps);
        let mut api_calls = 0u64;
        for rep in 0..reps {
            let rep_seed = replication_seed(spec.seed, stream_id).wrapping_add(rep as u64);
            let osn = SimulatedOsn::new(&g);
            let mut rng = StdRng::seed_from_u64(rep_seed);
            estimates.push(sanitize(f(&osn, &mut rng)));
            api_calls += osn.api_calls();
        }
        algorithm_counters(
            abbrev,
            &estimates,
            api_calls,
            truth.and_then(|t| finite_nrmse(&estimates, t)),
        )
    };

    algo_counters.push(ext(
        "ext-wedges",
        stream::EXT_WEDGES,
        motif_truth.map(|(w, _)| w as f64),
        &|osn, rng| {
            motifs::estimate_labeled_wedges(osn, triple, budget, burn_in, rng)
                .expect("unbudgeted motif estimation")
        },
    ));
    algo_counters.push(ext(
        "ext-triangles",
        stream::EXT_TRIANGLES,
        motif_truth.map(|(_, t)| t as f64),
        &|osn, rng| {
            motifs::estimate_labeled_triangles(osn, triple, budget, burn_in, rng)
                .expect("unbudgeted motif estimation")
        },
    ));
    algo_counters.push(ext(
        "ext-size-nodes",
        stream::EXT_SIZE,
        Some(n as f64),
        &|osn, rng| {
            size::estimate_graph_size(osn, budget, burn_in, rng)
                .expect("unbudgeted size estimation")
                .num_nodes
        },
    ));

    // --- Query engine: the shared-cache access layer under a replicated
    // load. One serial pass (threads = 1) provides the deterministic
    // counters — logical calls are what the uncached baseline would pay
    // the backend, misses are what the cache actually paid — then the same
    // workload fans across all cores on a second cold-cache engine. The
    // two estimate vectors must match bit for bit: the cache and the
    // thread pool may change timings, never results.
    let engine_reps = spec.tier.engine_reps();
    let engine_budget = n; // a heavy 100%-|V| query per replicate
    let engine_seed = replication_seed(spec.seed, stream::ENGINE);
    let engine_alg = NsHansenHurwitz;

    let engine = Engine::new(&g);
    let t0 = Instant::now();
    let serial = engine.estimate_replicated(
        &engine_alg,
        target,
        engine_budget,
        &cfg,
        engine_seed,
        engine_reps,
        1,
    );
    let engine_serial_ms = ms(t0);
    let engine_stats = engine.stats();

    // --- Hit-path latency probe: steady-state cost of one logical call on
    // a fully warm cache — the path ~97% of logical calls take, and the
    // one the session-L1 hierarchy exists to shrink. The serial pass above
    // left the engine's shared L2 warm; a fresh session warms its private
    // L1 with one pass over the probe set, then pure repeat lookups are
    // timed. (Probe nodes 0..K hash to distinct-or-colliding L1 slots
    // exactly as production traffic would; collisions fall back to the L2,
    // so the measurement reflects the real hit mix, not a best case.)
    let probe_nodes = n.min(256) as u32;
    let probe_rounds: u32 = 4_000; // ~1M timed lookups at smoke scale
    let probe = engine.session();
    for u in 0..probe_nodes {
        std::hint::black_box(probe.neighbors(NodeId(u)).len());
    }
    let t0 = Instant::now();
    for _ in 0..probe_rounds {
        for u in 0..probe_nodes {
            std::hint::black_box(probe.neighbors(NodeId(u)).len());
        }
    }
    let hit_path_ns =
        t0.elapsed().as_nanos() as f64 / (probe_rounds as u64 * probe_nodes as u64) as f64;
    drop(probe);
    // The serial engine's warm L2 holds every fetched list — graph-scale
    // state that would otherwise stay live (the `engine` counters binding
    // below shadows this `Engine` without dropping it) and inflate the
    // alloc window of every later phase.
    drop(engine);

    let engine_cold = Engine::new(&g);
    let t0 = Instant::now();
    let parallel = engine_cold.estimate_replicated(
        &engine_alg,
        target,
        engine_budget,
        &cfg,
        engine_seed,
        engine_reps,
        threads,
    );
    let engine_parallel_ms = ms(t0);

    let engine_estimates: Vec<f64> = serial
        .into_iter()
        .map(|r| sanitize(r.expect("unbudgeted estimation on a connected component")))
        .collect();
    let parallel_estimates: Vec<f64> = parallel
        .into_iter()
        .map(|r| sanitize(r.expect("unbudgeted estimation on a connected component")))
        .collect();
    assert_eq!(
        engine_estimates
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>(),
        parallel_estimates
            .iter()
            .map(|e| e.to_bits())
            .collect::<Vec<_>>(),
        "parallel replication must be bit-identical to the serial loop"
    );
    drop(engine_cold);

    let engine = Json::obj(vec![
        // Replicates fanned through the engine.
        ("replicates", int(engine_reps as u64)),
        // Per-replicate estimates, replication order (identical for every
        // thread count).
        ("estimates", floats(&engine_estimates)),
        // Logical API calls issued by all replicates — exactly what the
        // uncached baseline pays against the backend.
        ("logical_api_calls", int(engine_stats.logical_calls())),
        // Cache-miss API calls — what actually reached the backend:
        // `miss <= 0.7 * logical` on every committed smoke baseline.
        ("miss_api_calls", int(engine_stats.misses())),
        // Logical calls served by sessions' private L1 caches (no lock,
        // no atomic refcount traffic). Deterministic: each session's L1
        // hit count is a pure function of its own call sequence.
        ("l1_hits", int(engine_stats.l1_hits())),
        // `1 - miss/logical`.
        ("hit_rate", Json::Num(engine_stats.hit_rate())),
    ]);

    // --- Workload: the multi-query service under fire. A mixed Table-2
    // workload runs through per-query adversarial stacks (seeded faults:
    // rate limits, transient errors, latency ticks, pagination) once on a
    // single worker (the deterministic counters) and once fanned across
    // all cores — the reports must match bit for bit, faults included.
    let wl_queries = spec.tier.workload_queries();
    let wl_seed = replication_seed(spec.seed, stream::WORKLOAD);
    let wl = Workload::mixed(wl_queries, target, budget, wl_seed, cfg)
        .builder()
        .faults(
            if spec.fault_rate > 0.0 {
                FaultConfig::hostile(wl_seed, spec.fault_rate)
            } else {
                FaultConfig::clean(wl_seed)
            },
            RetryPolicy::default(),
        )
        .build();
    let g_osn = GraphOsn::new(&g);
    let t0 = Instant::now();
    let wl_serial = run_workload(&g_osn, &wl, 1, None);
    let workload_serial_ms = ms(t0);
    let t0 = Instant::now();
    let wl_parallel = run_workload(&g_osn, &wl, threads, None);
    let workload_parallel_ms = ms(t0);
    let serial_bits: Vec<Option<u64>> = wl_serial
        .outcomes
        .iter()
        .map(|o| o.estimate.as_ref().ok().map(|e| e.to_bits()))
        .collect();
    let parallel_bits: Vec<Option<u64>> = wl_parallel
        .outcomes
        .iter()
        .map(|o| o.estimate.as_ref().ok().map(|e| e.to_bits()))
        .collect();
    assert_eq!(
        serial_bits, parallel_bits,
        "parallel workload must be bit-identical to the serial pass"
    );
    assert_eq!(
        wl_serial.total_retry_charges(),
        wl_parallel.total_retry_charges(),
        "workload retry charges must be worker-count independent"
    );

    let wl_estimates: Vec<f64> = wl_serial
        .outcomes
        .iter()
        .map(|o| sanitize(o.estimate.as_ref().ok().copied().unwrap_or(f64::NAN)))
        .collect();
    let workload = Json::obj(vec![
        // Queries in the workload.
        ("queries", int(wl_queries as u64)),
        // Per-attempt fault probability of the adversarial backend.
        ("fault_rate", Json::Num(spec.fault_rate)),
        // Per-query estimates in query-id order; a query that failed (e.g.
        // budget exhausted under fault pressure) stores the non-finite
        // sentinel.
        ("estimates", floats(&wl_estimates)),
        // Logical API calls across all queries — the clean-world cost.
        ("logical_api_calls", int(wl_serial.total_logical_calls())),
        // Realized backend attempts (first tries + pages + retries) — what
        // the hostile API billed.
        ("backend_attempts", int(wl_serial.total_backend_attempts())),
        // Retry charges billed against query budgets.
        ("retry_charges", int(wl_serial.total_retry_charges())),
        // Rate-limit rejections absorbed.
        (
            "rate_limited",
            int(wl_serial.outcomes.iter().map(|o| o.rate_limited).sum()),
        ),
        // Transient errors absorbed.
        (
            "transient_errors",
            int(wl_serial.outcomes.iter().map(|o| o.transient_errors).sum()),
        ),
        // Queries whose hard budget ran out.
        (
            "budget_exhausted_queries",
            int(wl_serial.budget_exhausted_queries()),
        ),
        // Median and 95th-percentile per-query simulated latency, ticks.
        (
            "latency_ticks_p50",
            Json::Num(wl_serial.latency_ticks_percentile(50.0).unwrap_or(0.0)),
        ),
        (
            "latency_ticks_p95",
            Json::Num(wl_serial.latency_ticks_percentile(95.0).unwrap_or(0.0)),
        ),
    ]);

    // --- Serving: the sharded multi-graph service under a skewed
    // multi-tenant stream. The scenario graph is registered under four
    // graph keys (a four-dataset fleet sharing one topology), four tenants
    // submit through a tight modelled admission queue per graph, and the
    // heavy-hitter tenant carries a quota sized for exactly three
    // fully-budgeted requests — so every committed baseline has nonzero
    // admitted, shed, and quota_exhausted counters. The stream carries no
    // schedule, so the service runs it as a plain batch (every request at
    // tick 0, one slice per admitted query). The phase runs once on
    // a single-shard single-worker service (the deterministic reference)
    // and once on a four-shard fleet across all cores; the two reports
    // must match bit for bit, which is the serving layer's headline
    // contract.
    const SERVING_GRAPHS: u64 = 4;
    const SERVING_TENANTS: usize = 4;
    let serving_requests = spec.tier.serving_requests();
    let serving_seed = replication_seed(spec.seed, stream::SERVING);
    let serving_keys: Vec<GraphKey> = (0..SERVING_GRAPHS).map(GraphKey).collect();
    // Per-request hard budget is 6 × (budget + burn_in) charged calls
    // (mirroring Workload::mixed); admission reserves it in full, so this
    // quota admits exactly three requests per tenant before exhausting.
    let serving_quota = 3 * 6 * (budget as u64 + burn_in as u64);
    let serving_wl = || {
        ServiceWorkload::mixed_multi_tenant(
            serving_requests,
            &serving_keys,
            SERVING_TENANTS,
            spec.tenant_skew,
            target,
            budget,
            serving_seed,
            cfg,
        )
        .builder()
        .faults(
            if spec.fault_rate > 0.0 {
                FaultConfig::hostile(serving_seed, spec.fault_rate)
            } else {
                FaultConfig::clean(serving_seed)
            },
            RetryPolicy::default(),
        )
        // Tight enough that a queue's third quota-passing arrival
        // hard-sheds: capacity 2, one drain per five arrivals.
        .admission(AdmissionConfig {
            queue_capacity: 2,
            drain_every: 5,
            shed_start: 0.75,
            ..AdmissionConfig::default()
        })
        .quotas(QuotaPolicy::uniform(serving_quota))
        .build()
    };
    let run_service = |shards: usize, workers: usize| -> (ServiceReport, f64) {
        let mut svc = ShardedService::new(shards, serving_seed);
        for &k in &serving_keys {
            svc.register(k, &g);
        }
        let t0 = Instant::now();
        let report = svc.run_scheduled(serving_wl(), workers);
        (report, ms(t0))
    };
    let (serving_serial, serving_serial_ms) = run_service(1, 1);
    let (serving_parallel, serving_parallel_ms) = run_service(SERVING_GRAPHS as usize, threads);
    let service_bits = |r: &ServiceReport| -> Vec<(u64, Option<u64>)> {
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
    };
    assert_eq!(
        service_bits(&serving_serial),
        service_bits(&serving_parallel),
        "sharded service must be bit-identical to the single-shard pass"
    );
    assert_eq!(
        (
            serving_serial.serving.admitted,
            serving_serial.serving.shed,
            serving_serial.serving.quota_exhausted,
        ),
        (
            serving_parallel.serving.admitted,
            serving_parallel.serving.shed,
            serving_parallel.serving.quota_exhausted,
        ),
        "admission decisions must be shard- and worker-count independent"
    );
    let serving = Json::obj(vec![
        // Shards of the fleet pass.
        ("shards", int(SERVING_GRAPHS)),
        // Tenants issuing requests.
        ("tenants", int(SERVING_TENANTS as u64)),
        // Requests submitted.
        ("requests", int(serving_requests as u64)),
        // Requests admitted and executed.
        ("admitted", int(serving_serial.serving.admitted)),
        // Requests shed by the modelled admission queues.
        ("shed", int(serving_serial.serving.shed)),
        // Requests rejected on tenant quota.
        (
            "quota_exhausted",
            int(serving_serial.serving.quota_exhausted),
        ),
        // Per-tenant fairness: max admitted over min admitted (floored at
        // 1) across tenants with at least one submission.
        (
            "tenant_fairness",
            Json::Num(serving_serial.serving.tenant_fairness),
        ),
    ]);

    // --- Scheduler: the same multi-tenant stream replayed through the
    // virtual-time event loop under a calibrated deadline. The fault model
    // is latency-only (seeded ticks, no errors), so the virtual clock
    // advances and any quality loss is attributable to cancellation alone.
    // An unconstrained run calibrates the deadline from its own completed
    // tick bills (spec.deadline picks the percentile); the constrained run
    // then executes once on a single-shard single-worker service (timed —
    // the deterministic reference) and once across the shard fleet with
    // all cores, and the two reports must match bit for bit, anytime
    // answers and scheduling counters included.
    let scheduler_seed = replication_seed(spec.seed, stream::SCHEDULER);
    let scheduler_policy = SchedulePolicy::default()
        .with_interarrival(6)
        .with_priorities(0.25, 0.25);
    let scheduler_wl = |policy: SchedulePolicy| {
        ServiceWorkload::mixed_multi_tenant(
            serving_requests,
            &serving_keys,
            SERVING_TENANTS,
            spec.tenant_skew,
            target,
            budget,
            scheduler_seed,
            cfg,
        )
        .builder()
        .faults(
            FaultConfig {
                base_latency_ticks: 1,
                latency_jitter_ticks: 3,
                ..FaultConfig::clean(scheduler_seed)
            },
            RetryPolicy::default(),
        )
        .schedule(policy)
        .build()
    };
    let run_scheduled = |shards: usize, workers: usize, policy: SchedulePolicy| {
        let mut svc = ShardedService::new(shards, scheduler_seed);
        for &k in &serving_keys {
            svc.register(k, &g);
        }
        svc.run_scheduled(scheduler_wl(policy), workers)
    };
    let t0 = Instant::now();
    let free = run_scheduled(1, 1, scheduler_policy.clone());
    let free_ms = ms(t0);
    let bills: Vec<f64> = free
        .completed()
        .map(|(_, q)| q.latency_ticks as f64)
        .collect();
    assert!(
        !bills.is_empty(),
        "unconstrained scheduled run completed nothing — latency-only faults cannot error"
    );
    let deadline_ticks = match spec.deadline {
        DeadlineTightness::Inf => None,
        DeadlineTightness::P95 => Some(percentile(&bills, 95.0).ceil() as u64),
        DeadlineTightness::P50 => Some(percentile(&bills, 50.0).ceil() as u64),
    };
    let (scheduler_serial, scheduler_ms) = match deadline_ticks {
        None => (free, free_ms),
        Some(d) => {
            let t0 = Instant::now();
            let r = run_scheduled(1, 1, scheduler_policy.clone().with_deadline(d));
            (r, ms(t0))
        }
    };
    let final_policy = match deadline_ticks {
        None => scheduler_policy,
        Some(d) => scheduler_policy.with_deadline(d),
    };
    let scheduler_parallel = run_scheduled(SERVING_GRAPHS as usize, threads, final_policy.clone());
    assert_eq!(
        service_bits(&scheduler_serial),
        service_bits(&scheduler_parallel),
        "scheduled fleet run must be bit-identical to the single-shard pass"
    );
    assert_eq!(
        scheduler_serial.scheduling, scheduler_parallel.scheduling,
        "scheduling counters must be shard- and worker-count independent"
    );
    let sched = scheduler_serial
        .scheduling
        .expect("scheduled runs report scheduling counters");
    let scheduling = Json::obj(vec![
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
    ]);

    // --- Out-of-core: the paged-CSR backend behind the buffer pool. The
    // scenario graph is written to a paged CSR file once, then every
    // layer's *serial* pass re-runs over `PagedGraphOsn` instances opened
    // at the spec's frame budget — engine replication, the adversarial
    // workload, the sharded service, and the deadline scheduler — and
    // each is asserted bit-identical to the in-RAM pass above. That is
    // the out-of-core determinism contract: the pool changes where bytes
    // live, never which bytes a fetch returns. Paging counters aggregate
    // over exactly these serial passes (single-threaded access order is
    // deterministic, so they are too); the parallel passes are not
    // repeated — thread interleaving would make pool stats
    // non-deterministic without proving anything the in-RAM parallel
    // asserts haven't.
    let (pool_stats, page_fault_ns, storage_retries) = if spec.family == Family::LoadedPaged {
        let pool_cfg = match spec.pool_frames.frames() {
            None => PoolConfig::unbounded(),
            Some(k) => PoolConfig::bounded(k, EvictionPolicy::Lru),
        };
        // A paged backend pairs with a *bounded* L2: an unbounded cache
        // would quietly re-materialize the whole graph in RAM and the
        // residency comparison against the in-RAM `loaded` cell would
        // measure nothing.
        let paged_cache = CacheConfig::builder().capacity(512).build();
        let path = temp_stem(spec).with_extension("paged");
        PagedCsrWriter::new()
            .write(&g, &path)
            .expect("write paged CSR file");
        let open = |cfg: PoolConfig| {
            PagedGraphOsn::open(&path, cfg).expect("reopen the paged CSR file just written")
        };

        let mut pool_stats = PagingStats::default();
        let mut absorb = |s: PagingStats| {
            pool_stats.page_reads += s.page_reads;
            pool_stats.pool_hits += s.pool_hits;
            pool_stats.evictions += s.evictions;
            pool_stats.pinned_peak = pool_stats.pinned_peak.max(s.pinned_peak);
        };

        // Engine replication, serial.
        let engine_paged: Engine<'_, PagedGraphOsn> =
            Engine::on_backend_with_config(open(pool_cfg), paged_cache);
        let paged_estimates: Vec<f64> = engine_paged
            .estimate_replicated(
                &engine_alg,
                target,
                engine_budget,
                &cfg,
                engine_seed,
                engine_reps,
                1,
            )
            .into_iter()
            .map(|r| sanitize(r.expect("unbudgeted estimation on a connected component")))
            .collect();
        assert_eq!(
            engine_estimates
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            paged_estimates
                .iter()
                .map(|e| e.to_bits())
                .collect::<Vec<_>>(),
            "paged engine replication must be bit-identical to the in-RAM pass"
        );
        absorb(engine_paged.backend().paging_stats());
        drop(engine_paged);
        drop(paged_estimates);

        // Adversarial workload, serial.
        let wl_backend = open(pool_cfg);
        let wl_paged = run_workload(&wl_backend, &wl, 1, None);
        let paged_bits: Vec<Option<u64>> = wl_paged
            .outcomes
            .iter()
            .map(|o| o.estimate.as_ref().ok().map(|e| e.to_bits()))
            .collect();
        assert_eq!(
            serial_bits, paged_bits,
            "paged workload must be bit-identical to the in-RAM pass, faults included"
        );
        absorb(wl_backend.paging_stats());
        drop(wl_paged);
        drop(wl_backend);

        // Sharded service and deadline scheduler, serial (each graph key
        // gets its own pool over the same file — a four-dataset fleet
        // sharing one on-disk snapshot).
        let mut svc = ShardedService::new(1, serving_seed);
        for &k in &serving_keys {
            svc.register_paged(k, open(pool_cfg), paged_cache);
        }
        let serving_paged = svc.run_scheduled(serving_wl(), 1);
        assert_eq!(
            service_bits(&serving_serial),
            service_bits(&serving_paged),
            "paged serving must be bit-identical to the in-RAM pass"
        );
        for &k in &serving_keys {
            absorb(
                svc.paged_engine(k)
                    .expect("key was registered paged")
                    .backend()
                    .paging_stats(),
            );
        }
        // Each pass's pools, caches, and outcomes are released before the
        // next begins, so the paged block's high-water mark is one pass's
        // working state, not the sum of all four.
        drop(serving_paged);
        drop(svc);

        let mut svc = ShardedService::new(1, scheduler_seed);
        for &k in &serving_keys {
            svc.register_paged(k, open(pool_cfg), paged_cache);
        }
        let scheduler_paged = svc.run_scheduled(scheduler_wl(final_policy), 1);
        assert_eq!(
            service_bits(&scheduler_serial),
            service_bits(&scheduler_paged),
            "paged scheduled run must be bit-identical to the in-RAM pass"
        );
        for &k in &serving_keys {
            absorb(
                svc.paged_engine(k)
                    .expect("key was registered paged")
                    .backend()
                    .paging_stats(),
            );
        }
        drop(scheduler_paged);
        drop(svc);

        // Page-fault latency probe: a fresh single-frame pool makes every
        // distinct page touch a miss, so elapsed / page_reads is the cost
        // of one fault (read + decode + frame bookkeeping). A fixed node
        // stride walks the adjacency section end to end deterministically.
        let probe = open(PoolConfig::bounded(1, EvictionPolicy::Lru));
        let stride = (n / 256).max(1);
        let t0 = Instant::now();
        for u in (0..n).step_by(stride) {
            std::hint::black_box(probe.graph().neighbors(NodeId(u as u32)).len());
        }
        let probe_ns = t0.elapsed().as_nanos() as f64;
        let reads = probe.paging_stats().page_reads;
        let page_fault_ns = if reads > 0 {
            probe_ns / reads as f64
        } else {
            0.0
        };
        drop(probe);

        // Storage-fault probe (burst knob on): the same stride walk over a
        // store injecting seeded read errors and torn pages. The pool's
        // bounded retry + checksum recovery must hand back the identical
        // bytes — only `storage_retries` records that the reads fought for
        // them.
        let storage_retries = if spec.burst.config().is_some() {
            let faulty = PagedGraphOsn::open_with_faults(
                &path,
                PoolConfig::bounded(1, EvictionPolicy::Lru),
                StorageFaultConfig {
                    read_error_rate: 0.25,
                    torn_page_rate: 0.05,
                    ..StorageFaultConfig::clean(replication_seed(spec.seed, stream::FAULTS))
                },
            )
            .expect("reopen the paged CSR file with storage faults");
            let stride = (n / 256).max(1);
            let mut faulty_degrees = 0u64;
            let mut ram_degrees = 0u64;
            for u in (0..n).step_by(stride) {
                faulty_degrees += faulty.graph().neighbors(NodeId(u as u32)).len() as u64;
                ram_degrees += g.neighbors(NodeId(u as u32)).len() as u64;
            }
            assert_eq!(
                faulty_degrees, ram_degrees,
                "storage faults may cost retries, never change bytes"
            );
            faulty.paging_stats().storage_retries
        } else {
            0
        };

        let _ = std::fs::remove_file(&path);
        (pool_stats, page_fault_ns, storage_retries)
    } else {
        (PagingStats::default(), 0.0, 0)
    };
    // Aggregated over the serial paged passes only (parallel passes share
    // the pool and would make the counts interleaving-dependent); all zero
    // for the in-RAM families, which never touch a pool.
    let paging = counts(&[
        // Pages read from disk (pool misses).
        ("page_reads", pool_stats.page_reads),
        // Pin requests served from resident frames.
        ("pool_hits", pool_stats.pool_hits),
        // Frames replaced to make room.
        ("evictions", pool_stats.evictions),
        // High-water mark of simultaneously pinned frames.
        ("pinned_peak", pool_stats.pinned_peak),
    ]);

    // --- Dynamic graphs: the engine's replicated load re-run over a
    // churned backend whose seeded schedule is advanced at serial control
    // points, with every cache layer invalidating on epoch-stamp mismatch.
    // A warm pass fills both cache levels; at churn rate 0 it must be
    // bit-identical to the static engine pass above (asserted — the same
    // contract the core proptests pin for all ten algorithms). An L1 probe
    // session then straddles an epoch bump (fresh per-replicate sessions
    // start empty, so only a session living across a bump can observe L1
    // staleness), and a second replicated pass over the bumped epochs
    // counts the L2 entries evicted as stale. All counters are
    // single-threaded and therefore deterministic.
    let invalidation = {
        let churn_seed = replication_seed(spec.seed, stream::CHURN);
        let churn_cfg = ChurnConfig::from_rate(churn_seed, spec.churn_rate, n, 1);
        let engine_churn: Engine<'_, ChurnOsn> =
            Engine::on_backend_with_config(ChurnOsn::new(&g, churn_cfg), CacheConfig::default());
        let warm: Vec<f64> = engine_churn
            .estimate_replicated(
                &engine_alg,
                target,
                engine_budget,
                &cfg,
                engine_seed,
                engine_reps,
                1,
            )
            .into_iter()
            .map(|r| sanitize(r.expect("unbudgeted estimation on a connected component")))
            .collect();
        if spec.churn_rate == 0.0 {
            assert_eq!(
                engine_estimates
                    .iter()
                    .map(|e| e.to_bits())
                    .collect::<Vec<_>>(),
                warm.iter().map(|e| e.to_bits()).collect::<Vec<_>>(),
                "churn rate 0 must be bit-identical to the static engine pass"
            );
        }
        drop(warm);

        let probe = engine_churn.session();
        let probe_nodes = n.min(256) as u32;
        for u in 0..probe_nodes {
            std::hint::black_box(probe.neighbors(NodeId(u)).len());
        }
        engine_churn.backend().advance_to(4);
        for u in 0..probe_nodes {
            std::hint::black_box(probe.neighbors(NodeId(u)).len());
        }
        drop(probe); // flushes the session's L1 stale count into stats

        engine_churn.backend().advance_to(8);
        for r in engine_churn.estimate_replicated(
            &engine_alg,
            target,
            engine_budget,
            &cfg,
            engine_seed,
            engine_reps,
            1,
        ) {
            let _ = r.expect("unbudgeted estimation on a connected component");
        }

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
        if spec.churn_rate == 0.0 {
            assert!(
                invalidation.iter().all(|&(_, n)| n == 0),
                "churn rate 0 must apply no batches and evict nothing: {invalidation:?}"
            );
        }
        counts(&invalidation)
    };

    // --- Faults: the resilience layer under correlated outage bursts.
    // The multi-tenant stream replays through the virtual-time scheduler
    // with the burst process raging (hard outages on the loop's shared
    // clock), the circuit breaker + retry budget + stale-degradation
    // reactive stack on, and a shared per-tenant token-bucket rate limit
    // drained by every query of a tenant. One single-shard single-worker
    // pass provides the deterministic counters; a shard-fleet pass across
    // all cores must match it bit for bit — outages move *when* queries
    // pay, never what surviving queries answer. A separate degradation
    // probe (a session whose warm entries go stale across an epoch bump,
    // re-probed under a breaker-opening storm) pins `stale_served`
    // structurally rather than hoping the stream aligns bursts with churn.
    let (bursts, breaker_opens, stale_served, quota_throttled) = match spec.burst.config() {
        None => (0, 0, 0, 0),
        Some(burst) => {
            let faults_seed = replication_seed(spec.seed, stream::FAULTS);
            let resilience = ResilienceConfig {
                breaker: Some(BreakerConfig::default()),
                retry_budget: Some(256),
                serve_stale: true,
            };
            // Capacity covers two fully-budgeted requests per tenant
            // (mirroring `mixed_multi_tenant`'s hard budget); the refill
            // interval outlasts the stream, so a tenant's third
            // concurrent request throttles on the shared bucket.
            let burst_rate_limit = RateLimit {
                capacity: 2 * 6 * (budget as u64 + burn_in as u64),
                refill_interval_ticks: 1_000_000,
            };
            let burst_wl = || {
                ServiceWorkload::mixed_multi_tenant(
                    serving_requests,
                    &serving_keys,
                    SERVING_TENANTS,
                    spec.tenant_skew,
                    target,
                    budget,
                    faults_seed,
                    cfg,
                )
                .builder()
                .faults(
                    FaultConfig {
                        base_latency_ticks: 1,
                        latency_jitter_ticks: 3,
                        ..FaultConfig::clean(faults_seed)
                    }
                    .with_burst(burst),
                    RetryPolicy::default(),
                )
                .rate_limits(RateLimitPolicy::uniform(burst_rate_limit))
                .resilience(resilience)
                .schedule(SchedulePolicy::default().with_interarrival(6))
                .build()
            };
            let run_burst = |shards: usize, workers: usize| {
                let mut svc = ShardedService::new(shards, faults_seed);
                for &k in &serving_keys {
                    svc.register(k, &g);
                }
                svc.run_scheduled(burst_wl(), workers)
            };
            let burst_serial = run_burst(1, 1);
            let burst_fleet = run_burst(SERVING_GRAPHS as usize, threads);
            assert_eq!(
                service_bits(&burst_serial),
                service_bits(&burst_fleet),
                "burst-time fleet run must be bit-identical to the single-shard pass"
            );
            let mut bursts = 0u64;
            let mut breaker_opens = 0u64;
            let mut stale_served = 0u64;
            for (_, q) in burst_serial.completed() {
                bursts += q.bursts;
                breaker_opens += q.breaker_opens;
                stale_served += q.stale_served;
            }
            let quota_throttled = burst_serial.serving.quota_throttled;

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
            let churned = ChurnOsn::new(&g, ChurnConfig::from_rate(faults_seed, 0.5, n, 1));
            let adv = AdversarialOsn::with_resilience(
                &churned,
                FaultConfig {
                    base_latency_ticks: 1,
                    ..FaultConfig::clean(faults_seed)
                }
                .with_burst(storm),
                RetryPolicy::default(),
                resilience,
            );
            let cache =
                CachedOsn::with_config(adv, CacheConfig::builder().serve_stale(true).build());
            let session = cache.session();
            let probe_nodes = n.min(256) as u32;
            for u in 0..probe_nodes {
                std::hint::black_box(session.neighbors(NodeId(u)).len());
            }
            churned.advance_to(1);
            for u in 0..probe_nodes {
                std::hint::black_box(session.neighbors(NodeId(u)).len());
            }
            stale_served += session.stale_served();
            drop(session);
            let storm_stats = cache.backend().fault_stats();
            bursts += storm_stats.bursts;
            breaker_opens += storm_stats.breaker_opens;

            (bursts, breaker_opens, stale_served, quota_throttled)
        }
    };
    // All zero with the burst knob off, where the scenario must be
    // bit-identical to the fault-free stack.
    let faults = counts(&[
        // Distinct outage bursts the queries' fetches ran into.
        ("bursts", bursts),
        // Circuit-breaker trips (closed → open, including re-opens).
        ("breaker_opens", breaker_opens),
        // Stale cache entries served during degraded windows.
        ("stale_served", stale_served),
        // Storage read attempts retried by the paged buffer pool (in-RAM
        // families never read pages, so this stays zero there).
        ("storage_retries", storage_retries),
        // Requests throttled on the shared per-tenant rate limit.
        ("quota_throttled", quota_throttled),
    ]);

    let alloc = alloc_track::delta(alloc_before, alloc_track::snapshot());
    Report {
        schema_version: SCHEMA_VERSION,
        meta: ScenarioMeta {
            name: spec.name(),
            family: spec.family.name().to_string(),
            tier: spec.tier.name().to_string(),
            seed: spec.seed,
            nodes: n as u64,
            edges: g.num_edges() as u64,
            budget: budget as u64,
            burn_in: burn_in as u64,
            reps: reps as u64,
            threads: threads as u64,
        },
        counters: Json::obj(vec![
            ("walk", walk),
            // Table 2 order, then the extensions.
            ("algorithms", Json::Arr(algo_counters)),
            ("engine", engine),
            ("workload", workload),
            ("serving", serving),
            ("scheduling", scheduling),
            ("paging", paging),
            ("invalidation", invalidation),
            ("faults", faults),
            // Exact target-edge count `F`.
            ("ground_truth_f", int(gt.f as u64)),
        ]),
        measured: Json::obj(vec![
            // Whole-scenario wall time, milliseconds.
            ("total_ms", Json::Num(ms(scenario_start))),
            // Walk throughput, steps/second: per-step, batched
            // (`steps_into`), and line-graph stepping.
            (
                "per_step_steps_per_sec",
                Json::Num(rate(steps, per_step_ms)),
            ),
            ("batched_steps_per_sec", Json::Num(rate(steps, batched_ms))),
            ("line_steps_per_sec", Json::Num(rate(line_steps, line_ms))),
            // Serial and parallel `GroundTruth` wall times, milliseconds.
            ("gt_serial_ms", Json::Num(gt_serial_ms)),
            ("gt_parallel_ms", Json::Num(gt_parallel_ms)),
            // The engine's replicated run on one thread, then fanned across
            // all available threads (cold cache for both), milliseconds.
            ("engine_serial_ms", Json::Num(engine_serial_ms)),
            ("engine_parallel_ms", Json::Num(engine_parallel_ms)),
            // `engine_serial_ms / engine_parallel_ms` — > 1 on multi-core
            // runners.
            (
                "engine_parallel_speedup",
                Json::Num(if engine_parallel_ms > 0.0 {
                    engine_serial_ms / engine_parallel_ms
                } else {
                    0.0
                }),
            ),
            // Steady-state cost of one logical call on a fully warm cache,
            // nanoseconds: the ~97%-of-calls hot path the L1 hierarchy
            // optimizes.
            ("hit_path_ns", Json::Num(hit_path_ns)),
            // The workload phase on one worker, then on all available
            // workers, milliseconds; and the parallel pass's queries/second.
            ("workload_serial_ms", Json::Num(workload_serial_ms)),
            ("workload_parallel_ms", Json::Num(workload_parallel_ms)),
            (
                "workload_queries_per_sec",
                Json::Num(if workload_parallel_ms > 0.0 {
                    wl_queries as f64 / (workload_parallel_ms / 1e3)
                } else {
                    0.0
                }),
            ),
            // The serving phase on one shard with one worker, then across
            // the full shard fleet with all available workers,
            // milliseconds.
            ("serving_serial_ms", Json::Num(serving_serial_ms)),
            ("serving_parallel_ms", Json::Num(serving_parallel_ms)),
            // The deadline-constrained scheduled run on one shard with one
            // worker, milliseconds.
            ("scheduler_ms", Json::Num(scheduler_ms)),
            // Steady cost of one buffer-pool page fault on a fresh
            // tight-budget pool, nanoseconds; zero for in-RAM families.
            ("page_fault_ns", Json::Num(page_fault_ns)),
            // The machine-speed proxy the gate normalizes timings by.
            (
                "calibration_ops_per_sec",
                Json::Num(calibration_ops_per_sec()),
            ),
            // Allocator traffic over the scenario (see `alloc_track`).
            (
                "alloc",
                Json::obj(vec![
                    ("peak_bytes", int(alloc.peak_bytes)),
                    ("allocs", int(alloc.allocs)),
                    ("measured", Json::Bool(alloc.measured)),
                ]),
            ),
        ]),
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
