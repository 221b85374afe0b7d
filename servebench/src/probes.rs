//! Isolated unit-cost probes. Each times one operation of one layer
//! through public functions only, on the workload's own graph and
//! configuration, and reports the median nanoseconds per operation over
//! several rounds.

use std::hint::black_box;
use std::time::Instant;

use labelcount_graph::{LabeledGraph, NodeId};
use labelcount_osn::{
    AdversarialOsn, CacheConfig, CachedOsn, ChurnOsn, GraphOsn, OsnApi, OsnBackend, PagedGraphOsn,
};
use labelcount_serve::admission::AdmissionState;
use labelcount_serve::{AdmissionConfig, QuotaPolicy, RateLimitPolicy, TenantId};
use labelcount_stats::{percentile, replication_seed};
use labelcount_walk::{SimpleWalk, Walker};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::inputs::stream;
use crate::replay::Knobs;

/// Timed rounds per probe; the median round is reported.
const ROUNDS: usize = 5;

/// Distinct nodes a cold-path probe touches per round.
const COLD_NODES: usize = 4096;

/// Nodes a warm-path probe cycles over: few enough to stay resident in
/// a session L1 (512 direct-mapped slots) and in a 16-frame pool.
const WARM_NODES: u32 = 4;

/// Median nanoseconds per operation of `round`, which performs `ops`
/// operations per call.
fn per_op(ops: usize, mut round: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            round();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    percentile(&samples, 50.0)
}

/// `k` distinct pseudo-random nodes of an `n`-node graph.
pub fn random_nodes(n: usize, k: usize, seed: u64) -> Vec<NodeId> {
    let mut all: Vec<u32> = (0..n as u32).collect();
    all.shuffle(&mut StdRng::seed_from_u64(replication_seed(
        seed,
        stream::PROBES,
    )));
    all.truncate(k.min(n));
    all.into_iter().map(NodeId).collect()
}

/// Consecutive node ids occupy distinct direct-mapped L1 slots.
fn warm_set() -> Vec<NodeId> {
    (0..256).map(NodeId).collect()
}

/// Cost of a session-L1 hit: repeat lookups within a warm session.
pub fn l1_hit_ns<B: OsnBackend>(cache: &CachedOsn<B>) -> f64 {
    let nodes = warm_set();
    let session = cache.session();
    for &u in &nodes {
        black_box(session.neighbors(u).len());
    }
    per_op(nodes.len() * 64, || {
        for _ in 0..64 {
            for &u in &nodes {
                black_box(session.neighbors(u).len());
            }
        }
    })
}

/// Cost of a shared-L2 hit: lookups on a warm cache from a session with
/// its L1 disabled.
pub fn l2_hit_ns<B: OsnBackend>(cache: &CachedOsn<B>) -> f64 {
    let nodes = warm_set();
    let session = cache.session_with_l1(0);
    for &u in &nodes {
        black_box(session.neighbors(u).len());
    }
    per_op(nodes.len() * 64, || {
        for _ in 0..64 {
            for &u in &nodes {
                black_box(session.neighbors(u).len());
            }
        }
    })
}

/// Cost of an L2 miss into the in-RAM `GraphOsn`: lookup, fetch, and
/// fill, on a cold cache of the workload's configuration.
pub fn l2_miss_ns(osn: &GraphOsn<'_>, cfg: CacheConfig, seed: u64) -> f64 {
    let nodes = random_nodes(osn.num_nodes(), COLD_NODES, seed);
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let cache = CachedOsn::with_config(osn, cfg);
            let session = cache.session_with_l1(0);
            let t = Instant::now();
            for &u in &nodes {
                black_box(session.neighbors(u).len());
            }
            t.elapsed().as_nanos() as f64 / nodes.len() as f64
        })
        .collect();
    percentile(&samples, 50.0)
}

/// Cost of one backend fetch (friend list) over distinct nodes.
pub fn fetch_ns<B: OsnBackend>(backend: &B, seed: u64) -> f64 {
    let nodes = random_nodes(backend.num_nodes(), COLD_NODES, seed);
    per_op(nodes.len(), || {
        for &u in &nodes {
            black_box(backend.fetch_neighbors_cost(u).1);
        }
    })
}

/// Cost of one fetch through `AdversarialOsn` at the workload's fault
/// configuration, over the in-RAM backend.
pub fn fault_fetch_ns(osn: &GraphOsn<'_>, knobs: &Knobs, seed: u64) -> f64 {
    let nodes = random_nodes(osn.num_nodes(), COLD_NODES, seed);
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|round| {
            let faults = labelcount_osn::FaultConfig {
                seed: replication_seed(seed, round as u64),
                ..knobs.faults
            };
            let adv = AdversarialOsn::with_resilience(osn, faults, knobs.retry, knobs.resilience);
            let t = Instant::now();
            for &u in &nodes {
                black_box(adv.fetch_neighbors_cost(u).1);
            }
            t.elapsed().as_nanos() as f64 / nodes.len() as f64
        })
        .collect();
    percentile(&samples, 50.0)
}

/// Cost of a `PagedGraphOsn` fetch whose pages are resident in the
/// workload's tight pool.
pub fn paged_fetch_ns(paged: &PagedGraphOsn) -> f64 {
    let nodes: Vec<NodeId> = (0..WARM_NODES).map(NodeId).collect();
    for &u in &nodes {
        black_box(paged.fetch_neighbors_cost(u).1);
    }
    per_op(nodes.len() * 1024, || {
        for _ in 0..1024 {
            for &u in &nodes {
                black_box(paged.fetch_neighbors_cost(u).1);
            }
        }
    })
}

/// Cost of a buffer-pool page fault: pins cycling over four times as
/// many pages as the pool has frames, so every pin reads a page.
pub fn pool_fault_ns(paged: &PagedGraphOsn, frames: usize) -> f64 {
    let pool = paged.graph().pool();
    let pages = (4 * frames as u64).min(pool.num_pages());
    if pages <= frames as u64 {
        return 0.0;
    }
    per_op(pages as usize * 4, || {
        for _ in 0..4 {
            for p in 0..pages {
                black_box(pool.pin(p).expect("page of the written file").len());
            }
        }
    })
}

/// Cost of applying one churn event: fresh snapshots advanced through
/// `batches` batches.
pub fn churn_apply_ns(g: &LabeledGraph, cfg: labelcount_graph::ChurnConfig, batches: u64) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let osn = ChurnOsn::new(g, cfg);
            let t = Instant::now();
            osn.advance_to(batches * cfg.batch_interval_ticks);
            let ns = t.elapsed().as_nanos() as f64;
            ns / osn.churn_stats().events_drawn.max(1) as f64
        })
        .collect();
    percentile(&samples, 50.0)
}

/// One arrival as the admission layer sees it.
#[derive(Clone, Copy)]
pub struct Arrival {
    pub id: u64,
    pub tenant: TenantId,
    pub queue: usize,
    pub hard_budget: Option<u64>,
    pub tick: u64,
}

/// Cost of one `decide_scheduled` over the workload's own arrival
/// sequence, on fresh admission state each round.
pub fn admission_ns(
    arrivals: &[Arrival],
    queues: usize,
    cfg: AdmissionConfig,
    quotas: &QuotaPolicy,
    rates: &RateLimitPolicy,
    seed: u64,
) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut state =
                AdmissionState::with_rate_limits(queues, cfg, quotas.clone(), rates.clone(), seed);
            let t = Instant::now();
            for a in arrivals {
                black_box(state.decide_scheduled(a.id, a.tenant, a.queue, a.hard_budget, a.tick));
            }
            t.elapsed().as_nanos() as f64 / arrivals.len() as f64
        })
        .collect();
    percentile(&samples, 50.0)
}

/// Cost of one `SimpleWalk` step through a warm session of `cache`.
pub fn walk_step_ns<B: OsnBackend>(cache: &CachedOsn<B>, seed: u64) -> f64 {
    const STEPS: usize = 50_000;
    let session = cache.session();
    let api: &dyn OsnApi = &session;
    let mut rng = StdRng::seed_from_u64(replication_seed(seed, stream::PROBES));
    let mut walk = SimpleWalk::new(NodeId(0));
    walk.burn_in(api, STEPS, &mut rng);
    per_op(STEPS, || {
        for _ in 0..STEPS {
            black_box(walk.step(api, &mut rng));
        }
    })
}

/// Cost of building one slice's query stack (fault layer, cache,
/// session), which the scheduler does for every replicate slice.
pub fn slice_stack_ns(osn: &GraphOsn<'_>, knobs: &Knobs) -> f64 {
    const N: usize = 256;
    per_op(N, || {
        for _ in 0..N {
            let adv =
                AdversarialOsn::with_resilience(osn, knobs.faults, knobs.retry, knobs.resilience);
            let cache = CachedOsn::with_config(
                adv,
                CacheConfig::builder()
                    .serve_stale(knobs.resilience.serve_stale)
                    .build(),
            );
            black_box(cache.session().api_calls());
        }
    })
}
