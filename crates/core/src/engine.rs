//! The concurrent query engine: one graph, one shared cache, many
//! estimation queries.
//!
//! [`Engine`] owns a [`CachedOsn`] over a pure, `Sync`
//! [`GraphOsn`] backend and serves label-count estimation queries against
//! it. Each query runs in its own [`OsnSession`] (per-query logical-call
//! accounting and budget), so queries never corrupt each other's stopping
//! rules while sharing every cached neighbor list and label set.
//!
//! [`Engine::estimate_replicated`] fans `R` independent replicates across
//! worker threads via [`labelcount_stats::replicate()`]: replicate `i`
//! always receives the RNG seed
//! [`labelcount_stats::replication_seed`]`(base_seed, i)`, so the results
//! are **bit-identical to the serial loop** regardless of thread count —
//! the cache only changes *where* bytes come from, never *which* bytes a
//! query sees.

use std::marker::PhantomData;

use labelcount_graph::{LabeledGraph, TargetLabel};
use labelcount_osn::{CacheConfig, CachedOsn, CallStats, GraphOsn, OsnBackend, OsnSession};
use labelcount_stats::replicate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::algorithm::{Algorithm, RunConfig};
use crate::error::EstimateError;

/// A query engine serving many estimation queries over one graph through
/// a shared thread-safe cache.
///
/// ```
/// use labelcount_core::{Engine, NsHansenHurwitz, RunConfig};
/// use labelcount_graph::gen::barabasi_albert;
/// use labelcount_graph::labels::{assign_binary_labels, with_labels};
/// use labelcount_graph::TargetLabel;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let g = barabasi_albert(300, 3, &mut rng);
/// let mut labels = vec![Vec::new(); g.num_nodes()];
/// assign_binary_labels(&mut labels, 0.5, &mut rng);
/// let g = with_labels(&g, &labels);
///
/// let engine = Engine::new(&g);
/// let target = TargetLabel::new(1.into(), 2.into());
/// let cfg = RunConfig { burn_in: 50, thinning_frac: 0.0 };
/// // 8 replicates over 4 threads — bit-identical to threads = 1.
/// let est = engine.estimate_replicated(&NsHansenHurwitz, target, 200, &cfg, 42, 8, 4);
/// assert_eq!(est.len(), 8);
/// assert!(engine.stats().misses() <= engine.stats().logical_calls());
/// ```
/// The backend defaults to the in-RAM [`GraphOsn`] view — `Engine<'g>`
/// reads exactly as before — but any `Sync` [`OsnBackend`] slots in via
/// [`Engine::on_backend`]: the out-of-core `labelcount_osn::PagedGraphOsn`
/// runs the same query stack with residency bounded by its buffer pool.
pub struct Engine<'g, B: OsnBackend + Sync = GraphOsn<'g>> {
    cache: CachedOsn<B>,
    /// The default backend borrows the graph for `'g`; non-default
    /// backends own their storage and leave the lifetime vestigial.
    _graph: PhantomData<&'g ()>,
}

impl<'g> Engine<'g> {
    /// Builds an engine with an unbounded cache — every distinct neighbor
    /// list and label set is fetched from the graph exactly once.
    pub fn new(graph: &'g LabeledGraph) -> Self {
        Engine::on_backend(GraphOsn::new(graph))
    }

    /// Builds an engine with explicit cache sizing (bounded deployments
    /// trade hit rate for memory).
    pub fn with_cache_config(graph: &'g LabeledGraph, cfg: CacheConfig) -> Self {
        Engine::on_backend_with_config(GraphOsn::new(graph), cfg)
    }

    /// The graph being served.
    pub fn graph(&self) -> &'g LabeledGraph {
        self.cache.backend().ground_truth_graph()
    }
}

impl<'g, B: OsnBackend + Sync> Engine<'g, B> {
    /// Builds an engine over an arbitrary backend with an unbounded cache.
    pub fn on_backend(backend: B) -> Self {
        Engine {
            cache: CachedOsn::new(backend),
            _graph: PhantomData,
        }
    }

    /// Builds an engine over an arbitrary backend with explicit cache
    /// sizing. An out-of-core backend typically pairs with a *bounded*
    /// cache, so total residency (pool frames + L2 entries) stays capped.
    pub fn on_backend_with_config(backend: B, cfg: CacheConfig) -> Self {
        Engine {
            cache: CachedOsn::with_config(backend, cfg),
            _graph: PhantomData,
        }
    }

    /// The backend under the shared cache.
    pub fn backend(&self) -> &B {
        self.cache.backend()
    }

    /// Opens a raw query session against the shared cache (for callers
    /// that drive an [`Algorithm`] — or a walk — manually).
    pub fn session(&self) -> OsnSession<'_, B> {
        self.cache.session()
    }

    /// Runs one estimation query with an explicit RNG seed.
    pub fn estimate(
        &self,
        alg: &dyn Algorithm,
        target: TargetLabel,
        budget: usize,
        cfg: &RunConfig,
        seed: u64,
    ) -> Result<f64, EstimateError> {
        let session = self.cache.session();
        let mut rng = StdRng::seed_from_u64(seed);
        alg.estimate(&session, target, budget, cfg, &mut rng)
    }

    /// Runs `reps` independent replicates of one query across up to
    /// `threads` worker threads, returning results in replication order.
    ///
    /// Replicate `i` gets its own session and an RNG seeded with
    /// [`labelcount_stats::replication_seed`]`(base_seed, i)`, so the
    /// output is bit-identical for every thread count (`threads = 1` *is*
    /// the serial loop). All replicates share the cache: the first visit
    /// to a node pays the backend fetch, every later visit — by any
    /// replicate on any thread — is a hit.
    #[allow(clippy::too_many_arguments)] // mirrors Algorithm::estimate plus the replication axes
    pub fn estimate_replicated(
        &self,
        alg: &dyn Algorithm,
        target: TargetLabel,
        budget: usize,
        cfg: &RunConfig,
        base_seed: u64,
        reps: usize,
        threads: usize,
    ) -> Vec<Result<f64, EstimateError>> {
        replicate(reps, threads, base_seed, |_i, seed| {
            let session = self.cache.session();
            let mut rng = StdRng::seed_from_u64(seed);
            alg.estimate(&session, target, budget, cfg, &mut rng)
        })
    }

    /// Shared-cache call accounting aggregated over every query served so
    /// far: logical calls vs backend misses (the paper's distinct-call
    /// metric).
    pub fn stats(&self) -> CallStats {
        self.cache.stats()
    }

    /// Resets the call accounting (cached entries are kept warm).
    pub fn reset_stats(&self) {
        self.cache.reset_stats();
    }

    /// Drops every cached entry, returning the engine to a cold state.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::algorithms;
    use crate::workload::{run_workload, Workload};
    use labelcount_graph::gen::barabasi_albert;
    use labelcount_graph::labels::{assign_binary_labels, with_labels};
    use labelcount_graph::{LabeledGraph, TargetLabel};
    use labelcount_osn::SimulatedOsn;
    use labelcount_stats::replication_seed;

    fn fixture(seed: u64) -> LabeledGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(250, 3, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.4, &mut rng);
        with_labels(&g, &labels)
    }

    fn target() -> TargetLabel {
        TargetLabel::new(1.into(), 2.into())
    }

    fn cfg() -> RunConfig {
        RunConfig {
            burn_in: 40,
            thinning_frac: 0.0,
        }
    }

    #[test]
    fn engine_estimate_matches_uncached_simulation() {
        let g = fixture(3);
        let engine = Engine::new(&g);
        for (ai, alg) in algorithms::all_paper(0.2, 0.5).iter().enumerate() {
            let seed = 100 + ai as u64;
            let via_engine = engine
                .estimate(alg.as_ref(), target(), 150, &cfg(), seed)
                .unwrap();
            let osn = SimulatedOsn::new(&g);
            let mut rng = StdRng::seed_from_u64(seed);
            let direct = alg.estimate(&osn, target(), 150, &cfg(), &mut rng).unwrap();
            assert_eq!(
                via_engine.to_bits(),
                direct.to_bits(),
                "{} diverged through the engine cache",
                alg.abbrev()
            );
        }
    }

    #[test]
    fn replicated_matches_manual_serial_loop() {
        let g = fixture(5);
        let engine = Engine::new(&g);
        let alg = crate::NsHansenHurwitz;
        let reps = 6;
        let base = 99;
        let parallel = engine.estimate_replicated(&alg, target(), 120, &cfg(), base, reps, 4);
        let manual: Vec<f64> = (0..reps)
            .map(|i| {
                engine
                    .estimate(
                        &alg,
                        target(),
                        120,
                        &cfg(),
                        replication_seed(base, i as u64),
                    )
                    .unwrap()
            })
            .collect();
        for (p, m) in parallel.iter().zip(&manual) {
            assert_eq!(p.as_ref().unwrap().to_bits(), m.to_bits());
        }
    }

    #[test]
    fn call_capped_replicates_yield_cooperatively_and_deterministically() {
        let g = fixture(6);
        // Six NS-HH queries, each hard-capped at 25 charged calls — far
        // below what a 200-call sample needs: every query must yield at a
        // step boundary instead of completing.
        let mut wl = Workload::mixed(6, target(), 200, 3, cfg());
        for q in &mut wl.queries {
            q.algorithm = Box::new(crate::NsHansenHurwitz);
            q.hard_budget = Some(25);
        }
        let collected = |workers: usize| -> Vec<usize> {
            run_workload(&GraphOsn::new(&g), &wl, workers)
                .outcomes
                .into_iter()
                .map(|o| match o.estimate {
                    Err(EstimateError::BudgetExhausted { collected }) => collected,
                    other => panic!("a 25-call cap must exhaust, got {other:?}"),
                })
                .collect()
        };
        // Caps are per query and order-free: the partial samples are
        // identical at any worker count (the cooperative yield point is
        // the session's own budget answer, not shared state).
        let serial = collected(1);
        for workers in [2usize, 4] {
            assert_eq!(
                serial,
                collected(workers),
                "partial sample diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn shared_cache_reduces_backend_traffic_across_replicates() {
        let g = fixture(7);
        let engine = Engine::new(&g);
        let _ = engine.estimate_replicated(&crate::NeHansenHurwitz, target(), 200, &cfg(), 1, 8, 1);
        let stats = engine.stats();
        assert!(stats.misses() <= stats.logical_calls());
        // 8 replicates over one 250-node graph revisit nodes heavily.
        assert!(
            (stats.misses() as f64) < 0.7 * stats.logical_calls() as f64,
            "cache saved too little: {stats:?}"
        );
        // Unbounded cache: misses are bounded by distinct nodes per endpoint.
        assert!(stats.neighbor_misses <= g.num_nodes() as u64);
        assert!(stats.label_misses <= g.num_nodes() as u64);
    }

    #[test]
    fn reset_and_clear_behave() {
        let g = fixture(9);
        let engine = Engine::new(&g);
        engine
            .estimate(&crate::NsHansenHurwitz, target(), 60, &cfg(), 4)
            .unwrap();
        assert!(engine.stats().logical_calls() > 0);
        engine.reset_stats();
        assert_eq!(engine.stats().logical_calls(), 0);
        // Warm cache: a re-run has zero misses.
        engine
            .estimate(&crate::NsHansenHurwitz, target(), 60, &cfg(), 4)
            .unwrap();
        assert_eq!(engine.stats().misses(), 0);
        engine.clear_cache();
        engine.reset_stats();
        engine
            .estimate(&crate::NsHansenHurwitz, target(), 60, &cfg(), 4)
            .unwrap();
        assert!(engine.stats().misses() > 0);
    }

    #[test]
    fn graph_accessor_returns_the_served_graph() {
        let g = fixture(11);
        let engine = Engine::new(&g);
        assert_eq!(engine.graph().num_nodes(), g.num_nodes());
        assert_eq!(engine.graph().num_edges(), g.num_edges());
    }
}
