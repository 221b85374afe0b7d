//! Reproducibility across the whole pipeline: identical seeds must yield
//! identical datasets, sweeps, and estimates, regardless of thread count.

use labelcount::core::{
    algorithms, Algorithm, Engine, NeHansenHurwitz, NsHansenHurwitz, RunConfig,
};
use labelcount::graph::GroundTruth;
use labelcount::osn::SimulatedOsn;
use labelcount::stats::replication_seed;
use labelcount_experiments::datasets::{build, DatasetKind};
use labelcount_experiments::runner::{nrmse_sweep, SweepConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Identical `StdRng` seeds must produce bit-identical estimates across
/// two independent runs, for both sampler families. (`assert_eq!` on `f64`
/// is deliberate: determinism means the same bits, not "close".)
#[test]
fn ns_and_ne_estimates_are_bit_identical_given_seed() {
    let d = build(DatasetKind::FacebookLike, 0.05, 41);
    let target = d.targets[0].label;
    let cfg = RunConfig {
        burn_in: 60,
        ..RunConfig::default()
    };
    let budget = d.graph.num_nodes() / 10;
    for (alg, name) in [
        (&NsHansenHurwitz as &dyn Algorithm, "NS"),
        (&NeHansenHurwitz, "NE"),
    ] {
        for seed in [0u64, 7, 0xDEAD_BEEF] {
            let run = || {
                let osn = SimulatedOsn::new(&d.graph);
                let mut rng = StdRng::seed_from_u64(seed);
                alg.estimate(&osn, target, budget, &cfg, &mut rng).unwrap()
            };
            let a = run();
            let b = run();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{name} sampler not seed-stable at seed {seed}: {a} vs {b}"
            );
        }
    }
}

/// Different seeds must not collapse to one estimate (guards against an
/// RNG that ignores its seed, which would make the test above vacuous).
#[test]
fn ns_and_ne_estimates_vary_across_seeds() {
    let d = build(DatasetKind::FacebookLike, 0.05, 41);
    let target = d.targets[0].label;
    let cfg = RunConfig {
        burn_in: 60,
        ..RunConfig::default()
    };
    let budget = d.graph.num_nodes() / 10;
    for alg in [&NsHansenHurwitz as &dyn Algorithm, &NeHansenHurwitz] {
        let estimates: Vec<f64> = (0..4)
            .map(|seed| {
                let osn = SimulatedOsn::new(&d.graph);
                let mut rng = StdRng::seed_from_u64(seed);
                alg.estimate(&osn, target, budget, &cfg, &mut rng).unwrap()
            })
            .collect();
        assert!(
            estimates.windows(2).any(|w| w[0] != w[1]),
            "{}: all seeds produced {estimates:?}",
            alg.abbrev()
        );
    }
}

#[test]
fn dataset_builds_are_deterministic() {
    let a = build(DatasetKind::FacebookLike, 0.05, 77);
    let b = build(DatasetKind::FacebookLike, 0.05, 77);
    assert_eq!(a.graph.num_nodes(), b.graph.num_nodes());
    assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    assert_eq!(a.burn_in, b.burn_in);
    assert_eq!(a.targets.len(), b.targets.len());
    for (x, y) in a.targets.iter().zip(&b.targets) {
        assert_eq!(x.label, y.label);
        assert_eq!(x.f, y.f);
    }
    for u in a.graph.nodes() {
        assert_eq!(a.graph.neighbors(u), b.graph.neighbors(u));
        assert_eq!(a.graph.labels(u), b.graph.labels(u));
    }
}

#[test]
fn different_data_seeds_give_different_graphs() {
    let a = build(DatasetKind::FacebookLike, 0.05, 1);
    let b = build(DatasetKind::FacebookLike, 0.05, 2);
    let differs = a
        .graph
        .nodes()
        .any(|u| a.graph.neighbors(u) != b.graph.neighbors(u));
    assert!(differs, "different seeds must change the graph");
}

/// `Engine::estimate_replicated` must be bit-identical to the serial
/// replicate loop for every Table-2 algorithm, at every thread count. The
/// shared cache and the thread pool may change timings — never results.
#[test]
fn engine_replication_is_bit_identical_across_thread_counts() {
    let d = build(DatasetKind::FacebookLike, 0.05, 41);
    let target = d.targets[0].label;
    let cfg = RunConfig {
        burn_in: 40,
        ..RunConfig::default()
    };
    let budget = d.graph.num_nodes() / 10;
    let reps = 6;
    let base_seed = 0xE17;

    for alg in algorithms::all_paper(0.2, 0.5) {
        let engine = Engine::new(&d.graph);
        // The reference: an explicit serial loop with the replication
        // seed schedule, one session per replicate.
        let serial: Vec<u64> = (0..reps)
            .map(|i| {
                engine
                    .estimate(
                        alg.as_ref(),
                        target,
                        budget,
                        &cfg,
                        replication_seed(base_seed, i as u64),
                    )
                    .unwrap()
                    .to_bits()
            })
            .collect();
        for threads in [1usize, 2, 8] {
            let replicated: Vec<u64> = engine
                .estimate_replicated(alg.as_ref(), target, budget, &cfg, base_seed, reps, threads)
                .into_iter()
                .map(|r| r.unwrap().to_bits())
                .collect();
            assert_eq!(
                serial,
                replicated,
                "{} diverged from the serial loop at {threads} threads",
                alg.abbrev()
            );
        }
        // Replication shares the cache, so the backend paid each distinct
        // fetch once, not once per replicate.
        let stats = engine.stats();
        assert!(stats.misses() <= stats.logical_calls());
        assert!(
            stats.neighbor_misses <= d.graph.num_nodes() as u64,
            "{}: unbounded cache must cap misses at distinct nodes",
            alg.abbrev()
        );
    }
}

/// The session L1 cache changes what a hit costs, never what a query
/// sees: for every Table-2 algorithm, replicated estimation must be
/// bit-identical at 1, 2, and 8 threads with the L1 enabled (default)
/// and disabled — and the shared logical/miss accounting must agree
/// across all six cells.
#[test]
fn engine_replication_is_bit_identical_with_l1_on_and_off() {
    use labelcount::osn::CacheConfig;

    let d = build(DatasetKind::FacebookLike, 0.05, 41);
    let target = d.targets[0].label;
    let cfg = RunConfig {
        burn_in: 40,
        ..RunConfig::default()
    };
    let budget = d.graph.num_nodes() / 10;
    let reps = 6;
    let base_seed = 0x11CA;

    for alg in algorithms::all_paper(0.2, 0.5) {
        let mut reference: Option<(Vec<u64>, u64, u64)> = None;
        for l1_slots in [0usize, 512] {
            let engine = Engine::with_cache_config(
                &d.graph,
                CacheConfig::builder().l1_slots(l1_slots).build(),
            );
            for threads in [1usize, 2, 8] {
                let estimates: Vec<u64> = engine
                    .estimate_replicated(
                        alg.as_ref(),
                        target,
                        budget,
                        &cfg,
                        base_seed,
                        reps,
                        threads,
                    )
                    .into_iter()
                    .map(|r| r.unwrap().to_bits())
                    .collect();
                match &reference {
                    None => {
                        let stats = engine.stats();
                        reference = Some((estimates, stats.logical_calls(), stats.misses()));
                    }
                    Some((est_ref, _, _)) => assert_eq!(
                        est_ref,
                        &estimates,
                        "{} diverged at l1_slots={l1_slots}, {threads} threads",
                        alg.abbrev()
                    ),
                }
            }
            // Logical and miss totals are independent of the L1 and the
            // thread count (each (l1, threads) cell replayed the same
            // per-session sequences; the engine accumulated 3 passes).
            let stats = engine.stats();
            let (_, logical_one_pass, misses_one_pass) = reference.as_ref().unwrap();
            assert_eq!(
                stats.logical_calls(),
                3 * logical_one_pass,
                "{} l1_slots={l1_slots}: logical calls drifted",
                alg.abbrev()
            );
            assert_eq!(
                stats.misses(),
                *misses_one_pass,
                "{} l1_slots={l1_slots}: unbounded misses must stay at the distinct floor",
                alg.abbrev()
            );
            if l1_slots == 0 {
                assert_eq!(stats.l1_hits(), 0, "{}", alg.abbrev());
            }
        }
    }
}

/// The multi-query workload service over a hostile (fault-injecting) API:
/// a mixed workload of ≥ 8 Table-2 queries at a nonzero fault rate must
/// produce bit-identical estimates, retry counts, latency ticks, and
/// budget verdicts at 1, 2, and 8 workers — the same determinism bar as
/// replicated estimation, now with faults in the loop.
#[test]
fn workload_over_adversarial_osn_is_bit_identical_across_worker_counts() {
    use labelcount::core::{run_workload, Workload};
    use labelcount::osn::{FaultConfig, GraphOsn, RetryPolicy};

    let d = build(DatasetKind::FacebookLike, 0.05, 41);
    let target = d.targets[0].label;
    let cfg = RunConfig {
        burn_in: 40,
        ..RunConfig::default()
    };
    let workload = Workload::mixed(10, target, d.graph.num_nodes() / 20, 0xADA9, cfg)
        .builder()
        .faults(FaultConfig::hostile(0xFA17, 0.3), RetryPolicy::default())
        .build();
    let osn = GraphOsn::new(&d.graph);

    let reference = run_workload(&osn, &workload, 1);
    assert!(
        reference.total_retry_charges() > 0,
        "a 0.3 fault rate must charge retries, or this test is vacuous"
    );
    for workers in [2usize, 8] {
        let run = run_workload(&osn, &workload, workers);
        assert_eq!(run.outcomes.len(), reference.outcomes.len());
        for (a, b) in reference.outcomes.iter().zip(&run.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.abbrev, b.abbrev);
            assert_eq!(
                a.estimate.as_ref().map(|e| e.to_bits()),
                b.estimate.as_ref().map(|e| e.to_bits()),
                "query {} ({}) estimate diverged at {workers} workers",
                a.id,
                a.abbrev
            );
            assert_eq!(a.retry_charges, b.retry_charges, "query {}", a.id);
            assert_eq!(a.backend_attempts, b.backend_attempts, "query {}", a.id);
            assert_eq!(a.latency_ticks, b.latency_ticks, "query {}", a.id);
            assert_eq!(a.rate_limited, b.rate_limited, "query {}", a.id);
            assert_eq!(a.budget_exhausted, b.budget_exhausted, "query {}", a.id);
        }
        assert_eq!(
            reference.summary.mean().to_bits(),
            run.summary.mean().to_bits(),
            "summary statistics diverged at {workers} workers"
        );
    }
}

#[test]
fn sweep_results_independent_of_thread_count() {
    let d = build(DatasetKind::FacebookLike, 0.05, 3);
    let t = &d.targets[0];
    let gt = GroundTruth::compute(&d.graph, t.label);
    let algs = algorithms::proposed();
    let run = |threads: usize| {
        let cfg = SweepConfig {
            reps: 16,
            threads,
            seed: 9,
            ..SweepConfig::default()
        };
        nrmse_sweep(&d.graph, d.burn_in, t.label, gt.f, &[40, 120], &algs, &cfg)
    };
    let serial = run(1);
    let parallel = run(8);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.abbrev, p.abbrev);
        assert_eq!(
            s.nrmse, p.nrmse,
            "{} differs across thread counts",
            s.abbrev
        );
    }
}

#[test]
fn sweep_seed_changes_results() {
    let d = build(DatasetKind::FacebookLike, 0.05, 3);
    let t = &d.targets[0];
    let gt = GroundTruth::compute(&d.graph, t.label);
    let algs = algorithms::proposed();
    let run = |seed: u64| {
        let cfg = SweepConfig {
            reps: 8,
            threads: 4,
            seed,
            ..SweepConfig::default()
        };
        nrmse_sweep(&d.graph, d.burn_in, t.label, gt.f, &[60], &algs, &cfg)
    };
    let a = run(1);
    let b = run(2);
    assert!(
        a.iter().zip(&b).any(|(x, y)| x.nrmse != y.nrmse),
        "different sweep seeds must change at least one cell"
    );
}
