//! The cached access layer's core contract, property-tested: wrapping any
//! backend in a `CachedOsn` changes *where* bytes come from, never *which*
//! bytes a query sees.
//!
//! For random graphs, seeds, and every Table-2 algorithm:
//!
//! * estimates through an [`OsnSession`] over `CachedOsn<SimulatedOsn>`
//!   are **bit-identical** to the uncached `SimulatedOsn` run;
//! * the RNG streams are bit-identical too (same number of draws in the
//!   same order — checked by comparing the generators' next outputs);
//! * `CallStats` invariants hold: `misses <= logical_calls`, and with
//!   unbounded capacity the misses per endpoint equal the number of
//!   *distinct* `(node, endpoint)` requests — which the wrapped
//!   simulation's own distinct-call counters certify independently;
//! * for an unbounded cache none of this depends on the lock-shard count
//!   (1, as in each query's private stack, or the default 64).

use labelcount_core::{algorithms, RunConfig};
use labelcount_graph::gen::barabasi_albert;
use labelcount_graph::labels::{assign_binary_labels, with_labels};
use labelcount_graph::{LabeledGraph, TargetLabel};
use labelcount_osn::{CacheConfig, CachedOsn, OsnApi, SimulatedOsn};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arb_labeled_ba() -> impl Strategy<Value = LabeledGraph> {
    (10usize..60, 1usize..4, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = barabasi_albert(n.max(m + 1), m, &mut rng);
        let mut labels = vec![Vec::new(); g.num_nodes()];
        assign_binary_labels(&mut labels, 0.5, &mut rng);
        with_labels(&g, &labels)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cached_runs_are_bit_identical_to_uncached_runs(
        g in arb_labeled_ba(),
        seed in any::<u64>(),
        budget in 30usize..150,
        shards in (0usize..2).prop_map(|i| [1, 64][i]),
    ) {
        let target = TargetLabel::new(1.into(), 2.into());
        let cfg = RunConfig { burn_in: 25, ..RunConfig::default() };
        for (ai, alg) in algorithms::all_paper(0.2, 0.5).iter().enumerate() {
            let alg_seed = seed.wrapping_add(ai as u64);

            let uncached = SimulatedOsn::new(&g);
            let mut rng_u = StdRng::seed_from_u64(alg_seed);
            let est_u = alg.estimate(&uncached, target, budget, &cfg, &mut rng_u).unwrap();

            let cache = CachedOsn::with_config(
                SimulatedOsn::new(&g),
                CacheConfig::builder().shards(shards).build(),
            );
            let session = cache.session();
            let mut rng_c = StdRng::seed_from_u64(alg_seed);
            let est_c = alg.estimate(&session, target, budget, &cfg, &mut rng_c).unwrap();

            prop_assert_eq!(
                est_u.to_bits(), est_c.to_bits(),
                "{} at {} shards: cached {} vs uncached {}", alg.abbrev(), shards, est_c, est_u
            );
            // Identical next draws certify the two runs consumed the RNG
            // streams identically (same draw count, same positions).
            prop_assert_eq!(rng_u.next_u64(), rng_c.next_u64(), "{}: RNG streams diverged", alg.abbrev());
            // The session paid the same logical calls the uncached run
            // paid raw.
            prop_assert_eq!(session.api_calls(), uncached.api_calls(), "{}", alg.abbrev());
            drop(session); // flush logical totals into the shared stats

            // CallStats invariants.
            let stats = cache.stats();
            prop_assert!(stats.misses() <= stats.logical_calls());
            // Unbounded capacity: miss counts equal distinct requests per
            // endpoint — the inner simulation's distinct counters agree,
            // and it saw only the miss traffic.
            let inner = cache.backend().stats();
            prop_assert_eq!(stats.neighbor_misses, inner.distinct_neighbor_calls);
            prop_assert_eq!(stats.label_misses, inner.distinct_label_calls);
            prop_assert_eq!(inner.neighbor_calls, stats.neighbor_misses);
            prop_assert_eq!(inner.label_calls, stats.label_misses);
        }
    }

    #[test]
    fn bounded_caches_preserve_results_too(
        g in arb_labeled_ba(),
        seed in any::<u64>(),
        capacity in 1usize..32,
    ) {
        // Even a tiny, eviction-heavy cache must never change estimates —
        // only the miss count may grow.
        let target = TargetLabel::new(1.into(), 2.into());
        let cfg = RunConfig { burn_in: 25, ..RunConfig::default() };
        let alg = labelcount_core::NsHansenHurwitz;

        let uncached = SimulatedOsn::new(&g);
        let mut rng_u = StdRng::seed_from_u64(seed);
        let est_u = labelcount_core::Algorithm::estimate(
            &alg, &uncached, target, 80, &cfg, &mut rng_u,
        ).unwrap();

        let cache = CachedOsn::with_config(
            SimulatedOsn::new(&g),
            CacheConfig::builder().capacity(capacity).shards(4).build(),
        );
        let session = cache.session();
        let mut rng_c = StdRng::seed_from_u64(seed);
        let est_c = labelcount_core::Algorithm::estimate(
            &alg, &session, target, 80, &cfg, &mut rng_c,
        ).unwrap();

        prop_assert_eq!(est_u.to_bits(), est_c.to_bits());
        drop(session);
        let stats = cache.stats();
        prop_assert!(stats.misses() <= stats.logical_calls());
        // Bounded: misses at least the distinct-request floor.
        let inner = cache.backend().stats();
        prop_assert!(stats.neighbor_misses >= inner.distinct_neighbor_calls);
    }
}
