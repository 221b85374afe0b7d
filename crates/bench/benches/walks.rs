//! Walk-step throughput for every walker, on the OSN and on the implicit
//! line graph — the substrate cost behind all tables.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use labelcount_bench::fixtures;
use labelcount_osn::{LineGraphView, LineNode, OsnApiExt, SimulatedOsn};
use labelcount_walk::{
    GmdWalk, MaxDegreeWalk, MetropolisHastingsWalk, NonBacktrackingWalk, RcmhWalk, SimpleWalk,
    Walker,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const STEPS: usize = 1_000;

fn bench_walks(c: &mut Criterion) {
    let d = fixtures::facebook_like();
    let g = &d.graph;
    let mut group = c.benchmark_group("walks/osn");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    group.bench_function("simple", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(1);
            let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.bench_function("metropolis_hastings", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(2);
            let mut w = MetropolisHastingsWalk::new(OsnApiExt::random_node(&osn, &mut rng));
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.bench_function("max_degree", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(3);
            let start = OsnApiExt::random_node(&osn, &mut rng);
            let mut w = MaxDegreeWalk::new(&osn, start);
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.bench_function("rcmh_alpha02", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(4);
            let mut w = RcmhWalk::new(OsnApiExt::random_node(&osn, &mut rng), 0.2);
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.bench_function("gmd_delta05", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(5);
            let start = OsnApiExt::random_node(&osn, &mut rng);
            let mut w = GmdWalk::with_delta(&osn, start, 0.5);
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.bench_function("non_backtracking", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let mut rng = StdRng::seed_from_u64(6);
            let mut w = NonBacktrackingWalk::new(OsnApiExt::random_node(&osn, &mut rng));
            for _ in 0..STEPS {
                black_box(w.step(&osn, &mut rng));
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("walks/line_graph");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("simple", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let lg = LineGraphView::new(&osn);
            let mut rng = StdRng::seed_from_u64(7);
            let mut w = SimpleWalk::<LineNode>::new(lg.random_start(&mut rng));
            for _ in 0..STEPS {
                black_box(w.step(&lg, &mut rng));
            }
        })
    });
    group.bench_function("metropolis_hastings", |b| {
        b.iter(|| {
            let osn = SimulatedOsn::new(g);
            let lg = LineGraphView::new(&osn);
            let mut rng = StdRng::seed_from_u64(8);
            let mut w = MetropolisHastingsWalk::<LineNode>::new(lg.random_start(&mut rng));
            for _ in 0..STEPS {
                black_box(w.step(&lg, &mut rng));
            }
        })
    });
    group.finish();

    // Per-step dispatch vs the batched `steps_into` path, on identical RNG
    // streams — the comparison the perf harness (`labelcount-perf`) records
    // as `measured.per_step_steps_per_sec` / `measured.batched_steps_per_sec`
    // in every BENCH_*.json. Setup (fresh OSN wrapper, seeded RNG, output
    // buffer) is excluded via iter_batched.
    let mut group = c.benchmark_group("walks/batched_vs_per_step");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    group.bench_function("simple_per_step", |b| {
        b.iter_batched(
            || (SimulatedOsn::new(g), StdRng::seed_from_u64(9)),
            |(osn, mut rng)| {
                let mut w = SimpleWalk::new(OsnApiExt::random_node(&osn, &mut rng));
                let mut last = Walker::<SimulatedOsn>::current(&w);
                for _ in 0..STEPS {
                    last = w.step(&osn, &mut rng);
                }
                black_box(last)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("simple_batched", |b| {
        b.iter_batched_ref(
            || {
                let osn = SimulatedOsn::new(g);
                let rng = StdRng::seed_from_u64(9);
                let buf = vec![labelcount_graph::NodeId(0); STEPS];
                (osn, rng, buf)
            },
            |(osn, rng, buf)| {
                let mut w = SimpleWalk::new(OsnApiExt::random_node(osn, rng));
                w.steps_into(osn, buf, rng);
                black_box(buf[STEPS - 1])
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
