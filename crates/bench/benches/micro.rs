//! Criterion micro-benchmarks for the core data structures and the
//! simulator, following the perf-book guidance (criterion for micro,
//! plain harnesses for macro experiments).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;

use apcache_core::cache::Cache;
use apcache_core::policy::{AdaptiveParams, AdaptivePolicy, Escape, PrecisionPolicy};
use apcache_core::source::Refresh;
use apcache_core::{Interval, Key, Rng};
use apcache_queries::{evaluate, AggregateKind, ItemBound, PrecisionConstraint};
use apcache_sim::systems::{
    build_adaptive_simulation, AdaptiveSystemConfig, QuerySpec, WorkloadSpec,
};
use apcache_sim::SimConfig;
use apcache_workload::query::KindMix;
use apcache_workload::trace::{TraceConfig, TraceSet};
use apcache_workload::walk::WalkConfig;

fn bench_rng(c: &mut Criterion) {
    c.bench_function("rng/next_u64", |b| {
        let mut rng = Rng::seed_from_u64(1);
        b.iter(|| black_box(rng.next_u64()));
    });
    c.bench_function("rng/uniform", |b| {
        let mut rng = Rng::seed_from_u64(1);
        b.iter(|| black_box(rng.uniform(0.0, 100.0)));
    });
    c.bench_function("rng/sample_indices_10_of_50", |b| {
        let mut rng = Rng::seed_from_u64(1);
        b.iter(|| black_box(rng.sample_indices(50, 10)));
    });
}

fn bench_policy(c: &mut Criterion) {
    c.bench_function("policy/adaptive_refresh_pair", |b| {
        let params = AdaptiveParams::from_theta(1.0, 1.0).expect("valid");
        let mut policy = AdaptivePolicy::new(params, 100.0).expect("valid");
        let mut rng = Rng::seed_from_u64(2);
        b.iter(|| {
            policy.on_value_refresh(Escape::Above, &mut rng);
            policy.on_query_refresh(&mut rng);
            black_box(policy.internal_width())
        });
    });
}

fn bench_interval(c: &mut Criterion) {
    let a = Interval::new(1.0, 5.0).expect("valid");
    let b_iv = Interval::new(2.0, 9.0).expect("valid");
    c.bench_function("interval/add", |b| b.iter(|| black_box(a.add(&b_iv))));
    c.bench_function("interval/max_of", |b| b.iter(|| black_box(a.max_of(&b_iv))));
    c.bench_function("interval/contains", |b| b.iter(|| black_box(a.contains(3.0))));
}

fn make_items(n: usize) -> Vec<ItemBound> {
    let mut rng = Rng::seed_from_u64(7);
    (0..n)
        .map(|i| {
            let lo = rng.uniform(0.0, 1_000.0);
            let w = rng.uniform(0.0, 100.0);
            ItemBound::new(Key(i as u32), Interval::new(lo, lo + w).expect("valid"))
        })
        .collect()
}

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    for n in [10usize, 100, 1_000] {
        let items = make_items(n);
        group.bench_with_input(BenchmarkId::new("sum", n), &items, |b, items| {
            let constraint =
                PrecisionConstraint::new(50.0 * items.len() as f64 / 4.0).expect("valid");
            b.iter(|| {
                black_box(
                    evaluate(AggregateKind::Sum, constraint, items, |k| k.0 as f64)
                        .expect("evaluates"),
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("max_exact", n), &items, |b, items| {
            b.iter(|| {
                black_box(
                    evaluate(AggregateKind::Max, PrecisionConstraint::exact(), items, |k| {
                        k.0 as f64
                    })
                    .expect("evaluates"),
                )
            });
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/apply_refresh_full_64", |b| {
        b.iter_batched(
            || {
                let mut cache = Cache::new(64).expect("valid");
                for i in 0..64u32 {
                    cache.apply_refresh(Refresh {
                        key: Key(i),
                        spec: apcache_core::policy::ApproxSpec::constant_centered(0.0, i as f64),
                        internal_width: i as f64,
                    });
                }
                cache
            },
            |mut cache| {
                // Narrower than the widest resident → evict + insert path.
                cache.apply_refresh(Refresh {
                    key: Key(1_000),
                    spec: apcache_core::policy::ApproxSpec::constant_centered(0.0, 1.0),
                    internal_width: 1.5,
                });
                black_box(cache.len())
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_trace_gen(c: &mut Criterion) {
    c.bench_function("workload/trace_generate_small", |b| {
        let cfg = TraceConfig::small();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(TraceSet::generate(&cfg, seed).expect("generates"))
        });
    });
}

fn bench_simulation(c: &mut Criterion) {
    c.bench_function("sim/walks_5src_600s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let sim_cfg = SimConfig::builder()
                .duration_secs(600)
                .warmup_secs(60)
                .seed(seed)
                .build()
                .expect("valid");
            let queries = QuerySpec {
                period_secs: 1.0,
                fanout: 3,
                delta_avg: 20.0,
                delta_rho: 1.0,
                kind_mix: KindMix::SumOnly,
            };
            let report = build_adaptive_simulation(
                &sim_cfg,
                &AdaptiveSystemConfig::default(),
                WorkloadSpec::random_walks(5, WalkConfig::paper_default()),
                queries,
            )
            .expect("assembles")
            .run()
            .expect("runs");
            black_box(report.stats.cost_rate())
        });
    });
}

criterion_group!(
    benches,
    bench_rng,
    bench_policy,
    bench_interval,
    bench_planner,
    bench_cache,
    bench_trace_gen,
    bench_simulation
);
criterion_main!(benches);
