//! Bit-level reproducibility across the full stack: identical seeds give
//! identical traces, workloads, refresh sequences, and statistics.

use apcache::core::cost::CostModel;
use apcache::core::{Key, Rng};
use apcache::hier::{FlatFanoutSystem, MultiLevelConfig, MultiLevelSystem};
use apcache::sim::systems::{
    build_adaptive_simulation, build_sharded_simulation, AdaptiveSystemConfig, QuerySpec,
    ShardedSystemConfig, WorkloadSpec,
};
use apcache::sim::{CacheSystem, Report, SimConfig, Simulation};
use apcache::workload::query::{KindMix, QueryGenerator};
use apcache::workload::trace::{TraceConfig, TraceSet};
use apcache::workload::walk::WalkConfig;

fn full_run(seed: u64) -> (u64, u64, f64, usize) {
    let trace = TraceSet::generate(
        &TraceConfig { n_hosts: 10, duration_secs: 900, ..TraceConfig::paper_like() },
        seed,
    )
    .expect("valid");
    let cfg = SimConfig::builder().duration_secs(900).warmup_secs(90).seed(seed).build().unwrap();
    let queries = QuerySpec {
        period_secs: 0.5,
        fanout: 4,
        delta_avg: 50_000.0,
        delta_rho: 1.0,
        kind_mix: KindMix::SumOrMax,
    };
    let report = build_adaptive_simulation(
        &cfg,
        &AdaptiveSystemConfig::default(),
        WorkloadSpec::trace(trace),
        queries,
    )
    .expect("assembles")
    .run()
    .expect("runs");
    (
        report.stats.vr_count(),
        report.stats.qr_count(),
        report.stats.total_cost(),
        report.system.cached_entries(),
    )
}

#[test]
fn identical_seeds_reproduce_bit_identical_results() {
    let a = full_run(42);
    let b = full_run(42);
    assert_eq!(a, b);
}

#[test]
fn different_seeds_differ() {
    let a = full_run(42);
    let c = full_run(43);
    assert_ne!((a.0, a.1), (c.0, c.1));
}

#[test]
fn trace_generation_is_reproducible() {
    let cfg = TraceConfig { n_hosts: 5, duration_secs: 300, ..TraceConfig::paper_like() };
    let t1 = TraceSet::generate(&cfg, 7).unwrap();
    let t2 = TraceSet::generate(&cfg, 7).unwrap();
    assert_eq!(t1, t2);
}

#[test]
fn walk_workloads_are_reproducible_through_the_driver() {
    let run = || {
        let cfg = SimConfig::builder().duration_secs(400).warmup_secs(40).seed(5).build().unwrap();
        let queries = QuerySpec {
            period_secs: 1.0,
            fanout: 2,
            delta_avg: 15.0,
            delta_rho: 0.5,
            kind_mix: KindMix::SumOnly,
        };
        build_adaptive_simulation(
            &cfg,
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::random_walks(4, WalkConfig::paper_default()),
            queries,
        )
        .expect("assembles")
        .run()
        .expect("runs")
        .stats
        .total_cost()
    };
    assert_eq!(run(), run());
}

/// One run's fingerprint: `vr_count`, `qr_count`, `total_cost().to_bits()`
/// and `internal_width_of(Key(0)).to_bits()`.
type Pin = (u64, u64, u64, u64);

fn pin<S>(report: Report<S>, width_of_key_0: impl Fn(&S) -> Option<f64>) -> Pin {
    let width = width_of_key_0(&report.system).expect("Key(0) is registered");
    let stats = report.stats;
    (stats.vr_count(), stats.qr_count(), stats.total_cost().to_bits(), width.to_bits())
}

/// The fixed-seed scenario behind the pinned literals: eight paper-default
/// random walks, a SUM/MAX query mix, 600 simulated seconds.
fn pinned_run(cost: CostModel, shards: Option<usize>) -> Pin {
    let cfg = SimConfig::builder().duration_secs(600).warmup_secs(60).seed(2001).build().unwrap();
    let workload = WorkloadSpec::random_walks(8, WalkConfig::paper_default());
    let queries = QuerySpec {
        period_secs: 1.0,
        fanout: 4,
        delta_avg: 20.0,
        delta_rho: 1.0,
        kind_mix: KindMix::SumOrMax,
    };
    let base = AdaptiveSystemConfig { cost, ..AdaptiveSystemConfig::default() };
    match shards {
        None => pin(
            build_adaptive_simulation(&cfg, &base, workload, queries).unwrap().run().unwrap(),
            |system| system.internal_width_of(Key(0)),
        ),
        Some(shards) => {
            let sys = ShardedSystemConfig { base, shards, ..ShardedSystemConfig::default() };
            pin(
                build_sharded_simulation(&cfg, &sys, workload, queries).unwrap().run().unwrap(),
                |system| system.internal_width_of(Key(0)),
            )
        }
    }
}

#[test]
fn pinned_literals_hold_for_the_system_every_figure_runs_on() {
    // Recorded at commit 43194d8 (before the six simulator systems became
    // one `BackendSystem`). θ = 4 draws on the store's RNG for every
    // probabilistic width adjustment, so a changed seed-fork order in the
    // simulation assembly cannot hide behind the deterministic θ = 1 path.
    let (theta_1, theta_4) = (CostModel::multiversion(), CostModel::two_phase_locking());
    let (w8, w4) = (8.0f64.to_bits(), 4.0f64.to_bits());
    assert_eq!(pinned_run(theta_1, None), (469, 467, 1403.0f64.to_bits(), w8));
    assert_eq!(pinned_run(theta_4, None), (155, 651, 1922.0f64.to_bits(), w8));
    assert_eq!(pinned_run(theta_1, Some(4)), (648, 647, 1942.0f64.to_bits(), w4));
    assert_eq!(pinned_run(theta_4, Some(4)), (220, 892, 2664.0f64.to_bits(), w4));
}

/// One hierarchy run's fingerprint: `vr_count`, `qr_count` and
/// `total_cost().to_bits()`.
type HierPin = (u64, u64, u64);

/// The `hierarchy_multilevel` scenario: eight paper-default random walks,
/// SUM-only queries of fanout 2 with δ̄ = 20, 10 000 simulated seconds.
fn hierarchy_run<S: CacheSystem>(system: S, seed: u64) -> HierPin {
    const N_SOURCES: usize = 8;
    let cfg =
        SimConfig::builder().duration_secs(10_000).warmup_secs(1_000).seed(seed).build().unwrap();
    let mut master = Rng::seed_from_u64(cfg.seed());
    let workload = WorkloadSpec::random_walks(N_SOURCES, WalkConfig::paper_default());
    let processes = workload.build_processes(&mut master).unwrap();
    let queries = QuerySpec {
        period_secs: 0.5,
        fanout: 2,
        delta_avg: 20.0,
        delta_rho: 1.0,
        kind_mix: KindMix::SumOnly,
    };
    let query_gen = QueryGenerator::new(queries, N_SOURCES, master.fork()).unwrap();
    let stats = Simulation::new(cfg, system, processes, query_gen).unwrap().run().unwrap().stats;
    (stats.vr_count(), stats.qr_count(), stats.total_cost().to_bits())
}

#[test]
fn pinned_hierarchy_literals_hold() {
    // Recorded at commit 950c012, while both deployments still drove
    // `core::Source`/`core::Cache` by hand. Every cost model here has θ = 1,
    // so the policies draw no coin flips and a changed seed-fork order for
    // the stores cannot move these numbers; the leaf-choice stream can. The
    // seeds are the ones the `hierarchy_multilevel` sweep gives these leaf
    // counts: the hierarchy runs on `seed`, the flat fan-out on `seed + 1`.
    let got: Vec<(usize, HierPin, HierPin)> = [(1, 2), (4, 6), (16, 10)]
        .into_iter()
        .map(|(n_leaves, offset)| {
            let seed = 0x5151_2001 + 550_000 + offset;
            let cfg = MultiLevelConfig { n_leaves, ..MultiLevelConfig::default() };
            let initial = [0.0; 8];
            let hier = MultiLevelSystem::new(&cfg, &initial, Rng::seed_from_u64(seed)).unwrap();
            let flat = FlatFanoutSystem::new(&cfg, &initial, Rng::seed_from_u64(seed)).unwrap();
            (n_leaves, hierarchy_run(hier, seed), hierarchy_run(flat, seed + 1))
        })
        .collect();
    let bits = f64::to_bits;
    assert_eq!(
        got,
        [
            (1, (13684, 13680, bits(25652.5)), (6791, 6788, bits(25458.75))),
            (4, (22477, 22484, bits(32219.0)), (11105, 11110, bits(41656.25))),
            (16, (30713, 30697, bits(38282.5)), (18005, 17971, bits(67433.75))),
        ]
    );
}
