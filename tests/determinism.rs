//! Bit-level reproducibility across the full stack: identical seeds give
//! identical traces, workloads, refresh sequences, and statistics.

use apcache::core::cost::CostModel;
use apcache::core::Key;
use apcache::sim::systems::{
    build_adaptive_simulation, build_sharded_simulation, AdaptiveSystemConfig, QuerySpec,
    ShardedSystemConfig, WorkloadSpec,
};
use apcache::sim::{Report, SimConfig};
use apcache::workload::query::KindMix;
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
