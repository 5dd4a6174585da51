//! Shared experiment plumbing: the canonical trace, run helpers, and the
//! parameter conventions of Section 4.

use apcache_core::cost::CostModel;
use apcache_sim::systems::{
    build_adaptive_simulation, AdaptiveSystemConfig, QuerySpec, WorkloadSpec,
};
use apcache_sim::{SimConfig, Stats};
use apcache_workload::query::KindMix;
use apcache_workload::trace::{TraceConfig, TraceSet};
use apcache_workload::walk::WalkConfig;

/// The master seed every experiment derives from (change to re-randomize
/// the whole evaluation).
pub const MASTER_SEED: u64 = 0x5151_2001;

/// The canonical network trace of the evaluation: 50 hosts, two hours,
/// one-minute moving averages, peak 5.2·10⁶ B/s.
pub fn paper_trace() -> TraceSet {
    TraceSet::generate(&TraceConfig::paper_like(), MASTER_SEED)
        .expect("paper-like trace config is valid")
}

/// Simulation config for trace runs: the full two hours with a 600 s
/// warm-up discarded, as in the paper.
pub fn trace_sim_config(seed: u64) -> SimConfig {
    SimConfig::builder()
        .duration_secs(7_200)
        .warmup_secs(600)
        .seed(seed)
        .build()
        .expect("static sim config valid")
}

/// SUM query workload over 10 random sources (the paper's standard).
pub fn sum_queries(tq: f64, delta_avg: f64, rho: f64) -> QuerySpec {
    QuerySpec { period_secs: tq, fanout: 10, delta_avg, delta_rho: rho, kind_mix: KindMix::SumOnly }
}

/// MAX query workload over 10 random sources.
pub fn max_queries(tq: f64, delta_avg: f64, rho: f64) -> QuerySpec {
    QuerySpec { period_secs: tq, fanout: 10, delta_avg, delta_rho: rho, kind_mix: KindMix::MaxOnly }
}

/// Adaptive system config with the paper's recommended settings
/// (`α = 1`, `γ0 = 1K`, `γ1 = ∞`) for the given cost factor.
pub fn paper_system(theta: f64) -> AdaptiveSystemConfig {
    AdaptiveSystemConfig {
        cost: CostModel::from_theta(theta).expect("theta valid"),
        alpha: 1.0,
        gamma0: 1_000.0,
        gamma1: f64::INFINITY,
        ..AdaptiveSystemConfig::default()
    }
}

/// Run the adaptive system over a trace workload; returns measured stats.
pub fn run_on_trace(
    trace: &TraceSet,
    sys: &AdaptiveSystemConfig,
    queries: QuerySpec,
    seed: u64,
) -> Stats {
    let report = build_adaptive_simulation(
        &trace_sim_config(seed),
        sys,
        WorkloadSpec::trace(trace.clone()),
        queries,
    )
    .expect("trace experiment assembles")
    .run()
    .expect("trace experiment runs");
    report.stats
}

/// Run the adaptive system over random walks; returns measured stats.
pub fn run_on_walks(
    n: usize,
    walk: WalkConfig,
    sys: &AdaptiveSystemConfig,
    queries: QuerySpec,
    duration_secs: u64,
    seed: u64,
) -> Stats {
    let cfg = SimConfig::builder()
        .duration_secs(duration_secs)
        .warmup_secs(duration_secs / 10)
        .seed(seed)
        .build()
        .expect("static sim config valid");
    let report = build_adaptive_simulation(&cfg, sys, WorkloadSpec::random_walks(n, walk), queries)
        .expect("walk experiment assembles")
        .run()
        .expect("walk experiment runs");
    report.stats
}

/// Percentage difference of `b` relative to `a`.
pub fn pct_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    (b - a) / a * 100.0
}
