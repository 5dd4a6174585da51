//! The paper's adaptive-interval caching system, wired for the simulator.
//!
//! This system owns **no protocol state of its own**: it is
//! [`BackendSystem`] over a [`PrecisionStore`] keyed by the simulator's
//! [`Key`]. The refresh protocol — escape detection, width adaptation,
//! eviction, refresh-set selection — lives in one place (the store) for
//! every consumer, and the cost accounting in one place (`BackendSystem`)
//! for every deployment shape.

use apcache_core::cost::CostModel;
use apcache_core::{Key, Rng};
use apcache_store::{PolicySpec, PrecisionStore, StoreBuilder};
use apcache_workload::query::QueryConfig;
use apcache_workload::trace::TraceSet;
use apcache_workload::walk::{RandomWalk, ValueProcess, WalkConfig};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::Simulation;
use crate::systems::backend::{build_simulation, BackendSystem};

pub use apcache_store::InitialWidth;

/// Which precision policy each source runs (paper Section 2, plus the
/// Section 4.5 variants for the ablation experiments). This is the store's
/// policy constructor enum, re-exported under its historical simulator
/// name.
pub type PolicyKind = PolicySpec;

/// Configuration of the adaptive-interval system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveSystemConfig {
    /// Refresh costs (determines the cost factor θ).
    pub cost: CostModel,
    /// Adaptivity parameter α.
    pub alpha: f64,
    /// Lower threshold γ0 (widths below snap to exact).
    pub gamma0: f64,
    /// Upper threshold γ1 (widths at/above snap to uncached).
    pub gamma1: f64,
    /// Cache capacity κ; `None` caches every source (κ = n).
    pub cache_capacity: Option<usize>,
    /// Initial interval widths.
    pub initial_width: InitialWidth,
    /// Which policy variant runs at the sources.
    pub policy: PolicyKind,
}

impl Default for AdaptiveSystemConfig {
    fn default() -> Self {
        AdaptiveSystemConfig {
            cost: CostModel::multiversion(),
            alpha: 1.0,
            gamma0: 0.0,
            gamma1: f64::INFINITY,
            cache_capacity: None,
            initial_width: InitialWidth::Relative { frac: 0.1, floor: 1.0 },
            policy: PolicyKind::Adaptive,
        }
    }
}

impl AdaptiveSystemConfig {
    /// Assemble the façade this configuration describes, with one source
    /// per initial value (`Key(0), Key(1), …`).
    pub fn build_store(
        &self,
        initial_values: &[f64],
        rng: Rng,
    ) -> Result<PrecisionStore<Key>, SimError> {
        if initial_values.is_empty() {
            return Err(SimError::Config("at least one source required".into()));
        }
        let mut builder: StoreBuilder<Key> = StoreBuilder::new()
            .cost(self.cost)
            .alpha(self.alpha)
            .thresholds(self.gamma0, self.gamma1)
            .initial_width(self.initial_width)
            .default_policy(self.policy)
            .rng(rng);
        if let Some(k) = self.cache_capacity {
            builder = builder.capacity(k);
        }
        for (i, &v) in initial_values.iter().enumerate() {
            builder = builder.source(Key(i as u32), v);
        }
        Ok(builder.build()?)
    }
}

/// The paper's system: one [`PrecisionStore`] under the simulator's cost
/// accounting.
pub type AdaptiveSystem = BackendSystem<PrecisionStore<Key>>;

impl BackendSystem<PrecisionStore<Key>> {
    /// Assemble the system for sources with the given initial values
    /// (the store draws from a fork of `rng`).
    pub fn new(
        cfg: &AdaptiveSystemConfig,
        initial_values: &[f64],
        mut rng: Rng,
    ) -> Result<Self, SimError> {
        Ok(BackendSystem {
            backend: cfg.build_store(initial_values, rng.fork())?,
            cost: cfg.cost,
            peek: PrecisionStore::cached_interval,
        })
    }

    /// The source policy's internal width for `key` (e.g. the converged
    /// width after a Figure 3 run).
    pub fn internal_width_of(&self, key: Key) -> Option<f64> {
        self.backend.internal_width(&key)
    }

    /// Number of entries currently cached.
    pub fn cached_entries(&self) -> usize {
        self.backend.cached_len()
    }
}

/// The data side of an experiment: what the source values do.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// `n` independent random walks with the given configuration.
    RandomWalks {
        /// Number of sources.
        n: usize,
        /// Walk parameters.
        cfg: WalkConfig,
    },
    /// Replay a trace set (one source per host).
    Trace(TraceSet),
}

impl WorkloadSpec {
    /// `n` independent random walks.
    pub fn random_walks(n: usize, cfg: WalkConfig) -> Self {
        WorkloadSpec::RandomWalks { n, cfg }
    }

    /// Replay the given traces.
    pub fn trace(set: TraceSet) -> Self {
        WorkloadSpec::Trace(set)
    }

    /// Number of sources this workload drives.
    pub fn n_sources(&self) -> usize {
        match self {
            WorkloadSpec::RandomWalks { n, .. } => *n,
            WorkloadSpec::Trace(set) => set.n_hosts(),
        }
    }

    /// Materialize the value processes, drawing per-process RNG streams
    /// from `rng`.
    pub fn build_processes(&self, rng: &mut Rng) -> Result<Vec<Box<dyn ValueProcess>>, SimError> {
        match self {
            WorkloadSpec::RandomWalks { n, cfg } => {
                if *n == 0 {
                    return Err(SimError::Config("need at least one walk".into()));
                }
                let mut out: Vec<Box<dyn ValueProcess>> = Vec::with_capacity(*n);
                for _ in 0..*n {
                    out.push(Box::new(RandomWalk::new(*cfg, rng.fork())?));
                }
                Ok(out)
            }
            WorkloadSpec::Trace(set) => {
                Ok((0..set.n_hosts()).map(|h| Box::new(set.process(h)) as _).collect())
            }
        }
    }
}

/// Assemble a full simulation of the paper's system: workload → store
/// façade → query load, under [`build_simulation`]'s seed contract.
pub fn build_adaptive_simulation(
    sim_cfg: &SimConfig,
    sys_cfg: &AdaptiveSystemConfig,
    workload: WorkloadSpec,
    queries: QueryConfig,
) -> Result<Simulation<AdaptiveSystem>, SimError> {
    build_simulation(sim_cfg, workload, queries, |initial, rng| {
        AdaptiveSystem::new(sys_cfg, initial, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::CacheSystem;
    use apcache_core::policy::GrowthLaw;
    use apcache_core::policy::Weighting;
    use apcache_workload::query::KindMix;

    fn quick_sim_cfg() -> SimConfig {
        SimConfig::builder().duration_secs(300).warmup_secs(50).seed(11).build().unwrap()
    }

    fn quick_queries(period: f64, fanout: usize, delta_avg: f64) -> QueryConfig {
        QueryConfig {
            period_secs: period,
            fanout,
            delta_avg,
            delta_rho: 1.0,
            kind_mix: KindMix::SumOnly,
        }
    }

    #[test]
    fn single_walk_run_produces_both_refresh_kinds() {
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &AdaptiveSystemConfig {
                initial_width: InitialWidth::Fixed(5.0),
                ..AdaptiveSystemConfig::default()
            },
            WorkloadSpec::random_walks(1, WalkConfig::paper_default()),
            quick_queries(2.0, 1, 20.0),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.stats.vr_count() > 0, "no value-initiated refreshes");
        assert!(report.stats.qr_count() > 0, "no query-initiated refreshes");
        assert!(report.stats.cost_rate() > 0.0);
        // The adaptive width stays positive and finite.
        let w = report.system.internal_width_of(Key(0)).unwrap();
        assert!(w.is_finite() && w > 0.0);
    }

    #[test]
    fn store_metrics_mirror_simulator_stats() {
        // The façade's own counters see the whole run (the simulator's
        // Stats discard warm-up), so store totals >= measured totals.
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::random_walks(2, WalkConfig::paper_default()),
            quick_queries(1.0, 2, 10.0),
        )
        .unwrap()
        .run()
        .unwrap();
        let metrics = report.system.backend().metrics();
        assert!(metrics.vr_count() >= report.stats.vr_count());
        assert!(metrics.qr_count() >= report.stats.qr_count());
        assert!(metrics.total_cost() >= report.stats.total_cost());
        // Per-key counters exist for every touched key.
        assert!(metrics.for_key(&Key(0)).is_some());
    }

    #[test]
    fn exact_caching_special_case_has_zero_or_infinite_widths() {
        // γ1 = γ0: every cached interval must be a point (or absent).
        let cfg =
            AdaptiveSystemConfig { gamma0: 1.0, gamma1: 1.0, ..AdaptiveSystemConfig::default() };
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &cfg,
            WorkloadSpec::random_walks(4, WalkConfig::paper_default()),
            quick_queries(1.0, 2, 10.0),
        )
        .unwrap()
        .run()
        .unwrap();
        let system = &report.system;
        for k in 0..4 {
            if let Some(iv) = system.interval_of(Key(k), 300_000) {
                let w = iv.width();
                assert!(w == 0.0 || w.is_infinite(), "width {w} violates γ1=γ0");
            }
        }
    }

    #[test]
    fn capacity_limits_cached_entries() {
        let cfg =
            AdaptiveSystemConfig { cache_capacity: Some(3), ..AdaptiveSystemConfig::default() };
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &cfg,
            WorkloadSpec::random_walks(10, WalkConfig::paper_default()),
            quick_queries(1.0, 5, 50.0),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.system.cached_entries() <= 3);
    }

    #[test]
    fn queries_meet_their_constraints() {
        // Smoke-check through the full stack: run with a tight constraint
        // and make sure the system doesn't blow up; the planner guarantee
        // is separately unit-tested.
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::random_walks(5, WalkConfig::paper_default()),
            quick_queries(1.0, 3, 1.0),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.stats.qr_count() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg =
                SimConfig::builder().duration_secs(200).warmup_secs(20).seed(seed).build().unwrap();
            build_adaptive_simulation(
                &cfg,
                &AdaptiveSystemConfig::default(),
                WorkloadSpec::random_walks(3, WalkConfig::paper_default()),
                quick_queries(1.0, 2, 15.0),
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.stats.vr_count(), b.stats.vr_count());
        assert_eq!(a.stats.qr_count(), b.stats.qr_count());
        assert_eq!(a.stats.total_cost(), b.stats.total_cost());
        let c = run(6);
        // Different seed should (virtually always) differ.
        assert_ne!(
            (a.stats.vr_count(), a.stats.qr_count()),
            (c.stats.vr_count(), c.stats.qr_count())
        );
    }

    #[test]
    fn policy_variants_all_run() {
        for policy in [
            PolicyKind::Adaptive,
            PolicyKind::Uncentered,
            PolicyKind::TimeVarying(GrowthLaw::sqrt(1.0).unwrap()),
            PolicyKind::Drifting { rate_per_sec: 0.5 },
            PolicyKind::History { r: 3, weighting: Weighting::Uniform },
            PolicyKind::Fixed { width: 10.0 },
        ] {
            let cfg = AdaptiveSystemConfig { policy, ..AdaptiveSystemConfig::default() };
            let report = build_adaptive_simulation(
                &quick_sim_cfg(),
                &cfg,
                WorkloadSpec::random_walks(2, WalkConfig::paper_default()),
                quick_queries(1.0, 2, 20.0),
            )
            .unwrap()
            .run()
            .unwrap();
            assert!(report.stats.cost_rate() >= 0.0, "policy {policy:?} failed");
        }
    }

    #[test]
    fn trace_workload_runs() {
        let set = apcache_workload::trace::TraceSet::generate(
            &apcache_workload::trace::TraceConfig::small(),
            3,
        )
        .unwrap();
        let n = set.n_hosts();
        let report = build_adaptive_simulation(
            &quick_sim_cfg(),
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::trace(set),
            quick_queries(1.0, n.min(10), 100_000.0),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.stats.query_count() > 0);
    }
}
