//! The sharded deployment of the paper's system, wired for the simulator.
//!
//! Same protocol, different topology: instead of one `PrecisionStore`, an
//! [`apcache_shard::ShardedStore`] partitions the key space across `N`
//! stores behind a consistent-hash ring. It is the same
//! [`BackendSystem`] as the single-store
//! [`AdaptiveSystem`](super::AdaptiveSystem) over a different backend, so
//! every experiment can sweep shard counts with no other change.

use apcache_core::{Key, Rng};
use apcache_shard::{ShardedStore, ShardedStoreBuilder};
use apcache_workload::query::QueryConfig;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::Simulation;
use crate::systems::adaptive::{AdaptiveSystemConfig, WorkloadSpec};
use crate::systems::backend::{build_simulation, BackendSystem};

/// Configuration of a sharded adaptive deployment: the single-store
/// protocol knobs plus the fleet shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedSystemConfig {
    /// Per-shard protocol configuration (cost, α, γ0/γ1, policy, …).
    ///
    /// `base.cache_capacity` is interpreted as the **total** capacity κ of
    /// the deployment, divided across shards as `ceil(κ/shards)` each —
    /// when κ does not divide evenly, the rounding grants the fleet up to
    /// `shards − 1` extra slots, so sweep capacities divisible by every
    /// shard count under comparison to hold the cache budget truly fixed.
    pub base: AdaptiveSystemConfig,
    /// Number of `PrecisionStore` shards behind the ring.
    pub shards: usize,
    /// Virtual nodes per shard on the routing ring.
    pub vnodes: usize,
}

impl Default for ShardedSystemConfig {
    fn default() -> Self {
        ShardedSystemConfig {
            base: AdaptiveSystemConfig::default(),
            shards: 1,
            vnodes: apcache_shard::DEFAULT_VNODES,
        }
    }
}

impl ShardedSystemConfig {
    /// Assemble the sharded façade this configuration describes, with one
    /// source per initial value (`Key(0), Key(1), …`).
    pub fn build_store(
        &self,
        initial_values: &[f64],
        rng: Rng,
    ) -> Result<ShardedStore<Key>, SimError> {
        if initial_values.is_empty() {
            return Err(SimError::Config("at least one source required".into()));
        }
        if self.shards == 0 {
            return Err(SimError::Config("at least one shard required".into()));
        }
        let mut builder: ShardedStoreBuilder<Key> = ShardedStoreBuilder::new()
            .shards(self.shards)
            .vnodes(self.vnodes)
            .cost(self.base.cost)
            .alpha(self.base.alpha)
            .thresholds(self.base.gamma0, self.base.gamma1)
            .initial_width(self.base.initial_width)
            .default_policy(self.base.policy)
            .rng(rng);
        if let Some(total) = self.base.cache_capacity {
            builder = builder.capacity_per_shard(total.div_ceil(self.shards));
        }
        for (i, &v) in initial_values.iter().enumerate() {
            builder = builder.source(Key(i as u32), v);
        }
        Ok(builder.build()?)
    }
}

/// The paper's system scaled out: a [`ShardedStore`] fleet under the
/// simulator's cost accounting.
pub type ShardedAdaptiveSystem = BackendSystem<ShardedStore<Key>>;

impl BackendSystem<ShardedStore<Key>> {
    /// Assemble the system for sources with the given initial values
    /// (the fleet draws from a fork of `rng`).
    pub fn new(
        cfg: &ShardedSystemConfig,
        initial_values: &[f64],
        mut rng: Rng,
    ) -> Result<Self, SimError> {
        Ok(BackendSystem {
            backend: cfg.build_store(initial_values, rng.fork())?,
            cost: cfg.base.cost,
            peek: ShardedStore::cached_interval,
        })
    }

    /// The source policy's internal width for `key`.
    pub fn internal_width_of(&self, key: Key) -> Option<f64> {
        self.backend.internal_width(&key)
    }
}

/// Assemble a full simulation of a sharded deployment: workload → ring →
/// shard fleet → query load. Same [`build_simulation`] seed contract as
/// [`build_adaptive_simulation`], so a 1-shard run sees the same workload
/// as the unsharded system with the same seed.
///
/// [`build_adaptive_simulation`]: super::build_adaptive_simulation
pub fn build_sharded_simulation(
    sim_cfg: &SimConfig,
    sys_cfg: &ShardedSystemConfig,
    workload: WorkloadSpec,
    queries: QueryConfig,
) -> Result<Simulation<ShardedAdaptiveSystem>, SimError> {
    build_simulation(sim_cfg, workload, queries, |initial, rng| {
        ShardedAdaptiveSystem::new(sys_cfg, initial, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcache_workload::query::KindMix;
    use apcache_workload::walk::WalkConfig;

    fn quick_sim_cfg(seed: u64) -> SimConfig {
        SimConfig::builder().duration_secs(300).warmup_secs(50).seed(seed).build().unwrap()
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

    fn run_sharded(shards: usize, seed: u64) -> crate::Report<ShardedAdaptiveSystem> {
        build_sharded_simulation(
            &quick_sim_cfg(seed),
            &ShardedSystemConfig { shards, ..ShardedSystemConfig::default() },
            WorkloadSpec::random_walks(8, WalkConfig::paper_default()),
            quick_queries(1.0, 4, 20.0),
        )
        .unwrap()
        .run()
        .unwrap()
    }

    #[test]
    fn sharded_run_produces_both_refresh_kinds() {
        for shards in [1, 2, 4, 8] {
            let report = run_sharded(shards, 11);
            assert!(report.stats.vr_count() > 0, "shards={shards}: no VRs");
            assert!(report.stats.qr_count() > 0, "shards={shards}: no QRs");
            assert_eq!(report.system.backend().shard_count(), shards);
        }
    }

    #[test]
    fn deterministic_given_seed_for_every_shard_count() {
        for shards in [1, 2, 4] {
            let a = run_sharded(shards, 5);
            let b = run_sharded(shards, 5);
            assert_eq!(a.stats.vr_count(), b.stats.vr_count(), "shards={shards}");
            assert_eq!(a.stats.qr_count(), b.stats.qr_count(), "shards={shards}");
            assert_eq!(a.stats.total_cost(), b.stats.total_cost(), "shards={shards}");
        }
    }

    #[test]
    fn sharding_keeps_cost_near_the_unsharded_system() {
        // The fan-out splits query precision budgets, so refresh schedules
        // (and through width adaptation, even VR counts) drift from the
        // unsharded run — exact point-op conformance is asserted in
        // tests/shard_conformance.rs on a query-free trace. Here we check
        // the end-to-end mixed workload stays within loose amortization
        // factors of the single store.
        let single = crate::systems::build_adaptive_simulation(
            &quick_sim_cfg(7),
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::random_walks(6, WalkConfig::paper_default()),
            quick_queries(1.0, 3, 25.0),
        )
        .unwrap()
        .run()
        .unwrap();
        let sharded = build_sharded_simulation(
            &quick_sim_cfg(7),
            &ShardedSystemConfig { shards: 4, ..ShardedSystemConfig::default() },
            WorkloadSpec::random_walks(6, WalkConfig::paper_default()),
            quick_queries(1.0, 3, 25.0),
        )
        .unwrap()
        .run()
        .unwrap();
        // Not identical in general (query refreshes shrink widths on
        // different schedules), but the workloads are identical and both
        // systems must serve them: compare against loose amortization
        // factors rather than exact counts.
        assert!(sharded.stats.vr_count() > 0);
        let ratio = sharded.stats.total_cost() / single.stats.total_cost();
        assert!((0.2..5.0).contains(&ratio), "cost ratio {ratio} out of bounds");
    }

    #[test]
    fn total_capacity_is_divided_across_shards() {
        let cfg = ShardedSystemConfig {
            base: AdaptiveSystemConfig {
                cache_capacity: Some(6),
                ..AdaptiveSystemConfig::default()
            },
            shards: 3,
            ..ShardedSystemConfig::default()
        };
        let report = build_sharded_simulation(
            &quick_sim_cfg(11),
            &cfg,
            WorkloadSpec::random_walks(12, WalkConfig::paper_default()),
            quick_queries(1.0, 6, 50.0),
        )
        .unwrap()
        .run()
        .unwrap();
        // ceil(6/3) = 2 per shard; the fleet may cache up to 6 total.
        assert!(report.system.backend().cached_len() <= 6);
    }

    #[test]
    fn one_shard_matches_the_unsharded_system() {
        // With a single shard the ShardedStore delegates every verb
        // untouched; the only difference is one extra RNG fork, which θ=1
        // never consumes. The whole run must agree with AdaptiveSystem.
        let single = crate::systems::build_adaptive_simulation(
            &quick_sim_cfg(13),
            &AdaptiveSystemConfig::default(),
            WorkloadSpec::random_walks(5, WalkConfig::paper_default()),
            quick_queries(1.0, 3, 15.0),
        )
        .unwrap()
        .run()
        .unwrap();
        let sharded = run_one_shard(13);
        assert_eq!(single.stats.vr_count(), sharded.stats.vr_count());
        assert_eq!(single.stats.qr_count(), sharded.stats.qr_count());
        assert_eq!(single.stats.total_cost(), sharded.stats.total_cost());
    }

    fn run_one_shard(seed: u64) -> crate::Report<ShardedAdaptiveSystem> {
        build_sharded_simulation(
            &quick_sim_cfg(seed),
            &ShardedSystemConfig::default(),
            WorkloadSpec::random_walks(5, WalkConfig::paper_default()),
            quick_queries(1.0, 3, 15.0),
        )
        .unwrap()
        .run()
        .unwrap()
    }
}
