//! The flat deployment the hierarchy is compared against: every leaf
//! talks to the source directly over the full network path. Each leaf is
//! its own [`PrecisionStore`], so every leaf's approximation of a value
//! adapts under its own policy, exactly as in the single-level paper.

use apcache_core::cost::CostModel;
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_sim::error::SimError;
use apcache_sim::stats::Stats;
use apcache_sim::system::{CacheSystem, QuerySummary};
use apcache_store::{Constraint, PrecisionStore};
use apcache_workload::query::GeneratedQuery;

use crate::system::{LeafId, MultiLevelConfig};

/// Flat fan-out: one store per leaf, each holding every source at the
/// full path's refresh costs (upper + lower hop combined).
#[derive(Debug)]
pub struct FlatFanoutSystem {
    full_path: CostModel,
    leaves: Vec<PrecisionStore<Key>>,
    rng: Rng,
}

impl FlatFanoutSystem {
    /// Assemble the flat deployment from the same configuration as the
    /// hierarchy (hop costs are summed into one end-to-end cost).
    ///
    /// Seeding: the first `rng.fork()` is this system's own stream (leaf
    /// choices); each leaf's store is then seeded by one more fork, in
    /// leaf order, and its policies draw from that.
    pub fn new(
        cfg: &MultiLevelConfig,
        initial_values: &[f64],
        mut rng: Rng,
    ) -> Result<Self, SimError> {
        if cfg.n_leaves == 0 {
            return Err(SimError::Config("need at least one leaf".into()));
        }
        if initial_values.is_empty() {
            return Err(SimError::Config("at least one source required".into()));
        }
        let full_path = CostModel::new(
            cfg.upper_cost.c_vr() + cfg.lower_cost.c_vr(),
            cfg.upper_cost.c_qr() + cfg.lower_cost.c_qr(),
        )?;
        let own = rng.fork();
        let leaves = (0..cfg.n_leaves)
            .map(|_| cfg.store(full_path, initial_values, rng.fork()))
            .collect::<Result<_, _>>()?;
        Ok(FlatFanoutSystem { full_path, leaves, rng: own })
    }

    /// Bounded read of `key` at `leaf`.
    pub fn read_bounded(
        &mut self,
        leaf: LeafId,
        key: Key,
        delta: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<Interval, SimError> {
        let constraint = Constraint::Absolute(delta);
        constraint.validate()?;
        let store = self
            .leaves
            .get_mut(leaf.0 as usize)
            .ok_or_else(|| SimError::Config(format!("unknown leaf {}", leaf.0)))?;
        let read = store.read(&key, constraint, now)?;
        if read.refreshed {
            stats.record_qr(self.full_path.c_qr());
        }
        Ok(read.answer.interval())
    }
}

impl CacheSystem for FlatFanoutSystem {
    fn on_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        // Every escaped leaf pays the full end-to-end refresh.
        for store in &mut self.leaves {
            for _ in 0..store.write(&key, value, now)?.refreshes {
                stats.record_vr(self.full_path.c_vr());
            }
        }
        Ok(())
    }

    fn on_query(
        &mut self,
        query: &GeneratedQuery,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<QuerySummary, SimError> {
        let leaf = LeafId(self.rng.below(self.leaves.len() as u64) as u32);
        let before = stats.qr_count();
        let mut answer: Option<Interval> = None;
        for &key in &query.keys {
            let iv = self.read_bounded(leaf, key, query.delta, now, stats)?;
            answer = Some(match answer {
                None => iv,
                Some(a) => a.add(&iv),
            });
        }
        Ok(QuerySummary { answer, refreshes: (stats.qr_count() - before) as usize })
    }

    fn interval_of(&self, key: Key, now: TimeMs) -> Option<Interval> {
        self.leaves[0].cached_interval(&key, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measuring() -> Stats {
        let mut s = Stats::new();
        s.begin_measurement();
        s
    }

    #[test]
    fn every_leaf_pays_full_path_on_escape() {
        let cfg = MultiLevelConfig { n_leaves: 4, ..MultiLevelConfig::default() };
        let mut sys = FlatFanoutSystem::new(&cfg, &[100.0], Rng::seed_from_u64(1)).unwrap();
        let mut stats = measuring();
        sys.on_update(Key(0), 1_000.0, 1_000, &mut stats).unwrap();
        // All 4 leaves escaped; each refresh costs 1 + 0.25.
        assert_eq!(stats.vr_count(), 4);
        assert!((stats.total_cost() - 4.0 * 1.25).abs() < 1e-12);
    }

    #[test]
    fn reads_hit_or_pay_full_path() {
        let cfg = MultiLevelConfig { n_leaves: 2, ..MultiLevelConfig::default() };
        let mut sys = FlatFanoutSystem::new(&cfg, &[100.0], Rng::seed_from_u64(1)).unwrap();
        let mut stats = measuring();
        // Loose read: free.
        let iv = sys.read_bounded(LeafId(0), Key(0), 1e9, 0, &mut stats).unwrap();
        assert!(iv.contains(100.0));
        assert_eq!(stats.qr_count(), 0);
        // Exact read: one full-path QR (2 + 0.5).
        let iv = sys.read_bounded(LeafId(0), Key(0), 0.0, 0, &mut stats).unwrap();
        assert!(iv.is_exact());
        assert!((stats.total_cost() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let cfg = MultiLevelConfig { n_leaves: 0, ..MultiLevelConfig::default() };
        assert!(FlatFanoutSystem::new(&cfg, &[1.0], Rng::seed_from_u64(0)).is_err());
    }
}
