//! The pipelined remote deployment: the actor runtime behind the v2
//! wire protocol, driven through a windowed [`RemoteStoreClient`].
//!
//! Where [`RemoteAdaptiveSystem`](super::RemoteAdaptiveSystem) speaks
//! strict call-reply to a sequential `StoreServer`, this system runs the
//! full pipelined stack: a [`Runtime`] (one actor per shard) fronted by
//! a [`Reactor`] over an in-process loopback transport, with the
//! simulator's tick updates **submitted as a window of tickets** and
//! harvested out of order — every update and query still crosses the
//! codec, but requests overlap on the connection and on the shard actors
//! exactly as the million-user deployment's would. Under θ = 1 a run is
//! bit-identical to [`ShardedAdaptiveSystem`](super::ShardedAdaptiveSystem)
//! (`build_pipelined_simulation` forks RNG streams in the same order).

use apcache_core::cost::CostModel;
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_reactor::{Reactor, ReactorConfig};
use apcache_runtime::Runtime;
use apcache_shard::ShardedStore;
use apcache_store::Constraint;
use apcache_wire::{
    loopback, ClientPool, LoopbackStream, LoopbackTransport, PooledClient, RemoteError,
    RemoteStoreClient,
};
use apcache_workload::query::GeneratedQuery;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::Simulation;
use crate::stats::Stats;
use crate::system::{CacheSystem, QuerySummary};
use crate::systems::adaptive::WorkloadSpec;
use crate::systems::sharded::ShardedSystemConfig;

/// Configuration of the pipelined remote deployment.
#[derive(Debug, Clone)]
pub struct PipelinedSystemConfig {
    /// The fleet behind the wire (shards, vnodes, per-shard protocol).
    pub base: ShardedSystemConfig,
    /// The client's in-flight window (1 = strict call-reply).
    pub window: usize,
    /// `0` (the default): one dedicated pipelined socket. `n > 0`: a
    /// [`ClientPool`] of `n` member sockets, with each key pinned to one
    /// logical client (`key % n·POOL_FANOUT`) — the many-logical-clients
    /// / few-sockets deployment shape. Per-key FIFO is preserved by the
    /// sticky pinning, so θ = 1 runs stay bit-identical to the
    /// single-socket and local deployments.
    pub pool_sockets: usize,
}

impl Default for PipelinedSystemConfig {
    fn default() -> Self {
        PipelinedSystemConfig { base: ShardedSystemConfig::default(), window: 8, pool_sockets: 0 }
    }
}

/// Logical clients per pool socket (eight logical clients over two
/// sockets at `pool_sockets = 2`, the acceptance-criteria shape).
const POOL_FANOUT: usize = 4;

/// The client side of the deployment: one dedicated socket, or a pool
/// of a few sockets multiplexing many logical clients.
enum ClientSide {
    Direct(Box<RemoteStoreClient<Key, LoopbackTransport>>),
    Pooled {
        pool: ClientPool<Key, LoopbackTransport>,
        /// Pre-pinned logical handles; a key's traffic always rides
        /// handle `key % handles.len()` (and so one member socket).
        handles: Vec<PooledClient<Key, LoopbackTransport>>,
    },
}

/// The paper's system behind a pipelined wire: runtime actors served
/// out of order, driven through a windowed client, under the simulator's
/// cost accounting.
pub struct PipelinedRemoteSystem {
    client: Option<ClientSide>,
    runtime: Option<Runtime<Key>>,
    reactor: Option<Reactor<LoopbackStream>>,
    cost: CostModel,
}

/// Wire/remote errors surface in the simulator's vocabulary.
fn remote_error(e: RemoteError) -> SimError {
    SimError::Config(e.to_string())
}

impl PipelinedRemoteSystem {
    /// Build the fleet, launch the actor runtime, put one reactor in
    /// front of it serving every socket, and connect the client side — a
    /// dedicated windowed client, or a pool of member sockets.
    pub fn new(
        cfg: &PipelinedSystemConfig,
        initial_values: &[f64],
        mut rng: Rng,
    ) -> Result<Self, SimError> {
        let store = cfg.base.build_store(initial_values, rng.fork())?;
        let cost = *store.cost_model();
        let runtime = Runtime::launch(store)
            .map_err(|e| SimError::Config(format!("runtime launch failed: {e}")))?;
        let reactor = Reactor::launch(&runtime.handle(), ReactorConfig::default())
            .map_err(|e| SimError::Config(format!("reactor launch failed: {e}")))?;
        let sockets = cfg.pool_sockets.max(1);
        let mut transports = Vec::with_capacity(sockets);
        for _ in 0..sockets {
            let (server_end, client_end) = loopback();
            reactor.add_connection(server_end.into_inner());
            transports.push(client_end);
        }
        let client = if cfg.pool_sockets == 0 {
            let transport = transports.pop().expect("one dedicated transport");
            ClientSide::Direct(Box::new(RemoteStoreClient::with_window(transport, cfg.window)))
        } else {
            let mut pool = ClientPool::with_window(transports, cfg.window);
            let handles = (0..cfg.pool_sockets * POOL_FANOUT).map(|_| pool.handle()).collect();
            ClientSide::Pooled { pool, handles }
        };
        Ok(PipelinedRemoteSystem {
            client: Some(client),
            runtime: Some(runtime),
            reactor: Some(reactor),
            cost,
        })
    }

    fn client(&mut self) -> &mut ClientSide {
        self.client.as_mut().expect("client lives until shutdown()")
    }

    /// End the session and take the drained fleet back — its final
    /// protocol state (widths, intervals, counters) for inspection.
    pub fn shutdown(mut self) -> Result<ShardedStore<Key>, SimError> {
        match self.client.take().expect("shutdown runs once") {
            ClientSide::Direct(client) => client.shutdown().map_err(remote_error)?,
            ClientSide::Pooled { pool, handles } => {
                drop(handles);
                pool.shutdown().map_err(remote_error)?;
            }
        }
        self.reactor.take().expect("reactor present").join();
        let runtime = self.runtime.take().expect("runtime present");
        runtime.into_store().map_err(|e| SimError::Config(format!("runtime drain failed: {e}")))
    }
}

impl Drop for PipelinedRemoteSystem {
    fn drop(&mut self) {
        // An abandoned system still hangs up: dropping the client side
        // closes every loopback, the reactor sees each connection's EOF
        // and closes it, its workers join, and the runtime joins its
        // actors.
        drop(self.client.take());
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
        drop(self.runtime.take());
    }
}

impl ClientSide {
    /// The logical client `key` is pinned to (pooled mode).
    fn handle_of(handles: &[PooledClient<Key, LoopbackTransport>], key: Key) -> usize {
        key.0 as usize % handles.len()
    }

    fn write(
        &mut self,
        key: &Key,
        value: f64,
        now: TimeMs,
    ) -> Result<apcache_store::WriteOutcome, RemoteError> {
        match self {
            ClientSide::Direct(client) => client.write(key, value, now),
            ClientSide::Pooled { handles, .. } => {
                handles[Self::handle_of(handles, *key)].write(key, value, now)
            }
        }
    }

    /// Submit every update of a tick (filling the in-flight windows),
    /// then harvest all outcomes. Per-key order is fixed — by the single
    /// connection (direct) or by sticky member pinning (pooled) — so the
    /// result is bit-identical to the sequential path either way.
    fn write_wave(
        &mut self,
        updates: &[(Key, f64)],
        now: TimeMs,
    ) -> Result<Vec<apcache_store::WriteOutcome>, RemoteError> {
        match self {
            ClientSide::Direct(client) => {
                let mut tickets = Vec::with_capacity(updates.len());
                for (key, value) in updates {
                    tickets.push(client.submit_write(key, *value, now)?);
                }
                tickets.into_iter().map(|t| client.wait_write(t)).collect()
            }
            ClientSide::Pooled { handles, .. } => {
                let mut tickets = Vec::with_capacity(updates.len());
                for (key, value) in updates {
                    let h = Self::handle_of(handles, *key);
                    tickets.push((h, handles[h].submit_write(key, *value, now)?));
                }
                tickets.into_iter().map(|(h, t)| handles[h].wait_write(t)).collect()
            }
        }
    }

    fn aggregate(
        &mut self,
        kind: apcache_queries::AggregateKind,
        keys: &[Key],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<apcache_wire::RemoteAggregateOutcome<Key>, RemoteError> {
        match self {
            ClientSide::Direct(client) => client.aggregate(kind, keys, constraint, now),
            // Aggregates ride the first logical client: ticks are fully
            // harvested before the simulator queries, so every member
            // socket is quiescent and the choice cannot reorder traffic.
            ClientSide::Pooled { handles, .. } => handles[0].aggregate(kind, keys, constraint, now),
        }
    }
}

impl CacheSystem for PipelinedRemoteSystem {
    fn on_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        let outcome = self.client().write(&key, value, now).map_err(remote_error)?;
        for _ in 0..outcome.refreshes {
            stats.record_vr(self.cost.c_vr());
        }
        Ok(())
    }

    fn on_update_batch(
        &mut self,
        updates: &[(Key, f64)],
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        // The pipelined path: every update of the tick is submitted as
        // its own ticket (filling the window before the first response is
        // read) and the outcomes harvested afterwards, out of order.
        // Submission order fixes each shard's mailbox order, so the
        // result is bit-identical to the batched sequential path.
        let c_vr = self.cost.c_vr();
        for outcome in self.client().write_wave(updates, now).map_err(remote_error)? {
            for _ in 0..outcome.refreshes {
                stats.record_vr(c_vr);
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
        let outcome = self
            .client()
            .aggregate(query.kind, &query.keys, Constraint::Absolute(query.delta), now)
            .map_err(remote_error)?;
        for _ in &outcome.refreshed {
            stats.record_qr(self.cost.c_qr());
        }
        Ok(QuerySummary { answer: Some(outcome.answer), refreshes: outcome.refreshed.len() })
    }

    fn interval_of(&self, _key: Key, _now: TimeMs) -> Option<Interval> {
        // Cached intervals live on the actor threads; the wire offers no
        // passive peek (a read would perturb the protocol), so the
        // recorder sees no interval trace for this system.
        None
    }
}

/// Assemble a full simulation of the pipelined deployment. RNG streams
/// fork from the master seed in the same order as
/// [`build_sharded_simulation`](super::build_sharded_simulation), so a
/// run replays the identical workload — under θ = 1 the two must agree
/// exactly, window, codec, out-of-order serving and all.
pub fn build_pipelined_simulation(
    sim_cfg: &SimConfig,
    sys_cfg: &PipelinedSystemConfig,
    workload: WorkloadSpec,
    queries: apcache_workload::query::QueryConfig,
) -> Result<Simulation<PipelinedRemoteSystem>, SimError> {
    let mut master = Rng::seed_from_u64(sim_cfg.seed());
    let processes = workload.build_processes(&mut master)?;
    let initial_values: Vec<f64> = processes.iter().map(|p| p.value()).collect();
    let system = PipelinedRemoteSystem::new(sys_cfg, &initial_values, master.fork())?;
    let query_gen =
        apcache_workload::query::QueryGenerator::new(queries, initial_values.len(), master.fork())?;
    Simulation::new(*sim_cfg, system, processes, query_gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::adaptive::AdaptiveSystemConfig;
    use crate::systems::build_sharded_simulation;
    use apcache_workload::query::{KindMix, QueryConfig};
    use apcache_workload::walk::WalkConfig;

    fn quick_sim_cfg(seed: u64) -> SimConfig {
        SimConfig::builder().duration_secs(200).warmup_secs(20).seed(seed).build().unwrap()
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
    fn pipelined_simulation_matches_sharded_store_exactly() {
        // θ = 1: adaptation is deterministic and the workloads replay
        // identically, so pushing every event through submit → frame →
        // out-of-order serving → harvest must not change a counter, at
        // any window size.
        for (shards, window) in [(1, 1), (1, 8), (2, 8), (2, 32)] {
            let sharded_cfg = ShardedSystemConfig {
                shards,
                base: AdaptiveSystemConfig::default(),
                ..ShardedSystemConfig::default()
            };
            let local = build_sharded_simulation(
                &quick_sim_cfg(31),
                &sharded_cfg,
                WorkloadSpec::random_walks(8, WalkConfig::paper_default()),
                quick_queries(1.0, 4, 20.0),
            )
            .unwrap()
            .run()
            .unwrap();
            let pipelined = build_pipelined_simulation(
                &quick_sim_cfg(31),
                &PipelinedSystemConfig { base: sharded_cfg, window, pool_sockets: 0 },
                WorkloadSpec::random_walks(8, WalkConfig::paper_default()),
                quick_queries(1.0, 4, 20.0),
            )
            .unwrap()
            .run()
            .unwrap();
            let tag = format!("shards={shards} window={window}");
            assert_eq!(local.stats.vr_count(), pipelined.stats.vr_count(), "{tag}");
            assert_eq!(local.stats.qr_count(), pipelined.stats.qr_count(), "{tag}");
            assert_eq!(local.stats.total_cost(), pipelined.stats.total_cost(), "{tag}");
        }
    }

    #[test]
    fn pooled_simulation_matches_sharded_store_exactly() {
        // The acceptance shape: eight logical clients over two member
        // sockets (pool_sockets = 2 × POOL_FANOUT = 4). Sticky per-key
        // pinning keeps per-key FIFO, so the pooled deployment must
        // replay bit-identically to the local sharded store.
        let sharded_cfg = ShardedSystemConfig {
            shards: 2,
            base: AdaptiveSystemConfig::default(),
            ..ShardedSystemConfig::default()
        };
        let local = build_sharded_simulation(
            &quick_sim_cfg(47),
            &sharded_cfg,
            WorkloadSpec::random_walks(8, WalkConfig::paper_default()),
            quick_queries(1.0, 4, 20.0),
        )
        .unwrap()
        .run()
        .unwrap();
        let pooled = build_pipelined_simulation(
            &quick_sim_cfg(47),
            &PipelinedSystemConfig { base: sharded_cfg, window: 8, pool_sockets: 2 },
            WorkloadSpec::random_walks(8, WalkConfig::paper_default()),
            quick_queries(1.0, 4, 20.0),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(local.stats.vr_count(), pooled.stats.vr_count());
        assert_eq!(local.stats.qr_count(), pooled.stats.qr_count());
        assert_eq!(local.stats.total_cost(), pooled.stats.total_cost());
    }

    #[test]
    fn shutdown_returns_the_drained_fleet_with_its_state() {
        let cfg = PipelinedSystemConfig {
            base: ShardedSystemConfig { shards: 2, ..ShardedSystemConfig::default() },
            window: 4,
            pool_sockets: 0,
        };
        let mut system =
            PipelinedRemoteSystem::new(&cfg, &[1.0, 2.0, 3.0], Rng::seed_from_u64(5)).unwrap();
        let mut stats = Stats::new();
        system
            .on_update_batch(&[(Key(0), 500.0), (Key(1), 2.0), (Key(2), 700.0)], 1_000, &mut stats)
            .unwrap();
        let store = system.shutdown().unwrap();
        assert_eq!(store.value(&Key(0)), Some(500.0));
        assert_eq!(store.value(&Key(2)), Some(700.0));
        assert_eq!(store.metrics().merged().totals().writes, 3);
    }

    #[test]
    fn dropping_without_shutdown_does_not_hang() {
        let cfg = PipelinedSystemConfig::default();
        let system = PipelinedRemoteSystem::new(&cfg, &[1.0], Rng::seed_from_u64(6)).unwrap();
        drop(system); // Drop impl hangs up and joins server + actors.
    }
}
