//! The push-based remote deployment: the pipelined stack of
//! [`PipelinedRemoteSystem`](super::PipelinedRemoteSystem) with a v3
//! push subscription on **every** cached key.
//!
//! At startup the system subscribes (`PushFilter::Always`) to each key
//! and seeds a client-side mirror from the subscription snapshots. From
//! then on it never asks for an interval: the server streams a
//! [`PushEvent`] whenever a cached interval changes (value-initiated or
//! query-initiated refresh), and the mirror applies each event as it is
//! drained. Because the shard actor queues pushes **before** it sends
//! the completion that triggered them, every blocking verb returning
//! implies its pushes are already harvestable — draining after each
//! verb keeps the mirror exactly one protocol step behind nothing.
//!
//! Under θ = 1 the push-fed mirror must be **bit-identical** to what a
//! polling client would read out of the cache; `push_conformance.rs`
//! holds the system to that.

use std::collections::HashMap;

use apcache_core::cost::CostModel;
use apcache_core::{Interval, Key, Rng, TimeMs};
use apcache_push::{PushEvent, PushFilter};
use apcache_reactor::{Reactor, ReactorConfig};
use apcache_runtime::Runtime;
use apcache_shard::ShardedStore;
use apcache_store::{Answer, Constraint};
use apcache_wire::{loopback, LoopbackStream, LoopbackTransport, RemoteError, RemoteStoreClient};
use apcache_workload::query::GeneratedQuery;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::simulation::Simulation;
use crate::stats::Stats;
use crate::system::{CacheSystem, QuerySummary};
use crate::systems::adaptive::WorkloadSpec;
use crate::systems::pipelined::PipelinedSystemConfig;

/// The paper's system consumed through value-initiated streaming: a
/// pipelined runtime server pushing every interval change to a mirror
/// that answers `interval_of` without a wire round trip.
pub struct PushMirrorSystem {
    client: Option<RemoteStoreClient<Key, LoopbackTransport>>,
    runtime: Option<Runtime<Key>>,
    reactor: Option<Reactor<LoopbackStream>>,
    cost: CostModel,
    /// Push-fed replica of every cached interval.
    mirror: HashMap<Key, Interval>,
    /// Push events applied since startup (snapshots excluded).
    applied: u64,
}

fn remote_error(e: RemoteError) -> SimError {
    SimError::Config(e.to_string())
}

impl PushMirrorSystem {
    /// Build the fleet, serve it pipelined over loopback, subscribe to
    /// every key, and seed the mirror from the snapshots.
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
        let (server_end, client_end) = loopback();
        reactor.add_connection(server_end.into_inner());
        let mut client = RemoteStoreClient::with_window(client_end, cfg.window);
        let mut mirror = HashMap::with_capacity(initial_values.len());
        for i in 0..initial_values.len() {
            let key = Key(i as u32);
            let (_sub, snapshot) =
                client.subscribe(&key, PushFilter::Always, 0).map_err(remote_error)?;
            mirror.insert(key, snapshot);
        }
        Ok(PushMirrorSystem {
            client: Some(client),
            runtime: Some(runtime),
            reactor: Some(reactor),
            cost,
            mirror,
            applied: 0,
        })
    }

    fn client(&mut self) -> &mut RemoteStoreClient<Key, LoopbackTransport> {
        self.client.as_mut().expect("client lives until shutdown()")
    }

    /// Apply every queued push to the mirror. Called after each verb:
    /// the actor's push-before-reply ordering means the events for that
    /// verb have already been harvested (or are queued) by the time the
    /// verb's own response was redeemed.
    fn drain_pushes(&mut self) {
        let mut events: Vec<PushEvent<Key>> = Vec::new();
        if let Some(client) = self.client.as_mut() {
            while let Some((_sub, event)) = client.poll_push() {
                events.push(event);
            }
        }
        for event in events {
            self.mirror.insert(event.key, event.interval);
            self.applied += 1;
        }
    }

    /// Push events applied to the mirror so far.
    pub fn pushes_applied(&self) -> u64 {
        self.applied
    }

    /// Keys currently mirrored.
    pub fn mirrored_keys(&self) -> usize {
        self.mirror.len()
    }

    /// Poll the server for `key`'s cached interval with an
    /// always-satisfied constraint — a pure cache hit that cannot
    /// trigger a refresh, so polling never perturbs the protocol state
    /// it is checking. This is the reference the push mirror must
    /// bit-match.
    pub fn poll_interval(&mut self, key: Key, now: TimeMs) -> Result<Interval, SimError> {
        let result = self
            .client()
            .read(&key, Constraint::Absolute(f64::INFINITY), now)
            .map_err(remote_error)?;
        debug_assert!(!result.refreshed, "an infinite constraint can never force a refresh");
        self.drain_pushes();
        match result.answer {
            Answer::Interval(interval) => Ok(interval),
            Answer::Exact(v) => Err(SimError::Config(format!(
                "infinite-constraint read of {key:?} returned an exact value {v}"
            ))),
        }
    }

    /// End the session (cancelling the subscriptions) and take the
    /// drained fleet back for inspection.
    pub fn shutdown(mut self) -> Result<ShardedStore<Key>, SimError> {
        let client = self.client.take().expect("shutdown runs once");
        client.shutdown().map_err(remote_error)?;
        self.reactor.take().expect("reactor present").join();
        let runtime = self.runtime.take().expect("runtime present");
        runtime.into_store().map_err(|e| SimError::Config(format!("runtime drain failed: {e}")))
    }
}

impl Drop for PushMirrorSystem {
    fn drop(&mut self) {
        // Hanging up drops the subscriptions with the connection; the
        // reactor cancels them when it sees the EOF.
        drop(self.client.take());
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
        drop(self.runtime.take());
    }
}

impl CacheSystem for PushMirrorSystem {
    fn on_update(
        &mut self,
        key: Key,
        value: f64,
        now: TimeMs,
        stats: &mut Stats,
    ) -> Result<(), SimError> {
        let outcome = self.client().write(&key, value, now).map_err(remote_error)?;
        self.drain_pushes();
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
        let c_vr = self.cost.c_vr();
        let client = self.client();
        let mut tickets = Vec::with_capacity(updates.len());
        for (key, value) in updates {
            tickets.push(client.submit_write(key, *value, now).map_err(remote_error)?);
        }
        let mut refreshes = 0;
        for ticket in tickets {
            refreshes += client.wait_write(ticket).map_err(remote_error)?.refreshes;
        }
        self.drain_pushes();
        for _ in 0..refreshes {
            stats.record_vr(c_vr);
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
        // Query-initiated refreshes shrink cached intervals, so they
        // stream back as pushes too — the mirror tracks QRs for free.
        self.drain_pushes();
        for _ in &outcome.refreshed {
            stats.record_qr(self.cost.c_qr());
        }
        Ok(QuerySummary { answer: Some(outcome.answer), refreshes: outcome.refreshed.len() })
    }

    fn interval_of(&self, key: Key, _now: TimeMs) -> Option<Interval> {
        // Answered from the push-fed mirror: no wire round trip, no
        // protocol perturbation — the whole point of the subscription.
        self.mirror.get(&key).copied()
    }
}

/// Assemble a full simulation of the push-mirrored deployment. RNG
/// streams fork exactly as in
/// [`build_pipelined_simulation`](super::build_pipelined_simulation),
/// so the two replay identical workloads; under θ = 1 the push mirror
/// must bit-match what that polling system's fleet caches.
pub fn build_push_simulation(
    sim_cfg: &SimConfig,
    sys_cfg: &PipelinedSystemConfig,
    workload: WorkloadSpec,
    queries: apcache_workload::query::QueryConfig,
) -> Result<Simulation<PushMirrorSystem>, SimError> {
    let mut master = Rng::seed_from_u64(sim_cfg.seed());
    let processes = workload.build_processes(&mut master)?;
    let initial_values: Vec<f64> = processes.iter().map(|p| p.value()).collect();
    let system = PushMirrorSystem::new(sys_cfg, &initial_values, master.fork())?;
    let query_gen =
        apcache_workload::query::QueryGenerator::new(queries, initial_values.len(), master.fork())?;
    Simulation::new(*sim_cfg, system, processes, query_gen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems::sharded::ShardedSystemConfig;

    #[test]
    fn mirror_is_seeded_and_tracks_escaping_writes() {
        let cfg = PipelinedSystemConfig {
            base: ShardedSystemConfig { shards: 2, ..ShardedSystemConfig::default() },
            window: 4,
            pool_sockets: 0,
        };
        let mut system =
            PushMirrorSystem::new(&cfg, &[10.0, 20.0, 30.0], Rng::seed_from_u64(7)).unwrap();
        assert_eq!(system.mirrored_keys(), 3);
        for key in [Key(0), Key(1), Key(2)] {
            let mirrored = system.interval_of(key, 0).unwrap();
            let polled = system.poll_interval(key, 0).unwrap();
            assert_eq!(mirrored.lo().to_bits(), polled.lo().to_bits());
            assert_eq!(mirrored.hi().to_bits(), polled.hi().to_bits());
        }

        // An escaping write pushes the new interval into the mirror.
        let mut stats = Stats::new();
        system.on_update(Key(1), 900.0, 1_000, &mut stats).unwrap();
        assert!(system.pushes_applied() >= 1);
        let mirrored = system.interval_of(Key(1), 1_000).unwrap();
        assert!(mirrored.contains(900.0));
        let polled = system.poll_interval(Key(1), 1_000).unwrap();
        assert_eq!(mirrored.lo().to_bits(), polled.lo().to_bits());
        assert_eq!(mirrored.hi().to_bits(), polled.hi().to_bits());

        let store = system.shutdown().unwrap();
        assert_eq!(store.value(&Key(1)), Some(900.0));
    }

    #[test]
    fn dropping_without_shutdown_does_not_hang() {
        let cfg = PipelinedSystemConfig::default();
        let system = PushMirrorSystem::new(&cfg, &[1.0], Rng::seed_from_u64(9)).unwrap();
        drop(system); // subscriptions die with the connection
    }
}
