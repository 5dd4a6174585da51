//! Any backend under Section 4's driver: `BackendSystem` charges the same
//! refreshes whatever executes the verbs. The same workload and seed run
//! over (a) a `ShardedStore` in process — the reference, (b) a
//! `RuntimeHandle`, (c) a call-reply `RemoteStoreClient` against
//! `StoreServer` over loopback, (d) a `RemoteStoreClient` against a
//! `Reactor` in front of a runtime — for shards ∈ {1, 2, 4} at θ = 1.
//! Every deployment must report the reference's `vr_count`, `qr_count`
//! and `total_cost` bit for bit and leave behind a store that agrees with
//! the reference's on every key's value and internal width. The serving
//! stacks are stood up here — the simulator links none of them.

#[path = "common/serving.rs"]
mod serving;

use std::thread;

use apcache::core::Key;
use apcache::runtime::Runtime;
use apcache::shard::{ShardBackend, ShardedStore};
use apcache::sim::systems::{
    build_simulation, BackendSystem, QuerySpec, ShardedSystemConfig, WorkloadSpec,
};
use apcache::sim::{SimConfig, Stats};
use apcache::wire::{loopback, RemoteStoreClient, StoreServer};
use apcache::workload::query::KindMix;
use apcache::workload::walk::WalkConfig;

const N_KEYS: usize = 8;

/// How a deployment hands its server-side fleet back once the run is over.
type Teardown<B> = Box<dyn FnOnce(B) -> ShardedStore<Key>>;

/// Run the fixed scenario over whatever `deploy` turns the fleet into;
/// returns the simulator's stats and the drained fleet.
fn run_over<B: ShardBackend<Key> + Send>(
    shards: usize,
    deploy: impl FnOnce(ShardedStore<Key>) -> (B, Teardown<B>),
) -> (Stats, ShardedStore<Key>) {
    let sim_cfg = SimConfig::builder().duration_secs(200).warmup_secs(20).seed(31).build().unwrap();
    let sys_cfg = ShardedSystemConfig { shards, ..ShardedSystemConfig::default() };
    let queries = QuerySpec {
        period_secs: 1.0,
        fanout: 4,
        delta_avg: 20.0,
        delta_rho: 1.0,
        kind_mix: KindMix::SumOrMax,
    };
    let workload = WorkloadSpec::random_walks(N_KEYS, WalkConfig::paper_default());
    let mut teardown = None;
    let report = build_simulation(&sim_cfg, workload, queries, |initial, mut rng| {
        // The store draws from a fork of the system's stream, as the
        // stock constructors do (`build_simulation`'s seed contract).
        let (backend, drain) = deploy(sys_cfg.build_store(initial, rng.fork())?);
        teardown = Some(drain);
        Ok(BackendSystem::over(backend, sys_cfg.base.cost))
    })
    .expect("assembles")
    .run()
    .expect("runs");
    (report.stats, teardown.expect("deployed")(report.system.into_backend()))
}

#[test]
fn every_deployment_replays_the_in_process_run() {
    for shards in [1usize, 2, 4] {
        // (a) The fleet itself.
        let (want, want_store) = run_over(shards, |fleet| (fleet, Box::new(|fleet| fleet)));
        assert!(want.vr_count() > 0 && want.qr_count() > 0, "shards={shards}");

        // (b) Actors behind mailboxes.
        let over_runtime = run_over(shards, |fleet| {
            let runtime = Runtime::launch(fleet).expect("runtime launches");
            let handle = runtime.handle();
            let drain = move |handle| {
                drop(handle);
                runtime.into_store().expect("drain")
            };
            (handle, Box::new(drain))
        });
        // (c) Frames to the call-reply reference server.
        let over_call_reply = run_over(shards, |fleet| {
            let (mut server_end, client_end) = loopback();
            let server = thread::spawn(move || {
                let mut server = StoreServer::new(fleet);
                server.serve::<Key, _>(&mut server_end).expect("serves");
                server.into_service()
            });
            let drain = move |client: RemoteStoreClient<Key, _>| {
                client.shutdown().expect("clean shutdown");
                server.join().expect("server thread")
            };
            (RemoteStoreClient::new(client_end), Box::new(drain))
        });
        // (d) Frames through the pipelined door to a runtime.
        let over_reactor = run_over(shards, |fleet| {
            let runtime = Runtime::launch(fleet).expect("runtime launches");
            let (reactor, client_end) = serving::reactor_over_loopback(&runtime.handle());
            let drain = move |client: RemoteStoreClient<Key, _>| {
                client.shutdown().expect("clean shutdown");
                reactor.join();
                runtime.into_store().expect("drain")
            };
            (RemoteStoreClient::new(client_end), Box::new(drain))
        });

        let deployments =
            [("runtime", over_runtime), ("call-reply", over_call_reply), ("reactor", over_reactor)];
        for (name, (stats, store)) in deployments {
            let tag = format!("{name} shards={shards}");
            assert_eq!(stats.vr_count(), want.vr_count(), "{tag}: VRs");
            assert_eq!(stats.qr_count(), want.qr_count(), "{tag}: QRs");
            assert_eq!(stats.total_cost().to_bits(), want.total_cost().to_bits(), "{tag}: cost");
            for key in (0..N_KEYS as u32).map(Key) {
                assert_eq!(store.value(&key), want_store.value(&key), "{tag}: value of {key:?}");
                assert_eq!(
                    store.internal_width(&key).map(f64::to_bits),
                    want_store.internal_width(&key).map(f64::to_bits),
                    "{tag}: width of {key:?}"
                );
            }
        }
    }
}
