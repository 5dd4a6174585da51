//! The call-reply `StoreServer` and the migration vocabulary: any
//! `ShardBackend` behind it — a plain store, a sharded fleet — serves the
//! migration trio and refuses leases with a stable fault. (Leases, mixed
//! local/remote rings and pool drains over a pipelined connection are
//! covered in `apcache-reactor`.)

use std::thread;

use apcache_push::{FallbackWidth, LeaseConfig};
use apcache_shard::{ShardBackend, ShardedStoreBuilder};
use apcache_store::{Constraint, InitialWidth, StoreBuilder};
use apcache_wire::{loopback, FaultKind, RemoteStoreClient, ServerExit, StoreServer};

#[test]
fn sequential_server_serves_migration_verbs_and_defaults_leases_to_unsupported() {
    let store = StoreBuilder::new()
        .initial_width(InitialWidth::Fixed(10.0))
        .source("a".to_string(), 100.0)
        .source("b".to_string(), 200.0)
        .build()
        .unwrap();
    migration_verbs_over_loopback(store);
}

#[test]
fn a_fleet_behind_the_sequential_server_serves_them_too() {
    let fleet = ShardedStoreBuilder::new()
        .shards(4)
        .initial_width(InitialWidth::Fixed(10.0))
        .source("a".to_string(), 100.0)
        .source("b".to_string(), 200.0)
        .build()
        .unwrap();
    migration_verbs_over_loopback(fleet);
}

/// `service` holds "a" = 100 and "b" = 200 at width 10.
fn migration_verbs_over_loopback<S>(service: S)
where
    S: ShardBackend<String> + Send + 'static,
{
    let (mut server_t, client_t) = loopback();
    let server = thread::spawn(move || {
        let mut server = StoreServer::new(service);
        let exit = server.serve::<String, _>(&mut server_t).unwrap();
        (exit, server.into_service())
    });
    let mut client: RemoteStoreClient<String, _> = RemoteStoreClient::new(client_t);

    // The call-reply loop has no lease table whatever it fronts: stable
    // Unsupported, not a hang.
    let cfg = LeaseConfig { ttl_ms: 1_000, fallback: FallbackWidth::Unbounded };
    let err = client.lease(&"a".to_string(), cfg, 0).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::Unsupported));

    // The migration trio works, atomically (a fleet lists slot by slot,
    // so the order is the backend's own).
    let mut listed = client.key_list().unwrap();
    listed.sort();
    assert_eq!(listed, vec!["a".to_string(), "b".to_string()]);
    let err = client.export_keys(&["a".to_string(), "zzz".to_string()]).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::UnknownKey));
    let err = client.export_keys(&["a".to_string(), "a".to_string()]).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::DuplicateKey));
    // The failed exports detached nothing: "a" still answers.
    assert!(client.read(&"a".to_string(), Constraint::Exact, 0).is_ok());
    let before = client.read(&"a".to_string(), Constraint::Absolute(1e9), 0).unwrap();
    let states = client.export_keys(&["a".to_string()]).unwrap();
    assert_eq!(states.len(), 1);
    assert_eq!(states[0].key, "a");
    assert_eq!(states[0].value, 100.0);
    // Detached means gone until imported back.
    let err = client.read(&"a".to_string(), Constraint::Exact, 0).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::UnknownKey));
    client.import_keys(states).unwrap();
    let after = client.read(&"a".to_string(), Constraint::Absolute(1e9), 0).unwrap();
    // The adapted interval — bounds and width — survives the round trip
    // through the wire codec bit-for-bit.
    assert_eq!(after.answer, before.answer);

    client.shutdown().unwrap();
    let (exit, _service) = server.join().unwrap();
    assert_eq!(exit, ServerExit::Shutdown);
}
