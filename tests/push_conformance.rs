//! Push conformance: the v3 streaming surface must be an *observer*,
//! never a second implementation of the protocol.
//!
//! Three contracts, matching the subsystem's three pillars:
//!
//! 1. **Bit-identity** — a client that never polls, feeding a mirror
//!    purely from push events, holds exactly the intervals a polling
//!    client reads out of the same cache, under θ = 1, for
//!    shards ∈ {1, 2, 4}. A push is a *replication* of the cached
//!    interval, not a recomputation.
//! 2. **Lease expiry** — a lapsed TTL lease observably widens the
//!    cached interval to its fallback and emits **exactly one** push
//!    (`PushReason::LeaseExpired`); the lapsed lease stays disarmed, so
//!    further ticks push nothing.
//! 3. **Disconnect hygiene** — a TCP subscriber that vanishes without
//!    unsubscribing leaves no registry entries behind once the server
//!    reaps the connection.

#[path = "common/serving.rs"]
mod serving;

use std::collections::HashMap;
use std::thread;
use std::time::{Duration, Instant};

use apcache::core::{Interval, Key, Rng, MS_PER_SEC};
use apcache::push::{FallbackWidth, LeaseConfig, PushFilter, PushReason};
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::{Outcome, Runtime};
use apcache::shard::ShardedStoreBuilder;
use apcache::sim::systems::ShardedSystemConfig;
use apcache::store::{Answer, Constraint, InitialWidth};
use apcache::wire::{LoopbackTransport, RemoteStoreClient, TcpTransport};

const N_KEYS: usize = 12;
const TICKS: u64 = 50;

type Client = RemoteStoreClient<Key, LoopbackTransport>;

/// Apply every queued push to the mirror; returns how many there were.
/// The shard actor queues a verb's pushes *before* it sends the verb's
/// completion, so once a verb has been redeemed its pushes are already
/// harvestable — draining after each verb keeps the mirror current.
fn drain_pushes(client: &mut Client, mirror: &mut HashMap<Key, Interval>) -> u64 {
    let mut applied = 0;
    while let Some((_sub, event)) = client.poll_push() {
        mirror.insert(event.key, event.interval);
        applied += 1;
    }
    applied
}

/// Every key: the push-fed mirror vs. a polled read. A read with an
/// always-satisfied constraint is a pure cache hit that cannot trigger a
/// refresh, so polling never perturbs the state it checks.
fn assert_mirror_matches_polling(
    client: &mut Client,
    mirror: &mut HashMap<Key, Interval>,
    now: u64,
    tag: &str,
) {
    for i in 0..N_KEYS {
        let key = Key(i as u32);
        let mirrored = mirror[&key];
        let polled = client.read(&key, Constraint::Absolute(f64::INFINITY), now).unwrap();
        assert!(!polled.refreshed, "an infinite constraint can never force a refresh");
        assert_eq!(drain_pushes(client, mirror), 0, "{tag}: a pure cache hit pushed");
        match polled.answer {
            Answer::Interval(polled) => assert_eq!(
                mirrored.to_bits(),
                polled.to_bits(),
                "{tag}: push mirror diverged from cache on {key:?}: \
                 mirrored {mirrored:?}, polled {polled:?}"
            ),
            Answer::Exact(v) => panic!("{tag}: infinite-constraint read of {key:?} gave {v}"),
        }
    }
}

#[test]
fn push_mirror_is_bit_identical_to_polling() {
    // θ = 1 (the default adaptive config): every interval transition is
    // deterministic, so the push stream must reproduce the cache
    // bit-for-bit at any shard count and with pipelined (windowed)
    // write submission.
    for shards in [1usize, 2, 4] {
        let initial: Vec<f64> = (0..N_KEYS).map(|i| 10.0 * (i as f64 + 1.0)).collect();
        let fleet = ShardedSystemConfig { shards, ..ShardedSystemConfig::default() }
            .build_store(&initial, Rng::seed_from_u64(0x2001 + shards as u64))
            .unwrap();
        let runtime = Runtime::launch(fleet).unwrap();
        let (reactor, client_end) = serving::reactor_over_loopback(&runtime.handle());
        // A client that never asks for an interval: it subscribes to
        // every key, seeds the mirror from the snapshots, and from then
        // on applies whatever the server pushes.
        let mut client: Client = RemoteStoreClient::with_window(client_end, 8);
        let mut mirror: HashMap<Key, Interval> = (0..N_KEYS)
            .map(|i| {
                let key = Key(i as u32);
                let (_sub, snapshot) = client.subscribe(&key, PushFilter::Always, 0).unwrap();
                (key, snapshot)
            })
            .collect();
        assert_eq!(mirror.len(), N_KEYS);
        // Seeded from the snapshots alone, before any write.
        assert_mirror_matches_polling(&mut client, &mut mirror, 0, &format!("shards={shards} t=0"));

        let mut rng = Rng::seed_from_u64(0xD1FF ^ shards as u64);
        let mut values = initial.clone();
        let mut applied = 0;
        for t in 1..=TICKS {
            let now = t * MS_PER_SEC;
            // A write burst per tick: random-walk every key, submitted
            // as one pipelined window, then harvested.
            let tickets: Vec<_> = (0..N_KEYS)
                .map(|i| {
                    values[i] += rng.normal_with(0.0, 6.0);
                    client.submit_write(&Key(i as u32), values[i], now).unwrap()
                })
                .collect();
            for ticket in tickets {
                client.wait_write(ticket).unwrap();
            }
            applied += drain_pushes(&mut client, &mut mirror);
            // Every key, every tick.
            let tag = format!("shards={shards} t={t}");
            assert_mirror_matches_polling(&mut client, &mut mirror, now, &tag);
        }
        assert!(applied > 0, "shards={shards}: a {TICKS}-tick random walk escaped no interval");
        client.shutdown().unwrap();
        reactor.join();
        runtime.shutdown().unwrap();
    }
}

#[test]
fn lapsed_lease_widens_to_fallback_and_pushes_exactly_once() {
    let runtime = Runtime::launch(
        ShardedStoreBuilder::new()
            .shards(1)
            .initial_width(InitialWidth::Fixed(10.0))
            .source(0u64, 100.0)
            .build()
            .unwrap(),
    )
    .unwrap();
    let handle = runtime.handle();

    let (sub, snapshot) = handle.subscribe(&0u64, PushFilter::Always, 0).unwrap();
    assert_eq!(snapshot.width(), 10.0);
    handle
        .lease(&0u64, LeaseConfig { ttl_ms: 1_000, fallback: FallbackWidth::Fixed(40.0) }, 0)
        .unwrap();

    // Inside the TTL: nothing expires, nothing is pushed.
    let report = handle.advance_time(500).unwrap();
    assert_eq!(report.expired, 0);
    assert!(handle.poll().is_none(), "no push may fire before the lease lapses");

    // Past the TTL: the lease lapses, the interval widens to the
    // fallback, and exactly one LeaseExpired push is emitted.
    let report = handle.advance_time(1_500).unwrap();
    assert_eq!(report.expired, 1);
    let completion = handle.poll().expect("the lapse must push");
    assert_eq!(completion.ticket, sub, "push must arrive on the subscription's ticket");
    match completion.outcome.unwrap() {
        Outcome::Push(event) => {
            assert_eq!(event.key, 0u64);
            assert_eq!(event.reason, PushReason::LeaseExpired);
            assert_eq!(event.now, 1_500);
            assert_eq!(event.interval.width(), 40.0, "widened to the Fixed fallback");
            assert!(event.interval.contains(100.0), "widening keeps the value in bound");
        }
        other => panic!("expected a push, got {other:?}"),
    }

    // The lapsed lease is disarmed: further ticks expire nothing and
    // push nothing — "exactly one" means one.
    for now in [2_500u64, 5_000, 60_000] {
        let report = handle.advance_time(now).unwrap();
        assert_eq!(report.expired, 0, "a lapsed lease must not re-expire at t={now}");
    }
    assert!(handle.poll().is_none(), "a lapsed lease must not push again");
    runtime.shutdown().unwrap();
}

#[test]
fn vanished_tcp_subscriber_leaves_no_registry_entries() {
    let runtime = Runtime::launch(
        ShardedStoreBuilder::new()
            .shards(2)
            .initial_width(InitialWidth::Fixed(4.0))
            .source(0u64, 1.0)
            .source(1u64, 2.0)
            .build()
            .unwrap(),
    )
    .unwrap();
    let handle = runtime.handle();
    let stats_handle = runtime.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));

    {
        let mut client: RemoteStoreClient<u64, _> =
            RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
        client.subscribe(&0u64, PushFilter::Always, 0).unwrap();
        client.subscribe(&1u64, PushFilter::Always, 0).unwrap();
        assert_eq!(stats_handle.push_stats().unwrap().subscribers, 2);
        // The subscriber vanishes: dropped without unsubscribing, without
        // shutdown — the socket just closes.
    }

    // The server reaps the dead connection and cancels its
    // subscriptions; poll until the registries are empty again.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = stats_handle.push_stats().unwrap();
        if stats.subscribers == 0 && stats.watched_keys == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "subscriptions leaked after disconnect: {stats:?}");
        thread::sleep(Duration::from_millis(10));
    }

    // Close the front door and wind down.
    let closer: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    closer.shutdown().unwrap();
    acceptor.join().expect("acceptor thread").unwrap();
    runtime.shutdown().unwrap();
}
