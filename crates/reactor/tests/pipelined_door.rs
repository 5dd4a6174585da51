//! The pipelined door end to end: a windowed client against a reactor
//! in front of a live runtime — in process over loopback streams and
//! across real localhost TCP — covering out-of-order replies, push
//! streams and their exact fan-out at 100 and 10 000 subscriptions,
//! the lease/telemetry/migration verbs, a frame at another protocol
//! version closing its connection, disconnect hygiene, listener
//! teardown, Nagle off on every adopted TCP socket, a remote server
//! living as one shard of a mixed ring, and a pool draining past a dead
//! member.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use apcache_core::policy::ApproxSpec;
use apcache_core::Interval;
use apcache_push::{FallbackWidth, LeaseConfig, PushFilter, PushReason};
use apcache_reactor::{serve_reactor, Reactor, ReactorConfig, ReactorStream};
use apcache_runtime::Runtime;
use apcache_shard::{ShardBackend, ShardRouter, ShardedStore, ShardedStoreBuilder};
use apcache_store::{Constraint, InitialWidth, StoreBuilder};
use apcache_wire::{
    decode_frame, frame_to_vec, loopback, ClientPool, FaultKind, LoopbackStream, LoopbackTransport,
    RemoteError, RemoteStoreClient, TcpTransport, Transport, WireError, WireMessage, WireRequest,
    WireResponse, VERSION,
};

fn fleet(sources: impl IntoIterator<Item = (u64, f64)>) -> Runtime<u64> {
    let mut b = ShardedStoreBuilder::new().shards(2).initial_width(InitialWidth::Fixed(10.0));
    for (k, v) in sources {
        b = b.source(k, v);
    }
    Runtime::launch(b.build().unwrap()).unwrap()
}

fn fleet_123() -> Runtime<u64> {
    fleet([(1, 100.0), (2, 200.0), (3, 300.0)])
}

/// One in-process connection served by a reactor in front of `runtime`.
fn serve_loopback(runtime: &Runtime<u64>) -> (Reactor<LoopbackStream>, LoopbackTransport) {
    let reactor = Reactor::launch(&runtime.handle(), ReactorConfig::default()).unwrap();
    let (server_end, client_end) = loopback();
    reactor.add_connection(server_end.into_inner());
    (reactor, client_end)
}

/// Serve `runtime` on an ephemeral localhost port until a client's
/// `Shutdown`.
fn serve_tcp(
    runtime: &Runtime<u64>,
    config: ReactorConfig,
) -> (SocketAddr, thread::JoinHandle<Result<(), WireError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let handle = runtime.handle();
    (addr, thread::spawn(move || serve_reactor(listener, handle, config)))
}

/// `(connections still open, connections force-closed at teardown)`.
fn open_and_forced(runtime: &Runtime<u64>) -> (i64, u64) {
    let handle = runtime.handle();
    let registry = handle.telemetry().registry();
    (
        registry.gauge("apcache_connections_open", "", &[]).get(),
        registry.counter("apcache_wire_forced_closes_total", "", &[]).get(),
    )
}

/// The observable end of a session. `acked`: a client `Shutdown` was
/// acknowledged and stopped the reactor, versus the peer just hung up.
/// Either way every connection then closes on its own — `join` returns
/// with none left open and none force-closed.
fn finish<S: ReactorStream>(reactor: Reactor<S>, runtime: &Runtime<u64>, acked: bool) {
    assert_eq!(reactor.stopped(), acked, "whether a Shutdown ack stopped the reactor");
    reactor.join();
    assert_eq!(open_and_forced(runtime), (0, 0));
}

#[test]
fn pipelined_server_answers_a_window_out_of_order() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::with_window(client_t, 8);
    // Submit a full window, then redeem newest-first: responses are
    // reassembled by ticket whatever order they arrived in.
    let keys = [1u64, 2, 3];
    let writes: Vec<_> =
        keys.iter().map(|k| client.submit_write(k, 50.0 * *k as f64, 100).unwrap()).collect();
    let reads: Vec<_> =
        keys.iter().map(|k| client.submit_read(k, Constraint::Exact, 200).unwrap()).collect();
    assert_eq!(client.in_flight(), 6);
    for (&ticket, k) in reads.iter().zip(keys).rev() {
        let r = client.wait_read(ticket).unwrap();
        assert!(r.answer.contains(50.0 * k as f64), "key {k}");
    }
    for &ticket in writes.iter().rev() {
        client.wait_write(ticket).unwrap();
    }
    // Faults travel the pipelined path as answers, not disconnects.
    let bad = client.submit_read(&99, Constraint::Exact, 300).unwrap();
    let ok = client.submit_read(&1, Constraint::Exact, 300).unwrap();
    assert_eq!(client.wait_read(bad).unwrap_err().fault_kind(), Some(FaultKind::UnknownKey));
    assert!(client.wait_read(ok).is_ok());
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
    let store = runtime.into_store().unwrap();
    assert_eq!(store.metrics().merged().totals().writes, 3);
}

#[test]
fn pipelined_disconnect_without_shutdown_is_clean() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::with_window(client_t, 4);
    // In-flight work at hang-up time is still applied (the worker
    // submits every buffered frame before acting on the EOF).
    client.submit_write(&1, 111.0, 50).unwrap();
    drop(client);
    finish(reactor, &runtime, false);
    let store = runtime.into_store().unwrap();
    assert_eq!(store.value(&1), Some(111.0));
}

#[test]
fn pipelined_server_streams_pushes_for_subscriptions() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);
    let (sub, snapshot) = client.subscribe(&1, PushFilter::Always, 0).unwrap();
    assert!(snapshot.contains(100.0));
    // An escaping write moves the cached interval → one push, which
    // the server multiplexes ahead of the write's own response.
    client.write(&1, 500.0, 100).unwrap();
    let (from, event) = client.next_push().unwrap();
    assert_eq!(from, sub);
    assert_eq!(event.key, 1);
    assert_eq!(event.reason, PushReason::Changed);
    assert!(event.interval.contains(500.0));
    assert!(client.unsubscribe(sub).unwrap());
    // The stream is closed: further writes push nothing.
    client.write(&1, 900.0, 200).unwrap();
    assert_eq!(client.pending_pushes(), 0);
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
}

#[test]
fn an_escaping_write_pushes_exactly_once_to_each_of_100_and_10_000_subscriptions() {
    for subscriptions in [100usize, 10_000] {
        // One hot key: each write jumps ±5e12, far past any width four
        // escapes can grow from 10, so every write escapes.
        let store = ShardedStoreBuilder::new()
            .shards(1)
            .initial_width(InitialWidth::Fixed(10.0))
            .source(0u64, 0.0)
            .build()
            .unwrap();
        let runtime = Runtime::launch(store).unwrap();
        let (reactor, client_t) = serve_loopback(&runtime);
        let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::with_window(client_t, 64);
        for _ in 0..subscriptions {
            client.subscribe(&0, PushFilter::Always, 0).unwrap();
        }
        for (i, value) in [5e12, -5e12, 5e12, -5e12].into_iter().enumerate() {
            client.write(&0, value, 1 + i as u64).unwrap();
            // The actor queues every push before the write's own reply,
            // so all of them are already decoded when `write` returns.
            let delivered = std::iter::from_fn(|| client.poll_push()).count();
            assert_eq!(delivered, subscriptions, "write #{i}");
        }
        client.shutdown().unwrap();
        finish(reactor, &runtime, true);
    }
}

#[test]
fn pipelined_server_serves_exposition_and_push_stats() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);
    client.read(&1, Constraint::Exact, 0).unwrap();
    client.write(&2, 42.0, 10).unwrap();
    let (sub, _) = client.subscribe(&3, PushFilter::Always, 20).unwrap();
    // PushStats sees the live subscription without advancing time.
    let report = client.push_stats().unwrap();
    assert_eq!(report.subscribers, 1);
    assert_eq!(report.watched_keys, 1);
    // The exposition carries the store rollup and the wire series.
    let text = client.exposition().unwrap();
    assert!(text.contains("# TYPE apcache_reads_total counter"), "{text}");
    assert!(text.contains("apcache_reads_total 1"), "{text}");
    assert!(text.contains("apcache_writes_total 1"), "{text}");
    assert!(text.contains("apcache_push_subscribers 1"), "{text}");
    assert!(text.contains("apcache_verb_latency_seconds_bucket"), "{text}");
    assert!(text.contains("apcache_wire_frames_total{dir=\"in\"}"), "{text}");
    assert!(client.unsubscribe(sub).unwrap());
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
}

#[test]
fn http_scrapes_leave_no_per_connection_series_behind() {
    use std::io::{Read, Write};
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    // One frame connection, so the page carries `conn=`-labelled series.
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);
    client.read(&1, Constraint::Exact, 0).unwrap();
    let scrape = || {
        let (server_end, mut scraper) = apcache_wire::loopback_streams();
        reactor.add_connection(server_end);
        scraper.write_all(b"GET /metrics HTTP/1.1\r\nHost: apcache\r\n\r\n").unwrap();
        let mut page = String::new();
        scraper.read_to_string(&mut page).unwrap();
        assert!(page.starts_with("HTTP/1.1 200 OK"), "{page}");
        page.lines().filter(|line| line.contains("conn=\"")).count()
    };
    let first = scrape();
    assert_eq!(first, 3, "bytes in, bytes out and the window of the one frame connection");
    for n in 2..=20 {
        assert_eq!(scrape(), first, "scrape #{n} grew the exposition");
    }
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
}

#[test]
fn lease_verbs_serve_over_a_pipelined_connection() {
    let runtime = fleet([(1u64, 100.0), (2, 200.0)]);
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);

    let cfg = LeaseConfig { ttl_ms: 1_000, fallback: FallbackWidth::Fixed(50.0) };
    assert!(client.lease(&1, cfg, 0).unwrap());
    // Within the TTL the lease is live and nothing expires.
    let report = client.advance_time(500).unwrap();
    assert_eq!((report.leases, report.expired), (1, 0));
    // Releasing reports whether a lease existed — once, then not.
    assert!(client.release_lease(&1, 600).unwrap());
    assert!(!client.release_lease(&1, 700).unwrap());
    // Re-grant, then let it lapse: exactly one expiry in the report.
    assert!(client.lease(&2, cfg, 1_000).unwrap());
    let report = client.advance_time(3_000).unwrap();
    assert_eq!(report.expired, 1);
    // Lease faults ride the wire like any other answer: unknown key.
    let err = client.lease(&99, cfg, 0).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::UnknownKey));

    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
    runtime.shutdown().unwrap();
}

#[test]
fn an_export_frame_naming_a_key_twice_is_refused_and_detaches_nothing() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);
    let before = client.read(&1, Constraint::Absolute(1e9), 0).unwrap();
    // The frame body comes from the peer; `[k, k]` once detached `k` and
    // then failed on the second copy, destroying the key.
    for keys in [&[1u64, 1][..], &[2, 1, 3, 1]] {
        let err = client.export_keys(keys).unwrap_err();
        assert_eq!(err.fault_kind(), Some(FaultKind::DuplicateKey), "{keys:?}");
    }
    assert_eq!(client.key_list().unwrap(), vec![1, 2, 3]);
    assert_eq!(client.read(&1, Constraint::Absolute(1e9), 0).unwrap(), before);
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
    runtime.shutdown().unwrap();
}

#[test]
fn an_import_frame_whose_interval_excludes_the_value_is_refused_and_installs_nothing() {
    let runtime = fleet_123();
    let (reactor, client_t) = serve_loopback(&runtime);
    let mut client: RemoteStoreClient<u64, _> = RemoteStoreClient::new(client_t);
    let mut state = client.export_keys(&[1]).unwrap().remove(0);
    // Any v3 peer can send this: key 1 is 100, the frame claims [0, 1].
    // Installed, it would be served as a cache hit that excludes the value.
    let forged = ApproxSpec::Constant(Interval::new(0.0, 1.0).unwrap());
    state.source_spec = forged;
    state.cached = Some((forged, 1.0));
    let err = client.import_keys(vec![state]).unwrap_err();
    assert_eq!(err.fault_kind(), Some(FaultKind::Config));
    assert_eq!(client.key_list().unwrap(), vec![2, 3]);
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
    runtime.shutdown().unwrap();
}

#[test]
fn a_frame_at_another_protocol_version_is_a_decode_fault_not_an_answer() {
    let runtime = fleet([(1u64, 100.0)]);
    let (reactor, mut client_t) = serve_loopback(&runtime);

    let read = WireRequest::Read { key: 1u64, constraint: Constraint::Exact, now: 0 };
    let mut body = frame_to_vec(7, &WireMessage::Request(read));
    assert_eq!(body[1], VERSION);
    body[1] = 2;
    client_t.send(&body).unwrap();
    // No reply frame: the connection drains and closes.
    assert_eq!(client_t.recv(), Err(WireError::Closed));
    let handle = runtime.handle();
    let faults = handle.telemetry().registry().counter("apcache_wire_decode_faults_total", "", &[]);
    assert_eq!(faults.get(), 1);
    drop(client_t);
    finish(reactor, &runtime, false);
    runtime.shutdown().unwrap();
}

#[test]
fn runtime_front_door_serves_concurrent_tcp_clients() {
    const KEYS: u64 = 16;
    const CLIENTS: usize = 3;
    const TICKS: u64 = 50;
    let runtime = fleet((0..KEYS).map(|k| (k, k as f64)));
    let (addr, acceptor) = serve_tcp(&runtime, ReactorConfig::default());

    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut client: RemoteStoreClient<u64, _> =
                    RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
                // Each client owns keys ≡ c (mod CLIENTS): disjoint
                // traffic, so per-key outcomes are deterministic.
                let mine: Vec<u64> = (0..KEYS).filter(|k| k % CLIENTS as u64 == c as u64).collect();
                let mut writes = 0u64;
                for t in 1..=TICKS {
                    let now = t * 1_000;
                    let batch: Vec<(u64, f64)> =
                        mine.iter().map(|&k| (k, k as f64 + (t as f64).sin() * 20.0)).collect();
                    client.write_batch(&batch, now).unwrap();
                    writes += batch.len() as u64;
                    let key = mine[(t % mine.len() as u64) as usize];
                    let r = client.read(&key, Constraint::Absolute(4.0), now).unwrap();
                    assert!(r.answer.width() <= 4.0);
                }
                // Clean disconnect (not Shutdown): the door stays open
                // for the other clients.
                writes
            })
        })
        .collect();
    let total_writes: u64 = workers.into_iter().map(|w| w.join().expect("client thread")).sum();

    // A final client checks the merged metrics and closes the door.
    let mut closer: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    let metrics = closer.metrics().unwrap();
    assert_eq!(metrics.totals().writes, total_writes);
    assert_eq!(metrics.totals().reads, CLIENTS as u64 * TICKS);
    closer.shutdown().unwrap();
    acceptor.join().expect("acceptor thread").unwrap();
    assert_eq!(open_and_forced(&runtime), (0, 0));
    runtime.shutdown().unwrap();
}

#[test]
fn shutdown_tears_down_idle_connections_instead_of_waiting_on_them() {
    // An idle peer that connects and never sends must not block the
    // listener's teardown after another client shuts the deployment
    // down: once the drain grace runs out it is force-closed.
    let runtime = fleet([(0u64, 1.0)]);
    let config =
        ReactorConfig { drain_grace: Duration::from_millis(100), ..ReactorConfig::default() };
    let (addr, acceptor) = serve_tcp(&runtime, config);

    // The idle peer: holds its socket open and says nothing.
    let idle = TcpStream::connect(addr).unwrap();
    // An active client does one read, then closes the door.
    let mut closer: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    closer.read(&0u64, Constraint::Absolute(f64::INFINITY), 0).unwrap();
    closer.shutdown().unwrap();
    // Must return despite the idle connection (the test harness itself
    // is the timeout guard: a hang here fails the suite).
    acceptor.join().expect("acceptor thread").unwrap();
    assert_eq!(open_and_forced(&runtime), (0, 1), "exactly the idle peer was force-closed");
    drop(idle);
    runtime.shutdown().unwrap();
}

#[test]
fn tcp_pipelined_windows_overlap_on_real_sockets() {
    // Two windowed clients drive the pipelined front door concurrently:
    // each keeps 8 requests on the wire, harvests out of submission
    // order, and every accepted write survives to the drained fleet.
    let runtime = fleet((0..32u64).map(|k| (k, k as f64)));
    let (addr, acceptor) = serve_tcp(&runtime, ReactorConfig::default());

    let clients: Vec<_> = (0..2u64)
        .map(|c| {
            thread::spawn(move || {
                let mut client: RemoteStoreClient<u64, _> =
                    RemoteStoreClient::with_window(TcpTransport::connect(addr).unwrap(), 8);
                let mine: Vec<u64> = (0..32).filter(|k| k % 2 == c).collect();
                for t in 1..=20u64 {
                    // Fill the window with writes, harvest newest-first —
                    // the out-of-order path on a real socket.
                    let tickets: Vec<_> = mine
                        .iter()
                        .map(|&k| client.submit_write(&k, (k + t) as f64, t * 1_000).unwrap())
                        .collect();
                    for &ticket in tickets.iter().rev() {
                        client.wait_write(ticket).unwrap();
                    }
                    let read_tickets: Vec<_> = mine
                        .iter()
                        .map(|&k| {
                            client.submit_read(&k, Constraint::Absolute(2.0), t * 1_000).unwrap()
                        })
                        .collect();
                    for &ticket in read_tickets.iter().rev() {
                        let r = client.wait_read(ticket).unwrap();
                        assert!(r.answer.width() <= 2.0 + 1e-9);
                    }
                }
                client
            })
        })
        .collect();
    let mut done: Vec<RemoteStoreClient<u64, _>> =
        clients.into_iter().map(|c| c.join().unwrap()).collect();
    // One client closes the door; the other just hangs up.
    done.pop().unwrap().shutdown().unwrap();
    drop(done);
    acceptor.join().unwrap().unwrap();
    let store = runtime.into_store().unwrap();
    assert_eq!(store.metrics().merged().totals().writes, 2 * 20 * 16);
    assert_eq!(store.metrics().merged().totals().reads, 2 * 20 * 16);
    for k in 0..32u64 {
        assert_eq!(store.value(&k), Some((k + 20) as f64));
    }
}

#[test]
fn shutdown_cancels_subscriptions_and_drains_pending_pushes() {
    // A client that shuts down with live subscriptions and a window of
    // un-harvested writes (whose pushes are still in flight) must cancel
    // every subscription and drain everything before closing the
    // transport — and the server's per-key registries must come out
    // empty.
    let runtime = fleet([(0u64, 100.0), (1, 200.0)]);
    let (addr, acceptor) = serve_tcp(&runtime, ReactorConfig::default());

    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).unwrap());
    let (_sub0, snap0) = client.subscribe(&0u64, PushFilter::Always, 0).unwrap();
    let (_sub1, snap1) = client.subscribe(&1u64, PushFilter::Always, 0).unwrap();
    assert!(snap0.contains(100.0));
    assert!(snap1.contains(200.0));
    // Escaping writes, left un-harvested: their responses AND the pushes
    // they trigger are still on the wire when shutdown starts.
    for t in 1..=5u64 {
        client.submit_write(&0u64, 100.0 + 50.0 * t as f64, t * 1_000).unwrap();
        client.submit_write(&1u64, 200.0 + 50.0 * t as f64, t * 1_000).unwrap();
    }
    client.shutdown().unwrap();

    // The Shutdown verb closes the front door; the acceptor returning
    // proves the connection fully wound down.
    acceptor.join().expect("acceptor thread").unwrap();
    assert_eq!(open_and_forced(&runtime), (0, 0));

    // No leaked registry entries server-side once the connection closed.
    let stats = runtime.handle().push_stats().unwrap();
    assert_eq!(stats.subscribers, 0, "subscriber registry leaked entries");
    assert_eq!(stats.watched_keys, 0, "watched-key registry leaked entries");
    runtime.shutdown().unwrap();
}

/// One reactor serving exactly the next connection `listener` accepts.
fn adopt_one(runtime: &Runtime<u64>, listener: &TcpListener) -> Reactor<TcpStream> {
    let reactor = Reactor::launch(&runtime.handle(), ReactorConfig::default()).unwrap();
    reactor.add_connection(listener.accept().unwrap().0);
    reactor
}

#[test]
fn an_adopted_tcp_socket_has_nagle_off() {
    let runtime = fleet([(1u64, 100.0)]);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(listener.local_addr().unwrap()).unwrap());
    let server_end = listener.accept().unwrap().0;
    let probe = server_end.try_clone().unwrap();
    assert!(!probe.nodelay().unwrap(), "an accepted socket starts with Nagle on");

    let reactor = Reactor::launch(&runtime.handle(), ReactorConfig::default()).unwrap();
    reactor.add_connection(server_end);
    // An answer means the worker has adopted the socket.
    client.read(&1, Constraint::Exact, 0).unwrap();
    assert!(probe.nodelay().unwrap(), "the reactor adopted the socket with Nagle on");

    // The clone would keep the server's close from reaching the client.
    drop(probe);
    client.shutdown().unwrap();
    finish(reactor, &runtime, true);
    runtime.shutdown().unwrap();
}

#[test]
fn remote_server_is_one_shard_of_a_mixed_ring_and_keys_migrate_both_ways_over_tcp() {
    // A live runtime across TCP becomes a shard of an outer ring whose
    // other shard is a plain in-process store. Growing the ring migrates
    // resident keys over the wire (ExportKeys out of the local store,
    // ImportKeys into the runtime); shrinking it migrates them back.
    // Values and widths survive both hops bit-for-bit.
    let runtime = fleet([(1_000u64, 9_999.0)]); // sentinel outside the ring's population
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let remote: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(TcpTransport::connect(listener.local_addr().unwrap()).unwrap());
    let reactor = adopt_one(&runtime, &listener);

    let mut local = StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0));
    let mut reference = StoreBuilder::new().initial_width(InitialWidth::Fixed(10.0));
    for k in 0..12u64 {
        local = local.source(k, 100.0 * k as f64);
        reference = reference.source(k, 100.0 * k as f64);
    }
    // The never-resharded twin: the ring must answer bit-identically to
    // it at every stage, whichever side of the wire a key lives on.
    let mut reference = reference.build().unwrap();
    let router = ShardRouter::new(1, 64).unwrap();
    let mut outer: ShardedStore<u64, Box<dyn ShardBackend<u64> + Send>> =
        ShardedStore::from_routed_parts(
            router,
            vec![(0, Box::new(local.build().unwrap()) as Box<dyn ShardBackend<u64> + Send>)],
        )
        .unwrap();

    // A width-adapting write before the reshard: the adapted state must
    // survive migration, not just the seeded value.
    let w = outer.write(&3, 12_345.0, 100).unwrap();
    assert!(w.escaped());
    reference.write(&3, 12_345.0, 100).unwrap();

    let remote_id = outer.add_shard_backend(Box::new(remote)).unwrap();
    let moved: Vec<u64> = (0..12u64).filter(|k| outer.router().route(k) == remote_id).collect();
    assert!(!moved.is_empty(), "growing the ring must remap some keys to the remote shard");

    // Every key answers through the outer ring — the moved ones now
    // travel the wire — bit-identically to the unresharded twin.
    for k in 0..12u64 {
        let r = outer.read(&k, Constraint::Absolute(1e9), 200).unwrap();
        let expect = reference.read(&k, Constraint::Absolute(1e9), 200).unwrap();
        assert_eq!(r.answer, expect.answer, "key {k} post-grow");
    }

    // Shrink: a departing shard is drained of *every* resident — the
    // migrated ring keys and the runtime's own sentinel alike all cross
    // back over the wire into the remaining local shard.
    let mut remote = outer.remove_shard(remote_id).unwrap();
    assert_eq!(remote.key_list().unwrap(), Vec::<u64>::new(), "the departing shard is empty");
    let adopted = outer.read(&1_000, Constraint::Absolute(1e9), 250).unwrap();
    assert!(adopted.answer.contains(9_999.0), "the sentinel now answers locally");
    for k in 0..12u64 {
        let r = outer.read(&k, Constraint::Absolute(1e9), 300).unwrap();
        let expect = reference.read(&k, Constraint::Absolute(1e9), 300).unwrap();
        assert_eq!(r.answer, expect.answer, "key {k} post-shrink");
    }

    // Dropping the remote client hangs up; the server sees a clean EOF.
    drop(remote);
    finish(reactor, &runtime, false);
    runtime.shutdown().unwrap();
}

#[test]
fn pool_drain_survives_a_member_dying_mid_drain_over_tcp() {
    // Member 0's peer acks a subscription, then vanishes. Member 1 is a
    // real pipelined server. The pool-wide drain must still cancel
    // member 1's subscription and get its Shutdown acknowledged, then
    // report member 0's failure.
    let dead_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = dead_listener.local_addr().unwrap();
    let dead = thread::spawn(move || {
        let mut t = TcpTransport::accept(&dead_listener).unwrap();
        let frame = decode_frame::<u64>(&t.recv().unwrap()).unwrap();
        let WireMessage::Request(WireRequest::Subscribe { .. }) = frame.msg else {
            panic!("expected the pool's Subscribe first");
        };
        t.send(&frame_to_vec::<u64>(
            frame.request_id,
            &WireMessage::Response(WireResponse::Subscribed {
                interval: Interval::point(1.0).unwrap(),
            }),
        ))
        .unwrap();
        // Dropping the transport here kills the socket with the
        // subscription still live: the pool's drain dies mid-unsubscribe.
    });

    let runtime = fleet([(7u64, 700.0)]);
    let healthy_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let healthy = TcpTransport::connect(healthy_listener.local_addr().unwrap()).unwrap();
    let reactor = adopt_one(&runtime, &healthy_listener);

    let pool: ClientPool<u64, _> =
        ClientPool::new(vec![TcpTransport::connect(dead_addr).unwrap(), healthy]);
    let c0 = pool.logical(0);
    let c1 = pool.logical(1);
    let (_sub0, snap0) = c0.subscribe(&0, PushFilter::Always, 0).unwrap();
    assert!(snap0.contains(1.0));
    let (_sub1, snap1) = c1.subscribe(&7, PushFilter::Always, 0).unwrap();
    assert!(snap1.contains(700.0));
    dead.join().unwrap();

    let err = pool.shutdown().unwrap_err();
    assert!(matches!(err, RemoteError::Wire(_)), "member 0 must report its dead peer: {err:?}");
    // The healthy member was fully drained: its connection ended
    // through a Shutdown ack, not an EOF.
    finish(reactor, &runtime, true);
    runtime.shutdown().unwrap();
}
