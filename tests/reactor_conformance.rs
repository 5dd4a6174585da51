//! Reactor-door conformance: the event-driven `serve_reactor` — the one
//! pipelined door — must be **bit-identical over real TCP** to the same
//! operations applied in process: same answers, same escapes, same
//! refresh plans and final per-key state as a sequential local
//! `ShardedStore`; the same push streams in per-subscription order as an
//! in-process `RuntimeHandle::subscribe`; plus plain-HTTP `GET /metrics`
//! beside frame clients, clean `ClientPool` teardown, and per-socket
//! frame coalescing.
//!
//! Why bit-identity holds: the reactor worker submits frames in arrival
//! order (fixing each shard mailbox's order), and only the responses
//! travel out of order, reassembled by ticket client-side. The one
//! data-dependent case — a multi-shard Relative aggregate's escalation
//! rounds — is flushed at submission, the same discipline
//! `pipelining_conformance` documents.

mod common;

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use apcache::core::{Rng, MS_PER_SEC};
use apcache::push::{PushEvent, PushFilter};
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::{Outcome, Runtime, RuntimeHandle};
use apcache::shard::ShardedStore;
use apcache::store::Constraint;
use apcache::wire::{ClientPool, RemoteStoreClient, TcpTransport, Ticket};
use common::{assert_identical, key, run_sequential, run_windowed, trace, Shape};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const WINDOWS: [usize; 2] = [1, 32];
const SHAPE: Shape = Shape { n_keys: 16, ticks: 60, seed: 0x4EAC_2001 };
const N_KEYS: u32 = SHAPE.n_keys;
const SEED: u64 = SHAPE.seed;

fn fleet(shards: usize) -> ShardedStore<String> {
    common::fleet(&SHAPE, shards)
}

/// Serve one TCP listener through the reactor on its own thread.
fn spawn_reactor(listener: TcpListener, handle: RuntimeHandle<String>) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        serve_reactor(listener, handle, ReactorConfig::default()).expect("reactor door serves")
    })
}

// ---------------------------------------------------------------------
// 1. Request/response bit-identity under pipelining.
// ---------------------------------------------------------------------

/// The acceptance sweep: at θ = 1 a `window`-deep pipelined client over
/// real TCP must agree bit-for-bit with the sequential in-process
/// reference — every answer, every escape, every refresh plan, the final
/// per-key protocol state, and the metric totals — at every shard count
/// and window depth.
#[test]
fn reactor_door_is_bit_identical_to_sequential_reference() {
    let ops = trace(&SHAPE, SEED);
    for &shards in &SHARD_COUNTS {
        let reference = run_sequential(&SHAPE, shards, &ops);
        for &window in &WINDOWS {
            let runtime = Runtime::launch(fleet(shards)).expect("runtime launches");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
            let addr = listener.local_addr().expect("local addr");
            let server = spawn_reactor(listener, runtime.handle());
            let transport = TcpTransport::connect(addr).expect("connect");
            let outcomes = run_windowed(transport, window, &ops);
            server.join().expect("door thread");
            let served = (outcomes, runtime.into_store().expect("drain"));
            let tag = format!("shards={shards} window={window}");
            assert_identical(&SHAPE, &ops, &served, &reference, &tag);
        }
    }
}

// ---------------------------------------------------------------------
// 2. Push streams: same events, same per-subscription order.
// ---------------------------------------------------------------------

const SUBSCRIBED: u32 = 6;

/// Wide walks over all sixteen keys (σ = 30 against an initial width of
/// 8), so plenty of writes escape and push; unsubscribed keys get
/// traffic too, which must never leak into a stream.
fn escaping_walk(mut write: impl FnMut(&String, f64, u64)) {
    let mut rng = Rng::seed_from_u64(SEED ^ 0xBEEF);
    let mut values: Vec<f64> = (0..N_KEYS).map(|i| 10.0 + 10.0 * i as f64).collect();
    for t in 1..=30u64 {
        for i in 0..N_KEYS {
            values[i as usize] += rng.normal_with(0.0, 30.0);
            write(&key(i), values[i as usize], t * MS_PER_SEC);
        }
    }
}

/// Subscribe to the first six keys over TCP, drive the walk, cancel, and
/// return each subscription's push stream in arrival order.
fn push_streams_over_tcp() -> Vec<Vec<PushEvent<String>>> {
    let runtime = Runtime::launch(fleet(2)).expect("runtime launches");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = spawn_reactor(listener, runtime.handle());
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).expect("connect"));

    let subs: Vec<Ticket> = (0..SUBSCRIBED)
        .map(|i| {
            let (sub, snapshot) =
                client.subscribe(&key(i), PushFilter::Always, 0).expect("subscribe");
            assert_eq!(snapshot.width(), 8.0, "starting snapshot is the configured width");
            sub
        })
        .collect();
    escaping_walk(|k, value, now| {
        client.write(k, value, now).expect("known key");
    });

    // Every push a write triggered is client-queued by the time that
    // write's own ack is harvested: the shard actor emits the push
    // before completing the write, and the connection is FIFO per
    // direction. Drain the queue *before* cancelling — an unsubscribe
    // deliberately discards its subscription's still-queued pushes.
    let mut streams: Vec<Vec<PushEvent<String>>> = vec![Vec::new(); SUBSCRIBED as usize];
    while let Some((sub, event)) = client.poll_push() {
        let idx = subs.iter().position(|&s| s == sub).expect("push on an unknown ticket");
        streams[idx].push(event);
    }
    for &sub in &subs {
        assert!(client.unsubscribe(sub).expect("unsubscribe"), "subscription was live");
    }
    client.shutdown().expect("clean shutdown");
    server.join().expect("door thread");
    runtime.shutdown().expect("runtime drains");
    streams
}

/// The reference: the same subscriptions and the same walk on an
/// identically built fleet, in process through `RuntimeHandle` — no
/// wire, no reactor.
fn push_streams_in_process() -> Vec<Vec<PushEvent<String>>> {
    let runtime = Runtime::launch(fleet(2)).expect("runtime launches");
    let handle = runtime.handle();
    let subs: Vec<_> = (0..SUBSCRIBED)
        .map(|i| handle.subscribe(&key(i), PushFilter::Always, 0).expect("subscribe").0)
        .collect();
    escaping_walk(|k, value, now| {
        handle.write(k, value, now).expect("known key");
    });
    // A blocking write harvests only its own ticket; the pushes it
    // triggered stay queued, in emission order, for this drain.
    let mut streams: Vec<Vec<PushEvent<String>>> = vec![Vec::new(); SUBSCRIBED as usize];
    while let Some(completion) = handle.poll() {
        let idx = subs.iter().position(|&s| s == completion.ticket).expect("unknown ticket");
        match completion.outcome.expect("push completions carry no error") {
            Outcome::Push(event) => streams[idx].push(event),
            other => panic!("expected a push, got {other:?}"),
        }
    }
    drop(handle);
    runtime.shutdown().expect("runtime drains");
    streams
}

#[test]
fn push_streams_match_in_process_subscriptions_in_per_subscription_order() {
    let reference = push_streams_in_process();
    let served = push_streams_over_tcp();
    let total: usize = reference.iter().map(Vec::len).sum();
    assert!(total > 0, "the walk produced no pushes at all");
    for (i, (want, got)) in reference.iter().zip(&served).enumerate() {
        assert!(want.iter().all(|e| e.key == key(i as u32)), "stream {i}: foreign key leaked in");
        assert_eq!(got, want, "subscription {i}: the wire's push stream diverged");
    }
}

// ---------------------------------------------------------------------
// 3. Plain-HTTP GET /metrics on a reactor port.
// ---------------------------------------------------------------------

fn raw_http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut scraper = TcpStream::connect(addr).expect("scraper connects");
    write!(scraper, "GET {path} HTTP/1.1\r\nHost: apcache\r\nAccept: text/plain\r\n\r\n")
        .expect("request written");
    let mut response = String::new();
    scraper.read_to_string(&mut response).expect("server closes after the response");
    let (head, body) = response.split_once("\r\n\r\n").expect("response has a header block");
    (head.to_string(), body.to_string())
}

#[test]
fn reactor_port_serves_plain_http_scrapes_beside_frame_clients() {
    let runtime = Runtime::launch(fleet(2)).expect("runtime launches");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = spawn_reactor(listener, runtime.handle());

    // A frame client holds its connection open across the scrapes.
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).expect("connect"));
    let r = client.read(&key(0), Constraint::Absolute(10.0), 0).expect("read serves");
    assert!(r.answer.contains(10.0));

    let (head, body) = raw_http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "scrape status: {head}");
    assert!(head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"));
    assert!(head.contains(&format!("Content-Length: {}", body.len())));
    for series in [
        "apcache_push_frames_coalesced_total",
        "apcache_connections_open",
        "apcache_reactor_wakeups_total",
        "apcache_http_scrapes_total",
    ] {
        assert!(body.contains(series), "exposition is missing {series}");
    }

    let (head, body) = raw_http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "non-metrics path status: {head}");
    assert_eq!(body, "only /metrics is served over HTTP here\n");

    // The sibling scrapes never disturbed the frame connection.
    let r = client.read(&key(1), Constraint::Absolute(10.0), 1_000).expect("read still serves");
    assert!(r.answer.contains(20.0));
    client.shutdown().expect("clean shutdown");
    server.join().expect("door thread");
    runtime.shutdown().expect("runtime drains");
}

// ---------------------------------------------------------------------
// 4. ClientPool teardown drains cleanly through one reactor listener.
// ---------------------------------------------------------------------

#[test]
fn pool_drains_cleanly_through_one_reactor_listener() {
    let runtime = Runtime::launch(fleet(2)).expect("runtime launches");
    let stats_handle = runtime.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let server = spawn_reactor(listener, runtime.handle());

    // Three member sockets into the same reactor port, six logical
    // clients multiplexed over them, each on its own key.
    let transports: Vec<TcpTransport> =
        (0..3).map(|_| TcpTransport::connect(addr).expect("connect member")).collect();
    let mut pool: ClientPool<String, _> = ClientPool::new(transports);
    let workers: Vec<_> = (0..6u32)
        .map(|c| {
            let handle = pool.handle();
            thread::spawn(move || {
                let k = key(c);
                let mut rng = Rng::seed_from_u64(SEED ^ u64::from(c));
                let mut value = 10.0 + 10.0 * f64::from(c);
                for t in 1..=40u64 {
                    let now = t * MS_PER_SEC;
                    value += rng.normal_with(0.0, 4.0);
                    handle.write(&k, value, now).expect("pooled write");
                    handle.read(&k, Constraint::Absolute(5.0), now).expect("pooled read");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("pooled worker");
    }

    // The sequential member drain must complete on every socket: the
    // first member's Shutdown stops the accept loop, and the remaining
    // members still finish their own handshakes inside the drain grace.
    pool.shutdown().expect("pool drains all members through one reactor listener");
    server.join().expect("door thread");

    let forced = stats_handle.telemetry().registry().counter(
        "apcache_wire_forced_closes_total",
        "Idle or lingering connections force-closed at listener teardown.",
        &[],
    );
    assert_eq!(forced.get(), 0, "pool members were force-closed mid-drain");
    runtime.shutdown().expect("runtime drains");
}

// ---------------------------------------------------------------------
// 5. Multi-subscriber escapes coalesce frames into shared socket writes.
// ---------------------------------------------------------------------

#[test]
fn multi_subscriber_escape_coalesces_frames() {
    let runtime = Runtime::launch(fleet(2)).expect("runtime launches");
    let stats_handle = runtime.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    // One worker: every connection (here: one) and every completion
    // funnels through a single poller loop, the shape that coalesces.
    let config = ReactorConfig { workers: 1, ..ReactorConfig::default() };
    let serve_handle = runtime.handle();
    let server = thread::spawn(move || {
        serve_reactor(listener, serve_handle, config).expect("reactor door serves")
    });
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::with_window(TcpTransport::connect(addr).expect("connect"), 16);

    let subs: Vec<Ticket> = (0..8u32)
        .map(|i| client.subscribe(&key(i), PushFilter::Always, 0).expect("subscribe").0)
        .collect();
    let coalesced = stats_handle.telemetry().registry().counter(
        "apcache_push_frames_coalesced_total",
        "Response and push frames that rode a socket write already carrying an earlier frame.",
        &[],
    );

    // Bursts of eight always-escaping writes (each jump outgrows the
    // doubling width): eight acks plus eight pushes funnel onto one
    // socket per burst, so some harvest round must batch ≥ 2 frames.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut t = 0u64;
    while coalesced.get() == 0 {
        t += 1;
        assert!(t <= 100 && Instant::now() < deadline, "no coalescing after {t} escape bursts");
        let now = t * MS_PER_SEC;
        let tickets: Vec<Ticket> = (0..8u32)
            .map(|i| {
                let value = (10.0 + f64::from(i)) * 3.0f64.powi(t as i32);
                client.submit_write(&key(i), value, now).expect("submit")
            })
            .collect();
        for ticket in tickets {
            client.wait_write(ticket).expect("write serves");
        }
    }
    assert!(coalesced.get() > 0);

    for sub in subs {
        client.unsubscribe(sub).expect("unsubscribe");
    }
    while client.poll_push().is_some() {}
    client.shutdown().expect("clean shutdown");
    server.join().expect("door thread");
    runtime.shutdown().expect("runtime drains");
}
