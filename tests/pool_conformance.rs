//! Pooled-client conformance: eight logical clients multiplexed over
//! **two** pipelined TCP sockets must be indistinguishable from eight
//! clients with a socket each —
//!
//! * every logical client's op stream (writes, reads, own-key
//!   aggregates) returns bit-identical results in both deployments
//!   under θ = 1, because sticky member pinning preserves per-client
//!   FIFO through the shared socket;
//! * the final metric rollups of the two serving runtimes are equal;
//! * the pool's shutdown drains both member sockets by `Shutdown`
//!   handshake (nothing force-closed), same as the per-socket clients do.

use std::net::TcpListener;
use std::thread;

use apcache::core::{Interval, Rng, MS_PER_SEC};
use apcache::queries::AggregateKind;
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::{Runtime, RuntimeHandle};
use apcache::shard::ShardedStoreBuilder;
use apcache::store::{Constraint, InitialWidth, ReadResult, WriteOutcome};
use apcache::wire::{ClientPool, PooledClient, RemoteStoreClient, TcpTransport, WireError};

const LOGICAL_CLIENTS: usize = 8;
const POOL_SOCKETS: usize = 2;
const KEYS_PER_CLIENT: u32 = 4;
const TICKS: u64 = 60;
const SEED: u64 = 0x9001_2001;

fn key(i: u32) -> String {
    format!("sensor/{i:03}")
}

/// One logical client's op stream, over **its own** key range only — so
/// per-key op order (and with it every θ = 1 outcome) is fixed by the
/// client, not by cross-client scheduling.
#[derive(Debug, Clone)]
enum Op {
    Write { key: String, value: f64, now: u64 },
    Read { key: String, constraint: Constraint, now: u64 },
    Aggregate { kind: AggregateKind, constraint: Constraint, now: u64 },
}

/// What came back, comparable bit-for-bit across deployments.
#[derive(Debug, PartialEq)]
enum OpResult {
    Wrote(WriteOutcome),
    Answered(ReadResult),
    Aggregated { answer: Interval, refreshed: Vec<String> },
}

fn client_keys(client: usize) -> Vec<String> {
    let base = client as u32 * KEYS_PER_CLIENT;
    (base..base + KEYS_PER_CLIENT).map(key).collect()
}

fn client_trace(client: usize) -> Vec<Op> {
    let mut rng = Rng::seed_from_u64(SEED ^ client as u64);
    let keys = client_keys(client);
    let mut values: Vec<f64> = keys.iter().map(|_| 100.0 * client as f64).collect();
    let mut ops = Vec::new();
    for t in 1..=TICKS {
        let now = t * MS_PER_SEC;
        for (i, k) in keys.iter().enumerate() {
            values[i] += rng.normal_with(0.0, 4.0);
            ops.push(Op::Write { key: k.clone(), value: values[i], now });
        }
        let pick = rng.below(keys.len() as u64) as usize;
        let constraint = match rng.below(3) {
            0 => Constraint::Absolute(rng.uniform(1.0, 20.0)),
            1 => Constraint::Relative(0.05),
            _ => Constraint::Exact,
        };
        ops.push(Op::Read { key: keys[pick].clone(), constraint, now });
        if t % 12 == 0 {
            let kind = match rng.below(3) {
                0 => AggregateKind::Sum,
                1 => AggregateKind::Min,
                _ => AggregateKind::Max,
            };
            ops.push(Op::Aggregate { kind, constraint: Constraint::Relative(0.02), now });
        }
    }
    ops
}

fn launch_fleet() -> Runtime<String> {
    let mut b = ShardedStoreBuilder::new()
        .shards(2)
        .vnodes(64)
        .alpha(1.0)
        .rng(Rng::seed_from_u64(SEED ^ 0xF1))
        .initial_width(InitialWidth::Fixed(8.0));
    for c in 0..LOGICAL_CLIENTS {
        for k in client_keys(c) {
            b = b.source(k, 100.0 * c as f64);
        }
    }
    Runtime::launch(b.build().expect("fleet config valid")).expect("runtime launches")
}

/// Serve one runtime through one reactor listener; returns `sockets`
/// connected client transports and the acceptor thread.
fn serve_sockets(
    runtime: &Runtime<String>,
    sockets: usize,
) -> (Vec<TcpTransport>, thread::JoinHandle<Result<(), WireError>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    let handle = runtime.handle();
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));
    let transports = (0..sockets).map(|_| TcpTransport::connect(addr).expect("connect")).collect();
    (transports, acceptor)
}

/// Connections the reactor had to force-close at teardown: zero means
/// every one ended by `Shutdown` handshake or clean EOF.
fn forced_closes(handle: &RuntimeHandle<String>) -> u64 {
    handle
        .telemetry()
        .registry()
        .counter(
            "apcache_wire_forced_closes_total",
            "Idle or lingering connections force-closed at listener teardown.",
            &[],
        )
        .get()
}

/// The three verbs a trace needs, abstracted over pooled vs dedicated
/// connections. `&String` (not `&str`) because the clients' generic API
/// takes `&K` with `K = String`.
#[allow(clippy::ptr_arg)]
trait Driver {
    fn write(&mut self, key: &String, value: f64, now: u64) -> WriteOutcome;
    fn read(&mut self, key: &String, constraint: Constraint, now: u64) -> ReadResult;
    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[String],
        constraint: Constraint,
        now: u64,
    ) -> (Interval, Vec<String>);
}

impl Driver for apcache::wire::PooledClient<String, TcpTransport> {
    fn write(&mut self, key: &String, value: f64, now: u64) -> WriteOutcome {
        PooledClient::write(self, key, value, now).expect("pooled write")
    }
    fn read(&mut self, key: &String, constraint: Constraint, now: u64) -> ReadResult {
        PooledClient::read(self, key, constraint, now).expect("pooled read")
    }
    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[String],
        constraint: Constraint,
        now: u64,
    ) -> (Interval, Vec<String>) {
        let out = PooledClient::aggregate(self, kind, keys, constraint, now).expect("pooled agg");
        (out.answer, out.refreshed)
    }
}

impl Driver for RemoteStoreClient<String, TcpTransport> {
    fn write(&mut self, key: &String, value: f64, now: u64) -> WriteOutcome {
        RemoteStoreClient::write(self, key, value, now).expect("direct write")
    }
    fn read(&mut self, key: &String, constraint: Constraint, now: u64) -> ReadResult {
        RemoteStoreClient::read(self, key, constraint, now).expect("direct read")
    }
    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[String],
        constraint: Constraint,
        now: u64,
    ) -> (Interval, Vec<String>) {
        let out =
            RemoteStoreClient::aggregate(self, kind, keys, constraint, now).expect("direct agg");
        (out.answer, out.refreshed)
    }
}

/// Run one logical client's trace through a driver.
fn run_trace(client: usize, driver: &mut dyn Driver) -> Vec<OpResult> {
    let keys = client_keys(client);
    client_trace(client)
        .into_iter()
        .map(|op| match op {
            Op::Write { key, value, now } => OpResult::Wrote(driver.write(&key, value, now)),
            Op::Read { key, constraint, now } => {
                OpResult::Answered(driver.read(&key, constraint, now))
            }
            Op::Aggregate { kind, constraint, now } => {
                let (answer, refreshed) = driver.aggregate(kind, &keys, constraint, now);
                OpResult::Aggregated { answer, refreshed }
            }
        })
        .collect()
}

/// The acceptance sweep: 8 logical clients over 2 pooled sockets vs 8
/// clients over 8 sockets, each pair of deployments fronting an
/// identically-seeded 2-shard runtime. Every per-client result stream
/// must match bit-for-bit, and so must the final serving metrics.
#[test]
fn eight_logical_clients_over_two_sockets_match_per_client_sockets_bit_for_bit() {
    // Deployment A: the pool. Two sockets, eight logical handles.
    let runtime_a = launch_fleet();
    let (transports, acceptor_a) = serve_sockets(&runtime_a, POOL_SOCKETS);
    let mut pool: ClientPool<String, _> = ClientPool::new(transports);
    let workers_a: Vec<_> = (0..LOGICAL_CLIENTS)
        .map(|c| {
            let mut handle = pool.handle();
            assert_eq!(handle.logical_index(), c);
            assert_eq!(handle.member_index(), c % POOL_SOCKETS);
            thread::spawn(move || run_trace(c, &mut handle))
        })
        .collect();
    let results_a: Vec<Vec<OpResult>> =
        workers_a.into_iter().map(|w| w.join().expect("pooled worker")).collect();
    let metrics_a = pool.logical(0).metrics().expect("pooled metrics");

    // Deployment B: one socket per client, same runtime shape.
    let runtime_b = launch_fleet();
    let (transports, acceptor_b) = serve_sockets(&runtime_b, LOGICAL_CLIENTS);
    let clients_b: Vec<RemoteStoreClient<String, _>> =
        transports.into_iter().map(RemoteStoreClient::new).collect();
    let workers_b: Vec<_> = clients_b
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            thread::spawn(move || {
                let results = run_trace(c, &mut client);
                (results, client)
            })
        })
        .collect();
    let mut results_b = Vec::new();
    let mut drained_b = Vec::new();
    for w in workers_b {
        let (results, client) = w.join().expect("direct worker");
        results_b.push(results);
        drained_b.push(client);
    }
    let metrics_b = drained_b[0].metrics().expect("direct metrics");

    // Bit-for-bit: every logical client saw identical traffic outcomes
    // whether it shared a socket or owned one.
    for (c, (a, b)) in results_a.iter().zip(&results_b).enumerate() {
        assert_eq!(a.len(), b.len(), "client {c}: op counts diverged");
        for (op_no, (ra, rb)) in a.iter().zip(b).enumerate() {
            assert_eq!(ra, rb, "client {c} op {op_no}: pooled result diverged");
        }
    }
    assert_eq!(metrics_a, metrics_b, "serving metrics diverged between deployments");

    // Both deployments drain to a clean server shutdown: every
    // `Shutdown` is acknowledged and no connection is force-closed.
    pool.shutdown().expect("pool drains both sockets");
    acceptor_a.join().expect("pooled acceptor").expect("pooled door exits cleanly");
    for client in drained_b {
        client.shutdown().expect("direct client drains");
    }
    acceptor_b.join().expect("direct acceptor").expect("direct door exits cleanly");
    assert_eq!(forced_closes(&runtime_a.handle()), 0, "a pooled member was force-closed");
    assert_eq!(forced_closes(&runtime_b.handle()), 0, "a direct client was force-closed");
    runtime_a.shutdown().expect("runtime A drains");
    runtime_b.shutdown().expect("runtime B drains");
}

/// Regression: a pool draining through **one** listener. `ClientPool::shutdown` walks its members sequentially, so
/// the first member's `Shutdown` stops the accept loop while members
/// 2..n still have their own handshakes in flight. The listener must
/// give those sibling connections a drain grace instead of force-closing
/// them the instant the acceptor stops — previously the pool's own
/// orderly shutdown tripped the force-close path it was racing.
#[test]
fn pool_drains_cleanly_through_one_listener() {
    let runtime = launch_fleet();
    // Three member sockets into the same listener, eight logical
    // clients multiplexed over them — the shape ClientPool deploys
    // against a single serving port.
    let (transports, acceptor) = serve_sockets(&runtime, 3);
    let mut pool: ClientPool<String, _> = ClientPool::new(transports);
    let workers: Vec<_> = (0..LOGICAL_CLIENTS)
        .map(|c| {
            let mut handle = pool.handle();
            thread::spawn(move || run_trace(c, &mut handle))
        })
        .collect();
    for w in workers {
        w.join().expect("pooled worker");
    }

    // The sequential member drain must complete on every socket: the
    // first member's Shutdown stops the acceptor, and members 2 and 3
    // still get to finish their own Shutdown handshakes.
    pool.shutdown().expect("pool drains all members through one listener");
    acceptor.join().expect("acceptor thread").expect("the door exits cleanly");

    // Nothing was force-closed: every connection ended by handshake.
    assert_eq!(forced_closes(&runtime.handle()), 0, "pool members were force-closed mid-drain");
    runtime.shutdown().expect("runtime drains");
}
