//! Pipelined wire throughput: loopback round-trip ops/s as a function of
//! the client's in-flight window × shard count.
//!
//! Not a paper figure — this harness measures the v2 protocol's
//! pipelining win over the strict call-reply baseline. The full stack
//! runs on every op: client codec → frame → reactor pump → ticketed
//! runtime submission → shard actor → completion queue → reactor
//! harvest → frame → client codec. At `window = 1` the client degenerates to the
//! v1 call-reply discipline (one op in flight, the PR 4-equivalent
//! baseline); at `window ≥ 8` submission overlaps serving, so the
//! per-op client↔server hand-off cost amortizes across the window — the
//! acceptance bar is window ≥ 8 throughput strictly above window = 1 on
//! the same run.

use std::thread;
use std::time::Instant;

use apcache_core::Rng;
use apcache_runtime::Runtime;
use apcache_shard::{ShardedStore, ShardedStoreBuilder};
use apcache_store::{Constraint, InitialWidth};
use apcache_wire::{ClientPool, RemoteStoreClient, Ticket};

use crate::experiments::common::{serve_loopback, MASTER_SEED};
use crate::table::{fmt_num, Table};

const KEYS: u64 = 512;
const OPS: u64 = 40_000;
const WINDOWS: [usize; 4] = [1, 4, 8, 32];
const SHARDS: [usize; 3] = [1, 2, 4];

/// The pooled smoke cell: 8 logical clients over 2 member sockets vs a
/// socket per client, same per-socket window.
const POOL_LOGICAL: usize = 8;
const POOL_SOCKETS: usize = 2;
const POOL_WINDOW: usize = 8;
const POOL_OPS_PER_CLIENT: u64 = 5_000;
const POOL_SHARDS: usize = 2;

fn build_fleet(shards: usize) -> ShardedStore<u64> {
    let mut b = ShardedStoreBuilder::new()
        .shards(shards)
        .rng(Rng::seed_from_u64(MASTER_SEED))
        .initial_width(InitialWidth::Fixed(10.0));
    for k in 0..KEYS {
        b = b.source(k, (k % 977) as f64);
    }
    b.build().expect("fleet config valid")
}

/// Ops/s for a 50/50 read/write mix driven through a `window`-deep
/// pipelined client against a `shards`-actor runtime over loopback.
fn drive(shards: usize, window: usize) -> f64 {
    let runtime = Runtime::launch(build_fleet(shards)).expect("runtime launches");
    let (reactor, mut ends) = serve_loopback(&runtime, 1);
    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::with_window(ends.remove(0), window);
    let mut rng = Rng::seed_from_u64(MASTER_SEED ^ 0x91BE);
    let ops: Vec<(u64, f64, bool)> = (0..OPS)
        .map(|_| (rng.below(KEYS), rng.uniform(0.0, 1_000.0), rng.bernoulli(0.5)))
        .collect();
    // Keep `window` tickets in flight: submit ahead, harvest the oldest
    // once the pipeline is full (submission itself also backpressures).
    let mut in_flight: std::collections::VecDeque<(Ticket, bool)> =
        std::collections::VecDeque::with_capacity(window);
    let started = Instant::now();
    for (i, &(key, value, is_read)) in ops.iter().enumerate() {
        let now = i as u64;
        if in_flight.len() >= window {
            let (ticket, was_read) = in_flight.pop_front().expect("non-empty");
            if was_read {
                client.wait_read(ticket).expect("known key");
            } else {
                client.wait_write(ticket).expect("known key");
            }
        }
        let ticket = if is_read {
            client.submit_read(&key, Constraint::Absolute(25.0), now).expect("submit")
        } else {
            client.submit_write(&key, value, now).expect("submit")
        };
        in_flight.push_back((ticket, is_read));
    }
    for (ticket, was_read) in in_flight.drain(..) {
        if was_read {
            client.wait_read(ticket).expect("known key");
        } else {
            client.wait_write(ticket).expect("known key");
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    client.shutdown().expect("clean shutdown");
    reactor.join();
    drop(runtime);
    OPS as f64 / elapsed
}

/// The submit/harvest surface a worker drives, abstracted over pooled
/// handles and dedicated clients.
trait Connection {
    fn submit_read(&mut self, key: &u64, now: u64) -> Ticket;
    fn submit_write(&mut self, key: &u64, value: f64, now: u64) -> Ticket;
    fn wait_read(&mut self, ticket: Ticket);
    fn wait_write(&mut self, ticket: Ticket);
}

impl Connection for RemoteStoreClient<u64, apcache_wire::LoopbackTransport> {
    fn submit_read(&mut self, key: &u64, now: u64) -> Ticket {
        RemoteStoreClient::submit_read(self, key, Constraint::Absolute(25.0), now).expect("submit")
    }
    fn submit_write(&mut self, key: &u64, value: f64, now: u64) -> Ticket {
        RemoteStoreClient::submit_write(self, key, value, now).expect("submit")
    }
    fn wait_read(&mut self, ticket: Ticket) {
        RemoteStoreClient::wait_read(self, ticket).expect("known key");
    }
    fn wait_write(&mut self, ticket: Ticket) {
        RemoteStoreClient::wait_write(self, ticket).expect("known key");
    }
}

impl Connection for apcache_wire::PooledClient<u64, apcache_wire::LoopbackTransport> {
    fn submit_read(&mut self, key: &u64, now: u64) -> Ticket {
        apcache_wire::PooledClient::submit_read(self, key, Constraint::Absolute(25.0), now)
            .expect("submit")
    }
    fn submit_write(&mut self, key: &u64, value: f64, now: u64) -> Ticket {
        apcache_wire::PooledClient::submit_write(self, key, value, now).expect("submit")
    }
    fn wait_read(&mut self, ticket: Ticket) {
        apcache_wire::PooledClient::wait_read(self, ticket).expect("known key");
    }
    fn wait_write(&mut self, ticket: Ticket) {
        apcache_wire::PooledClient::wait_write(self, ticket).expect("known key");
    }
}

/// One logical client's 50/50 mix over its own key range, keeping up to
/// 4 tickets of its own in flight on whatever connection carries it.
fn drive_worker(client_no: usize, conn: &mut dyn Connection) {
    let span = KEYS / POOL_LOGICAL as u64;
    let base = client_no as u64 * span;
    let mut rng = Rng::seed_from_u64(MASTER_SEED ^ 0xB0_07 ^ client_no as u64);
    let mut in_flight: std::collections::VecDeque<(Ticket, bool)> =
        std::collections::VecDeque::with_capacity(4);
    for i in 0..POOL_OPS_PER_CLIENT {
        if in_flight.len() >= 4 {
            let (ticket, was_read) = in_flight.pop_front().expect("non-empty");
            if was_read {
                conn.wait_read(ticket);
            } else {
                conn.wait_write(ticket);
            }
        }
        let key = base + rng.below(span);
        let is_read = rng.bernoulli(0.5);
        let ticket = if is_read {
            conn.submit_read(&key, i)
        } else {
            conn.submit_write(&key, rng.uniform(0.0, 1_000.0), i)
        };
        in_flight.push_back((ticket, is_read));
    }
    for (ticket, was_read) in in_flight.drain(..) {
        if was_read {
            conn.wait_read(ticket);
        } else {
            conn.wait_write(ticket);
        }
    }
}

/// Aggregate ops/s for 8 logical clients over a pool of 2 sockets.
fn drive_pooled() -> f64 {
    let runtime = Runtime::launch(build_fleet(POOL_SHARDS)).expect("runtime launches");
    let (reactor, transports) = serve_loopback(&runtime, POOL_SOCKETS);
    let mut pool: ClientPool<u64, _> = ClientPool::with_window(transports, POOL_WINDOW);
    let started = Instant::now();
    let workers: Vec<_> = (0..POOL_LOGICAL)
        .map(|c| {
            let mut handle = pool.handle();
            thread::spawn(move || drive_worker(c, &mut handle))
        })
        .collect();
    for w in workers {
        w.join().expect("pooled worker");
    }
    let elapsed = started.elapsed().as_secs_f64();
    pool.shutdown().expect("pool drains");
    reactor.join();
    drop(runtime);
    (POOL_LOGICAL as u64 * POOL_OPS_PER_CLIENT) as f64 / elapsed
}

/// Aggregate ops/s for 8 logical clients with a dedicated socket each.
fn drive_per_client_sockets() -> f64 {
    let runtime = Runtime::launch(build_fleet(POOL_SHARDS)).expect("runtime launches");
    let (reactor, ends) = serve_loopback(&runtime, POOL_LOGICAL);
    let clients: Vec<_> = ends
        .into_iter()
        .map(|end| RemoteStoreClient::<u64, _>::with_window(end, POOL_WINDOW))
        .collect();
    let started = Instant::now();
    let workers: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(c, mut client)| {
            thread::spawn(move || {
                drive_worker(c, &mut client);
                client
            })
        })
        .collect();
    let mut drained = Vec::new();
    for w in workers {
        drained.push(w.join().expect("dedicated worker"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    for client in drained {
        client.shutdown().expect("clean shutdown");
    }
    reactor.join();
    drop(runtime);
    (POOL_LOGICAL as u64 * POOL_OPS_PER_CLIENT) as f64 / elapsed
}

/// Regenerate the pipelined-throughput table (window × shards sweep).
pub fn run() -> Vec<Table> {
    let mut table = Table::new(
        "Pipelined loopback throughput: Kops/s by window (rows) x shards (columns)",
        std::iter::once("window".to_string())
            .chain(SHARDS.iter().map(|s| format!("{s} shard(s)")))
            .chain(std::iter::once("vs window=1".to_string()))
            .collect(),
    );
    table.note("50/50 read/write mix through the full pipelined stack:");
    table.note("codec -> reactor pump -> ticketed runtime -> reactor harvest.");
    table.note("window=1 is the strict call-reply (v1/PR 4) baseline; the");
    table.note("acceptance bar is window>=8 strictly above it per column.");
    table.note("1-core hosts amortize hand-off cost, not true parallelism.");
    let mut baseline = vec![0.0f64; SHARDS.len()];
    for (wi, &window) in WINDOWS.iter().enumerate() {
        let mut row = vec![window.to_string()];
        let mut speedups = Vec::new();
        for (si, &shards) in SHARDS.iter().enumerate() {
            let ops_per_sec = drive(shards, window);
            if wi == 0 {
                baseline[si] = ops_per_sec;
            }
            speedups.push(ops_per_sec / baseline[si]);
            row.push(fmt_num(ops_per_sec / 1e3));
        }
        let avg: f64 = speedups.iter().sum::<f64>() / speedups.len() as f64;
        row.push(format!("{:.2}x", avg));
        table.push_row(row);
    }

    // The pooled smoke cell: multiplexing 8 logical clients over 2
    // pipelined sockets vs a window-8 socket per client. The acceptance
    // bar is parity — sticky pinning must not cost throughput on the
    // shared-socket deployment.
    let mut pooled_table = Table::new(
        "Pooled client smoke: 8 logical clients, Kops/s by deployment",
        vec!["deployment".into(), "sockets".into(), "Kops/s".into(), "vs dedicated".into()],
    );
    pooled_table.note("Same 50/50 mix, disjoint per-client key ranges, 2 shards;");
    pooled_table.note("each logical client keeps 4 of its own tickets in flight.");
    pooled_table.note("acceptance bar: pooled >= dedicated (window-8) parity.");
    let dedicated = drive_per_client_sockets();
    let pooled = drive_pooled();
    pooled_table.push_row(vec![
        "socket per client".into(),
        POOL_LOGICAL.to_string(),
        fmt_num(dedicated / 1e3),
        "1.00x".into(),
    ]);
    pooled_table.push_row(vec![
        "pooled".into(),
        POOL_SOCKETS.to_string(),
        fmt_num(pooled / 1e3),
        format!("{:.2}x", pooled / dedicated),
    ]);

    vec![table, pooled_table]
}
