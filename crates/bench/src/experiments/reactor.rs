//! Reactor connection sweep: aggregate throughput by open-connection
//! count × pipelined window.
//!
//! Not a paper figure — this harness guards the event-driven
//! `apcache-reactor` serving core. The reactor holds every cell on its
//! fixed worker pool — the 10k cell *completing* with a bounded thread
//! count is half the acceptance bar. The other half is retention: the
//! reactor's window-32 throughput from 100 → 1 000 open
//! connections must hold ≥ [`RETENTION_FLOOR`]× (asserted here, and
//! re-checked hardware-independently by CI's perf guard from
//! `BENCH_reactor.json`).
//!
//! All connections are in-process [`loopback_streams`] pairs — the
//! reactor drives them through ready hooks instead of fds, so the 10k
//! cell needs no sockets, no rlimit bumps, and runs anywhere. A fixed
//! `DRIVERS` client threads deal ops round-robin over the
//! connections, each connection under the same windowed discipline
//! (see `OPS_PER_CONN_FLOOR`), so the sweep isolates what *open
//! connections* cost, not client-side scheduling.

use std::collections::VecDeque;
use std::thread;
use std::time::Instant;

use apcache_core::Rng;
use apcache_reactor::{Reactor, ReactorConfig};
use apcache_runtime::{Runtime, RuntimeConfig, DEFAULT_MAILBOX_CAPACITY};
use apcache_shard::{ShardedStore, ShardedStoreBuilder};
use apcache_store::{Constraint, InitialWidth};
use apcache_wire::{loopback_streams, LoopbackStream, RemoteStoreClient, StreamTransport, Ticket};

use crate::experiments::common::MASTER_SEED;
use crate::table::{fmt_num, Table};

const KEYS: u64 = 256;
const SHARDS: usize = 2;
const CONNS: [usize; 3] = [100, 1_000, 10_000];
const WINDOWS: [usize; 2] = [1, 32];
/// Client threads driving the connections (each deals ops round-robin
/// over its share, keeping `window` tickets in flight per connection).
const DRIVERS: usize = 8;
/// Shortest timed phase worth measuring: cells with few connections
/// run more ops per connection to reach it. Sized so the fastest cell
/// still times a few hundred milliseconds — the retention assert
/// compares two cells, and a sub-100ms phase is scheduler noise.
const MIN_CELL_OPS: u64 = 96_000;
/// Per-connection op floor for the 100/1k cells: every connection
/// wraps a window-32 pipeline at least three times, so the driver
/// discipline — fill the window, then settle one op per submit — is
/// identical across connection counts. (A cell whose per-connection
/// trace is *shorter* than the window would burst-submit without ever
/// blocking: a different client regime, not a server property, and it
/// would contaminate exactly the retention ratio this sweep asserts.)
const OPS_PER_CONN_FLOOR: u64 = 96;
/// The 10k cells prove scale — completion with a bounded thread count —
/// not peak rate: a short per-connection trace keeps them affordable.
const OPS_PER_CONN_AT_10K: u64 = 8;
/// Best-of repetitions per cell.
const REPS: usize = 3;

/// Ops each connection issues in a cell of `conns` connections.
fn ops_per_conn(conns: usize) -> u64 {
    if conns >= 10_000 {
        OPS_PER_CONN_AT_10K
    } else {
        OPS_PER_CONN_FLOOR.max(MIN_CELL_OPS / conns as u64)
    }
}
/// Reactor window-32 throughput retention floor from 100 → 1k conns.
pub const RETENTION_FLOOR: f64 = 0.8;

type Client = RemoteStoreClient<u64, StreamTransport<LoopbackStream>>;

fn build_fleet() -> ShardedStore<u64> {
    let mut b = ShardedStoreBuilder::new()
        .shards(SHARDS)
        .rng(Rng::seed_from_u64(MASTER_SEED))
        .initial_width(InitialWidth::Fixed(10.0));
    for k in 0..KEYS {
        b = b.source(k, (k % 977) as f64);
    }
    b.build().expect("fleet config valid")
}

/// Launch the fleet with the shard mailboxes provisioned for the
/// cell's offered concurrency: `conns × window` tickets can be in
/// flight at once, and every cell gets the same treatment. The default
/// capacity is tuned for small deployments; leaving it in place would
/// make the sweep measure queue-depth tuning (producers parking on
/// full mailboxes, the reactor deferring decodes) instead of what it
/// isolates — the cost of *open connections*.
fn launch_runtime(conns: usize, window: usize) -> Runtime<u64> {
    let mailbox_capacity = (conns * window).max(DEFAULT_MAILBOX_CAPACITY);
    Runtime::launch_with(
        build_fleet(),
        RuntimeConfig { mailbox_capacity, ..RuntimeConfig::default() },
    )
    .expect("runtime launches")
}

/// Drive one chunk of connections: each connection gets `ops_per_conn`
/// ops of a 50/50 read/write mix with up to `window` tickets in flight.
///
/// Ops are dealt round-robin — one per connection per round — so every
/// connection in the chunk stays concurrently active and the pipeline
/// drains once per *chunk*, not once per connection. Driving the
/// connections to completion one at a time would pay a tail round-trip
/// stall per connection, a driver-side cost that grows with the
/// connection count and would contaminate exactly the retention ratio
/// this sweep asserts.
fn drive_chunk(
    mut clients: Vec<Client>,
    ops_per_conn: u64,
    window: usize,
    seed: u64,
) -> Vec<Client> {
    let mut rng = Rng::seed_from_u64(MASTER_SEED ^ 0xEAC7 ^ seed);
    let mut in_flight: Vec<VecDeque<(Ticket, bool)>> =
        (0..clients.len()).map(|_| VecDeque::with_capacity(window)).collect();
    let settle = |client: &mut Client, (ticket, was_read): (Ticket, bool)| {
        if was_read {
            client.wait_read(ticket).expect("known key");
        } else {
            client.wait_write(ticket).expect("known key");
        }
    };
    for i in 0..ops_per_conn {
        for (client, window_q) in clients.iter_mut().zip(in_flight.iter_mut()) {
            if window_q.len() >= window {
                let head = window_q.pop_front().expect("non-empty");
                settle(client, head);
            }
            let key = rng.below(KEYS);
            let is_read = rng.bernoulli(0.5);
            let ticket = if is_read {
                client.submit_read(&key, Constraint::Absolute(25.0), i).expect("submit")
            } else {
                client.submit_write(&key, rng.uniform(0.0, 1_000.0), i).expect("submit")
            };
            window_q.push_back((ticket, is_read));
        }
    }
    for (client, window_q) in clients.iter_mut().zip(in_flight.iter_mut()) {
        for head in window_q.drain(..) {
            settle(client, head);
        }
    }
    clients
}

/// Split the clients across [`DRIVERS`] threads, run the mix, and
/// return aggregate ops/s. The clients come back alive — every
/// connection stays open for the whole timed phase.
fn drive_all(clients: Vec<Client>, ops_per_conn: u64, window: usize) -> (f64, Vec<Client>) {
    let chunk = clients.len().div_ceil(DRIVERS);
    let mut remaining = clients;
    let started = Instant::now();
    let mut workers = Vec::new();
    let mut seed = 0u64;
    while !remaining.is_empty() {
        let take = chunk.min(remaining.len());
        let mine: Vec<Client> = remaining.drain(..take).collect();
        seed += 1;
        workers.push(thread::spawn(move || drive_chunk(mine, ops_per_conn, window, seed)));
    }
    let mut clients = Vec::new();
    for w in workers {
        clients.extend(w.join().expect("driver thread"));
    }
    let total = ops_per_conn * clients.len() as u64;
    (total as f64 / started.elapsed().as_secs_f64(), clients)
}

/// Every connection is a loopback pair injected into one fixed worker
/// pool; readiness flows through the streams' ready hooks.
/// Also returns the process thread count sampled while every connection
/// was still open — the bound that proves no thread-per-connection.
fn drive_reactor(conns: usize, window: usize) -> (f64, Option<u64>) {
    let runtime = launch_runtime(conns, window);
    let handle = runtime.handle();
    let reactor: Reactor<LoopbackStream> =
        Reactor::launch(&handle, ReactorConfig::default()).expect("reactor launches");
    let clients: Vec<Client> = (0..conns)
        .map(|_| {
            let (server_end, client_end) = loopback_streams();
            reactor.add_connection(server_end);
            RemoteStoreClient::with_window(StreamTransport::new(client_end), window)
        })
        .collect();
    let (ops_per_sec, clients) = drive_all(clients, ops_per_conn(conns), window);
    let threads = process_threads();
    // EOF every connection first so the workers close them naturally;
    // join() then only has to observe the empty connection maps.
    drop(clients);
    reactor.join();
    drop(runtime);
    (ops_per_sec, threads)
}

/// Threads currently in this process (Linux); `None` elsewhere.
fn process_threads() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|n| n.trim().parse().ok())
}

/// One measured cell.
pub struct Cell {
    /// Open connections held for the whole timed phase.
    pub conns: usize,
    /// Per-connection pipelined window.
    pub window: usize,
    /// Aggregate throughput over the fixed total op count.
    pub ops_per_sec: f64,
}

/// The whole sweep plus the acceptance figures.
pub struct Sweep {
    /// Every measured cell, by connection count then window.
    pub cells: Vec<Cell>,
    /// Reactor window-32 throughput ratio, 1k conns over 100 conns.
    pub retention_100_to_1k: f64,
    /// Process thread count observed during the reactor 10k cell
    /// (Linux; the bound that proves no thread-per-connection).
    pub threads_at_10k: Option<u64>,
}

/// Run the sweep. Panics if the reactor's window-32 retention from
/// 100 → 1k connections falls below [`RETENTION_FLOOR`].
pub fn measure() -> Sweep {
    let mut threads_at_10k = None;
    let mut cells = Vec::new();
    for &conns in &CONNS {
        for &window in &WINDOWS {
            if window == 32 && (conns == 100 || conns == 1_000) {
                // The two retention cells are measured in paired reps
                // below so their ratio is noise-robust.
                continue;
            }
            // Best of REPS fresh runs: report the door's capability
            // rather than one run's scheduler luck.
            let mut ops_per_sec = 0.0f64;
            for _ in 0..REPS {
                let (rep, threads) = drive_reactor(conns, window);
                ops_per_sec = ops_per_sec.max(rep);
                if conns == 10_000 && threads_at_10k.is_none() {
                    // Sampled inside the cell, with all 10k connections
                    // still open: the reactor adds a fixed pool, nothing
                    // per-connection.
                    threads_at_10k = threads;
                }
            }
            eprintln!("  conns={conns} window={window}: {:.0} ops/s", ops_per_sec);
            cells.push(Cell { conns, window, ops_per_sec });
        }
    }
    // Retention is a ratio of two noisy measurements on a shared host:
    // a machine-wide slowdown deflates whichever cell it lands on, so
    // comparing each cell's independent best still swings the ratio.
    // Instead run the two cells back to back inside each rep and take
    // the best rep's ratio — correlated noise hits both sides of one
    // rep and divides out.
    let mut best_100 = 0.0f64;
    let mut best_1k = 0.0f64;
    let mut retention_100_to_1k = 0.0f64;
    for _ in 0..REPS {
        let (t100, _) = drive_reactor(100, 32);
        let (t1k, _) = drive_reactor(1_000, 32);
        best_100 = best_100.max(t100);
        best_1k = best_1k.max(t1k);
        retention_100_to_1k = retention_100_to_1k.max(t1k / t100);
    }
    eprintln!("  conns=100 window=32: {:.0} ops/s", best_100);
    eprintln!("  conns=1000 window=32: {:.0} ops/s", best_1k);
    cells.push(Cell { conns: 100, window: 32, ops_per_sec: best_100 });
    cells.push(Cell { conns: 1_000, window: 32, ops_per_sec: best_1k });
    cells.sort_by_key(|c| (c.conns, c.window));
    assert!(
        retention_100_to_1k >= RETENTION_FLOOR,
        "reactor window-32 throughput retention 100->1k fell to {retention_100_to_1k:.2}x \
         (floor {RETENTION_FLOOR}x)"
    );
    Sweep { cells, retention_100_to_1k, threads_at_10k }
}

/// Machine-readable record for the perf-trajectory trail.
pub fn to_json(sweep: &Sweep) -> String {
    let mut cells = String::new();
    for (i, c) in sweep.cells.iter().enumerate() {
        let sep = if i + 1 == sweep.cells.len() { "" } else { "," };
        cells.push_str(&format!(
            "    {{ \"conns\": {}, \"window\": {}, \"ops\": {}, \"ops_per_sec\": {} }}{sep}\n",
            c.conns,
            c.window,
            ops_per_conn(c.conns) * c.conns as u64,
            c.ops_per_sec
        ));
    }
    format!(
        concat!(
            "{{\n",
            "  \"bench\": \"reactor_sweep\",\n",
            "  \"ops_per_conn_floor\": {},\n",
            "  \"shards\": {},\n",
            "  \"keys\": {},\n",
            "  \"drivers\": {},\n",
            "  \"retention_floor\": {},\n",
            "  \"reactor_w32_retention_100_to_1k\": {},\n",
            "  \"threads_at_10k\": {},\n",
            "  \"cells\": [\n{}  ]\n",
            "}}\n"
        ),
        OPS_PER_CONN_FLOOR,
        SHARDS,
        KEYS,
        DRIVERS,
        RETENTION_FLOOR,
        sweep.retention_100_to_1k,
        sweep.threads_at_10k.map_or("null".to_string(), |n| n.to_string()),
        cells,
    )
}

/// Run the sweep and return the printable table plus the JSON record.
pub fn run() -> (Table, String) {
    let sweep = measure();
    let mut table = Table::new(
        "Reactor connection sweep: Kops/s by open connections (rows) x window (columns)",
        vec!["connections".into(), "w=1".into(), "w=32".into()],
    );
    table.note(format!(
        ">= {OPS_PER_CONN_FLOOR} windowed ops per connection (10k cells: {OPS_PER_CONN_AT_10K}),"
    ));
    table.note(format!("50/50 read/write over {KEYS} keys x {SHARDS} shards,"));
    table.note(format!(
        "{DRIVERS} driver threads; every connection held open for the whole timed phase;"
    ));
    table.note("shard mailboxes provisioned for conns x window in-flight tickets per cell.");
    table.note("fixed worker pool over loopback ready hooks, no fds.");
    table.note(format!(
        "acceptance: reactor w=32 retention 100->1k >= {RETENTION_FLOOR}x \
         (measured {:.2}x){}",
        sweep.retention_100_to_1k,
        sweep
            .threads_at_10k
            .map_or(String::new(), |n| format!("; {n} process threads during the 10k cell")),
    ));
    let lookup = |conns: usize, window: usize| {
        sweep
            .cells
            .iter()
            .find(|c| c.conns == conns && c.window == window)
            .map_or("-".to_string(), |c| fmt_num(c.ops_per_sec / 1e3))
    };
    for &conns in &CONNS {
        table.push_row(vec![conns.to_string(), lookup(conns, 1), lookup(conns, 32)]);
    }
    let json = to_json(&sweep);
    (table, json)
}
