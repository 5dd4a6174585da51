//! The worker pool is fixed: 10 000 open connections, each with a full
//! window in flight, run on exactly the threads an idle reactor has.
//!
//! The only test in this binary, so no sibling test's runtime or
//! reactor threads move the process-wide count.
#![cfg(target_os = "linux")]

use apcache_reactor::{Reactor, ReactorConfig};
use apcache_runtime::{Runtime, RuntimeConfig};
use apcache_shard::ShardedStoreBuilder;
use apcache_store::{Constraint, InitialWidth};
use apcache_wire::{loopback_streams, LoopbackStream, RemoteStoreClient, StreamTransport};

const CONNS: usize = 10_000;
const WINDOW: usize = 8;
const KEYS: u64 = 256;

fn process_threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let threads = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    threads.trim().parse().expect("thread count")
}

#[test]
fn ten_thousand_open_connections_add_no_threads() {
    let mut fleet = ShardedStoreBuilder::new().shards(2).initial_width(InitialWidth::Fixed(10.0));
    for k in 0..KEYS {
        fleet = fleet.source(k, k as f64);
    }
    // Every ticket of every window fits a mailbox, so no submit parks:
    // the whole offered load is in flight at the second sample.
    let config = RuntimeConfig { mailbox_capacity: CONNS * WINDOW, ..RuntimeConfig::default() };
    let runtime = Runtime::launch_with(fleet.build().unwrap(), config).unwrap();
    let reactor: Reactor<LoopbackStream> =
        Reactor::launch(&runtime.handle(), ReactorConfig::default()).unwrap();
    let before = process_threads();

    let mut clients: Vec<RemoteStoreClient<u64, _>> = (0..CONNS)
        .map(|_| {
            let (server_end, client_end) = loopback_streams();
            reactor.add_connection(server_end);
            RemoteStoreClient::with_window(StreamTransport::new(client_end), WINDOW)
        })
        .collect();
    let mut tickets = Vec::with_capacity(CONNS * WINDOW);
    for client in &mut clients {
        for _ in 0..WINDOW {
            let key = tickets.len() as u64 % KEYS;
            tickets.push(client.submit_read(&key, Constraint::Absolute(25.0), 0).unwrap());
        }
    }
    let during = process_threads();

    for (client, window) in clients.iter_mut().zip(tickets.chunks(WINDOW)) {
        for &ticket in window {
            client.wait_read(ticket).unwrap();
        }
    }
    // Every peer hangs up, so the workers close the connections
    // themselves and `join` only waits for the maps to empty.
    drop(clients);
    reactor.join();
    runtime.shutdown().unwrap();

    assert_eq!(before, during, "threads with {CONNS} connections open against an idle reactor");
}
