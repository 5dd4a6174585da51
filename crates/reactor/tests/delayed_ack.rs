//! A pipelined window over real TCP never waits on a delayed ACK. With
//! Nagle on at the server, a reply written while an earlier one is still
//! unacknowledged sits out the client's delayed-ACK timer (~40 ms on
//! Linux), so a closed loop stalls again and again.
//!
//! The only test in this binary, so no sibling test competes for the
//! CPU while replies are timed.

use std::collections::VecDeque;
use std::net::TcpListener;
use std::thread;
use std::time::{Duration, Instant};

use apcache_reactor::{serve_reactor, ReactorConfig};
use apcache_runtime::Runtime;
use apcache_shard::ShardedStoreBuilder;
use apcache_store::{Constraint, InitialWidth};
use apcache_wire::{RemoteStoreClient, TcpTransport, Ticket};

const KEYS: u64 = 64;
const WINDOW: usize = 32;
const READS: u64 = 20_000;
/// Below the delayed-ACK timer, far above a healthy reply.
const SLOW: Duration = Duration::from_millis(30);
/// Room for two window-sized hiccups on a loaded host.
const SLOW_ALLOWED: usize = 2 * WINDOW;

#[test]
fn a_pipelined_window_over_tcp_never_waits_on_a_delayed_ack() {
    let mut fleet = ShardedStoreBuilder::new().shards(2).initial_width(InitialWidth::Fixed(10.0));
    for k in 0..KEYS {
        fleet = fleet.source(k, k as f64);
    }
    let runtime = Runtime::launch(fleet.build().unwrap()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = runtime.handle();
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));

    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::with_window(TcpTransport::connect(addr).unwrap(), WINDOW);
    // A closed loop, as the benchmark drives one: settle the oldest
    // ticket, then submit one more.
    let started = Instant::now();
    let mut in_flight: VecDeque<(Ticket, u64, Instant)> = VecDeque::with_capacity(WINDOW);
    let mut waits = Vec::with_capacity(READS as usize);
    for seq in 0..READS + WINDOW as u64 {
        if in_flight.len() == WINDOW || seq >= READS {
            let (ticket, key, submitted) = in_flight.pop_front().unwrap();
            let read = client.wait_read(ticket).unwrap();
            waits.push(submitted.elapsed());
            assert!(read.answer.contains(key as f64), "key {key}");
        }
        if seq < READS {
            let key = seq % KEYS;
            let submitted = Instant::now();
            let ticket = client.submit_read(&key, Constraint::Exact, seq).unwrap();
            in_flight.push_back((ticket, key, submitted));
        }
    }
    let elapsed = started.elapsed();
    client.shutdown().unwrap();
    acceptor.join().unwrap().unwrap();
    runtime.shutdown().unwrap();

    let slow = waits.iter().filter(|&&wait| wait >= SLOW).count();
    let worst = waits.iter().max().unwrap();
    assert!(
        slow < SLOW_ALLOWED,
        "{slow} of {READS} replies took >= {SLOW:?} (worst {worst:?}, {elapsed:?} in all)"
    );
}
