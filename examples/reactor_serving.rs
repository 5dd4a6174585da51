//! Event-driven serving: hundreds of connections, a handful of threads.
//!
//! Launches an actor-per-shard `Runtime` and puts `serve_reactor` — the
//! poll/epoll readiness loop — in front of it on an ephemeral localhost
//! port. Two hundred clients connect at once and pipeline a window of
//! reads and writes each; the reactor multiplexes every socket over its
//! fixed worker pool (no thread per connection), batches completions,
//! and coalesces frames that become ready together into shared socket
//! writes. A final client scrapes the reactor's own counters off the
//! same port over plain HTTP and sends `Shutdown` to close the door.
//!
//! Run with: `cargo run --example reactor_serving`

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::Runtime;
use apcache::shard::{Constraint, InitialWidth, ShardedStoreBuilder};
use apcache::wire::{RemoteStoreClient, TcpTransport};

const CLIENTS: usize = 200;
const OPS_PER_CLIENT: u64 = 50;
const WINDOW: usize = 16;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sixteen sensors on four shards behind the actor runtime.
    let mut builder =
        ShardedStoreBuilder::new().shards(4).vnodes(64).initial_width(InitialWidth::Fixed(4.0));
    for i in 0..16u32 {
        builder = builder.source(format!("sensor/{i:02}"), 100.0 + f64::from(i));
    }
    let runtime = Runtime::launch(builder.build()?)?;
    let handle = runtime.handle();

    // The event-driven door: a fixed pool of poller-driven workers
    // (default: up to four) serves every connection this listener
    // accepts, with no thread per connection.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));
    println!("reactor serving on {addr} ({CLIENTS} clients incoming)");

    // Two hundred concurrent clients, each pipelining WINDOW ops deep.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || -> Result<f64, Box<dyn std::error::Error + Send + Sync>> {
                let mut client: RemoteStoreClient<String, _> =
                    RemoteStoreClient::with_window(TcpTransport::connect(addr)?, WINDOW);
                let key = format!("sensor/{:02}", c % 16);
                let mut tickets = Vec::with_capacity(WINDOW);
                let mut last = 0.0;
                for i in 0..OPS_PER_CLIENT {
                    if tickets.len() >= WINDOW {
                        for t in tickets.drain(..) {
                            client.wait_write(t)?;
                        }
                    }
                    tickets.push(client.submit_write(
                        &key,
                        100.0 + (c as f64) + (i as f64) * 0.25,
                        i,
                    )?);
                    if i % 10 == 9 {
                        for t in tickets.drain(..) {
                            client.wait_write(t)?;
                        }
                        last = client
                            .read(&key, Constraint::Absolute(2.0), i)?
                            .answer
                            .estimate()
                            .unwrap_or(f64::NAN);
                    }
                }
                for t in tickets.drain(..) {
                    client.wait_write(t)?;
                }
                drop(client); // plain disconnect: the reactor reaps the socket
                Ok(last)
            })
        })
        .collect();
    let mut served = 0usize;
    for w in workers {
        w.join().expect("client thread").expect("client trace");
        served += 1;
    }
    println!("{served} clients served their traces through the fixed worker pool");

    // The same port answers plain HTTP: scrape the reactor's counters.
    let mut scraper = TcpStream::connect(addr)?;
    write!(scraper, "GET /metrics HTTP/1.1\r\nHost: apcache\r\n\r\n")?;
    let mut response = String::new();
    scraper.read_to_string(&mut response)?;
    for series in [
        "apcache_push_frames_coalesced_total",
        "apcache_connections_open",
        "apcache_reactor_wakeups_total",
    ] {
        let line = response.lines().find(|l| l.starts_with(series)).unwrap_or("(series missing)");
        println!("scrape: {line}");
    }

    // One last client closes the front door; the runtime drains after.
    let closer: RemoteStoreClient<String, _> = RemoteStoreClient::new(TcpTransport::connect(addr)?);
    closer.shutdown()?;
    server.join().expect("server thread")?;
    let store = runtime.into_store()?;
    let metrics = store.metrics();
    let totals = metrics.merged().totals();
    println!(
        "drained: {} reads and {} writes served across the fleet ({} cache hits)",
        totals.reads, totals.writes, totals.cache_hits
    );
    Ok(())
}
