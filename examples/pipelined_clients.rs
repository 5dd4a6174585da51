//! Pipelined serving: tickets and completion queues, locally and over
//! the wire.
//!
//! Part 1 drives the actor runtime's ticketed surface directly: a single
//! thread submits a burst of reads, writes, and an aggregate — each
//! `submit_*` returns immediately with a `Ticket` — then harvests the
//! `Completion`s out of order from the handle's queue. Part 2 runs the
//! same idea across a real TCP socket: a `RemoteStoreClient` with an
//! in-flight window keeps many requests on the wire at once, and the
//! pipelined server (`serve_reactor`) answers them as the shard
//! actors finish, correlated by the frame header's request id.
//!
//! Run with: `cargo run --example pipelined_clients`

use std::net::TcpListener;
use std::thread;

use apcache::queries::AggregateKind;
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::{Outcome, Runtime};
use apcache::shard::{Constraint, InitialWidth, ShardedStoreBuilder};
use apcache::wire::{RemoteStoreClient, TcpTransport};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sixteen sensors on four shard actors.
    let mut builder =
        ShardedStoreBuilder::new().shards(4).vnodes(64).initial_width(InitialWidth::Fixed(4.0));
    for i in 0..16u32 {
        builder = builder.source(format!("sensor/{i:02}"), 100.0 + f64::from(i));
    }
    let runtime = Runtime::launch(builder.build()?)?;

    // ---- Part 1: one thread, many in-flight tickets -----------------
    let handle = runtime.handle();
    let mut tickets = Vec::new();
    for i in 0..16u32 {
        let key = format!("sensor/{i:02}");
        tickets.push(handle.submit_write(&key, 100.0 + f64::from(i) * 1.5, 1_000)?);
        tickets.push(handle.submit_read(&key, Constraint::Absolute(6.0), 1_000)?);
    }
    let keys: Vec<String> = (0..16u32).map(|i| format!("sensor/{i:02}")).collect();
    let sum =
        handle.submit_aggregate(AggregateKind::Sum, &keys, Constraint::Absolute(24.0), 1_000)?;
    println!("submitted {} tickets without blocking once", tickets.len() + 1);
    // Harvest everything out of order; the aggregate's probe/refine
    // rounds advance as part of the harvesting.
    let (mut reads, mut writes) = (0, 0);
    while let Some(completion) = handle.wait() {
        match completion.outcome? {
            Outcome::Read(_) => reads += 1,
            Outcome::Write(_) => writes += 1,
            Outcome::Aggregate(out) => {
                println!("SUM of all sensors = {} (ticket {})", out.answer, completion.ticket.0)
            }
            // No metrics/subscription tickets were submitted above.
            other => println!("unexpected completion: {other:?}"),
        }
    }
    println!("harvested {reads} reads + {writes} writes, queue drained");
    let _ = sum; // settled through wait() like everything else

    // ---- Part 2: the same pipeline over a TCP socket ----------------
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let door_handle = runtime.handle();
    let acceptor =
        thread::spawn(move || serve_reactor(listener, door_handle, ReactorConfig::default()));

    const TICKS: u64 = 100;
    const WINDOW: usize = 16;
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::with_window(TcpTransport::connect(addr)?, WINDOW);
    let mut escapes = 0u64;
    for t in 1..=TICKS {
        // Fill the window with this tick's writes, then harvest them all:
        // sixteen requests ride the connection concurrently instead of
        // sixteen ping-pong round trips.
        let mut in_flight = Vec::with_capacity(16);
        for (j, key) in keys.iter().enumerate() {
            let wobble = ((t + j as u64) as f64 / 7.0).sin() * 9.0;
            in_flight.push(client.submit_write(key, 100.0 + j as f64 + wobble, 2_000 + t)?);
        }
        for ticket in in_flight {
            escapes += client.wait_write(ticket)?.refreshes as u64;
        }
        if t % 50 == 0 {
            let sum = client.aggregate(
                AggregateKind::Sum,
                &keys,
                Constraint::Absolute(20.0),
                2_000 + t,
            )?;
            println!("t={t}: SUM = {} ({} exact fetches)", sum.answer, sum.refreshed.len());
        }
    }
    println!("wire client: {escapes} write escapes across {TICKS} ticks at window {WINDOW}");
    let metrics = client.metrics()?;
    println!(
        "remote metrics: {} writes, {} reads, cost {:.1}",
        metrics.totals().writes,
        metrics.totals().reads,
        metrics.totals().total_cost()
    );
    client.shutdown()?;
    acceptor.join().expect("acceptor thread")?;

    // The door is closed; the runtime drains and hands the fleet back.
    let store = runtime.into_store()?;
    println!("drained fleet: {} keys resident", store.cached_len());
    Ok(())
}
