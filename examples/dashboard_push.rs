//! Push-based dashboards: one volatile quote, four subscribers over
//! real TCP, each with a different *relative* precision requirement.
//!
//! Each dashboard subscribes to the same hot key with
//! `PushFilter::Violates(Constraint::Relative(ρ))`: the server streams a
//! push only when the cached interval becomes too wide to certify that
//! dashboard's ρ. A burst of escaping writes widens the interval step by
//! step (W ← W·(1+α) on every escape), so the tight ρ = 0.1 % dashboard
//! hears about nearly every change while the loose ρ = 20 % dashboard
//! stays quiet until the quote gets genuinely volatile — the paper's
//! value-initiated refresh, delivered only to the users whose precision
//! contract it breaks.
//!
//! Run with: `cargo run --example dashboard_push`

use std::net::TcpListener;
use std::thread;

use apcache::push::PushFilter;
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::Runtime;
use apcache::shard::ShardedStoreBuilder;
use apcache::store::{Constraint, InitialWidth};
use apcache::wire::{RemoteStoreClient, TcpTransport};

const KEY: &str = "quote/ACME";
const RHOS: [f64; 4] = [0.001, 0.01, 0.05, 0.2];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One hot key behind the full deployment: sharded store → actor
    // runtime → TCP front door.
    let runtime = Runtime::launch(
        ShardedStoreBuilder::new()
            .shards(1)
            .initial_width(InitialWidth::Fixed(0.2))
            .source(KEY.to_string(), 100.0)
            .build()?,
    )?;
    let handle = runtime.handle();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));
    println!("serving {KEY} on {addr}\n");

    // Four dashboards, four precision contracts, four TCP connections.
    let mut dashboards: Vec<(f64, RemoteStoreClient<String, TcpTransport>)> = Vec::new();
    for rho in RHOS {
        let mut client: RemoteStoreClient<String, TcpTransport> =
            RemoteStoreClient::new(TcpTransport::connect(addr)?);
        let filter = PushFilter::Violates(Constraint::Relative(rho));
        let (_sub, snapshot) = client.subscribe(&KEY.to_string(), filter, 0)?;
        println!(
            "dashboard rho={:>5.1}% subscribed; starting interval [{:.2}, {:.2}]",
            rho * 100.0,
            snapshot.lo(),
            snapshot.hi()
        );
        dashboards.push((rho, client));
    }

    // The feed: a burst of escaping writes. Every escape recenters the
    // interval AND widens it (W ← W·(1+α)), so the quote's certified
    // relative precision decays from 0.2 % toward tens of percent.
    let mut feed: RemoteStoreClient<String, TcpTransport> =
        RemoteStoreClient::new(TcpTransport::connect(addr)?);
    println!("\nburst: 14 escaping writes on {KEY} ...");
    let mut price = 100.0;
    let mut jump = 0.3;
    for t in 1..=14u64 {
        price += jump;
        jump *= 1.9; // each move bigger than the widened interval
        feed.write(&KEY.to_string(), price, t * 1_000)?;
    }

    // Each dashboard pumps its connection once (an always-satisfied read;
    // server-initiated push frames queued ahead of its response are
    // harvested with it), then drains its pushes.
    println!();
    for (rho, client) in &mut dashboards {
        client.read(&KEY.to_string(), Constraint::Absolute(f64::INFINITY), 15_000)?;
        let mut events = Vec::new();
        while let Some((_sub, event)) = client.poll_push() {
            events.push(event);
        }
        let widths: Vec<String> =
            events.iter().map(|e| format!("{:.2}", e.interval.width())).collect();
        println!(
            "dashboard rho={:>5.1}%: {:>2} pushes (violating widths: {})",
            *rho * 100.0,
            events.len(),
            if widths.is_empty() { "none".to_string() } else { widths.join(", ") }
        );
    }

    // Dashboards hang up (their subscriptions die with the connection);
    // the feed closes the front door.
    drop(dashboards);
    feed.shutdown()?;
    acceptor.join().expect("acceptor thread")?;
    let store = runtime.into_store()?;
    println!(
        "\nfinal {KEY}: value {:.2}, interval width {:.2}",
        store.value(&KEY.to_string()).unwrap(),
        store.cached_interval(&KEY.to_string(), 15_000).map(|iv| iv.width()).unwrap_or(f64::NAN)
    );
    Ok(())
}
