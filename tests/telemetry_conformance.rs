//! Telemetry conformance: the Prometheus-style text exposition must be
//! a faithful, machine-parseable projection of the store's own
//! accounting.
//!
//! * **Parseability** — every scrape parses with the hand-rolled
//!   exposition parser below (`# HELP` then `# TYPE` then samples, one
//!   family at a time; no duplicate series; histogram buckets cumulative
//!   with `+Inf == _count`).
//! * **Bit-equality** — after a randomized workload at shards ∈
//!   {1, 2, 4}, the `apcache_*_total` counter samples equal the drained
//!   [`StoreMetrics`] rollup *bit for bit*: values are rendered with
//!   Rust's shortest round-trip `Display`, so parsing the text recovers
//!   the exact `f64` the store holds.
//! * **Monotonicity** — counters and histogram buckets never decrease
//!   across scrapes of a live deployment.
//! * **Migration-following** — a ring flip (live `add_shard` /
//!   `remove_shard`) moves per-key counters with the keys, so the
//!   post-flip exposition still agrees with the post-flip rollup and
//!   never goes backwards.
//! * **HTTP door** — a raw-TCP `GET /metrics` against a
//!   `serve_reactor` port returns valid Prometheus text (0.0.4
//!   content type) whose counters equal the rollup; any other path is a
//!   404; frame peers on the same port are unaffected.

use std::collections::BTreeMap;
use std::io::{Read as IoRead, Write as IoWrite};
use std::net::{TcpListener, TcpStream};
use std::thread;

use apcache::core::cost::CostModel;
use apcache::core::{Rng, MS_PER_SEC};
use apcache::queries::AggregateKind;
use apcache::reactor::{serve_reactor, ReactorConfig};
use apcache::runtime::Runtime;
use apcache::shard::ShardedStoreBuilder;
use apcache::store::{Constraint, InitialWidth, KeyMetrics, PrecisionStore, StoreBuilder};
use apcache::telemetry::TraceKind;
use apcache::wire::{RemoteStoreClient, TcpTransport};

const N_KEYS: u32 = 16;
const TICKS: u64 = 60;
const VNODES: usize = 64;
const SEED: u64 = 0x0B5E_2001;

fn key(i: u32) -> String {
    format!("probe/{i:03}")
}

fn fleet(shards: usize) -> Runtime<String> {
    let mut b = ShardedStoreBuilder::new()
        .shards(shards)
        .vnodes(VNODES)
        .cost(CostModel::multiversion())
        .alpha(1.0)
        .rng(Rng::seed_from_u64(SEED))
        .initial_width(InitialWidth::Fixed(8.0));
    for i in 0..N_KEYS {
        b = b.source(key(i), 5.0 * f64::from(i));
    }
    Runtime::launch(b.build().expect("fleet config valid")).expect("launch")
}

/// An empty shard with the fleet's tuning, ready to receive migrated keys.
fn empty_shard(salt: u64) -> PrecisionStore<String> {
    StoreBuilder::new()
        .cost(CostModel::multiversion())
        .alpha(1.0)
        .rng(Rng::seed_from_u64(SEED ^ salt))
        .initial_width(InitialWidth::Fixed(8.0))
        .build()
        .expect("empty shard config valid")
}

/// Drive a deterministic randomized workload through the handle's
/// blocking verbs: per-key random walks, mixed-constraint reads, and
/// periodic aggregates. `epoch` offsets the clock so consecutive rounds
/// keep advancing time.
fn drive(handle: &apcache::runtime::RuntimeHandle<String>, seed: u64, epoch: u64) {
    let mut rng = Rng::seed_from_u64(seed);
    let mut values: Vec<f64> = (0..N_KEYS).map(|i| 5.0 * f64::from(i)).collect();
    for t in 1..=TICKS {
        let now = (epoch * TICKS + t) * MS_PER_SEC;
        for i in 0..N_KEYS {
            values[i as usize] += rng.normal_with(0.0, 3.0);
            handle.write(&key(i), values[i as usize], now).expect("write");
        }
        for _ in 0..3 {
            let i = rng.below(u64::from(N_KEYS)) as u32;
            let constraint = match rng.below(3) {
                0 => Constraint::Absolute(rng.uniform(1.0, 16.0)),
                1 => Constraint::Relative(0.05),
                _ => Constraint::Exact,
            };
            handle.read(&key(i), constraint, now).expect("read");
        }
        if t % 10 == 0 {
            let keys: Vec<String> = (0..N_KEYS / 2).map(key).collect();
            handle
                .aggregate(AggregateKind::Sum, &keys, Constraint::Absolute(100.0), now)
                .expect("aggregate");
        }
    }
}

// ---------------------------------------------------------------------
// The hand-rolled exposition parser.
// ---------------------------------------------------------------------

/// One parsed scrape: declared family kinds plus every sample, keyed by
/// its full series identity (`name{labels}` exactly as rendered).
#[derive(Debug, Default)]
struct Scrape {
    types: BTreeMap<String, String>,
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parse a text exposition, enforcing the format invariants:
    /// `# HELP` immediately before `# TYPE`, samples only under an
    /// announced family, no duplicate series, and every value a valid
    /// `f64`.
    fn parse(text: &str) -> Scrape {
        let mut scrape = Scrape::default();
        let mut announced: Option<String> = None;
        let mut pending_help: Option<String> = None;
        for (idx, line) in text.lines().enumerate() {
            let n = idx + 1;
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().expect("HELP names a family").to_string();
                assert!(!rest[name.len()..].trim().is_empty(), "line {n}: empty HELP text");
                pending_help = Some(name);
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().expect("TYPE names a family").to_string();
                let kind = parts.next().expect("TYPE declares a kind").to_string();
                assert!(
                    matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                    "line {n}: unknown kind {kind}"
                );
                assert_eq!(
                    pending_help.take().as_deref(),
                    Some(name.as_str()),
                    "line {n}: TYPE without immediately preceding HELP"
                );
                assert!(
                    scrape.types.insert(name.clone(), kind).is_none(),
                    "line {n}: family {name} announced twice"
                );
                announced = Some(name);
                continue;
            }
            assert!(!line.starts_with('#'), "line {n}: unknown comment form: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample is `series value`");
            let base = series.split('{').next().unwrap();
            let family = announced.as_deref().expect("sample before any TYPE");
            // Histogram samples hang off their family's base name.
            let owner = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    base.strip_suffix(suffix).filter(|stripped| {
                        *stripped == family && scrape.types[family] == "histogram"
                    })
                })
                .unwrap_or(base);
            assert_eq!(owner, family, "line {n}: sample {series} outside its family block");
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("line {n}: bad value"));
            assert!(
                scrape.samples.insert(series.to_string(), value).is_none(),
                "line {n}: duplicate series {series}"
            );
        }
        assert!(pending_help.is_none(), "trailing HELP without TYPE");
        scrape.check_histograms();
        scrape
    }

    /// Every histogram family: buckets cumulative in `le` order, and the
    /// `+Inf` bucket equal to `_count`.
    fn check_histograms(&self) {
        for (family, kind) in &self.types {
            if kind != "histogram" {
                continue;
            }
            // Group bucket series by their non-`le` label set.
            let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
            for (series, value) in &self.samples {
                let Some(labels) = series
                    .strip_prefix(&format!("{family}_bucket{{"))
                    .and_then(|rest| rest.strip_suffix('}'))
                else {
                    continue;
                };
                let mut le = None;
                let rest: Vec<&str> = labels
                    .split(',')
                    .filter(|part| match part.strip_prefix("le=\"") {
                        Some(bound) => {
                            let bound = bound.strip_suffix('"').expect("quoted le");
                            le = Some(if bound == "+Inf" {
                                f64::INFINITY
                            } else {
                                bound.parse().expect("numeric le")
                            });
                            false
                        }
                        None => true,
                    })
                    .collect();
                groups
                    .entry(rest.join(","))
                    .or_default()
                    .push((le.expect("bucket has le"), *value));
            }
            for (labels, mut buckets) in groups {
                buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut prev = 0.0;
                for (le, count) in &buckets {
                    assert!(
                        *count >= prev,
                        "{family}{{{labels}}}: bucket le={le} decreases ({count} < {prev})"
                    );
                    prev = *count;
                }
                let (last_le, last) = buckets.last().expect("at least +Inf");
                assert!(last_le.is_infinite(), "{family}{{{labels}}}: no +Inf bucket");
                let count_series = if labels.is_empty() {
                    format!("{family}_count")
                } else {
                    format!("{family}_count{{{labels}}}")
                };
                assert_eq!(
                    self.samples.get(&count_series),
                    Some(last),
                    "{family}{{{labels}}}: +Inf bucket != _count"
                );
            }
        }
    }

    fn get(&self, series: &str) -> f64 {
        *self.samples.get(series).unwrap_or_else(|| panic!("series {series} missing from scrape"))
    }
}

/// Assert the scrape's store counter families are bit-equal to a drained
/// rollup's totals.
fn assert_matches_rollup(scrape: &Scrape, t: &KeyMetrics) {
    assert_eq!(scrape.get("apcache_reads_total").to_bits(), (t.reads as f64).to_bits());
    assert_eq!(scrape.get("apcache_cache_hits_total").to_bits(), (t.cache_hits as f64).to_bits());
    assert_eq!(scrape.get("apcache_writes_total").to_bits(), (t.writes as f64).to_bits());
    assert_eq!(
        scrape.get("apcache_refreshes_total{kind=\"qr\"}").to_bits(),
        (t.qr_count as f64).to_bits()
    );
    assert_eq!(
        scrape.get("apcache_refreshes_total{kind=\"vr\"}").to_bits(),
        (t.vr_count as f64).to_bits()
    );
    assert_eq!(
        scrape.get("apcache_refresh_cost_total{kind=\"qr\"}").to_bits(),
        t.qr_cost.to_bits()
    );
    assert_eq!(
        scrape.get("apcache_refresh_cost_total{kind=\"vr\"}").to_bits(),
        t.vr_cost.to_bits()
    );
}

// ---------------------------------------------------------------------
// The suites.
// ---------------------------------------------------------------------

#[test]
fn exposition_agrees_bitwise_with_drained_rollup_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        let runtime = fleet(shards);
        let handle = runtime.handle();
        drive(&handle, SEED ^ shards as u64, 0);
        let scrape = Scrape::parse(&handle.render_exposition().expect("scrape"));
        let gathered = handle.metrics().expect("metrics");
        assert_matches_rollup(&scrape, gathered.merged().totals());
        // The counter families carry the declared kind.
        for family in [
            "apcache_reads_total",
            "apcache_cache_hits_total",
            "apcache_writes_total",
            "apcache_refreshes_total",
            "apcache_refresh_cost_total",
            "apcache_pushes_total",
        ] {
            assert_eq!(scrape.types.get(family).map(String::as_str), Some("counter"), "{family}");
        }
        assert_eq!(
            scrape.types.get("apcache_verb_latency_seconds").map(String::as_str),
            Some("histogram"),
            "shards={shards}"
        );
        runtime.shutdown().expect("shutdown");
    }
}

#[test]
fn counters_and_histograms_are_monotone_across_scrapes() {
    let runtime = fleet(2);
    let handle = runtime.handle();
    drive(&handle, SEED ^ 0xA, 0);
    let first = Scrape::parse(&handle.render_exposition().expect("scrape"));
    drive(&handle, SEED ^ 0xB, 1);
    let second = Scrape::parse(&handle.render_exposition().expect("scrape"));
    let mut compared = 0usize;
    for (series, value) in &first.samples {
        let base = series.split('{').next().unwrap();
        let monotone = base.ends_with("_total")
            || base.ends_with("_bucket")
            || base.ends_with("_sum")
            || base.ends_with("_count");
        if !monotone {
            continue; // gauges may go either way
        }
        let later = second.get(series);
        assert!(later >= *value, "{series} went backwards: {later} < {value}");
        compared += 1;
    }
    assert!(compared > 30, "expected a broad monotone surface, compared only {compared}");
    // The second round really moved the needle somewhere.
    assert!(second.get("apcache_writes_total") > first.get("apcache_writes_total"));
    runtime.shutdown().expect("shutdown");
}

#[test]
fn counters_survive_a_ring_flip() {
    let mut runtime = fleet(2);
    let handle = runtime.handle();
    drive(&handle, SEED ^ 0xC, 0);
    let before = Scrape::parse(&handle.render_exposition().expect("scrape"));
    let pre_flip = handle.metrics().expect("metrics");
    let pre_flip = *pre_flip.merged().totals();

    // Grow, then shrink back: every resident key migrates at least once
    // (grow remaps a subset; shrink remaps the retired shard's whole
    // residency). Per-key counters travel inside the migrated KeyState.
    let new_id = runtime.add_shard(empty_shard(0xF1)).expect("grow");
    let mid = Scrape::parse(&handle.render_exposition().expect("scrape"));
    assert_matches_rollup(&mid, &pre_flip);
    runtime.remove_shard(new_id).expect("shrink");

    let after = Scrape::parse(&handle.render_exposition().expect("scrape"));
    assert_matches_rollup(&after, &pre_flip);
    for series in [
        "apcache_reads_total",
        "apcache_writes_total",
        "apcache_refreshes_total{kind=\"qr\"}",
        "apcache_refreshes_total{kind=\"vr\"}",
    ] {
        assert_eq!(after.get(series).to_bits(), before.get(series).to_bits(), "{series}");
    }
    // And the deployment still serves + accounts correctly post-flip.
    drive(&handle, SEED ^ 0xD, 1);
    let settled = Scrape::parse(&handle.render_exposition().expect("scrape"));
    let regathered = handle.metrics().expect("metrics");
    assert_matches_rollup(&settled, regathered.merged().totals());
    runtime.shutdown().expect("shutdown");
}

#[test]
fn trace_ring_records_the_request_lifecycle() {
    let runtime = fleet(1);
    let handle = runtime.handle();
    handle.write(&key(0), 1.0, MS_PER_SEC).expect("write");
    handle.read(&key(0), Constraint::Exact, MS_PER_SEC).expect("read");
    let events = handle.trace_dump();
    for kind in [TraceKind::Submit, TraceKind::Dispatch, TraceKind::Completion] {
        assert!(
            events.iter().any(|e| e.kind == kind && e.verb == "read"),
            "no {kind:?} event for the read: {events:?}"
        );
    }
    // Events are in recording order with strictly increasing sequence.
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq);
    }
    runtime.shutdown().expect("shutdown");
}

/// The acceptance path: a plain-HTTP scraper and frame-protocol clients
/// share one `serve_reactor` port, and the scrape agrees with the
/// drained rollup bit for bit.
#[test]
fn http_get_metrics_on_the_serving_port_matches_rollup() {
    let runtime = fleet(2);
    let handle = runtime.handle();
    let stats_handle = runtime.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let acceptor = thread::spawn(move || serve_reactor(listener, handle, ReactorConfig::default()));

    // Frame traffic first, so the counters are interesting.
    let mut client: RemoteStoreClient<String, _> =
        RemoteStoreClient::new(TcpTransport::connect(addr).expect("connect"));
    for t in 1..=20u64 {
        let now = t * MS_PER_SEC;
        client.write(&key(0), 3.0 * t as f64, now).expect("write");
        client.read(&key(0), Constraint::Absolute(2.0), now).expect("read");
        client.read(&key(1), Constraint::Exact, now).expect("read");
    }

    // An off-the-shelf scraper: raw TCP, plain HTTP/1.1.
    let body = {
        let mut sock = TcpStream::connect(addr).expect("connect http");
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: apcache\r\nAccept: text/plain\r\n\r\n")
            .expect("send request");
        let mut response = String::new();
        sock.read_to_string(&mut response).expect("read response");
        let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "status line: {head}");
        let content_type = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .expect("content type present");
        assert_eq!(content_type, "text/plain; version=0.0.4; charset=utf-8");
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content length present")
            .parse()
            .expect("numeric length");
        assert_eq!(length, body.len(), "Content-Length disagrees with body");
        body.to_string()
    };
    let scrape = Scrape::parse(&body);
    let drained = stats_handle.metrics().expect("metrics");
    assert_matches_rollup(&scrape, drained.merged().totals());
    // The wire layer's own series are on the same page.
    assert!(scrape.samples.contains_key("apcache_wire_frames_total{dir=\"in\"}"));
    assert!(scrape.types.contains_key("apcache_http_scrapes_total"));

    // Any other path is refused without touching the frame protocol.
    {
        let mut sock = TcpStream::connect(addr).expect("connect http");
        sock.write_all(b"GET /healthz HTTP/1.1\r\nHost: apcache\r\n\r\n").expect("send");
        let mut response = String::new();
        sock.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 404 Not Found\r\n"), "{response}");
    }

    // The frame client on the shared port is unaffected by the scrapes.
    client.read(&key(0), Constraint::Exact, 21 * MS_PER_SEC).expect("read after scrape");
    client.shutdown().expect("shutdown frame client");
    acceptor.join().expect("acceptor").expect("serve_reactor");
    runtime.shutdown().expect("runtime shutdown");
}
