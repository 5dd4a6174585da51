//! One run of one workload: setup → warm-up → timed phase → verify →
//! teardown, and — traced — the per-layer counters and the ladder.

use std::path::PathBuf;
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use apcache_shard::ShardedStore;
use apcache_spool::{Spool, StdFsIo};
use apcache_store::KeyMetrics;
use apcache_wire::RemoteError;

use crate::drive::{self, ClosedLoop, ConnResult, Phase, Tally, WireBytes};
use crate::expo;
use crate::gen::{initial_values, ConnGen, Op, Oracle};
use crate::ladder::{self, Class, LADDER_AGGREGATES};
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::pacing::Schedule;
use crate::procfs::{self, Threads, LOAD_THREAD_PREFIX};
use crate::server::{self, build_store, spool_config, Server};
use crate::stats::{median, Histogram};
use crate::trace::{self, Spans};
use crate::workloads::{Loop, Workload, WINDOWS};

/// Setup is run this many times and the median reported, so one slow
/// `fsync` or page fault does not decide `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Fresh connections timed from connect to first reply.
const ACCEPT_PROBES: usize = 21;
/// After the in-process warm-up has converged the store, each
/// connection carries this many untimed requests (the open loop: this
/// many seconds of its schedule) so the socket path is warm too.
const SOCKET_WARMUP_OPS: u64 = 1_000;
const SOCKET_WARMUP_SECS: u64 = 1;
/// Timed-phase spans kept per load thread (three per request).
const SPAN_LIMIT: usize = 30_000;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Smoke mode: a tenth of the warm-up, a 5 000-request ladder, 3 setups.
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Args {
    /// Timed-phase spans a load thread may keep: none unless tracing.
    fn span_limit(&self) -> usize {
        if self.trace {
            SPAN_LIMIT
        } else {
            0
        }
    }
}

pub struct Metric {
    pub def: &'static Def,
    pub value: f64,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for the human reader: host facts, sample counts, validity.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Server-side counters at one instant.
struct Counters {
    totals: KeyMetrics,
    per_shard_ops: Vec<u64>,
    per_shard_writes: Vec<u64>,
    /// Traced runs also scrape the exposition, and time the scrape.
    exposition: String,
    scrape_us: f64,
}

impl Counters {
    fn take(server: &Server, scrape: bool) -> Result<Counters, String> {
        let metrics = server.handle.metrics().map_err(|e| format!("metrics(): {e}"))?;
        let started = Instant::now();
        let exposition = if scrape {
            server.handle.render_exposition().map_err(|e| format!("scrape: {e}"))?
        } else {
            String::new()
        };
        let scrape_us = started.elapsed().as_secs_f64() * 1e6;
        let shard = |f: fn(&KeyMetrics) -> u64| {
            metrics.per_shard().iter().map(|m| f(m.totals())).collect::<Vec<u64>>()
        };
        Ok(Counters {
            totals: *metrics.merged().totals(),
            per_shard_ops: shard(|t| t.reads + t.writes),
            per_shard_writes: shard(|t| t.writes),
            exposition,
            scrape_us,
        })
    }
}

/// What the main thread saw while the load ran: thread accounting at
/// every window boundary, and (traced) the deepest mailbox it caught.
struct Observed {
    threads: Vec<Threads>,
    mailbox_depth_max: f64,
}

fn sleep_until(t: Instant) {
    thread::sleep(t.saturating_duration_since(Instant::now()));
}

fn observe(phase: &Phase, server: &Server) -> Result<Observed, String> {
    let mut threads = Vec::with_capacity(WINDOWS + 1);
    let mut mailbox_depth_max = 0.0f64;
    for boundary in 0..=WINDOWS {
        sleep_until(phase.boundary(boundary));
        threads.push(Threads::sample()?);
        // One scrape per traced window, as an operator's poller would.
        if boundary > 0 && phase.traced(boundary - 1) {
            let text = server.handle.render_exposition().map_err(|e| format!("scrape: {e}"))?;
            let depth = expo::max(&text, "apcache_mailbox_depth").unwrap_or(0.0);
            mailbox_depth_max = mailbox_depth_max.max(depth);
        }
    }
    Ok(Observed { threads, mailbox_depth_max })
}

/// The connections a workload's load generator holds.
enum Links {
    Open(drive::Counting<apcache_wire::TcpTransport>, drive::Counting<apcache_wire::TcpTransport>),
    Closed(Vec<server::Client>),
}

fn connect_all(server: &Server, workload: &Workload, bytes: &Arc<WireBytes>) -> Links {
    match workload.load {
        Loop::Open { .. } => {
            let (tx, rx) = drive::open_connection(server.addr, bytes);
            Links::Open(tx, rx)
        }
        Loop::Closed { connections, window } => Links::Closed(
            (0..connections).map(|_| server::connect(server.addr, window, bytes)).collect(),
        ),
    }
}

fn spawn_load<T: Send + 'static>(
    index: usize,
    body: impl FnOnce() -> T + Send + 'static,
) -> thread::JoinHandle<T> {
    thread::Builder::new()
        .name(format!("{LOAD_THREAD_PREFIX}-{index}"))
        .spawn(body)
        .expect("spawn a load thread")
}

/// Keeps a load thread alive (parked on the barrier) until the main
/// thread has taken its last `schedstat` sample: a thread that exits
/// takes its accounting with it. Waits on drop, so a panicking thread
/// still arrives and the main thread is never left waiting.
struct StayUntilSampled(Arc<Barrier>);

impl Drop for StayUntilSampled {
    fn drop(&mut self) {
        self.0.wait();
    }
}

fn join_load<T>(handle: thread::JoinHandle<T>) -> Result<T, String> {
    handle.join().map_err(|panic| {
        let text = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("(no message)");
        format!("a load thread stopped: {text}")
    })
}

struct Loaded {
    results: Vec<ConnResult>,
    observed: Observed,
    before: Counters,
}

#[allow(clippy::too_many_arguments)]
fn run_closed(
    args: &Args,
    server: &Server,
    clients: Vec<server::Client>,
    parts: Vec<(ConnGen, Oracle)>,
    window: usize,
    bytes: &Arc<WireBytes>,
    epoch: Instant,
) -> Result<Loaded, String> {
    let workload = args.workload;
    let conns = clients.len();
    let warmed = Arc::new(Barrier::new(conns + 1));
    let go = Arc::new(Barrier::new(conns + 1));
    let sampled = Arc::new(Barrier::new(conns + 1));
    let phase_cell: Arc<OnceLock<Phase>> = Arc::default();
    let mut handles = Vec::new();
    for (index, (client, (gen, oracle))) in clients.into_iter().zip(parts).enumerate() {
        let (warmed, go, phase_cell) = (warmed.clone(), go.clone(), phase_cell.clone());
        let (addr, bytes) = (server.addr, bytes.clone());
        let spans = Spans::new(epoch, args.span_limit(), index, conns);
        let stay = StayUntilSampled(sampled.clone());
        handles.push(spawn_load(index, move || -> Result<ConnResult, RemoteError> {
            let _stay = stay;
            let mut load = ClosedLoop::new(client, window, gen, oracle, spans);
            // A failed warm-up must still meet the barriers, or the
            // other threads would wait for ever.
            let warm = load
                .subscribe_hottest(workload.subscribe_hottest)
                .and_then(|()| load.warm_up(SOCKET_WARMUP_OPS));
            warmed.wait();
            go.wait();
            warm?;
            let phase = *phase_cell.get().expect("phase is set before go");
            let mut fresh = || server::connect(addr, window, &bytes);
            let reconnect: Option<&mut dyn FnMut() -> server::Client> =
                if workload.reconnect_each_window { Some(&mut fresh) } else { None };
            load.run(&phase, reconnect)?;
            Ok(load.finish())
        }));
    }
    warmed.wait();
    // Every connection is drained: the counters are exact here.
    let before = Counters::take(server, args.trace)?;
    let phase = Phase::new(Instant::now() + Duration::from_millis(2), args.seconds, args.trace);
    phase_cell.set(phase).ok().expect("phase is set once");
    go.wait();
    let observed = observe(&phase, server);
    sampled.wait();
    let mut results = Vec::new();
    for handle in handles {
        results.push(join_load(handle)?.map_err(|e| format!("connection failed: {e}"))?);
    }
    Ok(Loaded { results, observed: observed?, before })
}

#[allow(clippy::too_many_arguments)]
fn run_open(
    args: &Args,
    server: &Server,
    tx: drive::Counting<apcache_wire::TcpTransport>,
    rx: drive::Counting<apcache_wire::TcpTransport>,
    gen: ConnGen,
    oracle: Oracle,
    rate: u64,
    epoch: Instant,
) -> Result<Loaded, String> {
    let warmup_ops = rate * SOCKET_WARMUP_SECS;
    let requests = warmup_ops + rate * args.seconds;
    let schedule = Schedule::new(Instant::now() + Duration::from_millis(20), rate);
    let phase = Phase::new(schedule.due(warmup_ops), args.seconds, args.trace);
    let sender_spans = Spans::new(epoch, args.span_limit(), 0, 1);
    let tally = Tally::new(Spans::new(epoch, args.span_limit(), 0, 1));
    let (expect_tx, expect_rx) = std::sync::mpsc::channel();
    let sampled = Arc::new(Barrier::new(3));
    let (stay_sender, stay_receiver) =
        (StayUntilSampled(sampled.clone()), StayUntilSampled(sampled.clone()));
    let sender = spawn_load(0, move || {
        let _stay = stay_sender;
        drive::send_paced(
            tx,
            gen,
            oracle,
            expect_tx,
            schedule,
            requests,
            warmup_ops,
            phase,
            sender_spans,
        )
    });
    let receiver = spawn_load(1, move || {
        let _stay = stay_receiver;
        drive::receive(rx, expect_rx, schedule, requests, phase, tally)
    });
    sleep_until(phase.start);
    let before = Counters::take(server, args.trace);
    let observed = observe(&phase, server);
    sampled.wait();
    let sent = join_load(sender)?;
    let mut tally = join_load(receiver)?;
    tally.lateness = sent.lateness;
    tally.timed_requests = rate * args.seconds;
    tally.spans.absorb(sent.spans);
    let result = ConnResult { tally, gen: sent.gen, oracle: sent.oracle };
    Ok(Loaded { results: vec![result], observed: observed?, before: before? })
}

/// Per-window figures merged over the connections.
struct Windows {
    latency: Vec<Histogram>,
    aggregate: Vec<Histogram>,
    /// Seconds between each window's first and last completion.
    busy_secs: Vec<f64>,
}

impl Windows {
    fn merge(results: &[ConnResult]) -> Windows {
        let merged = |pick: fn(&drive::WindowStats) -> &Histogram| {
            (0..WINDOWS)
                .map(|w| {
                    let mut h = Histogram::default();
                    results.iter().for_each(|r| h.merge(pick(&r.tally.windows[w])));
                    h
                })
                .collect::<Vec<_>>()
        };
        Windows {
            latency: merged(|w| &w.latency),
            aggregate: merged(|w| &w.aggregate_latency),
            busy_secs: (0..WINDOWS)
                .map(|w| {
                    let first = results.iter().filter_map(|r| r.tally.windows[w].first_done).min();
                    let last = results.iter().filter_map(|r| r.tally.windows[w].last_done).max();
                    match (first, last) {
                        (Some(first), Some(last)) => (last - first).as_secs_f64(),
                        _ => 0.0,
                    }
                })
                .collect(),
        }
    }

    fn ops(&self, window: usize) -> f64 {
        self.latency[window].count() as f64
    }

    fn total_ops(&self) -> f64 {
        (0..WINDOWS).map(|w| self.ops(w)).sum()
    }

    /// Verified replies per second, between each window's first and
    /// last completion.
    fn ops_per_s(&self) -> Vec<f64> {
        (0..WINDOWS).map(|w| (self.ops(w) - 1.0).max(0.0) / self.busy_secs[w].max(1e-9)).collect()
    }

    /// The `p`-quantile of every window, in µs. The smoke mode's
    /// one-second windows are too thin for a p99 each, so `pooled`
    /// takes it over the whole phase instead.
    fn quantile_us(hists: &[Histogram], p: f64, pooled: bool) -> Result<Vec<f64>, String> {
        if pooled {
            let mut all = Histogram::default();
            hists.iter().for_each(|h| all.merge(h));
            return Ok(vec![all.percentile(p)? / 1_000.0]);
        }
        hists.iter().map(|h| h.percentile(p).map(|ns| ns / 1_000.0)).collect()
    }
}

fn us_per_op(ns: u64, ops: f64) -> f64 {
    ns as f64 / 1_000.0 / ops.max(1.0)
}

/// Bytes of every file under `dir`, and how many of them are log
/// segments (`seg-*`).
fn spool_usage(dir: &str) -> (u64, u64) {
    let (mut bytes, mut segments) = (0, 0);
    let mut stack = vec![PathBuf::from(dir)];
    while let Some(path) = stack.pop() {
        for entry in std::fs::read_dir(&path).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(meta) if meta.is_dir() => stack.push(entry.path()),
                Ok(meta) => {
                    bytes += meta.len();
                    segments += u64::from(entry.file_name().to_string_lossy().starts_with("seg-"));
                }
                Err(_) => {}
            }
        }
    }
    (bytes, segments)
}

/// The durable workload's ending: a simulated crash (the runtime was
/// shut down without a checkpoint, so the log holds every record since
/// the build-time snapshot), a timed recovery, and every key compared
/// with the last acknowledged write.
struct Recovered {
    secs: f64,
    spool_bytes: u64,
    segments: u64,
    shard0_records: u64,
    checked: u64,
    missing: u64,
}

fn crash_and_recover(
    dir: &str,
    results: &[ConnResult],
) -> Result<(ShardedStore<u64>, Recovered), String> {
    let (spool_bytes, segments) = spool_usage(dir);
    let shard0 = format!("{dir}/shard-0");
    let (spool, recovery) = Spool::open(StdFsIo::new(), &shard0, spool_config())
        .map_err(|e| format!("open {shard0}: {e}"))?;
    drop(spool);
    let started = Instant::now();
    let store = ShardedStore::<u64>::recover_with_config(dir, spool_config())
        .map_err(|e| format!("recover {dir}: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let (mut checked, mut missing) = (0, 0);
    for result in results {
        for (slot, key) in result.gen.keys().iter().enumerate() {
            checked += 1;
            if store.value(key) != Some(result.oracle.truth(slot)) {
                missing += 1;
            }
        }
    }
    let shard0_records = recovery.records.len() as u64;
    Ok((store, Recovered { secs, spool_bytes, segments, shard0_records, checked, missing }))
}

/// What the traced run does against the live server once the timed
/// phase is over: the accept probes and the ladder's upper rungs.
struct LiveLadder {
    accept_us: f64,
    sample: Vec<Op>,
    aggregates: Vec<Op>,
    rungs: ladder::LiveRungs,
    attempted: u64,
    failed: u64,
}

fn climb_live(
    server: &Server,
    first: &mut ConnResult,
    ladder_ops: usize,
    spans: &mut Spans,
    timer_ns: u64,
) -> LiveLadder {
    // accept: connect → first reply on a fresh connection.
    let (mut attempted, mut failed) = (0, 0);
    let mut probes = Vec::with_capacity(ACCEPT_PROBES);
    while probes.len() < ACCEPT_PROBES {
        let op = first.gen.next_op();
        let Op::Read { key, constraint, .. } = &op else { continue };
        let expect = first.oracle.on_submit(&op);
        let started = Instant::now();
        let mut client = server.connect(1);
        let reply = client.read(key, *constraint, 0);
        probes.push(started.elapsed().as_secs_f64() * 1e6);
        attempted += 1;
        failed += u64::from(!reply.is_ok_and(|r| expect.read_ok(&r)));
    }
    // The ladder sample: the workload's next point requests.
    let mut sample = Vec::with_capacity(ladder_ops);
    while sample.len() < ladder_ops {
        match first.gen.next_op() {
            Op::Aggregate { .. } => {}
            point => sample.push(point),
        }
    }
    let aggregates: Vec<Op> = (0..LADDER_AGGREGATES).map(|_| first.gen.next_aggregate()).collect();
    let rungs =
        ladder::live_rungs(server, &sample, &aggregates, &mut first.oracle, spans, timer_ns);
    LiveLadder { accept_us: median(&probes), sample, aggregates, rungs, attempted, failed }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let workload = args.workload;
    server::require_epoll()?;
    if args.seconds < WINDOWS as u64 {
        return Err(format!("--seconds must be at least {WINDOWS}: one second per window"));
    }
    let epoch = Instant::now();
    let conns = workload.connections();
    let warmup_ops = if args.quick { workload.warmup_ops / 10 } else { workload.warmup_ops };
    let ladder_ops = if args.quick { workload.ladder_ops.min(5_000) } else { workload.ladder_ops };
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let out_dir = args.out_dir.to_string_lossy().into_owned();
    // The spool lives inside the checkout (the benchmark writes nowhere
    // else), on whatever filesystem that is; its type is recorded.
    let spool_dir = format!("{out_dir}/spool-{}-{}", workload.name, std::process::id());
    let mut notes: Vec<String> = procfs::host_facts(&out_dir)
        .into_iter()
        .map(|(name, value)| format!("host.{name}: {value}"))
        .collect();

    // ---------------------------------------------------------- setup
    // Everything that happens before a request can be served: make the
    // inputs from the seed, build the store (and open its spool), launch
    // runtime and reactor, connect. Done several times; the last one is
    // the one the run uses.
    let bytes = Arc::<WireBytes>::default();
    let repeats = if args.quick { 3 } else { SETUP_REPEATS };
    let mut setup_secs = Vec::with_capacity(repeats);
    let mut server_setup_secs = Vec::with_capacity(repeats);
    let (mut parts, server, links) = loop {
        let _ = std::fs::remove_dir_all(&spool_dir);
        let started = Instant::now();
        let initial = initial_values(workload.keys, args.seed);
        let parts: Vec<(ConnGen, Oracle)> = (0..conns)
            .map(|conn| {
                let gen = ConnGen::new(workload, conn, conns, args.seed, &initial);
                let oracle = Oracle::new(&gen, &initial);
                (gen, oracle)
            })
            .collect();
        let inputs_made = Instant::now();
        let store =
            build_store(workload, args.seed, &initial, workload.durable.then_some(&*spool_dir));
        let server = Server::start(store);
        let links = connect_all(&server, workload, &bytes);
        setup_secs.push(started.elapsed().as_secs_f64());
        server_setup_secs.push(inputs_made.elapsed().as_secs_f64());
        if setup_secs.len() == repeats {
            break (parts, server, links);
        }
        drop(links);
        drop(server.stop());
    };

    // -------------------------------------------------------- warm-up
    // The workload's own requests, through the runtime's blocking verbs
    // in-process: widths converge and caches fill exactly as they would
    // over the socket, in a time that does not depend on the door.
    let (mut warm_attempted, mut warm_failed) = (0, 0);
    thread::scope(|scope| {
        let warming: Vec<_> = parts
            .iter_mut()
            .map(|(gen, oracle)| {
                let handle = server.handle.clone();
                scope.spawn(move || {
                    let ops: Vec<Op> =
                        (0..warmup_ops / conns as u64).map(|_| gen.next_op()).collect();
                    let mut unspanned = Spans::new(epoch, 0, 0, 1);
                    ladder::replay("warm_up", 0, &ops, oracle, &mut unspanned, 0, |op, seq| {
                        ladder::handle_call(&handle, op, seq)
                    })
                })
            })
            .collect();
        for thread in warming {
            let rung = thread.join().expect("warm-up thread");
            warm_attempted += rung.attempted;
            warm_failed += rung.failed;
        }
    });

    // ---------------------------------- socket warm-up + timed phase
    let loaded = match (links, &workload.load) {
        (Links::Closed(clients), Loop::Closed { window, .. }) => {
            run_closed(args, &server, clients, std::mem::take(&mut parts), *window, &bytes, epoch)?
        }
        (Links::Open(tx, rx), Loop::Open { rate }) => {
            let (gen, oracle) = parts.pop().expect("the open loop has one connection");
            run_open(args, &server, tx, rx, gen, oracle, *rate, epoch)?
        }
        _ => unreachable!("links are made from the workload's loop"),
    };
    let Loaded { mut results, observed, before } = loaded;
    let after = Counters::take(&server, args.trace)?;
    let rss_mb = procfs::vm_hwm_mib()?;
    let wire_sent = bytes.sent.load(std::sync::atomic::Ordering::Relaxed);
    let wire_received = bytes.received.load(std::sync::atomic::Ordering::Relaxed);

    let windows = Windows::merge(&results);
    let timed_ops = windows.total_ops();
    let timed_requests: u64 = results.iter().map(|r| r.tally.timed_requests).sum();
    let server_cpu = observed.threads[WINDOWS].server().since(&observed.threads[0].server());
    if server_cpu.run_ns == 0 {
        return Err("server threads show no CPU time in schedstat: thread accounting is \
                    unavailable here, refusing to print zeros"
            .into());
    }
    let cost = after.totals.total_cost() - before.totals.total_cost();
    let ops_per_s = windows.ops_per_s();
    let lat_p50 = Windows::quantile_us(&windows.latency, 0.50, false)?;
    let lat_p99 = Windows::quantile_us(&windows.latency, 0.99, args.quick)?;
    let cpu_per_op: Vec<f64> = (0..WINDOWS)
        .map(|w| {
            let cpu = observed.threads[w + 1].server().since(&observed.threads[w].server());
            us_per_op(cpu.run_ns, windows.ops(w))
        })
        .collect();
    notes.push(format!(
        "samples per window: {:?} (median window reported; p99 needs >= 1000)",
        (0..WINDOWS).map(|w| windows.ops(w) as u64).collect::<Vec<_>>()
    ));
    notes.push(format!("setup repeats, s: {setup_secs:.4?}"));
    notes.push(format!(
        "per window: ops/s {ops_per_s:.0?}, p50 us {lat_p50:.0?}, cpu us/op {cpu_per_op:.1?}"
    ));
    if let Loop::Open { rate } = workload.load {
        let worst = ops_per_s.iter().map(|r| (r / rate as f64 - 1.0).abs()).fold(0.0, f64::max);
        if worst > 0.01 {
            notes.push(format!(
                "BACKLOGGED: achieved rate is {:.1} % off the offered {rate} req/s in some window",
                worst * 100.0
            ));
        }
    }

    let mut values: Vec<(&'static str, f64)> = vec![
        ("setup_s", median(&setup_secs)),
        ("ops_per_s", median(&ops_per_s)),
        ("lat_p50_us", median(&lat_p50)),
        ("lat_p99_us", median(&lat_p99)),
        ("cpu_us_per_op", median(&cpu_per_op)),
        ("omega_per_kop", cost / (timed_requests as f64).max(1.0) * 1_000.0),
        ("rss_mb", rss_mb),
    ];

    // ------------------------------------- traced: counters and ladder
    let mut extra_attempted = warm_attempted;
    let mut extra_failed = warm_failed;
    let mut ladder_spans = Spans::new(epoch, usize::MAX, 0, 1);
    let timer_ns = ladder::timer_overhead_ns();
    let live = args
        .trace
        .then(|| climb_live(&server, &mut results[0], ladder_ops, &mut ladder_spans, timer_ns));

    // -------------------------------------------- teardown and verify
    let final_counters = Counters::take(&server, false)?;
    let store = server.stop();
    let cached_share = store.cached_len() as f64 / store.len().max(1) as f64;
    let mut recovered = None;
    let store = if workload.durable {
        drop(store); // the crash: no checkpoint was taken
        let (store, r) = crash_and_recover(&spool_dir, &results)?;
        extra_attempted += r.checked;
        extra_failed += r.missing;
        if r.shard0_records < final_counters.per_shard_writes[0] {
            return Err(format!(
                "shard 0's log holds {} records for {} acknowledged writes",
                r.shard0_records, final_counters.per_shard_writes[0]
            ));
        }
        notes.push(format!(
            "recovery: {:.3} s for {} acknowledged writes, {} of {} keys wrong; fsync figures \
             are this sandbox's, not a device's (the OS cache survives the crash)",
            r.secs, final_counters.totals.writes, r.missing, r.checked
        ));
        recovered = Some(r);
        store
    } else {
        store
    };

    if let Some(LiveLadder { accept_us, sample, aggregates, rungs: live, attempted, failed }) = live
    {
        extra_attempted += attempted;
        extra_failed += failed;
        let rungs = ladder::store_rungs(
            store,
            &sample,
            &aggregates,
            &mut results[0].oracle,
            &mut ladder_spans,
            timer_ns,
        );
        let (never_ns, always_ns) = ladder::spool_rungs(&out_dir, &mut ladder_spans, timer_ns)?;
        let wire = ladder::wire_rung(&sample, &live.replies, &mut ladder_spans);
        for rung in [
            &live.tcp,
            &live.loopback,
            &live.hop,
            &live.hop_aggregates,
            &rungs.shard,
            &rungs.shard_aggregates,
            &rungs.store,
        ] {
            extra_attempted += rung.attempted;
            extra_failed += rung.failed;
        }

        let whole = observed.threads[WINDOWS].since(&observed.threads[0]);
        let per_kop = |count: f64| count / (timed_requests as f64).max(1.0) * 1_000.0;
        let scraped = |name: &str| {
            let at = |c: &Counters| expo::total(&c.exposition, name).unwrap_or(0.0);
            per_kop(at(&after) - at(&before))
        };
        let reads = (after.totals.reads - before.totals.reads) as f64;
        let hits = (after.totals.cache_hits - before.totals.cache_hits) as f64;
        let shard_ops: Vec<f64> = after
            .per_shard_ops
            .iter()
            .zip(&before.per_shard_ops)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let mean_shard = shard_ops.iter().sum::<f64>() / shard_ops.len() as f64;
        let late = &results[0].tally.lateness;
        let gen_late_p99 = if late.count() > 0 { late.percentile(0.99)? / 1_000.0 } else { 0.0 };
        // Tracing is on in the even windows only: the odd windows of
        // the same run are the untraced figure.
        let primary: Vec<f64> = if matches!(workload.load, Loop::Open { .. }) {
            lat_p50.clone()
        } else {
            ops_per_s.clone()
        };
        let traced = median(&[primary[0], primary[2], primary[4]]);
        let untraced = (primary[1] + primary[3]) / 2.0;
        let overhead_pct = if matches!(workload.load, Loop::Open { .. }) {
            (traced - untraced) / untraced * 100.0
        } else {
            (untraced - traced) / untraced * 100.0
        };
        let agg_p50 = match Windows::quantile_us(&windows.aggregate, 0.50, args.quick) {
            Ok(per_window) => median(&per_window),
            Err(_) => 0.0, // the workload sends no aggregates
        };
        let pushes: u64 = results.iter().map(|r| r.tally.pushes).sum();
        let widths: f64 = results.iter().map(|r| r.tally.read_width_sum).sum();
        let answered: u64 = results.iter().map(|r| r.tally.reads).sum();
        let requests_all: u64 = results.iter().map(|r| r.tally.attempted).sum();
        let class = |rung: &ladder::Rung, c: Class| rung.median_ns(|x| x == c).unwrap_or(0.0);
        // Writes acknowledged since the build-time snapshot: the log
        // records a recovery replays.
        let writes = (final_counters.totals.writes as f64).max(1.0);
        let (recover_us, spool_bytes, segments, replay_rate) = match &recovered {
            Some(r) => (
                r.secs * 1e6 / writes,
                r.spool_bytes as f64 / writes,
                r.segments as f64,
                writes / r.secs,
            ),
            None => (0.0, 0.0, 0.0, 0.0),
        };
        let tcp = live.tcp.point_ns();
        let loopback = live.loopback.point_ns();
        let hop = live.hop.point_ns();
        let shard_call = rungs.shard.point_ns();
        let store_call = rungs.store.point_ns();
        let aggregates_run = rungs.shard_aggregates.samples.len().max(1) as f64;
        values.extend([
            ("agg_p50_us", agg_p50),
            ("benchmark.server_setup_ms", median(&server_setup_secs) * 1e3),
            ("recover_us_per_record", recover_us),
            ("wire.encode_req_ns", wire.encode_req_ns),
            ("wire.decode_req_ns", wire.decode_req_ns),
            ("wire.encode_resp_ns", wire.encode_resp_ns),
            ("wire.decode_resp_ns", wire.decode_resp_ns),
            ("wire.bytes_in_per_op", wire_received as f64 / requests_all.max(1) as f64),
            ("wire.bytes_out_per_op", wire_sent as f64 / requests_all.max(1) as f64),
            ("reactor.tcp_rtt_ns", tcp),
            ("reactor.loopback_rtt_ns", loopback),
            ("reactor.socket_self_ns", tcp - loopback),
            ("reactor.self_ns", loopback - hop),
            ("reactor.cpu_us_per_op", us_per_op(whole.reactor.run_ns, timed_ops)),
            ("reactor.runq_wait_us_per_op", us_per_op(whole.reactor.wait_ns, timed_ops)),
            ("reactor.ctxsw_per_op", whole.reactor.voluntary_switches as f64 / timed_ops.max(1.0)),
            ("reactor.wakeups_per_kop", scraped("apcache_reactor_wakeups_total")),
            ("reactor.coalesced_per_kop", scraped("apcache_push_frames_coalesced_total")),
            ("reactor.accept_us", accept_us),
            ("runtime.hop_ns", hop),
            ("runtime.self_ns", hop - shard_call),
            ("runtime.submit_ns", live.submit_ns),
            ("runtime.harvest_ns_per_op", live.harvest_ns_per_op),
            ("runtime.shard_cpu_us_per_op", us_per_op(whole.shard.run_ns, timed_ops)),
            ("runtime.shard_runq_wait_us_per_op", us_per_op(whole.shard.wait_ns, timed_ops)),
            ("runtime.mailbox_depth_max", observed.mailbox_depth_max),
            (
                "runtime.verb_latency_p50_us",
                expo::histogram_quantile(
                    &after.exposition,
                    "apcache_verb_latency_seconds",
                    &["read", "write", "aggregate"],
                    0.5,
                )
                .unwrap_or(0.0)
                    * 1e6,
            ),
            ("shard.call_ns", shard_call),
            ("shard.route_self_ns", shard_call - store_call),
            (
                "shard.imbalance",
                shard_ops.iter().copied().fold(0.0, f64::max) / mean_shard.max(1.0),
            ),
            ("store.read_hit_ns", class(&rungs.store, Class::ReadHit)),
            ("store.read_miss_ns", class(&rungs.store, Class::ReadMiss)),
            ("store.write_ns", class(&rungs.store, Class::Write)),
            ("store.write_escape_ns", class(&rungs.store, Class::WriteEscape)),
            ("store.hit_ratio", hits / reads.max(1.0)),
            ("store.vr_per_kop", per_kop((after.totals.vr_count - before.totals.vr_count) as f64)),
            ("store.qr_per_kop", per_kop((after.totals.qr_count - before.totals.qr_count) as f64)),
            ("store.served_width_mean", widths / answered.max(1) as f64),
            ("store.cached_share", cached_share),
            ("queries.aggregate_ns", rungs.shard_aggregates.median_ns(|_| true).unwrap_or(0.0)),
            (
                "queries.refreshed_per_aggregate",
                rungs.shard_aggregates.refreshed as f64 / aggregates_run,
            ),
            ("queries.rounds_per_aggregate", live.rounds_per_aggregate),
            ("push.events_per_kop", pushes as f64 / requests_all.max(1) as f64 * 1_000.0),
            ("spool.append_never_ns", never_ns),
            ("spool.append_always_ns", always_ns),
            ("spool.fsync_self_ns", always_ns - never_ns),
            ("spool.bytes_per_write", spool_bytes),
            ("spool.segments", segments),
            ("spool.replay_records_per_s", replay_rate),
            ("telemetry.scrape_us", after.scrape_us),
            ("telemetry.scrape_bytes", after.exposition.len() as f64),
            ("benchmark.gen_late_p99_us", gen_late_p99),
            ("benchmark.client_cpu_us_per_op", us_per_op(whole.load.run_ns, timed_ops)),
            ("benchmark.trace_overhead_pct", overhead_pct),
        ]);
        if late.count() > 0 {
            notes.push(format!(
                "generator lateness over {} requests: p50 {:.2} us, p99 {gen_late_p99:.2} us",
                late.count(),
                late.percentile(0.50)? / 1_000.0
            ));
        }
        if gen_late_p99 > median(&lat_p50) {
            notes.push("UNRESOLVED: generator lateness p99 exceeds lat_p50_us".into());
        }
        notes.push(format!("timer overhead subtracted from ladder spans: {timer_ns} ns"));

        let path = args.out_dir.join(format!("trace-{}.jsonl", workload.name));
        let mut sections: Vec<(&str, &Spans)> =
            results.iter().map(|r| ("timed", &r.tally.spans)).collect();
        sections.push(("ladder", &ladder_spans));
        let written = trace::write_file(&path, &sections)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let dropped: u64 = results.iter().map(|r| r.tally.spans.dropped).sum();
        notes.push(format!("{written} spans written to {} ({dropped} dropped)", path.display()));
    } else {
        drop(store);
    }
    let _ = std::fs::remove_dir_all(&spool_dir);

    let attempted = results.iter().map(|r| r.tally.attempted).sum::<u64>() + extra_attempted;
    let failed = results.iter().map(|r| r.tally.failed).sum::<u64>() + extra_failed;
    if args.trace {
        values.push(("failed_share", failed as f64 / attempted.max(1) as f64));
    }
    let defs: &[Def] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = defs
        .iter()
        .map(|def| {
            let value = values
                .iter()
                .find(|(name, _)| *name == def.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{} was not measured", def.name));
            Metric { def, value }
        })
        .collect();
    Ok(Report { attempted, failed, metrics, notes })
}
