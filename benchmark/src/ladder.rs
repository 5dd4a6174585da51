//! The layer ladder: one sample of the workload's point requests
//! replayed at window 1 through each layer's public entry point in
//! turn, each rung enclosing the next —
//! `tcp_rtt ⊃ loopback_rtt ⊃ runtime_hop ⊃ shard_call ⊃ store_call` — so
//! a layer's self time is its rung minus the rung below. Every call is
//! judged by the oracle like any other request.

use std::time::Instant;

use apcache_core::Interval;
use apcache_reactor::Reactor;
use apcache_runtime::{Outcome, RuntimeHandle};
use apcache_shard::ShardedStore;
use apcache_spool::{Spool, StdFsIo};
use apcache_store::{Constraint, FsyncPolicy, ReadResult, SpoolConfig, WriteOutcome};
use apcache_wire::{
    decode_frame, frame_to_vec, loopback_streams, LoopbackStream, RemoteError, RemoteStoreClient,
    StreamTransport, Transport, WireMessage, WireResponse,
};

use crate::drive::{logical_now, request_of};
use crate::gen::{Op, Oracle};
use crate::server::{reactor_config, Server};
use crate::stats::median;
use crate::trace::Spans;

/// Spans are written for this many requests of each rung (every request
/// is timed and counts in the rung's median): five rungs of 100 000
/// spans are a 50 MB file, and on ext4 a dirty file that size slows the
/// spool's `fsync`s in the runs that follow.
const SPANNED_REQUESTS: u64 = 20_000;
/// Aggregates replayed on the rungs that take them.
pub const LADDER_AGGREGATES: usize = 1_000;
/// `Spool::append` calls per fsync policy (an fsync costs ~0.3 ms here).
const SPOOL_APPENDS_NEVER: usize = 20_000;
const SPOOL_APPENDS_ALWAYS: usize = 1_000;
/// Tickets outstanding when the harvest is timed, as the reactor's
/// window-32 clients leave them.
const HARVEST_BATCH: usize = 32;

/// What a layer answered, in the layer-neutral shape the oracle judges.
pub enum Reply {
    Read(ReadResult),
    Write(WriteOutcome),
    Aggregate { answer: Interval, refreshed: usize },
    Fault,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    ReadHit,
    ReadMiss,
    Write,
    WriteEscape,
    Aggregate,
}

/// One rung's timings, one entry per request, classified by outcome.
pub struct Rung {
    pub samples: Vec<(Class, u64)>,
    pub refreshed: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rung {
    /// Median ns of the samples `keep` selects; `None` if none.
    pub fn median_ns(&self, keep: impl Fn(Class) -> bool) -> Option<f64> {
        let picked: Vec<f64> =
            self.samples.iter().filter(|(c, _)| keep(*c)).map(|&(_, ns)| ns as f64).collect();
        (!picked.is_empty()).then(|| median(&picked))
    }

    /// Median ns over every point request: the rung's height.
    pub fn point_ns(&self) -> f64 {
        self.median_ns(|c| c != Class::Aggregate).unwrap_or(0.0)
    }
}

/// The cost of reading the clock twice, subtracted from every span so a
/// 70 ns store hit is not reported as a 110 ns one.
pub fn timer_overhead_ns() -> u64 {
    let samples: Vec<f64> = (0..10_001)
        .map(|_| {
            let start = Instant::now();
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) as u64
}

/// Replay `ops` through `call`, one at a time, timing and judging each.
pub fn replay(
    name: &'static str,
    depth: u64,
    ops: &[Op],
    oracle: &mut Oracle,
    spans: &mut Spans,
    timer_ns: u64,
    mut call: impl FnMut(&Op, u64) -> Reply,
) -> Rung {
    let mut rung =
        Rung { samples: Vec::with_capacity(ops.len()), refreshed: 0, attempted: 0, failed: 0 };
    for (seq, op) in ops.iter().enumerate() {
        let seq = seq as u64;
        let expect = oracle.on_submit(op);
        let start = Instant::now();
        let reply = std::hint::black_box(call(std::hint::black_box(op), seq));
        let end = Instant::now();
        if seq < SPANNED_REQUESTS {
            spans.record(name, seq, depth, depth.checked_sub(1), start, end);
        }
        let ns = ((end - start).as_nanos() as u64).saturating_sub(timer_ns);
        rung.attempted += 1;
        let (ok, class) = match &reply {
            Reply::Read(result) => (
                expect.read_ok(result),
                if result.refreshed { Class::ReadMiss } else { Class::ReadHit },
            ),
            Reply::Write(outcome) => (
                matches!(op, Op::Write { .. }),
                if outcome.escaped() { Class::WriteEscape } else { Class::Write },
            ),
            Reply::Aggregate { answer, refreshed } => {
                rung.refreshed += *refreshed as u64;
                (expect.aggregate_ok(answer), Class::Aggregate)
            }
            Reply::Fault => (false, Class::Aggregate),
        };
        if ok {
            rung.samples.push((class, ns));
        } else {
            rung.failed += 1;
        }
    }
    rung
}

fn remote_reply<T: Transport>(
    client: &mut RemoteStoreClient<u64, T>,
    op: &Op,
    seq: u64,
) -> Result<Reply, RemoteError> {
    let now = logical_now(seq);
    Ok(match op {
        Op::Read { key, constraint, .. } => Reply::Read(client.read(key, *constraint, now)?),
        Op::Write { key, value, .. } => Reply::Write(client.write(key, *value, now)?),
        Op::Aggregate { kind, keys, delta: d, .. } => {
            let out = client.aggregate(*kind, keys, Constraint::Absolute(*d), now)?;
            Reply::Aggregate { answer: out.answer, refreshed: out.refreshed.len() }
        }
    })
}

fn remote_call<T: Transport>(client: &mut RemoteStoreClient<u64, T>, op: &Op, seq: u64) -> Reply {
    match remote_reply(client, op, seq) {
        Ok(reply) => reply,
        Err(RemoteError::Remote(_)) => Reply::Fault,
        Err(wire) => panic!("ladder connection failed: {wire}"),
    }
}

pub fn handle_call(handle: &RuntimeHandle<u64>, op: &Op, seq: u64) -> Reply {
    let now = logical_now(seq);
    match op {
        Op::Read { key, constraint, .. } => {
            handle.read(key, *constraint, now).map_or(Reply::Fault, Reply::Read)
        }
        Op::Write { key, value, .. } => {
            handle.write(key, *value, now).map_or(Reply::Fault, Reply::Write)
        }
        Op::Aggregate { kind, keys, delta: d, .. } => {
            handle.aggregate(*kind, keys, Constraint::Absolute(*d), now).map_or(
                Reply::Fault,
                |out| Reply::Aggregate { answer: out.answer, refreshed: out.refreshed.len() },
            )
        }
    }
}

fn sharded_call(store: &mut ShardedStore<u64>, op: &Op, seq: u64) -> Reply {
    let now = logical_now(seq);
    match op {
        Op::Read { key, constraint, .. } => {
            store.read(key, *constraint, now).map_or(Reply::Fault, Reply::Read)
        }
        Op::Write { key, value, .. } => {
            store.write(key, *value, now).map_or(Reply::Fault, Reply::Write)
        }
        Op::Aggregate { kind, keys, delta: d, .. } => {
            store.aggregate(*kind, keys, Constraint::Absolute(*d), now).map_or(
                Reply::Fault,
                |out| Reply::Aggregate { answer: out.answer, refreshed: out.refreshed.len() },
            )
        }
    }
}

/// The rungs that need the live server, top down.
pub struct LiveRungs {
    pub tcp: Rung,
    pub loopback: Rung,
    pub hop: Rung,
    pub hop_aggregates: Rung,
    /// Aggregate rounds per aggregate, from the runtime's trace ring.
    pub rounds_per_aggregate: f64,
    pub submit_ns: f64,
    pub harvest_ns_per_op: f64,
    /// The runtime rung's replies, for the codec rung.
    pub replies: Vec<WireResponse<u64>>,
}

pub fn live_rungs(
    server: &Server,
    ops: &[Op],
    aggregates: &[Op],
    oracle: &mut Oracle,
    spans: &mut Spans,
    timer_ns: u64,
) -> LiveRungs {
    // tcp_rtt: a fresh connection at window 1 to the now idle server.
    let mut client = server.connect(1);
    let tcp = replay("tcp_rtt", 0, ops, oracle, spans, timer_ns, |op, seq| {
        remote_call(&mut client, op, seq)
    });
    drop(client);

    // loopback_rtt: the same reactor code in front of the same runtime,
    // fed by an in-process byte pipe instead of a socket.
    let reactor: Reactor<LoopbackStream> =
        Reactor::launch(&server.handle, reactor_config()).expect("loopback reactor launches");
    let (server_end, client_end) = loopback_streams();
    reactor.add_connection(server_end);
    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::with_window(StreamTransport::new(client_end), 1);
    let loopback = replay("loopback_rtt", 1, ops, oracle, spans, timer_ns, |op, seq| {
        remote_call(&mut client, op, seq)
    });
    drop(client);
    reactor.join();

    // runtime_hop: the blocking verbs, in-process (mailbox + completion).
    let handle = server.handle.clone();
    let mut replies = Vec::with_capacity(ops.len());
    let hop = replay("runtime_hop", 2, ops, oracle, spans, timer_ns, |op, seq| {
        let reply = handle_call(&handle, op, seq);
        match &reply {
            Reply::Read(result) => replies.push(WireResponse::Read(*result)),
            Reply::Write(outcome) => replies.push(WireResponse::Write(*outcome)),
            _ => {}
        }
        reply
    });
    let mut unspanned = Spans::new(Instant::now(), 0, 0, 1);
    let hop_aggregates =
        replay("runtime_hop", 2, aggregates, oracle, &mut unspanned, timer_ns, |op, seq| {
            handle_call(&handle, op, seq)
        });
    let rounds_per_aggregate = aggregate_rounds(&handle);
    let (submit_ns, harvest_ns_per_op) = submit_and_harvest(&handle, ops, oracle, timer_ns);
    LiveRungs {
        tcp,
        loopback,
        hop,
        hop_aggregates,
        rounds_per_aggregate,
        submit_ns,
        harvest_ns_per_op,
        replies,
    }
}

/// `AggregateRound` events per aggregate whose whole life (submit to
/// completion) is still in the trace ring.
fn aggregate_rounds(handle: &RuntimeHandle<u64>) -> f64 {
    use apcache_runtime::TraceKind;
    let events = handle.trace_dump();
    let of = |kind: TraceKind| {
        events.iter().filter(move |e| e.kind == kind && e.verb == "aggregate").map(|e| e.ticket)
    };
    let submitted: std::collections::HashSet<u64> = of(TraceKind::Submit).collect();
    let whole: std::collections::HashSet<u64> =
        of(TraceKind::Completion).filter(|t| submitted.contains(t)).collect();
    if whole.is_empty() {
        return 0.0;
    }
    of(TraceKind::AggregateRound).filter(|t| whole.contains(t)).count() as f64 / whole.len() as f64
}

/// Time inside `submit_read`, and `drain_ready_into` per completion
/// with [`HARVEST_BATCH`] outstanding — the reactor's two calls into
/// the runtime per request.
fn submit_and_harvest(
    handle: &RuntimeHandle<u64>,
    ops: &[Op],
    oracle: &mut Oracle,
    timer_ns: u64,
) -> (f64, f64) {
    let reads: Vec<&Op> = ops.iter().filter(|op| matches!(op, Op::Read { .. })).collect();
    let mut submit = Vec::new();
    let mut harvest = Vec::new();
    let mut completions = Vec::with_capacity(HARVEST_BATCH);
    for batch in reads.chunks_exact(HARVEST_BATCH).take(1_000) {
        let mut expects = std::collections::HashMap::new();
        for op in batch {
            let Op::Read { key, constraint, .. } = op else { unreachable!("filtered to reads") };
            let expect = oracle.on_submit(op);
            let start = Instant::now();
            let ticket = handle.submit_read(key, *constraint, 0).expect("known key");
            submit.push((start.elapsed().as_nanos() as u64).saturating_sub(timer_ns) as f64);
            expects.insert(ticket, expect);
        }
        while handle.completions().ready_len() < HARVEST_BATCH {
            std::thread::yield_now();
        }
        completions.clear();
        let start = Instant::now();
        let n = handle.completions().drain_ready_into(&mut completions, HARVEST_BATCH);
        let ns = (start.elapsed().as_nanos() as u64).saturating_sub(timer_ns);
        harvest.push(ns as f64 / n as f64);
        for completion in completions.drain(..) {
            let ok = match (&completion.outcome, expects.get(&completion.ticket)) {
                (Ok(Outcome::Read(result)), Some(expect)) => expect.read_ok(result),
                _ => false,
            };
            assert!(ok, "a pipelined runtime read failed the oracle");
        }
    }
    (median(&submit), median(&harvest))
}

/// The rungs below the runtime, on the store it handed back.
pub struct StoreRungs {
    pub shard: Rung,
    pub shard_aggregates: Rung,
    pub store: Rung,
}

pub fn store_rungs(
    mut store: ShardedStore<u64>,
    ops: &[Op],
    aggregates: &[Op],
    oracle: &mut Oracle,
    spans: &mut Spans,
    timer_ns: u64,
) -> StoreRungs {
    let shard = replay("shard_call", 3, ops, oracle, spans, timer_ns, |op, seq| {
        sharded_call(&mut store, op, seq)
    });
    let mut unspanned = Spans::new(Instant::now(), 0, 0, 1);
    let shard_aggregates =
        replay("shard_call", 3, aggregates, oracle, &mut unspanned, timer_ns, |op, seq| {
            sharded_call(&mut store, op, seq)
        });
    // store_call: straight into the PrecisionStore that owns the key.
    let (router, mut shards) = store.into_parts();
    let slots: Vec<usize> = ops
        .iter()
        .map(|op| match op {
            Op::Read { key, .. } | Op::Write { key, .. } => router.route(key) as usize,
            Op::Aggregate { .. } => unreachable!("the ladder sample holds point requests"),
        })
        .collect();
    let store = replay("store_call", 4, ops, oracle, spans, timer_ns, |op, seq| {
        let shard = &mut shards[slots[seq as usize]];
        let now = logical_now(seq);
        match op {
            Op::Read { key, constraint, .. } => {
                shard.read(key, *constraint, now).map_or(Reply::Fault, Reply::Read)
            }
            Op::Write { key, value, .. } => {
                shard.write(key, *value, now).map_or(Reply::Fault, Reply::Write)
            }
            Op::Aggregate { .. } => Reply::Fault,
        }
    });
    StoreRungs { shard, shard_aggregates, store }
}

/// `Spool::append` over the real filesystem in `dir`, without and with
/// an fsync per record: median ns per append under each policy.
pub fn spool_rungs(dir: &str, spans: &mut Spans, timer_ns: u64) -> Result<(f64, f64), String> {
    let payload = [0x5Au8; 24]; // the size of a logged u64-key write
    let mut run = |name: &'static str, fsync: FsyncPolicy, appends: usize| {
        let sub = format!("{dir}/ladder-{name}");
        let _ = std::fs::remove_dir_all(&sub);
        let cfg = SpoolConfig { fsync, ..SpoolConfig::default() };
        let (mut spool, _) =
            Spool::open(StdFsIo::new(), &sub, cfg).map_err(|e| format!("open {sub}: {e}"))?;
        let mut samples = Vec::with_capacity(appends);
        for seq in 0..appends {
            let start = Instant::now();
            spool.append(1, &payload).map_err(|e| format!("append to {sub}: {e}"))?;
            let end = Instant::now();
            if (seq as u64) < SPANNED_REQUESTS {
                spans.record(name, seq as u64, 5, Some(4), start, end);
            }
            samples.push(((end - start).as_nanos() as u64).saturating_sub(timer_ns) as f64);
        }
        drop(spool);
        let _ = std::fs::remove_dir_all(&sub);
        Ok::<f64, String>(median(&samples))
    };
    let never = run("spool_append_never", FsyncPolicy::Never, SPOOL_APPENDS_NEVER)?;
    let always = run("spool_append_always", FsyncPolicy::Always, SPOOL_APPENDS_ALWAYS)?;
    Ok((never, always))
}

/// Codec cost per frame on the sampled requests and their replies.
/// A frame takes ~20 ns, less than reading the clock, so each direction
/// is timed as one batch.
pub struct WireRung {
    pub encode_req_ns: f64,
    pub decode_req_ns: f64,
    pub encode_resp_ns: f64,
    pub decode_resp_ns: f64,
}

pub fn wire_rung(ops: &[Op], replies: &[WireResponse<u64>], spans: &mut Spans) -> WireRung {
    let requests: Vec<WireMessage<u64>> = ops
        .iter()
        .enumerate()
        .map(|(seq, op)| WireMessage::Request(request_of(op, seq as u64)))
        .collect();
    let responses: Vec<WireMessage<u64>> =
        replies.iter().cloned().map(WireMessage::Response).collect();
    let mut batch = |name: &'static str, messages: &[WireMessage<u64>]| {
        let start = Instant::now();
        let frames: Vec<Vec<u8>> = messages
            .iter()
            .enumerate()
            .map(|(id, msg)| frame_to_vec(id as u64 + 1, std::hint::black_box(msg)))
            .collect();
        let encoded = Instant::now();
        for frame in &frames {
            std::hint::black_box(decode_frame::<u64>(std::hint::black_box(frame)))
                .expect("own frames decode");
        }
        let decoded = Instant::now();
        let slot = if name == "wire.requests" { 6 } else { 7 };
        spans.record(name, 0, slot, None, start, decoded);
        let per = |from: Instant, to: Instant| {
            (to - from).as_nanos() as f64 / messages.len().max(1) as f64
        };
        (per(start, encoded), per(encoded, decoded))
    };
    let (encode_req_ns, decode_req_ns) = batch("wire.requests", &requests);
    let (encode_resp_ns, decode_resp_ns) = batch("wire.responses", &responses);
    WireRung { encode_req_ns, decode_req_ns, encode_resp_ns, decode_resp_ns }
}
