//! The load generators: at most two threads and two connections, fixed,
//! so numbers compare across runs and hosts. A closed loop rides the
//! product's own pipelined client; the open loop splits one connection
//! into a pacing sender and a receiver.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apcache_runtime::PushFilter;
use apcache_wire::{
    decode_frame, frame_to_vec, RemoteError, TcpTransport, Ticket, Transport, WireError,
    WireMessage, WireRequest, WireResponse,
};

use crate::gen::{ConnGen, Expect, Op, Oracle};
use crate::pacing::Schedule;
use crate::server::Client;
use crate::stats::Histogram;
use crate::trace::Spans;
use crate::workloads::WINDOWS;

/// Logical milliseconds advance once per this many requests of a
/// connection, so `now` moves at about wall speed at 20 000 req/s.
const OPS_PER_LOGICAL_MS: u64 = 20;

/// Frame bytes as the client sees them (length prefix included).
#[derive(Default)]
pub struct WireBytes {
    pub sent: AtomicU64,
    pub received: AtomicU64,
}

/// A transport that counts the bytes it carries. Counters are plain
/// statistics, so `Relaxed`.
pub struct Counting<T> {
    inner: T,
    bytes: Arc<WireBytes>,
}

impl<T> Counting<T> {
    pub fn new(inner: T, bytes: Arc<WireBytes>) -> Self {
        Counting { inner, bytes }
    }
}

impl<T: Transport> Transport for Counting<T> {
    fn send(&mut self, body: &[u8]) -> Result<(), WireError> {
        self.bytes.sent.fetch_add(body.len() as u64 + 4, Ordering::Relaxed);
        self.inner.send(body)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        let body = self.inner.recv()?;
        self.bytes.received.fetch_add(body.len() as u64 + 4, Ordering::Relaxed);
        Ok(body)
    }
}

/// The timed phase: `WINDOWS` equal windows from `start`. With tracing
/// on, spans are recorded in the even windows only, so the odd windows
/// of the same run give the untraced figure the overhead is taken from.
#[derive(Clone, Copy)]
pub struct Phase {
    pub start: Instant,
    pub window: Duration,
    pub trace: bool,
}

impl Phase {
    pub fn new(start: Instant, seconds: u64, trace: bool) -> Self {
        Phase { start, window: Duration::from_secs(seconds) / WINDOWS as u32, trace }
    }

    pub fn end(&self) -> Instant {
        self.start + self.window * WINDOWS as u32
    }

    pub fn boundary(&self, index: usize) -> Instant {
        self.start + self.window * index as u32
    }

    /// The window `t` falls in; `None` before the start and after the end.
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let index =
            (t.checked_duration_since(self.start)?.as_nanos() / self.window.as_nanos()) as usize;
        (index < WINDOWS).then_some(index)
    }

    pub fn traced(&self, window: usize) -> bool {
        self.trace && window % 2 == 0
    }
}

#[derive(Default, Clone)]
pub struct WindowStats {
    /// Reply latency of every verified request completed in the window.
    pub latency: Histogram,
    /// The `Aggregate` requests among them.
    pub aggregate_latency: Histogram,
    /// When the window's first and last replies completed: the achieved
    /// rate is measured between them, not assumed from the window length.
    pub first_done: Option<Instant>,
    pub last_done: Option<Instant>,
}

/// What one connection's load generator saw.
pub struct Tally {
    pub windows: Vec<WindowStats>,
    /// Requests judged by the oracle (socket warm-up included) and how
    /// many it failed: fault replies, answers missing the true value,
    /// answers wider than their constraint.
    pub attempted: u64,
    pub failed: u64,
    /// Requests submitted after the timed phase began.
    pub timed_requests: u64,
    pub pushes: u64,
    pub read_width_sum: f64,
    pub reads: u64,
    /// How late the open-loop sender ran against its own schedule.
    pub lateness: Histogram,
    pub spans: Spans,
}

impl Tally {
    pub fn new(spans: Spans) -> Self {
        Tally {
            windows: vec![WindowStats::default(); WINDOWS],
            attempted: 0,
            failed: 0,
            timed_requests: 0,
            pushes: 0,
            read_width_sum: 0.0,
            reads: 0,
            lateness: Histogram::default(),
            spans,
        }
    }

    /// Judge one reply and book it under the window it completed in.
    fn book(
        &mut self,
        ok: bool,
        aggregate: bool,
        from: Instant,
        done: Instant,
        phase: Option<&Phase>,
    ) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            return; // a failed request misses every latency figure
        }
        let Some(window) = phase.and_then(|p| p.window_of(done)) else { return };
        let ns = done.duration_since(from).as_nanos() as u64;
        let stats = &mut self.windows[window];
        stats.first_done.get_or_insert(done);
        stats.last_done = Some(done);
        stats.latency.record(ns);
        if aggregate {
            stats.aggregate_latency.record(ns);
        }
    }
}

/// A connection's tally with its generator and oracle handed back: the
/// traced run's ladder continues the request stream, and the durable
/// workload checks every key against the oracle after recovery.
pub struct ConnResult {
    pub tally: Tally,
    pub gen: ConnGen,
    pub oracle: Oracle,
}

pub fn logical_now(seq: u64) -> u64 {
    seq / OPS_PER_LOGICAL_MS
}

pub fn request_of(op: &Op, seq: u64) -> WireRequest<u64> {
    let now = logical_now(seq);
    match op {
        Op::Read { key, constraint, .. } => {
            WireRequest::Read { key: *key, constraint: *constraint, now }
        }
        Op::Write { key, value, .. } => WireRequest::Write { key: *key, value: *value, now },
        Op::Aggregate { kind, keys, delta, .. } => WireRequest::Aggregate {
            kind: *kind,
            keys: keys.clone(),
            constraint: apcache_store::Constraint::Absolute(*delta),
            now,
        },
    }
}

/// Whether `response` is what `expect` allows; also feeds the served
/// width tally.
fn judge(expect: &Expect, response: &WireResponse<u64>, out: &mut Tally) -> bool {
    match (expect, response) {
        (Expect::Read { .. }, WireResponse::Read(result)) => {
            out.reads += 1;
            out.read_width_sum += result.answer.width();
            expect.read_ok(result)
        }
        (Expect::Write, WireResponse::Write(_)) => true,
        (Expect::Aggregate { .. }, WireResponse::Aggregate { answer, .. }) => {
            expect.aggregate_ok(answer)
        }
        _ => false, // a fault reply, or an answer to another verb
    }
}

struct Pending {
    ticket: Ticket,
    expect: Expect,
    submitted: Instant,
    seq: u64,
}

/// One closed-loop connection: settle one, submit one, `window` deep.
pub struct ClosedLoop {
    client: Client,
    window: usize,
    in_flight: VecDeque<Pending>,
    seq: u64,
    gen: ConnGen,
    oracle: Oracle,
    out: Tally,
}

impl ClosedLoop {
    pub fn new(client: Client, window: usize, gen: ConnGen, oracle: Oracle, spans: Spans) -> Self {
        ClosedLoop {
            client,
            window,
            in_flight: VecDeque::with_capacity(window),
            seq: 0,
            gen,
            oracle,
            out: Tally::new(spans),
        }
    }

    /// Subscribe to the connection's hottest keys; their pushes are
    /// drained (and counted) as replies are settled.
    pub fn subscribe_hottest(&mut self, n: usize) -> Result<(), RemoteError> {
        let hottest: Vec<u64> = self.gen.keys().iter().take(n).copied().collect();
        for key in hottest {
            self.client.subscribe(&key, PushFilter::Always, 0)?;
        }
        Ok(())
    }

    fn submit(&mut self, phase: Option<&Phase>) -> Result<(), RemoteError> {
        let op = self.gen.next_op();
        let expect = self.oracle.on_submit(&op);
        if let Op::Write { slot, value, .. } = &op {
            for pending in &mut self.in_flight {
                pending.expect.note_write(*slot, *value);
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let now = logical_now(seq);
        let submitted = Instant::now();
        let ticket = match &op {
            Op::Read { key, constraint, .. } => self.client.submit_read(key, *constraint, now)?,
            Op::Write { key, value, .. } => self.client.submit_write(key, *value, now)?,
            Op::Aggregate { kind, keys, delta, .. } => self.client.submit_aggregate(
                *kind,
                keys,
                apcache_store::Constraint::Absolute(*delta),
                now,
            )?,
        };
        if let Some(phase) = phase {
            self.out.timed_requests += 1;
            if phase.window_of(submitted).is_some_and(|w| phase.traced(w)) {
                self.out.spans.child("client.submit", seq, submitted, Instant::now());
            }
        }
        self.in_flight.push_back(Pending { ticket, expect, submitted, seq });
        Ok(())
    }

    fn settle(&mut self, phase: Option<&Phase>) -> Result<(), RemoteError> {
        let Some(pending) = self.in_flight.pop_front() else { return Ok(()) };
        let waiting = Instant::now();
        let response = match &pending.expect {
            Expect::Read { .. } => self.client.wait_read(pending.ticket).map(WireResponse::Read),
            Expect::Write => self.client.wait_write(pending.ticket).map(WireResponse::Write),
            Expect::Aggregate { .. } => self.client.wait_aggregate(pending.ticket).map(|out| {
                WireResponse::Aggregate { answer: out.answer, refreshed: out.refreshed }
            }),
        };
        let done = Instant::now();
        let ok = match response {
            Ok(response) => judge(&pending.expect, &response, &mut self.out),
            Err(RemoteError::Remote(_)) => false,
            Err(wire) => return Err(wire), // the connection is gone: stop the run
        };
        let aggregate = matches!(pending.expect, Expect::Aggregate { .. });
        self.out.book(ok, aggregate, pending.submitted, done, phase);
        if let Some(phase) = phase {
            if phase.window_of(done).is_some_and(|w| phase.traced(w)) {
                self.out.spans.child("client.settle", pending.seq, waiting, done);
                self.out.spans.request(pending.seq, pending.submitted, done);
            }
        }
        while self.client.poll_push().is_some() {
            self.out.pushes += 1;
        }
        Ok(())
    }

    fn drain(&mut self, phase: Option<&Phase>) -> Result<(), RemoteError> {
        while !self.in_flight.is_empty() {
            self.settle(phase)?;
        }
        Ok(())
    }

    /// `ops` untimed requests, so widths converge and caches fill.
    pub fn warm_up(&mut self, ops: u64) -> Result<(), RemoteError> {
        for _ in 0..ops {
            if self.in_flight.len() >= self.window {
                self.settle(None)?;
            }
            self.submit(None)?;
        }
        self.drain(None)
    }

    /// Run until the phase ends. `reconnect` (when the workload opens
    /// fresh connections per window) supplies the next connection.
    pub fn run(
        &mut self,
        phase: &Phase,
        mut reconnect: Option<&mut dyn FnMut() -> Client>,
    ) -> Result<(), RemoteError> {
        let mut window = 0;
        loop {
            let now = Instant::now();
            if now >= phase.end() {
                break;
            }
            if let (Some(connect), Some(current)) = (reconnect.as_mut(), phase.window_of(now)) {
                if current != window {
                    window = current;
                    self.drain(Some(phase))?;
                    self.client = connect(); // the old connection closes on drop
                }
            }
            if self.in_flight.len() >= self.window {
                self.settle(Some(phase))?;
            }
            self.submit(Some(phase))?;
        }
        self.drain(Some(phase))
    }

    pub fn finish(self) -> ConnResult {
        ConnResult { tally: self.out, gen: self.gen, oracle: self.oracle }
    }
}

/// What the open loop's sender hands back.
pub struct Sent {
    pub gen: ConnGen,
    pub oracle: Oracle,
    pub lateness: Histogram,
    pub spans: Spans,
}

/// The open loop over one connection split in two: this half draws each
/// request when it is due (~0.1 µs of a 50 µs period), tells the
/// receiver what its reply must satisfy, and sends it; [`receive`] is
/// the other half. Requests `0..warmup` are untimed.
#[allow(clippy::too_many_arguments)]
pub fn send_paced(
    mut transport: Counting<TcpTransport>,
    mut gen: ConnGen,
    mut oracle: Oracle,
    expects: std::sync::mpsc::Sender<Expect>,
    schedule: Schedule,
    requests: u64,
    warmup: u64,
    phase: Phase,
    mut spans: Spans,
) -> Sent {
    let mut lateness = Histogram::default();
    for index in 0..requests {
        let late = schedule.wait_for(index);
        let sending = Instant::now();
        let op = gen.next_op();
        expects.send(oracle.on_submit(&op)).expect("the receiver outlives the sender");
        let body = frame_to_vec(index + 1, &WireMessage::Request(request_of(&op, index)));
        transport.send(&body).expect("open-loop send");
        if index >= warmup {
            lateness.record(late);
            if phase.window_of(sending).is_some_and(|w| phase.traced(w)) {
                spans.child("client.send", index, sending, Instant::now());
            }
        }
    }
    Sent { gen, oracle, lateness, spans }
}

/// Receive, judge and time every reply of the open loop. Latency runs
/// from the request's due time, so a stall is charged to every request
/// it delayed, not only the one that hit it.
pub fn receive(
    mut transport: Counting<TcpTransport>,
    expects: std::sync::mpsc::Receiver<Expect>,
    schedule: Schedule,
    requests: u64,
    phase: Phase,
    mut out: Tally,
) -> Tally {
    // Replies may overtake each other (two shards); expectations arrive
    // in request order. `pending[i]` belongs to request `base + i`.
    let mut pending: VecDeque<Option<Expect>> = VecDeque::new();
    let mut base = 0u64;
    for _ in 0..requests {
        let body = transport.recv().expect("open-loop reply (a timeout here is a hung server)");
        let done = Instant::now();
        let frame = decode_frame::<u64>(&body).expect("a well-formed reply frame");
        let index = frame.request_id - 1;
        while base + pending.len() as u64 <= index {
            pending.push_back(Some(expects.recv().expect("an expectation per request sent")));
        }
        let expect = pending[(index - base) as usize].take().expect("one reply per request");
        while pending.front().is_some_and(Option::is_none) {
            pending.pop_front();
            base += 1;
        }
        let ok = match &frame.msg {
            WireMessage::Response(response) => judge(&expect, response, &mut out),
            _ => false,
        };
        let due = schedule.due(index);
        let timed = phase.window_of(due).is_some();
        out.book(ok, false, due, done, timed.then_some(&phase));
        if phase.window_of(done).is_some_and(|w| phase.traced(w)) {
            out.spans.request(index, due, done);
        }
    }
    out
}

/// One TCP connection split into the open loop's two halves.
pub fn open_connection(
    addr: std::net::SocketAddr,
    bytes: &Arc<WireBytes>,
) -> (Counting<TcpTransport>, Counting<TcpTransport>) {
    let tx = crate::server::connect_transport(addr, bytes);
    let rx = tx.inner.try_split().expect("split the connection");
    (tx, Counting::new(rx, Arc::clone(bytes)))
}
