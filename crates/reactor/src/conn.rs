//! One event-driven connection: a state machine (`Sniff → Http |
//! Frames → Draining → closed`) over reusable buffers. This module is
//! the specification of what a pipelined connection does with each
//! frame: which verbs are submitted to the runtime's ticketed surface,
//! which are answered on the spot, and how subscriptions are tracked
//! and cancelled.
//! `tests/reactor_conformance.rs` holds it bit-identical to the same
//! operations applied in process.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use apcache_runtime::{Outcome, RuntimeHandle, Ticket};
use apcache_telemetry::{Counter, Gauge, Registry, TraceKind};
use apcache_wire::{
    decode_frame, encode_framed, split_frame, FaultKind, KeyCodec, WireError, WireFault,
    WireMessage, WireRequest, WireResponse,
};

use crate::buffer::{ReadBuf, WriteBuf};
use crate::poller::Interest;

/// Process-wide connection id source: the label that keys a frame
/// connection's byte counters and in-flight gauge. Process-wide rather
/// than per reactor so labels stay unique when several reactors share
/// one registry.
static CONN_IDS: AtomicU64 = AtomicU64::new(0);

/// The wire-layer series one frame connection maintains on the
/// runtime's shared registry. Frame counters split by direction; bytes
/// and the in-flight window are additionally labeled with the
/// connection id (ids are never reused, so a long-lived process accretes
/// one retired series per closed frame connection — the scrape stays
/// deterministic, just longer).
pub(crate) struct ConnStats {
    /// Frames decoded off this connection.
    frames_in: Counter,
    /// Frames shipped to this connection's peer.
    frames_out: Counter,
    /// Framed bytes received (length prefix included).
    bytes_in: Counter,
    /// Framed bytes sent (length prefix included).
    bytes_out: Counter,
    /// Requests submitted to the runtime but not yet answered on the
    /// wire — the server-side view of the client's in-flight window.
    window: Gauge,
    /// Frames that failed to decode (fatal to their connection).
    decode_faults: Counter,
}

impl ConnStats {
    /// Register the series under the next process-wide `conn` id.
    fn register(registry: &Registry) -> Self {
        let conn = CONN_IDS.fetch_add(1, Ordering::Relaxed).to_string();
        let frames = "Frames decoded from (dir=in) and shipped to (dir=out) pipelined peers.";
        let bytes = "Framed bytes (length prefix included) per pipelined connection.";
        ConnStats {
            frames_in: registry.counter("apcache_wire_frames_total", frames, &[("dir", "in")]),
            frames_out: registry.counter("apcache_wire_frames_total", frames, &[("dir", "out")]),
            bytes_in: registry.counter(
                "apcache_wire_connection_bytes_total",
                bytes,
                &[("conn", &conn), ("dir", "in")],
            ),
            bytes_out: registry.counter(
                "apcache_wire_connection_bytes_total",
                bytes,
                &[("conn", &conn), ("dir", "out")],
            ),
            window: registry.gauge(
                "apcache_wire_inflight",
                "In-flight window occupancy per pipelined connection.",
                &[("conn", &conn)],
            ),
            decode_faults: registry.counter(
                "apcache_wire_decode_faults_total",
                "Frames that failed to decode (fatal to their connection).",
                &[],
            ),
        }
    }
}

/// Where a ticket's answer goes: which connection, under which request
/// id.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RouteEntry {
    /// The owning connection's token.
    pub conn: u64,
    /// The request id the answer echoes.
    pub request_id: u64,
}

/// Hasher for the worker-local maps, whose keys are all sequentially
/// issued integers (tickets from this worker's handle, poller tokens):
/// the identity hash lands consecutive keys in consecutive slots, so
/// the live window of a 16k-deep pipeline occupies a contiguous ring of
/// the table instead of a SipHash scatter — inserts, harvest lookups,
/// and removes walk memory in order. Never use for adversarial or
/// structured keys; these maps see neither.
#[derive(Clone, Copy, Default)]
pub(crate) struct SeqHash(u64);

impl std::hash::Hasher for SeqHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = n as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-integer keys: a bytewise FNV-1a, never hit
        // by the maps below (their keys hash via the integer paths).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl std::hash::BuildHasher for SeqHash {
    type Hasher = SeqHash;

    fn build_hasher(&self) -> SeqHash {
        SeqHash(0)
    }
}

/// The worker-local ticket router. Single-threaded: a mapping is always
/// inserted in the same loop iteration as its submit, strictly before
/// any harvest, so a completion can never arrive ahead of its mapping.
pub(crate) type RouteMap = HashMap<Ticket, RouteEntry, SeqHash>;

/// The connection lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum State {
    /// Fresh: waiting for the first four bytes to tell frames from HTTP.
    Sniff,
    /// A plain-HTTP scraper: accumulate the request head, answer, close.
    Http,
    /// The frame protocol, pipelined.
    Frames,
    /// No more requests will be read. `ack` carries the request id of a
    /// client `Shutdown` to acknowledge once everything in flight has
    /// been answered; `None` is a plain disconnect (or a served scrape).
    Draining {
        /// Pending `ShutdownAck` correlation, if any.
        ack: Option<u64>,
    },
}

/// One connection owned by a reactor worker.
pub(crate) struct Conn<S> {
    /// The poller token (unique per reactor, never reused).
    pub token: u64,
    /// The nonblocking stream.
    pub stream: S,
    pub(crate) state: State,
    rd: ReadBuf,
    wr: WriteBuf,
    /// Live subscriptions by the wire id their `Subscribe` arrived
    /// under — the id pushes go out tagged with, and the handle an
    /// `Unsubscribe` names.
    subs: HashMap<u64, Ticket>,
    /// Mapped route entries owned by this connection (subscriptions
    /// count until their `SubscriptionEnded` retires them).
    pub in_flight: usize,
    /// The per-connection registry series, registered when the sniff
    /// decides `Frames` — never for an HTTP scraper, whose every scrape
    /// would otherwise leave three dead `conn=`-labelled series behind.
    stats: Option<ConnStats>,
    /// Whether the poller registration currently includes write
    /// interest (kept in sync by the worker; write interest is asserted
    /// only while `wr` holds unflushed bytes).
    pub want_write: bool,
    /// The peer is unreachable (write error): close without flushing.
    dead: bool,
    /// Whether this connection's `Shutdown` ack has been queued — the
    /// signal that starts the reactor-wide drain grace.
    acked_shutdown: bool,
    /// The frame pump stopped on an exhausted submit budget with
    /// decodable bytes still buffered: the worker must re-pump this
    /// connection once completions free room, without waiting for new
    /// readiness.
    stalled: bool,
    /// Frame/byte counts accumulated since the last
    /// [`publish_stats`](Conn::publish_stats) (frame connections only;
    /// HTTP bytes are not frames and go uncounted): the registry series are
    /// per-connection atomics on cold cache lines, so the hot pump and
    /// ship paths count in plain fields (the `Conn` line is already in
    /// hand) and the worker publishes once per round per touched
    /// connection.
    pend_frames_in: u64,
    pend_bytes_in: u64,
    pend_frames_out: u64,
    pend_bytes_out: u64,
    /// Response/push frames harvested onto this connection in the
    /// current worker round — the sweep turns counts above one into the
    /// coalescing counter (those frames shared one socket write) and
    /// resets it.
    pub(crate) frames_this_round: u64,
    /// The peer has closed its write side. Draining starts only once
    /// the pump has dispatched every buffered frame — a budget stall
    /// must not drop requests that arrived before the FIN.
    saw_eof: bool,
}

impl<S: Read + Write> Conn<S> {
    pub(crate) fn new(token: u64, stream: S) -> Self {
        Conn {
            token,
            stream,
            state: State::Sniff,
            rd: ReadBuf::new(),
            wr: WriteBuf::new(),
            subs: HashMap::new(),
            in_flight: 0,
            stats: None,
            want_write: false,
            dead: false,
            acked_shutdown: false,
            stalled: false,
            saw_eof: false,
            pend_frames_in: 0,
            pend_bytes_in: 0,
            pend_frames_out: 0,
            pend_bytes_out: 0,
            frames_this_round: 0,
        }
    }

    /// Publish batched frame/byte counts and the in-flight window to
    /// this connection's registry series. Called by the worker once per
    /// round per touched connection (and at close), so scrapes lag the
    /// wire by less than one loop round instead of costing the pump an
    /// atomic per frame.
    pub(crate) fn publish_stats(&mut self) {
        let Some(stats) = &self.stats else { return };
        if self.pend_frames_in > 0 {
            stats.frames_in.add(std::mem::take(&mut self.pend_frames_in));
            stats.bytes_in.add(std::mem::take(&mut self.pend_bytes_in));
        }
        if self.pend_frames_out > 0 {
            stats.frames_out.add(std::mem::take(&mut self.pend_frames_out));
            stats.bytes_out.add(std::mem::take(&mut self.pend_bytes_out));
        }
        stats.window.set(self.in_flight as i64);
    }

    /// Final publish at close: flush the counts and zero the in-flight
    /// gauge, whose series outlives the connection.
    pub(crate) fn retire_stats(&mut self) {
        self.publish_stats();
        if let Some(stats) = &self.stats {
            stats.window.set(0);
        }
    }

    /// Whether the last pump stopped on an exhausted submit budget with
    /// complete frames still buffered. The worker keeps such
    /// connections on its re-pump list until the backlog clears.
    pub(crate) fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// The poller interest this connection currently needs.
    pub(crate) fn interest(&self) -> Interest {
        if self.wr.is_empty() {
            Interest::Read
        } else {
            Interest::ReadWrite
        }
    }

    /// Whether the connection has nothing left to do and can be closed:
    /// draining, everything answered, everything flushed.
    pub(crate) fn should_close(&self) -> bool {
        self.dead
            || (matches!(self.state, State::Draining { ack: None })
                && self.in_flight == 0
                && self.wr.is_empty())
    }

    /// Whether this connection's `Shutdown` was just acknowledged (the
    /// reactor-wide stop trigger). Reads destructively.
    pub(crate) fn take_acked_shutdown(&mut self) -> bool {
        std::mem::take(&mut self.acked_shutdown)
    }

    /// Readiness arrived: pull bytes until the stream would block, then
    /// run the state machine over whatever accumulated. `budget` is the
    /// worker's remaining submit allowance this round — the pump stops
    /// decoding (bytes stay buffered) when it runs out, so the worker
    /// never parks on a full shard mailbox inside `submit`.
    pub(crate) fn on_readable<K>(
        &mut self,
        handle: &RuntimeHandle<K>,
        route: &mut RouteMap,
        budget: &mut usize,
    ) where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        if matches!(self.state, State::Draining { .. }) || self.dead {
            self.stalled = false;
            return;
        }
        match self.rd.fill_from(&mut self.stream) {
            Ok(eof) => self.saw_eof |= eof,
            // A torn connection reads like an EOF: work already
            // submitted still executes on the actors (an accepted write
            // is never unwound), its answers just have nowhere to go.
            Err(_) => self.saw_eof = true,
        }
        self.advance(handle, route, budget);
        if self.saw_eof && !self.stalled && !matches!(self.state, State::Draining { .. }) {
            self.enter_draining(None, handle);
        }
    }

    /// Run the state machine over the buffered bytes.
    fn advance<K>(&mut self, handle: &RuntimeHandle<K>, route: &mut RouteMap, budget: &mut usize)
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        loop {
            match self.state {
                State::Sniff => {
                    if self.rd.len() < 4 {
                        return;
                    }
                    // The frame protocol's first four bytes are a u32
                    // length prefix whose little-endian value for ASCII
                    // "GET " is far beyond MAX_FRAME_LEN — the two
                    // vocabularies cannot collide.
                    self.state = if &self.rd.bytes()[..4] == b"GET " {
                        State::Http
                    } else {
                        self.stats = Some(ConnStats::register(handle.telemetry().registry()));
                        State::Frames
                    };
                }
                State::Http => {
                    if !self.rd.bytes().windows(4).any(|w| w == b"\r\n\r\n")
                        && self.rd.len() <= 8_192
                    {
                        return; // head still arriving (8k cap: answer what we have)
                    }
                    self.respond_http(handle);
                    let n = self.rd.len();
                    self.rd.consume(n);
                    self.state = State::Draining { ack: None };
                    return;
                }
                State::Frames => {
                    if !self.pump_frames(handle, route, budget) {
                        return;
                    }
                }
                State::Draining { .. } => return,
            }
        }
    }

    /// Split and dispatch every complete frame in the read buffer, up
    /// to the worker's remaining submit `budget`. Returns `true` if the
    /// state changed (re-enter the machine).
    fn pump_frames<K>(
        &mut self,
        handle: &RuntimeHandle<K>,
        route: &mut RouteMap,
        budget: &mut usize,
    ) -> bool
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        self.stalled = false;
        loop {
            if *budget == 0 {
                // Out of submit room: leave the remaining bytes
                // buffered and let the worker re-pump once harvested
                // completions free mailbox slots. Decoding past this
                // point would park the whole worker on a full shard
                // mailbox — one stalled socket must not stop the loop.
                self.stalled = true;
                return false;
            }
            let (body, consumed) = match split_frame(self.rd.bytes()) {
                Ok(split) => split,
                Err(WireError::Truncated { .. }) => return false, // need more bytes
                // An oversized length prefix means the stream cannot be
                // trusted any further — fatal to the connection.
                Err(_) => {
                    self.on_decode_fault(handle);
                    return true;
                }
            };
            self.pend_frames_in += 1;
            self.pend_bytes_in += consumed as u64;
            let frame = match decode_frame::<K>(body) {
                Ok(frame) => frame,
                Err(_) => {
                    self.rd.consume(consumed);
                    self.on_decode_fault(handle);
                    return true;
                }
            };
            self.rd.consume(consumed);
            let request_id = frame.request_id;
            let request = match frame.msg.into_request() {
                Ok(request) => request,
                Err(fault) => {
                    self.ship_response::<K>(request_id, WireResponse::Error(fault));
                    continue;
                }
            };
            let submitted = match request {
                WireRequest::Read { key, constraint, now } => {
                    handle.submit_read(&key, constraint, now)
                }
                WireRequest::Write { key, value, now } => handle.submit_write(&key, value, now),
                WireRequest::WriteBatch { items, now } => handle.submit_write_batch(&items, now),
                WireRequest::Aggregate { kind, keys, constraint, now } => {
                    handle.submit_aggregate(kind, &keys, constraint, now)
                }
                WireRequest::Metrics => handle.submit_metrics(),
                WireRequest::Subscribe { key, filter, now } => {
                    let submitted = handle.submit_subscribe(&key, filter, now);
                    if let Ok(ticket) = &submitted {
                        self.subs.insert(request_id, *ticket);
                    }
                    submitted
                }
                WireRequest::Unsubscribe { sub } => match self.subs.remove(&sub) {
                    Some(ticket) => handle.submit_unsubscribe(ticket),
                    None => {
                        self.ship_response::<K>(
                            request_id,
                            WireResponse::Unsubscribed { existed: false },
                        );
                        continue;
                    }
                },
                WireRequest::Lease { key, cfg, now } => handle.submit_lease(&key, cfg, now),
                WireRequest::ReleaseLease { key, now } => handle.submit_release_lease(&key, now),
                WireRequest::AdvanceTime { now } => handle.submit_advance_time(now),
                // Migration verbs are control-plane and run inline, not
                // through the ticketed surface: pausing this
                // connection's intake while a batch detaches means no
                // later frame on it can race the export, and the
                // per-shard export still queues *behind* everything
                // already in that shard's mailbox — earlier submitted
                // writes land before the state leaves (the
                // drain-then-flip ordering migration needs).
                WireRequest::KeyList => {
                    self.ship_response(request_id, WireResponse::Keys(handle.sorted_keys()));
                    continue;
                }
                WireRequest::ExportKeys { keys } => {
                    let response = match handle.export_key_states(&keys) {
                        Ok(states) => WireResponse::Exported(states),
                        Err(e) => WireResponse::Error(WireFault::from(e)),
                    };
                    self.ship_response(request_id, response);
                    continue;
                }
                WireRequest::ImportKeys { states } => {
                    let response = match handle.import_key_states(states) {
                        Ok(()) => WireResponse::<K>::Imported,
                        Err(e) => WireResponse::Error(WireFault::from(e)),
                    };
                    self.ship_response(request_id, response);
                    continue;
                }
                WireRequest::Exposition => handle.submit_exposition(),
                WireRequest::PushStats => handle.submit_push_stats(),
                WireRequest::Shutdown => {
                    // Frames after a Shutdown are not served: the ack
                    // promises the client nothing of its own is still
                    // in flight.
                    self.enter_draining(Some(request_id), handle);
                    return true;
                }
            };
            match submitted {
                Ok(ticket) => {
                    route.insert(ticket, RouteEntry { conn: self.token, request_id });
                    self.in_flight += 1;
                    *budget -= 1;
                }
                Err(e) => {
                    self.ship_response::<K>(request_id, WireResponse::Error(WireFault::from(e)))
                }
            }
        }
    }

    /// A frame failed to decode: count it, trace it, drain.
    fn on_decode_fault<K>(&mut self, handle: &RuntimeHandle<K>)
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        if let Some(stats) = &self.stats {
            stats.decode_faults.inc();
        }
        handle.telemetry().trace().record(TraceKind::DecodeFault, 0, "", None);
        self.enter_draining(None, handle);
    }

    /// Stop reading. Cancels subscriptions the client left open: each
    /// cancel makes the actor drop the subscription's sink, whose
    /// `SubscriptionEnded` completion retires this connection's route
    /// entry — without it a draining connection would wait forever on
    /// tickets that stream but never settle. The cancel acks themselves
    /// are never routed and are dropped by the worker as orphans.
    pub(crate) fn enter_draining<K>(&mut self, ack: Option<u64>, handle: &RuntimeHandle<K>)
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        if matches!(self.state, State::Draining { .. }) {
            return;
        }
        self.state = State::Draining { ack };
        for (_, ticket) in self.subs.drain() {
            let _ = handle.submit_unsubscribe(ticket);
        }
    }

    /// If draining with a pending `Shutdown` ack and everything in
    /// flight has been answered, queue the `ShutdownAck`. It is always
    /// the connection's last frame: a client that has read it knows
    /// every earlier request was answered and may close.
    pub(crate) fn maybe_ack_shutdown(&mut self) {
        if let State::Draining { ack: Some(request_id) } = self.state {
            if self.in_flight == 0 {
                self.ship_response::<String>(request_id, WireResponse::ShutdownAck);
                self.state = State::Draining { ack: None };
                self.acked_shutdown = true;
            }
        }
    }

    /// Encode one completion outcome under its stored correlation.
    pub(crate) fn ship_outcome<K>(
        &mut self,
        outcome: Result<Outcome<K>, apcache_runtime::RuntimeError>,
        request_id: u64,
    ) where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        let msg = match outcome {
            Ok(Outcome::Read(result)) => WireMessage::Response(WireResponse::Read(result)),
            Ok(Outcome::Write(outcome)) => WireMessage::Response(WireResponse::Write(outcome)),
            Ok(Outcome::Aggregate(outcome)) => WireMessage::Response(WireResponse::Aggregate {
                answer: outcome.answer,
                refreshed: outcome.refreshed,
            }),
            Ok(Outcome::Metrics(metrics)) => {
                WireMessage::Response(WireResponse::Metrics(metrics.merged().clone()))
            }
            Ok(Outcome::Subscribed { interval }) => {
                WireMessage::Response(WireResponse::Subscribed { interval })
            }
            // The server-initiated frame: a subscribed key's interval
            // changed, multiplexed under the subscription's wire id.
            Ok(Outcome::Push(event)) => WireMessage::Push(event),
            // Terminal subscription completion: the route entry is
            // already retired; no frame goes out.
            Ok(Outcome::SubscriptionEnded) => return,
            Ok(Outcome::Unsubscribed { existed }) => {
                WireMessage::Response(WireResponse::Unsubscribed { existed })
            }
            Ok(Outcome::Leased { active }) => {
                WireMessage::Response(WireResponse::Leased { active })
            }
            Ok(Outcome::TimeAdvanced(report)) => {
                WireMessage::Response(WireResponse::TimeAdvanced(report))
            }
            Ok(Outcome::Exposition(text)) => WireMessage::Response(WireResponse::Exposition(text)),
            Err(e) => WireMessage::Response(WireResponse::Error(WireFault::from(e))),
        };
        self.ship(request_id, &msg);
    }

    /// Fault one still-mapped request on this connection — the
    /// lost-ticket fallback (`ActorGone`).
    pub(crate) fn fault_in_flight(&mut self, request_id: u64) {
        let fault =
            WireFault::new(FaultKind::ActorGone, "the serving runtime lost this request's ticket");
        self.ship_response::<String>(request_id, WireResponse::Error(fault));
    }

    /// Retire one routed ticket (everything except streaming pushes).
    pub(crate) fn retire(&mut self) {
        self.in_flight = self.in_flight.saturating_sub(1);
    }

    fn ship_response<K>(&mut self, request_id: u64, response: WireResponse<K>)
    where
        K: KeyCodec + Ord + Clone,
    {
        self.ship(request_id, &WireMessage::Response(response));
    }

    /// Encode one frame into the write buffer and count it.
    fn ship<K>(&mut self, request_id: u64, msg: &WireMessage<K>)
    where
        K: KeyCodec + Ord + Clone,
    {
        let n = encode_framed(request_id, msg, self.wr.vec());
        self.pend_frames_out += 1;
        self.pend_bytes_out += n as u64;
    }

    /// Flush queued bytes. Returns `false` if the peer is gone (the
    /// connection should be reaped).
    pub(crate) fn flush(&mut self) -> bool {
        if self.dead {
            return false;
        }
        match self.wr.flush_to(&mut self.stream) {
            Ok(_) => true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => true,
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    /// Answer one buffered plain-HTTP request: `GET /metrics` gets the
    /// full Prometheus text exposition (format 0.0.4), anything else a
    /// 404. One request, then close — scrapers reconnect per scrape.
    fn respond_http<K>(&mut self, handle: &RuntimeHandle<K>)
    where
        K: KeyCodec + Hash + Ord + Clone + Send + Sync + 'static,
    {
        let head = self.rd.bytes();
        let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
        let path = std::str::from_utf8(request_line)
            .ok()
            .and_then(|line| line.split_whitespace().nth(1))
            .unwrap_or("");
        let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
            handle
                .telemetry()
                .registry()
                .counter(
                    "apcache_http_scrapes_total",
                    "Plain-HTTP GET /metrics scrapes served.",
                    &[],
                )
                .inc();
            match handle.render_exposition() {
                Ok(text) => ("200 OK", text),
                Err(e) => ("500 Internal Server Error", format!("exposition failed: {e}\n")),
            }
        } else {
            ("404 Not Found", "only /metrics is served over HTTP here\n".to_string())
        };
        let response = format!(
            "HTTP/1.1 {status}\r\n\
             Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\n\
             Connection: close\r\n\r\n{}",
            body.len(),
            body
        );
        self.wr.extend(response.as_bytes());
    }
}
