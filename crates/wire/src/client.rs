//! The client side of the wire: the same serving verbs as the local
//! façades, executed against a remote server through any [`Transport`] —
//! **pipelined**: a window of requests rides one connection in flight at
//! once, correlated by the frame header's request id.
//!
//! Every verb exists in two forms, mirroring
//! [`RuntimeHandle`](apcache_runtime::RuntimeHandle):
//!
//! * **`submit_*`** — stamp the next request id, ship the frame, and
//!   return a [`Ticket`] without waiting. Submission only blocks when
//!   the in-flight window is full (one response is harvested to make
//!   room — that is the client's backpressure).
//! * **blocking** — `submit_*` + `wait_*`, nothing more.
//!
//! Responses may return **out of order** (a pipelined server fronting
//! the actor runtime answers whichever shard finishes first); harvested
//! responses for other tickets are parked until their `wait_*` call.
//!
//! The **push channel**: [`subscribe`](RemoteStoreClient::subscribe)
//! opens a long-lived subscription whose server-initiated
//! [`PushEvent`] frames are queued as they are harvested (any `wait_*`
//! call may park pushes as a side effect) and drained with
//! [`poll_push`](RemoteStoreClient::poll_push) /
//! [`next_push`](RemoteStoreClient::next_push).

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::marker::PhantomData;

use apcache_core::{Interval, TimeMs};
use apcache_push::{LeaseConfig, PushEvent, PushFilter, PushReport};
use apcache_queries::AggregateKind;
use apcache_store::{Constraint, KeyCodec, KeyState, ReadResult, StoreMetrics, WriteOutcome};

use crate::error::{RemoteError, WireError};
use crate::message::{decode_frame, frame_to_vec, WireMessage, WireRequest, WireResponse};
use crate::transport::Transport;

/// Default in-flight window: deep enough to amortize round trips, small
/// enough that a stalled server pushes back quickly.
pub const DEFAULT_WINDOW: usize = 32;

/// A request id issued by [`RemoteStoreClient`]'s `submit_*` verbs and
/// redeemed with the matching `wait_*` verb. Client-scoped and never
/// reused; it is the same number that rides the frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(pub u64);

impl fmt::Display for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire-ticket#{}", self.0)
    }
}

/// A store client that speaks the frame protocol with pipelining: up to
/// `window` requests in flight over one transport, responses harvested
/// out of order by request id.
///
/// With `window == 1` the client degenerates to strict call-reply
/// behavior (every submit drains the previous
/// response first), which is what the blocking verbs ride; the
/// conformance suites hold both windows bit-identical to a local
/// [`ShardedStore`](apcache_shard::ShardedStore) under θ = 1.
#[derive(Debug)]
pub struct RemoteStoreClient<K, T> {
    transport: T,
    next_id: u64,
    window: usize,
    /// Ids shipped but not yet answered.
    in_flight: HashSet<u64>,
    /// Answered out of order, awaiting their `wait_*` call.
    parked: HashMap<u64, WireResponse<K>>,
    /// Live subscriptions, keyed by the id their `Subscribe` shipped
    /// under — the id every push for that subscription carries.
    subscriptions: HashMap<u64, SubState>,
    /// In-flight `Unsubscribe` ids → the subscription they cancel.
    unsub_targets: HashMap<u64, u64>,
    /// Harvested pushes awaiting [`poll_push`](Self::poll_push), oldest
    /// first, each tagged with its subscription's ticket.
    pushes: VecDeque<(Ticket, PushEvent<K>)>,
    _keys: PhantomData<fn() -> K>,
}

/// Lifecycle of one subscription on the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubState {
    /// Streaming: harvested pushes are queued.
    Active,
    /// An `Unsubscribe` is in flight: pushes that raced the cancel are
    /// dropped, not errors.
    Closing,
}

impl<K: KeyCodec + Ord + Clone, T: Transport> RemoteStoreClient<K, T> {
    /// Wrap a connected transport with the [`DEFAULT_WINDOW`].
    pub fn new(transport: T) -> Self {
        Self::with_window(transport, DEFAULT_WINDOW)
    }

    /// Wrap a connected transport with an explicit in-flight window
    /// (values below 1 are treated as 1).
    pub fn with_window(transport: T, window: usize) -> Self {
        RemoteStoreClient {
            transport,
            next_id: 1,
            window: window.max(1),
            in_flight: HashSet::new(),
            parked: HashMap::new(),
            subscriptions: HashMap::new(),
            unsub_targets: HashMap::new(),
            pushes: VecDeque::new(),
            _keys: PhantomData,
        }
    }

    /// The configured in-flight window.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Requests shipped but not yet answered.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether `ticket`'s response has already been harvested (its
    /// `wait_*` call will return without touching the transport).
    pub fn is_ready(&self, ticket: Ticket) -> bool {
        self.parked.contains_key(&ticket.0)
    }

    /// Receive one frame: park a response under its request id, or queue
    /// a push under its subscription.
    fn harvest_one(&mut self) -> Result<(), RemoteError> {
        let body = self.transport.recv()?;
        let frame = decode_frame::<K>(&body)?;
        let response = match frame.msg {
            WireMessage::Response(response) => response,
            WireMessage::Push(event) => {
                match self.subscriptions.get(&frame.request_id) {
                    Some(SubState::Active) => {
                        self.pushes.push_back((Ticket(frame.request_id), event));
                    }
                    // A push that raced our cancel: drop it, the stream
                    // is closing.
                    Some(SubState::Closing) => {}
                    None => {
                        return Err(WireError::UnknownRequestId { id: frame.request_id }.into());
                    }
                }
                return Ok(());
            }
            _ => return Err(WireError::UnexpectedResponse("a response frame").into()),
        };
        if !self.in_flight.remove(&frame.request_id) {
            return Err(WireError::UnknownRequestId { id: frame.request_id }.into());
        }
        self.parked.insert(frame.request_id, response);
        Ok(())
    }

    /// Ship one request under the next id, harvesting a response first if
    /// the window is full.
    fn submit(&mut self, request: WireRequest<K>) -> Result<Ticket, RemoteError> {
        while self.in_flight.len() >= self.window {
            self.harvest_one()?;
        }
        let id = self.next_id;
        self.next_id += 1;
        let body = frame_to_vec(id, &WireMessage::Request(request));
        self.transport.send(&body)?;
        self.in_flight.insert(id);
        Ok(Ticket(id))
    }

    /// Block until `ticket`'s response arrives (harvesting — and parking
    /// — any other responses that come first).
    fn wait_response(&mut self, ticket: Ticket) -> Result<WireResponse<K>, RemoteError> {
        loop {
            if let Some(response) = self.parked.remove(&ticket.0) {
                return Ok(response);
            }
            if !self.in_flight.contains(&ticket.0) {
                return Err(WireError::UnknownRequestId { id: ticket.0 }.into());
            }
            self.harvest_one()?;
        }
    }

    // -----------------------------------------------------------------
    // Submission surface.
    // -----------------------------------------------------------------

    /// Submit a point read; redeem with
    /// [`wait_read`](RemoteStoreClient::wait_read).
    pub fn submit_read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Read { key: key.clone(), constraint, now })
    }

    /// Submit a write; redeem with
    /// [`wait_write`](RemoteStoreClient::wait_write).
    pub fn submit_write(
        &mut self,
        key: &K,
        value: f64,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Write { key: key.clone(), value, now })
    }

    /// Submit a batch of writes (applied in slice order server-side);
    /// redeem with [`wait_write`](RemoteStoreClient::wait_write).
    pub fn submit_write_batch(
        &mut self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::WriteBatch { items: items.to_vec(), now })
    }

    /// Submit a bounded aggregate; redeem with
    /// [`wait_aggregate`](RemoteStoreClient::wait_aggregate).
    pub fn submit_aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Aggregate { kind, keys: keys.to_vec(), constraint, now })
    }

    /// Submit a metrics snapshot request; redeem with
    /// [`wait_metrics`](RemoteStoreClient::wait_metrics).
    pub fn submit_metrics(&mut self) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Metrics)
    }

    /// Open a push subscription on `key`; redeem the starting snapshot
    /// with [`wait_subscribed`](RemoteStoreClient::wait_subscribed). The
    /// returned ticket *is* the subscription's identity: every push for
    /// it is tagged with this ticket, and it is what
    /// [`submit_unsubscribe`](RemoteStoreClient::submit_unsubscribe)
    /// takes. The subscription is registered before the ack returns, so
    /// pushes that overtake the ack are queued, not errors.
    pub fn submit_subscribe(
        &mut self,
        key: &K,
        filter: PushFilter,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        let ticket = self.submit(WireRequest::Subscribe { key: key.clone(), filter, now })?;
        self.subscriptions.insert(ticket.0, SubState::Active);
        Ok(ticket)
    }

    /// Submit a cancel for the subscription `sub` (the ticket
    /// [`submit_subscribe`](RemoteStoreClient::submit_subscribe)
    /// returned); redeem with
    /// [`wait_unsubscribed`](RemoteStoreClient::wait_unsubscribed).
    /// Pushes still in flight when the cancel lands are dropped.
    pub fn submit_unsubscribe(&mut self, sub: Ticket) -> Result<Ticket, RemoteError> {
        match self.subscriptions.get_mut(&sub.0) {
            Some(state @ SubState::Active) => *state = SubState::Closing,
            Some(SubState::Closing) | None => {
                return Err(WireError::UnknownRequestId { id: sub.0 }.into());
            }
        }
        let ticket = self.submit(WireRequest::Unsubscribe { sub: sub.0 })?;
        self.unsub_targets.insert(ticket.0, sub.0);
        Ok(ticket)
    }

    /// Submit a TTL lease grant/refresh on `key`; redeem with
    /// [`wait_leased`](RemoteStoreClient::wait_leased).
    pub fn submit_lease(
        &mut self,
        key: &K,
        cfg: LeaseConfig,
        now: TimeMs,
    ) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Lease { key: key.clone(), cfg, now })
    }

    /// Submit a lease release on `key`; redeem with
    /// [`wait_leased`](RemoteStoreClient::wait_leased) (whether one
    /// existed).
    pub fn submit_release_lease(&mut self, key: &K, now: TimeMs) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::ReleaseLease { key: key.clone(), now })
    }

    /// Submit a push-side logical-time advance; redeem with
    /// [`wait_time_advanced`](RemoteStoreClient::wait_time_advanced).
    pub fn submit_advance_time(&mut self, now: TimeMs) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::AdvanceTime { now })
    }

    /// Submit a key enumeration; redeem with
    /// [`wait_keys`](RemoteStoreClient::wait_keys).
    pub fn submit_key_list(&mut self) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::KeyList)
    }

    /// Submit the export half of a migration (detach `keys` with full
    /// protocol state, atomically); redeem with
    /// [`wait_exported`](RemoteStoreClient::wait_exported).
    pub fn submit_export_keys(&mut self, keys: &[K]) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::ExportKeys { keys: keys.to_vec() })
    }

    /// Submit the import half of a migration; redeem with
    /// [`wait_imported`](RemoteStoreClient::wait_imported).
    pub fn submit_import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::ImportKeys { states })
    }

    /// Submit a Prometheus-exposition scrape; redeem with
    /// [`wait_exposition`](RemoteStoreClient::wait_exposition).
    pub fn submit_exposition(&mut self) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::Exposition)
    }

    /// Submit a push-occupancy snapshot (no clock side effect); redeem
    /// with [`wait_push_stats`](RemoteStoreClient::wait_push_stats).
    pub fn submit_push_stats(&mut self) -> Result<Ticket, RemoteError> {
        self.submit(WireRequest::PushStats)
    }

    // -----------------------------------------------------------------
    // Harvest surface.
    // -----------------------------------------------------------------

    /// Redeem a read ticket.
    pub fn wait_read(&mut self, ticket: Ticket) -> Result<ReadResult, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Read(result) => Ok(result),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Read").into()),
        }
    }

    /// Redeem a write or write-batch ticket.
    pub fn wait_write(&mut self, ticket: Ticket) -> Result<WriteOutcome, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Write(outcome) => Ok(outcome),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Write").into()),
        }
    }

    /// Redeem an aggregate ticket.
    pub fn wait_aggregate(
        &mut self,
        ticket: Ticket,
    ) -> Result<RemoteAggregateOutcome<K>, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Aggregate { answer, refreshed } => {
                Ok(RemoteAggregateOutcome { answer, refreshed })
            }
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Aggregate").into()),
        }
    }

    /// Redeem a metrics ticket.
    pub fn wait_metrics(&mut self, ticket: Ticket) -> Result<StoreMetrics<K>, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Metrics(metrics) => Ok(metrics),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Metrics").into()),
        }
    }

    /// Redeem a subscribe ticket: the subscribed key's cached interval
    /// at subscription time. On a server fault (e.g. the call-reply
    /// `StoreServer`, which hosts no subscriptions) the subscription is
    /// unregistered before the error returns.
    pub fn wait_subscribed(&mut self, ticket: Ticket) -> Result<Interval, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Subscribed { interval } => Ok(interval),
            WireResponse::Error(fault) => {
                self.forget_subscription(ticket.0);
                Err(fault.into())
            }
            _ => Err(WireError::UnexpectedResponse("Subscribed").into()),
        }
    }

    /// Redeem an unsubscribe ticket: whether the subscription was still
    /// live server-side. The subscription and any of its still-queued
    /// pushes are gone once this returns.
    pub fn wait_unsubscribed(&mut self, ticket: Ticket) -> Result<bool, RemoteError> {
        let result = self.wait_response(ticket);
        if let Some(sub) = self.unsub_targets.remove(&ticket.0) {
            self.forget_subscription(sub);
        }
        match result? {
            WireResponse::Unsubscribed { existed } => Ok(existed),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Unsubscribed").into()),
        }
    }

    /// Redeem a lease or release ticket: whether a lease is (was)
    /// active.
    pub fn wait_leased(&mut self, ticket: Ticket) -> Result<bool, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Leased { active } => Ok(active),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Leased").into()),
        }
    }

    /// Redeem a time-advance ticket: the server's merged push report.
    pub fn wait_time_advanced(&mut self, ticket: Ticket) -> Result<PushReport, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::TimeAdvanced(report) => Ok(report),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("TimeAdvanced").into()),
        }
    }

    /// Redeem a key-list ticket.
    pub fn wait_keys(&mut self, ticket: Ticket) -> Result<Vec<K>, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Keys(keys) => Ok(keys),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Keys").into()),
        }
    }

    /// Redeem an export ticket: the detached key states, in request
    /// order.
    pub fn wait_exported(&mut self, ticket: Ticket) -> Result<Vec<KeyState<K>>, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Exported(states) => Ok(states),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Exported").into()),
        }
    }

    /// Redeem an import ticket.
    pub fn wait_imported(&mut self, ticket: Ticket) -> Result<(), RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Imported => Ok(()),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Imported").into()),
        }
    }

    /// Redeem an exposition ticket: the server's full Prometheus text
    /// exposition as one document.
    pub fn wait_exposition(&mut self, ticket: Ticket) -> Result<String, RemoteError> {
        match self.wait_response(ticket)? {
            WireResponse::Exposition(text) => Ok(text),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("Exposition").into()),
        }
    }

    /// Redeem a push-stats ticket: the merged occupancy report. The
    /// server answers with the same `TimeAdvanced` frame a clock advance
    /// uses (identical payload, no side effect).
    pub fn wait_push_stats(&mut self, ticket: Ticket) -> Result<PushReport, RemoteError> {
        self.wait_time_advanced(ticket)
    }

    fn forget_subscription(&mut self, sub: u64) {
        self.subscriptions.remove(&sub);
        self.pushes.retain(|(ticket, _)| ticket.0 != sub);
    }

    // -----------------------------------------------------------------
    // The push channel.
    // -----------------------------------------------------------------

    /// Pop the oldest queued push, if any, without touching the
    /// transport. Pushes are queued as a side effect of any harvest —
    /// `wait_*` calls, window backpressure, `next_push`.
    pub fn poll_push(&mut self) -> Option<(Ticket, PushEvent<K>)> {
        self.pushes.pop_front()
    }

    /// Block until a push is available and pop it. Only call with at
    /// least one active subscription — otherwise no push can ever
    /// arrive and this blocks on the transport indefinitely.
    pub fn next_push(&mut self) -> Result<(Ticket, PushEvent<K>), RemoteError> {
        loop {
            if let Some(push) = self.pushes.pop_front() {
                return Ok(push);
            }
            self.harvest_one()?;
        }
    }

    /// Queued pushes not yet popped.
    pub fn pending_pushes(&self) -> usize {
        self.pushes.len()
    }

    /// Subscriptions currently registered (active or closing).
    pub fn subscriptions(&self) -> usize {
        self.subscriptions.len()
    }

    // -----------------------------------------------------------------
    // Blocking surface: submit + wait, nothing else.
    // -----------------------------------------------------------------

    /// Read `key` to the given precision on the remote store.
    pub fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, RemoteError> {
        let ticket = self.submit_read(key, constraint, now)?;
        self.wait_read(ticket)
    }

    /// Push a new exact value for `key` and wait for the outcome.
    pub fn write(&mut self, key: &K, value: f64, now: TimeMs) -> Result<WriteOutcome, RemoteError> {
        let ticket = self.submit_write(key, value, now)?;
        self.wait_write(ticket)
    }

    /// Apply a batch of writes in slice order as one frame.
    pub fn write_batch(
        &mut self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, RemoteError> {
        let ticket = self.submit_write_batch(items, now)?;
        self.wait_write(ticket)
    }

    /// Bounded aggregate over `keys` on the remote store.
    pub fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<RemoteAggregateOutcome<K>, RemoteError> {
        let ticket = self.submit_aggregate(kind, keys, constraint, now)?;
        self.wait_aggregate(ticket)
    }

    /// Snapshot the remote store's serving metrics.
    pub fn metrics(&mut self) -> Result<StoreMetrics<K>, RemoteError> {
        let ticket = self.submit_metrics()?;
        self.wait_metrics(ticket)
    }

    /// Open a push subscription on `key` and wait for its starting
    /// snapshot. Pushes stream in under the returned ticket until
    /// [`unsubscribe`](RemoteStoreClient::unsubscribe).
    pub fn subscribe(
        &mut self,
        key: &K,
        filter: PushFilter,
        now: TimeMs,
    ) -> Result<(Ticket, Interval), RemoteError> {
        let ticket = self.submit_subscribe(key, filter, now)?;
        let interval = self.wait_subscribed(ticket)?;
        Ok((ticket, interval))
    }

    /// Cancel subscription `sub` and wait for the ack; returns whether
    /// it was still live server-side.
    pub fn unsubscribe(&mut self, sub: Ticket) -> Result<bool, RemoteError> {
        let ticket = self.submit_unsubscribe(sub)?;
        self.wait_unsubscribed(ticket)
    }

    /// Grant (or refresh) a TTL lease on the remote key.
    pub fn lease(&mut self, key: &K, cfg: LeaseConfig, now: TimeMs) -> Result<bool, RemoteError> {
        let ticket = self.submit_lease(key, cfg, now)?;
        self.wait_leased(ticket)
    }

    /// Release the remote lease on `key`; returns whether one existed.
    pub fn release_lease(&mut self, key: &K, now: TimeMs) -> Result<bool, RemoteError> {
        let ticket = self.submit_release_lease(key, now)?;
        self.wait_leased(ticket)
    }

    /// Advance the remote push-side clock and collect the push report.
    pub fn advance_time(&mut self, now: TimeMs) -> Result<PushReport, RemoteError> {
        let ticket = self.submit_advance_time(now)?;
        self.wait_time_advanced(ticket)
    }

    /// Enumerate the remote store's keys (deterministic server order).
    pub fn key_list(&mut self) -> Result<Vec<K>, RemoteError> {
        let ticket = self.submit_key_list()?;
        self.wait_keys(ticket)
    }

    /// Detach `keys` from the remote store with full protocol state
    /// (atomic: a miss exports nothing).
    pub fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, RemoteError> {
        let ticket = self.submit_export_keys(keys)?;
        self.wait_exported(ticket)
    }

    /// Attach keys previously detached elsewhere to the remote store.
    pub fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), RemoteError> {
        let ticket = self.submit_import_keys(states)?;
        self.wait_imported(ticket)
    }

    /// Scrape the remote server's full Prometheus text exposition.
    pub fn exposition(&mut self) -> Result<String, RemoteError> {
        let ticket = self.submit_exposition()?;
        self.wait_exposition(ticket)
    }

    /// Snapshot the remote push-side occupancy (subscribers, watched
    /// keys, leases) without advancing its logical clock.
    pub fn push_stats(&mut self) -> Result<PushReport, RemoteError> {
        let ticket = self.submit_push_stats()?;
        self.wait_push_stats(ticket)
    }

    /// End the session: cancel every outstanding subscription (pushes
    /// still in flight are drained and discarded along with the queue),
    /// drain every in-flight ticket (their outcomes are discarded), send
    /// `Shutdown`, and await the acknowledgement.
    ///
    /// The transport is torn down on **every** path — acknowledged, drain
    /// failure, or a dead peer — so a failed shutdown can never leak a
    /// live connection: the server closes a connection cleanly only
    /// once it has seen EOF (anything still open at teardown is
    /// force-closed after the drain grace).
    pub fn shutdown(mut self) -> Result<(), RemoteError> {
        let result = self.try_shutdown();
        // `self` (and with it the transport) drops here whatever
        // `result` says; the explicit drop documents that the close is
        // the fix for leaking connections on error paths, not a
        // side effect.
        drop(self);
        result
    }

    fn try_shutdown(&mut self) -> Result<(), RemoteError> {
        // Cancel subscriptions first: a `Shutdown` with live streams
        // would leave the server multiplexing pushes at a peer that is
        // done listening. Each cancel's round trip also drains (and
        // discards, below) pushes that were already in flight.
        let active: Vec<u64> = self
            .subscriptions
            .iter()
            .filter(|(_, state)| **state == SubState::Active)
            .map(|(id, _)| *id)
            .collect();
        for sub in active {
            self.unsubscribe(Ticket(sub))?;
        }
        while !self.in_flight.is_empty() {
            self.harvest_one()?;
        }
        self.pushes.clear();
        let ticket = self.submit(WireRequest::Shutdown)?;
        match self.wait_response(ticket)? {
            WireResponse::ShutdownAck => Ok(()),
            WireResponse::Error(fault) => Err(fault.into()),
            _ => Err(WireError::UnexpectedResponse("ShutdownAck").into()),
        }
    }
}

/// Answer to a remote aggregate: the interval plus the keys the server
/// fetched exactly (in fetch order) — the wire twin of
/// [`AggregateOutcome`](apcache_store::AggregateOutcome).
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteAggregateOutcome<K> {
    /// The answer interval; satisfies the constraint the query ran with.
    pub answer: Interval,
    /// Keys fetched exactly, in fetch order.
    pub refreshed: Vec<K>,
}

/// Fold a remote failure into the store-error surface the backend trait
/// speaks: server faults project back onto [`StoreError`] (unknown and
/// duplicate keys exactly — export atomicity survives the round trip);
/// wire-level failures surface as configuration errors naming the cause,
/// like any other unavailable backend.
fn remote_store_err(e: RemoteError) -> apcache_store::StoreError {
    match e {
        RemoteError::Remote(fault) => fault.to_store_error(),
        RemoteError::Wire(e) => {
            apcache_store::StoreError::Config(format!("remote shard unreachable: {e}"))
        }
    }
}

/// A remote server as one shard of an outer
/// [`ShardedStore`](apcache_shard::ShardedStore) ring — the top rung of
/// the mixed-backend ladder: the same ring can route some shards to
/// in-process stores, some to runtime deployments, and some across the
/// network through this impl, with elastic resharding migrating resident
/// keys between all of them via the export/import frames.
impl<K, T> apcache_shard::ShardBackend<K> for RemoteStoreClient<K, T>
where
    K: KeyCodec + Ord + Clone,
    T: Transport,
{
    fn read(
        &mut self,
        key: &K,
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<ReadResult, apcache_store::StoreError> {
        RemoteStoreClient::read(self, key, constraint, now).map_err(remote_store_err)
    }

    fn write(
        &mut self,
        key: &K,
        value: f64,
        now: TimeMs,
    ) -> Result<WriteOutcome, apcache_store::StoreError> {
        RemoteStoreClient::write(self, key, value, now).map_err(remote_store_err)
    }

    fn write_batch(
        &mut self,
        items: &[(K, f64)],
        now: TimeMs,
    ) -> Result<WriteOutcome, apcache_store::StoreError> {
        RemoteStoreClient::write_batch(self, items, now).map_err(remote_store_err)
    }

    fn aggregate(
        &mut self,
        kind: AggregateKind,
        keys: &[K],
        constraint: Constraint,
        now: TimeMs,
    ) -> Result<apcache_store::AggregateOutcome<K>, apcache_store::StoreError> {
        RemoteStoreClient::aggregate(self, kind, keys, constraint, now)
            .map(|out| apcache_store::AggregateOutcome {
                answer: out.answer,
                refreshed: out.refreshed,
            })
            .map_err(remote_store_err)
    }

    fn metrics_snapshot(&mut self) -> Result<StoreMetrics<K>, apcache_store::StoreError> {
        RemoteStoreClient::metrics(self).map_err(remote_store_err)
    }

    fn insert(
        &mut self,
        _key: K,
        _value: f64,
        _spec: Option<apcache_store::PolicySpec>,
        _now: TimeMs,
    ) -> Result<(), apcache_store::StoreError> {
        Err(apcache_store::StoreError::Config(
            "a remote shard serves a fixed key population: register sources on the server, \
             or migrate them in via import_keys (elastic insertion is a follow-on)"
                .into(),
        ))
    }

    fn contains_key(&mut self, key: &K) -> Result<bool, apcache_store::StoreError> {
        // No membership verb on the wire: migration planning needs the
        // full enumeration anyway, so membership rides KeyList.
        Ok(RemoteStoreClient::key_list(self).map_err(remote_store_err)?.contains(key))
    }

    fn key_list(&mut self) -> Result<Vec<K>, apcache_store::StoreError> {
        RemoteStoreClient::key_list(self).map_err(remote_store_err)
    }

    fn export_keys(&mut self, keys: &[K]) -> Result<Vec<KeyState<K>>, apcache_store::StoreError> {
        RemoteStoreClient::export_keys(self, keys).map_err(remote_store_err)
    }

    fn import_keys(&mut self, states: Vec<KeyState<K>>) -> Result<(), apcache_store::StoreError> {
        RemoteStoreClient::import_keys(self, states).map_err(remote_store_err)
    }
}
