//! The protocol vocabulary and its frame bodies.
//!
//! Three frame families cover the paper's Figure 1 messages plus the
//! serving verbs the runtime grew on top of them:
//!
//! * **[`WireMessage::Refresh`]** — a source → cache push installing a new
//!   approximation (the paper's value-initiated refresh message);
//! * **[`WireMessage::Exact`]** — a source → cache reply carrying the
//!   exact value plus its replacement approximation (the answer to a
//!   query-initiated refresh);
//! * **[`WireMessage::Request`]** / **[`WireMessage::Response`]** — the
//!   client ↔ store verbs (`Read`, `Write`, `WriteBatch`, `Aggregate`,
//!   `Metrics`, `Subscribe`, `Unsubscribe`, `Shutdown`), the lease
//!   verbs (`Lease`, `ReleaseLease`, `AdvanceTime`), and the
//!   migration surface (`KeyList`, `ExportKeys`, `ImportKeys` — a
//!   [`KeyState`] per migrating key, so adaptive widths, counters, and
//!   cache residency cross the wire intact) with their outcomes;
//! * **[`WireMessage::Push`]** — a **server-initiated** frame streaming
//!   one subscribed key's new cached interval, tagged with the
//!   subscription's request id (the push channel).
//!
//! Every frame body is `magic ∥ version ∥ tag ∥ request_id ∥ fields`;
//! the transport adds a `u32` length prefix. The version byte is always
//! [`VERSION`] (3): it is the one format this codec emits or accepts, and
//! any other value decodes to [`WireError::BadVersion`]. The **request
//! id** is the pipelining header: clients stamp each request with a
//! monotonically assigned id and servers echo it on the paired response,
//! so one connection can carry a whole window of in-flight requests and
//! answer them out of order. Encoding is hand-rolled fixed-width
//! little-endian (the primitives and the [`KeyState`] layout are
//! [`apcache_store::codec`]'s, shared with the durable spool) so
//! `decode(encode(x)) == x` bit-for-bit, and decoding is defensive:
//! arbitrary bytes produce a [`WireError`], never a panic.

use apcache_core::policy::ApproxSpec;
use apcache_core::{ExactResponse, Interval, Key, Refresh, TimeMs};
use apcache_push::{FallbackWidth, LeaseConfig, PushEvent, PushFilter, PushReason, PushReport};
use apcache_queries::AggregateKind;
use apcache_store::codec::{
    put_bool, put_f64, put_interval, put_key_metrics, put_key_states, put_seq, put_spec, put_str,
    put_u64, put_u8, read_interval, read_key_metrics, read_key_states, read_spec, KeyCodec, Reader,
    KEY_METRICS_BYTES,
};
use apcache_store::{Answer, Constraint, KeyState, ReadResult, StoreMetrics, WriteOutcome};

use crate::error::{FaultKind, WireError, WireFault};

/// First byte of every frame body.
pub const MAGIC: u8 = 0xA7;
/// The protocol version: the second byte of every frame body, the only
/// one this codec emits and the only one [`decode_frame`] accepts.
pub const VERSION: u8 = 3;

const MSG_REFRESH: u8 = 1;
const MSG_EXACT: u8 = 2;
const MSG_REQUEST: u8 = 3;
const MSG_RESPONSE: u8 = 4;
const MSG_PUSH: u8 = 5;

const VERB_READ: u8 = 1;
const VERB_WRITE: u8 = 2;
const VERB_WRITE_BATCH: u8 = 3;
const VERB_AGGREGATE: u8 = 4;
const VERB_METRICS: u8 = 5;
const VERB_SHUTDOWN: u8 = 6;
const VERB_SUBSCRIBE: u8 = 7;
const VERB_UNSUBSCRIBE: u8 = 8;
const VERB_LEASE: u8 = 9;
const VERB_RELEASE_LEASE: u8 = 10;
const VERB_ADVANCE_TIME: u8 = 11;
const VERB_KEY_LIST: u8 = 12;
const VERB_EXPORT_KEYS: u8 = 13;
const VERB_IMPORT_KEYS: u8 = 14;
const VERB_EXPOSITION: u8 = 15;
const VERB_PUSH_STATS: u8 = 16;

const RESP_READ: u8 = 1;
const RESP_WRITE: u8 = 2;
const RESP_AGGREGATE: u8 = 3;
const RESP_METRICS: u8 = 4;
const RESP_SHUTDOWN_ACK: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_SUBSCRIBED: u8 = 7;
const RESP_UNSUBSCRIBED: u8 = 8;
const RESP_LEASED: u8 = 9;
const RESP_TIME_ADVANCED: u8 = 10;
const RESP_KEYS: u8 = 11;
const RESP_EXPORTED: u8 = 12;
const RESP_IMPORTED: u8 = 13;
const RESP_EXPOSITION: u8 = 14;

/// A serving request, one frame per verb — the same vocabulary as the
/// runtime's mailbox [`Request`](apcache_runtime::Request), minus the
/// reply slots (the transport's request/response pairing replaces them).
#[derive(Debug, Clone, PartialEq)]
pub enum WireRequest<K> {
    /// Point read to the given precision.
    Read {
        /// Key to read.
        key: K,
        /// Required precision.
        constraint: Constraint,
        /// Logical time of the read.
        now: TimeMs,
    },
    /// A new exact value arrives at the source.
    Write {
        /// Key to write.
        key: K,
        /// The new exact value (raw bits; the server validates finiteness).
        value: f64,
        /// Logical time of the write.
        now: TimeMs,
    },
    /// A batch of writes, applied in slice order.
    WriteBatch {
        /// `(key, value)` pairs.
        items: Vec<(K, f64)>,
        /// Logical time of the batch.
        now: TimeMs,
    },
    /// Bounded aggregate over `keys`.
    Aggregate {
        /// Aggregate kind.
        kind: AggregateKind,
        /// Queried keys.
        keys: Vec<K>,
        /// Precision budget.
        constraint: Constraint,
        /// Logical time of the query.
        now: TimeMs,
    },
    /// Snapshot the server's serving metrics.
    Metrics,
    /// Open a push subscription on `key`. The server answers with
    /// [`WireResponse::Subscribed`] and then streams
    /// [`WireMessage::Push`] frames under this request's id until the
    /// subscription is cancelled.
    Subscribe {
        /// Key to watch.
        key: K,
        /// Which interval changes to stream (see [`PushFilter`]).
        filter: PushFilter,
        /// Logical time the subscription opens.
        now: TimeMs,
    },
    /// Cancel the subscription opened under request id `sub`.
    Unsubscribe {
        /// The request id of the `Subscribe` frame to cancel.
        sub: u64,
    },
    /// Grant (or renew) a TTL lease on `key`: the cached interval
    /// stays trusted for `cfg.ttl_ms` after the last source contact, then
    /// widens to the configured fallback.
    Lease {
        /// Key to lease.
        key: K,
        /// TTL and fallback-widening policy (validated on decode).
        cfg: LeaseConfig,
        /// Logical time of the grant.
        now: TimeMs,
    },
    /// Release the lease on `key`.
    ReleaseLease {
        /// Key whose lease is dropped.
        key: K,
        /// Logical time of the release.
        now: TimeMs,
    },
    /// Advance the server's push-side logical clock: lapsed leases
    /// widen their intervals and push.
    AdvanceTime {
        /// The new logical time.
        now: TimeMs,
    },
    /// List every key registered on the server, in deterministic (sorted)
    /// order — the discovery half of the migration surface.
    KeyList,
    /// Detach `keys` with their complete per-key protocol state:
    /// the export half of live migration. Atomic server-side — a single
    /// unknown key exports nothing.
    ExportKeys {
        /// Keys to detach.
        keys: Vec<K>,
    },
    /// Attach keys previously detached from another shard: the
    /// import half of live migration.
    ImportKeys {
        /// The migrating keys' full protocol state.
        states: Vec<KeyState<K>>,
    },
    /// Scrape the server's full Prometheus-style text exposition:
    /// store rollups, push occupancy, and every runtime/wire series in
    /// one deterministic document.
    Exposition,
    /// Snapshot push-side occupancy (subscribers, watched keys, leases)
    /// *without* advancing the logical clock — the read-only twin
    /// of [`WireRequest::AdvanceTime`].
    PushStats,
    /// Orderly connection shutdown: the server acknowledges and stops
    /// serving this connection.
    Shutdown,
}

/// A serving response, paired one-to-one with the request that caused it.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse<K> {
    /// Answer to [`WireRequest::Read`].
    Read(ReadResult),
    /// Answer to [`WireRequest::Write`] or [`WireRequest::WriteBatch`].
    Write(WriteOutcome),
    /// Answer to [`WireRequest::Aggregate`].
    Aggregate {
        /// The answer interval.
        answer: Interval,
        /// Keys fetched exactly, in fetch order.
        refreshed: Vec<K>,
    },
    /// Answer to [`WireRequest::Metrics`].
    Metrics(StoreMetrics<K>),
    /// Acknowledges [`WireRequest::Shutdown`]; the connection is done.
    ShutdownAck,
    /// Acknowledges [`WireRequest::Subscribe`] with the subscribed key's
    /// current cached interval (the stream's starting snapshot).
    Subscribed {
        /// The cached interval at subscription time (unbounded if the
        /// key has no cached approximation yet).
        interval: Interval,
    },
    /// Acknowledges [`WireRequest::Unsubscribe`].
    Unsubscribed {
        /// Whether the subscription was still live when cancelled.
        existed: bool,
    },
    /// Answer to [`WireRequest::Lease`] / [`WireRequest::ReleaseLease`].
    Leased {
        /// For a grant: `true` (the lease is armed). For a release:
        /// whether a lease existed to drop.
        active: bool,
    },
    /// Answer to [`WireRequest::AdvanceTime`]: the merged push-side
    /// occupancy report.
    TimeAdvanced(PushReport),
    /// Answer to [`WireRequest::KeyList`]: every registered key, sorted.
    Keys(Vec<K>),
    /// Answer to [`WireRequest::ExportKeys`]: the detached per-key state,
    /// in the request's key order.
    Exported(Vec<KeyState<K>>),
    /// Acknowledges [`WireRequest::ImportKeys`].
    Imported,
    /// Answer to [`WireRequest::Exposition`]: the Prometheus text
    /// exposition (format 0.0.4) as one UTF-8 document.
    /// ([`WireRequest::PushStats`] is answered with
    /// [`WireResponse::TimeAdvanced`] — same payload, no clock side
    /// effect — so it needs no frame of its own.)
    Exposition(String),
    /// The server rejected the request.
    Error(WireFault),
}

/// The paper's value-initiated refresh on the wire, generic over the
/// connection's key type — unlike the in-core
/// [`apcache_core::Refresh`], which is pinned to [`apcache_core::Key`].
/// For `K = Key` the encodings are byte-identical (see the `From`
/// conversions).
#[derive(Debug, Clone, PartialEq)]
pub struct WireRefresh<K> {
    /// Key whose approximation is replaced.
    pub key: K,
    /// The replacement approximation.
    pub spec: ApproxSpec,
    /// The source's internal adaptation width `W` (paper §3.2), carried
    /// so a cache handoff preserves the adaptation state.
    pub internal_width: f64,
}

/// The paper's query-initiated refresh answer on the wire: the exact
/// value plus its replacement approximation, generic over the key type.
#[derive(Debug, Clone, PartialEq)]
pub struct WireExact<K> {
    /// The exact value at the source.
    pub value: f64,
    /// The replacement approximation installed alongside it.
    pub refresh: WireRefresh<K>,
}

impl From<Refresh> for WireRefresh<Key> {
    fn from(r: Refresh) -> Self {
        WireRefresh { key: r.key, spec: r.spec, internal_width: r.internal_width }
    }
}

impl From<WireRefresh<Key>> for Refresh {
    fn from(r: WireRefresh<Key>) -> Self {
        Refresh { key: r.key, spec: r.spec, internal_width: r.internal_width }
    }
}

impl From<ExactResponse> for WireExact<Key> {
    fn from(e: ExactResponse) -> Self {
        WireExact { value: e.value, refresh: e.refresh.into() }
    }
}

impl From<WireExact<Key>> for ExactResponse {
    fn from(e: WireExact<Key>) -> Self {
        ExactResponse { value: e.value, refresh: e.refresh.into() }
    }
}

/// Any frame of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMessage<K> {
    /// Source → cache push: install a new approximation (paper Fig. 1,
    /// value-initiated refresh).
    Refresh(WireRefresh<K>),
    /// Source → cache reply: the exact value plus its replacement
    /// approximation (paper Fig. 1, query-initiated refresh).
    Exact(WireExact<K>),
    /// Client → server verb.
    Request(WireRequest<K>),
    /// Server → client outcome.
    Response(WireResponse<K>),
    /// Server → client push: a subscribed key's cached interval
    /// changed (or its lease lapsed). Carries the subscription's request
    /// id in the frame header so the client can route it.
    Push(PushEvent<K>),
}

impl<K> WireMessage<K> {
    /// The request a serving endpoint received, or the fault it answers
    /// with when a peer sends a frame of another role — paper-vocabulary
    /// `Refresh`/`Exact`, a `Response` or a server-initiated `Push`. The
    /// vocabulary is shared, the roles are not; the fault is an answer,
    /// not a disconnect.
    pub fn into_request(self) -> Result<WireRequest<K>, WireFault> {
        match self {
            WireMessage::Request(request) => Ok(request),
            WireMessage::Refresh(_)
            | WireMessage::Exact(_)
            | WireMessage::Response(_)
            | WireMessage::Push(_) => Err(WireFault::new(
                FaultKind::Unsupported,
                "this endpoint serves requests; push frames have no meaning here",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Field codecs.
// ---------------------------------------------------------------------

fn put_refresh<K: KeyCodec>(buf: &mut Vec<u8>, refresh: &WireRefresh<K>) {
    refresh.key.encode_key(buf);
    put_spec(buf, &refresh.spec);
    put_f64(buf, refresh.internal_width);
}

fn read_refresh<K: KeyCodec>(r: &mut Reader<'_>) -> Result<WireRefresh<K>, WireError> {
    Ok(WireRefresh { key: K::decode_key(r)?, spec: read_spec(r)?, internal_width: r.f64()? })
}

fn put_filter(buf: &mut Vec<u8>, filter: &PushFilter) {
    match filter {
        PushFilter::Always => put_u8(buf, 0),
        PushFilter::Violates(constraint) => {
            put_u8(buf, 1);
            put_constraint(buf, constraint);
        }
    }
}

fn read_filter(r: &mut Reader<'_>) -> Result<PushFilter, WireError> {
    match r.u8()? {
        0 => Ok(PushFilter::Always),
        1 => Ok(PushFilter::Violates(read_constraint(r)?)),
        tag => Err(WireError::UnknownTag { context: "push filter", tag }),
    }
}

fn put_reason(buf: &mut Vec<u8>, reason: PushReason) {
    put_u8(
        buf,
        match reason {
            PushReason::Changed => 0,
            PushReason::LeaseExpired => 1,
        },
    );
}

fn read_reason(r: &mut Reader<'_>) -> Result<PushReason, WireError> {
    match r.u8()? {
        0 => Ok(PushReason::Changed),
        1 => Ok(PushReason::LeaseExpired),
        tag => Err(WireError::UnknownTag { context: "push reason", tag }),
    }
}

fn put_constraint(buf: &mut Vec<u8>, c: &Constraint) {
    match *c {
        Constraint::Absolute(delta) => {
            put_u8(buf, 0);
            put_f64(buf, delta);
        }
        Constraint::Relative(frac) => {
            put_u8(buf, 1);
            put_f64(buf, frac);
        }
        Constraint::Exact => put_u8(buf, 2),
    }
}

fn read_constraint(r: &mut Reader<'_>) -> Result<Constraint, WireError> {
    match r.u8()? {
        0 => Ok(Constraint::Absolute(r.f64()?)),
        1 => Ok(Constraint::Relative(r.f64()?)),
        2 => Ok(Constraint::Exact),
        tag => Err(WireError::UnknownTag { context: "constraint", tag }),
    }
}

fn put_kind(buf: &mut Vec<u8>, kind: AggregateKind) {
    put_u8(
        buf,
        match kind {
            AggregateKind::Sum => 0,
            AggregateKind::Max => 1,
            AggregateKind::Min => 2,
            AggregateKind::Avg => 3,
        },
    );
}

fn read_kind(r: &mut Reader<'_>) -> Result<AggregateKind, WireError> {
    match r.u8()? {
        0 => Ok(AggregateKind::Sum),
        1 => Ok(AggregateKind::Max),
        2 => Ok(AggregateKind::Min),
        3 => Ok(AggregateKind::Avg),
        tag => Err(WireError::UnknownTag { context: "aggregate kind", tag }),
    }
}

fn put_answer(buf: &mut Vec<u8>, answer: &Answer) {
    match *answer {
        Answer::Interval(iv) => {
            put_u8(buf, 0);
            put_interval(buf, &iv);
        }
        Answer::Exact(v) => {
            put_u8(buf, 1);
            put_f64(buf, v);
        }
    }
}

fn read_answer(r: &mut Reader<'_>) -> Result<Answer, WireError> {
    match r.u8()? {
        0 => Ok(Answer::Interval(read_interval(r)?)),
        1 => {
            let v = r.f64()?;
            if v.is_nan() {
                return Err(WireError::InvalidPayload("exact answer is NaN"));
            }
            Ok(Answer::Exact(v))
        }
        tag => Err(WireError::UnknownTag { context: "answer", tag }),
    }
}

fn put_store_metrics<K: KeyCodec + Ord + Clone>(buf: &mut Vec<u8>, m: &StoreMetrics<K>) {
    put_key_metrics(buf, m.totals());
    put_seq(buf, m.iter().count());
    for (key, km) in m.iter() {
        key.encode_key(buf);
        put_key_metrics(buf, km);
    }
}

fn read_store_metrics<K: KeyCodec + Ord + Clone>(
    r: &mut Reader<'_>,
) -> Result<StoreMetrics<K>, WireError> {
    let totals = read_key_metrics(r)?;
    let n = r.seq(K::MIN_ENCODED_BYTES + KEY_METRICS_BYTES)?;
    let mut per_key = Vec::with_capacity(n);
    for _ in 0..n {
        let key = K::decode_key(r)?;
        per_key.push((key, read_key_metrics(r)?));
    }
    Ok(StoreMetrics::from_parts(totals, per_key))
}

fn put_fault(buf: &mut Vec<u8>, fault: &WireFault) {
    put_u8(buf, fault.kind.tag());
    put_str(buf, &fault.detail);
}

fn read_fault(r: &mut Reader<'_>) -> Result<WireFault, WireError> {
    Ok(WireFault { kind: FaultKind::from_tag(r.u8()?)?, detail: r.str()? })
}

fn put_keys<K: KeyCodec>(buf: &mut Vec<u8>, keys: &[K]) {
    put_seq(buf, keys.len());
    for key in keys {
        key.encode_key(buf);
    }
}

fn read_keys<K: KeyCodec>(r: &mut Reader<'_>) -> Result<Vec<K>, WireError> {
    let n = r.seq(K::MIN_ENCODED_BYTES)?;
    let mut keys = Vec::with_capacity(n);
    for _ in 0..n {
        keys.push(K::decode_key(r)?);
    }
    Ok(keys)
}

fn put_lease_cfg(buf: &mut Vec<u8>, cfg: &LeaseConfig) {
    put_u64(buf, cfg.ttl_ms);
    match cfg.fallback {
        FallbackWidth::Unbounded => put_u8(buf, 0),
        FallbackWidth::Fixed(w) => {
            put_u8(buf, 1);
            put_f64(buf, w);
        }
        FallbackWidth::Factor(f) => {
            put_u8(buf, 2);
            put_f64(buf, f);
        }
    }
}

fn read_lease_cfg(r: &mut Reader<'_>) -> Result<LeaseConfig, WireError> {
    let ttl_ms = r.u64()?;
    let fallback = match r.u8()? {
        0 => FallbackWidth::Unbounded,
        1 => FallbackWidth::Fixed(r.f64()?),
        2 => FallbackWidth::Factor(r.f64()?),
        tag => return Err(WireError::UnknownTag { context: "lease fallback", tag }),
    };
    let cfg = LeaseConfig { ttl_ms, fallback };
    if !cfg.validate() {
        return Err(WireError::InvalidPayload("lease config (zero ttl or invalid fallback)"));
    }
    Ok(cfg)
}

fn put_push_report(buf: &mut Vec<u8>, report: &PushReport) {
    put_u64(buf, report.subscribers as u64);
    put_u64(buf, report.watched_keys as u64);
    put_u64(buf, report.leases as u64);
    put_u64(buf, report.expired as u64);
}

fn read_push_report(r: &mut Reader<'_>) -> Result<PushReport, WireError> {
    let mut field = || {
        usize::try_from(r.u64()?)
            .map_err(|_| WireError::InvalidPayload("push report count overflows usize"))
    };
    Ok(PushReport {
        subscribers: field()?,
        watched_keys: field()?,
        leases: field()?,
        expired: field()?,
    })
}

// ---------------------------------------------------------------------
// Frame codecs.
// ---------------------------------------------------------------------

/// One frame body in a fresh buffer; the transport adds the length
/// prefix.
pub fn frame_to_vec<K: KeyCodec + Ord + Clone>(request_id: u64, msg: &WireMessage<K>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    encode_body(request_id, msg, &mut buf);
    buf
}

/// Encode one *length-prefixed* frame directly into a
/// caller-owned buffer: `u32-LE length ∥ body`, appended to `out`. This
/// is the zero-copy entry point for event-driven servers that coalesce
/// many frames into one socket write — the length slot is reserved
/// first and backfilled after the body lands, so encoding is a single
/// pass with no intermediate `Vec` per frame. Returns the number of
/// bytes appended (prefix + body).
pub fn encode_framed<K: KeyCodec + Ord + Clone>(
    request_id: u64,
    msg: &WireMessage<K>,
    out: &mut Vec<u8>,
) -> usize {
    let prefix_at = out.len();
    out.extend_from_slice(&[0u8; 4]); // length slot, backfilled below
    encode_body(request_id, msg, out);
    let body_len = out.len() - prefix_at - 4;
    let len = u32::try_from(body_len).expect("frame body exceeds u32 length prefix");
    out[prefix_at..prefix_at + 4].copy_from_slice(&len.to_le_bytes());
    body_len + 4
}

fn encode_body<K: KeyCodec + Ord + Clone>(
    request_id: u64,
    msg: &WireMessage<K>,
    buf: &mut Vec<u8>,
) {
    put_u8(buf, MAGIC);
    put_u8(buf, VERSION);
    let tag = match msg {
        WireMessage::Refresh(_) => MSG_REFRESH,
        WireMessage::Exact(_) => MSG_EXACT,
        WireMessage::Request(_) => MSG_REQUEST,
        WireMessage::Response(_) => MSG_RESPONSE,
        WireMessage::Push(_) => MSG_PUSH,
    };
    put_u8(buf, tag);
    put_u64(buf, request_id);
    match msg {
        WireMessage::Refresh(refresh) => {
            put_refresh(buf, refresh);
        }
        WireMessage::Exact(exact) => {
            put_f64(buf, exact.value);
            put_refresh(buf, &exact.refresh);
        }
        WireMessage::Request(req) => match req {
            WireRequest::Read { key, constraint, now } => {
                put_u8(buf, VERB_READ);
                key.encode_key(buf);
                put_constraint(buf, constraint);
                put_u64(buf, *now);
            }
            WireRequest::Write { key, value, now } => {
                put_u8(buf, VERB_WRITE);
                key.encode_key(buf);
                put_f64(buf, *value);
                put_u64(buf, *now);
            }
            WireRequest::WriteBatch { items, now } => {
                put_u8(buf, VERB_WRITE_BATCH);
                put_seq(buf, items.len());
                for (key, value) in items {
                    key.encode_key(buf);
                    put_f64(buf, *value);
                }
                put_u64(buf, *now);
            }
            WireRequest::Aggregate { kind, keys, constraint, now } => {
                put_u8(buf, VERB_AGGREGATE);
                put_kind(buf, *kind);
                put_keys(buf, keys);
                put_constraint(buf, constraint);
                put_u64(buf, *now);
            }
            WireRequest::Metrics => put_u8(buf, VERB_METRICS),
            WireRequest::Subscribe { key, filter, now } => {
                put_u8(buf, VERB_SUBSCRIBE);
                key.encode_key(buf);
                put_filter(buf, filter);
                put_u64(buf, *now);
            }
            WireRequest::Unsubscribe { sub } => {
                put_u8(buf, VERB_UNSUBSCRIBE);
                put_u64(buf, *sub);
            }
            WireRequest::Lease { key, cfg, now } => {
                put_u8(buf, VERB_LEASE);
                key.encode_key(buf);
                put_lease_cfg(buf, cfg);
                put_u64(buf, *now);
            }
            WireRequest::ReleaseLease { key, now } => {
                put_u8(buf, VERB_RELEASE_LEASE);
                key.encode_key(buf);
                put_u64(buf, *now);
            }
            WireRequest::AdvanceTime { now } => {
                put_u8(buf, VERB_ADVANCE_TIME);
                put_u64(buf, *now);
            }
            WireRequest::KeyList => put_u8(buf, VERB_KEY_LIST),
            WireRequest::ExportKeys { keys } => {
                put_u8(buf, VERB_EXPORT_KEYS);
                put_keys(buf, keys);
            }
            WireRequest::ImportKeys { states } => {
                put_u8(buf, VERB_IMPORT_KEYS);
                put_key_states(buf, states);
            }
            WireRequest::Exposition => put_u8(buf, VERB_EXPOSITION),
            WireRequest::PushStats => put_u8(buf, VERB_PUSH_STATS),
            WireRequest::Shutdown => put_u8(buf, VERB_SHUTDOWN),
        },
        WireMessage::Response(resp) => match resp {
            WireResponse::Read(result) => {
                put_u8(buf, RESP_READ);
                put_answer(buf, &result.answer);
                put_bool(buf, result.refreshed);
            }
            WireResponse::Write(outcome) => {
                put_u8(buf, RESP_WRITE);
                put_u64(buf, outcome.refreshes as u64);
            }
            WireResponse::Aggregate { answer, refreshed } => {
                put_u8(buf, RESP_AGGREGATE);
                put_interval(buf, answer);
                put_keys(buf, refreshed);
            }
            WireResponse::Metrics(metrics) => {
                put_u8(buf, RESP_METRICS);
                put_store_metrics(buf, metrics);
            }
            WireResponse::ShutdownAck => put_u8(buf, RESP_SHUTDOWN_ACK),
            WireResponse::Subscribed { interval } => {
                put_u8(buf, RESP_SUBSCRIBED);
                put_interval(buf, interval);
            }
            WireResponse::Unsubscribed { existed } => {
                put_u8(buf, RESP_UNSUBSCRIBED);
                put_bool(buf, *existed);
            }
            WireResponse::Leased { active } => {
                put_u8(buf, RESP_LEASED);
                put_bool(buf, *active);
            }
            WireResponse::TimeAdvanced(report) => {
                put_u8(buf, RESP_TIME_ADVANCED);
                put_push_report(buf, report);
            }
            WireResponse::Keys(keys) => {
                put_u8(buf, RESP_KEYS);
                put_keys(buf, keys);
            }
            WireResponse::Exported(states) => {
                put_u8(buf, RESP_EXPORTED);
                put_key_states(buf, states);
            }
            WireResponse::Imported => put_u8(buf, RESP_IMPORTED),
            WireResponse::Exposition(text) => {
                put_u8(buf, RESP_EXPOSITION);
                put_str(buf, text);
            }
            WireResponse::Error(fault) => {
                put_u8(buf, RESP_ERROR);
                put_fault(buf, fault);
            }
        },
        WireMessage::Push(event) => {
            event.key.encode_key(buf);
            put_interval(buf, &event.interval);
            put_reason(buf, event.reason);
            put_u64(buf, event.now);
        }
    }
}

/// Convenience: encode (request id 0) into a fresh buffer.
pub fn encode_to_vec<K: KeyCodec + Ord + Clone>(msg: &WireMessage<K>) -> Vec<u8> {
    frame_to_vec(0, msg)
}

/// One decoded frame: the message and the request id that correlates it
/// across a pipelined connection.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFrame<K> {
    /// The pipelining correlation id.
    pub request_id: u64,
    /// The decoded message.
    pub msg: WireMessage<K>,
}

/// Decode one frame body's message, discarding the pipelining header
/// (see [`decode_frame`] for the id).
pub fn decode_message<K: KeyCodec + Ord + Clone>(body: &[u8]) -> Result<WireMessage<K>, WireError> {
    decode_frame(body).map(|frame| frame.msg)
}

/// Decode one frame body produced by [`frame_to_vec`] or
/// [`encode_framed`]. Strict: a version byte other than [`VERSION`] is
/// [`WireError::BadVersion`], the whole input must be consumed
/// ([`WireError::TrailingBytes`] otherwise), and any malformed input
/// returns a [`WireError`] — never a panic.
pub fn decode_frame<K: KeyCodec + Ord + Clone>(body: &[u8]) -> Result<DecodedFrame<K>, WireError> {
    let mut r = Reader::new(body);
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    if !(MSG_REFRESH..=MSG_PUSH).contains(&tag) {
        // Rejected before the request-id field: a bogus tag means the
        // stream is junk, and the header that follows it is too.
        return Err(WireError::UnknownTag { context: "message", tag });
    }
    let request_id = r.u64()?;
    let msg = match tag {
        MSG_REFRESH => WireMessage::Refresh(read_refresh(&mut r)?),
        MSG_EXACT => {
            let value = r.f64()?;
            WireMessage::Exact(WireExact { value, refresh: read_refresh(&mut r)? })
        }
        MSG_REQUEST => WireMessage::Request(match r.u8()? {
            VERB_READ => WireRequest::Read {
                key: K::decode_key(&mut r)?,
                constraint: read_constraint(&mut r)?,
                now: r.u64()?,
            },
            VERB_WRITE => {
                WireRequest::Write { key: K::decode_key(&mut r)?, value: r.f64()?, now: r.u64()? }
            }
            VERB_WRITE_BATCH => {
                let n = r.seq(K::MIN_ENCODED_BYTES + 8)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = K::decode_key(&mut r)?;
                    items.push((key, r.f64()?));
                }
                WireRequest::WriteBatch { items, now: r.u64()? }
            }
            VERB_AGGREGATE => WireRequest::Aggregate {
                kind: read_kind(&mut r)?,
                keys: read_keys(&mut r)?,
                constraint: read_constraint(&mut r)?,
                now: r.u64()?,
            },
            VERB_METRICS => WireRequest::Metrics,
            VERB_SHUTDOWN => WireRequest::Shutdown,
            VERB_SUBSCRIBE => WireRequest::Subscribe {
                key: K::decode_key(&mut r)?,
                filter: read_filter(&mut r)?,
                now: r.u64()?,
            },
            VERB_UNSUBSCRIBE => WireRequest::Unsubscribe { sub: r.u64()? },
            VERB_LEASE => WireRequest::Lease {
                key: K::decode_key(&mut r)?,
                cfg: read_lease_cfg(&mut r)?,
                now: r.u64()?,
            },
            VERB_RELEASE_LEASE => {
                WireRequest::ReleaseLease { key: K::decode_key(&mut r)?, now: r.u64()? }
            }
            VERB_ADVANCE_TIME => WireRequest::AdvanceTime { now: r.u64()? },
            VERB_KEY_LIST => WireRequest::KeyList,
            VERB_EXPORT_KEYS => WireRequest::ExportKeys { keys: read_keys(&mut r)? },
            VERB_IMPORT_KEYS => WireRequest::ImportKeys { states: read_key_states(&mut r)? },
            VERB_EXPOSITION => WireRequest::Exposition,
            VERB_PUSH_STATS => WireRequest::PushStats,
            tag => return Err(WireError::UnknownTag { context: "request verb", tag }),
        }),
        MSG_RESPONSE => WireMessage::Response(match r.u8()? {
            RESP_READ => {
                let answer = read_answer(&mut r)?;
                WireResponse::Read(ReadResult { answer, refreshed: r.bool()? })
            }
            RESP_WRITE => {
                let refreshes = usize::try_from(r.u64()?)
                    .map_err(|_| WireError::InvalidPayload("refresh count overflows usize"))?;
                WireResponse::Write(WriteOutcome { refreshes })
            }
            RESP_AGGREGATE => WireResponse::Aggregate {
                answer: read_interval(&mut r)?,
                refreshed: read_keys(&mut r)?,
            },
            RESP_METRICS => WireResponse::Metrics(read_store_metrics(&mut r)?),
            RESP_SHUTDOWN_ACK => WireResponse::ShutdownAck,
            RESP_SUBSCRIBED => WireResponse::Subscribed { interval: read_interval(&mut r)? },
            RESP_UNSUBSCRIBED => WireResponse::Unsubscribed { existed: r.bool()? },
            RESP_LEASED => WireResponse::Leased { active: r.bool()? },
            RESP_TIME_ADVANCED => WireResponse::TimeAdvanced(read_push_report(&mut r)?),
            RESP_KEYS => WireResponse::Keys(read_keys(&mut r)?),
            RESP_EXPORTED => WireResponse::Exported(read_key_states(&mut r)?),
            RESP_IMPORTED => WireResponse::Imported,
            RESP_EXPOSITION => WireResponse::Exposition(r.str()?),
            RESP_ERROR => WireResponse::Error(read_fault(&mut r)?),
            tag => return Err(WireError::UnknownTag { context: "response kind", tag }),
        }),
        MSG_PUSH => WireMessage::Push(PushEvent {
            key: K::decode_key(&mut r)?,
            interval: read_interval(&mut r)?,
            reason: read_reason(&mut r)?,
            now: r.u64()?,
        }),
        tag => return Err(WireError::UnknownTag { context: "message", tag }),
    };
    r.finish()?;
    Ok(DecodedFrame { request_id, msg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use apcache_core::policy::ApproxSpec;
    use apcache_store::codec::put_u32;
    use apcache_store::{KeyMetrics, PolicySpec};

    fn round_trip(msg: WireMessage<String>) {
        let body = encode_to_vec(&msg);
        let back: WireMessage<String> = decode_message(&body).expect("decodes");
        assert_eq!(back, msg);
        // And the re-encoding is byte-identical (canonical encoding).
        assert_eq!(encode_to_vec(&back), body);
    }

    #[test]
    fn paper_vocabulary_round_trips() {
        round_trip(WireMessage::Refresh(WireRefresh {
            key: "stock/ibm".to_string(),
            spec: ApproxSpec::Constant(Interval::new(-3.5, 12.25).unwrap()),
            internal_width: 15.75,
        }));
        round_trip(WireMessage::Exact(WireExact {
            value: -0.0,
            refresh: WireRefresh {
                key: String::new(),
                spec: ApproxSpec::Growing {
                    center: 1.0,
                    base_width: 2.0,
                    coeff: 0.5,
                    exponent: 0.5,
                    t0: 9_000,
                },
                internal_width: 2.0,
            },
        }));
        round_trip(WireMessage::Refresh(WireRefresh {
            key: "q".to_string(),
            spec: ApproxSpec::Drifting { lo0: -1.0, hi0: 4.0, rate_per_sec: -0.25, t0: 0 },
            internal_width: f64::INFINITY,
        }));
    }

    #[test]
    fn key_refreshes_keep_the_u32_layout() {
        // The generic WireRefresh<K> with K = Key must encode
        // byte-identically to the old hardcoded `put_u32(key.0)` layout,
        // so Refresh frames from Key-typed peers keep their bytes.
        let refresh = Refresh {
            key: Key(0xDEAD_BEEF),
            spec: ApproxSpec::Constant(Interval::new(1.0, 2.0).unwrap()),
            internal_width: 1.0,
        };
        let body = encode_to_vec(&WireMessage::<Key>::Refresh(refresh.clone().into()));
        // Hand-build the legacy layout.
        let mut legacy = vec![MAGIC, VERSION, MSG_REFRESH];
        put_u64(&mut legacy, 0); // request id
        put_u32(&mut legacy, 0xDEAD_BEEF); // key, old hardcoded form
        put_spec(&mut legacy, &refresh.spec);
        put_f64(&mut legacy, 1.0);
        assert_eq!(body, legacy);
        // And it converts back into the in-core type losslessly.
        let frame = decode_frame::<Key>(&body).unwrap();
        match frame.msg {
            WireMessage::Refresh(wire) => assert_eq!(Refresh::from(wire), refresh),
            other => panic!("expected a refresh frame, got {other:?}"),
        }
    }

    #[test]
    fn every_request_verb_round_trips() {
        round_trip(WireMessage::Request(WireRequest::Read {
            key: "sensor/007".into(),
            constraint: Constraint::Absolute(2.5),
            now: 1_000,
        }));
        round_trip(WireMessage::Request(WireRequest::Read {
            key: String::new(),
            constraint: Constraint::Relative(0.05),
            now: 0,
        }));
        round_trip(WireMessage::Request(WireRequest::Write {
            key: "k".into(),
            value: -1e308,
            now: u64::MAX,
        }));
        round_trip(WireMessage::Request(WireRequest::WriteBatch {
            items: vec![("a".into(), 1.0), ("b".into(), -0.0), ("c".into(), 3.5)],
            now: 42,
        }));
        round_trip(WireMessage::Request(WireRequest::Aggregate {
            kind: AggregateKind::Avg,
            keys: vec!["x".into(), "y".into()],
            constraint: Constraint::Exact,
            now: 5,
        }));
        round_trip(WireMessage::Request(WireRequest::Metrics));
        round_trip(WireMessage::Request(WireRequest::Shutdown));
    }

    #[test]
    fn every_response_kind_round_trips() {
        round_trip(WireMessage::Response(WireResponse::Read(ReadResult {
            answer: Answer::Interval(Interval::new(f64::NEG_INFINITY, f64::INFINITY).unwrap()),
            refreshed: false,
        })));
        round_trip(WireMessage::Response(WireResponse::Read(ReadResult {
            answer: Answer::Exact(99.5),
            refreshed: true,
        })));
        round_trip(WireMessage::Response(WireResponse::Write(WriteOutcome { refreshes: 3 })));
        round_trip(WireMessage::Response(WireResponse::Aggregate {
            answer: Interval::new(10.0, 20.0).unwrap(),
            refreshed: vec!["w1".into(), "w2".into()],
        }));
        let mut m: StoreMetrics<String> = StoreMetrics::new();
        m.merge(&StoreMetrics::from_parts(
            KeyMetrics { reads: 5, cache_hits: 4, qr_cost: 0.1 + 0.2, ..KeyMetrics::default() },
            [(
                "a".to_string(),
                KeyMetrics { reads: 5, cache_hits: 4, qr_cost: 0.1 + 0.2, ..KeyMetrics::default() },
            )],
        ));
        round_trip(WireMessage::Response(WireResponse::Metrics(m)));
        round_trip(WireMessage::Response(WireResponse::ShutdownAck));
        round_trip(WireMessage::Response(WireResponse::Error(WireFault::new(
            FaultKind::UnknownKey,
            "no source registered for the requested key",
        ))));
    }

    #[test]
    fn integer_keys_round_trip_too() {
        let msg: WireMessage<u64> = WireMessage::Request(WireRequest::Aggregate {
            kind: AggregateKind::Sum,
            keys: vec![0, u64::MAX, 17],
            constraint: Constraint::Absolute(f64::INFINITY),
            now: 3,
        });
        let body = encode_to_vec(&msg);
        assert_eq!(decode_message::<u64>(&body).unwrap(), msg);
    }

    #[test]
    fn bad_header_is_rejected() {
        let body = encode_to_vec::<String>(&WireMessage::Request(WireRequest::Metrics));
        let mut wrong_magic = body.clone();
        wrong_magic[0] = 0x00;
        assert_eq!(decode_message::<String>(&wrong_magic), Err(WireError::BadMagic(0)));
        let mut wrong_version = body.clone();
        wrong_version[1] = 99;
        assert_eq!(decode_message::<String>(&wrong_version), Err(WireError::BadVersion(99)));
        let mut wrong_tag = body;
        wrong_tag[2] = 0xEE;
        assert_eq!(
            decode_message::<String>(&wrong_tag),
            Err(WireError::UnknownTag { context: "message", tag: 0xEE })
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut body = encode_to_vec::<String>(&WireMessage::Request(WireRequest::Shutdown));
        body.extend_from_slice(b"junk");
        assert_eq!(decode_message::<String>(&body), Err(WireError::TrailingBytes { count: 4 }));
    }

    #[test]
    fn nan_interval_bounds_are_rejected() {
        // Hand-build a Refresh frame whose interval smuggles a NaN bound.
        let mut body = vec![MAGIC, VERSION, MSG_REFRESH];
        put_u64(&mut body, 0); // request id
        put_str(&mut body, "k"); // key
        put_u8(&mut body, 0); // ApproxSpec::Constant
        put_u64(&mut body, f64::NAN.to_bits());
        put_u64(&mut body, 1.0f64.to_bits());
        put_f64(&mut body, 4.0); // internal width
        assert!(matches!(decode_message::<String>(&body), Err(WireError::InvalidPayload(_))));
    }

    #[test]
    fn request_ids_ride_the_header_and_round_trip() {
        let msg: WireMessage<String> = WireMessage::Request(WireRequest::Read {
            key: "k".into(),
            constraint: Constraint::Exact,
            now: 9,
        });
        for id in [0u64, 1, 42, u64::MAX] {
            let body = frame_to_vec(id, &msg);
            let frame = decode_frame::<String>(&body).unwrap();
            assert_eq!(frame.request_id, id);
            assert_eq!(frame.msg, msg);
            // Canonical: re-encoding reproduces the bytes.
            assert_eq!(frame_to_vec(frame.request_id, &frame.msg), body);
        }
        // The id sits in the header, not the fields: two ids differ only
        // in the 8 bytes after the tag.
        let a = frame_to_vec(1, &msg);
        let b = frame_to_vec(2, &msg);
        assert_eq!(a[..3], b[..3]);
        assert_eq!(a[11..], b[11..]);
        assert_ne!(a[3..11], b[3..11]);
    }

    #[test]
    fn unknown_versions_are_still_rejected() {
        // Every byte but VERSION is refused at the header, before any
        // field is read — 1 and 2 (earlier layouts) included.
        let mut body = encode_to_vec::<String>(&WireMessage::Request(WireRequest::Metrics));
        assert_eq!(body[1], VERSION);
        for version in [0u8, 1, 2, 4] {
            body[1] = version;
            assert_eq!(decode_frame::<String>(&body), Err(WireError::BadVersion(version)));
        }
    }

    #[test]
    fn push_vocabulary_round_trips() {
        round_trip(WireMessage::Request(WireRequest::Subscribe {
            key: "hot".into(),
            filter: PushFilter::Always,
            now: 12,
        }));
        round_trip(WireMessage::Request(WireRequest::Subscribe {
            key: "hot".into(),
            filter: PushFilter::Violates(Constraint::Relative(0.01)),
            now: 0,
        }));
        round_trip(WireMessage::Request(WireRequest::Unsubscribe { sub: u64::MAX }));
        round_trip(WireMessage::Response(WireResponse::Subscribed {
            interval: Interval::new(9.5, 10.5).unwrap(),
        }));
        round_trip(WireMessage::Response(WireResponse::Unsubscribed { existed: true }));
        round_trip(WireMessage::Response(WireResponse::Unsubscribed { existed: false }));
        for reason in [PushReason::Changed, PushReason::LeaseExpired] {
            round_trip(WireMessage::Push(PushEvent {
                key: "hot".to_string(),
                interval: Interval::new(-1.0, f64::INFINITY).unwrap(),
                reason,
                now: 77,
            }));
        }
    }

    #[test]
    fn lease_vocabulary_round_trips() {
        use apcache_push::{FallbackWidth, LeaseConfig, PushReport};
        for fallback in
            [FallbackWidth::Unbounded, FallbackWidth::Fixed(12.5), FallbackWidth::Factor(2.0)]
        {
            round_trip(WireMessage::Request(WireRequest::Lease {
                key: "leased".into(),
                cfg: LeaseConfig { ttl_ms: 5_000, fallback },
                now: 17,
            }));
        }
        round_trip(WireMessage::Request(WireRequest::ReleaseLease {
            key: "leased".into(),
            now: 9,
        }));
        round_trip(WireMessage::Request(WireRequest::AdvanceTime { now: u64::MAX }));
        round_trip(WireMessage::Response(WireResponse::Leased { active: true }));
        round_trip(WireMessage::Response(WireResponse::Leased { active: false }));
        round_trip(WireMessage::Response(WireResponse::TimeAdvanced(PushReport {
            subscribers: 3,
            watched_keys: 2,
            leases: 5,
            expired: 1,
        })));
    }

    #[test]
    fn telemetry_vocabulary_round_trips() {
        round_trip(WireMessage::Request(WireRequest::Exposition));
        round_trip(WireMessage::Request(WireRequest::PushStats));
        round_trip(WireMessage::Response(WireResponse::Exposition(String::new())));
        round_trip(WireMessage::Response(WireResponse::Exposition(
            "# HELP apcache_reads_total Point reads served.\n\
             # TYPE apcache_reads_total counter\n\
             apcache_reads_total 42\n"
                .to_string(),
        )));
    }

    #[test]
    fn invalid_lease_configs_are_rejected_on_decode() {
        use apcache_push::{FallbackWidth, LeaseConfig};
        // Zero TTL and a sub-unit factor are both meaningless; hand-build
        // the frames since the typed constructors would be valid.
        for (ttl, fb_tag, fb_value) in [(0u64, 0u8, 0.0), (100, 2, 0.5), (100, 1, -1.0)] {
            let mut body = vec![MAGIC, VERSION, MSG_REQUEST];
            put_u64(&mut body, 1); // request id
            put_u8(&mut body, 9); // VERB_LEASE
            put_str(&mut body, "k");
            put_u64(&mut body, ttl);
            put_u8(&mut body, fb_tag);
            if fb_tag != 0 {
                put_f64(&mut body, fb_value);
            }
            put_u64(&mut body, 0); // now
            assert!(
                matches!(decode_message::<String>(&body), Err(WireError::InvalidPayload(_))),
                "ttl={ttl} fb_tag={fb_tag} fb_value={fb_value}"
            );
        }
        // And the valid form still decodes (guards the hand-built layout).
        let msg: WireMessage<String> = WireMessage::Request(WireRequest::Lease {
            key: "k".into(),
            cfg: LeaseConfig { ttl_ms: 100, fallback: FallbackWidth::Factor(1.5) },
            now: 0,
        });
        assert_eq!(decode_message::<String>(&encode_to_vec(&msg)).unwrap(), msg);
    }

    #[test]
    fn migration_vocabulary_round_trips() {
        use apcache_core::policy::{GrowthLaw, Weighting};
        round_trip(WireMessage::Request(WireRequest::KeyList));
        round_trip(WireMessage::Request(WireRequest::ExportKeys {
            keys: vec!["a".into(), "b".into()],
        }));
        round_trip(WireMessage::Response(WireResponse::Keys(vec!["a".into(), "b".into()])));
        round_trip(WireMessage::Response(WireResponse::Imported));
        // One state per policy family, exercising every optional field.
        let states: Vec<KeyState<String>> = vec![
            KeyState {
                key: "adaptive".into(),
                value: 41.5,
                spec: PolicySpec::Adaptive,
                policy_state: vec![10.0],
                source_spec: ApproxSpec::Constant(Interval::new(36.5, 46.5).unwrap()),
                cached: Some((ApproxSpec::Constant(Interval::new(36.5, 46.5).unwrap()), 10.0)),
                metrics: Some(KeyMetrics {
                    reads: 7,
                    cache_hits: 5,
                    writes: 3,
                    vr_count: 2,
                    qr_count: 1,
                    vr_cost: 2.0,
                    qr_cost: 1.5,
                }),
            },
            KeyState {
                key: "uncentered".into(),
                value: -0.0,
                spec: PolicySpec::Uncentered,
                policy_state: vec![4.0, 6.0],
                source_spec: ApproxSpec::Constant(Interval::new(-4.0, 6.0).unwrap()),
                cached: None,
                metrics: None,
            },
            KeyState {
                key: "growing".into(),
                value: 1e9,
                spec: PolicySpec::TimeVarying(GrowthLaw::sqrt(2.0).unwrap()),
                policy_state: vec![],
                source_spec: ApproxSpec::Growing {
                    center: 1e9,
                    base_width: 5.0,
                    coeff: 2.0,
                    exponent: 0.5,
                    t0: 1_000,
                },
                cached: None,
                metrics: None,
            },
            KeyState {
                key: "history".into(),
                value: 2.25,
                spec: PolicySpec::History {
                    r: 5,
                    weighting: Weighting::Exponential { decay: 0.5 },
                },
                policy_state: vec![8.0, 1.0, 0.0, 1.0],
                source_spec: ApproxSpec::Drifting { lo0: 0.0, hi0: 4.0, rate_per_sec: 0.25, t0: 7 },
                cached: Some((ApproxSpec::Constant(Interval::new(0.0, 4.5).unwrap()), 4.5)),
                metrics: None,
            },
        ];
        round_trip(WireMessage::Request(WireRequest::ImportKeys { states: states.clone() }));
        round_trip(WireMessage::Response(WireResponse::Exported(states)));
    }

    #[test]
    fn exported_and_import_frames_embed_the_shared_key_state_bytes_verbatim() {
        // The literal `apcache_store::codec` pins at its definition (and
        // the spool pins inside a snapshot image): header, verb tag and
        // count are this crate's, every byte after them is the codec's.
        const GOLDEN_HEX: &str = "0800000073656e736f722d39000000000000008004030000000000000001000000000000e03f030000000000000000002940000000000000f07f00000000000008c002000000000000f03f0000000000000040000000000000d03f09000000000000000101000000000000f83f000000000000f03f9a9999999999b93f000000000000e03f4d000000000000000000000000003e400104000000000000000300000000000000020000000000000001000000000000000100000000000000000000000000f83f0000000000000440";
        let golden: Vec<u8> = (0..GOLDEN_HEX.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&GOLDEN_HEX[i..i + 2], 16).unwrap())
            .collect();
        let state: KeyState<String> =
            apcache_store::codec::read_key_state(&mut Reader::new(&golden)).unwrap();
        let mut tail = 1u32.to_le_bytes().to_vec();
        tail.extend_from_slice(&golden);
        for (msg, tag) in [
            (WireMessage::Response(WireResponse::Exported(vec![state.clone()])), RESP_EXPORTED),
            (
                WireMessage::Request(WireRequest::ImportKeys { states: vec![state] }),
                VERB_IMPORT_KEYS,
            ),
        ] {
            let body = frame_to_vec(7, &msg);
            assert_eq!(body[11], tag);
            assert_eq!(body[12..], tail[..]);
            assert_eq!(decode_message::<String>(&body).unwrap(), msg);
        }
    }

    #[test]
    fn hostile_key_state_counts_do_not_allocate() {
        // An ImportKeys frame claiming u32::MAX states with a near-empty
        // body must fail on the length check, not attempt the allocation.
        let mut body = vec![MAGIC, VERSION, MSG_REQUEST];
        put_u64(&mut body, 1); // request id
        put_u8(&mut body, 14); // VERB_IMPORT_KEYS
        put_u32(&mut body, u32::MAX);
        assert!(matches!(decode_message::<String>(&body), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn push_frames_carry_their_subscription_id() {
        let msg: WireMessage<String> = WireMessage::Push(PushEvent {
            key: "k".to_string(),
            interval: Interval::new(0.0, 1.0).unwrap(),
            reason: PushReason::Changed,
            now: 3,
        });
        let body = frame_to_vec(41, &msg);
        let frame = decode_frame::<String>(&body).unwrap();
        assert_eq!(frame.request_id, 41);
        assert_eq!(frame.msg, msg);
    }
}
