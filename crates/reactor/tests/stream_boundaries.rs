//! Where the bytes of a pipeline fall must not matter: the reply stream
//! is the same whether the requests arrive in one write or split at any
//! byte, and a FIN straight after a full window loses no request. A
//! stream the worker cannot ready is closed without stalling the worker.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apcache_push::PushFilter;
use apcache_queries::AggregateKind;
use apcache_reactor::{RawFd, Reactor, ReactorConfig, ReactorStream};
use apcache_runtime::{Runtime, RuntimeConfig};
use apcache_shard::ShardedStoreBuilder;
use apcache_store::{Constraint, InitialWidth};
use apcache_telemetry::TraceKind;
use apcache_wire::{
    decode_frame, encode_framed, loopback_streams, split_frame, LoopbackStream, RemoteStoreClient,
    StreamTransport, WireMessage, WireRequest, WireResponse,
};

/// One shard, so completions leave the single actor in submission order
/// and the reply stream is a function of the request stream alone.
fn one_shard(config: RuntimeConfig) -> Runtime<u64> {
    let store = ShardedStoreBuilder::new()
        .shards(1)
        .initial_width(InitialWidth::Fixed(10.0))
        .source(1u64, 100.0)
        .source(2u64, 200.0)
        .build()
        .unwrap();
    Runtime::launch_with(store, config).unwrap()
}

/// The reactor's end of a loopback pair, counting the reads that found
/// it empty. `ReadBuf::fill_from` reads until `WouldBlock`, so a bump
/// means the worker has taken in everything written so far and is about
/// to run the state machine over exactly that — the client waits for it
/// before writing the next piece, which makes every cut a real partial
/// buffer on the server rather than a race with the worker's wake-up.
/// With `refuse_adopt` set it is a stream that cannot be readied.
struct Observed {
    inner: LoopbackStream,
    drained: Arc<AtomicUsize>,
    refuse_adopt: bool,
}

impl Observed {
    fn new(inner: LoopbackStream) -> Self {
        Observed { inner, drained: Arc::default(), refuse_adopt: false }
    }
}

impl Read for Observed {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.inner.read(buf);
        if matches!(&read, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
            self.drained.fetch_add(1, Ordering::SeqCst);
        }
        read
    }
}

impl Write for Observed {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl ReactorStream for Observed {
    fn adopt(&self) -> io::Result<()> {
        if self.refuse_adopt {
            return Err(io::Error::other("this stream cannot be readied"));
        }
        self.inner.adopt()
    }

    fn raw_fd(&self) -> Option<RawFd> {
        None
    }

    fn set_ready_hook(&self, hook: Option<Arc<dyn Fn() + Send + Sync>>) -> bool {
        self.inner.set_ready_hook(hook);
        true
    }
}

/// The fixed pipeline, as the bytes a client would write. The one verb
/// answered on the spot (an `Unsubscribe` naming no live subscription)
/// leads: an immediate answer overtakes completions still on the actor,
/// so anywhere else its place in the reply stream would depend on
/// timing, not on the bytes.
fn pipeline() -> Vec<u8> {
    let requests: [(u64, WireRequest<u64>); 7] = [
        (7, WireRequest::Unsubscribe { sub: 99 }),
        (8, WireRequest::Read { key: 1, constraint: Constraint::Absolute(5.0), now: 1 }),
        (9, WireRequest::Write { key: 2, value: 1e6, now: 2 }),
        (
            10,
            WireRequest::Aggregate {
                kind: AggregateKind::Sum,
                keys: vec![1, 2],
                constraint: Constraint::Absolute(1.0),
                now: 3,
            },
        ),
        (11, WireRequest::Subscribe { key: 1, filter: PushFilter::Always, now: 4 }),
        // Escapes key 1's interval: one push on subscription 11.
        (12, WireRequest::Write { key: 1, value: 5e5, now: 5 }),
        (13, WireRequest::Shutdown),
    ];
    let mut bytes = Vec::new();
    for (id, request) in requests {
        encode_framed(id, &WireMessage::Request(request), &mut bytes);
    }
    bytes
}

/// Serve one fresh connection, write `pieces` one at a time — each only
/// after the reactor has consumed the one before — and return every
/// byte the server sent before closing.
fn replies(pieces: &[&[u8]]) -> Vec<u8> {
    let runtime = one_shard(RuntimeConfig::default());
    let config = ReactorConfig { workers: 1, ..ReactorConfig::default() };
    let reactor: Reactor<Observed> = Reactor::launch(&runtime.handle(), config).unwrap();
    let (server_end, mut client) = loopback_streams();
    let server_end = Observed::new(server_end);
    let drained = Arc::clone(&server_end.drained);
    reactor.add_connection(server_end);

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut seen = 0; // the adoption round's empty read comes first
    for piece in pieces {
        while drained.load(Ordering::SeqCst) == seen {
            assert!(Instant::now() < deadline, "the reactor never drained the stream");
            std::thread::yield_now();
        }
        seen = drained.load(Ordering::SeqCst);
        client.write_all(piece).unwrap();
    }
    let mut out = Vec::new();
    client.read_to_end(&mut out).unwrap();
    reactor.join();
    runtime.shutdown().unwrap();
    out
}

fn frames(mut bytes: &[u8]) -> Vec<(u64, WireMessage<u64>)> {
    let mut out = Vec::new();
    while !bytes.is_empty() {
        let (body, consumed) = split_frame(bytes).expect("whole frames only");
        let frame = decode_frame::<u64>(body).expect("well-formed frame");
        out.push((frame.request_id, frame.msg));
        bytes = &bytes[consumed..];
    }
    out
}

#[test]
fn reply_stream_is_identical_for_every_byte_boundary_split() {
    let bytes = pipeline();
    let whole = replies(&[&bytes]);

    // The whole-write run is the spec: ids echoed, the push ahead of
    // the write that caused it, `ShutdownAck` last.
    let got = frames(&whole);
    let ids: Vec<u64> = got.iter().map(|(id, _)| *id).collect();
    assert_eq!(ids, [7, 8, 9, 10, 11, 11, 12, 13]);
    assert!(matches!(
        got[0].1,
        WireMessage::Response(WireResponse::Unsubscribed { existed: false })
    ));
    assert!(matches!(got[4].1, WireMessage::Response(WireResponse::Subscribed { .. })));
    assert!(matches!(got[5].1, WireMessage::Push(_)));
    assert!(matches!(got[7].1, WireMessage::Response(WireResponse::ShutdownAck)));

    for cut in 1..bytes.len() {
        let (head, tail) = bytes.split_at(cut);
        assert_eq!(replies(&[head, tail]), whole, "split at byte {cut}");
    }
    let singles: Vec<&[u8]> = bytes.chunks(1).collect();
    assert_eq!(replies(&singles), whole, "one byte per write");
}

#[test]
fn a_stream_that_cannot_be_readied_is_closed_and_the_worker_serves_on() {
    let runtime = one_shard(RuntimeConfig::default());
    let handle = runtime.handle();
    let open = handle.telemetry().registry().gauge("apcache_connections_open", "", &[]);
    let conn_opens = || {
        let trace = handle.telemetry().trace().dump();
        trace.iter().filter(|e| e.kind == TraceKind::ConnOpen).count()
    };
    let config = ReactorConfig { workers: 1, ..ReactorConfig::default() };
    let reactor: Reactor<Observed> = Reactor::launch(&handle, config).unwrap();

    let (server_end, mut refused) = loopback_streams();
    reactor.add_connection(Observed { refuse_adopt: true, ..Observed::new(server_end) });
    let mut out = Vec::new();
    refused.read_to_end(&mut out).unwrap();
    assert!(out.is_empty(), "the worker closed the stream without serving it");
    assert_eq!((open.get(), conn_opens()), (0, 0));

    // A blocking stream would have parked the one worker on its first
    // read; the next connection is answered.
    let (server_end, client_end) = loopback_streams();
    reactor.add_connection(Observed::new(server_end));
    let mut client: RemoteStoreClient<u64, _> =
        RemoteStoreClient::new(StreamTransport::new(client_end));
    assert!(client.read(&1, Constraint::Exact, 0).unwrap().answer.contains(100.0));
    assert_eq!((open.get(), conn_opens()), (1, 1));
    drop(client);
    reactor.join();
    assert_eq!(open.get(), 0);
    runtime.shutdown().unwrap();
}

#[test]
fn fin_after_a_full_window_still_answers_every_request() {
    // A mailbox of 8 caps the worker at 4 submitted-but-unharvested
    // requests, so 64 pipelined reads stall the pump again and again —
    // with the FIN already seen. Draining must wait for the backlog.
    const REQUESTS: u64 = 64;
    let runtime = one_shard(RuntimeConfig { mailbox_capacity: 8, ..RuntimeConfig::default() });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let reactor: Reactor<TcpStream> =
        Reactor::launch(&runtime.handle(), ReactorConfig::default()).unwrap();
    reactor.add_connection(listener.accept().unwrap().0);

    let mut bytes = Vec::new();
    for id in 1..=REQUESTS {
        let read = WireRequest::Read { key: 1u64, constraint: Constraint::Exact, now: id };
        encode_framed(id, &WireMessage::Request(read), &mut bytes);
    }
    client.write_all(&bytes).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    client.read_to_end(&mut out).unwrap();

    let mut ids: Vec<u64> = frames(&out)
        .into_iter()
        .map(|(id, msg)| {
            assert!(matches!(msg, WireMessage::Response(WireResponse::Read(_))), "{msg:?}");
            id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=REQUESTS).collect::<Vec<_>>());
    reactor.join();
    runtime.shutdown().unwrap();
}
